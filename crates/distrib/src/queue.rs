//! The filesystem job queue: atomic shard claims, **monotonic
//! counter leases**, lease-stall requeue, work-stealing surplus/steal
//! markers and durable completion markers.
//!
//! Layout of a queue directory:
//!
//! ```text
//! <queue>/manifest.bin       the SweepManifest (atomic temp+rename)
//! <queue>/shard-<i>.claim    exists ⇒ shard i is claimed; payload =
//!                            a lease stamp (heartbeat counter +
//!                            remaining-priority-mass estimate)
//! <queue>/shard-<i>.surplus  the owner's steal offer: the tail half
//!                            of the shard's unit list, write-once
//! <queue>/shard-<i>.steal    exists ⇒ a thief owns the surplus units;
//!                            payload = the thief's lease stamp
//! <queue>/shard-<i>.sub.done the thief's encoded sub-shard report
//! <queue>/shard-<i>.*.r<k>   round k ≥ 1 of the same three steal
//!                            markers (recursive halving: each re-offer
//!                            opens a fresh write-once round; round 0
//!                            keeps the unsuffixed names)
//! <queue>/shard-<i>.done     exists ⇒ shard i is complete; payload =
//!                            the worker's encoded ShardReport
//! <queue>/scale.down         scale-down watermark: total retirement
//!                            tokens the coordinator has posted
//! <queue>/retire-<k>.claim   exists ⇒ token k is claimed (an idle
//!                            worker retired, or the coordinator
//!                            voided the token)
//! ```
//!
//! The protocol needs nothing but POSIX rename/create-new atomicity, so
//! it works across processes and across hosts on a shared filesystem:
//!
//! * **claim** — `O_CREAT|O_EXCL` on the claim file; exactly one worker
//!   wins a shard;
//! * **lease** — a *monotonic heartbeat counter* inside the claim file,
//!   rewritten (atomic temp+rename) by the owner on a TTL/4 cadence. A
//!   lease is live while its counter keeps advancing and **expired**
//!   when the counter fails to advance across a TTL observation window
//!   measured on the *observer's own monotonic clock*
//!   ([`LeaseObserver`]). No wall clock is ever compared across hosts:
//!   a claim stamped by a clock-skewed host — mtime in the future,
//!   counter absurdly large — expires exactly like any other once it
//!   stops advancing. (The previous protocol compared claim-file mtimes
//!   against the observer's wall clock; a skew-ahead host's claim then
//!   read as never-expiring and wedged the sweep on a dead worker.)
//! * **requeue** — anyone holding a [`LeaseObserver`] (the coordinator,
//!   or an idle worker) may delete a stalled claim; the next
//!   `claim_next` scan re-claims the shard;
//! * **steal** — the owner of a large shard publishes the tail half of
//!   its priority-ordered unit list as a write-once *surplus* marker;
//!   an idle worker claims it with `O_CREAT|O_EXCL` on the steal file
//!   and heartbeats its own counter into that file while it works the
//!   stolen units, completing them with a durable sub-shard report.
//!   Each marker is write-once, but the protocol is *rounded*: when a
//!   thief finishes round k while the owner still holds enough
//!   unprocessed units, the owner re-offers the tail half of its
//!   remainder as round k + 1 (fresh `.r<k+1>`-suffixed marker names,
//!   so republishing never races a thief's read of an older offer) —
//!   recursive halving that converges every idle worker on the last
//!   straggler shard;
//! * **scale-down** — the coordinator posts a monotone count of
//!   *retirement tokens* ([`JobQueue::post_retirements`]); a worker
//!   that is idle with nothing to claim or steal takes one token with
//!   `O_CREAT|O_EXCL` ([`JobQueue::claim_retirement`]) and exits early,
//!   freeing its core for co-located fleets;
//! * **complete** — reports are written to a temp file, `fsync`ed and
//!   renamed, so a completion marker is always whole *and durable*: a
//!   host crash right after the rename can no longer surface an empty
//!   or truncated marker. A marker that still fails to decode (torn by
//!   an older writer, corrupted at rest) is treated by the coordinator
//!   as **incomplete** — [`JobQueue::invalidate_done`] resets the shard
//!   for requeue instead of merging garbage.
//!
//! Races are resolved by idempotency, not locking: if a presumed-dead
//! worker was merely slow, two workers may process one shard — but unit
//! results are content-addressed in the shared store, so both publish
//! identical bytes under identical keys and the merge cannot tell the
//! difference. Spurious requeues and late steals cost duplicate work,
//! never wrong results.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use widening_pipeline::codec::{self, Reader, Writer};

use crate::manifest::SweepManifest;

const MANIFEST_FILE: &str = "manifest.bin";

/// Magic + version prefix of a lease stamp (claim / steal files).
const LEASE_MAGIC: [u8; 4] = *b"WLSE";
const LEASE_VERSION: u32 = 1;

/// Magic + version prefix of a surplus (steal-offer) marker.
const SURPLUS_MAGIC: [u8; 4] = *b"WSUR";
const SURPLUS_VERSION: u32 = 1;

/// Magic + version prefix of the scale-down watermark file.
const RETIRE_MAGIC: [u8; 4] = *b"WRET";
const RETIRE_VERSION: u32 = 1;

/// Remaining-mass value meaning "not measured yet" (a claim stamped at
/// creation, before the owner's first heartbeat). Consumers fall back
/// to the manifest's static estimate.
pub const MASS_UNKNOWN: u64 = u64::MAX;

/// One heartbeat observation: the monotonic counter a lease owner keeps
/// advancing, plus its current remaining-work estimate (the
/// `sweep_priority` mass of units not yet processed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseStamp {
    /// Monotonic heartbeat counter. Only *advancement* carries meaning;
    /// the absolute value never does (a future-stamped counter from a
    /// skewed or restarted host is indistinguishable from any other
    /// starting point).
    pub counter: u64,
    /// Remaining `sweep_priority` mass behind this lease, or
    /// [`MASS_UNKNOWN`].
    pub mass: u64,
}

impl LeaseStamp {
    fn encode(&self, tag: &str) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(&LEASE_MAGIC);
        w.u32(LEASE_VERSION);
        w.u64(self.counter);
        w.u64(self.mass);
        w.bytes(tag.as_bytes());
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        if r.take(4)? != LEASE_MAGIC || r.u32()? != LEASE_VERSION {
            return None;
        }
        Some(LeaseStamp {
            counter: r.u64()?,
            mass: r.u64()?,
        })
    }
}

/// Stall detector for one lease file, on the observer's own monotonic
/// clock. Feed it observations; it reports expiry when the observed
/// value stops changing for longer than the TTL.
#[derive(Debug, Default, Clone, Copy)]
pub struct LeaseWatch {
    last: Option<(u64, Instant)>,
}

impl LeaseWatch {
    /// A watch with no observation yet.
    #[must_use]
    pub fn new() -> Self {
        LeaseWatch::default()
    }

    /// Feeds one observation (any stable digest of the lease file —
    /// usually the heartbeat counter; a raw-byte hash for files that do
    /// not parse, so garbage still expires when it sits still). Returns
    /// `true` when the value has not changed across a window longer
    /// than `ttl` on this observer's monotonic clock.
    pub fn observe(&mut self, value: u64, ttl: Duration) -> bool {
        let now = Instant::now();
        match self.last {
            Some((prev, since)) if prev == value => now.duration_since(since) > ttl,
            _ => {
                self.last = Some((value, now));
                false
            }
        }
    }

    /// Forgets the observation history (the watched file vanished or
    /// was reset).
    pub fn reset(&mut self) {
        self.last = None;
    }
}

/// Per-shard [`LeaseWatch`]es for a whole queue: the state an observer
/// (coordinator or idle worker) threads through repeated
/// [`JobQueue::requeue_expired`] calls. Clock-skew-proof by
/// construction — nothing in here ever reads a file mtime or compares
/// wall clocks across hosts.
#[derive(Debug, Default)]
pub struct LeaseObserver {
    claims: HashMap<usize, LeaseWatch>,
}

impl LeaseObserver {
    /// A fresh observer with no history. The first TTL window after
    /// construction never expires anything — stalls must be *observed*,
    /// not inferred from on-disk state of unknown age.
    #[must_use]
    pub fn new() -> Self {
        LeaseObserver::default()
    }
}

/// A handle on one sweep's queue directory. Cheap to clone.
#[derive(Debug, Clone)]
pub struct JobQueue {
    root: PathBuf,
    shard_count: usize,
}

impl JobQueue {
    /// Creates a queue directory holding `manifest` and its (initially
    /// unclaimed) shards.
    ///
    /// # Errors
    ///
    /// Any filesystem error creating the directory or writing the
    /// manifest.
    pub fn create(root: impl Into<PathBuf>, manifest: &SweepManifest) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        atomic_write(&root, MANIFEST_FILE, &manifest.encode(), true)?;
        Ok(JobQueue {
            root,
            shard_count: manifest.shards.len(),
        })
    }

    /// Opens an existing queue, returning it with its decoded manifest.
    /// `None` when the manifest is missing or fails validation.
    #[must_use]
    pub fn open(root: impl Into<PathBuf>) -> Option<(Self, SweepManifest)> {
        let root = root.into();
        let bytes = fs::read(root.join(MANIFEST_FILE)).ok()?;
        let manifest = SweepManifest::decode(&bytes)?;
        let queue = JobQueue {
            root,
            shard_count: manifest.shards.len(),
        };
        Some((queue, manifest))
    }

    /// The queue directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Number of shards in the queue.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    fn claim_path(&self, shard: usize) -> PathBuf {
        self.root.join(format!("shard-{shard}.claim"))
    }

    fn done_path(&self, shard: usize) -> PathBuf {
        self.root.join(format!("shard-{shard}.done"))
    }

    /// A steal-marker file name for `round`: round 0 keeps the legacy
    /// unsuffixed name (wire compatibility with pre-halving fleets),
    /// later rounds append `.r<round>`.
    fn round_name(shard: usize, base: &str, round: u32) -> String {
        if round == 0 {
            format!("shard-{shard}.{base}")
        } else {
            format!("shard-{shard}.{base}.r{round}")
        }
    }

    fn surplus_path(&self, shard: usize, round: u32) -> PathBuf {
        self.root.join(Self::round_name(shard, "surplus", round))
    }

    fn steal_path(&self, shard: usize, round: u32) -> PathBuf {
        self.root.join(Self::round_name(shard, "steal", round))
    }

    fn sub_done_path(&self, shard: usize, round: u32) -> PathBuf {
        self.root.join(Self::round_name(shard, "sub.done", round))
    }

    fn retire_watermark_path(&self) -> PathBuf {
        self.root.join("scale.down")
    }

    fn retire_claim_path(&self, token: u32) -> PathBuf {
        self.root.join(format!("retire-{token}.claim"))
    }

    /// Atomically claims the lowest-numbered unclaimed, incomplete
    /// shard, stamping an initial lease (counter 0, mass unknown) plus
    /// `tag` (diagnostic only) into the claim file. `None` when every
    /// shard is claimed or done — which does **not** mean the sweep is
    /// finished: a claim may yet stall and return.
    #[must_use]
    pub fn claim_next(&self, tag: &str) -> Option<usize> {
        let initial = LeaseStamp {
            counter: 0,
            mass: MASS_UNKNOWN,
        };
        for shard in 0..self.shard_count {
            if self.is_done(shard) {
                continue;
            }
            let mut opts = fs::OpenOptions::new();
            opts.write(true).create_new(true);
            if let Ok(mut f) = opts.open(self.claim_path(shard)) {
                let _ = f.write_all(&initial.encode(tag));
                return Some(shard);
            }
        }
        None
    }

    /// Renews the lease on a claimed shard: atomically rewrites the
    /// claim file with the owner's next heartbeat stamp. If the claim
    /// was requeued from under a slow owner this quietly re-creates it
    /// — harmless, see the module documentation on idempotency.
    pub fn renew_lease(&self, shard: usize, tag: &str, stamp: LeaseStamp) {
        let name = format!("shard-{shard}.claim");
        let _ = atomic_write(&self.root, &name, &stamp.encode(tag), false);
    }

    /// The last lease stamp written for a shard's claim, if the claim
    /// exists and parses.
    #[must_use]
    pub fn read_claim(&self, shard: usize) -> Option<LeaseStamp> {
        LeaseStamp::decode(&fs::read(self.claim_path(shard)).ok()?)
    }

    /// Marks a shard complete, durably publishing the worker's encoded
    /// report. Atomic and fsynced: readers see either no marker or a
    /// whole one, even across a host crash.
    pub fn complete(&self, shard: usize, report: &[u8]) {
        let _ = atomic_write(&self.root, &format!("shard-{shard}.done"), report, true);
    }

    /// Whether a shard has a completion marker.
    #[must_use]
    pub fn is_done(&self, shard: usize) -> bool {
        self.done_path(shard).exists()
    }

    /// The completion payload of a shard, if any.
    #[must_use]
    pub fn completion(&self, shard: usize) -> Option<Vec<u8>> {
        fs::read(self.done_path(shard)).ok()
    }

    /// Resets a shard whose completion marker failed to decode (torn by
    /// a pre-fsync writer, corrupted at rest): removes the marker and
    /// every claim/steal artifact so the shard re-enters the claimable
    /// pool. The published unit results are content-addressed and
    /// survive — the re-run is mostly result-tier hits. Returns whether
    /// a marker was actually removed.
    pub fn invalidate_done(&self, shard: usize) -> bool {
        let removed = fs::remove_file(self.done_path(shard)).is_ok();
        if removed {
            let _ = fs::remove_file(self.claim_path(shard));
            // Steal rounds are published contiguously from 0, so the
            // sweep stops at the first round with no artifacts.
            for round in 0.. {
                let gone = [
                    fs::remove_file(self.steal_path(shard, round)),
                    fs::remove_file(self.surplus_path(shard, round)),
                    fs::remove_file(self.sub_done_path(shard, round)),
                ];
                if gone.iter().all(Result::is_err) {
                    break;
                }
            }
        }
        removed
    }

    /// Whether every shard is complete.
    #[must_use]
    pub fn all_done(&self) -> bool {
        (0..self.shard_count).all(|s| self.is_done(s))
    }

    /// Whether the queue has been retired: its manifest is gone (a
    /// coordinator removes the whole directory once its sweep ends).
    /// Idle workers exit on retirement instead of polling a vanished
    /// queue forever.
    #[must_use]
    pub fn is_retired(&self) -> bool {
        !self.root.join(MANIFEST_FILE).exists()
    }

    /// Shards without a completion marker.
    #[must_use]
    pub fn remaining(&self) -> usize {
        (0..self.shard_count).filter(|&s| !self.is_done(s)).count()
    }

    /// Requeues every claimed, incomplete shard whose lease counter has
    /// failed to advance across a full `ttl` window of `observer`'s
    /// monotonic clock (its worker stopped heartbeating — killed, hung
    /// or unreachable). Wall-clock skew between hosts is irrelevant:
    /// only counter movement is compared, never timestamps. Returns how
    /// many claims were released.
    pub fn requeue_expired(&self, observer: &mut LeaseObserver, ttl: Duration) -> usize {
        let mut requeued = 0;
        for shard in 0..self.shard_count {
            if self.is_done(shard) {
                observer.claims.remove(&shard);
                continue;
            }
            let path = self.claim_path(shard);
            let Ok(bytes) = fs::read(&path) else {
                observer.claims.remove(&shard); // unclaimed
                continue;
            };
            let observation = lease_observation(&bytes);
            let watch = observer.claims.entry(shard).or_default();
            if watch.observe(observation, ttl) && fs::remove_file(&path).is_ok() {
                watch.reset();
                requeued += 1;
            }
        }
        requeued
    }

    // -- work stealing -------------------------------------------------

    /// Publishes round 0's steal offer (see
    /// [`JobQueue::publish_surplus_round`]).
    pub fn publish_surplus(&self, shard: usize, split: u32, units: &[u32]) -> bool {
        self.publish_surplus_round(shard, 0, split, units)
    }

    /// Publishes one round's steal offer for a claimed shard: the unit
    /// ids from `split` (an index into the shard's own unit list) to
    /// the end of the round's range. Write-once *per round* —
    /// republishing a round would race a thief's read of the old
    /// offer, so each re-offer opens a fresh round instead. Returns
    /// whether an offer for this round (this one or an earlier
    /// owner's) is now on disk.
    pub fn publish_surplus_round(
        &self,
        shard: usize,
        round: u32,
        split: u32,
        units: &[u32],
    ) -> bool {
        if self.surplus_path(shard, round).exists() {
            return true;
        }
        let mut w = Writer::new();
        w.bytes(&SURPLUS_MAGIC);
        w.u32(SURPLUS_VERSION);
        w.u32(split);
        w.len(units.len());
        for &u in units {
            w.u32(u);
        }
        atomic_write(
            &self.root,
            &Self::round_name(shard, "surplus", round),
            &w.into_bytes(),
            true,
        )
        .is_ok()
    }

    /// Round 0's steal offer (see [`JobQueue::read_surplus_round`]).
    #[must_use]
    pub fn read_surplus(&self, shard: usize) -> Option<(u32, Vec<u32>)> {
        self.read_surplus_round(shard, 0)
    }

    /// The steal offer published for one round of a shard, if any: the
    /// split index and the offered unit ids.
    #[must_use]
    pub fn read_surplus_round(&self, shard: usize, round: u32) -> Option<(u32, Vec<u32>)> {
        let bytes = fs::read(self.surplus_path(shard, round)).ok()?;
        let mut r = Reader::new(&bytes);
        if r.take(4)? != SURPLUS_MAGIC || r.u32()? != SURPLUS_VERSION {
            return None;
        }
        let split = r.u32()?;
        let n = r.len()?;
        let mut units = Vec::with_capacity(n);
        for _ in 0..n {
            units.push(r.u32()?);
        }
        r.exhausted().then_some((split, units))
    }

    /// The highest round with a surplus offer on disk, if any. Rounds
    /// are published contiguously from 0 and only the latest can be
    /// unclaimed, so thieves probe exactly this round.
    #[must_use]
    pub fn latest_surplus_round(&self, shard: usize) -> Option<u32> {
        if !self.surplus_path(shard, 0).exists() {
            return None;
        }
        let mut round = 0;
        while self.surplus_path(shard, round + 1).exists() {
            round += 1;
        }
        Some(round)
    }

    /// Whether round 0's surplus has been claimed by a thief.
    #[must_use]
    pub fn steal_claimed(&self, shard: usize) -> bool {
        self.steal_claimed_round(shard, 0)
    }

    /// Whether one round's surplus has been claimed by a thief.
    #[must_use]
    pub fn steal_claimed_round(&self, shard: usize, round: u32) -> bool {
        self.steal_path(shard, round).exists()
    }

    /// Claims round 0's steal offer (see
    /// [`JobQueue::claim_steal_round`]).
    #[must_use]
    pub fn claim_steal(&self, shard: usize, tag: &str) -> Option<Vec<u32>> {
        self.claim_steal_round(shard, 0, tag)
    }

    /// Atomically claims one round's steal offer (`O_CREAT|O_EXCL` on
    /// the round's steal file — exactly one thief wins), returning the
    /// offered units. `None` when the offer is already claimed, the
    /// shard is done, or no offer exists.
    #[must_use]
    pub fn claim_steal_round(&self, shard: usize, round: u32, tag: &str) -> Option<Vec<u32>> {
        if self.is_done(shard) || !self.surplus_path(shard, round).exists() {
            return None;
        }
        let initial = LeaseStamp {
            counter: 0,
            mass: MASS_UNKNOWN,
        };
        let mut opts = fs::OpenOptions::new();
        opts.write(true).create_new(true);
        let mut f = opts.open(self.steal_path(shard, round)).ok()?;
        let _ = f.write_all(&initial.encode(tag));
        drop(f);
        match self.read_surplus_round(shard, round) {
            Some((_, units)) if !units.is_empty() => Some(units),
            // The offer vanished (owner completed) or is unreadable:
            // release the steal claim and walk away.
            _ => {
                let _ = fs::remove_file(self.steal_path(shard, round));
                None
            }
        }
    }

    /// Renews a thief's lease on its round-0 stolen sub-shard.
    pub fn renew_steal(&self, shard: usize, tag: &str, stamp: LeaseStamp) {
        self.renew_steal_round(shard, 0, tag, stamp);
    }

    /// Renews a thief's lease on one round's stolen sub-shard.
    pub fn renew_steal_round(&self, shard: usize, round: u32, tag: &str, stamp: LeaseStamp) {
        let name = Self::round_name(shard, "steal", round);
        let _ = atomic_write(&self.root, &name, &stamp.encode(tag), false);
    }

    /// Round 0's stall observation (see
    /// [`JobQueue::steal_observation_round`]).
    #[must_use]
    pub fn steal_observation(&self, shard: usize) -> Option<u64> {
        self.steal_observation_round(shard, 0)
    }

    /// The raw stall observation for one round's steal file: the lease
    /// counter when it parses, a content hash otherwise, `None` when
    /// the round's steal is not claimed. Owners feed this into a
    /// [`LeaseWatch`] to decide whether their thief died.
    #[must_use]
    pub fn steal_observation_round(&self, shard: usize, round: u32) -> Option<u64> {
        let bytes = fs::read(self.steal_path(shard, round)).ok()?;
        Some(lease_observation(&bytes))
    }

    /// The last lease stamp a still-working thief wrote for a shard,
    /// if any parses (used by the coordinator's remaining-mass
    /// estimate). Looks at the latest steal round; a round whose
    /// sub-report already landed contributes nothing — its mass is
    /// done, not remaining.
    #[must_use]
    pub fn read_steal(&self, shard: usize) -> Option<LeaseStamp> {
        let round = self.latest_surplus_round(shard)?;
        if self.sub_completion_round(shard, round).is_some() {
            return None;
        }
        LeaseStamp::decode(&fs::read(self.steal_path(shard, round)).ok()?)
    }

    /// Durably publishes a thief's round-0 sub-shard completion report.
    pub fn complete_sub(&self, shard: usize, report: &[u8]) {
        self.complete_sub_round(shard, 0, report);
    }

    /// Durably publishes a thief's sub-shard completion report for one
    /// steal round.
    pub fn complete_sub_round(&self, shard: usize, round: u32, report: &[u8]) {
        let _ = atomic_write(
            &self.root,
            &Self::round_name(shard, "sub.done", round),
            report,
            true,
        );
    }

    /// Round 0's sub-shard completion payload, if any.
    #[must_use]
    pub fn sub_completion(&self, shard: usize) -> Option<Vec<u8>> {
        self.sub_completion_round(shard, 0)
    }

    /// The sub-shard completion payload for one steal round, if any.
    #[must_use]
    pub fn sub_completion_round(&self, shard: usize, round: u32) -> Option<Vec<u8>> {
        fs::read(self.sub_done_path(shard, round)).ok()
    }

    /// Removes round 0's surplus offer (see
    /// [`JobQueue::retract_surplus_round`]).
    pub fn retract_surplus(&self, shard: usize) {
        self.retract_surplus_round(shard, 0);
    }

    /// Removes one round's surplus offer (the owner completed without
    /// it ever being stolen — a late thief would only duplicate
    /// finished work).
    pub fn retract_surplus_round(&self, shard: usize, round: u32) {
        let _ = fs::remove_file(self.surplus_path(shard, round));
    }

    // -- scale-down ----------------------------------------------------

    /// Posts the scale-down watermark: the total number of retirement
    /// tokens ever issued for this queue. Monotone — the coordinator
    /// only raises it; lowering cannot un-retire a worker that already
    /// read a token.
    pub fn post_retirements(&self, total: u32) {
        let mut w = Writer::new();
        w.bytes(&RETIRE_MAGIC);
        w.u32(RETIRE_VERSION);
        w.u32(total);
        let _ = atomic_write(&self.root, "scale.down", &w.into_bytes(), false);
    }

    /// The posted retirement-token total (0 when none posted).
    #[must_use]
    pub fn retirement_tokens(&self) -> u32 {
        let Ok(bytes) = fs::read(self.retire_watermark_path()) else {
            return 0;
        };
        let mut r = Reader::new(&bytes);
        if r.take(4) != Some(&RETIRE_MAGIC) || r.u32() != Some(RETIRE_VERSION) {
            return 0;
        }
        r.u32().unwrap_or(0)
    }

    /// Atomically claims one posted retirement token (`O_CREAT|O_EXCL`
    /// on the token's claim file — each token retires exactly one
    /// worker), returning the token index. `None` when every posted
    /// token is claimed or none were posted.
    #[must_use]
    pub fn claim_retirement(&self, tag: &str) -> Option<u32> {
        for token in 0..self.retirement_tokens() {
            let mut opts = fs::OpenOptions::new();
            opts.write(true).create_new(true);
            if let Ok(mut f) = opts.open(self.retire_claim_path(token)) {
                let _ = f.write_all(tag.as_bytes());
                return Some(token);
            }
        }
        None
    }

    /// How many posted retirement tokens have been claimed.
    #[must_use]
    pub fn retirements_claimed(&self) -> u32 {
        (0..self.retirement_tokens())
            .filter(|&t| self.retire_claim_path(t).exists())
            .count() as u32
    }
}

/// The stall-detection digest of a lease file's bytes: the heartbeat
/// counter when the stamp parses, a raw content hash otherwise — so a
/// garbage or torn claim file still *expires* once it sits still,
/// instead of wedging the shard forever.
fn lease_observation(bytes: &[u8]) -> u64 {
    match LeaseStamp::decode(bytes) {
        Some(stamp) => stamp.counter,
        None => codec::fnv128(bytes) as u64,
    }
}

/// Writes `bytes` to `<dir>/<name>` through a uniquely-named temp file
/// and an atomic rename. With `durable`, the temp file is `fsync`ed
/// before the rename — a crash can then never surface a present-but-
/// truncated file under the final name (rename durability without data
/// durability is exactly how empty `shard-N.done` markers were born).
fn atomic_write(dir: &Path, name: &str, bytes: &[u8], durable: bool) -> io::Result<()> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let tmp = dir.join(format!(
        ".tmp-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let mut f = fs::File::create(&tmp)?;
    let mut written = f.write_all(bytes).and_then(|()| f.flush());
    if durable {
        written = written.and_then(|()| f.sync_all());
    }
    drop(f);
    let renamed = written.and_then(|()| fs::rename(&tmp, dir.join(name)));
    if renamed.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    renamed
}

#[cfg(test)]
mod tests {
    use super::*;
    use widening_machine::CycleModel;
    use widening_pipeline::{CompileOptions, PointSpec};
    use widening_workload::kernels;

    fn temp_queue(shards: usize) -> (PathBuf, JobQueue, SweepManifest) {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "widening-queue-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        let spec = PointSpec::scheduled(
            &"2w2(64:1)".parse().unwrap(),
            CycleModel::Cycles4,
            CompileOptions::default(),
        );
        let manifest = SweepManifest::partition(kernels::all(), vec![spec], shards);
        let queue = JobQueue::create(&dir, &manifest).unwrap();
        (dir, queue, manifest)
    }

    fn stamp(counter: u64) -> LeaseStamp {
        LeaseStamp {
            counter,
            mass: MASS_UNKNOWN,
        }
    }

    // Claim and steal files are read back from a shared directory that
    // other processes write and may tear: whatever bytes they hold,
    // decoding returns a stamp or `None`, never a panic.
    mod lease_stamp_decoding {
        use super::*;
        use proptest::prelude::*;

        fn arb_claim() -> impl Strategy<Value = (LeaseStamp, String)> {
            (any::<u64>(), any::<u64>(), 0usize..24)
                .prop_map(|(counter, mass, tag)| (LeaseStamp { counter, mass }, "w".repeat(tag)))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
                let _ = LeaseStamp::decode(&bytes);
            }

            #[test]
            fn truncation_is_rejected((s, tag) in arb_claim(), cut in any::<usize>()) {
                let bytes = s.encode(&tag);
                prop_assert_eq!(LeaseStamp::decode(&bytes), Some(s));
                // The owner tag is informational: only a cut into the
                // stamp itself loses it.
                let at = cut % 24;
                prop_assert_eq!(LeaseStamp::decode(&bytes[..at]), None);
            }

            #[test]
            fn bit_flips_never_panic((s, tag) in arb_claim(), bit in any::<usize>()) {
                let mut bytes = s.encode(&tag);
                let at = bit % (bytes.len() * 8);
                bytes[at / 8] ^= 1 << (at % 8);
                let decoded = LeaseStamp::decode(&bytes);
                // Magic or version flipped: rejected. A stamp field
                // flipped: a different stamp. The tag: ignored.
                match at / 8 {
                    0..=7 => prop_assert_eq!(decoded, None),
                    8..=23 => prop_assert!(decoded.is_some() && decoded != Some(s)),
                    _ => prop_assert_eq!(decoded, Some(s)),
                }
            }
        }
    }

    #[test]
    fn open_round_trips_the_manifest() {
        let (dir, queue, manifest) = temp_queue(3);
        let (reopened, decoded) = JobQueue::open(&dir).expect("opens");
        assert_eq!(reopened.shard_count(), queue.shard_count());
        assert_eq!(decoded, manifest);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn claims_are_exclusive_and_ordered() {
        let (dir, queue, _) = temp_queue(3);
        assert_eq!(queue.claim_next("a"), Some(0));
        assert_eq!(queue.claim_next("b"), Some(1));
        assert_eq!(queue.claim_next("c"), Some(2));
        assert_eq!(queue.claim_next("d"), None);
        // Fresh claims carry the initial stamp.
        assert_eq!(queue.read_claim(0), Some(stamp(0)));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn completion_skips_and_finishes_the_queue() {
        let (dir, queue, _) = temp_queue(2);
        queue.complete(0, b"report-0");
        assert!(queue.is_done(0));
        assert_eq!(queue.completion(0).as_deref(), Some(&b"report-0"[..]));
        // Done shards are never claimed.
        assert_eq!(queue.claim_next("w"), Some(1));
        assert!(!queue.all_done());
        queue.complete(1, b"report-1");
        assert!(queue.all_done());
        assert_eq!(queue.remaining(), 0);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn stalled_leases_requeue_incomplete_shards_only() {
        let (dir, queue, _) = temp_queue(2);
        assert_eq!(queue.claim_next("doomed"), Some(0));
        assert_eq!(queue.claim_next("fine"), Some(1));
        queue.complete(1, b"ok");
        let ttl = Duration::from_millis(20);
        let mut obs = LeaseObserver::new();
        // First observation only opens the window — nothing expires.
        assert_eq!(queue.requeue_expired(&mut obs, ttl), 0);
        std::thread::sleep(Duration::from_millis(30));
        // Shard 0's counter (never advanced) stalls; shard 1 is done
        // and untouchable.
        assert_eq!(queue.requeue_expired(&mut obs, ttl), 1);
        assert_eq!(queue.claim_next("rescuer"), Some(0));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn lease_renewal_keeps_a_shard_claimed() {
        let (dir, queue, _) = temp_queue(1);
        assert_eq!(queue.claim_next("w"), Some(0));
        let ttl = Duration::from_millis(25);
        let mut obs = LeaseObserver::new();
        assert_eq!(queue.requeue_expired(&mut obs, ttl), 0);
        std::thread::sleep(Duration::from_millis(30));
        // The counter advanced inside the window: the lease is live no
        // matter how much wall time passed.
        queue.renew_lease(0, "w", stamp(1));
        assert_eq!(queue.requeue_expired(&mut obs, ttl), 0);
        std::thread::sleep(Duration::from_millis(30));
        queue.renew_lease(0, "w", stamp(2));
        assert_eq!(queue.requeue_expired(&mut obs, ttl), 0);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn future_stamped_claims_still_expire() {
        // The cross-host clock-skew case the mtime protocol wedged on: a
        // claim whose counter (and mtime) lie absurdly "in the future"
        // must expire exactly like any other once it stops advancing.
        let (dir, queue, _) = temp_queue(1);
        assert_eq!(queue.claim_next("skewed"), Some(0));
        queue.renew_lease(0, "skewed", stamp(u64::MAX - 1));
        // Push the claim file's mtime a year ahead, as a skew-ahead
        // host's writes would.
        let claim = dir.join("shard-0.claim");
        let future = std::time::SystemTime::now() + Duration::from_secs(365 * 24 * 3600);
        fs::File::options()
            .append(true)
            .open(&claim)
            .unwrap()
            .set_modified(future)
            .unwrap();
        let ttl = Duration::from_millis(20);
        let mut obs = LeaseObserver::new();
        assert_eq!(queue.requeue_expired(&mut obs, ttl), 0);
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(
            queue.requeue_expired(&mut obs, ttl),
            1,
            "a future-stamped stalled claim must requeue"
        );
        assert_eq!(queue.claim_next("rescuer"), Some(0));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn garbage_claim_files_expire_instead_of_wedging() {
        let (dir, queue, _) = temp_queue(1);
        // A torn or foreign-format claim file: no parseable counter.
        fs::write(dir.join("shard-0.claim"), b"\x00\xffnot-a-lease").unwrap();
        let ttl = Duration::from_millis(15);
        let mut obs = LeaseObserver::new();
        assert_eq!(queue.requeue_expired(&mut obs, ttl), 0);
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(queue.requeue_expired(&mut obs, ttl), 1);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn invalidate_done_resets_the_shard() {
        let (dir, queue, _) = temp_queue(2);
        assert_eq!(queue.claim_next("w"), Some(0));
        queue.publish_surplus(0, 1, &[3, 5]);
        queue.complete(0, b"\x01garbage-that-wont-decode");
        assert!(queue.is_done(0));
        assert!(queue.invalidate_done(0));
        assert!(!queue.is_done(0));
        assert!(queue.read_surplus(0).is_none(), "surplus reset too");
        // The shard is claimable again (its stale claim was removed).
        assert_eq!(queue.claim_next("again"), Some(0));
        assert!(!queue.invalidate_done(1), "no marker, nothing removed");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn steal_protocol_is_exclusive_and_write_once() {
        let (dir, queue, _) = temp_queue(1);
        assert_eq!(queue.claim_next("owner"), Some(0));
        assert!(queue.claim_steal(0, "too-early").is_none(), "no offer yet");
        assert!(queue.publish_surplus(0, 4, &[9, 11, 13]));
        // Write-once: a second publish cannot change the offer.
        assert!(queue.publish_surplus(0, 1, &[1]));
        assert_eq!(queue.read_surplus(0), Some((4, vec![9, 11, 13])));
        // Exactly one thief wins.
        assert_eq!(queue.claim_steal(0, "thief-a"), Some(vec![9, 11, 13]));
        assert!(queue.steal_claimed(0));
        assert!(queue.claim_steal(0, "thief-b").is_none());
        // The thief heartbeats its own lease; the owner reads it.
        queue.renew_steal(0, "thief-a", stamp(7));
        assert_eq!(queue.steal_observation(0), Some(7));
        queue.complete_sub(0, b"sub-report");
        assert_eq!(queue.sub_completion(0).as_deref(), Some(&b"sub-report"[..]));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn retracted_surplus_stops_late_thieves() {
        let (dir, queue, _) = temp_queue(1);
        assert_eq!(queue.claim_next("owner"), Some(0));
        assert!(queue.publish_surplus(0, 2, &[5, 6]));
        queue.retract_surplus(0);
        assert!(queue.claim_steal(0, "late-thief").is_none());
        assert!(!queue.steal_claimed(0), "failed steal leaves no residue");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn done_shards_reject_steals() {
        let (dir, queue, _) = temp_queue(1);
        assert_eq!(queue.claim_next("owner"), Some(0));
        assert!(queue.publish_surplus(0, 2, &[5, 6]));
        queue.complete(0, b"done");
        assert!(queue.claim_steal(0, "thief").is_none());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn steal_rounds_halve_recursively_with_legacy_round_zero_names() {
        let (dir, queue, _) = temp_queue(1);
        assert_eq!(queue.claim_next("owner"), Some(0));
        assert!(queue.latest_surplus_round(0).is_none());

        // Round 0 keeps the legacy unsuffixed file names on disk, so
        // pre-halving workers interoperate.
        assert!(queue.publish_surplus_round(0, 0, 8, &[9, 11, 13, 15]));
        assert!(dir.join("shard-0.surplus").exists());
        assert_eq!(queue.latest_surplus_round(0), Some(0));
        assert_eq!(
            queue.claim_steal_round(0, 0, "thief-a"),
            Some(vec![9, 11, 13, 15])
        );
        assert!(dir.join("shard-0.steal").exists());
        queue.complete_sub_round(0, 0, b"sub-0");

        // The thief finished; the owner re-offers its remaining tail as
        // a fresh write-once round.
        assert!(queue.publish_surplus_round(0, 1, 4, &[5, 7]));
        assert!(dir.join("shard-0.surplus.r1").exists());
        assert_eq!(queue.latest_surplus_round(0), Some(1));
        assert!(
            !queue.steal_claimed_round(0, 1),
            "round 1 opens unclaimed even though round 0's steal file persists"
        );
        assert_eq!(queue.claim_steal_round(0, 1, "thief-b"), Some(vec![5, 7]));
        assert!(queue.claim_steal_round(0, 1, "thief-c").is_none());
        // Per-round leases and sub-reports never collide across rounds.
        queue.renew_steal_round(0, 1, "thief-b", stamp(3));
        assert_eq!(queue.steal_observation_round(0, 1), Some(3));
        queue.complete_sub_round(0, 1, b"sub-1");
        assert_eq!(
            queue.sub_completion_round(0, 0).as_deref(),
            Some(&b"sub-0"[..])
        );
        assert_eq!(
            queue.sub_completion_round(0, 1).as_deref(),
            Some(&b"sub-1"[..])
        );

        // read_steal tracks the latest round and goes quiet once that
        // round's sub-report lands (the mass is done, not remaining).
        assert!(queue.read_steal(0).is_none());

        // invalidate_done clears every round's artifacts.
        queue.complete(0, b"\x01garbage");
        assert!(queue.invalidate_done(0));
        assert!(queue.latest_surplus_round(0).is_none());
        assert!(!queue.steal_claimed_round(0, 1));
        assert!(queue.sub_completion_round(0, 1).is_none());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn retirement_tokens_are_claimed_exclusively() {
        let (dir, queue, _) = temp_queue(1);
        assert_eq!(queue.retirement_tokens(), 0);
        assert!(queue.claim_retirement("eager").is_none(), "none posted");

        queue.post_retirements(2);
        assert_eq!(queue.retirement_tokens(), 2);
        let a = queue.claim_retirement("worker-a");
        let b = queue.claim_retirement("worker-b");
        assert!(a.is_some() && b.is_some() && a != b);
        assert!(queue.claim_retirement("worker-c").is_none(), "pool drained");
        assert_eq!(queue.retirements_claimed(), 2);

        // The watermark is monotone: raising it opens exactly the new
        // tokens.
        queue.post_retirements(3);
        assert_eq!(queue.claim_retirement("worker-c"), Some(2));
        assert_eq!(queue.retirements_claimed(), 3);
        let _ = fs::remove_dir_all(dir);
    }
}
