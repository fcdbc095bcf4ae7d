//! The filesystem job queue: atomic shard claims, **monotonic
//! counter leases**, lease-stall requeue and durable completion
//! markers.
//!
//! Layout of a queue directory:
//!
//! ```text
//! <queue>/manifest.bin       the SweepManifest (atomic temp+rename)
//! <queue>/shard-<i>.claim    exists ⇒ shard i is claimed; payload =
//!                            a lease stamp (heartbeat counter) plus
//!                            the owner's diagnostic tag
//! <queue>/shard-<i>.done     exists ⇒ shard i is complete; payload =
//!                            the worker's encoded ShardReport
//! ```
//!
//! The protocol needs nothing but POSIX rename/create-new atomicity, so
//! it works across processes and across hosts on a shared filesystem:
//!
//! * **claim** — `O_CREAT|O_EXCL` on the claim file; exactly one worker
//!   wins a shard. Workers claim the lowest-numbered free shard, so the
//!   guided self-scheduled shards ([`SweepManifest::partition`]) are
//!   taken biggest first;
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
//!   or an idle standalone worker) may delete a stalled claim; the next
//!   `claim_next` scan re-claims the shard;
//! * **complete** — reports are written to a temp file, `fsync`ed and
//!   renamed, so a completion marker is always whole *and durable*: a
//!   host crash right after the rename can no longer surface an empty
//!   or truncated marker. A marker that still fails to decode (torn by
//!   an older writer, corrupted at rest) is treated by the coordinator
//!   as **incomplete** — [`JobQueue::invalidate_done`] resets the shard
//!   for requeue instead of merging garbage;
//! * **wake** — every completion, marker reset and claim release made
//!   through a [`JobQueue`] bumps one process-wide change count and
//!   wakes its waiters: the coordinator's supervision loop and idle
//!   workers. A waiter reads the count before it looks at the queue
//!   and waits only while the count is unchanged, so it sees a change
//!   made in its own process at once. A change made by another process
//!   leaves the count alone and is seen at the waiter's next poll.
//!   Claims and lease renewals do not count: no waiter acts on them.
//!
//! Races are resolved by idempotency, not locking: if a presumed-dead
//! worker was merely slow, two workers may process one shard — but unit
//! results are content-addressed in the shared store, so both publish
//! identical bytes under identical keys and the merge cannot tell the
//! difference. Spurious requeues cost duplicate work, never wrong
//! results.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use widening_wire::{fnv128, Reader, Writer};

use crate::manifest::SweepManifest;

const MANIFEST_FILE: &str = "manifest.bin";

/// Magic + version prefix of a lease stamp (a claim file's payload).
/// Version 1 also carried a remaining-work estimate; its stamps no
/// longer decode, and expire like any other unreadable claim.
const LEASE_MAGIC: [u8; 4] = *b"WLSE";
const LEASE_VERSION: u32 = 2;

/// One heartbeat observation: the monotonic counter a lease owner keeps
/// advancing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseStamp {
    /// Monotonic heartbeat counter. Only *advancement* carries meaning;
    /// the absolute value never does (a future-stamped counter from a
    /// skewed or restarted host is indistinguishable from any other
    /// starting point).
    pub counter: u64,
}

impl LeaseStamp {
    fn encode(&self, tag: &str) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(&LEASE_MAGIC);
        w.u32(LEASE_VERSION);
        w.u64(self.counter);
        w.bytes(tag.as_bytes());
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        if r.take(4)? != LEASE_MAGIC || r.u32()? != LEASE_VERSION {
            return None;
        }
        Some(LeaseStamp { counter: r.u64()? })
    }
}

/// Stall detector for one lease file, on the observer's own monotonic
/// clock. Feed it observations; it reports expiry when the observed
/// value stops changing for longer than the TTL.
#[derive(Debug, Default, Clone, Copy)]
struct LeaseWatch {
    last: Option<(u64, Instant)>,
}

impl LeaseWatch {
    /// Feeds one observation (any stable digest of the lease file —
    /// usually the heartbeat counter; a raw-byte hash for files that do
    /// not parse, so garbage still expires when it sits still). Returns
    /// `true` when the value has not changed across a window longer
    /// than `ttl` on this observer's monotonic clock.
    fn observe(&mut self, value: u64, ttl: Duration) -> bool {
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
    fn reset(&mut self) {
        self.last = None;
    }
}

/// Per-shard lease stall detectors for a whole queue: the state an
/// observer (coordinator or standalone worker) threads through repeated
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

/// A count of queue changes plus a condition variable to wait on it.
/// A poisoned lock still guards a valid count (every update is one
/// increment), so the guard is recovered rather than unwrapped.
pub(crate) struct Changes {
    count: Mutex<u64>,
    wake: Condvar,
}

impl Changes {
    const fn new() -> Self {
        Changes {
            count: Mutex::new(0),
            wake: Condvar::new(),
        }
    }

    /// The count now. Read it before looking at a queue, then hand it
    /// to [`Changes::wait`].
    pub(crate) fn count(&self) -> u64 {
        *self.count.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Counts one change and wakes every waiter.
    fn note(&self) {
        *self.count.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        self.wake.notify_all();
    }

    /// Waits up to `timeout` while the count still reads `seen`;
    /// returns whether it moved. The count is compared under the lock,
    /// so a change made after `seen` was read is never missed.
    pub(crate) fn wait(&self, seen: u64, timeout: Duration) -> bool {
        let count = self.count.lock().unwrap_or_else(PoisonError::into_inner);
        let (count, _) = self
            .wake
            .wait_timeout_while(count, timeout, |count| *count == seen)
            .unwrap_or_else(PoisonError::into_inner);
        *count != seen
    }
}

/// Every queue change this process makes, whatever the queue: a change
/// to another queue costs a waiter one extra look.
pub(crate) static CHANGES: Changes = Changes::new();

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

    /// Atomically claims the lowest-numbered unclaimed, incomplete
    /// shard, stamping an initial lease (counter 0) plus `tag`
    /// (diagnostic only) into the claim file. `None` when every
    /// shard is claimed or done — which does **not** mean the sweep is
    /// finished: a claim may yet stall and return.
    #[must_use]
    pub fn claim_next(&self, tag: &str) -> Option<usize> {
        let initial = LeaseStamp { counter: 0 };
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

    /// Marks a shard complete, durably publishing the worker's encoded
    /// report. Atomic and fsynced: readers see either no marker or a
    /// whole one, even across a host crash.
    pub fn complete(&self, shard: usize, report: &[u8]) {
        if atomic_write(&self.root, &format!("shard-{shard}.done"), report, true).is_ok() {
            CHANGES.note();
        }
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
    /// the claim so the shard re-enters the claimable pool. The
    /// published batch record is content-addressed and survives — the
    /// re-run replays it. Returns whether a marker was actually removed.
    pub fn invalidate_done(&self, shard: usize) -> bool {
        let removed = fs::remove_file(self.done_path(shard)).is_ok();
        if removed {
            let _ = fs::remove_file(self.claim_path(shard));
            CHANGES.note();
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
        if requeued > 0 {
            CHANGES.note();
        }
        requeued
    }
}

/// The stall-detection digest of a lease file's bytes: the heartbeat
/// counter when the stamp parses, a raw content hash otherwise — so a
/// garbage or torn claim file still *expires* once it sits still,
/// instead of wedging the shard forever.
fn lease_observation(bytes: &[u8]) -> u64 {
    match LeaseStamp::decode(bytes) {
        Some(stamp) => stamp.counter,
        None => fnv128(bytes) as u64,
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
        // One loop column per shard.
        let loops = kernels::all().into_iter().take(shards).collect();
        let manifest = SweepManifest::partition(loops, vec![spec], shards);
        assert_eq!(manifest.shards.len(), shards);
        let queue = JobQueue::create(&dir, &manifest).unwrap();
        (dir, queue, manifest)
    }

    fn stamp(counter: u64) -> LeaseStamp {
        LeaseStamp { counter }
    }

    #[test]
    fn golden_lease_stamp() {
        let hex: String = stamp(0x0102_0304_0506_0708)
            .encode("w-7")
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, "574c5345020000000807060504030201772d37");
    }

    // Claim files are read back from a shared directory that other
    // processes write and may tear: whatever bytes they hold,
    // decoding returns a stamp or `None`, never a panic.
    mod lease_stamp_decoding {
        use super::*;
        use proptest::prelude::*;

        fn arb_claim() -> impl Strategy<Value = (LeaseStamp, String)> {
            (any::<u64>(), 0usize..24)
                .prop_map(|(counter, tag)| (LeaseStamp { counter }, "w".repeat(tag)))
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
                let at = cut % 16;
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
                    8..=15 => prop_assert!(decoded.is_some() && decoded != Some(s)),
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
        let claim = fs::read(dir.join("shard-0.claim")).unwrap();
        assert_eq!(LeaseStamp::decode(&claim), Some(stamp(0)));
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
    fn version_one_stamps_expire_once_they_sit_still() {
        // A claim written by a worker built before the version bump:
        // magic, version 1, counter, remaining-work estimate, tag.
        let v1 = |counter: u64| {
            let mut w = Writer::new();
            w.bytes(&LEASE_MAGIC);
            w.u32(1);
            w.u64(counter);
            w.u64(u64::MAX);
            w.bytes(b"old");
            w.into_bytes()
        };
        assert_eq!(LeaseStamp::decode(&v1(0)), None);
        let (dir, queue, _) = temp_queue(1);
        let claim = dir.join("shard-0.claim");
        fs::write(&claim, v1(0)).unwrap();
        let ttl = Duration::from_millis(25);
        let mut obs = LeaseObserver::new();
        assert_eq!(queue.requeue_expired(&mut obs, ttl), 0);
        // An old owner still beating changes the bytes: no expiry.
        for beat in 1..=2 {
            std::thread::sleep(Duration::from_millis(30));
            fs::write(&claim, v1(beat)).unwrap();
            assert_eq!(queue.requeue_expired(&mut obs, ttl), 0);
        }
        // The beats stop: the claim expires one TTL later.
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(queue.requeue_expired(&mut obs, ttl), 1);
        assert_eq!(queue.claim_next("rescuer"), Some(0));
        let _ = fs::remove_dir_all(dir);
    }

    /// Waits up to 5 s on the process-wide change count while another
    /// thread runs `change` 50 ms in; returns how long the wait took.
    /// Whether `change` lands before or during the wait, the wait must
    /// end well before its timeout. The changer also checks that
    /// `change` itself moved the count: a wait ended early by another
    /// test's queue change must not hide an uncounted one.
    fn wake_after(change: impl FnOnce() + Send) -> Duration {
        let seen = CHANGES.count();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(50));
                let before = CHANGES.count();
                change();
                assert!(CHANGES.count() > before, "the change was not counted");
            });
            let start = Instant::now();
            CHANGES.wait(seen, Duration::from_secs(5));
            start.elapsed()
        })
    }

    #[test]
    fn queue_changes_wake_a_waiter_at_once() {
        let (dir, queue, _) = temp_queue(1);
        let waited = wake_after(|| queue.complete(0, b"report"));
        assert!(waited < Duration::from_secs(1), "complete: {waited:?}");

        let waited = wake_after(|| assert!(queue.invalidate_done(0)));
        assert!(waited < Duration::from_secs(1), "reset: {waited:?}");

        assert_eq!(queue.claim_next("stalled"), Some(0));
        let ttl = Duration::from_millis(20);
        let mut obs = LeaseObserver::new();
        assert_eq!(queue.requeue_expired(&mut obs, ttl), 0);
        let waited = wake_after(|| assert_eq!(queue.requeue_expired(&mut obs, ttl), 1));
        assert!(waited < Duration::from_secs(1), "requeue: {waited:?}");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn a_change_wait_times_out_or_returns_at_once() {
        // A count of its own, so no other test's queue changes reach it.
        let changes = Changes::new();
        // No change: the wait runs out its timeout.
        let start = Instant::now();
        assert!(!changes.wait(changes.count(), Duration::from_millis(30)));
        assert!(start.elapsed() >= Duration::from_millis(30));
        // A change between reading the count and waiting: no wait at all.
        let seen = changes.count();
        changes.note();
        let start = Instant::now();
        assert!(changes.wait(seen, Duration::from_secs(5)));
        assert!(start.elapsed() < Duration::from_secs(1));
        // A change made mid-wait ends it.
        let seen = changes.count();
        let (moved, waited) = std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(50));
                changes.note();
            });
            let start = Instant::now();
            (changes.wait(seen, Duration::from_secs(5)), start.elapsed())
        });
        assert!(moved);
        assert!(waited < Duration::from_secs(1), "woke after {waited:?}");
    }

    #[test]
    fn invalidate_done_resets_the_shard() {
        let (dir, queue, _) = temp_queue(2);
        assert_eq!(queue.claim_next("w"), Some(0));
        queue.complete(0, b"\x01garbage-that-wont-decode");
        assert!(queue.is_done(0));
        assert!(queue.invalidate_done(0));
        assert!(!queue.is_done(0));
        // The shard is claimable again (its stale claim was removed).
        assert_eq!(queue.claim_next("again"), Some(0));
        assert!(!queue.invalidate_done(1), "no marker, nothing removed");
        let _ = fs::remove_dir_all(dir);
    }
}
