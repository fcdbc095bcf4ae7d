//! The sweep worker: claims shards, runs the staged pipeline over
//! their units, steals surplus work when idle, and publishes batched
//! results into the shared store.
//!
//! A worker is launched with nothing but a queue directory and a cache
//! directory (`repro worker --queue … --cache-dir …`, or an in-process
//! thread). It reads the manifest, builds its own [`Pipeline`] over the
//! manifest corpus with the shared persistent store — so compiled stage
//! artifacts are exchanged with every other worker through the disk
//! tier — and loops over three behaviours:
//!
//! * **own a shard** — claim it, offer the tail half of its
//!   priority-ordered unit list as a steal *surplus* (when the shard is
//!   big enough to share), compile the units front-to-back while a
//!   heartbeat thread advances the claim's monotonic lease counter and
//!   remaining-mass estimate, and durably complete the shard with a
//!   [`ShardReport`]. Stealing is *recursive*: each time a thief's
//!   sub-report for the offered tail lands while the owner still holds
//!   enough unprocessed units, the owner folds the report in and
//!   re-offers the tail half of its remainder as the next round's
//!   surplus — halving that converges every idle worker on the last
//!   straggler shard;
//! * **steal** — with every shard claimed and none stalled, take a
//!   surplus shard's offered tail via the atomically-claimed steal
//!   file, heartbeat a lease of its own while working the stolen units,
//!   and complete them with a durable sub-shard report the owner folds
//!   into the shard's — instead of spinning on `claim_next`;
//! * **idle** — requeue stalled foreign leases (unless a coordinator
//!   reserved that job), retire early when the coordinator posted a
//!   scale-down token (remaining mass near zero, nothing stealable),
//!   and poll.
//!
//! Results are **batched**: outcomes are buffered per shard (or per
//! stolen sub-shard) and published as one batch record keyed by the
//! shard's unit-key-list hash — one publish per shard instead of one
//! per `(loop × config)` unit, ~50× fewer result-tier syscalls on big
//! grids. Units already covered by a batch record or the per-unit tier
//! are skipped (re-runs and requeued shards cost lookups, not
//! compiles); the legacy per-unit publishing mode remains available
//! ([`WorkerConfig::batch_results`]` = false`) for mixed fleets and
//! the publish-cost benchmark.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use widening_obs as obs;
use widening_obs::SpanKind;
use widening_pipeline::codec::{Reader, Writer};
use widening_pipeline::exchange::{
    batch_result_key, decode_unit_batch, decode_unit_outcome, encode_unit_batch,
    encode_unit_outcome, unit_result_key, BATCH_KIND, RESULT_KIND,
};
use widening_pipeline::{Exchange, Pipeline, StageCounts, StoreConfig, UnitOutcome};

use crate::manifest::SweepManifest;
use crate::queue::{JobQueue, LeaseObserver, LeaseStamp, LeaseWatch};
use crate::DistribError;

/// Version of the [`ShardReport`] encoding.
const REPORT_VERSION: u32 = 3;

/// Batch part tag of the shard owner's record.
const PART_OWNER: u8 = 0;
/// Batch part tag of a thief's stolen-sub-shard record (steal round 0).
const PART_THIEF: u8 = 1;
/// Distinct thief batch-part tags: steal rounds 0..MAX_THIEF_PARTS-1
/// each get their own record; deeper rounds (vanishingly small tails)
/// share the last tag. A shared tag can overwrite a sibling round's
/// record, which costs a result-tier recompute on replay — never
/// correctness, because unit results are content-addressed.
const MAX_THIEF_PARTS: u32 = 8;

/// How many batch-record parts a shard can publish under: the owner's
/// part 0 plus one per thief round (capped). Merge-side readers probe
/// every part below this bound.
pub const BATCH_PARTS: u8 = PART_THIEF + MAX_THIEF_PARTS as u8;

/// The batch part tag for a thief's record at a given steal round.
fn thief_part(round: u32) -> u8 {
    PART_THIEF + round.min(MAX_THIEF_PARTS - 1) as u8
}

/// How a worker runs.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// The queue directory (manifest + claim/done markers).
    pub queue_dir: PathBuf,
    /// The shared cache directory (stage artifacts + unit results).
    pub cache_dir: PathBuf,
    /// Worker threads for intra-shard fan-out.
    pub threads: usize,
    /// Lease TTL: how long another worker's heartbeat counter must sit
    /// still before this worker (idling, out of claimable shards)
    /// requeues its shard, and how long an owner waits on a silent
    /// thief before reclaiming its stolen units.
    pub lease_ttl: Duration,
    /// Idle poll interval while waiting for stragglers or requeues.
    pub poll: Duration,
    /// Whether an idle worker may requeue *other* workers' stalled
    /// leases. On by default so a coordinator-less fleet still drains a
    /// queue whose members die; a coordinator turns it off for the
    /// workers it supervises, making itself the single (and countable)
    /// requeuer.
    pub requeue_foreign: bool,
    /// Diagnostic tag stamped into claim files.
    pub tag: String,
    /// Publish one batch result record per shard / sub-shard instead of
    /// one per-unit record per unit (the default). Off = the legacy
    /// per-unit publishing protocol.
    pub batch_results: bool,
    /// Whether this worker offers its shards' tails for stealing and
    /// steals others' surplus when idle.
    pub steal: bool,
    /// Minimum shard size (in units) worth offering a surplus for.
    pub surplus_after: usize,
    /// Fault-injection hook: abandon everything (without completing the
    /// current shard — exactly what SIGKILL leaves behind) after
    /// processing this many units. `None` in production.
    pub die_after_units: Option<u64>,
}

impl WorkerConfig {
    /// A worker over `queue_dir` and `cache_dir` with defaults: one
    /// thread, 30 s lease TTL, 50 ms poll, pid-based tag, batched
    /// results, stealing on for shards of 8+ units.
    #[must_use]
    pub fn new(queue_dir: impl Into<PathBuf>, cache_dir: impl Into<PathBuf>) -> Self {
        WorkerConfig {
            queue_dir: queue_dir.into(),
            cache_dir: cache_dir.into(),
            threads: 1,
            lease_ttl: Duration::from_secs(30),
            poll: Duration::from_millis(50),
            requeue_foreign: true,
            tag: format!("pid-{}", std::process::id()),
            batch_results: true,
            steal: true,
            surplus_after: 8,
            die_after_units: None,
        }
    }
}

/// What one worker did over its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Shards this worker completed as owner.
    pub shards_completed: usize,
    /// Units processed (compiled or replayed) as shard owner.
    pub units: usize,
    /// Units served straight from the result tier (no compile at all).
    pub result_hits: usize,
    /// Surplus offers this worker stole.
    pub steals: usize,
    /// Units processed as a thief.
    pub stolen_units: usize,
    /// The worker pipeline's cumulative stage counters.
    pub counts: StageCounts,
}

/// One shard's completion report, published through the queue's done
/// marker so the coordinator can fold per-shard progress into the
/// existing stage-counter table. (Thieves publish the same shape as
/// their sub-shard report, with `shard` naming the robbed shard and
/// `stolen = 0`.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardReport {
    /// The shard index.
    pub shard: u32,
    /// Units the shard held.
    pub units: u32,
    /// Units served from the result tier without compiling.
    pub result_hits: u32,
    /// Units completed by a thief (folded in from its sub-report).
    pub stolen: u32,
    /// Stage-counter delta attributable to this shard.
    pub counts: StageCounts,
}

impl ShardReport {
    /// Encodes the report as a self-versioned record.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(REPORT_VERSION);
        w.u32(self.shard);
        w.u32(self.units);
        w.u32(self.result_hits);
        w.u32(self.stolen);
        let c = &self.counts;
        for v in [
            c.widen_runs,
            c.widen_requests,
            c.widen_disk_hits,
            c.mii_runs,
            c.mii_requests,
            c.mii_disk_hits,
            c.base_schedule_runs,
            c.base_schedule_requests,
            c.base_schedule_disk_hits,
            c.schedule_runs,
            c.schedule_requests,
            c.schedule_disk_hits,
            c.schedule_evictions,
            c.schedule_resident_bytes,
            c.lower_runs,
            c.lower_requests,
            c.lower_disk_hits,
        ] {
            w.u64(v);
        }
        w.into_bytes()
    }

    /// Decodes a report; `None` on version skew or truncation.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        if r.u32()? != REPORT_VERSION {
            return None;
        }
        let (shard, units, result_hits, stolen) = (r.u32()?, r.u32()?, r.u32()?, r.u32()?);
        let counts = StageCounts {
            widen_runs: r.u64()?,
            widen_requests: r.u64()?,
            widen_disk_hits: r.u64()?,
            mii_runs: r.u64()?,
            mii_requests: r.u64()?,
            mii_disk_hits: r.u64()?,
            base_schedule_runs: r.u64()?,
            base_schedule_requests: r.u64()?,
            base_schedule_disk_hits: r.u64()?,
            schedule_runs: r.u64()?,
            schedule_requests: r.u64()?,
            schedule_disk_hits: r.u64()?,
            schedule_evictions: r.u64()?,
            schedule_resident_bytes: r.u64()?,
            lower_runs: r.u64()?,
            lower_requests: r.u64()?,
            lower_disk_hits: r.u64()?,
        };
        r.exhausted().then_some(ShardReport {
            shard,
            units,
            result_hits,
            stolen,
            counts,
        })
    }
}

/// Everything a worker's shard/steal runs share.
struct WorkerState<'a> {
    cfg: &'a WorkerConfig,
    queue: &'a JobQueue,
    manifest: &'a SweepManifest,
    exchange: &'a Exchange,
    pipeline: &'a Pipeline,
    fingerprints: &'a [u128],
    /// Units processed so far (the chaos hook's odometer).
    processed: AtomicU64,
    /// Set once the chaos hook trips: every loop unwinds immediately,
    /// completing nothing — the closest an in-process worker gets to
    /// SIGKILL.
    poison: AtomicBool,
}

impl WorkerState<'_> {
    fn poisoned(&self) -> bool {
        self.poison.load(Ordering::Relaxed)
    }

    /// Ticks the odometer; returns `true` when the chaos hook trips.
    fn note_processed(&self) -> bool {
        let total = self.processed.fetch_add(1, Ordering::Relaxed) + 1;
        if self.cfg.die_after_units.is_some_and(|limit| total >= limit) {
            self.poison.store(true, Ordering::Relaxed);
        }
        self.poisoned()
    }

    fn unit_key(&self, unit: u32) -> Vec<u8> {
        let li = self.manifest.loop_of(unit);
        let spec = &self.manifest.specs[self.manifest.spec_of(unit)];
        unit_result_key(self.fingerprints[li], spec)
    }

    /// Resolves one unit: batch prefill, then the per-unit result tier,
    /// then a live compile (published per-unit in legacy mode).
    fn unit_outcome(
        &self,
        unit: u32,
        prefill: &HashMap<u32, UnitOutcome>,
        hits: &AtomicUsize,
    ) -> UnitOutcome {
        if let Some(o) = prefill.get(&unit) {
            hits.fetch_add(1, Ordering::Relaxed);
            return *o;
        }
        let key = self.unit_key(unit);
        if let Some(o) = self
            .exchange
            .get(RESULT_KIND, &key)
            .and_then(|b| decode_unit_outcome(&b))
        {
            hits.fetch_add(1, Ordering::Relaxed);
            return o;
        }
        let li = self.manifest.loop_of(unit);
        let spec = &self.manifest.specs[self.manifest.spec_of(unit)];
        let _unit_span = obs::span(
            SpanKind::SweepUnit,
            li as u64,
            obs::pack_point(spec.replication, spec.width, spec.registers),
        );
        let outcome = UnitOutcome::of(&self.pipeline.compile(li, spec));
        if !self.cfg.batch_results {
            self.exchange
                .put(RESULT_KIND, &key, &encode_unit_outcome(&outcome));
        }
        outcome
    }

    /// Loads a shard's existing batch records (owner and thief parts)
    /// into a unit → outcome map, restricted to `wanted` units. Batch
    /// mode only; the legacy mode reads the per-unit tier exactly as it
    /// always did.
    fn batch_prefill(&self, shard: usize, wanted: &[u32]) -> HashMap<u32, UnitOutcome> {
        let mut map = HashMap::new();
        if !self.cfg.batch_results {
            return map;
        }
        let keys = self.manifest.shard_unit_keys(shard, self.fingerprints);
        let wanted: HashSet<u32> = wanted.iter().copied().collect();
        for part in PART_OWNER..BATCH_PARTS {
            let Some(bytes) = self
                .exchange
                .get(BATCH_KIND, &batch_result_key(&keys, part))
            else {
                continue;
            };
            for (unit, outcome) in decode_unit_batch(&bytes).unwrap_or_default() {
                if wanted.contains(&unit) {
                    map.insert(unit, outcome);
                }
            }
        }
        map
    }

    /// Publishes the batch record for `(shard, part)` covering
    /// `entries` (unit id → outcome), sorted so identical coverage is
    /// byte-identical.
    fn publish_batch(&self, shard: usize, part: u8, mut entries: Vec<(u32, UnitOutcome)>) {
        if !self.cfg.batch_results || entries.is_empty() {
            return;
        }
        entries.sort_by_key(|&(unit, _)| unit);
        let keys = self.manifest.shard_unit_keys(shard, self.fingerprints);
        self.exchange.put(
            BATCH_KIND,
            &batch_result_key(&keys, part),
            &encode_unit_batch(&entries),
        );
    }

    /// Scans for a stealable surplus: an incomplete shard whose latest
    /// steal round holds an unclaimed offer (earlier rounds are always
    /// claimed — a new round only opens after the previous one
    /// resolved). Returns the round and the stolen units on success.
    fn find_steal(&self) -> Option<(usize, u32, Vec<u32>)> {
        for shard in 0..self.queue.shard_count() {
            if self.queue.is_done(shard) {
                continue;
            }
            let Some(round) = self.queue.latest_surplus_round(shard) else {
                continue;
            };
            if self.queue.steal_claimed_round(shard, round) {
                continue;
            }
            if let Some(units) = self.queue.claim_steal_round(shard, round, &self.cfg.tag) {
                eprintln!(
                    "distrib: event=steal-claim shard={shard} round={round} units={} tag={}",
                    units.len(),
                    self.cfg.tag
                );
                obs::instant(SpanKind::StealClaim, shard as u64, units.len() as u64);
                return Some((shard, round, units));
            }
        }
        None
    }
}

/// The heartbeat cadence for a lease TTL: a quarter of the TTL leaves
/// ample margin, clamped so tests with millisecond TTLs still beat and
/// long TTLs don't leave multi-minute observation gaps.
fn heartbeat_interval(ttl: Duration) -> Duration {
    (ttl / 4).clamp(Duration::from_millis(5), Duration::from_secs(5))
}

/// Sleeps up to `interval` in small steps, returning early when `stop`
/// flips — so heartbeat threads exit promptly at shard completion.
fn chopped_sleep(interval: Duration, stop: &AtomicBool) {
    let mut slept = Duration::ZERO;
    while slept < interval && !stop.load(Ordering::Relaxed) {
        let step = Duration::from_millis(10).min(interval - slept);
        std::thread::sleep(step);
        slept += step;
    }
}

/// How one owned-shard (or stolen-sub-shard) run ended.
enum RunEnd {
    /// Everything processed; counters for the summary.
    Completed {
        result_hits: usize,
        stolen: u32,
        thief_counts: StageCounts,
    },
    /// The chaos hook tripped (or the queue was retired mid-shard):
    /// abandon without completing — the lease goes silent and someone
    /// else requeues the work.
    Abandoned,
}

/// The owner-side lifecycle of a shard's offered tail, advanced round
/// by round as thieves claim and complete it (recursive halving).
struct TailState {
    /// Round number of the current offer.
    round: u32,
    /// An offer for `round` is on disk and unresolved.
    offered: bool,
    /// That offer has been claimed by a thief.
    claimed: bool,
    /// Units completed by thieves across all resolved rounds.
    stolen: u32,
    /// Stage counters folded in from thieves' sub-reports.
    thief_counts: StageCounts,
}

/// Runs one owned shard to completion: offer a surplus, compile with a
/// counter heartbeat, honour a thief's claim on the offered tail (fold
/// its sub-report and re-offer the remaining tail half as the next
/// round — recursive halving; reclaim its units if its lease stalls),
/// publish the owner batch and the durable done marker.
fn run_owned_shard(state: &WorkerState<'_>, shard: usize) -> RunEnd {
    let cfg = state.cfg;
    let queue = state.queue;
    let units = &state.manifest.shards[shard];
    let n = units.len();
    let _shard_span = obs::span(SpanKind::WorkerShard, shard as u64, n as u64);

    // Two boundaries fence the owner's unit range. `hard_end` is the
    // start of the resolved region: everything at or past it was
    // completed by thieves of already-folded rounds, and the owner
    // never enters it. `soft_split` is the start of the *open* round's
    // offer, binding only once a thief claims it (`steal_live`); until
    // then the offer is just an option and the owner keeps compiling
    // into it.
    let hits = AtomicUsize::new(0);
    let hard_end = AtomicUsize::new(n);
    let soft_split = AtomicUsize::new(n);
    let steal_live = AtomicBool::new(false);
    let tail = Mutex::new(TailState {
        round: 0,
        offered: false,
        claimed: false,
        stolen: 0,
        thief_counts: StageCounts::zero(),
    });

    // The initial steal offer: the tail half of the priority-ordered
    // list (cheap units — the owner keeps the heavy head it starts
    // on). A re-claimed shard inherits the previous owner's offer
    // chain instead, so in-flight thieves stay coherent: resolved
    // rounds fold in from their durable sub-reports and the open round
    // resumes where the dead owner left it.
    if cfg.steal {
        if let Some(latest) = queue.latest_surplus_round(shard) {
            let mut t = tail.lock().expect("tail lock");
            for round in 0..latest {
                if let Some(report) = queue
                    .sub_completion_round(shard, round)
                    .and_then(|b| ShardReport::decode(&b))
                {
                    t.stolen += report.units;
                    t.thief_counts = t.thief_counts.plus(&report.counts);
                    hits.fetch_add(report.result_hits as usize, Ordering::Relaxed);
                }
            }
            if let Some((s, _)) = queue.read_surplus_round(shard, latest) {
                t.round = latest;
                t.offered = true;
                soft_split.store((s as usize).min(n), Ordering::Relaxed);
                // The open round's offer ends where the previous
                // round's began (rounds bite off the tail, so round
                // k + 1 sits strictly below round k's split).
                let hi = if latest == 0 {
                    n
                } else {
                    queue
                        .read_surplus_round(shard, latest - 1)
                        .map_or(n, |(p, _)| (p as usize).min(n))
                };
                hard_end.store(hi, Ordering::Relaxed);
                if queue.steal_claimed_round(shard, latest) {
                    t.claimed = true;
                    steal_live.store(true, Ordering::Relaxed);
                }
            }
        } else if n >= cfg.surplus_after.max(2) {
            let s = n - n / 2;
            if queue.publish_surplus_round(shard, 0, s as u32, &units[s..]) {
                tail.lock().expect("tail lock").offered = true;
                soft_split.store(s, Ordering::Relaxed);
                obs::instant(SpanKind::StealOffer, shard as u64, (n - s) as u64);
            }
        }
    }

    // Suffix priority mass, for the lease's remaining-work stamp:
    // `suffix[i]` = mass of `units[i..]`.
    let mut suffix = vec![0u64; n + 1];
    for i in (0..n).rev() {
        suffix[i] = suffix[i + 1].saturating_add(state.manifest.unit_priority(units[i]));
    }

    let before = state.pipeline.stage_counts();
    let prefill = state.batch_prefill(shard, units);
    let slots: Vec<Mutex<Option<UnitOutcome>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);

    let work = || loop {
        if state.poisoned() {
            break;
        }
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        if i >= hard_end.load(Ordering::Relaxed)
            || (steal_live.load(Ordering::Relaxed) && i >= soft_split.load(Ordering::Relaxed))
        {
            continue; // a thief owns (or owned) this range
        }
        let outcome = state.unit_outcome(units[i], &prefill, &hits);
        *slots[i].lock().expect("slot lock") = Some(outcome);
        if state.note_processed() {
            break;
        }
    };
    let work = &work;

    // Advances the open offer's lifecycle (called from the heartbeat
    // thread each beat, and from the post-work wait loop): notice a
    // thief's claim, fold its durable sub-report when it lands, and —
    // while this owner still holds enough unprocessed units — re-offer
    // the tail half of the remainder as the next round's surplus.
    // Recursive halving: idle workers keep converging on a straggler
    // shard until its remainder is too small to share.
    let poll_tail = || {
        let mut t = tail.lock().expect("tail lock");
        if !t.offered {
            return;
        }
        if !t.claimed && queue.steal_claimed_round(shard, t.round) {
            t.claimed = true;
            steal_live.store(true, Ordering::Relaxed);
        }
        if !t.claimed {
            return;
        }
        let Some(report) = queue
            .sub_completion_round(shard, t.round)
            .and_then(|b| ShardReport::decode(&b))
        else {
            return;
        };
        t.stolen += report.units;
        t.thief_counts = t.thief_counts.plus(&report.counts);
        hits.fetch_add(report.result_hits as usize, Ordering::Relaxed);
        obs::instant(SpanKind::StealFold, shard as u64, u64::from(report.units));
        // The folded range joins the resolved region; the offer slot
        // is free again.
        let resolved = soft_split.load(Ordering::Relaxed);
        hard_end.store(resolved, Ordering::Relaxed);
        steal_live.store(false, Ordering::Relaxed);
        t.claimed = false;
        t.offered = false;
        // `cursor` counts grabbed units, so everything in
        // [cursor, resolved) is untouched — re-offer its tail half.
        let c = cursor.load(Ordering::Relaxed).min(resolved);
        let remaining = resolved - c;
        if remaining >= cfg.surplus_after.max(2) {
            let s = c + (remaining - remaining / 2);
            if queue.publish_surplus_round(shard, t.round + 1, s as u32, &units[s..resolved]) {
                t.round += 1;
                t.offered = true;
                soft_split.store(s, Ordering::Relaxed);
                eprintln!(
                    "distrib: event=steal-reoffer shard={shard} round={} units={} tag={}",
                    t.round,
                    resolved - s,
                    cfg.tag
                );
                obs::instant(SpanKind::StealOffer, shard as u64, (resolved - s) as u64);
            }
        } else {
            soft_split.store(resolved, Ordering::Relaxed);
        }
    };

    let mut unclaimed_offer: Option<u32> = None;
    let end = std::thread::scope(|scope| {
        // Time-based heartbeat on its own thread: liveness must not
        // depend on unit granularity — one pressure-starved unit can
        // legitimately out-compile any sane TTL, and tying renewal to
        // unit completion would let a *live* worker's lease stall
        // mid-unit (spurious requeue, duplicate shard).
        scope.spawn(|| {
            let interval = heartbeat_interval(cfg.lease_ttl);
            let mut beat = 0u64;
            while !stop.load(Ordering::Relaxed) {
                beat += 1;
                if cfg.steal {
                    poll_tail();
                }
                let c = cursor.load(Ordering::Relaxed).min(n);
                // A live steal's mass belongs to the thief's lease, and
                // the resolved region past `hard_end` is someone else's
                // finished work — neither counts against this owner.
                let e = if steal_live.load(Ordering::Relaxed) {
                    soft_split.load(Ordering::Relaxed)
                } else {
                    hard_end.load(Ordering::Relaxed)
                };
                let mass = suffix[c.min(e)].saturating_sub(suffix[e]);
                queue.renew_lease(
                    shard,
                    &cfg.tag,
                    LeaseStamp {
                        counter: beat,
                        mass,
                    },
                );
                obs::instant(SpanKind::Heartbeat, shard as u64, mass);
                chopped_sleep(interval, &stop);
            }
        });

        let extra: Vec<_> = (1..cfg.threads.max(1)).map(|_| scope.spawn(work)).collect();
        work();
        for h in extra {
            let _ = h.join();
        }

        if state.poisoned() {
            stop.store(true, Ordering::Relaxed);
            return RunEnd::Abandoned;
        }

        // Settle the open round: fold its durable sub-report — or
        // reclaim its units when its lease counter stalls for a full
        // TTL (the thief died mid-steal). Earlier rounds were folded by
        // `poll_tail` as their reports landed; with the cursor drained
        // no new round can be offered, so this loop converges.
        if cfg.steal {
            let mut watch = LeaseWatch::new();
            loop {
                poll_tail();
                let (round, offered, claimed) = {
                    let t = tail.lock().expect("tail lock");
                    (t.round, t.offered, t.claimed)
                };
                if !offered {
                    break;
                }
                if !claimed {
                    // Nobody bit; the offer dies with the shard (the
                    // marker is retracted after the completion lands).
                    unclaimed_offer = Some(round);
                    break;
                }
                let lo = soft_split.load(Ordering::Relaxed);
                let hi = hard_end.load(Ordering::Relaxed);
                let missing = (lo..hi).any(|i| slots[i].lock().expect("slot lock").is_none());
                if !missing {
                    // This owner raced past the claim and resolved the
                    // whole range itself; the thief's late report is
                    // redundant (results are content-addressed).
                    break;
                }
                if queue.is_retired() {
                    stop.store(true, Ordering::Relaxed);
                    return RunEnd::Abandoned;
                }
                let stalled = match queue.steal_observation_round(shard, round) {
                    // Steal file gone (or unreadable sub-report raced
                    // in): reclaim immediately.
                    None => true,
                    Some(obs) => watch.observe(obs, cfg.lease_ttl),
                };
                if stalled {
                    // Reclaim the stolen range ourselves. Sequential:
                    // this is the rare thief-death path, and the
                    // heartbeat thread is still renewing our lease.
                    for i in lo..hi {
                        if state.poisoned() {
                            stop.store(true, Ordering::Relaxed);
                            return RunEnd::Abandoned;
                        }
                        let filled = slots[i].lock().expect("slot lock").is_some();
                        if !filled {
                            let outcome = state.unit_outcome(units[i], &prefill, &hits);
                            *slots[i].lock().expect("slot lock") = Some(outcome);
                            if state.note_processed() {
                                stop.store(true, Ordering::Relaxed);
                                return RunEnd::Abandoned;
                            }
                        }
                    }
                    let mut t = tail.lock().expect("tail lock");
                    t.claimed = false;
                    t.offered = false;
                    steal_live.store(false, Ordering::Relaxed);
                    break;
                }
                std::thread::sleep(cfg.poll);
            }
        }
        stop.store(true, Ordering::Relaxed);
        let (stolen, thief_counts) = {
            let t = tail.lock().expect("tail lock");
            (t.stolen, t.thief_counts)
        };
        RunEnd::Completed {
            result_hits: hits.load(Ordering::Relaxed),
            stolen,
            thief_counts,
        }
    });

    let RunEnd::Completed {
        result_hits,
        stolen,
        thief_counts,
    } = end
    else {
        return RunEnd::Abandoned;
    };

    // Publish the owner batch (everything this worker resolved) and the
    // durable completion marker carrying fleet-foldable counters.
    let entries: Vec<(u32, UnitOutcome)> = (0..n)
        .filter_map(|i| slots_get(&slots, i).map(|o| (units[i], o)))
        .collect();
    state.publish_batch(shard, PART_OWNER, entries);
    let report = ShardReport {
        shard: shard as u32,
        units: n as u32,
        result_hits: result_hits as u32,
        stolen,
        counts: state
            .pipeline
            .stage_counts()
            .minus(&before)
            .plus(&thief_counts),
    };
    queue.complete(shard, &report.encode());
    if let Some(round) = unclaimed_offer {
        if !queue.steal_claimed_round(shard, round) {
            queue.retract_surplus_round(shard, round);
        }
    }
    RunEnd::Completed {
        result_hits,
        stolen,
        thief_counts,
    }
}

fn slots_get(slots: &[Mutex<Option<UnitOutcome>>], i: usize) -> Option<UnitOutcome> {
    *slots[i].lock().expect("slot lock")
}

/// Works a stolen sub-shard: heartbeat the steal lease, resolve the
/// stolen units, publish the thief batch and the durable sub-report the
/// owner folds into its shard completion. Returns the units processed.
fn run_stolen(
    state: &WorkerState<'_>,
    shard: usize,
    round: u32,
    stolen_units: &[u32],
) -> Option<usize> {
    let cfg = state.cfg;
    let queue = state.queue;
    let n = stolen_units.len();
    let _steal_span = obs::span(SpanKind::WorkerSteal, shard as u64, n as u64);
    let mut suffix = vec![0u64; n + 1];
    for i in (0..n).rev() {
        suffix[i] = suffix[i + 1].saturating_add(state.manifest.unit_priority(stolen_units[i]));
    }
    let prefill = state.batch_prefill(shard, stolen_units);
    let slots: Vec<Mutex<Option<UnitOutcome>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let hits = AtomicUsize::new(0);
    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let abandoned = AtomicBool::new(false);

    let work = || loop {
        if state.poisoned() || abandoned.load(Ordering::Relaxed) {
            break;
        }
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        // The owner may have presumed us dead, reclaimed the tail
        // and completed the shard — stop wasting work if so.
        if queue.is_done(shard) {
            abandoned.store(true, Ordering::Relaxed);
            break;
        }
        let outcome = state.unit_outcome(stolen_units[i], &prefill, &hits);
        *slots[i].lock().expect("slot lock") = Some(outcome);
        if state.note_processed() {
            break;
        }
    };
    let work = &work;

    std::thread::scope(|scope| {
        scope.spawn(|| {
            let interval = heartbeat_interval(cfg.lease_ttl);
            let mut beat = 0u64;
            while !stop.load(Ordering::Relaxed) {
                beat += 1;
                let c = cursor.load(Ordering::Relaxed).min(n);
                queue.renew_steal_round(
                    shard,
                    round,
                    &cfg.tag,
                    LeaseStamp {
                        counter: beat,
                        mass: suffix[c],
                    },
                );
                obs::instant(SpanKind::Heartbeat, shard as u64, suffix[c]);
                chopped_sleep(interval, &stop);
            }
        });
        let extra: Vec<_> = (1..cfg.threads.max(1)).map(|_| scope.spawn(work)).collect();
        work();
        for h in extra {
            let _ = h.join();
        }
        stop.store(true, Ordering::Relaxed);
    });

    if state.poisoned() || abandoned.load(Ordering::Relaxed) {
        return None;
    }
    let entries: Vec<(u32, UnitOutcome)> = (0..n)
        .filter_map(|i| slots_get(&slots, i).map(|o| (stolen_units[i], o)))
        .collect();
    state.publish_batch(shard, thief_part(round), entries);
    let report = ShardReport {
        shard: shard as u32,
        units: n as u32,
        result_hits: hits.load(Ordering::Relaxed) as u32,
        stolen: 0,
        counts: StageCounts::zero(),
    };
    queue.complete_sub_round(shard, round, &report.encode());
    Some(n)
}

/// Runs a worker until the queue is fully complete. Returns a summary
/// of the work done.
///
/// The worker never exits while *any* shard lacks a completion marker:
/// out of claimable shards it steals published surplus tails, requeues
/// stalled foreign leases (unless a coordinator reserved that job), and
/// idles — so a fleet of standalone workers (no coordinator at all)
/// still drains a queue whose members die, as long as one survives.
///
/// # Errors
///
/// [`DistribError::QueueUnreadable`] when the queue directory holds no
/// valid manifest; [`DistribError::CacheUnusable`] when the shared
/// cache directory cannot be opened for publishing results.
pub fn run_worker(cfg: &WorkerConfig) -> Result<WorkerSummary, DistribError> {
    // Name this worker's trace track after its tag so the merged fleet
    // timeline shows `inproc-…-0`, `pid-…` etc. instead of `thread-N`.
    obs::set_thread_label(&cfg.tag);
    let (queue, manifest) = JobQueue::open(&cfg.queue_dir)
        .ok_or_else(|| DistribError::QueueUnreadable(cfg.queue_dir.clone()))?;
    let exchange = Exchange::open(&cfg.cache_dir)
        .ok_or_else(|| DistribError::CacheUnusable(cfg.cache_dir.clone()))?;
    let pipeline = Pipeline::with_config(
        Arc::new(manifest.loops.clone()),
        StoreConfig::persistent(&cfg.cache_dir),
    );
    let fingerprints: Vec<u128> = (0..manifest.loops.len())
        .map(|li| pipeline.content_fingerprint(li))
        .collect();
    let state = WorkerState {
        cfg,
        queue: &queue,
        manifest: &manifest,
        exchange: &exchange,
        pipeline: &pipeline,
        fingerprints: &fingerprints,
        processed: AtomicU64::new(0),
        poison: AtomicBool::new(false),
    };

    let mut summary = WorkerSummary {
        shards_completed: 0,
        units: 0,
        result_hits: 0,
        steals: 0,
        stolen_units: 0,
        counts: StageCounts::zero(),
    };
    let mut observer = LeaseObserver::new();
    loop {
        if state.poisoned() {
            break;
        }
        if let Some(shard) = queue.claim_next(&cfg.tag) {
            match run_owned_shard(&state, shard) {
                RunEnd::Completed { result_hits, .. } => {
                    summary.shards_completed += 1;
                    summary.units += manifest.shards[shard].len();
                    summary.result_hits += result_hits;
                }
                RunEnd::Abandoned => break,
            }
            continue;
        }
        if queue.is_retired() {
            break;
        }
        if queue.all_done() {
            // Standalone fleets have no coordinator to validate
            // completion markers: before accepting the queue as
            // drained, a self-healing worker resets any marker that
            // does not decode (a torn pre-fsync write) so it re-runs
            // instead of shipping garbage to the merge. Supervised
            // workers leave that judgement to the coordinator.
            if !cfg.requeue_foreign {
                break;
            }
            let mut reset = false;
            for shard in 0..queue.shard_count() {
                let garbage = queue
                    .completion(shard)
                    .is_some_and(|b| ShardReport::decode(&b).is_none());
                if garbage && queue.invalidate_done(shard) {
                    reset = true;
                }
            }
            if !reset {
                break;
            }
            continue;
        }
        if cfg.steal {
            if let Some((shard, round, stolen_units)) = state.find_steal() {
                if let Some(done) = run_stolen(&state, shard, round, &stolen_units) {
                    summary.steals += 1;
                    summary.stolen_units += done;
                }
                if state.poisoned() {
                    break;
                }
                continue;
            }
        }
        // Idle with nothing to claim and nothing to steal: if the
        // coordinator posted retirement tokens (the remaining mass no
        // longer justifies this many workers), grab one and exit early
        // instead of polling until the stragglers finish.
        if let Some(token) = queue.claim_retirement(&cfg.tag) {
            eprintln!("distrib: event=retire token={token} tag={}", cfg.tag);
            obs::instant(SpanKind::ScaleDown, u64::from(token), 0);
            break;
        }
        // Someone else holds the remaining shards. If their lease
        // counters stall, put their shards back up for grabs (unless a
        // coordinator reserved that job for itself).
        if cfg.requeue_foreign {
            queue.requeue_expired(&mut observer, cfg.lease_ttl);
        }
        std::thread::sleep(cfg.poll);
    }
    summary.counts = pipeline.stage_counts();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A report whose stage counters are `counts`, in encoding order.
    fn report(shard: u32, units: u32, hits: u32, counts: &[u64]) -> ShardReport {
        let c = |i: usize| counts[i % counts.len()];
        ShardReport {
            shard,
            units,
            result_hits: hits,
            stolen: units / 3,
            counts: StageCounts {
                widen_runs: c(0),
                widen_requests: c(1),
                widen_disk_hits: c(2),
                mii_runs: c(3),
                mii_requests: c(4),
                mii_disk_hits: c(5),
                base_schedule_runs: c(6),
                base_schedule_requests: c(7),
                base_schedule_disk_hits: c(8),
                schedule_runs: c(9),
                schedule_requests: c(10),
                schedule_disk_hits: c(11),
                schedule_evictions: c(12),
                schedule_resident_bytes: c(13),
                lower_runs: c(14),
                lower_requests: c(15),
                lower_disk_hits: c(16),
            },
        }
    }

    fn arb_report() -> impl Strategy<Value = ShardReport> {
        (
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            proptest::collection::vec(any::<u64>(), 17),
        )
            .prop_map(|(shard, units, hits, counts)| report(shard, units, hits, &counts))
    }

    // Done markers are read back from a shared directory another
    // process writes: whatever bytes they hold, decoding returns a
    // report or `None`, never a panic.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = ShardReport::decode(&bytes);
        }

        #[test]
        fn truncation_is_rejected(r in arb_report(), cut in any::<usize>()) {
            let bytes = r.encode();
            let at = cut % bytes.len();
            prop_assert_eq!(ShardReport::decode(&bytes[..at]), None);
            prop_assert_eq!(ShardReport::decode(&bytes), Some(r));
        }

        #[test]
        fn bit_flips_never_panic(r in arb_report(), bit in any::<usize>()) {
            let mut bytes = r.encode();
            let at = bit % (bytes.len() * 8);
            bytes[at / 8] ^= 1 << (at % 8);
            let decoded = ShardReport::decode(&bytes);
            // A flipped version is skew; any other field decodes to a
            // different report.
            prop_assert!(decoded != Some(r));
            if at < 32 {
                prop_assert_eq!(decoded, None);
            }
        }
    }

    #[test]
    fn shard_report_round_trips() {
        let report = ShardReport {
            shard: 3,
            units: 120,
            result_hits: 7,
            stolen: 21,
            counts: StageCounts::zero().plus(&StageCounts {
                widen_runs: 40,
                widen_requests: 360,
                widen_disk_hits: 2,
                mii_runs: 80,
                mii_requests: 360,
                mii_disk_hits: 1,
                base_schedule_runs: 100,
                base_schedule_requests: 300,
                base_schedule_disk_hits: 0,
                schedule_runs: 110,
                schedule_requests: 360,
                schedule_disk_hits: 9,
                schedule_evictions: 5,
                schedule_resident_bytes: 1 << 20,
                lower_runs: 12,
                lower_requests: 48,
                lower_disk_hits: 3,
            }),
        };
        let bytes = report.encode();
        assert_eq!(ShardReport::decode(&bytes), Some(report));
        assert_eq!(ShardReport::decode(&bytes[..bytes.len() - 1]), None);
        // Version skew is a decode failure, not a misread.
        let mut skew = bytes;
        skew[0] ^= 0xff;
        assert_eq!(ShardReport::decode(&skew), None);
    }
}
