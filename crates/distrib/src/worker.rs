//! The sweep worker: claims shards, runs the staged pipeline over
//! their units, and publishes one batch result record per shard into
//! the shared store.
//!
//! A worker is launched with nothing but a queue directory and a cache
//! directory (`repro worker --queue … --cache-dir …`, or an in-process
//! thread). It reads the manifest, builds its own [`Pipeline`] over the
//! manifest corpus with the shared persistent store — so compiled stage
//! artifacts are exchanged with every other worker through the disk
//! tier — and loops:
//!
//! * **own a shard** — claim the next one in manifest order, compile
//!   its units front-to-back (heaviest design point first) while a
//!   heartbeat thread advances the claim's monotonic lease counter,
//!   publish the shard's batch record, and durably complete it with a
//!   [`ShardReport`]. The heartbeat waits on a stop signal, so it ends
//!   the moment the shard's work does;
//! * **idle** — with every shard claimed, poll until every shard is done
//!   or the queue is retired. A standalone worker also requeues stalled
//!   leases on the way; a coordinator-supervised one leaves that to the
//!   coordinator.
//!
//! A shard whose batch record is already in the store (a re-run, or a
//! requeued shard whose first owner published before dying) replays it
//! instead of compiling.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

use widening_obs as obs;
use widening_obs::SpanKind;
use widening_pipeline::codec::{Reader, Writer};
use widening_pipeline::exchange::{decode_unit_batch, encode_unit_batch, BATCH_KIND};
use widening_pipeline::{Exchange, Pipeline, StageCounts, StoreConfig, UnitOutcome};

use crate::manifest::SweepManifest;
use crate::queue::{JobQueue, LeaseObserver, LeaseStamp};
use crate::DistribError;

/// Version of the [`ShardReport`] encoding.
const REPORT_VERSION: u32 = 4;

/// How a worker runs.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// The queue directory (manifest + claim/done markers).
    pub queue_dir: PathBuf,
    /// The shared cache directory (stage artifacts + batch results).
    pub cache_dir: PathBuf,
    /// Worker threads for intra-shard fan-out.
    pub threads: usize,
    /// Lease TTL: how long another worker's heartbeat counter must sit
    /// still before this worker (idling, out of claimable shards)
    /// requeues its shard.
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
    /// Fault-injection hook: abandon everything (without completing the
    /// current shard — exactly what SIGKILL leaves behind) after
    /// processing this many units. `None` in production.
    pub die_after_units: Option<u64>,
}

impl WorkerConfig {
    /// A worker over `queue_dir` and `cache_dir` with defaults: one
    /// thread, 30 s lease TTL, 50 ms poll, pid-based tag.
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
            die_after_units: None,
        }
    }
}

/// What one worker did over its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Shards this worker completed.
    pub shards_completed: usize,
    /// Units processed (compiled or replayed).
    pub units: usize,
    /// Units served straight from a batch record (no compile at all).
    pub result_hits: usize,
    /// The worker pipeline's cumulative stage counters.
    pub counts: StageCounts,
}

/// One shard's completion report, published through the queue's done
/// marker so the coordinator can fold per-shard progress into the
/// existing stage-counter table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardReport {
    /// The shard index.
    pub shard: u32,
    /// Units the shard held.
    pub units: u32,
    /// Units served from a batch record without compiling.
    pub result_hits: u32,
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
        let (shard, units, result_hits) = (r.u32()?, r.u32()?, r.u32()?);
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
            counts,
        })
    }
}

/// Everything a worker's shard runs share.
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

    /// Resolves one unit: from the shard's published batch record if it
    /// holds the unit, by a live compile otherwise.
    fn unit_outcome(
        &self,
        unit: u32,
        published: &HashMap<u32, UnitOutcome>,
        hits: &AtomicUsize,
    ) -> UnitOutcome {
        if let Some(o) = published.get(&unit) {
            hits.fetch_add(1, Ordering::Relaxed);
            return *o;
        }
        let li = self.manifest.loop_of(unit);
        let spec = &self.manifest.specs[self.manifest.spec_of(unit)];
        let _unit_span = obs::span(
            SpanKind::SweepUnit,
            li as u64,
            obs::pack_point(spec.replication, spec.width, spec.registers),
        );
        UnitOutcome::of(&self.pipeline.compile(li, spec))
    }
}

/// The heartbeat cadence for a lease TTL: a quarter of the TTL leaves
/// ample margin, clamped so tests with millisecond TTLs still beat and
/// long TTLs don't leave multi-minute observation gaps.
fn heartbeat_interval(ttl: Duration) -> Duration {
    (ttl / 4).clamp(Duration::from_millis(5), Duration::from_secs(5))
}

/// A stop flag a waiting heartbeat wakes on at once, instead of
/// noticing it at its next poll.
#[derive(Debug, Default)]
struct StopSignal {
    stopped: Mutex<bool>,
    wake: Condvar,
}

impl StopSignal {
    /// Raises the flag and wakes every waiter.
    fn stop(&self) {
        *self.stopped.lock().expect("stop lock") = true;
        self.wake.notify_all();
    }

    /// Waits up to `timeout` for the flag; returns whether it is raised.
    /// The flag is checked under the lock, so a stop raised before or
    /// during the wait is never missed.
    fn wait(&self, timeout: Duration) -> bool {
        let stopped = self.stopped.lock().expect("stop lock");
        let (stopped, _) = self
            .wake
            .wait_timeout_while(stopped, timeout, |stopped| !*stopped)
            .expect("stop lock");
        *stopped
    }
}

/// Runs one claimed shard to completion: compile its units with a
/// counter heartbeat, publish the batch record and the durable done
/// marker. Returns the units served from an existing batch record, or
/// `None` when the chaos hook tripped and the shard was abandoned (the
/// lease goes silent and someone else requeues the work).
fn run_shard(state: &WorkerState<'_>, shard: usize) -> Option<usize> {
    let cfg = state.cfg;
    let units = &state.manifest.shards[shard];
    let n = units.len();
    let _shard_span = obs::span(SpanKind::WorkerShard, shard as u64, n as u64);

    let before = state.pipeline.stage_counts();
    let batch_key = state.manifest.batch_key(shard, state.fingerprints);
    let published: HashMap<u32, UnitOutcome> = state
        .exchange
        .get(BATCH_KIND, &batch_key)
        .and_then(|bytes| decode_unit_batch(&bytes))
        .unwrap_or_default()
        .into_iter()
        .collect();
    let slots: Vec<OnceLock<UnitOutcome>> = (0..n).map(|_| OnceLock::new()).collect();
    let hits = AtomicUsize::new(0);
    let cursor = AtomicUsize::new(0);
    let stop = StopSignal::default();

    let work = || loop {
        if state.poisoned() {
            break;
        }
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let _ = slots[i].set(state.unit_outcome(units[i], &published, &hits));
        if state.note_processed() {
            break;
        }
    };
    let work = &work;

    std::thread::scope(|scope| {
        // Time-based heartbeat on its own thread: liveness must not
        // depend on unit granularity — one pressure-starved unit can
        // legitimately out-compile any sane TTL, and tying renewal to
        // unit completion would let a *live* worker's lease stall
        // mid-unit (spurious requeue, duplicate shard).
        scope.spawn(|| {
            let interval = heartbeat_interval(cfg.lease_ttl);
            let mut beat = 0u64;
            loop {
                beat += 1;
                let stamp = LeaseStamp { counter: beat };
                state.queue.renew_lease(shard, &cfg.tag, stamp);
                obs::instant(SpanKind::Heartbeat, shard as u64, beat);
                if stop.wait(interval) {
                    break;
                }
            }
        });
        let extra: Vec<_> = (1..cfg.threads.max(1)).map(|_| scope.spawn(work)).collect();
        work();
        for h in extra {
            let _ = h.join();
        }
        stop.stop();
    });
    if state.poisoned() {
        return None;
    }

    // Publish the batch record (sorted by unit id, so identical
    // coverage is byte-identical) and the durable completion marker
    // carrying fleet-foldable counters.
    let mut entries: Vec<(u32, UnitOutcome)> = units
        .iter()
        .zip(&slots)
        .map(|(&u, slot)| (u, *slot.get().expect("every unit resolved")))
        .collect();
    entries.sort_by_key(|&(unit, _)| unit);
    state
        .exchange
        .put(BATCH_KIND, &batch_key, &encode_unit_batch(&entries));
    let result_hits = hits.into_inner();
    let report = ShardReport {
        shard: shard as u32,
        units: n as u32,
        result_hits: result_hits as u32,
        counts: state.pipeline.stage_counts().minus(&before),
    };
    state.queue.complete(shard, &report.encode());
    Some(result_hits)
}

/// Runs a worker until the queue is fully complete. Returns a summary
/// of the work done.
///
/// The worker never exits while *any* shard lacks a completion marker
/// (unless the queue is retired): out of claimable shards it requeues
/// stalled foreign leases (unless a coordinator reserved that job) and
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
        counts: StageCounts::zero(),
    };
    let mut observer = LeaseObserver::new();
    loop {
        if let Some(shard) = queue.claim_next(&cfg.tag) {
            let Some(result_hits) = run_shard(&state, shard) else {
                break;
            };
            summary.shards_completed += 1;
            summary.units += manifest.shards[shard].len();
            summary.result_hits += result_hits;
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
    fn stop_signal_wakes_a_waiting_heartbeat_at_once() {
        // A heartbeat waits out a 5 s interval; the stop raised mid-wait
        // must end it far sooner. A lost wakeup would sit the full 5 s.
        let stop = StopSignal::default();
        let waited = std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let start = std::time::Instant::now();
                let stopped = stop.wait(Duration::from_secs(5));
                (stopped, start.elapsed())
            });
            std::thread::sleep(Duration::from_millis(50));
            stop.stop();
            waiter.join().unwrap()
        });
        assert!(waited.0, "the wait must report the stop");
        assert!(
            waited.1 < Duration::from_secs(1),
            "woke after {:?}",
            waited.1
        );
        // A stop raised before the wait is seen without waiting at all.
        let start = std::time::Instant::now();
        assert!(stop.wait(Duration::from_secs(5)));
        assert!(start.elapsed() < Duration::from_secs(1));
        // Without a stop, the wait runs out its timeout.
        assert!(!StopSignal::default().wait(Duration::from_millis(5)));
    }

    #[test]
    fn shard_report_round_trips() {
        let report = ShardReport {
            shard: 3,
            units: 120,
            result_hits: 7,
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
