//! The in-memory tier of the two-tier artifact store, and its
//! instrumentation.
//!
//! Each stage memoizes under a content key. Concurrency contract: when
//! two sweep workers request the same key at the same time, exactly one
//! fetches it (from disk or by computing it) and the other blocks on
//! the entry's [`OnceLock`] — the run counters therefore count *stage
//! executions*, which is what the stage-reuse tests assert on.
//!
//! Entries live for the store's lifetime: a key is fetched at most once,
//! and every later request is a memo hit. Values are `Arc`-shared, so a
//! hit costs a reference-count bump, never a copy.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, RandomState};
use std::sync::{Arc, Mutex, OnceLock};

use widening_obs::{Counter, Gauge, Histogram, MetricsRegistry};

/// Lock shards per store: enough to keep a ~16-thread sweep off each
/// other's locks, small enough to cost nothing.
const SHARDS: usize = 16;

/// Where a fetched value came from — reported by the fetch closure so
/// the store can attribute the miss to the right counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fetch {
    /// The stage actually executed.
    Computed,
    /// The artifact was decoded from the disk tier.
    Disk,
}

/// One stage store's counter handles, registered in the pipeline's
/// [`MetricsRegistry`] under `store.<stage>.*` so external consumers
/// (metric snapshots) and the [`StageCounts`] projection read the same
/// atomics.
#[derive(Debug)]
pub struct StoreMetrics {
    requests: Arc<Counter>,
    runs: Arc<Counter>,
    disk_hits: Arc<Counter>,
    /// Approximate bytes held by the store's entries.
    resident: Arc<Gauge>,
    /// Live stage-execution latency (`Fetch::Computed` only — disk
    /// decodes and memo hits would drown the signal the perf ledger
    /// reads percentiles from).
    latency: Arc<Histogram>,
}

impl StoreMetrics {
    /// Handles for stage `stage`, created in (or fetched from) `registry`.
    #[must_use]
    pub fn for_stage(registry: &MetricsRegistry, stage: &str) -> Self {
        StoreMetrics {
            requests: registry.counter(&format!("store.{stage}.requests")),
            runs: registry.counter(&format!("store.{stage}.runs")),
            disk_hits: registry.counter(&format!("store.{stage}.disk-hits")),
            resident: registry.gauge(&format!("store.{stage}.resident-bytes")),
            latency: registry.histogram(&format!("store.{stage}.latency-ns")),
        }
    }

    /// Handles backed by a throwaway registry — for stores constructed
    /// outside a [`crate::Pipeline`] (tests).
    #[cfg(test)]
    pub(crate) fn detached() -> Self {
        Self::for_stage(&MetricsRegistry::new(), "detached")
    }
}

/// A concurrent two-tier memo table: `get_or_fetch` runs its closure
/// exactly once per key.
///
/// Public so that consumers above the pipeline can memoize their own
/// per-corpus work with the same exactly-once semantics and counters —
/// the evaluator's scalar-reference memo is a `StageStore` registered
/// as `store.reference.*`.
#[derive(Debug)]
pub struct StageStore<K, V> {
    shards: Vec<Mutex<HashMap<K, Arc<OnceLock<V>>>>>,
    hasher: RandomState,
    metrics: StoreMetrics,
}

impl<K: Eq + Hash, V: Clone> StageStore<K, V> {
    /// An empty store counting into `metrics`.
    #[must_use]
    pub fn new(metrics: StoreMetrics) -> Self {
        StageStore {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hasher: RandomState::new(),
            metrics,
        }
    }

    /// Returns the value for `key`, fetching it with `fetch` on a miss.
    /// `fetch` reports whether it computed the value live or decoded it
    /// from the disk tier; `size_of` prices the fetched value for the
    /// `resident-bytes` gauge. Same-key racers block on the winner's
    /// [`OnceLock`]; different keys never serialize on the fetch.
    pub fn get_or_fetch(
        &self,
        key: K,
        size_of: impl FnOnce(&V) -> usize,
        fetch: impl FnOnce() -> (V, Fetch),
    ) -> V {
        self.metrics.requests.inc();
        let shard = (self.hasher.hash_one(&key) as usize) % SHARDS;
        let cell = Arc::clone(
            self.shards[shard]
                .lock()
                .expect("stage store lock")
                .entry(key)
                .or_default(),
        );
        // Outside the shard lock: a slow stage (scheduling) must not
        // serialize unrelated keys. `get_or_init` blocks same-key racers
        // until the winner's value is ready.
        let mut source = None;
        let value = cell
            .get_or_init(|| {
                let started = std::time::Instant::now();
                let (value, fetched) = fetch();
                source = Some((fetched, started.elapsed()));
                value
            })
            .clone();
        // Only the fetch that filled the cell gets here, and entries are
        // never removed, so each key is counted and priced exactly once.
        if let Some((fetched, elapsed)) = source {
            match fetched {
                Fetch::Computed => {
                    self.metrics.runs.inc();
                    self.metrics
                        .latency
                        .record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
                }
                Fetch::Disk => self.metrics.disk_hits.inc(),
            }
            self.metrics.resident.add(size_of(&value) as u64);
        }
        value
    }

    /// Lookups served so far, memo hits included.
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.metrics.requests.get()
    }

    /// Fetches that computed their value live.
    #[must_use]
    pub fn runs(&self) -> u64 {
        self.metrics.runs.get()
    }

    pub(crate) fn disk_hits(&self) -> u64 {
        self.metrics.disk_hits.get()
    }
}

/// Cumulative stage-execution counters of a [`crate::Pipeline`].
///
/// `*_runs` counts actual stage executions; `*_requests` counts lookups;
/// `*_disk_hits` counts artifacts decoded from the disk tier instead of
/// executing the stage. A multi-configuration sweep that shares stages
/// shows `runs ≪ requests`; a warm-start run over a persisted cache
/// shows `runs == 0` with every miss served from disk. Every field is a
/// flow, so the counts of several pipelines or shards add up.
///
/// The `schedule_*` counters cover spill-engine units only: a unit whose
/// base schedule fits its register file takes the base's own stage and
/// never looks the schedule stage up.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCounts {
    /// Widening transforms executed (one per distinct `(loop, Y)`).
    pub widen_runs: u64,
    /// Widening stage lookups.
    pub widen_requests: u64,
    /// Widening artifacts decoded from the disk tier.
    pub widen_disk_hits: u64,
    /// MII bound computations executed.
    pub mii_runs: u64,
    /// MII stage lookups.
    pub mii_requests: u64,
    /// MII artifacts decoded from the disk tier.
    pub mii_disk_hits: u64,
    /// Register-file-independent base schedules executed (one per
    /// `(loop, resources, model, strategy)` across a whole RF sweep).
    pub base_schedule_runs: u64,
    /// Base-schedule stage lookups.
    pub base_schedule_requests: u64,
    /// Base-schedule artifacts decoded from the disk tier.
    pub base_schedule_disk_hits: u64,
    /// Spill-engine stage executions.
    pub schedule_runs: u64,
    /// Spill-engine stage lookups.
    pub schedule_requests: u64,
    /// Spill-engine stages decoded from the disk tier.
    pub schedule_disk_hits: u64,
    /// Lowering stage executions (scheduled wide loop → bytecode).
    pub lower_runs: u64,
    /// Lowering stage lookups.
    pub lower_requests: u64,
    /// Lowered programs decoded from the disk tier.
    pub lower_disk_hits: u64,
}

impl StageCounts {
    /// Total stage executions avoided by memoization (in-memory replays
    /// plus disk-tier decodes).
    #[must_use]
    pub fn hits(&self) -> u64 {
        (self.widen_requests - self.widen_runs)
            + (self.mii_requests - self.mii_runs)
            + (self.base_schedule_requests - self.base_schedule_runs)
            + (self.schedule_requests - self.schedule_runs)
            + (self.lower_requests - self.lower_runs)
    }

    /// Total live stage executions across all five stages — zero on a
    /// fully warm-started run.
    #[must_use]
    pub fn live_runs(&self) -> u64 {
        self.widen_runs
            + self.mii_runs
            + self.base_schedule_runs
            + self.schedule_runs
            + self.lower_runs
    }

    /// Total artifacts served by the disk tier across all five stages.
    #[must_use]
    pub fn disk_hits(&self) -> u64 {
        self.widen_disk_hits
            + self.mii_disk_hits
            + self.base_schedule_disk_hits
            + self.schedule_disk_hits
            + self.lower_disk_hits
    }

    /// All-zero counters — the identity for [`StageCounts::plus`].
    #[must_use]
    pub fn zero() -> Self {
        StageCounts::default()
    }

    /// Field-wise sum — folds one worker's counters into a fleet total.
    #[must_use]
    pub fn plus(&self, other: &StageCounts) -> StageCounts {
        self.zip(other, |a, b| a + b)
    }

    /// Field-wise saturating difference — a shard's counter delta from
    /// two cumulative snapshots.
    #[must_use]
    pub fn minus(&self, baseline: &StageCounts) -> StageCounts {
        self.zip(baseline, u64::saturating_sub)
    }

    /// Applies `f` to every pair of corresponding fields.
    fn zip(&self, other: &StageCounts, f: impl Fn(u64, u64) -> u64) -> StageCounts {
        StageCounts {
            widen_runs: f(self.widen_runs, other.widen_runs),
            widen_requests: f(self.widen_requests, other.widen_requests),
            widen_disk_hits: f(self.widen_disk_hits, other.widen_disk_hits),
            mii_runs: f(self.mii_runs, other.mii_runs),
            mii_requests: f(self.mii_requests, other.mii_requests),
            mii_disk_hits: f(self.mii_disk_hits, other.mii_disk_hits),
            base_schedule_runs: f(self.base_schedule_runs, other.base_schedule_runs),
            base_schedule_requests: f(self.base_schedule_requests, other.base_schedule_requests),
            base_schedule_disk_hits: f(self.base_schedule_disk_hits, other.base_schedule_disk_hits),
            schedule_runs: f(self.schedule_runs, other.schedule_runs),
            schedule_requests: f(self.schedule_requests, other.schedule_requests),
            schedule_disk_hits: f(self.schedule_disk_hits, other.schedule_disk_hits),
            lower_runs: f(self.lower_runs, other.lower_runs),
            lower_requests: f(self.lower_requests, other.lower_requests),
            lower_disk_hits: f(self.lower_disk_hits, other.lower_disk_hits),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_store_runs_once_per_key() {
        let store: StageStore<u32, u32> = StageStore::new(StoreMetrics::detached());
        for _ in 0..3 {
            for k in 0..4 {
                let v = store.get_or_fetch(k, |_| 8, || (k * 10, Fetch::Computed));
                assert_eq!(v, k * 10);
            }
        }
        assert_eq!(store.runs(), 4);
        assert_eq!(store.requests(), 12);
    }

    #[test]
    fn disk_fetches_count_separately() {
        let store: StageStore<u32, u32> = StageStore::new(StoreMetrics::detached());
        store.get_or_fetch(1, |_| 8, || (1, Fetch::Disk));
        store.get_or_fetch(2, |_| 8, || (2, Fetch::Computed));
        assert_eq!(store.runs(), 1);
        assert_eq!(store.disk_hits(), 1);
    }

    #[test]
    fn only_computed_fetches_record_latency() {
        let registry = MetricsRegistry::new();
        let store: StageStore<u32, u32> = StageStore::new(StoreMetrics::for_stage(&registry, "t"));
        store.get_or_fetch(1, |_| 8, || (1, Fetch::Computed));
        store.get_or_fetch(2, |_| 8, || (2, Fetch::Disk));
        store.get_or_fetch(1, |_| 8, || unreachable!("memo hit"));
        let hist = registry.histogram("store.t.latency-ns");
        assert_eq!(hist.count(), 1, "one live run, one sample");
        assert!(hist.p99().is_some());
    }

    #[test]
    fn concurrent_requests_fetch_exactly_once_per_key() {
        let registry = MetricsRegistry::new();
        let store: StageStore<u32, u64> = StageStore::new(StoreMetrics::for_stage(&registry, "t"));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for k in 0..32 {
                        let v =
                            store.get_or_fetch(k, |_| 8, || (u64::from(k) + 7, Fetch::Computed));
                        assert_eq!(v, u64::from(k) + 7);
                    }
                });
            }
        });
        assert_eq!(store.runs(), 32);
        assert_eq!(store.requests(), 8 * 32);
        // The fetch that fills a key prices it; racers that find it
        // filled add nothing.
        assert_eq!(registry.gauge("store.t.resident-bytes").get(), 32 * 8);
    }
}
