//! The in-memory tier of the two-tier artifact store, and its
//! instrumentation.
//!
//! Each stage memoizes under a content key. Concurrency contract: when
//! two sweep workers request the same key at the same time, exactly one
//! fetches it (from disk or by computing it) and the other blocks on
//! the entry's [`OnceLock`] — the run counters therefore count *stage
//! executions*, which is what the stage-reuse tests assert on.
//!
//! Two flavours share one implementation:
//!
//! * **pinned** ([`StageStore::pinned`]) — entries live for the store's
//!   lifetime, exactly like the PR-2 stage caches. Widening, MII-bound
//!   and base-schedule entries are pinned: they are small, shared across
//!   many design points, and re-deriving them is the expensive part of a
//!   sweep.
//! * **bounded** ([`StageStore::bounded`]) — entries carry an
//!   approximate byte size and an LRU stamp. Once a design point's
//!   corpus aggregate has been folded, the driver *seals* its entries
//!   ([`StageStore::seal_if`]); sealed entries are evicted
//!   least-recently-used first whenever resident bytes exceed the
//!   budget. Unsealed entries are never evicted — an in-flight sweep
//!   cannot have its own working set pulled out from under it. The
//!   spill-engine tier is bounded: its entries dominate memory (final
//!   graph + schedule + location tables per `(loop, Z)`).
//!
//! Eviction only drops the store's reference: values are `Arc`-shared,
//! so artifacts still held by callers stay alive, and an evicted key
//! that is requested again is re-fetched (from the disk tier when one
//! is attached, else recomputed).

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use widening_obs as obs;
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
/// (metric snapshots) and the legacy [`StageCounts`] projection read
/// the same atomics.
#[derive(Debug)]
pub struct StoreMetrics {
    requests: Arc<Counter>,
    runs: Arc<Counter>,
    disk_hits: Arc<Counter>,
    evictions: Arc<Counter>,
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
            evictions: registry.counter(&format!("store.{stage}.evictions")),
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

#[derive(Debug)]
struct Entry<V> {
    cell: Arc<OnceLock<V>>,
    /// Approximate resident bytes; 0 until the value is materialized.
    bytes: usize,
    /// LRU stamp from the store's logical clock.
    touch: u64,
    /// Whether the driver has released this entry for eviction.
    sealed: bool,
}

/// A concurrent two-tier memo table: `get_or_fetch` runs its closure at
/// most once per key *per residency* — exactly once ever while the key
/// stays resident, and once more after an eviction.
///
/// Public so that consumers above the pipeline can memoize their own
/// per-corpus work with the same exactly-once semantics and counters —
/// the evaluator's scalar-reference memo is a pinned `StageStore`
/// registered as `store.reference.*`.
#[derive(Debug)]
pub struct StageStore<K, V> {
    shards: Vec<Mutex<HashMap<K, Entry<V>>>>,
    hasher: RandomState,
    /// Byte budget for the in-memory tier; `None` = pinned (unbounded).
    budget: Option<usize>,
    clock: AtomicU64,
    metrics: StoreMetrics,
}

impl<K: Eq + Hash + Clone, V: Clone> StageStore<K, V> {
    /// An unbounded store: entries are pinned for the store's lifetime.
    #[must_use]
    pub fn pinned(metrics: StoreMetrics) -> Self {
        Self::with_budget(None, metrics)
    }

    /// A byte-budgeted store: sealed entries are LRU-evicted whenever
    /// resident bytes exceed `budget`.
    pub(crate) fn bounded(budget: Option<usize>, metrics: StoreMetrics) -> Self {
        Self::with_budget(budget, metrics)
    }

    fn with_budget(budget: Option<usize>, metrics: StoreMetrics) -> Self {
        StageStore {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hasher: RandomState::new(),
            budget,
            clock: AtomicU64::new(0),
            metrics,
        }
    }

    fn shard_of(&self, key: &K) -> usize {
        (self.hasher.hash_one(key) as usize) % SHARDS
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Returns the value for `key`, fetching it with `fetch` on a miss.
    /// `fetch` reports whether it computed the value live or decoded it
    /// from the disk tier; `size_of` prices the value for the byte
    /// budget. Same-key racers block on the winner's [`OnceLock`];
    /// different keys never serialize on the fetch.
    pub fn get_or_fetch(
        &self,
        key: K,
        size_of: impl FnOnce(&V) -> usize,
        fetch: impl FnOnce() -> (V, Fetch),
    ) -> V {
        self.metrics.requests.inc();
        let shard = self.shard_of(&key);
        let cell = {
            let mut map = self.shards[shard].lock().expect("stage store lock");
            let touch = self.tick();
            let entry = map.entry(key.clone()).or_insert_with(|| Entry {
                cell: Arc::new(OnceLock::new()),
                bytes: 0,
                touch,
                sealed: false,
            });
            entry.touch = touch;
            Arc::clone(&entry.cell)
        };
        // Outside the shard lock: a slow stage (scheduling) must not
        // serialize unrelated keys. `get_or_init` blocks same-key racers
        // until the winner's value is ready.
        let mut source = None;
        let value = cell
            .get_or_init(|| {
                let started = std::time::Instant::now();
                let (value, fetched) = fetch();
                let elapsed = started.elapsed();
                source = Some((fetched, elapsed));
                value
            })
            .clone();
        if let Some((fetched, elapsed)) = source {
            match fetched {
                Fetch::Computed => {
                    self.metrics.runs.inc();
                    self.metrics
                        .latency
                        .record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
                }
                Fetch::Disk => self.metrics.disk_hits.inc(),
            };
            let bytes = size_of(&value);
            let mut map = self.shards[shard].lock().expect("stage store lock");
            if let Some(entry) = map.get_mut(&key) {
                // Only price the entry we actually filled: the key may
                // have been evicted and re-inserted by another thread in
                // the meantime, in which case that thread accounts it.
                if Arc::ptr_eq(&entry.cell, &cell) && entry.bytes == 0 {
                    entry.bytes = bytes;
                    self.metrics.resident.add(bytes as u64);
                }
            }
            drop(map);
            self.enforce_budget();
        }
        value
    }

    /// Marks every resident entry whose key satisfies `pred` as sealed
    /// (eligible for eviction), then enforces the byte budget. A no-op
    /// on an unbounded store, where sealing could never cause eviction —
    /// the common no-budget path must not pay the full-store scan per
    /// folded design point.
    pub(crate) fn seal_if(&self, pred: impl Fn(&K) -> bool) {
        if self.budget.is_none() {
            return;
        }
        for shard in &self.shards {
            let mut map = shard.lock().expect("stage store lock");
            for (key, entry) in map.iter_mut() {
                if !entry.sealed && pred(key) {
                    entry.sealed = true;
                }
            }
        }
        self.enforce_budget();
    }

    /// Evicts sealed, materialized entries least-recently-used first
    /// until resident bytes fit the budget (or no evictable entry
    /// remains).
    fn enforce_budget(&self) {
        let Some(budget) = self.budget else { return };
        let budget = budget as u64;
        if self.metrics.resident.get() <= budget {
            return;
        }
        // Collect eviction candidates across shards, oldest first. The
        // scan is O(resident entries) — cheap next to a single schedule
        // run, and only taken on budget pressure.
        let mut candidates: Vec<(u64, usize, K)> = Vec::new();
        for (si, shard) in self.shards.iter().enumerate() {
            let map = shard.lock().expect("stage store lock");
            for (key, entry) in map.iter() {
                if entry.sealed && entry.bytes > 0 {
                    candidates.push((entry.touch, si, key.clone()));
                }
            }
        }
        candidates.sort_unstable_by_key(|&(touch, ..)| touch);
        let mut evicted = 0u64;
        for (touch, si, key) in candidates {
            if self.metrics.resident.get() <= budget {
                break;
            }
            let mut map = self.shards[si].lock().expect("stage store lock");
            // Re-check under the lock: the entry may have been touched
            // (or evicted and re-fetched) since the scan.
            if let Some(entry) = map.get(&key) {
                if entry.sealed && entry.bytes > 0 && entry.touch == touch {
                    let bytes = entry.bytes;
                    map.remove(&key);
                    self.metrics.resident.sub(bytes as u64);
                    self.metrics.evictions.inc();
                    evicted += 1;
                }
            }
        }
        if evicted > 0 {
            obs::instant(obs::SpanKind::Evict, evicted, self.metrics.resident.get());
        }
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

    pub(crate) fn evictions(&self) -> u64 {
        self.metrics.evictions.get()
    }

    pub(crate) fn resident_bytes(&self) -> u64 {
        self.metrics.resident.get()
    }
}

/// Cumulative stage-execution counters of a [`crate::Pipeline`].
///
/// `*_runs` counts actual stage executions; `*_requests` counts lookups;
/// `*_disk_hits` counts artifacts decoded from the disk tier instead of
/// executing the stage. A multi-configuration sweep that shares stages
/// shows `runs ≪ requests`; a warm-start run over a persisted cache
/// shows `runs == 0` with every miss served from disk.
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
    /// Schedule-stage entries evicted from the in-memory tier.
    pub schedule_evictions: u64,
    /// Approximate bytes currently resident in the in-memory
    /// schedule-stage tier.
    pub schedule_resident_bytes: u64,
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
    /// Flows (runs, requests, hits, evictions) add; resident bytes are
    /// a *level*, not a flow — per-shard reports from one worker all
    /// describe the same pipeline's residency — so the fold keeps the
    /// **maximum** observed level (the fleet's peak single-pipeline
    /// footprint) instead of a meaningless sum.
    #[must_use]
    pub fn plus(&self, other: &StageCounts) -> StageCounts {
        StageCounts {
            widen_runs: self.widen_runs + other.widen_runs,
            widen_requests: self.widen_requests + other.widen_requests,
            widen_disk_hits: self.widen_disk_hits + other.widen_disk_hits,
            mii_runs: self.mii_runs + other.mii_runs,
            mii_requests: self.mii_requests + other.mii_requests,
            mii_disk_hits: self.mii_disk_hits + other.mii_disk_hits,
            base_schedule_runs: self.base_schedule_runs + other.base_schedule_runs,
            base_schedule_requests: self.base_schedule_requests + other.base_schedule_requests,
            base_schedule_disk_hits: self.base_schedule_disk_hits + other.base_schedule_disk_hits,
            schedule_runs: self.schedule_runs + other.schedule_runs,
            schedule_requests: self.schedule_requests + other.schedule_requests,
            schedule_disk_hits: self.schedule_disk_hits + other.schedule_disk_hits,
            schedule_evictions: self.schedule_evictions + other.schedule_evictions,
            schedule_resident_bytes: self
                .schedule_resident_bytes
                .max(other.schedule_resident_bytes),
            lower_runs: self.lower_runs + other.lower_runs,
            lower_requests: self.lower_requests + other.lower_requests,
            lower_disk_hits: self.lower_disk_hits + other.lower_disk_hits,
        }
    }

    /// Field-wise saturating difference — a shard's counter delta from
    /// two cumulative snapshots (resident bytes keep the later
    /// snapshot's value: residency is a level, not a flow).
    #[must_use]
    pub fn minus(&self, baseline: &StageCounts) -> StageCounts {
        StageCounts {
            widen_runs: self.widen_runs.saturating_sub(baseline.widen_runs),
            widen_requests: self.widen_requests.saturating_sub(baseline.widen_requests),
            widen_disk_hits: self
                .widen_disk_hits
                .saturating_sub(baseline.widen_disk_hits),
            mii_runs: self.mii_runs.saturating_sub(baseline.mii_runs),
            mii_requests: self.mii_requests.saturating_sub(baseline.mii_requests),
            mii_disk_hits: self.mii_disk_hits.saturating_sub(baseline.mii_disk_hits),
            base_schedule_runs: self
                .base_schedule_runs
                .saturating_sub(baseline.base_schedule_runs),
            base_schedule_requests: self
                .base_schedule_requests
                .saturating_sub(baseline.base_schedule_requests),
            base_schedule_disk_hits: self
                .base_schedule_disk_hits
                .saturating_sub(baseline.base_schedule_disk_hits),
            schedule_runs: self.schedule_runs.saturating_sub(baseline.schedule_runs),
            schedule_requests: self
                .schedule_requests
                .saturating_sub(baseline.schedule_requests),
            schedule_disk_hits: self
                .schedule_disk_hits
                .saturating_sub(baseline.schedule_disk_hits),
            schedule_evictions: self
                .schedule_evictions
                .saturating_sub(baseline.schedule_evictions),
            schedule_resident_bytes: self.schedule_resident_bytes,
            lower_runs: self.lower_runs.saturating_sub(baseline.lower_runs),
            lower_requests: self.lower_requests.saturating_sub(baseline.lower_requests),
            lower_disk_hits: self
                .lower_disk_hits
                .saturating_sub(baseline.lower_disk_hits),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_store_runs_once_per_key() {
        let store: StageStore<u32, u32> = StageStore::pinned(StoreMetrics::detached());
        for _ in 0..3 {
            for k in 0..4 {
                let v = store.get_or_fetch(k, |_| 8, || (k * 10, Fetch::Computed));
                assert_eq!(v, k * 10);
            }
        }
        assert_eq!(store.runs(), 4);
        assert_eq!(store.requests(), 12);
        assert_eq!(store.evictions(), 0);
    }

    #[test]
    fn disk_fetches_count_separately() {
        let store: StageStore<u32, u32> = StageStore::pinned(StoreMetrics::detached());
        store.get_or_fetch(1, |_| 8, || (1, Fetch::Disk));
        store.get_or_fetch(2, |_| 8, || (2, Fetch::Computed));
        assert_eq!(store.runs(), 1);
        assert_eq!(store.disk_hits(), 1);
    }

    #[test]
    fn only_computed_fetches_record_latency() {
        let registry = MetricsRegistry::new();
        let store: StageStore<u32, u32> =
            StageStore::pinned(StoreMetrics::for_stage(&registry, "t"));
        store.get_or_fetch(1, |_| 8, || (1, Fetch::Computed));
        store.get_or_fetch(2, |_| 8, || (2, Fetch::Disk));
        store.get_or_fetch(1, |_| 8, || unreachable!("memo hit"));
        let hist = registry.histogram("store.t.latency-ns");
        assert_eq!(hist.count(), 1, "one live run, one sample");
        assert!(hist.p99().is_some());
    }

    #[test]
    fn sealed_entries_evict_lru_first_under_budget() {
        let store: StageStore<u32, u32> = StageStore::bounded(Some(100), StoreMetrics::detached());
        for k in 0..4 {
            store.get_or_fetch(k, |_| 40, || (k, Fetch::Computed));
        }
        // Unsealed: nothing evictable, resident overshoots.
        assert_eq!(store.resident_bytes(), 160);
        assert_eq!(store.evictions(), 0);
        // Touch key 0 so key 1 is the least recently used.
        store.get_or_fetch(0, |_| 40, || unreachable!("resident"));
        store.seal_if(|_| true);
        assert!(store.resident_bytes() <= 100, "{}", store.resident_bytes());
        assert_eq!(store.evictions(), 2);
        // Key 1 went first (LRU); a re-request re-fetches it.
        store.get_or_fetch(1, |_| 40, || (11, Fetch::Disk));
        assert_eq!(store.disk_hits(), 1);
    }

    #[test]
    fn eviction_keeps_budget_on_later_inserts() {
        let store: StageStore<u32, u32> = StageStore::bounded(Some(100), StoreMetrics::detached());
        for k in 0..16 {
            store.get_or_fetch(k, |_| 30, || (k, Fetch::Computed));
            store.seal_if(|&key| key == k);
            assert!(
                store.resident_bytes() <= 100,
                "resident {} after key {k}",
                store.resident_bytes()
            );
        }
        assert!(store.evictions() >= 12);
    }

    #[test]
    fn concurrent_requests_fetch_exactly_once_per_key() {
        let store: StageStore<u32, u64> = StageStore::pinned(StoreMetrics::detached());
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
    }
}
