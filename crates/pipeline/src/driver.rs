//! The memoized [`Pipeline`] driver: the two-tier stage store over one
//! fixed corpus, and the multi-config sweep engine. The disk tier
//! is the pipeline's view of the segment log: the segments present when
//! it opened, plus its own appends. Content fingerprints, the disk
//! half of every stage key, are computed per loop on first use.

use std::cell::Cell;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use widening_ir::{Ddg, Edge, Loop, Op};
use widening_machine::CycleModel;
use widening_obs as obs;
use widening_obs::{Histogram, MetricsRegistry, SpanKind};
use widening_regalloc::SpillOptions;
use widening_sched::{MiiBounds, Strategy};
use widening_transform::WideningOutcome;
use widening_wire::Writer;

use widening_lower::WideProgram;

use crate::codec;
use crate::error::PipelineError;
use crate::pool::par_map;
use crate::segment::{
    stage_key, SegmentLog, STAGE_BASE, STAGE_LOWER, STAGE_MII, STAGE_SCHED, STAGE_WIDEN,
};
use crate::stage::{
    stage_base_schedule, stage_mii, stage_schedule, stage_widen, BaseSchedule, CompiledLoop,
    PointSpec, ScheduledStage,
};
use crate::store::{Fetch, StageCounts, StageStore, StoreMetrics};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct WideKey {
    li: u32,
    width: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct MiiKey {
    li: u32,
    width: u32,
    replication: u32,
    model: CycleModel,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct BaseKey {
    li: u32,
    width: u32,
    replication: u32,
    model: CycleModel,
    strategy: Strategy,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SchedKey {
    li: u32,
    width: u32,
    replication: u32,
    registers: u32,
    model: CycleModel,
    strategy: Strategy,
    spill: SpillOptions,
}

/// Configuration of a [`Pipeline`]'s artifact store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreConfig {
    /// Root of the on-disk content-addressed tier, where the pipeline
    /// appends its stage artifacts to a segment of its own. `None` (the
    /// default) disables persistence: stage artifacts live only in
    /// memory, as in the original per-process caches.
    pub cache_dir: Option<PathBuf>,
    /// Approximate byte budget for the in-memory schedule-stage tier.
    /// `None` (the default) pins every entry for the pipeline's
    /// lifetime; `Some(budget)` LRU-evicts schedule/alloc/spill entries
    /// whose corpus aggregates have been folded (widening, MII-bound and
    /// base-schedule entries are small and always pinned). The budget is
    /// enforced against a conservative per-entry size estimate.
    pub memory_budget: Option<usize>,
}

impl StoreConfig {
    /// Store configuration persisting artifacts under `cache_dir`.
    #[must_use]
    pub fn persistent(cache_dir: impl Into<PathBuf>) -> Self {
        StoreConfig {
            cache_dir: Some(cache_dir.into()),
            memory_budget: None,
        }
    }

    /// Sets the in-memory schedule-tier byte budget.
    #[must_use]
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
    }
}

/// The staged compilation driver for one corpus, fixed at construction.
///
/// Every stage is memoized in a two-tier `StageStore` under a content
/// key:
///
/// * **widening** on `(loop, Y)` — a `1w2 / 2w2 / 4w2` sweep widens each
///   loop once;
/// * **MII bounds** on `(wide DDG, resources, cycle model)` — shared by
///   peak evaluation across register-file sizes;
/// * **base schedule** (the register-file-independent round 1 of the
///   spill engine) on `(wide DDG, resources, cycle model, strategy)` —
///   a `32/64/128/256`-RF sweep schedules each loop once and re-enters
///   the spill engine only where the requirement exceeds the file;
/// * **spill engine** additionally on registers and spill options, for
///   the points whose base schedule needs more registers than the file
///   holds (a point it fits takes the base's own stage, with no entry
///   of its own).
///
/// With a [`StoreConfig::cache_dir`], every artifact (including memoized
/// failures) is additionally appended to the pipeline's own on-disk
/// segment under its *content* key — the loop's graph fingerprint plus
/// the design-point fields — so a second process over the same corpus
/// decodes every stage instead of executing it. Opening the pipeline
/// indexes the segments already in the directory; it sees those plus
/// its own appends. With a [`StoreConfig::memory_budget`],
/// schedule-stage entries are LRU-evicted once sealed (see
/// [`Pipeline::seal_point`]) and re-fetched from the segments.
///
/// The driver is `Sync`; corpus evaluation, simulation and
/// [`Pipeline::sweep`] all hit the same stores from the worker pool.
#[derive(Debug)]
pub struct Pipeline {
    /// The store configuration this pipeline was built with (kept so
    /// consumers — warm-start simulation, distributed sweeps — can open
    /// the same cache directory's exchange tiers).
    config: StoreConfig,
    /// The corpus, fixed at construction: a loop index names the same
    /// loop for the pipeline's lifetime.
    loops: Arc<Vec<Loop>>,
    /// Per-loop content fingerprints, parallel to `loops` (the disk
    /// tier's half of every stage key), each computed on first use.
    fingerprints: Box<[OnceLock<u128>]>,
    log: Option<SegmentLog>,
    /// The metrics registry behind every stage store's counters; also
    /// open to consumers for their own pipeline-scoped metrics.
    metrics: MetricsRegistry,
    widened: StageStore<WideKey, Arc<WideningOutcome>>,
    bounds: StageStore<MiiKey, Arc<MiiBounds>>,
    base: StageStore<BaseKey, Result<Arc<BaseSchedule>, PipelineError>>,
    /// Time each live base-schedule run spends in the register
    /// allocator (`store.base-schedule.allocate-ns`), one sample per
    /// live run, so the ledger splits the stage into allocator and
    /// scheduler.
    base_allocate: Arc<Histogram>,
    scheduled: StageStore<SchedKey, Result<Arc<ScheduledStage>, PipelineError>>,
    /// Stage 5: executable wide-loop bytecode lowered from the
    /// scheduled stage. Keyed identically to `scheduled` — lowering
    /// consumes the schedule/allocation/spill result and nothing else
    /// (in particular no cycle-count model), so the content key is the
    /// schedule's content key.
    lowered: StageStore<SchedKey, Result<Arc<WideProgram>, PipelineError>>,
}

impl Pipeline {
    /// A pipeline over `loops` with empty stage stores and the default
    /// (memory-only, unbounded) configuration.
    #[must_use]
    pub fn new(loops: Vec<Loop>) -> Self {
        Pipeline::over(Arc::new(loops))
    }

    /// A pipeline sharing an already-`Arc`ed corpus.
    #[must_use]
    pub fn over(loops: Arc<Vec<Loop>>) -> Self {
        Pipeline::with_config(loops, StoreConfig::default())
    }

    /// A pipeline with an explicit store configuration. An unusable
    /// `cache_dir` (not creatable) degrades to the memory-only store.
    #[must_use]
    pub fn with_config(loops: Arc<Vec<Loop>>, config: StoreConfig) -> Self {
        let log = config.cache_dir.as_deref().and_then(SegmentLog::open);
        let fingerprints = loops.iter().map(|_| OnceLock::new()).collect();
        let metrics = MetricsRegistry::new();
        Pipeline {
            loops,
            fingerprints,
            log,
            widened: StageStore::pinned(StoreMetrics::for_stage(&metrics, "widen")),
            bounds: StageStore::pinned(StoreMetrics::for_stage(&metrics, "mii")),
            base: StageStore::pinned(StoreMetrics::for_stage(&metrics, "base-schedule")),
            base_allocate: metrics.histogram("store.base-schedule.allocate-ns"),
            scheduled: StageStore::bounded(
                config.memory_budget,
                StoreMetrics::for_stage(&metrics, "schedule"),
            ),
            lowered: StageStore::bounded(
                config.memory_budget,
                StoreMetrics::for_stage(&metrics, "lower"),
            ),
            metrics,
            config,
        }
    }

    /// The pipeline's metrics registry. Stage-store counters live here
    /// under `store.<stage>.*`; callers may register their own
    /// pipeline-scoped counters and histograms alongside them.
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The store configuration this pipeline was built with.
    #[must_use]
    pub fn store_config(&self) -> &StoreConfig {
        &self.config
    }

    /// The content fingerprint of loop `li`'s graph
    /// ([`codec::ddg_fingerprint`]) — the disk tier's half of every
    /// stage key. Computed on first use and cached.
    ///
    /// # Panics
    ///
    /// Panics if `li` is out of corpus bounds.
    #[must_use]
    pub fn content_fingerprint(&self, li: usize) -> u128 {
        *self.fingerprints[li].get_or_init(|| codec::ddg_fingerprint(self.loops[li].ddg()))
    }

    /// The corpus being compiled, shared.
    #[must_use]
    pub fn loops(&self) -> Arc<Vec<Loop>> {
        Arc::clone(&self.loops)
    }

    /// Cumulative stage execution/lookup/disk counters.
    #[must_use]
    pub fn stage_counts(&self) -> StageCounts {
        StageCounts {
            widen_runs: self.widened.runs(),
            widen_requests: self.widened.requests(),
            widen_disk_hits: self.widened.disk_hits(),
            mii_runs: self.bounds.runs(),
            mii_requests: self.bounds.requests(),
            mii_disk_hits: self.bounds.disk_hits(),
            base_schedule_runs: self.base.runs(),
            base_schedule_requests: self.base.requests(),
            base_schedule_disk_hits: self.base.disk_hits(),
            schedule_runs: self.scheduled.runs(),
            schedule_requests: self.scheduled.requests(),
            schedule_disk_hits: self.scheduled.disk_hits(),
            schedule_evictions: self.scheduled.evictions(),
            schedule_resident_bytes: self.scheduled.resident_bytes(),
            lower_runs: self.lowered.runs(),
            lower_requests: self.lowered.requests(),
            lower_disk_hits: self.lowered.disk_hits(),
        }
    }

    /// Swallowed disk-tier I/O or format failures (0 without a
    /// `cache_dir`). A warm start that stubbornly recomputes usually
    /// shows up here first.
    #[must_use]
    pub fn disk_errors(&self) -> u64 {
        self.log.as_ref().map_or(0, SegmentLog::errors)
    }

    /// Seals every schedule-stage entry of design point `spec`: its
    /// corpus aggregate has been folded, so the in-memory tier may evict
    /// those entries (LRU) whenever the byte budget demands it. Sealing
    /// is purely a residency release — artifacts stay reachable through
    /// the disk tier or by recomputation. No-op for peak-mode specs and
    /// without a memory budget.
    pub fn seal_point(&self, spec: &PointSpec) {
        let Some(registers) = spec.registers else {
            return;
        };
        let of_point = |k: &SchedKey| {
            k.width == spec.width
                && k.replication == spec.replication
                && k.registers == registers
                && k.model == spec.model
                && k.strategy == spec.opts.strategy
                && k.spill == spec.opts.spill
        };
        self.scheduled.seal_if(of_point);
        self.lowered.seal_if(of_point);
    }

    /// Stage 1, memoized: the widened DDG (+ origin metadata) of loop
    /// `li` at degree `width`.
    ///
    /// # Panics
    ///
    /// Panics if `li` is out of corpus bounds.
    #[must_use]
    pub fn widened(&self, li: usize, width: u32) -> Arc<WideningOutcome> {
        let key = WideKey {
            li: li as u32,
            width,
        };
        self.widened.get_or_fetch(
            key,
            |_| 0,
            || {
                let ddg = self.loops[li].ddg();
                let key_bytes = || self.widen_key_bytes(li, width);
                let (a, b) = (li as u64, u64::from(width));
                let decode = obs::span(SpanKind::WidenDecode, a, b);
                if let Some(out) = self.disk_load(key_bytes, |bytes| {
                    codec::decode_widen(bytes, ddg.num_nodes(), width)
                }) {
                    return (Arc::new(out), Fetch::Disk);
                }
                decode.cancel();
                let _run = obs::span(SpanKind::Widen, a, b);
                let out = stage_widen(ddg, width);
                self.disk_store(key_bytes, || codec::encode_widen(&out));
                (Arc::new(out), Fetch::Computed)
            },
        )
    }

    /// Stage 2, memoized: MII bounds of loop `li`'s wide graph on
    /// `replication` buses/FPUs under `model`.
    #[must_use]
    pub fn mii_bounds(
        &self,
        li: usize,
        replication: u32,
        width: u32,
        model: CycleModel,
    ) -> Arc<MiiBounds> {
        let key = MiiKey {
            li: li as u32,
            width,
            replication,
            model,
        };
        self.bounds.get_or_fetch(
            key,
            |_| 0,
            || {
                let wide = self.widened(li, width);
                let key_bytes = || self.mii_key_bytes(li, replication, width, model);
                let (a, b) = (li as u64, obs::pack_point(replication, width, None));
                let decode = obs::span(SpanKind::MiiDecode, a, b);
                if let Some(bounds) = self.disk_load(key_bytes, |bytes| {
                    codec::decode_mii(bytes, wide.ddg().num_nodes())
                }) {
                    return (Arc::new(bounds), Fetch::Disk);
                }
                decode.cancel();
                let _run = obs::span(SpanKind::Mii, a, b);
                let spec = PointSpec::peak(replication, width, model);
                let bounds = stage_mii(wide.ddg(), &spec.machine(), model);
                self.disk_store(key_bytes, || codec::encode_mii(&bounds));
                (Arc::new(bounds), Fetch::Computed)
            },
        )
    }

    /// Stage 3a, memoized: the register-file-independent round-1
    /// schedule + allocation of loop `li`'s wide graph.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Schedule`] when the modulo scheduler fails (the
    /// error is memoized — and persisted — too).
    pub fn base_schedule(
        &self,
        li: usize,
        spec: &PointSpec,
    ) -> Result<Arc<BaseSchedule>, PipelineError> {
        let key = BaseKey {
            li: li as u32,
            width: spec.width,
            replication: spec.replication,
            model: spec.model,
            strategy: spec.opts.strategy,
        };
        self.base.get_or_fetch(
            key,
            |_| 0,
            || {
                let wide = self.widened(li, spec.width);
                // A base's round-1 stage takes the stage-2 bound as its
                // final MII, so a decoded base needs the bounds too.
                let bounds = self.mii_bounds(li, spec.replication, spec.width, spec.model);
                let key_bytes = || self.base_key_bytes(li, spec);
                let (a, b) = (
                    li as u64,
                    obs::pack_point(spec.replication, spec.width, None),
                );
                let decode = obs::span(SpanKind::BaseDecode, a, b);
                if let Some(result) = self.disk_load(key_bytes, |bytes| {
                    let wide = wide.shared_ddg();
                    codec::decode_base(bytes, wide, &spec.machine(), spec.model, bounds.mii())
                }) {
                    return (result, Fetch::Disk);
                }
                decode.cancel();
                let _run = obs::span(SpanKind::BaseSchedule, a, b);
                let (result, allocating) = stage_base_schedule(
                    wide.shared_ddg(),
                    &spec.machine(),
                    spec.model,
                    &spec.opts,
                    &bounds,
                );
                self.base_allocate
                    .record(u64::try_from(allocating.as_nanos()).unwrap_or(u64::MAX));
                let result = result.map(Arc::new);
                self.disk_store(key_bytes, || codec::encode_base(&result));
                (result, Fetch::Computed)
            },
        )
    }

    /// Runs (or replays) the staged chain for loop `li` at design point
    /// `spec`, stopping after MII when `spec.registers` is `None`. A
    /// register file the base schedule fits gets the base's own round-1
    /// stage; only a larger requirement enters the spill engine, whose
    /// stage is memoized (and persisted) per register file.
    ///
    /// # Errors
    ///
    /// [`PipelineError`] when the base schedule or the spill engine
    /// fails — the error is memoized (and persisted) too, so a failing
    /// design point is diagnosed once, not once per caller or per
    /// process.
    pub fn compile(&self, li: usize, spec: &PointSpec) -> Result<CompiledLoop, PipelineError> {
        let wide = self.widened(li, spec.width);
        let bounds = self.mii_bounds(li, spec.replication, spec.width, spec.model);
        let Some(registers) = spec.registers else {
            return Ok(CompiledLoop::new(spec.width, wide, bounds, None));
        };
        let base = self.base_schedule(li, spec)?;
        if base.needed <= registers {
            let stage = base.fit_stage();
            return Ok(CompiledLoop::new(spec.width, wide, bounds, Some(stage)));
        }
        let key = SchedKey {
            li: li as u32,
            width: spec.width,
            replication: spec.replication,
            registers,
            model: spec.model,
            strategy: spec.opts.strategy,
            spill: spec.opts.spill,
        };
        let stage = self.scheduled.get_or_fetch(key, stage_bytes, || {
            let key_bytes = || self.sched_key_bytes(STAGE_SCHED, li, spec, registers);
            let (a, b) = (
                li as u64,
                obs::pack_point(spec.replication, spec.width, Some(registers)),
            );
            let decode = obs::span(SpanKind::SchedDecode, a, b);
            if let Some(result) = self.disk_load(key_bytes, |bytes| {
                codec::decode_sched(bytes, wide.shared_ddg(), &spec.machine(), spec.model)
            }) {
                return (result, Fetch::Disk);
            }
            decode.cancel();
            let _run = obs::span(SpanKind::Schedule, a, b);
            let result = stage_schedule(
                wide.shared_ddg(),
                &spec.machine(),
                spec.model,
                &spec.opts,
                Some(&base),
            )
            .map(Arc::new);
            self.disk_store(key_bytes, || codec::encode_sched(&result));
            (result, Fetch::Computed)
        })?;
        Ok(CompiledLoop::new(spec.width, wide, bounds, Some(stage)))
    }

    /// Stage 5, memoized: loop `li`'s scheduled wide loop lowered to
    /// flat executable bytecode (see [`widening_lower::WideProgram`]).
    /// The program is trip-count independent, so one entry serves every
    /// simulated trip of the design point — a transients sweep lowers
    /// once and executes per trip override.
    ///
    /// Runs (or replays) the full staged chain on a miss; a warm disk
    /// tier decodes the persisted program without touching the schedule
    /// stage at all.
    ///
    /// # Errors
    ///
    /// [`PipelineError`] when the underlying schedule stage fails — the
    /// failure is memoized (and persisted) under the lower stage too.
    ///
    /// # Panics
    ///
    /// Panics if `li` is out of corpus bounds or `spec` is a peak-mode
    /// point (no register file, nothing to lower).
    pub fn lowered(&self, li: usize, spec: &PointSpec) -> Result<Arc<WideProgram>, PipelineError> {
        let registers = spec
            .registers
            .expect("peak-mode design points have no schedule to lower");
        let key = SchedKey {
            li: li as u32,
            width: spec.width,
            replication: spec.replication,
            registers,
            model: spec.model,
            strategy: spec.opts.strategy,
            spill: spec.opts.spill,
        };
        self.lowered.get_or_fetch(key, program_bytes, || {
            let key_bytes = || self.sched_key_bytes(STAGE_LOWER, li, spec, registers);
            let (a, b) = (
                li as u64,
                obs::pack_point(spec.replication, spec.width, Some(registers)),
            );
            let decode = obs::span(SpanKind::LowerDecode, a, b);
            if let Some(result) = self.disk_load(key_bytes, codec::decode_lowered) {
                return (result, Fetch::Disk);
            }
            decode.cancel();
            let result = self.compile(li, spec).map(|compiled| {
                let _run = obs::span(SpanKind::Lower, a, b);
                let stage = compiled
                    .scheduled()
                    .expect("registers given, so compile produced a schedule stage");
                Arc::new(widening_lower::lower(
                    self.loops[li].ddg(),
                    compiled.wide(),
                    &stage.result,
                ))
            });
            self.disk_store(key_bytes, || codec::encode_lowered(&result));
            (result, Fetch::Computed)
        })
    }

    /// Compiles every `(loop × design point)` work unit in parallel on
    /// `threads` workers with shared stage stores, returning one
    /// corpus-ordered artifact vector per design point.
    ///
    /// Units are handed out point-major off one dynamic queue, in the
    /// order of `points`: widened DDGs and MII bounds computed for the
    /// first point are cache hits for every later point that shares
    /// them, and no worker idles while another point still has units
    /// left. A caller that wants the heaviest units first puts their
    /// points first (the evaluator sorts by
    /// `widening_cost::sweep_priority`); the order is pure scheduling
    /// and cannot change a single output bit.
    #[must_use]
    pub fn sweep(
        &self,
        points: &[PointSpec],
        threads: usize,
    ) -> Vec<Vec<Result<CompiledLoop, PipelineError>>> {
        let n = self.loops.len();
        // Queue-wait attribution: each pool thread remembers when its
        // previous unit ended; the gap to the next unit's start is time
        // the thread spent idle on the dynamic queue. Clamped to the
        // sweep's own start so an inline (threads ≤ 1) sweep on a reused
        // thread never bridges two separate sweeps.
        thread_local! {
            static LAST_UNIT_END: Cell<u64> = const { Cell::new(0) };
        }
        let sweep_start = obs::now_ns();
        let flat = par_map(points.len() * n, threads, |unit| {
            let (li, pi) = (unit % n, unit / n);
            let spec = &points[pi];
            let (a, b) = (
                li as u64,
                obs::pack_point(spec.replication, spec.width, spec.registers),
            );
            if let (Some(now), Some(start)) = (obs::now_ns(), sweep_start) {
                let since = LAST_UNIT_END.get().max(start);
                if now > since {
                    obs::record_span(SpanKind::QueueWait, since, now, a, b);
                }
            }
            let outcome = {
                let _unit_span = obs::span(SpanKind::SweepUnit, a, b);
                self.compile(li, spec)
            };
            if let Some(now) = obs::now_ns() {
                LAST_UNIT_END.set(now);
            }
            outcome
        });
        let mut it = flat.into_iter();
        points
            .iter()
            .map(|_| it.by_ref().take(n).collect())
            .collect()
    }

    // -- disk plumbing -------------------------------------------------

    /// `key` is a closure so the (fingerprint-based) key material is
    /// only ever built when a disk tier is actually attached. `decode`
    /// reads the payload in place, in the log's record buffer.
    fn disk_load<T>(
        &self,
        key: impl FnOnce() -> Vec<u8>,
        decode: impl FnOnce(&[u8]) -> Option<T>,
    ) -> Option<T> {
        self.log.as_ref()?.load_with(&key(), decode)
    }

    fn disk_store(&self, key: impl FnOnce() -> Vec<u8>, encode: impl FnOnce() -> Vec<u8>) {
        if let Some(log) = &self.log {
            log.append(&key(), &encode());
        }
    }

    /// A `stage` key of loop `li`: the stage name, then the loop's
    /// content fingerprint. The caller appends the design-point fields.
    fn key_of(&self, stage: &str, li: usize) -> Writer {
        let mut w = stage_key(stage);
        let fp = self.content_fingerprint(li);
        w.u64(fp as u64);
        w.u64((fp >> 64) as u64);
        w
    }

    fn widen_key_bytes(&self, li: usize, width: u32) -> Vec<u8> {
        let mut w = self.key_of(STAGE_WIDEN, li);
        w.u32(width);
        w.into_bytes()
    }

    fn mii_key_bytes(&self, li: usize, replication: u32, width: u32, model: CycleModel) -> Vec<u8> {
        let mut w = self.key_of(STAGE_MII, li);
        w.u32(width);
        w.u32(replication);
        w.u8(codec::cycle_model_tag(model));
        w.into_bytes()
    }

    fn base_key_bytes(&self, li: usize, spec: &PointSpec) -> Vec<u8> {
        let mut w = self.key_of(STAGE_BASE, li);
        w.u32(spec.width);
        w.u32(spec.replication);
        w.u8(codec::cycle_model_tag(spec.model));
        w.u8(codec::strategy_tag(spec.opts.strategy));
        w.into_bytes()
    }

    /// The key of a schedule-stage artifact; `stage` is `STAGE_SCHED`
    /// or `STAGE_LOWER`, which share the rest of the key.
    fn sched_key_bytes(&self, stage: &str, li: usize, spec: &PointSpec, registers: u32) -> Vec<u8> {
        let mut w = self.key_of(stage, li);
        w.u32(spec.width);
        w.u32(spec.replication);
        w.u32(registers);
        w.u8(codec::cycle_model_tag(spec.model));
        w.u8(codec::strategy_tag(spec.opts.strategy));
        codec::encode_spill_options(&mut w, &spec.opts.spill);
        w.into_bytes()
    }
}

/// Conservative resident-size estimate of a spill-engine stage for the
/// in-memory byte budget. A stage's graph is priced only when spill code
/// gave it one of its own: otherwise it is the widening stage's graph,
/// pinned there.
fn stage_bytes(result: &Result<Arc<ScheduledStage>, PipelineError>) -> usize {
    match result {
        Ok(stage) => {
            let p = &stage.result;
            let own_graph = if p.spills.is_empty() {
                0
            } else {
                ddg_bytes(&p.ddg)
            };
            192 + own_graph
                + p.schedule.times().len() * 4
                + p.lifetimes.len() * 16
                + p.allocation.locations().len() * 4
                + p.spills
                    .iter()
                    .map(|s| 48 + s.reloads.len() * 8)
                    .sum::<usize>()
        }
        Err(_) => 64,
    }
}

/// Resident-size estimate of a lowered-stage entry for the in-memory
/// byte budget.
fn program_bytes(result: &Result<Arc<WideProgram>, PipelineError>) -> usize {
    match result {
        Ok(p) => p.approx_bytes(),
        Err(_) => 64,
    }
}

fn ddg_bytes(ddg: &Ddg) -> usize {
    // Ops and edges, plus the compressed adjacency rows: two offsets
    // per node and two edge ids per edge.
    ddg.num_nodes() * (size_of::<Op>() + 8) + ddg.num_edges() * (size_of::<Edge>() + 8)
}

impl From<Vec<Loop>> for Pipeline {
    fn from(loops: Vec<Loop>) -> Self {
        Pipeline::new(loops)
    }
}
