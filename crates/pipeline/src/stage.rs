//! The pipeline stages and the staged [`CompiledLoop`] artifact.
//!
//! The chain is
//!
//! ```text
//! widen (Y) ──► MII bounds ──► schedule ──► allocate ──► spill rewrite
//! ```
//!
//! and every stage function here is the *only* implementation of that
//! step in the workspace: the analytic evaluator, the corpus simulator
//! and every experiment consume these stages (directly through
//! [`compile_ddg`] or memoized through [`crate::Pipeline`]), so a change
//! to the chain lands everywhere at once.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use widening_ir::Ddg;
use widening_machine::{Configuration, CycleModel};
use widening_regalloc::{
    allocate_in, lifetimes, schedule_with_registers_seeded, AllocScratch, FirstRound, Lifetime,
    PressureResult, RegisterAllocation, SpillOptions,
};
use widening_sched::{
    MiiBounds, ModuloScheduler, SchedScratch, Schedule, SchedulerOptions, Strategy,
};
use widening_transform::{widen, WideningOutcome};

use crate::error::PipelineError;

/// Options for the schedule → allocate → spill stage.
///
/// The `widening` crate re-exports this as `EvalOptions`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompileOptions {
    /// Scheduler strategy (HRMS unless ablating).
    pub strategy: Strategy,
    /// Spill engine options.
    pub spill: SpillOptions,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            strategy: Strategy::Hrms,
            spill: SpillOptions::default(),
        }
    }
}

impl CompileOptions {
    /// The scheduler options this stage configuration implies.
    #[must_use]
    pub fn scheduler_options(&self) -> SchedulerOptions {
        SchedulerOptions {
            strategy: self.strategy,
        }
    }
}

/// One design point of a sweep: everything that changes how a loop is
/// compiled. `registers: None` means an infinite register file — the
/// pipeline stops after the MII stage (the paper's *peak* mode, §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PointSpec {
    /// Bus/FPU replication factor `X`.
    pub replication: u32,
    /// Widening degree `Y`.
    pub width: u32,
    /// Register-file size `Z`; `None` = infinite (peak mode).
    pub registers: Option<u32>,
    /// FPU latency model.
    pub model: CycleModel,
    /// Schedule/allocate/spill options.
    pub opts: CompileOptions,
}

impl PointSpec {
    /// Peak-mode point: perfect scheduling, infinite registers — the
    /// pipeline stops after MII bounds.
    #[must_use]
    pub fn peak(replication: u32, width: u32, model: CycleModel) -> Self {
        PointSpec {
            replication,
            width,
            registers: None,
            model,
            opts: CompileOptions::default(),
        }
    }

    /// Full scheduled point for a machine configuration. Only the
    /// resource mix `(X, Y, Z)` matters to compilation; register-file
    /// partitioning affects the cost models, not the schedule.
    #[must_use]
    pub fn scheduled(cfg: &Configuration, model: CycleModel, opts: CompileOptions) -> Self {
        PointSpec {
            replication: cfg.replication(),
            width: cfg.widening(),
            registers: Some(cfg.registers()),
            model,
            opts,
        }
    }

    /// The monolithic machine the stages compile for. Peak mode
    /// schedules against a notional 256-register file (registers are
    /// never consulted before the allocation stage).
    #[must_use]
    pub fn machine(&self) -> Configuration {
        Configuration::monolithic(self.replication, self.width, self.registers.unwrap_or(256))
            .expect("pipeline design points are powers of two")
    }
}

/// The schedule/allocate/spill stage product: a register-feasible
/// schedule plus the MII of the graph it actually scheduled. Its
/// `result.ddg` is the widening stage's own graph (`Arc`-shared) unless
/// spill code rewrote it.
#[derive(Debug, Clone)]
pub struct ScheduledStage {
    /// Schedule, allocation, final DDG (including spill code), lifetimes
    /// and spill records.
    pub result: PressureResult,
    /// MII of the *final* graph (with spill code): `ii == final_mii`
    /// measures ordering quality, not spill pressure.
    pub final_mii: u32,
}

/// The staged compilation artifact for one loop at one design point.
///
/// Stages are `Arc`-shared: a multi-configuration sweep holds one
/// widened DDG per `(loop, Y)` and one schedule per scheduling key no
/// matter how many design points reference them.
#[derive(Debug, Clone)]
pub struct CompiledLoop {
    width: u32,
    wide: Arc<WideningOutcome>,
    bounds: Arc<MiiBounds>,
    scheduled: Option<Arc<ScheduledStage>>,
}

impl CompiledLoop {
    pub(crate) fn new(
        width: u32,
        wide: Arc<WideningOutcome>,
        bounds: Arc<MiiBounds>,
        scheduled: Option<Arc<ScheduledStage>>,
    ) -> Self {
        CompiledLoop {
            width,
            wide,
            bounds,
            scheduled,
        }
    }

    /// Widening degree this loop was compiled at.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The widening stage: wide DDG plus packing metadata (origin
    /// table).
    #[must_use]
    pub fn wide(&self) -> &WideningOutcome {
        &self.wide
    }

    /// The MII stage: lower bounds on the wide (pre-spill) graph.
    #[must_use]
    pub fn bounds(&self) -> &MiiBounds {
        &self.bounds
    }

    /// The schedule/allocate/spill stage; `None` when the pipeline
    /// stopped after MII (peak mode).
    #[must_use]
    pub fn scheduled(&self) -> Option<&ScheduledStage> {
        self.scheduled.as_deref()
    }

    /// Achieved initiation interval — the scheduled II, or the MII bound
    /// itself in peak mode (perfect scheduling by definition).
    #[must_use]
    pub fn ii(&self) -> u32 {
        match &self.scheduled {
            Some(s) => s.result.schedule.ii(),
            None => self.bounds.mii(),
        }
    }

    /// The MII the achieved II is judged against: the final-graph MII
    /// when scheduled, the wide-graph MII in peak mode.
    #[must_use]
    pub fn mii(&self) -> u32 {
        match &self.scheduled {
            Some(s) => s.final_mii,
            None => self.bounds.mii(),
        }
    }

    /// Registers used by the allocation (0 in peak mode).
    #[must_use]
    pub fn registers_used(&self) -> u32 {
        self.scheduled
            .as_ref()
            .map_or(0, |s| s.result.allocation.registers_used())
    }

    /// Spill operations inserted (stores + reloads; 0 in peak mode).
    #[must_use]
    pub fn spill_ops(&self) -> u32 {
        self.scheduled
            .as_ref()
            .map_or(0, |s| s.result.spill_stores + s.result.spill_loads)
    }
}

/// Stage 1 — the widening transform for degree `width`.
pub(crate) fn stage_widen(ddg: &Ddg, width: u32) -> WideningOutcome {
    widen(ddg, width)
}

/// Stage 2 — MII lower bounds of the wide graph on the point's machine.
pub(crate) fn stage_mii(wide: &Ddg, machine: &Configuration, model: CycleModel) -> MiiBounds {
    MiiBounds::compute(wide, machine, model)
}

/// Stage 3a product — the *pressure-free* schedule and allocation of
/// the wide graph: round 1 of the spill engine, which never consults
/// the register-file size. One base schedule therefore serves every
/// `Z` of a register-file sweep; only points whose requirement exceeds
/// their file re-enter the full spill engine.
///
/// A base is its own fit stage: it owns the round-1 [`ScheduledStage`]
/// (schedule, allocation and lifetimes moved in, the widening stage's
/// graph shared, the stage-2 bounds as the final MII), and every file
/// size the requirement fits shares that one artifact. No base holds a
/// graph of its own: one heap copy per `(loop, Y)` serves every base,
/// fit stage and spill-free spill-engine result built on it.
#[derive(Debug)]
pub struct BaseSchedule {
    /// Registers the allocation needs (`MaxLives`-adjacent bound).
    pub needed: u32,
    stage: Arc<ScheduledStage>,
}

impl BaseSchedule {
    /// The base of `wide` scheduled as `schedule`, with `lifetimes` and
    /// their `allocation`. `mii` is the stage-2 bound of `wide`: the
    /// round-1 stage's final graph is `wide` itself (shared, not
    /// copied), so that bound is its final MII.
    pub(crate) fn new(
        wide: &Arc<Ddg>,
        schedule: Schedule,
        allocation: RegisterAllocation,
        lifetimes: Vec<Lifetime>,
        mii: u32,
    ) -> Self {
        BaseSchedule {
            needed: allocation.registers_used(),
            stage: Arc::new(ScheduledStage {
                result: PressureResult {
                    schedule,
                    allocation,
                    ddg: Arc::clone(wide),
                    lifetimes,
                    spills: Vec::new(),
                    spill_stores: 0,
                    spill_loads: 0,
                    rounds: 1,
                },
                final_mii: mii,
            }),
        }
    }

    /// The unconstrained modulo schedule (II = achieved II at round 1).
    #[must_use]
    pub fn schedule(&self) -> &Schedule {
        &self.stage.result.schedule
    }

    /// End-fit allocation of the unconstrained schedule's lifetimes.
    #[must_use]
    pub fn allocation(&self) -> &RegisterAllocation {
        &self.stage.result.allocation
    }

    /// The lifetimes the allocation was computed from.
    #[must_use]
    pub fn lifetimes(&self) -> &[Lifetime] {
        &self.stage.result.lifetimes
    }

    /// The round-1 [`ScheduledStage`] for file sizes `needed` fits,
    /// shared by every such size.
    pub(crate) fn fit_stage(&self) -> Arc<ScheduledStage> {
        Arc::clone(&self.stage)
    }
}

thread_local! {
    /// Per-thread scheduler/allocator arenas for the stage-3a hot path:
    /// a sweep re-enters [`stage_base_schedule`] once per (loop, width,
    /// machine) point, and reusing the attempt state keeps the steady
    /// state allocation-free.
    static STAGE_SCRATCH: RefCell<(SchedScratch, AllocScratch)> =
        RefCell::new((SchedScratch::new(), AllocScratch::new()));
}

/// Stage 3a — schedule + allocate once, ignoring the register file.
/// Also returns the time spent in [`allocate_in`] (zero when scheduling
/// fails first), which the driver records per live run.
pub(crate) fn stage_base_schedule(
    wide: &Arc<Ddg>,
    machine: &Configuration,
    model: CycleModel,
    opts: &CompileOptions,
    bounds: &MiiBounds,
) -> (Result<BaseSchedule, PipelineError>, Duration) {
    let scheduler = ModuloScheduler::with_options(*machine, model, opts.scheduler_options());
    let mut allocating = Duration::ZERO;
    let result = STAGE_SCRATCH.with(|cell| {
        let (sched_scratch, alloc_scratch) = &mut *cell.borrow_mut();
        let schedule = scheduler
            .schedule_with(wide, bounds, 1, sched_scratch)
            .map_err(PipelineError::Schedule)?;
        let lts = lifetimes(wide, &schedule, model);
        let started = Instant::now();
        let allocation = allocate_in(&lts, schedule.ii(), alloc_scratch);
        allocating = started.elapsed();
        Ok(BaseSchedule::new(
            wide,
            schedule,
            allocation,
            lts,
            bounds.mii(),
        ))
    });
    (result, allocating)
}

/// Stage 3 — schedule, allocate and spill-rewrite against a finite
/// register file, then bound the final graph.
///
/// A memoized [`BaseSchedule`] may be supplied to seed the spill
/// engine's first round (the driver handles the fits-the-file case
/// separately through [`BaseSchedule::fit_stage`], which shares one
/// artifact across every fitting `Z`). Callers without a base — the
/// one-shot [`compile_ddg`] — run the full engine.
pub(crate) fn stage_schedule(
    wide: &Arc<Ddg>,
    machine: &Configuration,
    model: CycleModel,
    opts: &CompileOptions,
    base: Option<&BaseSchedule>,
) -> Result<ScheduledStage, PipelineError> {
    let first = base.map(|b| FirstRound {
        schedule: b.schedule(),
        lifetimes: b.lifetimes(),
        allocation: b.allocation(),
    });
    let result = schedule_with_registers_seeded(
        wide,
        machine,
        model,
        &opts.scheduler_options(),
        &opts.spill,
        first,
    )?;
    let final_mii = stage_mii(&result.ddg, machine, model).mii();
    Ok(ScheduledStage { result, final_mii })
}

/// Runs the whole chain once, uncached, for a free-standing DDG — the
/// one-shot form of the pipeline (the memoized corpus form is
/// [`crate::Pipeline`]).
///
/// # Errors
///
/// [`PipelineError`] if the schedule/allocate/spill stage fails; the
/// widening and MII stages are total.
pub fn compile_ddg(ddg: &Ddg, spec: &PointSpec) -> Result<CompiledLoop, PipelineError> {
    let machine = spec.machine();
    let wide = Arc::new(stage_widen(ddg, spec.width));
    let bounds = Arc::new(stage_mii(wide.ddg(), &machine, spec.model));
    let scheduled = match spec.registers {
        None => None,
        Some(_) => Some(Arc::new(stage_schedule(
            wide.shared_ddg(),
            &machine,
            spec.model,
            &spec.opts,
            None,
        )?)),
    };
    Ok(CompiledLoop::new(spec.width, wide, bounds, scheduled))
}
