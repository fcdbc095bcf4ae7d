//! The traced runs: per-layer attribution of each workload.
//!
//! Each run alternates an untraced iteration of the workload with a
//! traced one (span recorder installed) for `--seconds`; the layer
//! metrics come from the last traced iteration and `obs.overhead_share`
//! compares the median walls of the two kinds.
//!
//! Stage self-times are increments of the memoized chain, called in
//! order per unit: `widened → mii_bounds → base_schedule → compile →
//! lowered`. Each call finds the earlier stages memoized, so its
//! duration is the stage's own cost (live compute or disk decode). The
//! fleet runs its units inside the distributed workers, so there the
//! layers come from the spans the program already emits, as self-times
//! (span duration minus nested spans).
//!
//! Layer sum: with `T` pool threads (fleet: workers) and traced wall
//! `W`, the run's capacity is `T × W`. The layer self-times plus
//! `core.unattributed_ms` add up to that capacity; the remainder holds
//! pool idle time and anything no layer covers, and is never negative
//! unless a layer was counted twice.

use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use widening_obs::{self as obs, ProcessTrace, Recorder, SpanKind};
use widening_resources::cost::sweep_priority;
use widening_resources::distrib::{CoordinatorConfig, Launcher, SweepManifest};
use widening_resources::distributed::merge_published;
use widening_resources::ir::Loop;
use widening_resources::lower::WideProgram;
use widening_resources::pipeline::codec::ddg_fingerprint;
use widening_resources::pipeline::{
    pool, CompiledLoop, Pipeline, PipelineError, PointSpec, StageCounts, StoreConfig,
};
use widening_resources::regalloc::{allocate, lifetimes};
use widening_resources::sim::{run_reference, simulate_with_program, Backend};
use widening_resources::{
    sweep_distributed, CorpusEval, DistributedOptions, Evaluator, LoopEval, SimLoopEval,
};

use crate::oracle::{self, ExactCounts};
use crate::workloads::{
    check_sweep, disk_hits, fleet_setup, fleet_workers, lower_grid, pressure_failure,
    publish_files, requests, sim_setup, sim_specs, simulate_passes, warm_setup, TRIPS,
};
use crate::{
    dir_usage, median, percentile, repeat_for, secs, sweep_grid, Args, Outcome, WorkDir, Workload,
    MODEL,
};

/// Every per-layer metric, in report order. A traced run reports all
/// of them; layers a workload bypasses read 0.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("workload.generate_ms", "ms"),
    ("widen.busy_ms", "ms"),
    ("widen.runs", "count"),
    ("sched.mii_busy_ms", "ms"),
    ("sched.base_busy_ms", "ms"),
    ("sched.ii_gap", "count"),
    ("sched.at_mii_share", "ratio"),
    ("regalloc.spill_busy_ms", "ms"),
    ("regalloc.fit_busy_ms", "ms"),
    ("regalloc.spill_units", "count"),
    ("regalloc.spill_ops", "count"),
    ("regalloc.lifetimes_us", "us"),
    ("regalloc.allocate_us", "us"),
    ("core.unit_p50_us", "us"),
    ("core.unit_tail_us", "us"),
    ("core.pool_idle_share", "ratio"),
    ("core.unit_overhead_ms", "ms"),
    ("core.capacity_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("pipeline.open_ms", "ms"),
    ("pipeline.requests", "count"),
    ("pipeline.runs", "count"),
    ("pipeline.hit_share", "ratio"),
    ("pipeline.resident_mb", "MiB"),
    ("pipeline.decode_widen_ms", "ms"),
    ("pipeline.decode_mii_ms", "ms"),
    ("pipeline.decode_base_ms", "ms"),
    ("pipeline.decode_sched_ms", "ms"),
    ("pipeline.decode_lower_ms", "ms"),
    ("pipeline.disk_hits", "count"),
    ("pipeline.disk_errors", "count"),
    ("pipeline.disk_bytes", "B"),
    ("lower.busy_ms", "ms"),
    ("lower.insts", "count"),
    ("sim.exec_ms", "ms"),
    ("sim.reference_ms", "ms"),
    ("sim.check_ms", "ms"),
    ("sim.reference_runs", "count"),
    ("sim.reference_distinct", "count"),
    ("sim.reference_useful_share", "ratio"),
    ("sim.mops_per_s", "Mops/s"),
    ("distrib.merge_ms", "ms"),
    ("distrib.worker_fixed_ms", "ms"),
    ("distrib.tail_idle_ms", "ms"),
    ("distrib.shard_overhead_ms", "ms"),
    ("distrib.steals", "count"),
    ("distrib.requeues", "count"),
    ("distrib.fallback_units", "count"),
    ("distrib.publish_files", "count"),
    ("obs.overhead_share", "ratio"),
];

/// The stage self-time layers shared by every chain-driven workload.
const STAGE_LAYERS: [&str; 6] = [
    "widen.busy_ms",
    "sched.mii_busy_ms",
    "sched.base_busy_ms",
    "regalloc.spill_busy_ms",
    "regalloc.fit_busy_ms",
    "lower.busy_ms",
];

/// Layer values of one traced run.
#[derive(Debug, Default)]
struct Layers(HashMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYER_METRICS.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.0.insert(name, value);
    }

    fn add(&mut self, name: &'static str, value: f64) {
        let sum = self.get(name) + value;
        self.set(name, sum);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Sets `core.capacity_ms` and `core.unattributed_ms` from the
    /// attributed `parts`, printing the sum; a negative remainder fails
    /// the run.
    fn close_sum(&mut self, capacity_ms: f64, parts: &[&'static str], out: &mut Outcome) {
        let attributed: f64 = parts.iter().map(|p| self.get(p)).sum();
        let rest = capacity_ms - attributed;
        self.set("core.capacity_ms", capacity_ms);
        self.set("core.unattributed_ms", rest);
        let terms: Vec<String> = parts
            .iter()
            .map(|p| format!("{p}={:.3}", self.get(p)))
            .collect();
        println!(
            "layer-sum: capacity_ms={capacity_ms:.3} = {} + core.unattributed_ms={rest:.3}",
            terms.join(" + ")
        );
        if rest < 0.0 {
            out.problem(format!(
                "layer self-times exceed the traced capacity by {:.3} ms: a layer was counted twice",
                -rest
            ));
        }
    }
}

pub(crate) fn run(args: &Args, work: &WorkDir) -> Outcome {
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let t = Instant::now();
    let corpus = args.corpus();
    layers.set("workload.generate_ms", ms_since(t));
    match args.workload {
        Workload::DesignSweep => design_sweep(args, corpus, &mut layers, &mut out),
        Workload::SimulateValidate => simulate_validate(args, &mut layers, &mut out),
        Workload::WarmRestart => warm_restart(args, work, &mut layers, &mut out),
        Workload::FleetSweep => fleet_sweep(args, work, corpus, &mut layers, &mut out),
    }
    for (name, unit) in LAYER_METRICS {
        out.metric(name, layers.get(name), unit);
    }
    out
}

fn ms_since(t: Instant) -> f64 {
    secs(t) * 1e3
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Installs a fresh recorder for one traced iteration.
fn start_recording() -> Recorder {
    let recorder = Recorder::new("perfbench");
    obs::install(&recorder);
    obs::set_thread_label("main");
    recorder
}

/// The traced/untraced wall ratio, minus one.
fn overhead_share(traced: &[f64], plain: &[f64]) -> f64 {
    println!("walls: untraced_ms={plain:.1?} traced_ms={traced:.1?}");
    median(traced) / median(plain) - 1.0
}

/// Units of a grid in the sweep's own order: heaviest design point
/// first (the analytic LPT priority), corpus order within a point.
fn lpt_units(specs: &[PointSpec], loops: usize) -> Vec<(usize, usize)> {
    let mut points: Vec<usize> = (0..specs.len()).collect();
    points.sort_by_key(|&pi| {
        let s = &specs[pi];
        Reverse(sweep_priority(s.replication, s.width, s.registers))
    });
    points
        .into_iter()
        .flat_map(|pi| (0..loops).map(move |li| (pi, li)))
        .collect()
}

/// Stage increments of one unit, in nanoseconds on a shared clock.
#[derive(Debug, Default, Clone, Copy)]
struct Chain {
    start: u64,
    widen: u64,
    mii: u64,
    base: u64,
    compile: u64,
    lower: u64,
    end: u64,
    ok: bool,
    ii: u32,
    mii_bound: u32,
    spill_ops: u32,
    /// Whether the unit entered the spill engine (see
    /// [`entered_spill_engine`]).
    spilled: bool,
}

impl Chain {
    fn busy(&self) -> u64 {
        self.end - self.start
    }
}

fn clock_ns(clock: Instant) -> u64 {
    u64::try_from(clock.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

type Compiled = Result<CompiledLoop, PipelineError>;

/// Runs the memoized chain for one unit, timing each increment.
fn run_chain(
    p: &Pipeline,
    li: usize,
    spec: &PointSpec,
    lower: bool,
    clock: Instant,
) -> (Chain, Compiled, Option<Arc<WideProgram>>) {
    let t0 = clock_ns(clock);
    let _ = p.widened(li, spec.width);
    let t1 = clock_ns(clock);
    let _ = p.mii_bounds(li, spec.replication, spec.width, spec.model);
    let t2 = clock_ns(clock);
    let engine = entered_spill_engine(p, li, spec);
    let t3 = clock_ns(clock);
    let compiled = p.compile(li, spec);
    let t4 = clock_ns(clock);
    let program = match (&compiled, lower) {
        (Ok(_), true) => p.lowered(li, spec).ok(),
        _ => None,
    };
    let t5 = clock_ns(clock);
    let (ok, ii, mii_bound, spill_ops) = match &compiled {
        Ok(c) => (true, c.ii(), c.mii(), c.spill_ops()),
        Err(_) => (false, 0, 0, 0),
    };
    let chain = Chain {
        start: t0,
        widen: t1 - t0,
        mii: t2 - t1,
        base: t3 - t2,
        compile: t4 - t3,
        lower: t5 - t4,
        end: t5,
        ok,
        ii,
        mii_bound,
        spill_ops,
        spilled: engine,
    };
    (chain, compiled, program)
}

/// Whether unit `(li, spec)` needs the spill engine: its pressure-free
/// base schedule does not fit the register file. The others take the
/// fit path, which shares the base schedule. Fetches the base stage
/// (memoized, or decoded from disk).
fn entered_spill_engine(p: &Pipeline, li: usize, spec: &PointSpec) -> bool {
    match (p.base_schedule(li, spec), spec.registers) {
        (Ok(base), Some(registers)) => base.needed > registers,
        (Ok(_), None) => false,
        (Err(_), _) => true,
    }
}

/// Folds chain increments into the stage layers and the unit-level
/// core and sched metrics.
fn chain_layers(chains: &[Chain], layers: &mut Layers) {
    for c in chains {
        layers.add("widen.busy_ms", ns_to_ms(c.widen));
        layers.add("sched.mii_busy_ms", ns_to_ms(c.mii));
        layers.add("sched.base_busy_ms", ns_to_ms(c.base));
        let split = if c.spilled {
            "regalloc.spill_busy_ms"
        } else {
            "regalloc.fit_busy_ms"
        };
        layers.add(split, ns_to_ms(c.compile));
        layers.add("lower.busy_ms", ns_to_ms(c.lower));
    }
    let ok: Vec<&Chain> = chains.iter().filter(|c| c.ok).collect();
    layers.set(
        "sched.ii_gap",
        ok.iter().map(|c| f64::from(c.ii - c.mii_bound)).sum(),
    );
    layers.set(
        "sched.at_mii_share",
        ok.iter().filter(|c| c.ii == c.mii_bound).count() as f64 / ok.len().max(1) as f64,
    );
    layers.set(
        "regalloc.spill_units",
        chains.iter().filter(|c| c.spilled).count() as f64,
    );
    layers.set(
        "regalloc.spill_ops",
        chains.iter().map(|c| f64::from(c.spill_ops)).sum(),
    );
    unit_percentiles(chains.iter().map(Chain::busy), layers);
}

fn unit_percentiles(busy_ns: impl Iterator<Item = u64>, layers: &mut Layers) {
    let us: Vec<f64> = busy_ns.map(|ns| ns as f64 / 1e3).collect();
    layers.set("core.unit_p50_us", percentile(&us, 0.5));
    layers.set("core.unit_tail_us", percentile(&us, 0.99));
}

/// Pool idle share and `core.unit_overhead_ms` of a chain-driven phase
/// whose units also spent `extra_ns` outside the chain (simulation).
fn pool_layers(busy_ns: u64, chain_ns: u64, extra_ns: u64, capacity_ms: f64, layers: &mut Layers) {
    layers.set(
        "core.pool_idle_share",
        (1.0 - ns_to_ms(busy_ns) / capacity_ms).max(0.0),
    );
    layers.set(
        "core.unit_overhead_ms",
        ns_to_ms(busy_ns.saturating_sub(chain_ns + extra_ns)),
    );
}

/// The pipeline-store metrics of an evaluator after a phase.
fn store_layers(eval: &Evaluator, layers: &mut Layers) {
    counts_layers(&eval.pipeline().stage_counts(), layers);
    layers.set("pipeline.disk_errors", eval.pipeline().disk_errors() as f64);
    let resident: u64 = eval
        .pipeline()
        .metrics()
        .snapshot()
        .into_iter()
        .filter(|(name, _)| name.ends_with(".resident-bytes"))
        .map(|(_, v)| match v {
            obs::metrics::MetricValue::Gauge(g) => g,
            _ => 0,
        })
        .sum();
    layers.set(
        "pipeline.resident_mb",
        resident as f64 / (1u64 << 20) as f64,
    );
}

/// The stage-count metrics.
fn counts_layers(c: &StageCounts, layers: &mut Layers) {
    let reqs = requests(c);
    layers.set("widen.runs", c.widen_runs as f64);
    layers.set("pipeline.requests", reqs as f64);
    layers.set("pipeline.runs", c.live_runs() as f64);
    layers.set(
        "pipeline.hit_share",
        1.0 - c.live_runs() as f64 / reqs.max(1) as f64,
    );
    layers.set("pipeline.disk_hits", disk_hits(c) as f64);
}

fn chain_total(chains: &[Chain]) -> u64 {
    chains
        .iter()
        .map(|c| c.widen + c.mii + c.base + c.compile + c.lower)
        .sum()
}

/// One traced, chain-driven sweep of `grid` over `eval`.
fn traced_sweep(eval: &Evaluator, grid: &[PointSpec], threads: usize) -> (Vec<Chain>, f64) {
    let units = lpt_units(grid, eval.loops().len());
    let recorder = start_recording();
    let clock = Instant::now();
    let chains = pool::par_map(units.len(), threads, |u| {
        let (pi, li) = units[u];
        run_chain(eval.pipeline(), li, &grid[pi], false, clock).0
    });
    let wall_ms = ms_since(clock);
    obs::uninstall();
    drop(recorder);
    (chains, wall_ms)
}

/// `design_sweep`, traced.
fn design_sweep(args: &Args, corpus: Vec<Loop>, layers: &mut Layers, out: &mut Outcome) {
    let grid = sweep_grid();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut reference: Option<Vec<Arc<CorpusEval>>> = None;
    let mut last = None;
    repeat_for(args.seconds, |_| {
        let eval = Evaluator::new(corpus.clone()).with_threads(args.threads);
        let t = Instant::now();
        let aggs = eval.sweep_specs(&grid);
        plain.push(ms_since(t));
        let reference = reference.get_or_insert(aggs);
        drop(eval);
        last = None;
        let eval = Evaluator::new(corpus.clone()).with_threads(args.threads);
        let (chains, wall_ms) = traced_sweep(&eval, &grid, args.threads);
        traced.push(wall_ms);
        let aggs = eval.sweep_specs(&grid);
        out.attempted += chains.len() as u64;
        out.failed += check_sweep(&aggs, reference);
        last = Some((eval, chains, wall_ms));
    });
    let (eval, chains, wall_ms) = last.expect("at least one iteration ran");
    let capacity = args.threads as f64 * wall_ms;
    chain_layers(&chains, layers);
    let busy: u64 = chains.iter().map(Chain::busy).sum();
    pool_layers(busy, chain_total(&chains), 0, capacity, layers);
    store_layers(&eval, layers);
    layers.set("obs.overhead_share", overhead_share(&traced, &plain));
    regalloc_probes(&eval, &grid, layers);
    let mut parts = STAGE_LAYERS.to_vec();
    parts.push("core.unit_overhead_ms");
    layers.close_sum(capacity, &parts, out);
    let aggs = eval.sweep_specs(&grid);
    oracle::check_digest(args, oracle::sweep_digest(&aggs), out);
    let mut counts = ExactCounts::default();
    counts.observe(vec![
        ("units", chains.len() as u64),
        ("stage_runs", layers.get("pipeline.runs") as u64),
        ("ii_gap", oracle::ii_gap(&aggs)),
        ("spill_ops", oracle::spill_ops(&aggs)),
    ]);
    counts.report(&[], out);
}

/// Direct calls to `lifetimes` and `allocate` on every final schedule
/// of the sweep, timed outside the traced wall.
fn regalloc_probes(eval: &Evaluator, grid: &[PointSpec], layers: &mut Layers) {
    let (mut lifetimes_ns, mut allocate_ns) = (0u128, 0u128);
    for spec in grid {
        for li in 0..eval.loops().len() {
            let Ok(compiled) = eval.pipeline().compile(li, spec) else {
                continue;
            };
            let Some(stage) = compiled.scheduled() else {
                continue;
            };
            let result = &stage.result;
            let t = Instant::now();
            let lts = std::hint::black_box(lifetimes(&result.ddg, &result.schedule, spec.model));
            lifetimes_ns += t.elapsed().as_nanos();
            let t = Instant::now();
            std::hint::black_box(allocate(&lts, result.schedule.ii()));
            allocate_ns += t.elapsed().as_nanos();
        }
    }
    layers.set("regalloc.lifetimes_us", lifetimes_ns as f64 / 1e3);
    layers.set("regalloc.allocate_us", allocate_ns as f64 / 1e3);
}

/// One simulated unit of the traced `simulate_validate` phase.
#[derive(Debug, Clone)]
struct SimUnit {
    chain: Chain,
    sim_ns: u64,
    trip: u64,
    /// Instructions of the unit's lowered program, counted once per
    /// program (on the first trip setting).
    insts: u64,
    outcome: SimLoopEval,
}

/// `simulate_validate`, traced.
fn simulate_validate(args: &Args, layers: &mut Layers, out: &mut Outcome) {
    let specs = sim_specs();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut reference_digest = None;
    let mut last = None;
    repeat_for(args.seconds, |_| {
        let (eval, _) = sim_setup(args);
        let t = Instant::now();
        let passes = simulate_passes(&eval);
        plain.push(ms_since(t));
        reference_digest.get_or_insert(oracle::sim_digest(passes.iter().flat_map(|p| &p.per_loop)));
        drop(eval);
        last = None;
        let (eval, _) = sim_setup(args);
        let (units, wall_ms) = traced_simulation(&eval, &specs, args.threads);
        traced.push(wall_ms);
        last = Some((eval, units, wall_ms));
    });
    let (eval, units, wall_ms) = last.expect("at least one iteration ran");
    let reference_digest = reference_digest.unwrap_or_default();
    let loops = eval.loops();

    out.attempted += units.len() as u64;
    for (i, u) in units.iter().enumerate() {
        let (spec_i, li) = unit_index(i, loops.len());
        out.failed += match u.outcome {
            SimLoopEval::Validated { .. } => 0,
            SimLoopEval::Divergent { .. } => 1,
            SimLoopEval::Failed { .. } => u64::from(!pressure_failure(&eval, li, &specs[spec_i])),
        };
    }
    if oracle::sim_digest(units.iter().map(|u| &u.outcome)) != reference_digest {
        out.problem("traced simulation differs from the untraced one".into());
    }
    oracle::check_digest(args, reference_digest, out);

    let capacity = args.threads as f64 * wall_ms;
    let chains: Vec<Chain> = units.iter().map(|u| u.chain).collect();
    chain_layers(&chains, layers);
    let sim_ns: u64 = units.iter().map(|u| u.sim_ns).sum();
    let busy: u64 = units.iter().map(|u| u.chain.busy() + u.sim_ns).sum();
    unit_percentiles(units.iter().map(|u| u.chain.busy() + u.sim_ns), layers);
    pool_layers(busy, chain_total(&chains), sim_ns, capacity, layers);
    store_layers(&eval, layers);
    layers.set("lower.insts", units.iter().map(|u| u.insts as f64).sum());

    // Split the simulation time: direct calls to the lowered executor
    // and the scalar reference, outside the traced wall; the rest of
    // `simulate_with_program` is the comparison.
    let executed: Vec<usize> = (0..units.len())
        .filter(|&i| !matches!(units[i].outcome, SimLoopEval::Failed { .. }))
        .collect();
    let probes = pool::par_map(executed.len(), args.threads, |k| {
        let u = &units[executed[k]];
        let (spec_i, li) = unit_index(executed[k], loops.len());
        let program = eval
            .pipeline()
            .lowered(li, &specs[spec_i])
            .expect("executed units were lowered");
        let t = Instant::now();
        std::hint::black_box(program.exec(u.trip));
        let exec = clock_ns(t);
        let t = Instant::now();
        std::hint::black_box(run_reference(loops[li].ddg(), u.trip));
        (exec, clock_ns(t))
    });
    let exec_ns: u64 = probes.iter().map(|p| p.0).sum();
    let reference_ns: u64 = probes.iter().map(|p| p.1).sum();
    layers.set("sim.exec_ms", ns_to_ms(exec_ns));
    layers.set("sim.reference_ms", ns_to_ms(reference_ns));
    // A difference of two measurements: within noise of zero when the
    // comparison is cheap next to execution.
    layers.set(
        "sim.check_ms",
        ns_to_ms(sim_ns) - ns_to_ms(exec_ns) - ns_to_ms(reference_ns),
    );
    let runs = executed.len();
    let distinct: HashSet<(u128, u64)> = executed
        .iter()
        .map(|&i| {
            let (_, li) = unit_index(i, loops.len());
            (ddg_fingerprint(loops[li].ddg()), units[i].trip)
        })
        .collect();
    layers.set("sim.reference_runs", runs as f64);
    layers.set("sim.reference_distinct", distinct.len() as f64);
    layers.set(
        "sim.reference_useful_share",
        distinct.len() as f64 / runs.max(1) as f64,
    );
    let issued: u64 = units
        .iter()
        .map(|u| match &u.outcome {
            SimLoopEval::Validated { stats, .. } => stats.issued_ops,
            _ => 0,
        })
        .sum();
    layers.set("sim.mops_per_s", issued as f64 / median(&plain) / 1e3);
    layers.set("obs.overhead_share", overhead_share(&traced, &plain));

    let mut parts = STAGE_LAYERS.to_vec();
    parts.extend([
        "sim.exec_ms",
        "sim.reference_ms",
        "sim.check_ms",
        "core.unit_overhead_ms",
    ]);
    layers.close_sum(capacity, &parts, out);
    let mut counts = ExactCounts::default();
    counts.observe(vec![
        ("units", units.len() as u64),
        ("issued_ops", issued),
        ("reference_runs", runs as u64),
        ("stage_runs", layers.get("pipeline.runs") as u64),
    ]);
    counts.report(&[], out);
}

/// `(spec, loop)` of flat simulation unit `i` (spec-major, then trip
/// setting, then corpus order).
fn unit_index(i: usize, loops: usize) -> (usize, usize) {
    (i / (loops * TRIPS.len()), i % loops)
}

/// The traced simulation phase: the chain (lowering included) and one
/// validated lowered run per `(config, trip setting, loop)`.
fn traced_simulation(eval: &Evaluator, specs: &[PointSpec], threads: usize) -> (Vec<SimUnit>, f64) {
    let loops = eval.loops();
    let n = loops.len();
    let total = specs.len() * TRIPS.len() * n;
    let recorder = start_recording();
    let clock = Instant::now();
    let units = pool::par_map(total, threads, |i| {
        let (spec_i, li) = unit_index(i, n);
        let trip_i = (i / n) % TRIPS.len();
        let spec = &specs[spec_i];
        let l = &loops[li];
        let trip = TRIPS[trip_i].unwrap_or_else(|| l.trip_count());
        let (chain, compiled, program) = run_chain(eval.pipeline(), li, spec, true, clock);
        let mut unit = SimUnit {
            chain,
            sim_ns: 0,
            trip,
            insts: 0,
            outcome: SimLoopEval::Failed {
                why: "not compiled".into(),
            },
        };
        let (Ok(compiled), Some(program)) = (compiled, program) else {
            return unit;
        };
        if trip_i == 0 {
            unit.insts = program.num_insts() as u64;
        }
        let stage = compiled
            .scheduled()
            .expect("scheduled design points carry a schedule stage");
        let t = clock_ns(clock);
        let report = simulate_with_program(
            l.ddg(),
            compiled.wide(),
            &stage.result,
            MODEL,
            trip,
            Backend::Lowered,
            &program,
        );
        unit.sim_ns = clock_ns(clock) - t;
        unit.outcome = match report {
            Ok(r) if r.is_validated() => SimLoopEval::Validated {
                ii: r.ii,
                stats: r.stats,
            },
            Ok(r) => SimLoopEval::Divergent {
                divergences: r.divergences.len(),
            },
            Err(e) => SimLoopEval::Failed { why: e.to_string() },
        };
        unit
    });
    let wall_ms = ms_since(clock);
    obs::uninstall();
    drop(recorder);
    (units, wall_ms)
}

/// One span of a trace with its self-time.
#[derive(Debug, Clone, Copy)]
struct SpanTime {
    kind: SpanKind,
    /// The span's duration minus that of its direct children.
    own_ns: u64,
    duration_ns: u64,
    /// The span's labels (see `SpanKind::arg_names`).
    a: u64,
    b: u64,
}

/// Every span on `tracks` of `trace` with its self-time (spans nest by
/// time within a thread).
fn self_times(trace: &ProcessTrace, tracks: &[usize]) -> Vec<SpanTime> {
    let mut out = Vec::new();
    for &ti in tracks {
        let mut spans: Vec<_> = trace.tracks[ti]
            .events
            .iter()
            .filter(|e| !e.is_instant())
            .copied()
            .collect();
        spans.sort_by_key(|e| (e.start_ns, Reverse(e.end_ns)));
        let mut child = vec![0u64; spans.len()];
        let mut stack: Vec<usize> = Vec::new();
        for (i, e) in spans.iter().enumerate() {
            while stack
                .last()
                .is_some_and(|&top| spans[top].end_ns <= e.start_ns)
            {
                stack.pop();
            }
            if let Some(&parent) = stack.last() {
                child[parent] += e.end_ns - e.start_ns;
            }
            stack.push(i);
        }
        for (e, child_ns) in spans.iter().zip(child) {
            let duration_ns = e.end_ns - e.start_ns;
            out.push(SpanTime {
                kind: e.kind,
                own_ns: duration_ns.saturating_sub(child_ns),
                duration_ns,
                a: e.a,
                b: e.b,
            });
        }
    }
    out
}

/// Sum of decode-span self-times into the `pipeline.decode_*` layers.
fn decode_layers(spans: &[SpanTime], layers: &mut Layers) {
    for span in spans {
        let name = match span.kind {
            SpanKind::WidenDecode => "pipeline.decode_widen_ms",
            SpanKind::MiiDecode => "pipeline.decode_mii_ms",
            SpanKind::BaseDecode => "pipeline.decode_base_ms",
            SpanKind::SchedDecode => "pipeline.decode_sched_ms",
            SpanKind::LowerDecode => "pipeline.decode_lower_ms",
            _ => continue,
        };
        layers.add(name, ns_to_ms(span.own_ns));
    }
}

/// `warm_restart`, traced.
fn warm_restart(args: &Args, work: &WorkDir, layers: &mut Layers, out: &mut Outcome) {
    let dir = work.fresh_dir();
    let (corpus, _) = warm_setup(args, &dir);
    work.settle();
    let grid = sweep_grid();
    let reference = Evaluator::new(corpus.clone())
        .with_threads(args.threads)
        .sweep_specs(&grid);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut last = None;
    repeat_for(args.seconds, |_| {
        let loops = corpus.clone();
        let t = Instant::now();
        let eval = Evaluator::new(loops)
            .with_threads(args.threads)
            .with_store(StoreConfig::persistent(&dir));
        let _ = eval.sweep_specs(&grid);
        lower_grid(&eval, &grid, args.threads);
        plain.push(ms_since(t));
        drop(eval);
        last = None;

        let loops = corpus.clone();
        let recorder = start_recording();
        let clock = Instant::now();
        let eval = Evaluator::new(loops)
            .with_threads(args.threads)
            .with_store(StoreConfig::persistent(&dir));
        let open_ms = ms_since(clock);
        let units = lpt_units(&grid, corpus.len());
        let chains = pool::par_map(units.len(), args.threads, |u| {
            let (pi, li) = units[u];
            let spec = &grid[pi];
            run_chain(
                eval.pipeline(),
                li,
                spec,
                spec.registers == Some(128),
                clock,
            )
            .0
        });
        let wall_ms = ms_since(clock);
        obs::uninstall();
        traced.push(wall_ms);
        let aggs = eval.sweep_specs(&grid);
        out.attempted += chains.len() as u64;
        out.failed += check_sweep(&aggs, &reference);
        let live = eval.pipeline().stage_counts().live_runs();
        if live != 0 {
            out.problem(format!("warm restart ran {live} live stages"));
        }
        last = Some((eval, chains, wall_ms, open_ms, recorder.snapshot()));
    });
    let (eval, chains, wall_ms, open_ms, trace) = last.expect("at least one iteration ran");
    let capacity = args.threads as f64 * wall_ms;
    chain_layers(&chains, layers);
    let busy: u64 = chains.iter().map(Chain::busy).sum();
    pool_layers(busy, chain_total(&chains), 0, capacity, layers);
    store_layers(&eval, layers);
    layers.set("pipeline.open_ms", open_ms);
    let all: Vec<usize> = (0..trace.tracks.len()).collect();
    decode_layers(&self_times(&trace, &all), layers);
    layers.set("pipeline.disk_bytes", dir_usage(&dir).0 as f64);
    layers.set("obs.overhead_share", overhead_share(&traced, &plain));
    let mut parts = vec!["pipeline.open_ms"];
    parts.extend(STAGE_LAYERS);
    parts.push("core.unit_overhead_ms");
    layers.close_sum(capacity, &parts, out);
    oracle::check_digest(args, oracle::sweep_digest(&reference), out);
    let mut counts = ExactCounts::default();
    counts.observe(vec![
        ("units", chains.len() as u64),
        ("stage_runs", layers.get("pipeline.runs") as u64),
        ("stage_requests", layers.get("pipeline.requests") as u64),
        ("disk_hits", layers.get("pipeline.disk_hits") as u64),
    ]);
    counts.report(&[], out);
}

/// What one traced fleet iteration leaves for attribution.
struct FleetTrace {
    eval: Evaluator,
    dir: PathBuf,
    aggregates: Vec<Arc<CorpusEval>>,
    trace: ProcessTrace,
    start_ns: u64,
    wall_ms: f64,
    requeues: u64,
    fallback_units: u64,
    counts: StageCounts,
}

/// `fleet_sweep`, traced.
fn fleet_sweep(
    args: &Args,
    work: &WorkDir,
    corpus: Vec<Loop>,
    layers: &mut Layers,
    out: &mut Outcome,
) {
    let grid = sweep_grid();
    let reference = Evaluator::new(corpus.clone())
        .with_threads(args.threads)
        .sweep_specs(&grid);
    let workers = fleet_workers(args);
    let opts = DistributedOptions::new(workers);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut last: Option<FleetTrace> = None;
    repeat_for(args.seconds, |_| {
        // Both kinds of iteration start on a settled filesystem.
        if let Some(old) = last.take() {
            work.discard(&old.dir);
        }
        let (eval, dir, _) = fleet_setup(args, work);
        let t = Instant::now();
        let result = sweep_distributed(&eval, &grid, &opts, &Launcher::InProcess);
        plain.push(ms_since(t));
        if let Err(e) = result {
            out.problem(format!("distributed sweep failed: {e}"));
        }
        drop(eval);
        work.discard(&dir);

        let (eval, dir, _) = fleet_setup(args, work);
        let units = (corpus.len() * grid.len()) as u64;
        let recorder = start_recording();
        let start_ns = obs::now_ns().unwrap_or(0);
        let t = Instant::now();
        let result = sweep_distributed(&eval, &grid, &opts, &Launcher::InProcess);
        let wall_ms = ms_since(t);
        obs::uninstall();
        traced.push(wall_ms);
        out.attempted += units;
        match result {
            Ok(sweep) => {
                out.failed += check_sweep(&sweep.aggregates, &reference);
                last = Some(FleetTrace {
                    eval,
                    dir,
                    aggregates: sweep.aggregates,
                    trace: recorder.snapshot(),
                    start_ns,
                    wall_ms,
                    requeues: sweep.run.requeues,
                    fallback_units: sweep.fallback_units as u64,
                    counts: sweep.run.worker_counts,
                });
            }
            Err(e) => {
                out.failed += units;
                out.problem(format!("distributed sweep failed: {e}"));
            }
        }
    });
    let Some(ft) = last else {
        return;
    };
    fleet_layers(args, &corpus, &grid, &ft, workers, layers, out);
    work.discard(&ft.dir);
    layers.set("obs.overhead_share", overhead_share(&traced, &plain));
    oracle::check_digest(args, oracle::sweep_digest(&reference), out);
}

/// Attributes a traced fleet iteration to layers from its spans.
fn fleet_layers(
    args: &Args,
    corpus: &[Loop],
    grid: &[PointSpec],
    ft: &FleetTrace,
    workers: usize,
    layers: &mut Layers,
    out: &mut Outcome,
) {
    let trace = &ft.trace;
    let worker_tracks: Vec<usize> = (0..trace.tracks.len())
        .filter(|&t| {
            trace.tracks[t]
                .events
                .iter()
                .any(|e| matches!(e.kind, SpanKind::SweepUnit | SpanKind::WorkerShard))
        })
        .collect();
    if trace.dropped > 0 {
        out.problem(format!("the recorder dropped {} events", trace.dropped));
    }
    let spans = self_times(trace, &worker_tracks);
    let mut unit_busy = Vec::new();
    for span in &spans {
        let layer = match span.kind {
            SpanKind::Widen => "widen.busy_ms",
            SpanKind::Mii => "sched.mii_busy_ms",
            SpanKind::BaseSchedule => "sched.base_busy_ms",
            SpanKind::Lower => "lower.busy_ms",
            SpanKind::Schedule => {
                let (x, y, z) = obs::unpack_point(span.b);
                let spilled = oracle::spec_index(grid, x, y, z).is_some_and(|pi| {
                    entered_spill_engine(ft.eval.pipeline(), span.a as usize, &grid[pi])
                });
                if spilled {
                    "regalloc.spill_busy_ms"
                } else {
                    "regalloc.fit_busy_ms"
                }
            }
            SpanKind::SweepUnit => {
                unit_busy.push(span.duration_ns);
                "core.unit_overhead_ms"
            }
            SpanKind::WorkerShard | SpanKind::WorkerSteal => "distrib.shard_overhead_ms",
            _ => continue,
        };
        layers.add(layer, ns_to_ms(span.own_ns));
    }
    decode_layers(&spans, layers);
    unit_percentiles(unit_busy.iter().copied(), layers);
    let capacity = workers as f64 * ft.wall_ms;
    layers.set(
        "core.pool_idle_share",
        (1.0 - ns_to_ms(unit_busy.iter().sum()) / capacity).max(0.0),
    );

    // Fleet timing: worker start (the sweep call) to first unit, and
    // first worker done to last worker done.
    let mut fixed = Vec::new();
    let mut done = Vec::new();
    for &t in &worker_tracks {
        let events = &trace.tracks[t].events;
        if let Some(first) = events
            .iter()
            .filter(|e| e.kind == SpanKind::SweepUnit)
            .map(|e| e.start_ns)
            .min()
        {
            fixed.push(ns_to_ms(first.saturating_sub(ft.start_ns)));
        }
        if let Some(end) = events.iter().map(|e| e.end_ns).max() {
            done.push(end);
        }
    }
    layers.set("distrib.worker_fixed_ms", median(&fixed));
    if let (Some(lo), Some(hi)) = (done.iter().min(), done.iter().max()) {
        layers.set("distrib.tail_idle_ms", ns_to_ms(hi - lo));
    }
    let steals = trace
        .tracks
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| e.kind == SpanKind::StealClaim)
        .count();
    layers.set("distrib.steals", steals as f64);
    layers.set("distrib.requeues", ft.requeues as f64);
    layers.set("distrib.fallback_units", ft.fallback_units as f64);
    let files = publish_files(&ft.dir);
    layers.set("distrib.publish_files", files as f64);
    layers.set("pipeline.disk_bytes", dir_usage(&ft.dir).0 as f64);
    // The workers' own stores hold the fleet's stage counts; the
    // coordinator-side evaluator only merged.
    counts_layers(&ft.counts, layers);
    layers.set(
        "pipeline.disk_errors",
        ft.eval.pipeline().disk_errors() as f64,
    );
    let aggs = &ft.aggregates;
    layers.set("sched.ii_gap", oracle::ii_gap(aggs) as f64);
    let ok: Vec<(u32, u32)> = aggs
        .iter()
        .flat_map(|a| &a.per_loop)
        .filter_map(|le| match *le {
            LoopEval::Ok { ii, mii, .. } => Some((ii, mii)),
            LoopEval::Failed { .. } => None,
        })
        .collect();
    layers.set(
        "sched.at_mii_share",
        ok.iter().filter(|(ii, mii)| ii == mii).count() as f64 / ok.len().max(1) as f64,
    );
    let spill_units = (0..grid.len())
        .flat_map(|pi| (0..corpus.len()).map(move |li| (pi, li)))
        .filter(|&(pi, li)| entered_spill_engine(ft.eval.pipeline(), li, &grid[pi]))
        .count();
    layers.set("regalloc.spill_units", spill_units as f64);
    layers.set("regalloc.spill_ops", oracle::spill_ops(aggs) as f64);

    // The merge, timed alone on the fleet's store through a fresh
    // evaluator and the fleet's own manifest.
    let fresh = Evaluator::new(corpus.to_vec())
        .with_threads(args.threads)
        .with_store(StoreConfig::persistent(&ft.dir));
    let units = corpus.len() * grid.len();
    let manifest = SweepManifest::partition(
        corpus.to_vec(),
        grid.to_vec(),
        CoordinatorConfig::new(&ft.dir, workers).shard_count(units),
    );
    let t = Instant::now();
    let (merged, fallbacks) = merge_published(&fresh, grid, Some(&manifest));
    layers.set("distrib.merge_ms", ms_since(t));
    out.failed += check_sweep(&merged, aggs);
    if fallbacks != 0 {
        out.problem(format!(
            "the timed merge recompiled {fallbacks} units instead of reading them"
        ));
    }

    let mut parts = STAGE_LAYERS.to_vec();
    parts.extend([
        "pipeline.decode_widen_ms",
        "pipeline.decode_mii_ms",
        "pipeline.decode_base_ms",
        "pipeline.decode_sched_ms",
        "pipeline.decode_lower_ms",
        "core.unit_overhead_ms",
        "distrib.shard_overhead_ms",
    ]);
    layers.close_sum(capacity, &parts, out);
    let mut counts = ExactCounts::default();
    counts.observe(vec![
        ("units", units as u64),
        ("ii_gap", oracle::ii_gap(aggs)),
        ("spill_ops", oracle::spill_ops(aggs)),
    ]);
    counts.report(
        &[
            ("steals", steals as u64),
            ("publish_files", files),
            ("requeues", ft.requeues),
        ],
        out,
    );
}
