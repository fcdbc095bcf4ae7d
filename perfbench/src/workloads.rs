//! The untraced runs: set-up, then the timed phase, repeated for
//! `--seconds`, with every correctness oracle checked on every
//! iteration. Reports the end-to-end metrics.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use widening_resources::distrib::Launcher;
use widening_resources::ir::Loop;
use widening_resources::pipeline::{pool, FailureCause, PointSpec, StageCounts, StoreConfig};
use widening_resources::sim::Backend;
use widening_resources::{
    simulate_corpus, sweep_distributed, CorpusEval, DistributedOptions, EvalOptions, Evaluator,
    SimCorpusEval, SimLoopEval,
};

use crate::oracle::{self, ExactCounts};
use crate::{
    dir_usage, median, peak_rss_mib, repeat_for, reset_peak_rss, secs, sim_configs, sweep_grid,
    Args, Outcome, WorkDir, Workload, MODEL,
};

/// Set-ups per run whose median is `setup_s`, where one set-up costs
/// milliseconds.
const SETUP_REPEATS: usize = 15;

/// Cold set-ups per `warm_restart` run: each writes the whole store.
const WARM_SETUPS: usize = 3;

/// The short trip-count override of `simulate_validate`.
pub(crate) const SHORT_TRIP: u64 = 16;

/// Samples of one run: set-up times, and per timed iteration the
/// throughput and the peak resident memory.
#[derive(Debug, Default)]
struct Samples {
    setups: Vec<f64>,
    rates: Vec<f64>,
    peaks: Vec<f64>,
}

impl Samples {
    /// Records timed iteration `i` of `units` units taking `dt` seconds;
    /// call at the iteration's memory peak, after [`reset_peak_rss`].
    /// The warm-up iteration 0 is not recorded.
    fn iteration(&mut self, i: usize, units: u64, dt: f64) {
        if i > 0 {
            self.rates.push(units as f64 / dt);
            self.peaks.push(peak_rss_mib());
        }
    }
}

pub(crate) fn run(args: &Args, work: &WorkDir) -> Outcome {
    let mut out = Outcome::default();
    let mut samples = Samples::default();
    match args.workload {
        Workload::DesignSweep => design_sweep(args, &mut samples, &mut out),
        Workload::SimulateValidate => simulate_validate(args, &mut samples, &mut out),
        Workload::WarmRestart => warm_restart(args, work, &mut samples, &mut out),
        Workload::FleetSweep => fleet_sweep(args, work, &mut samples, &mut out),
    }
    let rates = &samples.rates;
    println!(
        "timed: iterations={} set-ups={} units_per_s min={} max={} all={:.0?}",
        rates.len(),
        samples.setups.len(),
        rates.iter().copied().fold(f64::INFINITY, f64::min),
        rates.iter().copied().fold(0.0, f64::max),
        rates
    );
    out.metric("setup_s", median(&samples.setups), "s");
    out.metric("units_per_s", median(rates), "1/s");
    out.metric("peak_rss_mb", median(&samples.peaks), "MiB");
    out
}

/// Generates the corpus `SETUP_REPEATS` times, recording each time.
fn generate_corpus(args: &Args, samples: &mut Samples) -> Vec<Loop> {
    let mut corpus = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        corpus = args.corpus();
        samples.setups.push(secs(t));
    }
    corpus
}

/// Total stage lookups across every stage store.
pub(crate) fn requests(c: &StageCounts) -> u64 {
    c.widen_requests
        + c.mii_requests
        + c.base_schedule_requests
        + c.schedule_requests
        + c.lower_requests
}

/// Total disk-tier decodes across every stage store.
pub(crate) fn disk_hits(c: &StageCounts) -> u64 {
    c.widen_disk_hits
        + c.mii_disk_hits
        + c.base_schedule_disk_hits
        + c.schedule_disk_hits
        + c.lower_disk_hits
}

/// The exact counts of a sweep iteration.
fn sweep_counts(units: u64, c: &StageCounts, aggs: &[Arc<CorpusEval>]) -> Vec<(&'static str, u64)> {
    vec![
        ("units", units),
        ("stage_runs", c.live_runs()),
        ("stage_requests", requests(c)),
        ("ii_gap", oracle::ii_gap(aggs)),
        ("spill_ops", oracle::spill_ops(aggs)),
    ]
}

/// Checks one sweep against the reference aggregates: bitwise equality
/// and no rewrite defects. Returns the failed units.
pub(crate) fn check_sweep(aggs: &[Arc<CorpusEval>], reference: &[Arc<CorpusEval>]) -> u64 {
    oracle::rewrite_defects(aggs) + oracle::unequal_units(aggs, reference)
}

/// `design_sweep`: a cold, in-memory sweep of the grid.
fn design_sweep(args: &Args, samples: &mut Samples, out: &mut Outcome) {
    let corpus = generate_corpus(args, samples);
    let grid = sweep_grid();
    let units = (corpus.len() * grid.len()) as u64;
    let mut counts = ExactCounts::default();
    let mut reference: Option<Vec<Arc<CorpusEval>>> = None;
    repeat_for(args.seconds, |i| {
        reset_peak_rss();
        let eval = Evaluator::new(corpus.clone()).with_threads(args.threads);
        let t = Instant::now();
        let aggs = eval.sweep_specs(&grid);
        samples.iteration(i, units, secs(t));
        out.attempted += units;
        out.failed += check_sweep(&aggs, reference.get_or_insert_with(|| aggs.clone()));
        counts.observe(sweep_counts(units, &eval.pipeline().stage_counts(), &aggs));
    });
    let reference = reference.expect("at least one iteration ran");
    oracle::check_digest(args, oracle::sweep_digest(&reference), out);
    counts.report(&[], out);
}

/// Set-up of `simulate_validate`: generate the corpus and compile it at
/// the simulated configurations through the evaluator's memory tier.
pub(crate) fn sim_setup(args: &Args) -> (Evaluator, f64) {
    let t = Instant::now();
    let eval = Evaluator::new(args.corpus()).with_threads(args.threads);
    let specs = sim_specs();
    let _ = eval.sweep_specs(&specs);
    (eval, secs(t))
}

pub(crate) fn sim_specs() -> Vec<PointSpec> {
    sim_configs()
        .iter()
        .map(|cfg| PointSpec::scheduled(cfg, MODEL, EvalOptions::default()))
        .collect()
}

/// The trip settings: each loop's own trip count, then the short
/// override that weights prologue and epilogue code.
pub(crate) const TRIPS: [Option<u64>; 2] = [None, Some(SHORT_TRIP)];

/// One timed simulation phase: every simulated configuration at both
/// trip settings on the lowered backend.
pub(crate) fn simulate_passes(eval: &Evaluator) -> Vec<SimCorpusEval> {
    let opts = EvalOptions::default();
    let mut passes = Vec::new();
    for cfg in sim_configs() {
        for trip in TRIPS {
            passes.push(simulate_corpus(
                eval,
                &cfg,
                MODEL,
                &opts,
                trip,
                Backend::Lowered,
            ));
        }
    }
    passes
}

/// Tally of a simulation phase.
#[derive(Debug, Default)]
struct SimTally {
    units: u64,
    validated: u64,
    pub(crate) divergent: u64,
    /// Units that could not be compiled for register pressure: modelled
    /// outcomes, not errors.
    pressure: u64,
    /// Any other failure: always an error.
    errors: u64,
    issued_ops: u64,
}

/// Whether unit `(li, spec)` failed as the model expects: its design
/// point cannot hold the loop's register pressure.
pub(crate) fn pressure_failure(eval: &Evaluator, li: usize, spec: &PointSpec) -> bool {
    matches!(
        eval.pipeline().compile(li, spec).map_err(|e| e.cause()),
        Err(FailureCause::Pressure { .. })
    )
}

fn sim_tally(eval: &Evaluator, passes: &[SimCorpusEval]) -> SimTally {
    let specs = sim_specs();
    let mut t = SimTally::default();
    for (pi, pass) in passes.iter().enumerate() {
        let spec = &specs[pi / TRIPS.len()];
        for (li, le) in pass.per_loop.iter().enumerate() {
            t.units += 1;
            match le {
                SimLoopEval::Validated { stats, .. } => {
                    t.validated += 1;
                    t.issued_ops += stats.issued_ops;
                }
                SimLoopEval::Divergent { .. } => t.divergent += 1,
                SimLoopEval::Failed { .. } if pressure_failure(eval, li, spec) => t.pressure += 1,
                SimLoopEval::Failed { why } => {
                    eprintln!("perfbench: loop {li} failed to simulate: {why}");
                    t.errors += 1;
                }
            }
        }
    }
    t
}

/// `simulate_validate`: lowered execution of the compiled corpus at two
/// trip settings, every run checked against the scalar reference.
fn simulate_validate(args: &Args, samples: &mut Samples, out: &mut Outcome) {
    let mut mops = Vec::new();
    let mut counts = ExactCounts::default();
    let mut reference_digest = None;
    repeat_for(args.seconds, |i| {
        // Each iteration simulates a freshly compiled evaluator, so the
        // timed phase always includes lowering.
        reset_peak_rss();
        let (eval, setup) = sim_setup(args);
        samples.setups.push(setup);
        let before = eval.pipeline().stage_counts();
        let t = Instant::now();
        let passes = simulate_passes(&eval);
        let dt = secs(t);
        let tally = sim_tally(&eval, &passes);
        samples.iteration(i, tally.units, dt);
        mops.push(tally.issued_ops as f64 / dt / 1e6);
        out.attempted += tally.units;
        out.failed += tally.divergent + tally.errors;
        let digest = oracle::sim_digest(passes.iter().flat_map(|p| &p.per_loop));
        if *reference_digest.get_or_insert(digest) != digest {
            out.failed += tally.units;
        }
        let after = eval.pipeline().stage_counts();
        counts.observe(vec![
            ("units", tally.units),
            ("validated", tally.validated),
            ("pressure_failures", tally.pressure),
            ("issued_ops", tally.issued_ops),
            ("reference_runs", tally.validated + tally.divergent),
            ("stage_runs", after.live_runs() - before.live_runs()),
            ("stage_requests", requests(&after) - requests(&before)),
        ]);
    });
    oracle::check_digest(args, reference_digest.unwrap_or_default(), out);
    counts.report(&[], out);
    println!(
        "sim_mops_per_s = {} Mops/s (simulated issued ops per host second)",
        median(&mops)
    );
}

/// Lowers every loop at each 128-register point of `grid`.
pub(crate) fn lower_grid(eval: &Evaluator, grid: &[PointSpec], threads: usize) {
    for spec in grid.iter().filter(|s| s.registers == Some(128)) {
        let n = eval.loops().len();
        let _ = pool::par_map(n, threads, |li| eval.pipeline().lowered(li, spec).is_ok());
    }
}

/// Set-up of `warm_restart`: a cold sweep (lowering included) into a
/// fresh persistent cache directory. The evaluator is dropped after.
pub(crate) fn warm_setup(args: &Args, dir: &Path) -> (Vec<Loop>, f64) {
    let t = Instant::now();
    let corpus = args.corpus();
    let eval = Evaluator::new(corpus.clone())
        .with_threads(args.threads)
        .with_store(StoreConfig::persistent(dir));
    let grid = sweep_grid();
    let _ = eval.sweep_specs(&grid);
    lower_grid(&eval, &grid, args.threads);
    drop(eval);
    (corpus, secs(t))
}

/// `warm_restart`: a fresh evaluator over a warm cache directory runs
/// the same sweep without a single live stage run.
fn warm_restart(args: &Args, work: &WorkDir, samples: &mut Samples, out: &mut Outcome) {
    let mut last: Option<(Vec<Loop>, PathBuf)> = None;
    for _ in 0..WARM_SETUPS {
        if let Some((_, old)) = last.take() {
            work.discard(&old);
        }
        let dir = work.fresh_dir();
        let (corpus, s) = warm_setup(args, &dir);
        samples.setups.push(s);
        last = Some((corpus, dir));
    }
    let (corpus, dir) = last.expect("set-up ran");
    work.settle();
    let grid = sweep_grid();
    let reference = Evaluator::new(corpus.clone())
        .with_threads(args.threads)
        .sweep_specs(&grid);
    let units = (corpus.len() * grid.len()) as u64;
    let mut counts = ExactCounts::default();
    repeat_for(args.seconds, |i| {
        let loops = corpus.clone();
        reset_peak_rss();
        let t = Instant::now();
        let eval = Evaluator::new(loops)
            .with_threads(args.threads)
            .with_store(StoreConfig::persistent(&dir));
        let aggs = eval.sweep_specs(&grid);
        lower_grid(&eval, &grid, args.threads);
        samples.iteration(i, units, secs(t));
        out.attempted += units;
        out.failed += check_sweep(&aggs, &reference);
        let c = eval.pipeline().stage_counts();
        if c.live_runs() != 0 {
            out.problem(format!("warm restart ran {} live stages", c.live_runs()));
        }
        if eval.pipeline().disk_errors() != 0 {
            out.problem(format!(
                "warm restart hit {} disk errors",
                eval.pipeline().disk_errors()
            ));
        }
        counts.observe(vec![
            ("units", units),
            ("stage_runs", c.live_runs()),
            ("stage_requests", requests(&c)),
            ("disk_hits", disk_hits(&c)),
            ("ii_gap", oracle::ii_gap(&aggs)),
            ("spill_ops", oracle::spill_ops(&aggs)),
        ]);
    });
    oracle::check_digest(args, oracle::sweep_digest(&reference), out);
    counts.report(&[], out);
}

/// Files the fleet published into the store's result tiers.
pub(crate) fn publish_files(dir: &Path) -> u64 {
    let Ok(versions) = std::fs::read_dir(dir) else {
        return 0;
    };
    versions
        .flatten()
        .map(|v| {
            let path = v.path();
            dir_usage(&path.join("batch")).1 + dir_usage(&path.join("result")).1
        })
        .sum()
}

/// Workers of the fleet: two, or one on a single CPU.
pub(crate) fn fleet_workers(args: &Args) -> usize {
    args.threads.min(2)
}

/// Set-up of one fleet iteration: the corpus and an evaluator over a
/// cold shared store.
pub(crate) fn fleet_setup(args: &Args, work: &WorkDir) -> (Evaluator, PathBuf, f64) {
    let t = Instant::now();
    let dir = work.fresh_dir();
    let eval = Evaluator::new(args.corpus())
        .with_threads(args.threads)
        .with_store(StoreConfig::persistent(&dir));
    (eval, dir, secs(t))
}

/// `fleet_sweep`: the grid as a distributed sweep of in-process workers
/// over a cold shared store.
fn fleet_sweep(args: &Args, work: &WorkDir, samples: &mut Samples, out: &mut Outcome) {
    for _ in 0..SETUP_REPEATS {
        let (eval, dir, setup) = fleet_setup(args, work);
        samples.setups.push(setup);
        drop(eval);
        work.discard(&dir);
    }
    let grid = sweep_grid();
    let reference = Evaluator::new(args.corpus())
        .with_threads(args.threads)
        .sweep_specs(&grid);
    let opts = DistributedOptions::new(fleet_workers(args));
    let mut counts = ExactCounts::default();
    let (mut steals, mut requeues, mut fallbacks, mut files) = (0, 0, 0, 0);
    repeat_for(args.seconds, |i| {
        reset_peak_rss();
        let (eval, dir, setup) = fleet_setup(args, work);
        samples.setups.push(setup);
        let units = (eval.loops().len() * grid.len()) as u64;
        let t = Instant::now();
        let result = sweep_distributed(&eval, &grid, &opts, &Launcher::InProcess);
        let dt = secs(t);
        out.attempted += units;
        match result {
            Ok(sweep) => {
                samples.iteration(i, units, dt);
                out.failed += check_sweep(&sweep.aggregates, &reference);
                steals += sweep.run.stolen_units;
                requeues += sweep.run.requeues;
                fallbacks += sweep.fallback_units as u64;
                files = publish_files(&dir);
                counts.observe(vec![
                    ("units", units),
                    ("ii_gap", oracle::ii_gap(&sweep.aggregates)),
                    ("spill_ops", oracle::spill_ops(&sweep.aggregates)),
                ]);
            }
            Err(e) => {
                out.failed += units;
                out.problem(format!("distributed sweep failed: {e}"));
            }
        }
        drop(eval);
        work.discard(&dir);
    });
    oracle::check_digest(args, oracle::sweep_digest(&reference), out);
    // Steal and retirement races move units between batch records, so
    // the file count is timing-dependent: printed, not checked.
    counts.report(
        &[
            ("stolen_units", steals),
            ("requeues", requeues),
            ("fallback_units", fallbacks),
            ("last_publish_files", files),
        ],
        out,
    );
}
