//! Stage-reuse contract of the memoized pipeline: a multi-configuration
//! sweep must run the widening transform exactly once per `(loop, Y)`,
//! no matter how many design points, threads or repeat sweeps hit it.

use widening_machine::{Configuration, CycleModel};
use widening_pipeline::{CompileOptions, Pipeline, PointSpec};
use widening_workload::corpus::{generate, CorpusSpec};

fn points(specs: &[&str]) -> Vec<PointSpec> {
    specs
        .iter()
        .map(|s| {
            let cfg: Configuration = s.parse().expect("valid literal");
            PointSpec::scheduled(&cfg, CycleModel::Cycles4, CompileOptions::default())
        })
        .collect()
}

/// Units of `pts` whose base schedule needs more registers than the
/// point's file: the only units that enter the spill engine, and so the
/// only schedule-stage runs.
fn spill_units(pipeline: &Pipeline, pts: &[PointSpec]) -> u64 {
    let n = pipeline.loops().len();
    pts.iter()
        .map(|spec| {
            (0..n)
                .filter(|&li| {
                    let base = pipeline.base_schedule(li, spec);
                    base.is_ok_and(|b| spec.registers.is_some_and(|z| b.needed > z))
                })
                .count() as u64
        })
        .sum()
}

#[test]
fn sweep_widens_each_loop_once_per_width() {
    let loops = generate(&CorpusSpec::small(24, 11));
    let n = loops.len() as u64;
    let pipeline = Pipeline::new(loops);

    // The issue's canonical sweep: 1w1 / 2w2 / 4w2 — two distinct
    // widths (1 and 2) across three design points.
    let pts = points(&["1w1(64:1)", "2w2(64:1)", "4w2(64:1)"]);
    let results = pipeline.sweep(&pts, 8);
    assert_eq!(results.len(), 3);
    assert!(results
        .iter()
        .all(|per_point| per_point.len() == n as usize));

    let counts = pipeline.stage_counts();
    assert_eq!(
        counts.widen_runs,
        2 * n,
        "widening must run once per (loop, Y): {counts:?}"
    );
    // Three points requested widening once per loop each.
    assert!(counts.widen_requests >= 3 * n, "{counts:?}");
    // Distinct (X, Y, model) per point: one base schedule per unit, and
    // the spill engine only where the base does not fit.
    assert_eq!(counts.base_schedule_runs, 3 * n, "{counts:?}");
    let spilled = spill_units(&pipeline, &pts);
    assert!(spilled > 0);
    assert_eq!(counts.schedule_runs, spilled, "{counts:?}");

    // A second identical sweep is pure cache replay: zero new stage
    // executions at any stage.
    let again = pipeline.sweep(&pts, 8);
    let counts2 = pipeline.stage_counts();
    assert_eq!(counts2.widen_runs, counts.widen_runs);
    assert_eq!(counts2.mii_runs, counts.mii_runs);
    assert_eq!(counts2.schedule_runs, counts.schedule_runs);
    assert!(counts2.hits() > counts.hits());

    // And it replays the very same shared artifacts.
    for (a, b) in results.iter().flatten().zip(again.iter().flatten()) {
        match (a, b) {
            (Ok(a), Ok(b)) => {
                assert!(std::ptr::eq(a.wide(), b.wide()));
                assert_eq!(a.ii(), b.ii());
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            (a, b) => panic!("replay changed outcome: {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn register_file_sweep_reuses_widening_and_mii() {
    let loops = generate(&CorpusSpec::small(12, 5));
    let n = loops.len() as u64;
    let pipeline = Pipeline::new(loops);

    // Same (X, Y, model), four register-file sizes: widening AND MII
    // bounds are computed once per loop; only scheduling re-runs.
    let pts = points(&["4w2(32:1)", "4w2(64:1)", "4w2(128:1)", "4w2(256:1)"]);
    let _ = pipeline.sweep(&pts, 8);
    let counts = pipeline.stage_counts();
    assert_eq!(counts.widen_runs, n, "{counts:?}");
    assert_eq!(counts.mii_runs, n, "{counts:?}");
    // Round 1 of the spill engine is register-file independent: one
    // base schedule per loop serves all four file sizes...
    assert_eq!(counts.base_schedule_runs, n, "{counts:?}");
    // ...and the spill engine runs only for the points whose
    // requirement exceeds the file: the others take the base's stage.
    let spilled = spill_units(&pipeline, &pts);
    assert!(spilled > 0);
    assert_eq!(counts.schedule_runs, spilled, "{counts:?}");
}

#[test]
fn base_schedule_allocator_time_is_recorded_once_per_live_run() {
    let loops = generate(&CorpusSpec::small(24, 11));
    let pipeline = Pipeline::new(loops);
    let pts = points(&["1w1(64:1)", "2w2(64:1)", "4w2(32:1)"]);
    let _ = pipeline.sweep(&pts, 4);
    let runs = pipeline.stage_counts().base_schedule_runs;
    let allocate = pipeline
        .metrics()
        .histogram("store.base-schedule.allocate-ns");
    let latency = pipeline
        .metrics()
        .histogram("store.base-schedule.latency-ns");
    assert!(runs > 0);
    assert_eq!(allocate.count(), runs, "one sample per live base run");
    assert!(allocate.sum() > 0);
    // The allocator runs inside the stage, so its time is part of the
    // stage's latency.
    assert!(
        allocate.sum() <= latency.sum(),
        "allocate {} ns > stage latency {} ns",
        allocate.sum(),
        latency.sum()
    );

    // A replay runs no stage and records nothing.
    let _ = pipeline.sweep(&pts, 4);
    assert_eq!(pipeline.stage_counts().base_schedule_runs, runs);
    assert_eq!(allocate.count(), runs);
}
