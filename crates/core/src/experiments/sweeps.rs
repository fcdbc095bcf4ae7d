//! The multi-configuration sweep demonstration (`repro sweep`): the
//! issue's canonical `1w1 / 2w2 / 4w2` design points over two
//! register-file sizes, evaluated as one batch of `(loop × config)`
//! work units with shared stage caches — and the stage counters that
//! prove the reuse. `repro sweep --shards N` runs the same grid
//! through the distributed engine (N local worker processes over the
//! shared cache directory) and reports per-shard progress alongside
//! the fleet-summed stage counters; its aggregates are bitwise-equal
//! to the in-process batch.

use std::sync::Arc;

use widening_distrib::{Launcher, SweepRun};
use widening_machine::CycleModel;
use widening_pipeline::{PointSpec, StageCounts};

use super::Context;
use crate::distributed::{sweep_distributed, worker_command, DistributedOptions};
use crate::evaluate::CorpusEval;
use crate::report::{f2, Report};

/// The sweep's design points, `XwY` by register-file size.
const SWEEP_CONFIGS: [&str; 6] = [
    "1w1(64:1)",
    "2w2(64:1)",
    "4w2(64:1)",
    "1w1(128:1)",
    "2w2(128:1)",
    "4w2(128:1)",
];

/// The sweep grid as full design points: the in-process batch runs
/// them, and the distributed path ships them to workers in its
/// manifest.
pub(crate) fn sweep_grid_specs() -> Vec<PointSpec> {
    SWEEP_CONFIGS
        .iter()
        .map(|s| {
            PointSpec::scheduled(
                &s.parse().expect("static configuration"),
                CycleModel::Cycles4,
                crate::EvalOptions::default(),
            )
        })
        .collect()
}

/// The sweep result table: one row per grid configuration. Shared by
/// the in-process and distributed paths, so bitwise-equal aggregates
/// render byte-identical rows.
fn sweep_table(title: &str, results: &[Arc<CorpusEval>]) -> Report {
    let mut r = Report::new(title).with_columns([
        "config",
        "speed-up vs 1w1(64)",
        "at-MII rate",
        "failed",
        "spill ops",
    ]);
    let base = results[0].total_cycles;
    for (spec, e) in SWEEP_CONFIGS.iter().zip(results) {
        r.push_row([
            (*spec).to_string(),
            if e.is_complete() {
                f2(base / e.total_cycles)
            } else {
                format!("- ({} fail)", e.failed)
            },
            f2(e.mii_rate()),
            e.failed.to_string(),
            e.spill_ops.to_string(),
        ]);
    }
    r
}

/// Batch-evaluates the sweep grid and reports speed-ups plus the
/// pipeline's stage-execution counters.
///
/// # Panics
///
/// Panics if the batch fails to share widening work across design
/// points with equal `Y` — the sweep engine's core contract.
#[must_use]
pub fn sweep(ctx: &Context) -> Report {
    let n = ctx.eval.loops().len() as u64;
    let before = ctx.eval.pipeline().stage_counts();
    let results = ctx.eval.sweep_specs(&sweep_grid_specs());
    let after = ctx.eval.pipeline().stage_counts();

    let mut r = sweep_table(
        "Sweep — shared-cache batch over 1w1/2w2/4w2 × {64, 128}-RF",
        &results,
    );

    let widen_delta = after.widen_runs - before.widen_runs;
    let sched_delta = after.schedule_runs - before.schedule_runs;
    // Six design points, two distinct widths: stage sharing must hold.
    assert!(
        widen_delta <= 2 * n,
        "sweep re-widened loops: {widen_delta} runs for {n} loops x 2 widths"
    );
    r.push_note(format!(
        "stage executions this sweep: widen {widen_delta} (≤ {} = loops × distinct Y), \
         spill engine {sched_delta} of {} units (the rest fit their base schedule)",
        2 * n,
        6 * n
    ));
    r.push_note(format!(
        "cumulative stage-cache hits: {} (runs {} / requests {})",
        after.hits(),
        after.live_runs(),
        after.widen_requests
            + after.mii_requests
            + after.base_schedule_requests
            + after.schedule_requests
    ));
    r
}

/// Runs the sweep grid through the distributed engine: `workers` local
/// worker processes (the current executable's `worker` subcommand) over
/// the evaluator's shared cache directory, merged bitwise-equal to the
/// in-process batch. `chaos_die_after_units` makes the first worker
/// abandon its shard mid-flight (the CI fault-injection knob);
/// `trace_dir` makes every spawned worker drop its binary span trace
/// there for the merged fleet timeline. Returns the reports (sweep
/// table, per-shard progress, fleet-summed stage counters) plus the
/// fleet's summed counters so the caller can fold them into its own
/// `cache:` summary.
///
/// # Errors
///
/// A human-readable message when the evaluator has no cache directory,
/// the worker executable cannot be resolved, or the fleet fails.
pub fn sweep_distributed_reports(
    ctx: &Context,
    workers: usize,
    chaos_die_after_units: Option<u64>,
    trace_dir: Option<std::path::PathBuf>,
) -> Result<(Vec<Report>, StageCounts), String> {
    let specs = sweep_grid_specs();
    let mut opts = DistributedOptions::new(workers);
    opts.chaos_die_after_units = chaos_die_after_units;
    opts.trace_dir = trace_dir;
    // Split the local thread budget across the fleet.
    opts.worker_threads = (ctx.eval.threads() / opts.workers).max(1);
    let exe = std::env::current_exe().map_err(|e| format!("cannot resolve worker binary: {e}"))?;
    let launch = worker_command(exe);
    let result = sweep_distributed(&ctx.eval, &specs, &opts, &Launcher::Spawn(&launch))
        .map_err(|e| e.to_string())?;

    let mut table = sweep_table(
        "Sweep — distributed shards over 1w1/2w2/4w2 × {64, 128}-RF",
        &result.aggregates,
    );
    table.push_note(format!(
        "merged from {} workers × {} shard(s); bitwise-equal to the in-process batch",
        opts.workers,
        result.run.shard_reports.len(),
    ));
    if result.fallback_units > 0 {
        table.push_note(format!(
            "{} unit(s) merged by local recompute (result records missing)",
            result.fallback_units
        ));
    }
    let shards = shard_table(&result.run);
    let total = result
        .run
        .worker_counts
        .plus(&ctx.eval.pipeline().stage_counts());
    let mut counters = stage_counter_table(&total);
    counters.push_note(format!(
        "fleet-summed: {} worker shard report(s) + the coordinator's own pipeline",
        result.run.shard_reports.iter().flatten().count()
    ));
    Ok((vec![table, shards, counters], result.run.worker_counts))
}

/// Per-shard progress of a distributed sweep: the counters each worker
/// reported through its shard completion marker, folded into the same
/// shape as the stage-counter table.
#[must_use]
pub fn shard_table(run: &SweepRun) -> Report {
    let mut r = Report::new("Distributed sweep — per-shard progress").with_columns([
        "shard",
        "units",
        "result hits",
        "live runs",
        "disk hits",
        "schedule runs",
    ]);
    for (i, report) in run.shard_reports.iter().enumerate() {
        match report {
            Some(s) => r.push_row([
                i.to_string(),
                s.units.to_string(),
                s.result_hits.to_string(),
                s.counts.live_runs().to_string(),
                s.counts.disk_hits().to_string(),
                s.counts.schedule_runs.to_string(),
            ]),
            None => r.push_row([
                i.to_string(),
                "?".into(),
                "?".into(),
                "?".into(),
                "?".into(),
                "?".into(),
            ]),
        }
    }
    r.push_note(format!(
        "units {} · result hits {} · lease requeues {} · worker respawns {}",
        run.units, run.result_hits, run.requeues, run.respawns
    ));
    r
}

/// The pipeline's cumulative stage counters as a table: one row per
/// stage, with the two-tier store's observability columns (disk hits,
/// evictions, resident bytes). Printed by `repro sweep` after the sweep
/// table so cache behaviour — including a warm start's all-disk replay —
/// is visible per run.
#[must_use]
pub fn stage_counter_table(c: &StageCounts) -> Report {
    let mut r = Report::new("Stage stores — cumulative two-tier counters").with_columns([
        "stage",
        "runs",
        "requests",
        "disk hits",
        "evictions",
        "resident bytes",
    ]);
    let row = |name: &str, runs: u64, requests: u64, disk: u64, evict: u64, bytes: u64| {
        [
            name.to_string(),
            runs.to_string(),
            requests.to_string(),
            disk.to_string(),
            evict.to_string(),
            bytes.to_string(),
        ]
    };
    r.push_row(row(
        "widen",
        c.widen_runs,
        c.widen_requests,
        c.widen_disk_hits,
        0,
        0,
    ));
    r.push_row(row(
        "mii",
        c.mii_runs,
        c.mii_requests,
        c.mii_disk_hits,
        0,
        0,
    ));
    r.push_row(row(
        "base-schedule",
        c.base_schedule_runs,
        c.base_schedule_requests,
        c.base_schedule_disk_hits,
        0,
        0,
    ));
    r.push_row(row(
        "schedule",
        c.schedule_runs,
        c.schedule_requests,
        c.schedule_disk_hits,
        c.schedule_evictions,
        c.schedule_resident_bytes,
    ));
    r.push_row(row(
        "lower",
        c.lower_runs,
        c.lower_requests,
        c.lower_disk_hits,
        0,
        0,
    ));
    r.push_note(format!(
        "live runs {} · disk hits {} · memo+disk hits {}",
        c.live_runs(),
        c.disk_hits(),
        c.hits()
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_report_shape_and_sharing() {
        let ctx = Context::quick(10);
        let r = sweep(&ctx);
        assert_eq!(r.rows.len(), 6);
        // The 1w1(64) anchor is 1.00 by construction.
        let anchor: f64 = r.rows[0][1].parse().unwrap();
        assert!((anchor - 1.0).abs() < 1e-9);
        // More registers never hurt: 128-RF rows at least match their
        // 64-RF siblings (within rounding).
        for i in 0..3 {
            let small: f64 = r.rows[i][1].parse().unwrap_or(0.0);
            let big: f64 = r.rows[i + 3][1].parse().unwrap_or(f64::MAX);
            assert!(
                big >= small - 0.02,
                "{:?} vs {:?}",
                r.rows[i],
                r.rows[i + 3]
            );
        }
    }
}
