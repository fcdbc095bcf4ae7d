//! Ablation studies for the reproduction's design choices: the
//! scheduler ordering, the spill policy, and the latency-adaptation rule
//! of §5.2.

use widening_cost::CostModel;
use widening_machine::{Configuration, CycleModel};
use widening_pipeline::PointSpec;
use widening_regalloc::{SpillOptions, SpillPolicy};
use widening_sched::Strategy;

use super::figures::cost_aware_speedup;
use super::Context;
use crate::evaluate::EvalOptions;
use crate::report::{f2, f3, Report};

/// Scheduler ablation: HRMS-lineage ordering vs IMS vs naive ASAP, on a
/// mid-range machine — evaluated as **one** mixed-strategy batch
/// ([`crate::Evaluator::sweep_specs`]): all three strategies' work units
/// share a single dynamic worker queue, and the widening and MII stages
/// (strategy-independent) are computed once, not once per strategy.
#[must_use]
pub fn ablate_sched(ctx: &Context) -> Report {
    let mut r = Report::new("Ablation — scheduler ordering strategy (4w1, 64-RF)").with_columns([
        "strategy",
        "cycles (rel)",
        "II=MII rate",
        "spill ops",
        "failures",
    ]);
    let cfg = Configuration::monolithic(4, 1, 64).expect("valid");
    let specs: Vec<PointSpec> = Strategy::ALL
        .iter()
        .map(|&strategy| {
            let opts = EvalOptions {
                strategy,
                ..Default::default()
            };
            PointSpec::scheduled(&cfg, CycleModel::Cycles4, opts)
        })
        .collect();
    let evals = ctx.eval.sweep_specs(&specs);
    let base = evals[0].total_cycles;
    for (strat, e) in Strategy::ALL.iter().zip(&evals) {
        r.push_row([
            strat.label().to_string(),
            f3(e.total_cycles / base),
            f3(e.mii_rate()),
            e.spill_ops.to_string(),
            e.failed.to_string(),
        ]);
    }
    r.push_note("HRMS-lineage ordering is the reference (1.000)");
    r.push_note("all strategies evaluated in one mixed-opts worker-queue pass");
    r
}

/// Spill-policy ablation: the two pure policies against the adaptive
/// default on the pressure-critical Figure 3 configurations.
#[must_use]
pub fn ablate_spill(ctx: &Context) -> Report {
    let mut r = Report::new("Ablation — spill policy under register pressure").with_columns([
        "config",
        "RF",
        "spill-first",
        "increase-II",
        "adaptive",
        "spill ops",
    ]);
    let base = ctx.eval.baseline_256().total_cycles;
    let with_policy = |policy| EvalOptions {
        spill: SpillOptions { policy },
        ..Default::default()
    };
    const POINTS: [(u32, u32, u32); 4] = [(4, 1, 32), (4, 2, 32), (4, 2, 64), (8, 1, 64)];
    // One mixed-opts batch for all three policies × four machines: every
    // `(loop × config)` unit rides a single worker queue, and the
    // policies reuse each other's widened DDGs, MII bounds and base
    // schedules.
    let cfgs: Vec<Configuration> = POINTS
        .iter()
        .map(|&(x, y, z)| Configuration::monolithic(x, y, z).expect("valid"))
        .collect();
    const POLICIES: [SpillPolicy; 3] = [
        SpillPolicy::SpillFirst,
        SpillPolicy::IncreaseIiOnly,
        SpillPolicy::Adaptive,
    ];
    let specs: Vec<PointSpec> = POLICIES
        .iter()
        .flat_map(|&policy| {
            let opts = with_policy(policy);
            cfgs.iter()
                .map(move |cfg| PointSpec::scheduled(cfg, CycleModel::Cycles4, opts))
        })
        .collect();
    let evals = ctx.eval.sweep_specs(&specs);
    let per_policy = |i: usize| evals[i * POINTS.len()..(i + 1) * POINTS.len()].to_vec();
    let (spill, incr, adaptive) = (per_policy(0), per_policy(1), per_policy(2));
    for (i, (x, y, z)) in POINTS.into_iter().enumerate() {
        let cell = |e: &crate::evaluate::CorpusEval| {
            if e.is_complete() {
                f2(base / e.total_cycles)
            } else {
                format!("- ({} fail)", e.failed)
            }
        };
        r.push_row([
            format!("{x}w{y}"),
            z.to_string(),
            cell(&spill[i]),
            cell(&incr[i]),
            cell(&adaptive[i]),
            adaptive[i].spill_ops.to_string(),
        ]);
    }
    r.push_note("speed-up vs 1w1(256-RF)");
    r.push_note(
        "on memory-bound machines increasing the II can beat spilling (spill \
         traffic competes for the buses that set the II); the adaptive default \
         takes the better of the two per loop",
    );
    r
}

/// Latency-adaptation ablation: §5.2's cycle-model rule vs naively
/// keeping the 4-cycle model at every cycle time.
#[must_use]
pub fn ablate_latency(ctx: &Context) -> Report {
    let cost = CostModel::paper();
    let mut r = Report::new("Ablation — FPU latency adaptation (Table 6 rule vs fixed 4-cycle)")
        .with_columns([
            "config",
            "Tc",
            "adapted model",
            "speed-up adapted",
            "speed-up fixed",
        ]);
    let base = ctx.eval.baseline_32().total_cycles;
    for s in ["2w1(64:1)", "4w2(128:2)", "8w1(128:8)", "2w4(128:1)"] {
        let cfg: Configuration = s.parse().expect("valid");
        let tc = cost.relative_cycle_time(&cfg);
        let adapted = cost_aware_speedup(ctx, &cost, &cfg);
        let fixed = {
            let e = ctx
                .eval
                .scheduled(&cfg, CycleModel::Cycles4, &Default::default());
            e.is_complete().then(|| base / (e.total_cycles * tc))
        };
        let show = |v: Option<f64>| v.map_or("-".to_string(), f2);
        r.push_row([
            s.to_string(),
            f2(tc),
            cost.cycle_model(&cfg).to_string(),
            show(adapted),
            show(fixed),
        ]);
    }
    r.push_note("shorter latency models recover performance lost to slow clocks");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Context {
        Context::quick(20)
    }

    #[test]
    fn sched_ablation_ranks_hrms_first_or_close() {
        let r = ablate_sched(&ctx());
        assert_eq!(r.rows.len(), 3);
        let hrms: f64 = r.rows[0][1].parse().unwrap();
        assert_eq!(hrms, 1.0);
        let hrms_rate: f64 = r.rows[0][2].parse().unwrap();
        let hrms_spills: u64 = r.rows[0][3].parse().unwrap();
        // HRMS achieves MII on a majority of loops. (Under register
        // pressure the adaptive spill policy deliberately schedules some
        // loops above the final graph's MII, so the rate is well below
        // the ~0.95+ seen with unconstrained registers.)
        assert!(hrms_rate > 0.5, "MII rate {hrms_rate}");
        for row in &r.rows[1..] {
            // … the baselines may trade a few percent of cycles either
            // way, but only by spilling much harder or missing MII more
            // often — HRMS must dominate on at least one quality axis
            // per baseline while staying within 7% on cycles.
            let rel: f64 = row[1].parse().unwrap();
            let rate: f64 = row[2].parse().unwrap();
            let spills: u64 = row[3].parse().unwrap();
            assert!(rel > 0.93, "{row:?}");
            assert!(
                rate <= hrms_rate + 1e-9 || spills >= hrms_spills,
                "a baseline beat HRMS on every axis: {row:?}"
            );
        }
    }

    #[test]
    fn spill_ablation_runs_all_configs() {
        let r = ablate_spill(&ctx());
        assert_eq!(r.rows.len(), 4);
    }

    #[test]
    fn latency_ablation_adapted_not_worse() {
        let r = ablate_latency(&ctx());
        for row in &r.rows {
            if let (Ok(a), Ok(f)) = (row[3].parse::<f64>(), row[4].parse::<f64>()) {
                assert!(
                    a >= f - 0.02,
                    "adapted latency should not lose to fixed: {row:?}"
                );
            }
        }
    }
}
