//! Reproductions of Figures 2, 3, 4, 6 and 7.

use widening_cost::{AreaModel, CostModel, Technology, TimingModel, IMPLEMENTABLE_BUDGET};
use widening_machine::{Configuration, CycleModel, InstructionEncoding};
use widening_pipeline::PointSpec;

use super::Context;
use crate::report::{f2, f3, mega, Report};
use crate::EvalOptions;

/// The `XwY` pairs at a given factor, replication-heavy first.
fn pairs_at_factor(factor: u32) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut x = factor;
    while x >= 1 {
        out.push((x, factor / x));
        x /= 2;
    }
    out
}

/// Figure 2: peak speed-up (perfect scheduling, infinite registers) for
/// every `XwY` combination at factors ×1 … ×128, relative to `1w1`.
#[must_use]
pub fn fig2(ctx: &Context) -> Report {
    let mut r = Report::new("Figure 2 — peak speed-up (infinite registers)")
        .with_columns(["factor", "config", "speed-up"]);
    // One point list drives both the batch compile and the rows: every
    // design point goes through the shared stage caches (each loop is
    // widened once per distinct Y across the whole figure) and the rows
    // consume the sweep's input-ordered aggregates.
    let mut points: Vec<(u32, (u32, u32))> = vec![(1, (1, 1))];
    let mut factor = 2u32;
    while factor <= 128 {
        points.extend(pairs_at_factor(factor).into_iter().map(|p| (factor, p)));
        factor *= 2;
    }
    let specs: Vec<PointSpec> = points
        .iter()
        .map(|&(_, (x, y))| PointSpec::peak(x, y, CycleModel::Cycles4))
        .collect();
    let results = ctx.eval.sweep_specs(&specs);
    let base = results[0].total_cycles;
    let mut saturation: Vec<(String, f64)> = Vec::new();
    for (&(factor, (x, y)), e) in points.iter().zip(&results) {
        let speedup = base / e.total_cycles;
        r.push_row([format!("x{factor}"), format!("{x}w{y}"), f2(speedup)]);
        if factor == 128 {
            saturation.push((format!("{x}w{y}"), speedup));
        }
    }
    if let Some((_, s)) = saturation.first() {
        r.push_note(format!(
            "replication endpoint 128w1: {:.2}x (paper: ~11x)",
            s
        ));
    }
    if let Some((_, s)) = saturation.last() {
        r.push_note(format!(
            "widening endpoint 1w128: {:.2}x (paper: ~4.5-5x)",
            s
        ));
    }
    r
}

/// The nine configurations of Figure 3, paper order.
pub const FIG3_CONFIGS: [(u32, u32); 9] = [
    (2, 1),
    (1, 2),
    (4, 1),
    (2, 2),
    (1, 4),
    (8, 1),
    (4, 2),
    (2, 4),
    (1, 8),
];

/// Figure 3: speed-up with spill code against 32/64/128/256-register
/// files, baseline `1w1` with a 256-RF, 4-cycle latency model.
#[must_use]
pub fn fig3(ctx: &Context) -> Report {
    let mut r = Report::new("Figure 3 — speed-up with spill code (baseline 1w1, 256-RF)")
        .with_columns(["config", "RF=32", "RF=64", "RF=128", "RF=256"]);
    // All 36 design points (plus the baseline) as one shared-cache
    // batch — each loop is widened once per distinct Y for the whole
    // figure — and the rows consume the sweep's input-ordered
    // aggregates, so the point list exists exactly once.
    const ZS: [u32; 4] = [32, 64, 128, 256];
    let scheduled = |x, y, z| {
        let cfg = Configuration::monolithic(x, y, z).expect("valid");
        PointSpec::scheduled(&cfg, CycleModel::Cycles4, EvalOptions::default())
    };
    let mut specs = vec![scheduled(1, 1, 256)];
    for (x, y) in FIG3_CONFIGS {
        for z in ZS {
            specs.push(scheduled(x, y, z));
        }
    }
    let results = ctx.eval.sweep_specs(&specs);
    let base = results[0].total_cycles;
    let mut per_point = results[1..].iter();
    for (x, y) in FIG3_CONFIGS {
        let mut row = vec![format!("{x}w{y}")];
        for _ in ZS {
            let e = per_point.next().expect("one aggregate per design point");
            if e.is_complete() {
                row.push(f2(base / e.total_cycles));
            } else {
                // The paper omits the bar entirely (8w1 at 32-RF).
                row.push(format!("- ({} fail)", e.failed));
            }
        }
        r.push_row(row);
    }
    r.push_note("paper: 4w2 = 2.25 / 3.28 / 4.39 / 4.76; 8w1(32-RF) unschedulable");
    r.push_note("wide RF capacity lets 4w2 beat 8w1 at 64- and 128-RF");
    r
}

/// Figure 4: area (RF + FPUs) of every configuration up to ×16, with the
/// 10–20% die bands of each technology generation.
#[must_use]
pub fn fig4() -> Report {
    let area = AreaModel::new();
    let mut r = Report::new("Figure 4 — area cost (RF + FPUs), millions of lambda^2")
        .with_columns(["config", "RF=32", "RF=64", "RF=128", "RF=256"]);
    let mut factor = 1u32;
    while factor <= 16 {
        for (x, y) in pairs_at_factor(factor) {
            let mut row = vec![format!("{x}w{y}")];
            for z in [32u32, 64, 128, 256] {
                let cfg = Configuration::monolithic(x, y, z).expect("valid");
                row.push(mega(area.total_area(&cfg)));
            }
            r.push_row(row);
        }
        factor *= 2;
    }
    for t in &Technology::ALL {
        r.push_note(format!(
            "{t}: 10-20% band = {:.0}-{:.0} x10^6 lambda^2",
            0.10 * t.lambda2_per_chip() / 1e6,
            IMPLEMENTABLE_BUDGET * t.lambda2_per_chip() / 1e6
        ));
    }
    r
}

/// Figure 6: RF partitioning of `8w1` (64-RF) — area up, access time
/// down, both relative to the monolithic file.
#[must_use]
pub fn fig6() -> Report {
    let area = AreaModel::new();
    let timing = TimingModel::calibrated();
    let mut r = Report::new("Figure 6 — 8w1(64-RF) with 1, 2, 4, 8 RF partitions").with_columns([
        "partitions",
        "area (rel)",
        "access time (rel)",
    ]);
    let mono = Configuration::new(8, 1, 64, 1).expect("valid");
    let a0 = area.rf_area(&mono);
    let t0 = timing.relative_access_time(&mono);
    for n in [1u32, 2, 4, 8] {
        let cfg = Configuration::new(8, 1, 64, n).expect("valid");
        r.push_row([
            n.to_string(),
            f3(area.rf_area(&cfg) / a0),
            f3(timing.relative_access_time(&cfg) / t0),
        ]);
    }
    r.push_note("paper: area grows (to ~2x), access time falls (to ~0.55x) at 8 blocks");
    r
}

/// Figure 7: relative code size of equal-peak configurations — code
/// bits needed to encode **one original iteration** (`II · word bits /
/// Y`), each group normalised to its pure-replication member. A wide
/// instruction word commands `Y` iterations' worth of work, which is
/// exactly the paper's code-size advantage of widening.
#[must_use]
pub fn fig7(ctx: &Context) -> Report {
    let enc = InstructionEncoding::new();
    let mut r = Report::new("Figure 7 — relative code size at equal peak performance")
        .with_columns(["factor", "config", "words", "word bits", "rel. code size"]);
    // One point list feeds the batch and the rows (input-ordered).
    let points: Vec<(u32, Configuration)> = [2u32, 4, 8]
        .iter()
        .flat_map(|&f| {
            pairs_at_factor(f)
                .into_iter()
                .map(move |(x, y)| (f, (x, y)))
        })
        .map(|(f, (x, y))| (f, Configuration::monolithic(x, y, 256).expect("valid")))
        .collect();
    let specs: Vec<PointSpec> = points
        .iter()
        .map(|(_, cfg)| PointSpec::scheduled(cfg, CycleModel::Cycles4, EvalOptions::default()))
        .collect();
    let results = ctx.eval.sweep_specs(&specs);
    let mut per_point = points.iter().zip(&results).peekable();
    for factor in [2u32, 4, 8] {
        let mut baseline_bits: Option<f64> = None;
        while let Some(&(&(f, cfg), e)) = per_point.peek() {
            if f != factor {
                break;
            }
            per_point.next();
            let (x, y) = (cfg.replication(), cfg.widening());
            let bits = e.total_static_words * enc.word_bits(&cfg) as f64 / f64::from(y);
            let base = *baseline_bits.get_or_insert(bits);
            r.push_row([
                format!("x{factor}"),
                format!("{x}w{y}"),
                format!("{:.0}", e.total_static_words),
                enc.word_bits(&cfg).to_string(),
                f3(bits / base),
            ]);
        }
    }
    r.push_note("paper bars: 1.0 / 0.5 / 0.25 / 0.125 per halving of replication");
    r.push_note("measured ratios sit slightly above the ideal because widening is less versatile (needs more kernel instructions), as §4.3 acknowledges");
    r
}

/// Shared helper for Figures 8/9: speed-up of `cfg` relative to the
/// `1w1(32:1)` anchor, accounting spill, latency adaptation and cycle
/// time; `None` if any loop fails to schedule.
pub(super) fn cost_aware_speedup(
    ctx: &Context,
    cost: &CostModel,
    cfg: &Configuration,
) -> Option<f64> {
    let base = ctx.eval.baseline_32().total_cycles; // Tc = 1.0 by definition
    let tc = cost.relative_cycle_time(cfg);
    let model = CycleModel::for_relative_cycle_time(tc);
    let e = ctx.eval.scheduled(cfg, model, &Default::default());
    e.is_complete().then(|| base / (e.total_cycles * tc))
}

/// Batch companion to [`cost_aware_speedup`]: compiles the `1w1(32:1)`
/// anchor and every design point (each under its own adapted cycle
/// model) as one shared-cache sweep, so the per-config reads that
/// follow are pure cache hits.
pub(super) fn prewarm_cost_aware(ctx: &Context, cost: &CostModel, cfgs: &[Configuration]) {
    let anchor = Configuration::monolithic(1, 1, 32).expect("valid");
    let specs: Vec<PointSpec> = std::iter::once((anchor, CycleModel::Cycles4))
        .chain(cfgs.iter().map(|cfg| (*cfg, cost.cycle_model(cfg))))
        .map(|(cfg, model)| PointSpec::scheduled(&cfg, model, EvalOptions::default()))
        .collect();
    let _ = ctx.eval.sweep_specs(&specs);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Context {
        Context::quick(30)
    }

    #[test]
    fn fig2_replication_dominates_widening() {
        let r = fig2(&ctx());
        let lookup = |cfg: &str| -> f64 {
            r.rows
                .iter()
                .find(|row| row[1] == cfg)
                .unwrap_or_else(|| panic!("{cfg} missing"))[2]
                .parse()
                .unwrap()
        };
        assert_eq!(lookup("1w1"), 1.0);
        // Monotone groups: more hardware never slower (peak mode).
        assert!(lookup("2w1") >= lookup("1w2") - 1e-9);
        assert!(lookup("8w1") >= lookup("1w8") - 1e-9);
        assert!(lookup("128w1") >= lookup("1w128") - 1e-9);
        // Widening saturates: 1w128 barely above 1w32.
        assert!(lookup("1w128") < lookup("1w32") * 1.35);
    }

    #[test]
    fn fig3_has_nine_rows_and_rf_monotonicity() {
        let r = fig3(&ctx());
        assert_eq!(r.rows.len(), 9);
        for row in &r.rows {
            let vals: Vec<Option<f64>> = row[1..].iter().map(|c| c.parse().ok()).collect();
            // Where present, more registers never hurt.
            let present: Vec<f64> = vals.iter().flatten().copied().collect();
            for pair in present.windows(2) {
                assert!(
                    pair[1] >= pair[0] - 0.02,
                    "{row:?}: speed-up should grow with RF"
                );
            }
        }
    }

    #[test]
    fn fig4_orders_families_by_replication() {
        let r = fig4();
        let area = |cfg: &str, col: usize| -> f64 {
            r.rows.iter().find(|row| row[0] == cfg).unwrap()[col]
                .parse()
                .unwrap()
        };
        for col in 1..=4 {
            assert!(area("8w1", col) > area("4w2", col));
            assert!(area("4w2", col) > area("2w4", col));
            assert!(area("2w4", col) > area("1w8", col));
        }
    }

    #[test]
    fn fig6_shape() {
        let r = fig6();
        assert_eq!(r.rows.len(), 4);
        let t8: f64 = r.rows[3][2].parse().unwrap();
        let a8: f64 = r.rows[3][1].parse().unwrap();
        assert!(t8 < 0.8, "access time should fall: {t8}");
        assert!(a8 > 1.0, "area should rise: {a8}");
    }

    #[test]
    fn fig7_widening_shrinks_code() {
        let r = fig7(&ctx());
        for factor in ["x2", "x4", "x8"] {
            let group: Vec<f64> = r
                .rows
                .iter()
                .filter(|row| row[0] == factor)
                .map(|row| row[4].parse().unwrap())
                .collect();
            assert!(group.len() >= 2);
            assert_eq!(group[0], 1.0);
            // Per-iteration code shrinks monotonically with widening and
            // the full-width member approaches the paper's 1/Y ideal.
            for pair in group.windows(2) {
                assert!(pair[1] < pair[0], "{factor}: {group:?}");
            }
            assert!(group.last().unwrap() < &0.75, "{factor}: {group:?}");
        }
    }
}
