//! Checking the compile-cost surrogate against measured latencies.
//!
//! [`crate::sweep_priority`] is an *analytic* ordering key: it was
//! designed so that heavier design points sort first, with magnitudes
//! chosen only to induce that order. This module measures how well it
//! does: [`calibrate`] joins the surrogate's predictions against
//! per-unit `(loop × config)` wall times measured from span traces
//! (`repro perf calibrate`), and reports
//!
//! * **Spearman rank correlation** between predicted priority and
//!   measured latency over all units — the number that actually
//!   matters for an ordering key;
//! * a **fitted scale** `k` (ns per priority unit, least squares
//!   through the origin);
//! * **per-loop relative error** of `k · Σpriority` against measured
//!   wall time — where the analytic magnitudes are honest and where
//!   they are not (the `1 << 20` scheduled-band offset deliberately
//!   flattens magnitudes, and the error figures expose that).
//!
//! The fit is printed, never loaded back: the sweep orders its units by
//! the analytic key alone.

use std::collections::BTreeMap;

use widening_obs::report::UnitSample;

use crate::priority::sweep_priority;

/// One design point's measured summary in a [`CalibrationReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct CalPoint {
    /// Replication factor `X`.
    pub replication: u32,
    /// Width factor `Y`.
    pub width: u32,
    /// Register-file size `Z`; `None` for peak points.
    pub registers: Option<u32>,
    /// Units measured for this point.
    pub units: u64,
    /// Mean measured unit latency, nanoseconds.
    pub mean_ns: u64,
    /// Median measured unit latency, nanoseconds.
    pub median_ns: u64,
    /// The analytic [`sweep_priority`] of the point.
    pub analytic_priority: u64,
    /// Measured priority: `max(1, median_ns / k)`, on the analytic
    /// priority's scale.
    pub calibrated_priority: u64,
}

/// The output of [`calibrate`]: goodness-of-fit figures plus the
/// per-point measured priorities.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CalibrationReport {
    /// Units joined (predicted priority × measured wall time pairs).
    pub unit_count: u64,
    /// Distinct corpus loops covered.
    pub loop_count: u64,
    /// Spearman rank correlation over per-unit pairs, in `[-1, 1]`.
    pub rank_correlation: f64,
    /// Fitted `k`: nanoseconds per analytic priority unit (least
    /// squares through the origin).
    pub scale_ns_per_priority: f64,
    /// Mean over loops of `|k·Σpriority − Σmeasured| / Σmeasured`.
    pub mean_loop_rel_err: f64,
    /// Worst loop's relative error.
    pub max_loop_rel_err: f64,
    /// Per-configuration summaries, sorted by analytic priority.
    pub points: Vec<CalPoint>,
}

/// Average ranks (1-based, ties share their mean rank).
fn ranks(values: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let mut out = vec![0.0; values.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && values[order[j + 1]] == values[order[i]] {
            j += 1;
        }
        #[allow(clippy::cast_precision_loss)]
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &order[i..=j] {
            out[k] = avg;
        }
        i = j + 1;
    }
    out
}

fn pearson(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    #[allow(clippy::cast_precision_loss)]
    let n = a.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / n;
    let (ma, mb) = (mean(a), mean(b));
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va == 0.0 || vb == 0.0 {
        0.0
    } else {
        cov / (va * vb).sqrt()
    }
}

/// Spearman rank correlation of paired samples: Pearson correlation of
/// their average ranks. Returns 0 for degenerate inputs (fewer than
/// two pairs, or a constant side).
#[must_use]
pub fn spearman(pairs: &[(f64, f64)]) -> f64 {
    let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    pearson(&ranks(&xs), &ranks(&ys))
}

/// Joins analytic [`sweep_priority`] predictions against measured unit
/// wall times and fits the calibration (see module docs). Units with
/// zero wall time are kept in the correlation but excluded from
/// per-loop error denominators.
#[must_use]
pub fn calibrate(samples: &[UnitSample]) -> CalibrationReport {
    #[allow(clippy::cast_precision_loss)]
    let pairs: Vec<(f64, f64)> = samples
        .iter()
        .map(|u| {
            (
                sweep_priority(u.replication, u.width, u.registers) as f64,
                u.wall_ns as f64,
            )
        })
        .collect();

    // k = Σ(p·t) / Σ(p²): least squares through the origin.
    let (mut pt, mut pp) = (0.0, 0.0);
    for &(p, t) in &pairs {
        pt += p * t;
        pp += p * p;
    }
    let k = if pp > 0.0 { pt / pp } else { 0.0 };

    // Per-loop relative error of the analytic mass at scale k.
    let mut loops: BTreeMap<u32, (f64, f64)> = BTreeMap::new();
    for u in samples {
        let entry = loops.entry(u.loop_index).or_insert((0.0, 0.0));
        #[allow(clippy::cast_precision_loss)]
        {
            entry.0 += sweep_priority(u.replication, u.width, u.registers) as f64;
            entry.1 += u.wall_ns as f64;
        }
    }
    let errs: Vec<f64> = loops
        .values()
        .filter(|(_, measured)| *measured > 0.0)
        .map(|(priority, measured)| (k * priority - measured).abs() / measured)
        .collect();
    #[allow(clippy::cast_precision_loss)]
    let mean_err = if errs.is_empty() {
        0.0
    } else {
        errs.iter().sum::<f64>() / errs.len() as f64
    };
    let max_err = errs.iter().fold(0.0f64, |a, &b| a.max(b));

    // Per-configuration summaries.
    let mut points: BTreeMap<(u32, u32, u32), Vec<u64>> = BTreeMap::new();
    for u in samples {
        points
            .entry((u.replication, u.width, u.registers.map_or(0, |z| z.max(1))))
            .or_default()
            .push(u.wall_ns);
    }
    let mut cal_points: Vec<CalPoint> = points
        .into_iter()
        .map(|((x, y, z), mut walls)| {
            walls.sort_unstable();
            let registers = (z > 0).then_some(z);
            let median_ns = walls[walls.len() / 2];
            let sum: u64 = walls.iter().fold(0u64, |a, &b| a.saturating_add(b));
            #[allow(
                clippy::cast_precision_loss,
                clippy::cast_sign_loss,
                clippy::cast_possible_truncation
            )]
            let calibrated_priority = if k > 0.0 {
                ((median_ns as f64 / k).round() as u64).max(1)
            } else {
                sweep_priority(x, y, registers)
            };
            CalPoint {
                replication: x,
                width: y,
                registers,
                units: walls.len() as u64,
                mean_ns: sum / walls.len() as u64,
                median_ns,
                analytic_priority: sweep_priority(x, y, registers),
                calibrated_priority,
            }
        })
        .collect();
    cal_points.sort_by_key(|p| p.analytic_priority);

    CalibrationReport {
        unit_count: samples.len() as u64,
        loop_count: loops.len() as u64,
        rank_correlation: spearman(&pairs),
        scale_ns_per_priority: k,
        mean_loop_rel_err: mean_err,
        max_loop_rel_err: max_err,
        points: cal_points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(loop_index: u32, x: u32, y: u32, z: Option<u32>, wall_ns: u64) -> UnitSample {
        UnitSample {
            loop_index,
            replication: x,
            width: y,
            registers: z,
            wall_ns,
        }
    }

    #[test]
    fn spearman_matches_known_values() {
        // Perfect monotone agreement.
        let up: Vec<(f64, f64)> = (0..10).map(|i| (f64::from(i), f64::from(i * i))).collect();
        assert!((spearman(&up) - 1.0).abs() < 1e-12);
        // Perfect inversion.
        let down: Vec<(f64, f64)> = (0..10).map(|i| (f64::from(i), f64::from(-i))).collect();
        assert!((spearman(&down) + 1.0).abs() < 1e-12);
        // Degenerate inputs are 0, not NaN.
        assert_eq!(spearman(&[]), 0.0);
        assert_eq!(spearman(&[(1.0, 2.0)]), 0.0);
        assert_eq!(spearman(&[(1.0, 2.0), (1.0, 3.0)]), 0.0);
        // Ties get average ranks: still well-defined.
        let tied = [(1.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 3.0)];
        let rho = spearman(&tied);
        assert!(rho > 0.0 && rho <= 1.0, "{rho}");
    }

    #[test]
    fn perfectly_proportional_latencies_calibrate_exactly() {
        // wall = 3 ns per priority unit, two loops.
        let mut samples = Vec::new();
        for li in 0..2 {
            for (x, y, z) in [(1, 1, Some(64)), (2, 2, Some(64)), (4, 2, Some(128))] {
                samples.push(unit(li, x, y, z, 3 * sweep_priority(x, y, z)));
            }
        }
        let report = calibrate(&samples);
        assert_eq!(report.unit_count, 6);
        assert_eq!(report.loop_count, 2);
        assert!((report.rank_correlation - 1.0).abs() < 1e-12);
        assert!((report.scale_ns_per_priority - 3.0).abs() < 1e-9);
        assert!(report.mean_loop_rel_err < 1e-9);
        assert!(report.max_loop_rel_err < 1e-9);
        // Calibrated priorities reproduce the analytic ones.
        for p in &report.points {
            assert_eq!(p.calibrated_priority, p.analytic_priority);
        }
    }

    #[test]
    fn miscalibrated_magnitudes_show_up_in_loop_error() {
        // Rank order agrees, but the magnitude is badly non-linear:
        // the heavy point is 100× slower than its priority suggests.
        let samples = [
            unit(0, 1, 1, Some(64), 1_000),
            unit(0, 2, 2, Some(64), 2_000),
            unit(1, 1, 1, Some(64), 1_000),
            unit(1, 4, 2, Some(32), 50_000_000),
        ];
        let report = calibrate(&samples);
        assert!(report.rank_correlation > 0.7);
        assert!(report.max_loop_rel_err > 0.5, "{}", report.max_loop_rel_err);
        // The measured priorities price the heavy point from measurement.
        let calibrated = |x, y, z| {
            report
                .points
                .iter()
                .find(|p| (p.replication, p.width, p.registers) == (x, y, z))
                .expect("measured point")
                .calibrated_priority
        };
        assert!(calibrated(4, 2, Some(32)) > calibrated(2, 2, Some(64)));
    }
}
