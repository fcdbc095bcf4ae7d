//! Perf-ledger codec benchmarks: serialising, parsing and comparing
//! the machine-readable perf report (`widening_obs::report`), plus the
//! `perf calibrate` fit of the analytic priority. These paths run in every CI perf-smoke
//! job, so the ledger itself must stay cheap relative to the suite it
//! measures.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use widening::cost::calibrate;
use widening_obs::report::{compare, CompareConfig, PerfReport, UnitSample};

/// A synthetic report shaped like a real `perf record` of the quick
/// suite: a handful of probes, a few stages, and one unit sample per
/// `(loop × config)` cell.
fn synthetic_report(loops: u32) -> PerfReport {
    let mut r = PerfReport::new();
    r.meta.insert("suite".into(), "synthetic".into());
    for rep in 0..3u64 {
        r.push_sample("sweep.wall_ns", 1_000_000_000 + rep * 7_000_000);
        r.push_sample("corpus.generate.wall_ns", 40_000_000 + rep * 900_000);
        r.push_sample("baseline256.wall_ns", 90_000_000 + rep * 2_000_000);
    }
    for stage in ["widen", "mii", "base-schedule", "schedule"] {
        r.counters
            .insert(format!("store.{stage}.requests"), 6 * u64::from(loops));
    }
    for li in 0..loops {
        for (x, y, z) in [(1, 1, 64), (2, 2, 64), (4, 2, 64), (4, 2, 128)] {
            r.units.push(UnitSample {
                loop_index: li,
                replication: x,
                width: y,
                registers: Some(z),
                wall_ns: u64::from(x * y * li.max(1)) * 10_000,
            });
        }
    }
    r
}

fn bench_perf_ledger(c: &mut Criterion) {
    let mut g = c.benchmark_group("perf_ledger");
    let report = synthetic_report(48);
    let text = report.to_json();

    g.bench_function("report_to_json_48_loops", |b| {
        b.iter(|| black_box(report.to_json()))
    });
    g.bench_function("report_from_json_48_loops", |b| {
        b.iter(|| black_box(PerfReport::from_json(&text).unwrap()))
    });
    g.bench_function("compare_two_reports", |b| {
        let cand = synthetic_report(48);
        b.iter(|| black_box(compare(&report, &cand, &CompareConfig::default())))
    });
    g.bench_function("calibrate_192_units", |b| {
        b.iter(|| black_box(calibrate(&report.units)))
    });
    g.finish();
}

criterion_group!(benches, bench_perf_ledger);
criterion_main!(benches);
