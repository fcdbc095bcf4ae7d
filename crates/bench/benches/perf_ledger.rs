//! Perf-ledger codec benchmarks: serialising, parsing and comparing
//! the machine-readable perf report (`widening_obs::report`). These
//! paths run in every CI perf-smoke job, so the ledger itself must stay
//! cheap relative to the suite it measures.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use widening_obs::report::{compare, PerfReport};

/// A synthetic report shaped like a real `perf record` of the quick
/// suite: a handful of probes and a few stage counters.
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
        b.iter(|| black_box(compare(&report, &cand)))
    });
    g.finish();
}

criterion_group!(benches, bench_perf_ledger);
criterion_main!(benches);
