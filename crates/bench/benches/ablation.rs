//! Ablation benchmarks: scheduler strategy, spill policy and latency
//! adaptation.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use widening::experiments::{self, Context};
use widening::machine::{Configuration, CycleModel};
use widening::sched::{ModuloScheduler, SchedulerOptions, Strategy};
use widening::workload::kernels;

fn bench_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation");
    g.sample_size(10);
    let ctx = Context::quick(20);
    g.bench_function("ablate_sched_20_loops", |b| {
        b.iter(|| black_box(experiments::ablate_sched(&ctx)))
    });
    g.bench_function("ablate_spill_20_loops", |b| {
        b.iter(|| black_box(experiments::ablate_spill(&ctx)))
    });
    g.bench_function("ablate_latency_20_loops", |b| {
        b.iter(|| black_box(experiments::ablate_latency(&ctx)))
    });
    // Per-strategy scheduling cost on one kernel.
    let mac = kernels::complex_mac();
    let cfg = Configuration::monolithic(2, 1, 256).unwrap();
    for strat in Strategy::ALL {
        g.bench_function(format!("schedule_complex_mac_{}", strat.label()), |b| {
            let s = ModuloScheduler::with_options(
                cfg,
                CycleModel::Cycles4,
                SchedulerOptions { strategy: strat },
            );
            b.iter(|| black_box(s.schedule(mac.ddg()).unwrap()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
