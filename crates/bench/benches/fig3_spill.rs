//! Regenerates Figure 3 (spill study) on a reduced corpus and
//! benchmarks the register-constrained scheduling pipeline per loop.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use widening::experiments::{self, Context};
use widening::machine::{Configuration, CycleModel};
use widening::regalloc::{schedule_with_registers, SpillOptions};
use widening::workload::kernels;

fn bench_fig3(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig3");
    g.sample_size(10);
    let ctx = Context::quick(25);
    g.bench_function("fig3_full_grid_25_loops", |b| {
        b.iter(|| black_box(experiments::fig3(&ctx)))
    });
    let fir = Arc::new(kernels::fir5().ddg().clone());
    let cfg = Configuration::monolithic(4, 1, 32).unwrap();
    g.bench_function("pressure_pipeline_fir5_4w1_32rf", |b| {
        b.iter(|| {
            black_box(
                schedule_with_registers(
                    &fir,
                    &cfg,
                    CycleModel::Cycles4,
                    &Default::default(),
                    &SpillOptions::default(),
                )
                .unwrap(),
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench_fig3);
criterion_main!(benches);
