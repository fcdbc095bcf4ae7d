//! Compile-chain throughput on the hot path itself: the modulo
//! scheduler and the cyclic register allocator, isolated from caching,
//! I/O and fleet plumbing.
//!
//! Four tiers, all over the same 60-loop corpus:
//!
//! * `allocate/*` — the **allocator alone**: `allocate_in` over the
//!   lifetimes of each loop's base schedule, precomputed outside the
//!   timer (the packer race every base schedule and spill round runs).
//! * `schedule_allocate/*` — the **schedule + allocate hot loop**: the
//!   widened graphs and MII bounds are precomputed outside the timer,
//!   so the measurement is exactly one `ModuloScheduler` run plus
//!   lifetime extraction plus the end-fit allocation per loop. This is
//!   the per-unit cost every sweep consumer pays after the widen/MII
//!   stages hit a cache.
//! * `schedule_allocate_spill/*` — the same loops driven through the
//!   full spill engine against a finite register file, including the
//!   pressure points (`Z = 32`) where spill rounds re-enter the
//!   scheduler several times.
//! * `full_chain/*` — `compile_ddg` end to end (widen → MII →
//!   schedule → allocate → spill) at several `X/Y/Z` design points,
//!   the uncached cold-compile cost.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use widening::machine::{Configuration, CycleModel};
use widening::pipeline::{compile_ddg, PointSpec};
use widening::regalloc::{
    allocate_in, lifetimes, lifetimes_into, schedule_with_registers, AllocScratch, SpillOptions,
};
use widening::sched::{MiiBounds, ModuloScheduler, SchedScratch, SchedulerOptions};
use widening::transform::widen;
use widening::workload::corpus::{generate, CorpusSpec};
use widening::EvalOptions;

const MODEL: CycleModel = CycleModel::Cycles4;

fn bench_sched_alloc_throughput(c: &mut Criterion) {
    let loops = generate(&CorpusSpec::small(60, 7));

    let mut g = c.benchmark_group("sched_alloc_throughput");
    g.sample_size(10);

    // --- schedule + allocate hot loop (widen/MII precomputed) --------
    for (label, x, y) in [("1w1", 1, 1), ("2w2", 2, 2), ("4w2", 4, 2)] {
        let cfg = Configuration::monolithic(x, y, 256).unwrap();
        let prepared: Vec<_> = loops
            .iter()
            .map(|l| {
                let wide = widen(l.ddg(), y).ddg().clone();
                let bounds = MiiBounds::compute(&wide, &cfg, MODEL);
                (wide, bounds)
            })
            .collect();
        let scheduler = ModuloScheduler::with_options(cfg, MODEL, SchedulerOptions::default());
        // Steady-state form: one warm scratch arena across the whole
        // corpus, as the sweep pipeline runs it.
        let mut sched_scratch = SchedScratch::new();
        let mut alloc_scratch = AllocScratch::new();
        let base: Vec<_> = prepared
            .iter()
            .map(|(wide, bounds)| {
                let s = scheduler
                    .schedule_with(wide, bounds, 1, &mut sched_scratch)
                    .expect("corpus loops schedule");
                (lifetimes(wide, &s, MODEL), s.ii())
            })
            .collect();
        g.bench_function(format!("allocate/{label}"), |b| {
            b.iter(|| {
                let mut regs = 0u64;
                for (lts, ii) in &base {
                    let a = allocate_in(lts, *ii, &mut alloc_scratch);
                    regs += u64::from(a.registers_used());
                }
                black_box(regs)
            })
        });
        let mut lts = Vec::new();
        g.bench_function(format!("schedule_allocate/{label}"), |b| {
            b.iter(|| {
                let mut regs = 0u64;
                for (wide, bounds) in &prepared {
                    let s = scheduler
                        .schedule_with(wide, bounds, 1, &mut sched_scratch)
                        .expect("corpus loops schedule");
                    lifetimes_into(wide, &s, MODEL, &mut lts);
                    let a = allocate_in(&lts, s.ii(), &mut alloc_scratch);
                    regs += u64::from(a.registers_used());
                }
                black_box(regs)
            })
        });
    }

    // --- schedule + allocate + spill against a finite file -----------
    for (label, x, y, z) in [("2w2_z64", 2, 2, 64), ("4w2_z32", 4, 2, 32)] {
        let cfg = Configuration::monolithic(x, y, z).unwrap();
        let wides: Vec<_> = loops
            .iter()
            .map(|l| Arc::clone(widen(l.ddg(), y).shared_ddg()))
            .collect();
        g.bench_function(format!("schedule_allocate_spill/{label}"), |b| {
            b.iter(|| {
                // Some loops genuinely cannot fit a tiny file (the
                // paper's §3.2 failures) — the engine's clean Pressure
                // error is part of the measured work, not a bench bug.
                let mut total_ii = 0u64;
                for wide in &wides {
                    match schedule_with_registers(
                        wide,
                        &cfg,
                        MODEL,
                        &SchedulerOptions::default(),
                        &SpillOptions::default(),
                    ) {
                        Ok(r) => total_ii += u64::from(r.schedule.ii()),
                        Err(_) => total_ii += 1,
                    }
                }
                black_box(total_ii)
            })
        });
    }

    // --- full uncached chain at several X/Y/Z design points ----------
    let points = [
        ("1w1_z64", 1, 1, 64),
        ("2w2_z128", 2, 2, 128),
        ("4w2_z256", 4, 2, 256),
    ];
    for (label, x, y, z) in points {
        let cfg = Configuration::monolithic(x, y, z).unwrap();
        let spec = PointSpec::scheduled(&cfg, MODEL, EvalOptions::default());
        g.bench_function(format!("full_chain/{label}"), |b| {
            b.iter(|| {
                let mut ii = 0u64;
                for l in &loops {
                    let compiled = compile_ddg(l.ddg(), &spec).expect("compiles");
                    ii += u64::from(compiled.ii());
                }
                black_box(ii)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_sched_alloc_throughput);
criterion_main!(benches);
