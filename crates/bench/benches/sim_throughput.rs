//! Simulator hot-path benchmark: simulated loops per second at the
//! scalar baseline `1w1` versus the paper's winner `4w2`, for both
//! execution backends — the cycle-level interpreter and the lowered
//! `WideProgram` bytecode — plus the lowering step itself and the
//! scalar reference interpreter alone. Future PRs touching the
//! simulator's issue loop, operand resolution, forwarding rings or the
//! bytecode executor should watch these numbers.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use widening::lower::lower;
use widening::machine::{Configuration, CycleModel};
use widening::regalloc::schedule_with_registers;
use widening::sim::{run_reference, simulate_scheduled, Backend, WideMachine};
use widening::transform::widen;
use widening::workload::kernels;

fn bench_sim_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_throughput");
    g.sample_size(20);
    let model = CycleModel::Cycles4;
    let loops = kernels::all();

    for spec in ["1w1(64:1)", "4w2(128:1)"] {
        let cfg: Configuration = spec.parse().unwrap();
        // Pre-schedule outside the timed region: the benchmark tracks
        // the simulator, not the scheduler.
        let prepared: Vec<_> = loops
            .iter()
            .map(|l| {
                let outcome = widen(l.ddg(), cfg.widening());
                let result = schedule_with_registers(
                    outcome.shared_ddg(),
                    &cfg,
                    model,
                    &Default::default(),
                    &Default::default(),
                )
                .unwrap_or_else(|e| panic!("{} on {spec}: {e}", l.name()));
                (l.clone(), outcome, result)
            })
            .collect();

        g.bench_function(format!("machine_only_{spec}"), |b| {
            b.iter(|| {
                for (l, outcome, result) in &prepared {
                    let run =
                        WideMachine::new(l.ddg(), outcome, result, model, l.trip_count().min(100))
                            .run()
                            .unwrap();
                    black_box(run.stats.cycles);
                }
            })
        });

        // The lowering step itself: CompiledLoop → WideProgram. Paid
        // once per design point (then memoized), so it only has to be
        // cheap relative to scheduling — but it should never regress
        // silently either.
        g.bench_function(format!("lower_{spec}"), |b| {
            b.iter(|| {
                for (l, outcome, result) in &prepared {
                    black_box(lower(l.ddg(), outcome, result).num_insts());
                }
            })
        });

        // The decode-free bytecode executor over pre-lowered programs —
        // the apples-to-apples rival of `machine_only` above (same
        // trips, same stats, bitwise-equal runs).
        let programs: Vec<_> = prepared
            .iter()
            .map(|(l, outcome, result)| (l.clone(), lower(l.ddg(), outcome, result)))
            .collect();
        g.bench_function(format!("lowered_exec_{spec}"), |b| {
            b.iter(|| {
                for (l, program) in &programs {
                    let run = program.exec(l.trip_count().min(100));
                    black_box(run.stats.cycles);
                }
            })
        });

        g.bench_function(format!("validated_{spec}"), |b| {
            b.iter(|| {
                for (l, outcome, result) in &prepared {
                    let report = simulate_scheduled(
                        l.ddg(),
                        outcome,
                        result,
                        model,
                        l.trip_count().min(100),
                        Backend::Interpret,
                    )
                    .unwrap();
                    assert!(report.is_validated());
                    black_box(report.stats.cycles);
                }
            })
        });
    }

    g.bench_function("scalar_reference_kernels", |b| {
        b.iter(|| {
            for l in &loops {
                black_box(run_reference(l.ddg(), l.trip_count().min(100)));
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench_sim_throughput);
criterion_main!(benches);
