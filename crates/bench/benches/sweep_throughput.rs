//! Sweep-engine throughput: evaluating the `{1w1, 2w2, 4w2}` design
//! points across register-file sizes as independent per-config runs
//! (fresh evaluator per configuration — no shared state, the seed's
//! behaviour) versus one shared-cache `sweep` batch — and, for the
//! two-tier artifact store, a **cold-vs-warm disk** comparison: the
//! cold case compiles every stage and persists it into a fresh cache
//! directory; the warm case starts a fresh evaluator (empty in-memory
//! tier, a new process as far as the store is concerned) and decodes
//! every artifact from the populated directory instead of compiling.
//!
//! The `single_process_1thread` / `sharded_2workers` pair measures the
//! distributed engine's scaling claim on the 60-loop × 9-config grid:
//! one evaluator on one thread versus a coordinator plus two workers
//! (each with its own pipeline, one thread apiece) claiming guided
//! self-scheduled shards and exchanging artifacts through a cold
//! shared store.
//!
//! `traced_shared_cache_sweep` repeats the shared-cache batch with the
//! span recorder installed: the delta against `shared_cache_sweep` is
//! the recording overhead (the acceptance bar is ≤ 5%). A final traced
//! run exports the per-stage latency table through the same Chrome
//! JSON → analyze path `repro trace summarize` uses.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use widening::distrib::Launcher;
use widening::distributed::{sweep_distributed, DistributedOptions};
use widening::machine::{Configuration, CycleModel};
use widening::pipeline::{PointSpec, StoreConfig};
use widening::workload::corpus::{generate, CorpusSpec};
use widening::{EvalOptions, Evaluator};
use widening_obs as obs;

const SWEEP: [&str; 9] = [
    "1w1(64:1)",
    "1w1(128:1)",
    "1w1(256:1)",
    "2w2(64:1)",
    "2w2(128:1)",
    "2w2(256:1)",
    "4w2(64:1)",
    "4w2(128:1)",
    "4w2(256:1)",
];

fn unique_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "widening-bench-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn bench_sweep_throughput(c: &mut Criterion) {
    let loops = generate(&CorpusSpec::small(60, 7));
    let cfgs: Vec<Configuration> = SWEEP.iter().map(|s| s.parse().unwrap()).collect();
    let specs: Vec<PointSpec> = cfgs
        .iter()
        .map(|c| PointSpec::scheduled(c, CycleModel::Cycles4, EvalOptions::default()))
        .collect();

    let mut g = c.benchmark_group("sweep_throughput");
    g.sample_size(10);
    g.bench_function("independent_per_config", |b| {
        b.iter(|| {
            // One evaluator per configuration: nothing shared, every
            // point re-widens the corpus from scratch.
            let mut total = 0.0;
            for cfg in &cfgs {
                let ev = Evaluator::new(loops.clone());
                total += ev
                    .scheduled(cfg, CycleModel::Cycles4, &EvalOptions::default())
                    .total_cycles;
            }
            black_box(total)
        })
    });
    g.bench_function("shared_cache_sweep", |b| {
        b.iter(|| {
            let ev = Evaluator::new(loops.clone());
            let results = ev.sweep_specs(&specs);
            black_box(results.iter().map(|e| e.total_cycles).sum::<f64>())
        })
    });
    g.bench_function("traced_shared_cache_sweep", |b| {
        // Identical work with the span recorder installed: the delta
        // against `shared_cache_sweep` is the recording overhead.
        let recorder = obs::Recorder::new("bench");
        obs::install(&recorder);
        b.iter(|| {
            let ev = Evaluator::new(loops.clone());
            let results = ev.sweep_specs(&specs);
            black_box(results.iter().map(|e| e.total_cycles).sum::<f64>())
        });
        obs::uninstall();
    });
    // Used cold directories are torn down after the measurement: the
    // cold figure must price compile + persist, not fs teardown.
    let cold_dirs = std::cell::RefCell::new(Vec::new());
    g.bench_function("cold_disk_sweep", |b| {
        // Compile everything AND persist it into a fresh directory:
        // the write-side overhead of the disk tier.
        b.iter(|| {
            let dir = unique_dir("cold");
            let ev = Evaluator::new(loops.clone()).with_store(StoreConfig::persistent(&dir));
            let results = ev.sweep_specs(&specs);
            cold_dirs.borrow_mut().push(dir);
            black_box(results.iter().map(|e| e.total_cycles).sum::<f64>())
        })
    });
    for dir in cold_dirs.into_inner() {
        let _ = std::fs::remove_dir_all(dir);
    }
    // Populate one directory, then measure pure warm starts against it.
    let warm_dir = unique_dir("warm");
    {
        let ev = Evaluator::new(loops.clone()).with_store(StoreConfig::persistent(&warm_dir));
        let _ = ev.sweep_specs(&specs);
    }
    g.bench_function("warm_disk_sweep", |b| {
        b.iter(|| {
            // Fresh evaluator = empty memory tier: every stage decodes
            // from the populated store instead of compiling.
            let ev = Evaluator::new(loops.clone()).with_store(StoreConfig::persistent(&warm_dir));
            let results = ev.sweep_specs(&specs);
            black_box(results.iter().map(|e| e.total_cycles).sum::<f64>())
        })
    });
    let _ = std::fs::remove_dir_all(warm_dir);

    // --- distributed sharding vs a single-threaded single process ----
    g.bench_function("single_process_1thread", |b| {
        b.iter(|| {
            let ev = Evaluator::new(loops.clone()).with_threads(1);
            let results = ev.sweep_specs(&specs);
            black_box(results.iter().map(|e| e.total_cycles).sum::<f64>())
        })
    });
    let shard_dirs = std::cell::RefCell::new(Vec::new());
    g.bench_function("sharded_2workers", |b| {
        b.iter(|| {
            // Cold shared store each iteration: the sharded figure pays
            // manifest + queue + publish costs, honestly (one batch
            // result record per shard).
            let dir = unique_dir("shard");
            let ev = Evaluator::new(loops.clone()).with_store(StoreConfig::persistent(&dir));
            let swept = sweep_distributed(
                &ev,
                &specs,
                &DistributedOptions::new(2),
                &Launcher::InProcess,
            )
            .expect("sharded sweep completes");
            shard_dirs.borrow_mut().push(dir);
            black_box(swept.aggregates.iter().map(|e| e.total_cycles).sum::<f64>())
        })
    });
    for dir in shard_dirs.into_inner() {
        let _ = std::fs::remove_dir_all(dir);
    }
    g.finish();

    // Per-stage latency table from one traced shared-cache sweep,
    // through the same export path `repro trace summarize` uses.
    let recorder = obs::Recorder::new("bench");
    obs::install(&recorder);
    {
        let ev = Evaluator::new(loops.clone());
        let _ = ev.sweep_specs(&specs);
    }
    obs::uninstall();
    let json = obs::chrome_trace_json(&[recorder.snapshot()]);
    let doc = obs::analyze::parse_chrome(&obs::json::parse(&json).expect("trace parses"))
        .expect("trace validates");
    eprintln!("per-stage latency, µs (log2-bucket upper-bound percentiles):");
    eprintln!(
        "{:>14}  {:>6}  {:>10}  {:>10}  {:>10}",
        "span", "count", "p50", "p90", "p99"
    );
    for s in obs::analyze::per_stage_stats(&doc.spans) {
        eprintln!(
            "{:>14}  {:>6}  {:>10.1}  {:>10.1}  {:>10.1}",
            s.name, s.count, s.p50_us, s.p90_us, s.p99_us
        );
    }
}

criterion_group!(benches, bench_sweep_throughput);
criterion_main!(benches);
