//! Two-tier store contracts: cross-process warm start over the disk
//! tier, content keys that survive corpus reordering, and LRU
//! byte-budget enforcement in the memory tier.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use widening_machine::{Configuration, CycleModel};
use widening_pipeline::{CompileOptions, Pipeline, PointSpec, StoreConfig};
use widening_workload::corpus::{generate, CorpusSpec};

fn points(specs: &[&str]) -> Vec<PointSpec> {
    specs
        .iter()
        .map(|s| {
            let cfg: Configuration = s.parse().expect("valid literal");
            PointSpec::scheduled(&cfg, CycleModel::Cycles4, CompileOptions::default())
        })
        .collect()
}

/// A fresh, empty cache directory unique to this test invocation.
fn cache_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "widening-store-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn warm_start_runs_zero_live_compile_stages() {
    // The acceptance contract of the disk tier: a second `Pipeline` over
    // the same corpus and cache directory (a fresh process, as far as
    // the in-memory tier is concerned) performs ZERO live widen / MII /
    // base-schedule / schedule stage executions — every stage decodes
    // from disk — and replays bitwise-identical artifacts.
    let dir = cache_dir("warm");
    let loops = generate(&CorpusSpec::small(16, 11));
    // 8w1(32) included deliberately: persisted *failures* must warm too.
    let pts = points(&["1w1(64:1)", "2w2(64:1)", "4w2(128:1)", "8w1(32:1)"]);

    let cold = Pipeline::with_config(
        std::sync::Arc::new(loops.clone()),
        StoreConfig::persistent(&dir),
    );
    let cold_results = cold.sweep(&pts, 4);
    let cc = cold.stage_counts();
    assert!(cc.live_runs() > 0, "cold run must compute: {cc:?}");
    assert_eq!(cc.disk_hits(), 0, "nothing to hit on a cold dir: {cc:?}");
    drop(cold);

    let warm = Pipeline::with_config(std::sync::Arc::new(loops), StoreConfig::persistent(&dir));
    let warm_results = warm.sweep(&pts, 4);
    let wc = warm.stage_counts();
    assert_eq!(wc.widen_runs, 0, "{wc:?}");
    assert_eq!(wc.mii_runs, 0, "{wc:?}");
    assert_eq!(wc.base_schedule_runs, 0, "{wc:?}");
    assert_eq!(wc.schedule_runs, 0, "{wc:?}");
    // Disk decodes are not live runs: no allocator time is recorded.
    let allocate = warm.metrics().histogram("store.base-schedule.allocate-ns");
    assert_eq!(allocate.count(), 0);
    assert!(wc.disk_hits() > 0, "{wc:?}");
    assert_eq!(warm.disk_errors(), 0);

    for (a, b) in cold_results
        .iter()
        .flatten()
        .zip(warm_results.iter().flatten())
    {
        match (a, b) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.ii(), b.ii());
                assert_eq!(a.mii(), b.mii());
                assert_eq!(a.registers_used(), b.registers_used());
                assert_eq!(a.spill_ops(), b.spill_ops());
                let (sa, sb) = (a.scheduled(), b.scheduled());
                assert_eq!(
                    sa.map(|s| s.result.schedule.times().to_vec()),
                    sb.map(|s| s.result.schedule.times().to_vec()),
                    "warm schedule must be the identical artifact"
                );
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "persisted failures must replay"),
            (a, b) => panic!("warm start changed outcome: {a:?} vs {b:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn memory_budget_is_enforced_once_points_are_sealed() {
    // Bounded in-memory tier, no disk: after each design point's
    // aggregates are folded (sealed), the resident bytes of the
    // schedule tier must never exceed the configured budget.
    let budget = 16 * 1024;
    let loops = generate(&CorpusSpec::small(20, 7));
    let pipeline = Pipeline::with_config(
        std::sync::Arc::new(loops),
        StoreConfig {
            cache_dir: None,
            memory_budget: Some(budget),
        },
    );
    // Spilling register files: only spill-engine stages are schedule
    // entries, so these give the budget something to evict.
    let pts = points(&["2w1(32:1)", "2w1(64:1)", "4w2(32:1)", "4w2(64:1)"]);
    for spec in &pts {
        let per_loop = pipeline.sweep(std::slice::from_ref(spec), 4);
        assert!(per_loop[0].iter().all(Result::is_ok));
        pipeline.seal_point(spec);
        let c = pipeline.stage_counts();
        assert!(
            c.schedule_resident_bytes <= budget as u64,
            "resident {} exceeds budget {budget} after sealing {spec:?}",
            c.schedule_resident_bytes
        );
    }
    let c = pipeline.stage_counts();
    assert!(c.schedule_evictions > 0, "tight budget must evict: {c:?}");

    // Evicted entries re-fetch transparently (recomputed here — no disk
    // tier) and still produce correct artifacts.
    let replay = pipeline.sweep(&pts, 4);
    assert!(replay.iter().flatten().all(Result::is_ok));
}

#[test]
fn warm_start_content_keys_survive_corpus_reordering() {
    // Disk keys are content fingerprints, not corpus indices: a second
    // pipeline over the SAME loops in a DIFFERENT order still warm
    // starts with zero live stage executions.
    let dir = cache_dir("reorder");
    let mut loops = generate(&CorpusSpec::small(10, 3));
    let pts = points(&["2w2(64:1)"]);

    let cold = Pipeline::with_config(
        std::sync::Arc::new(loops.clone()),
        StoreConfig::persistent(&dir),
    );
    let _ = cold.sweep(&pts, 2);
    drop(cold);

    loops.reverse();
    let warm = Pipeline::with_config(std::sync::Arc::new(loops), StoreConfig::persistent(&dir));
    let _ = warm.sweep(&pts, 2);
    let wc = warm.stage_counts();
    assert_eq!(wc.live_runs(), 0, "{wc:?}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn fitting_register_files_share_the_base_stage_cold_and_warm() {
    // A base schedule is its own fit stage: every register file its
    // requirement fits compiles to the base's own schedule and
    // allocation, not a copy, whether the base was computed (cold) or
    // decoded from the disk tier (warm).
    let dir = cache_dir("fit");
    let loops = std::sync::Arc::new(generate(&CorpusSpec::small(16, 11)));
    let pts = points(&["2w2(64:1)", "2w2(128:1)"]);
    let check = |pipeline: &Pipeline| {
        let li = (0..loops.len())
            .find(|&li| {
                pipeline
                    .base_schedule(li, &pts[0])
                    .is_ok_and(|b| b.needed <= 64)
            })
            .expect("some base fits 64 registers");
        let base = pipeline.base_schedule(li, &pts[0]).expect("base schedules");
        let at64 = pipeline.compile(li, &pts[0]).expect("fits 64");
        let at128 = pipeline.compile(li, &pts[1]).expect("fits 128");
        let (a, b) = (
            at64.scheduled().expect("64"),
            at128.scheduled().expect("128"),
        );
        assert!(std::ptr::eq(&a.result.allocation, &b.result.allocation));
        assert!(std::ptr::eq(&a.result.allocation, base.allocation()));
        assert!(std::ptr::eq(&a.result.schedule, base.schedule()));
        assert!(std::ptr::eq(&b.result.schedule, base.schedule()));
        // The round-1 graph is the wide graph: its MII is stage 2's.
        assert_eq!(a.final_mii, at64.bounds().mii());
    };

    let cold = Pipeline::with_config(std::sync::Arc::clone(&loops), StoreConfig::persistent(&dir));
    let _ = cold.sweep(&pts, 2);
    check(&cold);
    assert!(cold.stage_counts().base_schedule_runs > 0);
    drop(cold);

    let warm = Pipeline::with_config(std::sync::Arc::clone(&loops), StoreConfig::persistent(&dir));
    check(&warm);
    let wc = warm.stage_counts();
    assert_eq!(wc.live_runs(), 0, "{wc:?}");
    assert!(wc.base_schedule_disk_hits > 0, "{wc:?}");
    assert_eq!(warm.disk_errors(), 0);
    let _ = std::fs::remove_dir_all(dir);
}
