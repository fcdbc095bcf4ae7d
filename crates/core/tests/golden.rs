//! Golden regression test: the pipeline-based evaluator must reproduce
//! the seed evaluator's corpus aggregates **bitwise**.
//!
//! The expected values were recorded from the pre-refactor evaluator
//! (the duplicated widen → schedule → allocate → spill chain) on the
//! `CorpusSpec::small(40, 9)` corpus and the named kernels. Any change
//! to these bits means the staged pipeline altered an analytic result —
//! which is either a deliberate modelling change (re-record the values
//! and say so in the commit) or a bug.

use std::sync::Arc;

use widening::{CorpusEval, EvalOptions, Evaluator};
use widening_machine::{Configuration, CycleModel};
use widening_pipeline::{PointSpec, StoreConfig};
use widening_workload::{corpus, kernels};

/// `(tag, total_cycles, total_kernel_words, total_static_words, failed,
/// at_mii, spill_ops)` — the f64 aggregates as raw bits.
const GOLDEN: [(&str, u64, u64, u64, usize, usize, u64); 8] = [
    (
        "peak-1w1",
        0x41215e9b2e2d273f,
        0x40a79f44929bff16,
        0x4082780000000000,
        0,
        40,
        0,
    ),
    (
        "peak-2w2",
        0x4107f5fa205f8dbd,
        0x409d8c1bd17b8b6c,
        0x4079500000000000,
        0,
        40,
        0,
    ),
    (
        "peak-4w2",
        0x40fcadddeac77af2,
        0x40917ebabd21a6e3,
        0x406f600000000000,
        0,
        40,
        0,
    ),
    (
        "sched-4w2-64",
        0x410112c6104a462c,
        0x40960736e8402a46,
        0x4072600000000000,
        0,
        22,
        2,
    ),
    (
        "sched-4w1-32",
        0x411d5fdf264b7b9a,
        0x40a3e44b779c67bd,
        0x407ee00000000000,
        0,
        14,
        12,
    ),
    (
        "sched-1w1-256",
        0x41215e9b2e2d273f,
        0x40a79f44929bff16,
        0x4082780000000000,
        0,
        40,
        0,
    ),
    (
        "sched-2w2-64-c2",
        0x41059047288d3ea9,
        0x409b387fd242671c,
        0x4076800000000000,
        0,
        40,
        0,
    ),
    (
        "kernels-2w2-64",
        0x40c85b0000000000,
        0x4054000000000000,
        0x4054000000000000,
        0,
        12,
        0,
    ),
];

fn check(tag: &str, e: &CorpusEval) {
    let (_, cycles, words, static_words, failed, at_mii, spill_ops) = GOLDEN
        .iter()
        .find(|g| g.0 == tag)
        .copied()
        .unwrap_or_else(|| panic!("no golden row {tag}"));
    assert_eq!(
        e.total_cycles.to_bits(),
        cycles,
        "{tag}: total_cycles {} != golden {}",
        e.total_cycles,
        f64::from_bits(cycles)
    );
    assert_eq!(
        e.total_kernel_words.to_bits(),
        words,
        "{tag}: total_kernel_words"
    );
    assert_eq!(
        e.total_static_words.to_bits(),
        static_words,
        "{tag}: total_static_words"
    );
    assert_eq!(e.failed, failed, "{tag}: failed");
    assert_eq!(e.at_mii, at_mii, "{tag}: at_mii");
    assert_eq!(e.spill_ops, spill_ops, "{tag}: spill_ops");
}

#[test]
fn evaluator_reproduces_seed_aggregates_bitwise() {
    let ev = Evaluator::new(corpus::generate(&corpus::CorpusSpec::small(40, 9)));
    check("peak-1w1", &ev.peak(1, 1, CycleModel::Cycles4));
    check("peak-2w2", &ev.peak(2, 2, CycleModel::Cycles4));
    check("peak-4w2", &ev.peak(4, 2, CycleModel::Cycles4));
    let sched = |x, y, z| -> Arc<CorpusEval> {
        let cfg = Configuration::monolithic(x, y, z).unwrap();
        ev.scheduled(&cfg, CycleModel::Cycles4, &EvalOptions::default())
    };
    check("sched-4w2-64", &sched(4, 2, 64));
    check("sched-4w1-32", &sched(4, 1, 32));
    check("sched-1w1-256", &ev.baseline_256());
    check("sched-2w2-64-c2", {
        let cfg = Configuration::monolithic(2, 2, 64).unwrap();
        &ev.scheduled(&cfg, CycleModel::Cycles2, &EvalOptions::default())
    });

    let kv = Evaluator::new(kernels::all());
    let cfg = Configuration::monolithic(2, 2, 64).unwrap();
    check(
        "kernels-2w2-64",
        &kv.scheduled(&cfg, CycleModel::Cycles4, &EvalOptions::default()),
    );
}

#[test]
fn disk_tier_reproduces_seed_aggregates_bitwise() {
    // Artifacts decoded from the persistent store must land on the very
    // same golden bits as live compilation — cold (populating the cache)
    // and warm (a fresh evaluator decoding every stage from disk) alike.
    let dir = std::env::temp_dir().join(format!("widening-golden-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let loops = corpus::generate(&corpus::CorpusSpec::small(40, 9));
    let run = |tag: &str| {
        let ev = Evaluator::new(loops.clone()).with_store(StoreConfig::persistent(&dir));
        check("peak-2w2", &ev.peak(2, 2, CycleModel::Cycles4));
        let cfg = Configuration::monolithic(4, 2, 64).unwrap();
        check(
            "sched-4w2-64",
            &ev.scheduled(&cfg, CycleModel::Cycles4, &EvalOptions::default()),
        );
        let cfg = Configuration::monolithic(4, 1, 32).unwrap();
        check(
            "sched-4w1-32",
            &ev.scheduled(&cfg, CycleModel::Cycles4, &EvalOptions::default()),
        );
        (tag.to_string(), ev.pipeline().stage_counts())
    };
    let (_, cold) = run("cold");
    assert!(cold.live_runs() > 0);
    let (_, warm) = run("warm");
    assert_eq!(warm.live_runs(), 0, "warm golden run recompiled: {warm:?}");
    assert!(warm.disk_hits() > 0);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn budgeted_store_reproduces_seed_aggregates_bitwise() {
    // A byte-budgeted in-memory tier evicting sealed schedule entries
    // behind the fold must land on the very same golden bits. The point's
    // 19 spill-engine stages price at about 45 KiB (the 21 stages its base
    // schedules fit are the bases' own and take no entry): 32 KiB evicts.
    let ev = Evaluator::new(corpus::generate(&corpus::CorpusSpec::small(40, 9))).with_store(
        StoreConfig {
            cache_dir: None,
            memory_budget: Some(32 * 1024),
        },
    );
    let cfg = Configuration::monolithic(4, 2, 64).unwrap();
    check(
        "sched-4w2-64",
        &ev.scheduled(&cfg, CycleModel::Cycles4, &EvalOptions::default()),
    );
    check("peak-2w2", &ev.peak(2, 2, CycleModel::Cycles4));
    let counts = ev.pipeline().stage_counts();
    assert!(counts.schedule_evictions > 0, "{counts:?}");
}

#[test]
fn sweep_reproduces_seed_aggregates_bitwise() {
    // The batch engine must land on the same bits as the per-point path
    // (and therefore the seed), stage sharing and all.
    let ev = Evaluator::new(corpus::generate(&corpus::CorpusSpec::small(40, 9)));
    let specs: Vec<PointSpec> = [(4u32, 2u32, 64u32), (4, 1, 32), (1, 1, 256)]
        .iter()
        .map(|&(x, y, z)| {
            let cfg = Configuration::monolithic(x, y, z).unwrap();
            PointSpec::scheduled(&cfg, CycleModel::Cycles4, EvalOptions::default())
        })
        .collect();
    let batch = ev.sweep_specs(&specs);
    check("sched-4w2-64", &batch[0]);
    check("sched-4w1-32", &batch[1]);
    check("sched-1w1-256", &batch[2]);
}
