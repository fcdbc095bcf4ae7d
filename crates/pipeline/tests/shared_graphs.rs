//! One heap copy of each widened graph: every stage without spill code
//! shares the widening stage's `Arc<Ddg>`, cold and warm.
//!
//! A base schedule, the fit stage of every register file it fits and
//! every spill-engine result that inserted no spill code (an II-increase
//! result included) keep `compiled.wide().shared_ddg()` itself; only a
//! stage with spill records owns a graph, which is larger than the wide
//! one. A warm pipeline over the cold run's cache directory decodes
//! every stage, and the spill-free ones decode onto its own widening
//! stage's graph.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use widening_ir::Loop;
use widening_machine::{Configuration, CycleModel};
use widening_pipeline::{CompileOptions, Pipeline, PointSpec, StoreConfig};
use widening_regalloc::{SpillOptions, SpillPolicy};
use widening_workload::corpus::{generate, CorpusSpec};
use widening_workload::kernels;

/// A fresh, empty cache directory unique to this test invocation.
fn cache_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "widening-shared-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn point(spec: &str, policy: SpillPolicy) -> PointSpec {
    let cfg: Configuration = spec.parse().expect("valid literal");
    let opts = CompileOptions {
        spill: SpillOptions { policy },
        ..CompileOptions::default()
    };
    PointSpec::scheduled(&cfg, CycleModel::Cycles4, opts)
}

/// How many stages of each kind one pass over the grid met.
#[derive(Debug, Default, PartialEq, Eq)]
struct Seen {
    shared: usize,
    increased_ii: usize,
    spilled: usize,
}

/// Compiles every loop at every point and checks who owns each stage's
/// graph.
fn check(pipeline: &Pipeline, loops: &[Loop], points: &[PointSpec]) -> Seen {
    let mut seen = Seen::default();
    for spec in points {
        for li in 0..loops.len() {
            let Ok(compiled) = pipeline.compile(li, spec) else {
                continue;
            };
            let wide = compiled.wide().shared_ddg();
            let result = &compiled.scheduled().expect("a register file").result;
            if result.spills.is_empty() {
                assert!(
                    Arc::ptr_eq(&result.ddg, wide),
                    "loop {li} at {spec:?}: a spill-free stage copies the wide graph"
                );
                seen.shared += 1;
                seen.increased_ii += usize::from(result.rounds > 1);
            } else {
                assert!(!Arc::ptr_eq(&result.ddg, wide));
                assert!(result.ddg.num_nodes() > wide.num_nodes());
                seen.spilled += 1;
            }
        }
    }
    seen
}

#[test]
fn spill_free_stages_share_the_wide_graph_cold_and_warm() {
    let dir = cache_dir("graphs");
    let mut loops = kernels::all();
    assert_eq!(loops[5].name(), "vector_divide");
    loops.extend(generate(&CorpusSpec::small(12, 1998)));
    let loops = Arc::new(loops);
    let points = [
        point("4w2(8:1)", SpillPolicy::Adaptive),
        point("4w2(8:1)", SpillPolicy::IncreaseIiOnly),
        point("4w2(64:1)", SpillPolicy::Adaptive),
        point("2w2(128:1)", SpillPolicy::Adaptive),
    ];

    let cold = Pipeline::with_config(Arc::clone(&loops), StoreConfig::persistent(&dir));
    // `vector_divide` spills on 4w2(8:1), and pure II increase serves
    // the same file without spill code.
    let divide = cold
        .compile(5, &points[0])
        .expect("vector_divide fits 8 registers");
    assert!(!divide
        .scheduled()
        .expect("scheduled")
        .result
        .spills
        .is_empty());
    let stretched = cold.compile(5, &points[1]).expect("II increase fits too");
    assert!(stretched.scheduled().expect("scheduled").result.rounds > 1);
    let cold_seen = check(&cold, &loops, &points);
    assert!(
        cold_seen.spilled > 0 && cold_seen.increased_ii > 0,
        "{cold_seen:?}"
    );
    assert!(cold.stage_counts().schedule_runs > 0);
    drop(cold);

    let warm = Pipeline::with_config(Arc::clone(&loops), StoreConfig::persistent(&dir));
    let warm_seen = check(&warm, &loops, &points);
    assert_eq!(warm_seen, cold_seen);
    let counts = warm.stage_counts();
    assert_eq!(counts.live_runs(), 0, "{counts:?}");
    assert!(counts.schedule_disk_hits > 0, "{counts:?}");
    assert_eq!(warm.disk_errors(), 0);
    let _ = std::fs::remove_dir_all(dir);
}
