//! Segment-log contracts at the pipeline boundary: what a sweep leaves
//! on disk, which record wins after a recompute, and re-fetching
//! evicted entries from the pipeline's own segment.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// The sweep grid of `repro sweep`.
fn grid() -> Vec<PointSpec> {
    points(&[
        "1w1(64:1)",
        "1w1(128:1)",
        "2w2(64:1)",
        "2w2(128:1)",
        "4w2(64:1)",
        "4w2(128:1)",
    ])
}

/// A fresh, empty cache directory unique to this test invocation.
fn cache_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "widening-segments-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every file under `dir`, recursively, sorted.
fn files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

#[test]
fn a_cold_sweep_writes_one_segment_and_a_warm_one_writes_nothing() {
    let dir = cache_dir("traffic");
    let loops = generate(&CorpusSpec::small(12, 41));
    let grid = grid();

    let cold = Pipeline::with_config(Arc::new(loops.clone()), StoreConfig::persistent(&dir));
    let _ = cold.sweep(&grid, 2);
    for li in 0..loops.len() {
        let _ = cold.lowered(li, &grid[1]);
    }
    assert!(cold.stage_counts().live_runs() > 0);
    drop(cold);
    let written = files(&dir);
    assert_eq!(
        written.len(),
        1,
        "one segment, no per-artifact file: {written:?}"
    );
    assert_eq!(written[0].extension().and_then(|e| e.to_str()), Some("seg"));

    let warm = Pipeline::with_config(Arc::new(loops.clone()), StoreConfig::persistent(&dir));
    let _ = warm.sweep(&grid, 2);
    for li in 0..loops.len() {
        let _ = warm.lowered(li, &grid[1]);
    }
    assert_eq!(warm.stage_counts().live_runs(), 0);
    assert_eq!(warm.disk_errors(), 0);
    drop(warm);
    assert_eq!(files(&dir), written, "a read-only pipeline creates no file");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn the_newest_record_wins_after_a_recompute() {
    let dir = cache_dir("newest");
    let loops = Arc::new(generate(&CorpusSpec::small(8, 43)));
    let grid = points(&["2w2(64:1)", "4w2(128:1)"]);
    let run = || {
        let p = Pipeline::with_config(Arc::clone(&loops), StoreConfig::persistent(&dir));
        let results = p.sweep(&grid, 1);
        (p.stage_counts(), p.disk_errors(), results)
    };

    let (_, _, cold) = run();
    // Corrupt the last record's payload.
    let segment = files(&dir).pop().expect("the cold run wrote a segment");
    let mut bytes = std::fs::read(&segment).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x5a;
    std::fs::write(&segment, bytes).unwrap();

    // The next run misses that record, counts it and appends the
    // recomputed artifact to a segment of its own.
    let (counts, errors, _) = run();
    assert_eq!(errors, 1);
    assert!(counts.live_runs() > 0, "{counts:?}");
    assert_eq!(files(&dir).len(), 2);

    // The third run reads the newer record, not the corrupt one.
    let (counts, errors, warm) = run();
    assert_eq!(counts.live_runs(), 0, "{counts:?}");
    assert_eq!(errors, 0);
    for (a, b) in cold.iter().flatten().zip(warm.iter().flatten()) {
        match (a, b) {
            (Ok(a), Ok(b)) => {
                assert_eq!((a.ii(), a.registers_used()), (b.ii(), b.registers_used()));
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            (a, b) => panic!("replay changed outcome: {a:?} vs {b:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn evicted_entries_are_re_fetched_from_the_pipelines_own_segment() {
    let dir = cache_dir("refetch");
    let loops = generate(&CorpusSpec::small(20, 7));
    let pipeline = Pipeline::with_config(
        Arc::new(loops),
        StoreConfig::persistent(&dir).with_memory_budget(16 * 1024),
    );
    // Spilling register files: only spill-engine stages are schedule
    // entries, so these give the budget something to evict.
    let grid = points(&["2w1(32:1)", "2w1(64:1)", "4w2(32:1)", "4w2(64:1)"]);
    for spec in &grid {
        let _ = pipeline.sweep(std::slice::from_ref(spec), 2);
        pipeline.seal_point(spec);
    }
    let before = pipeline.stage_counts();
    assert!(before.schedule_evictions > 0, "{before:?}");
    assert_eq!(before.schedule_disk_hits, 0, "{before:?}");

    let _ = pipeline.sweep(&grid, 2);
    let after = pipeline.stage_counts();
    assert!(after.schedule_disk_hits > 0, "{after:?}");
    assert_eq!(after.live_runs(), before.live_runs(), "{after:?}");
    assert_eq!(pipeline.disk_errors(), 0);
    let _ = std::fs::remove_dir_all(dir);
}
