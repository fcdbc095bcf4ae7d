//! Distributed-sweep integration: bitwise equality of merged
//! aggregates against the in-process sweep, fault injection (a worker
//! killed mid-shard / a dropped lease), and the real `repro worker`
//! process driven over a shared cache directory.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use widening::distrib::{
    run_on_queue, run_worker, CoordinatorConfig, JobQueue, Launcher, SweepManifest, WorkerConfig,
};
use widening::distributed::{merge_published, sweep_distributed, DistributedOptions};
use widening::{CorpusEval, EvalOptions, Evaluator};
use widening_machine::{Configuration, CycleModel};
use widening_pipeline::{store_root, PointSpec, StoreConfig};
use widening_workload::corpus::{generate, CorpusSpec};

fn temp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "widening-core-distrib-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The test grid: includes a pressure-failing point (8w1 on a 32-RF)
/// so failure records cross the wire too.
fn specs() -> Vec<PointSpec> {
    ["1w1(64:1)", "2w2(64:1)", "4w2(128:1)", "8w1(32:1)"]
        .iter()
        .map(|s| {
            PointSpec::scheduled(
                &s.parse::<Configuration>().unwrap(),
                CycleModel::Cycles4,
                EvalOptions::default(),
            )
        })
        .collect()
}

fn assert_bitwise_equal(distributed: &CorpusEval, single: &CorpusEval, tag: &str) {
    assert_eq!(
        distributed.total_cycles.to_bits(),
        single.total_cycles.to_bits(),
        "{tag}: total_cycles"
    );
    assert_eq!(
        distributed.total_kernel_words.to_bits(),
        single.total_kernel_words.to_bits(),
        "{tag}: total_kernel_words"
    );
    assert_eq!(
        distributed.total_static_words.to_bits(),
        single.total_static_words.to_bits(),
        "{tag}: total_static_words"
    );
    assert_eq!(distributed.per_loop, single.per_loop, "{tag}: per_loop");
    assert_eq!(distributed.failed, single.failed, "{tag}: failed");
    assert_eq!(distributed.at_mii, single.at_mii, "{tag}: at_mii");
    assert_eq!(distributed.spill_ops, single.spill_ops, "{tag}: spill_ops");
}

#[test]
fn distributed_sweep_is_bitwise_equal_to_single_process() {
    let cache = temp_dir("bitwise");
    let loops = generate(&CorpusSpec::small(18, 9));
    let specs = specs();

    let eval = Evaluator::new(loops.clone()).with_store(StoreConfig::persistent(&cache));
    let distributed = sweep_distributed(
        &eval,
        &specs,
        &DistributedOptions::new(2),
        &Launcher::InProcess,
    )
    .expect("distributed sweep completes");
    assert_eq!(distributed.fallback_units, 0);

    // An entirely separate evaluator (no cache at all) computes the
    // reference in-process.
    let reference = Evaluator::new(loops).sweep_specs(&specs);
    for ((d, s), spec) in distributed.aggregates.iter().zip(&reference).zip(&specs) {
        assert_bitwise_equal(d, s, &format!("{spec:?}"));
    }
    // The 8w1(32:1) point really exercised the failure path.
    assert!(distributed.aggregates[3].failed > 0);

    // Merged aggregates were installed in the evaluator's memo: a
    // subsequent query is a pure cache hit (same Arc).
    let again = eval.sweep_specs(&specs);
    for (d, a) in distributed.aggregates.iter().zip(&again) {
        assert!(Arc::ptr_eq(d, a), "merge must prime the aggregate memo");
    }
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn killed_worker_is_requeued_and_the_merge_stays_bitwise_equal() {
    // Fault injection per the protocol's own failure model: a worker
    // claims a shard and dies without renewing its lease (exactly what
    // a SIGKILL mid-shard leaves behind). The coordinator must requeue
    // it and the merged sweep must still match single-process bitwise.
    let cache = temp_dir("fault");
    let loops = generate(&CorpusSpec::small(15, 21));
    let specs = specs();
    let eval = Evaluator::new(loops.clone()).with_store(StoreConfig::persistent(&cache));

    let manifest = SweepManifest::partition(loops.clone(), specs.clone(), 5);
    let queue_dir = cache.join("queue").join("fault-injection");
    let queue = JobQueue::create(&queue_dir, &manifest).expect("queue");
    let victim = queue.claim_next("victim-worker").expect("claims a shard");

    let mut cfg = CoordinatorConfig::new(&cache, 2);
    cfg.lease_ttl = Duration::from_millis(120);
    let run = run_on_queue(&queue, &cfg, &Launcher::InProcess).expect("fleet survives the kill");
    assert!(
        run.requeues >= 1,
        "the victim's expired lease must be requeued"
    );
    assert!(queue.is_done(victim), "the victim's shard was reassigned");
    assert!(queue.all_done());

    let (aggregates, fallback) = merge_published(&eval, &specs, Some(&manifest));
    assert_eq!(fallback, 0, "every unit was published despite the kill");
    let reference = Evaluator::new(loops).sweep_specs(&specs);
    for ((d, s), spec) in aggregates.iter().zip(&reference).zip(&specs) {
        assert_bitwise_equal(d, s, &format!("{spec:?}"));
    }
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn real_worker_process_survives_sigkill_via_requeue() {
    // The process-level version: spawn the actual `repro worker`
    // binary, kill it hard as soon as it has claimed work, then let a
    // fresh fleet (plus coordinator requeue) finish the queue.
    let cache = temp_dir("sigkill");
    let loops = generate(&CorpusSpec::small(12, 33));
    let specs = specs();
    let eval = Evaluator::new(loops.clone()).with_store(StoreConfig::persistent(&cache));

    let manifest = SweepManifest::partition(loops.clone(), specs.clone(), 4);
    let queue_dir = cache.join("queue").join("sigkill");
    let queue = JobQueue::create(&queue_dir, &manifest).expect("queue");

    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("worker")
        .arg("--queue")
        .arg(&queue_dir)
        .arg("--cache-dir")
        .arg(&cache)
        .arg("--threads")
        .arg("1")
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawns repro worker");
    // Kill as soon as the worker holds a claim — mid-shard with high
    // probability; even a fully processed shard leaves the test sound
    // (the claim outlives the kill either way, since a killed worker
    // never writes its completion marker for an unfinished shard).
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while queue.remaining() == manifest.shards.len()
        && (0..queue.shard_count()).all(|s| !queue_dir.join(format!("shard-{s}.claim")).exists())
    {
        assert!(std::time::Instant::now() < deadline, "worker never claimed");
        std::thread::sleep(Duration::from_millis(2));
    }
    child.kill().expect("SIGKILL");
    let _ = child.wait();

    let mut cfg = CoordinatorConfig::new(&cache, 2);
    cfg.lease_ttl = Duration::from_millis(150);
    let run = run_on_queue(&queue, &cfg, &Launcher::InProcess).expect("queue drains");
    assert!(queue.all_done());
    // The kill either left an expired claim (requeued) or a completed
    // shard; both must end in a total, bitwise-equal merge.
    let (aggregates, _fallback) = merge_published(&eval, &specs, Some(&manifest));
    let reference = Evaluator::new(loops).sweep_specs(&specs);
    for ((d, s), spec) in aggregates.iter().zip(&reference).zip(&specs) {
        assert_bitwise_equal(d, s, &format!("{spec:?}"));
    }
    drop(run);
    let _ = std::fs::remove_dir_all(cache);
}

/// Counts the published files under one exchange kind of a cache
/// directory — the on-disk proxy for result-publish syscalls (each file
/// is one create + write + rename round trip).
fn published_files(cache: &std::path::Path, kind: &str) -> usize {
    fn walk(dir: &std::path::Path, count: &mut usize) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, count);
            } else if path.extension().is_some_and(|e| e == "bin") {
                *count += 1;
            }
        }
    }
    let mut count = 0;
    walk(&store_root(cache).join(kind), &mut count);
    count
}

#[test]
fn chaos_killed_worker_with_autoscaling_still_merges_bitwise_equal() {
    // The CI chaos path, in-process: of three workers, worker 0
    // abandons everything after a few units (silent lease, no marker);
    // the coordinator requeues its shard for the survivors. The merge
    // must not care.
    let cache = temp_dir("chaos");
    let loops = generate(&CorpusSpec::small(14, 23));
    let specs = specs();
    let eval = Evaluator::new(loops.clone()).with_store(StoreConfig::persistent(&cache));
    let manifest = SweepManifest::partition(loops.clone(), specs.clone(), 4);
    let queue_dir = cache.join("queue").join("chaos");
    let queue = JobQueue::create(&queue_dir, &manifest).expect("queue");

    let mut cfg = CoordinatorConfig::new(&cache, 3);
    cfg.lease_ttl = Duration::from_millis(150);
    cfg.poll = Duration::from_millis(5);
    cfg.chaos_die_after_units = Some(3);
    let run = run_on_queue(&queue, &cfg, &Launcher::InProcess).expect("fleet survives chaos");
    assert!(queue.all_done());
    assert!(
        run.requeues >= 1,
        "the chaos victim's shard must be requeued"
    );

    let (aggregates, fallback) = merge_published(&eval, &specs, Some(&manifest));
    assert_eq!(fallback, 0);
    let reference = Evaluator::new(loops).sweep_specs(&specs);
    for ((d, s), spec) in aggregates.iter().zip(&reference).zip(&specs) {
        assert_bitwise_equal(d, s, &format!("{spec:?}"));
    }
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn undecodable_done_marker_is_requeued_not_merged() {
    // The fsync satellite's coordinator half: a present-but-garbage
    // completion marker (what a pre-fsync host crash could leave) must
    // be treated as incomplete — reset, re-run, replaced by a valid
    // marker — never folded into the merge.
    let cache = temp_dir("torn");
    let loops = generate(&CorpusSpec::small(10, 29));
    let specs = specs();
    let eval = Evaluator::new(loops.clone()).with_store(StoreConfig::persistent(&cache));
    let manifest = SweepManifest::partition(loops.clone(), specs.clone(), 3);
    let queue_dir = cache.join("queue").join("torn");
    let queue = JobQueue::create(&queue_dir, &manifest).expect("queue");
    // Shard 1 "completed" on a host that crashed before its data hit
    // the platter: the marker exists but holds garbage.
    std::fs::write(queue_dir.join("shard-1.done"), b"\x00\x01torn").expect("inject");

    let mut cfg = CoordinatorConfig::new(&cache, 2);
    cfg.lease_ttl = Duration::from_millis(150);
    let run = run_on_queue(&queue, &cfg, &Launcher::InProcess).expect("completes");
    assert!(run.requeues >= 1, "the torn marker counts as a requeue");
    let report = run.shard_reports[1].expect("shard 1 re-ran and reported validly");
    assert_eq!(report.units as usize, manifest.shards[1].len());

    let (aggregates, fallback) = merge_published(&eval, &specs, Some(&manifest));
    assert_eq!(fallback, 0);
    let reference = Evaluator::new(loops).sweep_specs(&specs);
    for ((d, s), spec) in aggregates.iter().zip(&reference).zip(&specs) {
        assert_bitwise_equal(d, s, &format!("{spec:?}"));
    }
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn stale_manifest_recompiles_the_grid_locally() {
    // merge_published with a manifest whose corpus differs from the
    // evaluator's (here: its first 10 of 12 loops) must not mis-index
    // batch records by unit id: the records are skipped and the whole
    // grid recompiles locally, bitwise-equal.
    let cache = temp_dir("stale");
    let full = generate(&CorpusSpec::small(12, 43));
    let specs = specs();
    let eval = Evaluator::new(full.clone()).with_store(StoreConfig::persistent(&cache));
    let manifest = SweepManifest::partition(full[..10].to_vec(), specs.clone(), 2);
    // Publish the batch records (and run the fleet) on the shorter corpus.
    let queue_dir = cache.join("queue").join("stale");
    let _ = JobQueue::create(&queue_dir, &manifest).expect("queue");
    run_worker(&WorkerConfig::new(&queue_dir, &cache)).expect("fleet");

    let (aggregates, fallback) = merge_published(&eval, &specs, Some(&manifest));
    assert_eq!(
        fallback,
        full.len() * specs.len(),
        "a stale manifest's records must not be read"
    );
    let reference = Evaluator::new(full).sweep_specs(&specs);
    for ((d, s), spec) in aggregates.iter().zip(&reference).zip(&specs) {
        assert_bitwise_equal(d, s, &format!("stale {spec:?}"));
    }
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn a_cold_fleet_leaves_only_claims_done_markers_and_one_batch_per_shard() {
    // The protocol's whole disk traffic: a manifest, then per shard one
    // claim, one done marker and one batch result record.
    let cache = temp_dir("traffic");
    let loops = generate(&CorpusSpec::small(14, 3));
    let manifest = SweepManifest::partition(loops, specs(), 2);
    let queue_dir = cache.join("queue").join("traffic");
    let queue = JobQueue::create(&queue_dir, &manifest).expect("queue");
    let run = run_on_queue(
        &queue,
        &CoordinatorConfig::new(&cache, 2),
        &Launcher::InProcess,
    )
    .expect("fleet completes");
    assert_eq!(run.units as usize, manifest.unit_count());

    let mut left: Vec<String> = std::fs::read_dir(&queue_dir)
        .expect("queue survives run_on_queue")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    left.sort();
    let mut expected = vec!["manifest.bin".to_string()];
    for shard in 0..manifest.shards.len() {
        expected.push(format!("shard-{shard}.claim"));
        expected.push(format!("shard-{shard}.done"));
    }
    expected.sort();
    assert_eq!(left, expected);
    assert_eq!(published_files(&cache, "batch"), manifest.shards.len());
    assert!(
        !store_root(&cache).join("result").exists(),
        "no per-unit result files"
    );
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn the_manifest_rebuilt_from_the_coordinator_config_reads_every_batch() {
    // A caller that rebuilds the fleet's manifest from
    // `CoordinatorConfig::shard_count` (as a timed merge does) must
    // find every unit in the fleet's batch records.
    let cache = temp_dir("agree");
    let loops = generate(&CorpusSpec::small(16, 5));
    let specs = specs();
    let workers = 2;
    let eval = Evaluator::new(loops.clone()).with_store(StoreConfig::persistent(&cache));
    let swept = sweep_distributed(
        &eval,
        &specs,
        &DistributedOptions::new(workers),
        &Launcher::InProcess,
    )
    .expect("distributed sweep completes");

    let units = loops.len() * specs.len();
    let manifest = SweepManifest::partition(
        loops.clone(),
        specs.clone(),
        CoordinatorConfig::new(&cache, workers).shard_count(units),
    );
    assert_eq!(manifest.shards.len(), swept.run.shard_reports.len());
    let fresh = Evaluator::new(loops).with_store(StoreConfig::persistent(&cache));
    let (aggregates, fallback) = merge_published(&fresh, &specs, Some(&manifest));
    assert_eq!(fallback, 0, "every unit read from a batch record");
    for ((m, d), spec) in aggregates.iter().zip(&swept.aggregates).zip(&specs) {
        assert_bitwise_equal(m, d, &format!("{spec:?}"));
    }
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn merged_fleet_timeline_has_every_workers_spans_exactly_once_after_chaos() {
    // The observability acceptance path: three worker processes, one
    // chaos-killed (silent lease after 3 units, shard requeued), each
    // writing a binary span trace next to its results. The merged
    // Chrome timeline must carry one process track per spawned worker
    // and every recorded span exactly once — the requeue may re-run
    // units, but it must never duplicate or drop a worker's trace in
    // the merge.
    let cache = temp_dir("timeline");
    let loops = generate(&CorpusSpec::small(14, 23));
    let specs = specs();
    let manifest = SweepManifest::partition(loops.clone(), specs.clone(), 4);
    let queue_dir = cache.join("queue").join("timeline");
    let queue = JobQueue::create(&queue_dir, &manifest).expect("queue");
    let trace_dir = cache.join("traces");

    let mut cfg = CoordinatorConfig::new(&cache, 3);
    cfg.lease_ttl = Duration::from_millis(500);
    cfg.poll = Duration::from_millis(10);
    cfg.chaos_die_after_units = Some(3);
    cfg.trace_dir = Some(trace_dir.clone());
    let launch = widening::distributed::worker_command(PathBuf::from(env!("CARGO_BIN_EXE_repro")));
    let run = run_on_queue(&queue, &cfg, &Launcher::Spawn(&launch)).expect("fleet survives chaos");
    assert!(queue.all_done());
    assert!(run.requeues >= 1, "the chaos victim must be requeued");

    // One binary trace per spawned worker index (victim included: it
    // abandons its shard but still unwinds and writes its trace).
    let spawned = cfg.workers + run.respawns as usize;
    let traces = widening_obs::read_trace_dir(&trace_dir);
    assert_eq!(traces.len(), spawned, "one trace file per spawned worker");

    let json = widening_obs::chrome_trace_json(&traces);
    let doc = widening_obs::analyze::parse_chrome(
        &widening_obs::json::parse(&json).expect("merged timeline parses"),
    )
    .expect("merged timeline validates");

    // Exactly once, per worker: each process appears as one pid track
    // whose span count equals its binary trace's span count, and no
    // two workers share a process name.
    assert_eq!(doc.processes.len(), spawned);
    let mut names: Vec<&str> = doc.processes.values().map(String::as_str).collect();
    names.dedup();
    assert_eq!(names.len(), spawned, "worker process names must be unique");
    let tracks = widening_obs::analyze::per_track_stats(&doc);
    for (index, trace) in traces.iter().enumerate() {
        let pid = index as u64 + 1;
        let recorded: u64 = trace
            .tracks
            .iter()
            .map(|t| t.events.iter().filter(|e| !e.is_instant()).count() as u64)
            .sum();
        let merged: u64 = tracks
            .iter()
            .filter(|t| t.pid == pid)
            .map(|t| t.spans)
            .sum();
        assert_eq!(
            merged, recorded,
            "worker {index} ({}) spans must appear exactly once",
            trace.process
        );
        assert_eq!(trace.dropped, 0, "no ring truncation on this workload");
    }

    // Fleet-wide coverage: every unit of the grid ran somewhere (the
    // requeue re-runs some), and the shard spans cover the queue.
    let unit_spans = doc.spans.iter().filter(|s| s.name == "unit").count();
    assert!(
        unit_spans >= manifest.unit_count(),
        "{unit_spans} unit spans < {} grid units",
        manifest.unit_count()
    );
    let shard_spans = doc.spans.iter().filter(|s| s.name == "shard").count();
    assert!(
        shard_spans >= manifest.shards.len(),
        "{shard_spans} shard spans < {} shards",
        manifest.shards.len()
    );
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn distributed_rerun_replays_published_results() {
    let cache = temp_dir("rerun");
    let loops = generate(&CorpusSpec::small(10, 4));
    let specs = specs();
    let eval = Evaluator::new(loops).with_store(StoreConfig::persistent(&cache));
    let cold = sweep_distributed(
        &eval,
        &specs,
        &DistributedOptions::new(2),
        &Launcher::InProcess,
    )
    .expect("cold");
    assert!(cold.run.worker_counts.live_runs() > 0);
    let warm = sweep_distributed(
        &eval,
        &specs,
        &DistributedOptions::new(2),
        &Launcher::InProcess,
    )
    .expect("warm");
    assert_eq!(warm.run.result_hits, warm.run.units);
    assert_eq!(warm.run.worker_counts.live_runs(), 0);
    for (c, w) in cold.aggregates.iter().zip(&warm.aggregates) {
        assert!(Arc::ptr_eq(c, w), "memoized merge replays the same Arc");
    }
    let _ = std::fs::remove_dir_all(cache);
}
