//! End-to-end coordinator/worker runs over a shared cache directory
//! (in-process workers: own pipelines and memory tiers, shared disk).

use std::path::PathBuf;
use std::time::Duration;

use widening_distrib::{
    run_on_queue, run_sweep, CoordinatorConfig, JobQueue, Launcher, SweepManifest,
};
use widening_machine::CycleModel;
use widening_pipeline::codec::ddg_fingerprint;
use widening_pipeline::exchange::{decode_unit_batch, BATCH_KIND};
use widening_pipeline::{CompileOptions, Exchange, Pipeline, PointSpec, UnitOutcome};
use widening_workload::corpus::{generate, CorpusSpec};

fn temp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "widening-distrib-e2e-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn specs() -> Vec<PointSpec> {
    ["1w1(64:1)", "2w2(64:1)", "4w2(128:1)"]
        .iter()
        .map(|s| {
            PointSpec::scheduled(
                &s.parse().unwrap(),
                CycleModel::Cycles4,
                CompileOptions::default(),
            )
        })
        .collect()
}

/// Units of `manifest` whose base schedule needs more registers than
/// the point's file: the only units that enter the spill engine.
fn spill_units(manifest: &SweepManifest) -> u64 {
    let pipeline = Pipeline::new(manifest.loops.clone());
    let mut spilled = 0;
    for spec in &manifest.specs {
        for li in 0..manifest.loops.len() {
            let base = pipeline.base_schedule(li, spec);
            spilled += u64::from(base.is_ok_and(|b| spec.registers.is_some_and(|z| b.needed > z)));
        }
    }
    spilled
}

/// Every unit's result must be recoverable from the shards' batch
/// records after a run — exactly what the merge consults.
fn assert_all_results_published(
    cache: &std::path::Path,
    manifest: &SweepManifest,
) -> Vec<UnitOutcome> {
    let ex = Exchange::open(cache).expect("cache opens");
    let fingerprints: Vec<u128> = manifest
        .loops
        .iter()
        .map(|l| ddg_fingerprint(l.ddg()))
        .collect();
    let mut batched = std::collections::HashMap::new();
    for shard in 0..manifest.shards.len() {
        let bytes = ex
            .get(BATCH_KIND, &manifest.batch_key(shard, &fingerprints))
            .unwrap_or_else(|| panic!("shard {shard} published no batch record"));
        batched.extend(decode_unit_batch(&bytes).expect("batch decodes"));
    }
    let n = manifest.loops.len() as u32;
    let mut outcomes = Vec::new();
    for si in 0..manifest.specs.len() {
        for (li, l) in manifest.loops.iter().enumerate() {
            let unit = si as u32 * n + li as u32;
            let outcome = batched.get(&unit).copied();
            outcomes.push(
                outcome.unwrap_or_else(|| panic!("missing result for {} at spec {si}", l.name())),
            );
        }
    }
    outcomes
}

#[test]
fn fleet_completes_and_publishes_every_unit() {
    let cache = temp_dir("fleet");
    let loops = generate(&CorpusSpec::small(14, 3));
    let manifest = SweepManifest::partition(loops, specs(), 6);
    let cfg = CoordinatorConfig::new(&cache, 2);
    let run = run_sweep(&manifest, &cfg, &Launcher::InProcess).expect("sweep completes");
    assert_eq!(run.units as usize, manifest.unit_count());
    assert_eq!(run.shard_reports.iter().flatten().count(), 9);
    assert_eq!(run.respawns, 0);
    // The queue is ephemeral; the results are not.
    assert!(!run.queue_dir.exists());
    let outcomes = assert_all_results_published(&cache, &manifest);
    assert!(outcomes.iter().all(|o| matches!(o, UnitOutcome::Ok { .. })));
    // Workers actually compiled (this was a cold store), entering the
    // spill engine exactly where a base schedule does not fit.
    assert!(run.worker_counts.base_schedule_runs > 0);
    assert_eq!(run.worker_counts.schedule_runs, spill_units(&manifest));
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn second_fleet_replays_results_without_compiling() {
    let cache = temp_dir("warm");
    let loops = generate(&CorpusSpec::small(10, 5));
    let manifest = SweepManifest::partition(loops, specs(), 4);
    let cfg = CoordinatorConfig::new(&cache, 2);
    let cold = run_sweep(&manifest, &cfg, &Launcher::InProcess).expect("cold sweep");
    assert_eq!(cold.result_hits, 0);
    let warm = run_sweep(&manifest, &cfg, &Launcher::InProcess).expect("warm sweep");
    assert_eq!(warm.result_hits, warm.units, "every unit replayed");
    assert_eq!(warm.worker_counts.live_runs(), 0, "no stage executed");
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn killed_workers_shard_is_requeued_and_finished_by_the_fleet() {
    let cache = temp_dir("requeue");
    let loops = generate(&CorpusSpec::small(12, 7));
    let manifest = SweepManifest::partition(loops, specs(), 4);

    // A doomed worker claims a shard and dies without renewing its
    // lease (the moral equivalent of SIGKILL mid-shard).
    let queue_dir = cache.join("queue").join("faulty");
    let queue = JobQueue::create(&queue_dir, &manifest).expect("queue");
    let doomed = queue.claim_next("doomed-worker").expect("claims");

    let mut cfg = CoordinatorConfig::new(&cache, 2);
    cfg.lease_ttl = Duration::from_millis(100);
    let run = run_on_queue(&queue, &cfg, &Launcher::InProcess).expect("fleet survives");
    assert!(run.requeues >= 1, "expired lease must be requeued");
    assert!(queue.is_done(doomed), "the abandoned shard was finished");
    assert!(queue.all_done());
    assert_all_results_published(&cache, &manifest);
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn ghost_holding_every_shard_is_fully_requeued() {
    // A ghost claims ALL shards and dies. The lone live worker can
    // claim nothing until the coordinator (the sole requeuer for its
    // fleet) expires both leases — the coordinator's requeue counter is
    // therefore exactly 2.
    let cache = temp_dir("ghost");
    let loops = generate(&CorpusSpec::small(3, 11));
    let manifest = SweepManifest::partition(loops, specs(), 2);
    assert_eq!(manifest.shards.len(), 2, "2 columns, then 1");
    let queue_dir = cache.join("queue").join("ghosted");
    let queue = JobQueue::create(&queue_dir, &manifest).expect("queue");
    assert_eq!(queue.claim_next("ghost"), Some(0));
    assert_eq!(queue.claim_next("ghost"), Some(1));

    let mut cfg = CoordinatorConfig::new(&cache, 1);
    cfg.lease_ttl = Duration::from_millis(80);
    let run = run_on_queue(&queue, &cfg, &Launcher::InProcess).expect("completes");
    assert_eq!(run.requeues, 2);
    assert!(queue.all_done());
    assert_all_results_published(&cache, &manifest);
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn idle_worker_exits_when_the_queue_is_retired() {
    // A standalone worker idling on shards held by someone else must
    // exit — not spin forever — when the coordinator retires (deletes)
    // the queue directory.
    let cache = temp_dir("retire");
    let loops = generate(&CorpusSpec::small(4, 2));
    let manifest = SweepManifest::partition(loops, specs(), 1);
    let queue_dir = cache.join("queue").join("retiring");
    let queue = JobQueue::create(&queue_dir, &manifest).expect("queue");
    // A ghost holds the only shard, so the worker can never claim.
    assert_eq!(queue.claim_next("ghost"), Some(0));

    let mut cfg = widening_distrib::WorkerConfig::new(&queue_dir, &cache);
    cfg.poll = Duration::from_millis(10);
    cfg.requeue_foreign = false;
    let handle = std::thread::spawn(move || widening_distrib::run_worker(&cfg));
    std::thread::sleep(Duration::from_millis(60));
    assert!(!handle.is_finished(), "worker should be idling");
    std::fs::remove_dir_all(&queue_dir).expect("retire the queue");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !handle.is_finished() {
        assert!(
            std::time::Instant::now() < deadline,
            "worker kept polling a retired queue"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let summary = handle.join().unwrap().expect("clean exit");
    assert_eq!(summary.shards_completed, 0);
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn fleet_that_keeps_dying_exhausts_the_respawn_budget() {
    // Process workers that exit immediately without doing any work: the
    // coordinator respawns up to its budget, then reports exhaustion
    // with every shard still outstanding.
    let cache = temp_dir("exhaust");
    let loops = generate(&CorpusSpec::small(4, 13));
    let manifest = SweepManifest::partition(loops, specs(), 2);
    let queue_dir = cache.join("queue").join("dying");
    let queue = JobQueue::create(&queue_dir, &manifest).expect("queue");

    let mut cfg = CoordinatorConfig::new(&cache, 1);
    cfg.max_respawns = 3;
    let useless = |_ctx: &widening_distrib::SpawnContext| {
        let mut cmd = std::process::Command::new("true");
        cmd.stdout(std::process::Stdio::null());
        cmd
    };
    let err = run_on_queue(&queue, &cfg, &Launcher::Spawn(&useless))
        .expect_err("must give up eventually");
    match err {
        widening_distrib::DistribError::WorkersExhausted { remaining } => {
            // Every shard: 2, 1 and 1 of the 4 loop columns.
            assert_eq!(remaining, 3);
        }
        other => panic!("unexpected error {other}"),
    }
    let _ = std::fs::remove_dir_all(cache);
}
