//! The sweep coordinator: writes the queue, spawns local workers,
//! supervises leases, and collects per-shard reports.
//!
//! The coordinator owns no results — workers publish everything into
//! the shared store — so its job is purely liveness: partition the grid
//! ([`crate::SweepManifest::partition`]), get `workers` processes (or
//! threads) running against the queue, requeue shards whose lease
//! counters stall (the killed-worker path — clock-skew-proof, see
//! [`crate::queue`]), validate completion markers as they appear
//! (an undecodable marker is *incomplete*: the shard is reset and
//! requeued, never merged as garbage), and respawn a worker if the
//! whole fleet dies. A fleet that loses only some workers is not topped
//! up: the survivors claim a requeued shard once its lease expires.
//! When every shard carries a validated completion marker the sweep is
//! merge-ready. Workers exit on their own once every shard is complete.
//!
//! Between passes the coordinator waits on the queue's process-wide
//! change count ([`crate::queue`]), not on a fixed clock: a completion,
//! marker reset or requeue made in this process (by an in-process
//! worker, or by the coordinator itself) starts the next pass at once,
//! so an in-process fleet is seen done as soon as its last shard
//! completes. Changes made by worker processes, lease stalls and dead
//! workers are seen within [`CoordinatorConfig::poll`].

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::Duration;

use widening_obs as obs;
use widening_obs::SpanKind;
use widening_pipeline::StageCounts;

use crate::manifest::SweepManifest;
use crate::queue::{JobQueue, LeaseObserver, CHANGES};
use crate::worker::{run_worker, ShardReport, WorkerConfig, WorkerSummary};
use crate::DistribError;

/// How a coordinator runs its fleet.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// The shared cache directory (artifact + result exchange). The
    /// queue directory is created under `<cache_dir>/queue/`.
    pub cache_dir: PathBuf,
    /// Local workers to spawn up front: the whole fleet.
    pub workers: usize,
    /// Worker threads each worker uses for intra-shard fan-out.
    pub worker_threads: usize,
    /// Lease TTL before a silent worker's shard is requeued.
    pub lease_ttl: Duration,
    /// Longest wait between supervision passes: it bounds how late the
    /// coordinator sees a change made by another process (a worker
    /// process's completion marker), a stalled lease or a dead worker.
    /// A queue change made in this process ends the wait at once.
    pub poll: Duration,
    /// Workers the coordinator may respawn after the whole fleet died.
    pub max_respawns: usize,
    /// Fault-injection hook: the *first* spawned worker abandons its
    /// work (no completion marker, lease goes silent) after this many
    /// units — the CI chaos knob. `None` in production.
    pub chaos_die_after_units: Option<u64>,
    /// Directory where spawned workers drop their binary span traces
    /// (`worker-<index>.trace.bin`). `None` disables trace collection;
    /// in-process workers record into the caller's global recorder
    /// instead and ignore this.
    pub trace_dir: Option<PathBuf>,
}

impl CoordinatorConfig {
    /// A fleet of `workers` over `cache_dir` with defaults: one thread
    /// per worker, 30 s lease TTL, 20 ms poll, as many respawns as
    /// workers.
    #[must_use]
    pub fn new(cache_dir: impl Into<PathBuf>, workers: usize) -> Self {
        let workers = workers.max(1);
        CoordinatorConfig {
            cache_dir: cache_dir.into(),
            workers,
            worker_threads: 1,
            lease_ttl: Duration::from_secs(30),
            poll: Duration::from_millis(20),
            max_respawns: workers,
            chaos_die_after_units: None,
            trace_dir: None,
        }
    }

    /// The divisor p this configuration partitions a grid of `units`
    /// work units with ([`SweepManifest::partition`]): the fleet's
    /// worker count, at most `units`. A caller that rebuilds a fleet's
    /// manifest (to merge its batch records) must pass this same p.
    #[must_use]
    pub fn shard_count(&self, units: usize) -> usize {
        self.workers.clamp(1, units.max(1))
    }
}

/// Everything a launcher needs to start worker `index` against a queue.
#[derive(Debug, Clone)]
pub struct SpawnContext {
    /// Worker index (respawned workers continue the numbering).
    pub index: usize,
    /// The queue directory.
    pub queue_dir: PathBuf,
    /// The shared cache directory.
    pub cache_dir: PathBuf,
    /// Threads the worker should use.
    pub threads: usize,
    /// Lease TTL the worker should assume.
    pub lease_ttl: Duration,
    /// Chaos hook: abandon after this many units (fault-injection runs
    /// set it on worker 0 only).
    pub die_after_units: Option<u64>,
    /// Where a spawned worker process should write its binary span
    /// trace on exit (`None` when tracing is off; in-process workers
    /// share the caller's recorder and ignore this).
    pub trace_file: Option<PathBuf>,
}

/// How the coordinator materializes a worker.
pub enum Launcher<'a> {
    /// A thread in this process running [`run_worker`] with its own
    /// pipeline (its own memory tier; the disk tier is shared) —
    /// faithful to the multi-process topology minus the `exec`, and
    /// what tests and benches use.
    InProcess,
    /// A child process built by the callback (the CLI passes
    /// `current_exe() worker --queue … --cache-dir …`). Must be
    /// self-terminating: a worker exits when the queue is complete.
    Spawn(&'a dyn Fn(&SpawnContext) -> Command),
}

/// The coordinator-side record of one finished sweep.
#[derive(Debug)]
pub struct SweepRun {
    /// The queue directory the sweep ran over (already removed by
    /// [`run_sweep`]; kept by [`run_on_queue`]).
    pub queue_dir: PathBuf,
    /// Per-shard completion reports, in shard order (a `None` means the
    /// done marker was unreadable — its results are still in the store).
    pub shard_reports: Vec<Option<ShardReport>>,
    /// Fleet-summed stage counters (from the shard reports).
    pub worker_counts: StageCounts,
    /// Total units across all shards.
    pub units: u64,
    /// Units served straight from published batch records.
    pub result_hits: u64,
    /// Always 0: fleets no longer steal work. Kept so callers that
    /// report it still build.
    pub stolen_units: u64,
    /// Stalled leases the coordinator requeued (≥ 1 whenever a worker
    /// was killed mid-shard), including shards reset because their
    /// completion marker failed to decode.
    pub requeues: u64,
    /// Workers respawned after the fleet died entirely.
    pub respawns: u64,
}

enum Handle {
    Thread(JoinHandle<Result<WorkerSummary, DistribError>>),
    Process(Child),
}

impl Handle {
    fn is_alive(&mut self) -> bool {
        match self {
            Handle::Thread(h) => !h.is_finished(),
            // A spawn whose status cannot be read is as good as dead.
            Handle::Process(c) => matches!(c.try_wait(), Ok(None)),
        }
    }

    fn join(self) {
        match self {
            Handle::Thread(h) => {
                let _ = h.join();
            }
            Handle::Process(mut c) => {
                let _ = c.wait();
            }
        }
    }

    /// Tears the worker down on an aborted sweep. Processes are killed
    /// and reaped; in-process threads cannot be killed, but they exit
    /// on their own once the caller retires the queue directory
    /// (workers poll for retirement).
    fn abort(self) {
        match self {
            Handle::Thread(_) => {}
            Handle::Process(mut c) => {
                let _ = c.kill();
                let _ = c.wait();
            }
        }
    }
}

fn spawn(
    launcher: &Launcher<'_>,
    ctx: &SpawnContext,
    poll: Duration,
) -> Result<Handle, DistribError> {
    match launcher {
        Launcher::InProcess => {
            let cfg = WorkerConfig {
                queue_dir: ctx.queue_dir.clone(),
                cache_dir: ctx.cache_dir.clone(),
                threads: ctx.threads,
                lease_ttl: ctx.lease_ttl,
                poll,
                // The coordinator supervises leases; keeping workers
                // out of it makes `SweepRun::requeues` exact.
                requeue_foreign: false,
                tag: format!("inproc-{}-{}", std::process::id(), ctx.index),
                die_after_units: ctx.die_after_units,
            };
            Ok(Handle::Thread(std::thread::spawn(move || run_worker(&cfg))))
        }
        Launcher::Spawn(build) => {
            let mut cmd = build(ctx);
            cmd.stdin(Stdio::null());
            Ok(Handle::Process(cmd.spawn()?))
        }
    }
}

/// Runs a full distributed sweep: creates a fresh queue under
/// `<cache_dir>/queue/`, drives it with [`run_on_queue`], and removes
/// the queue directory afterwards — success or failure — so failed
/// sweeps cannot accumulate per-invocation directories in a
/// lifecycle-managed cache (results live in the store, not the queue).
///
/// # Errors
///
/// See [`run_on_queue`]; queue creation failures surface as
/// [`DistribError::Io`].
pub fn run_sweep(
    manifest: &SweepManifest,
    cfg: &CoordinatorConfig,
    launcher: &Launcher<'_>,
) -> Result<SweepRun, DistribError> {
    // Unique per invocation: concurrent or repeated sweeps (even of the
    // same manifest) never share claim state — result reuse happens in
    // the content-addressed store, not the queue.
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap_or_default()
        .as_nanos();
    let queue_dir = cfg.cache_dir.join("queue").join(format!(
        "sweep-{:016x}-{}-{nanos:x}",
        manifest.fingerprint() as u64,
        std::process::id(),
    ));
    let queue = JobQueue::create(&queue_dir, manifest)?;
    // The queue is ephemeral either way: published results live in the
    // content-addressed store, and a failed sweep's error already says
    // what went wrong — leaking per-invocation queue directories into a
    // lifecycle-managed cache would be worse than losing the markers.
    let run = run_on_queue(&queue, cfg, launcher);
    let _ = std::fs::remove_dir_all(&queue_dir);
    run
}

/// Drives an existing queue to completion: spawns the fleet, requeues
/// stalled leases and undecodable completion markers, respawns through
/// total fleet loss, and collects the shard reports. The queue directory is
/// left in place (the fault-injection tests pre-claim shards on it).
///
/// # Errors
///
/// [`DistribError::Io`] when a worker cannot be spawned;
/// [`DistribError::QueueUnreadable`] when the queue directory holds no
/// manifest; [`DistribError::WorkersExhausted`] when the fleet died
/// more times than [`CoordinatorConfig::max_respawns`] with shards
/// outstanding.
pub fn run_on_queue(
    queue: &JobQueue,
    cfg: &CoordinatorConfig,
    launcher: &Launcher<'_>,
) -> Result<SweepRun, DistribError> {
    if JobQueue::open(queue.root()).is_none() {
        return Err(DistribError::QueueUnreadable(queue.root().to_path_buf()));
    }

    if let Some(dir) = &cfg.trace_dir {
        std::fs::create_dir_all(dir)?;
    }
    let ctx_for = |index: usize| SpawnContext {
        index,
        queue_dir: queue.root().to_path_buf(),
        cache_dir: cfg.cache_dir.clone(),
        threads: cfg.worker_threads.max(1),
        lease_ttl: cfg.lease_ttl,
        die_after_units: cfg.chaos_die_after_units.filter(|_| index == 0),
        trace_file: cfg
            .trace_dir
            .as_ref()
            .map(|d| d.join(format!("worker-{index}.trace.bin"))),
    };
    // An aborted sweep must not orphan the workers it already started:
    // kill and reap spawned processes before surfacing the error (the
    // caller then retires the queue, which flushes out thread workers).
    let abort_fleet = |handles: Vec<Handle>, err: DistribError| {
        for h in handles {
            h.abort();
        }
        err
    };
    let mut handles: Vec<Handle> = Vec::with_capacity(cfg.workers);
    for i in 0..cfg.workers.max(1) {
        match spawn(launcher, &ctx_for(i), cfg.poll) {
            Ok(h) => handles.push(h),
            Err(e) => return Err(abort_fleet(handles, e)),
        }
    }
    let mut observer = LeaseObserver::new();
    let mut validated: Vec<bool> = vec![false; queue.shard_count()];
    let mut requeues = 0u64;
    let mut respawns = 0u64;
    let mut next_index = handles.len();
    loop {
        // Read before looking: a change this process makes to the queue
        // after this line ends the wait below at once.
        let seen = CHANGES.count();
        // A present-but-undecodable done marker (a torn write from a
        // crashed pre-fsync host, corruption at rest) must never be
        // merged as "complete": reset the shard so it requeues. The
        // published unit results survive in the store — the re-run is
        // mostly result-tier hits.
        for (shard, valid) in validated.iter_mut().enumerate() {
            if *valid || !queue.is_done(shard) {
                continue;
            }
            match queue
                .completion(shard)
                .and_then(|b| ShardReport::decode(&b))
            {
                Some(_) => *valid = true,
                None => {
                    if queue.invalidate_done(shard) {
                        requeues += 1;
                    }
                }
            }
        }
        // Exit only when every shard is done AND its marker passed
        // validation *this side* of appearing — a marker that landed
        // after the pass above waits for its own decode in the next
        // pass, so an undecodable marker can never slip out as
        // "complete".
        if queue.all_done() && validated.iter().all(|&v| v) {
            break;
        }
        let expired = queue.requeue_expired(&mut observer, cfg.lease_ttl) as u64;
        if expired > 0 {
            eprintln!("distrib: event=lease-expired requeued={expired}");
            obs::instant(SpanKind::LeaseExpire, expired, 0);
        }
        requeues += expired;
        let live = handles
            .iter_mut()
            .map(Handle::is_alive)
            .filter(|&alive| alive)
            .count();
        if live == 0 {
            if queue.all_done() {
                continue; // markers present; validate before exiting
            }
            if respawns as usize >= cfg.max_respawns {
                return Err(abort_fleet(
                    handles,
                    DistribError::WorkersExhausted {
                        remaining: queue.remaining(),
                    },
                ));
            }
            // Replacements start with stalled foreign claims already
            // released above, so they pick the dead fleet's work up.
            respawns += 1;
            eprintln!("distrib: event=respawn worker={next_index}");
            obs::instant(SpanKind::Respawn, next_index as u64, 0);
            match spawn(launcher, &ctx_for(next_index), cfg.poll) {
                Ok(h) => handles.push(h),
                Err(e) => return Err(abort_fleet(handles, e)),
            }
            next_index += 1;
        }
        CHANGES.wait(seen, cfg.poll);
    }
    for h in handles {
        h.join();
    }

    let mut run = SweepRun {
        queue_dir: queue.root().to_path_buf(),
        shard_reports: Vec::with_capacity(queue.shard_count()),
        worker_counts: StageCounts::zero(),
        units: 0,
        result_hits: 0,
        stolen_units: 0,
        requeues,
        respawns,
    };
    for shard in 0..queue.shard_count() {
        let report = queue
            .completion(shard)
            .and_then(|b| ShardReport::decode(&b));
        if let Some(r) = &report {
            run.worker_counts = run.worker_counts.plus(&r.counts);
            run.units += u64::from(r.units);
            run.result_hits += u64::from(r.result_hits);
        }
        run.shard_reports.push(report);
    }
    Ok(run)
}
