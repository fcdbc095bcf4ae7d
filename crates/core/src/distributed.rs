//! The evaluator's distributed sweep path: shard the `(loop × config)`
//! grid across worker processes, then merge their published results
//! into corpus aggregates **bitwise-equal** to
//! [`Evaluator::sweep_specs`].
//!
//! The heavy lifting — guided self-scheduled manifests, the filesystem
//! job queue with lease-expiry requeue, worker supervision — lives in
//! [`widening_distrib`]; this module supplies what only the evaluator
//! can: the merge. Workers publish one batch record of
//! [`UnitOutcome`]s per shard into the shared store's result tier;
//! [`sweep_distributed`] reads them back, then folds the outcomes **in
//! corpus order per design point** with the exact scoring arithmetic of
//! the in-process evaluator (`score_eval` + the left-to-right fold of
//! `aggregate`), so the f64 association order — and therefore every
//! bit of every aggregate — matches a single-process sweep over the
//! same grid. Units no batch record covers (a worker's best-effort
//! publish was swallowed by a dying disk) are recompiled locally
//! through the evaluator's own pipeline, so the merge is total.
//!
//! Merged aggregates are installed into the evaluator's aggregate memo:
//! after a distributed sweep, `eval.scheduled(...)` for a swept point
//! is a pure cache hit.

use std::fmt;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

use widening_distrib::{
    run_sweep, CoordinatorConfig, DistribError, Launcher, SpawnContext, SweepManifest, SweepRun,
};
use widening_pipeline::exchange::{decode_unit_batch, BATCH_KIND};
use widening_pipeline::{Exchange, FailureCause, PointSpec, UnitOutcome};

use crate::evaluate::{aggregate, score_eval, CorpusEval, Evaluator, LoopEval};

/// Tuning for a distributed sweep.
#[derive(Debug, Clone)]
pub struct DistributedOptions {
    /// Local workers the coordinator spawns up front: the whole fleet,
    /// and the divisor p of the guided self-scheduled shards.
    pub workers: usize,
    /// Threads per worker for intra-shard fan-out.
    pub worker_threads: usize,
    /// Lease TTL before a silent worker's shard is requeued.
    pub lease_ttl: Duration,
    /// Fault-injection knob: the first spawned worker abandons its work
    /// after this many units (no completion marker, silent lease) — the
    /// CI chaos path. `None` in production.
    pub chaos_die_after_units: Option<u64>,
    /// Directory where spawned worker processes drop their binary span
    /// traces (`worker-<index>.trace.bin`), for the merged fleet
    /// timeline. `None` disables collection.
    pub trace_dir: Option<PathBuf>,
}

impl DistributedOptions {
    /// Defaults for `workers` local workers: one thread each, 30 s lease
    /// TTL.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        DistributedOptions {
            workers: workers.max(1),
            worker_threads: 1,
            lease_ttl: Duration::from_secs(30),
            chaos_die_after_units: None,
            trace_dir: None,
        }
    }
}

/// A merged distributed sweep.
#[derive(Debug)]
pub struct DistributedSweep {
    /// One aggregate per requested design point, in input order —
    /// bitwise-equal to what [`Evaluator::sweep_specs`] computes for
    /// the same grid.
    pub aggregates: Vec<Arc<CorpusEval>>,
    /// The coordinator-side run record (shard reports, fleet counters,
    /// requeues, respawns).
    pub run: SweepRun,
    /// Units merged by local recompute because their published result
    /// was missing or unreadable (0 on a healthy filesystem).
    pub fallback_units: usize,
}

/// Why a distributed sweep could not run.
#[derive(Debug)]
pub enum DistributedSweepError {
    /// The evaluator has no persistent cache directory — there is no
    /// shared medium for workers to exchange results through.
    NoCacheDir,
    /// The distributed runtime failed (queue I/O, worker spawn, fleet
    /// exhaustion).
    Distrib(DistribError),
}

impl fmt::Display for DistributedSweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistributedSweepError::NoCacheDir => write!(
                f,
                "distributed sweeps need a persistent store: rebuild the evaluator with \
                 a StoreConfig cache_dir (repro: pass --cache-dir)"
            ),
            DistributedSweepError::Distrib(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DistributedSweepError {}

impl From<DistribError> for DistributedSweepError {
    fn from(e: DistribError) -> Self {
        DistributedSweepError::Distrib(e)
    }
}

/// A [`Launcher`]-compatible command builder that re-invokes the
/// current executable as `worker --queue … --cache-dir … --threads N`.
/// Correct for binaries with a `repro`-style worker subcommand; tests
/// and benches should prefer [`Launcher::InProcess`].
pub fn worker_command(exe: PathBuf) -> impl Fn(&SpawnContext) -> Command {
    move |sc: &SpawnContext| {
        let mut cmd = Command::new(&exe);
        cmd.arg("worker")
            .arg("--queue")
            .arg(&sc.queue_dir)
            .arg("--cache-dir")
            .arg(&sc.cache_dir)
            .arg("--threads")
            .arg(sc.threads.to_string())
            .arg("--lease-ttl-ms")
            .arg(sc.lease_ttl.as_millis().to_string())
            // The spawning coordinator supervises leases; see the
            // in-process launcher for the same choice.
            .arg("--no-requeue");
        if let Some(limit) = sc.die_after_units {
            cmd.arg("--die-after-units").arg(limit.to_string());
        }
        if let Some(path) = &sc.trace_file {
            cmd.arg("--trace-file").arg(path);
        }
        cmd
    }
}

/// Runs `specs` over the evaluator's corpus as a sharded multi-process
/// (or multi-thread, per `launcher`) sweep and merges the published
/// results. See the module docs for the bitwise-equality contract.
///
/// # Errors
///
/// [`DistributedSweepError::NoCacheDir`] without a persistent store;
/// [`DistributedSweepError::Distrib`] when the runtime fails.
pub fn sweep_distributed(
    eval: &Evaluator,
    specs: &[PointSpec],
    opts: &DistributedOptions,
    launcher: &Launcher<'_>,
) -> Result<DistributedSweep, DistributedSweepError> {
    let cache_dir = eval
        .pipeline()
        .store_config()
        .cache_dir
        .clone()
        .ok_or(DistributedSweepError::NoCacheDir)?;
    let loops = eval.loops();

    let mut cfg = CoordinatorConfig::new(&cache_dir, opts.workers);
    cfg.worker_threads = opts.worker_threads.max(1);
    cfg.lease_ttl = opts.lease_ttl;
    cfg.chaos_die_after_units = opts.chaos_die_after_units;
    cfg.trace_dir = opts.trace_dir.clone();
    let p = cfg.shard_count(loops.len() * specs.len());
    let manifest = SweepManifest::partition((*loops).clone(), specs.to_vec(), p);
    let run = run_sweep(&manifest, &cfg, launcher)?;

    let (aggregates, fallback_units) = merge_published(eval, specs, Some(&manifest));
    Ok(DistributedSweep {
        aggregates,
        run,
        fallback_units,
    })
}

/// Merges published unit results for `specs` into corpus aggregates
/// (recompiling any missing unit locally), installing each into the
/// evaluator's aggregate memo. Returns the aggregates in spec order
/// plus the local-fallback unit count.
///
/// The merge reads the `manifest`'s **batch result records**: one
/// exchange read per shard. Any unit no record covers — a lost
/// publish, no manifest, a manifest whose corpus or grid differs from
/// the evaluator's — is recompiled locally. Recompiling never changes
/// *values* (a unit's outcome is a pure function of its content key),
/// so the merged aggregates are bitwise-equal either way.
///
/// Exposed separately so fault-injection tests can drive a queue by
/// hand and still use the production merge.
#[must_use]
pub fn merge_published(
    eval: &Evaluator,
    specs: &[PointSpec],
    manifest: Option<&SweepManifest>,
) -> (Vec<Arc<CorpusEval>>, usize) {
    let loops = eval.loops();
    let exchange = eval
        .pipeline()
        .store_config()
        .cache_dir
        .as_deref()
        .and_then(Exchange::open);
    let fingerprints: Vec<u128> = (0..loops.len())
        .map(|li| eval.pipeline().content_fingerprint(li))
        .collect();

    // Unit id → outcome, one record per shard. Unit ids (and the key
    // lists) are manifest-relative, so the records only apply when the
    // evaluator's corpus IS the manifest's corpus — an evaluator over
    // another corpus recompiles instead. A spec absent from the
    // manifest likewise finds no coverage.
    let manifest = manifest.filter(|m| m.loops == **loops);
    let mut batched: std::collections::HashMap<u32, UnitOutcome> = std::collections::HashMap::new();
    if let (Some(man), Some(ex)) = (manifest, exchange.as_ref()) {
        for shard in 0..man.shards.len() {
            if let Some(bytes) = ex.get(BATCH_KIND, &man.batch_key(shard, &fingerprints)) {
                batched.extend(decode_unit_batch(&bytes).unwrap_or_default());
            }
        }
    }

    let mut aggregates = Vec::with_capacity(specs.len());
    let mut fallback_units = 0;
    for spec in specs {
        let spec_index = manifest.and_then(|m| m.specs.iter().position(|s| s == spec));
        let published: Vec<Option<UnitOutcome>> = (0..loops.len())
            .map(|li| {
                spec_index.and_then(|si| batched.get(&((si * loops.len() + li) as u32)).copied())
            })
            .collect();
        // Best-effort publishes can vanish; the merge stays total by
        // compiling the holes locally, in parallel (warm in practice —
        // the stage artifacts usually made it to disk even when the
        // result record did not). With no hole, no thread starts.
        let holes: Vec<usize> = (0..loops.len())
            .filter(|&li| published[li].is_none())
            .collect();
        fallback_units += holes.len();
        let mut compiled = widening_pipeline::pool::par_map(holes.len(), eval.threads(), |i| {
            UnitOutcome::of(&eval.pipeline().compile(holes[i], spec))
        })
        .into_iter();
        // Fold strictly sequentially in corpus order: the fold order is
        // what the bitwise contract constrains.
        let mut scores = Vec::with_capacity(loops.len());
        for (l, published) in loops.iter().zip(published) {
            let outcome = published
                .unwrap_or_else(|| compiled.next().expect("one compile per hole, in order"));
            let le = loop_eval_of(outcome);
            if let LoopEval::Failed {
                cause: FailureCause::Rewrite,
            } = le
            {
                eprintln!(
                    "warning: spill rewrite failed on {} (distributed worker) — compiler \
                     defect, not register pressure",
                    l.name()
                );
            }
            scores.push(score_eval(l, spec.width, le));
        }
        aggregates.push(eval.memoize(spec, Arc::new(aggregate(scores))));
    }
    (aggregates, fallback_units)
}

/// The evaluator-side projection of a published unit result.
fn loop_eval_of(outcome: UnitOutcome) -> LoopEval {
    match outcome {
        UnitOutcome::Ok {
            ii,
            mii,
            registers,
            spill_ops,
        } => LoopEval::Ok {
            ii,
            mii,
            registers,
            spill_ops,
        },
        UnitOutcome::Failed { cause } => LoopEval::Failed { cause },
    }
}
