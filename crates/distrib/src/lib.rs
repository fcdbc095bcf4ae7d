//! **widening-distrib** — the distributed sweep engine: sharded
//! multi-process parameter studies over the content-addressed artifact
//! store.
//!
//! Every result in *Widening Resources* is a `(loop × XwY(Z:n))`
//! parameter study, and paper-scale grids (1180 loops × dozens of
//! design points) outgrow a single process. This crate scales the
//! existing [`widening_pipeline::Pipeline`] across **worker processes —
//! and, by extension, hosts sharing a cache directory** — with three
//! pieces:
//!
//! * a [`SweepManifest`] that freezes the corpus, the design points and
//!   a **guided self-scheduled** sharding of the unit grid
//!   (Polychronopoulos & Kuck, IEEE TC 1987): shard *i* takes ⌈Rᵢ/p⌉ of
//!   the Rᵢ loop columns not yet assigned, for a fleet of p workers,
//!   so shards shrink as the sweep drains and the last ones even out
//!   the finish. Inside a shard, units run heaviest design point first
//!   ([`widening_cost::sweep_priority`]) — the LPT trick that cuts tail
//!   latency;
//! * a filesystem [`JobQueue`] with **atomic claim files, monotonic
//!   counter leases and lease-stall requeue**: workers claim shards in
//!   order via `create_new` and heartbeat a monotonic counter into the
//!   claim file; a shard whose counter stops advancing across a TTL
//!   observation window — on the *observer's* monotonic clock, immune
//!   to cross-host wall-clock skew — is requeued for the survivors.
//!   Duplicate execution after a requeue race is *idempotent by
//!   construction*, because results are content-addressed — two
//!   workers publishing the same shard write identical bytes under
//!   identical keys;
//! * a [`coordinator`](run_sweep) that writes the queue, spawns local
//!   workers (in-process threads for tests and benches, real
//!   `repro worker` processes from the CLI), supervises leases,
//!   validates completion markers (an undecodable marker requeues its
//!   shard instead of merging garbage), respawns a worker if the whole
//!   fleet dies, and collects per-shard progress reports
//!   ([`ShardReport`]) whose stage counters fold into the existing
//!   counter tables.
//!
//! Each shard ends with **one batch result record** in the shared
//! store's result tier ([`widening_pipeline::Exchange`]), keyed by the
//! shard's unit-key-list hash, and one durable done marker in the
//! queue. The *merge* of those records into corpus aggregates lives
//! with the evaluator (the `widening` crate), which guarantees the fold
//! is bitwise-equal to a single-process `Evaluator::sweep_specs`.
//!
//! The only shared medium is the cache directory: coordinator and
//! workers never talk over sockets, so "distributed" degrades gracefully
//! from many hosts on a shared filesystem to many processes on one
//! machine to plain threads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coordinator;
mod manifest;
mod queue;
mod worker;

pub use coordinator::{
    run_on_queue, run_sweep, CoordinatorConfig, Launcher, SpawnContext, SweepRun,
};
pub use manifest::SweepManifest;
pub use queue::{JobQueue, LeaseObserver, LeaseStamp};
pub use worker::{run_worker, ShardReport, WorkerConfig, WorkerSummary};

use std::fmt;
use std::path::PathBuf;

/// Why a distributed sweep (or one of its workers) could not run.
#[derive(Debug)]
pub enum DistribError {
    /// The queue directory holds no readable manifest.
    QueueUnreadable(PathBuf),
    /// The shared cache directory could not be opened for results.
    CacheUnusable(PathBuf),
    /// Creating the queue or spawning a worker failed.
    Io(std::io::Error),
    /// Every worker died and the respawn budget is exhausted while
    /// shards remain unfinished.
    WorkersExhausted {
        /// Shards still incomplete when the coordinator gave up.
        remaining: usize,
    },
}

impl fmt::Display for DistribError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistribError::QueueUnreadable(p) => {
                write!(f, "no readable sweep manifest under {}", p.display())
            }
            DistribError::CacheUnusable(p) => {
                write!(f, "cache directory {} is unusable", p.display())
            }
            DistribError::Io(e) => write!(f, "distributed sweep I/O failed: {e}"),
            DistribError::WorkersExhausted { remaining } => write!(
                f,
                "all workers died with {remaining} shard(s) unfinished and no respawn budget left"
            ),
        }
    }
}

impl std::error::Error for DistribError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistribError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DistribError {
    fn from(e: std::io::Error) -> Self {
        DistribError::Io(e)
    }
}
