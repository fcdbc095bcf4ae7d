//! **widening-pipeline** — the staged compilation pipeline of the
//! *Widening Resources* (MICRO 1998) reproduction.
//!
//! Every paper figure sweeps `XwY(Z:n)` design points over the same
//! corpus, and every design point runs the same chain:
//!
//! ```text
//! widen (Y) ──► MII bounds ──► schedule ──► allocate ──► spill rewrite
//! ```
//!
//! This crate is the **single implementation** of that chain. It offers
//! it at three granularities:
//!
//! * [`compile_ddg`] — one loop, one design point, uncached (what the
//!   simulator's convenience entry points use);
//! * [`Pipeline`] — a corpus-bound driver that memoizes every stage
//!   under a content key and can stop at any stage
//!   ([`PointSpec::registers`]` == None` stops after MII — the paper's
//!   *peak* mode);
//! * [`Pipeline::sweep`] — a batch engine that schedules
//!   `(loop × design point)` work units on the shared worker pool
//!   ([`pool::par_map`]) with shared stage caches, so a `1w2/2w2/4w2`
//!   sweep widens each loop exactly once.
//!
//! # The two-tier artifact store
//!
//! Each stage memo is a `StageStore` with two tiers, configured through
//! [`StoreConfig`]:
//!
//! * an **in-memory tier** — sharded, exactly-once maps as before.
//!   Widening, MII-bound and base-schedule entries are pinned; the
//!   schedule/allocate/spill tier optionally carries a byte budget
//!   ([`StoreConfig::memory_budget`]) and LRU-evicts entries whose
//!   corpus aggregates have been folded (released through
//!   [`Pipeline::seal_point`]);
//! * an optional **on-disk, content-addressed tier**
//!   ([`StoreConfig::cache_dir`]) — every artifact, memoized failures
//!   included, is appended to the pipeline's own segment file under its
//!   content key (the loop graph's 128-bit fingerprint plus the
//!   design-point fields) in a versioned binary record written with
//!   the shared `widening-wire` codec.
//!   Opening a pipeline indexes the record headers of the segments
//!   already present, so a second process over the same corpus decodes
//!   every stage instead of executing it; decoded schedules are
//!   re-verified against their graph and machine, so a corrupt or stale
//!   record degrades to a cache miss, never a wrong result.
//!
//! Failures are data, not panics: a loop whose register pressure cannot
//! be resolved (the paper's `8w1(32-RF)` case) yields a structured
//! [`PipelineError`], whose [`FailureCause`] projection corpus results
//! carry per loop.
//!
//! # Example
//!
//! ```
//! use widening_machine::CycleModel;
//! use widening_pipeline::{CompileOptions, Pipeline, PointSpec};
//! use widening_workload::kernels;
//!
//! let pipeline = Pipeline::new(kernels::all());
//! let a = PointSpec::scheduled(
//!     &"2w2(64:1)".parse()?,
//!     CycleModel::Cycles4,
//!     CompileOptions::default(),
//! );
//! let b = PointSpec::scheduled(
//!     &"4w2(128:1)".parse()?,
//!     CycleModel::Cycles4,
//!     CompileOptions::default(),
//! );
//! let results = pipeline.sweep(&[a, b], 4);
//! assert!(results.iter().flatten().all(Result::is_ok));
//! // Both points share Y = 2: each loop was widened exactly once.
//! let counts = pipeline.stage_counts();
//! assert_eq!(counts.widen_runs, kernels::all().len() as u64);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod disk;
mod driver;
mod error;
pub mod exchange;
pub mod maint;
pub mod pool;
mod segment;
mod stage;
mod store;

pub use disk::store_root;
pub use driver::{Pipeline, StoreConfig};
pub use error::{FailureCause, PipelineError};
pub use exchange::{Exchange, UnitOutcome};
pub use stage::{
    compile_ddg, BaseSchedule, CompileOptions, CompiledLoop, PointSpec, ScheduledStage,
};
pub use store::{Fetch, StageCounts, StageStore, StoreMetrics};

#[cfg(test)]
mod tests {
    use super::*;
    use widening_machine::CycleModel;
    use widening_workload::kernels;

    const M4: CycleModel = CycleModel::Cycles4;

    fn opts() -> CompileOptions {
        CompileOptions::default()
    }

    #[test]
    fn peak_stops_after_mii() {
        let p = Pipeline::new(kernels::all());
        let c = p.compile(0, &PointSpec::peak(2, 2, M4)).unwrap();
        assert!(c.scheduled().is_none());
        assert_eq!(c.ii(), c.mii());
        assert_eq!(c.registers_used(), 0);
        assert_eq!(c.spill_ops(), 0);
        assert_eq!(p.stage_counts().schedule_runs, 0);
    }

    #[test]
    fn scheduled_artifact_is_consistent() {
        let p = Pipeline::new(kernels::all());
        let spec = PointSpec::scheduled(&"2w2(64:1)".parse().unwrap(), M4, opts());
        let c = p.compile(0, &spec).unwrap();
        let s = c.scheduled().expect("finite registers schedule");
        assert_eq!(c.ii(), s.result.schedule.ii());
        assert!(c.ii() >= c.bounds().mii());
        assert!(c.registers_used() <= 64);
    }

    #[test]
    fn widening_is_shared_across_replication_and_registers() {
        let p = Pipeline::new(kernels::all());
        let a = p
            .compile(
                3,
                &PointSpec::scheduled(&"1w2(64:1)".parse().unwrap(), M4, opts()),
            )
            .unwrap();
        let b = p
            .compile(
                3,
                &PointSpec::scheduled(&"4w2(128:1)".parse().unwrap(), M4, opts()),
            )
            .unwrap();
        let peak = p.compile(3, &PointSpec::peak(2, 2, M4)).unwrap();
        assert!(std::ptr::eq(a.wide(), b.wide()));
        assert!(std::ptr::eq(a.wide(), peak.wide()));
        assert_eq!(p.stage_counts().widen_runs, 1);
    }

    #[test]
    fn fitting_register_files_share_one_materialized_stage() {
        // Round 1 is register-file independent: every Z the requirement
        // fits must hand back the *same* stage object, not a deep copy.
        let p = Pipeline::new(kernels::all());
        let at = |z: u32| {
            let cfg = format!("2w1({z}:1)").parse().unwrap();
            p.compile(0, &PointSpec::scheduled(&cfg, M4, opts()))
                .unwrap()
        };
        let (a, b, c) = (at(64), at(128), at(256));
        assert!(std::ptr::eq(a.scheduled().unwrap(), b.scheduled().unwrap()));
        assert!(std::ptr::eq(a.scheduled().unwrap(), c.scheduled().unwrap()));
        assert_eq!(a.ii(), c.ii());
    }

    #[test]
    fn errors_are_structured_and_memoized() {
        // fir5 on a starved machine: pressure failure, not a panic.
        let p = Pipeline::new(kernels::all());
        let spec = PointSpec::scheduled(&"8w1(32:1)".parse().unwrap(), M4, opts());
        let mut causes = Vec::new();
        for li in 0..p.loops().len() {
            if let Err(e) = p.compile(li, &spec) {
                causes.push(e.cause());
            }
        }
        let before = p.stage_counts().schedule_runs;
        for li in 0..p.loops().len() {
            let _ = p.compile(li, &spec);
        }
        assert_eq!(p.stage_counts().schedule_runs, before, "errors memoized");
        for cause in causes {
            assert!(matches!(cause, FailureCause::Pressure { .. }), "{cause}");
        }
    }

    #[test]
    fn compile_ddg_matches_driver() {
        let p = Pipeline::new(kernels::all());
        let spec = PointSpec::scheduled(&"2w1(64:1)".parse().unwrap(), M4, opts());
        for li in 0..p.loops().len() {
            let cached = p.compile(li, &spec).unwrap();
            let oneshot = compile_ddg(p.loops()[li].ddg(), &spec).unwrap();
            assert_eq!(cached.ii(), oneshot.ii());
            assert_eq!(cached.mii(), oneshot.mii());
            assert_eq!(cached.registers_used(), oneshot.registers_used());
            assert_eq!(cached.spill_ops(), oneshot.spill_ops());
        }
    }
}
