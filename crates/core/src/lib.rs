//! **widening** — reproduction of *Widening Resources: A Cost-effective
//! Technique for Aggressive ILP Architectures* (López, Llosa, Valero,
//! Ayguadé — MICRO 1998).
//!
//! The paper asks: when scaling a VLIW core's issue bandwidth, should
//! you *replicate* resources (more buses/FPUs) or *widen* them (each
//! resource handles `Y` consecutive elements)? It answers with a
//! coupled ILP + area + cycle-time study over 1180 software-pipelined
//! loops, concluding that **moderate replication combined with moderate
//! widening** (e.g. `4w2`) wins once cost is taken into account.
//!
//! This crate is the facade over the full reproduction stack:
//!
//! * `widening-ir` — loop dependence graphs;
//! * `widening-machine` — `XwY(Z:n)` configurations and cycle models;
//! * `widening-transform` — the widening (unroll-and-pack) transform;
//! * `widening-sched` — HRMS-lineage modulo scheduling (+ IMS/ASAP);
//! * `widening-regalloc` — lifetimes, end-fit allocation, spill code;
//! * `widening-pipeline` — the staged widen → MII → schedule →
//!   allocate → spill chain over a two-tier artifact store (LRU-bounded
//!   memory + content-addressed disk persistence) and the multi-config
//!   sweep engine (the single implementation of the compilation
//!   chain);
//! * `widening-distrib` — the distributed sweep engine: priority-
//!   ordered sharding of the `(loop × config)` grid, a filesystem job
//!   queue with lease-expiry requeue, and coordinator/worker processes
//!   exchanging artifacts through a shared cache directory (the merge
//!   path lives in [`distributed`]);
//! * `widening-cost` — register-cell/area/timing models, SIA roadmap;
//! * `widening-workload` — the Perfect-Club-surrogate corpus;
//! * `widening-lower` — the execution backend: lowers a compiled wide
//!   loop to flat `WideProgram` bytecode with a tight decode-free
//!   executor;
//! * `widening-sim` — cycle-accurate wide-datapath simulator
//!   (interpreter, lowered-bytecode and differential backends) with
//!   validation against a scalar reference;
//! * [`experiments`] — one runnable entry per paper table and figure,
//!   plus the simulation experiments (`simulate`, `transients`) and the
//!   shared-cache `sweep` demonstration;
//! * [`perf`] — the `repro perf record/compare` ledger:
//!   machine-readable perf reports of untraced runs and the
//!   noise-aware regression gate.
//!
//! # Quick start
//!
//! Evaluate a couple of design points on a small corpus:
//!
//! ```
//! use widening::prelude::*;
//!
//! let ctx = Context::quick(20);
//! // Peak ILP of 2w2 relative to 1w1 (Figure 2 accounting):
//! let base = ctx.eval.peak(1, 1, CycleModel::Cycles4).total_cycles;
//! let wide = ctx.eval.peak(2, 2, CycleModel::Cycles4).total_cycles;
//! assert!(base / wide > 1.0);
//!
//! // Full cost model of the paper's winning configuration:
//! let cost = CostModel::paper();
//! let cfg: Configuration = "4w2(128:2)".parse()?;
//! assert!(cost.relative_cycle_time(&cfg) > 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod distributed;
mod evaluate;
pub mod experiments;
pub mod perf;
pub mod report;
mod simulate;

pub use distributed::{sweep_distributed, DistributedOptions, DistributedSweep};
pub use evaluate::{CorpusEval, EvalOptions, Evaluator, LoopEval};
pub use simulate::{simulate_corpus, SimCorpusEval, SimLoopEval};

// Re-export the component crates under short names.
pub use widening_cost as cost;
pub use widening_distrib as distrib;
pub use widening_ir as ir;
pub use widening_lower as lower;
pub use widening_machine as machine;
pub use widening_pipeline as pipeline;
pub use widening_regalloc as regalloc;
pub use widening_sched as sched;
pub use widening_sim as sim;
pub use widening_transform as transform;
pub use widening_workload as workload;

/// The most common imports in one place.
pub mod prelude {
    pub use crate::evaluate::{CorpusEval, EvalOptions, Evaluator, LoopEval};
    pub use crate::experiments::Context;
    pub use crate::report::Report;
    pub use widening_cost::{CostModel, Technology};
    pub use widening_ir::{Ddg, DdgBuilder, Loop, OpKind};
    pub use widening_machine::{Configuration, CycleModel};
    pub use widening_pipeline::{
        compile_ddg, CompileOptions, CompiledLoop, FailureCause, Pipeline, PipelineError,
        PointSpec, StageCounts, StoreConfig,
    };
    pub use widening_regalloc::{schedule_with_registers, SpillOptions};
    pub use widening_sched::{MiiBounds, ModuloScheduler, Schedule, Strategy};
    pub use widening_sim::{simulate_loop, Backend, SimReport};
    pub use widening_transform::widen;
    pub use widening_workload::{corpus, kernels};
}
