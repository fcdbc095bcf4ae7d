//! One runnable experiment per table and figure of the paper.
//!
//! Every experiment takes a [`Context`] (corpus + cost models) and
//! returns a [`crate::report::Report`] whose rows regenerate the
//! corresponding paper artefact. [`ALL`] is the experiment index
//! (`repro list` prints it).

mod ablation;
mod figures;
mod sweeps;
mod tables;
mod tradeoffs;
mod transients;

pub use ablation::{ablate_latency, ablate_sched, ablate_spill};
pub use figures::{fig2, fig3, fig4, fig6, fig7};
pub(crate) use sweeps::sweep_grid_specs;
pub use sweeps::{shard_table, stage_counter_table, sweep, sweep_distributed_reports};
pub use tables::{table1, table2, table3, table4, table5, table6};
pub use tradeoffs::{fig8a, fig8b, fig8c, fig8d, fig9};
pub use transients::{simulate, transients};

use crate::evaluate::Evaluator;
use crate::report::Report;
use widening_sim::Backend;
use widening_workload::corpus::{self, CorpusSpec};

/// Shared experiment state: the corpus evaluator (which owns the cost
/// models and the result cache) and the execution backend the
/// simulation experiments run on.
#[derive(Debug, Clone)]
pub struct Context {
    /// The corpus evaluator.
    pub eval: Evaluator,
    /// Execution backend for the simulation experiments (`repro
    /// --exec`): the cycle-level interpreter (default), the lowered
    /// bytecode, or both in lock-step.
    pub backend: Backend,
}

impl Context {
    /// The paper-scale context: the full 1180-loop surrogate corpus.
    #[must_use]
    pub fn paper() -> Self {
        Context::over(Evaluator::new(corpus::perfect_club_surrogate()))
    }

    /// A reduced context for tests, benches and `repro --quick`: same
    /// corpus mix, fewer loops.
    #[must_use]
    pub fn quick(loops: usize) -> Self {
        Context::over(Evaluator::new(corpus::generate(&CorpusSpec::small(
            loops, 1998,
        ))))
    }

    /// A context over an existing evaluator, on the default
    /// (interpreter) backend.
    #[must_use]
    pub fn over(eval: Evaluator) -> Self {
        Context {
            eval,
            backend: Backend::default(),
        }
    }

    /// Selects the execution backend for the simulation experiments.
    #[must_use]
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }
}

/// All experiment names, in paper order.
pub const ALL: [&str; 20] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "fig2",
    "fig3",
    "fig4",
    "fig6",
    "fig7",
    "fig8a",
    "fig8b",
    "fig8c",
    "fig8d",
    "fig9",
    "ablate",
    "simulate",
    "transients",
    "sweep",
];

/// Runs the experiment with the given name; `None` for an unknown name.
/// `"ablate"` runs all three ablation studies and concatenates them.
#[must_use]
pub fn run(name: &str, ctx: &Context) -> Option<Vec<Report>> {
    let one = |r: Report| Some(vec![r]);
    match name {
        "table1" => one(table1()),
        "table2" => one(table2()),
        "table3" => one(table3()),
        "table4" => one(table4()),
        "table5" => one(table5()),
        "table6" => one(table6()),
        "fig2" => one(fig2(ctx)),
        "fig3" => one(fig3(ctx)),
        "fig4" => one(fig4()),
        "fig6" => one(fig6()),
        "fig7" => one(fig7(ctx)),
        "fig8a" => one(fig8a(ctx)),
        "fig8b" => one(fig8b(ctx)),
        "fig8c" => one(fig8c(ctx)),
        "fig8d" => one(fig8d(ctx)),
        "fig9" => one(fig9(ctx)),
        "ablate" => Some(vec![
            ablate_sched(ctx),
            ablate_spill(ctx),
            ablate_latency(ctx),
        ]),
        "simulate" => one(simulate(ctx)),
        "transients" => one(transients(ctx)),
        "sweep" => Some(vec![
            sweep(ctx),
            stage_counter_table(&ctx.eval.pipeline().stage_counts()),
        ]),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_knows_all_names() {
        let ctx = Context::quick(6);
        for name in ALL {
            // Static tables must run; dynamic ones are exercised in
            // their own modules with quick contexts. Here we just check
            // the registry resolves every name for the cheap subset.
            if name.starts_with("table") || name == "fig4" || name == "fig6" {
                assert!(run(name, &ctx).is_some(), "{name} missing");
            }
        }
        assert!(run("nonsense", &ctx).is_none());
    }
}
