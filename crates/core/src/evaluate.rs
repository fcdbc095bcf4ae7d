//! Corpus evaluation on the staged compilation pipeline.
//!
//! All of the paper's performance numbers are corpus aggregates of
//! `cycles(loop) = II · ⌈trip / Y⌉ · weight`. Two evaluation modes
//! exist:
//!
//! * **peak** (§3.1, Figure 2): perfect scheduling and an infinite
//!   register file — `II = MII` by definition, the pipeline stops after
//!   its MII stage;
//! * **scheduled** (§3.2 onward): the full HRMS + wands-only allocation
//!   + spill pipeline against a finite register file.
//!
//! The widen → MII → schedule → allocate → spill chain itself lives in
//! [`widening_pipeline`]; this module only aggregates its per-loop
//! artifacts. Memoization is two-level: the pipeline's two-tier
//! artifact store caches every stage per `(loop, key)` — so design
//! points share widened DDGs and MII bounds, and with a
//! [`StoreConfig`] ([`Evaluator::with_store`]) artifacts persist to
//! disk and/or live under an in-memory byte budget — and the evaluator
//! keeps a thin corpus-aggregate memo on top so repeated queries return
//! the identical `Arc`. Once a point's aggregate is folded the
//! evaluator *seals* its schedule-stage entries, releasing them for LRU
//! eviction. Every query goes through [`Evaluator::sweep_specs`], which
//! compiles all `(loop × design point)` work units of a batch on one
//! dynamic worker queue. The corpus is fixed when the evaluator is
//! built, so a memoized aggregate never goes stale.

use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

use widening_cost::{sweep_priority, CostModel};
use widening_ir::Loop;
use widening_machine::{Configuration, CycleModel};
use widening_pipeline::{
    pool, CompiledLoop, FailureCause, Fetch, Pipeline, PointSpec, StageStore, StoreConfig,
    StoreMetrics,
};
use widening_sim::{run_reference, ReferenceRun};

pub use widening_pipeline::CompileOptions as EvalOptions;

/// Outcome for a single loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopEval {
    /// The loop was scheduled (or bounded, in peak mode).
    Ok {
        /// Achieved (or bounding) initiation interval.
        ii: u32,
        /// The lower bound for reference.
        mii: u32,
        /// Registers used by the allocation (0 in peak mode).
        registers: u32,
        /// Spill operations inserted (stores + reloads).
        spill_ops: u32,
    },
    /// The pipeline could not compile the loop; the cause says why
    /// (register pressure is the paper's `8w1(32-RF)` case, a rewrite
    /// cause is always a compiler bug — reported, never a panic).
    Failed {
        /// Structured failure classification from the pipeline.
        cause: FailureCause,
    },
}

/// Aggregated corpus results for one (configuration, cycle-model) pair.
#[derive(Debug, Clone)]
pub struct CorpusEval {
    /// Per-loop outcomes, parallel to the corpus.
    pub per_loop: Vec<LoopEval>,
    /// `Σ weight · II · ⌈trip / Y⌉` over successful loops.
    pub total_cycles: f64,
    /// `Σ weight · II` (kernel-word accounting).
    pub total_kernel_words: f64,
    /// `Σ II` unweighted — static kernel code size in instruction words
    /// (Figure 7).
    pub total_static_words: f64,
    /// Loops whose pressure was unresolvable.
    pub failed: usize,
    /// Failures whose cause was a spill-rewrite defect — always a
    /// compiler bug, never an expected analytic outcome. Counted
    /// separately (and reported loudly during aggregation) so a rewrite
    /// regression cannot masquerade as ordinary register pressure.
    pub rewrite_failures: usize,
    /// Loops scheduled exactly at their MII.
    pub at_mii: usize,
    /// Total spill operations inserted.
    pub spill_ops: u64,
}

impl CorpusEval {
    /// Whether every loop scheduled within the register budget.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.failed == 0
    }

    /// Fraction of loops achieving `II = MII`.
    #[must_use]
    pub fn mii_rate(&self) -> f64 {
        self.at_mii as f64 / self.per_loop.len() as f64
    }
}

/// Aggregate-memo key: a whole design point.
type EvalKey = PointSpec;

/// The scalar-reference memo: one [`ReferenceRun`] per
/// `(loop index, trip count)`.
type ReferenceMemo = StageStore<(u32, u64), Arc<ReferenceRun>>;

/// Corpus evaluator with two-level memoisation; cheap to clone (shared
/// pipeline and caches).
#[derive(Debug, Clone)]
pub struct Evaluator {
    pipeline: Arc<Pipeline>,
    /// Scalar references for [`crate::simulate_corpus`], pinned for the
    /// evaluator's lifetime and registered in the pipeline's metrics
    /// registry as `store.reference.*`.
    references: Arc<ReferenceMemo>,
    cost: Arc<CostModel>,
    aggregates: Arc<Mutex<HashMap<EvalKey, Arc<CorpusEval>>>>,
    threads: usize,
}

impl Evaluator {
    /// Creates an evaluator over `loops` with the paper's cost models
    /// and the default worker count.
    #[must_use]
    pub fn new(loops: Vec<Loop>) -> Self {
        let pipeline = Pipeline::new(loops);
        Evaluator {
            references: reference_memo(&pipeline),
            pipeline: Arc::new(pipeline),
            cost: Arc::new(CostModel::paper()),
            aggregates: Arc::new(Mutex::new(HashMap::new())),
            threads: pool::default_threads(),
        }
    }

    /// Sets the worker-thread count used for corpus fan-out (evaluation,
    /// simulation and sweeps). Clamped to at least 1.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Rebuilds the pipeline with an explicit artifact-store
    /// configuration (disk persistence and/or an in-memory byte budget).
    /// Call before the first evaluation: the stage stores, the
    /// aggregate memo and the scalar-reference memo start empty.
    #[must_use]
    pub fn with_store(mut self, config: StoreConfig) -> Self {
        let pipeline = Pipeline::with_config(self.pipeline.loops(), config);
        self.references = reference_memo(&pipeline);
        self.pipeline = Arc::new(pipeline);
        self.aggregates = Arc::new(Mutex::new(HashMap::new()));
        self
    }

    /// The corpus being evaluated, shared.
    #[must_use]
    pub fn loops(&self) -> Arc<Vec<Loop>> {
        self.pipeline.loops()
    }

    /// The shared cost model.
    #[must_use]
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The staged compilation pipeline (shared stage caches).
    #[must_use]
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// The scalar-reference memo behind [`crate::simulate_corpus`]: its
    /// `requests` count the runs checked against a reference, its `runs`
    /// the references actually executed.
    #[must_use]
    pub fn references(&self) -> &ReferenceMemo {
        &self.references
    }

    /// The scalar reference of loop `li` at `trip` iterations, executed
    /// once per `(li, trip)` for the evaluator's lifetime and shared by
    /// every configuration and backend that simulates that pair.
    pub(crate) fn reference(&self, li: usize, trip: u64) -> Arc<ReferenceRun> {
        self.references.get_or_fetch(
            (li as u32, trip),
            |r| r.approx_bytes(),
            || {
                let reference = run_reference(self.loops()[li].ddg(), trip);
                (Arc::new(reference), Fetch::Computed)
            },
        )
    }

    /// Worker threads the evaluator fans corpus work out to (shared by
    /// the analytic and simulation pipelines).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Peak evaluation (§3.1): perfect scheduling, infinite registers —
    /// `II = MII` per widened loop.
    #[must_use]
    pub fn peak(&self, replication: u32, width: u32, model: CycleModel) -> Arc<CorpusEval> {
        self.sweep_specs(&[PointSpec::peak(replication, width, model)])
            .remove(0)
    }

    /// Full scheduled evaluation against `cfg.registers()` registers
    /// under the given cycle model.
    #[must_use]
    pub fn scheduled(
        &self,
        cfg: &Configuration,
        model: CycleModel,
        opts: &EvalOptions,
    ) -> Arc<CorpusEval> {
        self.sweep_specs(&[PointSpec::scheduled(cfg, model, *opts)])
            .remove(0)
    }

    /// The §3 baseline: `1w1` with a 256-register file, 4-cycle model.
    #[must_use]
    pub fn baseline_256(&self) -> Arc<CorpusEval> {
        let cfg = Configuration::monolithic(1, 1, 256).expect("valid");
        self.scheduled(&cfg, CycleModel::Cycles4, &EvalOptions::default())
    }

    /// The §5 baseline: `1w1(32:1)` at unit cycle time, 4-cycle model.
    #[must_use]
    pub fn baseline_32(&self) -> Arc<CorpusEval> {
        let cfg = Configuration::monolithic(1, 1, 32).expect("valid");
        self.scheduled(&cfg, CycleModel::Cycles4, &EvalOptions::default())
    }

    /// Evaluates many design points as one batch: one aggregate per
    /// [`PointSpec`], in input order, each point with its own cycle
    /// model and compile options. All `(loop × design point)` units are
    /// compiled on one dynamic worker queue with shared stage caches (a
    /// `1w2/2w2/4w2` sweep widens each loop once, and a mixed-strategy
    /// batch shares the widening and MII stages across strategies).
    ///
    /// Points whose aggregate is not memoized yet are queued **heaviest
    /// first** ([`sweep_priority`], stable, so tied points keep input
    /// order), so a lone worker is never left grinding `8w1(32:1)`
    /// while the rest idle at the tail. Execution order is pure
    /// scheduling: each aggregate is folded in corpus order and stays
    /// bitwise-identical to any other order.
    #[must_use]
    pub fn sweep_specs(&self, specs: &[PointSpec]) -> Vec<Arc<CorpusEval>> {
        let mut missing: Vec<PointSpec> = {
            let memo = self.aggregates.lock().expect("aggregate lock");
            let mut seen = HashSet::new();
            specs
                .iter()
                .filter(|s| !memo.contains_key(*s) && seen.insert(**s))
                .copied()
                .collect()
        };
        heaviest_first(&mut missing);
        let loops = self.loops();
        let compiled = self.pipeline.sweep(&missing, self.threads);
        for (spec, artifacts) in missing.iter().zip(compiled) {
            let evaluated = artifacts
                .iter()
                .zip(loops.iter())
                .map(|(outcome, l)| score_loop(l, spec.width, outcome))
                .collect();
            self.memoize(spec, Arc::new(aggregate(evaluated)));
            // The aggregate is folded: the point's schedule-stage
            // entries may now be evicted under memory pressure.
            self.pipeline.seal_point(spec);
        }
        let memo = self.aggregates.lock().expect("aggregate lock");
        specs.iter().map(|s| Arc::clone(&memo[s])).collect()
    }

    /// Memoizes `agg` for `spec`, returning the memoized aggregate: a
    /// point computed twice (two batches racing) keeps the first, which
    /// is bitwise equal to the second.
    pub(crate) fn memoize(&self, spec: &PointSpec, agg: Arc<CorpusEval>) -> Arc<CorpusEval> {
        let mut memo = self.aggregates.lock().expect("aggregate lock");
        Arc::clone(memo.entry(*spec).or_insert(agg))
    }
}

/// An empty scalar-reference memo counting into `pipeline`'s metrics
/// registry.
fn reference_memo(pipeline: &Pipeline) -> Arc<ReferenceMemo> {
    Arc::new(StageStore::pinned(StoreMetrics::for_stage(
        pipeline.metrics(),
        "reference",
    )))
}

/// Sorts design points into queue order: heaviest first by
/// [`sweep_priority`], stable, so tied points keep input order.
fn heaviest_first(points: &mut [PointSpec]) {
    points.sort_by_key(|s| Reverse(sweep_priority(s.replication, s.width, s.registers)));
}

/// Scores one compiled loop: the outcome plus its weighted cycle and
/// kernel-word contributions.
fn score_loop(
    l: &Loop,
    width: u32,
    outcome: &Result<CompiledLoop, widening_pipeline::PipelineError>,
) -> (LoopEval, f64, f64, f64) {
    let compiled = match outcome {
        Ok(c) => c,
        Err(e) => {
            if e.cause() == FailureCause::Rewrite {
                // The seed panicked here; report loudly — with the loop
                // name and the full graph-error detail the panic used to
                // carry — so the rest of the corpus still evaluates but
                // a rewrite bug can never pass as register pressure.
                eprintln!(
                    "warning: spill rewrite failed on {}: {e} — compiler defect, \
                     not register pressure",
                    l.name()
                );
            }
            return (LoopEval::Failed { cause: e.cause() }, 0.0, 0.0, 0.0);
        }
    };
    score_eval(
        l,
        width,
        LoopEval::Ok {
            ii: compiled.ii(),
            mii: compiled.mii(),
            registers: compiled.registers_used(),
            spill_ops: compiled.spill_ops(),
        },
    )
}

/// Scores a per-loop outcome: the exact arithmetic of the analytic
/// model, shared by the in-process path ([`score_loop`]) and the
/// distributed merge (which reconstructs `LoopEval`s from published
/// unit results). Keeping the two on one function is what makes a
/// merged distributed sweep **bitwise-equal** to a single-process one.
pub(crate) fn score_eval(l: &Loop, width: u32, le: LoopEval) -> (LoopEval, f64, f64, f64) {
    match le {
        LoopEval::Ok { ii, .. } => {
            let block_iterations = l.trip_count().div_ceil(u64::from(width));
            let cycles = l.weight() * f64::from(ii) * block_iterations as f64;
            let words = l.weight() * f64::from(ii);
            (le, cycles, words, f64::from(ii))
        }
        LoopEval::Failed { .. } => (le, 0.0, 0.0, 0.0),
    }
}

/// Folds per-loop scores into a [`CorpusEval`], left to right in corpus
/// order: the one f64 association the in-process and distributed paths
/// share, so their aggregates are bitwise equal.
pub(crate) fn aggregate(results: Vec<(LoopEval, f64, f64, f64)>) -> CorpusEval {
    let mut eval = CorpusEval {
        per_loop: Vec::with_capacity(results.len()),
        total_cycles: 0.0,
        total_kernel_words: 0.0,
        total_static_words: 0.0,
        failed: 0,
        rewrite_failures: 0,
        at_mii: 0,
        spill_ops: 0,
    };
    for (le, cycles, words, static_words) in results {
        match le {
            LoopEval::Ok {
                ii, mii, spill_ops, ..
            } => {
                eval.total_cycles += cycles;
                eval.total_kernel_words += words;
                eval.total_static_words += static_words;
                if ii == mii {
                    eval.at_mii += 1;
                }
                eval.spill_ops += u64::from(spill_ops);
            }
            LoopEval::Failed { cause } => {
                eval.failed += 1;
                // score_loop already warned with the loop name and full
                // error; the aggregate keeps the count queryable.
                if cause == FailureCause::Rewrite {
                    eval.rewrite_failures += 1;
                }
            }
        }
        eval.per_loop.push(le);
    }
    eval
}

#[cfg(test)]
mod tests {
    use super::*;
    use widening_workload::{corpus, kernels};

    fn small_eval() -> Evaluator {
        Evaluator::new(corpus::generate(&corpus::CorpusSpec::small(40, 9)))
    }

    #[test]
    fn peak_speedup_grows_with_replication() {
        let ev = small_eval();
        let base = ev.peak(1, 1, CycleModel::Cycles4).total_cycles;
        let x2 = ev.peak(2, 1, CycleModel::Cycles4).total_cycles;
        let x4 = ev.peak(4, 1, CycleModel::Cycles4).total_cycles;
        assert!(x2 < base);
        assert!(x4 < x2);
        let s4 = base / x4;
        assert!(s4 > 1.5 && s4 < 4.0, "speed-up {s4}");
    }

    #[test]
    fn peak_widening_does_not_meaningfully_beat_replication() {
        // §3.1: widening is less versatile; at equal factor its peak
        // performance cannot exceed replication's — except for ceiling
        // effects (a 3-access loop on 2 buses pays ⌈3/2⌉ = 2 per
        // iteration, while one wide bus pays 3 per 2 iterations = 1.5),
        // which can hand widening a few percent on small loops.
        let ev = small_eval();
        for factor in [2u32, 4, 8] {
            let repl = ev.peak(factor, 1, CycleModel::Cycles4).total_cycles;
            let wide = ev.peak(1, factor, CycleModel::Cycles4).total_cycles;
            assert!(
                wide >= repl * 0.95,
                "×{factor}: widening {wide} beats replication {repl} beyond ceiling effects"
            );
        }
    }

    #[test]
    fn scheduled_matches_peak_with_huge_file() {
        // With 256 registers and the small corpus, most loops schedule
        // at MII, so scheduled cycles ≈ peak cycles.
        let ev = small_eval();
        let cfg = Configuration::monolithic(2, 1, 256).unwrap();
        let sched = ev.scheduled(&cfg, CycleModel::Cycles4, &EvalOptions::default());
        let peak = ev.peak(2, 1, CycleModel::Cycles4);
        assert!(sched.is_complete());
        assert!(sched.total_cycles >= peak.total_cycles);
        let ratio = sched.total_cycles / peak.total_cycles;
        assert!(ratio < 1.15, "scheduled/peak = {ratio}");
        assert!(sched.mii_rate() > 0.85, "MII rate {}", sched.mii_rate());
    }

    #[test]
    fn small_file_costs_cycles() {
        let ev = small_eval();
        let big = ev.scheduled(
            &Configuration::monolithic(4, 1, 256).unwrap(),
            CycleModel::Cycles4,
            &EvalOptions::default(),
        );
        let small = ev.scheduled(
            &Configuration::monolithic(4, 1, 32).unwrap(),
            CycleModel::Cycles4,
            &EvalOptions::default(),
        );
        // Smaller file: spill code and/or II growth (or outright
        // failures).
        assert!(
            small.total_cycles >= big.total_cycles || small.failed > 0,
            "32-RF should not be faster than 256-RF"
        );
        assert!(small.spill_ops >= big.spill_ops);
    }

    #[test]
    fn cache_returns_same_result() {
        let ev = small_eval();
        let a = ev.peak(2, 2, CycleModel::Cycles4);
        let b = ev.peak(2, 2, CycleModel::Cycles4);
        assert!(Arc::ptr_eq(&a, &b), "second call should hit the cache");
    }

    #[test]
    fn kernels_evaluate_cleanly() {
        let ev = Evaluator::new(kernels::all());
        let cfg = Configuration::monolithic(2, 2, 64).unwrap();
        let r = ev.scheduled(&cfg, CycleModel::Cycles4, &EvalOptions::default());
        assert!(r.is_complete());
        assert_eq!(r.per_loop.len(), 12);
    }

    #[test]
    fn baselines_are_consistent() {
        let ev = small_eval();
        let b256 = ev.baseline_256();
        let b32 = ev.baseline_32();
        assert!(b256.is_complete());
        assert!(b32.total_cycles >= b256.total_cycles);
    }

    #[test]
    fn sweep_matches_single_point_evaluation() {
        let loops = corpus::generate(&corpus::CorpusSpec::small(25, 3));
        let cfgs: Vec<Configuration> = ["1w1(64:1)", "2w2(64:1)", "4w2(64:1)"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let specs: Vec<PointSpec> = cfgs
            .iter()
            .map(|cfg| PointSpec::scheduled(cfg, CycleModel::Cycles4, EvalOptions::default()))
            .collect();

        let swept = Evaluator::new(loops.clone());
        let batch = swept.sweep_specs(&specs);

        let single = Evaluator::new(loops);
        for (cfg, got) in cfgs.iter().zip(&batch) {
            let want = single.scheduled(cfg, CycleModel::Cycles4, &EvalOptions::default());
            assert_eq!(got.total_cycles.to_bits(), want.total_cycles.to_bits());
            assert_eq!(got.failed, want.failed);
            assert_eq!(got.at_mii, want.at_mii);
            assert_eq!(got.spill_ops, want.spill_ops);
        }
        // The batch shares widening across the Y = 2 points.
        let counts = swept.pipeline().stage_counts();
        assert_eq!(counts.widen_runs, 2 * 25);
        // Sweep results are memoized: re-reading is pure cache.
        let again = swept.sweep_specs(&specs);
        for (a, b) in batch.iter().zip(&again) {
            assert!(Arc::ptr_eq(a, b));
        }
    }

    #[test]
    fn sweep_order_is_priority_major_and_result_preserving() {
        // The pressure-starved 8w1(32) point is queued first and the
        // cheap 1w1(256) last; 2w2(64) and 4w1(64) tie (X·Y = 4 on the
        // same file) and keep their input order.
        let specs: Vec<PointSpec> = [
            "1w1(256:1)",
            "2w2(64:1)",
            "8w1(32:1)",
            "4w1(64:1)",
            "4w2(64:1)",
        ]
        .iter()
        .map(|s| {
            PointSpec::scheduled(
                &s.parse().unwrap(),
                CycleModel::Cycles4,
                EvalOptions::default(),
            )
        })
        .collect();
        let mut queued = specs.clone();
        heaviest_first(&mut queued);
        let order: Vec<usize> = queued
            .iter()
            .map(|q| specs.iter().position(|s| s == q).unwrap())
            .collect();
        assert_eq!(order, [2, 4, 1, 3, 0]);

        // Reordering execution changes nothing about the aggregates,
        // bit for bit.
        let n = 7;
        let loops = corpus::generate(&corpus::CorpusSpec::small(n, 5));
        let batch = Evaluator::new(loops.clone())
            .with_threads(4)
            .sweep_specs(&specs);
        let single = Evaluator::new(loops);
        for (spec, got) in specs.iter().zip(&batch) {
            let want = single.sweep_specs(std::slice::from_ref(spec));
            assert_eq!(got.total_cycles.to_bits(), want[0].total_cycles.to_bits());
            assert_eq!(got.per_loop, want[0].per_loop);
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let loops = corpus::generate(&corpus::CorpusSpec::small(18, 21));
        let cfg = Configuration::monolithic(4, 2, 64).unwrap();
        let a = Evaluator::new(loops.clone()).with_threads(1).scheduled(
            &cfg,
            CycleModel::Cycles4,
            &EvalOptions::default(),
        );
        let b = Evaluator::new(loops).with_threads(7).scheduled(
            &cfg,
            CycleModel::Cycles4,
            &EvalOptions::default(),
        );
        assert_eq!(a.total_cycles.to_bits(), b.total_cycles.to_bits());
        assert_eq!(a.per_loop, b.per_loop);
    }

    #[test]
    fn failures_carry_structured_causes() {
        // The paper's unresolvable-pressure case: 8w1 on a 32-RF. Any
        // failed loop must say why instead of panicking the corpus run.
        let ev = small_eval();
        let cfg = Configuration::monolithic(8, 1, 32).unwrap();
        let r = ev.scheduled(&cfg, CycleModel::Cycles4, &EvalOptions::default());
        for le in &r.per_loop {
            if let LoopEval::Failed { cause } = le {
                assert!(
                    matches!(cause, FailureCause::Pressure { .. }),
                    "unexpected cause {cause}"
                );
            }
        }
        assert!(r.failed > 0, "8w1(32-RF) should fail some loops");
    }
}
