//! Corpus-scale simulation: every loop is widened, scheduled, executed
//! cycle-accurately and differentially validated against its scalar
//! reference, in parallel on the evaluator's worker pool.
//!
//! Where [`crate::Evaluator::scheduled`] *counts* `II · ⌈trip/Y⌉`
//! analytically, [`simulate_corpus`] *runs* the schedule and reports
//! both numbers side by side — so experiments can quantify the
//! fill/drain transient and assert functional correctness of the whole
//! widen → schedule → allocate → spill pipeline on real corpus loops.
//!
//! Compilation goes through the evaluator's shared [`widening_pipeline`]
//! stage caches: simulating a configuration that was already evaluated
//! analytically (or at another trip count) replays the memoized
//! schedule instead of recompiling it.
//!
//! Every executed run is compared bitwise against the scalar reference:
//! every store cell and every per-node value checksum. The reference
//! depends only on the loop and its trip count, so the evaluator
//! memoizes it ([`Evaluator::references`]). The memo keeps one
//! [`widening_sim::ReferenceRun`] per `(loop index, trip count)`: the
//! final store regions and the checksums, never the load regions. It
//! lives as long as the evaluator, and every configuration and backend
//! that simulates a pair compares against the same run, so a
//! three-configuration pass executes each reference once. The corpus is
//! fixed for the evaluator's lifetime, and memory-only pipelines build
//! no content fingerprints, so the key is the loop index.
//! The memo counts into the pipeline's metrics registry as
//! `store.reference.*`.
//!
//! With a persistent store ([`widening_pipeline::StoreConfig`]
//! `cache_dir`), validated per-loop simulation summaries are
//! additionally persisted in the store's exchange tier under the same
//! content-key scheme as compiled artifacts (graph fingerprint +
//! design point + trip count): a second `--simulate` run **warm-starts
//! from disk**, replaying every summary instead of re-executing the
//! simulator — the decode-table rebuild included. Only *validated*
//! runs persist; a divergence or hard failure (both always bugs) is
//! re-derived every run so it can never hide in a stale cache.

use std::sync::atomic::{AtomicUsize, Ordering};

use widening_machine::{Configuration, CycleModel};
use widening_pipeline::exchange::{sim_summary_key, SIM_SUMMARY_KIND};
use widening_pipeline::{pool, Exchange, PointSpec};
use widening_sim::{simulate_with_reference, Backend, SimStats};
use widening_wire::{Reader, Writer};

use crate::evaluate::{EvalOptions, Evaluator};

/// Version of the persisted simulation-summary record.
const SIM_SUMMARY_VERSION: u32 = 1;

fn encode_sim_summary(ii: u32, stats: &SimStats) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(SIM_SUMMARY_VERSION);
    w.u32(ii);
    for v in [
        stats.cycles,
        stats.blocks,
        stats.steady_state_cycles,
        stats.issued_ops,
        stats.masked_lanes,
        stats.cross_block_reads,
        stats.spill_slot_accesses,
    ] {
        w.u64(v);
    }
    w.into_bytes()
}

fn decode_sim_summary(bytes: &[u8]) -> Option<(u32, SimStats)> {
    let mut r = Reader::new(bytes);
    if r.u32()? != SIM_SUMMARY_VERSION {
        return None;
    }
    let ii = r.u32()?;
    let stats = SimStats {
        cycles: r.u64()?,
        blocks: r.u64()?,
        steady_state_cycles: r.u64()?,
        issued_ops: r.u64()?,
        masked_lanes: r.u64()?,
        cross_block_reads: r.u64()?,
        spill_slot_accesses: r.u64()?,
    };
    r.exhausted().then_some((ii, stats))
}

/// Outcome of simulating one loop.
#[derive(Debug, Clone, PartialEq)]
pub enum SimLoopEval {
    /// Executed and bitwise-identical to the scalar reference.
    Validated {
        /// Achieved initiation interval.
        ii: u32,
        /// Dynamic execution counters.
        stats: SimStats,
    },
    /// Executed but diverged from the reference (a pipeline bug).
    Divergent {
        /// Number of reported divergences.
        divergences: usize,
    },
    /// Could not be scheduled (register pressure) or hit a hard machine
    /// violation.
    Failed {
        /// Human-readable cause.
        why: String,
    },
}

/// Aggregated corpus simulation results for one configuration.
#[derive(Debug, Clone)]
pub struct SimCorpusEval {
    /// Per-loop outcomes, parallel to the corpus.
    pub per_loop: Vec<SimLoopEval>,
    /// Loops that executed and matched the reference bitwise.
    pub validated: usize,
    /// Loops that executed but diverged (always a bug somewhere).
    pub divergent: usize,
    /// Loops that failed to schedule or execute.
    pub failed: usize,
    /// `Σ weight · dynamic cycles` over validated loops.
    pub dynamic_cycles: f64,
    /// `Σ weight · II · ⌈trip/Y⌉` over the same loops — the analytic
    /// accounting for exactly the runs that were simulated.
    pub steady_cycles: f64,
    /// Total masked lanes (trips not divisible by `Y`).
    pub masked_lanes: u64,
    /// Total forwarding-served cross-block lane reads.
    pub cross_block_reads: u64,
    /// Loops replayed from persisted simulation summaries instead of
    /// being executed (0 without a persistent store).
    pub warm_hits: usize,
}

impl SimCorpusEval {
    /// Whether every simulated loop matched its reference.
    #[must_use]
    pub fn all_validated(&self) -> bool {
        self.divergent == 0
    }

    /// Dynamic over steady-state cycles: how much the paper's
    /// accounting underestimates real execution (1.0 = exact).
    #[must_use]
    pub fn transient_ratio(&self) -> f64 {
        if self.steady_cycles == 0.0 {
            1.0
        } else {
            self.dynamic_cycles / self.steady_cycles
        }
    }
}

/// Simulates the whole corpus on `cfg`, optionally forcing every loop to
/// `trip_override` iterations (used by the transients experiment to
/// sweep trip counts).
///
/// `backend` selects the execution engine: the cycle-level interpreter,
/// the lowered `WideProgram` bytecode, or both in lock-step
/// ([`Backend::Differential`], which errors on the first divergence).
/// Backends that execute bytecode materialize the program through the
/// pipeline's memoized (and disk-persisted) lower stage, so a transients
/// sweep lowers each design point **once** across all its trip
/// overrides, and a warm `--simulate` run decodes programs from disk
/// with zero live lower-stage runs.
#[must_use]
pub fn simulate_corpus(
    eval: &Evaluator,
    cfg: &Configuration,
    model: CycleModel,
    opts: &EvalOptions,
    trip_override: Option<u64>,
    backend: Backend,
) -> SimCorpusEval {
    let loops = eval.loops();
    let spec = PointSpec::scheduled(cfg, model, *opts);
    let pipeline = eval.pipeline();
    // The warm-start tier: present only with a persistent store.
    let exchange = pipeline
        .store_config()
        .cache_dir
        .as_deref()
        .and_then(Exchange::open);
    let warm = AtomicUsize::new(0);
    let out = pool::par_map(loops.len(), eval.threads(), |li| {
        let l = &loops[li];
        let trip = trip_override.unwrap_or_else(|| l.trip_count());
        let key = exchange.as_ref().map(|_| {
            let fp = pipeline.content_fingerprint(li);
            // The backend is part of the summary key: a persisted
            // interpreter run must never short-circuit a
            // differential run (the whole point of which is to
            // execute both engines).
            let mut key = sim_summary_key(fp, &spec, trip);
            key.extend_from_slice(backend.label().as_bytes());
            key
        });
        if let (Some(ex), Some(key)) = (&exchange, &key) {
            if let Some((ii, stats)) = ex
                .get(SIM_SUMMARY_KIND, key)
                .and_then(|b| decode_sim_summary(&b))
            {
                // A summary is only ever persisted for a validated run,
                // and its integers replay the execution exactly.
                warm.fetch_add(1, Ordering::Relaxed);
                return SimLoopEval::Validated { ii, stats };
            }
        }
        let compiled = match pipeline.compile(li, &spec) {
            Ok(c) => c,
            Err(e) => {
                return SimLoopEval::Failed {
                    why: format!("pipeline failed: {e}"),
                }
            }
        };
        let stage = compiled
            .scheduled()
            .expect("scheduled design points always carry a schedule stage");
        // Bytecode-executing backends fetch the program from the
        // memoized lower stage (shared across trips and warm-started
        // from disk) instead of lowering inline per run.
        let program = if backend.uses_lowered() {
            match pipeline.lowered(li, &spec) {
                Ok(p) => Some(p),
                Err(e) => {
                    return SimLoopEval::Failed {
                        why: format!("pipeline failed: {e}"),
                    }
                }
            }
        } else {
            None
        };
        let outcome = simulate_with_reference(
            l.ddg(),
            compiled.wide(),
            &stage.result,
            model,
            backend,
            program.as_deref(),
            &eval.reference(li, trip),
        );
        match outcome {
            Ok(report) if report.is_validated() => {
                if let (Some(ex), Some(key)) = (&exchange, &key) {
                    ex.put(
                        SIM_SUMMARY_KIND,
                        key,
                        &encode_sim_summary(report.ii, &report.stats),
                    );
                }
                SimLoopEval::Validated {
                    ii: report.ii,
                    stats: report.stats,
                }
            }
            Ok(report) => SimLoopEval::Divergent {
                divergences: report.divergences.len(),
            },
            Err(e) => SimLoopEval::Failed { why: e.to_string() },
        }
    });

    let mut agg = SimCorpusEval {
        per_loop: Vec::with_capacity(loops.len()),
        validated: 0,
        divergent: 0,
        failed: 0,
        dynamic_cycles: 0.0,
        steady_cycles: 0.0,
        masked_lanes: 0,
        cross_block_reads: 0,
        warm_hits: warm.into_inner(),
    };
    for (le, l) in out.into_iter().zip(loops.iter()) {
        match &le {
            SimLoopEval::Validated { stats, .. } => {
                agg.validated += 1;
                agg.dynamic_cycles += l.weight() * stats.cycles as f64;
                agg.steady_cycles += l.weight() * stats.steady_state_cycles as f64;
                agg.masked_lanes += stats.masked_lanes;
                agg.cross_block_reads += stats.cross_block_reads;
            }
            SimLoopEval::Divergent { .. } => agg.divergent += 1,
            SimLoopEval::Failed { .. } => agg.failed += 1,
        }
        agg.per_loop.push(le);
    }
    agg
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use widening_workload::{corpus, kernels};

    /// An encoded summary of arbitrary counters.
    fn arb_summary() -> impl Strategy<Value = (u32, SimStats)> {
        (any::<u32>(), proptest::collection::vec(any::<u64>(), 7)).prop_map(|(ii, v)| {
            let stats = SimStats {
                cycles: v[0],
                blocks: v[1],
                steady_state_cycles: v[2],
                issued_ops: v[3],
                masked_lanes: v[4],
                cross_block_reads: v[5],
                spill_slot_accesses: v[6],
            };
            (ii, stats)
        })
    }

    // The warm simulation path decodes whatever bytes a persisted summary
    // file holds: every input must decode or come back `None`.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn sim_summary_round_trips(summary in arb_summary()) {
            let (ii, stats) = summary;
            prop_assert_eq!(decode_sim_summary(&encode_sim_summary(ii, &stats)), Some((ii, stats)));
        }

        #[test]
        fn sim_summary_random_bytes_never_panic(
            bytes in proptest::collection::vec(any::<u8>(), 0..96),
        ) {
            let _ = decode_sim_summary(&bytes);
        }

        /// Every strict prefix is rejected: a short file is never read as
        /// a summary with zeroed counters.
        #[test]
        fn sim_summary_truncation_is_rejected(summary in arb_summary(), cut in any::<usize>()) {
            let bytes = encode_sim_summary(summary.0, &summary.1);
            prop_assert!(decode_sim_summary(&bytes[..cut % bytes.len()]).is_none());
        }

        /// A flipped byte never panics; outside the version tag it still
        /// decodes (every bit pattern is a valid counter), so the
        /// exchange tier's checksum is what rejects such files.
        #[test]
        fn sim_summary_single_byte_flips_never_panic(
            summary in arb_summary(),
            pos in any::<usize>(),
            flip in 1u8..=255,
        ) {
            let mut bytes = encode_sim_summary(summary.0, &summary.1);
            let at = pos % bytes.len();
            bytes[at] ^= flip;
            prop_assert_eq!(decode_sim_summary(&bytes).is_some(), at >= 4);
        }
    }

    #[test]
    fn golden_sim_summary() {
        let stats = SimStats {
            cycles: 1000,
            blocks: 8,
            steady_state_cycles: 960,
            issued_ops: 4096,
            masked_lanes: 3,
            cross_block_reads: 7,
            spill_slot_accesses: 0x0102_0304_0506_0708,
        };
        let hex: String = encode_sim_summary(5, &stats)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            concat!(
                "0100000005000000e8030000000000000800000000000000c003000000000000",
                "0010000000000000030000000000000007000000000000000807060504030201",
            )
        );
    }

    #[test]
    fn kernels_simulate_and_validate() {
        let ev = Evaluator::new(kernels::all());
        let cfg = Configuration::monolithic(2, 2, 128).unwrap();
        // Differential: interpreter and lowered bytecode in lock-step.
        let r = simulate_corpus(
            &ev,
            &cfg,
            CycleModel::Cycles4,
            &EvalOptions::default(),
            None,
            Backend::Differential,
        );
        assert!(r.all_validated(), "divergent: {}", r.divergent);
        assert_eq!(r.failed, 0);
        assert_eq!(r.validated, 12);
        // Dynamic cycles always include the fill transient.
        assert!(r.dynamic_cycles >= r.steady_cycles * 0.99);
    }

    #[test]
    fn small_corpus_validates_across_configs() {
        let ev = Evaluator::new(corpus::generate(&corpus::CorpusSpec::small(12, 5)));
        for spec in ["1w1(128:1)", "1w4(128:1)", "4w2(128:1)"] {
            let cfg: Configuration = spec.parse().unwrap();
            let r = simulate_corpus(
                &ev,
                &cfg,
                CycleModel::Cycles4,
                &EvalOptions::default(),
                None,
                Backend::Differential,
            );
            assert!(r.all_validated(), "{spec}: {} divergent", r.divergent);
        }
    }

    #[test]
    fn simulation_warm_starts_from_persisted_summaries() {
        use widening_pipeline::StoreConfig;
        let dir = std::env::temp_dir().join(format!("widening-simsum-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let loops = corpus::generate(&corpus::CorpusSpec::small(10, 5));
        let cfg = Configuration::monolithic(2, 2, 128).unwrap();

        let cold_ev = Evaluator::new(loops.clone()).with_store(StoreConfig::persistent(&dir));
        let cold = simulate_corpus(
            &cold_ev,
            &cfg,
            CycleModel::Cycles4,
            &EvalOptions::default(),
            None,
            Backend::Interpret,
        );
        assert!(cold.all_validated());
        assert_eq!(cold.warm_hits, 0, "cold run must execute");

        // A fresh evaluator (new process, as far as the store can
        // tell): every validated loop replays from its summary, and the
        // aggregates are bitwise identical.
        let warm_ev = Evaluator::new(loops).with_store(StoreConfig::persistent(&dir));
        let warm = simulate_corpus(
            &warm_ev,
            &cfg,
            CycleModel::Cycles4,
            &EvalOptions::default(),
            None,
            Backend::Interpret,
        );
        assert_eq!(warm.warm_hits, warm.validated);
        assert_eq!(warm.validated, cold.validated);
        assert_eq!(warm.per_loop, cold.per_loop);
        assert_eq!(warm.dynamic_cycles.to_bits(), cold.dynamic_cycles.to_bits());
        assert_eq!(warm.steady_cycles.to_bits(), cold.steady_cycles.to_bits());
        // The simulator itself never ran: no schedule stage was even
        // requested live (everything the warm path needs is the summary).
        assert_eq!(warm_ev.pipeline().stage_counts().live_runs(), 0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn reference_runs_once_per_loop_and_trip() {
        use std::collections::HashSet;
        let loops = corpus::generate(&corpus::CorpusSpec::small(12, 5));
        let cfgs: Vec<Configuration> = ["1w1(128:1)", "2w2(128:1)", "4w2(128:1)"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let trips = [None, Some(16)];
        let backends = [Backend::Lowered, Backend::Interpret];
        let run = |ev: &Evaluator, cfg: &Configuration, trip, backend| {
            let opts = EvalOptions::default();
            simulate_corpus(ev, cfg, CycleModel::Cycles4, &opts, trip, backend)
        };

        let shared = Evaluator::new(loops.clone());
        let mut distinct = HashSet::new();
        let mut executed = 0u64;
        for cfg in &cfgs {
            for trip in trips {
                for backend in backends {
                    let got = run(&shared, cfg, trip, backend);
                    assert!(got.all_validated(), "{cfg} trip {trip:?} {backend}");
                    // A fresh evaluator runs its own references: the
                    // memo must not change a single outcome or bit.
                    let want = run(&Evaluator::new(loops.clone()), cfg, trip, backend);
                    assert_eq!(got.per_loop, want.per_loop);
                    assert_eq!((got.validated, got.failed), (want.validated, want.failed));
                    assert_eq!(got.dynamic_cycles.to_bits(), want.dynamic_cycles.to_bits());
                    assert_eq!(got.steady_cycles.to_bits(), want.steady_cycles.to_bits());
                    assert_eq!(got.masked_lanes, want.masked_lanes);
                    assert_eq!(got.cross_block_reads, want.cross_block_reads);
                    for (li, le) in got.per_loop.iter().enumerate() {
                        // Units the pipeline cannot compile never
                        // execute, so they never ask for a reference.
                        if !matches!(le, SimLoopEval::Failed { why } if why.starts_with("pipeline"))
                        {
                            executed += 1;
                            distinct.insert((li, trip.unwrap_or(loops[li].trip_count())));
                        }
                    }
                }
            }
        }
        let memo = shared.references();
        assert_eq!(memo.runs(), distinct.len() as u64);
        assert_eq!(memo.requests(), executed);
        assert!(memo.runs() < memo.requests());
        // The counters are registered in the pipeline's metrics registry,
        // which also prices what the memo holds.
        let metrics = shared.pipeline().metrics();
        assert_eq!(metrics.counter("store.reference.runs").get(), memo.runs());
        assert!(metrics.gauge("store.reference.resident-bytes").get() > 0);
        // A store rebuild starts an empty memo in the new registry.
        let rebuilt = shared
            .clone()
            .with_store(widening_pipeline::StoreConfig::default());
        assert_eq!(rebuilt.references().requests(), 0);
        let _ = simulate_corpus(
            &rebuilt,
            &cfgs[0],
            CycleModel::Cycles4,
            &EvalOptions::default(),
            Some(16),
            Backend::Lowered,
        );
        let fresh = rebuilt.pipeline().metrics();
        assert!(rebuilt.references().runs() > 0);
        assert_eq!(
            fresh.counter("store.reference.runs").get(),
            rebuilt.references().runs()
        );
        assert_eq!(memo.runs(), distinct.len() as u64, "old memo untouched");
    }

    #[test]
    fn trip_override_shrinks_runs() {
        let ev = Evaluator::new(kernels::all());
        let cfg = Configuration::monolithic(1, 2, 128).unwrap();
        let short = simulate_corpus(
            &ev,
            &cfg,
            CycleModel::Cycles4,
            &EvalOptions::default(),
            Some(4),
            Backend::Lowered,
        );
        let long = simulate_corpus(
            &ev,
            &cfg,
            CycleModel::Cycles4,
            &EvalOptions::default(),
            Some(64),
            Backend::Lowered,
        );
        assert!(short.dynamic_cycles < long.dynamic_cycles);
        // Short trips amplify the transient share.
        assert!(short.transient_ratio() >= long.transient_ratio());
        // Both trip counts replayed one memoized schedule per loop (the
        // spill engine ran only where the base does not fit) — and, on
        // the lowered backend, one memoized program per loop: trip
        // overrides share the trip-independent bytecode.
        let c = ev.pipeline().stage_counts();
        let spec = PointSpec::scheduled(&cfg, CycleModel::Cycles4, EvalOptions::default());
        let spilled = (0..kernels::all().len())
            .filter(|&li| {
                let base = ev.pipeline().base_schedule(li, &spec);
                base.is_ok_and(|b| b.needed > cfg.registers())
            })
            .count();
        assert_eq!(c.schedule_runs, spilled as u64);
        assert_eq!(c.base_schedule_runs, kernels::all().len() as u64);
        assert_eq!(c.lower_runs, kernels::all().len() as u64);
        assert_eq!(c.lower_requests, 2 * kernels::all().len() as u64);
    }
}
