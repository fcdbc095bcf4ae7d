//! Differential property tests: for arbitrary generated loops, widths
//! `Y ∈ {1, 2, 4}` and trip counts — including trips shorter than the
//! pipeline depth and trips not divisible by `Y` — the cycle-accurate
//! wide execution must match the scalar reference bitwise, and its
//! dynamic cycle count must equal the analytic steady-state term
//! `II · ⌈trip/Y⌉` plus the schedule's fill/drain transient.
//!
//! Every simulation here runs [`Backend::Differential`]: the
//! interpreting machine and the lowered-bytecode backend execute the
//! same compiled loop and must agree bitwise on every memory cell,
//! checksum and dynamic counter — any lowering bug fails the property
//! as a `BackendDivergence` before the reference comparison even runs.

use proptest::prelude::*;
use widening_ir::{Ddg, DdgBuilder, EdgeKind, NodeId, OpKind};
use widening_machine::{Configuration, CycleModel};
use widening_regalloc::{schedule_with_registers, RegallocError, SpillOptions};
use widening_sched::SchedulerOptions;
use widening_sim::{simulate_scheduled, Backend, SimFailure};
use widening_transform::widen;

/// A random but always-valid loop body mixing unit/strided memory ops,
/// FPU ops and loop-carried recurrences. Distance-0 edges only go
/// forward, guaranteeing the distance-0 DAG invariant.
fn arb_ddg() -> impl Strategy<Value = Ddg> {
    let kinds = prop_oneof![
        4 => Just(OpKind::FAdd),
        3 => Just(OpKind::FMul),
        2 => Just(OpKind::FSub),
        1 => Just(OpKind::FDiv),
    ];
    (3usize..12, proptest::collection::vec(kinds, 12))
        .prop_flat_map(|(n, kinds)| {
            let edges =
                proptest::collection::vec((0usize..n, 0usize..n, 0u32..6, any::<bool>()), 1..2 * n);
            (Just(n), Just(kinds), edges, 1i64..3)
        })
        .prop_map(|(n, kinds, edges, stride)| {
            let mut b = DdgBuilder::new();
            let ids: Vec<NodeId> = (0..n)
                .map(|i| match i % 4 {
                    0 => b.load(if i % 8 == 0 { 1 } else { stride }),
                    3 => b.store(1),
                    _ => b.op(kinds[i]),
                })
                .collect();
            let produces = |i: usize| i % 4 != 3;
            for (s, d, dist, carried) in edges {
                let (s, d) = (s.min(n - 1), d.min(n - 1));
                if carried && dist > 0 {
                    if produces(s) {
                        b.carried_flow(ids[s], ids[d], dist);
                    } else {
                        b.add_edge(ids[s], ids[d], EdgeKind::Memory, dist);
                    }
                } else if s < d {
                    if produces(s) {
                        b.flow(ids[s], ids[d]);
                    } else {
                        b.add_edge(ids[s], ids[d], EdgeKind::Order, 0);
                    }
                }
            }
            b.build().expect("construction is valid by design")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline differential property: simulated final state matches
    /// the scalar reference for every (loop, configuration, trip count),
    /// and simulated cycles equal `II·⌈trip/Y⌉` plus the fill/drain
    /// term.
    #[test]
    fn wide_execution_matches_scalar_reference(
        g in arb_ddg(),
        yi in 0usize..3,
        xi in 0usize..2,
        zi in 0usize..3,
        trip in 1u64..48,
    ) {
        let y = [1u32, 2, 4][yi];
        let x = [1u32, 2][xi];
        let z = [32u32, 64, 256][zi];
        let cfg = Configuration::monolithic(x, y, z).expect("powers of two");
        let model = CycleModel::Cycles4;

        let outcome = widen(&g, y);
        let result = match schedule_with_registers(
            outcome.shared_ddg(),
            &cfg,
            model,
            &SchedulerOptions::default(),
            &SpillOptions::default(),
        ) {
            Ok(r) => r,
            // Unresolvable pressure is a legitimate analytic outcome
            // (the paper's 8w1/32-RF case); nothing to simulate.
            Err(RegallocError::Pressure { .. }) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("pipeline: {e}"))),
        };

        let report = match simulate_scheduled(&g, &outcome, &result, model, trip, Backend::Differential) {
            Ok(r) => r,
            Err(SimFailure::Execution(e)) => {
                return Err(TestCaseError::fail(format!(
                    "machine-state violation on {cfg} trip {trip}: {e}"
                )));
            }
            Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
        };

        prop_assert!(
            report.is_validated(),
            "{cfg} trip {trip}: {:?}",
            report.divergences
        );

        // Exact dynamic cycle accounting.
        let blocks = trip.div_ceil(u64::from(y));
        prop_assert_eq!(report.stats.blocks, blocks);
        let steady = u64::from(result.schedule.ii()) * blocks;
        prop_assert_eq!(report.stats.steady_state_cycles, steady);
        prop_assert_eq!(
            report.stats.cycles as i64,
            steady as i64 + result.schedule.transient_cycles()
        );
        prop_assert_eq!(report.stats.cycles, result.schedule.dynamic_cycles(blocks));

        // Masked lanes: exactly the ragged tail, once per packed-or-lane
        // original op instance.
        let expected_masked = (blocks * u64::from(y) - trip) * g.num_nodes() as u64;
        prop_assert_eq!(report.stats.masked_lanes, expected_masked);
    }

    /// Width 1 is the identity transform: the "wide" machine is a plain
    /// scalar VLIW and must still reproduce the reference exactly, for
    /// any schedule the II search lands on.
    #[test]
    fn width_one_simulation_is_exact(g in arb_ddg(), trip in 1u64..40) {
        let cfg = Configuration::monolithic(2, 1, 256).expect("valid");
        let model = CycleModel::Cycles4;
        let outcome = widen(&g, 1);
        let result = match schedule_with_registers(
            outcome.shared_ddg(),
            &cfg,
            model,
            &SchedulerOptions::default(),
            &SpillOptions::default(),
        ) {
            Ok(r) => r,
            Err(e) => return Err(TestCaseError::fail(format!("pipeline: {e}"))),
        };
        let report = simulate_scheduled(&g, &outcome, &result, model, trip, Backend::Differential)
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        prop_assert!(report.is_validated(), "trip {trip}: {:?}", report.divergences);
        prop_assert_eq!(report.stats.masked_lanes, 0);
        prop_assert_eq!(report.stats.cross_block_reads, 0);
    }

    /// Spill-heavy differential: a tiny register file forces spill code
    /// on most generated loops; the lowered backend's compiled spill
    /// counters must still match the interpreter's concrete slot
    /// traffic bitwise, and both must match the scalar reference.
    #[test]
    fn spill_heavy_lowering_matches_interpreter(
        g in arb_ddg(),
        yi in 0usize..3,
        trip in 1u64..48,
    ) {
        let y = [1u32, 2, 4][yi];
        let cfg = Configuration::monolithic(4, y, 32).expect("powers of two");
        let model = CycleModel::Cycles4;
        let outcome = widen(&g, y);
        let result = match schedule_with_registers(
            outcome.shared_ddg(),
            &cfg,
            model,
            &SchedulerOptions::default(),
            &SpillOptions::default(),
        ) {
            Ok(r) => r,
            Err(RegallocError::Pressure { .. }) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("pipeline: {e}"))),
        };
        let report = simulate_scheduled(&g, &outcome, &result, model, trip, Backend::Differential)
            .map_err(|e| TestCaseError::fail(format!("{cfg} trip {trip}: {e}")))?;
        prop_assert!(
            report.is_validated(),
            "{cfg} trip {trip}: {:?}",
            report.divergences
        );
    }
}
