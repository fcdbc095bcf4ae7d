//! Property tests: every strategy produces verified schedules at or
//! above the MII bound, on arbitrary loop shapes and machines.

use proptest::prelude::*;
use widening_ir::{Ddg, DdgBuilder, NodeId, OpKind};
use widening_machine::{Configuration, CycleModel};
use widening_sched::{MiiBounds, ModuloScheduler, SchedulerOptions, Strategy as Ordering};

fn arb_ddg() -> impl Strategy<Value = Ddg> {
    let kinds = prop_oneof![
        4 => Just(OpKind::FAdd),
        4 => Just(OpKind::FMul),
        1 => Just(OpKind::FDiv),
        1 => Just(OpKind::FSqrt),
    ];
    (2usize..16, proptest::collection::vec(kinds, 16))
        .prop_flat_map(|(n, kinds)| {
            let edges =
                proptest::collection::vec((0usize..n, 0usize..n, 0u32..3, any::<bool>()), 0..2 * n);
            (Just(n), Just(kinds), edges)
        })
        .prop_map(|(n, kinds, edges)| {
            let mut b = DdgBuilder::new();
            let ids: Vec<NodeId> = (0..n)
                .map(|i| match i % 4 {
                    0 => b.load(1),
                    1 => b.store(1),
                    _ => b.op(kinds[i]),
                })
                .collect();
            for (s, d, dist, forward_only) in edges {
                let (s, d) = (s.min(n - 1), d.min(n - 1));
                // Flow edges must leave value producers.
                let src_ok = s % 4 != 1;
                if dist == 0 {
                    if s < d && src_ok {
                        b.flow(ids[s], ids[d]);
                    }
                } else if src_ok && (forward_only || s != d) {
                    b.carried_flow(ids[s], ids[d], dist);
                } else if src_ok {
                    b.carried_flow(ids[s], ids[s], dist);
                }
            }
            b.build().expect("valid by construction")
        })
}

fn arb_config() -> impl Strategy<Value = Configuration> {
    (0u32..4, 0u32..3).prop_map(|(xs, ys)| {
        Configuration::monolithic(1 << xs, 1 << ys, 256).expect("powers of two")
    })
}

fn arb_model() -> impl Strategy<Value = CycleModel> {
    prop_oneof![
        Just(CycleModel::Cycles1),
        Just(CycleModel::Cycles2),
        Just(CycleModel::Cycles3),
        Just(CycleModel::Cycles4),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `Schedule::new` re-verifies every dependence and resource
    /// constraint, so a returned schedule *is* a proof. HRMS and IMS
    /// must always succeed with unconstrained registers; the naive ASAP
    /// control is allowed to starve itself (that weakness is part of
    /// what the ablation demonstrates), but whatever it returns must
    /// still verify.
    #[test]
    fn all_strategies_schedule_validly(
        g in arb_ddg(),
        cfg in arb_config(),
        model in arb_model(),
        strategy in prop_oneof![Just(Ordering::Hrms), Just(Ordering::Ims), Just(Ordering::Asap)],
    ) {
        let bounds = MiiBounds::compute(&g, &cfg, model);
        let sched = ModuloScheduler::with_options(
            cfg,
            model,
            SchedulerOptions { strategy },
        )
        .schedule_with_bounds(&g, &bounds);
        let sched = match (sched, strategy) {
            (Ok(s), _) => s,
            (Err(_), Ordering::Asap) => return Ok(()),
            (Err(e), _) => {
                return Err(TestCaseError::fail(format!(
                    "{} must schedule with unbounded registers: {e}",
                    strategy.label()
                )))
            }
        };
        prop_assert!(sched.ii() >= bounds.mii());
        prop_assert_eq!(sched.times().len(), g.num_nodes());
        // Times are normalised: minimum issue cycle is zero.
        prop_assert_eq!(sched.times().iter().min().copied(), Some(0));
    }

    /// HRMS hits the lower bound on most unconstrained loops — the
    /// "near-optimal" claim the paper relies on. Statistically, over any
    /// sample of random graphs, the hit rate must be high; per-case we
    /// only check a loose factor bound to stay deterministic.
    #[test]
    fn hrms_stays_near_the_bound(g in arb_ddg(), cfg in arb_config()) {
        let model = CycleModel::Cycles4;
        let bounds = MiiBounds::compute(&g, &cfg, model);
        let sched = ModuloScheduler::new(cfg, model)
            .schedule_with_bounds(&g, &bounds)
            .expect("must schedule");
        prop_assert!(
            sched.ii() <= bounds.mii() * 2 + 8,
            "II {} too far above MII {}",
            sched.ii(),
            bounds.mii()
        );
    }

    /// More hardware never makes the bound worse.
    #[test]
    fn mii_monotone_in_hardware(g in arb_ddg(), model in arb_model()) {
        let mut prev = u32::MAX;
        for x in [1u32, 2, 4, 8] {
            let cfg = Configuration::monolithic(x, 1, 256).expect("valid");
            let mii = MiiBounds::compute(&g, &cfg, model).mii();
            prop_assert!(mii <= prev);
            prev = mii;
        }
    }

    /// RecMII is invariant under resource scaling (it only depends on
    /// circuits), and ResMII halves (up to ceiling) when units double.
    #[test]
    fn bound_structure(g in arb_ddg()) {
        let model = CycleModel::Cycles4;
        let c1 = Configuration::monolithic(1, 1, 256).expect("valid");
        let c2 = Configuration::monolithic(2, 1, 256).expect("valid");
        let b1 = MiiBounds::compute(&g, &c1, model);
        let b2 = MiiBounds::compute(&g, &c2, model);
        prop_assert_eq!(b1.rec_mii(), b2.rec_mii());
        prop_assert!(b2.res_mii() <= b1.res_mii());
        prop_assert!(b2.res_mii() >= b1.res_mii().div_ceil(2));
    }
}
