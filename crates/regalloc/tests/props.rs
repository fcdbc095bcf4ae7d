//! Property tests for lifetimes, allocation bounds and the spill engine.

use std::sync::Arc;

use proptest::prelude::*;
use widening_ir::NodeId;
use widening_machine::{Configuration, CycleModel};
use widening_regalloc::{
    allocate, allocate_in, lifetimes, lifetimes_into, max_lives, schedule_with_registers,
    AllocScratch, Lifetime, SpillOptions,
};
use widening_sched::{
    MiiBounds, ModuloScheduler, SchedScratch, SchedulerOptions, Strategy as SchedStrategy,
};
use widening_workload::corpus::{generate, CorpusSpec};

fn arb_lifetimes() -> impl Strategy<Value = (Vec<Lifetime>, u32)> {
    (
        1u32..24,
        proptest::collection::vec((0u32..60, 1u32..40), 1..40),
    )
        .prop_map(|(ii, raw)| {
            let lts = raw
                .into_iter()
                .enumerate()
                .map(|(i, (start, len))| Lifetime {
                    def: NodeId(i as u32),
                    start,
                    end: start + len,
                })
                .collect();
            (lts, ii)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// The clique bound is a hard floor; Lam's per-value expansion
    /// (power-of-two rounded) is a hard ceiling.
    #[test]
    fn allocation_between_bounds((lts, ii) in arb_lifetimes()) {
        let a = allocate(&lts, ii);
        prop_assert_eq!(a.max_lives(), max_lives(&lts, ii));
        prop_assert!(a.registers_used() >= a.max_lives());
        let lam: u32 = lts
            .iter()
            .map(|lt| lt.concurrent_instances(ii).max(1).next_power_of_two())
            .sum();
        prop_assert!(a.registers_used() <= lam);
    }

    /// The location table holds one register per (lifetime, kernel
    /// copy), each below `registers_used`, and no two overlapping arc
    /// instances share a register. Instance `j` of a lifetime occupies
    /// the cylinder slots `(start + j·II + t) mod K·II` for `t` below
    /// its length (the whole cylinder once it is that long); each slot
    /// of each register may hold one instance.
    #[test]
    fn locations_are_complete_and_conflict_free((lts, ii) in arb_lifetimes()) {
        let a = allocate(&lts, ii);
        let k = a.kernel_unroll();
        prop_assert_eq!(a.locations().len(), lts.len() * k as usize);
        let c = (k * ii) as usize;
        let mut owner: Vec<Option<(usize, u32)>> = vec![None; a.registers_used() as usize * c];
        for (i, lt) in lts.iter().enumerate() {
            for j in 0..k {
                let register = a.register_of(i as u32, j).expect("one entry per instance");
                prop_assert!(register < a.registers_used());
                let start = (lt.start + j * ii) as usize;
                for t in 0..(lt.len() as usize).min(c) {
                    let slot = &mut owner[register as usize * c + (start + t) % c];
                    prop_assert!(
                        slot.is_none(),
                        "register {} at slot {}: instance {:?} overlaps {:?}",
                        register,
                        (start + t) % c,
                        (i, j),
                        slot
                    );
                    *slot = Some((i, j));
                }
            }
        }
    }

    /// MaxLives is monotone: growing any lifetime cannot reduce it.
    #[test]
    fn max_lives_monotone((lts, ii) in arb_lifetimes(), extra in 1u32..10) {
        let before = max_lives(&lts, ii);
        let grown: Vec<Lifetime> = lts
            .iter()
            .map(|lt| Lifetime { def: lt.def, start: lt.start, end: lt.end + extra })
            .collect();
        prop_assert!(max_lives(&grown, ii) >= before);
    }

    /// A larger II never increases the instance count of a lifetime.
    #[test]
    fn instances_monotone_in_ii((lts, ii) in arb_lifetimes()) {
        for lt in &lts {
            prop_assert!(lt.concurrent_instances(ii + 1) <= lt.concurrent_instances(ii));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The flat-table hot paths are drop-in: for random DDGs × machine
    /// configs × strategies, scheduling and allocating through one warm,
    /// repeatedly reused scratch arena produces bitwise-identical
    /// results (issue cycles, `registers_used`, the dense location
    /// table) to the fresh-scratch convenience entry points.
    #[test]
    fn warm_scratch_matches_fresh(
        seed in 0u64..5000,
        x in 0u32..3,
        strat in 0usize..3,
    ) {
        let strategy = [SchedStrategy::Hrms, SchedStrategy::Ims, SchedStrategy::Asap][strat];
        let opts = SchedulerOptions { strategy };
        let cfg = Configuration::monolithic(1 << x, 2, 256).expect("valid");
        let model = CycleModel::Cycles4;
        let scheduler = ModuloScheduler::with_options(cfg, model, opts);
        // One arena across every loop: later loops must not see state
        // leaked from earlier ones.
        let mut sched_scratch = SchedScratch::new();
        let mut alloc_scratch = AllocScratch::new();
        let mut lts_buf = Vec::new();
        for l in generate(&CorpusSpec::small(4, seed)) {
            let bounds = MiiBounds::compute(l.ddg(), &cfg, model);
            let fresh = scheduler.schedule_with_bounds(l.ddg(), &bounds);
            let warm = scheduler.schedule_with(l.ddg(), &bounds, 1, &mut sched_scratch);
            match (fresh, warm) {
                (Ok(f), Ok(w)) => {
                    prop_assert_eq!(f.ii(), w.ii());
                    prop_assert_eq!(f.times(), w.times());
                    let f_lts = lifetimes(l.ddg(), &f, model);
                    lifetimes_into(l.ddg(), &w, model, &mut lts_buf);
                    prop_assert_eq!(&f_lts, &lts_buf);
                    let f_alloc = allocate(&f_lts, f.ii());
                    let w_alloc = allocate_in(&lts_buf, w.ii(), &mut alloc_scratch);
                    prop_assert_eq!(f_alloc, w_alloc);
                }
                (Err(_), Err(_)) => {}
                (f, w) => {
                    return Err(TestCaseError::fail(format!(
                        "fresh/warm disagree on feasibility: {f:?} vs {w:?}"
                    )));
                }
            }
        }
    }

    /// The spill engine (which reuses its scratch arenas *across
    /// rounds* internally) is deterministic end to end: repeated runs
    /// agree on issue cycles, the location table and the spill rewrite.
    #[test]
    fn spill_engine_is_deterministic(seed in 0u64..5000, z in 0usize..2) {
        let regs = [32u32, 64][z];
        let cfg = Configuration::monolithic(4, 1, regs).expect("valid");
        for l in generate(&CorpusSpec::small(3, seed)) {
            let ddg = Arc::new(l.ddg().clone());
            let run = || schedule_with_registers(
                &ddg,
                &cfg,
                CycleModel::Cycles4,
                &SchedulerOptions::default(),
                &SpillOptions::default(),
            );
            match (run(), run()) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a.schedule.times(), b.schedule.times());
                    prop_assert_eq!(a.allocation, b.allocation);
                    prop_assert_eq!(a.lifetimes, b.lifetimes);
                    prop_assert_eq!(a.spills, b.spills);
                    prop_assert_eq!(
                        (a.spill_stores, a.spill_loads, a.rounds),
                        (b.spill_stores, b.spill_loads, b.rounds)
                    );
                }
                (Err(_), Err(_)) => {}
                _ => return Err(TestCaseError::fail("nondeterministic outcome")),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// End-to-end: whatever corpus loop and machine we draw, a
    /// successful pressure result always fits the register file, and its
    /// schedule is verified by construction.
    #[test]
    fn pressure_results_fit_the_file(seed in 0u64..5000, x in 0u32..3, z in 0usize..3) {
        let loops = generate(&CorpusSpec::small(3, seed));
        let regs = [32u32, 64, 128][z];
        let cfg = Configuration::monolithic(1 << x, 1, regs).expect("valid");
        for l in &loops {
            match schedule_with_registers(
                &Arc::new(l.ddg().clone()),
                &cfg,
                CycleModel::Cycles4,
                &SchedulerOptions::default(),
                &SpillOptions::default(),
            ) {
                Ok(r) => {
                    prop_assert!(r.allocation.registers_used() <= regs);
                    prop_assert!(r.ddg.num_nodes() >= l.ddg().num_nodes());
                }
                Err(widening_regalloc::RegallocError::Pressure { needed, available }) => {
                    prop_assert!(needed > available);
                    prop_assert_eq!(available, regs);
                }
                Err(e) => return Err(TestCaseError::fail(format!("unexpected: {e}"))),
            }
        }
    }
}
