//! Oracle for the adaptive spill policy: `SpillPolicy::Adaptive` must
//! return exactly what running both pure policies in full and applying
//! the selection rule returns. The lower II wins, spill-first wins ties,
//! a failed policy loses to a successful one, and when both fail
//! spill-first's error is returned.
//!
//! Adaptive runs II-increase first and caps the spill-first run at its
//! II; this test checks that the cap never changes an answer, through both
//! the plain and the seeded entry points.

use widening_ir::Ddg;
use widening_machine::{Configuration, CycleModel};
use widening_regalloc::{
    allocate, lifetimes, schedule_with_registers, schedule_with_registers_seeded, FirstRound,
    PressureResult, RegallocError, SpillOptions, SpillPolicy,
};
use widening_sched::{ModuloScheduler, SchedulerOptions};
use widening_transform::widen;
use widening_workload::corpus::{generate, CorpusSpec};

const MODEL: CycleModel = CycleModel::Cycles4;

type Outcome = Result<PressureResult, RegallocError>;

/// How the selection rule decided one case.
#[derive(Debug, Default)]
struct Tally {
    round_one: u32,
    stretch_wins: u32,
    spill_tie_wins: u32,
    spill_wins: u32,
    both_fail: u32,
}

fn policy(p: SpillPolicy) -> SpillOptions {
    SpillOptions {
        policy: p,
        ..SpillOptions::default()
    }
}

/// Applies the selection rule to full runs of both pure policies.
fn select(spill: Outcome, stretch: Outcome, tally: &mut Tally) -> Outcome {
    match (spill, stretch) {
        (Ok(a), Ok(b)) => {
            if a.rounds == 1 {
                tally.round_one += 1;
            } else if a.schedule.ii() < b.schedule.ii() {
                tally.spill_wins += 1;
            } else if a.schedule.ii() == b.schedule.ii() {
                // Only a tie where the two answers differ shows that
                // spill-first won it.
                if a.spills != b.spills || a.schedule != b.schedule {
                    tally.spill_tie_wins += 1;
                }
            } else {
                tally.stretch_wins += 1;
            }
            Ok(if a.schedule.ii() <= b.schedule.ii() {
                a
            } else {
                b
            })
        }
        (Ok(a), Err(_)) => {
            tally.spill_wins += 1;
            Ok(a)
        }
        (Err(_), Ok(b)) => {
            tally.stretch_wins += 1;
            Ok(b)
        }
        (Err(a), Err(_)) => {
            tally.both_fail += 1;
            Err(a)
        }
    }
}

/// Every field of two outcomes, or the exact error.
fn assert_same(got: &Outcome, want: &Outcome, what: &str) {
    match (got, want) {
        (Ok(got), Ok(want)) => {
            let PressureResult {
                schedule,
                allocation,
                ddg,
                lifetimes,
                spills,
                spill_stores,
                spill_loads,
                rounds,
            } = want;
            assert_eq!(&got.schedule, schedule, "{what}: schedule");
            assert_eq!(&got.allocation, allocation, "{what}: allocation");
            assert_eq!(&got.ddg, ddg, "{what}: graph");
            assert_eq!(&got.lifetimes, lifetimes, "{what}: lifetimes");
            assert_eq!(&got.spills, spills, "{what}: spill records");
            assert_eq!(
                (got.spill_stores, got.spill_loads, got.rounds),
                (*spill_stores, *spill_loads, *rounds),
                "{what}: spill counts and rounds"
            );
        }
        (Err(got), Err(want)) => assert_eq!(got, want, "{what}: error"),
        (got, want) => panic!(
            "{what}: adaptive {} but the oracle {}",
            describe(got),
            describe(want)
        ),
    }
}

fn describe(o: &Outcome) -> String {
    match o {
        Ok(r) => format!("succeeded at II {}", r.schedule.ii()),
        Err(e) => format!("failed ({e})"),
    }
}

/// Checks Adaptive against the oracle on `ddg` at `cfg`, unseeded and
/// (when round 1 schedules) seeded with a pressure-free first round.
fn check(ddg: &Ddg, cfg: &Configuration, what: &str, tally: &mut Tally) {
    let sched = SchedulerOptions::default();
    let run = |p, first| schedule_with_registers_seeded(ddg, cfg, MODEL, &sched, &policy(p), first);

    let want = select(
        run(SpillPolicy::SpillFirst, None),
        run(SpillPolicy::IncreaseIiOnly, None),
        tally,
    );
    let got = schedule_with_registers(ddg, cfg, MODEL, &sched, &SpillOptions::default());
    assert_same(&got, &want, what);

    let Ok(schedule) = ModuloScheduler::with_options(*cfg, MODEL, sched).schedule(ddg) else {
        return;
    };
    let lts = lifetimes(ddg, &schedule, MODEL);
    let allocation = allocate(&lts, schedule.ii());
    let first = FirstRound {
        schedule: &schedule,
        lifetimes: &lts,
        allocation: &allocation,
    };
    let want = select(
        run(SpillPolicy::SpillFirst, Some(first)),
        run(SpillPolicy::IncreaseIiOnly, Some(first)),
        &mut Tally::default(),
    );
    let got = run(SpillPolicy::Adaptive, Some(first));
    assert_same(&got, &want, &format!("{what} (seeded)"));
}

#[test]
fn adaptive_matches_both_policies_run_in_full() {
    let mut tally = Tally::default();
    let loops = generate(&CorpusSpec::small(100, 1998));
    for (x, y) in [(1, 1), (2, 2), (4, 2)] {
        let cfg = Configuration::monolithic(x, y, 64).expect("valid");
        for (i, l) in loops.iter().enumerate() {
            let wide = widen(l.ddg(), y);
            check(wide.ddg(), &cfg, &format!("loop {i} on {cfg}"), &mut tally);
        }
    }
    // A tiny file that neither policy can satisfy.
    let cfg = Configuration::monolithic(4, 2, 4).expect("valid");
    for (i, l) in loops.iter().take(4).enumerate() {
        let wide = widen(l.ddg(), 2);
        check(wide.ddg(), &cfg, &format!("loop {i} on {cfg}"), &mut tally);
    }
    assert!(tally.round_one > 0, "no loop fits at round 1: {tally:?}");
    assert!(tally.stretch_wins > 0, "II-increase never wins: {tally:?}");
    assert!(
        tally.spill_tie_wins > 0,
        "spill-first never wins a tie: {tally:?}"
    );
    assert!(tally.both_fail > 0, "both policies never fail: {tally:?}");
}
