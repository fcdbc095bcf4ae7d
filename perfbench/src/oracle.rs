//! Result oracles: bitwise aggregate equality, rewrite-defect checks,
//! exact work counts and the committed digests of every modelled
//! statistic for the default seed.

use std::sync::Arc;

use widening_resources::pipeline::{FailureCause, PointSpec};
use widening_resources::{CorpusEval, LoopEval, SimLoopEval};

use crate::{Args, Outcome, Workload, DEFAULT_SEED};

/// Committed digests for `--seed 1998`. A digest covers every modelled
/// statistic the workload computes, so any change to a reproduced
/// number shows up here even when it leaves aggregates plausible.
/// Update only together with the change that legitimately moves the
/// modelled results.
fn expected_digest(workload: Workload) -> u64 {
    match workload {
        Workload::DesignSweep | Workload::WarmRestart => 0xd4c7_dd01_2db3_a387,
        Workload::SimulateValidate => 0xff21_ad75_3118_f7b5,
        Workload::FleetSweep => 0x3c1b_0a99_eca9_675c,
    }
}

/// 64-bit FNV-1a, fed with little-endian words.
#[derive(Debug, Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn value(self) -> u64 {
        self.0
    }
}

/// Digest of a sweep: per point the `total_cycles` bits, per loop the
/// II, registers and spill ops (or the failure cause).
pub(crate) fn sweep_digest(aggs: &[Arc<CorpusEval>]) -> u64 {
    let mut d = Digest::new();
    for agg in aggs {
        d.word(agg.total_cycles.to_bits());
        for le in &agg.per_loop {
            match *le {
                LoopEval::Ok {
                    ii,
                    registers,
                    spill_ops,
                    ..
                } => {
                    d.word(1);
                    d.word(u64::from(ii));
                    d.word(u64::from(registers));
                    d.word(u64::from(spill_ops));
                }
                LoopEval::Failed { cause } => {
                    d.word(2);
                    match cause {
                        FailureCause::Pressure { needed, available } => {
                            d.word(u64::from(needed));
                            d.word(u64::from(available));
                        }
                        FailureCause::Schedule => d.word(u64::MAX - 1),
                        FailureCause::Rewrite => d.word(u64::MAX),
                    }
                }
            }
        }
    }
    d.value()
}

/// Digest of simulated runs: per run the II, simulated cycles and
/// issued ops.
pub(crate) fn sim_digest<'a>(runs: impl IntoIterator<Item = &'a SimLoopEval>) -> u64 {
    let mut d = Digest::new();
    for le in runs {
        match le {
            SimLoopEval::Validated { ii, stats } => {
                d.word(u64::from(*ii));
                d.word(stats.cycles);
                d.word(stats.issued_ops);
            }
            SimLoopEval::Divergent { divergences } => d.word(0x8000 | *divergences as u64),
            SimLoopEval::Failed { .. } => d.word(u64::MAX),
        }
    }
    d.value()
}

/// Checks `digest` against the committed value for the default seed;
/// always prints it.
pub(crate) fn check_digest(args: &Args, digest: u64, out: &mut Outcome) {
    println!("digest = {digest:#018x}");
    if args.seed != DEFAULT_SEED {
        return;
    }
    let want = expected_digest(args.workload);
    if digest != want {
        out.problem(format!(
            "modelled-statistics digest {digest:#018x} differs from the committed {want:#018x}"
        ));
    }
}

/// Units whose failure cause is a spill-rewrite defect — a compiler
/// bug, unlike the register-pressure failures the paper expects.
pub(crate) fn rewrite_defects(aggs: &[Arc<CorpusEval>]) -> u64 {
    aggs.iter()
        .flat_map(|a| &a.per_loop)
        .filter(|le| {
            matches!(
                le,
                LoopEval::Failed {
                    cause: FailureCause::Rewrite
                }
            )
        })
        .count() as u64
}

/// Units whose outcome differs, bit for bit, between two sweeps of the
/// same grid; a differing point total counts every unit of the point.
pub(crate) fn unequal_units(got: &[Arc<CorpusEval>], want: &[Arc<CorpusEval>]) -> u64 {
    if got.len() != want.len() {
        return got.iter().map(|a| a.per_loop.len() as u64).sum();
    }
    got.iter()
        .zip(want)
        .map(|(g, w)| {
            let totals_equal = g.total_cycles.to_bits() == w.total_cycles.to_bits()
                && g.total_kernel_words.to_bits() == w.total_kernel_words.to_bits()
                && g.total_static_words.to_bits() == w.total_static_words.to_bits()
                && g.failed == w.failed
                && g.at_mii == w.at_mii
                && g.spill_ops == w.spill_ops
                && g.per_loop.len() == w.per_loop.len();
            if totals_equal {
                g.per_loop
                    .iter()
                    .zip(&w.per_loop)
                    .filter(|(a, b)| a != b)
                    .count() as u64
            } else {
                g.per_loop.len() as u64
            }
        })
        .sum()
}

/// `Σ (II − MII)` over the scheduled units of a sweep.
pub(crate) fn ii_gap(aggs: &[Arc<CorpusEval>]) -> u64 {
    aggs.iter()
        .flat_map(|a| &a.per_loop)
        .map(|le| match *le {
            LoopEval::Ok { ii, mii, .. } => u64::from(ii.saturating_sub(mii)),
            LoopEval::Failed { .. } => 0,
        })
        .sum()
}

/// Spill operations inserted across a sweep.
pub(crate) fn spill_ops(aggs: &[Arc<CorpusEval>]) -> u64 {
    aggs.iter().map(|a| a.spill_ops).sum()
}

/// Work counts that must repeat exactly across the iterations of a run
/// (and across runs of one commit with the same seed), so a change in
/// work can be told apart from noise.
#[derive(Debug, Default)]
pub(crate) struct ExactCounts {
    first: Option<Vec<(&'static str, u64)>>,
    drifted: Vec<String>,
}

impl ExactCounts {
    /// Records one iteration's counts; anything that differs from the
    /// first iteration is flagged.
    pub(crate) fn observe(&mut self, counts: Vec<(&'static str, u64)>) {
        match &self.first {
            None => self.first = Some(counts),
            Some(first) => {
                for ((name, want), (_, got)) in first.iter().zip(&counts) {
                    if want != got {
                        self.drifted.push(format!("{name}: {want} then {got}"));
                    }
                }
            }
        }
    }

    /// Prints the counts (plus `extra`, printed but never checked) and
    /// reports any drift as a failed check.
    pub(crate) fn report(&self, extra: &[(&str, u64)], out: &mut Outcome) {
        let mut line = String::from("exact-counts:");
        for (name, v) in self.first.iter().flatten() {
            line.push_str(&format!(" {name}={v}"));
        }
        let mut d = Digest::new();
        for (_, v) in self.first.iter().flatten() {
            d.word(*v);
        }
        line.push_str(&format!(" counts-digest={:#018x}", d.value()));
        if !extra.is_empty() {
            line.push_str(" | unchecked:");
            for (name, v) in extra {
                line.push_str(&format!(" {name}={v}"));
            }
        }
        println!("{line}");
        for drift in &self.drifted {
            out.problem(format!("exact count drifted between iterations: {drift}"));
        }
    }
}

/// Index of `spec` in `specs`.
pub(crate) fn spec_index(
    specs: &[PointSpec],
    replication: u32,
    width: u32,
    registers: Option<u32>,
) -> Option<usize> {
    specs
        .iter()
        .position(|s| s.replication == replication && s.width == width && s.registers == registers)
}
