//! The verified result of modulo scheduling one loop.

use std::error::Error;
use std::fmt;

use widening_ir::{Ddg, NodeId, ResourceClass};
use widening_machine::{Configuration, CycleModel};

use crate::edge_delay;
use crate::mrt::Mrt;

/// A modulo schedule: an initiation interval and one issue cycle per
/// operation, with every dependence and resource constraint re-verified
/// at construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    ii: u32,
    times: Vec<u32>,
    stages: u32,
}

impl Schedule {
    /// Builds a schedule from raw issue times, verifying:
    ///
    /// * `t(dst) ≥ t(src) + delay(e) − II·distance(e)` for every edge;
    /// * the modulo reservation table admits every operation (including
    ///   unpipelined wrap-around occupancy) under `cfg`'s unit counts.
    ///
    /// # Errors
    ///
    /// Returns the violated constraint as a [`ScheduleError`].
    pub fn new(
        ddg: &Ddg,
        cfg: &Configuration,
        model: CycleModel,
        ii: u32,
        times: Vec<u32>,
    ) -> Result<Self, ScheduleError> {
        if ii == 0 {
            return Err(ScheduleError::ZeroIi);
        }
        if times.len() != ddg.num_nodes() {
            return Err(ScheduleError::WrongLength {
                got: times.len(),
                expected: ddg.num_nodes(),
            });
        }
        for e in ddg.edges() {
            let lhs = i64::from(times[e.dst.index()]);
            let rhs = i64::from(times[e.src.index()]) + edge_delay(model, ddg.op(e.src).kind(), e)
                - i64::from(ii) * i64::from(e.distance);
            if lhs < rhs {
                return Err(ScheduleError::DependenceViolated {
                    src: e.src.index(),
                    dst: e.dst.index(),
                    slack: lhs - rhs,
                });
            }
        }
        let mut mrt = Mrt::new(
            ii,
            cfg.units(ResourceClass::Bus),
            cfg.units(ResourceClass::Fpu),
        );
        // Unpipelined operations reserve unit columns, so the greedy
        // re-verification is order-sensitive; first-fit-decreasing
        // (largest occupancy first) avoids fragmenting units under the
        // long reservations.
        let mut order: Vec<_> = ddg.node_ids().collect();
        order.sort_by_key(|&v| (std::cmp::Reverse(model.occupancy(ddg.op(v).kind())), v.0));
        for v in order {
            let op = ddg.op(v);
            let occ = model.occupancy(op.kind());
            if mrt
                .try_place(v.0, op.resource_class(), i64::from(times[v.index()]), occ)
                .is_none()
            {
                return Err(ScheduleError::ResourceOverflow { node: v.index() });
            }
        }
        let stages = times.iter().map(|&t| t / ii).max().unwrap_or(0) + 1;
        Ok(Schedule { ii, times, stages })
    }

    /// The initiation interval: cycles between successive iteration
    /// starts — the figure of merit of the whole paper.
    #[must_use]
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Issue cycle of node `v` (within the flat, unrolled schedule; the
    /// kernel row is `time % ii`).
    #[must_use]
    pub fn time(&self, v: NodeId) -> u32 {
        self.times[v.index()]
    }

    /// All issue cycles, indexed by node.
    #[must_use]
    pub fn times(&self) -> &[u32] {
        &self.times
    }

    /// Number of kernel stages (`⌊max t / II⌋ + 1`); the software
    /// pipeline overlaps this many iterations.
    #[must_use]
    pub fn stages(&self) -> u32 {
        self.stages
    }

    /// Kernel row (`time mod II`) of node `v`.
    #[must_use]
    pub fn row(&self, v: NodeId) -> u32 {
        self.times[v.index()] % self.ii
    }

    /// Kernel stage (`time / II`) of node `v`.
    #[must_use]
    pub fn stage(&self, v: NodeId) -> u32 {
        self.times[v.index()] / self.ii
    }

    /// Latest issue cycle in the flat schedule (`max t`); the pipeline
    /// needs `max_time + 1` cycles to run a single iteration.
    #[must_use]
    pub fn max_time(&self) -> u32 {
        *self.times.iter().max().expect("schedules are non-empty")
    }

    /// Exact dynamic cycles to issue `blocks` kernel iterations of the
    /// software pipeline, prologue and epilogue included: the last
    /// operation of the last iteration issues at `max_time + II·(blocks−1)`.
    /// Zero blocks take zero cycles.
    #[must_use]
    pub fn dynamic_cycles(&self, blocks: u64) -> u64 {
        match blocks {
            0 => 0,
            b => u64::from(self.ii) * (b - 1) + u64::from(self.max_time()) + 1,
        }
    }

    /// The fill/drain overhead the steady-state accounting `II·blocks`
    /// omits: `dynamic_cycles(b) − II·b = max_time + 1 − II` (independent
    /// of `b ≥ 1`). Short loops pay this once; the paper's §5 accounting
    /// amortises it away. Negative when the whole pipeline fits inside
    /// one initiation interval (the last iteration drains early).
    #[must_use]
    pub fn transient_cycles(&self) -> i64 {
        i64::from(self.max_time()) + 1 - i64::from(self.ii)
    }

    /// Total cycles to run `iterations` iterations, counting kernel
    /// iterations only (the paper's accounting: `II × iterations`,
    /// §5 footnote).
    #[must_use]
    pub fn cycles(&self, iterations: u64) -> u64 {
        u64::from(self.ii) * iterations
    }

    /// Static kernel code size in instruction words (one word per kernel
    /// row).
    #[must_use]
    pub fn kernel_words(&self) -> u64 {
        u64::from(self.ii)
    }

    /// Static code size including prologue and epilogue
    /// (`(2·stages − 1) · II` words): the full software-pipeline expansion
    /// when no predication hardware is assumed.
    #[must_use]
    pub fn total_words(&self) -> u64 {
        u64::from(2 * self.stages - 1) * u64::from(self.ii)
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "II={} stages={} ops={}",
            self.ii,
            self.stages,
            self.times.len()
        )
    }
}

/// A constraint violation detected while building a [`Schedule`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScheduleError {
    /// The initiation interval was zero.
    ZeroIi,
    /// `times` has the wrong number of entries.
    WrongLength {
        /// Entries supplied.
        got: usize,
        /// Entries required (one per node).
        expected: usize,
    },
    /// A dependence edge is not satisfied.
    DependenceViolated {
        /// Producer node index.
        src: usize,
        /// Consumer node index.
        dst: usize,
        /// By how many cycles the constraint fails (negative).
        slack: i64,
    },
    /// The modulo reservation table cannot host all operations.
    ResourceOverflow {
        /// First node that failed to place.
        node: usize,
    },
    /// The scheduler exhausted its II search space.
    NoSchedule {
        /// Largest II attempted.
        max_ii_tried: u32,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::ZeroIi => write!(f, "initiation interval must be at least 1"),
            ScheduleError::WrongLength { got, expected } => {
                write!(f, "schedule has {got} times for {expected} operations")
            }
            ScheduleError::DependenceViolated { src, dst, slack } => {
                write!(f, "dependence {src} -> {dst} violated by {} cycles", -slack)
            }
            ScheduleError::ResourceOverflow { node } => {
                write!(f, "no functional-unit slot for operation {node}")
            }
            ScheduleError::NoSchedule { max_ii_tried } => {
                write!(f, "no modulo schedule found up to II={max_ii_tried}")
            }
        }
    }
}

impl Error for ScheduleError {}

#[cfg(test)]
mod tests {
    use super::*;
    use widening_ir::{DdgBuilder, OpKind};

    const M4: CycleModel = CycleModel::Cycles4;

    fn cfg1() -> Configuration {
        Configuration::monolithic(1, 1, 256).unwrap()
    }

    fn chain() -> Ddg {
        let mut b = DdgBuilder::new();
        let ld = b.load(1);
        let m = b.op(OpKind::FMul);
        let s = b.store(1);
        b.flow(ld, m);
        b.flow(m, s);
        b.build().unwrap()
    }

    #[test]
    fn accepts_valid_schedule() {
        let g = chain();
        // Store at t=9, not 8: row 8 % 2 = 0 would collide with the load
        // on the single bus.
        let s = Schedule::new(&g, &cfg1(), M4, 2, vec![0, 4, 9]).unwrap();
        assert_eq!(s.ii(), 2);
        assert_eq!(s.stages(), 5); // t=9 → stage 4, +1
        assert_eq!(s.row(widening_ir::NodeId(1)), 0);
        assert_eq!(s.stage(widening_ir::NodeId(1)), 2);
        assert_eq!(s.cycles(100), 200);
        assert_eq!(s.kernel_words(), 2);
        assert_eq!(s.total_words(), 9 * 2);
    }

    #[test]
    fn rejects_dependence_violation() {
        let g = chain();
        let err = Schedule::new(&g, &cfg1(), M4, 2, vec![0, 3, 8]).unwrap_err();
        assert!(matches!(
            err,
            ScheduleError::DependenceViolated { src: 0, dst: 1, .. }
        ));
    }

    #[test]
    fn rejects_resource_overflow() {
        // Two memory ops in the same row on a 1-bus machine.
        let mut b = DdgBuilder::new();
        b.load(1);
        b.load(1);
        let g = b.build().unwrap();
        let err = Schedule::new(&g, &cfg1(), M4, 2, vec![0, 2]).unwrap_err();
        assert!(matches!(err, ScheduleError::ResourceOverflow { node: 1 }));
        // Different rows are fine.
        assert!(Schedule::new(&g, &cfg1(), M4, 2, vec![0, 1]).is_ok());
    }

    #[test]
    fn rejects_wrong_length_and_zero_ii() {
        let g = chain();
        assert!(matches!(
            Schedule::new(&g, &cfg1(), M4, 2, vec![0, 4]),
            Err(ScheduleError::WrongLength {
                got: 2,
                expected: 3
            })
        ));
        assert!(matches!(
            Schedule::new(&g, &cfg1(), M4, 0, vec![0, 4, 8]),
            Err(ScheduleError::ZeroIi)
        ));
    }

    #[test]
    fn carried_dependences_get_ii_credit() {
        // m -> a at distance 1: with II = 8, a may issue at t = 0 even
        // though m issues at t = 4 (4 + 4 - 8 = 0).
        let mut b = DdgBuilder::new();
        let a = b.op(OpKind::FAdd);
        let m = b.op(OpKind::FMul);
        b.flow(a, m);
        b.carried_flow(m, a, 1);
        let g = b.build().unwrap();
        assert!(Schedule::new(&g, &cfg1(), M4, 8, vec![0, 4]).is_ok());
        assert!(Schedule::new(&g, &cfg1(), M4, 7, vec![0, 4]).is_err());
    }

    #[test]
    fn error_display() {
        let e = ScheduleError::NoSchedule { max_ii_tried: 64 };
        assert_eq!(e.to_string(), "no modulo schedule found up to II=64");
    }
}
