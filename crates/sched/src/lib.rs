//! Software pipelining (modulo scheduling) for the *Widening Resources*
//! (MICRO 1998) reproduction.
//!
//! The paper schedules 1180 inner loops with **Hypernode Reduction Modulo
//! Scheduling** (HRMS, MICRO-28), a register-pressure-sensitive heuristic
//! that achieves near-optimal initiation intervals. This crate provides:
//!
//! * [`MiiBounds`] — the classic lower bounds: `ResMII` from resource
//!   usage and `RecMII` from recurrence circuits;
//! * [`Mrt`] — a modulo reservation table that correctly models
//!   unpipelined operations (divide/square-root) wrapping around the
//!   initiation interval;
//! * [`ModuloScheduler`] — the scheduling engine, with three ordering
//!   strategies: [`Strategy::Hrms`] (the paper's scheduler lineage),
//!   [`Strategy::Ims`] (Rau's iterative modulo scheduling with
//!   backtracking, as a baseline) and [`Strategy::Asap`] (naive
//!   topological order, as a second baseline);
//! * [`Schedule`] — an immutable, *verified* schedule: initiation
//!   interval, per-operation issue cycles, stage count and kernel
//!   statistics.
//!
//! # Example
//!
//! Schedule a DAXPY body on the baseline machine `1w1` (1 bus, 2 FPUs):
//!
//! ```
//! use widening_ir::{DdgBuilder, OpKind};
//! use widening_machine::{Configuration, CycleModel};
//! use widening_sched::{ModuloScheduler, MiiBounds};
//!
//! let mut b = DdgBuilder::new();
//! let x = b.load(1);
//! let y = b.load(1);
//! let m = b.op(OpKind::FMul);
//! let a = b.op(OpKind::FAdd);
//! let s = b.store(1);
//! b.flow(x, m);
//! b.flow(m, a);
//! b.flow(y, a);
//! b.flow(a, s);
//! let ddg = b.build()?;
//!
//! let cfg = Configuration::monolithic(1, 1, 256)?;
//! let sched = ModuloScheduler::new(cfg, CycleModel::Cycles4).schedule(&ddg)?;
//! // 3 memory operations on 1 bus → ResMII = 3, and the scheduler
//! // achieves it.
//! assert_eq!(MiiBounds::compute(&ddg, &cfg, CycleModel::Cycles4).mii(), 3);
//! assert_eq!(sched.ii(), 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod dense;
mod mii;
mod mrt;
mod schedule;
mod scheduler;

pub use analysis::TimeAnalysis;
pub use mii::{MiiBounds, RecurrenceInfo};
pub use mrt::{Mrt, Placement};
pub use schedule::{Schedule, ScheduleError};
pub use scheduler::{ModuloScheduler, SchedScratch, SchedulerOptions, Strategy};

use widening_ir::{Edge, OpKind};
use widening_machine::CycleModel;

/// The dependence delay contributed by an edge: flow edges impose the
/// producer's full latency; memory and other ordering edges only impose
/// issue order (1 cycle), matching the paper's 1-cycle store service.
#[must_use]
pub fn edge_delay(model: CycleModel, src_kind: OpKind, edge: &Edge) -> i64 {
    if edge.kind.is_flow() {
        i64::from(model.latency(src_kind))
    } else {
        1
    }
}

// The private `dense` module's word helpers and bit matrix.
#[cfg(test)]
mod tests {
    use crate::dense::{words, BitMatrix};

    #[test]
    fn span_mask_edges() {
        assert_eq!(words::span_mask(0, 64), u64::MAX);
        assert_eq!(words::span_mask(0, 1), 1);
        assert_eq!(words::span_mask(63, 64), 1u64 << 63);
        assert_eq!(words::span_mask(5, 5), 0);
        assert_eq!(words::span_mask(4, 8), 0b1111_0000);
    }

    #[test]
    fn run_ops_match_bit_ops() {
        // Exhaustive-ish cross-check of the word-level run helpers
        // against the obvious bit-at-a-time reference.
        let nbits = 150;
        for &(start, len) in &[
            (0, 1),
            (63, 2),
            (0, 150),
            (149, 1),
            (64, 64),
            (10, 100),
            (70, 5),
        ] {
            let mut w = vec![0u64; words::words_for(nbits)];
            words::set_run(&mut w, start, len.min(nbits - start));
            for i in 0..nbits {
                let expect = i >= start && i < start + len.min(nbits - start);
                assert_eq!(words::get(&w, i), expect, "bit {i} of run {start}+{len}");
            }
            assert!(!words::run_is_clear(&w, start, len.min(nbits - start)));
            words::clear_run(&mut w, start, len.min(nbits - start));
            assert!(w.iter().all(|&x| x == 0));
        }
    }

    #[test]
    fn wrapped_run_wraps() {
        let nbits = 100;
        let mut w = vec![0u64; words::words_for(nbits)];
        words::set_wrapped_run(&mut w, nbits, 90, 20); // [90,100) ∪ [0,10)
        for i in 0..nbits {
            assert_eq!(words::get(&w, i), !(10..90).contains(&i));
        }
        assert!(!words::wrapped_run_is_clear(&w, nbits, 95, 2));
        assert!(words::wrapped_run_is_clear(&w, nbits, 10, 80));
    }

    #[test]
    fn bitmatrix_round_trip() {
        let mut m = BitMatrix::new();
        m.reset(3, 70);
        assert!(m.insert(2, 69));
        assert!(!m.insert(2, 69));
        assert!(m.get(2, 69));
        assert!(!m.get(1, 69));
        assert!(!m.get(2, 5));
        m.reset(1, 4);
        assert!(!m.get(0, 3));
    }
}
