//! Register lifetimes, allocation and spill code for software-pipelined
//! loops — the machinery behind §3.2 of *Widening Resources* (MICRO
//! 1998).
//!
//! Reducing the initiation interval increases register requirements; when
//! a loop needs more registers than the file provides, spill code must be
//! inserted and the loop rescheduled, degrading performance. This crate
//! implements:
//!
//! * [`Lifetime`] extraction from a modulo schedule (values live from
//!   definition to last use, crossing iteration boundaries);
//! * `MaxLives` — the classic lower bound on register need
//!   ([`max_lives`]);
//! * the paper's allocator: *wands-only* allocation using **end-fit with
//!   adjacency ordering** (Rau et al., PLDI'92) on the modulo-expanded
//!   kernel ([`allocate`]);
//! * a spill engine in the spirit of Llosa et al. (MICRO-29): spill the
//!   lifetimes with the highest length/use ratio, insert store/reload
//!   operations, reschedule, and repeat ([`schedule_with_registers`]).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//!
//! use widening_ir::{DdgBuilder, OpKind};
//! use widening_machine::{Configuration, CycleModel};
//! use widening_regalloc::{schedule_with_registers, SpillOptions};
//! use widening_sched::SchedulerOptions;
//!
//! let mut b = DdgBuilder::new();
//! let x = b.load(1);
//! let m = b.op(OpKind::FMul);
//! let s = b.store(1);
//! b.flow(x, m);
//! b.flow(m, s);
//! let ddg = Arc::new(b.build()?);
//!
//! let cfg = Configuration::monolithic(1, 1, 32)?;
//! let out = schedule_with_registers(
//!     &ddg, &cfg, CycleModel::Cycles4,
//!     &SchedulerOptions::default(), &SpillOptions::default(),
//! )?;
//! assert!(out.allocation.registers_used() <= 32);
//! assert_eq!(out.spill_stores + out.spill_loads, 0); // tiny loop: no spill
//! assert!(Arc::ptr_eq(&out.ddg, &ddg)); // so the result shares the graph
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod allocator;
mod lifetime;
mod spill;

pub use allocator::{allocate, allocate_in, AllocScratch, RegisterAllocation};
pub use lifetime::{lifetimes, lifetimes_into, max_lives, Lifetime};
pub use spill::{
    schedule_with_registers, schedule_with_registers_seeded, FirstRound, PressureResult,
    RegallocError, SpillOptions, SpillPolicy, SpillRecord, MAX_SPILL_ROUNDS, SPILLS_PER_ROUND,
};
