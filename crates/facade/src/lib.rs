//! **widening-resources** — the top-level facade of the *Widening
//! Resources* (MICRO 1998) reproduction.
//!
//! This crate simply re-exports [`widening`], which itself federates the
//! component crates (IR, machine model, scheduler, register allocator,
//! widening transform, the staged `widening-pipeline` compilation
//! driver, cost models, workload, simulator) and hosts the experiment
//! harness. See the repository README for the architecture overview;
//! `repro` regenerates every table and figure.
//!
//! ```
//! use widening_resources::prelude::*;
//!
//! let cfg: Configuration = "4w2(128:2)".parse()?;
//! assert_eq!(cfg.factor(), 8);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use widening::*;
