//! Loop intermediate representation for the *Widening Resources* (MICRO
//! 1998) reproduction.
//!
//! The paper evaluates VLIW design points on software-pipelined inner
//! loops. A loop is represented here as a [`Ddg`] — a data-dependence
//! graph whose nodes are typed operations ([`Op`]) and whose edges carry
//! an *iteration distance* (how many iterations earlier the producer
//! executes). Distance-0 edges must form a DAG; loop-carried edges
//! (distance ≥ 1) close *recurrences*, which bound the achievable
//! initiation interval of any modulo schedule.
//!
//! The crate is deliberately machine-independent: operation latencies are
//! a property of the machine's cycle model (see `widening-machine`), not
//! of the IR. What the IR does know is each operation's *kind* (which
//! determines the resource class it executes on), memory stride
//! information, and compactability hints used by the widening transform.
//!
//! # Example
//!
//! Build the dependence graph of a DAXPY-like loop body
//! (`y[i] = a * x[i] + y[i]`):
//!
//! ```
//! use widening_ir::{DdgBuilder, OpKind, EdgeKind};
//!
//! let mut b = DdgBuilder::new();
//! let xi = b.load(1);              // load x[i], stride 1
//! let yi = b.load(1);              // load y[i]
//! let mul = b.op(OpKind::FMul);    // a * x[i]
//! let add = b.op(OpKind::FAdd);    // .. + y[i]
//! let st = b.store(1);             // store y[i]
//! b.flow(xi, mul);
//! b.flow(yi, add);
//! b.flow(mul, add);
//! b.flow(add, st);
//! let ddg = b.build().expect("acyclic at distance 0");
//! assert_eq!(ddg.num_nodes(), 5);
//! assert!(ddg.sccs().components().all(|scc| scc.len() == 1)); // no recurrence
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ddg;
mod error;
mod kernels_support;
mod loops;
mod op;
mod scc;
pub mod semantics;
mod topo;

pub use ddg::{CircuitScratch, Ddg, DdgBuilder, Edge, NodeId};
pub use error::GraphError;
pub use kernels_support::DdgStats;
pub use loops::{Loop, LoopBuilder};
pub use op::{Compactability, EdgeKind, Op, OpKind, ResourceClass};
pub use scc::StronglyConnectedComponents;
pub use topo::topological_order;
