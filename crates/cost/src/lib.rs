//! Hardware cost models for *Widening Resources* (MICRO 1998): §4 of the
//! paper.
//!
//! Three coupled models decide which configurations are buildable and how
//! fast they clock:
//!
//! * **Register-cell geometry** ([`CellModel`]) — a multiported cell
//!   grows with every port: each port adds a select line to the height;
//!   each read port adds a data line and an access transistor to the
//!   width, each write port two of each. The model reproduces the
//!   paper's published cells (Table 2) exactly and extrapolates other
//!   port counts with coefficients least-squares calibrated on them.
//! * **Area** ([`AreaModel`]) — register-file area is cell area × bits
//!   per register × registers (other RF components are under 5%,
//!   ignored as in the paper); FPU area is `192·10⁶ λ²` per width-unit
//!   of FPU (MIPS R10000 reference). Against the SIA'94 roadmap
//!   ([`Technology`]) this yields Table 3, Figure 4 and the 20%-of-die
//!   implementability cut of Table 5.
//! * **Access time** ([`TimingModel`]) — a CACTI-lite decomposition
//!   (decoder + wordline + bitline + sense/outdrive/precharge) whose six
//!   coefficients are calibrated against the paper's Table 4; the fit is
//!   within ~5% worst-case (asserted by tests). Partitioning an RF into
//!   `n` copies (§4.2) trades area for access time: every copy takes all
//!   writes but only a slice of the readers.
//!
//! The crate also holds [`sweep_priority`], the analytic compile-cost
//! key the reproduction's own sweeps order their work by. Its only
//! dependency is `widening-machine`.
//!
//! # Example
//!
//! ```
//! use widening_cost::{CostModel, Technology};
//! use widening_machine::Configuration;
//!
//! let model = CostModel::paper();
//! let cfg: Configuration = "4w2(128:2)".parse()?;
//! let area = model.total_area(&cfg);           // λ²
//! let tc = model.relative_cycle_time(&cfg);    // vs 1w1(32:1)
//! assert!(tc > 1.0);
//! // Implementable at 0.10 µm under the 20% budget?
//! let t2007 = Technology::ALL[3];
//! assert!(model.is_implementable(&cfg, &t2007));
//! assert!(area < 0.2 * t2007.lambda2_per_chip());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod area;
mod cell;
mod linalg;
mod model;
mod priority;
mod published;
mod sia;
mod timing;

pub use area::AreaModel;
pub use cell::{CellGeometry, CellModel};
pub use model::{CostModel, DesignPoint, IMPLEMENTABLE_BUDGET};
pub use priority::sweep_priority;
pub use published::{PublishedAccessTime, PublishedCell, ACCESS_TIMES, CELLS};
pub use sia::Technology;
pub use timing::TimingModel;
