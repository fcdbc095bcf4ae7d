//! **widening-sim** — a cycle-accurate wide-datapath simulator with
//! differential validation, for the *Widening Resources* (MICRO 1998)
//! reproduction.
//!
//! Every number the analytic pipeline produces is of the form
//! `II · ⌈trip/Y⌉ · weight`: no schedule is ever executed, so the
//! widening transform, the HRMS schedule, the register allocation and
//! the spill code are only checked *structurally*. This crate actually
//! runs them:
//!
//! * [`reference::run_reference`] executes the original scalar loop
//!   sequentially — the ground truth: its final store regions and
//!   per-node value checksums;
//! * [`machine::WideMachine`] executes the verified wide schedule
//!   cycle-accurately — prologue, kernel, epilogue, a real wide register
//!   file laid out by the allocator's location table, and spill slots —
//!   flagging register clobbers and premature reads as hard errors;
//! * [`widening_lower::WideProgram`] (selected via
//!   [`Backend::Lowered`]) executes the same compiled loop as flat
//!   bytecode with pre-resolved register and slot indices — no per-cycle
//!   decoding — and must match the interpreter **bitwise**;
//! * [`simulate_loop`] runs the whole widen → schedule → allocate →
//!   spill → simulate pipeline for one loop on a chosen [`Backend`] and
//!   compares final store regions and per-operation value checksums
//!   bitwise ([`SimReport`]). [`Backend::Differential`] additionally
//!   runs *both* execution backends and fails with
//!   [`SimError::BackendDivergence`] on any bitwise difference between
//!   them;
//! * [`simulate_with_reference`] is the one validation path every entry
//!   point ends in. It takes the [`ReferenceRun`] from its caller, so a
//!   caller simulating one `(loop, trip)` on many design points runs
//!   the reference once and compares every run against it.
//!
//! Because both interpreters share one executable semantics
//! ([`widening_ir::semantics`]) and fold operands in the same order,
//! a correct pipeline matches the reference **bitwise**; any packing,
//! lane-routing, dependence-distance, allocation or spill bug shows up
//! as a [`Divergence`] or a [`SimError`].
//!
//! The simulator also reports *dynamic* cycles, quantifying the
//! fill/drain transient that the paper's steady-state accounting
//! `II · ⌈trip/Y⌉` amortises away (see the `transients` experiment in
//! the core crate).
//!
//! # Example
//!
//! ```
//! use widening_machine::{Configuration, CycleModel};
//! use widening_sim::{simulate_loop, Backend};
//! use widening_workload::kernels;
//!
//! let cfg: Configuration = "2w2(64:1)".parse()?;
//! let report = simulate_loop(
//!     &kernels::daxpy(),
//!     &cfg,
//!     CycleModel::Cycles4,
//!     &Default::default(),
//!     Backend::Differential,
//! )?;
//! assert!(report.is_validated());
//! // Dynamic cycles = steady state + fill/drain transient.
//! assert_eq!(
//!     report.stats.cycles as i64,
//!     report.stats.steady_state_cycles as i64 + report.stats.transient_cycles()
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod machine;
pub mod reference;
mod report;

pub use backend::Backend;
pub use machine::{WideMachine, WideRun};
pub use reference::{run_reference, ReferenceRun};
pub use report::{Divergence, SimError, SimFailure, SimReport, SimStats};
pub use widening_lower::{checksum_step, Memory};

use widening_ir::{Ddg, Loop, NodeId, OpKind};
use widening_lower::WideProgram;
use widening_machine::{Configuration, CycleModel};
use widening_pipeline::{compile_ddg, CompileOptions, PointSpec};
use widening_regalloc::PressureResult;
use widening_transform::WideningOutcome;

/// Cap on reported per-cell divergences (checksums still cover every
/// node).
const MAX_REPORTED_CELLS: usize = 8;

/// Runs the full staged pipeline — widen, schedule with registers
/// (via [`widening_pipeline::compile_ddg`]), simulate, differentially
/// validate — for `trip` iterations of `ddg` on `cfg`.
///
/// # Errors
///
/// * [`SimFailure::Pipeline`] if the compilation pipeline fails (e.g.
///   the paper's unresolvable-pressure cases);
/// * [`SimFailure::Execution`] if the wide machine hits a hard state
///   violation (register clobber, premature read, empty spill slot).
pub fn simulate_ddg(
    ddg: &Ddg,
    trip: u64,
    cfg: &Configuration,
    model: CycleModel,
    opts: &CompileOptions,
    backend: Backend,
) -> Result<SimReport, SimFailure> {
    let compiled = compile_ddg(ddg, &PointSpec::scheduled(cfg, model, *opts))?;
    let stage = compiled
        .scheduled()
        .expect("finite register file implies a schedule stage");
    simulate_scheduled(ddg, compiled.wide(), &stage.result, model, trip, backend)
}

/// [`simulate_ddg`] for a named [`Loop`], using its own trip count.
///
/// # Errors
///
/// See [`simulate_ddg`].
pub fn simulate_loop(
    l: &Loop,
    cfg: &Configuration,
    model: CycleModel,
    opts: &CompileOptions,
    backend: Backend,
) -> Result<SimReport, SimFailure> {
    simulate_ddg(l.ddg(), l.trip_count(), cfg, model, opts, backend)
}

/// Simulates an already-scheduled loop on `backend` and validates it
/// against the scalar reference. Use this form to simulate one schedule
/// at many trip counts without re-scheduling; backends needing lowered
/// bytecode lower it on the spot (see [`simulate_with_program`] to reuse
/// a memoized [`WideProgram`] instead).
///
/// # Errors
///
/// See [`simulate_ddg`].
pub fn simulate_scheduled(
    original: &Ddg,
    outcome: &WideningOutcome,
    result: &PressureResult,
    model: CycleModel,
    trip: u64,
    backend: Backend,
) -> Result<SimReport, SimFailure> {
    let program = backend
        .uses_lowered()
        .then(|| widening_lower::lower(original, outcome, result));
    simulate_with_reference(
        original,
        outcome,
        result,
        model,
        backend,
        program.as_ref(),
        &run_reference(original, trip),
    )
}

/// [`simulate_scheduled`] with the lowered bytecode supplied by the
/// caller (typically decoded from the pipeline's memoized `lower`
/// stage), so [`Backend::Lowered`] and [`Backend::Differential`] runs
/// never re-lower. `program` must be the lowering of exactly this
/// `(outcome, result)` pair; [`Backend::Interpret`] ignores it.
///
/// # Errors
///
/// See [`simulate_ddg`].
pub fn simulate_with_program(
    original: &Ddg,
    outcome: &WideningOutcome,
    result: &PressureResult,
    model: CycleModel,
    trip: u64,
    backend: Backend,
    program: &WideProgram,
) -> Result<SimReport, SimFailure> {
    simulate_with_reference(
        original,
        outcome,
        result,
        model,
        backend,
        Some(program),
        &run_reference(original, trip),
    )
}

/// Runs the selected backend(s) for `reference.trip()` iterations and
/// compares the run bitwise against `reference` — every store cell and
/// every per-node checksum. This is the validation path every other
/// entry point delegates to; callers that simulate one `(loop, trip)`
/// on many design points pass one memoized reference to all of them.
///
/// `reference` must be [`run_reference`] of `original` (the un-widened
/// loop); `program` must be the lowering of `(outcome, result)` and is
/// required by the backends that execute bytecode.
///
/// # Errors
///
/// See [`simulate_ddg`].
///
/// # Panics
///
/// Panics if `backend` executes bytecode and `program` is `None`.
pub fn simulate_with_reference(
    original: &Ddg,
    outcome: &WideningOutcome,
    result: &PressureResult,
    model: CycleModel,
    backend: Backend,
    program: Option<&WideProgram>,
    reference: &ReferenceRun,
) -> Result<SimReport, SimFailure> {
    let trip = reference.trip();
    let program =
        |what: &str| program.unwrap_or_else(|| panic!("backend {what} requires a lowered program"));
    let wide = match backend {
        Backend::Interpret => WideMachine::new(original, outcome, result, model, trip).run()?,
        Backend::Lowered => program("lowered").exec(trip),
        Backend::Differential => {
            let interp = WideMachine::new(original, outcome, result, model, trip).run()?;
            let lowered = program("differential").exec(trip);
            if let Some(detail) = backend_divergence(&interp, &lowered) {
                return Err(SimError::BackendDivergence { detail }.into());
            }
            interp
        }
    };
    Ok(SimReport {
        stats: wide.stats,
        divergences: compare(reference, &wide),
        ii: result.schedule.ii(),
        spill_ops: result.spill_stores + result.spill_loads,
    })
}

/// Describes the first bitwise difference between the two backends'
/// runs, or `None` when they agree everywhere.
fn backend_divergence(interp: &WideRun, lowered: &WideRun) -> Option<String> {
    if interp.stats != lowered.stats {
        return Some(format!(
            "stats differ: interpreter {:?}, lowered {:?}",
            interp.stats, lowered.stats
        ));
    }
    for (v, (a, b)) in interp.checksums.iter().zip(&lowered.checksums).enumerate() {
        if a != b {
            return Some(format!(
                "checksum of n{v} differs: interpreter {a:#018x}, lowered {b:#018x}"
            ));
        }
    }
    if interp.memory.cells().len() != lowered.memory.cells().len() {
        return Some("memory layouts differ".to_string());
    }
    for (i, (a, b)) in interp
        .memory
        .cells()
        .iter()
        .zip(lowered.memory.cells())
        .enumerate()
    {
        if a.to_bits() != b.to_bits() {
            return Some(format!(
                "memory cell {i} differs: interpreter {a}, lowered {b}"
            ));
        }
    }
    debug_assert!(interp.bitwise_eq(lowered));
    None
}

/// Bitwise comparison of the two executions: store regions cell by cell,
/// then whole-trip value checksums for every value-producing operation.
fn compare(reference: &ReferenceRun, wide: &WideRun) -> Vec<Divergence> {
    let mut out = Vec::new();
    let mut cells = 0usize;
    for (v, want) in reference.stores() {
        let got = wide.memory.region(v);
        for (i, (w, g)) in want.iter().zip(got).enumerate() {
            if w.to_bits() != g.to_bits() && cells < MAX_REPORTED_CELLS {
                cells += 1;
                out.push(Divergence::StoreCell {
                    node: v,
                    iteration: i as u64,
                    expected: *w,
                    got: *g,
                });
            }
        }
    }
    for (v, (want, got)) in reference
        .checksums()
        .iter()
        .zip(&wide.checksums)
        .enumerate()
    {
        if want != got {
            out.push(Divergence::Checksum {
                node: NodeId(v as u32),
            });
        }
    }
    out
}

/// The node ids of every store in `ddg`, in id order — the layout of a
/// [`ReferenceRun`]'s store regions.
#[must_use]
pub fn store_nodes(ddg: &Ddg) -> Vec<NodeId> {
    ddg.node_ids()
        .filter(|&v| ddg.op(v).kind() == OpKind::Store)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use widening_ir::DdgBuilder;
    use widening_workload::kernels;

    const M4: CycleModel = CycleModel::Cycles4;

    // Every test runs differentially: the interpreter is the oracle and
    // the lowered bytecode must match it bitwise, so the whole suite
    // doubles as lowering coverage.
    const BE: Backend = Backend::Differential;

    fn sim(l: &Loop, spec: &str) -> SimReport {
        let cfg: Configuration = spec.parse().unwrap();
        simulate_loop(l, &cfg, M4, &Default::default(), BE)
            .unwrap_or_else(|e| panic!("{} on {spec}: {e}", l.name()))
    }

    #[test]
    fn daxpy_validates_at_all_widths() {
        let daxpy = kernels::daxpy();
        for (spec, y) in [
            ("1w1(64:1)", 1),
            ("1w2(64:1)", 2),
            ("1w4(64:1)", 4),
            ("2w2(64:1)", 2),
        ] {
            let r = sim(&daxpy, spec);
            assert!(r.is_validated(), "{spec}: {:?}", r.divergences);
            assert_eq!(r.stats.blocks, daxpy.trip_count().div_ceil(y), "{spec}");
        }
    }

    #[test]
    fn every_kernel_validates_on_small_machines() {
        for kernel in kernels::all() {
            for spec in [
                "1w1(64:1)",
                "2w1(64:1)",
                "1w2(64:1)",
                "2w2(128:1)",
                "4w2(128:1)",
            ] {
                let cfg: Configuration = spec.parse().unwrap();
                let r = simulate_loop(&kernel, &cfg, M4, &Default::default(), BE)
                    .unwrap_or_else(|e| panic!("{} on {spec}: {e}", kernel.name()));
                assert!(
                    r.is_validated(),
                    "{} on {spec}: {:?}",
                    kernel.name(),
                    r.divergences
                );
            }
        }
    }

    #[test]
    fn dynamic_cycles_are_steady_state_plus_transient() {
        let fir = kernels::fir5();
        for spec in ["1w1(64:1)", "2w2(64:1)"] {
            let r = sim(&fir, spec);
            assert_eq!(
                r.stats.cycles as i64,
                r.stats.steady_state_cycles as i64 + r.stats.transient_cycles(),
                "{spec}"
            );
            // fir5 is deep enough that the transient is positive.
            assert!(r.stats.cycles >= r.stats.steady_state_cycles, "{spec}");
        }
    }

    #[test]
    fn short_trips_exercise_prologue_epilogue_only() {
        // Trip < stage count: the pipeline never reaches steady state.
        let mut b = DdgBuilder::new();
        let x = b.load(1);
        let m = b.op(OpKind::FMul);
        let s = b.store(1);
        b.flow(x, m);
        b.flow(m, s);
        let g = b.build().unwrap();
        let cfg: Configuration = "2w2(64:1)".parse().unwrap();
        for trip in 1..=9 {
            let r = simulate_ddg(&g, trip, &cfg, M4, &Default::default(), BE).unwrap();
            assert!(r.is_validated(), "trip {trip}: {:?}", r.divergences);
        }
    }

    #[test]
    fn masked_lanes_counted_for_ragged_trips() {
        let daxpy = kernels::daxpy();
        let cfg: Configuration = "1w4(64:1)".parse().unwrap();
        let r = simulate_ddg(daxpy.ddg(), 10, &cfg, M4, &Default::default(), BE).unwrap();
        assert!(r.is_validated(), "{:?}", r.divergences);
        assert_eq!(r.stats.blocks, 3);
        // 12 lanes in 3 blocks, 10 live iterations, 5 packed ops → 2·5
        // masked lanes.
        assert_eq!(r.stats.masked_lanes, 2 * 5);
    }

    #[test]
    fn spilled_loops_still_validate() {
        // A register-starved machine forces spill code; the simulation
        // must route values through the spill slots and still match.
        let fir = kernels::fir5();
        let cfg: Configuration = "4w1(32:1)".parse().unwrap();
        let r = simulate_loop(&fir, &cfg, M4, &Default::default(), BE).unwrap();
        assert!(r.is_validated(), "{:?}", r.divergences);
    }

    #[test]
    fn recurrences_validate_where_lanes_serialize() {
        let dot = kernels::dot_product();
        for spec in ["1w4(64:1)", "2w2(64:1)"] {
            let r = sim(&dot, spec);
            assert!(r.is_validated(), "{spec}: {:?}", r.divergences);
        }
    }

    #[test]
    fn lane_crossing_recurrence_uses_forwarding_and_validates() {
        // acc[i] = acc[i-5] + x[i] at width 4: distance 5 ≥ 4 packs the
        // add, but 5 mod 4 ≠ 0 means lane 0 of each block needs the
        // instance one block older than the widened edge records — the
        // one read the register file cannot serve.
        let mut b = DdgBuilder::new();
        let x = b.load(1);
        let a = b.op(OpKind::FAdd);
        let s = b.store(1);
        b.flow(x, a);
        b.carried_flow(a, a, 5);
        b.flow(a, s);
        let g = b.build().unwrap();
        let cfg: Configuration = "1w4(64:1)".parse().unwrap();
        let r = simulate_ddg(&g, 40, &cfg, M4, &Default::default(), BE).unwrap();
        assert!(r.is_validated(), "{:?}", r.divergences);
        assert!(
            r.stats.cross_block_reads > 0,
            "the d % Y ≠ 0 recurrence must exercise the forwarding path"
        );
    }

    #[test]
    fn reused_reference_reports_the_same_divergences_as_a_fresh_one() {
        let fir = kernels::fir5();
        let trip = 37;
        let reused = run_reference(fir.ddg(), trip);
        let mut runs = Vec::new();
        for spec in ["1w1(64:1)", "2w2(64:1)", "4w2(128:1)"] {
            let spec = PointSpec::scheduled(&spec.parse().unwrap(), M4, Default::default());
            let compiled = compile_ddg(fir.ddg(), &spec).unwrap();
            let result = &compiled.scheduled().unwrap().result;
            let program = widening_lower::lower(fir.ddg(), compiled.wide(), result);
            // One reference validates every configuration.
            let report = simulate_with_reference(
                fir.ddg(),
                compiled.wide(),
                result,
                M4,
                BE,
                Some(&program),
                &reused,
            )
            .unwrap();
            assert!(report.is_validated(), "{:?}", report.divergences);
            runs.push(program.exec(trip));
        }
        let store = store_nodes(fir.ddg())[0];
        for mut wide in runs {
            let cell = wide.memory.read(store, 5);
            wide.memory.write(store, 5, -cell);
            wide.checksums[2] ^= 1;
            let got = compare(&reused, &wide);
            assert_eq!(got, compare(&run_reference(fir.ddg(), trip), &wide));
            assert_eq!(
                got,
                vec![
                    Divergence::StoreCell {
                        node: store,
                        iteration: 5,
                        expected: cell,
                        got: -cell,
                    },
                    Divergence::Checksum { node: NodeId(2) },
                ]
            );
        }
    }

    #[test]
    fn store_nodes_helper_finds_stores() {
        let daxpy = kernels::daxpy();
        assert_eq!(store_nodes(daxpy.ddg()).len(), 1);
    }
}
