//! The schedule → allocate → spill → reschedule driver (§3.2).
//!
//! When a loop's register requirement exceeds the file size, spill code
//! frees registers at the price of extra memory traffic — which competes
//! for the buses and can push the initiation interval up. This engine
//! follows the heuristics of Llosa et al. (MICRO-29, *Heuristics for
//! Register-Constrained Software Pipelining*):
//!
//! * spill the lifetimes with the highest *length / traffic* ratio;
//! * never spill values on recurrence circuits (a reload in a recurrence
//!   inflates `RecMII` catastrophically) or values created by earlier
//!   spills;
//! * as an alternative (or fallback), *increase the II*, which shortens
//!   relative lifetimes and lowers pressure without extra traffic.
//!
//! # The adaptive policy and its II cap
//!
//! [`SpillPolicy::Adaptive`] runs both pure policies and keeps the
//! lower II, spill-first on ties. It runs II-increase first: that run
//! never rewrites the graph, so it is cheap, and its II becomes a cap
//! for the spill-first run. Spill-first stops at the start of any round
//! whose lower bound `max(min_ii, MII(current graph))` exceeds the cap.
//! From there it could only finish at a larger II, or fail, and lose
//! either way. The cap compares a lower bound, never the II an earlier
//! round achieved: a later round may achieve a lower II than an
//! earlier one.
//!
//! The cap is exact because the lower bound never decreases between
//! rounds. Spill rewrites only add memory operations, so `ResMII`
//! cannot fall. Victims exclude `recurrence_nodes`, so no circuit
//! changes and `RecMII` stays put. `min_ii` only grows. The test is a
//! strict `>` because a spill-first result at the cap still wins the
//! tie. Round 1 schedules the unmodified graph at `min_ii = 1` under
//! either policy, so a II-increase fit at round 1 is also spill-first's
//! answer and returns at once.
//!
//! # Hopeless II-increase rounds skip the allocator
//!
//! Inside Adaptive, only a *fit* of the II-increase run is ever read:
//! its II becomes the cap, and its failure is discarded (spill-first's
//! result, or its error, wins). A II-increase round whose `MaxLives`
//! exceeds the file size cannot fit, because `MaxLives` bounds every
//! packing from below. Such a round skips the six-packer race and only
//! raises `min_ii`, exactly as the failed race would have. The run's
//! failure then carries no register count: the skipped rounds never
//! produced one.
//!
//! The pure policies keep the race in every round. Their failure
//! reports the smallest register count over all rounds, which the
//! pipeline persists as a failure cause and the ablation reports; a
//! skipped round might have held that minimum. Spill-first also needs
//! each round's exact count, because its excess over the file picks the
//! victims.

use std::borrow::Cow;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use widening_ir::{Ddg, Edge, EdgeKind, GraphError, NodeId, Op, OpKind};
use widening_machine::{Configuration, CycleModel};
use widening_sched::{
    MiiBounds, ModuloScheduler, SchedScratch, Schedule, ScheduleError, SchedulerOptions,
};

use crate::allocator::{allocate_in, AllocScratch, RegisterAllocation};
use crate::lifetime::{lifetimes_into, max_lives_with, Lifetime};

/// What to do when register pressure exceeds the file size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum SpillPolicy {
    /// Try both pure policies and keep the better result (fewer failed
    /// loops, then lower II, spill-first on ties). Llosa's MICRO-29
    /// evaluates spilling *and* II increase and picks per-loop; this is
    /// the default.
    ///
    /// II-increase runs first, and its II caps the spill-first run,
    /// which stops as soon as its II lower bound exceeds the cap. Its
    /// rounds skip the allocator when `MaxLives` exceeds the file. The
    /// result is the one running both policies in full would select
    /// (see the module docs for why).
    #[default]
    Adaptive,
    /// Insert spill code first; increase II only when nothing is
    /// spillable.
    SpillFirst,
    /// Increase the II first; never insert spill code.
    IncreaseIiOnly,
}

/// Schedule/spill rounds a pure policy runs before it gives up.
pub const MAX_SPILL_ROUNDS: u32 = 48;

/// Values spilled per round while the deficit is small; a deficit of
/// `e` registers spills `⌈e/2⌉` when that is more.
pub const SPILLS_PER_ROUND: u32 = 4;

/// Options for [`schedule_with_registers`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct SpillOptions {
    /// Pressure-relief policy.
    pub policy: SpillPolicy,
}

/// One spilled value: where its store went and which reloads serve its
/// former consumers. This is the spill location table the simulator uses
/// to route values through memory instead of registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillRecord {
    /// The value-producing node whose register was spilled.
    pub victim: NodeId,
    /// The inserted spill store (writes the victim's value each
    /// iteration).
    pub store: NodeId,
    /// One reload per distinct consumer distance: `(distance, reload)` —
    /// the reload issued in iteration `b` returns the victim's value
    /// from iteration `b − distance`.
    pub reloads: Vec<(u32, NodeId)>,
}

/// A register-feasible scheduling result.
#[derive(Debug, Clone)]
pub struct PressureResult {
    /// The final (verified) schedule.
    pub schedule: Schedule,
    /// The final register allocation (`registers_used ≤ Z`).
    pub allocation: RegisterAllocation,
    /// The final dependence graph, including inserted spill code. A
    /// result without spill records shares the input graph (the same
    /// `Arc`, no copy); spill code makes a graph of its own.
    pub ddg: Arc<Ddg>,
    /// The value lifetimes the allocation was computed from, in
    /// allocation order (lifetime index `i` here is lifetime `i` in
    /// [`RegisterAllocation::register_of`]).
    pub lifetimes: Vec<Lifetime>,
    /// Every spilled value across all rounds, with its store/reload
    /// nodes.
    pub spills: Vec<SpillRecord>,
    /// Spill stores inserted across all rounds.
    pub spill_stores: u32,
    /// Spill reloads inserted across all rounds.
    pub spill_loads: u32,
    /// Schedule rounds consumed (1 = no pressure problem).
    pub rounds: u32,
}

/// Errors from the register-pressure driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegallocError {
    /// The scheduler itself failed.
    Schedule(ScheduleError),
    /// Pressure could not be brought under the file size — the paper hits
    /// this for `8w1` with a 32-register file (§3.2).
    Pressure {
        /// Best requirement achieved.
        needed: u32,
        /// Registers available.
        available: u32,
    },
    /// Spill rewriting produced an invalid graph (indicates a bug; never
    /// expected).
    Rewrite(GraphError),
}

impl fmt::Display for RegallocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegallocError::Schedule(e) => write!(f, "scheduling failed: {e}"),
            RegallocError::Pressure { needed, available } => {
                write!(
                    f,
                    "register pressure {needed} exceeds {available} available registers"
                )
            }
            RegallocError::Rewrite(e) => write!(f, "spill rewrite produced invalid graph: {e}"),
        }
    }
}

impl Error for RegallocError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RegallocError::Schedule(e) => Some(e),
            RegallocError::Rewrite(e) => Some(e),
            RegallocError::Pressure { .. } => None,
        }
    }
}

impl From<ScheduleError> for RegallocError {
    fn from(e: ScheduleError) -> Self {
        RegallocError::Schedule(e)
    }
}

/// A precomputed pressure-free first round: the schedule of the
/// **unmodified** graph at `min_ii = 1` under the same scheduler
/// options and cycle model, plus its lifetimes and end-fit allocation.
///
/// Round 1 never consults the register-file size, so one first round
/// serves every `Z` of a register-file sweep; the staged pipeline
/// memoizes it and passes it to [`schedule_with_registers_seeded`] to
/// skip the duplicate scheduler run.
#[derive(Debug, Clone, Copy)]
pub struct FirstRound<'a> {
    /// Schedule of the unmodified graph at the unconstrained II.
    pub schedule: &'a Schedule,
    /// Lifetimes of that schedule.
    pub lifetimes: &'a [Lifetime],
    /// End-fit allocation of those lifetimes.
    pub allocation: &'a RegisterAllocation,
}

/// Schedules `ddg` on `cfg`, inserting spill code and/or raising the II
/// until the register requirement fits `cfg.registers()`.
///
/// # Errors
///
/// * [`RegallocError::Schedule`] if the modulo scheduler fails outright;
/// * [`RegallocError::Pressure`] if pressure cannot be resolved within
///   the round budget (the paper's `8w1(32-RF)` case).
pub fn schedule_with_registers(
    ddg: &Arc<Ddg>,
    cfg: &Configuration,
    model: CycleModel,
    sched_opts: &SchedulerOptions,
    spill_opts: &SpillOptions,
) -> Result<PressureResult, RegallocError> {
    schedule_with_registers_seeded(ddg, cfg, model, sched_opts, spill_opts, None)
}

/// [`schedule_with_registers`] with an optional precomputed
/// [`FirstRound`]. The caller guarantees `first` was produced from this
/// exact `(ddg, resources, model, scheduler options)` — the engine then
/// starts from it instead of re-running round 1, which is the hot path
/// of multi-`Z` sweeps.
///
/// # Errors
///
/// See [`schedule_with_registers`].
pub fn schedule_with_registers_seeded(
    ddg: &Arc<Ddg>,
    cfg: &Configuration,
    model: CycleModel,
    sched_opts: &SchedulerOptions,
    spill_opts: &SpillOptions,
    first: Option<FirstRound<'_>>,
) -> Result<PressureResult, RegallocError> {
    if spill_opts.policy != SpillPolicy::Adaptive {
        return run_policy(ddg, cfg, model, sched_opts, spill_opts, first, Goal::Exact);
    }
    // Try pure II increase, then spill-first, and keep the better result.
    // Memory-bound machines often prefer the II increase: spill traffic
    // competes for the very buses that set the II.
    let pure = |policy| SpillOptions { policy };
    let stretch = match run_policy(
        ddg,
        cfg,
        model,
        sched_opts,
        &pure(SpillPolicy::IncreaseIiOnly),
        first,
        Goal::FitOnly,
    ) {
        // Round 1 is policy-independent, so a fit there is spill-first's
        // answer too.
        Ok(r) if r.rounds == 1 => return Ok(r),
        // Only a fit is read below; a failure carries nothing.
        outcome => outcome.ok(),
    };
    // A capped spill-first run that cannot win stops early with an error;
    // the cap is only set when `stretch` succeeded, so that error is
    // always discarded.
    let goal = stretch
        .as_ref()
        .map_or(Goal::Exact, |r| Goal::BeatCap(r.schedule.ii()));
    let spill = run_policy(
        ddg,
        cfg,
        model,
        sched_opts,
        &pure(SpillPolicy::SpillFirst),
        first,
        goal,
    );
    match (spill, stretch) {
        (Ok(a), Some(b)) => Ok(if a.schedule.ii() <= b.schedule.ii() {
            a
        } else {
            b
        }),
        (Err(_), Some(b)) => Ok(b),
        (spill, None) => spill,
    }
}

/// What [`SpillPolicy::Adaptive`] needs from one pure-policy run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Goal {
    /// The policy's own answer; a failure reports the smallest register
    /// count over all rounds.
    Exact,
    /// Only an answer at II ≤ the cap can win: give up, returning an
    /// error, at the start of any round whose II lower bound exceeds it.
    BeatCap(u32),
    /// Only a fit is read. A round whose `MaxLives` exceeds the file
    /// cannot fit, so it skips the allocator; a failure's register count
    /// misses those rounds and must be discarded.
    FitOnly,
}

/// The round loop of one pure policy (`SpillFirst` or `IncreaseIiOnly`),
/// doing only the work `goal` needs (see [`Goal`] and the module docs).
fn run_policy(
    ddg: &Arc<Ddg>,
    cfg: &Configuration,
    model: CycleModel,
    sched_opts: &SchedulerOptions,
    spill_opts: &SpillOptions,
    first: Option<FirstRound<'_>>,
    goal: Goal,
) -> Result<PressureResult, RegallocError> {
    debug_assert!(
        goal != Goal::FitOnly || spill_opts.policy == SpillPolicy::IncreaseIiOnly,
        "only II increase can skip a round: spill-first picks victims by its count"
    );
    let scheduler = ModuloScheduler::with_options(*cfg, model, *sched_opts);
    let available = cfg.registers();
    // The graph is only rebuilt when spill code rewrites it; a result
    // without spill code shares the caller's `Arc`.
    let mut graph: Cow<'_, Ddg> = Cow::Borrowed(ddg);
    let mut spill_loads = 0u32;
    let mut spill_stores = 0u32;
    let mut spill_records: Vec<SpillRecord> = Vec::new();
    let mut spill_made: Vec<bool> = vec![false; ddg.num_nodes()];
    let mut min_ii = 1u32;
    let mut best_needed = u32::MAX;
    // Consumed at round 1 only: later rounds see a modified graph or a
    // raised min_ii, for which the seed is no longer valid.
    let mut seeded = first;
    // Scratch arenas reused across rounds: scheduler attempt state,
    // allocator tables, the lifetime list and the spill-rewrite tables.
    let mut sched_scratch = SchedScratch::new();
    let mut alloc_scratch = AllocScratch::new();
    let mut lts_buf: Vec<Lifetime> = Vec::new();
    let mut rows: Vec<i64> = Vec::new();
    let mut rewrite = RewriteScratch::default();
    // MII bounds are a deterministic function of the graph alone, so one
    // computation serves every round until spill code changes the graph
    // (min_ii bumps reuse it).
    let mut bounds: Option<MiiBounds> = None;
    // The previous round's II lower bound, for the monotonicity check
    // the cap relies on.
    let mut prev_lower = 0u32;

    for round in 1..=MAX_SPILL_ROUNDS {
        let (schedule, alloc) = match seeded.take() {
            Some(f) => {
                lts_buf.clear();
                lts_buf.extend_from_slice(f.lifetimes);
                (f.schedule.clone(), f.allocation.clone())
            }
            None => {
                let b = bounds.get_or_insert_with(|| MiiBounds::compute(&graph, cfg, model));
                // Every later round schedules at II ≥ this bound: spill
                // rewrites only add memory ops (ResMII cannot fall),
                // victims exclude `recurrence_nodes` (no circuit changes,
                // so RecMII stays put), and min_ii only grows. Once the
                // bound exceeds the cap, this run can only lose. Round 1
                // never trips the cap, which is an II of the unmodified
                // graph, so a seeded round 1 skips the check.
                let lower = min_ii.max(b.mii());
                debug_assert!(
                    lower >= prev_lower,
                    "II lower bound fell from {prev_lower} to {lower}"
                );
                prev_lower = lower;
                if matches!(goal, Goal::BeatCap(cap) if lower > cap) {
                    return Err(RegallocError::Pressure {
                        needed: best_needed,
                        available,
                    });
                }
                let schedule = scheduler.schedule_with(&graph, b, min_ii, &mut sched_scratch)?;
                lifetimes_into(&graph, &schedule, model, &mut lts_buf);
                if goal == Goal::FitOnly
                    && max_lives_with(&lts_buf, schedule.ii(), &mut rows) > available
                {
                    // No packing beats MaxLives: the race cannot fit, so
                    // skip it and raise the II as its failure would.
                    min_ii = schedule.ii() + 1;
                    continue;
                }
                let alloc = allocate_in(&lts_buf, schedule.ii(), &mut alloc_scratch);
                (schedule, alloc)
            }
        };
        let needed = alloc.registers_used();
        best_needed = best_needed.min(needed);
        if needed <= available {
            return Ok(PressureResult {
                schedule,
                allocation: alloc,
                ddg: match graph {
                    Cow::Borrowed(_) => Arc::clone(ddg),
                    Cow::Owned(g) => Arc::new(g),
                },
                lifetimes: std::mem::take(&mut lts_buf),
                spills: spill_records,
                spill_stores,
                spill_loads,
                rounds: round,
            });
        }

        // Pressure too high: pick a relief action for the next round.
        // Deep deficits (huge loop bodies on tiny files) need many
        // victims per round or the round budget runs out first.
        let excess = needed - available;
        let per_round = SPILLS_PER_ROUND.max(excess.div_ceil(2));
        let did_spill = if spill_opts.policy == SpillPolicy::SpillFirst {
            let picked = pick_spill_candidates(
                &graph,
                &lts_buf,
                schedule.ii(),
                model,
                &spill_made,
                excess,
                per_round,
            );
            if picked.is_empty() {
                false
            } else {
                let (g, records) = insert_spills_with(&graph, &picked, &mut rewrite)
                    .map_err(RegallocError::Rewrite)?;
                spill_made.resize(g.num_nodes(), false);
                for v in &picked {
                    spill_made[v.index()] = true;
                }
                // Newly added spill ops must never be spilled themselves.
                for made in &mut spill_made[graph.num_nodes()..g.num_nodes()] {
                    *made = true;
                }
                graph = Cow::Owned(g);
                bounds = None;
                for r in &records {
                    spill_stores += 1;
                    spill_loads += r.reloads.len() as u32;
                }
                spill_records.extend(records);
                true
            }
        } else {
            false
        };
        if !did_spill {
            // Fallback (or IncreaseIiOnly policy): force a larger II.
            min_ii = schedule.ii() + 1;
        }
    }
    Err(RegallocError::Pressure {
        needed: best_needed,
        available,
    })
}

/// Chooses which values to spill this round: highest length/traffic
/// ratio, skipping recurrence values, spill-created values, and lifetimes
/// whose post-spill replacement would occupy as many register-rows as
/// they do now.
///
/// The relief metric is *row occupancy*: `MaxLives` sums the rows each
/// value covers, so spilling value `v` relieves roughly
/// `len(v) − (lat(def)+1) − reloads·(lat(load)+1)` rows — the original
/// range replaced by a short def→store window plus one reload window per
/// distinct consumer distance.
fn pick_spill_candidates(
    ddg: &Ddg,
    lts: &[Lifetime],
    ii: u32,
    model: CycleModel,
    spill_made: &[bool],
    excess: u32,
    max_spills: u32,
) -> Vec<NodeId> {
    // `recurrence_nodes` are exactly the nodes on a circuit.
    let sccs = ddg.sccs();
    let load_lat = model.latency(OpKind::Load);
    let mut scored: Vec<(f64, u32, i64, NodeId)> = Vec::new();
    for lt in lts {
        let v = lt.def;
        if spill_made[v.index()] || sccs.on_circuit(ddg, v) {
            continue;
        }
        // Distinct carried distances = number of reloads we would insert.
        let mut distances: Vec<u32> = ddg
            .out_edges(v)
            .filter(|e| e.kind.is_flow())
            .map(|e| e.distance)
            .collect();
        distances.sort_unstable();
        distances.dedup();
        let reloads = distances.len() as u32;
        if reloads == 0 {
            continue;
        }
        let def_lat = model.latency(ddg.op(v).kind());
        let row_saving = i64::from(lt.len())
            - i64::from(def_lat + 1)
            - i64::from(reloads) * i64::from(load_lat + 1);
        let score = f64::from(lt.len()) / f64::from(1 + reloads);
        // Register-count relief: at least one row of the II on average.
        let relief = row_saving.max(0) as u32 / ii;
        scored.push((score, relief, row_saving, v));
    }
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.3.cmp(&b.3)));
    // Tier 1: lifetimes whose replacement occupies strictly fewer rows.
    let mut out = Vec::new();
    let mut covered = 0u32;
    for &(_, relief, row_saving, v) in &scored {
        if out.len() as u32 >= max_spills || covered >= excess {
            break;
        }
        if row_saving > 0 {
            covered += relief.max(1);
            out.push(v);
        }
    }
    if !out.is_empty() {
        return out;
    }
    // Tier 2 (desperation): every direct saving is exhausted, but
    // spilling still adds memory traffic, which raises the II and
    // relieves pressure globally — the last resort before declaring the
    // loop unschedulable, matching how a register-starved compiler
    // behaves. Spill the few longest remaining lifetimes.
    scored
        .iter()
        .filter(|&&(_, _, _, v)| {
            // Still worth a store+reload: the value lives longer than
            // the reload window it would be replaced by.
            lts.iter().any(|lt| lt.def == v && lt.len() > load_lat + 2)
        })
        .take(4.max(max_spills as usize / 2))
        .map(|&(_, _, _, v)| v)
        .collect()
}

/// Reusable spill-rewrite tables: dense `NodeId`-indexed victim lookup
/// plus per-victim store/reload lists, cleared — not reallocated —
/// between rounds.
#[derive(Debug, Default)]
struct RewriteScratch {
    /// `victim_slot[node] = i` iff `node == victims[i]`, else `u32::MAX`.
    victim_slot: Vec<u32>,
    /// Spill store per victim (parallel to `victims`).
    stores: Vec<NodeId>,
    /// Reloads per victim, `(distance, reload)` in creation order.
    reloads: Vec<Vec<(u32, NodeId)>>,
}

const NO_SLOT: u32 = u32::MAX;

/// Rewrites `ddg`, spilling each value in `victims`: the definition
/// gains a spill store, and each distinct consumer distance gains one
/// reload that takes over those consumers' flow edges. Returns the new
/// graph plus one [`SpillRecord`] per victim. Victim lookup is a dense
/// `NodeId`-indexed table in `s`, reused across rounds.
fn insert_spills_with(
    ddg: &Ddg,
    victims: &[NodeId],
    s: &mut RewriteScratch,
) -> Result<(Ddg, Vec<SpillRecord>), GraphError> {
    let mut ops: Vec<Op> = ddg.ops().to_vec();
    let mut edges: Vec<Edge> = Vec::with_capacity(ddg.num_edges() + victims.len() * 3);

    s.victim_slot.clear();
    s.victim_slot.resize(ddg.num_nodes(), NO_SLOT);
    s.stores.clear();
    if s.reloads.len() < victims.len() {
        s.reloads.resize_with(victims.len(), Vec::new);
    }
    for r in &mut s.reloads[..victims.len()] {
        r.clear();
    }
    for (i, &v) in victims.iter().enumerate() {
        s.victim_slot[v.index()] = i as u32;
        let store = NodeId(ops.len() as u32);
        ops.push(Op::memory(OpKind::Store, 1).never_compactable());
        s.stores.push(store);
        edges.push(Edge {
            src: v,
            dst: store,
            kind: EdgeKind::Flow,
            distance: 0,
        });
    }
    for e in ddg.edges() {
        let slot = s.victim_slot[e.src.index()];
        if !e.kind.is_flow() || slot == NO_SLOT {
            edges.push(*e);
            continue;
        }
        let slot = slot as usize;
        // Reloads are created on demand, one per distinct distance; the
        // per-victim list is small (a handful of distances), so a linear
        // probe beats any hashing.
        let reload = match s.reloads[slot].iter().find(|&&(d, _)| d == e.distance) {
            Some(&(_, id)) => id,
            None => {
                let id = NodeId(ops.len() as u32);
                ops.push(Op::memory(OpKind::Load, 1).never_compactable());
                // The reload reads the spill slot written `distance`
                // iterations earlier.
                edges.push(Edge {
                    src: s.stores[slot],
                    dst: id,
                    kind: EdgeKind::Memory,
                    distance: e.distance,
                });
                s.reloads[slot].push((e.distance, id));
                id
            }
        };
        edges.push(Edge {
            src: reload,
            dst: e.dst,
            kind: EdgeKind::Flow,
            distance: 0,
        });
    }
    let records = victims
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            let mut reloads = s.reloads[i].clone();
            reloads.sort_unstable();
            SpillRecord {
                victim: v,
                store: s.stores[i],
                reloads,
            }
        })
        .collect();
    Ok((Ddg::from_parts(ops, edges)?, records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use widening_ir::DdgBuilder;

    const M4: CycleModel = CycleModel::Cycles4;

    /// A loop with many long-lived loads feeding one late consumer chain:
    /// high register pressure at small II.
    fn pressure_loop(n_loads: usize) -> Arc<Ddg> {
        let mut b = DdgBuilder::new();
        let loads: Vec<_> = (0..n_loads).map(|_| b.load(1)).collect();
        // A reduction tree of adds consuming all loads pairwise in
        // sequence keeps the early loads alive for a long time.
        let mut acc = loads[0];
        for &l in &loads[1..] {
            let a = b.op(OpKind::FAdd);
            b.flow(acc, a);
            b.flow(l, a);
            acc = a;
        }
        let st = b.store(1);
        b.flow(acc, st);
        Arc::new(b.build().unwrap())
    }

    fn cfg(x: u32, z: u32) -> Configuration {
        Configuration::monolithic(x, 1, z).unwrap()
    }

    #[test]
    fn no_pressure_passes_through() {
        let g = pressure_loop(3);
        let r = schedule_with_registers(
            &g,
            &cfg(1, 256),
            M4,
            &SchedulerOptions::default(),
            &SpillOptions::default(),
        )
        .unwrap();
        assert_eq!(r.rounds, 1);
        assert_eq!(r.spill_stores + r.spill_loads, 0);
        assert!(r.allocation.registers_used() <= 256);
        // No spill code: the result shares the input graph.
        assert!(Arc::ptr_eq(&r.ddg, &g));
    }

    #[test]
    fn spilling_relieves_small_file() {
        // 12 concurrent loads on a fast machine into an 8-register file.
        let g = pressure_loop(12);
        let r = schedule_with_registers(
            &g,
            &cfg(4, 8),
            M4,
            &SchedulerOptions::default(),
            &SpillOptions::default(),
        )
        .unwrap();
        assert!(r.allocation.registers_used() <= 8);
        assert!(r.spill_stores > 0 || r.rounds > 1);
        // Spill traffic exists and the final graph grew.
        if r.spill_stores > 0 {
            assert!(r.ddg.num_nodes() > g.num_nodes());
        }
    }

    #[test]
    fn increase_ii_only_policy_never_spills() {
        let g = pressure_loop(12);
        let r = schedule_with_registers(
            &g,
            &cfg(4, 8),
            M4,
            &SchedulerOptions::default(),
            &SpillOptions {
                policy: SpillPolicy::IncreaseIiOnly,
            },
        )
        .unwrap();
        assert_eq!(r.spill_stores + r.spill_loads, 0);
        assert!(r.allocation.registers_used() <= 8);
        assert!(r.rounds > 1 && Arc::ptr_eq(&r.ddg, &g));
        // It paid with a larger II than the unconstrained schedule.
        let free = ModuloScheduler::new(cfg(4, 8), M4).schedule(&g).unwrap();
        assert!(r.schedule.ii() > free.ii());
    }

    #[test]
    fn impossible_pressure_reports_error() {
        // 2 registers cannot hold a 12-load reduction even with spilling
        // bounded by the round budget — expect a clean Pressure error,
        // not a hang.
        let g = pressure_loop(16);
        let r = schedule_with_registers(
            &g,
            &cfg(4, 2),
            M4,
            &SchedulerOptions::default(),
            &SpillOptions::default(),
        );
        match r {
            Err(RegallocError::Pressure { needed, available }) => {
                assert_eq!(available, 2);
                assert!(needed > 2);
            }
            Ok(res) => panic!(
                "expected pressure failure, got II={} regs={}",
                res.schedule.ii(),
                res.allocation.registers_used()
            ),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn insert_spills_rewrites_uses_through_reload() {
        // v (load) feeds two adds at distances 0 and 2.
        let mut b = DdgBuilder::new();
        let v = b.load(1);
        let a0 = b.op(OpKind::FAdd);
        let a2 = b.op(OpKind::FAdd);
        b.flow(v, a0);
        b.carried_flow(v, a2, 2);
        let g = b.build().unwrap();
        let (g2, records) = insert_spills_with(&g, &[v], &mut RewriteScratch::default()).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].victim, v);
        assert_eq!(records[0].reloads.len(), 2); // one per distinct distance
        assert_eq!(records[0].reloads[0].0, 0);
        assert_eq!(records[0].reloads[1].0, 2);
        assert_eq!(g2.num_nodes(), g.num_nodes() + 3);
        // v no longer feeds the adds directly.
        assert!(g2
            .out_edges(v)
            .all(|e| !e.kind.is_flow() || g2.op(e.dst).kind() == OpKind::Store));
        // Every add is fed by exactly one load now.
        for a in [a0, a2] {
            let flows: Vec<_> = g2.in_edges(a).filter(|e| e.kind.is_flow()).collect();
            assert_eq!(flows.len(), 1);
            assert_eq!(g2.op(flows[0].src).kind(), OpKind::Load);
        }
    }

    #[test]
    fn spill_candidates_skip_recurrences_and_spill_ops() {
        let mut b = DdgBuilder::new();
        let acc = b.op(OpKind::FAdd); // recurrence value
        b.carried_flow(acc, acc, 1);
        let ld = b.load(1);
        let use1 = b.op(OpKind::FMul);
        b.flow(ld, use1);
        b.flow(use1, acc);
        let g = b.build().unwrap();
        let lts = vec![
            Lifetime {
                def: acc,
                start: 0,
                end: 40,
            },
            Lifetime {
                def: ld,
                start: 0,
                end: 40,
            },
            Lifetime {
                def: use1,
                start: 0,
                end: 4,
            },
        ];
        let spill_made = vec![false, true, false];
        let picked = pick_spill_candidates(&g, &lts, 2, M4, &spill_made, 10, 4);
        // acc is a recurrence, ld is marked spill-made, use1 too short.
        assert!(picked.is_empty());
        let spill_made = vec![false, false, false];
        let picked = pick_spill_candidates(&g, &lts, 2, M4, &spill_made, 10, 4);
        assert_eq!(picked, vec![ld]);
    }

    #[test]
    fn error_display_and_source() {
        let e = RegallocError::Pressure {
            needed: 40,
            available: 32,
        };
        assert!(e.to_string().contains("40"));
        assert!(Error::source(&e).is_none());
        let e = RegallocError::Schedule(ScheduleError::ZeroIi);
        assert!(Error::source(&e).is_some());
    }
}
