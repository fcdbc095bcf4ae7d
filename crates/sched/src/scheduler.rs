//! The modulo-scheduling engine and its ordering strategies.
//!
//! The engine searches `II = MII, MII+1, …` and at each candidate `II`
//! runs one placement pass. Three strategies are provided:
//!
//! * [`Strategy::Hrms`] — the paper's scheduler lineage (HRMS, MICRO-28,
//!   refined as Swing Modulo Scheduling by the same group): nodes are
//!   pre-ordered so that recurrences are placed first (most critical
//!   first) and every later node is adjacent to the already-placed
//!   region, which keeps value lifetimes — and hence register pressure —
//!   short.
//! * [`Strategy::Ims`] — Rau's Iterative Modulo Scheduling (MICRO-27):
//!   deadline-priority placement with budgeted eviction/backtracking.
//!   Used as the comparison baseline in ablation studies.
//! * [`Strategy::Asap`] — naive topological-order placement; the "no
//!   clever ordering" control.
//!
//! # Dense scratch discipline
//!
//! One schedule call attempts many II values, and a design-space sweep
//! makes millions of such calls. All per-attempt state therefore lives
//! in a [`SchedScratch`] arena that is *cleared, not reallocated*
//! between attempts: the MRT grids, the ASAP/ALAP tables, the
//! time/placement tables, the HRMS frontier and priority sets, the IMS
//! priority queue and eviction lists. Work that does not depend on the
//! candidate II — edge delays, node latencies, the HRMS priority sets,
//! the SCC condensation — is hoisted out of the II loop entirely and
//! computed once per call. The reachability closure behind the HRMS
//! path closure is built only for loops with two or more recurrences:
//! only the second and later recurrences read it. After warm-up a
//! steady-state II attempt performs no heap allocation (asserted by the
//! `zero_alloc` integration test).

use widening_ir::{Ddg, NodeId, StronglyConnectedComponents};
use widening_machine::{Configuration, CycleModel};

use crate::analysis::TimeAnalysis;
use crate::dense::BitMatrix;
use crate::edge_delay;
use crate::mii::MiiBounds;
use crate::mrt::{Mrt, Placement};
use crate::schedule::{Schedule, ScheduleError};

/// Node-ordering strategy for the placement pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// HRMS-lineage ordering (recurrence-first, neighbour-preserving).
    #[default]
    Hrms,
    /// Rau's iterative modulo scheduling with backtracking.
    Ims,
    /// Topological (ASAP) order, no lifetime awareness.
    Asap,
}

impl Strategy {
    /// All strategies, for ablation sweeps.
    pub const ALL: [Strategy; 3] = [Strategy::Hrms, Strategy::Ims, Strategy::Asap];

    /// Short label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Hrms => "hrms",
            Strategy::Ims => "ims",
            Strategy::Asap => "asap",
        }
    }
}

/// Options for [`ModuloScheduler`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerOptions {
    /// Ordering strategy.
    pub strategy: Strategy,
}

/// Hard upper bound on the II search.
const MAX_II: u32 = 1 << 16;
/// The search tries `MII ..= min(MAX_II, MII·II_WINDOW_FACTOR +
/// II_WINDOW_SLACK)`.
const II_WINDOW_FACTOR: u32 = 8;
/// Additive slack in the II search window.
const II_WINDOW_SLACK: u32 = 64;
/// IMS only: the eviction budget is `BUDGET_FACTOR × nodes` per II.
const BUDGET_FACTOR: u32 = 6;

/// Reusable working storage for [`ModuloScheduler`].
///
/// Holds every table the placement passes touch, so that repeated
/// schedule calls (and the many II attempts inside each call) reuse one
/// warm set of buffers instead of allocating afresh. Create once, pass
/// to [`ModuloScheduler::schedule_with`] for every loop compiled on
/// this thread; the convenience entry points create a throwaway one
/// internally.
///
/// The arena is keyed by nothing: any call may pass any scratch, and
/// results are bitwise-identical to the allocating path.
#[derive(Debug, Clone)]
pub struct SchedScratch {
    // ----- per-call, II-independent (filled by `prepare`) -----
    /// `delays[i]` = `edge_delay` of edge `i`.
    delays: Vec<i64>,
    /// `lat[v]` = issue latency of node `v`.
    lat: Vec<i64>,
    /// Reachability closure (HRMS path closure between recurrences);
    /// stale unless the current loop has two or more recurrences.
    reach: BitMatrix,
    /// BFS worklist for `reach`.
    queue: Vec<u32>,
    /// Nodes already claimed by an HRMS priority set.
    selected: Vec<bool>,
    /// HRMS priority sets, concatenated.
    sets_flat: Vec<NodeId>,
    /// End offset (into `sets_flat`) of each priority set.
    set_ends: Vec<usize>,
    /// SCCs of the loop (ASAP strategy; Tarjan's output order, i.e.
    /// reverse topological).
    sccs: StronglyConnectedComponents,
    // ----- per-attempt (reset at each candidate II) -----
    /// ASAP/ALAP tables, re-relaxed in place per II.
    ta: TimeAnalysis,
    /// The modulo reservation table.
    mrt: Mrt,
    /// Issue cycle per node, `None` while unplaced.
    time: Vec<Option<i64>>,
    /// MRT reservation per node (needed to evict).
    placements: Vec<Option<Placement>>,
    /// IMS: last forced issue cycle per node.
    prev_time: Vec<Option<i64>>,
    /// Placement order under construction (HRMS sweep / ASAP).
    order: Vec<NodeId>,
    /// Nodes already appended to `order`.
    ordered: Vec<bool>,
    /// Membership of the priority set being swept.
    in_set: Vec<bool>,
    /// HRMS sweep frontier.
    frontier: Vec<NodeId>,
    /// IMS deadline priority order.
    prio: Vec<NodeId>,
    /// IMS: neighbours invalidated by a forced placement.
    evict: Vec<NodeId>,
    /// IMS: occupants contending for a slot (`Mrt::conflicts_into`).
    conflicts: Vec<u32>,
}

impl SchedScratch {
    /// An empty arena; buffers grow on first use and are then reused.
    #[must_use]
    pub fn new() -> Self {
        SchedScratch {
            delays: Vec::new(),
            lat: Vec::new(),
            reach: BitMatrix::new(),
            queue: Vec::new(),
            selected: Vec::new(),
            sets_flat: Vec::new(),
            set_ends: Vec::new(),
            sccs: StronglyConnectedComponents::default(),
            ta: TimeAnalysis::empty(),
            mrt: Mrt::new(1, 1, 1),
            time: Vec::new(),
            placements: Vec::new(),
            prev_time: Vec::new(),
            order: Vec::new(),
            ordered: Vec::new(),
            in_set: Vec::new(),
            frontier: Vec::new(),
            prio: Vec::new(),
            evict: Vec::new(),
            conflicts: Vec::new(),
        }
    }
}

impl Default for SchedScratch {
    fn default() -> Self {
        SchedScratch::new()
    }
}

/// The modulo scheduler for one machine configuration and cycle model.
///
/// See the [crate documentation](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct ModuloScheduler {
    cfg: Configuration,
    model: CycleModel,
    opts: SchedulerOptions,
}

impl ModuloScheduler {
    /// A scheduler with default options (HRMS strategy).
    #[must_use]
    pub fn new(cfg: Configuration, model: CycleModel) -> Self {
        ModuloScheduler {
            cfg,
            model,
            opts: SchedulerOptions::default(),
        }
    }

    /// A scheduler with explicit options.
    #[must_use]
    pub fn with_options(cfg: Configuration, model: CycleModel, opts: SchedulerOptions) -> Self {
        ModuloScheduler { cfg, model, opts }
    }

    /// The machine configuration being scheduled for.
    #[must_use]
    pub fn configuration(&self) -> &Configuration {
        &self.cfg
    }

    /// The cycle model in use.
    #[must_use]
    pub fn cycle_model(&self) -> CycleModel {
        self.model
    }

    /// Schedules `ddg`, computing MII bounds internally.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::NoSchedule`] if no feasible II is found
    /// inside the search window.
    pub fn schedule(&self, ddg: &Ddg) -> Result<Schedule, ScheduleError> {
        let bounds = MiiBounds::compute(ddg, &self.cfg, self.model);
        self.schedule_bounded(ddg, &bounds, 1, &mut SchedScratch::new())
    }

    /// Schedules `ddg` with the II search starting no lower than
    /// `min_ii`. Used by the spill engine's increase-II policy: a larger
    /// II shortens relative lifetimes and lowers register pressure.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::NoSchedule`] if no feasible II is found
    /// inside the search window.
    pub fn schedule_with_min_ii(&self, ddg: &Ddg, min_ii: u32) -> Result<Schedule, ScheduleError> {
        let bounds = MiiBounds::compute(ddg, &self.cfg, self.model);
        self.schedule_bounded(ddg, &bounds, min_ii, &mut SchedScratch::new())
    }

    /// Schedules `ddg` reusing precomputed [`MiiBounds`].
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::NoSchedule`] if no feasible II is found
    /// inside the search window.
    pub fn schedule_with_bounds(
        &self,
        ddg: &Ddg,
        bounds: &MiiBounds,
    ) -> Result<Schedule, ScheduleError> {
        self.schedule_bounded(ddg, bounds, 1, &mut SchedScratch::new())
    }

    /// Schedules `ddg` reusing precomputed [`MiiBounds`] *and* a caller
    /// owned [`SchedScratch`], with the II search starting no lower than
    /// `min_ii`. The hot-path entry point: identical results to the
    /// convenience methods, zero steady-state allocation.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::NoSchedule`] if no feasible II is found
    /// inside the search window.
    pub fn schedule_with(
        &self,
        ddg: &Ddg,
        bounds: &MiiBounds,
        min_ii: u32,
        scratch: &mut SchedScratch,
    ) -> Result<Schedule, ScheduleError> {
        self.schedule_bounded(ddg, bounds, min_ii, scratch)
    }

    /// Runs one placement attempt at exactly `ii` (no II search, no
    /// schedule verification) and reports whether every node was placed.
    /// Exposed so tests and diagnostics can probe a single steady-state
    /// II attempt — notably the allocation-counting test, since this is
    /// precisely the loop body that must stay heap-free after warm-up.
    pub fn attempt_ii(
        &self,
        ddg: &Ddg,
        bounds: &MiiBounds,
        ii: u32,
        scratch: &mut SchedScratch,
    ) -> bool {
        self.prepare(ddg, bounds, scratch);
        self.relax_and_attempt(ddg, ii, scratch)
    }

    fn schedule_bounded(
        &self,
        ddg: &Ddg,
        bounds: &MiiBounds,
        min_ii: u32,
        scratch: &mut SchedScratch,
    ) -> Result<Schedule, ScheduleError> {
        self.prepare(ddg, bounds, scratch);
        let mii = bounds.mii().max(min_ii);
        let limit = (mii
            .saturating_mul(II_WINDOW_FACTOR)
            .saturating_add(II_WINDOW_SLACK))
        .min(MAX_II);
        for ii in mii..=limit {
            if self.relax_and_attempt(ddg, ii, scratch) {
                let normalized = normalize(&scratch.time);
                match Schedule::new(ddg, &self.cfg, self.model, ii, normalized) {
                    Ok(s) => return Ok(s),
                    // The independent re-verification packs unpipelined
                    // reservations greedily and may (rarely) reject a
                    // placement the incremental MRT accepted; a larger
                    // II always resolves it.
                    Err(ScheduleError::ResourceOverflow { .. }) => continue,
                    Err(other) => return Err(other),
                }
            }
        }
        Err(ScheduleError::NoSchedule {
            max_ii_tried: limit,
        })
    }

    /// Fills the II-independent scratch tables: edge delays, node
    /// latencies, and the strategy's pre-order inputs (HRMS priority
    /// sets, plus their reachability closure when the loop has two or
    /// more recurrences; ASAP's SCC condensation).
    /// Everything here used to be recomputed inside the II loop; none
    /// of it depends on II.
    fn prepare(&self, ddg: &Ddg, bounds: &MiiBounds, s: &mut SchedScratch) {
        s.delays.clear();
        s.delays.extend(
            ddg.edges()
                .iter()
                .map(|e| edge_delay(self.model, ddg.op(e.src).kind(), e)),
        );
        s.lat.clear();
        s.lat.extend(
            ddg.node_ids()
                .map(|v| i64::from(self.model.latency(ddg.op(v).kind()))),
        );
        match self.opts.strategy {
            Strategy::Hrms => hrms_prepare_sets(ddg, bounds, s),
            Strategy::Ims => {}
            Strategy::Asap => s.sccs = ddg.sccs(),
        }
    }

    /// One II attempt: re-relax the timing tables in place, then run the
    /// strategy's placement pass. On success `scratch.time` holds the
    /// issue cycle of every node.
    fn relax_and_attempt(&self, ddg: &Ddg, ii: u32, scratch: &mut SchedScratch) -> bool {
        {
            let SchedScratch {
                ta, delays, lat, ..
            } = scratch;
            if !ta.recompute(ddg, delays, lat, ii) {
                return false; // ii < RecMII
            }
        }
        match self.opts.strategy {
            // The HRMS sweep places each node exactly once; on rare
            // diamond shapes that one-pass discipline pinches a node
            // between a late predecessor and an early successor at
            // every II. Rau's backtracking pass recovers those cases
            // at the same II, so it backstops the sweep (HRMS's
            // ordering still decides the schedule whenever it
            // succeeds, which is the overwhelmingly common case).
            Strategy::Hrms => {
                self.hrms_attempt(ddg, ii, scratch) || self.ims_attempt(ddg, ii, scratch)
            }
            Strategy::Ims => self.ims_attempt(ddg, ii, scratch),
            Strategy::Asap => self.asap_attempt(ddg, ii, scratch),
        }
    }

    // ----- shared placement helpers -------------------------------------

    fn units(&self) -> (u32, u32) {
        (
            self.cfg.units(widening_ir::ResourceClass::Bus),
            self.cfg.units(widening_ir::ResourceClass::Fpu),
        )
    }

    /// Tries the candidate cycles of `window` in order; places `v` at the
    /// first cycle the MRT accepts.
    fn place_in_window(
        &self,
        ddg: &Ddg,
        v: NodeId,
        window: impl Iterator<Item = i64>,
        mrt: &mut Mrt,
        time: &mut [Option<i64>],
        placements: &mut [Option<Placement>],
    ) -> bool {
        let op = ddg.op(v);
        let occ = self.model.occupancy(op.kind());
        for t in window {
            if let Some(p) = mrt.try_place(v.0, op.resource_class(), t, occ) {
                time[v.index()] = Some(t);
                placements[v.index()] = Some(p);
                return true;
            }
        }
        false
    }

    // ----- HRMS ----------------------------------------------------------

    fn hrms_attempt(&self, ddg: &Ddg, ii: u32, scratch: &mut SchedScratch) -> bool {
        hrms_sweep(ddg, scratch);
        debug_assert_eq!(scratch.order.len(), ddg.num_nodes());
        let (bus, fpu) = self.units();
        let SchedScratch {
            ta,
            delays,
            mrt,
            time,
            placements,
            order,
            ..
        } = scratch;
        let n = ddg.num_nodes();
        mrt.reset(ii, bus, fpu);
        time.clear();
        time.resize(n, None);
        placements.clear();
        placements.resize(n, None);
        let iil = i64::from(ii);
        for &v in order.iter() {
            let e = estart(ddg, delays, v, ii, time);
            let l = lstart(ddg, delays, v, ii, time);
            let ok = match (e, l) {
                (Some(e), None) => self.place_in_window(ddg, v, e..e + iil, mrt, time, placements),
                (None, Some(l)) => {
                    self.place_in_window(ddg, v, (l - iil + 1..=l).rev(), mrt, time, placements)
                }
                (Some(e), Some(l)) => {
                    e <= l
                        && self.place_in_window(
                            ddg,
                            v,
                            e..=l.min(e + iil - 1),
                            mrt,
                            time,
                            placements,
                        )
                }
                (None, None) => {
                    let a = ta.asap(v);
                    self.place_in_window(ddg, v, a..a + iil, mrt, time, placements)
                }
            };
            if !ok {
                return false;
            }
        }
        true
    }

    // ----- IMS -----------------------------------------------------------

    fn ims_attempt(&self, ddg: &Ddg, ii: u32, scratch: &mut SchedScratch) -> bool {
        let n = ddg.num_nodes();
        let (bus, fpu) = self.units();
        let SchedScratch {
            ta,
            delays,
            mrt,
            time,
            placements,
            prev_time,
            prio,
            evict,
            conflicts,
            ..
        } = scratch;
        // Deadline priority: earlier ALAP first (critical path), ties by
        // ASAP then id — a total, deterministic order.
        prio.clear();
        prio.extend(ddg.node_ids());
        prio.sort_unstable_by_key(|&v| (ta.alap(v), ta.asap(v), v.0));

        mrt.reset(ii, bus, fpu);
        time.clear();
        time.resize(n, None);
        placements.clear();
        placements.resize(n, None);
        prev_time.clear();
        prev_time.resize(n, None);
        let mut budget = BUDGET_FACTOR.saturating_mul(n as u32).max(16);
        let iil = i64::from(ii);

        loop {
            // Highest-priority unscheduled node.
            let Some(&v) = prio.iter().find(|v| time[v.index()].is_none()) else {
                debug_assert!(time.iter().all(Option::is_some));
                return true;
            };
            let op = ddg.op(v);
            let occ = self.model.occupancy(op.kind());
            let est = estart(ddg, delays, v, ii, time).unwrap_or_else(|| ta.asap(v));
            let found = (est..est + iil).find_map(|t| {
                mrt.try_place(v.0, op.resource_class(), t, occ)
                    .map(|p| (t, p))
            });
            let (t, placement) = match found {
                Some(hit) => hit,
                None => {
                    // Forced placement with eviction.
                    if budget == 0 {
                        return false;
                    }
                    budget -= 1;
                    let t = match prev_time[v.index()] {
                        Some(pt) => est.max(pt + 1),
                        None => est,
                    };
                    mrt.conflicts_into(op.resource_class(), t, occ, conflicts);
                    for &u in conflicts.iter() {
                        let ui = u as usize;
                        if let Some(p) = placements[ui].take() {
                            mrt.remove(u, &p);
                            time[ui] = None;
                        }
                    }
                    let p = mrt
                        .try_place(v.0, op.resource_class(), t, occ)
                        .expect("slot freed by eviction");
                    (t, p)
                }
            };
            time[v.index()] = Some(t);
            placements[v.index()] = Some(placement);
            prev_time[v.index()] = Some(t);
            // Evict neighbours whose dependence constraints `t` breaks.
            evict.clear();
            for &ei in ddg.in_edge_ids(v) {
                let e = ddg.edge(ei);
                if let Some(tu) = time[e.src.index()] {
                    let bound = tu + delays[ei as usize] - iil * i64::from(e.distance);
                    if t < bound {
                        evict.push(e.src);
                    }
                }
            }
            for &ei in ddg.out_edge_ids(v) {
                let e = ddg.edge(ei);
                if e.dst == v {
                    continue; // self-edge already satisfied by RecMII
                }
                if let Some(ts) = time[e.dst.index()] {
                    let bound = t + delays[ei as usize] - iil * i64::from(e.distance);
                    if ts < bound {
                        evict.push(e.dst);
                    }
                }
            }
            for &u in evict.iter() {
                if let Some(p) = placements[u.index()].take() {
                    if budget == 0 {
                        return false;
                    }
                    budget -= 1;
                    mrt.remove(u.0, &p);
                    time[u.index()] = None;
                }
            }
        }
    }

    // ----- ASAP ----------------------------------------------------------

    fn asap_attempt(&self, ddg: &Ddg, ii: u32, scratch: &mut SchedScratch) -> bool {
        let n = ddg.num_nodes();
        let (bus, fpu) = self.units();
        let SchedScratch {
            ta,
            delays,
            mrt,
            time,
            placements,
            order,
            sccs,
            ..
        } = scratch;
        // Naive order, but over the condensation of *all* edges: a node
        // whose only predecessors are loop-carried must still come after
        // them, or its placement window is starved at every II. Tarjan
        // emits the components in reverse topological order, so walk
        // them backwards, each sorted by (asap, id).
        order.clear();
        for comp in sccs.components().rev() {
            let base = order.len();
            order.extend_from_slice(comp);
            order[base..].sort_unstable_by_key(|&v| (ta.asap(v), v.0));
        }
        mrt.reset(ii, bus, fpu);
        time.clear();
        time.resize(n, None);
        placements.clear();
        placements.resize(n, None);
        let iil = i64::from(ii);
        for &v in order.iter() {
            let e = estart(ddg, delays, v, ii, time).unwrap_or_else(|| ta.asap(v));
            // Respect any placed successor (via carried edges) too.
            let l = lstart(ddg, delays, v, ii, time);
            let hi = l.map_or(e + iil - 1, |l| l.min(e + iil - 1));
            if e > hi {
                return false;
            }
            if !self.place_in_window(ddg, v, e..=hi, mrt, time, placements) {
                return false;
            }
        }
        true
    }
}

/// Earliest start implied by *placed* predecessors.
fn estart(ddg: &Ddg, delays: &[i64], v: NodeId, ii: u32, time: &[Option<i64>]) -> Option<i64> {
    let mut e = None;
    for &ei in ddg.in_edge_ids(v) {
        let edge = ddg.edge(ei);
        if let Some(tu) = time[edge.src.index()] {
            let bound = tu + delays[ei as usize] - i64::from(ii) * i64::from(edge.distance);
            e = Some(e.map_or(bound, |x: i64| x.max(bound)));
        }
    }
    e
}

/// Latest start implied by *placed* successors.
fn lstart(ddg: &Ddg, delays: &[i64], v: NodeId, ii: u32, time: &[Option<i64>]) -> Option<i64> {
    let mut l = None;
    for &ei in ddg.out_edge_ids(v) {
        let edge = ddg.edge(ei);
        if let Some(ts) = time[edge.dst.index()] {
            let bound = ts - delays[ei as usize] + i64::from(ii) * i64::from(edge.distance);
            l = Some(l.map_or(bound, |x: i64| x.min(bound)));
        }
    }
    l
}

/// Shifts times so the minimum is zero (placement may produce negative
/// cycles when sweeping bottom-up; a uniform shift preserves both
/// dependence distances and modulo resource rows up to rotation).
fn normalize(time: &[Option<i64>]) -> Vec<u32> {
    let min = time
        .iter()
        .map(|t| t.expect("all nodes placed"))
        .min()
        .unwrap_or(0);
    time.iter()
        .map(|t| {
            u32::try_from(t.expect("all nodes placed") - min).expect("normalized times fit in u32")
        })
        .collect()
}

// ----- HRMS ordering -----------------------------------------------------

/// Builds the HRMS priority sets into `scratch` (`sets_flat` /
/// `set_ends`): each recurrence (sorted by criticality) plus the
/// path-closure nodes linking it to the previously selected region;
/// finally everything else. II-independent, so computed once per
/// schedule call. Only the second and later recurrences take a path
/// closure, so the reachability matrix is built only when there are
/// at least two.
fn hrms_prepare_sets(ddg: &Ddg, bounds: &MiiBounds, s: &mut SchedScratch) {
    let n = ddg.num_nodes();
    if bounds.recurrences().len() >= 2 {
        compute_reachability(ddg, &mut s.reach, &mut s.queue);
    }
    let SchedScratch {
        reach,
        selected,
        sets_flat,
        set_ends,
        ..
    } = s;
    selected.clear();
    selected.resize(n, false);
    sets_flat.clear();
    set_ends.clear();
    for rec in bounds.recurrences() {
        let start = sets_flat.len();
        sets_flat.extend(rec.nodes.iter().copied().filter(|v| !selected[v.index()]));
        if !set_ends.is_empty() {
            // Path closure: unselected nodes on a directed path between
            // the selected region and this recurrence (either way).
            for v in ddg.node_ids().filter(|v| !selected[v.index()]) {
                if sets_flat[start..].contains(&v) {
                    continue;
                }
                let from_sel = ddg
                    .node_ids()
                    .filter(|u| selected[u.index()])
                    .any(|u| reach.get(u.index(), v.index()));
                let to_rec = rec.nodes.iter().any(|&r| reach.get(v.index(), r.index()));
                let from_rec = rec.nodes.iter().any(|&r| reach.get(r.index(), v.index()));
                let to_sel = ddg
                    .node_ids()
                    .filter(|u| selected[u.index()])
                    .any(|u| reach.get(v.index(), u.index()));
                if (from_sel && to_rec) || (from_rec && to_sel) {
                    sets_flat.push(v);
                }
            }
        }
        for i in start..sets_flat.len() {
            selected[sets_flat[i].index()] = true;
        }
        if sets_flat.len() > start {
            set_ends.push(sets_flat.len());
        }
    }
    let start = sets_flat.len();
    sets_flat.extend(ddg.node_ids().filter(|v| !selected[v.index()]));
    if sets_flat.len() > start {
        set_ends.push(sets_flat.len());
    }
}

/// Orders the nodes of each priority set into `scratch.order`,
/// preferring nodes adjacent to the already-ordered region, sweeping
/// alternately top-down (by height) and bottom-up (by depth). Depends on
/// the per-II timing tables, so runs once per attempt — but only reads
/// the sets prepared per call.
fn hrms_sweep(ddg: &Ddg, scratch: &mut SchedScratch) {
    let n = ddg.num_nodes();
    let SchedScratch {
        ta,
        sets_flat,
        set_ends,
        order,
        ordered,
        in_set,
        frontier,
        ..
    } = scratch;
    order.clear();
    ordered.clear();
    ordered.resize(n, false);
    let mut set_start = 0;
    for &set_end in set_ends.iter() {
        let set = &sets_flat[set_start..set_end];
        set_start = set_end;
        in_set.clear();
        in_set.resize(n, false);
        for &v in set {
            in_set[v.index()] = true;
        }
        let mut remaining: usize = set.len();
        // Initial frontier: successors (top-down) or predecessors
        // (bottom-up) of the already-ordered region inside this set.
        let mut direction_top_down = true;
        frontier_into(ddg, order, in_set, ordered, true, frontier);
        if frontier.is_empty() {
            frontier_into(ddg, order, in_set, ordered, false, frontier);
            if !frontier.is_empty() {
                direction_top_down = false;
            }
        }
        while remaining > 0 {
            if frontier.is_empty() {
                // Sweep exhausted: try the flipped direction, then the
                // current one; if both are empty the set is disconnected
                // from the ordered region — seed a fresh top-down sweep
                // at its source-most node.
                frontier_into(ddg, order, in_set, ordered, !direction_top_down, frontier);
                if !frontier.is_empty() {
                    direction_top_down = !direction_top_down;
                } else {
                    frontier_into(ddg, order, in_set, ordered, direction_top_down, frontier);
                }
                if frontier.is_empty() {
                    let seed = set
                        .iter()
                        .copied()
                        .filter(|v| !ordered[v.index()])
                        .min_by_key(|&v| (ta.asap(v), v.0))
                        .expect("remaining > 0");
                    direction_top_down = true;
                    frontier.push(seed);
                }
            }
            // Pick by height (top-down) or depth (bottom-up); ties by
            // mobility, then by discovery order (FIFO). Discovery order
            // matters: it keeps the sweep close to the ordered region,
            // so diamond shapes are absorbed breadth-first and no node
            // is left pinched between a late pred and an early succ.
            let pick = frontier
                .iter()
                .enumerate()
                .max_by_key(|&(i, &v)| {
                    let primary = if direction_top_down {
                        ta.height(v)
                    } else {
                        ta.depth(v)
                    };
                    (primary, -ta.mobility(v), std::cmp::Reverse(i))
                })
                .map(|(_, &v)| v)
                .expect("frontier non-empty");
            order.push(pick);
            ordered[pick.index()] = true;
            remaining -= 1;
            // Extend the frontier with pick's neighbours in this set.
            frontier.retain(|&v| v != pick);
            if direction_top_down {
                for e in ddg.out_edges(pick) {
                    let w = e.dst;
                    if in_set[w.index()] && !ordered[w.index()] && !frontier.contains(&w) {
                        frontier.push(w);
                    }
                }
            } else {
                for e in ddg.in_edges(pick) {
                    let w = e.src;
                    if in_set[w.index()] && !ordered[w.index()] && !frontier.contains(&w) {
                        frontier.push(w);
                    }
                }
            }
        }
    }
}

/// Collects into `out` the nodes of `in_set`, not yet ordered, adjacent
/// to the ordered region: successors when `top_down`, predecessors
/// otherwise. Clears `out` first.
fn frontier_into(
    ddg: &Ddg,
    order: &[NodeId],
    in_set: &[bool],
    ordered: &[bool],
    top_down: bool,
    out: &mut Vec<NodeId>,
) {
    out.clear();
    for &u in order {
        if top_down {
            for e in ddg.out_edges(u) {
                let w = e.dst;
                if in_set[w.index()] && !ordered[w.index()] && !out.contains(&w) {
                    out.push(w);
                }
            }
        } else {
            for e in ddg.in_edges(u) {
                let w = e.src;
                if in_set[w.index()] && !ordered[w.index()] && !out.contains(&w) {
                    out.push(w);
                }
            }
        }
    }
}

/// Dense reachability over all edges (any distance), used for path
/// closure between recurrence sets: row `u` of `m` gets a bit for every
/// node reachable from `u` (excluding `u` itself unless on a cycle).
fn compute_reachability(ddg: &Ddg, m: &mut BitMatrix, queue: &mut Vec<u32>) {
    let n = ddg.num_nodes();
    m.reset(n, n);
    for src in 0..n {
        queue.clear();
        queue.push(src as u32);
        while let Some(u) = queue.pop() {
            for e in ddg.out_edges(NodeId(u)) {
                if m.insert(src, e.dst.index()) {
                    queue.push(e.dst.0);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use widening_ir::{DdgBuilder, OpKind};

    const M4: CycleModel = CycleModel::Cycles4;

    fn cfg(x: u32) -> Configuration {
        Configuration::monolithic(x, 1, 256).unwrap()
    }

    /// The HRMS pre-order as a plain vector (the production path keeps
    /// it inside the scratch arena).
    fn hrms_order(ddg: &Ddg, bounds: &MiiBounds, ta: &TimeAnalysis) -> Vec<NodeId> {
        let mut s = SchedScratch::new();
        hrms_prepare_sets(ddg, bounds, &mut s);
        s.ta = ta.clone();
        hrms_sweep(ddg, &mut s);
        s.order.clone()
    }

    fn daxpy() -> Ddg {
        let mut b = DdgBuilder::new();
        let x = b.load(1);
        let y = b.load(1);
        let m = b.op(OpKind::FMul);
        let a = b.op(OpKind::FAdd);
        let s = b.store(1);
        b.flow(x, m);
        b.flow(m, a);
        b.flow(y, a);
        b.flow(a, s);
        b.build().unwrap()
    }

    fn reduction() -> Ddg {
        // s += x[i] * y[i]
        let mut b = DdgBuilder::new();
        let x = b.load(1);
        let y = b.load(1);
        let m = b.op(OpKind::FMul);
        let a = b.op(OpKind::FAdd);
        b.flow(x, m);
        b.flow(y, m);
        b.flow(m, a);
        b.carried_flow(a, a, 1);
        b.build().unwrap()
    }

    #[test]
    fn all_strategies_achieve_mii_on_daxpy() {
        let g = daxpy();
        let bounds = MiiBounds::compute(&g, &cfg(1), M4);
        assert_eq!(bounds.mii(), 3); // 3 memory ops on one bus
        for strat in Strategy::ALL {
            let s = ModuloScheduler::with_options(cfg(1), M4, SchedulerOptions { strategy: strat })
                .schedule(&g)
                .unwrap_or_else(|e| panic!("{}: {e}", strat.label()));
            assert_eq!(s.ii(), 3, "{}", strat.label());
        }
    }

    #[test]
    fn recurrence_bound_loop_hits_rec_mii() {
        let g = reduction();
        let bounds = MiiBounds::compute(&g, &cfg(4), M4);
        assert_eq!(bounds.rec_mii(), 4);
        assert!(bounds.is_recurrence_bound());
        let s = ModuloScheduler::new(cfg(4), M4).schedule(&g).unwrap();
        assert_eq!(s.ii(), 4);
    }

    #[test]
    fn wide_machine_reaches_ii_1() {
        // Independent streams scheduled on a wide machine: II = 1 means
        // one iteration per cycle.
        let mut b = DdgBuilder::new();
        let l = b.load(1);
        let m = b.op(OpKind::FMul);
        b.flow(l, m);
        let g = b.build().unwrap();
        let s = ModuloScheduler::new(cfg(2), M4).schedule(&g).unwrap();
        assert_eq!(s.ii(), 1);
        assert!(s.stages() >= 2); // latency forces overlapping stages
    }

    #[test]
    fn division_loops_schedule_with_wrapping() {
        // x[i+1] independent divides: occupancy 19 on 2 FPUs → II = 10.
        let mut b = DdgBuilder::new();
        let l = b.load(1);
        let d = b.op(OpKind::FDiv);
        let s = b.store(1);
        b.flow(l, d);
        b.flow(d, s);
        let g = b.build().unwrap();
        let bounds = MiiBounds::compute(&g, &cfg(1), M4);
        assert_eq!(bounds.res_mii(), 10);
        let sched = ModuloScheduler::new(cfg(1), M4).schedule(&g).unwrap();
        assert_eq!(sched.ii(), 10);
    }

    #[test]
    fn hrms_order_covers_all_nodes_once() {
        let g = reduction();
        let bounds = MiiBounds::compute(&g, &cfg(1), M4);
        let ta = TimeAnalysis::compute(&g, M4, bounds.mii()).unwrap();
        let order = hrms_order(&g, &bounds, &ta);
        let mut sorted: Vec<_> = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, g.node_ids().collect::<Vec<_>>());
        // The recurrence node (fadd, id 3) must be ordered first.
        assert_eq!(order[0], NodeId(3));
    }

    #[test]
    fn hrms_orders_every_later_node_adjacent_to_region() {
        // On a connected DAG, after the seed every ordered node should
        // have a neighbour among the already-ordered ones — the property
        // that keeps lifetimes short.
        let g = daxpy();
        let bounds = MiiBounds::compute(&g, &cfg(1), M4);
        let ta = TimeAnalysis::compute(&g, M4, bounds.mii()).unwrap();
        let order = hrms_order(&g, &bounds, &ta);
        for (i, &v) in order.iter().enumerate().skip(1) {
            let prior = &order[..i];
            let adjacent = g
                .out_edges(v)
                .map(|e| e.dst)
                .chain(g.in_edges(v).map(|e| e.src))
                .any(|w| prior.contains(&w));
            assert!(adjacent, "node {v} ordered with no placed neighbour");
        }
    }

    #[test]
    fn path_between_two_recurrences_joins_the_second_set() {
        // x → a ⟲ → p → r ⟲ → s. The second recurrence {r} must take p,
        // which lies on a path from the selected region {a} to it; x and
        // s lie on no such path and land in the final set. Two
        // recurrences are the fewest that read the reachability closure.
        let mut b = DdgBuilder::new();
        let x = b.load(1);
        let a = b.op(OpKind::FAdd);
        let p = b.op(OpKind::FMul);
        let r = b.op(OpKind::FAdd);
        let s = b.store(1);
        b.flow(x, a);
        b.carried_flow(a, a, 1);
        b.flow(a, p);
        b.flow(p, r);
        b.carried_flow(r, r, 1);
        b.flow(r, s);
        let g = b.build().unwrap();
        let bounds = MiiBounds::compute(&g, &cfg(1), M4);
        assert_eq!(bounds.recurrences().len(), 2);
        // Leave the closure of an edgeless loop of the same size in the
        // scratch: a run that skips rebuilding it sees no path at all.
        let mut scratch = SchedScratch::new();
        let mut b = DdgBuilder::new();
        for _ in 0..g.num_nodes() {
            b.load(1);
        }
        let edgeless = b.build().unwrap();
        compute_reachability(&edgeless, &mut scratch.reach, &mut scratch.queue);
        hrms_prepare_sets(&g, &bounds, &mut scratch);
        let mut sets = Vec::new();
        let mut start = 0;
        for &end in &scratch.set_ends {
            sets.push(scratch.sets_flat[start..end].to_vec());
            start = end;
        }
        assert_eq!(sets, vec![vec![a], vec![r, p], vec![x, s]]);
    }

    #[test]
    fn reachability_matrix() {
        let g = daxpy();
        let mut m = BitMatrix::new();
        let mut q = Vec::new();
        compute_reachability(&g, &mut m, &mut q);
        assert!(m.get(0, 4)); // load x → store
        assert!(!m.get(4, 0));
        assert!(!m.get(0, 1)); // two loads unrelated
    }

    #[test]
    fn ims_budget_exhaustion_escalates_ii_not_panics() {
        // A dense graph on a tiny machine forces IMS to evict; it must
        // still terminate with a valid schedule.
        let mut b = DdgBuilder::new();
        let loads: Vec<_> = (0..6).map(|_| b.load(1)).collect();
        let adds: Vec<_> = (0..6).map(|_| b.op(OpKind::FAdd)).collect();
        for i in 0..6 {
            b.flow(loads[i], adds[i]);
            if i > 0 {
                b.flow(adds[i - 1], adds[i]);
            }
        }
        let st = b.store(1);
        b.flow(adds[5], st);
        let g = b.build().unwrap();
        let s = ModuloScheduler::with_options(
            cfg(1),
            M4,
            SchedulerOptions {
                strategy: Strategy::Ims,
            },
        )
        .schedule(&g)
        .unwrap();
        assert!(s.ii() >= 7); // 7 memory ops on one bus
    }

    #[test]
    fn normalize_shifts_to_zero() {
        assert_eq!(normalize(&[Some(-3), Some(0), Some(2)]), vec![0, 3, 5]);
        assert_eq!(normalize(&[Some(5), Some(7)]), vec![0, 2]);
    }

    #[test]
    fn scratch_reuse_is_bitwise_identical() {
        // One warm scratch across many loops and configurations must
        // reproduce the throwaway-scratch results exactly.
        let mut scratch = SchedScratch::new();
        for strat in Strategy::ALL {
            for x in [1, 2] {
                for g in [daxpy(), reduction()] {
                    let sched = ModuloScheduler::with_options(
                        cfg(x),
                        M4,
                        SchedulerOptions { strategy: strat },
                    );
                    let bounds = MiiBounds::compute(&g, &cfg(x), M4);
                    let fresh = sched.schedule_with_bounds(&g, &bounds).unwrap();
                    let reused = sched.schedule_with(&g, &bounds, 1, &mut scratch).unwrap();
                    assert_eq!(fresh, reused, "{} x{}", strat.label(), x);
                }
            }
        }
    }

    #[test]
    fn attempt_ii_matches_search_feasibility() {
        let g = daxpy();
        let b = MiiBounds::compute(&g, &cfg(1), M4);
        let sched = ModuloScheduler::new(cfg(1), M4);
        let mut s = SchedScratch::new();
        assert!(!sched.attempt_ii(&g, &b, 2, &mut s)); // below ResMII: 3 mem ops, 1 bus
        assert!(sched.attempt_ii(&g, &b, 3, &mut s));
        assert!(sched.attempt_ii(&g, &b, 4, &mut s));
    }
}
