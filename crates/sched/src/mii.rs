//! Lower bounds on the initiation interval: `ResMII` and `RecMII`.
//!
//! A software-pipelined loop initiates one iteration every `II` cycles.
//! Two classic bounds constrain `II` from below (§1 of the paper, after
//! Rau):
//!
//! * **ResMII** — each resource class can serve `units` operations per
//!   cycle, so `II ≥ ⌈total occupancy / units⌉`;
//! * **RecMII** — every dependence circuit `C` must satisfy
//!   `Σ delay(C) ≤ II · Σ distance(C)`.
//!
//! Loops whose `MII` equals `ResMII` are *resource-bound*; loops where
//! `RecMII` dominates are *recurrence-bound* and cannot profit from more
//! hardware (§3.1).

use widening_ir::{Ddg, NodeId, ResourceClass, StronglyConnectedComponents};
use widening_machine::{Configuration, CycleModel};

use crate::edge_delay;

/// Per-recurrence detail produced while computing `RecMII`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecurrenceInfo {
    /// Nodes of the strongly connected component.
    pub nodes: Vec<NodeId>,
    /// The minimum feasible `II` for this component alone.
    pub rec_mii: u32,
}

/// The computed `II` lower bounds for one loop on one machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MiiBounds {
    res_mii: u32,
    rec_mii: u32,
    recurrences: Vec<RecurrenceInfo>,
}

impl MiiBounds {
    /// Computes both bounds for `ddg` on configuration `cfg` under the
    /// given cycle model.
    #[must_use]
    pub fn compute(ddg: &Ddg, cfg: &Configuration, model: CycleModel) -> Self {
        let res_mii = res_mii(ddg, cfg, model);
        let (rec_mii, recurrences) = rec_mii(ddg, model);
        MiiBounds {
            res_mii,
            rec_mii,
            recurrences,
        }
    }

    /// Reassembles bounds from their parts — the decode half of an
    /// artifact codec (the encode half reads [`Self::res_mii`],
    /// [`Self::rec_mii`] and [`Self::recurrences`]). The caller is
    /// trusted to supply parts produced by [`MiiBounds::compute`] for
    /// the same graph and machine; the recurrence list is re-sorted into
    /// the deterministic criticality order [`Self::recurrences`]
    /// documents so a reordered artifact cannot perturb scheduling.
    #[must_use]
    pub fn from_parts(res_mii: u32, rec_mii: u32, mut recurrences: Vec<RecurrenceInfo>) -> Self {
        recurrences.sort_by(|a, b| {
            b.rec_mii
                .cmp(&a.rec_mii)
                .then(b.nodes.len().cmp(&a.nodes.len()))
                .then(a.nodes.cmp(&b.nodes))
        });
        MiiBounds {
            res_mii,
            rec_mii,
            recurrences,
        }
    }

    /// The resource-constrained bound.
    #[must_use]
    pub fn res_mii(&self) -> u32 {
        self.res_mii
    }

    /// The recurrence-constrained bound (1 if the loop has no
    /// recurrence).
    #[must_use]
    pub fn rec_mii(&self) -> u32 {
        self.rec_mii
    }

    /// The combined lower bound `max(ResMII, RecMII)`, never below 1.
    #[must_use]
    pub fn mii(&self) -> u32 {
        self.res_mii.max(self.rec_mii).max(1)
    }

    /// Whether recurrences (not resources) set the bound — the paper's
    /// *recurrence-bound* class, insensitive to extra hardware.
    #[must_use]
    pub fn is_recurrence_bound(&self) -> bool {
        self.rec_mii > self.res_mii
    }

    /// Per-recurrence details, sorted by decreasing criticality
    /// (`rec_mii`, then size, then lowest node id — a total order, for
    /// deterministic scheduling).
    #[must_use]
    pub fn recurrences(&self) -> &[RecurrenceInfo] {
        &self.recurrences
    }
}

/// `ResMII = max over classes ⌈Σ occupancy / units⌉`.
fn res_mii(ddg: &Ddg, cfg: &Configuration, model: CycleModel) -> u32 {
    let mut worst = 1u64;
    for class in ResourceClass::ALL {
        let units = u64::from(cfg.units(class));
        let occupancy: u64 = ddg
            .ops()
            .iter()
            .filter(|o| o.resource_class() == class)
            .map(|o| u64::from(model.occupancy(o.kind())))
            .sum();
        if occupancy > 0 {
            worst = worst.max(occupancy.div_ceil(units));
        }
    }
    u32::try_from(worst).expect("occupancy fits in u32")
}

/// `RecMII` over all strongly connected components.
///
/// A component's members are the nodes the decomposition files under
/// its index, so membership needs no mark of its own. One distance
/// table, sized for the whole graph on the first recurrence, serves
/// every feasibility probe of every recurrence: a probe resets only its
/// members' distances. Besides the decomposition, that table and the
/// growing recurrence list, the only allocation per recurrence is its
/// [`RecurrenceInfo::nodes`] copy.
fn rec_mii(ddg: &Ddg, model: CycleModel) -> (u32, Vec<RecurrenceInfo>) {
    let sccs = StronglyConnectedComponents::compute(ddg);
    let mut infos = Vec::new();
    let mut dist = Vec::new();
    for comp in sccs.components() {
        let is_recurrence = comp.len() > 1 || ddg.out_edges(comp[0]).any(|e| e.dst == comp[0]);
        if !is_recurrence {
            continue;
        }
        dist.resize(ddg.num_nodes(), 0);
        infos.push(RecurrenceInfo {
            nodes: comp.to_vec(),
            rec_mii: scc_rec_mii(ddg, model, &sccs, comp, &mut dist),
        });
    }
    // Components are disjoint, so the first node breaks every tie: the
    // order is total and an unstable (allocation-free) sort is exact.
    infos.sort_unstable_by(|a, b| {
        b.rec_mii
            .cmp(&a.rec_mii)
            .then(b.nodes.len().cmp(&a.nodes.len()))
            .then(a.nodes[0].cmp(&b.nodes[0]))
    });
    let max = infos.iter().map(|i| i.rec_mii).max().unwrap_or(1);
    (max, infos)
}

/// Minimum `II` such that the component `comp` of `sccs` has no
/// positive-weight cycle under edge weights `delay(e) - II·distance(e)`.
/// Found by binary search on integer `II`; feasibility is a
/// Bellman-Ford-style longest-path relaxation restricted to component
/// nodes, which reads and writes `dist` at them only.
fn scc_rec_mii(
    ddg: &Ddg,
    model: CycleModel,
    sccs: &StronglyConnectedComponents,
    comp: &[NodeId],
    dist: &mut [i64],
) -> u32 {
    let index = sccs.component_of(comp[0]);
    // Upper bound: sum of all delays inside the component (a circuit
    // cannot be longer, and every circuit has total distance ≥ 1).
    let mut hi: i64 = 0;
    for &v in comp {
        for e in ddg.out_edges(v) {
            if sccs.component_of(e.dst) == index {
                hi += edge_delay(model, ddg.op(v).kind(), e);
            }
        }
    }
    // Whether `ii` admits no positive cycle: dist starts at 0 for every
    // member, and a positive cycle keeps relaxing past |comp| rounds.
    let mut feasible = |ii: i64| {
        for &v in comp {
            dist[v.index()] = 0;
        }
        for _ in 0..=comp.len() {
            let mut changed = false;
            for &u in comp {
                for e in ddg.out_edges(u) {
                    if sccs.component_of(e.dst) != index {
                        continue;
                    }
                    let w = edge_delay(model, ddg.op(u).kind(), e) - ii * i64::from(e.distance);
                    let cand = dist[u.index()] + w;
                    if cand > dist[e.dst.index()] {
                        dist[e.dst.index()] = cand;
                        changed = true;
                    }
                }
            }
            if !changed {
                return true;
            }
        }
        false
    };
    let mut lo: i64 = 1;
    let mut hi = hi.max(1);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if feasible(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    u32::try_from(lo).expect("RecMII fits in u32")
}

#[cfg(test)]
mod tests {
    use super::*;
    use widening_ir::{DdgBuilder, OpKind};

    fn cfg(x: u32) -> Configuration {
        Configuration::monolithic(x, 1, 256).unwrap()
    }

    const M4: CycleModel = CycleModel::Cycles4;

    #[test]
    fn res_mii_counts_buses_and_fpus() {
        // 3 memory ops, 2 FPU ops on 1 bus + 2 FPUs → bus bound = 3.
        let mut b = DdgBuilder::new();
        let l1 = b.load(1);
        let l2 = b.load(1);
        let m = b.op(OpKind::FMul);
        let a = b.op(OpKind::FAdd);
        let s = b.store(1);
        b.flow(l1, m);
        b.flow(l2, a);
        b.flow(m, s);
        let g = b.build().unwrap();
        let mii = MiiBounds::compute(&g, &cfg(1), M4);
        assert_eq!(mii.res_mii(), 3);
        assert_eq!(mii.rec_mii(), 1);
        assert_eq!(mii.mii(), 3);
        assert!(!mii.is_recurrence_bound());
        // Doubling buses halves the bound.
        assert_eq!(MiiBounds::compute(&g, &cfg(2), M4).res_mii(), 2);
    }

    #[test]
    fn res_mii_accounts_for_unpipelined_occupancy() {
        // One divide occupies an FPU for 19 cycles (4-cycle model); with
        // 2 FPUs, ResMII = ⌈19/2⌉ = 10.
        let mut b = DdgBuilder::new();
        b.op(OpKind::FDiv);
        let g = b.build().unwrap();
        assert_eq!(MiiBounds::compute(&g, &cfg(1), M4).res_mii(), 10);
        // Under the 1-cycle model the divide occupies 5 cycles → ⌈5/2⌉=3.
        assert_eq!(
            MiiBounds::compute(&g, &cfg(1), CycleModel::Cycles1).res_mii(),
            3
        );
    }

    #[test]
    fn rec_mii_self_loop() {
        // s += x: fadd depends on itself at distance 1 with latency 4.
        let mut b = DdgBuilder::new();
        let ld = b.load(1);
        let a = b.op(OpKind::FAdd);
        b.flow(ld, a);
        b.carried_flow(a, a, 1);
        let g = b.build().unwrap();
        let mii = MiiBounds::compute(&g, &cfg(4), M4);
        assert_eq!(mii.rec_mii(), 4);
        assert!(mii.is_recurrence_bound());
        assert_eq!(mii.recurrences().len(), 1);
        assert_eq!(mii.recurrences()[0].rec_mii, 4);
    }

    #[test]
    fn rec_mii_divides_by_distance() {
        // Distance-2 self-recurrence of a latency-4 add: II ≥ ⌈4/2⌉ = 2.
        let mut b = DdgBuilder::new();
        let a = b.op(OpKind::FAdd);
        b.carried_flow(a, a, 2);
        let g = b.build().unwrap();
        assert_eq!(MiiBounds::compute(&g, &cfg(4), M4).rec_mii(), 2);
    }

    #[test]
    fn rec_mii_multi_node_circuit() {
        // a -> m (lat 4), m -> a carried distance 1 (lat 4): circuit
        // delay 8 over distance 1 → RecMII = 8.
        let mut b = DdgBuilder::new();
        let a = b.op(OpKind::FAdd);
        let m = b.op(OpKind::FMul);
        b.flow(a, m);
        b.carried_flow(m, a, 1);
        let g = b.build().unwrap();
        assert_eq!(MiiBounds::compute(&g, &cfg(4), M4).rec_mii(), 8);
    }

    #[test]
    fn rec_mii_picks_worst_circuit() {
        let mut b = DdgBuilder::new();
        // Circuit 1: self loop distance 4 → ceil(4/4) = 1.
        let a = b.op(OpKind::FAdd);
        b.carried_flow(a, a, 4);
        // Circuit 2: div self loop distance 1 → 19.
        let d = b.op(OpKind::FDiv);
        b.carried_flow(d, d, 1);
        let g = b.build().unwrap();
        let mii = MiiBounds::compute(&g, &cfg(4), M4);
        assert_eq!(mii.rec_mii(), 19);
        // Sorted most critical first.
        assert_eq!(mii.recurrences()[0].rec_mii, 19);
        assert_eq!(mii.recurrences()[1].rec_mii, 1);
    }

    #[test]
    fn dag_has_rec_mii_one() {
        let mut b = DdgBuilder::new();
        let l = b.load(1);
        let m = b.op(OpKind::FMul);
        b.flow(l, m);
        let g = b.build().unwrap();
        let mii = MiiBounds::compute(&g, &cfg(1), M4);
        assert_eq!(mii.rec_mii(), 1);
        assert!(mii.recurrences().is_empty());
    }

    #[test]
    fn memory_edges_contribute_issue_delay_only() {
        // store -> load memory dependence, carried distance 1: delay 1 →
        // RecMII stays 1 even though a flow edge would impose latency.
        let mut b = DdgBuilder::new();
        let s = b.store(1);
        let l = b.load(1);
        b.add_edge(s, l, widening_ir::EdgeKind::Memory, 1);
        b.add_edge(l, s, widening_ir::EdgeKind::Memory, 1);
        let g = b.build().unwrap();
        // Circuit delay = 1 + 1 = 2 over distance 2 → II ≥ 1.
        assert_eq!(MiiBounds::compute(&g, &cfg(1), M4).rec_mii(), 1);
    }

    #[test]
    fn mii_never_below_one() {
        let mut b = DdgBuilder::new();
        b.op(OpKind::FAdd);
        let g = b.build().unwrap();
        assert_eq!(MiiBounds::compute(&g, &cfg(16), M4).mii(), 1);
    }
}
