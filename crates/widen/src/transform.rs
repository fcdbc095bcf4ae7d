//! The unroll-and-pack graph construction.

use widening_ir::{Ddg, Edge, NodeId, Op};

use crate::compact::{compactable_nodes, CompactReason};

/// How one original operation appears in the widened graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeMapping {
    /// Packed into a single wide node.
    Wide(NodeId),
    /// Expanded into `Y` scalar lane instances (lane `j` at index `j`).
    Lanes(Vec<NodeId>),
}

impl NodeMapping {
    /// All widened node ids this original node became.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        match self {
            NodeMapping::Wide(id) => std::slice::from_ref(id).iter().copied(),
            NodeMapping::Lanes(ids) => ids.iter().copied(),
        }
    }

    /// Whether the original operation was packed.
    #[must_use]
    pub fn is_wide(&self) -> bool {
        matches!(self, NodeMapping::Wide(_))
    }
}

/// Result of [`widen`].
#[derive(Debug, Clone)]
pub struct WideningOutcome {
    ddg: Ddg,
    width: u32,
    mapping: Vec<NodeMapping>,
    reasons: Vec<CompactReason>,
}

impl WideningOutcome {
    /// Reassembles an outcome from its parts — the decode half of an
    /// artifact codec (the encode half reads [`Self::ddg`],
    /// [`Self::width`], [`Self::mapping`] and [`Self::reasons`]).
    ///
    /// Performs the structural checks a cache decoder cannot do itself:
    /// `mapping` and `reasons` must classify the same number of original
    /// operations, and every mapped node id must exist in `ddg`. Returns
    /// `None` when the parts are inconsistent (a corrupt or stale
    /// artifact), never panics.
    #[must_use]
    pub fn from_parts(
        ddg: Ddg,
        width: u32,
        mapping: Vec<NodeMapping>,
        reasons: Vec<CompactReason>,
    ) -> Option<Self> {
        if width == 0 || mapping.len() != reasons.len() || mapping.is_empty() {
            return None;
        }
        let n = ddg.num_nodes();
        for m in &mapping {
            let lane_count = match m {
                NodeMapping::Wide(_) => 1,
                NodeMapping::Lanes(ids) => ids.len(),
            };
            if lane_count == 0 || m.nodes().any(|id| id.index() >= n) {
                return None;
            }
        }
        Some(WideningOutcome {
            ddg,
            width,
            mapping,
            reasons,
        })
    }

    /// The widened dependence graph (one iteration = `width` original
    /// iterations).
    #[must_use]
    pub fn ddg(&self) -> &Ddg {
        &self.ddg
    }

    /// The widening degree `Y` the graph was built for.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Per-original-node placement in the widened graph.
    #[must_use]
    pub fn mapping(&self) -> &[NodeMapping] {
        &self.mapping
    }

    /// Final per-node compactability verdicts (after joint-packing
    /// repair, so a structurally compactable node may still appear as
    /// `Lanes` in [`Self::mapping`] — its reason stays `Compactable`).
    #[must_use]
    pub fn reasons(&self) -> &[CompactReason] {
        &self.reasons
    }

    /// Original operations that were packed into wide nodes.
    #[must_use]
    pub fn packed_original_ops(&self) -> usize {
        self.mapping.iter().filter(|m| m.is_wide()).count()
    }

    /// Original operations expanded into scalar lanes.
    #[must_use]
    pub fn scalar_original_ops(&self) -> usize {
        self.mapping.len() - self.packed_original_ops()
    }

    /// Fraction of original operations packed (1.0 when `Y = 1`).
    #[must_use]
    pub fn packed_fraction(&self) -> f64 {
        self.packed_original_ops() as f64 / self.mapping.len() as f64
    }

    /// The inverse of [`Self::mapping`]: for every widened node, which
    /// original node it instantiates and — for scalar lane expansions —
    /// which lane. A wide node of a block at width `Y` covers original
    /// iterations `Y·block + 0 … Y·block + Y−1`; a lane node covers only
    /// `Y·block + lane`. This is the origin table the simulator uses to
    /// give widened operations their executable semantics.
    #[must_use]
    pub fn origin_table(&self) -> Vec<WideOrigin> {
        let mut out = vec![
            WideOrigin {
                original: NodeId(0),
                lane: None
            };
            self.ddg.num_nodes()
        ];
        for (orig, m) in self.mapping.iter().enumerate() {
            match m {
                NodeMapping::Wide(id) => {
                    out[id.index()] = WideOrigin {
                        original: NodeId(orig as u32),
                        lane: None,
                    };
                }
                NodeMapping::Lanes(ids) => {
                    for (lane, id) in ids.iter().enumerate() {
                        out[id.index()] = WideOrigin {
                            original: NodeId(orig as u32),
                            lane: Some(lane as u32),
                        };
                    }
                }
            }
        }
        out
    }
}

/// One row of [`WideningOutcome::origin_table`]: where a widened node
/// came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WideOrigin {
    /// The original operation this widened node instantiates.
    pub original: NodeId,
    /// `None` for a packed wide node (all `Y` lanes); `Some(j)` for the
    /// scalar expansion of lane `j`.
    pub lane: Option<u32>,
}

/// Builds the width-`Y` dependence graph of `ddg`.
///
/// Packing starts from the structural analysis of
/// [`compactable_nodes`]; if jointly packing two wide nodes would make
/// them mutually dependent inside one block (a distance-0 cycle in the
/// widened graph), nodes are un-packed one at a time until the graph is
/// valid — mirroring a compiler that falls back to scalar code for the
/// offending operations.
///
/// # Panics
///
/// Panics if `width` is zero. Graph construction itself cannot fail: the
/// repair loop removes any distance-0 cycle introduced by packing, and
/// the scalar expansion of a valid graph is valid.
#[must_use]
pub fn widen(ddg: &Ddg, width: u32) -> WideningOutcome {
    assert!(width >= 1, "width must be at least 1");
    let reasons = compactable_nodes(ddg, width);
    if width == 1 {
        return WideningOutcome {
            ddg: ddg.clone(),
            width,
            mapping: ddg.node_ids().map(NodeMapping::Wide).collect(),
            reasons,
        };
    }
    let mut packed: Vec<bool> = reasons.iter().map(|r| r.is_compactable()).collect();
    loop {
        match build(ddg, width, &packed) {
            Ok((graph, mapping)) => {
                return WideningOutcome {
                    ddg: graph,
                    width,
                    mapping,
                    reasons,
                };
            }
            Err(unpack) => {
                debug_assert!(packed[unpack.index()], "repair must unpack a packed node");
                packed[unpack.index()] = false;
            }
        }
    }
}

/// Attempts the construction with the given packing; on a distance-0
/// cycle, returns the original node to un-pack.
#[allow(clippy::type_complexity)]
fn build(ddg: &Ddg, width: u32, packed: &[bool]) -> Result<(Ddg, Vec<NodeMapping>), NodeId> {
    let y = width;
    let mut ops: Vec<Op> = Vec::new();
    let mut origin: Vec<NodeId> = Vec::new(); // widened node -> original
    let mapping: Vec<NodeMapping> = ddg
        .node_ids()
        .map(|v| {
            if packed[v.index()] {
                let id = NodeId(ops.len() as u32);
                ops.push(ddg.op(v).clone());
                origin.push(v);
                NodeMapping::Wide(id)
            } else {
                let lanes = (0..y)
                    .map(|_| {
                        let id = NodeId(ops.len() as u32);
                        ops.push(ddg.op(v).clone());
                        origin.push(v);
                        id
                    })
                    .collect();
                NodeMapping::Lanes(lanes)
            }
        })
        .collect();

    let mut edges: Vec<Edge> = Vec::new();
    // ceil((d - j) / y) for possibly-negative numerators, never below 0.
    let block_dist = |d: u32, j: u32| -> u32 {
        let num = i64::from(d) - i64::from(j);
        if num <= 0 {
            0
        } else {
            (num as u64).div_ceil(u64::from(y)) as u32
        }
    };
    for e in ddg.edges() {
        match (&mapping[e.src.index()], &mapping[e.dst.index()]) {
            (NodeMapping::Wide(u), NodeMapping::Wide(v)) => {
                // The binding lane gives the minimum block distance
                // ⌊d / y⌋ (the latest-produced input the consumer waits
                // for).
                edges.push(Edge {
                    src: *u,
                    dst: *v,
                    kind: e.kind,
                    distance: e.distance / y,
                });
            }
            (NodeMapping::Wide(u), NodeMapping::Lanes(vs)) => {
                for (j, &vj) in vs.iter().enumerate() {
                    edges.push(Edge {
                        src: *u,
                        dst: vj,
                        kind: e.kind,
                        distance: block_dist(e.distance, j as u32),
                    });
                }
            }
            (NodeMapping::Lanes(us), NodeMapping::Wide(v)) => {
                let mut seen = std::collections::HashSet::new();
                for j in 0..y {
                    let i = (j + y - e.distance % y) % y; // (j - d) mod y
                    let dist = block_dist(e.distance, j);
                    if seen.insert((i, dist)) {
                        edges.push(Edge {
                            src: us[i as usize],
                            dst: *v,
                            kind: e.kind,
                            distance: dist,
                        });
                    }
                }
            }
            (NodeMapping::Lanes(us), NodeMapping::Lanes(vs)) => {
                for (i, &ui) in us.iter().enumerate() {
                    let t = i as u32 + e.distance;
                    edges.push(Edge {
                        src: ui,
                        dst: vs[(t % y) as usize],
                        kind: e.kind,
                        distance: t / y,
                    });
                }
            }
        }
    }

    match Ddg::from_parts(ops, edges) {
        Ok(g) => Ok((g, mapping)),
        Err(widening_ir::GraphError::ZeroDistanceCycle { witness }) => {
            // Un-pack a wide node inside the offending cycle; the cycle
            // necessarily contains one (scalar lane expansion alone
            // cannot create distance-0 cycles from a valid graph).
            let bad = origin[witness];
            if packed[bad.index()] {
                return Err(bad);
            }
            // The witness is a scalar lane: walk its distance-0 SCC for a
            // packed member. Rebuild a tiny adjacency over suspicious
            // nodes: fall back to unpacking the first packed predecessor
            // in the original graph's recurrence region.
            let candidate = ddg
                .node_ids()
                .find(|v| packed[v.index()] && shares_circuit(ddg, *v, bad))
                .or_else(|| ddg.node_ids().find(|v| packed[v.index()]))
                .expect("a packed node must exist if packing caused a cycle");
            Err(candidate)
        }
        Err(other) => unreachable!("widening produced invalid graph: {other}"),
    }
}

/// Whether `a` and `b` lie on a common circuit of the original graph.
fn shares_circuit(ddg: &Ddg, a: NodeId, b: NodeId) -> bool {
    let sccs = widening_ir::StronglyConnectedComponents::compute(ddg);
    sccs.component_of(a) == sccs.component_of(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use widening_ir::{DdgBuilder, OpKind, ResourceClass};

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

    #[test]
    fn width_one_is_identity() {
        let g = daxpy();
        let w = widen(&g, 1);
        assert_eq!(w.ddg(), &g);
        assert_eq!(w.packed_original_ops(), 5);
        assert!((w.packed_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fully_compactable_loop_keeps_node_count() {
        let g = daxpy();
        for y in [2, 4, 8, 16] {
            let w = widen(&g, y);
            assert_eq!(w.ddg().num_nodes(), g.num_nodes(), "y={y}");
            assert_eq!(w.packed_original_ops(), 5);
            // Same resource profile per block → ResMII per original
            // iteration drops by y.
            assert_eq!(w.ddg().count_class(ResourceClass::Bus), 3);
        }
    }

    #[test]
    fn non_compactable_ops_expand_by_width() {
        // Strided load (never packs) feeding a compactable multiply.
        let mut b = DdgBuilder::new();
        let l = b.load(2);
        let m = b.op(OpKind::FMul);
        let s = b.store(1);
        b.flow(l, m);
        b.flow(m, s);
        let g = b.build().unwrap();
        let w = widen(&g, 4);
        // 4 scalar loads + wide mul + wide store.
        assert_eq!(w.ddg().num_nodes(), 4 + 1 + 1);
        assert_eq!(w.scalar_original_ops(), 1);
        assert_eq!(w.packed_original_ops(), 2);
        // All four lanes feed the wide multiply at distance 0.
        let NodeMapping::Wide(mul) = &w.mapping()[m.index()] else {
            panic!("mul should be wide")
        };
        let feeders = w.ddg().in_edges(*mul).count();
        assert_eq!(feeders, 4);
        assert!(w.ddg().in_edges(*mul).all(|e| e.distance == 0));
    }

    #[test]
    fn tight_recurrence_serializes_lanes() {
        // acc = acc + x[i] (distance 1): the add cannot pack; its lanes
        // chain serially inside the block and carry across blocks.
        let mut b = DdgBuilder::new();
        let x = b.load(1);
        let a = b.op(OpKind::FAdd);
        b.flow(x, a);
        b.carried_flow(a, a, 1);
        let g = b.build().unwrap();
        let w = widen(&g, 4);
        let NodeMapping::Lanes(lanes) = &w.mapping()[a.index()] else {
            panic!("add should be scalar")
        };
        assert_eq!(lanes.len(), 4);
        // Lane j feeds lane j+1 at distance 0; lane 3 feeds lane 0 at
        // distance 1 (next block).
        for j in 0..3usize {
            assert!(w
                .ddg()
                .out_edges(lanes[j])
                .any(|e| e.dst == lanes[j + 1] && e.distance == 0));
        }
        assert!(w
            .ddg()
            .out_edges(lanes[3])
            .any(|e| e.dst == lanes[0] && e.distance == 1));
    }

    #[test]
    fn wide_to_wide_carried_distance_scales() {
        // v feeds itself at distance 8; at width 4 the block distance is
        // 2 — still a recurrence, but a looser one.
        let mut b = DdgBuilder::new();
        let a = b.op(OpKind::FAdd);
        b.carried_flow(a, a, 8);
        let g = b.build().unwrap();
        let w = widen(&g, 4);
        assert!(w.mapping()[0].is_wide());
        let e: Vec<_> = w.ddg().edges().to_vec();
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].distance, 2);
    }

    #[test]
    fn joint_packing_cycle_gets_repaired() {
        // u -> v (distance 1), v -> u (distance Y-1): every circuit has
        // total distance Y, so both look packable per-node, but packing
        // both makes the wide ops mutually dependent at distance 0. The
        // repair must un-pack at least one.
        let y = 4;
        let mut b = DdgBuilder::new();
        let u = b.op(OpKind::FAdd);
        let v = b.op(OpKind::FMul);
        b.carried_flow(u, v, 1);
        b.carried_flow(v, u, y - 1);
        let g = b.build().unwrap();
        let w = widen(&g, y);
        // Graph is valid by construction (would have panicked otherwise)
        // and at least one op fell back to scalar lanes.
        assert!(w.scalar_original_ops() >= 1, "repair should unpack a node");
        // Per-node analysis still says both were structurally fine.
        assert!(w.reasons().iter().all(|r| r.is_compactable()));
    }

    #[test]
    fn lanes_to_wide_dedup_keeps_all_distances() {
        // Non-compactable producer at carried distance 2 into a
        // compactable consumer, width 4: lanes 2,3 feed in-block (dist
        // 0), lanes 0,1 from previous block (dist 1).
        let mut b = DdgBuilder::new();
        let p = b.op(OpKind::FDiv); // div: packable? yes structurally...
        let c = b.op(OpKind::FMul);
        b.carried_flow(p, c, 2);
        // Make p non-compactable via hint by rebuilding:
        let g = {
            let mut b2 = DdgBuilder::new();
            let p2 = b2.add_op(Op::new(OpKind::FDiv).never_compactable());
            let c2 = b2.op(OpKind::FMul);
            b2.carried_flow(p2, c2, 2);
            assert_eq!((p2, c2), (p, c));
            b2.build().unwrap()
        };
        let w = widen(&g, 4);
        let NodeMapping::Wide(cw) = &w.mapping()[c.index()] else {
            panic!()
        };
        let mut dists: Vec<u32> = w.ddg().in_edges(*cw).map(|e| e.distance).collect();
        dists.sort_unstable();
        assert_eq!(dists, vec![0, 0, 1, 1]);
    }

    #[test]
    fn widened_graph_is_always_valid() {
        // The constructor revalidates; reaching here means distances and
        // node references were consistent for a mixed case.
        let mut b = DdgBuilder::new();
        let l1 = b.load(1);
        let l2 = b.load(5); // strided: scalar
        let m = b.op(OpKind::FMul);
        let a = b.op(OpKind::FAdd);
        let s = b.store(1);
        b.flow(l1, m);
        b.flow(l2, m);
        b.flow(m, a);
        b.carried_flow(a, a, 1); // tight recurrence: scalar
        b.flow(a, s);
        let g = b.build().unwrap();
        for y in [2, 4, 8] {
            let w = widen(&g, y);
            // 2 wide (l1, m? m feeds a...) — just sanity-check counts.
            assert_eq!(
                w.ddg().num_nodes(),
                w.packed_original_ops() + w.scalar_original_ops() * y as usize
            );
        }
    }
}
