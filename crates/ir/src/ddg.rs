//! The data-dependence graph (`Ddg`) and its builder.
//!
//! A `Ddg` keeps its adjacency in compressed rows (CSR): one offsets
//! array of `2n + 2` entries (the out-edge rows, then the in-edge
//! rows) and one array of `2m` edge ids, each row in ascending edge
//! order. A graph is four heap blocks (ops, edges, offsets, ids)
//! however many nodes it has, where a list per node and direction
//! would cost two blocks per node. Every layer of the compile chain
//! builds, clones or walks graphs, so their allocation traffic and
//! resident size scale with that block count.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use crate::error::GraphError;
use crate::op::{EdgeKind, Op, OpKind, ResourceClass};
use crate::scc::StronglyConnectedComponents;
use crate::topo;

/// Index of an operation node inside a [`Ddg`].
///
/// Node ids are dense (`0..num_nodes`) and stable: a `Ddg` is immutable
/// once built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node index as a `usize`, for indexing parallel arrays.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A dependence edge: `dst` of iteration `i` depends on `src` of
/// iteration `i - distance`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Producer node.
    pub src: NodeId,
    /// Consumer node.
    pub dst: NodeId,
    /// Dependence kind; only [`EdgeKind::Flow`] edges carry register
    /// values.
    pub kind: EdgeKind,
    /// Iteration distance (`0` = same iteration, `k` = `k` iterations
    /// earlier). Loop-carried edges have `distance ≥ 1` and close
    /// recurrences.
    pub distance: u32,
}

impl Edge {
    /// Whether the edge is loop-carried.
    #[must_use]
    pub fn is_loop_carried(self) -> bool {
        self.distance > 0
    }
}

/// An immutable data-dependence graph for one inner-loop body.
///
/// Invariants (checked at build time):
///
/// * the graph is non-empty;
/// * all edges reference valid nodes;
/// * flow edges leave only value-producing operations;
/// * the distance-0 subgraph is acyclic.
#[derive(Debug, Clone, PartialEq)]
pub struct Ddg {
    ops: Vec<Op>,
    edges: Vec<Edge>,
    /// Row offsets into `edge_ids`: node `v`'s out-edges are
    /// `offsets[v]..offsets[v + 1]`, its in-edges
    /// `offsets[n + 1 + v]..offsets[n + 2 + v]`.
    offsets: Vec<u32>,
    /// Edge indices grouped by row, ascending within each row: the `m`
    /// out-edge ids, then the `m` in-edge ids.
    edge_ids: Vec<u32>,
}

impl Ddg {
    /// Builds and validates a graph from parts. Prefer [`DdgBuilder`] for
    /// incremental construction.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] if any invariant listed on [`Ddg`] is
    /// violated.
    pub fn from_parts(ops: Vec<Op>, edges: Vec<Edge>) -> Result<Self, GraphError> {
        if ops.is_empty() {
            return Err(GraphError::Empty);
        }
        let n = ops.len();
        for e in &edges {
            for id in [e.src, e.dst] {
                if id.index() >= n {
                    return Err(GraphError::NodeOutOfRange {
                        index: id.index(),
                        len: n,
                    });
                }
            }
            if e.kind.is_flow() && !ops[e.src.index()].produces_value() {
                return Err(GraphError::FlowFromValueless { src: e.src.index() });
            }
        }
        let (offsets, edge_ids) = adjacency(n, &edges);
        let ddg = Ddg {
            ops,
            edges,
            offsets,
            edge_ids,
        };
        // Distance-0 subgraph must be a DAG.
        if let Some(witness) = topo::zero_distance_cycle_witness(&ddg) {
            return Err(GraphError::ZeroDistanceCycle {
                witness: witness.index(),
            });
        }
        Ok(ddg)
    }

    /// Number of operation nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.ops.len()
    }

    /// Number of dependence edges.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The operation at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn op(&self, id: NodeId) -> &Op {
        &self.ops[id.index()]
    }

    /// All operations, indexable by [`NodeId::index`].
    #[must_use]
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// All edges.
    #[must_use]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Iterator over all node ids, `n0..n(N-1)`.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + Clone {
        (0..self.ops.len() as u32).map(NodeId)
    }

    /// Outgoing edges of `id`.
    pub fn out_edges(&self, id: NodeId) -> impl Iterator<Item = &Edge> + Clone {
        self.out_edge_ids(id)
            .iter()
            .map(|&i| &self.edges[i as usize])
    }

    /// Incoming edges of `id`.
    pub fn in_edges(&self, id: NodeId) -> impl Iterator<Item = &Edge> + Clone {
        self.in_edge_ids(id)
            .iter()
            .map(|&i| &self.edges[i as usize])
    }

    /// Indices (into [`Ddg::edges`]) of the outgoing edges of `id`, in
    /// ascending order, the order of [`Ddg::out_edges`]. Lets callers
    /// index per-edge side tables without hashing.
    #[must_use]
    pub fn out_edge_ids(&self, id: NodeId) -> &[u32] {
        self.row(id.index())
    }

    /// Indices (into [`Ddg::edges`]) of the incoming edges of `id`, in
    /// ascending order, the order of [`Ddg::in_edges`].
    #[must_use]
    pub fn in_edge_ids(&self, id: NodeId) -> &[u32] {
        self.row(self.ops.len() + 1 + id.index())
    }

    /// Adjacency row `r` (`0..n` out-edges, `n + 1..2n + 1` in-edges).
    fn row(&self, r: usize) -> &[u32] {
        &self.edge_ids[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }

    /// The edge at index `idx` (as returned by [`Ddg::out_edge_ids`] /
    /// [`Ddg::in_edge_ids`]).
    #[must_use]
    pub fn edge(&self, idx: u32) -> &Edge {
        &self.edges[idx as usize]
    }

    /// Number of operations that occupy resource class `class`.
    #[must_use]
    pub fn count_class(&self, class: ResourceClass) -> usize {
        self.ops
            .iter()
            .filter(|o| o.resource_class() == class)
            .count()
    }

    /// Number of operations of the given kind.
    #[must_use]
    pub fn count_kind(&self, kind: OpKind) -> usize {
        self.ops.iter().filter(|o| o.kind() == kind).count()
    }

    /// Strongly connected components of the full graph (all distances).
    /// Singleton components without a self-edge are not recurrences;
    /// every other component is a recurrence the scheduler must respect.
    #[must_use]
    pub fn sccs(&self) -> StronglyConnectedComponents {
        StronglyConnectedComponents::compute(self)
    }

    /// Nodes that belong to some recurrence (an SCC with ≥ 2 nodes, or a
    /// self-edge of any distance), ascending.
    #[must_use]
    pub fn recurrence_nodes(&self) -> Vec<NodeId> {
        let sccs = self.sccs();
        self.node_ids()
            .filter(|&v| sccs.on_circuit(self, v))
            .collect()
    }

    /// A topological order of the distance-0 subgraph. Always exists by
    /// the build-time invariant.
    #[must_use]
    pub fn zero_distance_topological_order(&self) -> Vec<NodeId> {
        topo::topological_order(self).expect("validated at construction")
    }

    /// Minimum loop-carried distance over every recurrence circuit
    /// through `id`, or `None` if `id` is on no recurrence.
    ///
    /// This is the quantity the widening transform compares against the
    /// widening degree `Y`: instances of an operation whose tightest
    /// recurrence spans fewer than `Y` iterations are serially dependent
    /// and cannot be compacted.
    #[must_use]
    pub fn min_recurrence_distance(&self, id: NodeId) -> Option<u64> {
        self.min_recurrence_distance_in(id, &mut CircuitScratch::default())
    }

    /// [`Ddg::min_recurrence_distance`] reusing a caller-owned
    /// [`CircuitScratch`]: asking about every node of a graph allocates
    /// one distance table and one heap, not one of each per node.
    #[must_use]
    pub fn min_recurrence_distance_in(&self, id: NodeId, s: &mut CircuitScratch) -> Option<u64> {
        // Dijkstra from `id` over distance weights (all ≥ 0). Entries pop
        // in distance order, so the first return to `id` closes the
        // tightest circuit (a valid graph has none of distance 0).
        let CircuitScratch { dist, heap } = s;
        dist.clear();
        dist.resize(self.num_nodes(), u64::MAX);
        heap.clear();
        let (mut d, mut v) = (0, id);
        loop {
            for e in self.out_edges(v) {
                let nd = d + u64::from(e.distance);
                if nd < dist[e.dst.index()] {
                    dist[e.dst.index()] = nd;
                    heap.push(Reverse((nd, e.dst)));
                }
            }
            // Settle the nearest node, skipping entries a shorter path
            // has since replaced.
            loop {
                let Reverse((nd, u)) = heap.pop()?;
                if u == id {
                    return Some(nd);
                }
                if nd == dist[u.index()] {
                    (d, v) = (nd, u);
                    break;
                }
            }
        }
    }
}

/// Reusable working storage for [`Ddg::min_recurrence_distance_in`]:
/// the per-node distance table and the search heap, cleared, not
/// reallocated, between queries.
#[derive(Debug, Clone, Default)]
pub struct CircuitScratch {
    dist: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, NodeId)>>,
}

/// The CSR rows of a graph with `n` nodes and `edges`: offsets
/// (`2n + 2`) and edge ids (`2m`), both filled by one counting sort.
/// Walking the edges back to front while each row's cursor counts down
/// from its end keeps every row in ascending edge order.
fn adjacency(n: usize, edges: &[Edge]) -> (Vec<u32>, Vec<u32>) {
    assert!(
        edges.len() <= (u32::MAX / 2) as usize,
        "edge ids and row offsets fit in u32"
    );
    // Degrees land on each row's own slot, so inclusive prefix sums
    // leave every slot at its row's end. Slot `n` (and `2n + 1`) counts
    // nothing and becomes the out-rows' (in-rows') total.
    let mut offsets = vec![0u32; 2 * n + 2];
    for e in edges {
        offsets[e.src.index()] += 1;
        offsets[n + 1 + e.dst.index()] += 1;
    }
    let mut total = 0;
    for slot in &mut offsets {
        total += *slot;
        *slot = total;
    }
    let mut edge_ids = vec![0u32; 2 * edges.len()];
    for (i, e) in edges.iter().enumerate().rev() {
        for r in [e.src.index(), n + 1 + e.dst.index()] {
            offsets[r] -= 1;
            edge_ids[offsets[r] as usize] = i as u32;
        }
    }
    (offsets, edge_ids)
}

/// Incremental builder for [`Ddg`].
///
/// Convenience methods cover the common cases; [`DdgBuilder::add_op`] and
/// [`DdgBuilder::add_edge`] are fully general.
#[derive(Debug, Clone, Default)]
pub struct DdgBuilder {
    ops: Vec<Op>,
    edges: Vec<Edge>,
}

impl DdgBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an arbitrary operation and returns its id.
    pub fn add_op(&mut self, op: Op) -> NodeId {
        let id = NodeId(self.ops.len() as u32);
        self.ops.push(op);
        id
    }

    /// Adds a non-memory operation of the given kind.
    pub fn op(&mut self, kind: OpKind) -> NodeId {
        self.add_op(Op::new(kind))
    }

    /// Adds a load with the given element stride.
    pub fn load(&mut self, stride: i64) -> NodeId {
        self.add_op(Op::memory(OpKind::Load, stride))
    }

    /// Adds a store with the given element stride.
    pub fn store(&mut self, stride: i64) -> NodeId {
        self.add_op(Op::memory(OpKind::Store, stride))
    }

    /// Adds an arbitrary edge.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, kind: EdgeKind, distance: u32) {
        self.edges.push(Edge {
            src,
            dst,
            kind,
            distance,
        });
    }

    /// Adds a same-iteration flow edge `src → dst`.
    pub fn flow(&mut self, src: NodeId, dst: NodeId) {
        self.add_edge(src, dst, EdgeKind::Flow, 0);
    }

    /// Adds a loop-carried flow edge `src → dst` with the given distance,
    /// closing a recurrence.
    pub fn carried_flow(&mut self, src: NodeId, dst: NodeId, distance: u32) {
        self.add_edge(src, dst, EdgeKind::Flow, distance);
    }

    /// Number of operations added so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no operations have been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Validates and builds the graph.
    ///
    /// # Errors
    ///
    /// See [`Ddg::from_parts`].
    pub fn build(self) -> Result<Ddg, GraphError> {
        Ddg::from_parts(self.ops, self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain3() -> Ddg {
        // ld -> fmul -> st
        let mut b = DdgBuilder::new();
        let ld = b.load(1);
        let mul = b.op(OpKind::FMul);
        let st = b.store(1);
        b.flow(ld, mul);
        b.flow(mul, st);
        b.build().unwrap()
    }

    #[test]
    fn builds_and_counts() {
        let g = chain3();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.count_class(ResourceClass::Bus), 2);
        assert_eq!(g.count_class(ResourceClass::Fpu), 1);
        assert_eq!(g.count_kind(OpKind::Load), 1);
    }

    #[test]
    fn adjacency_is_consistent() {
        let g = chain3();
        let mul = NodeId(1);
        assert_eq!(g.in_edges(mul).count(), 1);
        assert_eq!(g.out_edges(mul).count(), 1);
        assert_eq!(g.in_edges(mul).next().unwrap().src, NodeId(0));
        assert_eq!(g.out_edges(mul).next().unwrap().dst, NodeId(2));
    }

    #[test]
    fn empty_graph_rejected() {
        assert_eq!(DdgBuilder::new().build().unwrap_err(), GraphError::Empty);
    }

    #[test]
    fn out_of_range_edge_rejected() {
        let ops = vec![Op::new(OpKind::FAdd)];
        let edges = vec![Edge {
            src: NodeId(0),
            dst: NodeId(5),
            kind: EdgeKind::Flow,
            distance: 0,
        }];
        assert!(matches!(
            Ddg::from_parts(ops, edges),
            Err(GraphError::NodeOutOfRange { index: 5, len: 1 })
        ));
    }

    #[test]
    fn flow_from_store_rejected() {
        let mut b = DdgBuilder::new();
        let st = b.store(1);
        let add = b.op(OpKind::FAdd);
        b.flow(st, add);
        assert!(matches!(
            b.build(),
            Err(GraphError::FlowFromValueless { src: 0 })
        ));
    }

    #[test]
    fn zero_distance_cycle_rejected() {
        let mut b = DdgBuilder::new();
        let a = b.op(OpKind::FAdd);
        let m = b.op(OpKind::FMul);
        b.flow(a, m);
        b.flow(m, a);
        assert!(matches!(
            b.build(),
            Err(GraphError::ZeroDistanceCycle { .. })
        ));
    }

    #[test]
    fn loop_carried_cycle_allowed() {
        // s = s + x[i]  (first-order recurrence)
        let mut b = DdgBuilder::new();
        let ld = b.load(1);
        let add = b.op(OpKind::FAdd);
        b.flow(ld, add);
        b.carried_flow(add, add, 1);
        let g = b.build().unwrap();
        assert_eq!(g.recurrence_nodes(), vec![NodeId(1)]);
    }

    #[test]
    fn min_recurrence_distance_self_loop() {
        let mut b = DdgBuilder::new();
        let add = b.op(OpKind::FAdd);
        b.carried_flow(add, add, 3);
        let g = b.build().unwrap();
        assert_eq!(g.min_recurrence_distance(NodeId(0)), Some(3));
    }

    #[test]
    fn min_recurrence_distance_two_node_cycle() {
        let mut b = DdgBuilder::new();
        let a = b.op(OpKind::FAdd);
        let m = b.op(OpKind::FMul);
        b.flow(a, m);
        b.carried_flow(m, a, 2);
        let g = b.build().unwrap();
        assert_eq!(g.min_recurrence_distance(NodeId(0)), Some(2));
        assert_eq!(g.min_recurrence_distance(NodeId(1)), Some(2));
    }

    #[test]
    fn min_recurrence_distance_none_for_dag() {
        let g = chain3();
        for v in g.node_ids() {
            assert_eq!(g.min_recurrence_distance(v), None);
        }
    }

    #[test]
    fn min_recurrence_distance_picks_tightest_circuit() {
        // Two circuits through node 0: distance 1 (via n1) and distance 4
        // (self-loop).
        let mut b = DdgBuilder::new();
        let a = b.op(OpKind::FAdd);
        let m = b.op(OpKind::FMul);
        b.flow(a, m);
        b.carried_flow(m, a, 1);
        b.carried_flow(a, a, 4);
        let g = b.build().unwrap();
        assert_eq!(g.min_recurrence_distance(NodeId(0)), Some(1));
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(4).to_string(), "n4");
    }
}
