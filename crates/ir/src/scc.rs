//! Strongly connected components (iterative Tarjan).
//!
//! The components come back flat: one members array grouped by
//! component in emission order, plus the end index of each component.
//! Every caller reads components as slices, in emission order or its
//! reverse, so a list per component would buy nothing but a heap block
//! per component. One computation makes a fixed number of allocations
//! whatever the graph's size: Tarjan sizes its stacks for `n` nodes up
//! front and reuses one frame stack across roots.

use crate::ddg::{Ddg, NodeId};

/// Result of an SCC computation over a [`Ddg`], considering edges of all
/// iteration distances.
///
/// Components are emitted in *reverse topological order* of the
/// condensation (Tarjan's natural output order); [`NodeId`]s inside each
/// component are sorted ascending for determinism. The default value is
/// the decomposition of no nodes, a placeholder for reusable scratch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StronglyConnectedComponents {
    /// Node ids grouped by component, in emission order.
    members: Vec<NodeId>,
    /// End index (into `members`) of each component.
    ends: Vec<u32>,
    component_of: Vec<u32>,
}

impl StronglyConnectedComponents {
    /// Computes the SCCs of `ddg`.
    #[must_use]
    pub fn compute(ddg: &Ddg) -> Self {
        Tarjan::run(ddg)
    }

    /// The components in emission order, each a sorted slice of node
    /// ids.
    pub fn components(
        &self,
    ) -> impl ExactSizeIterator<Item = &[NodeId]> + DoubleEndedIterator + Clone {
        (0..self.ends.len()).map(|i| self.component(i))
    }

    /// Component `i` in emission order, a sorted slice of node ids.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below the number of components.
    #[must_use]
    pub fn component(&self, i: usize) -> &[NodeId] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.members[start..self.ends[i] as usize]
    }

    /// Index (into [`Self::components`]) of the component containing `v`.
    #[must_use]
    pub fn component_of(&self, v: NodeId) -> usize {
        self.component_of[v.index()] as usize
    }

    /// Whether `v` lies on any dependence circuit: its component has more
    /// than one node, or it has a self-edge.
    #[must_use]
    pub fn on_circuit(&self, ddg: &Ddg, v: NodeId) -> bool {
        self.component(self.component_of(v)).len() > 1 || ddg.out_edges(v).any(|e| e.dst == v)
    }
}

/// Iterative Tarjan implementation (explicit stack so deep graphs from
/// high widening degrees cannot overflow the call stack).
struct Tarjan<'g> {
    ddg: &'g Ddg,
    index: Vec<u32>,
    lowlink: Vec<u32>,
    stack: Vec<u32>,
    /// Work-list frames: a node and the position of its next out-edge.
    frames: Vec<(u32, u32)>,
    next_index: u32,
    members: Vec<NodeId>,
    ends: Vec<u32>,
    /// [`UNASSIGNED`] until the node's component is emitted, so a
    /// visited node is on the stack exactly while it is unassigned.
    component_of: Vec<u32>,
}

const UNVISITED: u32 = u32::MAX;
const UNASSIGNED: u32 = u32::MAX;

impl<'g> Tarjan<'g> {
    fn run(ddg: &'g Ddg) -> StronglyConnectedComponents {
        let n = ddg.num_nodes();
        // Every node is pushed once on each stack and lands in one
        // component: sized for `n`, nothing grows.
        let mut t = Tarjan {
            ddg,
            index: vec![UNVISITED; n],
            lowlink: vec![0; n],
            stack: Vec::with_capacity(n),
            frames: Vec::with_capacity(n),
            next_index: 0,
            members: Vec::with_capacity(n),
            ends: Vec::with_capacity(n),
            component_of: vec![UNASSIGNED; n],
        };
        for v in 0..n as u32 {
            if t.index[v as usize] == UNVISITED {
                t.visit(v);
            }
        }
        StronglyConnectedComponents {
            members: t.members,
            ends: t.ends,
            component_of: t.component_of,
        }
    }

    fn visit(&mut self, root: u32) {
        let ddg = self.ddg;
        self.begin(root);
        while let Some(&mut (v, ref mut next)) = self.frames.last_mut() {
            match ddg.out_edge_ids(NodeId(v)).get(*next as usize) {
                Some(&e) => {
                    *next += 1;
                    let w = ddg.edge(e).dst.0;
                    if self.index[w as usize] == UNVISITED {
                        self.begin(w);
                    } else if self.component_of[w as usize] == UNASSIGNED {
                        self.lowlink[v as usize] =
                            self.lowlink[v as usize].min(self.index[w as usize]);
                    }
                }
                None => {
                    self.frames.pop();
                    if let Some(&(parent, _)) = self.frames.last() {
                        self.lowlink[parent as usize] =
                            self.lowlink[parent as usize].min(self.lowlink[v as usize]);
                    }
                    if self.lowlink[v as usize] == self.index[v as usize] {
                        self.emit(v);
                    }
                }
            }
        }
    }

    fn begin(&mut self, v: u32) {
        self.index[v as usize] = self.next_index;
        self.lowlink[v as usize] = self.next_index;
        self.next_index += 1;
        self.stack.push(v);
        self.frames.push((v, 0));
    }

    /// Pops `root`'s component off the stack and appends it, sorted.
    fn emit(&mut self, root: u32) {
        let component = self.ends.len() as u32;
        let start = self.members.len();
        loop {
            let w = self.stack.pop().expect("scc stack underflow");
            self.component_of[w as usize] = component;
            self.members.push(NodeId(w));
            if w == root {
                break;
            }
        }
        self.members[start..].sort_unstable();
        self.ends.push(self.members.len() as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddg::DdgBuilder;
    use crate::op::OpKind;

    #[test]
    fn dag_gives_singletons() {
        let mut b = DdgBuilder::new();
        let a = b.op(OpKind::FAdd);
        let m = b.op(OpKind::FMul);
        let s = b.op(OpKind::FSub);
        b.flow(a, m);
        b.flow(m, s);
        let g = b.build().unwrap();
        let sccs = StronglyConnectedComponents::compute(&g);
        assert_eq!(sccs.components().len(), 3);
        assert!(sccs.components().all(|c| c.len() == 1));
        for v in g.node_ids() {
            assert!(!sccs.on_circuit(&g, v));
        }
    }

    #[test]
    fn two_node_recurrence_is_one_component() {
        let mut b = DdgBuilder::new();
        let a = b.op(OpKind::FAdd);
        let m = b.op(OpKind::FMul);
        let ld = b.load(1);
        b.flow(a, m);
        b.carried_flow(m, a, 1);
        b.flow(ld, a);
        let g = b.build().unwrap();
        let sccs = StronglyConnectedComponents::compute(&g);
        let big: Vec<_> = sccs.components().filter(|c| c.len() > 1).collect();
        assert_eq!(big.len(), 1);
        assert_eq!(big[0], &[NodeId(0), NodeId(1)]);
        assert!(sccs.on_circuit(&g, NodeId(0)));
        assert!(!sccs.on_circuit(&g, NodeId(2)));
        assert_eq!(sccs.component_of(NodeId(0)), sccs.component_of(NodeId(1)));
        assert_ne!(sccs.component_of(NodeId(0)), sccs.component_of(NodeId(2)));
    }

    #[test]
    fn self_loop_is_on_circuit_but_singleton() {
        let mut b = DdgBuilder::new();
        let a = b.op(OpKind::FAdd);
        b.carried_flow(a, a, 1);
        let g = b.build().unwrap();
        let sccs = StronglyConnectedComponents::compute(&g);
        assert_eq!(sccs.components().len(), 1);
        assert!(sccs.on_circuit(&g, NodeId(0)));
    }

    #[test]
    fn components_cover_all_nodes_exactly_once() {
        // Two interlocked recurrences plus a tail.
        let mut b = DdgBuilder::new();
        let n: Vec<_> = (0..6).map(|_| b.op(OpKind::FAdd)).collect();
        b.flow(n[0], n[1]);
        b.carried_flow(n[1], n[0], 1);
        b.flow(n[1], n[2]);
        b.flow(n[2], n[3]);
        b.carried_flow(n[3], n[2], 2);
        b.flow(n[3], n[4]);
        b.flow(n[4], n[5]);
        let g = b.build().unwrap();
        let sccs = StronglyConnectedComponents::compute(&g);
        let mut seen: Vec<NodeId> = sccs.components().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, g.node_ids().collect::<Vec<_>>());
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        // 60k-node chain with a back edge — would overflow a recursive
        // Tarjan on small stacks.
        let mut b = DdgBuilder::new();
        let first = b.op(OpKind::FAdd);
        let mut prev = first;
        for _ in 0..60_000 {
            let v = b.op(OpKind::FAdd);
            b.flow(prev, v);
            prev = v;
        }
        b.carried_flow(prev, first, 1);
        let g = b.build().unwrap();
        let sccs = StronglyConnectedComponents::compute(&g);
        assert_eq!(sccs.components().len(), 1);
        assert_eq!(sccs.component(0).len(), 60_001);
    }
}
