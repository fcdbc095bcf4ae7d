//! Topological ordering of the distance-0 subgraph (Kahn's algorithm).

use crate::ddg::{Ddg, NodeId};

/// Returns a topological order of the distance-0 subgraph of `ddg`, or
/// `None` if that subgraph has a cycle.
///
/// Loop-carried edges (distance ≥ 1) are ignored: they order operations
/// across iterations, not within one.
#[must_use]
pub fn topological_order(ddg: &Ddg) -> Option<Vec<NodeId>> {
    let n = ddg.num_nodes();
    let mut indeg = vec![0usize; n];
    for e in ddg.edges() {
        if e.distance == 0 {
            indeg[e.dst.index()] += 1;
        }
    }
    // Deterministic: process ready nodes in ascending id order via a
    // sorted frontier (binary heap of Reverse ids).
    let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<u32>> = indeg
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d == 0)
        .map(|(i, _)| std::cmp::Reverse(i as u32))
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(std::cmp::Reverse(v)) = ready.pop() {
        let v = NodeId(v);
        order.push(v);
        for e in ddg.out_edges(v) {
            if e.distance == 0 {
                let d = &mut indeg[e.dst.index()];
                *d -= 1;
                if *d == 0 {
                    ready.push(std::cmp::Reverse(e.dst.0));
                }
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// Returns a node on a distance-0 cycle, if one exists.
///
/// Used by graph validation to produce a witness for
/// [`crate::GraphError::ZeroDistanceCycle`].
#[must_use]
pub fn zero_distance_cycle_witness(ddg: &Ddg) -> Option<NodeId> {
    let n = ddg.num_nodes();
    let mut indeg = vec![0usize; n];
    for e in ddg.edges() {
        if e.distance == 0 {
            indeg[e.dst.index()] += 1;
        }
    }
    // Every node enters the worklist at most once: sized up front, it
    // never grows.
    let mut ready: Vec<u32> = Vec::with_capacity(n);
    ready.extend(
        indeg
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d == 0)
            .map(|(i, _)| i as u32),
    );
    let mut removed = 0usize;
    while let Some(v) = ready.pop() {
        removed += 1;
        for e in ddg.out_edges(NodeId(v)) {
            if e.distance == 0 {
                let d = &mut indeg[e.dst.index()];
                *d -= 1;
                if *d == 0 {
                    ready.push(e.dst.0);
                }
            }
        }
    }
    if removed == n {
        None
    } else {
        indeg.iter().position(|&d| d > 0).map(|i| NodeId(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddg::DdgBuilder;
    use crate::op::OpKind;

    #[test]
    fn respects_zero_distance_edges() {
        let mut b = DdgBuilder::new();
        let a = b.op(OpKind::FAdd);
        let m = b.op(OpKind::FMul);
        let s = b.op(OpKind::FSub);
        b.flow(m, s);
        b.flow(a, m);
        let g = b.build().unwrap();
        let order = topological_order(&g).unwrap();
        let pos = |v: NodeId| order.iter().position(|&x| x == v).unwrap();
        assert!(pos(a) < pos(m));
        assert!(pos(m) < pos(s));
    }

    #[test]
    fn ignores_loop_carried_edges() {
        let mut b = DdgBuilder::new();
        let a = b.op(OpKind::FAdd);
        let m = b.op(OpKind::FMul);
        b.flow(a, m);
        b.carried_flow(m, a, 1); // would be a cycle at distance 0
        let g = b.build().unwrap();
        assert!(topological_order(&g).is_some());
    }

    #[test]
    fn deterministic_and_ascending_for_independent_nodes() {
        let mut b = DdgBuilder::new();
        for _ in 0..5 {
            b.op(OpKind::FAdd);
        }
        let g = b.build().unwrap();
        let order = topological_order(&g).unwrap();
        assert_eq!(order, (0..5).map(NodeId).collect::<Vec<_>>());
    }
}
