//! Property tests for the IR: graph construction invariants hold for
//! arbitrary generated loop shapes.

use proptest::prelude::*;
use widening_ir::{
    CircuitScratch, Ddg, DdgBuilder, Edge, EdgeKind, NodeId, OpKind, StronglyConnectedComponents,
};

/// Strategy: a random but always-valid loop body. Distance-0 edges only
/// go forward (src < dst), which guarantees the distance-0 DAG
/// invariant; carried edges may go anywhere.
fn arb_ddg() -> impl Strategy<Value = Ddg> {
    let kinds = prop_oneof![
        Just(OpKind::FAdd),
        Just(OpKind::FMul),
        Just(OpKind::FSub),
        Just(OpKind::FDiv),
    ];
    (2usize..24, proptest::collection::vec(kinds, 24))
        .prop_flat_map(|(n, kinds)| {
            let edges = proptest::collection::vec((0usize..n, 0usize..n, 0u32..4), 0..3 * n);
            (Just(n), Just(kinds), edges)
        })
        .prop_map(|(n, kinds, edges)| {
            let mut b = DdgBuilder::new();
            let ids: Vec<NodeId> = (0..n)
                .map(|i| {
                    if i % 3 == 0 {
                        b.load(1)
                    } else {
                        b.op(kinds[i])
                    }
                })
                .collect();
            for (s, d, dist) in edges {
                let (s, d) = (s.min(n - 1), d.min(n - 1));
                if dist == 0 {
                    if s < d {
                        b.flow(ids[s], ids[d]);
                    }
                } else {
                    b.carried_flow(ids[s], ids[d], dist);
                }
            }
            b.build().expect("construction is valid by design")
        })
}

/// Strategy: [`arb_ddg`] plus parallel edges (copies of random
/// edges) and self-loops (carried flow edges on random value
/// producers), inserted at random positions of the edge list.
fn arb_multigraph() -> impl Strategy<Value = Ddg> {
    (
        arb_ddg(),
        proptest::collection::vec(
            (any::<usize>(), any::<usize>(), 1u32..4, any::<bool>()),
            1..12,
        ),
    )
        .prop_map(|(g, extra)| {
            let n = g.num_nodes();
            let mut edges = g.edges().to_vec();
            for (pick, at, distance, self_loop) in extra {
                let edge = if self_loop || edges.is_empty() {
                    // Every third node is a load, which produces a value.
                    let v = NodeId((pick % n.div_ceil(3) * 3) as u32);
                    Edge {
                        src: v,
                        dst: v,
                        kind: EdgeKind::Flow,
                        distance,
                    }
                } else {
                    edges[pick % edges.len()]
                };
                edges.insert(at % (edges.len() + 1), edge);
            }
            Ddg::from_parts(g.ops().to_vec(), edges).expect("copies and self-loops stay valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn adjacency_rows_are_the_ascending_edge_ids_of_each_node(g in arb_multigraph()) {
        for v in g.node_ids() {
            let ids = |at: fn(&Edge) -> NodeId| -> Vec<u32> {
                (0..g.num_edges() as u32)
                    .filter(|&i| at(g.edge(i)) == v)
                    .collect()
            };
            prop_assert_eq!(g.out_edge_ids(v), ids(|e| e.src).as_slice());
            prop_assert_eq!(g.in_edge_ids(v), ids(|e| e.dst).as_slice());
            prop_assert!(g.out_edges(v).eq(g.out_edge_ids(v).iter().map(|&i| g.edge(i))));
            prop_assert!(g.in_edges(v).eq(g.in_edge_ids(v).iter().map(|&i| g.edge(i))));
        }
    }

    #[test]
    fn sccs_partition_the_nodes(g in arb_ddg()) {
        let sccs = StronglyConnectedComponents::compute(&g);
        let mut seen: Vec<NodeId> = sccs.components().flatten().copied().collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, g.node_ids().collect::<Vec<_>>());
        // component_of is consistent with the component lists.
        for (i, comp) in sccs.components().enumerate() {
            for &v in comp {
                prop_assert_eq!(sccs.component_of(v), i);
            }
        }
    }

    #[test]
    fn topological_order_respects_zero_distance_edges(g in arb_ddg()) {
        let order = g.zero_distance_topological_order();
        let pos: std::collections::HashMap<NodeId, usize> =
            order.iter().copied().enumerate().map(|(i, v)| (v, i)).collect();
        for e in g.edges() {
            if e.distance == 0 {
                prop_assert!(pos[&e.src] < pos[&e.dst]);
            }
        }
    }

    #[test]
    fn recurrence_nodes_have_circuits(g in arb_ddg()) {
        let sccs = StronglyConnectedComponents::compute(&g);
        for v in g.recurrence_nodes() {
            prop_assert!(sccs.on_circuit(&g, v));
            prop_assert!(g.min_recurrence_distance(v).is_some());
        }
    }

    #[test]
    fn min_recurrence_distance_is_positive_and_tight(g in arb_multigraph()) {
        // Oracle: all-pairs shortest total distance (Floyd–Warshall). The
        // tightest circuit through `v` leaves by one of its out-edges
        // and takes the shortest path back.
        let n = g.num_nodes();
        let mut path = vec![vec![u64::MAX; n]; n];
        for (v, row) in path.iter_mut().enumerate() {
            row[v] = 0;
        }
        for e in g.edges() {
            let p = &mut path[e.src.index()][e.dst.index()];
            *p = (*p).min(u64::from(e.distance));
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    let via = path[i][k].saturating_add(path[k][j]);
                    path[i][j] = path[i][j].min(via);
                }
            }
        }
        let sccs = StronglyConnectedComponents::compute(&g);
        // One scratch across every node, as the widening transform asks.
        let mut scratch = CircuitScratch::default();
        for v in g.node_ids() {
            let tightest = g
                .out_edges(v)
                .map(|e| u64::from(e.distance).saturating_add(path[e.dst.index()][v.index()]))
                .min()
                .filter(|&d| d < u64::MAX);
            prop_assert_eq!(g.min_recurrence_distance(v), tightest);
            prop_assert_eq!(g.min_recurrence_distance_in(v, &mut scratch), tightest);
            prop_assert_eq!(tightest.is_some(), sccs.on_circuit(&g, v));
            prop_assert!(tightest.is_none_or(|d| d >= 1));
        }
    }

    #[test]
    fn edge_endpoints_always_valid(g in arb_ddg()) {
        for e in g.edges() {
            prop_assert!(e.src.index() < g.num_nodes());
            prop_assert!(e.dst.index() < g.num_nodes());
            if e.kind == EdgeKind::Flow {
                prop_assert!(g.op(e.src).produces_value());
            }
        }
    }
}
