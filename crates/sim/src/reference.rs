//! The scalar reference interpreter: executes the **original**,
//! un-widened loop body one iteration at a time, in dependence order,
//! with no registers, schedule or spills involved. Its final store
//! regions and per-node value checksums are the ground truth the wide
//! simulator is differentially checked against.
//!
//! The interpreter is flat. Each node's flow operands are resolved once,
//! in topological order, into one `(source, distance)` table, so the
//! iteration loop walks two arrays instead of the graph's edge lists.
//! Values live in one ring of per-iteration rows whose depth is a power
//! of two at least one past the largest carried distance, so an
//! operand read masks its iteration instead of dividing it. Operands
//! fold from a stack buffer (a heap buffer only for unusually wide
//! operations).

use widening_ir::{semantics, Ddg, NodeId, OpKind};

pub use widening_lower::checksum_step;

use crate::store_nodes;

/// Ground truth for one `(loop, trip count)` pair — exactly what the
/// differential comparison reads: the final store regions and the
/// per-node value checksums.
///
/// Load regions are not kept. Every memory operation owns a private
/// region (see [`widening_lower::Memory`]), so a load always reads its
/// region's initial [`semantics::initial_memory_value`] stream, and the
/// reference computes it on the spot.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceRun {
    trip: u64,
    /// The original loop's stores, in node-id order ([`store_nodes`]).
    stores: Vec<NodeId>,
    /// Final store regions back to back in `stores` order, `trip` cells
    /// each.
    cells: Vec<f64>,
    /// Per original node: XOR-accumulated [`checksum_step`] over all
    /// executed iterations (zero for nodes producing no value).
    checksums: Vec<u64>,
}

impl ReferenceRun {
    /// Iterations the reference executed.
    #[must_use]
    pub fn trip(&self) -> u64 {
        self.trip
    }

    /// Every store of the original loop with its final region (one value
    /// per iteration), in node-id order.
    pub fn stores(&self) -> impl Iterator<Item = (NodeId, &[f64])> {
        let trip = self.trip as usize;
        self.stores
            .iter()
            .enumerate()
            .map(move |(k, &v)| (v, &self.cells[k * trip..(k + 1) * trip]))
    }

    /// Per original node value checksums.
    #[must_use]
    pub fn checksums(&self) -> &[u64] {
        &self.checksums
    }

    /// Approximate resident bytes, for memo accounting.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.stores.len() * std::mem::size_of::<NodeId>()
            + self.cells.len() * std::mem::size_of::<f64>()
            + self.checksums.len() * std::mem::size_of::<u64>()
    }
}

/// Executes `trip` iterations of `ddg` sequentially.
///
/// Operand folding is defined once for both interpreters: a node's
/// register inputs are its flow in-edges in edge order; an input from
/// iteration `i − d < 0` is the live-in
/// [`semantics::source_value`]`(src, i − d)`.
///
/// # Panics
///
/// Panics if `trip` does not fit in `usize`.
#[must_use]
pub fn run_reference(ddg: &Ddg, trip: u64) -> ReferenceRun {
    let trip_len = usize::try_from(trip).expect("trip count fits usize");
    let stores = store_nodes(ddg);
    let n = ddg.num_nodes();
    // Region base per node; only stores have one.
    let mut base = vec![usize::MAX; n];
    for (k, v) in stores.iter().enumerate() {
        base[v.index()] = k * trip_len;
    }
    let mut cells = vec![0.0f64; stores.len() * trip_len];
    let mut checksums = vec![0u64; n];

    // Every node in topological order with the end of its flow operands
    // in one flat `(source, distance)` table.
    let mut operands: Vec<(u32, u32)> = Vec::new();
    let nodes: Vec<(NodeId, OpKind, usize)> = ddg
        .zero_distance_topological_order()
        .into_iter()
        .map(|v| {
            operands.extend(
                ddg.in_edges(v)
                    .filter(|e| e.kind.is_flow())
                    .map(|e| (e.src.0, e.distance)),
            );
            (v, ddg.op(v).kind(), operands.len())
        })
        .collect();

    // The value history: `depth` rows of `n` values, iteration `i` in
    // row `i & mask`, deep enough for the largest carried distance.
    let max_distance = operands.iter().map(|&(_, d)| d).max().unwrap_or(0) as usize;
    let depth = (max_distance + 1).next_power_of_two();
    let mask = depth - 1;
    let mut history = vec![0.0f64; depth * n];

    let mut buf = [0.0f64; 8];
    let mut wide: Vec<f64> = Vec::new();
    for i in 0..trip {
        let row = (i as usize & mask) * n;
        let mut start = 0;
        for &(v, kind, end) in &nodes {
            let read = |&(src, distance): &(u32, u32)| {
                let past = i as i64 - i64::from(distance);
                if past < 0 {
                    semantics::source_value(src, past)
                } else {
                    history[(past as usize & mask) * n + src as usize]
                }
            };
            let ops = &operands[start..end];
            start = end;
            let inputs: &[f64] = if ops.len() <= buf.len() {
                for (x, op) in buf.iter_mut().zip(ops) {
                    *x = read(op);
                }
                &buf[..ops.len()]
            } else {
                wide.clear();
                wide.extend(ops.iter().map(read));
                &wide
            };
            let value = match kind {
                OpKind::Load => {
                    let cell = semantics::initial_memory_value(v.0, i as i64);
                    semantics::squash(cell + inputs.iter().sum::<f64>())
                }
                OpKind::Store => {
                    let value = semantics::eval_op(OpKind::Store, inputs, v.0, i as i64);
                    cells[base[v.index()] + i as usize] = value;
                    value
                }
                kind => semantics::eval_op(kind, inputs, v.0, i as i64),
            };
            history[row + v.index()] = value;
            checksums[v.index()] ^= checksum_step(i, value);
        }
    }
    ReferenceRun {
        trip,
        stores,
        cells,
        checksums,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use widening_ir::DdgBuilder;

    /// y[i] = x[i] * x[i] + acc, acc carried at distance 1.
    fn reduction() -> Ddg {
        let mut b = DdgBuilder::new();
        let x = b.load(1);
        let m = b.op(OpKind::FMul);
        let a = b.op(OpKind::FAdd);
        let s = b.store(1);
        b.flow(x, m);
        b.flow(x, m);
        b.flow(m, a);
        b.carried_flow(a, a, 1);
        b.flow(a, s);
        b.build().unwrap()
    }

    #[test]
    fn reference_is_deterministic() {
        let g = reduction();
        let a = run_reference(&g, 17);
        let b = run_reference(&g, 17);
        assert_eq!(a, b);
    }

    #[test]
    fn store_region_matches_hand_execution() {
        let g = reduction();
        let r = run_reference(&g, 3);
        let x = |i: u64| semantics::initial_memory_value(0, i as i64);
        // acc(-1) is the live-in source value.
        let mut acc = semantics::source_value(2, -1);
        let stores: Vec<_> = r.stores().collect();
        assert_eq!(stores.len(), 1, "loads keep no region");
        let (node, region) = stores[0];
        assert_eq!(node, NodeId(3));
        assert_eq!(region.len(), 3);
        for i in 0..3u64 {
            let m = semantics::squash(x(i) * x(i));
            acc = semantics::squash(m + acc);
            assert_eq!(region[i as usize].to_bits(), acc.to_bits(), "iteration {i}");
        }
    }

    #[test]
    fn fat_operations_fold_every_operand_in_edge_order() {
        // Ten operands overflow the stack buffer; a subtract makes the
        // fold order observable.
        let mut b = DdgBuilder::new();
        let xs: Vec<NodeId> = (0..10).map(|_| b.load(1)).collect();
        let d = b.op(OpKind::FSub);
        let s = b.store(1);
        for &x in &xs {
            b.flow(x, d);
        }
        b.flow(d, s);
        let r = run_reference(&b.build().unwrap(), 6);
        let (_, region) = r.stores().next().unwrap();
        for i in 0..6i64 {
            let inputs: Vec<f64> = xs
                .iter()
                .map(|x| semantics::squash(semantics::initial_memory_value(x.0, i)))
                .collect();
            let diff = semantics::eval_op(OpKind::FSub, &inputs, d.0, i);
            let want = semantics::eval_op(OpKind::Store, &[diff], s.0, i);
            assert_eq!(
                region[i as usize].to_bits(),
                want.to_bits(),
                "iteration {i}"
            );
        }
    }

    #[test]
    fn carried_distances_read_the_right_ring_row() {
        // acc[i] = x[i] + acc[i − d]: distances below, at and past a
        // power of two, so the ring is deeper than `d + 1`.
        for d in [1u32, 5, 7, 8, 13] {
            let mut b = DdgBuilder::new();
            let x = b.load(1);
            let a = b.op(OpKind::FAdd);
            let s = b.store(1);
            b.flow(x, a);
            b.carried_flow(a, a, d);
            b.flow(a, s);
            let r = run_reference(&b.build().unwrap(), 40);
            let (_, region) = r.stores().next().unwrap();
            let mut acc: Vec<f64> = Vec::new();
            for i in 0..40i64 {
                let xi = semantics::squash(semantics::initial_memory_value(x.0, i));
                let past = i - i64::from(d);
                let prev = if past < 0 {
                    semantics::source_value(a.0, past)
                } else {
                    acc[past as usize]
                };
                acc.push(semantics::eval_op(OpKind::FAdd, &[xi, prev], a.0, i));
                let want = semantics::eval_op(OpKind::Store, &[acc[i as usize]], s.0, i);
                assert_eq!(
                    region[i as usize].to_bits(),
                    want.to_bits(),
                    "d {d}, iteration {i}"
                );
            }
        }
    }

    #[test]
    fn checksums_flag_any_perturbation() {
        let g = reduction();
        let a = run_reference(&g, 9);
        let b = run_reference(&g, 10);
        // One extra iteration must change every live checksum.
        assert_ne!(a.checksums()[2], b.checksums()[2]);
    }
}
