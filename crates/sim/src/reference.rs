//! The scalar reference interpreter: executes the **original**,
//! un-widened loop body one iteration at a time, in dependence order,
//! with no registers, schedule or spills involved. Its final store
//! regions and per-node value checksums are the ground truth the wide
//! simulator is differentially checked against.

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

    // Ring-buffered value history deep enough for the largest carried
    // distance.
    let depth = ddg.edges().iter().map(|e| e.distance).max().unwrap_or(0) as usize + 1;
    let mut history = vec![vec![0.0f64; depth]; n];

    let order = ddg.zero_distance_topological_order();
    let mut inputs: Vec<f64> = Vec::new();
    for i in 0..trip {
        for &v in &order {
            let op = ddg.op(v);
            inputs.clear();
            for e in ddg.in_edges(v) {
                if !e.kind.is_flow() {
                    continue;
                }
                let past = i as i64 - i64::from(e.distance);
                inputs.push(if past < 0 {
                    semantics::source_value(e.src.0, past)
                } else {
                    history[e.src.index()][(past as u64 % depth as u64) as usize]
                });
            }
            let value = match op.kind() {
                OpKind::Load => {
                    let cell = semantics::initial_memory_value(v.0, i as i64);
                    semantics::squash(cell + inputs.iter().sum::<f64>())
                }
                OpKind::Store => {
                    let value = semantics::eval_op(OpKind::Store, &inputs, v.0, i as i64);
                    cells[base[v.index()] + i as usize] = value;
                    value
                }
                kind => semantics::eval_op(kind, &inputs, v.0, i as i64),
            };
            history[v.index()][(i % depth as u64) as usize] = value;
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
    fn checksums_flag_any_perturbation() {
        let g = reduction();
        let a = run_reference(&g, 9);
        let b = run_reference(&g, 10);
        // One extra iteration must change every live checksum.
        assert_ne!(a.checksums()[2], b.checksums()[2]);
    }
}
