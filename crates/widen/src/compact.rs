//! Compactability analysis (§2 of the paper).

use widening_ir::{CircuitScratch, Compactability, Ddg};

/// Why an operation was judged compactable or not at a given width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactReason {
    /// Compactable: `Y` consecutive instances are independent and
    /// mergeable into one wide operation.
    Compactable,
    /// The front end marked the operation never-compactable (irregular
    /// access, unanalysable dependence, …).
    HintedNever,
    /// Memory operation with non-unit stride: a wide bus transfers
    /// consecutive words, so stride ≠ 1 cannot be packed (§2: two
    /// accesses with a stride different than one must be scheduled in
    /// two different cycles on a wide bus).
    NonUnitStride,
    /// The operation sits on a recurrence circuit spanning fewer than
    /// `Y` iterations: its instances inside one block are serially
    /// dependent.
    TightRecurrence,
}

impl CompactReason {
    /// Whether the verdict is "compactable".
    #[must_use]
    pub fn is_compactable(self) -> bool {
        self == CompactReason::Compactable
    }
}

/// Classifies every node of `ddg` for widening degree `width`.
///
/// This is the *per-node* structural test; the transform additionally
/// un-packs nodes whose joint packing would make wide operations
/// mutually dependent within one block (see `transform`).
///
/// # Panics
///
/// Panics if `width` is zero.
#[must_use]
pub fn compactable_nodes(ddg: &Ddg, width: u32) -> Vec<CompactReason> {
    assert!(width >= 1, "width must be at least 1");
    // Only a width above 1 reads recurrence membership: skip the SCC
    // pass at width 1. Every recurrence node's circuit search shares one
    // distance table and one heap.
    let sccs = (width > 1).then(|| ddg.sccs());
    let mut scratch = CircuitScratch::default();
    ddg.node_ids()
        .map(|v| {
            let op = ddg.op(v);
            if op.compactability() == Compactability::Never {
                return CompactReason::HintedNever;
            }
            if op.kind().is_memory() && op.stride() != Some(1) {
                return CompactReason::NonUnitStride;
            }
            if sccs.as_ref().is_some_and(|c| c.on_circuit(ddg, v)) {
                let d = ddg
                    .min_recurrence_distance_in(v, &mut scratch)
                    .expect("recurrence member has a circuit");
                if d < u64::from(width) {
                    return CompactReason::TightRecurrence;
                }
            }
            CompactReason::Compactable
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use widening_ir::{DdgBuilder, Op, OpKind};

    #[test]
    fn unit_stride_and_plain_fpu_ops_compact() {
        let mut b = DdgBuilder::new();
        let l = b.load(1);
        let m = b.op(OpKind::FMul);
        let s = b.store(1);
        b.flow(l, m);
        b.flow(m, s);
        let g = b.build().unwrap();
        let r = compactable_nodes(&g, 8);
        assert!(r.iter().all(|c| c.is_compactable()));
    }

    #[test]
    fn non_unit_stride_blocks_memory_only() {
        let mut b = DdgBuilder::new();
        let l = b.load(3);
        let m = b.op(OpKind::FMul);
        b.flow(l, m);
        let g = b.build().unwrap();
        let r = compactable_nodes(&g, 4);
        assert_eq!(r[0], CompactReason::NonUnitStride);
        assert_eq!(r[1], CompactReason::Compactable);
    }

    #[test]
    fn hint_never_wins() {
        let mut b = DdgBuilder::new();
        b.add_op(Op::memory(OpKind::Load, 1).never_compactable());
        let g = b.build().unwrap();
        assert_eq!(compactable_nodes(&g, 2)[0], CompactReason::HintedNever);
    }

    #[test]
    fn tight_recurrence_blocks_until_width_exceeds_distance() {
        // acc += x, carried at distance 4.
        let mut b = DdgBuilder::new();
        let l = b.load(1);
        let a = b.op(OpKind::FAdd);
        b.flow(l, a);
        b.carried_flow(a, a, 4);
        let g = b.build().unwrap();
        // width 2 and 4: instances 4 apart are independent (d ≥ Y).
        assert!(compactable_nodes(&g, 2)[1].is_compactable());
        assert!(compactable_nodes(&g, 4)[1].is_compactable());
        // width 8: block spans 8 iterations; lanes 0 and 4 conflict.
        assert_eq!(compactable_nodes(&g, 8)[1], CompactReason::TightRecurrence);
        // The independent load is never blocked.
        assert!(compactable_nodes(&g, 8)[0].is_compactable());
    }

    #[test]
    fn width_one_is_always_compactable_shape() {
        let mut b = DdgBuilder::new();
        let a = b.op(OpKind::FAdd);
        b.carried_flow(a, a, 1);
        let g = b.build().unwrap();
        // At width 1 packing is the identity; recurrences don't matter.
        assert!(compactable_nodes(&g, 1)[0].is_compactable());
    }

    #[test]
    #[should_panic(expected = "width must be at least 1")]
    fn zero_width_panics() {
        let mut b = DdgBuilder::new();
        b.op(OpKind::FAdd);
        let g = b.build().unwrap();
        let _ = compactable_nodes(&g, 0);
    }
}
