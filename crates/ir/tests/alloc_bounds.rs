//! Proves that building, cloning and decomposing a graph make a fixed
//! number of heap allocations, whatever the graph's size.
//!
//! Every layer of the compile chain builds, clones or walks a `Ddg`, so
//! an allocation per node multiplies across the whole corpus and every
//! design point. This test wraps the global allocator in a counting
//! shim and checks that [`Ddg::from_parts`], [`Ddg::clone`] and
//! [`StronglyConnectedComponents::compute`] each allocate as often for
//! a 10-node graph as for a 1000-node one, both with recurrences.
//!
//! The file holds exactly one `#[test]` so no sibling test thread can
//! allocate concurrently and pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use widening_ir::{Ddg, DdgBuilder, Edge, Op, OpKind, StronglyConnectedComponents};

/// Counts every allocation and reallocation routed through the global
/// allocator (frees are not counted: a growing buffer shows up as
/// reallocations, and a free implies a matching earlier alloc anyway).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The parts of an `n`-node loop body: loads feeding a chain of adds,
/// a two-node recurrence every 5 nodes, a self-loop every 7, and a
/// parallel edge every 11.
fn parts(n: usize) -> (Vec<Op>, Vec<Edge>) {
    let mut b = DdgBuilder::new();
    let ids: Vec<_> = (0..n)
        .map(|i| {
            if i % 4 == 0 {
                b.load(1)
            } else {
                b.op(OpKind::FAdd)
            }
        })
        .collect();
    for i in 1..n {
        b.flow(ids[i - 1], ids[i]);
        if i % 5 == 0 {
            b.carried_flow(ids[i], ids[i - 1], 1);
        }
        if i % 7 == 0 {
            b.carried_flow(ids[i], ids[i], 2);
        }
        if i % 11 == 0 {
            b.flow(ids[i - 1], ids[i]);
        }
    }
    let g = b.build().expect("valid graph");
    (g.ops().to_vec(), g.edges().to_vec())
}

/// Allocations `f` makes, and its result (dropped after counting).
fn count<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

/// Allocations made by building, cloning and decomposing the `n`-node
/// graph, and the number of its multi-node components.
fn allocations(n: usize) -> ([u64; 3], usize) {
    let (ops, edges) = parts(n);
    let (build, g) = count(|| Ddg::from_parts(ops, edges).expect("valid graph"));
    let (clone, copy) = count(|| g.clone());
    assert_eq!(copy, g);
    let (sccs, comps) = count(|| StronglyConnectedComponents::compute(&g));
    let recurrences = comps.components().filter(|c| c.len() > 1).count();
    ([build, clone, sccs], recurrences)
}

#[test]
fn graph_allocations_do_not_grow_with_the_graph() {
    let (small, small_recurrences) = allocations(10);
    let (large, large_recurrences) = allocations(1000);
    assert!(small_recurrences >= 1 && large_recurrences >= 100);
    assert_eq!(
        small, large,
        "[from_parts, clone, sccs] allocations: 10 nodes vs 1000 nodes"
    );
}
