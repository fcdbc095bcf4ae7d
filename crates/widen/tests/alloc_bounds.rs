//! Proves that the compactability analysis allocates as often for a
//! graph with 40 recurrence nodes as for one with 2.
//!
//! At every width above 1, `compactable_nodes` asks for the tightest
//! circuit through each recurrence node, and widening runs for every
//! loop at every width of a sweep. One distance table and one search
//! heap serve all of those questions. This test wraps the global
//! allocator in a counting shim and compares two graphs of the same
//! size at width 2.
//!
//! The file holds exactly one `#[test]` so no sibling test thread can
//! allocate concurrently and pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use widening_ir::{Ddg, DdgBuilder, OpKind};
use widening_transform::{compactable_nodes, CompactReason};

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

/// A 48-node chain of loads and adds with `pairs` two-node recurrences
/// (a carried edge back to the previous node), alternating distance 1
/// (too tight for width 2) and distance 2.
fn graph(pairs: usize) -> Ddg {
    let mut b = DdgBuilder::new();
    let ids: Vec<_> = (0..48)
        .map(|i| {
            if i % 2 == 0 {
                b.load(1)
            } else {
                b.op(OpKind::FAdd)
            }
        })
        .collect();
    for i in 1..ids.len() {
        b.flow(ids[i - 1], ids[i]);
    }
    for p in 0..pairs {
        let end = 2 * p + 1;
        b.carried_flow(ids[end], ids[end - 1], 1 + (p % 2) as u32);
    }
    b.build().expect("valid graph")
}

/// Allocations made by classifying `g` at width 2, and the number of
/// nodes the analysis found on a recurrence too tight to pack.
fn allocations(g: &Ddg) -> (u64, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let reasons = compactable_nodes(g, 2);
    let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let tight = reasons
        .iter()
        .filter(|&&r| r == CompactReason::TightRecurrence)
        .count();
    (made, tight)
}

#[test]
fn circuit_searches_share_one_table_and_heap() {
    let few = graph(1);
    let many = graph(20);
    assert_eq!(few.recurrence_nodes().len(), 2);
    assert_eq!(many.recurrence_nodes().len(), 40);
    let (few_allocations, few_tight) = allocations(&few);
    let (many_allocations, many_tight) = allocations(&many);
    assert_eq!((few_tight, many_tight), (2, 20));
    assert_eq!(
        few_allocations, many_allocations,
        "compactable_nodes allocations at width 2: 2 vs 40 recurrence nodes"
    );
}
