//! Proves that `MiiBounds::compute` allocates at most a fixed number of
//! times plus one per recurrence, however many recurrences a graph has.
//!
//! `RecMII` runs a binary search of feasibility probes per recurrence,
//! and the MII stage runs for every loop at every design point, so a
//! table allocated per recurrence or per probe multiplies across the
//! corpus. The only allocation a recurrence may cost is the copy of its
//! members into `RecurrenceInfo::nodes`. This test wraps the global
//! allocator in a counting shim and checks that bound on graphs with 2
//! and 40 recurrences (a table per recurrence and per probe made 18
//! and 199).
//!
//! The file holds exactly one `#[test]` so no sibling test thread can
//! allocate concurrently and pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use widening_ir::{Ddg, DdgBuilder, OpKind};
use widening_machine::{Configuration, CycleModel};
use widening_sched::MiiBounds;

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

/// Allocations `MiiBounds::compute` may make besides one per
/// recurrence: the SCC decomposition (7), the distance table (1) and the
/// recurrence list, which grows by doubling (5 blocks for 40 entries).
const FIXED: u64 = 16;

/// A 120-node chain of loads, adds and multiplies carrying
/// `recurrences` circuits of mixed shapes: a two-node recurrence, a
/// three-node one and a self-loop in turn, at distances 1 to 3.
fn graph(recurrences: usize) -> Ddg {
    let mut b = DdgBuilder::new();
    let ids: Vec<_> = (0..120)
        .map(|i| match i % 3 {
            0 => b.load(1),
            1 => b.op(OpKind::FAdd),
            _ => b.op(OpKind::FMul),
        })
        .collect();
    for i in 1..ids.len() {
        b.flow(ids[i - 1], ids[i]);
    }
    for r in 0..recurrences {
        let end = 3 * r + 2;
        let distance = 1 + (r % 3) as u32;
        match r % 3 {
            0 => b.carried_flow(ids[end], ids[end - 1], distance),
            1 => b.carried_flow(ids[end], ids[end - 2], distance),
            _ => b.carried_flow(ids[end], ids[end], distance),
        };
    }
    b.build().expect("valid graph")
}

/// Allocations made by computing the bounds of `g`, and its recurrence
/// count.
fn allocations(g: &Ddg) -> (u64, u64) {
    let cfg = Configuration::monolithic(2, 1, 64).expect("valid config");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let bounds = MiiBounds::compute(g, &cfg, CycleModel::Cycles4);
    let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(bounds.rec_mii() > 1);
    (made, bounds.recurrences().len() as u64)
}

#[test]
fn mii_allocates_once_per_recurrence() {
    let (few, few_recurrences) = allocations(&graph(2));
    let (many, many_recurrences) = allocations(&graph(40));
    assert_eq!((few_recurrences, many_recurrences), (2, 40));
    assert!(
        few <= FIXED + few_recurrences && many <= FIXED + many_recurrences,
        "allocations: {few} for 2 recurrences, {many} for 40"
    );
}
