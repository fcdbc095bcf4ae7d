//! Proves that `allocate_in` on a warm `AllocScratch` allocates exactly
//! once per call, for the location table it returns, whatever the size
//! of the cylinder.
//!
//! The allocator runs for every base schedule and every spill round, so
//! a table allocated per call multiplies across the corpus. The packer
//! race keeps its arc orders, register sets and candidate packings in
//! the scratch. This test wraps the global allocator in a counting shim
//! and checks the bound on a 304-slot cylinder (the largest the
//! seed-1998 corpus builds) and on a 20000-slot one, past the 2¹⁴ slots
//! above which a separate race on the reference packers once ran (it
//! made 38 allocations per call on this test's 20000-slot lifetimes).
//!
//! The file holds exactly one `#[test]` so no sibling test thread can
//! allocate concurrently and pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use widening_ir::NodeId;
use widening_regalloc::{allocate_in, AllocScratch, Lifetime};

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

/// `n` lifetimes at initiation interval `ii`, none of zero length. The
/// first spans `span` cycles, which sets the expansion degree; the rest
/// form a staircase of defs one `ii / n` apart, each living up to two
/// intervals.
fn lifetimes(n: u32, ii: u32, span: u32) -> Vec<Lifetime> {
    (0..n)
        .map(|i| {
            let start = i * (ii / n).max(1) + i % 3;
            let len = if i == 0 {
                span
            } else {
                1 + (i * 37) % (2 * ii)
            };
            Lifetime {
                def: NodeId(i),
                start,
                end: start + len,
            }
        })
        .collect()
}

#[test]
fn warm_allocations_allocate_only_their_location_table() {
    let cases = [
        // II 38 × K 8 = 304 slots.
        (lifetimes(40, 38, 7 * 38 + 5), 38, 304),
        // II 20000 × K 1 = 20000 slots.
        (lifetimes(12, 20_000, 15_000), 20_000, 20_000),
    ];
    for (lts, ii, slots) in &cases {
        let mut scratch = AllocScratch::new();
        let warm = allocate_in(lts, *ii, &mut scratch);
        let k = warm.kernel_unroll();
        assert_eq!(k * ii, *slots, "cylinder of {slots} slots");
        for _ in 0..3 {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let again = allocate_in(lts, *ii, &mut scratch);
            let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
            assert_eq!(made, 1, "{slots}-slot cylinder: {made} allocations");
            assert_eq!(again, warm);
            drop(again);
        }
    }
}
