//! Allocation check for the FM pass: once an [`FmScratch`] is warm, a
//! refinement on the same level from the same start must not touch the
//! heap. This is what lets the multilevel V-cycle thread one scratch
//! through every level without allocating per pass: the gain cache, the
//! touched-pin list of the gain update, the heap's store, the move log
//! and the deferred queue all live in the scratch.
//!
//! Like `alloc_regression.rs`, this is a single `#[test]` in its own
//! integration binary: the counter is process-global, and a sibling test
//! thread would bleed its allocations into the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use fhp_core::refine::{self, FmScratch};
use fhp_core::{metrics, Bipartition, Side};
use fhp_hypergraph::{Hypergraph, HypergraphBuilder, VertexId};

/// Counts every heap acquisition (alloc, alloc_zeroed, realloc) routed
/// through the global allocator; frees are not counted.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// A 300-module pseudo-random netlist (tiny LCG, fixed seed): a chain,
/// 400 weighted 2–5-pin signals and one signal on every module, so the
/// gain updates meet both narrow and wide critical nets.
fn instance() -> Hypergraph {
    const N: usize = 300;
    let mut b = HypergraphBuilder::new();
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move |bound: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as usize) % bound
    };
    for _ in 0..N {
        b.add_weighted_vertex(1 + next(3) as u64);
    }
    for i in 1..N {
        b.add_edge([VertexId::new(i - 1), VertexId::new(i)])
            .expect("chain edge");
    }
    for _ in 0..400 {
        let pins: Vec<VertexId> = (0..2 + next(4)).map(|_| VertexId::new(next(N))).collect();
        b.add_weighted_edge(pins, 1 + next(4) as u64)
            .expect("valid pins");
    }
    b.add_edge((0..N).map(VertexId::new)).expect("wide signal");
    b.build()
}

#[test]
fn a_warm_fm_scratch_refines_without_allocating() {
    let h = instance();
    // every third module left: a poor cut, so the passes have work to do
    let start = Bipartition::from_fn(h.num_vertices(), |v| {
        if v.index() % 3 == 0 {
            Side::Left
        } else {
            Side::Right
        }
    });
    let mut scratch = FmScratch::new();
    let warm = refine::refine_with(&h, start.clone(), &mut scratch);
    assert!(metrics::weighted_cut(&h, &warm) < metrics::weighted_cut(&h, &start));

    let again = start.clone();
    let before = ALLOCS.load(Ordering::SeqCst);
    let refined = refine::refine_with(&h, again, &mut scratch);
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(
        allocs, 0,
        "a refinement on a warm scratch allocated {allocs} times"
    );
    assert_eq!(refined, warm, "the warm refinement reproduces the first");
}
