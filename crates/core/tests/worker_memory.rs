//! Per-worker memory of the multi-start engine: an extra worker costs
//! scratch sized by `G` and the module count — BFS levels, fronts, sweep
//! labels, the boundary index, the partial bipartition, placement and
//! three bipartitions — plus buffers grown to the boundary graphs `G′`
//! it meets, never a reservation for the worst cut.
//!
//! Method: the global allocator is wrapped in a shim that tracks live
//! bytes and their high-water mark, reset before each run. The paper
//! configuration (50 starts, threshold 10) runs on a standard-cell
//! scaling instance at 1 and 8 workers; the difference in peak heap,
//! per extra worker, must stay under a budget linear in `g_n + n` (G's
//! vertices plus the modules). The budget is 48 bytes per G-vertex or
//! module: what the arena reserves is about 25 bytes per G-vertex and
//! 11 per module. A reservation for the cross-pair worst case `Σ_m
//! ⌊d_m²/4⌋` — 16 bytes per pair for `G′` and its pair list, 16 more for
//! the Complete-Cut heap — costs several times that on these netlists.
//!
//! This is a single `#[test]` in its own integration binary: the tallies
//! are process-global, and a sibling test thread would bleed its
//! allocations into the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use fhp_core::{Algorithm1, PartitionConfig};

/// The system allocator, tracking live bytes and their peak.
struct PeakAlloc;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::SeqCst) + bytes as u64;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub((layout.size() - new_size) as u64, Ordering::SeqCst);
            }
        }
        new_ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as u64, Ordering::SeqCst);
    }
}

#[global_allocator]
static TRACKER: PeakAlloc = PeakAlloc;

/// Bytes an extra worker may cost per G-vertex or module.
const BYTES_PER_VERTEX: u64 = 48;

#[test]
fn an_extra_worker_costs_scratch_linear_in_g_and_the_modules() {
    let h = fhp_gen::scaling_instance(20_000, 42).expect("scaling instance");
    // the run's peak heap above what was live before it, and its G size
    let peak_of = |threads: usize| {
        let config = PartitionConfig::paper().seed(1).threads(threads);
        let before = LIVE.load(Ordering::SeqCst);
        PEAK.store(before, Ordering::SeqCst);
        let out = Algorithm1::new(config).run(&h).expect("run succeeds");
        assert_eq!(out.stats.threads, threads);
        (
            PEAK.load(Ordering::SeqCst) - before,
            out.stats.num_g_vertices,
        )
    };
    let (one, g_n) = peak_of(1);
    let (eight, _) = peak_of(8);
    let per_worker = eight.saturating_sub(one) / 7;
    let budget = BYTES_PER_VERTEX * (g_n + h.num_vertices()) as u64;
    assert!(
        per_worker <= budget,
        "an extra worker cost {per_worker} bytes, over the {budget}-byte budget for \
         {g_n} G-vertices and {} modules (peak {one} bytes at 1 worker, {eight} at 8)",
        h.num_vertices()
    );
}
