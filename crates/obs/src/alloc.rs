//! Opt-in heap accounting: live/peak bytes and allocation counts.
//!
//! This module holds only **safe** code — process-wide atomic tallies
//! plus `note_*` hooks — so `fhp-obs` keeps its `#![forbid(unsafe_code)]`
//! contract. The `unsafe impl GlobalAlloc` shim that feeds the hooks is
//! packaged as the
//! [`install_counting_allocator!`](crate::install_counting_allocator)
//! macro and expands in the **installing binary** (the CLI), not in this
//! crate.
//!
//! When no binary installs the shim, [`stats`] reads zeros and every
//! consumer (the `mem.*` gauges, `[stats]` lines, the metrics stream)
//! degrades gracefully. The tallies are volatile by nature — allocation
//! order depends on scheduling — so everything derived from them carries
//! the `mem.` name prefix and is excluded from canonical comparisons.

use std::sync::atomic::{AtomicU64, Ordering};

static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// One consistent-enough read of the allocator tallies. "Consistent
/// enough": each field is an atomic snapshot, but the three fields are
/// read at slightly different instants — fine for telemetry, not for
/// accounting invariants.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Bytes currently allocated and not yet freed.
    pub live_bytes: u64,
    /// High-water mark of `live_bytes` since process start.
    pub peak_bytes: u64,
    /// Heap acquisitions: alloc + alloc_zeroed + realloc calls.
    pub allocs: u64,
}

/// Reads the current tallies (zeros unless a binary installed the
/// counting allocator).
pub fn stats() -> AllocStats {
    AllocStats {
        live_bytes: LIVE_BYTES.load(Ordering::Relaxed), // fhp-audit: allow(atomic-ordering) — allocator tallies are monotonic statistics read for display; no synchronizes-with needed
        peak_bytes: PEAK_BYTES.load(Ordering::Relaxed), // fhp-audit: allow(atomic-ordering) — allocator tallies are monotonic statistics read for display; no synchronizes-with needed
        allocs: ALLOCS.load(Ordering::Relaxed), // fhp-audit: allow(atomic-ordering) — allocator tallies are monotonic statistics read for display; no synchronizes-with needed
    }
}

/// Records a successful allocation of `bytes`.
pub fn note_alloc(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed); // fhp-audit: allow(atomic-ordering) — allocator tallies are monotonic statistics read for display; no synchronizes-with needed
    let live = LIVE_BYTES
        .fetch_add(bytes as u64, Ordering::Relaxed) // fhp-audit: allow(atomic-ordering) — allocator tallies are monotonic statistics read for display; no synchronizes-with needed
        .wrapping_add(bytes as u64);
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed); // fhp-audit: allow(atomic-ordering) — allocator tallies are monotonic statistics read for display; no synchronizes-with needed
}

/// Records a successful reallocation from `old` to `new` bytes.
pub fn note_realloc(old: usize, new: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed); // fhp-audit: allow(atomic-ordering) — allocator tallies are monotonic statistics read for display; no synchronizes-with needed
    if new >= old {
        let grow = (new - old) as u64;
        let live = LIVE_BYTES
            .fetch_add(grow, Ordering::Relaxed) // fhp-audit: allow(atomic-ordering) — allocator tallies are monotonic statistics read for display; no synchronizes-with needed
            .wrapping_add(grow);
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed); // fhp-audit: allow(atomic-ordering) — allocator tallies are monotonic statistics read for display; no synchronizes-with needed
    } else {
        LIVE_BYTES.fetch_sub((old - new) as u64, Ordering::Relaxed); // fhp-audit: allow(atomic-ordering) — allocator tallies are monotonic statistics read for display; no synchronizes-with needed
    }
}

/// Records a deallocation of `bytes`.
pub fn note_dealloc(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed); // fhp-audit: allow(atomic-ordering) — allocator tallies are monotonic statistics read for display; no synchronizes-with needed
}

/// Installs a process-global counting allocator in the **calling** crate:
/// the system allocator wrapped in a shim that feeds
/// [`fhp_obs::alloc`](crate::alloc)'s tallies. Invoke once at the root of
/// a binary:
///
/// ```ignore
/// fhp_obs::install_counting_allocator!();
/// ```
///
/// The expansion contains the `unsafe impl GlobalAlloc` (delegating every
/// operation to [`std::alloc::System`]), so the installing crate must not
/// forbid unsafe code; `fhp-obs` itself stays `#![forbid(unsafe_code)]`.
/// Overhead is three relaxed atomic ops per heap call — negligible next
/// to the allocation itself.
#[macro_export]
macro_rules! install_counting_allocator {
    () => {
        /// System allocator shim feeding `fhp_obs::alloc` accounting.
        struct FhpCountingAllocator;

        unsafe impl ::std::alloc::GlobalAlloc for FhpCountingAllocator {
            unsafe fn alloc(&self, layout: ::std::alloc::Layout) -> *mut u8 {
                let ptr = unsafe { ::std::alloc::System.alloc(layout) };
                if !ptr.is_null() {
                    $crate::alloc::note_alloc(layout.size());
                }
                ptr
            }

            unsafe fn alloc_zeroed(&self, layout: ::std::alloc::Layout) -> *mut u8 {
                let ptr = unsafe { ::std::alloc::System.alloc_zeroed(layout) };
                if !ptr.is_null() {
                    $crate::alloc::note_alloc(layout.size());
                }
                ptr
            }

            unsafe fn realloc(
                &self,
                ptr: *mut u8,
                layout: ::std::alloc::Layout,
                new_size: usize,
            ) -> *mut u8 {
                let new_ptr = unsafe { ::std::alloc::System.realloc(ptr, layout, new_size) };
                if !new_ptr.is_null() {
                    $crate::alloc::note_realloc(layout.size(), new_size);
                }
                new_ptr
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: ::std::alloc::Layout) {
                unsafe { ::std::alloc::System.dealloc(ptr, layout) };
                $crate::alloc::note_dealloc(layout.size());
            }
        }

        #[global_allocator]
        static FHP_COUNTING_ALLOCATOR: FhpCountingAllocator = FhpCountingAllocator;
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tallies are process-global, so exercise them in one test to
    // avoid cross-test bleed; assertions are on deltas, not absolutes.
    #[test]
    fn note_hooks_track_live_peak_and_counts() {
        let before = stats();
        note_alloc(1000);
        let s = stats();
        assert_eq!(s.allocs, before.allocs + 1);
        assert_eq!(s.live_bytes, before.live_bytes + 1000);
        assert!(s.peak_bytes >= before.live_bytes + 1000);

        // Growing realloc raises live and may raise peak.
        note_realloc(1000, 2500);
        let s = stats();
        assert_eq!(s.allocs, before.allocs + 2);
        assert_eq!(s.live_bytes, before.live_bytes + 2500);
        assert!(s.peak_bytes >= before.live_bytes + 2500);
        let peak_after_grow = s.peak_bytes;

        // Shrinking realloc lowers live without touching peak.
        note_realloc(2500, 500);
        let s = stats();
        assert_eq!(s.allocs, before.allocs + 3);
        assert_eq!(s.live_bytes, before.live_bytes + 500);
        assert_eq!(s.peak_bytes, peak_after_grow);

        // Dealloc is not an acquisition.
        note_dealloc(500);
        let s = stats();
        assert_eq!(s.allocs, before.allocs + 3);
        assert_eq!(s.live_bytes, before.live_bytes);
        assert_eq!(s.peak_bytes, peak_after_grow);
    }
}
