//! Parsing builds each hypergraph's CSR once: the builder appends every
//! edge's sorted pins straight into the pin arrays through one reused
//! scratch buffer, and the parser reuses one pin buffer across lines. So
//! parsing a 2·10^4-edge `.hgr` allocates only when a buffer grows — far
//! fewer than once per edge, which a per-edge pin `Vec` would cost.
//!
//! Method: this binary installs `fhp-obs`'s counting allocator and counts
//! the heap acquisitions (alloc, alloc_zeroed and realloc calls) made
//! while one `parse_hgr` call runs. This is a single `#[test]` in its own
//! integration binary: the tallies are process-global, and a sibling test
//! thread would bleed its allocations into the count.

use fhp_hypergraph::{hgr, EdgeId};

fhp_obs::install_counting_allocator!();

const EDGES: usize = 20_000;
const VERTICES: usize = 5_000;

/// A `.hgr` text of `EDGES` edges of 2–6 pins over `VERTICES` vertices,
/// drawn from a fixed linear congruential sequence, with edge weights.
fn hgr_text() -> String {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = |bound: usize| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize % bound
    };
    let mut text = format!("{EDGES} {VERTICES} 1\n");
    for _ in 0..EDGES {
        let size = 2 + next(5);
        text.push_str(&(1 + next(3)).to_string());
        for _ in 0..size {
            text.push(' ');
            text.push_str(&(1 + next(VERTICES)).to_string());
        }
        text.push('\n');
    }
    text
}

#[test]
fn parsing_allocates_far_less_than_once_per_edge() {
    let text = hgr_text();
    let before = fhp_obs::alloc::stats().allocs;
    let h = hgr::parse_hgr(&text).expect("generated text parses");
    let allocs = fhp_obs::alloc::stats().allocs - before;
    assert!(allocs > 0, "the counting allocator is not installed");
    assert_eq!(h.num_edges(), EDGES);
    assert_eq!(h.num_vertices(), VERTICES);
    assert!(h.edge_size(EdgeId::new(0)) >= 1);
    assert!(
        allocs < (EDGES / 8) as u64,
        "parsing {EDGES} edges allocated {allocs} times (bound {})",
        EDGES / 8
    );
}
