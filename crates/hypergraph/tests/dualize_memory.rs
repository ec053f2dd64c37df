//! The dualizer holds no pair buffer. On the hub adversary — 8 modules
//! shared by all 512 signals, so every G-edge is a candidate pair 8
//! times over — the peak heap of one `IntersectionGraph::build`, over the
//! live bytes before it, stays within twice the CSR's bytes plus the
//! incidence view's bytes (about 2.2 MB). A builder that holds the
//! candidate pairs, 8 bytes each, needs 8.4 MB for them alone.
//!
//! Method: this binary installs `fhp-obs`'s counting allocator. Its peak
//! is a high-water mark since the process started, so `peak − live
//! before the build` is at least the build's own peak: the check can
//! only read high, never low. The view's bytes are what a
//! `DualIncidence` keeps alive once built.
//!
//! This is a single `#[test]` in its own integration binary: the tallies
//! are process-global, and a sibling test thread would bleed its
//! allocations into the measurement.

use fhp_hypergraph::{DualIncidence, Hypergraph, HypergraphBuilder, IntersectionGraph, VertexId};

fhp_obs::install_counting_allocator!();

const SIGNALS: usize = 512;
const HUBS: usize = 8;

/// `HUBS` modules on every one of `SIGNALS` signals, plus one private
/// module per signal: `G` is the complete graph on the signals.
fn hub_instance() -> Hypergraph {
    let mut b = HypergraphBuilder::with_vertices(HUBS + SIGNALS);
    for s in 0..SIGNALS {
        let mut pins: Vec<VertexId> = (0..HUBS).map(VertexId::new).collect();
        pins.push(VertexId::new(HUBS + s));
        b.add_edge(pins).expect("valid pins");
    }
    b.build()
}

#[test]
fn a_build_holds_the_view_and_the_csr_but_no_pair_buffer() {
    let h = hub_instance();

    let before = fhp_obs::alloc::stats().live_bytes;
    let view = DualIncidence::new(&h, None).expect("fits u32");
    let view_bytes = fhp_obs::alloc::stats().live_bytes - before;
    drop(view);
    assert!(view_bytes > 0, "the counting allocator is not installed");

    let before = fhp_obs::alloc::stats().live_bytes;
    let ig = IntersectionGraph::build(&h);
    let peak = fhp_obs::alloc::stats().peak_bytes - before;

    let g = ig.graph();
    let edges = SIGNALS * (SIGNALS - 1) / 2;
    assert_eq!(g.num_edges(), edges);
    assert_eq!(ig.stats().pairs_generated, (HUBS * edges) as u64);
    let csr_bytes = ((g.num_vertices() + 1) * std::mem::size_of::<usize>()
        + 2 * g.num_edges() * std::mem::size_of::<u32>()) as u64;
    let bound = 2 * (csr_bytes + view_bytes);
    assert!(
        peak <= bound,
        "a build peaked at {peak} bytes over its start, above 2 × (CSR {csr_bytes} + \
         view {view_bytes}) = {bound}; {} candidate pairs would take {} bytes",
        ig.stats().pairs_generated,
        8 * ig.stats().pairs_generated
    );
}
