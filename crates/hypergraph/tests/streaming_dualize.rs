//! Property battery for the dualizer's pair cap: the cap is a *memory*
//! knob, never a *semantics* knob. For every instance and every cap —
//! including the degenerate cap=1, the off-by-one cap=pairs−1, and caps
//! at or above the whole pair stream — a capped `Dualizer::build` must
//! reproduce the uncapped build's graph, mapping and multiplicities byte
//! for byte; only `DualizeStats::passes`, `peak_pair_buffer`,
//! `bytes_spilled` and the unit count may differ. An adversarial
//! degree-1024 hub (half a million pairs inside one module's block)
//! pins the cap guarantee where units must split mid-vertex.

use fhp_hypergraph::intersection::{Dualizer, IntersectionGraph};
use fhp_hypergraph::{Hypergraph, HypergraphBuilder, VertexId};
use proptest::prelude::*;

fn build_hypergraph(nv: usize, raw_edges: &[Vec<usize>]) -> Hypergraph {
    let mut b = HypergraphBuilder::with_vertices(nv);
    for pins in raw_edges {
        let mut dedup: Vec<VertexId> = pins.iter().map(|&p| VertexId::new(p % nv)).collect();
        dedup.sort_unstable();
        dedup.dedup();
        if !dedup.is_empty() {
            b.add_edge(dedup).expect("valid pins");
        }
    }
    b.build()
}

/// Asserts capped ≡ uncapped build on `h` at `cap`, and returns the
/// capped build's stats for cap-specific follow-up assertions.
fn assert_streaming_matches(
    h: &Hypergraph,
    oracle: &IntersectionGraph,
    cap: Option<usize>,
    threads: usize,
) -> fhp_hypergraph::intersection::DualizeStats {
    let st = Dualizer::new()
        .threshold(oracle.threshold())
        .threads(threads)
        .pair_cap(cap)
        .build(h)
        .expect("capped build succeeds where the uncapped one did");
    assert_eq!(st.graph(), oracle.graph(), "cap {cap:?} threads {threads}");
    assert_eq!(st.num_g_vertices(), oracle.num_g_vertices());
    for g in st.graph().vertices() {
        assert_eq!(
            st.multiplicities_of(g),
            oracle.multiplicities_of(g),
            "cap {cap:?} g-vertex {g}"
        );
    }
    for e in h.edges() {
        assert_eq!(st.g_vertex_of(e), oracle.g_vertex_of(e));
    }
    st.stats().clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The cap never changes the output graph — only the pass count,
    /// which follows `ceil(pairs / cap)` exactly.
    #[test]
    fn cap_changes_passes_not_the_graph(
        nv in 2usize..14,
        raw_edges in proptest::collection::vec(
            proptest::collection::vec(0usize..14, 2..6),
            1..14,
        ),
        threshold in proptest::option::of(2usize..6),
        arb_cap in 1usize..64,
        threads in proptest::sample::select([1usize, 2, 8]),
    ) {
        let h = build_hypergraph(nv, &raw_edges);
        let oracle = Dualizer::new().threshold(threshold).build(&h).unwrap();
        let total = oracle.stats().pairs_generated;

        // the issue's boundary caps, plus an arbitrary one
        let mut caps = vec![Some(1), Some(arb_cap), None];
        if total >= 2 {
            caps.push(Some(total as usize - 1)); // cap = pairs − 1: forces a 2nd pass
        }
        caps.push(Some(total.max(1) as usize)); // cap ≥ pairs: single pass
        caps.push(Some(total as usize + 10));

        for cap in caps {
            let s = assert_streaming_matches(&h, &oracle, cap, threads);
            prop_assert_eq!(s.pairs_generated, total);
            prop_assert_eq!(s.pairs_generated, s.unique_edges + s.duplicates_merged);
            let expect_passes = match cap {
                Some(c) if total > 0 => total.div_ceil(c as u64),
                _ => 1,
            };
            prop_assert_eq!(s.passes, expect_passes, "cap {:?}", cap);
            let effective = cap.map_or(total.max(1), |c| c.max(1) as u64);
            prop_assert!(s.peak_pair_buffer <= effective, "cap {:?}", cap);
            // spill volume is 12 bytes per retired unique entry, and every
            // unique pair is retired at least once
            prop_assert_eq!(s.bytes_spilled % 12, 0);
            prop_assert!(s.bytes_spilled / 12 >= if s.passes > 1 { s.unique_edges } else { 0 });
        }
    }

    /// The counters are invariant under the thread count, capped or not:
    /// they are a pure function of (instance, threshold, cap).
    #[test]
    fn stats_are_thread_invariant(
        nv in 2usize..12,
        raw_edges in proptest::collection::vec(
            proptest::collection::vec(0usize..12, 2..5),
            1..10,
        ),
        cap in proptest::option::of(1usize..32),
    ) {
        let h = build_hypergraph(nv, &raw_edges);
        let one = Dualizer::new().pair_cap(cap).threads(1).build(&h).unwrap();
        for threads in [2usize, 8] {
            let many = Dualizer::new()
                .pair_cap(cap)
                .threads(threads)
                .build(&h)
                .unwrap();
            prop_assert_eq!(many.graph(), one.graph());
            let (a, b) = (many.stats(), one.stats());
            prop_assert_eq!(a.passes, b.passes);
            prop_assert_eq!(a.peak_pair_buffer, b.peak_pair_buffer);
            prop_assert_eq!(a.bytes_spilled, b.bytes_spilled);
            prop_assert_eq!(a.pairs_generated, b.pairs_generated);
        }
    }
}

/// The adversarial hub: one module shared by 1024 signals puts
/// `C(1024, 2) = 523776` pairs inside a single vertex's pair block, so
/// every cap below that forces chunk boundaries *inside* the block. The
/// raw buffer must still never exceed the cap.
#[test]
fn degree_1024_hub_respects_the_cap() {
    let signals = 1024usize;
    let mut b = HypergraphBuilder::with_vertices(1 + signals);
    for s in 0..signals {
        b.add_edge([VertexId::new(0), VertexId::new(1 + s)])
            .unwrap();
    }
    let h = b.build();
    let oracle = Dualizer::new().build(&h).unwrap();
    let total = (signals * (signals - 1) / 2) as u64;
    assert_eq!(oracle.stats().pairs_generated, total);
    assert_eq!(oracle.stats().peak_pair_buffer, total);

    for cap in [64usize, 4095, 65_536, total as usize - 1, total as usize] {
        let st = Dualizer::new()
            .pair_cap(Some(cap))
            .threads(8)
            .build(&h)
            .expect("hub builds");
        assert_eq!(st.graph(), oracle.graph(), "cap {cap}");
        let s = st.stats();
        assert!(
            s.peak_pair_buffer <= cap as u64,
            "cap {cap}: peak {} exceeds cap",
            s.peak_pair_buffer
        );
        assert_eq!(s.passes, total.div_ceil(cap as u64), "cap {cap}");
        assert_eq!(s.pairs_generated, total);
    }
}
