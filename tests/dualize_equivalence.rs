//! The equivalence contract of the dualizer: for every hypergraph and
//! threshold, [`Dualizer::build`] produces exactly what the retained
//! naive pair-spray builder
//! ([`IntersectionGraph::build_naive_with_threshold`]) produces — the same
//! adjacency and the same hyperedge ↔ G-vertex mapping — and the
//! partitions computed on top are fingerprint-identical at every thread
//! count. The dualizer is allowed to change *only* speed and memory.

use fhp::core::{Algorithm1, PartitionConfig};
use fhp::gen::{CircuitNetlist, PlantedBisection, RandomHypergraph, Technology};
use fhp::hypergraph::{Dualizer, Hypergraph, HypergraphBuilder, IntersectionGraph, VertexId};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Asserts the dualizer matches the naive oracle on `h` for one
/// threshold.
fn assert_kernel_equivalent(label: &str, h: &Hypergraph, threshold: Option<usize>) {
    let naive = IntersectionGraph::build_naive_with_threshold(h, threshold);
    let fast = Dualizer::new()
        .threshold(threshold)
        .build(h)
        .unwrap_or_else(|e| panic!("{label}: {e}"));

    assert_eq!(fast.graph(), naive.graph(), "{label}: adjacency diverged");
    assert_eq!(
        fast.num_g_vertices(),
        naive.num_g_vertices(),
        "{label}: kept count diverged"
    );
    for e in h.edges() {
        assert_eq!(
            fast.g_vertex_of(e),
            naive.g_vertex_of(e),
            "{label}: g_of({e}) diverged"
        );
    }
    for g in 0..fast.num_g_vertices() as u32 {
        assert_eq!(fast.edge_of(g), naive.edge_of(g), "{label}: kept[{g}]");
    }
    let (s, n) = (fast.stats(), naive.stats());
    assert_eq!(s.pairs_generated, n.pairs_generated, "{label}: pair count");
    assert_eq!(s.unique_edges, n.unique_edges, "{label}: unique edges");
    assert_eq!(
        s.pairs_generated,
        s.unique_edges + s.duplicates_merged,
        "{label}: counter balance"
    );
    assert_eq!(s.unique_edges, fast.graph().num_edges() as u64, "{label}");
}

/// Asserts `Algorithm1` fingerprints are bit-identical at every thread
/// count of the multi-start engine.
fn assert_partition_invariant(label: &str, h: &Hypergraph, config: PartitionConfig) {
    let baseline = Algorithm1::new(config.threads(THREAD_COUNTS[0]))
        .run(h)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    for &threads in &THREAD_COUNTS[1..] {
        let outcome = Algorithm1::new(config.threads(threads))
            .run(h)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(
            baseline.fingerprint(),
            outcome.fingerprint(),
            "{label}: partition fingerprint diverged at {threads} threads"
        );
    }
}

/// The bench's hub adversary, rebuilt here so the equivalence suite does
/// not depend on the bench crate: `hubs` modules shared by all `signals`
/// signals plus one private module each.
fn hub_instance(signals: usize, hubs: usize) -> Hypergraph {
    let mut b = HypergraphBuilder::with_vertices(hubs + signals);
    for s in 0..signals {
        let mut pins: Vec<VertexId> = (0..hubs).map(VertexId::new).collect();
        pins.push(VertexId::new(hubs + s));
        b.add_edge(pins).expect("valid pins");
    }
    b.build()
}

const THRESHOLDS: [Option<usize>; 4] = [None, Some(3), Some(6), Some(10)];

#[test]
fn circuit_instances_match_the_oracle() {
    for (seed, technology) in [(1, Technology::Pcb), (2, Technology::StdCell)] {
        let h = CircuitNetlist::new(technology, 120, 200)
            .seed(seed)
            .generate()
            .expect("valid generator config");
        for t in THRESHOLDS {
            assert_kernel_equivalent(&format!("circuit seed {seed} threshold {t:?}"), &h, t);
        }
    }
}

#[test]
fn planted_bisections_match_the_oracle() {
    let inst = PlantedBisection::new(80, 160)
        .cut_size(4)
        .seed(3)
        .generate()
        .expect("valid generator config");
    for t in THRESHOLDS {
        assert_kernel_equivalent(&format!("planted threshold {t:?}"), inst.hypergraph(), t);
    }
}

#[test]
fn random_instances_match_the_oracle() {
    for seed in [7, 8] {
        let h = RandomHypergraph::new(100, 150)
            .seed(seed)
            .generate()
            .expect("valid generator config");
        for t in THRESHOLDS {
            assert_kernel_equivalent(&format!("random seed {seed} threshold {t:?}"), &h, t);
        }
    }
}

#[test]
fn hub_adversary_matches_the_oracle_and_collapses_duplicates() {
    let h = hub_instance(96, 6);
    assert_kernel_equivalent("hub", &h, None);
    let ig = Dualizer::new().build(&h).expect("fits u32");
    let s = ig.stats();
    // every G-edge is duplicated once per hub module
    assert_eq!(s.pairs_generated, 6 * s.unique_edges);
    assert_eq!(s.duplicates_merged, 5 * s.unique_edges);
}

#[test]
fn partitions_on_top_of_the_kernel_are_thread_invariant() {
    let h = CircuitNetlist::new(Technology::Pcb, 120, 200)
        .seed(9)
        .generate()
        .expect("valid generator config");
    assert_partition_invariant("circuit", &h, PartitionConfig::paper().seed(9));

    let hub = hub_instance(64, 8);
    assert_partition_invariant(
        "hub",
        &hub,
        PartitionConfig::new()
            .starts(8)
            .seed(1)
            .edge_size_threshold(Some(12)),
    );
}

#[test]
fn oversized_threshold_keeps_everything_and_tiny_filters_everything() {
    let h = CircuitNetlist::new(Technology::StdCell, 60, 100)
        .seed(4)
        .generate()
        .expect("valid generator config");
    assert_kernel_equivalent("threshold huge", &h, Some(usize::MAX));
    assert_kernel_equivalent("threshold 2 (only 2-pin kept)", &h, Some(2));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_hypergraphs_match_the_oracle(
        nv in 2usize..14,
        raw_edges in proptest::collection::vec(
            proptest::collection::vec(0usize..14, 1..6),
            1..14,
        ),
        threshold in proptest::option::of(2usize..6),
    ) {
        let mut b = HypergraphBuilder::with_vertices(nv);
        for pins in &raw_edges {
            let mut pins: Vec<VertexId> =
                pins.iter().map(|&p| VertexId::new(p % nv)).collect();
            pins.sort_unstable();
            pins.dedup();
            b.add_edge(pins).expect("non-empty after dedup");
        }
        let h = b.build();
        let naive = IntersectionGraph::build_naive_with_threshold(&h, threshold);
        let fast = Dualizer::new()
            .threshold(threshold)
            .build(&h)
            .expect("small instance fits u32");
        prop_assert_eq!(fast.graph(), naive.graph());
        for e in h.edges() {
            prop_assert_eq!(fast.g_vertex_of(e), naive.g_vertex_of(e));
        }
        prop_assert_eq!(fast.stats().unique_edges, naive.stats().unique_edges);
        prop_assert_eq!(fast.stats().pairs_generated, naive.stats().pairs_generated);
    }
}
