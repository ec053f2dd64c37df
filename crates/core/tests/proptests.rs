//! Property tests for Algorithm I's pipeline stages on arbitrary inputs.

use fhp_core::boundary::BoundaryDecomposition;
use fhp_core::complete_cut::{complete, CompletionStrategy};
use fhp_core::dual_bfs::{random_longest_path_endpoints, two_front_bfs_with_policy, FrontPolicy};
use fhp_core::{Algorithm1, PartitionConfig};
use fhp_hypergraph::{DualIncidence, Hypergraph, HypergraphBuilder, IntersectionGraph, VertexId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

prop_compose! {
    /// A connected hypergraph built from a random spanning chain plus
    /// arbitrary extra edges (constructed inline so this crate's tests do
    /// not depend on fhp-gen).
    fn arb_hypergraph()(
        nv in 3usize..30,
        extra in proptest::collection::vec(
            proptest::collection::vec(0usize..30, 2..5),
            0..25,
        ),
    ) -> fhp_hypergraph::Hypergraph {
        let mut b = HypergraphBuilder::with_vertices(nv);
        for i in 0..nv - 1 {
            b.add_edge([VertexId::new(i), VertexId::new(i + 1)]).expect("chain");
        }
        for pins in &extra {
            let pins: Vec<VertexId> = pins.iter().map(|&p| VertexId::new(p % nv)).collect();
            let _ = b.add_edge(pins);
        }
        b.build()
    }
}

prop_compose! {
    /// A chain whose links at `breaks` are 4-pin signals, plus a few extra
    /// 2- and 3-pin signals. Under a size threshold of 4 the wide links
    /// leave `G`, which falls apart into pieces; a sweep seeded in one
    /// piece leaves the pieces holding neither seed unreached.
    fn arb_segmented_hypergraph()(
        nv in 6usize..30,
        breaks in proptest::collection::vec(0usize..30, 1..4),
        extra in proptest::collection::vec(
            proptest::collection::vec(0usize..30, 2..4),
            0..8,
        ),
    ) -> Hypergraph {
        let mut b = HypergraphBuilder::with_vertices(nv);
        for i in 0..nv - 1 {
            let link = if breaks.iter().any(|&k| k % (nv - 1) == i) {
                vec![i, i + 1, (i + 2) % nv, (i + 3) % nv]
            } else {
                vec![i, i + 1]
            };
            b.add_edge(link.into_iter().map(VertexId::new)).expect("link");
        }
        for pins in &extra {
            let pins: Vec<VertexId> = pins.iter().map(|&p| VertexId::new(p % nv)).collect();
            let _ = b.add_edge(pins);
        }
        b.build()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_policy_and_strategy_completes_validly(
        h in arb_hypergraph(),
        segmented in arb_segmented_hypergraph(),
        seed in 0u64..50,
    ) {
        for (h, threshold) in [(&h, None), (&segmented, Some(4))] {
            let ig = IntersectionGraph::build_naive_with_threshold(h, threshold);
            let g = ig.graph();
            let view = DualIncidence::new(h, threshold).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let Some((u, v)) = random_longest_path_endpoints(&view, &mut rng) else {
                continue;
            };
            for policy in [FrontPolicy::SmallerFirst, FrontPolicy::Alternate] {
                let cut = two_front_bfs_with_policy(&view, u, v, policy);
                let dec = BoundaryDecomposition::new(&view, &cut);
                // the boundary the sweep marked is exactly the G-vertices
                // with a neighbour on the other side
                for w in g.vertices() {
                    let crosses = g
                        .neighbors(w)
                        .iter()
                        .any(|&x| cut.side_of(x) != cut.side_of(w));
                    prop_assert_eq!(dec.gprime_index(w).is_some(), crosses, "G-vertex {}", w);
                }
                // G′ is bipartite w.r.t. the cut sides
                for (a, b) in dec.gprime().edges() {
                    prop_assert_ne!(dec.side_of(a), dec.side_of(b));
                }
                for strategy in [
                    CompletionStrategy::MinDegree,
                    CompletionStrategy::EngineerWeighted,
                    CompletionStrategy::ExactKonig,
                ] {
                    let done = complete(strategy, &view, &dec);
                    prop_assert_eq!(
                        done.num_winners() + done.num_losers(),
                        dec.boundary_len()
                    );
                    // winners are independent in G′
                    for (a, b) in dec.gprime().edges() {
                        prop_assert!(!(done.is_winner(a) && done.is_winner(b)));
                    }
                }
            }
        }
    }

    #[test]
    fn more_starts_never_hurt_for_a_fixed_seed(
        h in arb_hypergraph(),
        seed in 0u64..30,
        k in 1usize..5,
    ) {
        // with a fixed seed the start sequence is a prefix, so best-of-k
        // is monotone in k
        let few = Algorithm1::new(PartitionConfig::new().starts(k).seed(seed))
            .run(&h)
            .expect("valid");
        let more = Algorithm1::new(PartitionConfig::new().starts(k + 3).seed(seed))
            .run(&h)
            .expect("valid");
        prop_assert!(more.report.cut_size <= few.report.cut_size);
    }

    #[test]
    fn objective_scores_match_reports(h in arb_hypergraph(), seed in 0u64..30) {
        let out = Algorithm1::new(PartitionConfig::new().starts(2).seed(seed))
            .run(&h)
            .expect("valid");
        let r = &out.report;
        prop_assert_eq!(r.cut_size, fhp_core::metrics::cut_size(&h, &out.bipartition));
        prop_assert_eq!(
            r.weighted_cut,
            fhp_core::metrics::weighted_cut(&h, &out.bipartition)
        );
        prop_assert_eq!(r.counts.0 + r.counts.1, h.num_vertices());
        prop_assert_eq!(r.weights.0 + r.weights.1, h.total_vertex_weight());
    }
}
