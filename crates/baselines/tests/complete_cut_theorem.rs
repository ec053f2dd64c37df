//! Property test of the paper's Complete-Cut theorem on the class where
//! it holds: on small connected bipartite boundary graphs (up to 9
//! vertices), the §2.2 min-degree greedy completion is within one loser
//! of the exhaustive optimum. The bound as stated in the paper is
//! refuted by connected counterexamples from 10 vertices up (see
//! `fhp_core::complete_cut`'s `within_one_counterexample`), which is why
//! this test pins the size at 9 — the property is exact there.
//!
//! The exact König completion is also checked against the same
//! exhaustive ground truth, as an equality.

use fhp_core::complete_cut::{brute_force_min_losers, complete_exact, complete_min_degree};
use fhp_core::Side;
use fhp_hypergraph::Graph;
use proptest::prelude::*;

/// Largest boundary graph on which the within-one bound is known to be
/// universally true (gap-2 connected counterexamples exist at 10).
const MAX_VERTICES: usize = 9;

prop_compose! {
    /// A connected bipartite graph on `n ∈ [2, MAX_VERTICES]` vertices:
    /// vertex parity is the side, each vertex links to an earlier vertex
    /// of opposite parity (connectivity), and extra opposite-parity
    /// edges are sprinkled on top.
    fn arb_boundary_graph()(
        n in 2usize..=MAX_VERTICES,
        spine in proptest::collection::vec(0usize..usize::MAX, MAX_VERTICES),
        extra in proptest::collection::vec((0usize..MAX_VERTICES, 0usize..MAX_VERTICES), 0..16),
    ) -> (Graph, Vec<Side>) {
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for i in 1..n {
            // earlier vertices of opposite parity are exactly those with
            // index of opposite parity; pick one via the spine draw
            let choices: Vec<usize> = (0..i).filter(|j| j % 2 != i % 2).collect();
            let j = choices[spine[i] % choices.len()];
            edges.push((j as u32, i as u32));
        }
        for &(a, b) in &extra {
            let (a, b) = (a % n, b % n);
            if a % 2 != b % 2 {
                edges.push((a.min(b) as u32, a.max(b) as u32));
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let sides: Vec<Side> = (0..n)
            .map(|i| if i % 2 == 0 { Side::Left } else { Side::Right })
            .collect();
        (Graph::from_edges(n, edges), sides)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn greedy_completion_is_within_one_of_optimal((g, _sides) in arb_boundary_graph()) {
        let optimal = brute_force_min_losers(&g);
        let greedy = complete_min_degree(&g).num_losers();
        prop_assert!(
            greedy >= optimal,
            "greedy {} beat the exhaustive optimum {}", greedy, optimal
        );
        prop_assert!(
            greedy <= optimal + 1,
            "greedy {} losers vs optimal {} on a connected boundary graph \
             with {} vertices", greedy, optimal, g.num_vertices()
        );
    }

    #[test]
    fn konig_completion_is_exactly_optimal((g, sides) in arb_boundary_graph()) {
        let optimal = brute_force_min_losers(&g);
        let exact = complete_exact(&g, &sides).num_losers();
        prop_assert_eq!(exact, optimal);
    }
}
