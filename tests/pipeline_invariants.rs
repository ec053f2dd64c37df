//! Whole-pipeline invariants of Algorithm I across generated instances.
//!
//! These tests re-run the pipeline stage by stage (intersection graph →
//! dual-BFS cut → boundary decomposition → completion → assembly) and
//! check the paper's structural facts at every joint.

use fhp::core::boundary::BoundaryDecomposition;
use fhp::core::complete_cut::{complete, CompletionStrategy};
use fhp::core::dual_bfs::{two_front_bfs, two_front_bfs_with_policy, FrontPolicy};
use fhp::core::{metrics, Algorithm1, PartitionConfig};
use fhp::gen::{CircuitNetlist, RandomHypergraph, Technology};
use fhp::hypergraph::{bfs, DualIncidence, IntersectionGraph};

fn instances() -> Vec<fhp::hypergraph::Hypergraph> {
    vec![
        RandomHypergraph::new(50, 80)
            .connected(true)
            .seed(1)
            .generate()
            .unwrap(),
        CircuitNetlist::new(Technology::Pcb, 60, 110)
            .seed(2)
            .generate()
            .unwrap(),
        CircuitNetlist::new(Technology::StdCell, 90, 150)
            .seed(3)
            .generate()
            .unwrap(),
    ]
}

#[test]
fn boundary_graph_edges_all_cross_the_g_cut() {
    for h in instances() {
        let ig = IntersectionGraph::build_naive_with_threshold(&h, None);
        let view = DualIncidence::new(&h, None).unwrap();
        let sweep = bfs::double_sweep(ig.graph(), 0);
        if sweep.u == sweep.v {
            continue;
        }
        for policy in [FrontPolicy::SmallerFirst, FrontPolicy::Alternate] {
            let cut = two_front_bfs_with_policy(&view, sweep.u, sweep.v, policy);
            let dec = BoundaryDecomposition::new(&view, &cut);
            for (u, v) in dec.gprime().edges() {
                assert_ne!(dec.side_of(u), dec.side_of(v), "{policy:?}");
            }
            // boundary membership is exactly "has a cross neighbor"
            for v in ig.graph().vertices() {
                let cross = ig
                    .graph()
                    .neighbors(v)
                    .iter()
                    .any(|&w| cut.side_of(w) != cut.side_of(v));
                assert_eq!(dec.gprime_index(v).is_some(), cross);
            }
        }
    }
}

#[test]
fn non_boundary_signals_never_cross_the_final_partition() {
    for h in instances() {
        let ig = IntersectionGraph::build_naive_with_threshold(&h, None);
        let view = DualIncidence::new(&h, None).unwrap();
        let sweep = bfs::double_sweep(ig.graph(), 0);
        let cut = two_front_bfs(&view, sweep.u, sweep.v);
        let dec = BoundaryDecomposition::new(&view, &cut);
        let out = Algorithm1::new(PartitionConfig::new().seed(0))
            .run(&h)
            .expect("valid");
        // with the same seed the driver uses a random start, so re-derive a
        // partition from this specific decomposition instead:
        let completion = complete(CompletionStrategy::MinDegree, &view, &dec);
        let mut placed: Vec<Option<fhp::core::Side>> = dec.partial().to_vec();
        for b in 0..dec.boundary_len() as u32 {
            if completion.is_winner(b) {
                for &p in h.pins(ig.edge_of(dec.g_vertex(b))) {
                    placed[p.index()].get_or_insert(dec.side_of(b));
                }
            }
        }
        // every signal that is (a) non-boundary or (b) a winner has all its
        // *committed* pins on one side
        for v in ig.graph().vertices() {
            let committed_ok = |e: fhp::hypergraph::EdgeId| {
                let sides: std::collections::HashSet<_> = h
                    .pins(e)
                    .iter()
                    .filter_map(|&p| placed[p.index()])
                    .collect();
                sides.len() <= 1
            };
            match dec.gprime_index(v) {
                None => assert!(committed_ok(ig.edge_of(v)), "non-boundary {v} crosses"),
                Some(b) if completion.is_winner(b) => {
                    assert!(committed_ok(ig.edge_of(v)), "winner {v} crosses")
                }
                _ => {}
            }
        }
        let _ = out;
    }
}

#[test]
fn losers_upper_bound_the_boundary_contribution() {
    for h in instances() {
        let out = Algorithm1::new(PartitionConfig::new().starts(4).seed(7))
            .run(&h)
            .expect("valid");
        // cut ≤ losers + filtered edges; with no threshold, cut ≤ |B|
        assert!(
            out.report.cut_size <= out.stats.boundary_len,
            "cut {} vs |B| {}",
            out.report.cut_size,
            out.stats.boundary_len
        );
    }
}

#[test]
fn threshold_score_counts_filtered_edges() {
    // a signal above the threshold has no G-vertex but still counts in the
    // final metric if it crosses
    let h = CircuitNetlist::new(Technology::Pcb, 100, 180)
        .seed(5)
        .generate()
        .unwrap();
    let out = Algorithm1::new(
        PartitionConfig::new()
            .starts(5)
            .edge_size_threshold(Some(8))
            .seed(1),
    )
    .run(&h)
    .expect("valid");
    let direct = metrics::cut_size(&h, &out.bipartition);
    assert_eq!(out.report.cut_size, direct, "report must score all signals");
}

#[test]
fn exact_completion_never_loses_to_greedy_end_to_end() {
    for h in instances() {
        let greedy = Algorithm1::new(
            PartitionConfig::new()
                .starts(5)
                .completion(CompletionStrategy::MinDegree)
                .seed(3),
        )
        .run(&h)
        .expect("valid");
        let exact = Algorithm1::new(
            PartitionConfig::new()
                .starts(5)
                .completion(CompletionStrategy::ExactKonig)
                .seed(3),
        )
        .run(&h)
        .expect("valid");
        // same starts, same cuts in G — the exact completion can only trim
        // losers, though leftover placement may shift a filtered edge; allow
        // equality-or-better within 1
        assert!(
            exact.report.cut_size <= greedy.report.cut_size + 1,
            "exact {} vs greedy {}",
            exact.report.cut_size,
            greedy.report.cut_size
        );
    }
}

#[test]
fn front_policies_agree_on_symmetric_instances() {
    // on a perfectly symmetric dumbbell the two policies find the same cut
    let h = fhp::gen::PlantedBisection::new(40, 70)
        .cut_size(1)
        .seed(2)
        .generate()
        .unwrap();
    for policy in [FrontPolicy::SmallerFirst, FrontPolicy::Alternate] {
        let out = Algorithm1::new(
            PartitionConfig::new()
                .starts(10)
                .front_policy(policy)
                .seed(0),
        )
        .run(h.hypergraph())
        .expect("valid");
        assert_eq!(out.report.cut_size, 1, "{policy:?}");
    }
}

#[test]
fn run_stats_are_coherent() {
    let h = CircuitNetlist::new(Technology::StdCell, 120, 200)
        .seed(8)
        .generate()
        .unwrap();
    let out = Algorithm1::new(PartitionConfig::paper().seed(2))
        .run(&h)
        .expect("valid");
    assert_eq!(out.stats.starts, 50);
    assert!(out.stats.num_g_vertices <= h.num_edges());
    assert!(out.stats.boundary_len <= out.stats.num_g_vertices);
    assert!(out.stats.num_placed_by_partial <= h.num_vertices());
    assert!(!out.stats.used_component_shortcut);
    assert!(!out.stats.used_fallback_split);
    assert!(out.stats.bfs_path_length >= 1);
}
