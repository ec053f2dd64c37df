//! Cross-crate composition tests: the utility modules working together
//! the way a downstream placement/partitioning flow would use them —
//! clustering → contraction → partition → projection → FM refinement,
//! k-way decomposition feeding placement, and the `.hgr` interchange
//! format round-tripping through the whole pipeline.

use fhp::baselines::Refined;
use fhp::core::multiway::recursive_bisection;
use fhp::core::{metrics, refine, Algorithm1, Bipartition, Bipartitioner, PartitionConfig};
use fhp::gen::{CircuitNetlist, Technology};
use fhp::hypergraph::contract::{heavy_pair_clustering, Contraction};
use fhp::hypergraph::{hgr, Netlist};
use fhp::place::{wirelength, MinCutPlacer, SlotGrid};

fn instance(seed: u64) -> fhp::hypergraph::Hypergraph {
    CircuitNetlist::new(Technology::StdCell, 150, 260)
        .seed(seed)
        .generate()
        .expect("static config")
}

#[test]
fn cluster_partition_project_refine_pipeline() {
    let h = instance(1);
    // 1. cluster and contract
    let clusters = heavy_pair_clustering(&h, 8);
    let c = Contraction::contract(&h, &clusters);
    assert!(c.coarse().num_vertices() < h.num_vertices());
    // 2. partition the coarse hypergraph
    let coarse_bp = Algorithm1::new(PartitionConfig::paper().seed(0))
        .bipartition(c.coarse())
        .expect("coarse instance is valid");
    // 3. project to the fine hypergraph
    let fine = Bipartition::from_sides(c.project(coarse_bp.as_slice()));
    assert!(fine.is_valid_cut());
    // internal consistency: the projected cut counts exactly the coarse
    // crossing weight (merged parallel edges expand back out)
    let coarse_cut = metrics::weighted_cut(c.coarse(), &coarse_bp);
    let fine_cut = metrics::weighted_cut(&h, &fine);
    assert_eq!(fine_cut, coarse_cut, "projection changed the cut weight");
    // 4. FM refinement can only improve
    let refined = refine::refine(&h, fine.clone());
    assert!(metrics::weighted_cut(&h, &refined) <= fine_cut);
}

#[test]
fn clustered_flow_is_competitive_with_flat() {
    let h = instance(2);
    let flat = Algorithm1::new(PartitionConfig::paper().seed(0))
        .bipartition(&h)
        .expect("valid");
    let clusters = heavy_pair_clustering(&h, 8);
    let c = Contraction::contract(&h, &clusters);
    let coarse_bp = Algorithm1::new(PartitionConfig::paper().seed(0))
        .bipartition(c.coarse())
        .expect("valid");
    let projected = Bipartition::from_sides(c.project(coarse_bp.as_slice()));
    let refined = refine::refine(&h, projected);
    // clustering + refinement should land in the same quality league
    assert!(
        metrics::cut_size(&h, &refined) <= 2 * metrics::cut_size(&h, &flat) + 4,
        "clustered {} vs flat {}",
        metrics::cut_size(&h, &refined),
        metrics::cut_size(&h, &flat)
    );
}

#[test]
fn hybrid_refined_partitioner_end_to_end() {
    let h = instance(3);
    let raw = Algorithm1::new(PartitionConfig::paper().seed(3))
        .bipartition(&h)
        .expect("valid");
    let hybrid = Refined::alg1(PartitionConfig::paper(), 3)
        .bipartition(&h)
        .expect("valid");
    assert!(metrics::cut_size(&h, &hybrid) <= metrics::cut_size(&h, &raw));
    assert!(hybrid.is_valid_cut());
}

#[test]
fn multiway_blocks_feed_row_placement() {
    let h = instance(4);
    // 4-way decomposition, then place each block's share of a row — the
    // multi-board flow in miniature
    let mp = recursive_bisection(&h, 4, |r| {
        Box::new(Algorithm1::new(PartitionConfig::new().starts(4).seed(r)))
    })
    .expect("valid");
    assert_eq!(mp.block_sizes().iter().sum::<usize>(), h.num_vertices());
    // full placement for comparison
    let placer = MinCutPlacer::new(|r| {
        Box::new(Algorithm1::new(PartitionConfig::new().starts(4).seed(r)))
            as Box<dyn Bipartitioner>
    });
    let placement = placer
        .place(&h, SlotGrid::row(h.num_vertices()))
        .expect("fits");
    // blocks should be spatially coherent: mean intra-block column spread
    // far below the row width
    let width = h.num_vertices() as f64;
    for b in 0..4u32 {
        let cols: Vec<f64> = h
            .vertices()
            .filter(|&v| mp.block_of(v) == b)
            .map(|v| placement.slot_of(v).col as f64)
            .collect();
        assert!(!cols.is_empty());
        let mean = cols.iter().sum::<f64>() / cols.len() as f64;
        let spread = cols.iter().map(|c| (c - mean).abs()).sum::<f64>() / cols.len() as f64;
        assert!(spread < width, "degenerate spread");
    }
    let _ = wirelength::total_hpwl(&h, &placement);
}

#[test]
fn hgr_round_trip_through_partitioning() {
    let h = instance(5);
    let text = hgr::write_hgr(&h);
    let back = hgr::parse_hgr(&text).expect("own output parses");
    assert_eq!(back, h);
    // partitioning the re-parsed instance gives the identical cut
    let a = Algorithm1::new(PartitionConfig::paper().seed(1))
        .bipartition(&h)
        .expect("valid");
    let b = Algorithm1::new(PartitionConfig::paper().seed(1))
        .bipartition(&back)
        .expect("valid");
    assert_eq!(a, b);
}

#[test]
fn netlist_names_survive_hgr_import() {
    let h = instance(6);
    let nl = Netlist::from_hypergraph(h);
    assert_eq!(nl.module_name(fhp::hypergraph::VertexId::new(0)), "m1");
    assert_eq!(
        nl.module_id("m150"),
        Some(fhp::hypergraph::VertexId::new(149))
    );
    assert_eq!(
        nl.signal_id("n260"),
        Some(fhp::hypergraph::EdgeId::new(259))
    );
    // the generated names round-trip through the text format (module ids
    // are assigned by first mention, so compare by name, not by id)
    let reparsed = Netlist::parse(&nl.to_text()).expect("valid text");
    assert_eq!(
        reparsed.hypergraph().num_vertices(),
        nl.hypergraph().num_vertices()
    );
    assert_eq!(
        reparsed.hypergraph().num_edges(),
        nl.hypergraph().num_edges()
    );
    for e in nl.hypergraph().edges() {
        let original: std::collections::BTreeSet<&str> = nl
            .hypergraph()
            .pins(e)
            .iter()
            .map(|&p| nl.module_name(p))
            .collect();
        let round: std::collections::BTreeSet<&str> = reparsed
            .hypergraph()
            .pins(e)
            .iter()
            .map(|&p| reparsed.module_name(p))
            .collect();
        assert_eq!(original, round, "signal {e}");
    }
}
