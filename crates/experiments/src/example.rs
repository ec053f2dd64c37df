//! The worked example of §2 (Figures 1–4), traced end to end.
//!
//! The published scan's netlist listing is too garbled to transcribe
//! exactly (see DESIGN.md), so the bundled reconstruction keeps the
//! paper's shape: 12 modules, signals `a…`, a long intersection-graph
//! path, a small boundary set, and a final cut of size 2. Every
//! intermediate object the paper names — the intersection graph, the
//! boundary set, the bipartite boundary graph, winners and losers — is
//! printed.

use fhp_core::boundary::BoundaryDecomposition;
use fhp_core::complete_cut::{complete, CompletionStrategy};
use fhp_core::dual_bfs::two_front_bfs;
use fhp_core::{Algorithm1, PartitionConfig, Side};
use fhp_hypergraph::bfs;
use fhp_hypergraph::intersection::paper_example;
use fhp_hypergraph::{DualIncidence, IntersectionGraph};

use crate::util::banner;

pub fn run(_quick: bool) {
    banner("Worked example (paper section 2, figures 1-4)");
    let h = paper_example();
    let signal = |g: u32| (b'a' + g as u8) as char;

    println!(
        "netlist ({} modules, {} signals):",
        h.num_vertices(),
        h.num_edges()
    );
    for e in h.edges() {
        let pins: Vec<String> = h
            .pins(e)
            .iter()
            .map(|p| (p.index() + 1).to_string())
            .collect();
        println!("  {}: {}", signal(e.index() as u32), pins.join(","));
    }

    let ig = IntersectionGraph::build(&h);
    let g = ig.graph();
    println!("\nintersection graph G (adjacency):");
    for v in g.vertices() {
        let ns: Vec<String> = g
            .neighbors(v)
            .iter()
            .map(|&u| signal(u).to_string())
            .collect();
        println!("  {} - {}", signal(v), ns.join(" "));
    }
    let ds = ig.stats();
    println!(
        "dualization: {} pairs generated, {} duplicates merged, {} G-edges",
        ds.pairs_generated, ds.duplicates_merged, ds.unique_edges
    );

    let sweep = bfs::double_sweep(g, 0);
    println!(
        "\nlongest BFS path: {} .. {} (length {})",
        signal(sweep.u),
        signal(sweep.v),
        sweep.length
    );

    // fhp-audit: allow(panic-site) — the paper example's 9 signals fit u32 G ids
    let view = DualIncidence::new(&h, None).expect("the example's 9 signals fit u32 ids");
    let cut = two_front_bfs(&view, sweep.u, sweep.v);
    let dec = BoundaryDecomposition::new(&view, &cut);
    let fmt_set = |side: Side| {
        g.vertices()
            .filter(|&v| cut.side_of(v) == side)
            .map(|v| signal(v).to_string())
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "G-cut: left = {{{}}}, right = {{{}}}",
        fmt_set(Side::Left),
        fmt_set(Side::Right)
    );
    let boundary: Vec<String> = dec
        .boundary_g_vertices()
        .iter()
        .map(|&v| signal(v).to_string())
        .collect();
    println!("boundary set B = {{{}}}", boundary.join(" "));

    let completion = complete(CompletionStrategy::MinDegree, &view, &dec);
    let winners: Vec<String> = (0..dec.boundary_len() as u32)
        .filter(|&b| completion.is_winner(b))
        .map(|b| signal(dec.g_vertex(b)).to_string())
        .collect();
    let losers: Vec<String> = (0..dec.boundary_len() as u32)
        .filter(|&b| !completion.is_winner(b))
        .map(|b| signal(dec.g_vertex(b)).to_string())
        .collect();
    println!(
        "winners = {{{}}}, losers = {{{}}}",
        winners.join(" "),
        losers.join(" ")
    );

    let out = Algorithm1::new(PartitionConfig::new().starts(10))
        .run(&h)
        .expect("example is valid");
    let modules = |side: Side| {
        out.bipartition
            .vertices_on(side)
            .iter()
            .map(|v| (v.index() + 1).to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    println!(
        "\nfinal partition: ({}) vs ({})",
        modules(Side::Left),
        modules(Side::Right)
    );
    let crossing: Vec<String> = fhp_core::metrics::crossing_edges(&h, &out.bipartition)
        .iter()
        .map(|e| signal(e.index() as u32).to_string())
        .collect();
    println!(
        "crossing signals: {{{}}} -> cutsize {}",
        crossing.join(" "),
        out.report.cut_size
    );
    println!("(paper's example likewise ends with exactly 2 crossing signals)");
}
