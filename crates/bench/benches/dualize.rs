//! The dualizer's perf trajectory: wall time and counters on circuit
//! instances, plus the hub-adversary insertion-ratio check, written to
//! `BENCH_dualize.json` at the workspace root.
//!
//! One hard assertion runs even in smoke mode (`--test`, or
//! `FHP_BENCH_SMOKE=1`): on the hub instance (hub modules of degree
//! ≥ 512) the naive pair-spray builder performs ≥ 4× more edge
//! insertions than [`Dualizer`] writes edges — measured by the
//! [`DualizeStats`] counters, not by timing, so the check is exact and
//! machine-independent — and both build the same graph.
//!
//! Smoke mode times one sample of the smallest circuit size so CI stays
//! fast; the full run (`cargo bench -p fhp-bench --bench dualize`) takes
//! the median of several samples per size.

use std::fmt::Write as _;
use std::time::Instant;

use fhp_bench::{bench_instance, hub_instance, SIZES};
use fhp_hypergraph::{DualizeStats, Dualizer, IntersectionGraph};

const HUB_SIGNALS: usize = 512;
const HUB_MODULES: usize = 8;

struct Cell {
    n: usize,
    median_ns: u128,
    stats: DualizeStats,
}

fn median_ns(samples: &mut [u128]) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn time_build(h: &fhp_hypergraph::Hypergraph, samples: usize) -> (u128, DualizeStats) {
    let d = Dualizer::new().threshold(Some(10));
    let mut walls = Vec::with_capacity(samples);
    let mut stats = None;
    for _ in 0..samples {
        let started = Instant::now();
        let ig = d.build(h).expect("bench instance fits u32 ids");
        walls.push(started.elapsed().as_nanos());
        stats = Some(ig.stats().clone());
    }
    (median_ns(&mut walls), stats.expect("at least one sample"))
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test")
        || std::env::var("FHP_BENCH_SMOKE").is_ok_and(|v| v != "0");

    // --- Hub adversary: counter-based insertion-ratio acceptance check ---
    let hub = hub_instance(HUB_SIGNALS, HUB_MODULES);
    let started = Instant::now();
    let kernel = Dualizer::new().build(&hub).expect("fits u32");
    let hub_wall_ns = started.elapsed().as_nanos();
    let naive = IntersectionGraph::build_naive_with_threshold(&hub, None);
    let naive_insertions = naive.stats().pairs_generated;
    let kernel_insertions = kernel.stats().unique_edges;
    assert_eq!(
        naive_insertions,
        kernel.stats().pairs_generated,
        "kernel and naive builder must generate the same pair stream"
    );
    assert_eq!(
        kernel.graph(),
        naive.graph(),
        "hub graphs must be identical"
    );
    let ratio = naive_insertions as f64 / kernel_insertions as f64;
    println!(
        "dualize/hub: naive {naive_insertions} insertions, kernel {kernel_insertions} \
         ({ratio:.1}x fewer), hub degree {HUB_SIGNALS}"
    );
    assert!(
        ratio >= 4.0,
        "acceptance: kernel must insert >= 4x fewer edges than naive on the hub instance \
         (got {ratio:.2}x)"
    );

    // --- Timing grid ---
    let sizes: &[usize] = if smoke { &SIZES[..1] } else { &SIZES };
    let samples = if smoke { 1 } else { 7 };
    let mut cells = Vec::new();
    for &n in sizes {
        let h = bench_instance(n);
        let (ns, stats) = time_build(&h, samples);
        println!(
            "dualize/circuit/{n}  time: {:.2} ms  (pairs {}, merged {}, edges {})",
            ns as f64 / 1e6,
            stats.pairs_generated,
            stats.duplicates_merged,
            stats.unique_edges
        );
        cells.push(Cell {
            n,
            median_ns: ns,
            stats,
        });
    }

    // --- BENCH_dualize.json at the workspace root ---
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"dualize\",");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"threshold\": 10,");
    let _ = writeln!(json, "  \"hub\": {{");
    let _ = writeln!(json, "    \"signals\": {HUB_SIGNALS},");
    let _ = writeln!(json, "    \"hub_modules\": {HUB_MODULES},");
    let _ = writeln!(json, "    \"hub_degree\": {HUB_SIGNALS},");
    let _ = writeln!(json, "    \"naive_insertions\": {naive_insertions},");
    let _ = writeln!(json, "    \"kernel_insertions\": {kernel_insertions},");
    let _ = writeln!(json, "    \"insertion_ratio\": {ratio:.3},");
    let _ = writeln!(json, "    \"kernel_wall_ns\": {hub_wall_ns}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"circuit\": [");
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 < cells.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"signals\": {}, \"median_wall_ns\": {}, \
             \"pairs_generated\": {}, \"duplicates_merged\": {}, \"unique_edges\": {}, \
             \"kept_edges\": {}, \"filtered_edges\": {}}}{comma}",
            c.n,
            c.median_ns,
            c.stats.pairs_generated,
            c.stats.duplicates_merged,
            c.stats.unique_edges,
            c.stats.kept_edges,
            c.stats.filtered_edges,
        );
    }
    json.push_str("  ]\n}\n");

    let out = std::env::var("FHP_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dualize.json").to_string()
    });
    std::fs::write(&out, &json).expect("can write BENCH_dualize.json");
    println!("wrote {out}");
}
