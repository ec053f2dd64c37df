//! The million-edge scaling family: dualization and the
//! zero-allocation multi-start engine on [`fhp_gen::scaling_instance`]
//! workloads at 10^5 / 10^6 / 10^7 signals, written to
//! `BENCH_scaling.json` at the workspace root. The `inmem_wall_ns` key
//! times [`Dualizer::build`] directly: Algorithm I reads `G` off the
//! incidence lists and never runs it.
//!
//! One hard assertion runs on every tier, even in smoke mode (`--test`,
//! or `FHP_BENCH_SMOKE=1`): Algorithm 1 produces equal
//! [`OutcomeFingerprint`]s, and reads as many ids in its BFSs and its
//! sweeps (`bfs_ids_read`, `sweep_ids_read`), at 1, 2 and 8 threads.
//!
//! Smoke mode covers the 10^5 tier only so CI stays under its bench
//! budget; the full run (`cargo bench -p fhp-bench --bench scaling`)
//! adds 10^6, and `FHP_BENCH_XL=1` adds the 10^7 tier.

use std::fmt::Write as _;
use std::time::Instant;

use fhp_core::{Algorithm1, PartitionConfig, PartitionOutcome};
use fhp_gen::{scaling_instance, SCALING_TIERS};
use fhp_hypergraph::{DualizeStats, Dualizer, Hypergraph};

const THREADS: [usize; 3] = [1, 2, 8];
const THRESHOLD: usize = 10;
const STARTS: usize = 2;
const SEED: u64 = 1;

struct Tier {
    signals: usize,
    modules: usize,
    pins: usize,
    gen_wall_ns: u128,
    inmem: DualizeStats,
    inmem_wall_ns: u128,
    alg1_wall_ns: Vec<u128>,
    cut_size: usize,
    chosen_start: Option<usize>,
    bfs_ids_read: u64,
    sweep_ids_read: u64,
}

fn run_alg1(h: &Hypergraph, threads: usize) -> PartitionOutcome {
    let config = PartitionConfig::new()
        .starts(STARTS)
        .seed(SEED)
        .threads(threads)
        .edge_size_threshold(Some(THRESHOLD));
    Algorithm1::new(config)
        .run(h)
        .expect("tier instance is valid")
}

fn measure_tier(signals: usize) -> Tier {
    let started = Instant::now();
    let h = scaling_instance(signals, 42).expect("tier config is valid");
    let gen_wall_ns = started.elapsed().as_nanos();
    assert_eq!(h.num_edges(), signals);

    let started = Instant::now();
    let inmem = Dualizer::new()
        .threshold(Some(THRESHOLD))
        .build(&h)
        .expect("fits u32 ids");
    let inmem_wall_ns = started.elapsed().as_nanos();

    // Algorithm 1 end to end: the fingerprint is thread-invariant.
    let mut alg1_wall_ns = Vec::new();
    let mut first: Option<PartitionOutcome> = None;
    for &t in &THREADS {
        let started = Instant::now();
        let out = run_alg1(&h, t);
        alg1_wall_ns.push(started.elapsed().as_nanos());
        if let Some(f) = &first {
            assert_eq!(
                out.fingerprint(),
                f.fingerprint(),
                "alg1 at threads = {t} diverged from threads = {}",
                THREADS[0]
            );
            assert_eq!(
                (out.stats.bfs_ids_read, out.stats.sweep_ids_read),
                (f.stats.bfs_ids_read, f.stats.sweep_ids_read),
                "alg1 at threads = {t} read other ids than at threads = {}",
                THREADS[0]
            );
        }
        first.get_or_insert(out);
    }
    let out = first.expect("THREADS is non-empty");
    println!(
        "scaling/{signals}: pairs {}, edges {}, cut {}",
        inmem.stats().pairs_generated,
        inmem.stats().unique_edges,
        out.report.cut_size
    );

    Tier {
        signals,
        modules: h.num_vertices(),
        pins: h.num_pins(),
        gen_wall_ns,
        inmem: inmem.stats().clone(),
        inmem_wall_ns,
        alg1_wall_ns,
        cut_size: out.report.cut_size,
        chosen_start: out.stats.chosen_start,
        bfs_ids_read: out.stats.bfs_ids_read,
        sweep_ids_read: out.stats.sweep_ids_read,
    }
}

fn json_list(walls: &[u128]) -> String {
    let items: Vec<String> = walls.iter().map(|w| w.to_string()).collect();
    format!("[{}]", items.join(", "))
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test")
        || std::env::var("FHP_BENCH_SMOKE").is_ok_and(|v| v != "0");
    let xl = std::env::var("FHP_BENCH_XL").is_ok_and(|v| v != "0");

    let tiers: &[usize] = if smoke {
        &SCALING_TIERS[..1]
    } else if xl {
        &SCALING_TIERS
    } else {
        // The 10^7 tier takes minutes and gigabytes; opt in with
        // FHP_BENCH_XL=1.
        &SCALING_TIERS[..2]
    };

    let cells: Vec<Tier> = tiers.iter().map(|&n| measure_tier(n)).collect();

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"scaling\",");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"threshold\": {THRESHOLD},");
    let _ = writeln!(json, "  \"starts\": {STARTS},");
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let _ = writeln!(json, "  \"threads\": [1, 2, 8],");
    let _ = writeln!(json, "  \"tiers\": [");
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 < cells.len() { "," } else { "" };
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"signals\": {},", c.signals);
        let _ = writeln!(json, "      \"modules\": {},", c.modules);
        let _ = writeln!(json, "      \"pins\": {},", c.pins);
        let _ = writeln!(json, "      \"gen_wall_ns\": {},", c.gen_wall_ns);
        let _ = writeln!(
            json,
            "      \"pairs_generated\": {},",
            c.inmem.pairs_generated
        );
        let _ = writeln!(json, "      \"unique_edges\": {},", c.inmem.unique_edges);
        let _ = writeln!(json, "      \"inmem_wall_ns\": {},", c.inmem_wall_ns);
        let _ = writeln!(
            json,
            "      \"alg1_wall_ns\": {},",
            json_list(&c.alg1_wall_ns)
        );
        let _ = writeln!(json, "      \"cut_size\": {},", c.cut_size);
        let _ = writeln!(json, "      \"bfs_ids_read\": {},", c.bfs_ids_read);
        let _ = writeln!(json, "      \"sweep_ids_read\": {},", c.sweep_ids_read);
        let _ = writeln!(
            json,
            "      \"chosen_start\": {}",
            c.chosen_start.map_or("null".to_string(), |s| s.to_string())
        );
        let _ = writeln!(json, "    }}{comma}");
    }
    json.push_str("  ]\n}\n");

    let out = std::env::var("FHP_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scaling.json").to_string()
    });
    std::fs::write(&out, &json).expect("can write BENCH_scaling.json");
    println!("wrote {out}");
}
