//! The million-edge scaling family: pair-capped ("streaming")
//! dualization and the zero-allocation multi-start engine on
//! [`fhp_gen::scaling_instance`] workloads at 10^5 / 10^6 / 10^7
//! signals, written to `BENCH_scaling.json` at the workspace root. The
//! `inmem_*` keys describe the uncapped single-pass build, the
//! `streaming_*` keys the capped multi-pass build of the same kernel.
//!
//! Hard assertions run on every tier, even in smoke mode (`--test`, or
//! `FHP_BENCH_SMOKE=1`):
//!
//! - the dualizer capped at `pairs_generated / 16` builds a graph
//!   (adjacency, weights, multiplicities) bit-identical to the uncapped
//!   build at every thread count — the cap is real memory pressure, not
//!   slack: the uncapped peak pair buffer exceeds it by at least 10×;
//! - the capped peak pair buffer never exceeds the configured cap;
//! - Algorithm 1 running entirely over the capped dualizer produces
//!   equal [`OutcomeFingerprint`]s at 1, 2 and 8 threads, equal to the
//!   uncapped run's fingerprint.
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
/// The uncapped build holds the whole pair stream; the cap is set this
/// many times smaller, so the bounded buffer is exercised for real (and
/// the ≥ 10× pressure assertion has 6× headroom).
const CAP_RATIO: u64 = 16;

struct Tier {
    signals: usize,
    modules: usize,
    pins: usize,
    gen_wall_ns: u128,
    inmem: DualizeStats,
    inmem_wall_ns: u128,
    pair_cap: u64,
    streaming: DualizeStats,
    streaming_wall_ns: Vec<u128>,
    alg1_wall_ns: Vec<u128>,
    cut_size: usize,
    chosen_start: Option<usize>,
}

fn run_alg1(h: &Hypergraph, threads: usize, pair_cap: Option<usize>) -> PartitionOutcome {
    let mut config = PartitionConfig::new()
        .starts(STARTS)
        .seed(SEED)
        .threads(threads)
        .edge_size_threshold(Some(THRESHOLD));
    if pair_cap.is_some() {
        config = config.streaming_dualize(true).pair_cap(pair_cap);
    }
    Algorithm1::new(config)
        .run(h)
        .expect("tier instance is valid")
}

fn measure_tier(signals: usize) -> Tier {
    let started = Instant::now();
    let h = scaling_instance(signals, 42).expect("tier config is valid");
    let gen_wall_ns = started.elapsed().as_nanos();
    assert_eq!(h.num_edges(), signals);

    // Reference build: uncapped, the kernel materializes the entire pair
    // stream in one pass, so its peak pair buffer is the pair count itself.
    let started = Instant::now();
    let inmem = Dualizer::new()
        .threshold(Some(THRESHOLD))
        .threads(2)
        .build(&h)
        .expect("fits u32 ids");
    let inmem_wall_ns = started.elapsed().as_nanos();
    let pairs = inmem.stats().pairs_generated;
    let pair_cap = (pairs / CAP_RATIO).max(1);
    assert!(
        inmem.stats().peak_pair_buffer >= 10 * pair_cap,
        "acceptance: the cap must represent >= 10x memory pressure on the uncapped \
         build (peak {}, cap {pair_cap})",
        inmem.stats().peak_pair_buffer
    );

    // Capped build at every thread count: identical graph, bounded
    // buffer.
    let mut streaming = None;
    let mut streaming_wall_ns = Vec::new();
    for &t in &THREADS {
        let started = Instant::now();
        let ig = Dualizer::new()
            .threshold(Some(THRESHOLD))
            .threads(t)
            .pair_cap(Some(pair_cap as usize))
            .build(&h)
            .expect("fits u32 ids");
        streaming_wall_ns.push(started.elapsed().as_nanos());
        assert!(
            ig.stats().peak_pair_buffer <= pair_cap,
            "capped peak pair buffer {} exceeds the cap {pair_cap} at threads = {t}",
            ig.stats().peak_pair_buffer
        );
        assert_eq!(
            ig.graph(),
            inmem.graph(),
            "capped graph differs from the uncapped build at threads = {t}"
        );
        for g in inmem.graph().vertices() {
            assert_eq!(
                ig.multiplicities_of(g),
                inmem.multiplicities_of(g),
                "capped multiplicities of {g} differ at threads = {t}"
            );
        }
        streaming = Some(ig.stats().clone());
    }
    let streaming = streaming.expect("THREADS is non-empty");

    // Algorithm 1 end to end over the capped dualizer: the fingerprint is
    // thread-invariant and equal to the uncapped run.
    let inmem_outcome = run_alg1(&h, 2, None);
    let mut alg1_wall_ns = Vec::new();
    let mut first = None;
    for &t in &THREADS {
        let started = Instant::now();
        let out = run_alg1(&h, t, Some(pair_cap as usize));
        alg1_wall_ns.push(started.elapsed().as_nanos());
        assert_eq!(
            out.fingerprint(),
            inmem_outcome.fingerprint(),
            "capped alg1 at threads = {t} diverged from the uncapped run"
        );
        first.get_or_insert(out);
    }
    let out = first.expect("THREADS is non-empty");
    println!(
        "scaling/{signals}: pairs {pairs}, cap {pair_cap}, streaming passes {}, \
         spilled {} bytes, cut {}",
        streaming.passes, streaming.bytes_spilled, out.report.cut_size
    );

    Tier {
        signals,
        modules: h.num_vertices(),
        pins: h.num_pins(),
        gen_wall_ns,
        inmem: inmem.stats().clone(),
        inmem_wall_ns,
        pair_cap,
        streaming,
        streaming_wall_ns,
        alg1_wall_ns,
        cut_size: out.report.cut_size,
        chosen_start: out.stats.chosen_start,
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
    let _ = writeln!(json, "  \"cap_ratio\": {CAP_RATIO},");
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
        let _ = writeln!(json, "      \"pair_cap\": {},", c.pair_cap);
        let _ = writeln!(
            json,
            "      \"inmem_peak_pair_buffer\": {},",
            c.inmem.peak_pair_buffer
        );
        let _ = writeln!(json, "      \"inmem_wall_ns\": {},", c.inmem_wall_ns);
        let _ = writeln!(
            json,
            "      \"streaming_peak_pair_buffer\": {},",
            c.streaming.peak_pair_buffer
        );
        let _ = writeln!(json, "      \"streaming_passes\": {},", c.streaming.passes);
        let _ = writeln!(
            json,
            "      \"streaming_bytes_spilled\": {},",
            c.streaming.bytes_spilled
        );
        let _ = writeln!(
            json,
            "      \"streaming_wall_ns\": {},",
            json_list(&c.streaming_wall_ns)
        );
        let _ = writeln!(
            json,
            "      \"alg1_wall_ns\": {},",
            json_list(&c.alg1_wall_ns)
        );
        let _ = writeln!(json, "      \"cut_size\": {},", c.cut_size);
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
