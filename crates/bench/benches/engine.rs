//! Incremental engine vs from-scratch recompute: single-net edit latency
//! on the std-cell scaling profile, swept over instance tiers and written
//! to `BENCH_engine.json` at the workspace root.
//!
//! Every tier (10^4, 10^5 and 10^6 signals; 2·10^3 and 10^4 in smoke)
//! loads an engine at the default damage threshold and replays the same
//! deterministic add/remove edit script, timing each edit; every edit
//! must repair incrementally. An engine's edit latency is half its
//! median add/remove round. The headline tier (10^5; 2·10^3 in smoke)
//! is also replayed on an engine with the threshold forced to zero
//! permille (every edit is a full Algorithm I recompute — the fallback
//! path, deliberately exercised and counted), and the headline number is
//! the ratio of the two median edit latencies. The tier medians show how
//! an incremental edit's cost grows with the instance.
//!
//! Hard assertions run even in smoke mode (`--test`, or
//! `FHP_BENCH_SMOKE=1`):
//!
//! - every edit on a default engine takes the incremental path and
//!   every edit on the zero-threshold engine takes the full path, with
//!   `EngineStats` counting both exactly;
//! - the full edit history fingerprints identically at 1, 2 and 8
//!   worker threads.
//!
//! Two acceptance gates are asserted in the full run only (`cargo bench
//! -p fhp-bench --bench engine`) — smoke instances are too small for
//! either to show reliably: incremental single-net edits are at least 5×
//! faster than full recompute at the 10^5 tier, and the median
//! incremental edit at 10^6 signals costs at most 5× the one at 10^4. An
//! edit does constant work at every tier; what grows is the cache misses
//! on 100× larger arrays.

use std::fmt::Write as _;
use std::time::Instant;

use fhp_core::{Edit, EngineConfig, EngineStats, PartitionConfig, PartitionEngine, RepairKind};
use fhp_gen::scaling_instance;
use fhp_hypergraph::Hypergraph;

const SEED: u64 = 42;
const SPEEDUP_FLOOR: f64 = 5.0;
/// Largest allowed ratio of the median incremental edit at the largest
/// tier to the one at the smallest (full run only).
const TIER_GROWTH_CEILING: f64 = 5.0;

/// The per-edit latency statistic: half the median add/remove round of
/// the script. An incremental remove costs a fraction of an add, so the
/// median of single edits would sit on the edge between the two clusters
/// and jump between them from run to run.
fn median_edit_ns(walls: &[u128]) -> u128 {
    let mut rounds: Vec<u128> = walls
        .chunks(2)
        .map(|round| round.iter().sum::<u128>() / 2)
        .collect();
    rounds.sort_unstable();
    rounds[rounds.len() / 2]
}

fn config(damage_permille: u32, threads: usize) -> EngineConfig {
    EngineConfig::new()
        .partition(PartitionConfig::new().starts(4).seed(SEED).threads(threads))
        .damage_permille(damage_permille)
}

/// The deterministic single-net edit script: `pairs` rounds of add-net /
/// remove-net against distinct module pairs. Net ids are stable and never
/// reused, so the removal ids are computable up front.
fn edit_script(h: &Hypergraph, pairs: usize) -> Vec<Edit> {
    let modules = h.num_vertices() as u64;
    let base = h.num_edges() as u32;
    let mut script = Vec::with_capacity(pairs * 2);
    for i in 0..pairs as u64 {
        let a = (i.wrapping_mul(7919)) % modules;
        let mut b = (i.wrapping_mul(104_729).wrapping_add(1)) % modules;
        if b == a {
            b = (b + 1) % modules;
        }
        script.push(Edit::AddNet {
            pins: vec![a as u32, b as u32], // fhp-audit: allow(as-cast-truncation) — module count is far below u32::MAX
            weight: 1,
        });
        script.push(Edit::RemoveNet {
            net: base + i as u32, // fhp-audit: allow(as-cast-truncation) — pairs is a small constant
        });
    }
    script
}

/// Replays the script, timing each `apply`; returns the per-edit wall
/// times and the observed repair kinds.
fn replay(engine: &mut PartitionEngine, script: &[Edit]) -> (Vec<u128>, Vec<RepairKind>) {
    let mut walls = Vec::with_capacity(script.len());
    let mut repairs = Vec::with_capacity(script.len());
    for edit in script {
        let started = Instant::now();
        let delta = engine.apply(edit).expect("bench edits are valid");
        walls.push(started.elapsed().as_nanos());
        repairs.push(delta.repair);
    }
    (walls, repairs)
}

/// One tier of the sweep: an engine loaded at the default threshold and
/// the incremental edit timings measured on it.
struct Tier {
    signals: usize,
    modules: usize,
    load_cut: u64,
    load_ns: u128,
    stats: EngineStats,
    incr_ns: u128,
}

/// Loads a default-threshold engine on the `signals` tier and replays
/// `pairs` add/remove rounds, asserting that every edit stays on the
/// incremental path.
fn measure_tier(signals: usize, pairs: usize) -> Tier {
    let h = scaling_instance(signals, SEED).expect("scaling instance generates");
    let mut engine = PartitionEngine::new(config(250, 2));
    let started = Instant::now();
    let loaded = engine.load(&h).expect("instance loads");
    let load_ns = started.elapsed().as_nanos();
    let script = edit_script(&h, pairs);
    let (walls, repairs) = replay(&mut engine, &script);
    assert!(
        repairs.iter().all(|&r| r == RepairKind::Incremental),
        "default threshold must keep single-net edits on the incremental path \
         at {signals} signals: {repairs:?}"
    );
    let stats = engine.stats();
    assert_eq!(stats.edits, script.len() as u64);
    assert_eq!(stats.incremental_hits, script.len() as u64);
    assert_eq!(stats.full_recomputes, 0);
    let incr_ns = median_edit_ns(&walls);
    println!(
        "engine/tier {}: {} modules, load cut {} in {:.2} ms, incremental median {:.4} ms over {} edits",
        h.num_edges(),
        h.num_vertices(),
        loaded.cut_after,
        load_ns as f64 / 1e6,
        incr_ns as f64 / 1e6,
        stats.edits
    );
    Tier {
        signals: h.num_edges(),
        modules: h.num_vertices(),
        load_cut: loaded.cut_after,
        load_ns,
        stats,
        incr_ns,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test")
        || std::env::var("FHP_BENCH_SMOKE").is_ok_and(|v| v != "0");
    let signals = if smoke { 2_000 } else { 100_000 };
    let tier_signals: &[usize] = if smoke {
        &[2_000, 10_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let incr_pairs = if smoke { 12 } else { 50 };
    let full_pairs = if smoke { 4 } else { 3 };

    // --- Determinism: the whole edit history fingerprints identically
    //     across thread counts (run on a reduced instance so the check
    //     stays cheap at the full tier too). ---
    let h_small = scaling_instance(2_000, SEED).expect("valid");
    let inv_script = edit_script(&h_small, 6);
    let mut fps = Vec::new();
    for threads in [1usize, 2, 8] {
        let mut e = PartitionEngine::new(config(250, threads));
        e.load(&h_small).expect("loads");
        for edit in &inv_script {
            e.apply(edit).expect("applies");
        }
        fps.push(e.fingerprint());
    }
    assert!(
        fps.windows(2).all(|w| w[0] == w[1]),
        "edit-history fingerprints differ across thread counts: {fps:?}"
    );
    println!("engine/invariance: edit history fingerprints identical across threads [1, 2, 8]");

    // --- Incremental engines: default damage threshold, one per tier. ---
    let tiers: Vec<Tier> = tier_signals
        .iter()
        .map(|&n| measure_tier(n, incr_pairs))
        .collect();
    let head = tiers
        .iter()
        .find(|t| t.signals == signals)
        .expect("the headline tier is part of the sweep");
    let (smallest, largest) = (&tiers[0], &tiers[tiers.len() - 1]);
    let growth = largest.incr_ns as f64 / smallest.incr_ns.max(1) as f64;
    println!(
        "engine/tiers: median incremental edit {growth:.2}x from {} to {} signals",
        smallest.signals, largest.signals
    );
    if !smoke {
        assert!(
            growth <= TIER_GROWTH_CEILING,
            "acceptance: the median incremental edit at {} signals must cost at most \
             {TIER_GROWTH_CEILING}x the one at {} signals, measured {growth:.2}x",
            largest.signals,
            smallest.signals
        );
    }

    // --- Fallback engine: zero threshold forces a full recompute per
    //     edit, which is exactly the from-scratch cost being compared. ---
    let h = scaling_instance(signals, SEED).expect("scaling instance generates");
    let mut full = PartitionEngine::new(config(0, 2));
    full.load(&h).expect("instance loads");
    let full_script = edit_script(&h, full_pairs);
    let (full_walls, full_repairs) = replay(&mut full, &full_script);
    assert!(
        full_repairs.iter().all(|&r| r == RepairKind::Full),
        "zero threshold must force the full path: {full_repairs:?}"
    );
    let fstats = full.stats();
    assert_eq!(fstats.edits, full_script.len() as u64);
    assert_eq!(fstats.full_recomputes, full_script.len() as u64);
    assert_eq!(fstats.incremental_hits, 0);
    let full_ns = median_edit_ns(&full_walls);

    let incr_ns = head.incr_ns;
    let speedup = full_ns as f64 / (incr_ns.max(1)) as f64;
    println!(
        "engine/edit: incremental median {:.4} ms, full-recompute median {:.2} ms ({speedup:.1}x)",
        incr_ns as f64 / 1e6,
        full_ns as f64 / 1e6
    );
    if !smoke {
        assert!(
            speedup >= SPEEDUP_FLOOR,
            "acceptance: incremental single-net edits must be at least {SPEEDUP_FLOOR}x \
             faster than full recompute at the 10^5 tier, measured {speedup:.1}x"
        );
    }

    // --- BENCH_engine.json at the workspace root ---
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"engine\",");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let _ = writeln!(json, "  \"signals\": {},", head.signals);
    let _ = writeln!(json, "  \"modules\": {},", head.modules);
    let _ = writeln!(json, "  \"load_cut\": {},", head.load_cut);
    let _ = writeln!(json, "  \"edits\": {},", head.stats.edits);
    let _ = writeln!(
        json,
        "  \"incremental_hits\": {},",
        head.stats.incremental_hits
    );
    let _ = writeln!(json, "  \"full_recomputes\": {},", fstats.full_recomputes);
    let _ = writeln!(json, "  \"load_wall_ns\": {},", head.load_ns);
    let _ = writeln!(json, "  \"incr_edit_wall_ns\": {incr_ns},");
    let _ = writeln!(json, "  \"full_edit_wall_ns\": {full_ns},");
    let _ = writeln!(json, "  \"speedup_ratio\": {speedup:.3},");
    let _ = writeln!(json, "  \"tier_growth_ratio\": {growth:.3},");
    let _ = writeln!(json, "  \"tiers\": [");
    for (i, t) in tiers.iter().enumerate() {
        let sep = if i + 1 < tiers.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"signals\": {}, \"modules\": {}, \"edits\": {}, \"incremental_hits\": {}, \"incr_edit_wall_ns\": {}}}{sep}",
            t.signals, t.modules, t.stats.edits, t.stats.incremental_hits, t.incr_ns
        );
    }
    json.push_str("  ]\n");
    json.push_str("}\n");

    let out = std::env::var("FHP_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json").to_string()
    });
    std::fs::write(&out, &json).expect("can write BENCH_engine.json");
    println!("wrote {out}");
}
