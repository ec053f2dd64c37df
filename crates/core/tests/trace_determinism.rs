//! The trace determinism contract, end to end: running Algorithm I with an
//! enabled collector must produce the identical merged event sequence —
//! modulo the explicitly volatile fields (`start_ns`, `dur_ns`, `thread`) —
//! for every worker-thread count.

use fhp_core::runner::run_starts_arena;
use fhp_core::{Algorithm1, PartitionConfig};
use fhp_hypergraph::{HypergraphBuilder, VertexId};
use fhp_obs::{canonical_line, names, order, Collector};

/// A ~60-module, 90-signal pseudo-random netlist (tiny LCG, fixed seed) —
/// big enough that the multi-start engine genuinely interleaves workers.
fn instance() -> fhp_hypergraph::Hypergraph {
    let mut b = HypergraphBuilder::with_vertices(60);
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move |bound: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as usize) % bound
    };
    for _ in 0..90 {
        let size = 2 + next(4);
        let mut pins = Vec::with_capacity(size);
        while pins.len() < size {
            let v = VertexId::new(next(60));
            if !pins.contains(&v) {
                pins.push(v);
            }
        }
        b.add_edge(pins).expect("valid pins");
    }
    b.build()
}

fn canonical_trace(threads: usize) -> Vec<String> {
    let collector = Collector::enabled();
    let out = Algorithm1::new(PartitionConfig::new().starts(16).seed(3).threads(threads))
        .collector(collector.clone())
        .run(&instance())
        .expect("valid instance");
    // anchor: the run itself is thread-count invariant
    assert!(out.report.cut_size > 0);
    collector.snapshot().iter().map(canonical_line).collect()
}

#[test]
fn algorithm1_trace_is_identical_across_thread_counts() {
    let one = canonical_trace(1);
    assert!(!one.is_empty());
    assert_eq!(one, canonical_trace(2), "threads=2 diverged from threads=1");
    assert_eq!(one, canonical_trace(8), "threads=8 diverged from threads=1");
}

#[test]
fn trace_contains_all_four_phases_per_start() {
    let lines = canonical_trace(4);
    let count = |needle: &str| {
        lines
            .iter()
            .filter(|l| l.contains(&format!("\"name\":\"{needle}\"")))
            .count()
    };
    assert_eq!(count(names::RUNNER_START), 16);
    assert_eq!(count(names::ALG1_LONGEST_PATH), 16);
    assert!(count(names::ALG1_DUAL_FRONT) >= 16);
    assert!(count(names::ALG1_COMPLETE_CUT) >= 16);
    assert_eq!(count(names::DUALIZE), 1);
    assert_eq!(count(names::ALG1_CUT_HIST), 1);
    // dualize events come before every start, summary after
    let pos = |needle: &str| {
        lines
            .iter()
            .position(|l| l.contains(&format!("\"name\":\"{needle}\"")))
            .unwrap_or_else(|| panic!("missing {needle}"))
    };
    assert!(pos(names::DUALIZE) < pos(names::RUNNER_START));
    assert!(pos(names::ALG1_CUT_HIST) > lines.len() - 8);
}

#[test]
fn runner_merges_scopes_in_start_order_at_any_worker_count() {
    let merged = |workers: usize| -> Vec<String> {
        let collector = Collector::enabled();
        let (records, _) = run_starts_arena(
            12,
            workers,
            &collector,
            || (),
            |i, (), scope| {
                let scope = scope.expect("an enabled collector hands out scopes");
                scope.counter("work.index", i as u64);
                i * i
            },
        );
        assert_eq!(records.len(), 12);
        // adoption is the caller's job: the runner hands each start's
        // buffered events back on its record (Algorithm 1 adopts them in
        // its reduction loop)
        for record in records {
            collector.adopt(record.events);
        }
        collector.snapshot().iter().map(canonical_line).collect()
    };
    let serial = merged(1);
    assert_eq!(serial.len(), 24, "span + counter per start");
    assert_eq!(serial, merged(3));
    assert_eq!(serial, merged(8));
}

#[test]
fn order_keys_place_meta_before_starts_before_summary() {
    let collector = Collector::enabled();
    // adopt in scrambled order; snapshot must still sort
    let summary = collector.scope(order::SUMMARY, None);
    summary.counter("z", 1);
    collector.adopt(summary.finish());
    let start = collector.scope(order::start(0), Some(0));
    start.counter("m", 1);
    collector.adopt(start.finish());
    let meta = collector.scope(order::META, None);
    meta.counter("a", 1);
    collector.adopt(meta.finish());
    let names: Vec<String> = collector
        .snapshot()
        .iter()
        .map(|e| e.name.to_string())
        .collect();
    assert_eq!(names, ["a", "m", "z"]);
}
