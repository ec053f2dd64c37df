//! The trace determinism contract, end to end: running Algorithm I with an
//! enabled collector must produce the identical merged event sequence —
//! modulo the explicitly volatile fields (`start_ns`, `dur_ns`, `thread`) —
//! for every worker-thread count.

use fhp_core::dual_bfs::EndpointScratch;
use fhp_core::runner::{run_starts_arena, SplitMix64};
use fhp_core::{Algorithm1, PartitionConfig, PartitionOutcome};
use fhp_hypergraph::{DualIncidence, Hypergraph, HypergraphBuilder, VertexId};
use fhp_obs::{canonical_line, names, order, Collector, Event};

/// A ~60-module, 90-signal pseudo-random netlist (tiny LCG, fixed seed) —
/// big enough that the multi-start engine genuinely interleaves workers.
fn instance() -> Hypergraph {
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

/// A chain of 40 modules joined by 2-pin signals: `G` is a path, so every
/// longest-path draw lands on its two ends and at most two ordered pairs
/// are distinct — nearly every start repeats an earlier one.
fn chain() -> Hypergraph {
    let mut b = HypergraphBuilder::with_vertices(40);
    for i in 0..39 {
        b.add_edge([VertexId::new(i), VertexId::new(i + 1)])
            .expect("valid pins");
    }
    b.build()
}

const STARTS: usize = 16;
const SEED: u64 = 3;

fn traced_run(h: &Hypergraph, threads: usize) -> (PartitionOutcome, Vec<Event>) {
    let collector = Collector::enabled();
    let out = Algorithm1::new(
        PartitionConfig::new()
            .starts(STARTS)
            .seed(SEED)
            .threads(threads),
    )
    .collector(collector.clone())
    .run(h)
    .expect("valid instance");
    // anchor: the run itself is thread-count invariant
    assert!(out.report.cut_size > 0);
    (out, collector.snapshot())
}

fn canonical_trace(h: &Hypergraph, threads: usize) -> Vec<String> {
    traced_run(h, threads)
        .1
        .iter()
        .map(canonical_line)
        .collect()
}

/// Draws every start's endpoint pair from its own stream, the way the
/// engine does, and returns for each start that found endpoints the first
/// earlier start that drew the same ordered pair (`None` for a new pair),
/// plus the number of distinct `u`s the starts drew.
fn expected_repeats(h: &Hypergraph) -> (Vec<Option<Option<usize>>>, usize) {
    let view = DualIncidence::new(h, None).expect("fits u32 ids");
    let mut scratch = EndpointScratch::new();
    let pairs: Vec<Option<(u32, u32)>> = (0..STARTS)
        .map(|i| {
            let mut rng = SplitMix64::for_start(SEED, i);
            scratch.pick(&view, &mut rng).map(|(u, v, _)| (u, v))
        })
        .collect();
    let us: std::collections::BTreeSet<u32> = pairs.iter().flatten().map(|&(u, _)| u).collect();
    let repeats = pairs
        .iter()
        .enumerate()
        .map(|(i, p)| p.map(|_| pairs[..i].iter().position(|q| q == p)))
        .collect();
    (repeats, us.len())
}

#[test]
fn algorithm1_trace_is_identical_across_thread_counts() {
    for h in [instance(), chain()] {
        let one = canonical_trace(&h, 1);
        assert!(!one.is_empty());
        assert_eq!(
            one,
            canonical_trace(&h, 2),
            "threads=2 diverged from threads=1"
        );
        assert_eq!(
            one,
            canonical_trace(&h, 8),
            "threads=8 diverged from threads=1"
        );
    }
}

#[test]
fn trace_sweeps_each_distinct_path_once() {
    for (h, name) in [(instance(), "netlist"), (chain(), "chain")] {
        let (expected, distinct_u) = expected_repeats(&h);
        let distinct = expected.iter().filter(|r| **r == Some(None)).count();
        for threads in [1, 2, 8] {
            let name = &format!("{name} threads={threads}");
            let (out, events) = traced_run(&h, threads);
            let count = |needle: &str| events.iter().filter(|e| e.name == needle).count();
            assert_eq!(out.stats.distinct_paths, distinct, "{name}");
            assert_eq!(out.stats.distinct_u, distinct_u, "{name}");
            // one root span per start and pass
            assert_eq!(count(names::RUNNER_START), 3 * STARTS, "{name}");
            // one BFS per start from its random vertex, one per distinct u
            assert_eq!(
                count(names::ALG1_LONGEST_PATH),
                STARTS + distinct_u,
                "{name}"
            );
            // the default front policy sweeps twice per distinct path
            assert_eq!(count(names::ALG1_DUAL_FRONT), 2 * distinct, "{name}");
            assert_eq!(count(names::ALG1_COMPLETE_CUT), 2 * distinct, "{name}");
            // one `alg1.repeat_of` counter per start with endpoints that
            // drew an earlier pair, naming the first start that drew it
            let repeats: Vec<(u32, u64)> = events
                .iter()
                .filter(|e| e.name == names::ALG1_REPEAT_OF)
                .map(|e| {
                    (
                        e.start_index.expect("a start scope"),
                        e.counter_value().expect("a counter"),
                    )
                })
                .collect();
            let want: Vec<(u32, u64)> = expected
                .iter()
                .enumerate()
                .filter_map(|(i, r)| r.flatten().map(|j| (i as u32, j as u64)))
                .collect();
            assert_eq!(repeats, want, "{name}");
            // a repeat takes the earlier start's cut
            for &(i, j) in &repeats {
                assert_eq!(
                    out.stats.per_start[i as usize].cut_size,
                    out.stats.per_start[j as usize].cut_size,
                    "{name}"
                );
            }
            assert_eq!(count(names::DUALIZE), 1, "{name}");
            assert_eq!(count(names::ALG1_CUT_HIST), 1, "{name}");
            // dualize events come before every start, summary after
            let pos = |needle: &str| {
                events
                    .iter()
                    .position(|e| e.name == needle)
                    .unwrap_or_else(|| panic!("missing {needle}"))
            };
            assert!(pos(names::DUALIZE) < pos(names::RUNNER_START), "{name}");
            assert!(pos(names::ALG1_CUT_HIST) > events.len() - 8, "{name}");
        }
    }
    // the chain's draws do repeat: at most its two ordered end pairs sweep,
    // from at most its two ends
    let (chain_repeats, chain_u) = expected_repeats(&chain());
    let chain_distinct = chain_repeats.iter().filter(|r| **r == Some(None)).count();
    assert!((1..=2).contains(&chain_distinct), "{chain_distinct}");
    assert!((1..=2).contains(&chain_u), "{chain_u}");
}

#[test]
fn runner_merges_scopes_in_start_order_at_any_worker_count() {
    let merged = |workers: usize| -> Vec<String> {
        let collector = Collector::enabled();
        let records = run_starts_arena(12, &mut vec![(); workers], &collector, |i, (), scope| {
            let scope = scope.expect("an enabled collector hands out scopes");
            scope.counter("work.index", i as u64);
            i * i
        });
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
