//! Allocation-regression battery for the multi-start hot loop: a start
//! allocates only to grow a scratch buffer sized by a boundary graph `G′`
//! — geometrically, one allocation per growth — and every growth is
//! counted in `RunStats::arena_growths`.
//!
//! Method: the global allocator is wrapped in a counting shim, and a run
//! with 32 starts is compared against a run with 16 starts on the same
//! instance, seed and worker count. Determinism makes the 16-start run a
//! strict prefix of the 32-start run (start `i` depends only on
//! `(seed, i)`), and the seeds below are chosen so both runs crown the
//! same winner — so every per-run fixed cost (the `G` view, the per-run
//! tables reserved once at the start count, the reduction, the report)
//! allocates identically and cancels in the comparison. What remains is
//! what the extra 16 starts allocate, which the engine contract says is
//! exactly their counted growths: allocations minus `arena_growths` must
//! be *equal*, not merely close. The growths themselves may differ —
//! which worker meets which `G′` first depends on scheduling — and are
//! not compared.
//!
//! The engine builds one arena per worker before its first pass, every
//! pass starts the same `min(threads, starts)` workers, and the pool joins
//! each of them before the next pass starts, so the run's allocations do
//! not depend on how the workers' claims interleave: the 8-thread half
//! asserts the same exact equality as the 1-thread half, on every sample.
//!
//! Both of the paper's completion rules run the one Complete-Cut greedy
//! on the arena's buffers, so the contract covers `MinDegree` and
//! `EngineerWeighted` alike; only `ExactKonig`, off the paper's path,
//! allocates its matching.
//!
//! This is deliberately a single `#[test]` in its own integration binary:
//! the counter is process-global, and a sibling test thread would bleed
//! its allocations into the measurement. It loops over the strategies
//! for the same reason.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use fhp_core::{Algorithm1, CompletionStrategy, PartitionConfig, PartitionOutcome};
use fhp_hypergraph::{Hypergraph, HypergraphBuilder, VertexId};

/// Counts every heap acquisition (alloc, alloc_zeroed, realloc) routed
/// through the global allocator. Frees are not counted — the contract
/// under test is about acquiring memory in the hot loop.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// A ~120-module pseudo-random circuit-like netlist (tiny LCG, fixed
/// seed): mixed 2–4-pin signals, connected enough to exercise the whole
/// pipeline.
fn circuit_instance() -> Hypergraph {
    let mut b = HypergraphBuilder::with_vertices(120);
    // a backbone chain keeps the hypergraph connected so the component
    // shortcut never fires
    for i in 0..119 {
        b.add_edge([VertexId::new(i), VertexId::new(i + 1)])
            .expect("chain edge");
    }
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move |bound: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as usize) % bound
    };
    for _ in 0..160 {
        let size = 2 + next(3);
        let mut pins = Vec::with_capacity(size);
        while pins.len() < size {
            let v = VertexId::new(next(120));
            if !pins.contains(&v) {
                pins.push(v);
            }
        }
        b.add_edge(pins).expect("valid pins");
    }
    b.build()
}

/// Two 8-cliques of 2-pin signals joined by two bridges: a planted cut of
/// size 2 that nearly every start finds, so the multi-start reduction is
/// exercised with heavy tie-breaking.
fn planted_instance() -> Hypergraph {
    let mut b = HypergraphBuilder::with_vertices(16);
    for base in [0usize, 8] {
        for i in 0..8 {
            for j in (i + 1)..8 {
                b.add_edge([VertexId::new(base + i), VertexId::new(base + j)])
                    .expect("clique edge");
            }
        }
    }
    b.add_edge([VertexId::new(0), VertexId::new(8)])
        .expect("bridge");
    b.add_edge([VertexId::new(3), VertexId::new(11)])
        .expect("bridge");
    b.build()
}

/// A hub module shared by every signal plus a chain: the intersection
/// graph is one big clique, the worst case for the dual-front sweep's
/// boundary machinery.
fn hub_instance() -> Hypergraph {
    let mut b = HypergraphBuilder::with_vertices(24);
    for i in 1..24 {
        b.add_edge([VertexId::new(0), VertexId::new(i)])
            .expect("spoke");
    }
    for i in 1..23 {
        b.add_edge([VertexId::new(i), VertexId::new(i + 1)])
            .expect("chain");
    }
    b.build()
}

/// Runs the engine and returns `(allocations during the run that were
/// not counted buffer growths, the outcome)`.
fn measured_run(
    h: &Hypergraph,
    strategy: CompletionStrategy,
    starts: usize,
    threads: usize,
    seed: u64,
) -> (u64, PartitionOutcome) {
    let alg = Algorithm1::new(
        PartitionConfig::new()
            .completion(strategy)
            .starts(starts)
            .threads(threads)
            .seed(seed),
    );
    let before = ALLOCS.load(Ordering::SeqCst);
    let out = alg.run(h).expect("run succeeds");
    let after = ALLOCS.load(Ordering::SeqCst);
    (after - before - out.stats.arena_growths, out)
}

/// Both runs must crown the same winner, or their per-run fixed costs
/// (report assembly) would not cancel and the comparison would be
/// meaningless. The seeds are chosen so this holds; a failure here means
/// "re-pick the seed", not "the hot loop allocates".
fn assert_same_winner(name: &str, small: &PartitionOutcome, big: &PartitionOutcome) {
    assert_eq!(
        small.stats.chosen_start, big.stats.chosen_start,
        "{name}: 16- and 32-start runs crowned different winners; pick a seed where the best start is found early"
    );
    assert_eq!(small.report.cut_size, big.report.cut_size, "{name}");
    assert_eq!(small.bipartition, big.bipartition, "{name}");
}

#[test]
fn extra_starts_allocate_only_counted_growths() {
    let instances = [
        ("circuit", circuit_instance(), 16u64),
        ("planted", planted_instance(), 1),
        ("hub", hub_instance(), 1),
    ];

    for strategy in [
        CompletionStrategy::MinDegree,
        CompletionStrategy::EngineerWeighted,
    ] {
        for (name, h, seed) in &instances {
            let name = &format!("{name} {strategy:?}");
            for threads in [1, 8] {
                let _warmup = measured_run(h, strategy, 32, threads, *seed);
                // several samples at eight threads, where the workers'
                // claims interleave differently from run to run
                let samples = if threads == 1 { 1 } else { 10 };
                for _ in 0..samples {
                    let (small_allocs, small_out) = measured_run(h, strategy, 16, threads, *seed);
                    let (big_allocs, big_out) = measured_run(h, strategy, 32, threads, *seed);
                    assert_eq!(small_out.stats.threads, threads, "{name}");
                    assert_same_winner(name, &small_out, &big_out);
                    assert_eq!(
                        big_allocs,
                        small_allocs,
                        "{name} (threads={threads}): 16 extra starts allocated {} times beyond their counted growths",
                        big_allocs as i64 - small_allocs as i64
                    );
                }
            }
        }
    }
}
