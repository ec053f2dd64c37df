//! `fhp-obs`: in-tree structured tracing and metrics for the fhp
//! workspace.
//!
//! The workspace builds with no registry access, so instead of `tracing`
//! or `metrics` this crate provides a small, zero-dependency substrate
//! purpose-built for the repo's determinism contract:
//!
//! - [`Scope`] + [`Collector`] — lock-free per-unit-of-work recording
//!   with a deterministic merge (scopes sort by caller-assigned
//!   [`order`] keys, mirroring `runner::run_starts_arena`'s index-ordered
//!   reduction), so the merged event sequence is identical across
//!   `--threads 1/2/8`.
//! - [`Span`](Scope::span) RAII guards with monotonic timing,
//!   [`Counter`] accumulators, and fixed log2-bucket [`Histogram`]s.
//! - [`TraceWriter`] NDJSON export (stable key order → byte-stable
//!   output) and a [`folded_stacks`] emitter for flamegraph tooling.
//! - A minimal independent [`json`] parser used to validate emitted
//!   traces in tests and CI.
//!
//! Determinism contract: every field of an [`Event`] except `start_ns`,
//! `dur_ns`, and `thread` must be a pure function of the run's inputs
//! (instance, seed, start count) — never of the thread count or
//! scheduling. [`writer::canonical_line`] serializes exactly the
//! deterministic subset. Events whose name carries the `mem.` prefix are
//! volatile **wholesale** (allocator tallies depend on scheduling);
//! [`writer::is_volatile_event`] names that rule and canonical
//! comparisons drop such events entirely.
//!
//! Live telemetry rides on the same contract: [`progress`] adds a
//! lock-free gauge registry updated from the hot paths, and [`alloc`]
//! adds opt-in heap accounting (installed in a binary via
//! [`install_counting_allocator!`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
mod collector;
mod event;
mod histogram;
pub mod json;
pub mod progress;
pub mod writer;

pub use collector::{Collector, Scope, ScopeEvents, SpanGuard};
pub use event::{counter_total, span_total_ns, Counter, Event, EventKind, FieldValue};
pub use histogram::{Histogram, NUM_BUCKETS};
pub use progress::{Gauge, Progress, Sampler};
pub use writer::{canonical_line, folded_stacks, is_volatile_event, ndjson_line, TraceWriter};

/// Deterministic scope merge keys. Callers pick a key per scope from run
/// structure — phase constants for singleton scopes, [`start`](order::start)
/// for per-start scopes — so that [`Collector::snapshot`] yields the same
/// sequence regardless of which worker adopted which scope first.
pub mod order {
    /// Run metadata scope (CLI header counters). Sorts first.
    pub const META: u64 = 0;
    /// The dualization scope (one per `Dualizer::build`).
    pub const DUALIZE: u64 = 1;
    /// Base key for per-start scopes; see [`start`].
    pub const START_BASE: u64 = 1 << 8;
    /// Merge key of multi-start attempt `i`.
    pub const fn start(i: usize) -> u64 {
        START_BASE + i as u64
    }
    /// Base key for the multilevel V-cycle's per-phase scopes (coarsen
    /// levels, the coarsest initial partition, per-level refinement);
    /// see [`ml`]. Sorts after every per-start scope — the coarsest-level
    /// engine runs with a disabled collector, so its start keys never
    /// collide with the V-cycle's own.
    pub const ML_BASE: u64 = 1 << 32;
    /// Merge key of the `i`-th multilevel phase scope, in V-cycle order
    /// (coarsen levels top-down, then initial partition, then refinement
    /// levels bottom-up, repeated per cycle).
    pub const fn ml(i: usize) -> u64 {
        ML_BASE + i as u64
    }
    /// The `fhp-verify` harness's counter scope. Sorts after every
    /// per-start scope and before the summary.
    pub const VERIFY: u64 = u64::MAX - 1;
    /// Memory-telemetry scope (`mem.*` counters from the counting
    /// allocator). Volatile wholesale — canonical comparisons skip it by
    /// name prefix — but ordered after every per-start scope (and before
    /// verify/summary) so full traces still merge deterministically.
    pub const MEM: u64 = u64::MAX - 2;
    /// Run summary scope (chosen start, best cut, distributions). Sorts
    /// last.
    pub const SUMMARY: u64 = u64::MAX;
}

/// The shared event-name vocabulary. Using these constants (instead of
/// ad-hoc literals) keeps producer and consumer sides — recorders, stats
/// facades, the CLI report, tests — agreeing on spelling.
pub mod names {
    /// Root span of one dualization: a `Dualizer::build`, or the
    /// `DualIncidence` build an Algorithm I run reads `G` through.
    pub const DUALIZE: &str = "dualize";
    /// Span nothing emits. `benchmark/src/batch.rs` still reads it, as
    /// 0, until its `intersection.*` rows are deleted (ROADMAP item 7b).
    pub const DUALIZE_SHARDS: &str = "dualize.shards";
    /// Span nothing emits; kept for `benchmark/`, as [`DUALIZE_SHARDS`].
    pub const DUALIZE_MERGE: &str = "dualize.merge";
    /// Span nothing emits; kept for `benchmark/`, as [`DUALIZE_SHARDS`].
    pub const DUALIZE_CSR: &str = "dualize.csr";
    /// Counter: candidate intersection pairs, `Σ_m C(d_m, 2)` over the
    /// modules' kept nets.
    pub const DUALIZE_PAIRS: &str = "dualize.pairs_generated";
    /// Counter: candidate pairs that repeat an adjacency already counted.
    pub const DUALIZE_DUPS: &str = "dualize.duplicates_merged";
    /// Counter: unique intersection-graph edges.
    pub const DUALIZE_UNIQUE: &str = "dualize.unique_edges";
    /// Counter: hyperedges kept below the size threshold.
    pub const DUALIZE_KEPT: &str = "dualize.kept_edges";
    /// Counter: hyperedges dropped by the size threshold.
    pub const DUALIZE_FILTERED: &str = "dualize.filtered_edges";
    /// Counter nothing emits; kept for `benchmark/`, as
    /// [`DUALIZE_SHARDS`].
    pub const DUALIZE_PASSES: &str = "dualize.passes";
    /// Counter nothing emits; kept for `benchmark/`, as
    /// [`DUALIZE_SHARDS`].
    pub const DUALIZE_PEAK_PAIR_BUFFER: &str = "dualize.peak_pair_buffer";
    /// Root span of one pass of one multi-start attempt (child spans nest
    /// under it); a start records one per pass.
    pub const RUNNER_START: &str = "runner.start";
    /// Algorithm 1 phase: a longest-path BFS and its draw — from a start's
    /// random vertex to `u` (pass 1), or from a distinct `u` to the `v` of
    /// every start that drew it (pass 2).
    pub const ALG1_LONGEST_PATH: &str = "alg1.longest_path_bfs";
    /// Algorithm 1 phase: dual-front BFS sweep.
    pub const ALG1_DUAL_FRONT: &str = "alg1.dual_front_bfs";
    /// Algorithm 1 phase: Complete-Cut refinement.
    pub const ALG1_COMPLETE_CUT: &str = "alg1.complete_cut";
    /// Counter: BFS path length found for a start.
    pub const ALG1_PATH_LENGTH: &str = "alg1.path_length";
    /// Counter: best cut size a start achieved.
    pub const ALG1_START_CUT: &str = "alg1.start_cut_size";
    /// Counter: the earlier start whose endpoint pair a start drew again;
    /// recorded in place of the start's sweep spans, which it skips.
    pub const ALG1_REPEAT_OF: &str = "alg1.repeat_of";
    /// Counter: number of starts attempted.
    pub const ALG1_STARTS: &str = "alg1.starts";
    /// Counter: index of the winning start.
    pub const ALG1_CHOSEN_START: &str = "alg1.chosen_start";
    /// Counter: overall best cut size.
    pub const ALG1_BEST_CUT: &str = "alg1.best_cut";
    /// Histogram: distribution of per-start best cut sizes.
    pub const ALG1_CUT_HIST: &str = "alg1.cut_size_hist";
    /// Counter: run took the disconnected-component shortcut.
    pub const ALG1_COMPONENT_SHORTCUT: &str = "alg1.component_shortcut";
    /// Counter: run fell back to the degenerate split.
    pub const ALG1_FALLBACK_SPLIT: &str = "alg1.fallback_split";
    /// Counter: module count of the instance.
    pub const RUN_MODULES: &str = "run.modules";
    /// Counter: signal count of the instance.
    pub const RUN_SIGNALS: &str = "run.signals";
    /// Counter: RNG seed of the run.
    pub const RUN_SEED: &str = "run.seed";
    /// Counter: requested number of starts.
    pub const RUN_STARTS: &str = "run.starts";
    /// Span: one coarsening level of the multilevel V-cycle (clustering
    /// plus contraction).
    pub const ML_COARSEN: &str = "ml.coarsen";
    /// Span: the coarsest-level initial partition (Algorithm I multi-start
    /// plus FM polish).
    pub const ML_INITIAL: &str = "ml.initial_partition";
    /// Span: one uncoarsening step (projection plus FM refinement on the
    /// finer level).
    pub const ML_REFINE: &str = "ml.refine";
    /// Span: one extra V-cycle (partition-respecting re-coarsening).
    pub const ML_CYCLE: &str = "ml.vcycle";
    /// Counter: coarse vertex count a coarsening level produced.
    pub const ML_LEVEL_SIZE: &str = "ml.level_size";
    /// Counter: coarse edge count a coarsening level produced.
    pub const ML_LEVEL_EDGES: &str = "ml.level_edges";
    /// Counter: cut size after refining a level on the way back up.
    pub const ML_LEVEL_CUT: &str = "ml.level_cut";
    /// Counter: cut size of the refined coarsest-level partition.
    pub const ML_COARSEST_CUT: &str = "ml.coarsest_cut";
    /// Counter: coarsening levels the V-cycle built.
    pub const ML_LEVELS: &str = "ml.levels";
    /// Counter: V-cycles executed.
    pub const ML_VCYCLES: &str = "ml.vcycles";
    /// Counter: cut size after a full V-cycle.
    pub const ML_CYCLE_CUT: &str = "ml.cycle_cut";
    /// Counter: the flat Algorithm I guard run's cut size.
    pub const ML_FLAT_GUARD_CUT: &str = "ml.flat_guard_cut";
    /// Counter: 1 if the flat guard's partition strictly beat the V-cycle's
    /// and was returned instead, else 0.
    pub const ML_USED_FLAT_GUARD: &str = "ml.used_flat_guard";
    /// Gauge: multi-start attempts completed so far.
    pub const PROGRESS_STARTS_DONE: &str = "progress.starts_done";
    /// Gauge: multi-start attempts planned.
    pub const PROGRESS_STARTS_TOTAL: &str = "progress.starts_total";
    /// Gauge: best cut size seen so far.
    pub const PROGRESS_BEST_CUT: &str = "progress.best_cut";
    /// Gauge: coarsening levels the V-cycle built.
    pub const PROGRESS_ML_LEVELS: &str = "progress.ml_levels";
    /// Gauge: V-cycles completed.
    pub const PROGRESS_ML_VCYCLES_DONE: &str = "progress.ml_vcycles_done";
    /// Gauge/counter: live heap bytes (volatile — `mem.` prefix).
    pub const MEM_LIVE_BYTES: &str = "mem.live_bytes";
    /// Gauge/counter: peak heap bytes (volatile — `mem.` prefix).
    pub const MEM_PEAK_BYTES: &str = "mem.peak_bytes";
    /// Gauge/counter: heap acquisitions (volatile — `mem.` prefix).
    pub const MEM_ALLOCS: &str = "mem.allocs";
    /// Span: one Kernighan–Lin restart.
    pub const KL_RESTART: &str = "kl.restart";
    /// Counter: KL restarts executed.
    pub const KL_RESTARTS: &str = "kl.restarts";
    /// Counter: KL improvement passes executed across restarts.
    pub const KL_PASSES: &str = "kl.passes";
    /// Counter: KL pair swaps committed across restarts.
    pub const KL_SWAPS: &str = "kl.swaps";
    /// Counter: best weighted cut KL achieved.
    pub const KL_BEST_CUT: &str = "kl.best_cut";
    /// Span: one Fiduccia–Mattheyses restart.
    pub const FM_RESTART: &str = "fm.restart";
    /// Counter: FM restarts executed.
    pub const FM_RESTARTS: &str = "fm.restarts";
    /// Counter: FM refinement passes executed across restarts.
    pub const FM_PASSES: &str = "fm.passes";
    /// Counter: best weighted cut FM achieved.
    pub const FM_BEST_CUT: &str = "fm.best_cut";
    /// Span: the simulated-annealing walk.
    pub const SA_WALK: &str = "sa.walk";
    /// Counter: temperature plateaus the annealer visited.
    pub const SA_TEMPERATURES: &str = "sa.temperatures";
    /// Counter: moves the annealer attempted.
    pub const SA_MOVES_ATTEMPTED: &str = "sa.moves_attempted";
    /// Counter: moves the annealer accepted.
    pub const SA_MOVES_ACCEPTED: &str = "sa.moves_accepted";
    /// Counter: best weighted cut the annealer achieved.
    pub const SA_BEST_CUT: &str = "sa.best_cut";
    /// Counter: instances the verify harness generated and checked.
    pub const VERIFY_INSTANCES: &str = "verify.instances";
    /// Counter: individual oracle assertions the verify harness ran.
    pub const VERIFY_ORACLE_CHECKS: &str = "verify.oracle_checks";
    /// Counter: oracle violations the verify harness caught.
    pub const VERIFY_VIOLATIONS: &str = "verify.violations";
    /// Counter: accepted reductions the verify shrinker applied.
    pub const VERIFY_SHRINK_STEPS: &str = "verify.shrink_steps";
    /// Gauge: edits the partition engine has applied.
    pub const ENGINE_EDITS: &str = "engine.edits";
    /// Gauge: edits repaired incrementally (localized FM, no full rerun).
    pub const ENGINE_INCREMENTAL_HITS: &str = "engine.incremental_hits";
    /// Gauge: edits that fell back to a full from-scratch recompute.
    pub const ENGINE_FULL_RECOMPUTES: &str = "engine.full_recomputes";
    /// Name prefix of the per-verb serve latency histograms. Everything
    /// under it is volatile wholesale (wall-clock buckets) — see
    /// [`crate::writer::is_volatile_event`].
    pub const SERVE_LAT_PREFIX: &str = "serve.lat.";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_keys_are_disjoint_and_sorted() {
        let keys = [
            order::META,
            order::DUALIZE,
            order::start(0),
            order::start(usize::from(u16::MAX)),
            order::ml(0),
            order::ml(1 << 16),
            order::MEM,
            order::VERIFY,
            order::SUMMARY,
        ];
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
        assert_eq!(order::start(3), order::START_BASE + 3);
    }

    #[test]
    fn end_to_end_record_export_validate() {
        let collector = Collector::enabled();
        let scope = collector.scope(order::start(0), Some(0));
        {
            let _start = scope.span(names::RUNNER_START);
            let _bfs = scope.span(names::ALG1_LONGEST_PATH);
        }
        scope.counter(names::ALG1_START_CUT, 4);
        collector.adopt(scope.finish());

        let events = collector.snapshot();
        let mut buf = Vec::new();
        TraceWriter::new(&mut buf).write_events(&events).unwrap();
        let text = String::from_utf8(buf).unwrap();
        for line in text.lines() {
            json::validate_trace_line(line).unwrap();
        }
        assert!(text.contains("\"stack\":\"runner.start\""));
    }
}
