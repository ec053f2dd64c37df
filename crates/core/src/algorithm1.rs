//! Algorithm I: the complete fast hypergraph bipartitioner.
//!
//! The pipeline (paper §2.3), repeated over `starts` random longest BFS
//! paths (the paper's test runs used 50) and keeping the best cut:
//!
//! 1. read the intersection graph `G` off the incidence lists
//!    ([`DualIncidence`]: each module's kept nets, optionally dropping
//!    hyperedges at or above a size threshold, §3) — `G`'s adjacency is
//!    never built;
//! 2. pick a random vertex, BFS to a furthest vertex `u`, BFS again to a
//!    furthest vertex `v` — a longest BFS path;
//! 3. grow BFS fronts from `u` and `v` simultaneously to cut `G`;
//! 4. read off the boundary set and the implied partial bipartition of the
//!    hypergraph;
//! 5. run Complete-Cut on the bipartite boundary graph; winners pull their
//!    modules to their side;
//! 6. place any remaining modules on the lighter side.
//!
//! Steps 5–6 are one call, [`CompletionScratch::complete_into`], for every
//! [`CompletionStrategy`].
//!
//! Total cost is `O(n²)` in the number of signals `n`, dominated by the
//! BFS sweeps; the view costs `O(pins)` to build, and each BFS or sweep
//! over it reads at most two or three ids per kept pin (see
//! [`crate::dual_bfs`]).
//!
//! The multi-start runs as three passes over the start indices, each on
//! the same per-worker arenas: every start draws its random vertex, runs
//! BFS from it and draws `u`; the first start with each distinct `u` runs
//! BFS(u) once and draws `v` for every start with that `u`, each from the
//! start's own stream; and the first start with each distinct ordered
//! pair `(u, v)` runs steps 3–5, while a later start with the same pair
//! takes its cut. So a run costs `starts + distinct u` BFSs and one set
//! of sweeps per distinct path, whatever the worker count.
//!
//! If the hypergraph is disconnected (the paper's "completely pathological"
//! `c = 0` case), the BFS structure discovers it and the partitioner
//! short-circuits: whole components are packed onto the two sides and the
//! returned cut has size 0, while move-based heuristics typically get stuck
//! at a locally-minimum cut of size `Θ(|E|)` (§4).

use std::cmp::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use fhp_hypergraph::{DualIncidence, Hypergraph, VertexId};
use fhp_obs::{names, order, Collector, Gauge, Histogram, Progress, Scope};

use crate::boundary::BoundaryDecomposition;
use crate::complete_cut::{CompletionScratch, CompletionStrategy};
use crate::dual_bfs::{EndpointScratch, FrontPolicy, TwoFrontScratch};
use crate::metrics::{self, CutReport, Objective, PhaseStats};
use crate::multilevel::{MultilevelConfig, MultilevelStats};
use crate::runner::{resolve_threads, run_starts_arena, SplitMix64};
use crate::{Bipartition, PartitionError, Side};

/// Implemented by every bipartitioner in the workspace (Algorithm I and all
/// baselines), so experiments and applications can treat them uniformly.
pub trait Bipartitioner {
    /// Produces a two-way cut of `h`.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::TooFewVertices`] for inputs with fewer
    /// than two vertices; other variants are implementation-specific.
    fn bipartition(&self, h: &Hypergraph) -> Result<Bipartition, PartitionError>;

    /// Short human-readable name used in experiment tables.
    fn name(&self) -> &str;
}

/// The most multi-start attempts one run takes
/// ([`PartitionConfig::starts`]). A run reserves its per-start tables by
/// the count, so an uncapped count could ask the allocator for terabytes
/// and abort the process; the paper runs 50 starts.
pub const MAX_STARTS: usize = 4096;

/// Configuration for [`Algorithm1`], built with chained setters.
///
/// # Examples
///
/// ```
/// use fhp_core::{Algorithm1, CompletionStrategy, Objective, PartitionConfig};
/// use fhp_hypergraph::intersection::paper_example;
///
/// let config = PartitionConfig::new()
///     .seed(7)
///     .starts(50)
///     .edge_size_threshold(Some(10))
///     .completion(CompletionStrategy::EngineerWeighted)
///     .objective(Objective::QuotientCut);
/// let outcome = Algorithm1::new(config).run(&paper_example()).expect("a valid configuration");
/// assert!(outcome.bipartition.is_valid_cut());
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PartitionConfig {
    seed: u64,
    starts: usize,
    threads: usize,
    edge_size_threshold: Option<usize>,
    completion: CompletionStrategy,
    pub(crate) objective: Objective,
    front_policy: FrontPolicy,
    multilevel: Option<MultilevelConfig>,
    streaming_dualize: bool,
    pair_cap: Option<usize>,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            starts: 1,
            threads: 1,
            edge_size_threshold: None,
            completion: CompletionStrategy::MinDegree,
            objective: Objective::CutSize,
            front_policy: FrontPolicy::Both,
            multilevel: None,
            streaming_dualize: false,
            pair_cap: None,
        }
    }
}

impl PartitionConfig {
    /// The basic algorithm: one start, no edge filtering, min-degree
    /// completion, cut-size objective.
    pub fn new() -> Self {
        Self::default()
    }

    /// The configuration of the paper's reported test runs: 50 random
    /// longest paths and the §3 large-edge threshold of 10.
    pub fn paper() -> Self {
        Self::new().starts(50).edge_size_threshold(Some(10))
    }

    /// Seeds the random start selection (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of random longest paths to try (default 1, at most
    /// [`MAX_STARTS`]).
    pub fn starts(mut self, starts: usize) -> Self {
        self.starts = starts;
        self
    }

    /// Worker threads for the multi-start engine (default 1; `0` means
    /// one per available core). Every start draws from its own
    /// counter-derived RNG stream and ties between starts go to the lower
    /// start index, so the outcome is bit-identical for every thread
    /// count — this knob only trades wall-clock time.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Ignore hyperedges with `size ≥ threshold` when building `G`
    /// (default `None` — keep everything).
    pub fn edge_size_threshold(mut self, threshold: Option<usize>) -> Self {
        self.edge_size_threshold = threshold;
        self
    }

    /// Boundary completion strategy (default [`CompletionStrategy::MinDegree`]).
    pub fn completion(mut self, strategy: CompletionStrategy) -> Self {
        self.completion = strategy;
        self
    }

    /// Objective used to rank the multi-start candidates (default
    /// [`Objective::CutSize`]).
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// How the dual BFS fronts take turns (default [`FrontPolicy::Both`]:
    /// each start tries both concrete sweeps and keeps the better cut).
    pub fn front_policy(mut self, policy: FrontPolicy) -> Self {
        self.front_policy = policy;
        self
    }

    /// Enables (or disables, with `None`) the multilevel V-cycle mode:
    /// heavy-edge coarsening to a small hypergraph, the flat multi-start
    /// engine there, then per-level FM refinement on the way back up (see
    /// [`crate::multilevel`]). Default `None` — the flat engine.
    pub fn multilevel(mut self, ml: Option<MultilevelConfig>) -> Self {
        self.multilevel = ml;
        self
    }

    /// Admits a [`pair_cap`](Self::pair_cap) (default `false`). It
    /// affects nothing: [`Algorithm1::run`] reads `G` off the incidence
    /// lists, and no dualizer in the workspace has a pair cap or passes
    /// any more. Only the validation rule below reads it.
    /// `benchmark/src/workload.rs` still sets it, so it is deleted
    /// together with `pair_cap` in the next change to `benchmark/`
    /// (ROADMAP items 6 and 7).
    pub fn streaming_dualize(mut self, streaming: bool) -> Self {
        self.streaming_dualize = streaming;
        self
    }

    /// A pair-buffer cap that nothing reads (default `None`): the
    /// dualizer it once bounded is gone, and `fhp_hypergraph::Dualizer`
    /// holds no pair buffer at all. Validation still rejects a cap of 0,
    /// and a cap without [`streaming_dualize`](Self::streaming_dualize).
    /// Deleted with `streaming_dualize` (ROADMAP items 6 and 7).
    pub fn pair_cap(mut self, cap: Option<usize>) -> Self {
        self.pair_cap = cap;
        self
    }

    /// Checks the configuration; [`Algorithm1::run`] calls it before it
    /// runs.
    ///
    /// # Errors
    ///
    /// [`PartitionError::InvalidConfig`] for a start count of 0 or above
    /// [`MAX_STARTS`], a degenerate edge-size threshold, an invalid pair
    /// cap or multilevel configuration.
    pub(crate) fn validate(&self) -> Result<(), PartitionError> {
        if self.starts == 0 {
            return Err(PartitionError::InvalidConfig {
                reason: "starts must be at least 1",
            });
        }
        if self.starts > MAX_STARTS {
            return Err(PartitionError::InvalidConfig {
                reason: "starts must be at most 4096 (MAX_STARTS)",
            });
        }
        if self.edge_size_threshold == Some(0) || self.edge_size_threshold == Some(1) {
            return Err(PartitionError::InvalidConfig {
                reason: "edge size threshold below 2 filters every edge",
            });
        }
        if self.pair_cap == Some(0) {
            return Err(PartitionError::InvalidConfig {
                reason: "pair cap must be at least 1",
            });
        }
        if self.pair_cap.is_some() && !self.streaming_dualize {
            return Err(PartitionError::InvalidConfig {
                reason: "pair cap requires the streaming dualizer",
            });
        }
        if let Some(ml) = &self.multilevel {
            ml.validate()?;
        }
        Ok(())
    }
}

/// What one multi-start attempt did: its cut (if it produced one), its
/// wall-clock cost, and its contained panic message (if it failed).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StartStat {
    /// Cut size of this start's best candidate; `None` if the start
    /// found no usable BFS endpoints or failed.
    pub cut_size: Option<usize>,
    /// Wall-clock time the start took, summed over its three passes (each
    /// on whichever worker ran it).
    pub wall: Duration,
    /// The contained panic message if this start failed.
    pub error: Option<String>,
}

/// Diagnostics from a [`Algorithm1::run`] call, reported for the winning
/// start.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct RunStats {
    /// Number of starts actually executed.
    pub starts: usize,
    /// G-vertices (kept signals) in the intersection graph.
    pub num_g_vertices: usize,
    /// Boundary set size `|B|` of the best start (0 for shortcuts).
    pub boundary_len: usize,
    /// Length of the best start's longest BFS path (0 for shortcuts).
    pub bfs_path_length: u32,
    /// Modules committed by the best start's partial bipartition.
    pub num_placed_by_partial: usize,
    /// The hypergraph was disconnected and component packing was used.
    pub used_component_shortcut: bool,
    /// The intersection graph was too small to cut; a weight-balanced
    /// fallback split was used.
    pub used_fallback_split: bool,
    /// Index of the start that produced the returned cut (`None` when a
    /// shortcut or fallback path was taken instead).
    pub chosen_start: Option<usize>,
    /// Distinct ordered longest-path endpoint pairs `(u, v)` the starts
    /// drew: how many starts swept. Every other start that found
    /// endpoints drew an earlier start's pair and took its result (0 for
    /// the component shortcut, and when no start found endpoints).
    pub distinct_paths: usize,
    /// Distinct first endpoints `u` the starts drew: how many second
    /// longest-path BFSs the run searched, one per distinct `u` (0 for
    /// the component shortcut). Like
    /// [`distinct_paths`](Self::distinct_paths) it depends on the seed
    /// and the instance only, never on the worker count.
    pub distinct_u: usize,
    /// Worker threads the multi-start engine ran with (0 when it never
    /// ran, i.e. the component shortcut fired).
    pub threads: usize,
    /// Connected components of `G` (0 for the component shortcut, which
    /// never reads `G`). The size threshold splits `G` even where the
    /// hypergraph is connected.
    pub g_components: usize,
    /// G-vertices in the component of `G` that holds the winning start's
    /// longest path (0 when no start won). A sweep's fronts stay inside
    /// that component; every other component goes whole to one side.
    pub path_component: usize,
    /// Times a worker grew a scratch buffer sized by a boundary graph
    /// `G′` — one allocation each — summed over the workers. Which worker
    /// meets which `G′` first depends on scheduling, so like
    /// [`threads`](Self::threads) this count varies with the worker count
    /// and stays out of [`OutcomeFingerprint`] and the trace.
    pub arena_growths: u64,
    /// Per-start outcomes, indexed by start (empty for the shortcut path).
    pub per_start: Vec<StartStat>,
    /// Per-phase wall time and the `G` view's kept and filtered counts
    /// (all zero for the component shortcut, which never reads `G`).
    pub phases: PhaseStats,
    /// What the multilevel V-cycle did, when the run used the multilevel
    /// mode (`None` for flat runs). The other fields then describe the
    /// inner engine run that produced the returned partition — the
    /// coarsest-level multi-start, or the flat guard run if it won.
    pub multilevel: Option<MultilevelStats>,
}

impl RunStats {
    /// Distribution of per-start cut sizes: cut size → how many starts
    /// landed on it. Starts without a cut (failed, or no endpoints) are
    /// omitted.
    pub fn cut_histogram(&self) -> std::collections::BTreeMap<usize, usize> {
        let mut hist = std::collections::BTreeMap::new();
        for s in &self.per_start {
            if let Some(c) = s.cut_size {
                *hist.entry(c).or_insert(0) += 1;
            }
        }
        hist
    }
}

/// The deterministic identity of a run: everything a
/// [`PartitionOutcome`] asserts about its input, minus timing. Two runs
/// of the same `(hypergraph, config)` pair must produce equal
/// fingerprints regardless of thread count — this is the object the
/// determinism regression tests compare.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct OutcomeFingerprint {
    /// The full side assignment.
    pub bipartition: Bipartition,
    /// Unweighted cut size.
    pub cut_size: usize,
    /// Weighted cut size.
    pub weighted_cut: u64,
    /// Vertices per side.
    pub counts: (usize, usize),
    /// Weight per side.
    pub weights: (u64, u64),
    /// Which start won.
    pub chosen_start: Option<usize>,
    /// Every start's cut size, in start order.
    pub per_start_cuts: Vec<Option<usize>>,
    /// Every start's contained panic message, in start order.
    pub per_start_errors: Vec<Option<String>>,
}

/// A finished partition plus its metrics and run diagnostics.
#[derive(Clone, Debug)]
pub struct PartitionOutcome {
    /// The cut itself.
    pub bipartition: Bipartition,
    /// Quality metrics of the cut.
    pub report: CutReport,
    /// Diagnostics of the winning start.
    pub stats: RunStats,
}

impl PartitionOutcome {
    /// The timing-free identity of this run; see [`OutcomeFingerprint`].
    pub fn fingerprint(&self) -> OutcomeFingerprint {
        OutcomeFingerprint {
            bipartition: self.bipartition.clone(),
            cut_size: self.report.cut_size,
            weighted_cut: self.report.weighted_cut,
            counts: self.report.counts,
            weights: self.report.weights,
            chosen_start: self.stats.chosen_start,
            per_start_cuts: self.stats.per_start.iter().map(|s| s.cut_size).collect(),
            per_start_errors: self
                .stats
                .per_start
                .iter()
                .map(|s| s.error.clone())
                .collect(),
        }
    }
}

/// The paper's Algorithm I.
///
/// # Examples
///
/// Partition the paper's running example:
///
/// ```
/// use fhp_core::{Algorithm1, PartitionConfig};
/// use fhp_hypergraph::intersection::paper_example;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let h = paper_example();
/// let outcome = Algorithm1::new(PartitionConfig::new().starts(10)).run(&h)?;
/// assert!(outcome.bipartition.is_valid_cut());
/// assert!(outcome.report.cut_size <= 3);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct Algorithm1 {
    config: PartitionConfig,
    collector: Collector,
    progress: Option<Arc<Progress>>,
}

impl Algorithm1 {
    /// Creates the partitioner with the given configuration.
    pub fn new(config: PartitionConfig) -> Self {
        Self {
            config,
            collector: Collector::disabled(),
            progress: None,
        }
    }

    /// Records the run into `collector`: a `dualize` scope, one scope per
    /// start with a `runner.start` span for each of the three passes, and
    /// a summary scope with run-level counters and the cut-size histogram.
    /// Pass 1's span holds an `alg1.longest_path_bfs` span (BFS from the
    /// random vertex), pass 2's another one when the start is the first
    /// with its `u` (BFS(u) and every `v` drawn from it), and pass 3's the
    /// sweep and Complete-Cut spans — or an `alg1.repeat_of` counter in
    /// their place when the start drew an earlier start's path.
    /// The default collector is disabled, which skips all retention —
    /// [`RunStats`] is still populated, from the same local buffers.
    pub fn collector(mut self, collector: Collector) -> Self {
        self.collector = collector;
        self
    }

    /// Attaches a live [`Progress`] registry: start totals are planned
    /// into it up front, and `StartsDone`/`BestCut` tick as workers retire
    /// starts. All updates are relaxed atomics on pre-existing slots, so
    /// the zero-allocation contract of the hot loop is untouched.
    pub fn progress(mut self, progress: Option<Arc<Progress>>) -> Self {
        self.progress = progress;
        self
    }

    /// The paper's reported test configuration (50 starts, threshold 10).
    pub fn paper() -> Self {
        Self::new(PartitionConfig::paper())
    }

    /// The active configuration.
    pub fn config(&self) -> &PartitionConfig {
        &self.config
    }

    /// Runs the partitioner, returning the cut plus metrics and
    /// diagnostics.
    ///
    /// # Errors
    ///
    /// [`PartitionError::TooFewVertices`] if `h` has fewer than two
    /// vertices; [`PartitionError::InvalidConfig`] for a start count of 0
    /// or above [`MAX_STARTS`], or a degenerate edge-size threshold.
    pub fn run(&self, h: &Hypergraph) -> Result<PartitionOutcome, PartitionError> {
        self.config.validate()?;
        if h.num_vertices() < 2 {
            return Err(PartitionError::TooFewVertices {
                found: h.num_vertices(),
            });
        }

        // Multilevel mode: the V-cycle owns the whole run (its inner
        // engine runs strip this field, so recursion bottoms out there).
        if let Some(ml) = self.config.multilevel {
            return crate::multilevel::run_vcycle(
                h,
                &self.config,
                &ml,
                &self.collector,
                self.progress.as_deref(),
            );
        }

        // Pathological case (§4): a disconnected hypergraph has a cut of
        // size 0 — pack whole components onto the lighter side, and skip
        // the multi-start.
        let (comp, n_comps) = h.connected_components();
        let shortcut = n_comps >= 2;
        let ms = if shortcut {
            MultiStart::default()
        } else {
            self.multi_start(h)?
        };
        let (bipartition, report, won) = match ms.winner {
            // The winner's sweep already counted its cut and sides.
            Some(((c, start), sides)) => {
                let report =
                    CutReport::from_totals(c.cut_size, c.weighted_cut, c.counts, c.weights);
                (sides, report, Some((c, start)))
            }
            // No start won: pack the components, or, when `G` was too
            // small to cut (fewer than two G-vertices, or no usable BFS
            // endpoints), the single modules.
            None => {
                let bipartition = if shortcut {
                    pack_components(h, &comp, n_comps)
                } else {
                    let singles: Vec<u32> = h.vertices().map(VertexId::raw).collect();
                    pack_components(h, &singles, singles.len())
                };
                let report = CutReport::new(h, &bipartition);
                (bipartition, report, None)
            }
        };

        // Summary recording is gated on an enabled collector: a disabled
        // collector drops adopted buffers anyway, and recording into a
        // scope allocates — which would violate the run-level allocation
        // accounting the alloc-regression battery pins down.
        if self.collector.is_enabled() {
            let summary = self.collector.scope(order::SUMMARY, None);
            if !shortcut {
                summary.counter(names::ALG1_STARTS, self.config.starts as u64);
                let mut cut_hist = Histogram::new();
                for c in ms.per_start.iter().filter_map(|s| s.cut_size) {
                    cut_hist.record(c as u64);
                }
                summary.histogram(names::ALG1_CUT_HIST, &cut_hist);
            }
            match won {
                Some((_, start)) => summary.counter(names::ALG1_CHOSEN_START, start as u64),
                None if shortcut => summary.counter(names::ALG1_COMPONENT_SHORTCUT, 1),
                None => summary.counter(names::ALG1_FALLBACK_SPLIT, 1),
            }
            summary.counter(names::ALG1_BEST_CUT, report.cut_size as u64);
            self.collector.adopt(summary.finish());
        }
        let cand = won.map(|(c, _)| c);
        Ok(PartitionOutcome {
            bipartition,
            report,
            stats: RunStats {
                starts: cand.map_or(0, |_| self.config.starts),
                num_g_vertices: ms.num_g_vertices,
                boundary_len: cand.map_or(0, |c| c.boundary_len),
                bfs_path_length: cand.map_or(0, |c| c.path_length),
                num_placed_by_partial: cand.map_or(0, |c| c.num_placed),
                used_component_shortcut: shortcut,
                used_fallback_split: !shortcut && cand.is_none(),
                chosen_start: won.map(|(_, start)| start),
                distinct_paths: ms.distinct_paths,
                distinct_u: ms.distinct_u,
                threads: ms.threads,
                g_components: ms.g_components,
                path_component: cand.map_or(0, |c| c.path_component),
                arena_growths: ms.arena_growths,
                per_start: ms.per_start,
                phases: ms.phases,
                multilevel: None,
            },
        })
    }

    /// The multi-start on `h`'s intersection graph, read off the incidence
    /// lists: three passes over the start indices on one set of per-worker
    /// arenas, then the per-start stats and the winner.
    ///
    /// # Errors
    ///
    /// [`PartitionError::AllStartsFailed`] when every start failed.
    fn multi_start(&self, h: &Hypergraph) -> Result<MultiStart, PartitionError> {
        // Every start reads `G` off the incidence lists; the view's build
        // is the run's `dualize` scope.
        let view = DualIncidence::build(h, self.config.edge_size_threshold, &self.collector)?;
        let mut phases = PhaseStats {
            dualize: view.stats().clone(),
            ..PhaseStats::default()
        };
        let (config, collector) = (self.config, &self.collector);
        let starts = config.starts;
        let workers = resolve_threads(config.threads).clamp(1, starts);
        let progress = self.progress.as_deref();
        if let Some(p) = progress {
            p.add(Gauge::StartsTotal, starts as u64);
        }
        // One arena per worker, kept warm across the three passes.
        let mut arenas: Vec<StartArena> = (0..workers)
            .map(|_| StartArena::for_instance(&view))
            .collect();

        // Pass 1: every start draws `r`, searches BFS(r) and draws `u`,
        // keeping its stream for `v`.
        let pass1 = run_starts_arena(starts, &mut arenas, collector, |start, arena, scope| {
            let _lp = scope.map(|s| s.span(names::ALG1_LONGEST_PATH));
            let mut rng = SplitMix64::for_start(config.seed, start);
            arena.endpoints.draw_u(&view, &mut rng).map(|u| (u, rng))
        });
        let drawn = |i: usize| match pass1.get(i).map(|r| &r.outcome) {
            Some(Ok(Some(drawn))) => Some(drawn),
            _ => None,
        };
        let u_leads = first_with_key(starts, |i| drawn(i).map(|&(u, _)| u));
        let u_lead = |i: usize| u_leads.get(i).copied().flatten();

        // Pass 2: the first start with each `u` searches BFS(u) once and
        // draws `v` for every start with that `u`, in start order and from
        // each start's own stream, into that start's write-once slot.
        let ends: Vec<OnceLock<Option<(u32, u32)>>> =
            (0..starts).map(|_| OnceLock::new()).collect();
        let pass2 = run_starts_arena(starts, &mut arenas, collector, |start, arena, scope| {
            let Some(&(u, _)) = drawn(start).filter(|_| u_lead(start) == Some(start)) else {
                return;
            };
            let _lp = scope.map(|s| s.span(names::ALG1_LONGEST_PATH));
            #[cfg(test)]
            fault::trip(&view, fault::Fault::Search(u));
            arena.endpoints.search(&view, u);
            for (j, end) in ends.iter().enumerate().skip(start) {
                if let Some((_, rng)) = drawn(j).filter(|_| u_lead(j) == Some(start)) {
                    let mut rng = rng.clone();
                    end.get_or_init(|| arena.endpoints.draw_v(u, &mut rng));
                }
            }
        });
        // A start's path `(u, v, depth)`, unless the first start with its
        // `u` failed in pass 2.
        let path = |i: usize| {
            let (v, depth) = (*ends.get(i)?.get()?)?;
            let searched = pass2.get(u_lead(i)?)?.outcome.is_ok();
            searched.then_some((drawn(i)?.0, v, depth))
        };
        let path_leads = first_with_key(starts, path);

        // Pass 3: the first start with each ordered `(u, v)` sweeps it,
        // completes and scores the cuts, and folds its best into its
        // worker's; a later start with the same pair takes that start's
        // result.
        let pass3 = run_starts_arena(starts, &mut arenas, collector, |start, arena, scope| {
            let first = path_leads.get(start).copied().flatten();
            let outcome =
                evaluate_start(&view, &config, start, path(start).zip(first), arena, scope);
            if let Some(p) = progress {
                p.add(Gauge::StartsDone, 1);
                if let Some(cut) = outcome.cut_size {
                    p.record_min(Gauge::BestCut, cut as u64);
                }
            }
            outcome
        });
        let distinct_u = count_leaders(&u_leads);
        let distinct_paths = count_leaders(&path_leads);
        let arena_growths = arenas.iter().map(StartArena::growths).sum();

        // Per-start stats in start order. Pass 3 measured its sweep and
        // Complete-Cut walls as plain scalars (span recording allocates —
        // see [`run_starts_arena`]), and passes 1 and 2 are the
        // longest-path draw; all three fold into the PhaseStats facade
        // here.
        let mut per_start: Vec<StartStat> = Vec::with_capacity(starts);
        let mut num_failed = 0usize;
        let mut first_error = None;
        for (start, ((p1, p2), p3)) in pass1.into_iter().zip(&pass2).zip(pass3).enumerate() {
            // A start fails with its own panic, or with the pass-2 panic of
            // the first start with its `u`.
            let u_failed = u_lead(start).and_then(|l| pass2.get(l)?.outcome.clone().err());
            let outcome = p1.outcome.and(u_failed.map_or(p3.outcome, Err));
            let lp_wall = p1.wall + p2.wall;
            let (cut_size, error) = match outcome {
                Ok(outcome) => {
                    phases.record_start_walls(
                        lp_wall.as_nanos() as u64,
                        outcome.dual_ns,
                        outcome.cc_ns,
                    );
                    match outcome.repeat_of {
                        // The skipped sweeps were the earlier start's, so
                        // its cut or error is this start's too.
                        Some(earlier) => {
                            let earlier = &per_start[earlier]; // fhp-audit: allow(panic-site) — a repeat names an earlier start, whose stat is already pushed
                            (earlier.cut_size, earlier.error.clone())
                        }
                        None => (outcome.cut_size, None),
                    }
                }
                Err(e) => (None, Some(e)),
            };
            if let Some(e) = &error {
                num_failed += 1;
                if first_error.is_none() {
                    first_error = Some(e.clone());
                }
            }
            per_start.push(StartStat {
                cut_size,
                wall: lp_wall + p3.wall,
                error,
            });
            // One scope per start, its passes in order.
            let mut events = p1.events;
            events.events.extend_from_slice(&p2.events.events);
            events.events.extend(p3.events.events);
            self.collector.adopt(events);
        }
        if num_failed == starts {
            return Err(PartitionError::AllStartsFailed {
                error: first_error.unwrap_or_else(|| "no start reported an error".to_string()),
            });
        }

        // The winner is the least key over the workers' arenas. A start
        // folds into its worker's arena only once all its sweeps
        // succeeded, and only a start whose passes all succeeded sweeps,
        // so every folded start ends `Ok`; a repeat folds nothing.
        let winner = arenas
            .into_iter()
            .filter_map(|a| Some((a.best?, a.best_bp)))
            .min_by(|(a, _), (b, _)| winner_order(a, b));
        Ok(MultiStart {
            winner,
            num_g_vertices: view.num_g_vertices(),
            g_components: view.num_components(),
            distinct_paths,
            distinct_u,
            threads: workers,
            arena_growths,
            per_start,
            phases,
        })
    }
}

/// What [`Algorithm1::multi_start`] hands the run's one exit: the winning
/// start with its candidate and sides, and the run-level counts of
/// [`RunStats`]. The component shortcut never runs the multi-start and
/// reports the zero default.
#[derive(Default)]
struct MultiStart {
    winner: Option<((StartCandidate, usize), Bipartition)>,
    num_g_vertices: usize,
    g_components: usize,
    distinct_paths: usize,
    distinct_u: usize,
    threads: usize,
    arena_growths: u64,
    per_start: Vec<StartStat>,
    phases: PhaseStats,
}

/// One start's best candidate cut — scalars only. The sides themselves
/// stay in the worker's [`StartArena`] (cloning them per start would put
/// an `O(n)` allocation in the hot loop); the run takes the winner's
/// sides from the arenas afterwards, and builds its [`CutReport`] from
/// the totals here.
#[derive(Clone, Copy, Debug)]
struct StartCandidate {
    score: f64,
    imbalance: u64,
    cut_size: usize,
    weighted_cut: u64,
    counts: (usize, usize),
    weights: (u64, u64),
    boundary_len: usize,
    num_placed: usize,
    path_length: u32,
    path_component: usize,
}

impl StartCandidate {
    /// Its rank in the preference order ([`metrics::rank_order`]).
    fn rank(&self) -> (f64, u64) {
        (self.score, self.imbalance)
    }
}

/// The run's one winner order on `(candidate, start)` pairs: the least
/// `(score by total_cmp, imbalance, start index)` key wins. Every worker
/// folds its starts under it, whatever order it claimed them in, and the
/// run takes the least over the workers' arenas — the first strictly
/// best start in index order.
fn winner_order(a: &(StartCandidate, usize), b: &(StartCandidate, usize)) -> Ordering {
    metrics::rank_order(a.0.rank(), b.0.rank()).then(a.1.cmp(&b.1))
}

/// What one start reports back from pass 3: its best cut size (if it
/// swept), the earlier start whose path it drew again (if it did, in
/// which case it swept nothing and has no cut of its own) and the
/// directly measured phase walls, all plain scalars.
struct StartOutcome {
    cut_size: Option<usize>,
    repeat_of: Option<usize>,
    dual_ns: u64,
    cc_ns: u64,
}

/// For every index `i < n` that has a key, the first index with the same
/// key (`i` itself when no earlier index has it); `None` for an index
/// without one. The passes group the starts by `u` and by `(u, v)` with
/// it; `O(n²)` over a run's starts.
fn first_with_key<K: PartialEq>(n: usize, key: impl Fn(usize) -> Option<K>) -> Vec<Option<usize>> {
    (0..n)
        .map(|i| {
            let k = key(i)?;
            (0..i).find(|&j| key(j).as_ref() == Some(&k)).or(Some(i))
        })
        .collect()
}

/// The groups in a [`first_with_key`] result: how many indices lead one.
fn count_leaders(leads: &[Option<usize>]) -> usize {
    leads
        .iter()
        .enumerate()
        .filter(|&(i, f)| *f == Some(i))
        .count()
}

/// One worker's reusable scratch for the whole per-start pipeline. Built
/// once per worker before pass 1 and kept across all three passes. The
/// buffers sized by `G` or the module count are reserved here once; those
/// sized by a cut's boundary graph `G′` grow, geometrically and counted,
/// to the largest `G′` the worker meets, so a start allocates only to
/// grow one. Every stage resets the scratch state it reads at entry, so a
/// start that panicked mid-pipeline cannot poison the next one.
struct StartArena {
    /// Longest-BFS-path endpoint picker (one BFS leveling).
    endpoints: EndpointScratch,
    /// Dual-front BFS workspace and its resulting graph cut.
    fronts: TwoFrontScratch,
    /// Boundary set / boundary graph / partial-assignment workspace.
    dec: BoundaryDecomposition,
    /// Complete-Cut workspace: the winner set and the assembly buffers.
    completion: CompletionScratch,
    /// The current sweep's assembled partition.
    work_bp: Bipartition,
    /// Best partition among the current start's sweeps.
    sweep_best_bp: Bipartition,
    /// The least [`winner_order`] key among the starts this worker swept
    /// in pass 3, with its partition in `best_bp`.
    best: Option<(StartCandidate, usize)>,
    best_bp: Bipartition,
}

impl StartArena {
    /// An arena for the instance `view` reads: the BFS levels, fronts,
    /// labels, `gprime_of`, partial bipartition, placement and the three
    /// bipartitions reserved at `G`'s and the module count's sizes; the
    /// `G′`-sized buffers empty.
    fn for_instance(view: &DualIncidence<'_>) -> Self {
        let (n, g_n) = (view.num_modules(), view.num_g_vertices());
        Self {
            endpoints: EndpointScratch::with_capacity(g_n, n),
            fronts: TwoFrontScratch::with_capacity(g_n, n),
            dec: BoundaryDecomposition::with_capacity(n, g_n),
            completion: CompletionScratch::with_capacity(n),
            work_bp: Bipartition::all_left(n),
            sweep_best_bp: Bipartition::all_left(n),
            best: None,
            best_bp: Bipartition::all_left(n),
        }
    }

    /// How many times this worker grew a `G′`-sized buffer.
    fn growths(&self) -> u64 {
        self.dec.growths() + self.completion.growths()
    }
}

/// Pass 3 of one multi-start attempt: given the start's longest path
/// `(u, v, path_length)` and the first start that drew the same ordered
/// pair, sweep the configured front policies, keep the start's best
/// candidate and fold it into the worker's best — or, when that first
/// start is an earlier one, skip the sweeps and name it instead. A pure
/// function of `(view, config, path)` — the foundation of the engine's
/// thread-count invariance; the arena only lends buffers, and the fold
/// is by [`winner_order`], which no claim order can change. Phase walls
/// are measured as plain scalars (recording spans allocates); when a
/// `scope` is present — tracing runs only — the phase spans and counters
/// are recorded too. Timing is never consulted by any decision, so it
/// cannot perturb determinism.
fn evaluate_start(
    view: &DualIncidence<'_>,
    config: &PartitionConfig,
    start: usize,
    path: Option<((u32, u32, u32), usize)>,
    arena: &mut StartArena,
    scope: Option<&Scope>,
) -> StartOutcome {
    let h = view.hypergraph();
    let skipped = StartOutcome {
        cut_size: None,
        repeat_of: None,
        dual_ns: 0,
        cc_ns: 0,
    };
    let Some(((u, v, path_length), first)) = path else {
        return skipped;
    };
    if let Some(s) = scope {
        s.counter(names::ALG1_PATH_LENGTH, u64::from(path_length));
    }
    if first != start {
        if let Some(s) = scope {
            s.counter(names::ALG1_REPEAT_OF, first as u64);
        }
        return StartOutcome {
            repeat_of: Some(first),
            ..skipped
        };
    }
    let (mut dual_ns, mut cc_ns) = (0u64, 0u64);
    let path_component = view.component_len(view.component_of(u));
    let mut best: Option<StartCandidate> = None;
    for &sweep in config.front_policy.sweeps() {
        #[cfg(test)]
        if best.is_some() {
            fault::trip(view, fault::Fault::LaterSweep(start));
        }
        // fhp-audit: allow(wallclock-in-fingerprint) — phase walls are diagnostics (PhaseStats), never part of fingerprints
        let front_started = std::time::Instant::now();
        let front = scope.map(|s| s.span(names::ALG1_DUAL_FRONT));
        arena.fronts.run(view, u, v, sweep);
        arena.dec.recompute(view, arena.fronts.cut());
        drop(front);
        dual_ns += front_started.elapsed().as_nanos() as u64;
        // fhp-audit: allow(wallclock-in-fingerprint) — phase walls are diagnostics (PhaseStats), never part of fingerprints
        let cc_started = std::time::Instant::now();
        let cc = scope.map(|s| s.span(names::ALG1_COMPLETE_CUT));
        arena
            .completion
            .complete_into(config.completion, view, &arena.dec, &mut arena.work_bp);
        drop(cc);
        cc_ns += cc_started.elapsed().as_nanos() as u64;
        let (cut_size, weighted_cut) = crate::metrics::cut_totals(h, &arena.work_bp);
        let counts = arena.work_bp.counts();
        let weights = arena.work_bp.weights(h);
        let candidate = StartCandidate {
            score: config.objective.score(cut_size, weighted_cut, counts),
            imbalance: weights.0.abs_diff(weights.1),
            cut_size,
            weighted_cut,
            counts,
            weights,
            boundary_len: arena.dec.boundary_len(),
            num_placed: arena.dec.num_placed(),
            path_length,
            path_component,
        };
        // The start's sweeps share its index: a tie keeps the earlier.
        if best.is_none_or(|b| metrics::rank_order(candidate.rank(), b.rank()).is_lt()) {
            best = Some(candidate);
            std::mem::swap(&mut arena.sweep_best_bp, &mut arena.work_bp);
        }
    }
    if let Some(b) = best {
        if let Some(s) = scope {
            s.counter(names::ALG1_START_CUT, b.cut_size as u64);
        }
        // Every sweep succeeded: fold the start's best into the worker's.
        if arena
            .best
            .is_none_or(|held| winner_order(&(b, start), &held).is_lt())
        {
            arena.best = Some((b, start));
            std::mem::swap(&mut arena.best_bp, &mut arena.sweep_best_bp);
        }
    }
    StartOutcome {
        cut_size: best.map(|b| b.cut_size),
        repeat_of: None,
        dual_ns,
        cc_ns,
    }
}

impl Bipartitioner for Algorithm1 {
    fn bipartition(&self, h: &Hypergraph) -> Result<Bipartition, PartitionError> {
        self.run(h).map(|o| o.bipartition)
    }

    fn name(&self) -> &str {
        "Alg I"
    }
}

/// Packs whole connected components onto the lighter side (LPT,
/// heaviest first, ties in component order), yielding a zero cut for
/// disconnected hypergraphs; over single modules it is the weight-balanced
/// split used when there is no intersection graph to cut.
fn pack_components(h: &Hypergraph, comp: &[u32], n_comps: usize) -> Bipartition {
    let mut comp_weight = vec![0u64; n_comps];
    for v in h.vertices() {
        comp_weight[comp[v.index()] as usize] += h.vertex_weight(v); // fhp-audit: allow(panic-site) — ids minted by the dualizer for this graph; arrays sized at entry
    }
    let mut order: Vec<usize> = (0..n_comps).collect();
    order.sort_by_key(|&c| std::cmp::Reverse(comp_weight[c])); // fhp-audit: allow(panic-site) — ids minted by the dualizer for this graph; arrays sized at entry
    let mut side_of_comp = vec![Side::Left; n_comps];
    let mut weights = [0u64; 2];
    for c in order {
        let side = Side::lighter(weights);
        side_of_comp[c] = side; // fhp-audit: allow(panic-site) — ids minted by the dualizer for this graph; arrays sized at entry
        weights[side.index()] += comp_weight[c]; // fhp-audit: allow(panic-site) — ids minted by the dualizer for this graph; arrays sized at entry
    }
    let mut bp = Bipartition::from_fn(h.num_vertices(), |v| side_of_comp[comp[v.index()] as usize]); // fhp-audit: allow(panic-site) — ids minted by the dualizer for this graph; arrays sized at entry
    bp.ensure_valid_cut(h);
    bp
}

/// A fault planted in the multi-start for its own tests, modelled on
/// fhp-verify's tamper hook. Passes 2 and 3 run on worker threads, so the
/// armed fault is process-wide; it is keyed to the test's instance by its
/// module, G-vertex and kept-pin counts, so the other unit tests running
/// in the same process never meet it. An [`Armed`] guard holds it and
/// disarms on drop, and tests that plant faults run one at a time behind
/// it.
#[cfg(test)]
mod fault {
    use std::sync::{Mutex, MutexGuard, PoisonError};

    use fhp_hypergraph::DualIncidence;

    /// Where a planted fault panics.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(crate) enum Fault {
        /// Pass 2's BFS(`u`) for this `u`.
        Search(u32),
        /// Every sweep after the first of this start, in pass 3.
        LaterSweep(usize),
    }

    /// The `(modules, G-vertices, kept pins)` of an instance.
    type Instance = (usize, usize, usize);

    /// The armed fault with its instance.
    static ARMED: Mutex<Option<(Instance, Fault)>> = Mutex::new(None);
    /// Held by the one armed test.
    static SERIAL: Mutex<()> = Mutex::new(());

    /// Keeps a fault armed until dropped.
    pub(crate) struct Armed {
        _serial: MutexGuard<'static, ()>,
    }

    impl Drop for Armed {
        fn drop(&mut self) {
            *ARMED.lock().unwrap_or_else(PoisonError::into_inner) = None;
        }
    }

    fn key(view: &DualIncidence<'_>) -> Instance {
        (
            view.num_modules(),
            view.num_g_vertices(),
            view.num_kept_pins(),
        )
    }

    /// Arms `fault` for the instance `view` reads.
    pub(crate) fn arm(view: &DualIncidence<'_>, fault: Fault) -> Armed {
        let serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        *ARMED.lock().unwrap_or_else(PoisonError::into_inner) = Some((key(view), fault));
        Armed { _serial: serial }
    }

    /// Panics if `fault` is armed for the instance `view` reads.
    pub(crate) fn trip(view: &DualIncidence<'_>, fault: Fault) {
        let armed = *ARMED.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(
            armed != Some((key(view), fault)),
            "planted fault at {fault:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use fhp_hypergraph::intersection::paper_example;
    use fhp_hypergraph::HypergraphBuilder;

    fn two_clusters(cross_edges: usize) -> Hypergraph {
        // two size-6 cliques of 2-pin signals, joined by `cross_edges`
        // bridging signals
        let mut b = HypergraphBuilder::with_vertices(12);
        for base in [0usize, 6] {
            for i in 0..6 {
                for j in (i + 1)..6 {
                    b.add_edge([VertexId::new(base + i), VertexId::new(base + j)])
                        .unwrap();
                }
            }
        }
        for k in 0..cross_edges {
            b.add_edge([VertexId::new(k % 6), VertexId::new(6 + (k % 6))])
                .unwrap();
        }
        b.build()
    }

    #[test]
    fn finds_planted_cut_in_two_clusters() {
        let h = two_clusters(1);
        let out = Algorithm1::new(PartitionConfig::new().starts(10).seed(3))
            .run(&h)
            .unwrap();
        assert_eq!(out.report.cut_size, 1, "{}", out.bipartition);
        assert!(out.bipartition.is_valid_cut());
        assert_eq!(out.bipartition.counts(), (6, 6));
    }

    #[test]
    fn cut_size_report_matches_metrics() {
        let h = paper_example();
        let out = Algorithm1::new(PartitionConfig::new().starts(5))
            .run(&h)
            .unwrap();
        assert_eq!(out.report.cut_size, metrics::cut_size(&h, &out.bipartition));
        assert_eq!(out.stats.num_g_vertices, 9);
        assert!(out.stats.boundary_len > 0);
        assert!(out.stats.bfs_path_length > 0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let h = two_clusters(2);
        let a = Algorithm1::new(PartitionConfig::new().starts(5).seed(9))
            .run(&h)
            .unwrap();
        let b = Algorithm1::new(PartitionConfig::new().starts(5).seed(9))
            .run(&h)
            .unwrap();
        assert_eq!(a.bipartition, b.bipartition);
    }

    #[test]
    fn too_few_vertices() {
        let h = HypergraphBuilder::with_vertices(1).build();
        assert_eq!(
            Algorithm1::default().run(&h).unwrap_err(),
            PartitionError::TooFewVertices { found: 1 }
        );
        let h0 = HypergraphBuilder::new().build();
        assert!(Algorithm1::default().run(&h0).is_err());
    }

    #[test]
    fn invalid_config_rejected() {
        let h = paper_example();
        assert!(matches!(
            Algorithm1::new(PartitionConfig::new().starts(0)).run(&h),
            Err(PartitionError::InvalidConfig { .. })
        ));
        // above the cap the run is refused before it reserves anything
        for starts in [MAX_STARTS + 1, usize::MAX] {
            let err = Algorithm1::new(PartitionConfig::new().starts(starts))
                .run(&h)
                .unwrap_err();
            assert!(err.to_string().contains(&MAX_STARTS.to_string()), "{err}");
        }
        assert!(Algorithm1::new(PartitionConfig::new().starts(MAX_STARTS))
            .run(&h)
            .is_ok());
        assert!(matches!(
            Algorithm1::new(PartitionConfig::new().edge_size_threshold(Some(1))).run(&h),
            Err(PartitionError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn disconnected_shortcut_gives_zero_cut() {
        let mut b = HypergraphBuilder::with_vertices(6);
        b.add_edge([VertexId::new(0), VertexId::new(1), VertexId::new(2)])
            .unwrap();
        b.add_edge([VertexId::new(3), VertexId::new(4)]).unwrap();
        // vertex 5 isolated
        let h = b.build();
        let out = Algorithm1::default().run(&h).unwrap();
        assert_eq!(out.report.cut_size, 0);
        assert!(out.stats.used_component_shortcut);
        assert!(out.bipartition.is_valid_cut());
    }

    #[test]
    fn edgeless_hypergraph_falls_back() {
        let h = HypergraphBuilder::with_vertices(4).build();
        // 4 isolated vertices: disconnected, handled by component packing
        let out = Algorithm1::default().run(&h).unwrap();
        assert!(out.stats.used_component_shortcut);
        assert_eq!(out.bipartition.counts(), (2, 2));
    }

    #[test]
    fn single_signal_connected_uses_fallback() {
        let mut b = HypergraphBuilder::with_vertices(3);
        b.add_edge([VertexId::new(0), VertexId::new(1), VertexId::new(2)])
            .unwrap();
        let h = b.build();
        let out = Algorithm1::default().run(&h).unwrap();
        assert!(out.stats.used_fallback_split);
        assert!(out.bipartition.is_valid_cut());
        assert_eq!(out.report.cut_size, 1); // the one signal must cross
    }

    #[test]
    fn threshold_filters_without_breaking() {
        let h = paper_example();
        let out = Algorithm1::new(
            PartitionConfig::new()
                .starts(5)
                .edge_size_threshold(Some(4)),
        )
        .run(&h)
        .unwrap();
        assert_eq!(out.stats.num_g_vertices, 7);
        assert!(out.bipartition.is_valid_cut());
    }

    #[test]
    fn multi_start_never_worse_than_single() {
        let h = two_clusters(3);
        let single = Algorithm1::new(PartitionConfig::new().starts(1).seed(1))
            .run(&h)
            .unwrap();
        let multi = Algorithm1::new(PartitionConfig::new().starts(20).seed(1))
            .run(&h)
            .unwrap();
        assert!(multi.report.cut_size <= single.report.cut_size);
    }

    #[test]
    fn objective_quotient_prefers_balanced() {
        let h = two_clusters(2);
        let out = Algorithm1::new(
            PartitionConfig::new()
                .starts(10)
                .objective(Objective::QuotientCut),
        )
        .run(&h)
        .unwrap();
        assert!(out.bipartition.is_valid_cut());
        assert!(out.report.quotient.is_finite());
    }

    #[test]
    fn engineer_completion_balances_weights() {
        // heavy modules on one flank; engineer strategy should still give a
        // valid, reasonably balanced cut
        let mut b = HypergraphBuilder::new();
        let vs: Vec<_> = (0..10)
            .map(|i| b.add_weighted_vertex(1 + (i % 3)))
            .collect();
        for w in vs.windows(2) {
            b.add_edge([w[0], w[1]]).unwrap();
        }
        let h = b.build();
        let out = Algorithm1::new(
            PartitionConfig::new()
                .starts(5)
                .completion(CompletionStrategy::EngineerWeighted),
        )
        .run(&h)
        .unwrap();
        assert!(out.bipartition.is_valid_cut());
        let imb = metrics::weight_imbalance(&h, &out.bipartition);
        assert!(imb <= h.total_vertex_weight() / 2, "imbalance {imb}");
    }

    #[test]
    fn trait_object_usable() {
        let h = paper_example();
        let p: Box<dyn Bipartitioner> = Box::new(Algorithm1::paper());
        let bp = p.bipartition(&h).unwrap();
        assert!(bp.is_valid_cut());
        assert_eq!(p.name(), "Alg I");
    }

    #[test]
    fn identical_fingerprint_for_every_thread_count() {
        let h = two_clusters(3);
        let run = |threads| {
            Algorithm1::new(PartitionConfig::new().starts(12).seed(5).threads(threads))
                .run(&h)
                .unwrap()
        };
        let sequential = run(1);
        for threads in [2, 3, 8, 0] {
            let parallel = run(threads);
            assert_eq!(
                sequential.fingerprint(),
                parallel.fingerprint(),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn stats_record_every_start() {
        let h = two_clusters(2);
        let out = Algorithm1::new(PartitionConfig::new().starts(7).seed(1).threads(2))
            .run(&h)
            .unwrap();
        assert_eq!(out.stats.per_start.len(), 7);
        assert_eq!(out.stats.threads, 2);
        let chosen = out.stats.chosen_start.expect("a start won");
        assert_eq!(
            out.stats.per_start[chosen].cut_size,
            Some(out.report.cut_size)
        );
        for s in &out.stats.per_start {
            assert!(s.error.is_none());
        }
        let hist = out.stats.cut_histogram();
        assert_eq!(hist.values().sum::<usize>(), 7);
        assert_eq!(
            *hist.keys().next().unwrap(),
            out.report.cut_size,
            "the winner has the smallest cut in the histogram"
        );
    }

    #[test]
    fn phase_stats_populated_on_normal_runs() {
        let h = two_clusters(2);
        let out = Algorithm1::new(PartitionConfig::new().starts(4).seed(1))
            .run(&h)
            .unwrap();
        let p = &out.stats.phases;
        assert_eq!(p.dualize.kept_edges, h.num_edges());
        assert_eq!(p.dualize.filtered_edges, 0);
        // the run reads G off the incidence lists: no pair is generated
        assert_eq!(p.dualize.pairs_generated, 0);
        assert!(p.total_wall() >= p.dualize.wall);
    }

    #[test]
    fn component_shortcut_reports_zero_phases() {
        let mut b = HypergraphBuilder::with_vertices(4);
        b.add_edge([VertexId::new(0), VertexId::new(1)]).unwrap();
        b.add_edge([VertexId::new(2), VertexId::new(3)]).unwrap();
        let out = Algorithm1::default().run(&b.build()).unwrap();
        assert!(out.stats.used_component_shortcut);
        assert_eq!(out.stats.phases, crate::PhaseStats::default());
    }

    #[test]
    fn run_stats_count_g_components_and_the_paths_component() {
        // two chains of five 2-pin signals, joined only by a 4-pin signal
        let mut b = HypergraphBuilder::with_vertices(12);
        for i in (0..5).chain(6..11) {
            b.add_edge([VertexId::new(i), VertexId::new(i + 1)])
                .unwrap();
        }
        b.add_edge([0, 1, 6, 7].map(VertexId::new)).unwrap();
        let h = b.build();
        let run = |threshold| {
            Algorithm1::new(
                PartitionConfig::new()
                    .starts(6)
                    .edge_size_threshold(threshold),
            )
            .run(&h)
            .unwrap()
            .stats
        };
        // the threshold drops the joining signal and splits G in two
        let split = run(Some(4));
        assert!(!split.used_component_shortcut);
        assert_eq!((split.g_components, split.path_component), (2, 5));
        let whole = run(None);
        assert_eq!((whole.g_components, whole.path_component), (1, 11));
    }

    /// `m` 2-pin signals `{0, i}` through hub module 0, a clique in `G`,
    /// and one signal `{1, m + 1}` hanging off the first: from every
    /// other clique signal the pendant is the one deepest G-vertex, so
    /// most starts draw it as `u`.
    fn comet(m: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::with_vertices(m + 2);
        for i in 1..=m {
            b.add_edge([VertexId::new(0), VertexId::new(i)]).unwrap();
        }
        b.add_edge([VertexId::new(1), VertexId::new(m + 1)])
            .unwrap();
        b.build()
    }

    /// Every start's reference draw `(u, v, depth)`:
    /// [`EndpointScratch::pick`] on the start's own stream.
    fn reference_draws(h: &Hypergraph, seed: u64, starts: usize) -> Vec<Option<(u32, u32, u32)>> {
        let view = DualIncidence::new(h, None).unwrap();
        (0..starts)
            .map(|i| EndpointScratch::new().pick(&view, &mut SplitMix64::for_start(seed, i)))
            .collect()
    }

    /// `config`'s run of `h` at 1, 2, 3 and 8 threads, all with one
    /// fingerprint; the 1-thread run.
    fn thread_invariant_run(
        h: &Hypergraph,
        config: PartitionConfig,
    ) -> Result<PartitionOutcome, PartitionError> {
        let runs = [1, 2, 3, 8].map(|t| Algorithm1::new(config.threads(t)).run(h));
        for (t, run) in [2, 3, 8].iter().zip(&runs[1..]) {
            match (run, &runs[0]) {
                (Ok(a), Ok(b)) => assert_eq!(a.fingerprint(), b.fingerprint(), "threads = {t}"),
                (a, b) => assert_eq!(a.as_ref().err(), b.as_ref().err(), "threads = {t}"),
            }
        }
        let [first, ..] = runs;
        first
    }

    #[test]
    fn a_failed_search_fails_every_start_with_its_u_and_none_wins() {
        let h = comet(13);
        let (seed, starts) = (3, 24);
        let config = PartitionConfig::new().seed(seed).starts(starts);
        let clean = Algorithm1::new(config).run(&h).unwrap();
        let chosen = clean.stats.chosen_start.unwrap();
        let draws = reference_draws(&h, seed, starts);
        let u = draws[chosen].unwrap().0;
        let with_u: Vec<usize> = (0..starts)
            .filter(|&i| draws[i].is_some_and(|d| d.0 == u))
            .collect();
        assert!(with_u.len() >= 2 && with_u.len() < starts, "{with_u:?}");

        let view = DualIncidence::new(&h, None).unwrap();
        let _armed = fault::arm(&view, fault::Fault::Search(u));
        let out = thread_invariant_run(&h, config).unwrap();
        let leader_error = out.stats.per_start[with_u[0]].error.clone().unwrap();
        assert!(leader_error.contains("planted fault"), "{leader_error}");
        for (i, s) in out.stats.per_start.iter().enumerate() {
            if with_u.contains(&i) {
                assert_eq!((s.cut_size, s.error.as_ref()), (None, Some(&leader_error)));
            } else {
                assert_eq!(s.error, None, "start {i}");
                assert_eq!(s.cut_size, clean.stats.per_start[i].cut_size, "start {i}");
            }
        }
        assert!(!with_u.contains(&out.stats.chosen_start.unwrap()));
    }

    #[test]
    fn a_failed_search_shared_by_every_start_fails_the_run() {
        let h = comet(17);
        let starts = 4;
        // a seed whose starts all draw the same `u`
        let (seed, u) = (0..)
            .find_map(|seed| {
                let draws = reference_draws(&h, seed, starts);
                let u = draws[0]?.0;
                draws
                    .iter()
                    .all(|d| d.is_some_and(|d| d.0 == u))
                    .then_some((seed, u))
            })
            .unwrap();
        let config = PartitionConfig::new().seed(seed).starts(starts);
        assert!(Algorithm1::new(config).run(&h).is_ok());

        let view = DualIncidence::new(&h, None).unwrap();
        let _armed = fault::arm(&view, fault::Fault::Search(u));
        match thread_invariant_run(&h, config) {
            Err(PartitionError::AllStartsFailed { error }) => {
                assert!(error.contains("planted fault"), "{error}");
            }
            other => panic!("expected AllStartsFailed, got {other:?}"),
        }
    }

    #[test]
    fn a_start_whose_later_sweep_fails_never_wins_and_its_repeats_fail_with_it() {
        let h = comet(11);
        let (seed, starts) = (5, 24);
        let config = PartitionConfig::new().seed(seed).starts(starts);
        let clean = Algorithm1::new(config).run(&h).unwrap();
        let chosen = clean.stats.chosen_start.unwrap();
        // the winner's first sweep is its best: a first-sweep-only run
        // picks the same start and the same sides
        let first_only = Algorithm1::new(config.front_policy(FrontPolicy::SmallerFirst))
            .run(&h)
            .unwrap();
        assert_eq!(first_only.stats.chosen_start, Some(chosen));
        assert_eq!(first_only.bipartition, clean.bipartition);
        let draws = reference_draws(&h, seed, starts);
        let repeats: Vec<usize> = (chosen + 1..starts)
            .filter(|&i| draws[i] == draws[chosen])
            .collect();
        assert!(!repeats.is_empty());

        let view = DualIncidence::new(&h, None).unwrap();
        let _armed = fault::arm(&view, fault::Fault::LaterSweep(chosen));
        let out = thread_invariant_run(&h, config).unwrap();
        let error = out.stats.per_start[chosen].error.clone().unwrap();
        assert!(error.contains("planted fault"), "{error}");
        assert_ne!(out.stats.chosen_start, Some(chosen));
        for (i, s) in out.stats.per_start.iter().enumerate() {
            if i == chosen || repeats.contains(&i) {
                assert_eq!((s.cut_size, s.error.as_ref()), (None, Some(&error)));
            } else {
                assert_eq!(s.error, None, "start {i}");
                assert_eq!(s.cut_size, clean.stats.per_start[i].cut_size, "start {i}");
            }
        }
    }

    #[test]
    fn full_ties_go_to_the_lowest_start_and_its_first_sweep() {
        // a ring of 2-pin signals: every longest path is a pair of
        // antipodes, and every sweep cuts two signals, one module off
        // halves — but not the same halves for every start and sweep
        let n = 16;
        let mut b = HypergraphBuilder::with_vertices(n);
        for i in 0..n {
            b.add_edge([VertexId::new(i), VertexId::new((i + 1) % n)])
                .unwrap();
        }
        let h = b.build();
        let (seed, starts) = (2, 8);
        // each start's own stream, one sweep at a time
        let single = |policy, start: usize| {
            Algorithm1::new(
                PartitionConfig::new()
                    .seed(seed ^ start as u64)
                    .front_policy(policy),
            )
            .run(&h)
            .unwrap()
        };
        let rank = |o: &PartitionOutcome| {
            let (l, r) = o.report.weights;
            (o.report.cut_size, l.abs_diff(r))
        };
        let first = single(FrontPolicy::SmallerFirst, 0);
        let (mut starts_differ, mut sweeps_differ) = (false, false);
        for start in 0..starts {
            let [a, b] =
                [FrontPolicy::SmallerFirst, FrontPolicy::Alternate].map(|p| single(p, start));
            assert_eq!(
                (rank(&a), rank(&b)),
                (rank(&first), rank(&first)),
                "start {start}"
            );
            starts_differ |= a.bipartition != first.bipartition;
            sweeps_differ |= a.bipartition != b.bipartition;
        }
        assert!(starts_differ && sweeps_differ);

        let out =
            thread_invariant_run(&h, PartitionConfig::new().seed(seed).starts(starts)).unwrap();
        assert_eq!(out.stats.chosen_start, Some(0));
        assert_eq!(out.bipartition, first.bipartition);
    }

    #[test]
    fn chosen_start_respects_reduction_order() {
        let h = two_clusters(1);
        let out = Algorithm1::new(PartitionConfig::new().starts(20).seed(2))
            .run(&h)
            .unwrap();
        let chosen = out.stats.chosen_start.unwrap();
        let best_cut = out.report.cut_size;
        assert_eq!(out.stats.per_start[chosen].cut_size, Some(best_cut));
        // no earlier start may hold a strictly better cut — under the
        // cut-size objective that would have won the reduction
        for s in &out.stats.per_start[..chosen] {
            assert!(s.cut_size.is_none_or(|c| c >= best_cut));
        }
    }
}
