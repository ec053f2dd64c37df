//! The dual *intersection graph* of a hypergraph.
//!
//! Given a hypergraph `H`, the intersection graph `G` has one vertex per
//! hyperedge of `H`, with two vertices adjacent iff the corresponding
//! hyperedges share a module (paper §2, Figure 1). Algorithm I operates
//! entirely on `G`: a graph cut in `G` whose boundary is handled by
//! Complete-Cut yields a hypergraph cut in `H`. It reads `G` through
//! [`DualIncidence`], straight off the incidence lists, and never builds
//! the adjacency; [`IntersectionGraph`] and the kernel below build it for
//! everything else (experiments, oracles, the serve fingerprint).
//!
//! The paper's §3 observes that a hyperedge of size `k` crosses the min-cut
//! bipartition with probability `1 − O(2^{−k})`, so edges above a size
//! threshold (as low as 10) can be *ignored* during partitioning with very
//! small expected error — and doing so keeps `G`'s degree bounded, which the
//! probabilistic guarantees need. The size filter is a [`Dualizer`] option;
//! ignored edges simply have no G-vertex and are scored at the end on the
//! final hypergraph partition.
//!
//! # The sparse dualization kernel
//!
//! Dualization generates one candidate G-edge per *(module, incident signal
//! pair)* — `Σ_v C(deg(v), 2)` pairs, with a duplicate for every extra
//! module two signals share. The historical builder pushed every pair into
//! a [`GraphBuilder`] edge list and deduplicated at the end, so a hub
//! module of degree `d` cost `C(d, 2)` insertions *per hub* even when the
//! pairs were all duplicates of each other. The kernel here instead:
//!
//! 1. numbers every candidate pair in one global vertex-major order
//!    (module `v`'s pairs start at the prefix sum of the pair counts
//!    before it) and cuts that pair-index space into contiguous **work
//!    units** — a boundary may fall inside a hub module's `C(d, 2)` pair
//!    block, so one hub can be spread over several units;
//! 2. generates each unit's pairs locally, sorts them, and drops the
//!    duplicates in place;
//! 3. merges the sorted unique unit runs pairwise in a balanced tree
//!    (a pair present in both runs is kept once) and fills the CSR
//!    adjacency from the merged list ([`Graph`]'s one CSR fill).
//!
//! [`Dualizer::pair_cap`] bounds the raw pair buffer. When the cap forces
//! more than one pass, each unit is one pass of at most `cap` pairs and
//! only its deduplicated run outlives it. Otherwise (uncapped, or a cap
//! covering the whole stream) the single pass is split into
//! `clamp(2·threads, 1, 32)` units — one at one thread — so dynamic
//! claiming can smooth out skew.
//!
//! Units are data-parallel; the workspace's one worker pool
//! ([`crate::pool`]) executes them. The merged output is the sorted
//! set union of the unit runs, which is a pure function of
//! `(H, threshold)` — **not** of the unit boundaries, the cap, the worker
//! count, or the completion order — so the built graph is bit-identical
//! for every `threads` and `pair_cap` value. [`DualizeStats`] reports
//! what the kernel did: pairs generated, duplicates merged, unique edges
//! inserted, passes, buffer peak, and wall time.

use std::sync::Arc;
use std::time::Duration;

use fhp_obs::{
    counter_total, names, order, span_total_ns, Collector, Event, Gauge, Progress, Scope,
};

use crate::{pool, BuildGraphError, EdgeId, Graph, GraphBuilder, Hypergraph, VertexId};

const FILTERED: u32 = u32::MAX;

/// Counters and timing from one dualization run; see the
/// [module docs](self) for the kernel the counters describe.
///
/// Since the `fhp-obs` integration this type is a thin facade: the
/// kernel records spans and counters into an [`fhp_obs::Scope`], and
/// [`DualizeStats::from_recorded`] reads the totals back out of the
/// event buffer. The struct remains the stable programmatic surface.
///
/// `pairs_generated − duplicates_merged = unique_edges` always holds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct DualizeStats {
    /// Candidate pairs generated, `Σ_v C(kept-deg(v), 2)`. This is also
    /// the number of edge insertions the naive pair-spray builder
    /// performs.
    pub pairs_generated: u64,
    /// Pairs collapsed into an already-seen adjacency (unit-local plus
    /// cross-unit merging).
    pub duplicates_merged: u64,
    /// Unique G-edges inserted into the CSR — the kernel's edge-insertion
    /// count.
    pub unique_edges: u64,
    /// Hyperedges that received a G-vertex.
    pub kept_edges: usize,
    /// Hyperedges dropped by the size threshold.
    pub filtered_edges: usize,
    /// Work units the pair-index space was cut into: the passes when the
    /// cap forces several, otherwise 1 at one thread and
    /// `clamp(2·threads, 1, 32)` above that. Informational — the graph
    /// never depends on it.
    pub shards: usize,
    /// Worker threads the kernel ran with.
    pub threads: usize,
    /// Generate→sort→dedup passes: `ceil(pairs_generated / cap)` under a
    /// [`Dualizer::pair_cap`], 1 when uncapped (and for the naive
    /// builder).
    pub passes: u64,
    /// Largest raw (pre-dedup) pair buffer held at any moment: the
    /// largest pass. A single pass holds the whole pair stream across its
    /// units, so this equals `pairs_generated` when uncapped; under a cap
    /// it never exceeds the cap. A pure function of
    /// `(instance, threshold, cap)` — never of the thread count.
    pub peak_pair_buffer: u64,
    /// Bytes of deduplicated per-pass runs retired out of the bounded pair
    /// buffer (8 bytes per unique pair, summed over passes); 0 for a
    /// single pass, which retires nothing.
    pub bytes_spilled: u64,
    /// Wall-clock time of the whole dualization.
    pub wall: Duration,
}

impl DualizeStats {
    /// Reconstructs the stats from a dualization scope's recorded
    /// events (the counters named `dualize.*` plus the root `dualize`
    /// span for wall time). `shards` and `threads` are passed directly:
    /// they vary with the `threads` knob, and the event payload is kept
    /// a pure function of the input so traces stay byte-identical
    /// across thread counts.
    pub fn from_recorded(events: &[Event], shards: usize, threads: usize) -> Self {
        Self {
            pairs_generated: counter_total(events, names::DUALIZE_PAIRS),
            duplicates_merged: counter_total(events, names::DUALIZE_DUPS),
            unique_edges: counter_total(events, names::DUALIZE_UNIQUE),
            kept_edges: counter_total(events, names::DUALIZE_KEPT) as usize,
            filtered_edges: counter_total(events, names::DUALIZE_FILTERED) as usize,
            shards,
            threads,
            passes: counter_total(events, names::DUALIZE_PASSES),
            peak_pair_buffer: counter_total(events, names::DUALIZE_PEAK_PAIR_BUFFER),
            bytes_spilled: counter_total(events, names::DUALIZE_BYTES_SPILLED),
            wall: Duration::from_nanos(span_total_ns(events, names::DUALIZE)),
        }
    }
}

/// Configures and runs the sparse dualization kernel.
///
/// # Examples
///
/// ```
/// use fhp_hypergraph::{Dualizer, intersection::paper_example};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let h = paper_example();
/// let ig = Dualizer::new().threshold(Some(10)).threads(2).build(&h)?;
/// assert_eq!(ig.num_g_vertices(), 9);
/// let stats = ig.stats();
/// assert_eq!(stats.pairs_generated, stats.unique_edges + stats.duplicates_merged);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Dualizer {
    threshold: Option<usize>,
    threads: usize,
    pair_cap: Option<usize>,
    collector: Collector,
    progress: Option<Arc<Progress>>,
}

impl Default for Dualizer {
    fn default() -> Self {
        Self {
            threshold: None,
            threads: 1,
            pair_cap: None,
            collector: Collector::disabled(),
            progress: None,
        }
    }
}

impl Dualizer {
    /// A kernel with no size filter, running single-threaded.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ignore hyperedges of size `>= threshold` (if `Some`); they get no
    /// G-vertex.
    pub fn threshold(mut self, threshold: Option<usize>) -> Self {
        self.threshold = threshold;
        self
    }

    /// Worker threads for the kernel's work units (default 1; `0` means
    /// one per available core). The built graph is bit-identical for every
    /// value — this knob only trades wall-clock time.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Caps the raw pair buffer of one pass at `cap` pairs (default
    /// `None` = one pass over the whole pair stream). A cap of 0 is
    /// treated as 1. The cap is a memory knob, never a semantics knob:
    /// the built graph is identical for every value, and only
    /// [`DualizeStats::passes`], [`DualizeStats::peak_pair_buffer`],
    /// [`DualizeStats::bytes_spilled`] and the unit count change.
    pub fn pair_cap(mut self, cap: Option<usize>) -> Self {
        self.pair_cap = cap;
        self
    }

    /// Records the build into `collector` (a `dualize` scope with phase
    /// spans and counters is adopted on success). The default collector
    /// is disabled: the kernel still records into a local buffer — that
    /// is how [`DualizeStats`] is derived — but nothing is retained.
    pub fn collector(mut self, collector: Collector) -> Self {
        self.collector = collector;
        self
    }

    /// Attaches a live [`Progress`] registry: pass totals are planned
    /// into it up front and `DualizePassesDone` / `DualizePairsRetired`
    /// tick as the kernel's parallel sections complete. Updates are
    /// relaxed atomic adds — no locks, no allocation — so attaching one
    /// does not perturb the hot loop.
    pub fn progress(mut self, progress: Option<Arc<Progress>>) -> Self {
        self.progress = progress;
        self
    }

    /// Runs the kernel on `h` (see the [module docs](self)): the global
    /// pair-index space is cut into work units, each unit generates, sorts
    /// and deduplicates only its own pairs, and the unit runs are merged
    /// with an order-insensitive sorted-set union. When a
    /// [`pair_cap`](Self::pair_cap) forces several passes, each pass is
    /// one unit of at most `cap` raw pairs — split mid-vertex when one
    /// module's `C(d, 2)` pairs exceed the cap — and only its deduplicated
    /// run outlives it.
    ///
    /// The graph and mapping are byte-identical for every cap and thread
    /// count, and every counter except the unit count is a pure function
    /// of `(h, threshold, cap)`.
    ///
    /// # Errors
    ///
    /// [`BuildGraphError::TooManyGVertices`] if the kept hyperedges
    /// overflow the `u32` G-vertex id space.
    pub fn build(&self, h: &Hypergraph) -> Result<IntersectionGraph, BuildGraphError> {
        let threads = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.threads
        };
        let scope = self.collector.scope(order::DUALIZE, None);
        let root = scope.span(names::DUALIZE);

        let plan = scope.span(names::DUALIZE_PLAN);
        let (kept, g_of) = keep_map(h, self.threshold)?;

        // Cumulative pair mass: prefix[v] is the global index of module
        // v's first pair in the vertex-major, row-major enumeration.
        let mut prefix = Vec::with_capacity(h.num_vertices() + 1);
        prefix.push(0u64);
        let mut total_pairs = 0u64;
        for v in h.vertices() {
            let kd = h
                .edges_of(v)
                .iter()
                .filter(|e| g_of[e.index()] != FILTERED) // fhp-audit: allow(panic-site) — keep_map sizes g_of to h.num_edges(), and edges_of yields edge ids of h
                .count() as u64;
            total_pairs += kd * (kd.saturating_sub(1)) / 2;
            prefix.push(total_pairs);
        }
        let cap = self.pair_cap.map_or(total_pairs, |c| c as u64).max(1);
        let passes = total_pairs.div_ceil(cap).max(1);
        // Several passes are the units themselves; a single pass is
        // oversharded a little so dynamic claiming can smooth out skew.
        let (units, unit_len) = if passes > 1 {
            (passes, cap)
        } else {
            let units = if threads <= 1 {
                1
            } else {
                (threads * 2).clamp(1, 32) as u64
            };
            (units, total_pairs.div_ceil(units))
        };
        drop(plan);

        // One span covers the whole parallel section: per-unit spans would
        // make the event count a function of the threads knob and break
        // cross-thread-count trace identity.
        if let Some(p) = self.progress.as_deref() {
            p.add(Gauge::DualizePassesTotal, passes);
        }
        let shards_span = scope.span(names::DUALIZE_SHARDS);
        let progress = self.progress.as_deref();
        let (runs, _) = pool::run_indexed(
            units as usize,
            threads,
            || (),
            |u, ()| {
                let lo = (u as u64 * unit_len).min(total_pairs);
                let hi = (lo + unit_len).min(total_pairs);
                let run = dualize_chunk(h, &g_of, &prefix, lo, hi);
                if let Some(p) = progress {
                    p.add(Gauge::DualizePairsRetired, run.generated);
                    if passes > 1 {
                        p.add(Gauge::DualizePassesDone, 1);
                    }
                }
                run
            },
        );
        drop(shards_span);
        if passes == 1 {
            if let Some(p) = progress {
                p.add(Gauge::DualizePassesDone, 1);
            }
        }

        let pairs_generated: u64 = runs.iter().map(|r| r.generated).sum();
        debug_assert_eq!(pairs_generated, total_pairs);
        // A single pass holds the whole stream at once and retires nothing;
        // each of several passes retires its deduplicated run.
        let (peak_pair_buffer, bytes_spilled) = if passes > 1 {
            (
                runs.iter().map(|r| r.generated).max().unwrap_or(0),
                runs.iter().map(|r| 8 * r.pairs.len() as u64).sum(),
            )
        } else {
            (pairs_generated, 0)
        };
        debug_assert!(peak_pair_buffer <= cap);
        let merge_span = scope.span(names::DUALIZE_MERGE);
        let pairs = merge_run_tree(runs);
        drop(merge_span);
        let unique_edges = pairs.len() as u64;
        let csr_span = scope.span(names::DUALIZE_CSR);
        let mut graph = Graph::empty(0);
        graph.fill(kept.len(), &pairs, &mut Vec::new());
        drop(csr_span);

        scope.counter(names::DUALIZE_PAIRS, pairs_generated);
        scope.counter(names::DUALIZE_DUPS, pairs_generated - unique_edges);
        scope.counter(names::DUALIZE_UNIQUE, unique_edges);
        scope.counter(names::DUALIZE_KEPT, kept.len() as u64);
        scope.counter(names::DUALIZE_FILTERED, (h.num_edges() - kept.len()) as u64);
        scope.counter(names::DUALIZE_PASSES, passes);
        scope.counter(names::DUALIZE_PEAK_PAIR_BUFFER, peak_pair_buffer);
        scope.counter(names::DUALIZE_BYTES_SPILLED, bytes_spilled);
        drop(root);

        let recorded = scope.finish();
        let stats = DualizeStats::from_recorded(&recorded.events, units as usize, threads);
        self.collector.adopt(recorded);

        Ok(IntersectionGraph {
            graph,
            kept,
            g_of,
            threshold: self.threshold,
            stats,
        })
    }
}

/// The intersection graph `G` dual to a hypergraph `H`, with the mapping
/// between G-vertices and H-hyperedges.
///
/// When built with a size threshold, only hyperedges *below* the threshold
/// receive a G-vertex; the mapping is then a compaction.
///
/// # Examples
///
/// The paper's Figure 1 hypergraph (8 modules, 5 signals A–E):
///
/// ```
/// use fhp_hypergraph::{HypergraphBuilder, IntersectionGraph, VertexId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::with_vertices(8);
/// let v = |i: usize| VertexId::new(i);
/// let a = b.add_edge([v(0), v(1)])?;
/// let bb = b.add_edge([v(1), v(2), v(3)])?;
/// let c = b.add_edge([v(3), v(4)])?;
/// let d = b.add_edge([v(4), v(5), v(6)])?;
/// let e = b.add_edge([v(6), v(7)])?;
/// let h = b.build();
/// let ig = IntersectionGraph::build(&h);
///
/// assert_eq!(ig.num_g_vertices(), 5);
/// assert!(ig.graph().has_edge(ig.g_vertex_of(a).unwrap(), ig.g_vertex_of(bb).unwrap()));
/// assert!(!ig.graph().has_edge(ig.g_vertex_of(a).unwrap(), ig.g_vertex_of(c).unwrap()));
/// # let _ = (d, e);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct IntersectionGraph {
    graph: Graph,
    /// `kept[g]` = hyperedge represented by G-vertex `g`.
    kept: Vec<EdgeId>,
    /// `g_of[e]` = G-vertex of hyperedge `e`, or `u32::MAX` if filtered out.
    g_of: Vec<u32>,
    threshold: Option<usize>,
    stats: DualizeStats,
}

impl IntersectionGraph {
    /// Builds the full intersection graph (no size filtering).
    ///
    /// # Panics
    ///
    /// Panics if the kept hyperedges overflow `u32` G-vertex ids; use
    /// [`Dualizer::build`] to handle that case as an error.
    pub fn build(h: &Hypergraph) -> Self {
        Self::build_with_threshold(h, None)
    }

    /// Builds the intersection graph over hyperedges of size `< threshold`
    /// (if `Some`); hyperedges at or above the threshold get no G-vertex.
    ///
    /// Cost is `O(Σ_v C(deg(v), 2))` pair generation, deduplicated
    /// unit-locally before any edge insertion; for bounded-degree
    /// netlists this is linear in pins. See the [module docs](self).
    ///
    /// # Panics
    ///
    /// Panics if the kept hyperedges overflow `u32` G-vertex ids; use
    /// [`Dualizer::build`] to handle that case as an error.
    pub fn build_with_threshold(h: &Hypergraph, threshold: Option<usize>) -> Self {
        Dualizer::new()
            .threshold(threshold)
            .build(h)
            // fhp-audit: allow(panic-site) — documented `# Panics` API; Dualizer::build is the fallible form
            .expect("kept hyperedges overflow u32 G-vertex ids")
    }

    /// The historical pair-spray builder, retained verbatim as the oracle
    /// the equivalence test battery compares the sparse kernel against:
    /// one [`GraphBuilder::add_edge`] call per generated pair, global
    /// sort-and-dedup at the end.
    ///
    /// Produces the same graph and mapping as [`Dualizer::build`] — only
    /// slower, and with [`DualizeStats::unique_edges`] reported from its
    /// own recount.
    ///
    /// # Panics
    ///
    /// Panics if the kept hyperedges overflow `u32` G-vertex ids.
    pub fn build_naive_with_threshold(h: &Hypergraph, threshold: Option<usize>) -> Self {
        let scope = Scope::detached(order::DUALIZE, None);
        let root = scope.span(names::DUALIZE);
        // fhp-audit: allow(panic-site) — documented `# Panics` API, mirrors build_with_threshold
        let (kept, g_of) = keep_map(h, threshold).expect("kept hyperedges overflow u32 ids");
        let mut gb = GraphBuilder::new(kept.len());
        let mut all_pairs: Vec<(u32, u32)> = Vec::new();
        for v in h.vertices() {
            let inc = h.edges_of(v);
            for (i, &a) in inc.iter().enumerate() {
                let ga = g_of[a.index()]; // fhp-audit: allow(panic-site) — g_of is sized to h.num_edges() by keep_map, and every id looked up is an edge id of h
                if ga == FILTERED {
                    continue;
                }
                // fhp-audit: allow(panic-site) — i < inc.len(), so i + 1 <= inc.len()
                for &b in &inc[i + 1..] {
                    // fhp-audit: allow(panic-site) — g_of is sized to h.num_edges() by keep_map, and every id looked up is an edge id of h
                    let gb2 = g_of[b.index()]; // fhp-audit: allow(panic-site) — g_of is sized to h.num_edges() by keep_map, and every id looked up is an edge id of h
                    if gb2 != FILTERED {
                        gb.add_edge(ga, gb2);
                        all_pairs.push((ga, gb2));
                    }
                }
            }
        }
        let pairs_generated = all_pairs.len() as u64;
        let graph = gb.build();

        // Unique pairs by an independent sort + dedup, so the oracle's
        // count does not share code with the kernel's merge.
        all_pairs.sort_unstable();
        all_pairs.dedup();
        let unique_edges = all_pairs.len() as u64;

        scope.counter(names::DUALIZE_PAIRS, pairs_generated);
        scope.counter(names::DUALIZE_DUPS, pairs_generated - unique_edges);
        scope.counter(names::DUALIZE_UNIQUE, unique_edges);
        scope.counter(names::DUALIZE_KEPT, kept.len() as u64);
        scope.counter(names::DUALIZE_FILTERED, (h.num_edges() - kept.len()) as u64);
        scope.counter(names::DUALIZE_PASSES, 1);
        scope.counter(names::DUALIZE_PEAK_PAIR_BUFFER, pairs_generated);
        scope.counter(names::DUALIZE_BYTES_SPILLED, 0);
        drop(root);

        let recorded = scope.finish();
        Self {
            graph,
            kept,
            g_of,
            threshold,
            stats: DualizeStats::from_recorded(&recorded.events, 1, 1),
        }
    }

    /// The underlying simple graph `G`.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// What the dualization kernel did to build this graph.
    pub fn stats(&self) -> &DualizeStats {
        &self.stats
    }

    /// Number of G-vertices (kept hyperedges).
    pub fn num_g_vertices(&self) -> usize {
        self.kept.len()
    }

    /// The hyperedge represented by G-vertex `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn edge_of(&self, g: u32) -> EdgeId {
        self.kept[g as usize] // fhp-audit: allow(panic-site) — documented `# Panics`: g must be a G-vertex id
    }

    /// The G-vertex of hyperedge `e`, or `None` if it was filtered out by
    /// the size threshold.
    pub fn g_vertex_of(&self, e: EdgeId) -> Option<u32> {
        let g = self.g_of[e.index()]; // fhp-audit: allow(panic-site) — g_of is sized to h.num_edges() by keep_map, and every id looked up is an edge id of h
        (g != FILTERED).then_some(g)
    }

    /// The threshold this graph was built with.
    pub fn threshold(&self) -> Option<usize> {
        self.threshold
    }

    /// Hyperedges that were filtered out (size ≥ threshold).
    pub fn filtered_edges<'a>(&'a self, h: &'a Hypergraph) -> impl Iterator<Item = EdgeId> + 'a {
        h.edges().filter(|e| self.g_of[e.index()] == FILTERED) // fhp-audit: allow(panic-site) — g_of is sized to h.num_edges() by keep_map, and every id looked up is an edge id of h
    }
}

/// `G` read straight off the netlist's incidence lists: each G-vertex's
/// pins and each module's kept nets, both as CSR lists, with no adjacency
/// stored.
///
/// Two kept nets are adjacent in `G` iff they share a module, so a net's
/// neighbours are the other kept nets on its modules. A traversal that
/// expands each module once — the BFS of [`crate::bfs::bfs_dual_into`] and
/// Algorithm I's two-front sweep — therefore reads each kept pin at most
/// twice, where `G`'s CSR holds up to `Σ_m C(d_m, 2)` adjacencies for
/// modules of `d_m` kept nets. The view costs `O(pins)` to build and
/// holds no pair at all.
///
/// G ids are [`IntersectionGraph`]'s: the hyperedges below the
/// threshold, numbered in edge order. Each module's kept nets are listed
/// in ascending G id.
///
/// # Examples
///
/// ```
/// use fhp_hypergraph::{intersection::paper_example, DualIncidence, VertexId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let h = paper_example();
/// let view = DualIncidence::new(&h, None)?;
/// assert_eq!(view.num_g_vertices(), 9);
/// // module 6 carries signals e, f, g and i
/// assert_eq!(view.nets_of(VertexId::new(5)), [4, 5, 6, 8]);
/// // filtering the 4-pin signals c and i renumbers the rest
/// let filtered = DualIncidence::new(&h, Some(4))?;
/// assert_eq!(filtered.nets_of(VertexId::new(5)), [3, 4, 5]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct DualIncidence<'h> {
    h: &'h Hypergraph,
    /// G-vertex `g`'s modules are `pins[pin_offsets[g]..pin_offsets[g + 1]]`.
    pin_offsets: Vec<usize>,
    pins: Vec<VertexId>,
    /// Module `m`'s kept nets are `nets[offsets[m]..offsets[m + 1]]`.
    offsets: Vec<usize>,
    nets: Vec<u32>,
    cross_pair_bound: u64,
    first_linked: Option<u32>,
    stats: DualizeStats,
}

impl<'h> DualIncidence<'h> {
    /// Builds the view of `h` over the hyperedges of size `< threshold`
    /// (all of them for `None`), recording nothing.
    ///
    /// # Errors
    ///
    /// [`BuildGraphError::TooManyGVertices`] if the kept hyperedges
    /// overflow the `u32` G-vertex id space.
    pub fn new(h: &'h Hypergraph, threshold: Option<usize>) -> Result<Self, BuildGraphError> {
        Self::build(h, threshold, &Collector::disabled())
    }

    /// [`new`](Self::new), recorded into `collector` as a `dualize`
    /// scope: the build's span and the kept and filtered counts, which
    /// [`stats`](Self::stats) reads back (the pair counters stay 0).
    ///
    /// # Errors
    ///
    /// As [`new`](Self::new).
    pub fn build(
        h: &'h Hypergraph,
        threshold: Option<usize>,
        collector: &Collector,
    ) -> Result<Self, BuildGraphError> {
        let scope = collector.scope(order::DUALIZE, None);
        let root = scope.span(names::DUALIZE);
        let (kept, g_of) = keep_map(h, threshold)?;
        let mut offsets = Vec::with_capacity(h.num_vertices() + 1);
        offsets.push(0);
        let kept_pins = kept.iter().map(|&e| h.edge_size(e)).sum();
        let mut pin_offsets = Vec::with_capacity(kept.len() + 1);
        pin_offsets.push(0);
        let mut pins = Vec::with_capacity(kept_pins);
        for &e in &kept {
            pins.extend_from_slice(h.pins(e));
            pin_offsets.push(pins.len());
        }
        let mut nets = Vec::with_capacity(kept_pins);
        let mut cross_pair_bound = 0u64;
        let mut first_linked: Option<u32> = None;
        for v in h.vertices() {
            let first = nets.len();
            // edges_of is ascending and g_of keeps edge order, so each
            // module's list comes out ascending
            nets.extend(
                h.edges_of(v)
                    .iter()
                    .map(|e| g_of[e.index()]) // fhp-audit: allow(panic-site) — keep_map sizes g_of to h.num_edges(), and edges_of yields edge ids of h
                    .filter(|&g| g != FILTERED),
            );
            let d = (nets.len() - first) as u64;
            cross_pair_bound += d * d / 4;
            if d >= 2 {
                let lowest = nets[first]; // fhp-audit: allow(panic-site) — d >= 2 nets were just pushed from index first
                first_linked = Some(first_linked.map_or(lowest, |f| f.min(lowest)));
            }
            offsets.push(nets.len());
        }
        drop(root);
        scope.counter(names::DUALIZE_KEPT, kept.len() as u64);
        scope.counter(names::DUALIZE_FILTERED, (h.num_edges() - kept.len()) as u64);
        let recorded = scope.finish();
        let stats = DualizeStats::from_recorded(&recorded.events, 1, 1);
        collector.adopt(recorded);
        Ok(Self {
            h,
            pin_offsets,
            pins,
            offsets,
            nets,
            cross_pair_bound,
            first_linked,
            stats,
        })
    }

    /// The hypergraph this view reads.
    pub fn hypergraph(&self) -> &'h Hypergraph {
        self.h
    }

    /// Number of G-vertices (kept hyperedges).
    pub fn num_g_vertices(&self) -> usize {
        self.pin_offsets.len() - 1
    }

    /// Number of modules, `h.num_vertices()`.
    pub fn num_modules(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `Σ|e|` over the kept hyperedges: every module's kept-net count
    /// summed. A traversal's read bounds are multiples of it.
    pub fn num_kept_pins(&self) -> usize {
        self.nets.len()
    }

    /// The modules on G-vertex `g`'s hyperedge, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn pins(&self, g: u32) -> &[VertexId] {
        let g = g as usize;
        // fhp-audit: allow(panic-site) — documented `# Panics`: g must be a G-vertex id; pin_offsets has num_g_vertices + 1 ascending entries within pins
        &self.pins[self.pin_offsets[g]..self.pin_offsets[g + 1]]
    }

    /// Module `m`'s kept nets as G ids, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn nets_of(&self, m: VertexId) -> &[u32] {
        // fhp-audit: allow(panic-site) — documented `# Panics`: m must be a module of h; offsets has num_modules + 1 ascending entries within nets
        &self.nets[self.offsets[m.index()]..self.offsets[m.index() + 1]]
    }

    /// `Σ_m ⌊d_m² / 4⌋` over the modules' kept-net counts `d_m`: a module
    /// whose kept nets split `l + r` across a cut joins `l·r ≤ ⌊d_m²/4⌋`
    /// (left, right) pairs, so no cut's boundary graph has more edges,
    /// nor a module-by-module listing of them more entries.
    pub fn cross_pair_bound(&self) -> u64 {
        self.cross_pair_bound
    }

    /// The lowest G-vertex with a neighbour in `G`, or `None` when `G`
    /// has no edge.
    pub fn first_linked(&self) -> Option<u32> {
        self.first_linked
    }

    /// The build's kept and filtered counts and wall time.
    pub fn stats(&self) -> &DualizeStats {
        &self.stats
    }
}

/// Computes the kept-edge list and the `g_of` compaction, rejecting
/// instances whose kept edges overflow the `u32` id space (the `FILTERED`
/// sentinel reserves one id).
fn keep_map(
    h: &Hypergraph,
    threshold: Option<usize>,
) -> Result<(Vec<EdgeId>, Vec<u32>), BuildGraphError> {
    let keep = |e: EdgeId| match threshold {
        Some(t) => h.edge_size(e) < t,
        None => true,
    };
    let mut kept = Vec::new();
    let mut g_of = vec![FILTERED; h.num_edges()];
    for e in h.edges() {
        if keep(e) {
            let id = u32::try_from(kept.len())
                .ok()
                .filter(|&id| id != FILTERED)
                .ok_or(BuildGraphError::TooManyGVertices {
                    found: kept.len() + 1,
                })?;
            g_of[e.index()] = id; // fhp-audit: allow(panic-site) — g_of is sized to h.num_edges() above, and h.edges() yields edge ids of h
            kept.push(e);
        }
    }
    Ok((kept, g_of))
}

/// One work unit's output: its sorted unique pairs, plus how many raw
/// pairs it generated.
struct Run {
    pairs: Vec<(u32, u32)>,
    generated: u64,
}

/// Generates, sorts, and deduplicates one work unit: the global
/// pair-index range `lo..hi` of the vertex-major, row-major pair
/// enumeration. `prefix[v]` is the cumulative kept-pair mass before module
/// `v`, so a unit boundary can fall *inside* a hub module's pair block —
/// that is exactly what keeps the raw buffer below the cap when one
/// module alone exceeds it. Pure function of `(h, g_of, prefix, lo, hi)`.
fn dualize_chunk(h: &Hypergraph, g_of: &[u32], prefix: &[u64], lo: u64, hi: u64) -> Run {
    let mut buf: Vec<(u32, u32)> = Vec::new();
    let mut incident: Vec<u32> = Vec::new();
    // Last v with prefix[v] <= lo (prefix is non-decreasing, prefix[0]=0).
    let mut v = prefix.partition_point(|&p| p <= lo) - 1;
    // fhp-audit: allow(panic-site) — prefix has num_vertices + 1 entries, so v and v + 1 index it while v < num_vertices
    while v < h.num_vertices() && prefix[v] < hi {
        // fhp-audit: allow(panic-site) — prefix has num_vertices + 1 entries, so v and v + 1 index it while v < num_vertices
        let a = lo.max(prefix[v]) - prefix[v]; // fhp-audit: allow(panic-site) — prefix has num_vertices + 1 entries, so v and v + 1 index it while v < num_vertices
        let b = hi.min(prefix[v + 1]) - prefix[v]; // fhp-audit: allow(panic-site) — prefix has num_vertices + 1 entries, so v and v + 1 index it while v < num_vertices
        if a < b {
            incident.clear();
            incident.extend(h.edges_of(VertexId::new(v)).iter().filter_map(|e| {
                let g = g_of[e.index()]; // fhp-audit: allow(panic-site) — keep_map sizes g_of to h.num_edges(), and edges_of yields edge ids of h
                (g != FILTERED).then_some(g)
            }));
            emit_pair_range(&incident, a, b, &mut buf);
        }
        v += 1;
    }
    let generated = buf.len() as u64;
    buf.sort_unstable();
    buf.dedup();
    // Only the deduplicated run outlives the pass: give back the rest of
    // the raw buffer.
    buf.shrink_to_fit();
    Run {
        pairs: buf,
        generated,
    }
}

/// Emits pairs `a..b` (local row-major indices) of the `C(k, 2)` pair
/// block of one module's ascending incidence list: row `i` pairs
/// `incident[i]` with each later entry, so row `i` holds `k − 1 − i`
/// pairs. Skips whole rows outside the window rather than counting
/// through them one by one.
fn emit_pair_range(incident: &[u32], a: u64, b: u64, buf: &mut Vec<(u32, u32)>) {
    let k = incident.len();
    let mut row_start = 0u64;
    for (i, &head) in incident.iter().enumerate() {
        let row_end = row_start + (k - 1 - i) as u64;
        if row_end > a && row_start < b {
            let jlo = a.saturating_sub(row_start) as usize;
            let jhi = (b.min(row_end) - row_start) as usize;
            // fhp-audit: allow(panic-site) — jlo <= jhi <= k − 1 − i, so the row slice ends at or before incident.len()
            let row = &incident[i + 1 + jlo..i + 1 + jhi];
            buf.extend(row.iter().map(|&tail| (head, tail)));
        }
        if row_end >= b {
            break;
        }
        row_start = row_end;
    }
}

/// Two-pointer merge of two sorted unique runs into their sorted union;
/// a pair present in both is kept once.
fn merge_two(a: Run, b: Run) -> Run {
    let mut pairs = Vec::with_capacity(a.pairs.len() + b.pairs.len());
    let (mut i, mut j) = (0usize, 0usize);
    while let (Some(&x), Some(&y)) = (a.pairs.get(i), b.pairs.get(j)) {
        pairs.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    pairs.extend_from_slice(&a.pairs[i..]); // fhp-audit: allow(panic-site) — the loop advances i at most to a.pairs.len()
    pairs.extend_from_slice(&b.pairs[j..]); // fhp-audit: allow(panic-site) — the loop advances j at most to b.pairs.len()
    Run {
        pairs,
        generated: a.generated + b.generated,
    }
}

/// Folds the unit runs pairwise into one sorted unique pair list (a
/// balanced merge tree: O(total · log units) rather than a linear k-way
/// scan's O(total · units), which matters at cap=1). Set union is
/// associative and commutative, so the result is independent of both the
/// unit boundaries and the fold shape.
fn merge_run_tree(mut runs: Vec<Run>) -> Vec<(u32, u32)> {
    while runs.len() > 1 {
        let mut folded = Vec::with_capacity(runs.len().div_ceil(2));
        let mut iter = runs.into_iter();
        while let Some(a) = iter.next() {
            match iter.next() {
                Some(b) => folded.push(merge_two(a, b)),
                None => folded.push(a),
            }
        }
        runs = folded;
    }
    runs.pop().map_or_else(Vec::new, |r| r.pairs)
}

/// Convenience: builds the paper's Figure 4 running-example hypergraph
/// (12 modules `1..=12` as vertices `0..=11`, 9 signals `a..=i`).
///
/// Used by documentation, tests and the `quickstart` example. The signals
/// are, in order a–i:
/// `{1,2,11}, {2,4,11}, {1,3,4,12}, {3,5}, {4,6,7}, {5,6,8}, {6,8}, {7,9,10}, {6,7,9,10}`.
pub fn paper_example() -> Hypergraph {
    let mut b = crate::HypergraphBuilder::with_vertices(12);
    let v = |i: usize| VertexId::new(i - 1); // paper modules are 1-based
    let signals: [&[usize]; 9] = [
        &[1, 2, 11],
        &[2, 4, 11],
        &[1, 3, 4, 12],
        &[3, 5],
        &[4, 6, 7],
        &[5, 6, 8],
        &[6, 8],
        &[7, 9, 10],
        &[6, 7, 9, 10],
    ];
    for pins in signals {
        b.add_edge(pins.iter().map(|&i| v(i)))
            // fhp-audit: allow(panic-site) — static fixture from the paper's Fig. 2, validated by tests
            .expect("static example is valid");
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HypergraphBuilder;

    fn chain_hypergraph() -> Hypergraph {
        // edges: {0,1}, {1,2}, {2,3} -> G is a path a-b-c
        let mut b = HypergraphBuilder::with_vertices(4);
        for i in 0..3u32 {
            b.add_edge([VertexId::new(i as usize), VertexId::new(i as usize + 1)])
                .unwrap();
        }
        b.build()
    }

    #[test]
    fn chain_dualizes_to_path() {
        let h = chain_hypergraph();
        let ig = IntersectionGraph::build(&h);
        assert_eq!(ig.num_g_vertices(), 3);
        let g = ig.graph();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn adjacency_iff_shared_module() {
        let h = paper_example();
        let ig = IntersectionGraph::build(&h);
        for a in h.edges() {
            for b in h.edges() {
                if a >= b {
                    continue;
                }
                let share = h.pins(a).iter().any(|p| h.pins(b).contains(p));
                let (ga, gb) = (ig.g_vertex_of(a).unwrap(), ig.g_vertex_of(b).unwrap());
                assert_eq!(ig.graph().has_edge(ga, gb), share, "edges {a} and {b}");
            }
        }
    }

    #[test]
    fn paper_figure4_adjacency() {
        // Spot-check figure 4: c is adjacent to a, b, d, e; k... the paper's
        // letters map to indices a=0..i=8.
        let h = paper_example();
        let ig = IntersectionGraph::build(&h);
        let g = ig.graph();
        let idx = |ch: char| (ch as u8 - b'a') as u32;
        assert!(g.has_edge(idx('a'), idx('b'))); // share modules 2, 11
        assert!(g.has_edge(idx('a'), idx('c'))); // share module 1
        assert!(g.has_edge(idx('c'), idx('d'))); // share module 3
        assert!(g.has_edge(idx('h'), idx('i'))); // share 7, 9, 10
        assert!(!g.has_edge(idx('a'), idx('i')));
        assert!(!g.has_edge(idx('d'), idx('h')));
    }

    #[test]
    fn stats_balance_on_paper_example() {
        let h = paper_example();
        let ig = IntersectionGraph::build(&h);
        let s = ig.stats();
        assert_eq!(s.pairs_generated, s.unique_edges + s.duplicates_merged);
        assert_eq!(s.unique_edges, ig.graph().num_edges() as u64);
        assert_eq!(s.kept_edges, 9);
        assert_eq!(s.filtered_edges, 0);
        assert_eq!(s.shards, 1);
        assert_eq!(s.threads, 1);
    }

    #[test]
    fn naive_oracle_matches_kernel_on_paper_example() {
        let h = paper_example();
        for threshold in [None, Some(3), Some(4), Some(10)] {
            let naive = IntersectionGraph::build_naive_with_threshold(&h, threshold);
            for threads in [1, 2, 8] {
                let fast = Dualizer::new()
                    .threshold(threshold)
                    .threads(threads)
                    .build(&h)
                    .unwrap();
                assert_eq!(fast.graph(), naive.graph(), "threads {threads}");
                assert_eq!(fast.g_of, naive.g_of);
                assert_eq!(fast.kept, naive.kept);
                assert_eq!(fast.stats().pairs_generated, naive.stats().pairs_generated);
                assert_eq!(fast.stats().unique_edges, naive.stats().unique_edges);
            }
        }
    }

    #[test]
    fn hub_module_pairs_collapse() {
        // 16 signals all sharing 4 hub modules: the naive builder sprays
        // 4 * C(16, 2) pair insertions, the kernel inserts C(16, 2) edges.
        let mut b = HypergraphBuilder::with_vertices(4 + 16);
        for s in 0..16 {
            let mut pins: Vec<VertexId> = (0..4).map(VertexId::new).collect();
            pins.push(VertexId::new(4 + s));
            b.add_edge(pins).unwrap();
        }
        let h = b.build();
        let ig = Dualizer::new().threads(2).build(&h).unwrap();
        let s = ig.stats();
        assert_eq!(s.pairs_generated, 4 * 120);
        assert_eq!(s.unique_edges, 120);
        assert_eq!(s.duplicates_merged, 3 * 120);
    }

    /// One module shared by `signals` 2-pin signals: all `C(signals, 2)`
    /// pairs sit inside a single vertex's pair block.
    fn hub(signals: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::with_vertices(1 + signals);
        for s in 0..signals {
            b.add_edge([VertexId::new(0), VertexId::new(1 + s)])
                .unwrap();
        }
        b.build()
    }

    #[test]
    fn uncapped_units_split_a_hub_module() {
        // C(64, 2) = 2016 pairs in one vertex's block: an uncapped pass
        // split into several units must cut the block mid-vertex and still
        // reproduce the naive builder exactly
        let h = hub(64);
        let naive = IntersectionGraph::build_naive_with_threshold(&h, None);
        for threads in [2usize, 8] {
            let ig = Dualizer::new().threads(threads).build(&h).unwrap();
            assert_eq!(ig.graph(), naive.graph(), "threads {threads}");
            assert_eq!(ig.g_of, naive.g_of);
            let s = ig.stats();
            assert_eq!(s.pairs_generated, 2016);
            assert_eq!(s.passes, 1);
            assert_eq!(s.peak_pair_buffer, s.pairs_generated);
            assert_eq!(s.bytes_spilled, 0);
            assert_eq!(s.shards, (2 * threads).clamp(1, 32));
        }
    }

    #[test]
    fn threshold_filters_large_edges() {
        let h = paper_example(); // max edge size 4
        let ig = IntersectionGraph::build_with_threshold(&h, Some(4));
        // signals c (size 4) and i (size 4) filtered out
        assert_eq!(ig.num_g_vertices(), 7);
        assert_eq!(ig.g_vertex_of(EdgeId::new(2)), None);
        assert_eq!(ig.g_vertex_of(EdgeId::new(8)), None);
        let filtered: Vec<_> = ig.filtered_edges(&h).collect();
        assert_eq!(filtered, vec![EdgeId::new(2), EdgeId::new(8)]);
        assert_eq!(ig.threshold(), Some(4));
        assert_eq!(ig.stats().kept_edges, 7);
        assert_eq!(ig.stats().filtered_edges, 2);
        // round trip mapping on kept edges
        for g in 0..ig.num_g_vertices() as u32 {
            assert_eq!(ig.g_vertex_of(ig.edge_of(g)), Some(g));
        }
    }

    #[test]
    fn no_self_adjacency() {
        let h = chain_hypergraph();
        let ig = IntersectionGraph::build(&h);
        for g in ig.graph().vertices() {
            assert!(!ig.graph().has_edge(g, g));
        }
    }

    #[test]
    fn paper_example_shape() {
        let h = paper_example();
        assert_eq!(h.num_vertices(), 12);
        assert_eq!(h.num_edges(), 9);
        assert_eq!(h.max_edge_size(), 4);
    }

    #[test]
    fn empty_and_edgeless() {
        let h = HypergraphBuilder::with_vertices(3).build();
        for threads in [1, 4] {
            for cap in [None, Some(1)] {
                let ig = Dualizer::new()
                    .threads(threads)
                    .pair_cap(cap)
                    .build(&h)
                    .unwrap();
                assert_eq!(ig.num_g_vertices(), 0);
                let s = ig.stats();
                assert_eq!(s.pairs_generated, 0);
                assert_eq!(s.passes, 1);
                assert_eq!(s.peak_pair_buffer, 0);
                assert_eq!(s.bytes_spilled, 0);
            }
        }
    }

    #[test]
    fn auto_threads_build_matches_sequential() {
        let h = paper_example();
        let auto = Dualizer::new().threads(0).build(&h).unwrap();
        let seq = Dualizer::new().threads(1).build(&h).unwrap();
        assert_eq!(auto.graph(), seq.graph());
    }

    #[test]
    fn pair_cap_never_changes_the_graph_on_paper_example() {
        let h = paper_example();
        for threshold in [None, Some(3), Some(4), Some(10)] {
            let naive = IntersectionGraph::build_naive_with_threshold(&h, threshold);
            let total = naive.stats().pairs_generated;
            for cap in [None, Some(1), Some(2), Some(7), Some(10_000)] {
                for threads in [1, 2, 8] {
                    let ig = Dualizer::new()
                        .threshold(threshold)
                        .threads(threads)
                        .pair_cap(cap)
                        .build(&h)
                        .unwrap();
                    assert_eq!(ig.graph(), naive.graph(), "cap {cap:?} threads {threads}");
                    assert_eq!(ig.g_of, naive.g_of);
                    assert_eq!(ig.kept, naive.kept);
                    let s = ig.stats();
                    assert_eq!(s.pairs_generated, total);
                    assert_eq!(s.pairs_generated, s.unique_edges + s.duplicates_merged);
                    let expect_passes = match cap {
                        Some(c) if total > 0 => total.div_ceil(c as u64),
                        _ => 1,
                    };
                    assert_eq!(s.passes, expect_passes, "cap {cap:?}");
                    let expect_units = if expect_passes > 1 {
                        expect_passes as usize
                    } else if threads == 1 {
                        1
                    } else {
                        (2 * threads).clamp(1, 32)
                    };
                    assert_eq!(s.shards, expect_units, "cap {cap:?} threads {threads}");
                    let effective = cap.map_or(total.max(1), |c| c as u64);
                    assert!(s.peak_pair_buffer <= effective, "cap {cap:?}");
                    assert_eq!(s.bytes_spilled % 8, 0);
                    if expect_passes == 1 {
                        assert_eq!(s.peak_pair_buffer, total);
                        assert_eq!(s.bytes_spilled, 0);
                    }
                }
            }
        }
    }

    #[test]
    fn cap_splits_inside_a_hub_module() {
        // C(64, 2) = 2016 pairs in a single vertex's block, far above most
        // caps: the unit plan must split mid-vertex and still reproduce the
        // uncapped build exactly
        let h = hub(64);
        let oracle = Dualizer::new().build(&h).unwrap();
        assert_eq!(oracle.stats().pairs_generated, 2016);
        for cap in [1usize, 5, 100, 2015, 2016, 4096] {
            let ig = Dualizer::new()
                .pair_cap(Some(cap))
                .threads(2)
                .build(&h)
                .unwrap();
            assert_eq!(ig.graph(), oracle.graph(), "cap {cap}");
            let s = ig.stats();
            assert!(s.peak_pair_buffer <= cap as u64, "cap {cap}");
            assert_eq!(s.passes, 2016u64.div_ceil(cap as u64));
            // every hub pair is unique, so each pass retires all of its
            // pairs at 8 bytes apiece
            let spilled = if s.passes > 1 { 8 * 2016 } else { 0 };
            assert_eq!(s.bytes_spilled, spilled, "cap {cap}");
        }
    }

    #[test]
    fn naive_builder_reports_a_single_pass() {
        let s = IntersectionGraph::build_naive_with_threshold(&paper_example(), None)
            .stats()
            .clone();
        assert_eq!(s.passes, 1);
        assert_eq!(s.peak_pair_buffer, s.pairs_generated);
        assert_eq!(s.bytes_spilled, 0);
    }

    #[test]
    fn emit_pair_range_covers_the_block_in_order() {
        let incident = [2u32, 5, 7, 9]; // C(4, 2) = 6 pairs
        let mut whole = Vec::new();
        emit_pair_range(&incident, 0, 6, &mut whole);
        assert_eq!(whole, vec![(2, 5), (2, 7), (2, 9), (5, 7), (5, 9), (7, 9)]);
        // every window [a, b) reproduces the matching slice
        for a in 0..=6u64 {
            for b in a..=6u64 {
                let mut win = Vec::new();
                emit_pair_range(&incident, a, b, &mut win);
                assert_eq!(win, whole[a as usize..b as usize], "{a}..{b}");
            }
        }
    }
}
