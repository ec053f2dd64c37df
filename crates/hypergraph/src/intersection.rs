//! The dual *intersection graph* of a hypergraph.
//!
//! Given a hypergraph `H`, the intersection graph `G` has one vertex per
//! hyperedge of `H`, with two vertices adjacent iff the corresponding
//! hyperedges share a module (paper §2, Figure 1). Algorithm I operates
//! entirely on `G`: a graph cut in `G` whose boundary is handled by
//! Complete-Cut yields a hypergraph cut in `H`. It reads `G` through
//! [`DualIncidence`], straight off the incidence lists, and never builds
//! the adjacency; [`IntersectionGraph`] and the row writer below build it
//! for everything else (experiments, oracles, the serve fingerprint).
//!
//! The paper's §3 observes that a hyperedge of size `k` crosses the min-cut
//! bipartition with probability `1 − O(2^{−k})`, so edges above a size
//! threshold (as low as 10) can be *ignored* during partitioning with very
//! small expected error — and doing so keeps `G`'s degree bounded, which the
//! probabilistic guarantees need. The size filter is a [`Dualizer`] option;
//! ignored edges simply have no G-vertex and are scored at the end on the
//! final hypergraph partition.
//!
//! # Writing G's rows
//!
//! Dualization has one candidate G-edge per *(module, kept net pair)* —
//! `Σ_m C(d_m, 2)` pairs for modules of `d_m` kept nets, with a duplicate
//! for every extra module two nets share. The historical builder pushed
//! every pair into a [`GraphBuilder`] edge list and deduplicated at the
//! end, so a hub module of degree `d` cost `C(d, 2)` pair slots *per hub*
//! even when the pairs were all duplicates of each other; it stays as
//! [`IntersectionGraph::build_naive_with_threshold`], the reference the
//! tests and oracles hold the builder to. [`Dualizer::build`] holds no
//! pair at all. It lists `G`'s incidence as a [`DualIncidence`] view
//! does (each kept net's modules, each module's kept nets) and writes
//! each G-vertex's CSR row from them: the other kept nets on its modules,
//! each marked once in a stamp array, then sorted. The neighbour buffer
//! grows by doubling and is shrunk to size at the end, so a build holds
//! the lists, the stamps and at most twice the CSR's neighbours.
//! [`DualizeStats`] reports the pairs a pair-spray builder would
//! generate, the duplicates among them, the unique edges written, and
//! the wall time.

use std::cmp::Reverse;
use std::sync::Arc;
use std::time::Duration;

use fhp_obs::{counter_total, names, order, span_total_ns, Collector, Event, Scope};

use crate::components::LowestRootSets;
use crate::{BuildGraphError, EdgeId, Graph, GraphBuilder, Hypergraph, VertexId};

const FILTERED: u32 = u32::MAX;

/// Counters and timing from one dualization run; see the
/// [module docs](self) for the builder the counters describe.
///
/// The builder records its span and counters into an
/// [`fhp_obs::Scope`], and [`DualizeStats::from_recorded`] reads the
/// totals back out of the event buffer. The struct remains the stable
/// programmatic surface.
///
/// `pairs_generated − duplicates_merged = unique_edges` always holds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct DualizeStats {
    /// Candidate pairs, `Σ_m C(kept-deg(m), 2)` over the modules. This is
    /// the number of edge insertions the naive pair-spray builder
    /// performs.
    pub pairs_generated: u64,
    /// Candidate pairs that repeat an adjacency already counted: one for
    /// every extra module two kept nets share.
    pub duplicates_merged: u64,
    /// Unique G-edges written into the CSR.
    pub unique_edges: u64,
    /// Hyperedges that received a G-vertex.
    pub kept_edges: usize,
    /// Hyperedges dropped by the size threshold.
    pub filtered_edges: usize,
    /// Wall-clock time of the whole dualization.
    pub wall: Duration,
}

impl DualizeStats {
    /// Reconstructs the stats from a dualization scope's recorded
    /// events: the counters named `dualize.*` plus the root `dualize`
    /// span for wall time.
    pub fn from_recorded(events: &[Event]) -> Self {
        Self {
            pairs_generated: counter_total(events, names::DUALIZE_PAIRS),
            duplicates_merged: counter_total(events, names::DUALIZE_DUPS),
            unique_edges: counter_total(events, names::DUALIZE_UNIQUE),
            kept_edges: counter_total(events, names::DUALIZE_KEPT) as usize,
            filtered_edges: counter_total(events, names::DUALIZE_FILTERED) as usize,
            wall: Duration::from_nanos(span_total_ns(events, names::DUALIZE)),
        }
    }
}

/// Builds [`IntersectionGraph`]s: `G`'s CSR written row by row from the
/// incidence lists (see the [module docs](self)).
///
/// # Examples
///
/// ```
/// use fhp_hypergraph::{Dualizer, intersection::paper_example};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let h = paper_example();
/// let ig = Dualizer::new().threshold(Some(10)).build(&h)?;
/// assert_eq!(ig.num_g_vertices(), 9);
/// let stats = ig.stats();
/// assert_eq!(stats.pairs_generated, stats.unique_edges + stats.duplicates_merged);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct Dualizer {
    threshold: Option<usize>,
    collector: Collector,
}

impl Dualizer {
    /// A builder with no size filter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ignore hyperedges of size `>= threshold` (if `Some`); they get no
    /// G-vertex.
    pub fn threshold(mut self, threshold: Option<usize>) -> Self {
        self.threshold = threshold;
        self
    }

    /// Records the build into `collector` (a `dualize` scope with the
    /// build's span and counters is adopted on success). The default
    /// collector is disabled: the build still records into a local
    /// buffer — that is how [`DualizeStats`] is derived — but nothing is
    /// retained.
    pub fn collector(mut self, collector: Collector) -> Self {
        self.collector = collector;
        self
    }

    /// Builds `G` of `h` in three steps (see the [module docs](self)): the
    /// kept-edge map, the incidence lists a [`DualIncidence`] view reads
    /// (without its component table), and the row writer. The graph and
    /// mapping equal [`IntersectionGraph::build_naive_with_threshold`]'s,
    /// and every counter is a pure function of `(h, threshold)`.
    ///
    /// # Errors
    ///
    /// [`BuildGraphError::TooManyGVertices`] if the kept hyperedges
    /// overflow the `u32` G-vertex id space, and
    /// [`BuildGraphError::TooManyKeptPins`] if their pins overflow the
    /// incidence lists' `u32` offsets.
    pub fn build(&self, h: &Hypergraph) -> Result<IntersectionGraph, BuildGraphError> {
        let scope = self.collector.scope(order::DUALIZE, None);
        let root = scope.span(names::DUALIZE);
        let (kept, g_of) = keep_map(h, self.threshold)?;
        let mut pairs_generated = 0u64;
        let lists = Incidence::new(h, &kept, &g_of, |nets| {
            let d = nets.len() as u64;
            pairs_generated += d * d.saturating_sub(1) / 2;
        })?;
        let graph = write_rows(&lists);
        drop(lists);
        let unique_edges = graph.num_edges() as u64;

        scope.counter(names::DUALIZE_PAIRS, pairs_generated);
        scope.counter(names::DUALIZE_DUPS, pairs_generated - unique_edges);
        scope.counter(names::DUALIZE_UNIQUE, unique_edges);
        scope.counter(names::DUALIZE_KEPT, kept.len() as u64);
        scope.counter(names::DUALIZE_FILTERED, (h.num_edges() - kept.len()) as u64);
        drop(root);

        let recorded = scope.finish();
        let stats = DualizeStats::from_recorded(&recorded.events);
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

/// Writes `G`'s CSR from the incidence lists: G-vertex `g`'s row is the
/// other kept nets on `g`'s modules, each marked once in `stamp`
/// (`stamp[y] == g` once `y` is in `g`'s row) and then sorted. No pair
/// is held: the neighbour buffer grows by doubling and is shrunk to the
/// rows' size at the end.
fn write_rows(lists: &Incidence) -> Graph {
    let n = lists.num_g_vertices();
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0);
    let mut neighbors: Vec<u32> = Vec::new();
    let mut stamp = vec![FILTERED; n];
    for g in (0u32..).take(n) {
        let first = neighbors.len();
        // g stamps itself first, so its own id never enters its row
        stamp[g as usize] = g; // fhp-audit: allow(panic-site) — stamp has a slot per G id, and g is one
        for &m in lists.pins(g) {
            for &y in lists.nets_of(m) {
                // fhp-audit: allow(panic-site) — stamp has a slot per G id, and the lists hold G ids
                let seen = &mut stamp[y as usize];
                if *seen != g {
                    *seen = g;
                    neighbors.push(y);
                }
            }
        }
        neighbors[first..].sort_unstable(); // fhp-audit: allow(panic-site) — first was neighbors.len() before this row's pushes
        offsets.push(neighbors.len());
    }
    neighbors.shrink_to_fit();
    Graph::from_csr(offsets, neighbors)
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
    /// Cost is `O(Σ_m d_m²)` id reads for modules of `d_m` kept nets —
    /// each G-vertex's row reads the kept nets of each of its modules —
    /// plus sorting each row; for bounded-degree netlists this is linear
    /// in pins. The build holds the incidence lists, one stamp per
    /// G-vertex and the CSR, whose neighbour buffer reaches at most twice
    /// its final size while it grows, and no pair list. See the
    /// [module docs](self).
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

    /// The historical pair-spray builder, retained verbatim as the
    /// reference the tests and oracles compare [`Dualizer::build`] with:
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

        // Unique pairs by an independent sort + dedup, so the reference's
        // count does not share code with the row writer.
        all_pairs.sort_unstable();
        all_pairs.dedup();
        let unique_edges = all_pairs.len() as u64;

        scope.counter(names::DUALIZE_PAIRS, pairs_generated);
        scope.counter(names::DUALIZE_DUPS, pairs_generated - unique_edges);
        scope.counter(names::DUALIZE_UNIQUE, unique_edges);
        scope.counter(names::DUALIZE_KEPT, kept.len() as u64);
        scope.counter(names::DUALIZE_FILTERED, (h.num_edges() - kept.len()) as u64);
        drop(root);

        let recorded = scope.finish();
        Self {
            graph,
            kept,
            g_of,
            threshold,
            stats: DualizeStats::from_recorded(&recorded.events),
        }
    }

    /// The underlying simple graph `G`.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// What the dualization did to build this graph.
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
/// The build also labels `G`'s connected components, by one union-find
/// pass over each module's kept nets: [`component_of`](Self::component_of)
/// numbers them in order of their lowest G id and
/// [`component_len`](Self::component_len) counts their G-vertices, so a
/// sweep can hand out the components neither of its seeds reaches without
/// walking them. One pass over the modules then builds the tables a
/// sweep scores from: each component's modules and their weight
/// ([`component_modules`](Self::component_modules),
/// [`component_weight`](Self::component_weight)), the modules on no kept
/// net in placement order ([`free_modules`](Self::free_modules)), the
/// filtered nets ([`filtered_nets`](Self::filtered_nets)) and the
/// lightest module.
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
/// // G is connected; its 2-pin signals d and g share no module
/// assert_eq!(view.num_components(), 1);
/// assert_eq!(view.component_len(0), 9);
/// let two_pin = DualIncidence::new(&h, Some(3))?;
/// assert_eq!(two_pin.num_components(), 2);
/// assert_eq!(two_pin.component_of(1), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct DualIncidence<'h> {
    h: &'h Hypergraph,
    lists: Incidence,
    /// Each G-vertex's connected component in `G`, the components
    /// numbered in order of their lowest G id; shared with the cuts made
    /// on the view.
    component_of: Arc<Vec<u32>>,
    /// Per component: its G-vertices, modules and module weight.
    totals: Vec<ComponentTotals>,
    /// `kept[g]` = hyperedge represented by G-vertex `g`.
    kept: Vec<EdgeId>,
    /// The modules on no kept net, heaviest first, ties by index.
    free_modules: Vec<VertexId>,
    /// The hyperedges the threshold dropped, ascending.
    filtered: Vec<EdgeId>,
    /// The first module of least weight.
    lightest: Option<VertexId>,
    first_linked: Option<u32>,
    stats: DualizeStats,
}

/// One component of `G` as the sweeps count it: its G-vertices, and the
/// modules whose kept nets lie in it with their summed weight. Every kept
/// net of a module lies in one component, as the nets share the module.
#[derive(Clone, Copy, Debug, Default)]
struct ComponentTotals {
    g_vertices: u32,
    modules: u32,
    weight: u64,
}

impl<'h> DualIncidence<'h> {
    /// Builds the view of `h` over the hyperedges of size `< threshold`
    /// (all of them for `None`), recording nothing.
    ///
    /// # Errors
    ///
    /// [`BuildGraphError::TooManyGVertices`] if the kept hyperedges
    /// overflow the `u32` G-vertex id space, and
    /// [`BuildGraphError::TooManyKeptPins`] if their pins overflow the
    /// incidence lists' `u32` offsets.
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
        let mut first_linked: Option<u32> = None;
        // Nets sharing a module are one component of G.
        let mut sets = LowestRootSets::new(kept.len());
        let lists = Incidence::new(h, &kept, &g_of, |mine| {
            sets.union_all(mine.iter().copied());
            if let [lowest, _, ..] = *mine {
                first_linked = Some(first_linked.map_or(lowest, |f| f.min(lowest)));
            }
        })?;
        let (component_of, components) = sets.into_labels();
        let mut totals = vec![ComponentTotals::default(); components];
        for &c in &component_of {
            totals[c as usize].g_vertices += 1; // fhp-audit: allow(panic-site) — into_labels numbers components below its count
        }
        // The per-run tables a sweep scores from: each module counts
        // towards the component of its kept nets, or is free.
        let mut free_modules = Vec::new();
        let mut lightest: Option<VertexId> = None;
        for m in h.vertices() {
            let w = h.vertex_weight(m);
            if lightest.is_none_or(|l| w < h.vertex_weight(l)) {
                lightest = Some(m);
            }
            match lists.nets_of(m).first() {
                Some(&g) => {
                    // fhp-audit: allow(panic-site) — g is a G id, and into_labels numbers its component below the count
                    let t = &mut totals[component_of[g as usize] as usize];
                    t.modules += 1;
                    t.weight += w;
                }
                None => free_modules.push(m),
            }
        }
        free_modules.sort_unstable_by_key(|&m| (Reverse(h.vertex_weight(m)), m));
        let filtered = h
            .edges()
            .filter(|e| g_of[e.index()] == FILTERED) // fhp-audit: allow(panic-site) — g_of is sized to h.num_edges() by keep_map
            .collect();
        drop(root);
        scope.counter(names::DUALIZE_KEPT, kept.len() as u64);
        scope.counter(names::DUALIZE_FILTERED, (h.num_edges() - kept.len()) as u64);
        let recorded = scope.finish();
        let stats = DualizeStats::from_recorded(&recorded.events);
        collector.adopt(recorded);
        Ok(Self {
            h,
            lists,
            component_of: Arc::new(component_of),
            totals,
            kept,
            free_modules,
            filtered,
            lightest,
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
        self.lists.num_g_vertices()
    }

    /// Number of modules, `h.num_vertices()`.
    pub fn num_modules(&self) -> usize {
        self.lists.offsets.len() - 1
    }

    /// `Σ|e|` over the kept hyperedges: every module's kept-net count
    /// summed. A traversal's read bounds are multiples of it.
    pub fn num_kept_pins(&self) -> usize {
        self.lists.nets.len()
    }

    /// The modules on G-vertex `g`'s hyperedge, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn pins(&self, g: u32) -> &[VertexId] {
        self.lists.pins(g)
    }

    /// The hyperedge represented by G-vertex `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn edge_of(&self, g: u32) -> EdgeId {
        self.kept[g as usize] // fhp-audit: allow(panic-site) — documented `# Panics`: g must be a G-vertex id
    }

    /// Module `m`'s kept nets as G ids, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn nets_of(&self, m: VertexId) -> &[u32] {
        self.lists.nets_of(m)
    }

    /// Number of connected components of `G`; an isolated G-vertex is
    /// one of its own.
    pub fn num_components(&self) -> usize {
        self.totals.len()
    }

    /// The connected component of G-vertex `g`. Components are numbered
    /// in order of their lowest G id, so a scan over the G ids meets
    /// them in number order.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn component_of(&self, g: u32) -> u32 {
        self.component_of[g as usize] // fhp-audit: allow(panic-site) — documented `# Panics`: g must be a G-vertex id
    }

    /// Each G-vertex's component, indexed by G id: the table behind
    /// [`component_of`](Self::component_of).
    pub fn components(&self) -> &[u32] {
        &self.component_of
    }

    /// A shared handle on [`components`](Self::components), for a result
    /// that answers component lookups after the borrow of the view ends:
    /// cloning it copies no entry.
    pub fn shared_components(&self) -> Arc<Vec<u32>> {
        Arc::clone(&self.component_of)
    }

    /// Number of G-vertices in component `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not below [`num_components`](Self::num_components).
    pub fn component_len(&self, c: u32) -> usize {
        self.totals[c as usize].g_vertices as usize // fhp-audit: allow(panic-site) — documented `# Panics`: c must be a component number
    }

    /// Number of modules whose kept nets lie in component `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not below [`num_components`](Self::num_components).
    pub fn component_modules(&self, c: u32) -> usize {
        self.totals[c as usize].modules as usize // fhp-audit: allow(panic-site) — documented `# Panics`: c must be a component number
    }

    /// Summed weight of the modules of component `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not below [`num_components`](Self::num_components).
    pub fn component_weight(&self, c: u32) -> u64 {
        self.totals[c as usize].weight // fhp-audit: allow(panic-site) — documented `# Panics`: c must be a component number
    }

    /// The component of module `m`'s kept nets, or `None` for a module
    /// on no kept net.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn module_component(&self, m: VertexId) -> Option<u32> {
        let &g = self.nets_of(m).first()?;
        Some(self.component_of(g))
    }

    /// The modules on no kept net, heaviest first and ties by index: the
    /// order a sweep places its leftovers in.
    pub fn free_modules(&self) -> &[VertexId] {
        &self.free_modules
    }

    /// The hyperedges the size threshold dropped, ascending.
    pub fn filtered_nets(&self) -> &[EdgeId] {
        &self.filtered
    }

    /// The first module of least weight, `None` without modules.
    pub fn lightest_module(&self) -> Option<VertexId> {
        self.lightest
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

/// `G`'s incidence lists over the kept nets, both as CSR lists: the
/// modules of each G-vertex, and the kept nets of each module in
/// ascending G id. [`DualIncidence`] reads `G` through them, and the row
/// writer writes `G`'s CSR from them. The offsets are `u32`: a build
/// whose kept pins overflow them is refused.
#[derive(Clone, Debug)]
struct Incidence {
    /// G-vertex `g`'s modules are `pins[pin_offsets[g]..pin_offsets[g + 1]]`.
    pin_offsets: Vec<u32>,
    pins: Vec<VertexId>,
    /// Module `m`'s kept nets are `nets[offsets[m]..offsets[m + 1]]`.
    offsets: Vec<u32>,
    nets: Vec<u32>,
}

/// `kept_pins` as a `u32` incidence offset.
///
/// # Errors
///
/// [`BuildGraphError::TooManyKeptPins`] if the count does not fit `u32`.
fn kept_pin_offset(kept_pins: usize) -> Result<u32, BuildGraphError> {
    u32::try_from(kept_pins).map_err(|_| BuildGraphError::TooManyKeptPins { found: kept_pins })
}

impl Incidence {
    /// Lists the nets `kept` of `h` under their G ids `g_of` (both from
    /// [`keep_map`]), handing each module's kept nets to `each_module`
    /// as soon as they are listed.
    ///
    /// # Errors
    ///
    /// [`BuildGraphError::TooManyKeptPins`] if the kept nets hold more
    /// pins than a `u32` offset addresses.
    fn new(
        h: &Hypergraph,
        kept: &[EdgeId],
        g_of: &[u32],
        mut each_module: impl FnMut(&[u32]),
    ) -> Result<Self, BuildGraphError> {
        let kept_pins = kept.iter().map(|&e| h.edge_size(e)).sum();
        kept_pin_offset(kept_pins)?;
        // Every offset below is at most the kept pins, which fit u32.
        // fhp-audit: allow(as-cast-truncation) — at most the kept pins, checked to fit u32 above
        let offset = |len: usize| len as u32;
        let mut offsets = Vec::with_capacity(h.num_vertices() + 1);
        offsets.push(0);
        let mut pin_offsets = Vec::with_capacity(kept.len() + 1);
        pin_offsets.push(0);
        let mut pins = Vec::with_capacity(kept_pins);
        for &e in kept {
            pins.extend_from_slice(h.pins(e));
            pin_offsets.push(offset(pins.len()));
        }
        let mut nets = Vec::with_capacity(kept_pins);
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
            // fhp-audit: allow(panic-site) — first <= nets.len() by construction
            each_module(&nets[first..]);
            offsets.push(offset(nets.len()));
        }
        Ok(Self {
            pin_offsets,
            pins,
            offsets,
            nets,
        })
    }

    fn num_g_vertices(&self) -> usize {
        self.pin_offsets.len() - 1
    }

    /// G-vertex `g`'s modules; panics if `g` is out of range.
    fn pins(&self, g: u32) -> &[VertexId] {
        let g = g as usize;
        // fhp-audit: allow(panic-site) — documented `# Panics` of DualIncidence::pins: g must be a G-vertex id; pin_offsets has num_g_vertices + 1 ascending entries within pins
        &self.pins[self.pin_offsets[g] as usize..self.pin_offsets[g + 1] as usize]
    }

    /// Module `m`'s kept nets; panics if `m` is out of range.
    fn nets_of(&self, m: VertexId) -> &[u32] {
        let m = m.index();
        // fhp-audit: allow(panic-site) — documented `# Panics` of DualIncidence::nets_of: m must be a module of h; offsets has num_modules + 1 ascending entries within nets
        &self.nets[self.offsets[m] as usize..self.offsets[m + 1] as usize]
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
    }

    #[test]
    fn naive_oracle_matches_kernel_on_paper_example() {
        let h = paper_example();
        for threshold in [None, Some(3), Some(4), Some(10)] {
            let naive = IntersectionGraph::build_naive_with_threshold(&h, threshold);
            let fast = Dualizer::new().threshold(threshold).build(&h).unwrap();
            assert_eq!(fast.graph(), naive.graph(), "threshold {threshold:?}");
            assert_eq!(fast.g_of, naive.g_of);
            assert_eq!(fast.kept, naive.kept);
            assert_eq!(fast.stats().pairs_generated, naive.stats().pairs_generated);
            assert_eq!(fast.stats().unique_edges, naive.stats().unique_edges);
        }
    }

    #[test]
    fn hub_module_pairs_collapse() {
        // 16 signals all sharing 4 hub modules: the naive builder sprays
        // 4 * C(16, 2) pair insertions, the row writer writes C(16, 2)
        // edges.
        let mut b = HypergraphBuilder::with_vertices(4 + 16);
        for s in 0..16 {
            let mut pins: Vec<VertexId> = (0..4).map(VertexId::new).collect();
            pins.push(VertexId::new(4 + s));
            b.add_edge(pins).unwrap();
        }
        let h = b.build();
        let ig = Dualizer::new().build(&h).unwrap();
        let s = ig.stats();
        assert_eq!(s.pairs_generated, 4 * 120);
        assert_eq!(s.unique_edges, 120);
        assert_eq!(s.duplicates_merged, 3 * 120);
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
    fn kept_pins_past_u32_are_refused() {
        assert_eq!(kept_pin_offset(u32::MAX as usize), Ok(u32::MAX));
        let over = u32::MAX as usize + 1;
        assert_eq!(
            kept_pin_offset(over),
            Err(BuildGraphError::TooManyKeptPins { found: over })
        );
        assert!(BuildGraphError::TooManyKeptPins { found: over }
            .to_string()
            .contains("4294967296"));
    }

    #[test]
    fn the_view_counts_each_components_modules_and_the_free_ones() {
        let h = paper_example();
        // keeping the 2-pin signals d {3,5} and g {6,8} only: two
        // components, and every other module is free
        let view = DualIncidence::new(&h, Some(3)).unwrap();
        assert_eq!(view.num_components(), 2);
        for c in 0..2 {
            assert_eq!(view.component_modules(c), 2);
            assert_eq!(view.component_weight(c), 2);
        }
        assert_eq!(view.module_component(VertexId::new(2)), Some(0));
        assert_eq!(view.module_component(VertexId::new(7)), Some(1));
        assert_eq!(view.module_component(VertexId::new(0)), None);
        let free: Vec<usize> = view.free_modules().iter().map(|m| m.index()).collect();
        assert_eq!(free, [0, 1, 3, 6, 8, 9, 10, 11]);
        let filtered: Vec<usize> = view.filtered_nets().iter().map(|e| e.index()).collect();
        assert_eq!(filtered, [0, 1, 2, 4, 5, 7, 8]);
        assert_eq!(view.lightest_module(), Some(VertexId::new(0)));

        // free modules are listed heaviest first
        let mut b = HypergraphBuilder::new();
        let w: Vec<VertexId> = [1, 3, 2, 3].map(|w| b.add_weighted_vertex(w)).to_vec();
        b.add_edge([w[0], w[1], w[2], w[3]]).unwrap();
        b.add_edge([w[0], w[2]]).unwrap();
        let h = b.build();
        let view = DualIncidence::new(&h, Some(3)).unwrap();
        assert_eq!(view.free_modules(), [w[1], w[3]]);
        assert_eq!(view.component_weight(0), 3);
        assert_eq!(view.lightest_module(), Some(w[0]));
    }

    #[test]
    fn empty_and_edgeless() {
        let h = HypergraphBuilder::with_vertices(3).build();
        let ig = Dualizer::new().build(&h).unwrap();
        assert_eq!(ig.num_g_vertices(), 0);
        assert_eq!(ig.graph(), &Graph::empty(0));
        let s = ig.stats();
        assert_eq!(s.pairs_generated, 0);
        assert_eq!(s.unique_edges, 0);
    }
}
