//! Boundary set extraction and the bipartite boundary graph `G′`.
//!
//! Given the initial graph cut in the intersection graph `G`, the
//! *boundary set* `B` holds the G-vertices adjacent to the cut — those with
//! a neighbor on the other side (paper §2.2). Every G-vertex *not* in `B`
//! is a signal that provably does not cross: all its modules can be placed
//! on its side, giving a *partial bipartition* of the hypergraph. The
//! subgraph induced by `B` keeping only the edges that cross the G-cut is
//! bipartite (`G′`); completing the partition optimally reduces to choosing
//! *winners* (signals pulled entirely to one side) and *losers* (signals
//! conceded to the cut) on `G′` — see [`crate::complete_cut`].

use fhp_hypergraph::{Graph, Hypergraph, IntersectionGraph};

use crate::dual_bfs::GraphCut;
use crate::Side;

/// The boundary structure induced by a graph cut in the intersection graph.
///
/// # Examples
///
/// ```
/// use fhp_core::boundary::BoundaryDecomposition;
/// use fhp_core::dual_bfs::two_front_bfs;
/// use fhp_hypergraph::{intersection::paper_example, IntersectionGraph};
///
/// let h = paper_example();
/// let ig = IntersectionGraph::build(&h);
/// let cut = two_front_bfs(ig.graph(), 0, 8); // seeds: signals a and i
/// let dec = BoundaryDecomposition::new(&h, &ig, &cut);
/// assert!(dec.boundary_len() > 0);
/// assert!(dec.boundary_len() < ig.num_g_vertices());
/// ```
#[derive(Clone, Debug)]
pub struct BoundaryDecomposition {
    /// G-vertex represented by each G′ index.
    boundary: Vec<u32>,
    /// G′ index of each G-vertex, or `u32::MAX` if not boundary.
    gprime_of: Vec<u32>,
    /// The bipartite boundary graph over G′ indices (cross edges only).
    gprime: Graph,
    /// Side (from the G-cut) of each G′ vertex.
    side: Vec<Side>,
    /// Partial assignment of hypergraph vertices implied by non-boundary
    /// G-vertices.
    partial: Vec<Option<Side>>,
    /// Cross-edge workspace for [`recompute`](Self::recompute); kept so a
    /// reused decomposition rebuilds `gprime` without allocating.
    pairs: Vec<(u32, u32)>,
    /// CSR cursor workspace for [`recompute`](Self::recompute).
    cursor: Vec<usize>,
}

const NOT_BOUNDARY: u32 = u32::MAX;

impl BoundaryDecomposition {
    /// Computes the boundary set, boundary graph and implied partial
    /// bipartition for the cut `cut` of `ig.graph()`.
    ///
    /// # Panics
    ///
    /// Panics if `cut` does not label exactly `ig.num_g_vertices()`
    /// vertices, or `ig` was not built from `h`.
    pub fn new(h: &Hypergraph, ig: &IntersectionGraph, cut: &GraphCut) -> Self {
        let mut dec = Self::empty();
        dec.recompute(h, ig, cut);
        dec
    }

    /// An empty decomposition to be filled by [`recompute`](Self::recompute).
    /// Holds no allocations until first use.
    pub fn empty() -> Self {
        Self {
            boundary: Vec::new(),
            gprime_of: Vec::new(),
            gprime: Graph::empty(0),
            side: Vec::new(),
            partial: Vec::new(),
            pairs: Vec::new(),
            cursor: Vec::new(),
        }
    }

    /// An empty decomposition with every buffer pre-reserved for an
    /// instance of `num_modules` hypergraph vertices and an intersection
    /// graph of `num_g_vertices` / `num_g_edges`: a later
    /// [`recompute`](Self::recompute) at or below those sizes allocates
    /// nothing, which is what the zero-allocation multi-start arena
    /// relies on.
    pub fn with_capacity(num_modules: usize, num_g_vertices: usize, num_g_edges: usize) -> Self {
        let mut gprime = Graph::empty(0);
        gprime.reserve(num_g_vertices, num_g_edges);
        Self {
            boundary: Vec::with_capacity(num_g_vertices),
            gprime_of: Vec::with_capacity(num_g_vertices),
            gprime,
            side: Vec::with_capacity(num_g_vertices),
            partial: Vec::with_capacity(num_modules),
            pairs: Vec::with_capacity(num_g_edges),
            cursor: Vec::with_capacity(num_g_vertices),
        }
    }

    /// Recomputes the decomposition for a new cut, reusing every buffer.
    /// Identical output to [`new`](Self::new) (which delegates here);
    /// once the buffers have warmed to the instance's sizes, repeated
    /// calls allocate nothing. All state is overwritten on entry, so a
    /// decomposition abandoned mid-build self-heals on reuse.
    ///
    /// # Panics
    ///
    /// Panics if `cut` does not label exactly `ig.num_g_vertices()`
    /// vertices, or `ig` was not built from `h`.
    pub fn recompute(&mut self, h: &Hypergraph, ig: &IntersectionGraph, cut: &GraphCut) {
        let g = ig.graph();
        assert_eq!(
            cut.len(),
            g.num_vertices(),
            "cut does not match intersection graph"
        );

        // 1. Boundary set: any G-vertex with a cross neighbor, which the
        //    sweep that made `cut` has already marked.
        self.gprime_of.clear();
        self.gprime_of.resize(g.num_vertices(), NOT_BOUNDARY);
        self.boundary.clear();
        for v in g.vertices().filter(|&v| cut.is_boundary(v)) {
            self.gprime_of[v as usize] = u32::try_from(self.boundary.len()).expect("overflow"); // fhp-audit: allow(panic-site) — boundary lists hold ids from the owning graph; in-range by construction
            self.boundary.push(v);
        }

        // 2. Boundary graph: only edges that cross the G-cut (the paper
        //    deletes edges internal to B_L or B_R, leaving G′ bipartite).
        self.pairs.clear();
        for (bi, &v) in self.boundary.iter().enumerate() {
            let s = cut.side_of(v);
            for &u in g.neighbors(v) {
                if cut.side_of(u) != s {
                    let bj = self.gprime_of[u as usize]; // fhp-audit: allow(panic-site) — boundary lists hold ids from the owning graph; in-range by construction
                    debug_assert_ne!(bj, NOT_BOUNDARY, "cross neighbor must be boundary");
                    // fhp-audit: allow(as-cast-truncation) — boundary ids fit u32 by the EdgeId representation
                    if (bi as u32) < bj {
                        // fhp-audit: allow(as-cast-truncation) — boundary ids fit u32 by the EdgeId representation
                        self.pairs.push((bi as u32, bj)); // fhp-audit: allow(as-cast-truncation) — boundary ids fit u32 by the EdgeId representation
                    }
                }
            }
        }
        self.gprime
            .rebuild_from_pairs(self.boundary.len(), &mut self.pairs, &mut self.cursor);
        self.side.clear();
        self.side
            .extend(self.boundary.iter().map(|&v| cut.side_of(v)));

        // 3. Partial bipartition: pins of non-boundary kept hyperedges are
        //    committed to that hyperedge's side. Two non-boundary hyperedges
        //    sharing a module are adjacent in G, hence on the same side (or
        //    they would both be boundary), so the assignment is consistent.
        self.partial.clear();
        self.partial.resize(h.num_vertices(), None);
        for v in g.vertices() {
            // fhp-audit: allow(panic-site) — boundary lists hold ids from the owning graph; in-range by construction
            if self.gprime_of[v as usize] != NOT_BOUNDARY {
                continue;
            }
            let s = cut.side_of(v);
            for &p in h.pins(ig.edge_of(v)) {
                debug_assert!(
                    self.partial[p.index()].is_none() || self.partial[p.index()] == Some(s), // fhp-audit: allow(panic-site) — boundary lists hold ids from the owning graph; in-range by construction
                    "inconsistent partial assignment at {p}"
                );
                self.partial[p.index()] = Some(s); // fhp-audit: allow(panic-site) — boundary lists hold ids from the owning graph; in-range by construction
            }
        }
    }

    /// Number of boundary G-vertices, `|B|`.
    pub fn boundary_len(&self) -> usize {
        self.boundary.len()
    }

    /// The G-vertices in the boundary set, in G′ index order.
    pub fn boundary_g_vertices(&self) -> &[u32] {
        &self.boundary
    }

    /// The G-vertex behind G′ vertex `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn g_vertex(&self, b: u32) -> u32 {
        self.boundary[b as usize] // fhp-audit: allow(panic-site) — boundary lists hold ids from the owning graph; in-range by construction
    }

    /// The G′ index of G-vertex `v`, or `None` if `v` is not boundary.
    pub fn gprime_index(&self, v: u32) -> Option<u32> {
        let b = self.gprime_of[v as usize]; // fhp-audit: allow(panic-site) — boundary lists hold ids from the owning graph; in-range by construction
        (b != NOT_BOUNDARY).then_some(b)
    }

    /// The bipartite boundary graph `G′`.
    pub fn gprime(&self) -> &Graph {
        &self.gprime
    }

    /// Side of G′ vertex `b` under the initial G-cut.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn side_of(&self, b: u32) -> Side {
        self.side[b as usize] // fhp-audit: allow(panic-site) — boundary lists hold ids from the owning graph; in-range by construction
    }

    /// Per-G′-vertex sides.
    pub fn sides(&self) -> &[Side] {
        &self.side
    }

    /// The partial hypergraph bipartition implied by non-boundary signals:
    /// `Some(side)` for committed modules, `None` for modules whose fate is
    /// decided by Complete-Cut (or final balancing).
    pub fn partial(&self) -> &[Option<Side>] {
        &self.partial
    }

    /// Number of hypergraph vertices already committed by the partial
    /// bipartition.
    pub fn num_placed(&self) -> usize {
        self.partial.iter().filter(|p| p.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dual_bfs::two_front_bfs;
    use fhp_hypergraph::intersection::paper_example;
    use fhp_hypergraph::{HypergraphBuilder, IntersectionGraph, VertexId};

    fn chain(n_modules: usize) -> Hypergraph {
        // modules 0..n, signals {i, i+1}: G is a path of n-1 signals
        let mut b = HypergraphBuilder::with_vertices(n_modules);
        for i in 0..n_modules - 1 {
            b.add_edge([VertexId::new(i), VertexId::new(i + 1)])
                .unwrap();
        }
        b.build()
    }

    #[test]
    fn chain_boundary_is_two_adjacent_signals() {
        let h = chain(8); // 7 signals, G = path of 7
        let ig = IntersectionGraph::build(&h);
        let cut = two_front_bfs(ig.graph(), 0, 6);
        let dec = BoundaryDecomposition::new(&h, &ig, &cut);
        // the cutline on a path crosses exactly one G-edge; both its
        // endpoints are boundary
        assert_eq!(dec.boundary_len(), 2);
        assert_eq!(dec.gprime().num_edges(), 1);
        assert_ne!(dec.side_of(0), dec.side_of(1));
    }

    #[test]
    fn gprime_is_bipartite_by_side() {
        let h = paper_example();
        let ig = IntersectionGraph::build(&h);
        let cut = two_front_bfs(ig.graph(), 0, 8);
        let dec = BoundaryDecomposition::new(&h, &ig, &cut);
        for (u, v) in dec.gprime().edges() {
            assert_ne!(dec.side_of(u), dec.side_of(v), "edge within a side");
        }
    }

    #[test]
    fn boundary_membership_matches_definition() {
        let h = paper_example();
        let ig = IntersectionGraph::build(&h);
        let g = ig.graph();
        let cut = two_front_bfs(g, 0, 8);
        let dec = BoundaryDecomposition::new(&h, &ig, &cut);
        for v in g.vertices() {
            let has_cross = g
                .neighbors(v)
                .iter()
                .any(|&u| cut.side_of(u) != cut.side_of(v));
            assert_eq!(dec.gprime_index(v).is_some(), has_cross, "G-vertex {v}");
        }
        // round trip
        for b in 0..dec.boundary_len() as u32 {
            assert_eq!(dec.gprime_index(dec.g_vertex(b)), Some(b));
        }
    }

    #[test]
    fn partial_assignment_covers_only_nonboundary_pins() {
        let h = paper_example();
        let ig = IntersectionGraph::build(&h);
        let cut = two_front_bfs(ig.graph(), 0, 8);
        let dec = BoundaryDecomposition::new(&h, &ig, &cut);
        // every pin of a non-boundary signal is committed to that side
        for v in ig.graph().vertices() {
            if dec.gprime_index(v).is_none() {
                let s = cut.side_of(v);
                for &p in h.pins(ig.edge_of(v)) {
                    assert_eq!(dec.partial()[p.index()], Some(s));
                }
            }
        }
        assert_eq!(
            dec.num_placed(),
            dec.partial().iter().filter(|p| p.is_some()).count()
        );
    }

    #[test]
    fn paper_claim_most_nodes_placed() {
        // "Such a construction is expected to place all but a constant
        // proportion of the nodes in H" — at minimum, *some* are placed on
        // the example.
        let h = paper_example();
        let ig = IntersectionGraph::build(&h);
        let cut = two_front_bfs(ig.graph(), 0, 8);
        let dec = BoundaryDecomposition::new(&h, &ig, &cut);
        assert!(dec.num_placed() > 0);
        assert!(dec.boundary_len() < ig.num_g_vertices());
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn mismatched_cut_panics() {
        let h = paper_example();
        let ig = IntersectionGraph::build(&h);
        let other = chain(4);
        let other_ig = IntersectionGraph::build(&other);
        let cut = two_front_bfs(other_ig.graph(), 0, 2);
        let _ = BoundaryDecomposition::new(&h, &ig, &cut);
    }
}
