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

use fhp_hypergraph::{DualIncidence, Graph, VertexId};

use crate::dual_bfs::GraphCut;
use crate::Side;

/// The boundary structure induced by a graph cut in the intersection graph.
///
/// It is read off what the sweep touched: the boundary from the vertices
/// its fronts claimed, and the partial bipartition from the modules they
/// expanded plus one side per other component of `G`, which places every
/// module of that component. A module's partial side is then a lookup
/// ([`partial_side`](Self::partial_side)) through the view the
/// decomposition borrows.
///
/// # Examples
///
/// ```
/// use fhp_core::boundary::BoundaryDecomposition;
/// use fhp_core::dual_bfs::two_front_bfs;
/// use fhp_hypergraph::{intersection::paper_example, DualIncidence};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let h = paper_example();
/// let view = DualIncidence::new(&h, None)?;
/// let cut = two_front_bfs(&view, 0, 8); // seeds: signals a and i
/// let dec = BoundaryDecomposition::new(&view, &cut);
/// assert!(dec.boundary_len() > 0);
/// assert!(dec.boundary_len() < view.num_g_vertices());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct BoundaryDecomposition<'v> {
    /// The view of the most recent cut.
    view: Option<&'v DualIncidence<'v>>,
    /// G-vertex represented by each G′ index.
    boundary: Vec<u32>,
    /// G′ index of each G-vertex, or `u32::MAX` if not boundary. Only the
    /// entries of `boundary` are set.
    gprime_of: Vec<u32>,
    /// The bipartite boundary graph over G′ indices (cross edges only).
    gprime: Graph,
    /// Side (from the G-cut) of each G′ vertex.
    side: Vec<Side>,
    /// Partial side of each module the sweep expanded: the side of its
    /// first non-boundary kept net, `None` when all its kept nets are
    /// boundary. The other entries are stale and never read.
    partial: Vec<Option<Side>>,
    /// Per component of `G`: the side it went to whole, `None` for a
    /// seed's component.
    component_side: Vec<Option<Side>>,
    /// Modules the partial bipartition places on each side, `[left, right]`.
    placed: [usize; 2],
    /// Their module weight, `[left, right]`.
    placed_weight: [u64; 2],
    /// Cross-pair workspace for [`recompute`](Self::recompute); kept so a
    /// reused decomposition rebuilds `gprime` without allocating.
    pairs: Vec<(u32, u32)>,
    /// CSR cursor workspace for [`recompute`](Self::recompute).
    cursor: Vec<usize>,
    /// Ids the most recent [`recompute`](Self::recompute) read.
    reads: u64,
    /// Buffer growths over every [`recompute`](Self::recompute) so far.
    growths: u64,
}

const NOT_BOUNDARY: u32 = u32::MAX;

impl<'v> BoundaryDecomposition<'v> {
    /// Computes the boundary set, boundary graph and implied partial
    /// bipartition for the cut `cut` of the `G` that `view` reads.
    ///
    /// # Panics
    ///
    /// Panics if `cut` does not label exactly `view.num_g_vertices()`
    /// vertices.
    pub fn new(view: &'v DualIncidence<'v>, cut: &GraphCut) -> Self {
        let mut dec = Self::empty();
        dec.recompute(view, cut);
        dec
    }

    /// An empty decomposition to be filled by [`recompute`](Self::recompute).
    /// Holds no allocations until first use.
    pub fn empty() -> Self {
        Self {
            view: None,
            boundary: Vec::new(),
            gprime_of: Vec::new(),
            gprime: Graph::empty(0),
            side: Vec::new(),
            partial: Vec::new(),
            component_side: Vec::new(),
            placed: [0; 2],
            placed_weight: [0; 2],
            pairs: Vec::new(),
            cursor: Vec::new(),
            reads: 0,
            growths: 0,
        }
    }

    /// An empty decomposition with its per-instance buffers reserved for
    /// `num_modules` modules and `num_g_vertices` G-vertices. The buffers
    /// sized by a cut's boundary graph `G′` — the boundary and side
    /// lists, the pair listing, `G′`'s CSR and its cursor — start empty
    /// and grow in [`recompute`](Self::recompute) to the largest `G′` it
    /// meets.
    pub fn with_capacity(num_modules: usize, num_g_vertices: usize) -> Self {
        Self {
            gprime_of: Vec::with_capacity(num_g_vertices),
            partial: Vec::with_capacity(num_modules),
            component_side: Vec::with_capacity(num_g_vertices),
            ..Self::empty()
        }
    }

    /// Recomputes the decomposition for a new cut, reusing every buffer.
    /// Identical output to [`new`](Self::new) (which delegates here).
    /// A `G′`-sized buffer short of room grows geometrically, by one
    /// counted allocation (a run reports the total as
    /// [`RunStats::arena_growths`](crate::RunStats::arena_growths)); the
    /// G- and module-sized ones allocate nothing once warm.
    ///
    /// It reads what the sweep touched and one entry per component: the
    /// claimed vertices for the boundary marks, the boundary's modules
    /// for `G′`, the expanded modules' kept nets for their partial sides,
    /// and each component's side and totals. Only the previous cut's
    /// boundary entries are cleared, so a decomposition abandoned
    /// mid-build self-heals on reuse.
    ///
    /// # Panics
    ///
    /// Panics if `cut` does not label exactly `view.num_g_vertices()`
    /// vertices.
    pub fn recompute(&mut self, view: &'v DualIncidence<'v>, cut: &GraphCut) {
        let n = view.num_g_vertices();
        assert_eq!(cut.len(), n, "cut does not match intersection graph");
        self.view = Some(view);

        // 1. Boundary set: the claimed G-vertices the sweep marked, in G
        //    id order (every G-vertex outside the seeds' components has
        //    all its neighbours on its own side).
        if self.gprime_of.len() == n {
            for &v in &self.boundary {
                self.gprime_of[v as usize] = NOT_BOUNDARY; // fhp-audit: allow(panic-site) — the previous boundary holds ids below n
            }
        } else {
            self.gprime_of.clear();
            self.gprime_of.resize(n, NOT_BOUNDARY);
        }
        self.boundary.clear();
        for v in cut.claimed().filter(|&v| cut.is_boundary(v)) {
            self.growths += push_counted(&mut self.boundary, v);
        }
        self.reads = cut.num_claimed() as u64;
        self.boundary.sort_unstable();
        for (b, &v) in (0u32..).zip(&self.boundary) {
            self.gprime_of[v as usize] = b; // fhp-audit: allow(panic-site) — boundary lists hold ids from the owning graph; in-range by construction
        }
        let b = self.boundary.len();

        // 2. Boundary graph: only edges that cross the G-cut (the paper
        //    deletes edges internal to B_L or B_R, leaving G′ bipartite).
        //    A cross edge joins two kept nets on a split module, whose kept
        //    nets are all boundary, so each split module is met once, from
        //    its first kept net. It lists its l·r (left, right) pairs,
        //    outer loop over its smaller side.
        self.pairs.clear();
        for &first in &self.boundary {
            let pins = view.pins(first);
            self.reads += pins.len() as u64;
            for &m in pins {
                let nets = view.nets_of(m);
                if nets.first() == Some(&first) {
                    self.reads += nets.len() as u64;
                    self.growths += list_cross_pairs(nets, cut, &self.gprime_of, &mut self.pairs);
                }
            }
        }
        // The deduplicated edges are at most the listed pairs.
        self.growths += self.gprime.reserve(b, self.pairs.len()) as u64;
        self.growths += grow(&mut self.cursor, b);
        self.gprime
            .rebuild_from_pairs(b, &mut self.pairs, &mut self.cursor);
        self.side.clear();
        self.growths += grow(&mut self.side, b);
        self.side
            .extend(self.boundary.iter().map(|&v| cut.side_of(v)));

        // 3. Partial bipartition: pins of non-boundary kept hyperedges are
        //    committed to that hyperedge's side. Two non-boundary hyperedges
        //    sharing a module are adjacent in G, hence on the same side (or
        //    they would both be boundary), so the assignment is consistent.
        //    The sweep's modules take the side of their first non-boundary
        //    net; every other component lies on one side, modules and all.
        let h = view.hypergraph();
        if self.partial.len() != view.num_modules() {
            self.partial.clear();
            self.partial.resize(view.num_modules(), None);
        }
        self.placed = [0; 2];
        self.placed_weight = [0; 2];
        for &m in cut.modules() {
            let nets = view.nets_of(m);
            let open = nets.iter().position(|&x| !cut.is_boundary(x));
            self.reads += open.map_or(nets.len(), |i| i + 1) as u64;
            let side = open.and_then(|i| nets.get(i)).map(|&x| cut.side_of(x));
            debug_assert!(
                nets.iter()
                    .all(|&x| cut.is_boundary(x) || Some(cut.side_of(x)) == side),
                "inconsistent partial assignment at {m}"
            );
            self.partial[m.index()] = side; // fhp-audit: allow(panic-site) — partial is sized to the module count above, and m is a module of the view
            if let Some(s) = side {
                // fhp-audit: allow(panic-site) — a two-element array indexed by a side
                self.placed[s.index()] += 1;
                // fhp-audit: allow(panic-site) — a two-element array indexed by a side
                self.placed_weight[s.index()] += h.vertex_weight(m);
            }
        }
        self.component_side.clear();
        // fhp-audit: allow(as-cast-truncation) — components are numbered below the G-vertex count, which fits u32
        for c in 0..view.num_components() as u32 {
            let side = cut.component_side(c);
            if let Some(s) = side {
                // fhp-audit: allow(panic-site) — a two-element array indexed by a side
                self.placed[s.index()] += view.component_modules(c);
                // fhp-audit: allow(panic-site) — a two-element array indexed by a side
                self.placed_weight[s.index()] += view.component_weight(c);
            }
            self.component_side.push(side);
        }
        self.reads += view.num_components() as u64;
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

    /// Module `m`'s side in the partial bipartition implied by the
    /// non-boundary signals: the sweep's own side for a module it
    /// expanded, else its component's side; `None` for a module whose fate
    /// Complete-Cut (or final balancing) decides — one whose kept nets are
    /// all boundary, or one on no kept net.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range, or before the first
    /// [`recompute`](Self::recompute).
    pub fn partial_side(&self, m: VertexId) -> Option<Side> {
        // fhp-audit: allow(panic-site) — documented `# Panics`: read only after a recompute
        let view = self.view.expect("a recomputed decomposition");
        // fhp-audit: allow(panic-site) — module_component numbers components below the side table's length
        self.component_side[view.module_component(m)? as usize].or_else(|| self.expanded_side(m))
    }

    /// The partial side of a module the sweep expanded — every module on
    /// a kept net of the seeds' components, boundary nets included.
    pub(crate) fn expanded_side(&self, m: VertexId) -> Option<Side> {
        self.partial.get(m.index()).copied().flatten()
    }

    /// The partial hypergraph bipartition implied by non-boundary signals,
    /// one entry per module ([`partial_side`](Self::partial_side) of
    /// each): `Some(side)` for committed modules, `None` for modules whose
    /// fate is decided by Complete-Cut (or final balancing). Written on
    /// each call; empty before the first [`recompute`](Self::recompute).
    pub fn partial(&self) -> Vec<Option<Side>> {
        let modules = self.view.map_or(0, DualIncidence::num_modules);
        (0..modules)
            .map(|m| self.partial_side(VertexId::new(m)))
            .collect()
    }

    /// Number of hypergraph vertices already committed by the partial
    /// bipartition.
    pub fn num_placed(&self) -> usize {
        let [left, right] = self.placed;
        left + right
    }

    /// Modules and module weight the partial bipartition places on each
    /// side, `[left, right]`.
    pub(crate) fn placed_totals(&self) -> ([usize; 2], [u64; 2]) {
        (self.placed, self.placed_weight)
    }

    /// Ids the most recent [`recompute`](Self::recompute) read: the
    /// claimed vertices, the boundary vertices' modules and the split
    /// modules' kept nets, the expanded modules' kept nets up to the
    /// first non-boundary one, and one entry per component.
    pub(crate) fn ids_read(&self) -> u64 {
        self.reads
    }

    /// How many times [`recompute`](Self::recompute) grew a buffer, over
    /// the decomposition's life: one allocation each.
    pub(crate) fn growths(&self) -> u64 {
        self.growths
    }
}

/// Makes room for `len` elements in `buf`; a buffer short of room grows
/// geometrically, by one allocation. Returns 1 if it grew, else 0.
pub(crate) fn grow<T>(buf: &mut Vec<T>, len: usize) -> u64 {
    if buf.capacity() >= len {
        return 0;
    }
    buf.reserve(len - buf.len());
    1
}

/// Pushes `x` onto `buf`. Returns 1 if that grew the buffer — a full
/// `Vec` grows geometrically, by one allocation — else 0.
fn push_counted<T>(buf: &mut Vec<T>, x: T) -> u64 {
    let full = u64::from(buf.len() == buf.capacity());
    buf.push(x);
    full
}

/// Pushes the (left, right) pairs of G′ indices through one module's kept
/// `nets`, outer loop over the side holding fewer of them: `l·r` pairs
/// for `l + r` nets split across the cut, none for an unsplit module.
/// Returns 1 if `pairs` grew to take them, else 0.
fn list_cross_pairs(
    nets: &[u32],
    cut: &GraphCut,
    gprime_of: &[u32],
    pairs: &mut Vec<(u32, u32)>,
) -> u64 {
    let lefts = nets
        .iter()
        .filter(|&&x| cut.side_of(x) == Side::Left)
        .count();
    let grown = grow(pairs, pairs.len() + lefts * (nets.len() - lefts));
    let outer = if 2 * lefts <= nets.len() {
        Side::Left
    } else {
        Side::Right
    };
    for &x in nets.iter().filter(|&&x| cut.side_of(x) == outer) {
        let bx = gprime_of[x as usize]; // fhp-audit: allow(panic-site) — boundary lists hold ids from the owning graph; in-range by construction
        for &y in nets.iter().filter(|&&y| cut.side_of(y) != outer) {
            let by = gprime_of[y as usize]; // fhp-audit: allow(panic-site) — boundary lists hold ids from the owning graph; in-range by construction
            debug_assert!(bx != NOT_BOUNDARY && by != NOT_BOUNDARY);
            pairs.push((bx, by));
        }
    }
    grown
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dual_bfs::two_front_bfs;
    use fhp_hypergraph::intersection::paper_example;
    use fhp_hypergraph::{Hypergraph, HypergraphBuilder, IntersectionGraph, VertexId};

    fn chain(n_modules: usize) -> Hypergraph {
        // modules 0..n, signals {i, i+1}: G is a path of n-1 signals
        let mut b = HypergraphBuilder::with_vertices(n_modules);
        for i in 0..n_modules - 1 {
            b.add_edge([VertexId::new(i), VertexId::new(i + 1)])
                .unwrap();
        }
        b.build()
    }

    fn view(h: &Hypergraph) -> DualIncidence<'_> {
        DualIncidence::new(h, None).unwrap()
    }

    #[test]
    fn chain_boundary_is_two_adjacent_signals() {
        let h = chain(8); // 7 signals, G = path of 7
        let view = view(&h);
        let cut = two_front_bfs(&view, 0, 6);
        let dec = BoundaryDecomposition::new(&view, &cut);
        // the cutline on a path crosses exactly one G-edge; both its
        // endpoints are boundary
        assert_eq!(dec.boundary_len(), 2);
        assert_eq!(dec.gprime().num_edges(), 1);
        assert_ne!(dec.side_of(0), dec.side_of(1));
    }

    #[test]
    fn gprime_is_bipartite_by_side() {
        let h = paper_example();
        let view = view(&h);
        let cut = two_front_bfs(&view, 0, 8);
        let dec = BoundaryDecomposition::new(&view, &cut);
        for (u, v) in dec.gprime().edges() {
            assert_ne!(dec.side_of(u), dec.side_of(v), "edge within a side");
        }
    }

    #[test]
    fn boundary_membership_matches_definition() {
        let h = paper_example();
        let ig = IntersectionGraph::build_naive_with_threshold(&h, None);
        let g = ig.graph();
        let view = view(&h);
        let cut = two_front_bfs(&view, 0, 8);
        let dec = BoundaryDecomposition::new(&view, &cut);
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
        // G′ holds exactly G's cross edges
        let cross: Vec<(u32, u32)> = g
            .edges()
            .filter(|&(a, b)| cut.side_of(a) != cut.side_of(b))
            .map(|(a, b)| {
                let (x, y) = (dec.gprime_index(a).unwrap(), dec.gprime_index(b).unwrap());
                (x.min(y), x.max(y))
            })
            .collect();
        let mut want = cross;
        want.sort_unstable();
        assert_eq!(dec.gprime().edges().collect::<Vec<_>>(), want);
    }

    #[test]
    fn partial_assignment_covers_only_nonboundary_pins() {
        let h = paper_example();
        let ig = IntersectionGraph::build_naive_with_threshold(&h, None);
        let view = view(&h);
        let cut = two_front_bfs(&view, 0, 8);
        let dec = BoundaryDecomposition::new(&view, &cut);
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
        let view = view(&h);
        let cut = two_front_bfs(&view, 0, 8);
        let dec = BoundaryDecomposition::new(&view, &cut);
        assert!(dec.num_placed() > 0);
        assert!(dec.boundary_len() < view.num_g_vertices());
    }

    #[test]
    fn cross_pairs_on_a_hub_grow_each_buffer_once() {
        // one module on 9 kept nets (plus a leaf each): every cut of the
        // hub's nets splits it l + r and lists its l·r cross pairs
        let mut b = HypergraphBuilder::with_vertices(10);
        for leaf in 1..10 {
            b.add_edge([VertexId::new(0), VertexId::new(leaf)]).unwrap();
        }
        let h = b.build();
        let view = view(&h);
        let mut dec = BoundaryDecomposition::with_capacity(10, 9);
        let cut = two_front_bfs(&view, 0, 8);
        dec.recompute(&view, &cut);
        assert_eq!(dec.boundary_len(), 9);
        let left = (0..9).filter(|&g| cut.side_of(g) == Side::Left).count();
        assert_eq!(dec.gprime().num_edges(), left * (9 - left));
        // from empty, the 9-entry boundary list grows to capacities 4, 8
        // and 16, and the pair list, G′'s offsets and neighbours, the
        // cursor and the side list once each
        let first = dec.growths();
        assert_eq!(first, 3 + 5);
        // the same G′ again grows nothing
        dec.recompute(&view, &cut);
        assert_eq!(dec.growths(), first);
        assert_eq!(dec.gprime().num_edges(), left * (9 - left));
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn mismatched_cut_panics() {
        let h = paper_example();
        let other = chain(4);
        let other_view = view(&other);
        let cut = two_front_bfs(&other_view, 0, 2);
        let _ = BoundaryDecomposition::new(&view(&h), &cut);
    }
}
