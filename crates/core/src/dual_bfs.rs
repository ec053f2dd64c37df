//! The initial graph cut in the intersection graph `G`.
//!
//! Algorithm I's first two steps (paper §2.3):
//!
//! 1. pick an arbitrary vertex and BFS to a furthest vertex `u`, then BFS
//!    again to a furthest vertex `v` — the *longest BFS path* standing in
//!    for a true diameter (which would cost `O(nm)`);
//! 2. "generate an initial cut in G using BFS from u and v" — grow two BFS
//!    fronts simultaneously until the expanding sets meet, which defines a
//!    cutline through `G`.
//!
//! Both steps read `G` off the incidence lists ([`DualIncidence`]): a net's
//! neighbours are the other kept nets on its modules, and a search expands
//! each module once. Over the kept nets `e`, a BFS reads at most `2·Σ|e|`
//! ids — the pins of the nets it pops plus the kept nets of the modules it
//! expands — and a sweep at most `3·Σ|e|`, the third share marking the
//! boundary on the modules the cut splits. Both are linear in pins
//! however dense `G` is; walking `G`'s adjacency instead reads
//! `k(k − 1)` ids around a single module of `k` kept nets. A sweep's
//! fronts stay inside the seeds' components: it hands out the other
//! components whole from the view's component table, in one pass over
//! the G ids, so it reads at most `3·Σ|e|` over the seeds' components'
//! kept nets only.

use fhp_hypergraph::bfs;
use fhp_hypergraph::DualIncidence;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::Side;

/// A two-sided labelling of every vertex of a graph, produced by growing
/// BFS fronts from two seed vertices, with the cut's boundary marked: the
/// vertices that have a neighbour on the other side.
///
/// # Examples
///
/// ```
/// use fhp_core::dual_bfs::two_front_bfs;
/// use fhp_core::Side;
/// use fhp_hypergraph::{DualIncidence, HypergraphBuilder, VertexId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // modules 0..6 chained by 2-pin signals: G is the path 0-1-2-3-4
/// let mut b = HypergraphBuilder::with_vertices(6);
/// for i in 0..5 {
///     b.add_edge([VertexId::new(i), VertexId::new(i + 1)])?;
/// }
/// let h = b.build();
/// let cut = two_front_bfs(&DualIncidence::new(&h, None)?, 0, 4);
/// assert_eq!(cut.side_of(0), Side::Left);
/// assert_eq!(cut.side_of(4), Side::Right);
/// assert_eq!(cut.side_of(1), Side::Left);
/// assert_eq!(cut.side_of(3), Side::Right);
/// assert!(cut.is_boundary(2) && cut.is_boundary(3));
/// assert!(!cut.is_boundary(1));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GraphCut {
    /// One byte per vertex: its side in [`SIDE`], plus [`BOUNDARY`] if it
    /// has a neighbour on the other side.
    labels: Vec<u8>,
}

/// Label bit holding a vertex's side (clear = left, set = right).
const SIDE: u8 = 0b01;
/// Label bit marking a vertex with a neighbour on the other side.
const BOUNDARY: u8 = 0b10;
/// Label of a vertex no front has claimed yet (sweep-internal).
const UNCLAIMED: u8 = u8::MAX;

impl GraphCut {
    /// The side each graph vertex landed on.
    #[inline]
    pub fn side_of(&self, v: u32) -> Side {
        // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
        if self.labels[v as usize] & SIDE == 0 {
            Side::Left
        } else {
            Side::Right
        }
    }

    /// True if `v` has a neighbour on the other side — `v` is in the
    /// cut's boundary set.
    #[inline]
    pub fn is_boundary(&self, v: u32) -> bool {
        self.labels[v as usize] & BOUNDARY != 0 // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
    }

    /// Number of vertices labelled.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True for the zero-vertex graph.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// How the two BFS fronts take turns expanding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum FrontPolicy {
    /// Try [`SmallerFirst`](Self::SmallerFirst) *and*
    /// [`Alternate`](Self::Alternate) on every start and keep whichever cut
    /// scores better. Costs one extra sweep per start (the bound stays
    /// `O(n²)`) and combines the strengths of both: smaller-first recovers
    /// planted waists on dumbbell-shaped intersection graphs, alternation
    /// tracks the level geometry of hierarchical circuit netlists. The
    /// default.
    #[default]
    Both,
    /// Expand whichever front currently holds fewer vertices (ties go to
    /// the left). The meeting line then gravitates toward narrow waists of
    /// the graph — on "dumbbell"-shaped intersection graphs (two clusters
    /// joined by few signals) this lands the cut on the bridge signals,
    /// which is what lets Algorithm I recover planted minimum cuts.
    SmallerFirst,
    /// Strict level alternation: left level, right level, right, left, …
    /// The fronts meet at the *equidistant* line between the seeds, which
    /// may slice through a cluster when the seeds sit at unequal depths,
    /// but follows the level geometry of long-diameter graphs closely.
    Alternate,
}

impl FrontPolicy {
    /// The concrete sweep policies this configuration runs per start.
    pub fn sweeps(self) -> &'static [FrontPolicy] {
        match self {
            FrontPolicy::Both => &[FrontPolicy::SmallerFirst, FrontPolicy::Alternate],
            FrontPolicy::SmallerFirst => &[FrontPolicy::SmallerFirst],
            FrontPolicy::Alternate => &[FrontPolicy::Alternate],
        }
    }
}

/// Grows BFS fronts in `G` from `u` (left) and `v` (right) simultaneously
/// under [`FrontPolicy::SmallerFirst`] until every vertex reachable from
/// either seed is claimed by the front that got there first. Vertices in
/// components containing neither seed are then assigned — whole
/// components at a time — to whichever side currently has fewer vertices.
///
/// # Panics
///
/// Panics if `u == v` or either is out of range.
pub fn two_front_bfs(view: &DualIncidence<'_>, u: u32, v: u32) -> GraphCut {
    two_front_bfs_with_policy(view, u, v, FrontPolicy::SmallerFirst)
}

/// [`two_front_bfs`] with an explicit expansion policy.
/// [`FrontPolicy::Both`] runs as smaller-first here — a single sweep can
/// only follow one rule; the multi-start driver expands `Both` into the
/// two concrete sweeps via [`FrontPolicy::sweeps`].
///
/// # Panics
///
/// Panics if `u == v` or either is out of range.
pub fn two_front_bfs_with_policy(
    view: &DualIncidence<'_>,
    u: u32,
    v: u32,
    policy: FrontPolicy,
) -> GraphCut {
    let mut scratch = TwoFrontScratch::new();
    scratch.run(view, u, v, policy);
    scratch.cut
}

/// Reusable buffers for [`two_front_bfs_with_policy`]. Once warmed to an
/// instance's G-vertex and module counts, repeated [`run`](Self::run)
/// calls allocate nothing — the multi-start engine keeps one of these per
/// worker. Every buffer is fully reset at the start of `run`, so a scratch
/// that was abandoned mid-sweep (e.g. by a contained panic) self-heals on
/// reuse.
#[derive(Clone, Debug, Default)]
pub struct TwoFrontScratch {
    fronts: [Vec<u32>; 2],
    next: Vec<u32>,
    /// Per component of `G`: the side the sweep gives it when no front
    /// reaches it.
    component_side: Vec<u8>,
    /// Per module: some claimed net has expanded it.
    expanded: Vec<bool>,
    /// Ids the most recent sweep read.
    reads: u64,
    cut: GraphCut,
}

impl TwoFrontScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch pre-sized for instances of up to `n` G-vertices (and so
    /// at most `n` components) and `modules` modules.
    pub fn with_capacity(n: usize, modules: usize) -> Self {
        Self {
            fronts: [Vec::with_capacity(n), Vec::with_capacity(n)],
            next: Vec::with_capacity(n),
            component_side: Vec::with_capacity(n),
            expanded: Vec::with_capacity(modules),
            reads: 0,
            cut: GraphCut {
                labels: Vec::with_capacity(n),
            },
        }
    }

    /// The cut produced by the most recent [`run`](Self::run).
    pub fn cut(&self) -> &GraphCut {
        &self.cut
    }

    /// Runs the dual-front sweep into this scratch's buffers; read the
    /// result with [`cut`](Self::cut). Identical output to
    /// [`two_front_bfs_with_policy`] (which delegates here).
    ///
    /// A front expanding net `w` expands each of `w`'s modules that no
    /// claimed net expanded yet and claims the unclaimed kept nets there.
    /// That leaves all of the module's nets claimed for good, so a module
    /// whose nets then lie on both sides is split for good: the sweep
    /// marks every kept net on it as boundary, which marks exactly the
    /// nets with a neighbour across. The sides depend only on which nets
    /// each front holds, never on their order within it.
    ///
    /// The fronts claim the seeds' components in full and nothing else.
    /// Every other component goes whole to the side holding fewer
    /// G-vertices at its turn, left on ties, in order of its lowest G id
    /// — read off the view's component table, not walked — and holds no
    /// boundary vertex.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` or either is out of range.
    pub fn run(&mut self, view: &DualIncidence<'_>, u: u32, v: u32, policy: FrontPolicy) {
        assert_ne!(u, v, "the two BFS seeds must differ");
        let n = view.num_g_vertices();
        assert!((u as usize) < n && (v as usize) < n, "seed out of range");

        let Self {
            fronts,
            next,
            component_side,
            expanded,
            reads,
            cut,
        } = self;
        let owner = &mut cut.labels;
        owner.clear();
        owner.resize(n, UNCLAIMED);
        owner[u as usize] = 0; // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
        owner[v as usize] = 1; // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
        expanded.clear();
        expanded.resize(view.num_modules(), false);
        *reads = 0;
        for (front, seed) in fronts.iter_mut().zip([u, v]) {
            front.clear();
            front.push(seed);
        }
        let mut claimed = [1usize, 1usize];
        let mut round = 0usize;
        while fronts.iter().any(|f| !f.is_empty()) {
            let order = match policy {
                // Alternate which side expands first each round to keep the
                // boundary tie-breaking symmetric.
                FrontPolicy::Alternate => {
                    if round.is_multiple_of(2) {
                        [0usize, 1]
                    } else {
                        [1, 0]
                    }
                }
                // The smaller side expands; if it stalls (empty front), the
                // other side finishes the sweep.
                FrontPolicy::SmallerFirst | FrontPolicy::Both => {
                    let [left_n, right_n] = claimed;
                    let smaller =
                        usize::from(right_n < left_n || (right_n == left_n && round % 2 == 1));
                    [smaller, 1 - smaller]
                }
            };
            let single_step = policy != FrontPolicy::Alternate;
            for side in order {
                // fhp-audit: allow(panic-site) — a side index is 0 or 1
                let front = &mut fronts[side];
                if front.is_empty() {
                    continue;
                }
                // fhp-audit: allow(as-cast-truncation) — a side index is 0 or 1
                let mine = side as u8;
                next.clear();
                for &w in front.iter() {
                    *reads += expand(view, w, mine, owner, expanded, next);
                }
                claimed[side] += next.len(); // fhp-audit: allow(panic-site) — a side index is 0 or 1
                std::mem::swap(front, next);
                if single_step && fronts.iter().all(|f| !f.is_empty()) {
                    break; // re-evaluate which side is smaller
                }
            }
            round += 1;
        }

        // Components reached by neither seed, in order of their lowest G
        // id: each goes whole to the currently smaller side, and one pass
        // over the G ids fills in their labels.
        let seeded = [view.component_of(u), view.component_of(v)];
        component_side.clear();
        // fhp-audit: allow(as-cast-truncation) — components are numbered below the G-vertex count, which fits u32
        component_side.extend((0..view.num_components() as u32).map(|c| {
            if seeded.contains(&c) {
                return UNCLAIMED;
            }
            let [left_n, right_n] = claimed;
            let side = u8::from(left_n > right_n);
            claimed[usize::from(side)] += view.component_len(c); // fhp-audit: allow(panic-site) — a side index is 0 or 1
            side
        }));
        for (o, &c) in owner.iter_mut().zip(view.components()) {
            if *o == UNCLAIMED {
                *o = component_side[c as usize]; // fhp-audit: allow(panic-site) — the table numbers components below num_components
            }
        }
        debug_assert!(
            *reads <= 3 * view.num_kept_pins() as u64,
            "{reads} ids read"
        );
    }

    /// Ids the most recent [`run`](Self::run) read: the pins of the nets
    /// it expanded, the kept nets of the modules they expanded, and the
    /// kept nets of the split modules again to mark them boundary — each
    /// kept pin of the seeds' components at most three times. The pass
    /// over the component table is not counted.
    #[cfg(test)]
    pub(crate) fn ids_read(&self) -> u64 {
        self.reads
    }
}

/// Expands net `w` for the front labelled `mine`: each module of `w`
/// that is not yet expanded claims its unclaimed kept nets for `mine`
/// (pushing them onto `claimed`), and a module that also holds a net of
/// the other side marks all its kept nets boundary. Returns the ids read.
fn expand(
    view: &DualIncidence<'_>,
    w: u32,
    mine: u8,
    owner: &mut [u8],
    expanded: &mut [bool],
    claimed: &mut Vec<u32>,
) -> u64 {
    let pins = view.pins(w);
    let mut reads = pins.len() as u64;
    for &m in pins {
        // fhp-audit: allow(panic-site) — expanded is sized to the module count at entry, and pins are modules of the view's hypergraph
        if std::mem::replace(&mut expanded[m.index()], true) {
            continue;
        }
        let nets = view.nets_of(m);
        reads += nets.len() as u64;
        let mut split = false;
        for &x in nets {
            let o = &mut owner[x as usize]; // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
            if *o == UNCLAIMED {
                *o = mine;
                claimed.push(x);
            } else if *o & SIDE != mine {
                split = true;
            }
        }
        if split {
            reads += nets.len() as u64;
            for &x in nets {
                owner[x as usize] |= BOUNDARY; // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
            }
        }
    }
    reads
}

/// Picks a random longest-BFS-path endpoint pair: a random start vertex,
/// BFS to the set of deepest vertices and pick one at random as `u`, then
/// BFS from `u` and pick a random deepest vertex as `v`.
///
/// Randomizing among *all* deepest vertices (not just the last visited) is
/// what makes the paper's multi-start extension ("50 random longest paths")
/// explore genuinely different cuts.
///
/// Returns `None` if `G` has fewer than 2 vertices or no edge.
pub fn random_longest_path_endpoints<R: Rng + ?Sized>(
    view: &DualIncidence<'_>,
    rng: &mut R,
) -> Option<(u32, u32)> {
    EndpointScratch::new()
        .pick(view, rng)
        .map(|(u, v, _)| (u, v))
}

/// Reusable buffers for the longest-BFS-path endpoint draw: one BFS
/// leveling, which the second search reuses once the first has chosen
/// `u`, and the searches' per-module marks. Once warmed to an instance,
/// repeated [`pick`](Self::pick) calls allocate nothing. The RNG draw
/// sequence is byte-identical to [`random_longest_path_endpoints`] (which
/// delegates here): one `gen_range` for the start vertex, one `choose`
/// over the deepest level of the first BFS, one `choose` over the deepest
/// level of the second — so swapping the scratch path in cannot perturb
/// any seeded run.
#[derive(Clone, Debug)]
pub struct EndpointScratch {
    levels: bfs::BfsLevels,
    expanded: Vec<bool>,
}

impl Default for EndpointScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl EndpointScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self {
            levels: bfs::BfsLevels::empty(),
            expanded: Vec::new(),
        }
    }

    /// A scratch pre-sized for instances of up to `n` G-vertices and
    /// `modules` modules.
    pub fn with_capacity(n: usize, modules: usize) -> Self {
        Self {
            levels: bfs::BfsLevels::with_capacity(n),
            expanded: Vec::with_capacity(modules),
        }
    }

    /// Draws a random longest-path endpoint pair, returning
    /// `(u, v, path_length)` where `path_length = dist(u, v)` — the depth
    /// of the second BFS, saving the separate distance BFS callers used
    /// to run. `None` under the same conditions as
    /// [`random_longest_path_endpoints`].
    ///
    /// This is the reference draw. The multi-start engine runs its two
    /// halves apart — `draw_u` for every start, then one `search` per
    /// distinct `u` and `draw_v` for each start with that `u` — and makes
    /// the same RNG calls in the same order.
    pub fn pick<R: Rng + ?Sized>(
        &mut self,
        view: &DualIncidence<'_>,
        rng: &mut R,
    ) -> Option<(u32, u32, u32)> {
        let u = self.draw_u(view, rng)?;
        self.search(view, u);
        self.draw_v(u, rng).map(|(v, depth)| (u, v, depth))
    }

    /// The first half of the draw: a random vertex `r`, BFS(r), and a
    /// random deepest `u`. `None` if `G` has fewer than 2 vertices or no
    /// edge.
    pub(crate) fn draw_u<R: Rng + ?Sized>(
        &mut self,
        view: &DualIncidence<'_>,
        rng: &mut R,
    ) -> Option<u32> {
        let n = view.num_g_vertices();
        if n < 2 {
            return None;
        }
        let start = rng.gen_range(0..n as u32); // fhp-audit: allow(as-cast-truncation) — G ids fit u32 by the view's construction
        self.search(view, start);
        if self.levels.num_reached() < 2 {
            // isolated start: fall back to the lowest vertex with an edge
            self.search(view, view.first_linked()?);
        }
        self.levels.deepest_level().choose(rng).copied()
    }

    /// BFS from `source` into the scratch's leveling: the search between
    /// the two halves, once per distinct `u`.
    pub(crate) fn search(&mut self, view: &DualIncidence<'_>, source: u32) {
        bfs::bfs_dual_into(view, source, &mut self.levels, &mut self.expanded);
    }

    /// The second half, after [`search`](Self::search) from `u`: a random
    /// deepest `v` and the search's depth. `None` if `v` is `u`, which a
    /// `u` drawn by [`draw_u`](Self::draw_u) rules out: its component
    /// holds an edge.
    pub(crate) fn draw_v<R: Rng + ?Sized>(&self, u: u32, rng: &mut R) -> Option<(u32, u32)> {
        let v = *self.levels.deepest_level().choose(rng)?;
        (v != u).then(|| (v, self.levels.depth()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::SplitMix64;
    use fhp_gen::RandomHypergraph;
    use fhp_hypergraph::{Hypergraph, HypergraphBuilder, IntersectionGraph, VertexId};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// A hypergraph whose intersection graph is exactly the simple graph
    /// on `n` vertices with `edges`: net `a` holds a private module `a`,
    /// plus module `n + k` for every edge `k` that touches it.
    fn dual_of(n: usize, edges: &[(u32, u32)]) -> Hypergraph {
        let mut pins: Vec<Vec<VertexId>> = (0..n).map(|a| vec![VertexId::new(a)]).collect();
        for (k, &(a, b)) in edges.iter().enumerate() {
            pins[a as usize].push(VertexId::new(n + k));
            pins[b as usize].push(VertexId::new(n + k));
        }
        let mut builder = HypergraphBuilder::with_vertices(n + edges.len());
        for p in pins {
            builder.add_edge(p).unwrap();
        }
        builder.build()
    }

    fn view(h: &Hypergraph) -> DualIncidence<'_> {
        DualIncidence::new(h, None).unwrap()
    }

    fn path(n: usize) -> Hypergraph {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        dual_of(n, &edges)
    }

    fn cycle(n: u32) -> Hypergraph {
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        dual_of(n as usize, &edges)
    }

    /// A star: hub 0 and `leaves` leaves.
    fn star(leaves: usize) -> Hypergraph {
        let edges: Vec<(u32, u32)> = (1..=leaves as u32).map(|l| (0, l)).collect();
        dual_of(leaves + 1, &edges)
    }

    /// One module on `k` kept 2-pin nets, each with a leaf of its own.
    fn hub(k: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::with_vertices(k + 1);
        for leaf in 1..=k {
            b.add_edge([VertexId::new(0), VertexId::new(leaf)]).unwrap();
        }
        b.build()
    }

    #[test]
    fn fronts_meet_in_the_middle() {
        let h = path(10);
        let cut = two_front_bfs(&view(&h), 0, 9);
        let left: usize = (0..10).filter(|&i| cut.side_of(i) == Side::Left).count();
        assert_eq!(left, 5);
        // contiguity: all left vertices precede all right vertices
        let first_right = (0..10).position(|i| cut.side_of(i) == Side::Right).unwrap();
        assert!((first_right as u32..10).all(|i| cut.side_of(i) == Side::Right));
    }

    #[test]
    fn asymmetric_seeds_split_by_distance() {
        let h = path(10);
        let cut = two_front_bfs(&view(&h), 0, 3);
        // vertices 4.. are closer to 3; the right side should dominate
        assert_eq!(cut.side_of(0), Side::Left);
        assert_eq!(cut.side_of(1), Side::Left);
        for i in 3..10 {
            assert_eq!(cut.side_of(i), Side::Right, "vertex {i}");
        }
    }

    #[test]
    fn every_vertex_claimed_even_disconnected() {
        // component A: 0-1-2; component B: 3-4, no seed
        let h = dual_of(5, &[(0, 1), (1, 2), (3, 4)]);
        let cut = two_front_bfs(&view(&h), 0, 2);
        assert_eq!(cut.len(), 5);
        // component B goes wholesale to one side
        assert_eq!(cut.side_of(3), cut.side_of(4));
        assert!(!cut.is_empty());
    }

    #[test]
    fn orphan_component_balances_counts() {
        // seeds claim 1 vertex each; orphan pair should go to... either side,
        // but wholesale.
        let h = dual_of(4, &[(0, 1), (2, 3)]);
        let cut = two_front_bfs(&view(&h), 0, 1);
        assert_eq!(cut.side_of(2), cut.side_of(3));
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn equal_seeds_panic() {
        let h = path(3);
        let _ = two_front_bfs(&view(&h), 1, 1);
    }

    #[test]
    fn random_endpoints_are_far_apart_on_path() {
        let h = path(20);
        let view = view(&h);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            let (u, v) = random_longest_path_endpoints(&view, &mut rng).unwrap();
            assert!(u == 0 || u == 19);
            assert!(v == 0 || v == 19);
            assert_ne!(u, v);
        }
    }

    #[test]
    fn random_endpoints_tiny_graphs() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in [0, 1, 5] {
            let h = dual_of(n, &[]);
            assert!(random_longest_path_endpoints(&view(&h), &mut rng).is_none());
        }
        let pair = dual_of(2, &[(0, 1)]);
        let (u, v) = random_longest_path_endpoints(&view(&pair), &mut rng).unwrap();
        assert!((u == 0 && v == 1) || (u == 1 && v == 0));
    }

    #[test]
    fn random_endpoints_with_isolated_vertices() {
        // vertex 3 isolated; restarts from a connected vertex
        let h = dual_of(4, &[(0, 1), (1, 2)]);
        let view = view(&h);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let (u, v) = random_longest_path_endpoints(&view, &mut rng).unwrap();
            assert_ne!(u, 3);
            assert_ne!(v, 3);
            assert_ne!(u, v);
        }
    }

    #[test]
    fn scratch_pick_matches_free_function_draw_for_draw() {
        let instances = [
            path(20),
            dual_of(4, &[(0, 1), (1, 2)]), // vertex 3 isolated
            cycle(12),
            dual_of(5, &[]),
        ];
        let mut scratch = EndpointScratch::with_capacity(20, 40);
        for (gi, h) in instances.iter().enumerate() {
            let view = view(h);
            let g = IntersectionGraph::build_naive_with_threshold(h, None);
            let mut rng_a = StdRng::seed_from_u64(99 + gi as u64);
            let mut rng_b = StdRng::seed_from_u64(99 + gi as u64);
            for round in 0..15 {
                let free = random_longest_path_endpoints(&view, &mut rng_a);
                let picked = scratch.pick(&view, &mut rng_b);
                assert_eq!(
                    picked.map(|(u, v, _)| (u, v)),
                    free,
                    "graph {gi} round {round}"
                );
                if let Some((u, v, len)) = picked {
                    assert_eq!(bfs::bfs(g.graph(), u).dist(v), Some(len), "graph {gi}");
                }
            }
        }
    }

    /// Draws a 50-start run's endpoints in the multi-start engine's order
    /// — every start's `u` first, then one search per distinct `u` and a
    /// `v` for each start with that `u`, in start order and from the
    /// start's own stream — and checks each start against `pick` on the
    /// same stream: the same triple, and the same number of RNG calls.
    /// Returns the number of searches from a `u`, one per distinct `u`.
    fn grouped_draws(h: &Hypergraph, seed: u64) -> usize {
        const STARTS: usize = 50;
        let view = view(h);
        let mut scratch = EndpointScratch::new();
        let mut draws: Vec<(Option<u32>, SplitMix64)> = (0..STARTS)
            .map(|i| {
                let mut rng = SplitMix64::for_start(seed, i);
                (scratch.draw_u(&view, &mut rng), rng)
            })
            .collect();
        let mut grouped = vec![None; STARTS];
        let mut searches = 0;
        for i in 0..STARTS {
            let first = draws[i]
                .0
                .filter(|&u| draws[..i].iter().all(|d| d.0 != Some(u)));
            let Some(u) = first else { continue };
            scratch.search(&view, u);
            searches += 1;
            for (j, (uj, rng)) in draws.iter_mut().enumerate().skip(i) {
                if *uj == Some(u) {
                    grouped[j] = scratch.draw_v(u, rng).map(|(v, depth)| (u, v, depth));
                }
            }
        }
        let mut us = std::collections::BTreeSet::new();
        for (i, ((_, mut rng), grouped)) in draws.into_iter().zip(grouped).enumerate() {
            let mut rng_plain = SplitMix64::for_start(seed, i);
            let plain = EndpointScratch::new().pick(&view, &mut rng_plain);
            us.extend(plain.map(|(u, _, _)| u));
            assert_eq!(grouped, plain, "start {i}");
            assert_eq!(rng.next_u64(), rng_plain.next_u64(), "start {i}");
        }
        assert_eq!(searches, us.len());
        searches
    }

    #[test]
    fn grouped_draws_match_pick() {
        // the chain netlist's G is a path: u is always one of its ends
        assert!(grouped_draws(&path(40), 3) <= 2);
        // two hubs joined by a path, four leaves on each: u is one of the
        // eight leaves
        let mut broom = vec![(0u32, 2u32), (2, 3), (3, 1)];
        broom.extend((4..8).map(|l| (0, l)).chain((8..12).map(|l| (1, l))));
        assert!(grouped_draws(&dual_of(12, &broom), 11) <= 8);
        // on an odd cycle u is one of r's two antipodes, so u rarely
        // repeats; on a star u is one of the leaves
        grouped_draws(&cycle(1001), 7);
        grouped_draws(&star(500), 5);
    }

    #[test]
    fn two_front_scratch_reuse_matches_fresh_runs() {
        let h1 = path(10);
        let h2 = dual_of(4, &[(0, 1), (2, 3)]);
        let (v1, v2) = (view(&h1), view(&h2));
        let mut scratch = TwoFrontScratch::with_capacity(10, 19);
        for policy in [
            FrontPolicy::SmallerFirst,
            FrontPolicy::Alternate,
            FrontPolicy::Both,
        ] {
            for (view, u, v) in [(&v1, 0u32, 9u32), (&v2, 0, 1), (&v1, 0, 3)] {
                scratch.run(view, u, v, policy);
                let fresh = two_front_bfs_with_policy(view, u, v, policy);
                assert_eq!(scratch.cut(), &fresh, "{policy:?}");
            }
        }
    }

    #[test]
    fn a_sweep_reads_only_its_seeds_component() {
        // a 4-net path (G ids 0..4) and, apart from it, a 200-net path
        let mut edges: Vec<(u32, u32)> = (0..3).map(|i| (i, i + 1)).collect();
        edges.extend((4..203).map(|i| (i, i + 1)));
        let h = dual_of(204, &edges);
        let view = view(&h);
        assert_eq!(view.num_components(), 2);
        let small_pins: usize = (0..4).map(|g| view.pins(g).len()).sum();
        let mut sweep = TwoFrontScratch::new();
        for policy in [FrontPolicy::SmallerFirst, FrontPolicy::Alternate] {
            for (u, v) in [(0, 3), (2, 1)] {
                sweep.run(&view, u, v, policy);
                let reads = sweep.ids_read();
                assert!(
                    reads <= 3 * small_pins as u64,
                    "{policy:?} ({u}, {v}) read {reads} > 3·{small_pins}"
                );
                // the other component goes whole to the smaller side
                let cut = sweep.cut();
                let side = cut.side_of(4);
                let seeds_left = (0..4).filter(|&g| cut.side_of(g) == Side::Left).count();
                assert_eq!(side == Side::Right, seeds_left > 2, "{policy:?}");
                assert!((4..204).all(|g| cut.side_of(g) == side && !cut.is_boundary(g)));
                assert_eq!(cut, &two_front_bfs_with_policy(&view, u, v, policy));
            }
        }
    }

    #[test]
    fn boundary_marks_are_exactly_the_vertices_with_a_cross_neighbour() {
        // a 6-cycle with a chord, seeded at opposite ends, plus a triangle
        // and an isolated vertex that neither seed reaches
        let h = dual_of(
            10,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 0),
                (1, 4),
                (6, 7),
                (7, 8),
                (8, 6),
            ],
        );
        let view = view(&h);
        let ig = IntersectionGraph::build_naive_with_threshold(&h, None);
        let g = ig.graph();
        for policy in [FrontPolicy::SmallerFirst, FrontPolicy::Alternate] {
            for (u, v) in [(0, 3), (3, 0), (1, 2), (2, 5)] {
                let cut = two_front_bfs_with_policy(&view, u, v, policy);
                for w in g.vertices() {
                    let crosses = g
                        .neighbors(w)
                        .iter()
                        .any(|&x| cut.side_of(x) != cut.side_of(w));
                    assert_eq!(
                        cut.is_boundary(w),
                        crosses,
                        "{policy:?} ({u}, {v}) vertex {w}"
                    );
                }
                assert!((6..10).all(|w| !cut.is_boundary(w)));
            }
        }
    }

    #[test]
    fn multi_start_varies_endpoints_on_cycle() {
        // every vertex of a cycle is a valid longest-path endpoint; with
        // randomization we should see variety.
        let h = cycle(12);
        let view = view(&h);
        let mut rng = StdRng::seed_from_u64(42);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..40 {
            let (u, _) = random_longest_path_endpoints(&view, &mut rng).unwrap();
            seen.insert(u);
        }
        assert!(seen.len() > 3, "expected endpoint diversity, saw {seen:?}");
    }

    /// Every search over `h`'s view stays within its read bound: at most
    /// `2·Σ|e|` ids per BFS from each of `sources` (modulo the G-vertex
    /// count) and `3·Σ|e|` per sweep between consecutive sources, under
    /// both policies. Returns the
    /// largest BFS and sweep read counts.
    fn max_reads(h: &Hypergraph, threshold: Option<usize>, sources: &[u32]) -> (u64, u64) {
        let view = DualIncidence::new(h, threshold).unwrap();
        let pins = view.num_kept_pins() as u64;
        let n = view.num_g_vertices() as u32;
        let sources: Vec<u32> = sources.iter().map(|&s| s % n).collect();
        let mut levels = bfs::BfsLevels::empty();
        let mut expanded = Vec::new();
        let mut sweep = TwoFrontScratch::new();
        let (mut bfs_max, mut sweep_max) = (0, 0);
        for &s in &sources {
            let reads = bfs::bfs_dual_into(&view, s, &mut levels, &mut expanded);
            assert!(reads <= 2 * pins, "BFS from {s} read {reads} > 2·{pins}");
            bfs_max = bfs_max.max(reads);
        }
        for pair in sources.windows(2).filter(|p| p[0] != p[1]) {
            for policy in [FrontPolicy::SmallerFirst, FrontPolicy::Alternate] {
                sweep.run(&view, pair[0], pair[1], policy);
                let reads = sweep.ids_read();
                assert!(
                    reads <= 3 * pins,
                    "{policy:?} {pair:?} read {reads} > 3·{pins}"
                );
                sweep_max = sweep_max.max(reads);
            }
        }
        (bfs_max, sweep_max)
    }

    #[test]
    fn searches_read_at_most_two_and_three_ids_per_kept_pin() {
        // the hub: one module on k kept nets, Σ|e| = 2k. The searches read
        // 4k and at most 6k ids; walking G's adjacency, which is K_k, reads
        // k(k − 1) around the hub module and fails the same bound.
        let k = 64u32;
        let h = hub(k as usize);
        let (bfs_reads, sweep_reads) = max_reads(&h, None, &[0, 63, 5, 17, 40]);
        assert_eq!(bfs_reads, 4 * u64::from(k));
        assert!(sweep_reads <= 6 * u64::from(k));
        let ig = IntersectionGraph::build_naive_with_threshold(&h, None);
        let neighbour_walk: usize = ig.graph().vertices().map(|g| ig.graph().degree(g)).sum();
        assert_eq!(neighbour_walk, (k * (k - 1)) as usize);
        assert!(neighbour_walk as u64 > 3 * 2 * u64::from(k));

        // a chain: G is a path, and a BFS that reaches every net reads
        // every kept pin exactly twice
        let mut b = HypergraphBuilder::with_vertices(41);
        for i in 0..40 {
            b.add_edge([VertexId::new(i), VertexId::new(i + 1)])
                .unwrap();
        }
        let (bfs_reads, _) = max_reads(&b.build(), None, &[0, 39, 20, 7]);
        assert_eq!(bfs_reads, 2 * 80);

        // random instances, unfiltered and filtered
        for seed in 0..6 {
            let h = RandomHypergraph::new(60, 90)
                .edge_size_range(2, 6)
                .seed(seed)
                .generate()
                .unwrap();
            let sources: Vec<u32> = (0..6).map(|i| (i * 13 + seed as u32) % 40).collect();
            max_reads(&h, None, &sources);
            max_reads(&h, Some(4), &sources);
        }
    }
}
