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
//! Both steps are `O(n²)` in the worst case and linear in edges per BFS.

use fhp_hypergraph::bfs;
use fhp_hypergraph::Graph;
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
/// use fhp_hypergraph::Graph;
///
/// let path = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
/// let cut = two_front_bfs(&path, 0, 4);
/// assert_eq!(cut.side_of(0), Side::Left);
/// assert_eq!(cut.side_of(4), Side::Right);
/// assert_eq!(cut.side_of(1), Side::Left);
/// assert_eq!(cut.side_of(3), Side::Right);
/// assert!(cut.is_boundary(2) && cut.is_boundary(3));
/// assert!(!cut.is_boundary(1));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GraphCut {
    /// One byte per vertex: its side in [`SIDE`], plus [`BOUNDARY`] if it
    /// has a neighbour on the other side.
    labels: Vec<u8>,
    left_seed: u32,
    right_seed: u32,
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

    /// The left front's seed vertex.
    pub fn left_seed(&self) -> u32 {
        self.left_seed
    }

    /// The right front's seed vertex.
    pub fn right_seed(&self) -> u32 {
        self.right_seed
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

/// Grows BFS fronts from `u` (left) and `v` (right) simultaneously under
/// [`FrontPolicy::SmallerFirst`] until every vertex reachable from either
/// seed is claimed by the front that got there first. Vertices in
/// components containing neither seed are then assigned — whole components
/// at a time — to whichever side currently has fewer vertices.
///
/// # Panics
///
/// Panics if `u == v` or either is out of range.
pub fn two_front_bfs(g: &Graph, u: u32, v: u32) -> GraphCut {
    two_front_bfs_with_policy(g, u, v, FrontPolicy::SmallerFirst)
}

/// [`two_front_bfs`] with an explicit expansion policy.
/// [`FrontPolicy::Both`] runs as smaller-first here — a single sweep can
/// only follow one rule; the multi-start driver expands `Both` into the
/// two concrete sweeps via [`FrontPolicy::sweeps`].
///
/// # Panics
///
/// Panics if `u == v` or either is out of range.
pub fn two_front_bfs_with_policy(g: &Graph, u: u32, v: u32, policy: FrontPolicy) -> GraphCut {
    let mut scratch = TwoFrontScratch::new();
    scratch.run(g, u, v, policy);
    scratch.cut
}

/// Reusable buffers for [`two_front_bfs_with_policy`]. Once warmed to a
/// graph's vertex count, repeated [`run`](Self::run) calls allocate
/// nothing — the multi-start engine keeps one of these per worker. Every
/// buffer is fully reset at the start of `run`, so a scratch that was
/// abandoned mid-sweep (e.g. by a contained panic) self-heals on reuse.
#[derive(Clone, Debug, Default)]
pub struct TwoFrontScratch {
    fronts: [Vec<u32>; 2],
    next: Vec<u32>,
    stack: Vec<u32>,
    cut: GraphCut,
}

impl TwoFrontScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch pre-sized for graphs of up to `n` vertices.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            fronts: [Vec::with_capacity(n), Vec::with_capacity(n)],
            next: Vec::with_capacity(n),
            stack: Vec::with_capacity(n),
            cut: GraphCut {
                labels: Vec::with_capacity(n),
                left_seed: 0,
                right_seed: 0,
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
    /// The sweep marks the boundary as it goes: a front that expands `w`
    /// and meets a neighbour the other front owns marks `w`. Every claimed
    /// vertex is expanded once, after which all its neighbours are claimed
    /// for good, so every cut edge is met from both of its ends; the
    /// components neither seed reaches go to one side whole and hold no
    /// boundary vertex.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` or either is out of range.
    pub fn run(&mut self, g: &Graph, u: u32, v: u32, policy: FrontPolicy) {
        assert_ne!(u, v, "the two BFS seeds must differ");
        let n = g.num_vertices();
        assert!((u as usize) < n && (v as usize) < n, "seed out of range");

        let owner = &mut self.cut.labels;
        owner.clear();
        owner.resize(n, UNCLAIMED);
        owner[u as usize] = 0; // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
        owner[v as usize] = 1; // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
        let fronts = &mut self.fronts;
        fronts[0].clear(); // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
        fronts[0].push(u); // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
        fronts[1].clear(); // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
        fronts[1].push(v); // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
        let mut claimed = [1usize, 1usize];
        let next = &mut self.next;
        next.clear();
        let mut round = 0usize;
        // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
        while !fronts[0].is_empty() || !fronts[1].is_empty() {
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
                    let smaller = usize::from(
                        claimed[1] < claimed[0] || (claimed[1] == claimed[0] && round % 2 == 1), // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
                    );
                    [smaller, 1 - smaller]
                }
            };
            let single_step = policy != FrontPolicy::Alternate;
            for side in order {
                // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
                if fronts[side].is_empty() {
                    continue;
                }
                // fhp-audit: allow(as-cast-truncation) — a side index is 0 or 1
                let mine = side as u8;
                next.clear();
                // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
                for &w in &fronts[side] {
                    let mut meets_other = false;
                    for &x in g.neighbors(w) {
                        let o = owner[x as usize]; // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
                        if o == UNCLAIMED {
                            owner[x as usize] = mine; // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
                            claimed[side] += 1; // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
                            next.push(x);
                        } else if o & SIDE != mine {
                            meets_other = true;
                        }
                    }
                    if meets_other {
                        owner[w as usize] |= BOUNDARY; // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
                    }
                }
                std::mem::swap(&mut fronts[side], next); // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
                                                         // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
                if single_step && !fronts[0].is_empty() && !fronts[1].is_empty() {
                    break; // re-evaluate which side is smaller
                }
            }
            round += 1;
        }

        // Components reached by neither seed: assign whole components to the
        // currently smaller side.
        let stack = &mut self.stack;
        stack.clear();
        // fhp-audit: allow(as-cast-truncation) — vertex count fits u32 by the VertexId representation
        for s in 0..n as u32 {
            // fhp-audit: allow(as-cast-truncation) — vertex count fits u32 by the VertexId representation
            // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
            if owner[s as usize] != UNCLAIMED {
                continue;
            }
            let side = if claimed[0] <= claimed[1] { 0u8 } else { 1u8 }; // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
            owner[s as usize] = side; // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
            claimed[side as usize] += 1; // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
            stack.push(s);
            while let Some(w) = stack.pop() {
                for &x in g.neighbors(w) {
                    // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
                    if owner[x as usize] == UNCLAIMED {
                        // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
                        owner[x as usize] = side; // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
                        claimed[side as usize] += 1; // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
                        stack.push(x);
                    }
                }
            }
        }
        self.cut.left_seed = u;
        self.cut.right_seed = v;
    }
}

/// Picks a random longest-BFS-path endpoint pair: a random start vertex,
/// BFS to the set of deepest vertices and pick one at random as `u`, then
/// BFS from `u` and pick a random deepest vertex as `v`.
///
/// Randomizing among *all* deepest vertices (not just the last visited) is
/// what makes the paper's multi-start extension ("50 random longest paths")
/// explore genuinely different cuts.
///
/// Returns `None` if the graph has fewer than 2 vertices or the random
/// start's component is a single vertex.
pub fn random_longest_path_endpoints<R: Rng + ?Sized>(
    g: &Graph,
    rng: &mut R,
) -> Option<(u32, u32)> {
    EndpointScratch::new().pick(g, rng).map(|(u, v, _)| (u, v))
}

/// Reusable buffer for the longest-BFS-path endpoint draw: one BFS
/// leveling, which the second search reuses once the first has chosen
/// `u`. Once warmed to a graph's vertex count, repeated
/// [`pick`](Self::pick) calls allocate nothing. The RNG draw sequence is
/// byte-identical to [`random_longest_path_endpoints`] (which delegates
/// here): one `gen_range` for the start vertex, one `choose` over the
/// deepest level of the first BFS, one `choose` over the deepest level of
/// the second — so swapping the scratch path in cannot perturb any seeded
/// run.
#[derive(Clone, Debug)]
pub struct EndpointScratch {
    levels: bfs::BfsLevels,
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
        }
    }

    /// A scratch pre-sized for graphs of up to `n` vertices.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            levels: bfs::BfsLevels::with_capacity(n),
        }
    }

    /// Draws a random longest-path endpoint pair, returning
    /// `(u, v, path_length)` where `path_length = dist(u, v)` — the depth
    /// of the second BFS, saving the separate distance BFS callers used
    /// to run. `None` under the same conditions as
    /// [`random_longest_path_endpoints`].
    pub fn pick<R: Rng + ?Sized>(&mut self, g: &Graph, rng: &mut R) -> Option<(u32, u32, u32)> {
        self.draw(g, rng, None)
    }

    /// The one endpoint draw behind [`pick`](Self::pick) and the
    /// multi-start engine: `pick` passes no memo; the engine passes its
    /// worker's [`EndpointMemo`], which answers the second BFS for every
    /// `u` it stored. A hit `choose`s over the same list the BFS would
    /// have produced, so both draw the same RNG values in the same order
    /// and return the same triple.
    pub(crate) fn draw<R: Rng + ?Sized>(
        &mut self,
        g: &Graph,
        rng: &mut R,
        memo: Option<&mut EndpointMemo>,
    ) -> Option<(u32, u32, u32)> {
        let n = g.num_vertices();
        if n < 2 {
            return None;
        }
        let levels = &mut self.levels;
        let start = rng.gen_range(0..n as u32); // fhp-audit: allow(as-cast-truncation) — vertex count fits u32 by the VertexId representation
        bfs::bfs_into(g, start, levels);
        if levels.num_reached() < 2 {
            // isolated start: fall back to any vertex with an edge
            let fallback = g.vertices().find(|&v| g.degree(v) > 0)?;
            bfs::bfs_into(g, fallback, levels);
            if levels.num_reached() < 2 {
                return None; // unreachable: the fallback has an edge
            }
        }
        let u = *levels.deepest_level().choose(rng).expect("nonempty"); // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph

        // the first BFS is dead once u is chosen, so the second reuses it
        let (deepest, depth) = match memo {
            Some(memo) => memo.second_bfs(g, u, levels),
            None => {
                bfs::bfs_into(g, u, levels);
                (levels.deepest_level(), levels.depth())
            }
        };
        let v = *deepest.choose(rng).expect("nonempty"); // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
        if u == v {
            // start's component had a single vertex at positive depth 0 — can
            // only happen if u is isolated, which num_reached() >= 2 rules out.
            return None;
        }
        Some((u, v, depth))
    }
}

/// Vertex ids an [`EndpointMemo`] holds at most, over all its stored
/// levels: 16 KB per worker. A 50-start run on the benchmark's std-cell
/// netlists stores at most 353.
pub(crate) const MEMO_ID_BUDGET: usize = 4096;

/// The second longest-path BFS of every distinct `u` one worker drew in
/// one run: `u`'s depth and deepest level, in visit order. BFS(u) is a
/// function of `u` and `G` alone, so a start that draws a stored `u`
/// reads the level instead of searching again, and its `choose` over the
/// same list draws the same `v`. Valid for one graph only; the
/// multi-start engine keeps one per worker arena, so no lock guards it.
/// Both buffers are reserved up front and never grow: a level that does
/// not fit in what is left of [`MEMO_ID_BUDGET`] is not stored (that `u`
/// runs its BFS on every draw), and nothing is evicted.
#[derive(Clone, Debug)]
pub(crate) struct EndpointMemo {
    /// The stored levels, back to back.
    ids: Vec<u32>,
    /// One entry per stored `u`, sorted by `u`.
    entries: Vec<MemoEntry>,
    /// Draws that read a stored level instead of running BFS(u).
    hits: u64,
}

/// Where one `u`'s level sits in [`EndpointMemo::ids`], and its depth.
#[derive(Clone, Copy, Debug)]
struct MemoEntry {
    u: u32,
    depth: u32,
    start: usize,
    end: usize,
}

impl EndpointMemo {
    /// An empty memo with room for `max_entries` levels (a run's start
    /// count is enough: each start stores at most one) within
    /// [`MEMO_ID_BUDGET`] ids.
    pub(crate) fn with_capacity(max_entries: usize) -> Self {
        Self {
            ids: Vec::with_capacity(MEMO_ID_BUDGET),
            entries: Vec::with_capacity(max_entries.min(MEMO_ID_BUDGET)),
            hits: 0,
        }
    }

    /// Draws that read a stored level instead of running BFS(u).
    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    /// BFS(u)'s deepest level and depth: read from the memo on a hit;
    /// otherwise searched into `levels` and stored if it fits.
    fn second_bfs<'a>(
        &'a mut self,
        g: &Graph,
        u: u32,
        levels: &'a mut bfs::BfsLevels,
    ) -> (&'a [u32], u32) {
        match self.entries.binary_search_by_key(&u, |e| e.u) {
            Ok(i) => {
                self.hits += 1;
                let e = self.entries[i]; // fhp-audit: allow(panic-site) — binary_search returned an index into the entries
                (&self.ids[e.start..e.end], e.depth) // fhp-audit: allow(panic-site) — an entry's range was pushed into ids when it was stored
            }
            Err(slot) => {
                bfs::bfs_into(g, u, levels);
                let level = levels.deepest_level();
                if self.entries.len() < self.entries.capacity()
                    && level.len() <= MEMO_ID_BUDGET - self.ids.len()
                {
                    let start = self.ids.len();
                    self.ids.extend_from_slice(level);
                    let entry = MemoEntry {
                        u,
                        depth: levels.depth(),
                        start,
                        end: self.ids.len(),
                    };
                    self.entries.insert(slot, entry);
                }
                (level, levels.depth())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::SplitMix64;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, (0..n as u32 - 1).map(|i| (i, i + 1)))
    }

    #[test]
    fn fronts_meet_in_the_middle() {
        let g = path(10);
        let cut = two_front_bfs(&g, 0, 9);
        let left: usize = (0..10).filter(|&i| cut.side_of(i) == Side::Left).count();
        assert_eq!(left, 5);
        // contiguity: all left vertices precede all right vertices
        let first_right = (0..10).position(|i| cut.side_of(i) == Side::Right).unwrap();
        assert!((first_right as u32..10).all(|i| cut.side_of(i) == Side::Right));
    }

    #[test]
    fn asymmetric_seeds_split_by_distance() {
        let g = path(10);
        let cut = two_front_bfs(&g, 0, 3);
        // vertices 4.. are closer to 3; the right side should dominate
        assert_eq!(cut.side_of(0), Side::Left);
        assert_eq!(cut.side_of(1), Side::Left);
        for i in 3..10 {
            assert_eq!(cut.side_of(i), Side::Right, "vertex {i}");
        }
        assert_eq!(cut.left_seed(), 0);
        assert_eq!(cut.right_seed(), 3);
    }

    #[test]
    fn every_vertex_claimed_even_disconnected() {
        let mut edges = vec![(0u32, 1u32), (1, 2)]; // component A
        edges.push((3, 4)); // component B, no seed
        let g = Graph::from_edges(5, edges);
        let cut = two_front_bfs(&g, 0, 2);
        assert_eq!(cut.len(), 5);
        // component B goes wholesale to one side
        assert_eq!(cut.side_of(3), cut.side_of(4));
        assert!(!cut.is_empty());
    }

    #[test]
    fn orphan_component_balances_counts() {
        // seeds claim 1 vertex each; orphan pair should go to... either side,
        // but wholesale.
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        let cut = two_front_bfs(&g, 0, 1);
        assert_eq!(cut.side_of(2), cut.side_of(3));
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn equal_seeds_panic() {
        let g = path(3);
        let _ = two_front_bfs(&g, 1, 1);
    }

    #[test]
    fn random_endpoints_are_far_apart_on_path() {
        let g = path(20);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            let (u, v) = random_longest_path_endpoints(&g, &mut rng).unwrap();
            assert!(u == 0 || u == 19);
            assert!(v == 0 || v == 19);
            assert_ne!(u, v);
        }
    }

    #[test]
    fn random_endpoints_tiny_graphs() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(random_longest_path_endpoints(&Graph::empty(0), &mut rng).is_none());
        assert!(random_longest_path_endpoints(&Graph::empty(1), &mut rng).is_none());
        assert!(random_longest_path_endpoints(&Graph::empty(5), &mut rng).is_none());
        let pair = Graph::from_edges(2, [(0, 1)]);
        let (u, v) = random_longest_path_endpoints(&pair, &mut rng).unwrap();
        assert!((u == 0 && v == 1) || (u == 1 && v == 0));
    }

    #[test]
    fn random_endpoints_with_isolated_vertices() {
        // vertex 3 isolated; restarts from a connected vertex
        let g = Graph::from_edges(4, [(0, 1), (1, 2)]);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let (u, v) = random_longest_path_endpoints(&g, &mut rng).unwrap();
            assert_ne!(u, 3);
            assert_ne!(v, 3);
            assert_ne!(u, v);
        }
    }

    #[test]
    fn scratch_pick_matches_free_function_draw_for_draw() {
        let graphs = [
            path(20),
            Graph::from_edges(4, [(0, 1), (1, 2)]), // vertex 3 isolated
            Graph::from_edges(12, (0..12u32).map(|i| (i, (i + 1) % 12))),
            Graph::empty(5),
        ];
        let mut scratch = EndpointScratch::with_capacity(20);
        for (gi, g) in graphs.iter().enumerate() {
            let mut rng_a = StdRng::seed_from_u64(99 + gi as u64);
            let mut rng_b = StdRng::seed_from_u64(99 + gi as u64);
            for round in 0..15 {
                let free = random_longest_path_endpoints(g, &mut rng_a);
                let picked = scratch.pick(g, &mut rng_b);
                assert_eq!(
                    picked.map(|(u, v, _)| (u, v)),
                    free,
                    "graph {gi} round {round}"
                );
                if let Some((u, v, len)) = picked {
                    assert_eq!(bfs::bfs(g, u).dist(v), Some(len), "graph {gi}");
                }
            }
        }
    }

    /// Draws a 50-start run's endpoints through one memo, as a worker of
    /// the multi-start engine does, and checks each start against a fresh
    /// plain draw on the same stream: same triple, and the same number of
    /// RNG calls. Returns the memo's hits and the distinct `u`s drawn.
    fn memoized_draws(g: &Graph, seed: u64) -> (u64, usize) {
        const STARTS: usize = 50;
        let mut scratch = EndpointScratch::with_capacity(g.num_vertices());
        let mut memo = EndpointMemo::with_capacity(STARTS);
        let mut us = std::collections::BTreeSet::new();
        for i in 0..STARTS {
            let mut rng_memo = SplitMix64::for_start(seed, i);
            let mut rng_plain = SplitMix64::for_start(seed, i);
            let memoized = scratch.draw(g, &mut rng_memo, Some(&mut memo));
            let plain = EndpointScratch::new().pick(g, &mut rng_plain);
            assert_eq!(memoized, plain, "start {i}");
            assert_eq!(rng_memo.next_u64(), rng_plain.next_u64(), "start {i}");
            us.extend(plain.map(|(u, _, _)| u));
        }
        (memo.hits(), us.len())
    }

    #[test]
    fn memoized_draws_match_plain_draws() {
        // the chain netlist's G is a path: u is always one of its ends
        let (hits, distinct) = memoized_draws(&path(40), 3);
        assert!(hits > 0);
        assert_eq!(hits, 50 - distinct as u64);
        // two hubs joined by a path, four leaves on each: u is one of the
        // eight leaves, and each stored level holds the far hub's four
        let mut broom = vec![(0u32, 2u32), (2, 3), (3, 1)];
        broom.extend((4..8).map(|l| (0, l)).chain((8..12).map(|l| (1, l))));
        let (hits, distinct) = memoized_draws(&Graph::from_edges(12, broom), 11);
        assert!(hits > 0);
        assert_eq!(hits, 50 - distinct as u64);
        // on an odd cycle u is one of r's two antipodes, so u rarely repeats
        let n = 1001u32;
        let cycle = Graph::from_edges(n as usize, (0..n).map(|i| (i, (i + 1) % n)));
        let (hits, distinct) = memoized_draws(&cycle, 7);
        assert_eq!(hits, 50 - distinct as u64);
        // every u's deepest level holds all other leaves, one id more than
        // the budget, so no level is stored and every draw runs its BFS
        assert_eq!(memoized_draws(&star(MEMO_ID_BUDGET + 2), 5).0, 0);
        // a level of exactly the budget is stored; one id more is not
        for (leaves, hits) in [(MEMO_ID_BUDGET + 1, 1), (MEMO_ID_BUDGET + 2, 0)] {
            let g = star(leaves);
            let mut memo = EndpointMemo::with_capacity(2);
            let mut levels = bfs::BfsLevels::empty();
            for _ in 0..2 {
                let (level, depth) = memo.second_bfs(&g, 1, &mut levels);
                assert_eq!((level.len(), depth), (leaves - 1, 2));
            }
            assert_eq!(memo.hits(), hits, "{leaves} leaves");
        }
    }

    /// A star: hub 0 and `leaves` leaves.
    fn star(leaves: usize) -> Graph {
        Graph::from_edges(leaves + 1, (1..=leaves as u32).map(|l| (0, l)))
    }

    #[test]
    fn two_front_scratch_reuse_matches_fresh_runs() {
        let g1 = path(10);
        let g2 = Graph::from_edges(4, [(0, 1), (2, 3)]);
        let mut scratch = TwoFrontScratch::with_capacity(10);
        for policy in [
            FrontPolicy::SmallerFirst,
            FrontPolicy::Alternate,
            FrontPolicy::Both,
        ] {
            for (g, u, v) in [(&g1, 0u32, 9u32), (&g2, 0, 1), (&g1, 0, 3)] {
                scratch.run(g, u, v, policy);
                let fresh = two_front_bfs_with_policy(g, u, v, policy);
                assert_eq!(scratch.cut(), &fresh, "{policy:?}");
            }
        }
    }

    #[test]
    fn boundary_marks_are_exactly_the_vertices_with_a_cross_neighbour() {
        // a 6-cycle with a chord, seeded at opposite ends, plus a triangle
        // and an isolated vertex that neither seed reaches
        let g = Graph::from_edges(
            10,
            [
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
        for policy in [FrontPolicy::SmallerFirst, FrontPolicy::Alternate] {
            for (u, v) in [(0, 3), (3, 0), (1, 2), (2, 5)] {
                let cut = two_front_bfs_with_policy(&g, u, v, policy);
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
        let n = 12u32;
        let g = Graph::from_edges(n as usize, (0..n).map(|i| (i, (i + 1) % n)));
        let mut rng = StdRng::seed_from_u64(42);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..40 {
            let (u, _) = random_longest_path_endpoints(&g, &mut rng).unwrap();
            seen.insert(u);
        }
        assert!(seen.len() > 3, "expected endpoint diversity, saw {seen:?}");
    }
}
