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
//! `k(k − 1)` ids around a single module of `k` kept nets.

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
    stack: Vec<u32>,
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

    /// A scratch pre-sized for instances of up to `n` G-vertices and
    /// `modules` modules.
    pub fn with_capacity(n: usize, modules: usize) -> Self {
        Self {
            fronts: [Vec::with_capacity(n), Vec::with_capacity(n)],
            next: Vec::with_capacity(n),
            stack: Vec::with_capacity(n),
            expanded: Vec::with_capacity(modules),
            reads: 0,
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
    /// A front expanding net `w` expands each of `w`'s modules that no
    /// claimed net expanded yet and claims the unclaimed kept nets there.
    /// That leaves all of the module's nets claimed for good, so a module
    /// whose nets then lie on both sides is split for good: the sweep
    /// marks every kept net on it as boundary, which marks exactly the
    /// nets with a neighbour across. The sides depend only on which nets
    /// each front holds, never on their order within it. The components
    /// neither seed reaches go to one side whole and hold no boundary
    /// vertex.
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
            stack,
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

        // Components reached by neither seed: assign whole components to the
        // currently smaller side.
        stack.clear();
        // fhp-audit: allow(as-cast-truncation) — G ids fit u32 by the view's construction
        for s in 0..n as u32 {
            // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
            if owner[s as usize] != UNCLAIMED {
                continue;
            }
            let [left_n, right_n] = claimed;
            let side = u8::from(left_n > right_n);
            owner[s as usize] = side; // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
            stack.push(s);
            let mut size = 1;
            while let Some(w) = stack.pop() {
                let before = stack.len();
                *reads += expand(view, w, side, owner, expanded, stack);
                size += stack.len() - before;
            }
            claimed[usize::from(side)] += size; // fhp-audit: allow(panic-site) — a side index is 0 or 1
        }
        debug_assert!(
            *reads <= 3 * view.num_kept_pins() as u64,
            "{reads} ids read"
        );
        cut.left_seed = u;
        cut.right_seed = v;
    }

    /// Ids the most recent [`run`](Self::run) read: the pins of the nets
    /// it expanded, the kept nets of the modules they expanded, and the
    /// kept nets of the split modules again to mark them boundary — each
    /// kept pin at most three times.
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
    pub fn pick<R: Rng + ?Sized>(
        &mut self,
        view: &DualIncidence<'_>,
        rng: &mut R,
    ) -> Option<(u32, u32, u32)> {
        self.draw(view, rng, None)
    }

    /// The one endpoint draw behind [`pick`](Self::pick) and the
    /// multi-start engine: `pick` passes no memo; the engine passes its
    /// worker's [`EndpointMemo`], which answers the second BFS for every
    /// `u` it stored. A hit `choose`s over the same list the BFS would
    /// have produced, so both draw the same RNG values in the same order
    /// and return the same triple.
    pub(crate) fn draw<R: Rng + ?Sized>(
        &mut self,
        view: &DualIncidence<'_>,
        rng: &mut R,
        memo: Option<&mut EndpointMemo>,
    ) -> Option<(u32, u32, u32)> {
        let n = view.num_g_vertices();
        if n < 2 {
            return None;
        }
        let Self { levels, expanded } = self;
        let start = rng.gen_range(0..n as u32); // fhp-audit: allow(as-cast-truncation) — G ids fit u32 by the view's construction
        bfs::bfs_dual_into(view, start, levels, expanded);
        if levels.num_reached() < 2 {
            // isolated start: fall back to the lowest vertex with an edge
            bfs::bfs_dual_into(view, view.first_linked()?, levels, expanded);
        }
        let u = *levels.deepest_level().choose(rng).expect("nonempty"); // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph

        // the first BFS is dead once u is chosen, so the second reuses it
        let (deepest, depth) = match memo {
            Some(memo) => memo.second_bfs(view, u, levels, expanded),
            None => {
                bfs::bfs_dual_into(view, u, levels, expanded);
                (levels.deepest_level(), levels.depth())
            }
        };
        let v = *deepest.choose(rng).expect("nonempty"); // fhp-audit: allow(panic-site) — frontier/owner arrays sized to the graph at entry; ids minted by the same graph
        if u == v {
            // u's component is u alone, which the fallback to a vertex
            // with an edge rules out
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
/// same list draws the same `v`. Valid for one instance only; the
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
        view: &DualIncidence<'_>,
        u: u32,
        levels: &'a mut bfs::BfsLevels,
        expanded: &mut Vec<bool>,
    ) -> (&'a [u32], u32) {
        match self.entries.binary_search_by_key(&u, |e| e.u) {
            Ok(i) => {
                self.hits += 1;
                let e = self.entries[i]; // fhp-audit: allow(panic-site) — binary_search returned an index into the entries
                (&self.ids[e.start..e.end], e.depth) // fhp-audit: allow(panic-site) — an entry's range was pushed into ids when it was stored
            }
            Err(slot) => {
                bfs::bfs_dual_into(view, u, levels, expanded);
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
        assert_eq!(cut.left_seed(), 0);
        assert_eq!(cut.right_seed(), 3);
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
            let g = IntersectionGraph::build(h);
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

    /// Draws a 50-start run's endpoints through one memo, as a worker of
    /// the multi-start engine does, and checks each start against a fresh
    /// plain draw on the same stream: same triple, and the same number of
    /// RNG calls. Returns the memo's hits and the distinct `u`s drawn.
    fn memoized_draws(h: &Hypergraph, seed: u64) -> (u64, usize) {
        const STARTS: usize = 50;
        let view = view(h);
        let mut scratch = EndpointScratch::with_capacity(view.num_g_vertices(), h.num_vertices());
        let mut memo = EndpointMemo::with_capacity(STARTS);
        let mut us = std::collections::BTreeSet::new();
        for i in 0..STARTS {
            let mut rng_memo = SplitMix64::for_start(seed, i);
            let mut rng_plain = SplitMix64::for_start(seed, i);
            let memoized = scratch.draw(&view, &mut rng_memo, Some(&mut memo));
            let plain = EndpointScratch::new().pick(&view, &mut rng_plain);
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
        let (hits, distinct) = memoized_draws(&dual_of(12, &broom), 11);
        assert!(hits > 0);
        assert_eq!(hits, 50 - distinct as u64);
        // on an odd cycle u is one of r's two antipodes, so u rarely repeats
        let (hits, distinct) = memoized_draws(&cycle(1001), 7);
        assert_eq!(hits, 50 - distinct as u64);
        // every u's deepest level holds all other leaves, one id more than
        // the budget, so no level is stored and every draw runs its BFS
        assert_eq!(memoized_draws(&star(MEMO_ID_BUDGET + 2), 5).0, 0);
        // a level of exactly the budget is stored; one id more is not
        for (leaves, hits) in [(MEMO_ID_BUDGET + 1, 1), (MEMO_ID_BUDGET + 2, 0)] {
            let h = star(leaves);
            let view = view(&h);
            let mut memo = EndpointMemo::with_capacity(2);
            let mut levels = bfs::BfsLevels::empty();
            let mut expanded = Vec::new();
            for _ in 0..2 {
                let (level, depth) = memo.second_bfs(&view, 1, &mut levels, &mut expanded);
                assert_eq!((level.len(), depth), (leaves - 1, 2));
            }
            assert_eq!(memo.hits(), hits, "{leaves} leaves");
        }
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
        let ig = IntersectionGraph::build(&h);
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
        let ig = IntersectionGraph::build(&h);
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
