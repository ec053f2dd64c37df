//! Completing a partial bipartition: the paper's *Complete-Cut* method and
//! its variants.
//!
//! On the bipartite boundary graph `G′`, every vertex (a signal on the
//! boundary of the initial G-cut) ends as a **winner** — all its modules on
//! one side, it does not cross — or a **loser** — it crosses the cut. A
//! winner's neighbours in `G′` must all be losers, so the winners form an
//! independent set and minimizing losers is a minimum vertex cover problem.
//!
//! Three strategies are provided:
//!
//! - [`CompletionStrategy::MinDegree`] — the paper's §2.2 greedy: repeatedly
//!   make the minimum-degree remaining vertex a winner, its neighbours
//!   losers, and delete them. The paper states (proof omitted) that this is
//!   within 1 of the optimum completion when `G′` is connected; our
//!   property testing **refutes that bound as stated** — connected
//!   counterexamples with a gap of 2 exist from 10 vertices up (see the
//!   `within_one_counterexample` test and EXPERIMENTS.md) — though the
//!   greedy is within 1 on the overwhelming majority of random boundary
//!   graphs and its cuts remain excellent end to end.
//! - [`CompletionStrategy::EngineerWeighted`] — the paper's §3 weighted
//!   r-bipartition rule ("engineer's method"): like the greedy, but the next
//!   winner is drawn from whichever side of the partition currently carries
//!   less module weight.
//! - [`CompletionStrategy::ExactKonig`] — the true optimum via
//!   Hopcroft–Karp maximum matching and König's minimum vertex cover
//!   (`G′` is bipartite, so this is polynomial). Not in the paper; used as
//!   the reference implementation and as an upgrade option.
//!
//! The two paper rules are one lazy-heap greedy that differs only in which
//! heap the next winner comes from. [`CompletionScratch::finish`] finishes
//! a sweep in one call (steps 5–6 of Algorithm I): it picks the winners,
//! commits their modules on top of the partial bipartition, puts the
//! leftover modules on the lighter side and scores the result from what
//! the sweep touched; [`CompletionScratch::write`] writes the bipartition
//! when one is wanted, and [`CompletionScratch::complete_into`] does both.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use fhp_hypergraph::{DualIncidence, Graph, Hypergraph, VertexId};

use crate::boundary::{grow, BoundaryDecomposition};
use crate::matching::{hopcroft_karp, konig_cover};
use crate::{Bipartition, Side};

/// How the boundary graph is completed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum CompletionStrategy {
    /// The paper's min-degree greedy (within 1 of optimal on most
    /// connected `G′`, but not all — see the module docs).
    #[default]
    MinDegree,
    /// The paper's weight-balancing variant: the next winner is the
    /// smallest-degree remaining vertex on the lighter side.
    EngineerWeighted,
    /// Exact minimum-loser completion via König's theorem.
    ExactKonig,
}

/// The outcome of completing a boundary graph: which G′ vertices won.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Completion {
    winner: Vec<bool>,
}

impl Completion {
    /// True if G′ vertex `b` is a winner (does not cross the cut).
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn is_winner(&self, b: u32) -> bool {
        self.winner[b as usize] // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
    }

    /// Per-vertex winner flags.
    pub fn winners(&self) -> &[bool] {
        &self.winner
    }

    /// Number of losers — the completion's upper bound on the number of
    /// boundary signals that cross.
    pub fn num_losers(&self) -> usize {
        self.winner.iter().filter(|&&w| !w).count()
    }

    /// Number of winners.
    pub fn num_winners(&self) -> usize {
        self.winner.iter().filter(|&&w| w).count()
    }

    fn assert_independent(&self, gprime: &Graph) {
        debug_assert!(
            gprime
                .edges()
                .all(|(u, v)| !(self.winner[u as usize] && self.winner[v as usize])), // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
            "winners are not an independent set"
        );
    }
}

/// Runs the selected completion strategy on the boundary decomposition and
/// returns its winners — the reference entry point, running the same code
/// as [`CompletionScratch::complete_into`] on a fresh scratch.
///
/// # Examples
///
/// ```
/// use fhp_core::boundary::BoundaryDecomposition;
/// use fhp_core::complete_cut::{complete, CompletionStrategy};
/// use fhp_core::dual_bfs::two_front_bfs;
/// use fhp_hypergraph::{intersection::paper_example, DualIncidence};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let h = paper_example();
/// let view = DualIncidence::new(&h, None)?;
/// let cut = two_front_bfs(&view, 0, 8);
/// let dec = BoundaryDecomposition::new(&view, &cut);
/// let done = complete(CompletionStrategy::MinDegree, &view, &dec);
/// assert_eq!(done.num_winners() + done.num_losers(), dec.boundary_len());
/// # Ok(())
/// # }
/// ```
pub fn complete(
    strategy: CompletionStrategy,
    view: &DualIncidence<'_>,
    dec: &BoundaryDecomposition<'_>,
) -> Completion {
    let mut scratch = CompletionScratch::new();
    scratch.pick_winners(strategy, view, dec);
    scratch.completion
}

/// A lazy min-heap of `(degree, G′ id)` keys: a vertex gets a fresh entry
/// whenever its degree falls, and its older entries go stale.
type DegreeHeap = BinaryHeap<Reverse<(u32, u32)>>;

/// What a completed sweep scores: the totals of the bipartition it
/// assembles, counted from what the sweep touched.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepScore {
    /// Unweighted cut size.
    pub cut_size: usize,
    /// Weighted cut size.
    pub weighted_cut: u64,
    /// Modules per side, `(left, right)`.
    pub counts: (usize, usize),
    /// Module weight per side, `(left, right)`.
    pub weights: (u64, u64),
    /// Modules the partial bipartition committed
    /// ([`BoundaryDecomposition::num_placed`]).
    pub num_placed: usize,
}

/// The one place where a sweep's partial bipartition becomes a full one:
/// the Complete-Cut greedy's buffers plus the assembly's. Under
/// [`CompletionStrategy::MinDegree`] and
/// [`CompletionStrategy::EngineerWeighted`],
/// [`finish`](Self::finish) allocates only to grow a buffer sized by the
/// boundary graph `G′` to a larger `G′` than it has met, by one geometric
/// growth each; `ExactKonig` still allocates its matching and cover.
///
/// A finished sweep places only the modules the partial bipartition left
/// open and the modules on no kept net; every other module's side is its
/// partial side. [`side_of`](Self::side_of) looks a module up, and
/// [`write`](Self::write) writes the whole bipartition from those
/// lookups.
#[derive(Clone, Debug, Default)]
pub struct CompletionScratch {
    alive: Vec<bool>,
    deg: Vec<u32>,
    /// One lazy heap per side of the G-cut for the engineer's method;
    /// `MinDegree` keeps every vertex in the left one.
    heaps: [DegreeHeap; 2],
    completion: Completion,
    /// Each module's side as this sweep's completion placed it: set for
    /// the open modules of the sweep and the modules on no kept net,
    /// stale elsewhere and never read there.
    placed: Vec<Option<Side>>,
    /// Modules placed on each side so far, `[left, right]`.
    counts: [usize; 2],
    /// Module weight placed on each side so far, `[left, right]`.
    weights: [u64; 2],
    /// The sweep's modules left open after the winners commit, for the
    /// LPT pass.
    leftovers: Vec<VertexId>,
    /// The module moved across because a side was empty.
    flipped: Option<VertexId>,
    /// Ids the most recent sweep's completion and scoring read.
    reads: u64,
    /// `G′`-sized buffer growths over every greedy run so far.
    growths: u64,
}

impl CompletionScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch with its assembly buffers reserved for `num_modules`
    /// modules. The greedy's buffers, sized by a boundary graph `G′`,
    /// start empty and grow to the largest `G′` the scratch completes: a
    /// lazy heap of `n + m` entries of 8 bytes (a `u32` degree and a
    /// `u32` vertex id) for `n` vertices and `m` edges, as each edge
    /// pushes at most one entry; `EngineerWeighted` grows a second one,
    /// and `ExactKonig` none.
    pub fn with_capacity(num_modules: usize) -> Self {
        Self {
            placed: Vec::with_capacity(num_modules),
            leftovers: Vec::with_capacity(num_modules),
            ..Self::default()
        }
    }

    /// How many times the greedy grew a buffer sized by `G′`, over the
    /// scratch's life: one allocation each.
    pub(crate) fn growths(&self) -> u64 {
        self.growths
    }

    /// The winners picked by the most recent
    /// [`finish`](Self::finish).
    pub fn completion(&self) -> &Completion {
        &self.completion
    }

    /// Ids the most recent [`finish`](Self::finish) read: the boundary
    /// vertices' modules (a few passes), the modules on no kept net, the
    /// losers' and filtered nets' modules, and the moved module's nets.
    pub(crate) fn ids_read(&self) -> u64 {
        self.reads
    }

    /// Completes the sweep behind `dec` under `strategy` and writes the
    /// bipartition to `out`: [`finish`](Self::finish), then
    /// [`write`](Self::write).
    pub fn complete_into(
        &mut self,
        strategy: CompletionStrategy,
        view: &DualIncidence<'_>,
        dec: &BoundaryDecomposition<'_>,
        out: &mut Bipartition,
    ) {
        self.finish(strategy, view, dec);
        self.write(view, dec, out);
    }

    /// Completes the sweep behind `dec` under `strategy` and scores it,
    /// without writing a bipartition: picks the winners (read them back
    /// with [`completion`](Self::completion)), commits each winner's
    /// modules to its side on top of the partial bipartition, places every
    /// module still unplaced on the lighter side, heaviest first (the LPT
    /// rule), and moves the lightest module across if a side would
    /// otherwise be empty.
    ///
    /// The score is counted from what the sweep touched: the side totals
    /// start from the partial bipartition's, and only the losers and the
    /// filtered nets can cross — a winner's and a non-boundary kept net's
    /// modules all lie on its side, and a component no seed reached lies
    /// on one side whole. When a side was empty every module but the
    /// moved one lies on one side, so exactly the moved module's nets of
    /// two or more pins cross. Every buffer the sweep reads is overwritten
    /// on entry; once warm, none grows.
    pub fn finish(
        &mut self,
        strategy: CompletionStrategy,
        view: &DualIncidence<'_>,
        dec: &BoundaryDecomposition<'_>,
    ) -> SweepScore {
        let h = view.hypergraph();
        self.pick_winners(strategy, view, dec);
        // The engineer's method placed its winners' modules as they won.
        if strategy != CompletionStrategy::EngineerWeighted {
            for b in (0u32..).take(self.completion.winner.len()) {
                if !self.completion.is_winner(b) {
                    continue;
                }
                let pins = view.pins(dec.g_vertex(b));
                self.reads += pins.len() as u64;
                for &p in pins {
                    self.place(h, dec, p, dec.side_of(b));
                }
            }
        }

        // Leftovers: the sweep's modules touched only by losers, all on
        // boundary nets, and the modules on no kept net, which the view
        // lists in this order already. (Reverse(weight), index) is the
        // stable biggest-first order without a stable sort's merge buffer.
        self.leftovers.clear();
        for &g in dec.boundary_g_vertices() {
            let pins = view.pins(g);
            self.reads += pins.len() as u64;
            for &p in pins {
                if self.open_side(dec, p).is_none() {
                    self.leftovers.push(p);
                }
            }
        }
        let lpt = |v: &VertexId| (Reverse(h.vertex_weight(*v)), *v);
        self.leftovers.sort_unstable_by_key(lpt);
        self.leftovers.dedup();
        let free = view.free_modules();
        self.reads += free.len() as u64;
        let (mut i, mut j) = (0, 0);
        loop {
            let next = match (self.leftovers.get(i), free.get(j)) {
                (Some(a), Some(b)) if lpt(a) < lpt(b) => a,
                (_, Some(b)) => b,
                (Some(a), None) => a,
                (None, None) => break,
            };
            let v = *next;
            if free.get(j) == Some(&v) {
                j += 1;
            } else {
                i += 1;
            }
            let side = Side::lighter(self.weights);
            self.assign(h, v, side);
        }

        // A side left empty takes the lightest module across.
        self.flipped = None;
        if view.num_modules() >= 2 && self.counts.contains(&0) {
            if let Some(x) = view.lightest_module() {
                let [left, _] = self.counts;
                let from = if left == 0 { Side::Right } else { Side::Left };
                let w = h.vertex_weight(x);
                // fhp-audit: allow(panic-site) — a two-element array indexed by a side
                self.counts[from.index()] -= 1;
                // fhp-audit: allow(panic-site) — a two-element array indexed by a side
                self.counts[(!from).index()] += 1;
                // fhp-audit: allow(panic-site) — a two-element array indexed by a side
                self.weights[from.index()] -= w;
                // fhp-audit: allow(panic-site) — a two-element array indexed by a side
                self.weights[(!from).index()] += w;
                self.flipped = Some(x);
            }
        }

        let (cut_size, weighted_cut) = match self.flipped {
            Some(x) => {
                let nets = h.edges_of(x);
                self.reads += nets.len() as u64;
                nets.iter()
                    .filter(|&&e| h.edge_size(e) >= 2)
                    .fold((0, 0), |(cut, weighted), &e| {
                        (cut + 1, weighted + h.edge_weight(e))
                    })
            }
            None => {
                let mut totals = (0usize, 0u64);
                for (b, _) in (0u32..).zip(&self.completion.winner).filter(|&(_, &w)| !w) {
                    let g = dec.g_vertex(b);
                    let pins = view.pins(g);
                    self.reads += pins.len() as u64;
                    if crosses(pins, |p| self.open_side(dec, p)) {
                        totals.0 += 1;
                        totals.1 += h.edge_weight(view.edge_of(g));
                    }
                }
                for &e in view.filtered_nets() {
                    let pins = h.pins(e);
                    self.reads += pins.len() as u64;
                    if crosses(pins, |p| Some(self.side_of(dec, p))) {
                        totals.0 += 1;
                        totals.1 += h.edge_weight(e);
                    }
                }
                totals
            }
        };
        let [left, right] = self.counts;
        let [left_w, right_w] = self.weights;
        SweepScore {
            cut_size,
            weighted_cut,
            counts: (left, right),
            weights: (left_w, right_w),
            num_placed: dec.num_placed(),
        }
    }

    /// Module `m`'s side in the bipartition the most recent
    /// [`finish`](Self::finish) on `dec` assembled: its partial side, else
    /// the side this completion placed it on, and the other side for the
    /// module moved across.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn side_of(&self, dec: &BoundaryDecomposition<'_>, m: VertexId) -> Side {
        let side = dec
            .partial_side(m)
            .or_else(|| self.placed.get(m.index()).copied().flatten())
            .unwrap_or(Side::Left);
        if self.flipped == Some(m) {
            !side
        } else {
            side
        }
    }

    /// Writes the bipartition the most recent [`finish`](Self::finish) on
    /// `dec` assembled to `out`, one [`side_of`](Self::side_of) per
    /// module.
    pub fn write(
        &self,
        view: &DualIncidence<'_>,
        dec: &BoundaryDecomposition<'_>,
        out: &mut Bipartition,
    ) {
        out.reset(view.num_modules());
        for m in view.hypergraph().vertices() {
            if self.side_of(dec, m) == Side::Right {
                out.set(m, Side::Right);
            }
        }
    }

    /// The side of a module the sweep expanded, once committed: its
    /// partial side, else the side this completion placed it on.
    fn open_side(&self, dec: &BoundaryDecomposition<'_>, p: VertexId) -> Option<Side> {
        dec.expanded_side(p)
            .or_else(|| self.placed.get(p.index()).copied().flatten())
    }

    /// Starts the sweep's completion from the partial bipartition's
    /// totals, opens the sweep's modules it left unplaced — each lies on
    /// a boundary net — and picks the winners under `strategy`; the
    /// engineer's method also places its winners' modules.
    fn pick_winners(
        &mut self,
        strategy: CompletionStrategy,
        view: &DualIncidence<'_>,
        dec: &BoundaryDecomposition<'_>,
    ) {
        if self.placed.len() != view.num_modules() {
            self.placed.clear();
            self.placed.resize(view.num_modules(), None);
        }
        let (counts, weights) = dec.placed_totals();
        self.counts = counts;
        self.weights = weights;
        self.reads = 0;
        for &g in dec.boundary_g_vertices() {
            let pins = view.pins(g);
            self.reads += pins.len() as u64;
            for &p in pins {
                if dec.expanded_side(p).is_none() {
                    if let Some(slot) = self.placed.get_mut(p.index()) {
                        *slot = None;
                    }
                }
            }
        }
        match strategy {
            CompletionStrategy::MinDegree => self.greedy(dec.gprime(), None),
            CompletionStrategy::EngineerWeighted => self.greedy(dec.gprime(), Some((view, dec))),
            CompletionStrategy::ExactKonig => {
                self.completion = complete_exact(dec.gprime(), dec.sides());
            }
        }
        self.completion.assert_independent(dec.gprime());
    }

    /// Commits module `p` to `side` unless it is already placed, by the
    /// partial bipartition or an earlier winner. Commitments never
    /// conflict: two winners sharing a module are adjacent in `G`, so on
    /// opposite sides of the G-cut they would be adjacent in `G′`, which
    /// winners never are; the same argument covers a winner and a
    /// non-boundary signal.
    fn place(&mut self, h: &Hypergraph, dec: &BoundaryDecomposition<'_>, p: VertexId, side: Side) {
        let committed = self.open_side(dec, p);
        debug_assert!(
            committed.is_none_or(|s| s == side),
            "module {p} is committed to both sides"
        );
        if committed.is_none() {
            self.assign(h, p, side);
        }
    }

    /// Places module `p` on `side`, counting it there.
    fn assign(&mut self, h: &Hypergraph, p: VertexId, side: Side) {
        if let Some(slot) = self.placed.get_mut(p.index()) {
            *slot = Some(side);
            // fhp-audit: allow(panic-site) — a two-element array indexed by a side
            self.counts[side.index()] += 1;
            // fhp-audit: allow(panic-site) — a two-element array indexed by a side
            self.weights[side.index()] += h.vertex_weight(p);
        }
    }

    /// The paper's Complete-Cut greedy on `gprime`:
    ///
    /// 1. select the minimum-degree remaining vertex and mark it a winner;
    /// 2. mark all its remaining neighbours losers;
    /// 3. delete the winner and the losers; repeat while vertices remain.
    ///
    /// With the `engineer` sweep's view of `G` and decomposition, the
    /// next winner comes from the heap of the side now carrying less
    /// module weight (the other side's once it runs dry), and each winner
    /// places its unplaced modules as it wins, because the rule reads the
    /// side weights. Every heap is built with one `extend`, a single
    /// heapify pass.
    fn greedy(
        &mut self,
        gprime: &Graph,
        engineer: Option<(&DualIncidence<'_>, &BoundaryDecomposition<'_>)>,
    ) {
        let n = gprime.num_vertices();
        self.alive.clear();
        self.growths += grow(&mut self.alive, n);
        self.alive.resize(n, true);
        self.completion.winner.clear();
        self.growths += grow(&mut self.completion.winner, n);
        self.completion.winner.resize(n, false);
        self.deg.clear();
        self.growths += grow(&mut self.deg, n);
        self.deg
            .extend(gprime.vertices().map(|v| degree_u32(gprime, v)));
        let heap_side = |v: u32| engineer.map_or(Side::Left, |(_, dec)| dec.side_of(v));
        let [left, right] = &mut self.heaps;
        for (heap, side) in [(&mut *left, Side::Left), (&mut *right, Side::Right)] {
            heap.clear();
            // a used heap holds at most the vertices plus one push per edge
            let used = side == Side::Left || engineer.is_some();
            let need = if used { n + gprime.num_edges() } else { 0 };
            if heap.capacity() < need {
                heap.reserve(need);
                self.growths += 1;
            }
            heap.extend(
                gprime
                    .vertices()
                    .zip(self.deg.iter())
                    .filter(|&(v, _)| heap_side(v) == side)
                    .map(|(v, &d)| Reverse((d, v))),
            );
        }
        loop {
            let near = engineer.map_or(Side::Left, |_| Side::lighter(self.weights));
            let [left, right] = &mut self.heaps;
            let (first, second) = match near {
                Side::Left => (left, right),
                Side::Right => (right, left),
            };
            let Some(v) = pop_live(first, &self.alive, &self.deg)
                .or_else(|| pop_live(second, &self.alive, &self.deg))
            else {
                break;
            };
            self.completion.winner[v as usize] = true; // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
            self.alive[v as usize] = false; // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
            if let Some((view, dec)) = engineer {
                let side = dec.side_of(v);
                let pins = view.pins(dec.g_vertex(v));
                self.reads += pins.len() as u64;
                for &p in pins {
                    self.place(view.hypergraph(), dec, p, side);
                }
            }
            for &u in gprime.neighbors(v) {
                // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
                if !self.alive[u as usize] {
                    continue;
                }
                // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
                self.alive[u as usize] = false; // loser
                for &w in gprime.neighbors(u) {
                    // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
                    if self.alive[w as usize] {
                        // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
                        let d = &mut self.deg[w as usize];
                        *d -= 1;
                        let d = *d;
                        let [left, right] = &mut self.heaps;
                        let heap = match heap_side(w) {
                            Side::Left => left,
                            Side::Right => right,
                        };
                        heap.push(Reverse((d, w)));
                    }
                }
            }
        }
    }
}

/// True if the modules `pins` do not all lie on one side, each side read
/// by `side_of`.
fn crosses(pins: &[VertexId], side_of: impl Fn(VertexId) -> Option<Side>) -> bool {
    let mut sides = pins.iter().map(|&p| side_of(p));
    let first = sides.next().flatten();
    sides.any(|s| s != first)
}

/// Pops `heap` down to its first live entry — a live vertex at its
/// current degree — and returns that vertex. An entry that goes stale
/// stays stale, as degrees only fall and the dead stay dead.
fn pop_live(heap: &mut DegreeHeap, alive: &[bool], deg: &[u32]) -> Option<u32> {
    while let Some(Reverse((d, v))) = heap.pop() {
        if alive.get(v as usize) == Some(&true) && deg.get(v as usize) == Some(&d) {
            return Some(v);
        }
    }
    None
}

/// The paper's Complete-Cut greedy on an arbitrary graph (see
/// [`CompletionScratch::complete_into`], which runs the same code),
/// implemented with a lazy binary heap keyed on current degree —
/// `O((n + m) log n)`, matching the paper's `O(n log n)` for
/// bounded-degree boundary graphs.
pub fn complete_min_degree(gprime: &Graph) -> Completion {
    let mut scratch = CompletionScratch::new();
    scratch.greedy(gprime, None);
    scratch.completion
}

/// The degree of `v` as the completion heaps' `u32` key: a degree is below
/// the vertex count, and G′ vertex ids are `u32` already.
fn degree_u32(gprime: &Graph, v: u32) -> u32 {
    // fhp-audit: allow(as-cast-truncation) — a degree is below the vertex count, which fits u32 by the id representation
    gprime.degree(v) as u32
}

/// Exact minimum-loser completion: the losers are a minimum vertex cover of
/// the bipartite `G′`, obtained by König's construction from a maximum
/// matching.
pub fn complete_exact(gprime: &Graph, sides: &[Side]) -> Completion {
    let matching = hopcroft_karp(gprime, sides);
    let cover = konig_cover(gprime, sides, &matching);
    Completion {
        winner: cover.into_iter().map(|c| !c).collect(),
    }
}

/// The exact minimum number of losers for a Complete-Cut completion of
/// the boundary graph `gprime`, by enumeration.
///
/// Winners must form an independent set (a winner's neighbours all
/// lose), so the minimum loser count is `n` minus the maximum
/// independent set — equivalently, a minimum vertex cover. Exponential;
/// this is the ground truth the paper's within-one claim for the greedy
/// completion is tested against, shared by the unit tests here, the
/// Complete-Cut property tests and the `fhp-verify` oracle harness.
///
/// # Status of the paper's within-one claim
///
/// Exhaustive comparison against this reference over every connected
/// bipartite boundary graph shows the min-degree greedy completion is
/// within 1 of this optimum for all `n ≤ 9`. The claim is **refuted as
/// stated** from `n = 10` up: connected counterexamples with a gap of 2
/// exist (the smallest is pinned as `within_one_counterexample` in this
/// module's tests). Oracles must therefore only assert the within-1
/// bound on connected `G′` with at most 9 vertices; `greedy ≥ optimum`
/// is the only inequality that holds unconditionally.
///
/// # Panics
///
/// Panics if `gprime` has more than 24 vertices.
pub fn brute_force_min_losers(gprime: &Graph) -> usize {
    let n = gprime.num_vertices();
    assert!(n <= 24, "brute force limited to 24 vertices, got {n}");
    let adj: Vec<u32> =
        (0..n as u32) // fhp-audit: allow(as-cast-truncation) — n is a G-vertex count; ids are u32 by representation
            .map(|v| gprime.neighbors(v).iter().fold(0u32, |m, &u| m | (1 << u)))
            .collect();
    let mut best_winners = 0usize;
    for mask in 0u32..(1 << n) {
        let mut ok = true;
        for (v, &mask_v) in adj.iter().enumerate() {
            if mask & (1 << v) != 0 && mask_v & mask != 0 {
                ok = false;
                break;
            }
        }
        if ok {
            best_winners = best_winners.max(mask.count_ones() as usize);
        }
    }
    n - best_winners
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dual_bfs::two_front_bfs;
    use fhp_hypergraph::intersection::paper_example;

    fn sides_pattern(pattern: &str) -> Vec<Side> {
        pattern
            .chars()
            .map(|c| if c == 'L' { Side::Left } else { Side::Right })
            .collect()
    }

    #[test]
    fn min_degree_on_star_sacrifices_center() {
        let g = Graph::from_edges(5, (1..5).map(|i| (0, i)));
        let c = complete_min_degree(&g);
        assert!(!c.is_winner(0));
        for v in 1..5 {
            assert!(c.is_winner(v));
        }
        assert_eq!(c.num_losers(), 1);
        assert_eq!(c.num_winners(), 4);
    }

    #[test]
    fn min_degree_on_path_matches_optimum() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let c = complete_min_degree(&g);
        assert_eq!(c.num_losers(), brute_force_min_losers(&g));
    }

    #[test]
    fn exact_equals_brute_force_on_small_graphs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..60 {
            let nl = rng.gen_range(1..6usize);
            let nr = rng.gen_range(1..6usize);
            let n = nl + nr;
            let sides: Vec<Side> = (0..n)
                .map(|i| if i < nl { Side::Left } else { Side::Right })
                .collect();
            let mut edges = Vec::new();
            for u in 0..nl as u32 {
                for v in nl as u32..n as u32 {
                    if rng.gen_bool(0.4) {
                        edges.push((u, v));
                    }
                }
            }
            let g = Graph::from_edges(n, edges);
            let exact = complete_exact(&g, &sides);
            assert_eq!(exact.num_losers(), brute_force_min_losers(&g));
            exact.assert_independent(&g);
        }
    }

    #[test]
    fn within_one_holds_on_most_connected_bipartite_graphs() {
        // Paper §2.2 theorem (proof omitted there): for connected G′ the
        // greedy completion is within one of the optimum. Our testing shows
        // this holds for the overwhelming majority of random connected
        // boundary graphs — but not all (see within_one_counterexample), so
        // the check here is statistical.
        use fhp_hypergraph::bfs;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let mut tested = 0;
        let mut within_one = 0;
        while tested < 200 {
            let nl = rng.gen_range(2..8usize);
            let nr = rng.gen_range(2..8usize);
            let n = nl + nr;
            let sides: Vec<Side> = (0..n)
                .map(|i| if i < nl { Side::Left } else { Side::Right })
                .collect();
            let mut edges = Vec::new();
            for u in 0..nl as u32 {
                for v in nl as u32..n as u32 {
                    if rng.gen_bool(0.45) {
                        edges.push((u, v));
                    }
                }
            }
            let g = Graph::from_edges(n, edges);
            if !bfs::is_connected(&g) {
                continue;
            }
            tested += 1;
            let greedy = complete_min_degree(&g).num_losers();
            let exact = complete_exact(&g, &sides).num_losers();
            assert!(greedy >= exact);
            if greedy <= exact + 1 {
                within_one += 1;
            }
        }
        assert!(
            within_one * 100 >= tested * 95,
            "within-one held on only {within_one}/{tested} graphs"
        );
    }

    #[test]
    fn within_one_counterexample() {
        // Connected bipartite graph (L = 0..5, R = 5..12) where the paper's
        // greedy is optimal + 2, refuting the stated within-one theorem.
        // Greedy eats the left side bottom-up (degree-1 vertex 1 first) and
        // concedes all seven right vertices; the optimum sacrifices five.
        let g = Graph::from_edges(
            12,
            [
                (0u32, 9u32),
                (0, 10),
                (1, 8),
                (2, 7),
                (2, 11),
                (3, 5),
                (3, 6),
                (3, 7),
                (3, 8),
                (3, 10),
                (4, 5),
                (4, 6),
                (4, 9),
                (4, 11),
            ],
        );
        assert!(fhp_hypergraph::bfs::is_connected(&g));
        let greedy = complete_min_degree(&g).num_losers();
        let optimal = brute_force_min_losers(&g);
        assert_eq!(optimal, 5);
        assert_eq!(greedy, 7, "gap of two beyond the claimed bound");
        // the exact König strategy recovers the optimum, as always
        let sides: Vec<Side> = (0..12)
            .map(|i| if i < 5 { Side::Left } else { Side::Right })
            .collect();
        assert_eq!(complete_exact(&g, &sides).num_losers(), optimal);
    }

    #[test]
    fn empty_boundary_graph_all_win() {
        let g = Graph::empty(3);
        let c = complete_min_degree(&g);
        assert_eq!(c.num_winners(), 3);
        assert_eq!(c.num_losers(), 0);
        let e = complete_exact(&g, &sides_pattern("LLR"));
        assert_eq!(e.num_losers(), 0);
    }

    #[test]
    fn zero_vertices() {
        let g = Graph::empty(0);
        assert_eq!(complete_min_degree(&g).num_losers(), 0);
        assert_eq!(brute_force_min_losers(&g), 0);
    }

    #[test]
    fn engineer_strategy_produces_independent_winners() {
        let h = paper_example();
        let view = DualIncidence::new(&h, None).unwrap();
        let cut = two_front_bfs(&view, 0, 8);
        let dec = BoundaryDecomposition::new(&view, &cut);
        for strategy in [
            CompletionStrategy::MinDegree,
            CompletionStrategy::EngineerWeighted,
            CompletionStrategy::ExactKonig,
        ] {
            let c = complete(strategy, &view, &dec);
            c.assert_independent(dec.gprime());
            assert_eq!(c.num_winners() + c.num_losers(), dec.boundary_len());
        }
    }

    #[test]
    fn exact_never_worse_than_greedy() {
        let h = paper_example();
        let view = DualIncidence::new(&h, None).unwrap();
        for (a, b) in [(0u32, 8u32), (1, 7), (3, 5)] {
            let cut = two_front_bfs(&view, a, b);
            let dec = BoundaryDecomposition::new(&view, &cut);
            let greedy = complete(CompletionStrategy::MinDegree, &view, &dec);
            let exact = complete(CompletionStrategy::ExactKonig, &view, &dec);
            assert!(exact.num_losers() <= greedy.num_losers());
        }
    }

    #[test]
    fn figure3_style_boundary_graph() {
        // A bipartite boundary graph in the spirit of the paper's Figure 3:
        // winners should be the large independent side.
        // L = {0,1,2} (high degree hubs), R = {3..8} leaves hanging off hubs.
        let g = Graph::from_edges(
            9,
            [
                (0, 3),
                (0, 4),
                (1, 4),
                (1, 5),
                (1, 6),
                (2, 6),
                (2, 7),
                (2, 8),
            ],
        );
        let c = complete_min_degree(&g);
        // leaves (degree ≤ 2) should win; hubs lose
        assert!(c.is_winner(3));
        assert!(c.is_winner(8));
        assert_eq!(c.num_losers(), brute_force_min_losers(&g));
    }

    #[test]
    fn brute_force_min_losers_on_known_graphs() {
        // path of 4: cover {1, 2} → 2 losers
        let path = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        assert_eq!(brute_force_min_losers(&path), 2);
        // star: the center alone covers everything
        let star = Graph::from_edges(5, (1..5).map(|i| (0, i)));
        assert_eq!(brute_force_min_losers(&star), 1);
        // edgeless: everyone wins
        assert_eq!(brute_force_min_losers(&Graph::empty(3)), 0);
    }

    #[test]
    #[should_panic(expected = "brute force limited")]
    fn brute_force_guards_size() {
        let g = Graph::empty(25);
        let _ = brute_force_min_losers(&g);
    }
}
