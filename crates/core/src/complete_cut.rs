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

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use fhp_hypergraph::{Graph, Hypergraph, IntersectionGraph};

use crate::boundary::BoundaryDecomposition;
use crate::matching::{hopcroft_karp, konig_cover};
use crate::Side;

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

/// Runs the selected completion strategy on the boundary decomposition.
///
/// # Examples
///
/// ```
/// use fhp_core::boundary::BoundaryDecomposition;
/// use fhp_core::complete_cut::{complete, CompletionStrategy};
/// use fhp_core::dual_bfs::two_front_bfs;
/// use fhp_hypergraph::{intersection::paper_example, IntersectionGraph};
///
/// let h = paper_example();
/// let ig = IntersectionGraph::build(&h);
/// let cut = two_front_bfs(ig.graph(), 0, 8);
/// let dec = BoundaryDecomposition::new(&h, &ig, &cut);
/// let done = complete(CompletionStrategy::MinDegree, &h, &ig, &dec);
/// assert_eq!(done.num_winners() + done.num_losers(), dec.boundary_len());
/// ```
pub fn complete(
    strategy: CompletionStrategy,
    h: &Hypergraph,
    ig: &IntersectionGraph,
    dec: &BoundaryDecomposition,
) -> Completion {
    let c = match strategy {
        CompletionStrategy::MinDegree => complete_min_degree(dec.gprime()),
        CompletionStrategy::EngineerWeighted => complete_engineer(h, ig, dec),
        CompletionStrategy::ExactKonig => complete_exact(dec.gprime(), dec.sides()),
    };
    c.assert_independent(dec.gprime());
    c
}

/// Reusable buffers for the completion step. Warmed buffers make the
/// default [`CompletionStrategy::MinDegree`] path allocation-free; the
/// `EngineerWeighted` and `ExactKonig` strategies still allocate
/// internally (they are off the paper's hot path) but reuse the result
/// buffer.
#[derive(Clone, Debug, Default)]
pub struct CompletionScratch {
    alive: Vec<bool>,
    deg: Vec<u32>,
    heap_buf: Vec<Reverse<(u32, u32)>>,
    completion: Completion,
}

impl CompletionScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch pre-sized for boundary graphs of up to `n` vertices and
    /// `m` edges (the lazy heap holds at most `n + 2m` entries of 8 bytes:
    /// a `u32` degree and a `u32` vertex id).
    pub fn with_capacity(n: usize, m: usize) -> Self {
        Self {
            alive: Vec::with_capacity(n),
            deg: Vec::with_capacity(n),
            heap_buf: Vec::with_capacity(n + 2 * m),
            completion: Completion {
                winner: Vec::with_capacity(n),
            },
        }
    }

    /// The completion produced by the most recent [`complete_into`].
    pub fn completion(&self) -> &Completion {
        &self.completion
    }

    fn store(&mut self, c: Completion) {
        self.completion.winner.clear();
        self.completion.winner.extend_from_slice(&c.winner);
    }
}

/// [`complete`] writing into a reusable scratch; read the result with
/// [`CompletionScratch::completion`]. Identical output to [`complete`].
pub fn complete_into(
    strategy: CompletionStrategy,
    h: &Hypergraph,
    ig: &IntersectionGraph,
    dec: &BoundaryDecomposition,
    scratch: &mut CompletionScratch,
) {
    match strategy {
        CompletionStrategy::MinDegree => complete_min_degree_into(dec.gprime(), scratch),
        CompletionStrategy::EngineerWeighted => {
            let c = complete_engineer(h, ig, dec);
            scratch.store(c);
        }
        CompletionStrategy::ExactKonig => {
            let c = complete_exact(dec.gprime(), dec.sides());
            scratch.store(c);
        }
    }
    scratch.completion.assert_independent(dec.gprime());
}

/// The paper's Complete-Cut greedy on an arbitrary graph:
///
/// 1. select the minimum-degree remaining vertex and mark it a winner;
/// 2. mark all its remaining neighbours losers;
/// 3. delete the winner and the losers; repeat while vertices remain.
///
/// Implemented with a lazy binary heap keyed on current degree —
/// `O((n + m) log n)`, matching the paper's `O(n log n)` for bounded-degree
/// boundary graphs.
pub fn complete_min_degree(gprime: &Graph) -> Completion {
    let mut scratch = CompletionScratch::new();
    complete_min_degree_into(gprime, &mut scratch);
    scratch.completion
}

/// [`complete_min_degree`] writing into a reusable scratch (which the
/// free function delegates to). The lazy heap is rebuilt from the
/// scratch's retained buffer via `BinaryHeap::from`, so a warm scratch
/// performs no allocation at all.
pub fn complete_min_degree_into(gprime: &Graph, scratch: &mut CompletionScratch) {
    let n = gprime.num_vertices();
    let alive = &mut scratch.alive;
    alive.clear();
    alive.resize(n, true);
    let winner = &mut scratch.completion.winner;
    winner.clear();
    winner.resize(n, false);
    let deg = &mut scratch.deg;
    deg.clear();
    deg.extend((0..n as u32).map(|v| degree_u32(gprime, v))); // fhp-audit: allow(as-cast-truncation) — n is a G-vertex count; ids are u32 by representation
    let mut buf = std::mem::take(&mut scratch.heap_buf);
    buf.clear();
    // fhp-audit: allow(as-cast-truncation) — n is a G-vertex count; ids are u32 by representation
    // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
    buf.extend((0..n as u32).map(|v| Reverse((deg[v as usize], v))));
    let mut heap = BinaryHeap::from(buf);
    while let Some(Reverse((d, v))) = heap.pop() {
        // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
        if !alive[v as usize] || d != deg[v as usize] {
            continue; // stale entry
        }
        winner[v as usize] = true; // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
        alive[v as usize] = false; // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
        for &u in gprime.neighbors(v) {
            // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
            if !alive[u as usize] {
                continue;
            }
            // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
            alive[u as usize] = false; // loser
            for &w in gprime.neighbors(u) {
                // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
                if alive[w as usize] {
                    // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
                    deg[w as usize] -= 1; // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
                    heap.push(Reverse((deg[w as usize], w))); // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
                }
            }
        }
    }
    scratch.heap_buf = heap.into_vec();
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

/// The engineer's-method weighted completion (paper §3):
///
/// > If the left (right) side of the partition has less weight than the
/// > right (left), pick the smallest-degree vertex remaining in `G′_L`
/// > (`G′_R`) as the next winner.
///
/// Side weights start from the partial bipartition's committed modules and
/// grow as each winner pulls its still-unplaced modules to its side.
pub fn complete_engineer(
    h: &Hypergraph,
    ig: &IntersectionGraph,
    dec: &BoundaryDecomposition,
) -> Completion {
    let gprime = dec.gprime();
    let n = gprime.num_vertices();
    let mut alive = vec![true; n];
    let mut winner = vec![false; n];
    let mut deg: Vec<u32> = (0..n as u32).map(|v| degree_u32(gprime, v)).collect(); // fhp-audit: allow(as-cast-truncation) — n is a G-vertex count; ids are u32 by representation
    let mut placed: Vec<Option<Side>> = dec.partial().to_vec();
    let (mut wl, mut wr) = dec.placed_weights(h);
    let mut alive_count = [0usize; 2];
    let mut heaps: [BinaryHeap<Reverse<(u32, u32)>>; 2] = [BinaryHeap::new(), BinaryHeap::new()];
    // fhp-audit: allow(as-cast-truncation) — n is a G-vertex count; ids are u32 by representation
    for b in 0..n as u32 {
        let s = dec.side_of(b);
        heaps[s.index()].push(Reverse((deg[b as usize], b))); // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
        alive_count[s.index()] += 1; // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
    }

    // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
    while alive_count[0] + alive_count[1] > 0 {
        // Prefer the lighter side; fall back if it has no vertices left.
        let prefer = if wl <= wr { Side::Left } else { Side::Right };
        // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
        let side = if alive_count[prefer.index()] > 0 {
            prefer
        } else {
            prefer.opposite()
        };
        let v = loop {
            let Reverse((d, v)) = heaps[side.index()] // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
                .pop()
                .expect("alive_count tracked a vertex"); // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
                                                         // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
            if alive[v as usize] && d == deg[v as usize] {
                break v;
            }
        };
        winner[v as usize] = true; // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
        alive[v as usize] = false; // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
        alive_count[side.index()] -= 1; // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
                                        // Pull the winner's unplaced modules to its side.
        for &p in h.pins(ig.edge_of(dec.g_vertex(v))) {
            // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
            if placed[p.index()].is_none() {
                // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
                placed[p.index()] = Some(side); // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
                match side {
                    Side::Left => wl += h.vertex_weight(p),
                    Side::Right => wr += h.vertex_weight(p),
                }
            }
        }
        for &u in gprime.neighbors(v) {
            // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
            if !alive[u as usize] {
                continue;
            }
            // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
            alive[u as usize] = false; // loser
            alive_count[dec.side_of(u).index()] -= 1; // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
            for &w in gprime.neighbors(u) {
                // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
                if alive[w as usize] {
                    // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
                    deg[w as usize] -= 1; // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
                                          // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
                    heaps[dec.side_of(w).index()].push(Reverse((deg[w as usize], w)));
                }
            }
        }
    }
    Completion { winner }
}

/// Brute-force minimum number of losers (maximum independent set
/// complement) for verification.
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

/// Unplaced-module cleanup shared by the assembly code: true if the vertex
/// `p` has been committed by `placed`.
pub(crate) fn place_winner_pins(
    h: &Hypergraph,
    ig: &IntersectionGraph,
    dec: &BoundaryDecomposition,
    completion: &Completion,
    placed: &mut [Option<Side>],
) {
    // fhp-audit: allow(as-cast-truncation) — n is a G-vertex count; ids are u32 by representation
    for b in 0..dec.boundary_len() as u32 {
        if !completion.is_winner(b) {
            continue;
        }
        let side = dec.side_of(b);
        for &p in h.pins(ig.edge_of(dec.g_vertex(b))) {
            debug_assert!(
                placed[p.index()].is_none() || placed[p.index()] == Some(side), // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
                "winner {b} conflicts at module {p}"
            );
            placed[p.index()] = Some(side); // fhp-audit: allow(panic-site) — G ids are dense u32 minted by the dualizer; arrays sized to n at entry
        }
    }
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
        let ig = IntersectionGraph::build(&h);
        let cut = two_front_bfs(ig.graph(), 0, 8);
        let dec = BoundaryDecomposition::new(&h, &ig, &cut);
        for strategy in [
            CompletionStrategy::MinDegree,
            CompletionStrategy::EngineerWeighted,
            CompletionStrategy::ExactKonig,
        ] {
            let c = complete(strategy, &h, &ig, &dec);
            c.assert_independent(dec.gprime());
            assert_eq!(c.num_winners() + c.num_losers(), dec.boundary_len());
        }
    }

    #[test]
    fn exact_never_worse_than_greedy() {
        let h = paper_example();
        let ig = IntersectionGraph::build(&h);
        for (a, b) in [(0u32, 8u32), (1, 7), (3, 5)] {
            let cut = two_front_bfs(ig.graph(), a, b);
            let dec = BoundaryDecomposition::new(&h, &ig, &cut);
            let greedy = complete(CompletionStrategy::MinDegree, &h, &ig, &dec);
            let exact = complete(CompletionStrategy::ExactKonig, &h, &ig, &dec);
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
    #[should_panic(expected = "brute force limited")]
    fn brute_force_guards_size() {
        let g = Graph::empty(25);
        let _ = brute_force_min_losers(&g);
    }
}
