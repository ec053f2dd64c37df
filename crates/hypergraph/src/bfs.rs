//! Breadth-first-search primitives on [`Graph`].
//!
//! Algorithm I never computes a true graph diameter — the fastest known
//! exact methods cost `O(nm)` — it uses *longest BFS paths* instead: BFS
//! from a random vertex reaches depth `diam(G) − O(1)` with probability near
//! 1 on connected bounded-degree random graphs (paper §3). This module
//! provides the level structures, the double-sweep pseudo-diameter used by
//! the partitioner, and exact all-pairs diameters for verification at small
//! scale.

use crate::Graph;

/// Distance label for vertices not reached by a search.
pub const UNREACHED: u32 = u32::MAX;

/// The level structure produced by one breadth-first search.
///
/// # Examples
///
/// ```
/// use fhp_hypergraph::{bfs, Graph};
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
/// let levels = bfs::bfs(&g, 0);
/// assert_eq!(levels.dist(3), Some(3));
/// assert_eq!(levels.depth(), 3);
/// assert_eq!(levels.farthest(), 3);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BfsLevels {
    source: u32,
    dist: Vec<u32>,
    /// Vertices in visit order (a valid BFS ordering).
    order: Vec<u32>,
    depth: u32,
    farthest: u32,
}

impl BfsLevels {
    /// An empty level structure to be filled by [`bfs_into`]. Holds no
    /// allocations until first use.
    pub fn empty() -> Self {
        Self {
            source: 0,
            dist: Vec::new(),
            order: Vec::new(),
            depth: 0,
            farthest: 0,
        }
    }

    /// An empty level structure whose buffers are pre-sized for graphs of
    /// up to `n` vertices, so later [`bfs_into`] calls on such graphs
    /// allocate nothing.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            source: 0,
            dist: Vec::with_capacity(n),
            order: Vec::with_capacity(n),
            depth: 0,
            farthest: 0,
        }
    }

    /// The search's source vertex.
    pub fn source(&self) -> u32 {
        self.source
    }

    /// Distance from the source to `v`, or `None` if unreachable.
    pub fn dist(&self, v: u32) -> Option<u32> {
        let d = self.dist[v as usize]; // fhp-audit: allow(panic-site) — visited/frontier buffers sized to the graph at entry
        (d != UNREACHED).then_some(d)
    }

    /// Raw distance array (`UNREACHED` for unreachable vertices).
    pub fn raw_dist(&self) -> &[u32] {
        &self.dist
    }

    /// Vertices reachable from the source, in BFS visit order (source first).
    pub fn visit_order(&self) -> &[u32] {
        &self.order
    }

    /// Depth of the search: the largest finite distance (the source's
    /// eccentricity within its component).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// The deepest level in visit order: the tail of
    /// [`visit_order`](Self::visit_order) at distance
    /// [`depth`](Self::depth) (the source alone when nothing else was
    /// reached). Distances never decrease along the visit order, so the
    /// level's first vertex is found by binary search.
    pub fn deepest_level(&self) -> &[u32] {
        let first = self
            .order
            .partition_point(|&v| self.dist[v as usize] < self.depth); // fhp-audit: allow(panic-site) — visited/frontier buffers sized to the graph at entry
        &self.order[first..] // fhp-audit: allow(panic-site) — partition_point returns at most the order's length
    }

    /// A vertex at maximum distance from the source. The *last visited*
    /// deepest vertex is returned, which for the partitioner's purposes is
    /// an arbitrary deterministic representative.
    pub fn farthest(&self) -> u32 {
        self.farthest
    }

    /// Number of vertices reached (including the source).
    pub fn num_reached(&self) -> usize {
        self.order.len()
    }
}

/// Runs BFS from `source`.
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn bfs(g: &Graph, source: u32) -> BfsLevels {
    let mut levels = BfsLevels::empty();
    bfs_into(g, source, &mut levels);
    levels
}

/// Runs BFS from `source`, reusing `levels`' buffers. Once the buffers
/// have grown to the graph's vertex count, repeated calls allocate
/// nothing — this is the hot-loop entry point for the multi-start
/// engine's scratch arenas. `levels` is fully reset on entry, so its
/// prior contents (even from a panicked earlier search) never leak
/// through.
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn bfs_into(g: &Graph, source: u32, levels: &mut BfsLevels) {
    assert!(
        (source as usize) < g.num_vertices(),
        "bfs source {source} out of range"
    );
    levels.source = source;
    levels.dist.clear();
    levels.dist.resize(g.num_vertices(), UNREACHED);
    levels.order.clear();
    levels.depth = 0;
    levels.farthest = source;
    let dist = &mut levels.dist;
    let order = &mut levels.order;
    dist[source as usize] = 0; // fhp-audit: allow(panic-site) — visited/frontier buffers sized to the graph at entry
    order.push(source);
    let mut head = 0usize;
    while head < order.len() {
        let v = order[head]; // fhp-audit: allow(panic-site) — visited/frontier buffers sized to the graph at entry
        head += 1;
        let dv = dist[v as usize]; // fhp-audit: allow(panic-site) — visited/frontier buffers sized to the graph at entry
        for &u in g.neighbors(v) {
            // fhp-audit: allow(panic-site) — visited/frontier buffers sized to the graph at entry
            if dist[u as usize] == UNREACHED {
                // fhp-audit: allow(panic-site) — visited/frontier buffers sized to the graph at entry
                dist[u as usize] = dv + 1; // fhp-audit: allow(panic-site) — visited/frontier buffers sized to the graph at entry
                if dv + 1 >= levels.depth {
                    levels.depth = dv + 1;
                    levels.farthest = u;
                }
                order.push(u);
            }
        }
    }
}

/// Result of a double-sweep pseudo-diameter search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DoubleSweep {
    /// First endpoint (the farthest vertex found from the seed).
    pub u: u32,
    /// Second endpoint (the farthest vertex found from `u`).
    pub v: u32,
    /// `dist(u, v)` — a lower bound on the component's diameter.
    pub length: u32,
}

/// Double-sweep heuristic: BFS from `seed` to find `u`, then BFS from `u`
/// to find `v`. `dist(u, v)` lower-bounds the diameter of `seed`'s
/// component and is exact on trees.
///
/// # Panics
///
/// Panics if `seed` is out of range.
///
/// # Examples
///
/// ```
/// use fhp_hypergraph::{bfs, Graph};
///
/// let path = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
/// let ds = bfs::double_sweep(&path, 2);
/// assert_eq!(ds.length, 4);
/// ```
pub fn double_sweep(g: &Graph, seed: u32) -> DoubleSweep {
    let first = bfs(g, seed);
    let u = first.farthest();
    let second = bfs(g, u);
    DoubleSweep {
        u,
        v: second.farthest(),
        length: second.depth(),
    }
}

/// True if the graph is connected (the empty graph counts as connected).
pub fn is_connected(g: &Graph) -> bool {
    g.num_vertices() == 0 || bfs(g, 0).num_reached() == g.num_vertices()
}

/// Exact diameter by all-pairs BFS: `O(n·m)`.
///
/// Returns `None` for a graph that is empty or disconnected (the diameter
/// is undefined/infinite there). Intended for verification experiments and
/// tests, not for the partitioning hot path.
pub fn exact_diameter(g: &Graph) -> Option<u32> {
    if g.num_vertices() == 0 || !is_connected(g) {
        return None;
    }
    Some(
        g.vertices()
            .map(|v| bfs(g, v).depth())
            .max()
            .expect("nonempty"), // fhp-audit: allow(panic-site) — visited/frontier buffers sized to the graph at entry
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> Graph {
        Graph::from_edges(n, (0..n as u32).map(|i| (i, ((i + 1) % n as u32))))
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let l = bfs(&g, 1);
        assert_eq!(l.dist(0), Some(1));
        assert_eq!(l.dist(1), Some(0));
        assert_eq!(l.dist(3), Some(2));
        assert_eq!(l.depth(), 2);
        assert_eq!(l.farthest(), 3);
        assert_eq!(l.num_reached(), 4);
        assert_eq!(l.source(), 1);
    }

    #[test]
    fn bfs_unreachable() {
        let g = Graph::from_edges(4, [(0, 1)]); // 2, 3 isolated
        let l = bfs(&g, 0);
        assert_eq!(l.dist(2), None);
        assert_eq!(l.num_reached(), 2);
        assert_eq!(l.raw_dist()[3], UNREACHED);
    }

    #[test]
    fn bfs_visit_order_is_valid() {
        let g = cycle(6);
        let l = bfs(&g, 0);
        // distances along visit order are non-decreasing
        let ds: Vec<_> = l
            .visit_order()
            .iter()
            .map(|&v| l.dist(v).unwrap())
            .collect();
        assert!(ds.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(l.visit_order()[0], 0);
    }

    #[test]
    fn deepest_level_is_the_visit_order_filtered_to_the_depth() {
        let g1 = cycle(7);
        let g2 = Graph::from_edges(6, [(0, 1), (0, 2), (0, 3), (3, 4)]); // 5 isolated
        for (g, src) in [(&g1, 0u32), (&g1, 3), (&g2, 0), (&g2, 1), (&g2, 5)] {
            let l = bfs(g, src);
            let filtered: Vec<u32> = l
                .visit_order()
                .iter()
                .copied()
                .filter(|&v| l.dist(v) == Some(l.depth()))
                .collect();
            assert_eq!(l.deepest_level(), filtered, "source {src}");
        }
        assert_eq!(bfs(&g2, 5).deepest_level(), [5]);
    }

    #[test]
    fn double_sweep_on_path_finds_true_diameter() {
        let g = Graph::from_edges(7, (0..6).map(|i| (i, i + 1)));
        for seed in 0..7 {
            let ds = double_sweep(&g, seed);
            assert_eq!(ds.length, 6, "seed {seed}");
            assert!(ds.u == 0 || ds.u == 6);
            assert!(ds.v == 0 || ds.v == 6);
            assert_ne!(ds.u, ds.v);
        }
    }

    #[test]
    fn double_sweep_lower_bounds_diameter() {
        let g = cycle(9);
        let ds = double_sweep(&g, 3);
        assert!(ds.length <= exact_diameter(&g).unwrap());
        assert!(ds.length >= 1);
    }

    #[test]
    fn exact_diameter_cycle() {
        assert_eq!(exact_diameter(&cycle(8)), Some(4));
        assert_eq!(exact_diameter(&cycle(9)), Some(4));
    }

    #[test]
    fn exact_diameter_disconnected_is_none() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        assert_eq!(exact_diameter(&g), None);
        assert_eq!(exact_diameter(&Graph::empty(0)), None);
    }

    #[test]
    fn components() {
        let g = Graph::from_edges(5, [(0, 1), (2, 3)]);
        assert!(!is_connected(&g));
        assert!(is_connected(&cycle(5)));
        assert!(is_connected(&Graph::empty(0)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bfs_bad_source_panics() {
        let g = Graph::empty(1);
        let _ = bfs(&g, 1);
    }

    #[test]
    fn bfs_into_reuse_matches_fresh_runs() {
        let g1 = cycle(6);
        let g2 = Graph::from_edges(3, [(0, 1)]);
        let mut scratch = BfsLevels::with_capacity(6);
        for (g, src) in [(&g1, 4u32), (&g2, 0), (&g1, 0), (&g2, 2)] {
            bfs_into(g, src, &mut scratch);
            assert_eq!(scratch, bfs(g, src), "source {src}");
        }
    }

    #[test]
    fn single_vertex() {
        let g = Graph::empty(1);
        let l = bfs(&g, 0);
        assert_eq!(l.depth(), 0);
        assert_eq!(l.farthest(), 0);
        assert_eq!(exact_diameter(&g), Some(0));
    }
}
