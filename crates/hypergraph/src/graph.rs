//! Plain undirected graphs in CSR form.
//!
//! The partitioner never works with the input hypergraph directly when
//! cutting: it works with the *intersection graph* (see
//! [`crate::intersection`]) and the bipartite *boundary graph*. Both are
//! ordinary undirected graphs, represented here compactly. Vertices of a
//! [`Graph`] are bare `u32` indices — unlike hypergraph ids they have no
//! domain meaning of their own (the owning structure records what each index
//! stands for).

use crate::BuildGraphError;

/// An immutable undirected graph with `u32` vertices in CSR representation.
///
/// No self-loops, no parallel edges. Construct with [`GraphBuilder`] or
/// [`Graph::from_edges`].
///
/// # Examples
///
/// ```
/// use fhp_hypergraph::Graph;
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
/// assert_eq!(g.num_vertices(), 4);
/// assert_eq!(g.num_edges(), 4);
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// assert_eq!(g.degree(0), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
}

impl Graph {
    /// Builds a graph from an edge list over `n` vertices.
    ///
    /// Self-loops are dropped; duplicate edges (in either orientation) are
    /// collapsed.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges<I>(n: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (u32, u32)>,
    {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// A graph with `n` vertices and no edges.
    pub fn empty(n: usize) -> Self {
        Self {
            offsets: vec![0; n + 1],
            neighbors: Vec::new(),
        }
    }

    /// The graph whose CSR is `offsets` and `neighbors`: vertex `v`'s
    /// neighbours are `neighbors[offsets[v]..offsets[v + 1]]`. Every row
    /// must be strictly ascending, must not hold `v`, and must agree with
    /// the rows it names (`u` in `v`'s row iff `v` in `u`'s).
    pub(crate) fn from_csr(offsets: Vec<usize>, neighbors: Vec<u32>) -> Self {
        debug_assert_eq!(offsets.first(), Some(&0));
        debug_assert_eq!(offsets.last(), Some(&neighbors.len()));
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1])); // fhp-audit: allow(panic-site) — windows(2) yields two-element slices
        let g = Self { offsets, neighbors };
        debug_assert!(g.vertices().all(|v| {
            let row = g.neighbors(v);
            row.windows(2).all(|w| w[0] < w[1]) // fhp-audit: allow(panic-site) — windows(2) yields two-element slices
                && row.iter().all(|&u| u != v && g.has_edge(u, v))
        }));
        g
    }

    /// Makes room for `n` vertices and `m` undirected edges, so a later
    /// [`rebuild_from_pairs`](Self::rebuild_from_pairs) at or below those
    /// sizes allocates nothing. A buffer short of room grows
    /// geometrically, by one allocation; returns how many of the two
    /// grew.
    pub fn reserve(&mut self, n: usize, m: usize) -> usize {
        let mut grown = 0;
        if self.offsets.capacity() < n + 1 {
            self.offsets.reserve(n + 1 - self.offsets.len());
            grown += 1;
        }
        if self.neighbors.capacity() < 2 * m {
            self.neighbors.reserve(2 * m - self.neighbors.len());
            grown += 1;
        }
        grown
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of (undirected) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Neighbors of `v`, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.neighbors[self.offsets[v as usize]..self.offsets[v as usize + 1]] // fhp-audit: allow(panic-site) — CSR invariant: offsets/adjacency validated by GraphBuilder before construction
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize] // fhp-audit: allow(panic-site) — CSR invariant: offsets/adjacency validated by GraphBuilder before construction
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices() as u32) // fhp-audit: allow(as-cast-truncation) — vertex count fits u32 by the VertexId representation
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// True if `u` and `v` are adjacent (binary search on `u`'s list).
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over vertex indices `0..num_vertices()`.
    pub fn vertices(&self) -> impl ExactSizeIterator<Item = u32> {
        0..self.num_vertices() as u32 // fhp-audit: allow(as-cast-truncation) — vertex count fits u32 by the VertexId representation
    }

    /// Iterator over each undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Rebuilds this graph in place from a raw pair list, reusing the
    /// existing CSR buffers (and the caller's `pairs` and `cursor`
    /// scratch). Semantics match [`Graph::from_edges`]: self-loops are
    /// dropped, duplicates (in either orientation) collapse, neighbor
    /// lists come out sorted ascending. `pairs` is consumed as workspace
    /// (normalized, sorted, deduplicated) but keeps its capacity, so a
    /// warm caller allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    pub fn rebuild_from_pairs(
        &mut self,
        n: usize,
        pairs: &mut Vec<(u32, u32)>,
        cursor: &mut Vec<usize>,
    ) {
        pairs.retain_mut(|p| {
            let (u, v) = *p;
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u}, {v}) out of range for {n} vertices"
            );
            if u == v {
                return false;
            }
            if u > v {
                *p = (v, u);
            }
            true
        });
        pairs.sort_unstable();
        pairs.dedup();
        self.fill(n, pairs, cursor);
    }

    /// Writes the CSR form of the `n`-vertex graph whose edges are
    /// `pairs` into this graph's buffers; `cursor` is scratch. `pairs`
    /// must be strictly ascending with `u < v < n` for every `(u, v)`.
    ///
    /// `offsets` is sized to exactly `n + 1` entries, and neither buffer
    /// reallocates when it already has the room.
    fn fill(&mut self, n: usize, pairs: &[(u32, u32)], cursor: &mut Vec<usize>) {
        debug_assert!(pairs.windows(2).all(|w| w[0] < w[1])); // fhp-audit: allow(panic-site) — windows(2) yields two-element slices
        debug_assert!(pairs.iter().all(|&(u, v)| u < v && (v as usize) < n));
        // Degree count into `cursor`, then prefix-sum it into `offsets`,
        // leaving each vertex's first slot in `cursor`.
        cursor.clear();
        cursor.resize(n, 0);
        for &(u, v) in pairs {
            cursor[u as usize] += 1; // fhp-audit: allow(panic-site) — fill's contract: every endpoint is < n
            cursor[v as usize] += 1; // fhp-audit: allow(panic-site) — fill's contract: every endpoint is < n
        }
        self.offsets.clear();
        self.offsets.reserve_exact(n + 1);
        self.offsets.push(0);
        let mut acc = 0usize;
        for slot in cursor.iter_mut() {
            let first = acc;
            acc += *slot;
            *slot = first;
            self.offsets.push(acc);
        }
        self.neighbors.clear();
        self.neighbors.resize(acc, 0);
        // Lower neighbors first: the pairs are sorted, so each v receives
        // its lower neighbors u ascending, and each u then its higher
        // neighbors v ascending. Every lower neighbor precedes every
        // higher one, so each list comes out sorted.
        for &(u, v) in pairs {
            self.neighbors[cursor[v as usize]] = u; // fhp-audit: allow(panic-site) — each vertex's cursor stays inside its own offsets range
            cursor[v as usize] += 1; // fhp-audit: allow(panic-site) — fill's contract: every endpoint is < n
        }
        for &(u, v) in pairs {
            self.neighbors[cursor[u as usize]] = v; // fhp-audit: allow(panic-site) — each vertex's cursor stays inside its own offsets range
            cursor[u as usize] += 1; // fhp-audit: allow(panic-site) — fill's contract: every endpoint is < n
        }
    }
}

/// Builder accumulating an edge list before CSR finalization.
///
/// # Examples
///
/// ```
/// use fhp_hypergraph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(1, 0); // duplicate, collapsed
/// b.add_edge(2, 2); // self-loop, dropped
/// let g = b.build();
/// assert_eq!(g.num_edges(), 1);
/// assert_eq!(g.degree(2), 0);
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph over `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            edges: Vec::new(),
        }
    }

    /// Records an undirected edge. Self-loops are silently dropped.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn add_edge(&mut self, u: u32, v: u32) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u}, {v}) out of range for {} vertices",
            self.n
        );
        if u == v {
            return;
        }
        self.edges.push(if u < v { (u, v) } else { (v, u) });
    }

    /// Number of edge records so far (before dedup).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True if no edges were recorded.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Finalizes the CSR structure, deduplicating parallel edges.
    ///
    /// Returns [`BuildGraphError::TooManyVertices`] if the declared vertex
    /// count cannot be addressed by `u32` indices (the silent-truncation
    /// path `build` used to hit in `vertices()`).
    pub fn try_build(mut self) -> Result<Graph, BuildGraphError> {
        if self.n > u32::MAX as usize {
            return Err(BuildGraphError::TooManyVertices { found: self.n });
        }
        let mut g = Graph::empty(0);
        g.rebuild_from_pairs(self.n, &mut self.edges, &mut Vec::new());
        Ok(g)
    }

    /// Finalizes the CSR structure, deduplicating parallel edges.
    ///
    /// # Panics
    ///
    /// Panics if the vertex count overflows `u32` addressing; use
    /// [`GraphBuilder::try_build`] to handle that case as an error.
    pub fn build(self) -> Graph {
        self.try_build().expect("graph vertex count overflows u32") // fhp-audit: allow(panic-site) — CSR invariant: offsets/adjacency validated by GraphBuilder before construction
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_graph() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(3), &[2]);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn neighbors_sorted_even_with_shuffled_input() {
        let g = Graph::from_edges(5, [(4, 2), (2, 0), (2, 3), (1, 2)]);
        assert_eq!(g.neighbors(2), &[0, 1, 3, 4]);
    }

    #[test]
    fn dedup_and_self_loops() {
        let g = Graph::from_edges(3, [(0, 1), (1, 0), (0, 1), (2, 2)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(2), 0);
        assert!(!g.has_edge(2, 2));
    }

    #[test]
    fn has_edge_symmetric() {
        let g = Graph::from_edges(3, [(0, 2)]);
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 1));
    }

    #[test]
    fn edges_iterates_each_once() {
        let g = Graph::from_edges(4, [(0, 1), (2, 1), (3, 2)]);
        let es: Vec<_> = g.edges().collect();
        assert_eq!(es, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(3);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        let g0 = Graph::empty(0);
        assert_eq!(g0.num_vertices(), 0);
        assert_eq!(g0.max_degree(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2);
    }

    #[test]
    fn rebuild_from_pairs_matches_from_edges() {
        let cases: Vec<(usize, Vec<(u32, u32)>)> = vec![
            (4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]),
            (5, vec![(4, 2), (2, 0), (2, 3), (1, 2), (2, 4), (2, 2)]),
            (3, vec![]),
            (6, vec![(5, 0), (0, 5), (1, 1), (3, 4)]),
        ];
        let mut g = Graph::empty(0);
        let mut pairs = Vec::new();
        let mut cursor = Vec::new();
        for (n, edges) in cases {
            pairs.clear();
            pairs.extend_from_slice(&edges);
            g.rebuild_from_pairs(n, &mut pairs, &mut cursor);
            assert_eq!(g, Graph::from_edges(n, edges));
        }
    }

    #[test]
    fn try_build_accepts_normal_sizes() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        assert_eq!(b.try_build().unwrap().num_edges(), 1);
    }

    #[test]
    fn builder_len() {
        let mut b = GraphBuilder::new(3);
        assert!(b.is_empty());
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        assert_eq!(b.len(), 2); // dedup happens at build
        assert_eq!(b.build().num_edges(), 1);
    }
}
