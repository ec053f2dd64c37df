//! Cluster contraction — collapsing vertex groups into coarse vertices.
//!
//! Contraction is the workhorse of clustering-based partitioning flows:
//! groups of modules are merged into super-modules (weights add), each
//! signal is re-pinned onto the clusters it touches, signals falling
//! inside one cluster disappear, and *identical* coarse signals merge
//! with summed weight. [`Contraction::project`] expands a coarse
//! partition back to the original modules.
//!
//! [`heavy_pair_clustering`] provides a simple deterministic clustering
//! (greedy matching on co-signal affinity) to drive it.

use crate::incremental::mix64;
use crate::{Hypergraph, HypergraphBuilder, VertexId};

/// A contracted hypergraph plus the fine↔coarse correspondence.
///
/// # Examples
///
/// ```
/// use fhp_hypergraph::contract::Contraction;
/// use fhp_hypergraph::intersection::paper_example;
///
/// let h = paper_example();
/// // pair up modules (0,1), (2,3), … into 6 clusters
/// let cluster_of: Vec<u32> = (0..12).map(|i| (i / 2) as u32).collect();
/// let c = Contraction::contract(&h, &cluster_of);
/// assert_eq!(c.coarse().num_vertices(), 6);
/// assert!(c.coarse().num_edges() <= h.num_edges());
/// ```
#[derive(Clone, Debug)]
pub struct Contraction {
    coarse: Hypergraph,
    cluster_of: Vec<u32>,
}

impl Contraction {
    /// Contracts `h` according to `cluster_of` (fine vertex → cluster id).
    /// Cluster ids must be dense: every id in `0..max+1` must occur.
    ///
    /// # Panics
    ///
    /// Panics if `cluster_of` does not cover `h`'s vertices or its ids are
    /// not dense. [`try_contract`](Self::try_contract) is the typed-error
    /// equivalent.
    pub fn contract(h: &Hypergraph, cluster_of: &[u32]) -> Self {
        match Self::try_contract(h, cluster_of) {
            Ok(c) => c,
            // fhp-audit: allow(panic-site) — documented panicking facade over try_contract
            Err(e) => panic!("{e}"),
        }
    }

    /// Contracts `h` according to `cluster_of` (fine vertex → cluster id),
    /// reporting malformed cluster maps as typed errors instead of
    /// panicking — the entry point library callers (the multilevel
    /// V-cycle engine) use.
    ///
    /// # Errors
    ///
    /// [`ContractError::ClusterMapLength`] if `cluster_of` does not cover
    /// `h`'s vertices, [`ContractError::SparseClusterIds`] if the ids are
    /// not dense, [`ContractError::Build`] if a coarse edge is rejected by
    /// the hypergraph builder.
    pub fn try_contract(h: &Hypergraph, cluster_of: &[u32]) -> Result<Self, ContractError> {
        if cluster_of.len() != h.num_vertices() {
            return Err(ContractError::ClusterMapLength {
                expected: h.num_vertices(),
                found: cluster_of.len(),
            });
        }
        let k = cluster_of
            .iter()
            .copied()
            .max()
            .map_or(0, |m| m as usize + 1);
        let mut seen = vec![false; k];
        for &c in cluster_of {
            if let Some(slot) = seen.get_mut(c as usize) {
                *slot = true;
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(ContractError::SparseClusterIds {
                missing: missing as u32, // fhp-audit: allow(as-cast-truncation) — missing-pin count bounded by the pin count, which fits u32
            });
        }

        let mut b = HypergraphBuilder::new();
        let mut weights = vec![0u64; k];
        for v in h.vertices() {
            weights[cluster_of[v.index()] as usize] += h.vertex_weight(v); // fhp-audit: allow(panic-site) — coarse ids minted densely by the contraction map; in-range by construction
        }
        for w in weights {
            b.add_weighted_vertex(w);
        }

        // Re-pin edges and merge identical coarse pin sets; coarse edges
        // come out in the order their pin sets first appeared.
        let mut sets = PinSets::with_capacity(h.num_edges(), h.num_pins());
        for e in h.edges() {
            sets.add(
                h.pins(e)
                    .iter()
                    .map(|p| VertexId::new(cluster_of[p.index()] as usize)), // fhp-audit: allow(panic-site) — coarse ids minted densely by the contraction map; in-range by construction
                h.edge_weight(e),
            );
        }
        for (pins, weight) in sets.iter() {
            b.add_weighted_edge(pins.iter().copied(), weight)
                .map_err(|error| ContractError::Build { error })?;
        }

        Ok(Self {
            coarse: b.build(),
            cluster_of: cluster_of.to_vec(),
        })
    }

    /// The contracted hypergraph.
    pub fn coarse(&self) -> &Hypergraph {
        &self.coarse
    }

    /// Cluster of fine vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn cluster_of(&self, v: VertexId) -> u32 {
        self.cluster_of[v.index()] // fhp-audit: allow(panic-site) — coarse ids minted densely by the contraction map; in-range by construction
    }

    /// Number of fine vertices.
    pub fn fine_len(&self) -> usize {
        self.cluster_of.len()
    }

    /// The explicit projection map: entry `v` is the coarse vertex (the
    /// cluster id) fine vertex `v` was merged into. This is the object
    /// [`project`](Self::project) walks; exposing it lets verifiers and
    /// golden tests pin the exact coarsening decisions.
    pub fn projection_map(&self) -> &[u32] {
        &self.cluster_of
    }

    /// Expands a per-coarse-vertex labelling to the fine vertices.
    ///
    /// The label type is generic so both bipartitions (`Side`) and k-way
    /// labellings (`u32`) project with the same call.
    ///
    /// # Panics
    ///
    /// Panics if `coarse_labels` does not cover the coarse vertices.
    pub fn project<L: Copy>(&self, coarse_labels: &[L]) -> Vec<L> {
        assert_eq!(
            coarse_labels.len(),
            self.coarse.num_vertices(),
            "coarse labelling mismatch"
        );
        self.cluster_of
            .iter()
            .map(|&c| coarse_labels[c as usize]) // fhp-audit: allow(panic-site) — coarse ids minted densely by the contraction map; in-range by construction
            .collect()
    }
}

/// The distinct coarse pin sets of a contraction in the order they first
/// appeared, each with its summed weight: the sets back to back in one
/// buffer, found again through an open-addressing index on their hashes
/// and a slice compare.
struct PinSets {
    /// Set `i` is `pins[offsets[i]..offsets[i + 1]]`, sorted and
    /// deduplicated.
    pins: Vec<VertexId>,
    offsets: Vec<usize>,
    weights: Vec<u64>,
    hashes: Vec<u64>,
    /// Per slot, the index of a set whose hash probes there, or
    /// [`NO_SET`]; a power of two at least twice the sets it can hold.
    slots: Vec<u32>,
    /// The set being added, mapped, sorted and deduplicated.
    scratch: Vec<VertexId>,
}

/// A [`PinSets`] slot holding no set.
const NO_SET: u32 = u32::MAX;

impl PinSets {
    /// Room for up to `sets` sets of `pins` pins in all.
    fn with_capacity(sets: usize, pins: usize) -> Self {
        let mut offsets = Vec::with_capacity(sets + 1);
        offsets.push(0);
        Self {
            pins: Vec::with_capacity(pins),
            offsets,
            weights: Vec::with_capacity(sets),
            hashes: Vec::with_capacity(sets),
            slots: vec![NO_SET; (2 * sets).next_power_of_two()],
            scratch: Vec::new(),
        }
    }

    /// Adds `weight` to the set of `pins`, appending the set if no earlier
    /// one equals it. A set of fewer than two pins is dropped: its net
    /// lies inside one cluster.
    fn add(&mut self, pins: impl IntoIterator<Item = VertexId>, weight: u64) {
        self.scratch.clear();
        self.scratch.extend(pins);
        self.scratch.sort_unstable();
        self.scratch.dedup();
        if self.scratch.len() < 2 {
            return;
        }
        let hash = self
            .scratch
            .iter()
            .fold(0, |acc, p| mix64(acc ^ u64::from(p.raw())));
        let mask = self.slots.len() - 1;
        // fhp-audit: allow(as-cast-truncation) — only the hash's low bits pick a slot
        let mut slot = hash as usize & mask;
        loop {
            let Some(entry) = self.slots.get_mut(slot) else {
                return; // unreachable: the mask keeps every slot in range
            };
            if *entry == NO_SET {
                // fhp-audit: allow(as-cast-truncation) — the sets are at most the fine edges, which EdgeId numbers in u32
                *entry = self.weights.len() as u32;
                self.pins.extend_from_slice(&self.scratch);
                self.offsets.push(self.pins.len());
                self.weights.push(weight);
                self.hashes.push(hash);
                return;
            }
            let i = *entry as usize;
            if self.hashes.get(i) == Some(&hash) && self.set(i) == self.scratch.as_slice() {
                if let Some(w) = self.weights.get_mut(i) {
                    *w += weight;
                }
                return;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Set `i`'s pins.
    fn set(&self, i: usize) -> &[VertexId] {
        match (self.offsets.get(i), self.offsets.get(i + 1)) {
            (Some(&start), Some(&end)) => self.pins.get(start..end).unwrap_or_default(),
            _ => &[],
        }
    }

    /// Every set with its summed weight, in order of first appearance.
    fn iter(&self) -> impl Iterator<Item = (&[VertexId], u64)> + '_ {
        self.weights
            .iter()
            .enumerate()
            .map(|(i, &w)| (self.set(i), w))
    }
}

/// Greedy affinity matching: pairs each unclustered module with the
/// neighbour it shares the most signal weight with (rating each shared
/// signal `w(e) / (|e| − 1)`, the standard heavy-edge rating), subject to
/// `max_cluster_weight`. Unmatched modules become singleton clusters.
/// Deterministic: vertices are visited in id order, and rating ties break
/// to the lowest vertex id.
///
/// Returns a dense cluster map suitable for [`Contraction::contract`].
///
/// # Examples
///
/// ```
/// use fhp_hypergraph::contract::{heavy_pair_clustering, Contraction};
/// use fhp_hypergraph::intersection::paper_example;
///
/// let h = paper_example();
/// let clusters = heavy_pair_clustering(&h, 4);
/// let c = Contraction::contract(&h, &clusters);
/// assert!(c.coarse().num_vertices() <= h.num_vertices());
/// assert!(c.coarse().num_vertices() >= h.num_vertices() / 2);
/// ```
pub fn heavy_pair_clustering(h: &Hypergraph, max_cluster_weight: u64) -> Vec<u32> {
    pair_clustering(h, max_cluster_weight, &|_, _| true)
}

/// [`heavy_pair_clustering`] restricted to pairs within one group: `v`
/// and `u` may merge only when `group_of[v] == group_of[u]`. With the
/// groups set to a bipartition's sides this is *partition-respecting*
/// coarsening — projecting any partition of the coarse hypergraph that
/// assigns each cluster its group's side reproduces the fine partition's
/// cut exactly, which is what lets later V-cycles re-coarsen without
/// losing the incumbent solution.
///
/// `group_of` entries beyond `h`'s vertices are ignored; vertices without
/// an entry never pair.
pub fn heavy_pair_clustering_within(
    h: &Hypergraph,
    max_cluster_weight: u64,
    group_of: &[u32],
) -> Vec<u32> {
    pair_clustering(h, max_cluster_weight, &|v, u| match (
        group_of.get(v.index()),
        group_of.get(u.index()),
    ) {
        (Some(a), Some(b)) => a == b,
        _ => false,
    })
}

/// The shared greedy-matching loop behind both clustering fronts.
///
/// A vertex's candidate partners are rated in a dense array indexed by
/// vertex id and listed in the order of their first rating. `None` marks
/// a vertex not yet rated, since a zero-weight net rates its pins 0.
/// Each rating is summed in edge-then-pin order, so the max-rating,
/// lowest-id winner is the same, bit for bit, as with any other map from
/// partner to summed rating.
fn pair_clustering(
    h: &Hypergraph,
    max_cluster_weight: u64,
    can_pair: &dyn Fn(VertexId, VertexId) -> bool,
) -> Vec<u32> {
    const UNMATCHED: u32 = u32::MAX;
    let mut cluster_of = vec![UNMATCHED; h.num_vertices()];
    let mut next = 0u32;
    let mut affinity: Vec<Option<f64>> = vec![None; h.num_vertices()];
    let mut rated: Vec<VertexId> = Vec::new();
    for v in h.vertices() {
        // fhp-audit: allow(panic-site) — coarse ids minted densely by the contraction map; in-range by construction
        if cluster_of[v.index()] != UNMATCHED {
            continue;
        }
        for &e in h.edges_of(v) {
            let size = h.edge_size(e);
            if size < 2 {
                continue;
            }
            let rating = h.edge_weight(e) as f64 / (size - 1) as f64;
            for &u in h.pins(e) {
                // fhp-audit: allow(panic-site) — coarse ids minted densely by the contraction map; in-range by construction
                if u != v && cluster_of[u.index()] == UNMATCHED && can_pair(v, u) {
                    if let Some(slot) = affinity.get_mut(u.index()) {
                        if slot.is_none() {
                            rated.push(u);
                        }
                        *slot.get_or_insert(0.0) += rating;
                    }
                }
            }
        }
        let mut partner: Option<(VertexId, f64)> = None;
        for u in rated.drain(..) {
            let Some(a) = affinity.get_mut(u.index()).and_then(Option::take) else {
                continue;
            };
            if h.vertex_weight(u) + h.vertex_weight(v) > max_cluster_weight {
                continue;
            }
            // fhp-audit: allow(float-in-ordering) — ratings are sums accumulated in pin order; bitwise deterministic
            if partner.is_none_or(|(best, r)| a.total_cmp(&r).then(best.cmp(&u)).is_gt()) {
                partner = Some((u, a)); // deterministic tie-break: lowest id
            }
        }
        cluster_of[v.index()] = next; // fhp-audit: allow(panic-site) — coarse ids minted densely by the contraction map; in-range by construction
        if let Some((u, _)) = partner {
            cluster_of[u.index()] = next; // fhp-audit: allow(panic-site) — coarse ids minted densely by the contraction map; in-range by construction
        }
        next += 1;
    }
    cluster_of
}

/// Why [`Contraction::try_contract`] rejected a cluster map.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ContractError {
    /// The cluster map's length disagrees with the vertex count.
    ClusterMapLength {
        /// Vertices of the fine hypergraph.
        expected: usize,
        /// Entries in the cluster map.
        found: usize,
    },
    /// A cluster id in `0..max+1` never occurs, so the ids are not dense.
    SparseClusterIds {
        /// The first missing cluster id.
        missing: u32,
    },
    /// The coarse hypergraph builder rejected a contracted edge.
    Build {
        /// The underlying builder error.
        error: crate::BuildHypergraphError,
    },
}

impl std::fmt::Display for ContractError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ClusterMapLength { expected, found } => write!(
                f,
                "cluster map mismatch: {found} entries for {expected} vertices"
            ),
            Self::SparseClusterIds { missing } => {
                write!(f, "cluster ids must be dense: id {missing} never occurs")
            }
            Self::Build { error } => write!(f, "contracted edge rejected: {error}"),
        }
    }
}

impl std::error::Error for ContractError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Build { error } => Some(error),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intersection::paper_example;
    use crate::EdgeId;

    #[test]
    fn contraction_preserves_weight() {
        let h = paper_example();
        let clusters: Vec<u32> = (0..12).map(|i| (i / 3) as u32).collect();
        let c = Contraction::contract(&h, &clusters);
        assert_eq!(c.coarse().total_vertex_weight(), h.total_vertex_weight());
        assert_eq!(c.coarse().num_vertices(), 4);
        assert_eq!(c.fine_len(), 12);
    }

    #[test]
    fn internal_edges_vanish() {
        let h = paper_example();
        // everything in one cluster except module 12 (index 11)
        let clusters: Vec<u32> = (0..12).map(|i| u32::from(i == 11)).collect();
        let c = Contraction::contract(&h, &clusters);
        // only signal c = {1,3,4,12} touches module 12; it survives as
        // the one coarse edge {c0, c1}, keeping its weight
        assert_eq!(c.coarse().num_edges(), 1);
        let e = EdgeId::new(0);
        assert_eq!(c.coarse().pins(e), [VertexId::new(0), VertexId::new(1)]);
        assert_eq!(c.coarse().edge_weight(e), h.edge_weight(EdgeId::new(2)));
    }

    #[test]
    fn parallel_coarse_edges_merge_with_summed_weight() {
        let mut b = HypergraphBuilder::with_vertices(4);
        b.add_weighted_edge([VertexId::new(0), VertexId::new(2)], 2)
            .unwrap();
        b.add_weighted_edge([VertexId::new(1), VertexId::new(3)], 3)
            .unwrap();
        let h = b.build();
        // clusters {0,1} and {2,3}: both edges become {c0, c1}
        let c = Contraction::contract(&h, &[0, 0, 1, 1]);
        assert_eq!(c.coarse().num_edges(), 1);
        let e = EdgeId::new(0);
        assert_eq!(c.coarse().pins(e), [VertexId::new(0), VertexId::new(1)]);
        assert_eq!(c.coarse().edge_weight(e), 5);
    }

    #[test]
    fn merged_coarse_edges_keep_first_appearance_order() {
        let v = VertexId::new;
        let mut b = HypergraphBuilder::with_vertices(6);
        // clusters {0,1}, {2,3}, {4,5}: the fine edges map to coarse pin
        // sets A = {c0,c1}, B = {c1,c2}, A again, then C = {c0,c2}
        b.add_weighted_edge([v(0), v(2)], 2).unwrap();
        b.add_weighted_edge([v(3), v(4)], 3).unwrap();
        b.add_weighted_edge([v(1), v(3)], 5).unwrap();
        b.add_weighted_edge([v(1), v(5)], 7).unwrap();
        let h = b.build();
        let c = Contraction::contract(&h, &[0, 0, 1, 1, 2, 2]);
        let coarse = c.coarse();
        let edges: Vec<(Vec<VertexId>, u64)> = coarse
            .edges()
            .map(|e| (coarse.pins(e).to_vec(), coarse.edge_weight(e)))
            .collect();
        assert_eq!(
            edges,
            [
                (vec![v(0), v(1)], 2 + 5),
                (vec![v(1), v(2)], 3),
                (vec![v(0), v(2)], 7),
            ]
        );
    }

    #[test]
    fn projection_expands_labels() {
        let h = paper_example();
        let clusters: Vec<u32> = (0..12).map(|i| (i % 3) as u32).collect();
        let c = Contraction::contract(&h, &clusters);
        let labels = ['a', 'b', 'c'];
        let fine = c.project(&labels);
        for v in h.vertices() {
            assert_eq!(fine[v.index()], labels[v.index() % 3]);
        }
    }

    #[test]
    fn identity_contraction_is_lossless_modulo_merging() {
        let h = paper_example();
        let clusters: Vec<u32> = (0..12u32).collect();
        let c = Contraction::contract(&h, &clusters);
        assert_eq!(c.coarse().num_vertices(), h.num_vertices());
        assert_eq!(c.coarse().num_edges(), h.num_edges());
        assert_eq!(c.coarse().num_pins(), h.num_pins());
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn sparse_cluster_ids_panic() {
        let h = paper_example();
        let mut clusters: Vec<u32> = (0..12u32).collect();
        clusters[0] = 20;
        let _ = Contraction::contract(&h, &clusters);
    }

    #[test]
    fn clustering_respects_weight_cap() {
        let mut b = HypergraphBuilder::new();
        let heavy = b.add_weighted_vertex(10);
        let light1 = b.add_vertex();
        let light2 = b.add_vertex();
        b.add_edge([heavy, light1]).unwrap();
        b.add_edge([light1, light2]).unwrap();
        let h = b.build();
        let clusters = heavy_pair_clustering(&h, 4);
        // heavy (weight 10) cannot pair under cap 4; lights pair up
        assert_ne!(clusters[heavy.index()], clusters[light1.index()]);
        assert_eq!(clusters[light1.index()], clusters[light2.index()]);
    }

    #[test]
    fn clustering_is_deterministic_and_dense() {
        let h = paper_example();
        let a = heavy_pair_clustering(&h, 4);
        let b = heavy_pair_clustering(&h, 4);
        assert_eq!(a, b);
        let k = *a.iter().max().unwrap() as usize + 1;
        let mut seen = vec![false; k];
        for &c in &a {
            seen[c as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // pairing: every cluster has 1 or 2 members
        let mut sizes = vec![0usize; k];
        for &c in &a {
            sizes[c as usize] += 1;
        }
        assert!(sizes.iter().all(|&s| (1..=2).contains(&s)));
    }

    #[test]
    fn try_contract_reports_typed_errors() {
        let h = paper_example();
        assert_eq!(
            Contraction::try_contract(&h, &[0, 1]).unwrap_err(),
            ContractError::ClusterMapLength {
                expected: 12,
                found: 2
            }
        );
        let mut sparse: Vec<u32> = (0..12u32).collect();
        sparse[0] = 20;
        let err = Contraction::try_contract(&h, &sparse).unwrap_err();
        assert_eq!(err, ContractError::SparseClusterIds { missing: 0 });
        assert!(err.to_string().contains("dense"));
        // the well-formed case round-trips through the fallible API
        let ok: Vec<u32> = (0..12).map(|i| (i / 2) as u32).collect();
        let c = Contraction::try_contract(&h, &ok).unwrap();
        assert_eq!(c.coarse().num_vertices(), 6);
    }

    #[test]
    fn projection_map_is_the_cluster_map() {
        let h = paper_example();
        let clusters: Vec<u32> = (0..12).map(|i| (i / 4) as u32).collect();
        let c = Contraction::contract(&h, &clusters);
        assert_eq!(c.projection_map(), clusters.as_slice());
        for v in h.vertices() {
            assert_eq!(c.cluster_of(v), clusters[v.index()]);
        }
    }

    #[test]
    fn within_clustering_never_pairs_across_groups() {
        let h = paper_example();
        // alternate groups so any pair candidate is sometimes blocked
        let groups: Vec<u32> = (0..12).map(|i| (i % 2) as u32).collect();
        let clusters = heavy_pair_clustering_within(&h, 4, &groups);
        let mut members: Vec<Vec<usize>> = Vec::new();
        for (v, &c) in clusters.iter().enumerate() {
            let c = c as usize;
            if members.len() <= c {
                members.resize(c + 1, Vec::new());
            }
            members[c].push(v);
        }
        for m in &members {
            assert!((1..=2).contains(&m.len()));
            if let [a, b] = m[..] {
                assert_eq!(groups[a], groups[b], "pair {a},{b} crossed groups");
            }
        }
        // uniform groups degenerate to the unrestricted clustering
        let uniform = vec![0u32; 12];
        assert_eq!(
            heavy_pair_clustering_within(&h, 4, &uniform),
            heavy_pair_clustering(&h, 4)
        );
    }

    #[test]
    fn contraction_after_clustering_shrinks() {
        let h = paper_example();
        let clusters = heavy_pair_clustering(&h, 12);
        let c = Contraction::contract(&h, &clusters);
        assert!(c.coarse().num_vertices() < h.num_vertices());
        assert!(c.coarse().total_vertex_weight() == h.total_vertex_weight());
    }
}
