//! k-way partitioning by recursive bisection.
//!
//! Min-cut *placement* needs more than one cut: a netlist is split into
//! `k` blocks (rows, slots, boards) by recursively bipartitioning. This
//! module provides the generic recursion over any [`Bipartitioner`],
//! producing a [`Multipartition`] scored by the standard k-way metrics:
//! hyperedge cut (nets spanning more than one block) and connectivity
//! (`Σ_e (λ(e) − 1)`, the sum over nets of the number of extra blocks
//! they touch).
//!
//! Block target sizes are split proportionally at every level, and a
//! light FM-style repair keeps each side within its capacity, so `k` need
//! not be a power of two.

use fhp_hypergraph::subhypergraph::Subhypergraph;
use fhp_hypergraph::{EdgeId, Hypergraph, VertexId};

use crate::moves::MoveState;
use crate::{Bipartition, Bipartitioner, PartitionError, Side};

/// An assignment of every vertex to one of `k` blocks.
///
/// # Examples
///
/// ```
/// use fhp_core::multiway::{recursive_bisection, Multipartition};
/// use fhp_core::{Algorithm1, Bipartitioner, PartitionConfig};
/// use fhp_hypergraph::intersection::paper_example;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let h = paper_example();
/// let mp = recursive_bisection(&h, 4, |region| {
///     Box::new(Algorithm1::new(PartitionConfig::new().starts(4).seed(region)))
/// })?;
/// assert_eq!(mp.num_blocks(), 4);
/// assert!(mp.block_sizes().iter().all(|&s| s >= 2));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Multipartition {
    block_of: Vec<u32>,
    k: usize,
}

impl Multipartition {
    /// Builds a multipartition from explicit labels.
    ///
    /// # Panics
    ///
    /// Panics if a label is `>= k`.
    pub fn from_labels(block_of: Vec<u32>, k: usize) -> Self {
        assert!(
            block_of.iter().all(|&b| (b as usize) < k),
            "block label out of range"
        );
        Self { block_of, k }
    }

    /// Number of blocks `k`.
    pub fn num_blocks(&self) -> usize {
        self.k
    }

    /// Block of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn block_of(&self, v: VertexId) -> u32 {
        self.block_of[v.index()] // fhp-audit: allow(panic-site) — block ids bounded by k, validated at entry
    }

    /// Number of covered vertices.
    pub fn len(&self) -> usize {
        self.block_of.len()
    }

    /// True if nothing is covered.
    pub fn is_empty(&self) -> bool {
        self.block_of.is_empty()
    }

    /// Vertex count of each block.
    pub fn block_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k];
        for &b in &self.block_of {
            sizes[b as usize] += 1; // fhp-audit: allow(panic-site) — block ids bounded by k, validated at entry
        }
        sizes
    }

    /// Total vertex weight of each block.
    ///
    /// # Panics
    ///
    /// Panics if `h` has a different vertex count.
    pub fn block_weights(&self, h: &Hypergraph) -> Vec<u64> {
        assert_eq!(h.num_vertices(), self.len(), "hypergraph mismatch");
        let mut weights = vec![0u64; self.k];
        for v in h.vertices() {
            weights[self.block_of(v) as usize] += h.vertex_weight(v); // fhp-audit: allow(panic-site) — block ids bounded by k, validated at entry
        }
        weights
    }

    /// Number of distinct blocks net `e` touches (its *connectivity*
    /// `λ(e)`).
    pub fn net_spread(&self, h: &Hypergraph, e: EdgeId) -> usize {
        let mut seen = vec![false; self.k];
        let mut spread = 0;
        for &p in h.pins(e) {
            let b = self.block_of(p) as usize;
            // fhp-audit: allow(panic-site) — block ids bounded by k, validated at entry
            if !seen[b] {
                // fhp-audit: allow(panic-site) — block ids bounded by k, validated at entry
                seen[b] = true; // fhp-audit: allow(panic-site) — block ids bounded by k, validated at entry
                spread += 1;
            }
        }
        spread
    }

    /// Nets touching more than one block (the k-way hyperedge cut).
    pub fn cut_size(&self, h: &Hypergraph) -> usize {
        h.edges().filter(|&e| self.net_spread(h, e) > 1).count()
    }

    /// The connectivity metric `Σ_e (λ(e) − 1)`, weighted.
    pub fn connectivity(&self, h: &Hypergraph) -> u64 {
        h.edges()
            .map(|e| (self.net_spread(h, e) as u64 - 1) * h.edge_weight(e))
            .sum()
    }
}

/// Splits `h` into `k` blocks of near-equal vertex count by recursive
/// bisection with the supplied partitioner factory (`region` ids make each
/// recursion level independently seeded yet reproducible).
///
/// # Errors
///
/// [`PartitionError::InvalidConfig`] if `k` is 0 or exceeds the vertex
/// count, or if the bisector refuses its configuration (it would refuse
/// every region alike). Other partitioner failures inside a region fall
/// back to an even split rather than aborting.
pub fn recursive_bisection<F>(
    h: &Hypergraph,
    k: usize,
    factory: F,
) -> Result<Multipartition, PartitionError>
where
    F: Fn(u64) -> Box<dyn Bipartitioner>,
{
    if k == 0 {
        return Err(PartitionError::InvalidConfig {
            reason: "k must be at least 1",
        });
    }
    if k > h.num_vertices() {
        return Err(PartitionError::InvalidConfig {
            reason: "k exceeds the vertex count",
        });
    }
    let mut block_of = vec![0u32; h.num_vertices()];
    let all: Vec<VertexId> = h.vertices().collect();
    split(h, &all, 0, k, 1, &factory, &mut block_of)?;
    Ok(Multipartition { block_of, k })
}

fn split<F>(
    h: &Hypergraph,
    cells: &[VertexId],
    first_block: u32,
    k: usize,
    region: u64,
    factory: &F,
    block_of: &mut [u32],
) -> Result<(), PartitionError>
where
    F: Fn(u64) -> Box<dyn Bipartitioner>,
{
    if k == 1 {
        for &v in cells {
            block_of[v.index()] = first_block; // fhp-audit: allow(panic-site) — block ids bounded by k, validated at entry
        }
        return Ok(());
    }
    let k_left = k / 2;
    let k_right = k - k_left;
    // Capacities proportional to block counts, each rounded up (one slot
    // of slack total, absorbed by the repair pass).
    let cap_left = (cells.len() * k_left).div_ceil(k);
    let cap_right = (cells.len() * k_right).div_ceil(k);

    let sub = Subhypergraph::induce(h, cells);
    let bp = if sub.hypergraph().num_vertices() >= 2 {
        match factory(region).bipartition(sub.hypergraph()) {
            Ok(bp) => bp,
            Err(e @ PartitionError::InvalidConfig { .. }) => return Err(e),
            Err(_) => even_split(cells.len(), cap_left),
        }
    } else {
        Bipartition::all_left(cells.len())
    };
    let bp = repair_capacity(sub.hypergraph(), bp, cap_left, cap_right);

    let mut left = Vec::new();
    let mut right = Vec::new();
    for (i, &v) in cells.iter().enumerate() {
        match bp.side(VertexId::new(i)) {
            Side::Left => left.push(v),
            Side::Right => right.push(v),
        }
    }
    split(h, &left, first_block, k_left, region * 2, factory, block_of)?;
    split(
        h,
        &right,
        first_block + k_left as u32, // fhp-audit: allow(as-cast-truncation) — k is a block count well below u32::MAX
        k_right,
        region * 2 + 1,
        factory,
        block_of,
    )
}

fn even_split(n: usize, cap_left: usize) -> Bipartition {
    Bipartition::from_fn(n, |v| {
        if v.index() < cap_left.min(n) {
            Side::Left
        } else {
            Side::Right
        }
    })
}

/// Moves cells off an over-capacity side until the left side holds at
/// most `cap_left` vertices and the right at most `cap_right`. Each move
/// takes the cell whose move costs the cut least (the highest FM gain,
/// ties to the lowest id), recomputed against live pin counts, so exactly
/// the overflow moves. Recursive bisection and the min-cut placer both
/// repair their splits with it.
///
/// When `cap_left + cap_right` is below the vertex count no assignment
/// fits; the over-full side then still sheds exactly its overflow.
///
/// # Panics
///
/// Panics if `bp` does not cover `h`'s vertices.
pub fn repair_capacity(
    h: &Hypergraph,
    bp: Bipartition,
    cap_left: usize,
    cap_right: usize,
) -> Bipartition {
    let (l, r) = bp.counts();
    let (from, overflow) = if l > cap_left {
        (Side::Left, l - cap_left)
    } else if r > cap_right {
        (Side::Right, r - cap_right)
    } else {
        return bp;
    };
    let mut st = MoveState::new(h, bp);
    for _ in 0..overflow {
        let best = h
            .vertices()
            .filter(|&v| st.side(v) == from)
            .min_by_key(|&v| std::cmp::Reverse(st.gain(v)));
        let Some(v) = best else { break };
        st.apply_flip(v);
    }
    st.into_partition()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm1, PartitionConfig};
    use fhp_hypergraph::intersection::paper_example;
    use fhp_hypergraph::HypergraphBuilder;

    fn factory(region: u64) -> Box<dyn Bipartitioner> {
        Box::new(Algorithm1::new(
            PartitionConfig::new().starts(4).seed(region),
        ))
    }

    #[test]
    fn an_invalid_bisector_configuration_is_an_error_not_an_even_split() {
        let h = clusters(4, 6);
        let err = recursive_bisection(&h, 4, |region| {
            Box::new(Algorithm1::new(
                PartitionConfig::new().starts(0).seed(region),
            )) as Box<dyn Bipartitioner>
        })
        .unwrap_err();
        assert!(matches!(err, PartitionError::InvalidConfig { .. }), "{err}");
    }

    fn clusters(k: usize, m: usize) -> Hypergraph {
        // k rings of m modules, adjacent rings joined by one bridge net
        let mut b = HypergraphBuilder::with_vertices(k * m);
        for c in 0..k {
            let base = c * m;
            for i in 0..m {
                b.add_edge([VertexId::new(base + i), VertexId::new(base + (i + 1) % m)])
                    .unwrap();
                b.add_edge([
                    VertexId::new(base + i),
                    VertexId::new(base + (i + m / 2) % m),
                ])
                .unwrap();
            }
            if c + 1 < k {
                b.add_edge([VertexId::new(base), VertexId::new(base + m)])
                    .unwrap();
            }
        }
        b.build()
    }

    #[test]
    fn four_clusters_recovered() {
        let h = clusters(4, 10);
        let mp = recursive_bisection(&h, 4, factory).unwrap();
        assert_eq!(mp.num_blocks(), 4);
        assert_eq!(mp.block_sizes(), vec![10, 10, 10, 10]);
        // only the 3 bridge nets may span blocks
        assert!(mp.cut_size(&h) <= 3, "cut {}", mp.cut_size(&h));
        assert!(mp.connectivity(&h) <= 3);
    }

    #[test]
    fn non_power_of_two_k() {
        let h = clusters(3, 8);
        let mp = recursive_bisection(&h, 3, factory).unwrap();
        assert_eq!(mp.num_blocks(), 3);
        let sizes = mp.block_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 24);
        assert!(sizes.iter().all(|&s| s == 8), "{sizes:?}");
    }

    #[test]
    fn k_equals_one_and_n() {
        let h = paper_example();
        let mp1 = recursive_bisection(&h, 1, factory).unwrap();
        assert_eq!(mp1.cut_size(&h), 0);
        assert_eq!(mp1.connectivity(&h), 0);
        let mpn = recursive_bisection(&h, 12, factory).unwrap();
        assert_eq!(mpn.block_sizes(), vec![1; 12]);
        assert_eq!(mpn.cut_size(&h), h.num_edges());
    }

    #[test]
    fn invalid_k_rejected() {
        let h = paper_example();
        assert!(recursive_bisection(&h, 0, factory).is_err());
        assert!(recursive_bisection(&h, 13, factory).is_err());
    }

    #[test]
    fn metrics_are_consistent() {
        let h = paper_example();
        let mp = recursive_bisection(&h, 4, factory).unwrap();
        // connectivity >= cut (every cut net has spread >= 2)
        assert!(mp.connectivity(&h) >= mp.cut_size(&h) as u64);
        for e in h.edges() {
            let s = mp.net_spread(&h, e);
            assert!((1..=4).contains(&s));
            assert!(s <= h.edge_size(e));
        }
        let (two_way, _) = (mp.cut_size(&h), ());
        assert!(two_way <= h.num_edges());
    }

    #[test]
    fn block_weights_sum() {
        let h = paper_example();
        let mp = recursive_bisection(&h, 3, factory).unwrap();
        assert_eq!(
            mp.block_weights(&h).iter().sum::<u64>(),
            h.total_vertex_weight()
        );
    }

    #[test]
    fn from_labels_validates() {
        let mp = Multipartition::from_labels(vec![0, 1, 2, 1], 3);
        assert_eq!(mp.block_sizes(), vec![1, 2, 1]);
        assert_eq!(mp.block_of(VertexId::new(2)), 2);
        assert!(!mp.is_empty());
        assert_eq!(mp.len(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_labels_panic() {
        let _ = Multipartition::from_labels(vec![0, 3], 3);
    }

    #[test]
    fn repair_moves_exactly_the_overflow_off_the_full_side() {
        let h = clusters(2, 10);
        let first_left = |n: usize| {
            Bipartition::from_fn(20, |v| {
                if v.index() < n {
                    Side::Left
                } else {
                    Side::Right
                }
            })
        };
        for (left, cap_left, cap_right, full, overflow) in [
            (15, 10, 10, Side::Left, 5),
            (4, 12, 10, Side::Right, 6),
            (10, 10, 10, Side::Left, 0), // already fits: untouched
        ] {
            let start = first_left(left);
            let out = repair_capacity(&h, start.clone(), cap_left, cap_right);
            let (l, r) = out.counts();
            assert!(l <= cap_left && r <= cap_right, "{l}/{r}");
            let moved: Vec<VertexId> = h
                .vertices()
                .filter(|&v| out.side(v) != start.side(v))
                .collect();
            assert_eq!(moved.len(), overflow);
            assert!(moved.iter().all(|&v| start.side(v) == full));
        }
    }

    #[test]
    fn deterministic() {
        let h = clusters(4, 6);
        let a = recursive_bisection(&h, 4, factory).unwrap();
        let b = recursive_bisection(&h, 4, factory).unwrap();
        assert_eq!(a, b);
    }
}
