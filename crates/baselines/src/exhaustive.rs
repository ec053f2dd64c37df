//! Exhaustive optimum bipartitioning for tiny instances.
//!
//! Enumerates all `2^(n−1)` cuts (vertex 0 pinned left to kill the mirror
//! symmetry). Exponential — guarded by a hard vertex limit — but it is the
//! ground truth the heuristics are validated against in tests and in the
//! `crossing-prob` experiment.

use fhp_core::{metrics, Bipartition, Bipartitioner, PartitionError, Side};
use fhp_hypergraph::Hypergraph;

/// Exact minimum-cut bipartitioner by enumeration.
///
/// # Examples
///
/// ```
/// use fhp_baselines::Exhaustive;
/// use fhp_core::{metrics, Bipartitioner};
/// use fhp_hypergraph::Netlist;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let nl = Netlist::parse("a: 1 2 3\nb: 3 4\nc: 4 5 6\n")?;
/// let bp = Exhaustive::unconstrained().bipartition(nl.hypergraph())?;
/// assert_eq!(metrics::cut_size(nl.hypergraph(), &bp), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Exhaustive {
    /// Maximum allowed cardinality imbalance, if any.
    max_imbalance: Option<usize>,
}

/// Hard size limit: `2^(LIMIT-1)` cuts are enumerated.
pub const EXHAUSTIVE_VERTEX_LIMIT: usize = 24;

impl Exhaustive {
    /// Optimum over all cuts, regardless of balance.
    pub fn unconstrained() -> Self {
        Self {
            max_imbalance: None,
        }
    }

    /// Optimum over cuts with `| |V_L| − |V_R| | ≤ r`.
    pub fn with_max_imbalance(r: usize) -> Self {
        Self {
            max_imbalance: Some(r),
        }
    }

    /// Optimum bisection (`r = 1`).
    pub fn bisection() -> Self {
        Self::with_max_imbalance(1)
    }

    /// The exact minimum cut size, without materializing the partition.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Bipartitioner::bipartition`].
    pub fn min_cut_size(&self, h: &Hypergraph) -> Result<usize, PartitionError> {
        let bp = self.bipartition(h)?;
        Ok(metrics::cut_size(h, &bp))
    }
}

impl Bipartitioner for Exhaustive {
    fn bipartition(&self, h: &Hypergraph) -> Result<Bipartition, PartitionError> {
        let n = h.num_vertices();
        if n < 2 {
            return Err(PartitionError::TooFewVertices { found: n });
        }
        if n > EXHAUSTIVE_VERTEX_LIMIT {
            return Err(PartitionError::TooLarge {
                found: n,
                limit: EXHAUSTIVE_VERTEX_LIMIT,
            });
        }
        let mut best: Option<(u64, usize, Bipartition)> = None;
        // vertex 0 is always Left; mask bit i-1 sets vertex i's side
        for mask in 1u32..(1u32 << (n - 1)) {
            let bp = Bipartition::from_fn(n, |v| {
                if v.index() == 0 || mask & (1 << (v.index() - 1)) == 0 {
                    Side::Left
                } else {
                    Side::Right
                }
            });
            if let Some(r) = self.max_imbalance {
                if bp.cardinality_imbalance() > r {
                    continue;
                }
            }
            let cut = metrics::weighted_cut(h, &bp);
            let imb = bp.cardinality_imbalance();
            let better = match &best {
                None => true,
                Some((bc, bi, _)) => cut < *bc || (cut == *bc && imb < *bi),
            };
            if better {
                best = Some((cut, imb, bp));
            }
        }
        best.map(|(_, _, bp)| bp)
            .ok_or(PartitionError::InvalidConfig {
                reason: "imbalance constraint admits no cut",
            })
    }

    fn name(&self) -> &str {
        "Exhaustive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhp_hypergraph::{HypergraphBuilder, VertexId};

    fn barbell() -> Hypergraph {
        // K3 + bridge + K3 as 2-pin signals
        let mut b = HypergraphBuilder::with_vertices(6);
        for (base, _) in [(0usize, ()), (3, ())] {
            for i in 0..3 {
                for j in (i + 1)..3 {
                    b.add_edge([VertexId::new(base + i), VertexId::new(base + j)])
                        .unwrap();
                }
            }
        }
        b.add_edge([VertexId::new(2), VertexId::new(3)]).unwrap();
        b.build()
    }

    #[test]
    fn finds_bridge_cut() {
        let h = barbell();
        let bp = Exhaustive::unconstrained().bipartition(&h).unwrap();
        assert_eq!(metrics::cut_size(&h, &bp), 1);
        assert_eq!(bp.counts(), (3, 3));
    }

    #[test]
    fn min_cut_size_helper() {
        let h = barbell();
        assert_eq!(Exhaustive::bisection().min_cut_size(&h).unwrap(), 1);
    }

    #[test]
    fn balance_constraint_binds() {
        // star: center + 4 leaves; unconstrained optimum cuts nothing off?
        // any cut must cut some signals. With a 2-pin star the best
        // unbalanced cut isolates one leaf (cut 1).
        let mut b = HypergraphBuilder::with_vertices(5);
        for i in 1..5 {
            b.add_edge([VertexId::new(0), VertexId::new(i)]).unwrap();
        }
        let h = b.build();
        let free = Exhaustive::unconstrained().min_cut_size(&h).unwrap();
        assert_eq!(free, 1);
        let tight = Exhaustive::bisection().min_cut_size(&h).unwrap();
        assert_eq!(tight, 2);
    }

    #[test]
    fn respects_edge_weights() {
        let mut b = HypergraphBuilder::with_vertices(3);
        b.add_weighted_edge([VertexId::new(0), VertexId::new(1)], 10)
            .unwrap();
        b.add_weighted_edge([VertexId::new(1), VertexId::new(2)], 1)
            .unwrap();
        let h = b.build();
        let bp = Exhaustive::unconstrained().bipartition(&h).unwrap();
        // should cut the cheap signal
        assert_eq!(metrics::weighted_cut(&h, &bp), 1);
    }

    #[test]
    fn size_limit_enforced() {
        let h = HypergraphBuilder::with_vertices(EXHAUSTIVE_VERTEX_LIMIT + 1).build();
        assert!(matches!(
            Exhaustive::unconstrained().bipartition(&h),
            Err(PartitionError::TooLarge { .. })
        ));
    }

    #[test]
    fn tiny_rejected() {
        let h = HypergraphBuilder::with_vertices(1).build();
        assert!(Exhaustive::unconstrained().bipartition(&h).is_err());
    }

    #[test]
    fn two_vertex_instance() {
        let mut b = HypergraphBuilder::with_vertices(2);
        b.add_edge([VertexId::new(0), VertexId::new(1)]).unwrap();
        let h = b.build();
        let bp = Exhaustive::unconstrained().bipartition(&h).unwrap();
        assert!(bp.is_valid_cut());
        assert_eq!(metrics::cut_size(&h, &bp), 1);
    }
}
