//! Fiduccia–Mattheyses iterative-improvement bipartitioning.
//!
//! The successor of KL that the paper cites as [9]: single-vertex moves
//! instead of swaps, a balance criterion instead of strict alternation,
//! and gains updated by delta on critical nets only. A pass is linear in
//! FM's sense: its gain updates visit at most `8·Σ|e|` pins, each changed
//! gain costs one `O(log n)` heap push, and the deferred re-queue of
//! balance-blocked moves is outside that bound. The pass
//! engine itself — lazy max-heap move selection, deferred-move balance
//! handling, best-prefix rollback — is [`fhp_core::refine`] (the
//! multilevel V-cycle refines with it at every level); this type wraps
//! its [`run_passes_with`] in the seeded random-restart *bipartitioner*
//! front the baseline comparisons use.

use fhp_core::refine::{self, run_passes_with, FmScratch};
use fhp_core::{Bipartition, Bipartitioner, PartitionError};
use fhp_hypergraph::Hypergraph;
use fhp_obs::{names, order, Collector};
use rand::rngs::StdRng;
use rand::SeedableRng;

use fhp_core::moves::random_balanced_start;

/// Fiduccia–Mattheyses bipartitioner with an r-style weight-balance
/// criterion.
///
/// # Examples
///
/// ```
/// use fhp_baselines::FiducciaMattheyses;
/// use fhp_core::{metrics, Bipartitioner};
/// use fhp_hypergraph::Netlist;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let nl = Netlist::parse("a: 1 2 3\nb: 3 4\nc: 4 5 6\n")?;
/// let bp = FiducciaMattheyses::new(0).bipartition(nl.hypergraph())?;
/// assert!(metrics::cut_size(nl.hypergraph(), &bp) <= 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct FiducciaMattheyses {
    seed: u64,
    restarts: usize,
    collector: Collector,
}

impl FiducciaMattheyses {
    /// FM at the one shipped setting: up to 24 passes per restart under
    /// [`refine::balance_slack`], single start.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            restarts: 1,
            collector: Collector::disabled(),
        }
    }

    /// Independent random restarts (default 1).
    pub fn restarts(mut self, restarts: usize) -> Self {
        self.restarts = restarts.max(1);
        self
    }

    /// Records each run into `collector`: one `fm.restart` span per
    /// restart plus a summary scope with restart/pass counts and the best
    /// weighted cut. The default collector is disabled, which records
    /// nothing and costs nothing.
    pub fn collector(mut self, collector: Collector) -> Self {
        self.collector = collector;
        self
    }
}

impl Bipartitioner for FiducciaMattheyses {
    fn bipartition(&self, h: &Hypergraph) -> Result<Bipartition, PartitionError> {
        if h.num_vertices() < 2 {
            return Err(PartitionError::TooFewVertices {
                found: h.num_vertices(),
            });
        }
        let tolerance = refine::balance_slack(h);
        let mut scratch = FmScratch::new();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut best: Option<(u64, Bipartition)> = None;
        let mut total_passes = 0u64;
        for i in 0..self.restarts {
            let start = random_balanced_start(h, &mut rng);
            let scope = self
                .collector
                .is_enabled()
                .then(|| self.collector.scope(order::start(i), Some(i as u32)));
            let span = scope.as_ref().map(|s| s.span(names::FM_RESTART));
            let (bp, passes) = run_passes_with(h, start, tolerance, &mut scratch);
            drop(span);
            if let Some(s) = scope {
                self.collector.adopt(s.finish());
            }
            total_passes += passes;
            let cut = fhp_core::metrics::weighted_cut(h, &bp);
            if best.as_ref().is_none_or(|(c, _)| cut < *c) {
                best = Some((cut, bp));
            }
        }
        if self.collector.is_enabled() {
            let summary = self.collector.scope(order::SUMMARY, None);
            summary.counter(names::FM_RESTARTS, self.restarts as u64);
            summary.counter(names::FM_PASSES, total_passes);
            if let Some((cut, _)) = &best {
                summary.counter(names::FM_BEST_CUT, *cut);
            }
            self.collector.adopt(summary.finish());
        }
        match best {
            Some((_, bp)) => Ok(bp),
            // the restarts() builder clamps to >= 1, so this is
            // unreachable via the public API — but typed, not a panic
            None => Err(PartitionError::InvalidConfig {
                reason: "restarts must be at least 1",
            }),
        }
    }

    fn name(&self) -> &str {
        "FM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Exhaustive;
    use fhp_core::metrics;
    use fhp_hypergraph::intersection::paper_example;
    use fhp_hypergraph::{HypergraphBuilder, VertexId};

    fn barbell(k: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::with_vertices(2 * k);
        for base in [0, k] {
            for i in 0..k {
                for j in (i + 1)..k {
                    b.add_edge([VertexId::new(base + i), VertexId::new(base + j)])
                        .unwrap();
                }
            }
        }
        b.add_edge([VertexId::new(0), VertexId::new(k)]).unwrap();
        b.build()
    }

    #[test]
    fn solves_barbell() {
        let h = barbell(5);
        let bp = FiducciaMattheyses::new(1).bipartition(&h).unwrap();
        assert_eq!(metrics::cut_size(&h, &bp), 1);
    }

    #[test]
    fn stays_within_tolerance() {
        let h = paper_example();
        let bp = FiducciaMattheyses::new(0).bipartition(&h).unwrap();
        assert!(metrics::weight_imbalance(&h, &bp) <= refine::balance_slack(&h));
    }

    #[test]
    fn matches_exhaustive_on_small_instances() {
        for seed in 0..3 {
            let h = barbell(4);
            let opt = Exhaustive::with_max_imbalance(2).min_cut_size(&h).unwrap();
            let bp = FiducciaMattheyses::new(seed)
                .restarts(3)
                .bipartition(&h)
                .unwrap();
            assert!(metrics::cut_size(&h, &bp) <= opt.max(1));
        }
    }

    #[test]
    fn weighted_vertices_respected() {
        let mut b = HypergraphBuilder::new();
        let vs: Vec<_> = (0..8).map(|i| b.add_weighted_vertex(1 + i % 4)).collect();
        for w in vs.windows(2) {
            b.add_edge([w[0], w[1]]).unwrap();
        }
        let h = b.build();
        let bp = FiducciaMattheyses::new(2).bipartition(&h).unwrap();
        assert!(bp.is_valid_cut());
        assert!(metrics::weight_imbalance(&h, &bp) <= refine::balance_slack(&h));
    }

    #[test]
    fn deterministic() {
        let h = barbell(4);
        let a = FiducciaMattheyses::new(3).bipartition(&h).unwrap();
        let b = FiducciaMattheyses::new(3).bipartition(&h).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn records_counters_into_enabled_collector() {
        use fhp_obs::{counter_total, Collector};
        let h = barbell(4);
        let collector = Collector::enabled();
        let fm = FiducciaMattheyses::new(2)
            .restarts(3)
            .collector(collector.clone());
        let bp = fm.bipartition(&h).unwrap();
        let events = collector.snapshot();
        assert_eq!(counter_total(&events, fhp_obs::names::FM_RESTARTS), 3);
        assert!(counter_total(&events, fhp_obs::names::FM_PASSES) >= 3);
        assert_eq!(
            counter_total(&events, fhp_obs::names::FM_BEST_CUT),
            metrics::weighted_cut(&h, &bp)
        );
        let spans = events
            .iter()
            .filter(|e| e.name == fhp_obs::names::FM_RESTART)
            .count();
        assert_eq!(spans, 3);
    }

    #[test]
    fn rejects_tiny() {
        let h = HypergraphBuilder::with_vertices(0).build();
        assert!(FiducciaMattheyses::new(0).bipartition(&h).is_err());
    }
}
