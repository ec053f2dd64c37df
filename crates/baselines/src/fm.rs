//! Fiduccia–Mattheyses iterative-improvement bipartitioning.
//!
//! The linear-time-per-pass successor of KL that the paper cites as [9]:
//! single-vertex moves instead of swaps, a balance criterion instead of
//! strict alternation, and gains maintained incrementally. The pass
//! engine itself — lazy max-heap move selection, deferred-move balance
//! handling, best-prefix rollback — lives in [`fhp_core::FmRefiner`]
//! (the multilevel V-cycle refines with it at every level); this type
//! wraps it with the seeded random-restart *bipartitioner* front the
//! baseline comparisons use.

use fhp_core::{Bipartition, Bipartitioner, FmRefiner, PartitionError};
use fhp_hypergraph::Hypergraph;
use fhp_obs::{names, order, Collector};
use rand::rngs::StdRng;
use rand::SeedableRng;

use fhp_core::moves::{random_balanced_start, MoveState};

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
    refiner: FmRefiner,
    restarts: usize,
    collector: Collector,
}

impl FiducciaMattheyses {
    /// FM with default tuning: up to 24 passes, tolerance of the heaviest
    /// vertex's weight, single start.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            refiner: FmRefiner::new(),
            restarts: 1,
            collector: Collector::disabled(),
        }
    }

    /// Caps the improvement passes (default 24).
    pub fn max_passes(mut self, passes: usize) -> Self {
        self.refiner = self.refiner.max_passes(passes);
        self
    }

    /// Sets the weight-imbalance tolerance (the r-bipartition slack). The
    /// effective tolerance is never below twice the heaviest vertex weight.
    pub fn imbalance_tolerance(mut self, tolerance: u64) -> Self {
        self.refiner = self.refiner.imbalance_tolerance(tolerance);
        self
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

    /// [`FmRefiner::run_passes`] with pass counting: the same
    /// pass-until-fixpoint loop, returning how many passes actually ran.
    fn run_passes_counted(
        &self,
        h: &Hypergraph,
        start: Bipartition,
        tolerance: u64,
    ) -> (Bipartition, u64) {
        let mut st = MoveState::new(h, start);
        let mut passes = 0u64;
        for _ in 0..self.refiner.max_passes_value() {
            passes += 1;
            if self.refiner.pass(&mut st, tolerance) == 0 {
                break;
            }
        }
        (st.into_partition(), passes)
    }

    fn effective_tolerance(&self, h: &Hypergraph) -> u64 {
        self.refiner.effective_tolerance(h)
    }

    /// Improves an existing partition in place with FM passes until a pass
    /// yields no gain. This is the refinement entry point used by
    /// [`Refined`](crate::Refined) to post-process another partitioner's
    /// cut; the weight-balance tolerance is widened to the start's own
    /// imbalance if that is larger, so refinement never has to destroy a
    /// deliberately unbalanced input to begin improving it.
    ///
    /// # Panics
    ///
    /// Panics if `start` does not cover `h`'s vertices.
    pub fn refine(&self, h: &Hypergraph, start: Bipartition) -> Bipartition {
        self.refiner.refine(h, start)
    }
}

impl Bipartitioner for FiducciaMattheyses {
    fn bipartition(&self, h: &Hypergraph) -> Result<Bipartition, PartitionError> {
        if h.num_vertices() < 2 {
            return Err(PartitionError::TooFewVertices {
                found: h.num_vertices(),
            });
        }
        let tolerance = self.effective_tolerance(h);
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
            let (bp, passes) = self.run_passes_counted(h, start, tolerance);
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
        let fm = FiducciaMattheyses::new(0);
        let tol = fm.effective_tolerance(&h);
        let bp = fm.bipartition(&h).unwrap();
        assert!(metrics::weight_imbalance(&h, &bp) <= tol);
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
    fn passes_never_hurt() {
        let h = paper_example();
        let mut rng = StdRng::seed_from_u64(5);
        let start = random_balanced_start(&h, &mut rng);
        let before = metrics::weighted_cut(&h, &start);
        let fm = FiducciaMattheyses::new(5);
        let tol = fm.effective_tolerance(&h);
        let mut st = MoveState::new(&h, start);
        let imp = fm.refiner.pass(&mut st, tol);
        assert_eq!(st.cut() + imp, before);
    }

    #[test]
    fn weighted_vertices_respected() {
        let mut b = HypergraphBuilder::new();
        let vs: Vec<_> = (0..8).map(|i| b.add_weighted_vertex(1 + i % 4)).collect();
        for w in vs.windows(2) {
            b.add_edge([w[0], w[1]]).unwrap();
        }
        let h = b.build();
        let fm = FiducciaMattheyses::new(2).imbalance_tolerance(4);
        let bp = fm.bipartition(&h).unwrap();
        assert!(bp.is_valid_cut());
        assert!(metrics::weight_imbalance(&h, &bp) <= fm.effective_tolerance(&h));
    }

    #[test]
    fn deterministic() {
        let h = barbell(4);
        let a = FiducciaMattheyses::new(3).bipartition(&h).unwrap();
        let b = FiducciaMattheyses::new(3).bipartition(&h).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn counted_passes_match_run_passes() {
        let h = paper_example();
        let fm = FiducciaMattheyses::new(7);
        let tol = fm.effective_tolerance(&h);
        let mut rng = StdRng::seed_from_u64(7);
        let start = random_balanced_start(&h, &mut rng);
        let plain = fm.refiner.run_passes(&h, start.clone(), tol);
        let (counted, passes) = fm.run_passes_counted(&h, start, tol);
        assert_eq!(plain, counted);
        assert!(passes >= 1);
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
