//! Kernighan–Lin bipartitioning adapted to hypergraphs.
//!
//! The classic 2-opt pass of Kernighan–Lin (1970), with the hyperedge cut
//! model of Schweikert–Kernighan (1972): start from a random balanced
//! partition; in each pass, tentatively swap the best remaining pair of
//! vertices (one per side) `n/2` times, locking swapped vertices; then keep
//! the prefix of swaps with the best cumulative cut and undo the rest.
//! Passes repeat until one fails to improve.
//!
//! Pair selection follows the original recipe: vertices on each side are
//! ranked by their single-move gain `D`, the top few of each side are
//! paired, and the exact hyperedge swap delta (which the `D` values only
//! bound) decides. This keeps the per-pass cost at `O(n²)`-ish, the
//! `O(n² log n)` regime the paper quotes for 2-opt KL.

use fhp_core::{Bipartition, Bipartitioner, PartitionError};
use fhp_hypergraph::{Hypergraph, VertexId};
use fhp_obs::{names, order, Collector};
use rand::rngs::StdRng;
use rand::SeedableRng;

use fhp_core::moves::{random_balanced_start, MoveState};

/// Kernighan–Lin min-cut bipartitioner (the paper's "MinCut-KL" column).
///
/// # Examples
///
/// ```
/// use fhp_baselines::KernighanLin;
/// use fhp_core::{metrics, Bipartitioner};
/// use fhp_hypergraph::Netlist;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let nl = Netlist::parse("a: 1 2 3\nb: 3 4\nc: 4 5 6\n")?;
/// let bp = KernighanLin::new(0).bipartition(nl.hypergraph())?;
/// assert!(metrics::cut_size(nl.hypergraph(), &bp) <= 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct KernighanLin {
    seed: u64,
    max_passes: usize,
    candidates_per_side: usize,
    restarts: usize,
    collector: Collector,
}

impl KernighanLin {
    /// KL with default tuning (16 passes max, 8 candidates per side,
    /// single start).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            max_passes: 16,
            candidates_per_side: 8,
            restarts: 1,
            collector: Collector::disabled(),
        }
    }

    /// Limits the number of improvement passes (default 16).
    pub fn max_passes(mut self, passes: usize) -> Self {
        self.max_passes = passes;
        self
    }

    /// Number of top-`D` vertices per side whose pairings are evaluated
    /// exactly at each step (default 8; the 1970 paper's sorted-scan
    /// shortcut).
    pub fn candidates_per_side(mut self, k: usize) -> Self {
        self.candidates_per_side = k.max(1);
        self
    }

    /// Independent random restarts, keeping the best result (default 1).
    pub fn restarts(mut self, restarts: usize) -> Self {
        self.restarts = restarts.max(1);
        self
    }

    /// Records each run into `collector`: one `kl.restart` span per
    /// restart plus a summary scope with restart/pass/swap counts and the
    /// best weighted cut. The default collector is disabled, which
    /// records nothing and costs nothing.
    pub fn collector(mut self, collector: Collector) -> Self {
        self.collector = collector;
        self
    }

    /// One full KL pass. Returns the cut improvement (≥ 0) and the number
    /// of committed swaps (the kept prefix of the tentative sequence).
    fn pass(&self, st: &mut MoveState<'_>) -> (u64, u64) {
        let h = st.hypergraph();
        let n = h.num_vertices();
        let mut locked = vec![false; n];
        let mut gains: Vec<i64> = (0..n).map(|i| st.gain(VertexId::new(i))).collect();
        let start_cut = st.cut() as i64;
        // (a, b) swaps in order, with the running cut after each
        let mut swaps: Vec<(VertexId, VertexId)> = Vec::new();
        let mut cut_after: Vec<i64> = Vec::new();
        let mut running = start_cut;

        loop {
            // Top candidates by D on each side.
            let mut left: Vec<VertexId> = Vec::new();
            let mut right: Vec<VertexId> = Vec::new();
            for (i, &is_locked) in locked.iter().enumerate() {
                if is_locked {
                    continue;
                }
                let v = VertexId::new(i);
                match st.side(v) {
                    fhp_core::Side::Left => left.push(v),
                    fhp_core::Side::Right => right.push(v),
                }
            }
            if left.is_empty() || right.is_empty() {
                break;
            }
            left.sort_by_key(|v| std::cmp::Reverse(gains[v.index()]));
            right.sort_by_key(|v| std::cmp::Reverse(gains[v.index()]));
            left.truncate(self.candidates_per_side);
            right.truncate(self.candidates_per_side);

            let mut best: Option<(i64, VertexId, VertexId)> = None;
            for &a in &left {
                for &b in &right {
                    let delta = st.swap_delta(a, b);
                    if best.is_none_or(|(d, _, _)| delta < d) {
                        best = Some((delta, a, b));
                    }
                }
            }
            let Some((delta, a, b)) = best else { break };
            st.apply_swap(a, b);
            locked[a.index()] = true;
            locked[b.index()] = true;
            running += delta;
            debug_assert_eq!(running, st.cut() as i64);
            swaps.push((a, b));
            cut_after.push(running);
            // Refresh cached gains of everything sharing an edge with a or b.
            for v in [a, b] {
                for &e in h.edges_of(v) {
                    for &p in h.pins(e) {
                        if !locked[p.index()] {
                            gains[p.index()] = st.gain(p);
                        }
                    }
                }
            }
        }

        // Best prefix of the tentative swap sequence.
        let best_prefix = cut_after
            .iter()
            .enumerate()
            .min_by_key(|&(i, &c)| (c, i))
            .filter(|&(_, &c)| c < start_cut)
            .map(|(i, _)| i + 1)
            .unwrap_or(0);
        for &(a, b) in swaps[best_prefix..].iter().rev() {
            st.apply_swap(b, a); // undo (sides are opposite again)
        }
        let improvement = (start_cut - st.cut() as i64).max(0) as u64;
        (improvement, best_prefix as u64)
    }

    /// Runs passes to fixpoint. Returns the partition plus the pass and
    /// committed-swap counts, which feed the `kl.*` summary counters.
    fn run_once(&self, h: &Hypergraph, start: Bipartition) -> (Bipartition, u64, u64) {
        let mut st = MoveState::new(h, start);
        let mut passes = 0u64;
        let mut swaps = 0u64;
        for _ in 0..self.max_passes {
            let (improvement, committed) = self.pass(&mut st);
            passes += 1;
            swaps += committed;
            if improvement == 0 {
                break;
            }
        }
        (st.into_partition(), passes, swaps)
    }
}

impl Bipartitioner for KernighanLin {
    fn bipartition(&self, h: &Hypergraph) -> Result<Bipartition, PartitionError> {
        if h.num_vertices() < 2 {
            return Err(PartitionError::TooFewVertices {
                found: h.num_vertices(),
            });
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut best: Option<(u64, Bipartition)> = None;
        let mut total_passes = 0u64;
        let mut total_swaps = 0u64;
        for i in 0..self.restarts {
            let start = random_balanced_start(h, &mut rng);
            let scope = self
                .collector
                .is_enabled()
                .then(|| self.collector.scope(order::start(i), Some(i as u32)));
            let span = scope.as_ref().map(|s| s.span(names::KL_RESTART));
            let (bp, passes, swaps) = self.run_once(h, start);
            drop(span);
            if let Some(s) = scope {
                self.collector.adopt(s.finish());
            }
            total_passes += passes;
            total_swaps += swaps;
            let cut = fhp_core::metrics::weighted_cut(h, &bp);
            if best.as_ref().is_none_or(|(c, _)| cut < *c) {
                best = Some((cut, bp));
            }
        }
        if self.collector.is_enabled() {
            let summary = self.collector.scope(order::SUMMARY, None);
            summary.counter(names::KL_RESTARTS, self.restarts as u64);
            summary.counter(names::KL_PASSES, total_passes);
            summary.counter(names::KL_SWAPS, total_swaps);
            if let Some((cut, _)) = &best {
                summary.counter(names::KL_BEST_CUT, *cut);
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
        "MinCut-KL"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Exhaustive;
    use fhp_core::metrics;
    use fhp_hypergraph::intersection::paper_example;
    use fhp_hypergraph::HypergraphBuilder;

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
        let bp = KernighanLin::new(1).bipartition(&h).unwrap();
        assert_eq!(metrics::cut_size(&h, &bp), 1);
        assert!(bp.is_bisection());
    }

    #[test]
    fn keeps_balance_of_start() {
        let h = paper_example();
        let bp = KernighanLin::new(0).bipartition(&h).unwrap();
        // swaps preserve cardinality balance exactly
        assert!(bp.cardinality_imbalance() <= 1);
    }

    #[test]
    fn matches_exhaustive_on_small_instances() {
        let h = barbell(4);
        let opt = Exhaustive::bisection().min_cut_size(&h).unwrap();
        let bp = KernighanLin::new(3).restarts(3).bipartition(&h).unwrap();
        assert_eq!(metrics::cut_size(&h, &bp), opt);
    }

    #[test]
    fn passes_never_hurt() {
        let h = paper_example();
        let mut rng = StdRng::seed_from_u64(9);
        let start = random_balanced_start(&h, &mut rng);
        let before = metrics::weighted_cut(&h, &start);
        let kl = KernighanLin::new(9);
        let mut st = MoveState::new(&h, start);
        let (imp, swaps) = kl.pass(&mut st);
        assert_eq!(st.cut() + imp, before);
        assert!(st.cut() <= before);
        // Improvement only ever comes from committed swaps.
        if imp > 0 {
            assert!(swaps > 0);
        }
    }

    #[test]
    fn records_counters_into_enabled_collector() {
        use fhp_obs::{counter_total, span_total_ns, Collector};
        let h = barbell(4);
        let collector = Collector::enabled();
        let kl = KernighanLin::new(3)
            .restarts(2)
            .collector(collector.clone());
        let bp = kl.bipartition(&h).unwrap();
        let events = collector.snapshot();
        assert_eq!(counter_total(&events, fhp_obs::names::KL_RESTARTS), 2);
        assert!(counter_total(&events, fhp_obs::names::KL_PASSES) >= 2);
        assert_eq!(
            counter_total(&events, fhp_obs::names::KL_BEST_CUT),
            metrics::weighted_cut(&h, &bp)
        );
        // One restart span per restart, each with nonzero duration count.
        let spans = events
            .iter()
            .filter(|e| e.name == fhp_obs::names::KL_RESTART)
            .count();
        assert_eq!(spans, 2);
        let _ = span_total_ns(&events, fhp_obs::names::KL_RESTART);
    }

    #[test]
    fn restarts_and_builders() {
        let h = barbell(4);
        let kl = KernighanLin::new(2)
            .max_passes(4)
            .candidates_per_side(3)
            .restarts(2);
        let bp = kl.bipartition(&h).unwrap();
        assert!(bp.is_valid_cut());
        assert_eq!(kl.name(), "MinCut-KL");
    }

    #[test]
    fn rejects_tiny() {
        let h = HypergraphBuilder::with_vertices(1).build();
        assert!(KernighanLin::new(0).bipartition(&h).is_err());
    }

    #[test]
    fn deterministic() {
        let h = barbell(5);
        let a = KernighanLin::new(7).bipartition(&h).unwrap();
        let b = KernighanLin::new(7).bipartition(&h).unwrap();
        assert_eq!(a, b);
    }
}
