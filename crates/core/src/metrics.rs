//! Cut quality metrics.
//!
//! All partitioners in the workspace are scored by these functions, so the
//! numbers in every experiment table are computed by exactly one piece of
//! code. Besides the paper's primary objective (hyperedge cut size) the
//! module provides the weighted cut, balance measures, and the *quotient
//! cut* and *ratio cut* objectives discussed in the paper's §1 and §4
//! (Leighton–Rao, the paper's ref. \[20\]).

use std::time::Duration;

use fhp_hypergraph::{DualizeStats, EdgeId, Hypergraph};

use crate::Bipartition;

/// Wall-clock time (and the `G` view's counters) per pipeline phase of
/// one [`Algorithm1::run`](crate::Algorithm1::run) call.
///
/// The view of `G` is built once per run and the longest-path draw runs
/// once per start. The dual-front and Complete-Cut phases run once per sweep of
/// each *distinct* path: a start that draws an earlier start's endpoint
/// pair skips them
/// ([`RunStats::distinct_paths`](crate::RunStats::distinct_paths)). The
/// durations here are **summed across every start** — so on a
/// multi-thread run the BFS/Complete-Cut totals can exceed the run's
/// wall-clock time. Timing is diagnostics only: it is excluded from
/// [`OutcomeFingerprint`](crate::OutcomeFingerprint), and no decision in
/// the pipeline reads a clock.
///
/// Each start measures its phase walls as plain scalars (span recording
/// allocates), and the run's reduction folds them in via
/// [`record_start_walls`](PhaseStats::record_start_walls).
///
/// # Examples
///
/// ```
/// use fhp_core::{Algorithm1, PartitionConfig};
/// use fhp_hypergraph::intersection::paper_example;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let out = Algorithm1::new(PartitionConfig::new().starts(4)).run(&paper_example())?;
/// let p = &out.stats.phases;
/// assert_eq!(p.dualize.kept_edges, 9);
/// // G is read off the incidence lists: no pair is generated
/// assert_eq!(p.dualize.pairs_generated, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct PhaseStats {
    /// The run's `DualIncidence` build: its kept and filtered signal
    /// counts and wall time. Algorithm I generates no pair, so the pair
    /// counters stay 0.
    pub dualize: DualizeStats,
    /// Total time drawing random longest BFS paths, across all starts.
    pub longest_path_bfs: Duration,
    /// Total time growing the dual BFS fronts and reading off boundary
    /// decompositions, across all sweeps of every distinct path.
    pub dual_front_bfs: Duration,
    /// Total time running Complete-Cut and assembling final partitions,
    /// across all sweeps of every distinct path.
    pub complete_cut: Duration,
}

impl PhaseStats {
    /// Sum of all phase durations (dualization plus the per-start phases).
    pub fn total_wall(&self) -> Duration {
        self.dualize.wall + self.longest_path_bfs + self.dual_front_bfs + self.complete_cut
    }

    /// Folds one start's directly measured phase walls (in nanoseconds)
    /// into the per-phase totals. The zero-allocation engine path
    /// measures phase walls as plain scalars instead of recording spans
    /// (span recording allocates), and reports them through here.
    pub fn record_start_walls(&mut self, lp_ns: u64, dual_ns: u64, cc_ns: u64) {
        self.longest_path_bfs += Duration::from_nanos(lp_ns);
        self.dual_front_bfs += Duration::from_nanos(dual_ns);
        self.complete_cut += Duration::from_nanos(cc_ns);
    }
}

/// True if hyperedge `e` has pins on both sides of `bp`.
///
/// # Panics
///
/// Panics if `e` is out of range or `bp` is smaller than `h`'s vertex count.
pub fn edge_crosses(h: &Hypergraph, bp: &Bipartition, e: EdgeId) -> bool {
    let pins = h.pins(e);
    let first = bp.side(pins[0]); // fhp-audit: allow(panic-site) — pins/ids in-range by Hypergraph construction; documented `# Panics` contract
    pins[1..].iter().any(|&p| bp.side(p) != first) // fhp-audit: allow(panic-site) — pins/ids in-range by Hypergraph construction; documented `# Panics` contract
}

/// The number of hyperedges crossing the cut — the paper's *cut size*.
///
/// # Examples
///
/// ```
/// use fhp_core::{metrics, Bipartition, Side};
/// use fhp_hypergraph::intersection::paper_example;
///
/// let h = paper_example();
/// let all_left = Bipartition::all_left(h.num_vertices());
/// assert_eq!(metrics::cut_size(&h, &all_left), 0);
/// ```
pub fn cut_size(h: &Hypergraph, bp: &Bipartition) -> usize {
    h.edges().filter(|&e| edge_crosses(h, bp, e)).count()
}

/// Sum of the weights of crossing hyperedges.
pub fn weighted_cut(h: &Hypergraph, bp: &Bipartition) -> u64 {
    h.edges()
        .filter(|&e| edge_crosses(h, bp, e))
        .map(|e| h.edge_weight(e))
        .sum()
}

/// The cut size and the weighted cut together, from one pass over the
/// pins: `(cut_size(h, bp), weighted_cut(h, bp))`.
pub fn cut_totals(h: &Hypergraph, bp: &Bipartition) -> (usize, u64) {
    h.edges()
        .filter(|&e| edge_crosses(h, bp, e))
        .fold((0, 0), |(cut, weighted), e| {
            (cut + 1, weighted + h.edge_weight(e))
        })
}

/// The crossing hyperedges themselves, ascending.
pub fn crossing_edges(h: &Hypergraph, bp: &Bipartition) -> Vec<EdgeId> {
    h.edges().filter(|&e| edge_crosses(h, bp, e)).collect()
}

/// Absolute vertex-weight imbalance `|w(V_L) − w(V_R)|`.
pub fn weight_imbalance(h: &Hypergraph, bp: &Bipartition) -> u64 {
    let (l, r) = bp.weights(h);
    l.abs_diff(r)
}

/// The quotient cut `cut / min(|V_L|, |V_R|)`.
///
/// Returns `f64::INFINITY` when a side is empty (no cut exists).
pub fn quotient_cut(h: &Hypergraph, bp: &Bipartition) -> f64 {
    let (l, r) = bp.counts();
    let denom = l.min(r);
    if denom == 0 {
        return f64::INFINITY;
    }
    cut_size(h, bp) as f64 / denom as f64
}

/// The ratio cut `cut / (|V_L| · |V_R|)` of Wei–Cheng / Leighton–Rao.
///
/// Returns `f64::INFINITY` when a side is empty.
pub fn ratio_cut(h: &Hypergraph, bp: &Bipartition) -> f64 {
    let (l, r) = bp.counts();
    if l == 0 || r == 0 {
        return f64::INFINITY;
    }
    cut_size(h, bp) as f64 / (l as f64 * r as f64)
}

/// Per-edge pin counts on each side: `counts[e.index()][side.index()]`.
///
/// This is the incremental-state seed used by the move-based baselines
/// (FM, SA); exposed here so their invariants can be property-tested
/// against the ground-truth metrics above.
pub fn pin_counts(h: &Hypergraph, bp: &Bipartition) -> Vec<[u32; 2]> {
    let mut counts = Vec::new();
    pin_counts_into(h, bp, &mut counts);
    counts
}

/// [`pin_counts`] writing into a reusable buffer (which the free function
/// delegates to); a warm buffer makes repeated recounts allocation-free.
pub fn pin_counts_into(h: &Hypergraph, bp: &Bipartition, counts: &mut Vec<[u32; 2]>) {
    counts.clear();
    counts.resize(h.num_edges(), [0u32; 2]);
    for e in h.edges() {
        for &p in h.pins(e) {
            counts[e.index()][bp.side(p).index()] += 1; // fhp-audit: allow(panic-site) — pins/ids in-range by Hypergraph construction; documented `# Panics` contract
        }
    }
}

/// A cut summary bundling the standard metrics, convenient for printing.
#[derive(Clone, Debug, PartialEq)]
pub struct CutReport {
    /// Number of crossing hyperedges.
    pub cut_size: usize,
    /// Weighted cut.
    pub weighted_cut: u64,
    /// `(left count, right count)`.
    pub counts: (usize, usize),
    /// `(left weight, right weight)`.
    pub weights: (u64, u64),
    /// Quotient cut value.
    pub quotient: f64,
}

impl CutReport {
    /// Computes the full report for `bp` on `h`, counting the cut in one
    /// pass over the pins ([`cut_totals`]).
    pub fn new(h: &Hypergraph, bp: &Bipartition) -> Self {
        let (cut_size, weighted_cut) = cut_totals(h, bp);
        let counts = bp.counts();
        Self {
            cut_size,
            weighted_cut,
            counts,
            weights: bp.weights(h),
            quotient: Objective::QuotientCut.score(cut_size, weighted_cut, counts),
        }
    }
}

/// The objective a partitioner optimizes when comparing candidate cuts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum Objective {
    /// Minimize the number of crossing hyperedges (the paper's default).
    #[default]
    CutSize,
    /// Minimize the weighted cut.
    WeightedCut,
    /// Minimize the quotient cut `cut / min(|V_L|, |V_R|)`.
    QuotientCut,
    /// Minimize the ratio cut `cut / (|V_L| · |V_R|)`.
    RatioCut,
}

impl Objective {
    /// Evaluates the objective (lower is better): one pass over the pins
    /// ([`cut_totals`]), scored by [`score`](Self::score). Invalid cuts
    /// (an empty side) score `f64::INFINITY` under every objective.
    pub fn evaluate(self, h: &Hypergraph, bp: &Bipartition) -> f64 {
        let (cut, weighted) = cut_totals(h, bp);
        self.score(cut, weighted, bp.counts())
    }

    /// The objective's value for a bipartition with `counts` vertices per
    /// side, `cut_size` crossing hyperedges and a crossing weight of
    /// `weighted_cut` ([`cut_totals`]), without another pass over the pins.
    /// `f64::INFINITY` when a side is empty.
    pub fn score(self, cut_size: usize, weighted_cut: u64, counts: (usize, usize)) -> f64 {
        let (l, r) = counts;
        if l == 0 || r == 0 {
            return f64::INFINITY;
        }
        match self {
            Objective::CutSize => cut_size as f64,
            Objective::WeightedCut => weighted_cut as f64,
            Objective::QuotientCut => cut_size as f64 / l.min(r) as f64,
            Objective::RatioCut => cut_size as f64 / (l as f64 * r as f64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Side;
    use fhp_hypergraph::{HypergraphBuilder, VertexId as V};

    /// Two triangles joined by one bridge edge.
    fn bridged() -> Hypergraph {
        let mut b = HypergraphBuilder::with_vertices(6);
        b.add_edge([V::new(0), V::new(1), V::new(2)]).unwrap();
        b.add_weighted_edge([V::new(2), V::new(3)], 5).unwrap();
        b.add_edge([V::new(3), V::new(4), V::new(5)]).unwrap();
        b.build()
    }

    fn half_split() -> Bipartition {
        Bipartition::from_fn(6, |v| {
            if v.index() < 3 {
                Side::Left
            } else {
                Side::Right
            }
        })
    }

    #[test]
    fn cut_counts_only_crossing_edges() {
        let h = bridged();
        let bp = half_split();
        assert_eq!(cut_size(&h, &bp), 1);
        assert_eq!(crossing_edges(&h, &bp), vec![EdgeId::new(1)]);
        assert!(edge_crosses(&h, &bp, EdgeId::new(1)));
        assert!(!edge_crosses(&h, &bp, EdgeId::new(0)));
    }

    #[test]
    fn weighted_cut_respects_edge_weights() {
        let h = bridged();
        assert_eq!(weighted_cut(&h, &half_split()), 5);
    }

    #[test]
    fn quotient_and_ratio() {
        let h = bridged();
        let bp = half_split();
        assert!((quotient_cut(&h, &bp) - 1.0 / 3.0).abs() < 1e-12);
        assert!((ratio_cut(&h, &bp) - 1.0 / 9.0).abs() < 1e-12);
        let degenerate = Bipartition::all_left(6);
        assert!(quotient_cut(&h, &degenerate).is_infinite());
        assert!(ratio_cut(&h, &degenerate).is_infinite());
    }

    #[test]
    fn imbalance() {
        let h = bridged();
        assert_eq!(weight_imbalance(&h, &half_split()), 0);
        let mut bp = half_split();
        bp.set(V::new(3), Side::Left);
        assert_eq!(weight_imbalance(&h, &bp), 2);
    }

    #[test]
    fn pin_counts_match_direct() {
        let h = bridged();
        let bp = half_split();
        let counts = pin_counts(&h, &bp);
        assert_eq!(counts[0], [3, 0]);
        assert_eq!(counts[1], [1, 1]);
        assert_eq!(counts[2], [0, 3]);
        // edge crosses iff both side counts positive
        for e in h.edges() {
            let c = counts[e.index()];
            assert_eq!(c[0] > 0 && c[1] > 0, edge_crosses(&h, &bp, e));
        }
    }

    #[test]
    fn report_bundles_consistently() {
        let h = bridged();
        let bp = half_split();
        let r = CutReport::new(&h, &bp);
        assert_eq!(r.cut_size, 1);
        assert_eq!(r.weighted_cut, 5);
        assert_eq!(r.counts, (3, 3));
        assert_eq!(r.weights, (3, 3));
        assert!((r.quotient - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn objectives_evaluate() {
        let h = bridged();
        let bp = half_split();
        assert_eq!(Objective::CutSize.evaluate(&h, &bp), 1.0);
        assert_eq!(Objective::WeightedCut.evaluate(&h, &bp), 5.0);
        assert!((Objective::QuotientCut.evaluate(&h, &bp) - 1.0 / 3.0).abs() < 1e-12);
        assert!((Objective::RatioCut.evaluate(&h, &bp) - 1.0 / 9.0).abs() < 1e-12);
        assert!(Objective::CutSize
            .evaluate(&h, &Bipartition::all_left(6))
            .is_infinite());
        assert_eq!(Objective::default(), Objective::CutSize);
    }

    #[test]
    fn score_from_counts_matches_the_free_metrics_for_every_objective() {
        let h = bridged();
        let mut cuts = vec![half_split(), Bipartition::all_left(6)];
        for mask in [0b000001u32, 0b010110, 0b101010, 0b111110, 0b111111] {
            cuts.push(Bipartition::from_fn(6, |v| {
                if mask >> v.index() & 1 == 1 {
                    Side::Right
                } else {
                    Side::Left
                }
            }));
        }
        for bp in &cuts {
            let (cut, weighted) = cut_totals(&h, bp);
            assert_eq!((cut, weighted), (cut_size(&h, bp), weighted_cut(&h, bp)));
            for (objective, expected) in [
                (Objective::CutSize, cut_size(&h, bp) as f64),
                (Objective::WeightedCut, weighted_cut(&h, bp) as f64),
                (Objective::QuotientCut, quotient_cut(&h, bp)),
                (Objective::RatioCut, ratio_cut(&h, bp)),
            ] {
                // an empty side scores INFINITY under every objective
                let expected = if bp.is_valid_cut() {
                    expected
                } else {
                    f64::INFINITY
                };
                let derived = objective.score(cut, weighted, bp.counts());
                assert_eq!(
                    derived.to_bits(),
                    expected.to_bits(),
                    "{objective:?} on {bp}"
                );
            }
        }
    }

    #[test]
    fn single_pin_edge_never_crosses() {
        let mut b = HypergraphBuilder::with_vertices(2);
        b.add_edge([V::new(0)]).unwrap();
        let h = b.build();
        let bp = Bipartition::from_sides(vec![Side::Left, Side::Right]);
        assert_eq!(cut_size(&h, &bp), 0);
    }
}
