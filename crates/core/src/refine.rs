//! Fiduccia–Mattheyses boundary refinement: the workspace's one FM pass.
//!
//! This is the pass/rollback core of the classic FM heuristic (the
//! paper's ref. \[9\]): a lazy max-heap keyed on cached gains (stale
//! entries skipped), a balance criterion instead of strict alternation,
//! deferred moves re-queued when the balance state changes, and a
//! rollback to the best prefix after each pass. The
//! [`multilevel`](crate::multilevel) V-cycle refines every level with
//! [`refine_with`]; the `fhp-baselines` FM bipartitioner runs
//! [`run_passes_with`] from random starts, and its `Refined` hybrid calls
//! [`refine`]. Every caller runs the pass at one setting: at most 24
//! passes under [`balance_slack`]. Refinement is monotone (a pass never
//! returns a worse cut than it started with), which is what makes the
//! V-cycle's per-level cuts non-increasing.

use std::collections::BinaryHeap;

use fhp_hypergraph::{Hypergraph, VertexId};

use crate::moves::MoveState;
use crate::{Bipartition, Side};

/// Improvement passes per refinement: a run stops at its first gainless
/// pass or after this many.
const MAX_PASSES: usize = 24;

/// The weight-imbalance slack every move-based engine allows:
/// `|w(V_L) − w(V_R)|` may reach twice the heaviest vertex's weight, the
/// least slack that lets any vertex move off an exactly balanced split.
pub fn balance_slack(h: &Hypergraph) -> u64 {
    let heaviest = h.vertices().map(|v| h.vertex_weight(v)).max().unwrap_or(1);
    2 * heaviest
}

/// Improves an existing partition with FM passes until a pass yields no
/// gain. The weight-balance tolerance is [`balance_slack`], widened to the
/// start's own imbalance if that is larger, so refinement never has to
/// destroy a deliberately unbalanced input to begin improving it — and
/// the returned cut is never worse than `start`'s.
///
/// # Panics
///
/// Panics if `start` does not cover `h`'s vertices (via
/// [`MoveState::new`]).
///
/// # Examples
///
/// ```
/// use fhp_core::{metrics, refine, Bipartition, Side};
/// use fhp_hypergraph::intersection::paper_example;
///
/// let h = paper_example();
/// // a deliberately bad split: first half left, second half right
/// let start = Bipartition::from_fn(h.num_vertices(), |v| {
///     if v.index() < 6 { Side::Left } else { Side::Right }
/// });
/// let refined = refine::refine(&h, start.clone());
/// assert!(metrics::weighted_cut(&h, &refined) <= metrics::weighted_cut(&h, &start));
/// ```
pub fn refine(h: &Hypergraph, start: Bipartition) -> Bipartition {
    refine_with(h, start, &mut FmScratch::new())
}

/// [`refine`] with reusable buffers (which the plain function delegates
/// to). The multilevel V-cycle threads one scratch through every
/// per-level refinement so the uncoarsening walk stops allocating once
/// the finest level has warmed the buffers.
pub fn refine_with(h: &Hypergraph, start: Bipartition, scratch: &mut FmScratch) -> Bipartition {
    let start_imbalance = crate::metrics::weight_imbalance(h, &start);
    let tolerance = balance_slack(h).max(start_imbalance);
    run_passes_with(h, start, tolerance, scratch).0
}

/// Runs passes at an explicit tolerance until one yields no gain or 24
/// have run: [`refine`] without the adaptive widening, for callers that
/// manage the balance envelope themselves. Returns the partition and the
/// number of passes run, the last (gainless) one included.
pub fn run_passes_with(
    h: &Hypergraph,
    start: Bipartition,
    tolerance: u64,
    scratch: &mut FmScratch,
) -> (Bipartition, u64) {
    let mut st = MoveState::new_reusing(h, start, std::mem::take(&mut scratch.counts));
    let mut passes = 0u64;
    for _ in 0..MAX_PASSES {
        passes += 1;
        if pass_with(&mut st, tolerance, scratch) == 0 {
            break;
        }
    }
    let (bp, counts) = st.into_parts();
    scratch.counts = counts;
    (bp, passes)
}

/// One FM pass: move every vertex once (balance permitting), then roll
/// back to the best prefix. Returns the cut improvement (never makes the
/// cut worse).
fn pass_with(st: &mut MoveState<'_>, tolerance: u64, scratch: &mut FmScratch) -> u64 {
    let h = st.hypergraph();
    let n = h.num_vertices();
    let locked = &mut scratch.locked;
    locked.clear();
    locked.resize(n, false);
    let gains = &mut scratch.gains;
    gains.clear();
    gains.extend((0..n).map(|i| st.gain(VertexId::new(i))));
    let mut buf = std::mem::take(&mut scratch.heap_buf);
    buf.clear();
    buf.extend(gains.iter().enumerate().map(|(i, &g)| (g, i as u32))); // fhp-audit: allow(as-cast-truncation) — pin index fits u32 by the VertexId representation
    let mut heap = BinaryHeap::from(buf);
    let start_cut = st.cut();
    let mut best_cut = start_cut;
    let mut best_prefix = 0usize;
    let moves = &mut scratch.moves;
    moves.clear();
    let deferred = &mut scratch.deferred;
    deferred.clear();
    let (mut left_count, mut right_count) = st.partition().counts();

    while let Some((g, i)) = heap.pop() {
        let idx = i as usize;
        let v = VertexId::new(idx);
        if locked.get(idx) != Some(&false) || gains.get(idx) != Some(&g) {
            continue; // stale heap entry
        }
        // A move may never empty a side: a one-sided assignment is not
        // a cut, whatever its "cut size" says.
        let source_count = match st.side(v) {
            Side::Left => left_count,
            Side::Right => right_count,
        };
        if source_count == 1 {
            deferred.push((g, i));
            continue;
        }
        // Balance feasibility of moving v.
        let (wl, wr) = st.side_weights();
        let vw = h.vertex_weight(v) as i64;
        let imb = match st.side(v) {
            Side::Left => (wl as i64 - vw) - (wr as i64 + vw),
            Side::Right => (wl as i64 + vw) - (wr as i64 - vw),
        };
        if imb.unsigned_abs() > tolerance {
            deferred.push((g, i));
            continue;
        }
        // Legal highest-gain move: apply it. Re-queue deferred entries —
        // the balance state just changed, they may be legal now.
        heap.extend(deferred.drain(..));
        match st.side(v) {
            Side::Left => {
                left_count -= 1;
                right_count += 1;
            }
            Side::Right => {
                right_count -= 1;
                left_count += 1;
            }
        }
        st.apply_flip(v);
        if let Some(slot) = locked.get_mut(idx) {
            *slot = true;
        }
        moves.push(v);
        if st.cut() < best_cut {
            best_cut = st.cut();
            best_prefix = moves.len();
        }
        // Refresh gains of free pins on v's nets (the critical-net set).
        for &e in h.edges_of(v) {
            for &p in h.pins(e) {
                if locked.get(p.index()) != Some(&false) {
                    continue;
                }
                let g2 = st.gain(p);
                if let Some(slot) = gains.get_mut(p.index()) {
                    if *slot != g2 {
                        *slot = g2;
                        heap.push((g2, p.index() as u32)); // fhp-audit: allow(as-cast-truncation) — pin index fits u32 by the VertexId representation
                    }
                }
            }
        }
    }

    for &v in moves.iter().skip(best_prefix).rev() {
        st.apply_flip(v);
    }
    debug_assert_eq!(st.cut(), best_cut);
    scratch.heap_buf = heap.into_vec();
    start_cut - best_cut
}

/// Reusable buffers for the FM pass loop: the lock set, the gain
/// cache, the lazy heap's backing store, the move log, the deferred
/// queue, and the [`MoveState`] pin-count table. Every buffer is fully
/// reset at the start of each pass, so a scratch abandoned mid-pass
/// self-heals on reuse.
#[derive(Clone, Debug, Default)]
pub struct FmScratch {
    locked: Vec<bool>,
    gains: Vec<i64>,
    heap_buf: Vec<(i64, u32)>,
    moves: Vec<VertexId>,
    deferred: Vec<(i64, u32)>,
    counts: Vec<[u32; 2]>,
}

impl FmScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch pre-sized for hypergraphs of up to `n` vertices and `m`
    /// edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        Self {
            locked: Vec::with_capacity(n),
            gains: Vec::with_capacity(n),
            heap_buf: Vec::with_capacity(2 * n),
            moves: Vec::with_capacity(n),
            deferred: Vec::with_capacity(n),
            counts: Vec::with_capacity(m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use fhp_hypergraph::intersection::paper_example;
    use fhp_hypergraph::HypergraphBuilder;

    fn halves(n: usize) -> Bipartition {
        Bipartition::from_fn(n, |v| {
            if v.index() < n / 2 {
                Side::Left
            } else {
                Side::Right
            }
        })
    }

    #[test]
    fn refine_never_worsens_the_cut() {
        let h = paper_example();
        for rotate in 0..4 {
            let start = Bipartition::from_fn(12, |v| {
                if (v.index() + rotate) % 2 == 0 {
                    Side::Left
                } else {
                    Side::Right
                }
            });
            let before = metrics::weighted_cut(&h, &start);
            let refined = refine(&h, start);
            assert!(metrics::weighted_cut(&h, &refined) <= before);
            assert!(refined.is_valid_cut());
        }
    }

    #[test]
    fn finds_the_paper_optimum_from_a_plain_split() {
        let h = paper_example();
        let refined = refine(&h, halves(12));
        assert!(metrics::cut_size(&h, &refined) <= 2);
    }

    #[test]
    fn pass_improvement_accounting_is_exact() {
        let h = paper_example();
        let start = halves(12);
        let before = metrics::weighted_cut(&h, &start);
        let mut st = MoveState::new(&h, start);
        let imp = pass_with(&mut st, balance_slack(&h), &mut FmScratch::new());
        assert_eq!(st.cut() + imp, before);
        st.verify().expect("state stays consistent");
    }

    #[test]
    fn respects_imbalance_tolerance() {
        let mut b = HypergraphBuilder::new();
        let vs: Vec<_> = (0..8).map(|i| b.add_weighted_vertex(1 + i % 3)).collect();
        for w in vs.windows(2) {
            b.add_edge([w[0], w[1]]).unwrap();
        }
        let h = b.build();
        let refined = refine(&h, halves(8));
        assert!(metrics::weight_imbalance(&h, &refined) <= balance_slack(&h));
    }
}
