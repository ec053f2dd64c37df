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
//!
//! # Gain updates on critical nets
//!
//! A pin's gain is `Σ w(e)·([its side holds 1 pin of e] − [the other side
//! holds 0])` over its nets, so a move of `v` changes only the gains of
//! pins on `v`'s nets, and only through nets whose counts cross those
//! thresholds. With `f` and `t` the post-move pin counts of a net on
//! `v`'s old and new sides, the net is *critical* when `f ≤ 1` or
//! `t ≤ 2`. A free pin left on the old side then gains
//! `w·([f = 1] + [t = 1])`, and a free pin on the new side loses
//! `w·([f = 0] + [t = 2])`; every other net leaves every gain as it was.
//! The pass applies these deltas to its gain cache and pushes each pin
//! whose gain changed once, with its final gain — the same heap entries a
//! full recompute of every free pin on `v`'s nets would push, so under
//! the total `(gain, id)` heap order the moves are the same too.
//!
//! The update is linear per pass: a net is critical at most 8 times in
//! one pass, so the gain updates visit at most `8·Σ|e|` pins.
//!
//! - A move *into* a side with `t ≤ 2` can happen at most twice per side,
//!   because a pin that moves in stays there, locked, for the rest of the
//!   pass.
//! - A move *out of* a side with `f ≤ 1` can happen at most twice per
//!   side, because only free pins move and no free pin ever enters a
//!   side, so the free pins on it only dwindle.
//!
//! Each changed gain costs one heap push, `O(log n)`. The deferred
//! re-queue, which puts back the moves the balance rule held off, is not
//! covered by that bound.

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
    scratch.touched.reset(n);
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
    let mut visited = 0usize;

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
        visited += update_gains(st, v, locked, gains, &mut scratch.touched, &mut heap);
    }
    debug_assert!(
        visited <= 8 * h.num_pins(),
        "gain updates visited {visited} pins"
    );

    for &v in moves.iter().skip(best_prefix).rev() {
        st.apply_flip(v);
    }
    debug_assert_eq!(st.cut(), best_cut);
    scratch.heap_buf = heap.into_vec();
    start_cut - best_cut
}

/// FM's gain update after `v` has moved (see the [module docs](self)):
/// adds each critical net's delta to the cached gains of its free pins,
/// then pushes every free pin whose gain changed onto `heap` once, with
/// its final gain. Returns the number of pins visited, the pins of `v`'s
/// critical nets.
fn update_gains(
    st: &MoveState<'_>,
    v: VertexId,
    locked: &[bool],
    gains: &mut [i64],
    touched: &mut Touched,
    heap: &mut BinaryHeap<(i64, u32)>,
) -> usize {
    let h = st.hypergraph();
    let to = st.side(v);
    let from = to.opposite();
    let mut visited = 0;
    for &e in h.edges_of(v) {
        let (f, t) = (st.pins_on(e, from), st.pins_on(e, to));
        if f > 1 && t > 2 {
            continue;
        }
        let w = h.edge_weight(e) as i64;
        let on_from = w * (i64::from(f == 1) + i64::from(t == 1));
        let on_to = -w * (i64::from(f == 0) + i64::from(t == 2));
        visited += h.edge_size(e);
        for &p in h.pins(e) {
            let delta = if st.side(p) == from { on_from } else { on_to };
            if delta == 0 || locked.get(p.index()) != Some(&false) {
                continue;
            }
            if let Some(gain) = gains.get_mut(p.index()) {
                touched.note(p, *gain);
                *gain += delta;
            }
        }
    }
    for (p, before) in touched.drain() {
        if let Some(&gain) = gains.get(p.index()) {
            if gain != before {
                heap.push((gain, p.index() as u32)); // fhp-audit: allow(as-cast-truncation) — pin index fits u32 by the VertexId representation
            }
        }
    }
    visited
}

/// The pins one move's gain update changed, each listed once with its
/// gain before the move.
#[derive(Clone, Debug, Default)]
struct Touched {
    pins: Vec<(VertexId, i64)>,
    listed: Vec<bool>,
}

impl Touched {
    fn with_capacity(n: usize) -> Self {
        Self {
            pins: Vec::with_capacity(n),
            listed: Vec::with_capacity(n),
        }
    }

    /// Empties the list and sizes the marks for `n` vertices.
    fn reset(&mut self, n: usize) {
        self.pins.clear();
        self.listed.clear();
        self.listed.resize(n, false);
    }

    /// Lists `p` with its gain `before` the move, unless it is listed.
    fn note(&mut self, p: VertexId, before: i64) {
        if let Some(listed) = self.listed.get_mut(p.index()) {
            if !*listed {
                *listed = true;
                self.pins.push((p, before));
            }
        }
    }

    /// Takes the listed pins out, clearing their marks.
    fn drain(&mut self) -> impl Iterator<Item = (VertexId, i64)> + '_ {
        let listed = &mut self.listed;
        self.pins.drain(..).inspect(move |(p, _)| {
            if let Some(slot) = listed.get_mut(p.index()) {
                *slot = false;
            }
        })
    }
}

/// Reusable buffers for the FM pass loop: the lock set, the gain
/// cache, the pins a move's gain update touched, the lazy heap's backing
/// store, the move log, the deferred queue, and the [`MoveState`]
/// pin-count table. Every buffer is fully reset at the start of each
/// pass, so a scratch abandoned mid-pass self-heals on reuse.
#[derive(Clone, Debug, Default)]
pub struct FmScratch {
    locked: Vec<bool>,
    gains: Vec<i64>,
    touched: Touched,
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
            touched: Touched::with_capacity(n),
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
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

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

    /// A random hypergraph on `n` weighted vertices whose nets range from
    /// one pin to all `n`, weighted 0 to 100.
    fn random_hypergraph(rng: &mut StdRng, n: usize, m: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let vs: Vec<_> = (0..n)
            .map(|_| b.add_weighted_vertex(rng.gen_range(1..4)))
            .collect();
        for _ in 0..m {
            let size = match rng.gen_range(0..4) {
                0 => n,
                1 => rng.gen_range(1..=n),
                _ => rng.gen_range(2..=3.min(n)),
            };
            let mut pins = vs.clone();
            pins.shuffle(rng);
            pins.truncate(size);
            let weight = [0, 1, 1, 2, 5, 100][rng.gen_range(0..6)];
            b.add_weighted_edge(pins, weight).unwrap();
        }
        b.build()
    }

    /// A start with `k` random vertices on the right, the rest left.
    fn start_with_right(rng: &mut StdRng, n: usize, k: usize) -> Bipartition {
        let mut ids: Vec<usize> = (0..n).collect();
        ids.shuffle(rng);
        let right = &ids[..k];
        Bipartition::from_fn(n, |v| {
            if right.contains(&v.index()) {
                Side::Right
            } else {
                Side::Left
            }
        })
    }

    /// Moves every vertex once in random order, as a pass does, checking
    /// after each move that every free vertex's cached gain equals a
    /// recompute and that `update_gains` pushed exactly the changed gains.
    /// Returns the pins the updates visited.
    fn drive_pass(st: &mut MoveState<'_>, scratch: &mut FmScratch, rng: &mut StdRng) -> usize {
        let n = st.hypergraph().num_vertices();
        scratch.locked.clear();
        scratch.locked.resize(n, false);
        scratch.gains.clear();
        scratch
            .gains
            .extend((0..n).map(|i| st.gain(VertexId::new(i))));
        scratch.touched.reset(n);
        let mut order: Vec<VertexId> = (0..n).map(VertexId::new).collect();
        order.shuffle(rng);
        let mut visited = 0;
        for v in order {
            let before: Vec<i64> = (0..n).map(|i| st.gain(VertexId::new(i))).collect();
            st.apply_flip(v);
            scratch.locked[v.index()] = true;
            let mut heap = BinaryHeap::new();
            visited += update_gains(
                st,
                v,
                &scratch.locked,
                &mut scratch.gains,
                &mut scratch.touched,
                &mut heap,
            );
            let mut expected = Vec::new();
            for (i, &was) in before.iter().enumerate() {
                if scratch.locked[i] {
                    continue;
                }
                let now = st.gain(VertexId::new(i));
                assert_eq!(scratch.gains[i], now, "gain of {i} after moving {v}");
                if now != was {
                    expected.push((now, i as u32));
                }
            }
            expected.sort_unstable();
            assert_eq!(heap.into_sorted_vec(), expected, "pushes after moving {v}");
        }
        visited
    }

    #[test]
    fn delta_gains_equal_recomputed_gains() {
        let mut rng = StdRng::seed_from_u64(26);
        for round in 0..60 {
            let n = rng.gen_range(2..24);
            let m = rng.gen_range(1..3 * n);
            let h = random_hypergraph(&mut rng, n, m);
            // sides from one pin up to an even split
            let k = [1, 2, n / 2, n - 1][round % 4].clamp(1, n - 1);
            let mut st = MoveState::new(&h, start_with_right(&mut rng, n, k));
            let mut scratch = FmScratch::new();
            for _ in 0..3 {
                drive_pass(&mut st, &mut scratch, &mut rng);
            }
            st.verify().expect("state stays consistent");
        }
    }

    #[test]
    fn gain_updates_visit_at_most_eight_pins_per_pin_of_a_net() {
        let mut rng = StdRng::seed_from_u64(8);
        // one net on all n vertices plus a chain: recomputing every free
        // pin of every net of the moved vertex visits at least n² pins
        let n = 200;
        let mut b = HypergraphBuilder::with_vertices(n);
        b.add_edge((0..n).map(VertexId::new)).unwrap();
        for i in 1..n {
            b.add_edge([VertexId::new(i - 1), VertexId::new(i)])
                .unwrap();
        }
        let mut instances = vec![b.build()];
        for _ in 0..20 {
            let n = rng.gen_range(2..40);
            let m = rng.gen_range(1..4 * n);
            instances.push(random_hypergraph(&mut rng, n, m));
        }
        for h in &instances {
            let n = h.num_vertices();
            for k in [1, n / 2] {
                let k = k.clamp(1, n - 1);
                let mut st = MoveState::new(h, start_with_right(&mut rng, n, k));
                let visited = drive_pass(&mut st, &mut FmScratch::new(), &mut rng);
                assert!(
                    visited <= 8 * h.num_pins(),
                    "{visited} pins visited, Σ|e| = {}",
                    h.num_pins()
                );
            }
        }
    }
}
