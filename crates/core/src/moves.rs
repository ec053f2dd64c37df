//! Shared incremental-move machinery for every move-based engine: the FM
//! pass that refines the multilevel V-cycle and the FM baseline, KL and
//! simulated annealing.
//!
//! They all revolve around the same primitive:
//! flip one vertex across the cut and know the cut-size change in
//! `O(deg(v))`. [`MoveState`] maintains per-edge pin counts per side, the
//! running weighted cut, and the side weights, exactly as
//! Fiduccia–Mattheyses prescribe; its consistency against the ground-truth
//! metrics is property-tested.

use crate::{metrics, Bipartition, Side};
use fhp_hypergraph::{EdgeId, Hypergraph, VertexId};

/// Incrementally-maintained cut state for single-vertex moves.
#[derive(Clone, Debug)]
pub struct MoveState<'a> {
    h: &'a Hypergraph,
    bp: Bipartition,
    /// `counts[e][side]` = pins of edge `e` on `side`.
    counts: Vec<[u32; 2]>,
    /// Current weighted cut.
    cut: u64,
    /// Vertex weight per side.
    weights: [u64; 2],
}

impl<'a> MoveState<'a> {
    /// Builds the state for an initial partition.
    ///
    /// # Panics
    ///
    /// Panics if `bp` does not cover `h`'s vertices.
    pub fn new(h: &'a Hypergraph, bp: Bipartition) -> Self {
        Self::new_reusing(h, bp, Vec::new())
    }

    /// [`new`](Self::new) reusing a pin-count buffer (typically one taken
    /// back via [`into_parts`](Self::into_parts)); a warm buffer makes
    /// rebuilding the state allocation-free. Semantics are identical —
    /// `new` delegates here with an empty buffer.
    ///
    /// # Panics
    ///
    /// Panics if `bp` does not cover `h`'s vertices.
    pub fn new_reusing(h: &'a Hypergraph, bp: Bipartition, mut counts_buf: Vec<[u32; 2]>) -> Self {
        assert_eq!(bp.len(), h.num_vertices(), "partition size mismatch");
        metrics::pin_counts_into(h, &bp, &mut counts_buf);
        let cut = metrics::weighted_cut(h, &bp);
        let weights = {
            let (l, r) = bp.weights(h);
            [l, r]
        };
        Self {
            h,
            bp,
            counts: counts_buf,
            cut,
            weights,
        }
    }

    /// The underlying hypergraph (the borrow lives as long as the state's
    /// source, not the state itself, so callers can hold it across
    /// mutations).
    pub fn hypergraph(&self) -> &'a Hypergraph {
        self.h
    }

    /// The current partition.
    pub fn partition(&self) -> &Bipartition {
        &self.bp
    }

    /// Consumes the state, returning the partition.
    pub fn into_partition(self) -> Bipartition {
        self.bp
    }

    /// Consumes the state, returning the partition and the pin-count
    /// buffer so a caller can hand the buffer back to
    /// [`new_reusing`](Self::new_reusing) for the next rebuild.
    pub fn into_parts(self) -> (Bipartition, Vec<[u32; 2]>) {
        (self.bp, self.counts)
    }

    /// Current weighted cut.
    pub fn cut(&self) -> u64 {
        self.cut
    }

    /// Current side weights `(left, right)`.
    pub fn side_weights(&self) -> (u64, u64) {
        (self.weights[0], self.weights[1]) // fhp-audit: allow(panic-site) — gain/locked buffers sized to the graph at entry; ids in-range by construction
    }

    /// Current side of `v`.
    pub fn side(&self, v: VertexId) -> Side {
        self.bp.side(v)
    }

    /// Pins of net `e` on `side`: the count the FM pass reads to tell a
    /// move's critical nets from the rest.
    pub(crate) fn pins_on(&self, e: EdgeId, side: Side) -> u32 {
        self.counts
            .get(e.index())
            .and_then(|c| c.get(side.index()))
            .copied()
            .unwrap_or(0)
    }

    /// The FM *gain* of moving `v` to the other side: the decrease in
    /// weighted cut (positive gain = improvement). `O(deg(v))`.
    pub fn gain(&self, v: VertexId) -> i64 {
        let from = self.bp.side(v).index();
        let to = 1 - from;
        let mut gain = 0i64;
        for &e in self.h.edges_of(v) {
            let w = self.h.edge_weight(e) as i64;
            let c = self.counts[e.index()]; // fhp-audit: allow(panic-site) — gain/locked buffers sized to the graph at entry; ids in-range by construction
                                            // fhp-audit: allow(panic-site) — gain/locked buffers sized to the graph at entry; ids in-range by construction
            if c[from] == 1 && c[to] > 0 {
                gain += w; // v is the lone pin on its side: edge uncuts
                           // fhp-audit: allow(panic-site) — gain/locked buffers sized to the graph at entry; ids in-range by construction
            } else if c[to] == 0 && c[from] > 1 {
                gain -= w; // edge currently internal: v's move cuts it
            }
        }
        gain
    }

    /// Applies the flip of `v`, updating counts, cut and weights.
    pub fn apply_flip(&mut self, v: VertexId) {
        let from = self.bp.side(v).index();
        let to = 1 - from;
        for &e in self.h.edges_of(v) {
            let w = self.h.edge_weight(e);
            let c = &mut self.counts[e.index()]; // fhp-audit: allow(panic-site) — gain/locked buffers sized to the graph at entry; ids in-range by construction
            let was_cut = c[0] > 0 && c[1] > 0; // fhp-audit: allow(panic-site) — gain/locked buffers sized to the graph at entry; ids in-range by construction
            c[from] -= 1; // fhp-audit: allow(panic-site) — gain/locked buffers sized to the graph at entry; ids in-range by construction
            c[to] += 1; // fhp-audit: allow(panic-site) — gain/locked buffers sized to the graph at entry; ids in-range by construction
            let is_cut = c[0] > 0 && c[1] > 0; // fhp-audit: allow(panic-site) — gain/locked buffers sized to the graph at entry; ids in-range by construction
            match (was_cut, is_cut) {
                (false, true) => self.cut += w,
                (true, false) => self.cut -= w,
                _ => {}
            }
        }
        let vw = self.h.vertex_weight(v);
        self.weights[from] -= vw; // fhp-audit: allow(panic-site) — gain/locked buffers sized to the graph at entry; ids in-range by construction
        self.weights[to] += vw; // fhp-audit: allow(panic-site) — gain/locked buffers sized to the graph at entry; ids in-range by construction
        self.bp.flip(v);
    }

    /// Exact weighted-cut change of swapping `a` (left side) with `b`
    /// (right side) — or any two vertices on opposite sides — in
    /// `O(deg(a) + deg(b))`. Edges containing both vertices are unaffected
    /// by a swap and contribute zero.
    ///
    /// Negative result = the swap improves the cut.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` are on the same side.
    pub fn swap_delta(&self, a: VertexId, b: VertexId) -> i64 {
        assert_ne!(
            self.bp.side(a),
            self.bp.side(b),
            "swap requires opposite sides"
        );
        let mut delta = 0i64;
        for (v, other) in [(a, b), (b, a)] {
            let from = self.bp.side(v).index();
            let to = 1 - from;
            for &e in self.h.edges_of(v) {
                if self.h.pins(e).binary_search(&other).is_ok() {
                    continue; // both endpoints in e: swap leaves counts alone
                }
                let w = self.h.edge_weight(e) as i64;
                let c = self.counts[e.index()]; // fhp-audit: allow(panic-site) — gain/locked buffers sized to the graph at entry; ids in-range by construction
                let was_cut = c[0] > 0 && c[1] > 0; // fhp-audit: allow(panic-site) — gain/locked buffers sized to the graph at entry; ids in-range by construction
                let mut after = c;
                after[from] -= 1; // fhp-audit: allow(panic-site) — gain/locked buffers sized to the graph at entry; ids in-range by construction
                after[to] += 1; // fhp-audit: allow(panic-site) — gain/locked buffers sized to the graph at entry; ids in-range by construction
                let is_cut = after[0] > 0 && after[1] > 0; // fhp-audit: allow(panic-site) — gain/locked buffers sized to the graph at entry; ids in-range by construction
                delta += w * (is_cut as i64 - was_cut as i64);
            }
        }
        delta
    }

    /// Applies a swap (two flips).
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` are on the same side.
    pub fn apply_swap(&mut self, a: VertexId, b: VertexId) {
        assert_ne!(self.bp.side(a), self.bp.side(b));
        self.apply_flip(a);
        self.apply_flip(b);
    }

    /// Consistency check: recomputes pin counts, cut and side weights
    /// from scratch and compares them against the incrementally
    /// maintained state. Returns the first mismatch as a typed error
    /// rather than asserting, so external verifiers (the `fhp-verify`
    /// oracle harness, debugging sessions) can report it without
    /// unwinding.
    pub fn verify(&self) -> Result<(), MoveStateMismatch> {
        let counts = metrics::pin_counts(self.h, &self.bp);
        if self.counts != counts {
            let edge = self
                .counts
                .iter()
                .zip(counts.iter())
                .position(|(a, b)| a != b)
                .unwrap_or(0);
            return Err(MoveStateMismatch::PinCounts {
                edge,
                tracked: self.counts.get(edge).copied().unwrap_or([0, 0]),
                actual: counts.get(edge).copied().unwrap_or([0, 0]),
            });
        }
        let cut = metrics::weighted_cut(self.h, &self.bp);
        if self.cut != cut {
            return Err(MoveStateMismatch::Cut {
                tracked: self.cut,
                actual: cut,
            });
        }
        let (l, r) = self.bp.weights(self.h);
        let [tl, tr] = self.weights;
        if (tl, tr) != (l, r) {
            return Err(MoveStateMismatch::SideWeights {
                tracked: (tl, tr),
                actual: (l, r),
            });
        }
        Ok(())
    }
}

/// A divergence between [`MoveState`]'s incrementally maintained fields
/// and a from-scratch recomputation, found by [`MoveState::verify`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MoveStateMismatch {
    /// Tracked per-side pin counts of an edge disagree with a recount.
    PinCounts {
        /// Index of the first disagreeing edge.
        edge: usize,
        /// The incrementally maintained `[left, right]` counts.
        tracked: [u32; 2],
        /// The recounted `[left, right]` counts.
        actual: [u32; 2],
    },
    /// The running weighted cut disagrees with a recount.
    Cut {
        /// The incrementally maintained cut.
        tracked: u64,
        /// The recomputed cut.
        actual: u64,
    },
    /// The running side weights disagree with a recount.
    SideWeights {
        /// The incrementally maintained `(left, right)` weights.
        tracked: (u64, u64),
        /// The recomputed `(left, right)` weights.
        actual: (u64, u64),
    },
}

impl std::fmt::Display for MoveStateMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::PinCounts {
                edge,
                tracked,
                actual,
            } => write!(
                f,
                "move state pin counts of edge {edge} diverged: tracked {tracked:?}, actual {actual:?}"
            ),
            Self::Cut { tracked, actual } => write!(
                f,
                "move state cut diverged: tracked {tracked}, actual {actual}"
            ),
            Self::SideWeights { tracked, actual } => write!(
                f,
                "move state side weights diverged: tracked {tracked:?}, actual {actual:?}"
            ),
        }
    }
}

impl std::error::Error for MoveStateMismatch {}

/// A seeded random *balanced* starting partition: vertices shuffled, then
/// assigned greedily to the lighter side (so weights end near-equal).
pub fn random_balanced_start<R: rand::Rng + ?Sized>(h: &Hypergraph, rng: &mut R) -> Bipartition {
    use rand::seq::SliceRandom;
    let mut order: Vec<VertexId> = h.vertices().collect();
    order.shuffle(rng);
    let mut weights = [0u64; 2];
    let mut bp = Bipartition::all_left(h.num_vertices());
    for v in order {
        let side = Side::lighter(weights);
        bp.set(v, side);
        weights[side.index()] += h.vertex_weight(v); // fhp-audit: allow(panic-site) — gain/locked buffers sized to the graph at entry; ids in-range by construction
    }
    bp
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhp_hypergraph::intersection::paper_example;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn gain_matches_flip_outcome() {
        let h = paper_example();
        let mut rng = StdRng::seed_from_u64(2);
        let bp = random_balanced_start(&h, &mut rng);
        let mut st = MoveState::new(&h, bp);
        for i in 0..h.num_vertices() {
            let v = VertexId::new(i);
            let before = st.cut();
            let g = st.gain(v);
            st.apply_flip(v);
            assert_eq!(st.cut() as i64, before as i64 - g, "vertex {v}");
            st.apply_flip(v); // restore
            assert_eq!(st.cut(), before);
        }
        st.verify().expect("state stays consistent");
    }

    #[test]
    fn swap_delta_matches_two_flips() {
        let h = paper_example();
        let mut rng = StdRng::seed_from_u64(3);
        let bp = random_balanced_start(&h, &mut rng);
        let st = MoveState::new(&h, bp);
        for i in 0..h.num_vertices() {
            for j in 0..h.num_vertices() {
                let (a, b) = (VertexId::new(i), VertexId::new(j));
                if st.side(a) == st.side(b) {
                    continue;
                }
                let mut sim = st.clone();
                let predicted = st.swap_delta(a, b);
                sim.apply_swap(a, b);
                assert_eq!(
                    sim.cut() as i64 - st.cut() as i64,
                    predicted,
                    "swap {a} {b}"
                );
            }
        }
    }

    #[test]
    fn random_walk_stays_consistent() {
        let h = paper_example();
        let mut rng = StdRng::seed_from_u64(7);
        let bp = random_balanced_start(&h, &mut rng);
        let mut st = MoveState::new(&h, bp);
        for _ in 0..200 {
            let v = VertexId::new(rng.gen_range(0..h.num_vertices()));
            st.apply_flip(v);
        }
        st.verify().expect("state stays consistent");
    }

    #[test]
    fn balanced_start_is_balanced() {
        let h = paper_example();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            let bp = random_balanced_start(&h, &mut rng);
            assert!(bp.cardinality_imbalance() <= 1);
        }
    }

    #[test]
    fn side_weights_track() {
        let h = paper_example();
        let mut rng = StdRng::seed_from_u64(4);
        let mut st = MoveState::new(&h, random_balanced_start(&h, &mut rng));
        let (l, r) = st.side_weights();
        assert_eq!(l + r, h.total_vertex_weight());
        st.apply_flip(VertexId::new(0));
        let (l2, r2) = st.side_weights();
        assert_eq!(l2 + r2, h.total_vertex_weight());
        assert_ne!((l, r), (l2, r2));
    }

    #[test]
    fn verify_reports_typed_mismatches() {
        let h = paper_example();
        let mut st = MoveState::new(&h, Bipartition::all_left(h.num_vertices()));
        assert_eq!(st.verify(), Ok(()));

        let mut tampered = st.clone();
        tampered.cut += 1;
        match tampered.verify() {
            Err(MoveStateMismatch::Cut { tracked, actual }) => {
                assert_eq!(tracked, actual + 1);
            }
            other => panic!("expected a cut mismatch, got {other:?}"),
        }

        let mut tampered = st.clone();
        tampered.weights[0] += 1;
        assert!(matches!(
            tampered.verify(),
            Err(MoveStateMismatch::SideWeights { .. })
        ));

        st.counts[2] = [99, 99];
        let err = st.verify().expect_err("pin counts diverged");
        assert!(matches!(err, MoveStateMismatch::PinCounts { edge: 2, .. }));
        assert!(err.to_string().contains("edge 2"));
    }

    #[test]
    #[should_panic(expected = "opposite sides")]
    fn swap_same_side_panics() {
        let h = paper_example();
        let st = MoveState::new(&h, Bipartition::all_left(h.num_vertices()));
        let _ = st.swap_delta(VertexId::new(0), VertexId::new(1));
    }
}
