//! Bipartition types: which side of the cut each module is on.

use std::fmt;
use std::ops::Not;

use fhp_hypergraph::{Hypergraph, VertexId};

/// One side of a two-way cut.
///
/// The names follow the paper's `V_L` / `V_R` convention.
///
/// # Examples
///
/// ```
/// use fhp_core::Side;
///
/// assert_eq!(!Side::Left, Side::Right);
/// assert_eq!(Side::Left.opposite(), Side::Right);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Side {
    /// The left block, `V_L`.
    Left,
    /// The right block, `V_R`.
    Right,
}

impl Side {
    /// The other side.
    #[inline]
    pub fn opposite(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }

    /// `0` for [`Side::Left`], `1` for [`Side::Right`] — handy for indexing
    /// two-element arrays of per-side state.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Side::Left => 0,
            Side::Right => 1,
        }
    }

    /// The side carrying less of `weights` (`[left, right]`); ties go
    /// left. Every lighter-side placement rule in the crate reads it.
    ///
    /// ```
    /// use fhp_core::Side;
    ///
    /// assert_eq!(Side::lighter([3, 5]), Side::Left);
    /// assert_eq!(Side::lighter([5, 3]), Side::Right);
    /// assert_eq!(Side::lighter([4, 4]), Side::Left);
    /// ```
    #[inline]
    pub fn lighter(weights: [u64; 2]) -> Side {
        let [left, right] = weights;
        if right < left {
            Side::Right
        } else {
            Side::Left
        }
    }
}

impl Not for Side {
    type Output = Side;

    #[inline]
    fn not(self) -> Side {
        self.opposite()
    }
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Side::Left => "L",
            Side::Right => "R",
        })
    }
}

/// A full assignment of every hypergraph vertex to a side.
///
/// A `Bipartition` is a *cut* in the paper's sense only when both sides are
/// nonempty; use [`is_valid_cut`](Self::is_valid_cut) to check. The struct
/// is deliberately dumb — cut metrics live in [`crate::metrics`] so they can
/// be reused by every partitioner.
///
/// # Examples
///
/// ```
/// use fhp_core::{Bipartition, Side};
/// use fhp_hypergraph::VertexId;
///
/// let bp = Bipartition::from_fn(4, |v| if v.index() < 2 { Side::Left } else { Side::Right });
/// assert_eq!(bp.side(VertexId::new(0)), Side::Left);
/// assert_eq!(bp.count(Side::Right), 2);
/// assert!(bp.is_valid_cut());
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Bipartition {
    sides: Vec<Side>,
}

impl Bipartition {
    /// A partition placing all `n` vertices on [`Side::Left`].
    pub fn all_left(n: usize) -> Self {
        Self {
            sides: vec![Side::Left; n],
        }
    }

    /// Builds a partition by evaluating `f` on every vertex id.
    pub fn from_fn<F>(n: usize, mut f: F) -> Self
    where
        F: FnMut(VertexId) -> Side,
    {
        Self {
            sides: (0..n).map(|i| f(VertexId::new(i))).collect(),
        }
    }

    /// Builds a partition from an explicit side vector.
    pub fn from_sides(sides: Vec<Side>) -> Self {
        Self { sides }
    }

    /// Number of vertices covered.
    pub fn len(&self) -> usize {
        self.sides.len()
    }

    /// True if the partition covers zero vertices.
    pub fn is_empty(&self) -> bool {
        self.sides.is_empty()
    }

    /// Side of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn side(&self, v: VertexId) -> Side {
        self.sides[v.index()] // fhp-audit: allow(panic-site) — documented `# Panics` API contract; ids validated at construction
    }

    /// Reassigns vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn set(&mut self, v: VertexId, side: Side) {
        self.sides[v.index()] = side; // fhp-audit: allow(panic-site) — documented `# Panics` API contract; ids validated at construction
    }

    /// Moves `v` to the opposite side.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn flip(&mut self, v: VertexId) {
        self.sides[v.index()] = self.sides[v.index()].opposite(); // fhp-audit: allow(panic-site) — documented `# Panics` API contract; ids validated at construction
    }

    /// The raw side slice, indexed by vertex id.
    pub fn as_slice(&self) -> &[Side] {
        &self.sides
    }

    /// Number of vertices on `side`.
    pub fn count(&self, side: Side) -> usize {
        self.sides.iter().filter(|&&s| s == side).count()
    }

    /// `(left count, right count)`.
    pub fn counts(&self) -> (usize, usize) {
        let l = self.count(Side::Left);
        (l, self.sides.len() - l)
    }

    /// Vertices on `side`, ascending.
    pub fn vertices_on(&self, side: Side) -> Vec<VertexId> {
        self.sides
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s == side)
            .map(|(i, _)| VertexId::new(i))
            .collect()
    }

    /// Total vertex weight on `side` under `h`'s weights.
    ///
    /// # Panics
    ///
    /// Panics if `h` has a different vertex count.
    pub fn weight_on(&self, h: &Hypergraph, side: Side) -> u64 {
        assert_eq!(
            h.num_vertices(),
            self.len(),
            "partition/hypergraph mismatch"
        );
        self.sides
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s == side)
            .map(|(i, _)| h.vertex_weight(VertexId::new(i)))
            .sum()
    }

    /// `(left weight, right weight)`.
    pub fn weights(&self, h: &Hypergraph) -> (u64, u64) {
        (
            self.weight_on(h, Side::Left),
            self.weight_on(h, Side::Right),
        )
    }

    /// True when both sides are nonempty — i.e. this assignment is a *cut*.
    pub fn is_valid_cut(&self) -> bool {
        let (l, r) = self.counts();
        l > 0 && r > 0
    }

    /// Absolute cardinality imbalance `| |V_L| − |V_R| |`.
    pub fn cardinality_imbalance(&self) -> usize {
        let (l, r) = self.counts();
        l.abs_diff(r)
    }

    /// True if this is a *bisection*: `| |V_L| − |V_R| | ≤ 1`.
    pub fn is_bisection(&self) -> bool {
        self.cardinality_imbalance() <= 1
    }

    /// Resets to `n` vertices all on [`Side::Left`], reusing the buffer —
    /// the in-place counterpart of [`all_left`](Self::all_left).
    pub fn reset(&mut self, n: usize) {
        self.sides.clear();
        self.sides.resize(n, Side::Left);
    }

    /// Moves the lightest vertex of `h` across if one side is empty, so
    /// the assignment is a cut.
    pub(crate) fn ensure_valid_cut(&mut self, h: &Hypergraph) {
        if self.is_valid_cut() || self.len() < 2 {
            return;
        }
        if let Some(lightest) = h.vertices().min_by_key(|&v| h.vertex_weight(v)) {
            self.flip(lightest);
        }
    }

    /// Swaps the labels of the two sides in place (the cut is unchanged).
    pub fn mirror(&mut self) {
        for s in &mut self.sides {
            *s = s.opposite();
        }
    }
}

impl fmt::Display for Bipartition {
    /// Compact `LRLR…` rendering, one character per vertex.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.sides {
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhp_hypergraph::HypergraphBuilder;

    #[test]
    fn side_ops() {
        assert_eq!(Side::Left.opposite(), Side::Right);
        assert_eq!(!Side::Right, Side::Left);
        assert_eq!(Side::Left.index(), 0);
        assert_eq!(Side::Left.to_string(), "L");
    }

    #[test]
    fn counts_and_validity() {
        let mut bp = Bipartition::all_left(3);
        assert!(!bp.is_valid_cut());
        assert_eq!(bp.counts(), (3, 0));
        bp.set(VertexId::new(2), Side::Right);
        assert!(bp.is_valid_cut());
        assert_eq!(bp.count(Side::Right), 1);
        assert_eq!(bp.cardinality_imbalance(), 1);
        assert!(bp.is_bisection());
    }

    #[test]
    fn flip_and_mirror() {
        let mut bp = Bipartition::from_fn(2, |_| Side::Left);
        bp.flip(VertexId::new(0));
        assert_eq!(bp.side(VertexId::new(0)), Side::Right);
        bp.mirror();
        assert_eq!(bp.side(VertexId::new(0)), Side::Left);
        assert_eq!(bp.side(VertexId::new(1)), Side::Right);
    }

    #[test]
    fn weights() {
        let mut b = HypergraphBuilder::new();
        let v0 = b.add_weighted_vertex(3);
        let v1 = b.add_weighted_vertex(5);
        b.add_edge([v0, v1]).unwrap();
        let h = b.build();
        let bp = Bipartition::from_fn(2, |v| {
            if v.index() == 0 {
                Side::Left
            } else {
                Side::Right
            }
        });
        assert_eq!(bp.weights(&h), (3, 5));
    }

    #[test]
    fn vertices_on_side() {
        let bp = Bipartition::from_sides(vec![Side::Right, Side::Left, Side::Right]);
        assert_eq!(
            bp.vertices_on(Side::Right),
            vec![VertexId::new(0), VertexId::new(2)]
        );
        assert_eq!(bp.vertices_on(Side::Left), vec![VertexId::new(1)]);
    }

    #[test]
    fn display_compact() {
        let bp = Bipartition::from_sides(vec![Side::Left, Side::Right, Side::Left]);
        assert_eq!(bp.to_string(), "LRL");
    }

    #[test]
    fn empty_partition() {
        let bp = Bipartition::all_left(0);
        assert!(bp.is_empty());
        assert!(!bp.is_valid_cut());
        assert!(bp.is_bisection());
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn weight_on_size_mismatch_panics() {
        let h = HypergraphBuilder::with_vertices(3).build();
        let bp = Bipartition::all_left(2);
        let _ = bp.weight_on(&h, Side::Left);
    }
}
