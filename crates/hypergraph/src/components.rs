//! Connected components by union-find, numbered by their lowest member.
//!
//! [`connected_components`] labels modules joined by shared signals, for
//! [`Hypergraph::connected_components`](crate::Hypergraph::connected_components)
//! and for callers that hold pin lists without a hypergraph, and
//! [`DualIncidence`](crate::DualIncidence) labels kept nets joined by
//! shared modules, both with this one helper.
//! A union links the larger root under the smaller, so every root is its
//! set's lowest member; one scan in member order then numbers the sets in
//! order of their lowest member — the order a DFS started from each
//! unvisited member in turn discovers them.

use crate::VertexId;

/// The connected components of the vertices `0..num_vertices`, where two
/// vertices are connected if some pin list holds both.
///
/// Returns `(component_of, count)` with `component_of[v] ∈ 0..count`.
/// A vertex in no pin list forms a component of its own. Components are
/// numbered in order of their lowest vertex id — the order a scan over
/// vertex ids first discovers them — by one union-find pass over the
/// pins.
///
/// # Panics
///
/// Panics if `num_vertices` exceeds the `u32` id space or a pin is not
/// below it.
///
/// # Examples
///
/// ```
/// use fhp_hypergraph::{connected_components, VertexId};
///
/// let pins = [vec![VertexId::new(3), VertexId::new(1)], vec![VertexId::new(2)]];
/// assert_eq!(connected_components(4, &pins), (vec![0, 1, 2, 1], 3));
/// ```
pub fn connected_components<P>(num_vertices: usize, pin_lists: P) -> (Vec<u32>, usize)
where
    P: IntoIterator,
    P::Item: AsRef<[VertexId]>,
{
    let mut sets = LowestRootSets::new(num_vertices);
    for pins in pin_lists {
        sets.union_all(pins.as_ref().iter().map(|p| p.raw()));
    }
    sets.into_labels()
}

/// A disjoint-set forest over `0..n` whose roots are their sets' lowest
/// members.
pub(crate) struct LowestRootSets {
    /// Each member's parent, never above the member itself.
    parent: Vec<u32>,
}

impl LowestRootSets {
    /// `n` singleton sets.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the `u32` id space.
    pub(crate) fn new(n: usize) -> Self {
        // fhp-audit: allow(panic-site) — callers index u32 ids: module and G-vertex counts fit u32 by construction
        let n = u32::try_from(n).expect("member ids fit u32");
        Self {
            parent: (0..n).collect(),
        }
    }

    /// The root of `x`'s set, halving the path on the way.
    fn find(&mut self, mut x: u32) -> u32 {
        loop {
            let p = self.parent[x as usize]; // fhp-audit: allow(panic-site) — members and their parents are < n by construction
            if p == x {
                return x;
            }
            let grand = self.parent[p as usize]; // fhp-audit: allow(panic-site) — members and their parents are < n by construction
            self.parent[x as usize] = grand; // fhp-audit: allow(panic-site) — members and their parents are < n by construction
            x = grand;
        }
    }

    /// Merges the sets of all `members` into one, each larger root under
    /// the smaller.
    pub(crate) fn union_all(&mut self, members: impl IntoIterator<Item = u32>) {
        let mut members = members.into_iter();
        let Some(first) = members.next() else {
            return;
        };
        let mut root = self.find(first);
        for x in members {
            let other = self.find(x);
            if other != root {
                self.parent[root.max(other) as usize] = root.min(other); // fhp-audit: allow(panic-site) — roots are members, < n
                root = root.min(other);
            }
        }
    }

    /// Each member's set number, the sets numbered in order of their
    /// lowest member, and the number of sets.
    pub(crate) fn into_labels(mut self) -> (Vec<u32>, usize) {
        // A parent lies below its member and in the same set, so in member
        // order every parent's entry already holds the set's label; a root
        // is its set's lowest member and opens the next number.
        let mut count = 0u32;
        for x in 0..self.parent.len() {
            let p = self.parent[x] as usize; // fhp-audit: allow(panic-site) — x < n
                                             // fhp-audit: allow(panic-site) — x < n
            self.parent[x] = if p == x {
                count += 1;
                count - 1
            } else {
                self.parent[p] // fhp-audit: allow(panic-site) — p < x, already relabelled
            };
        }
        (self.parent, count as usize)
    }
}
