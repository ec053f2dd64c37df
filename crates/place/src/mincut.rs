//! The recursive min-cut placer.
//!
//! Breuer-style placement: recursively bipartition the netlist, assigning
//! each side to one half of the current slot region, alternating cut
//! directions (quadrature placement). The partitioner is pluggable — the
//! whole point of the paper is that a faster bipartitioner of equal
//! quality makes this loop cheap — and *terminal alignment* approximates
//! Dunlop–Kernighan terminal propagation: when a region is split, the two
//! possible orientations of the cut are scored by how well they pull nets
//! toward their external pins, using the evolving region centers of
//! not-yet-fixed modules.

use fhp_core::multiway::repair_capacity;
use fhp_core::{Bipartition, Bipartitioner, PartitionError, Side};
use fhp_hypergraph::subhypergraph::Subhypergraph;
use fhp_hypergraph::{Hypergraph, VertexId};

use crate::{PlaceError, Placement, Slot, SlotGrid};

/// A rectangular sub-region of the grid: rows `r0..r1`, cols `c0..c1`.
#[derive(Clone, Copy, Debug)]
struct Rect {
    r0: usize,
    r1: usize,
    c0: usize,
    c1: usize,
}

impl Rect {
    fn area(&self) -> usize {
        (self.r1 - self.r0) * (self.c1 - self.c0)
    }

    fn center(&self) -> (f64, f64) {
        (
            (self.r0 + self.r1) as f64 / 2.0,
            (self.c0 + self.c1) as f64 / 2.0,
        )
    }

    /// Splits along the longer dimension; returns the two halves.
    fn split(&self) -> (Rect, Rect) {
        if self.c1 - self.c0 >= self.r1 - self.r0 {
            let cm = self.c0 + (self.c1 - self.c0) / 2;
            (Rect { c1: cm, ..*self }, Rect { c0: cm, ..*self })
        } else {
            let rm = self.r0 + (self.r1 - self.r0) / 2;
            (Rect { r1: rm, ..*self }, Rect { r0: rm, ..*self })
        }
    }
}

/// Recursive min-cut placer with a pluggable bipartitioner.
///
/// The factory receives a deterministic region id, so every region can get
/// an independently seeded partitioner while the whole placement stays
/// reproducible.
///
/// # Examples
///
/// ```
/// use fhp_core::{Algorithm1, Bipartitioner, PartitionConfig};
/// use fhp_hypergraph::Netlist;
/// use fhp_place::{wirelength, MinCutPlacer, SlotGrid};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let nl = Netlist::parse("a: 1 2\nb: 2 3\nc: 3 4\n")?;
/// let placer = MinCutPlacer::new(|region| {
///     Box::new(Algorithm1::new(PartitionConfig::new().starts(4).seed(region)))
///         as Box<dyn Bipartitioner>
/// });
/// let placement = placer.place(nl.hypergraph(), SlotGrid::row(4))?;
/// // the chain 1-2-3-4 places in chain order (or its mirror): HPWL 3
/// assert_eq!(wirelength::total_hpwl(nl.hypergraph(), &placement), 3);
/// # Ok(())
/// # }
/// ```
pub struct MinCutPlacer<F>
where
    F: Fn(u64) -> Box<dyn Bipartitioner>,
{
    factory: F,
    terminal_alignment: bool,
}

impl<F> std::fmt::Debug for MinCutPlacer<F>
where
    F: Fn(u64) -> Box<dyn Bipartitioner>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MinCutPlacer")
            .field("terminal_alignment", &self.terminal_alignment)
            .finish_non_exhaustive()
    }
}

impl<F> MinCutPlacer<F>
where
    F: Fn(u64) -> Box<dyn Bipartitioner>,
{
    /// Creates a placer; terminal alignment is on by default.
    pub fn new(factory: F) -> Self {
        Self {
            factory,
            terminal_alignment: true,
        }
    }

    /// Enables or disables terminal alignment (orientation selection by
    /// external-pin attraction).
    pub fn terminal_alignment(mut self, on: bool) -> Self {
        self.terminal_alignment = on;
        self
    }

    /// Places `h` into a single row of `h.num_vertices()` slots.
    ///
    /// # Errors
    ///
    /// Propagates [`PlaceError`] from grid validation or partitioning.
    pub fn place_row(&self, h: &Hypergraph) -> Result<Placement, PlaceError> {
        self.place(h, SlotGrid::row(h.num_vertices().max(1)))
    }

    /// Places `h` into `grid` by recursive min-cut bipartitioning.
    ///
    /// # Errors
    ///
    /// [`PlaceError::GridTooSmall`] if the modules outnumber the slots;
    /// [`PlaceError::Partition`] if a region's bipartitioner refuses its
    /// configuration ([`PartitionError::InvalidConfig`]). Any other
    /// failure on a region falls back to an even split.
    pub fn place(&self, h: &Hypergraph, grid: SlotGrid) -> Result<Placement, PlaceError> {
        if h.num_vertices() > grid.num_slots() {
            return Err(PlaceError::GridTooSmall {
                modules: h.num_vertices(),
                slots: grid.num_slots(),
            });
        }
        let whole = Rect {
            r0: 0,
            r1: grid.rows(),
            c0: 0,
            c1: grid.cols(),
        };
        // Approximate coordinates: every module starts at the grid center
        // and is refined level by level as its region shrinks.
        let mut approx: Vec<(f64, f64)> = vec![whole.center(); h.num_vertices()];
        let mut slots: Vec<Slot> = vec![Slot::default(); h.num_vertices()];

        // Level-synchronous recursion so terminal alignment at each level
        // sees the freshest region centers of every other module.
        let all: Vec<VertexId> = h.vertices().collect();
        let mut wave: Vec<(Vec<VertexId>, Rect, u64)> = vec![(all, whole, 1)];
        while !wave.is_empty() {
            let mut next = Vec::new();
            for (cells, rect, region_id) in wave.drain(..) {
                if cells.is_empty() {
                    continue;
                }
                if cells.len() == 1 || rect.area() == 1 {
                    // Leaf: lay the cells out in scan order.
                    let mut it = cells.iter();
                    'fill: for r in rect.r0..rect.r1 {
                        for c in rect.c0..rect.c1 {
                            match it.next() {
                                Some(&v) => slots[v.index()] = Slot { row: r, col: c },
                                None => break 'fill,
                            }
                        }
                    }
                    continue;
                }
                let (half_a, half_b) = rect.split();
                let (left, right) =
                    self.split_cells(h, &cells, &approx, (half_a, half_b), region_id)?;
                for &v in &left {
                    approx[v.index()] = half_a.center();
                }
                for &v in &right {
                    approx[v.index()] = half_b.center();
                }
                next.push((left, half_a, region_id * 2));
                next.push((right, half_b, region_id * 2 + 1));
            }
            wave = next;
        }
        Placement::new(grid, slots)
    }

    /// Bipartitions `cells` for the two halves, repairs capacity, and
    /// orients the result by terminal attraction.
    fn split_cells(
        &self,
        h: &Hypergraph,
        cells: &[VertexId],
        approx: &[(f64, f64)],
        (half_a, half_b): (Rect, Rect),
        region_id: u64,
    ) -> Result<(Vec<VertexId>, Vec<VertexId>), PlaceError> {
        let sub = Subhypergraph::induce(h, cells);
        let bp = if sub.hypergraph().num_vertices() >= 2 {
            match (self.factory)(region_id).bipartition(sub.hypergraph()) {
                Ok(bp) => bp,
                // An invalid configuration fails every region alike.
                Err(e @ PartitionError::InvalidConfig { .. }) => {
                    return Err(PlaceError::Partition(e))
                }
                // A region with no internal signals can legitimately make
                // some partitioners unhappy; fall back to an even split.
                Err(_) => Bipartition::from_fn(cells.len(), |v| {
                    if v.index() < cells.len() / 2 {
                        Side::Left
                    } else {
                        Side::Right
                    }
                }),
            }
        } else {
            Bipartition::all_left(cells.len())
        };

        let mut bp = repair_capacity(sub.hypergraph(), bp, half_a.area(), half_b.area());

        if self.terminal_alignment {
            let keep = orientation_cost(h, &sub, &bp, approx, half_a, half_b);
            let mut mirrored = bp.clone();
            mirrored.mirror();
            // mirroring swaps counts, so only compare when both fit
            let (l, r) = mirrored.counts();
            if l <= half_a.area() && r <= half_b.area() {
                let flip = orientation_cost(h, &sub, &mirrored, approx, half_a, half_b);
                if flip < keep {
                    bp = mirrored;
                }
            }
        }

        let mut left = Vec::new();
        let mut right = Vec::new();
        for (i, &v) in cells.iter().enumerate() {
            match bp.side(VertexId::new(i)) {
                Side::Left => left.push(v),
                Side::Right => right.push(v),
            }
        }
        Ok((left, right))
    }
}

/// Terminal-attraction cost of an orientation: for every net with pins
/// both inside and outside the region — including nets with a *single*
/// internal pin, which the induced sub-hypergraph necessarily drops — the
/// distance between the external pins' centroid and the centers of the
/// halves its internal pins were assigned to. Lower = the orientation
/// points internal pins toward their external partners.
fn orientation_cost(
    h: &Hypergraph,
    sub: &Subhypergraph,
    bp: &Bipartition,
    approx: &[(f64, f64)],
    half_a: Rect,
    half_b: Rect,
) -> f64 {
    // child index of each parent vertex inside this region
    let mut child_of: std::collections::HashMap<VertexId, usize> = std::collections::HashMap::new();
    for (i, &v) in sub.parent_vertices().iter().enumerate() {
        child_of.insert(v, i);
    }
    // candidate nets: everything incident to a region cell, deduplicated
    let mut candidates: Vec<fhp_hypergraph::EdgeId> = sub
        .parent_vertices()
        .iter()
        .flat_map(|&v| h.edges_of(v).iter().copied())
        .collect();
    candidates.sort_unstable();
    candidates.dedup();

    let mut cost = 0.0;
    for e in candidates {
        let (mut er, mut ec, mut n_ext) = (0.0, 0.0, 0usize);
        let mut internal: Vec<usize> = Vec::new();
        for &p in h.pins(e) {
            match child_of.get(&p) {
                Some(&i) => internal.push(i),
                None => {
                    er += approx[p.index()].0;
                    ec += approx[p.index()].1;
                    n_ext += 1;
                }
            }
        }
        if n_ext == 0 {
            continue;
        }
        er /= n_ext as f64;
        ec /= n_ext as f64;
        for i in internal {
            let center = match bp.side(VertexId::new(i)) {
                Side::Left => half_a.center(),
                Side::Right => half_b.center(),
            };
            cost += (center.0 - er).abs() + (center.1 - ec).abs();
        }
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhp_core::{Algorithm1, PartitionConfig};
    use fhp_hypergraph::HypergraphBuilder;

    fn alg1_placer() -> MinCutPlacer<impl Fn(u64) -> Box<dyn Bipartitioner>> {
        MinCutPlacer::new(|region| {
            Box::new(Algorithm1::new(
                PartitionConfig::new().starts(4).seed(region),
            )) as Box<dyn Bipartitioner>
        })
    }

    fn chain(n: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::with_vertices(n);
        for i in 0..n - 1 {
            b.add_edge([VertexId::new(i), VertexId::new(i + 1)])
                .unwrap();
        }
        b.build()
    }

    #[test]
    fn an_invalid_bisector_configuration_is_an_error_not_an_even_split() {
        let placer = MinCutPlacer::new(|region| {
            Box::new(Algorithm1::new(
                PartitionConfig::new().starts(0).seed(region),
            )) as Box<dyn Bipartitioner>
        });
        let err = placer.place_row(&chain(8)).unwrap_err();
        assert!(
            matches!(
                err,
                PlaceError::Partition(PartitionError::InvalidConfig { .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn chain_places_in_order() {
        let h = chain(8);
        let p = alg1_placer().place_row(&h).unwrap();
        // a chain admits HPWL n-1 exactly when placed in order
        assert_eq!(crate::wirelength::total_hpwl(&h, &p), 7);
    }

    #[test]
    fn all_modules_get_distinct_slots() {
        let h = chain(10);
        let grid = SlotGrid::new(3, 4);
        let p = alg1_placer().place(&h, grid).unwrap();
        assert_eq!(p.len(), 10);
        let mut seen = std::collections::HashSet::new();
        for v in h.vertices() {
            assert!(seen.insert(p.slot_of(v)), "duplicate slot");
        }
    }

    #[test]
    fn grid_too_small_rejected() {
        let h = chain(5);
        let err = alg1_placer().place(&h, SlotGrid::new(2, 2)).unwrap_err();
        assert!(matches!(err, PlaceError::GridTooSmall { .. }));
    }

    #[test]
    fn capacity_repair_respects_halves() {
        // star: partitioners want a 1-vs-rest cut, but a 4-slot half forces
        // a repair
        let mut b = HypergraphBuilder::with_vertices(8);
        for i in 1..8 {
            b.add_edge([VertexId::new(0), VertexId::new(i)]).unwrap();
        }
        let h = b.build();
        let p = alg1_placer().place(&h, SlotGrid::new(2, 4)).unwrap();
        assert_eq!(p.len(), 8);
    }

    #[test]
    fn terminal_alignment_helps_or_ties_on_structured_input() {
        use fhp_gen::{CircuitNetlist, Technology};
        let h = CircuitNetlist::new(Technology::StdCell, 64, 110)
            .seed(3)
            .generate()
            .unwrap();
        let grid = SlotGrid::new(8, 8);
        let aligned = alg1_placer().place(&h, grid).unwrap();
        let unaligned = alg1_placer()
            .terminal_alignment(false)
            .place(&h, grid)
            .unwrap();
        let wa = crate::wirelength::total_hpwl(&h, &aligned);
        let wu = crate::wirelength::total_hpwl(&h, &unaligned);
        assert!(
            (wa as f64) <= wu as f64 * 1.15,
            "alignment made things much worse: {wa} vs {wu}"
        );
    }

    #[test]
    fn deterministic() {
        let h = chain(12);
        let a = alg1_placer().place_row(&h).unwrap();
        let b = alg1_placer().place_row(&h).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn single_module() {
        let mut b = HypergraphBuilder::with_vertices(1);
        b.add_edge([VertexId::new(0)]).unwrap();
        let h = b.build();
        let p = alg1_placer().place_row(&h).unwrap();
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn random_engine_also_places_validly() {
        use fhp_baselines::RandomCut;
        let h = chain(9);
        let placer = MinCutPlacer::new(|region| {
            Box::new(RandomCut::balanced(region)) as Box<dyn Bipartitioner>
        });
        let p = placer.place_row(&h).unwrap();
        assert_eq!(p.len(), 9);
    }
}
