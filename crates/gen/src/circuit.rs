//! Circuit-like netlist generator with technology profiles.
//!
//! The paper's industry test suite (PCB boards, standard-cell and
//! gate-array ICs, hybrids) is proprietary; this generator synthesizes
//! netlists with the two structural properties the paper identifies in
//! real designs:
//!
//! 1. **Logical hierarchy** — "our example netlists typically have
//!    intersection graph diameter greater than that of random hypergraphs
//!    with similar degree sequences. We suspect that this is due to natural
//!    functional partitions (logical hierarchy) within the netlist" (§4).
//!    Modules are arranged in a recursive block tree and most signals stay
//!    inside a block.
//! 2. **Technology-specific net-size and module-weight distributions**,
//!    including the occasional large bus net whose crossing behaviour
//!    Table 1 studies.

use fhp_hypergraph::{connected_components, Hypergraph, HypergraphBuilder, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::GenError;

/// Fabrication technology, controlling the net-size and module-weight
/// distributions (paper Table 1 rows).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Technology {
    /// Printed circuit board: chunky modules, many mid-size nets, frequent
    /// wide buses.
    Pcb,
    /// Standard-cell IC: small cells, 2–3-pin nets dominate, some buses.
    StdCell,
    /// Gate array: uniform cells, almost all 2–3-pin nets.
    GateArray,
    /// Hybrid (mixed macro + cell): widest weight spread, widest nets.
    Hybrid,
}

impl Technology {
    /// All four technologies, in the paper's Table 1 order.
    pub const ALL: [Technology; 4] = [
        Technology::Pcb,
        Technology::StdCell,
        Technology::GateArray,
        Technology::Hybrid,
    ];

    /// Display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            Technology::Pcb => "PCB",
            Technology::StdCell => "Std-cell",
            Technology::GateArray => "Gate array",
            Technology::Hybrid => "Hybrid",
        }
    }

    /// Probability that a signal is a wide bus net. Nets of 8+ pins come
    /// only from this tier — in real designs that wide a net is a global
    /// bus/clock/control signal, not block-local logic.
    fn bus_probability(self) -> f64 {
        match self {
            Technology::Pcb => 0.035,
            Technology::StdCell => 0.012,
            Technology::GateArray => 0.005,
            Technology::Hybrid => 0.05,
        }
    }

    /// Samples an ordinary (non-bus) net size.
    fn sample_net_size(self, rng: &mut StdRng) -> usize {
        let p: f64 = rng.gen();
        match self {
            Technology::Pcb => match p {
                _ if p < 0.40 => 2,
                _ if p < 0.65 => 3,
                _ if p < 0.80 => 4,
                _ if p < 0.90 => 5,
                _ => 6 + rng.gen_range(0..2),
            },
            Technology::StdCell => match p {
                _ if p < 0.55 => 2,
                _ if p < 0.78 => 3,
                _ if p < 0.90 => 4,
                _ => 5 + rng.gen_range(0..3),
            },
            Technology::GateArray => match p {
                _ if p < 0.65 => 2,
                _ if p < 0.90 => 3,
                _ => 4,
            },
            Technology::Hybrid => match p {
                _ if p < 0.45 => 2,
                _ if p < 0.65 => 3,
                _ if p < 0.80 => 4,
                _ => 5 + rng.gen_range(0..3),
            },
        }
    }

    /// Samples a bus net size (the paper's `k ≥ 8…20` large signals).
    fn sample_bus_size(self, rng: &mut StdRng) -> usize {
        match self {
            Technology::Pcb => rng.gen_range(8..=28),
            Technology::StdCell => rng.gen_range(8..=20),
            Technology::GateArray => rng.gen_range(8..=14),
            Technology::Hybrid => rng.gen_range(10..=32),
        }
    }

    /// Samples a module weight (area).
    fn sample_weight(self, rng: &mut StdRng) -> u64 {
        match self {
            Technology::Pcb => rng.gen_range(1..=20),
            Technology::StdCell => rng.gen_range(1..=4),
            Technology::GateArray => 1,
            Technology::Hybrid => {
                if rng.gen_bool(0.05) {
                    rng.gen_range(20..=60) // macro blocks
                } else {
                    rng.gen_range(1..=6)
                }
            }
        }
    }
}

/// Configuration for a hierarchical circuit-like netlist.
///
/// # Examples
///
/// ```
/// use fhp_gen::{CircuitNetlist, Technology};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let h = CircuitNetlist::new(Technology::StdCell, 200, 320).seed(1).generate()?;
/// assert_eq!(h.num_vertices(), 200);
/// assert_eq!(h.num_edges(), 320);
/// assert_eq!(h.connected_components().1, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug)]
pub struct CircuitNetlist {
    technology: Technology,
    modules: usize,
    signals: usize,
    /// Probability that a net escalates one level up the block hierarchy.
    escalation: f64,
    /// Target modules per leaf block.
    leaf_size: usize,
    seed: u64,
}

impl CircuitNetlist {
    /// A netlist in the given technology with defaults: escalation 0.25,
    /// leaf blocks of 8 modules, seed 0.
    pub fn new(technology: Technology, modules: usize, signals: usize) -> Self {
        Self {
            technology,
            modules,
            signals,
            escalation: 0.25,
            leaf_size: 8,
            seed: 0,
        }
    }

    /// Probability a net climbs one hierarchy level (0 = perfectly local
    /// nets, 1 = all nets global). Clamped to `[0, 0.95]`.
    pub fn escalation(mut self, p: f64) -> Self {
        self.escalation = p.clamp(0.0, 0.95);
        self
    }

    /// Target leaf-block size (min 2).
    pub fn leaf_size(mut self, size: usize) -> Self {
        self.leaf_size = size.max(2);
        self
    }

    /// Seeds the generator.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the netlist.
    ///
    /// # Errors
    ///
    /// [`GenError::InvalidConfig`] if there are fewer than 4 modules or
    /// fewer signals than needed to keep the instance connected.
    pub fn generate(&self) -> Result<Hypergraph, GenError> {
        if self.modules < 4 {
            return Err(GenError::invalid("needs at least 4 modules"));
        }
        if self.signals < self.modules / 2 {
            return Err(GenError::invalid(
                "needs at least modules/2 signals for a plausible netlist",
            ));
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut b = HypergraphBuilder::new();
        for _ in 0..self.modules {
            b.add_weighted_vertex(self.technology.sample_weight(&mut rng));
        }

        // The block hierarchy is implicit: blocks at level L are the
        // contiguous ranges of size leaf_size · 2^L. A net picks a leaf
        // block uniformly, then escalates with probability `escalation`
        // per level.
        let levels = {
            let mut l = 0usize;
            while self.leaf_size << l < self.modules {
                l += 1;
            }
            l
        };

        let mut edges: Vec<Vec<VertexId>> = Vec::with_capacity(self.signals);
        for _ in 0..self.signals {
            let is_bus = rng.gen_bool(self.technology.bus_probability());
            let size = if is_bus {
                self.technology.sample_bus_size(&mut rng)
            } else {
                self.technology.sample_net_size(&mut rng)
            }
            .min(self.modules);
            // Bus nets are global by nature; others escalate
            // probabilistically, but a net can never be more local than the
            // region needed to host several times its pin count (a wide net
            // physically fans out across blocks — this is what makes large
            // signals near-certain cut crossers, Table 1).
            let mut level = 0usize;
            if is_bus {
                level = levels;
            } else {
                while level < levels && rng.gen_bool(self.escalation) {
                    level += 1;
                }
                while level < levels && (self.leaf_size << level) < 4 * size {
                    level += 1;
                }
            }
            let span = (self.leaf_size << level).min(self.modules).max(size);
            let start = if span >= self.modules {
                0
            } else {
                // align to the block grid so blocks nest
                let block = rng.gen_range(0..self.modules.div_ceil(span));
                (block * span).min(self.modules - span)
            };
            let mut pins = Vec::with_capacity(size);
            while pins.len() < size {
                let v = VertexId::new(start + rng.gen_range(0..span));
                if !pins.contains(&v) {
                    pins.push(v);
                }
            }
            edges.push(pins);
        }

        // Connectivity repair: reserve the last `r` signal slots and
        // replace as many as needed with 2-pin bridges. Components are
        // computed over the *unreserved prefix only*, so a replaced signal
        // can never have been load-bearing — the bridges provably connect
        // everything the final netlist contains.
        let mut reserve = 0usize;
        loop {
            let prefix = &edges[..edges.len() - reserve];
            let (comp, n_comps) = connected_components(self.modules, prefix);
            let need = n_comps - 1;
            if need <= reserve {
                let mut reps: Vec<VertexId> = Vec::new();
                let mut seen = vec![false; n_comps];
                for (v, &cv) in comp.iter().enumerate() {
                    let c = cv as usize;
                    if !seen[c] {
                        seen[c] = true;
                        reps.push(VertexId::new(v));
                    }
                }
                let base = edges.len() - need;
                for (i, pair) in reps.windows(2).enumerate() {
                    edges[base + i] = vec![pair[0], pair[1]];
                }
                break;
            }
            reserve = need.min(edges.len() - 1);
            if reserve == edges.len() - 1 {
                // degenerate: barely any signals; cover all modules with a
                // chain of 8-pin bus signals (fits because the constructor
                // requires signals >= modules / 2), padded with local nets
                edges.clear();
                let mut i = 0;
                while i + 1 < self.modules {
                    let end = (i + 8).min(self.modules);
                    edges.push((i..end).map(VertexId::new).collect());
                    i = end - 1;
                }
                while edges.len() < self.signals {
                    let a = rng.gen_range(0..self.modules);
                    let b = (a + 1) % self.modules;
                    edges.push(vec![VertexId::new(a), VertexId::new(b)]);
                }
                edges.truncate(self.signals);
                break;
            }
        }

        for pins in edges {
            b.add_edge(pins).expect("generated pins are valid");
        }
        Ok(b.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhp_hypergraph::stats::HypergraphStats;

    #[test]
    fn all_technologies_generate_connected_instances() {
        for tech in Technology::ALL {
            let h = CircuitNetlist::new(tech, 120, 200)
                .seed(2)
                .generate()
                .unwrap();
            assert_eq!(h.num_vertices(), 120, "{}", tech.name());
            assert_eq!(h.num_edges(), 200);
            assert_eq!(h.connected_components().1, 1, "{}", tech.name());
        }
    }

    #[test]
    fn technologies_differ_in_net_sizes() {
        let pcb = CircuitNetlist::new(Technology::Pcb, 300, 500)
            .seed(0)
            .generate()
            .unwrap();
        let ga = CircuitNetlist::new(Technology::GateArray, 300, 500)
            .seed(0)
            .generate()
            .unwrap();
        let sp = HypergraphStats::of(&pcb);
        let sg = HypergraphStats::of(&ga);
        assert!(sp.mean_edge_size > sg.mean_edge_size);
        assert!(sp.max_edge_size > sg.max_edge_size);
    }

    #[test]
    fn bus_nets_exist_in_pcb() {
        let h = CircuitNetlist::new(Technology::Pcb, 400, 800)
            .seed(1)
            .generate()
            .unwrap();
        let big = h.edges().filter(|&e| h.edge_size(e) >= 8).count();
        assert!(big > 0, "expected some bus nets");
    }

    #[test]
    fn gate_array_unit_weights() {
        let h = CircuitNetlist::new(Technology::GateArray, 50, 80)
            .generate()
            .unwrap();
        assert_eq!(h.total_vertex_weight(), 50);
    }

    #[test]
    fn locality_shows_in_diameter() {
        // a strongly hierarchical netlist should have a longer intersection
        // graph pseudo-diameter than a fully global one (paper §4's
        // observation about real designs vs random hypergraphs)
        use fhp_hypergraph::{bfs, IntersectionGraph};
        let local = CircuitNetlist::new(Technology::StdCell, 240, 400)
            .escalation(0.15)
            .seed(4)
            .generate()
            .unwrap();
        let global = CircuitNetlist::new(Technology::StdCell, 240, 400)
            .escalation(0.95)
            .seed(4)
            .generate()
            .unwrap();
        let d_local = bfs::double_sweep(IntersectionGraph::build(&local).graph(), 0).length;
        let d_global = bfs::double_sweep(IntersectionGraph::build(&global).graph(), 0).length;
        assert!(
            d_local > d_global,
            "local diameter {d_local} vs global {d_global}"
        );
    }

    #[test]
    fn deterministic() {
        let a = CircuitNetlist::new(Technology::Hybrid, 60, 100)
            .seed(9)
            .generate()
            .unwrap();
        let b = CircuitNetlist::new(Technology::Hybrid, 60, 100)
            .seed(9)
            .generate()
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_configs() {
        assert!(CircuitNetlist::new(Technology::Pcb, 2, 10)
            .generate()
            .is_err());
        assert!(CircuitNetlist::new(Technology::Pcb, 100, 10)
            .generate()
            .is_err());
    }

    #[test]
    fn builder_clamps() {
        let c = CircuitNetlist::new(Technology::Pcb, 10, 20)
            .escalation(2.0)
            .leaf_size(0);
        assert!(c.escalation <= 0.95);
        assert_eq!(c.leaf_size, 2);
    }
}
