//! Simulated annealing bipartitioning (Kirkpatrick–Gelatt–Vecchi [18]).
//!
//! Single-vertex flips under a geometric cooling schedule. Energy is the
//! weighted cut; moves that would push the weight imbalance beyond
//! [`fhp_core::refine::balance_slack`] (the slack FM uses) are rejected
//! outright, keeping the walk inside the r-bipartition region. The
//! starting temperature is calibrated from a short random walk so a
//! configured fraction of uphill moves is initially accepted — the
//! standard recipe.
//!
//! The paper uses annealing both as a quality baseline (Tables 1 and 2)
//! and as a stand-in for "the best heuristic partition" when measuring
//! which large signals end up cut; `thorough` reproduces that role, `fast`
//! is for quick runs. The two presets are the only schedules.

use fhp_core::{refine, Bipartition, Bipartitioner, PartitionError};
use fhp_hypergraph::{Hypergraph, VertexId};
use fhp_obs::{names, order, Collector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fhp_core::moves::{random_balanced_start, MoveState};

/// Simulated-annealing bipartitioner.
///
/// # Examples
///
/// ```
/// use fhp_baselines::SimulatedAnnealing;
/// use fhp_core::{metrics, Bipartitioner};
/// use fhp_hypergraph::Netlist;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let nl = Netlist::parse("a: 1 2 3\nb: 3 4\nc: 4 5 6\n")?;
/// let bp = SimulatedAnnealing::fast(0).bipartition(nl.hypergraph())?;
/// assert!(metrics::cut_size(nl.hypergraph(), &bp) <= 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct SimulatedAnnealing {
    seed: u64,
    /// Moves attempted per temperature = `moves_factor · |V|`.
    moves_factor: usize,
    /// Geometric cooling ratio.
    alpha: f64,
    /// Target initial uphill acceptance probability.
    initial_acceptance: f64,
    /// Consecutive improvement-free temperatures before stopping.
    patience: usize,
    collector: Collector,
}

impl SimulatedAnnealing {
    /// A quick schedule for tests and large sweeps (α = 0.85, 4·|V| moves
    /// per temperature).
    pub fn fast(seed: u64) -> Self {
        Self {
            seed,
            moves_factor: 4,
            alpha: 0.85,
            initial_acceptance: 0.6,
            patience: 4,
            collector: Collector::disabled(),
        }
    }

    /// A slow, quality-oriented schedule (α = 0.95, 16·|V| moves per
    /// temperature) comparable to the paper's annealing baseline.
    pub fn thorough(seed: u64) -> Self {
        Self {
            seed,
            moves_factor: 16,
            alpha: 0.95,
            initial_acceptance: 0.8,
            patience: 8,
            collector: Collector::disabled(),
        }
    }

    /// Records each run into `collector`: an `sa.walk` span over the
    /// anneal plus a summary scope with temperature and move counts and
    /// the best weighted cut. The default collector is disabled, which
    /// records nothing and costs nothing.
    pub fn collector(mut self, collector: Collector) -> Self {
        self.collector = collector;
        self
    }

    /// Calibrates T₀ so `initial_acceptance` of uphill moves pass:
    /// T₀ = ⟨ΔE⁺⟩ / −ln(p₀).
    fn initial_temperature(&self, st: &MoveState<'_>, rng: &mut StdRng) -> f64 {
        let h = st.hypergraph();
        let n = h.num_vertices();
        let mut uphill = Vec::new();
        for _ in 0..200 {
            let v = VertexId::new(rng.gen_range(0..n));
            let delta = -st.gain(v); // positive = uphill
            if delta > 0 {
                uphill.push(delta as f64);
            }
        }
        if uphill.is_empty() {
            return 1.0;
        }
        let mean = uphill.iter().sum::<f64>() / uphill.len() as f64;
        (mean / -self.initial_acceptance.ln()).max(1e-6)
    }
}

impl Bipartitioner for SimulatedAnnealing {
    fn bipartition(&self, h: &Hypergraph) -> Result<Bipartition, PartitionError> {
        let n = h.num_vertices();
        if n < 2 {
            return Err(PartitionError::TooFewVertices { found: n });
        }
        let tolerance = refine::balance_slack(h);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut st = MoveState::new(h, random_balanced_start(h, &mut rng));
        let initial_temp = self.initial_temperature(&st, &mut rng);
        let mut temp = initial_temp;
        let mut best = st.partition().clone();
        let mut best_cut = st.cut();
        let mut stale_temps = 0usize;
        let moves_per_temp = self.moves_factor * n;
        let mut temperatures = 0u64;
        let mut moves_attempted = 0u64;
        let mut moves_accepted = 0u64;
        let walk_scope = self
            .collector
            .is_enabled()
            .then(|| self.collector.scope(order::start(0), Some(0)));
        let walk_span = walk_scope.as_ref().map(|s| s.span(names::SA_WALK));

        // Patience only counts once the system has cooled meaningfully —
        // improvement droughts during the hot random-walk phase are normal
        // and must not abort the anneal.
        while (stale_temps < self.patience || temp > 0.05 * initial_temp) && temp > 1e-4 {
            let mut improved = false;
            temperatures += 1;
            for _ in 0..moves_per_temp {
                moves_attempted += 1;
                let v = VertexId::new(rng.gen_range(0..n));
                // Balance feasibility.
                let (wl, wr) = st.side_weights();
                let vw = h.vertex_weight(v) as i64;
                let imb_after = match st.side(v) {
                    fhp_core::Side::Left => (wl as i64 - vw) - (wr as i64 + vw),
                    fhp_core::Side::Right => (wl as i64 + vw) - (wr as i64 - vw),
                };
                if imb_after.unsigned_abs() > tolerance {
                    continue;
                }
                let delta = -st.gain(v); // ΔE; negative is downhill
                let accept = delta <= 0 || rng.gen_bool((-(delta as f64) / temp).exp());
                if !accept {
                    continue;
                }
                moves_accepted += 1;
                st.apply_flip(v);
                if st.cut() < best_cut && st.partition().is_valid_cut() {
                    best_cut = st.cut();
                    best = st.partition().clone();
                    improved = true;
                }
            }
            stale_temps = if improved { 0 } else { stale_temps + 1 };
            temp *= self.alpha;
        }
        drop(walk_span);
        if let Some(s) = walk_scope {
            self.collector.adopt(s.finish());
        }
        if !best.is_valid_cut() {
            best.flip(VertexId::new(0));
        }
        if self.collector.is_enabled() {
            let summary = self.collector.scope(order::SUMMARY, None);
            summary.counter(names::SA_TEMPERATURES, temperatures);
            summary.counter(names::SA_MOVES_ATTEMPTED, moves_attempted);
            summary.counter(names::SA_MOVES_ACCEPTED, moves_accepted);
            summary.counter(
                names::SA_BEST_CUT,
                fhp_core::metrics::weighted_cut(h, &best),
            );
            self.collector.adopt(summary.finish());
        }
        Ok(best)
    }

    fn name(&self) -> &str {
        "SA"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let bp = SimulatedAnnealing::fast(1).bipartition(&h).unwrap();
        assert_eq!(metrics::cut_size(&h, &bp), 1);
    }

    #[test]
    fn respects_tolerance() {
        let h = paper_example();
        let sa = SimulatedAnnealing::fast(0);
        let bp = sa.bipartition(&h).unwrap();
        assert!(metrics::weight_imbalance(&h, &bp) <= refine::balance_slack(&h));
        assert!(bp.is_valid_cut());
    }

    #[test]
    fn thorough_at_least_as_good_as_random_start() {
        let h = barbell(6);
        let bp = SimulatedAnnealing::thorough(2).bipartition(&h).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let start = random_balanced_start(&h, &mut rng);
        assert!(metrics::cut_size(&h, &bp) <= metrics::cut_size(&h, &start));
    }

    #[test]
    fn deterministic() {
        let h = barbell(4);
        let a = SimulatedAnnealing::fast(9).bipartition(&h).unwrap();
        let b = SimulatedAnnealing::fast(9).bipartition(&h).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn records_counters_into_enabled_collector() {
        use fhp_obs::{counter_total, Collector};
        let h = barbell(4);
        let collector = Collector::enabled();
        let sa = SimulatedAnnealing::fast(6).collector(collector.clone());
        let bp = sa.bipartition(&h).unwrap();
        let events = collector.snapshot();
        let temps = counter_total(&events, fhp_obs::names::SA_TEMPERATURES);
        let attempted = counter_total(&events, fhp_obs::names::SA_MOVES_ATTEMPTED);
        let accepted = counter_total(&events, fhp_obs::names::SA_MOVES_ACCEPTED);
        assert!(temps >= 1);
        assert_eq!(attempted, temps * 4 * h.num_vertices() as u64);
        assert!(accepted <= attempted);
        assert_eq!(
            counter_total(&events, fhp_obs::names::SA_BEST_CUT),
            metrics::weighted_cut(&h, &bp)
        );
        assert!(events.iter().any(|e| e.name == fhp_obs::names::SA_WALK));
    }

    #[test]
    fn rejects_tiny() {
        let h = HypergraphBuilder::with_vertices(1).build();
        assert!(SimulatedAnnealing::fast(0).bipartition(&h).is_err());
    }

    #[test]
    fn weighted_instances() {
        let mut b = HypergraphBuilder::new();
        let vs: Vec<_> = (0..10)
            .map(|i| b.add_weighted_vertex(1 + (i % 5)))
            .collect();
        for w in vs.windows(2) {
            b.add_edge([w[0], w[1]]).unwrap();
        }
        let h = b.build();
        let bp = SimulatedAnnealing::fast(4).bipartition(&h).unwrap();
        assert!(bp.is_valid_cut());
    }
}
