//! Shared instance construction for the benches.
//!
//! Each bench writes one `BENCH_*.json` artifact; the instances are built
//! here so all benches agree on the workload definition (std-cell circuit
//! profile, signals n, modules 0.6n).

#![forbid(unsafe_code)]

use fhp_gen::{CircuitNetlist, Technology};
use fhp_hypergraph::{Hypergraph, HypergraphBuilder, VertexId};

/// The bench workload: a std-cell netlist with `n` signals.
pub fn bench_instance(n: usize) -> Hypergraph {
    CircuitNetlist::new(Technology::StdCell, (n * 6) / 10, n)
        .seed(42)
        .generate()
        .expect("bench config is valid")
}

/// Circuit sizes the `dualize` and `multilevel` benches sweep.
pub const SIZES: [usize; 3] = [500, 1000, 2000];

/// The hub-heavy adversary for the dualization kernel: `hubs` shared
/// modules appear in every one of `signals` signals (so each hub module
/// has degree `signals`), plus one private module per signal.
///
/// Its dual `G` is the complete graph on `signals` vertices, and every
/// pair of signals shares all `hubs` hub modules — so the naive
/// pair-spray builder performs `hubs × C(signals, 2)` edge insertions
/// where the sparse kernel inserts `C(signals, 2)` unique edges: the
/// insertion ratio is exactly `hubs`.
pub fn hub_instance(signals: usize, hubs: usize) -> Hypergraph {
    let mut b = HypergraphBuilder::with_vertices(hubs + signals);
    for s in 0..signals {
        let mut pins: Vec<VertexId> = (0..hubs).map(VertexId::new).collect();
        pins.push(VertexId::new(hubs + s));
        b.add_edge(pins).expect("hub instance pins are valid");
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_instance_has_the_promised_degrees() {
        let h = hub_instance(64, 8);
        assert_eq!(h.num_edges(), 64);
        for hub in 0..8 {
            assert_eq!(h.vertex_degree(VertexId::new(hub)), 64);
        }
        for private in 8..(8 + 64) {
            assert_eq!(h.vertex_degree(VertexId::new(private)), 1);
        }
    }
}
