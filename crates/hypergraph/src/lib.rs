//! Hypergraph, graph and intersection-graph substrate for the `fhp`
//! partitioner.
//!
//! This crate provides the data structures that Kahng's DAC'89 *Fast
//! Hypergraph Partition* algorithm is built on:
//!
//! - [`Hypergraph`]: the netlist itself — modules as vertices, signals as
//!   hyperedges, both weighted, stored in dual CSR form.
//! - [`Graph`]: plain undirected graphs (CSR) used for the dual
//!   intersection graph and the bipartite boundary graph.
//! - [`IntersectionGraph`]: the dual construction `G` of a hypergraph `H`
//!   (one G-vertex per signal, adjacency = shared module), with optional
//!   large-edge filtering per the paper's §3.
//! - [`DualIncidence`]: the same `G` read off the incidence lists (each
//!   module's kept nets), which Algorithm I traverses without building
//!   the adjacency.
//! - [`pool`]: the index-ordered worker pool every parallel stage runs on.
//! - [`bfs`]: breadth-first level structures, the double-sweep
//!   pseudo-diameter, components and exact diameters for verification.
//! - [`Netlist`]: a small line-oriented text format for netlists, matching
//!   the notation the paper uses for its worked example.
//!
//! # Examples
//!
//! Parse a netlist, dualize it, and measure its pseudo-diameter:
//!
//! ```
//! use fhp_hypergraph::{bfs, IntersectionGraph, Netlist};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let nl = Netlist::parse("a: 1 2\nb: 2 3\nc: 3 4\n")?;
//! let ig = IntersectionGraph::build(nl.hypergraph());
//! let sweep = bfs::double_sweep(ig.graph(), 0);
//! assert_eq!(sweep.length, 2); // G is the path a—b—c
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod error;
mod graph;
mod hypergraph;
mod ids;

pub mod bfs;
pub mod contract;
pub mod hgr;
pub mod incremental;
pub mod intersection;
pub mod netlist;
pub mod pool;
pub mod stats;
pub mod subhypergraph;

pub use contract::ContractError;
pub use error::{BuildGraphError, BuildHypergraphError, ParseHgrError, ParseNetlistError};
pub use graph::{Graph, GraphBuilder};
pub use hypergraph::{Hypergraph, HypergraphBuilder};
pub use ids::{EdgeId, VertexId};
pub use incremental::{DynamicNetlist, IncrementalError};
pub use intersection::{DualIncidence, DualizeStats, Dualizer, IntersectionGraph};
pub use netlist::Netlist;
