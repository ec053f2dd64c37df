//! Algorithm I of Kahng's *Fast Hypergraph Partition* (DAC 1989): an
//! `O(n²)` heuristic for hypergraph min-cut bipartitioning built on the
//! dual intersection graph.
//!
//! # Overview
//!
//! Given a netlist hypergraph `H`, the method:
//!
//! 1. dualizes `H` into its intersection graph `G` (one vertex per signal;
//!    adjacency = shared module), optionally ignoring very large signals;
//! 2. finds a *longest BFS path* in `G` (endpoints `u`, `v`);
//! 3. grows BFS fronts from `u` and `v` simultaneously, cutting `G` where
//!    they meet; non-boundary signals commit their modules to a side,
//!    forming a *partial bipartition* that provably has no crossing signal;
//! 4. completes the partition on the bipartite *boundary graph* with the
//!    greedy *Complete-Cut* rule (winners/losers), which is within one of
//!    the optimum completion for connected boundary graphs;
//! 5. optionally repeats over many random longest paths — fanned across a
//!    deterministic worker pool (see [`runner`]) — keeping the best cut
//!    under the configured [`Objective`]. The result is bit-identical for
//!    every thread count.
//!
//! # Examples
//!
//! ```
//! use fhp_core::{Algorithm1, PartitionConfig};
//! use fhp_hypergraph::Netlist;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let nl = Netlist::parse("a: 1 2 3\nb: 3 4\nc: 4 5 6\n")?;
//! let outcome = Algorithm1::new(PartitionConfig::new().starts(8)).run(nl.hypergraph())?;
//! assert!(outcome.report.cut_size <= 1); // signal b is a natural bridge
//! # Ok(())
//! # }
//! ```
//!
//! The stages are public (see [`dual_bfs`], [`boundary`], [`complete_cut`],
//! [`matching`]) so downstream work can recombine them — e.g. swap in the
//! exact König completion, or reuse the boundary machinery for a different
//! initial cut.
//!
//! A [`multilevel`] V-cycle mode (heavy-edge coarsening, Algorithm I on
//! the coarsest level, FM refinement on every uncoarsening step) is
//! enabled by threading a [`MultilevelConfig`] through
//! [`PartitionConfig::multilevel`]; it shares the engine's determinism
//! contract and never returns a worse cut than the flat run.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod algorithm1;
mod error;
mod partition;

pub mod boundary;
pub mod complete_cut;
pub mod dual_bfs;
pub mod engine;
pub mod granularize;
pub mod matching;
pub mod metrics;
pub mod moves;
pub mod multilevel;
pub mod multiway;
pub mod refine;
pub mod runner;

pub use algorithm1::{
    Algorithm1, Bipartitioner, OutcomeFingerprint, PartitionConfig, PartitionOutcome, RunStats,
    StartStat, MAX_STARTS,
};
pub use complete_cut::CompletionStrategy;
pub use dual_bfs::FrontPolicy;
pub use engine::{
    Delta, Edit, EngineConfig, EngineError, EngineStats, PartitionEngine, RepairKind,
};
pub use error::PartitionError;
pub use metrics::{CutReport, Objective, PhaseStats};
pub use multilevel::{Multilevel, MultilevelConfig, MultilevelStats};
pub use partition::{Bipartition, Side};
