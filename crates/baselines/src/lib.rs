//! Baseline hypergraph bipartitioners for comparison with Algorithm I.
//!
//! The DAC'89 paper evaluates Algorithm I against Kernighan–Lin min-cut
//! ([`KernighanLin`], its Table 2 "MinCut-KL" column) and simulated
//! annealing ([`SimulatedAnnealing`]); this crate implements both from the
//! primary sources, plus:
//!
//! - [`FiducciaMattheyses`] — the linear-time-per-pass KL successor the
//!   paper cites as the state of the art (its ref. \[9\]);
//! - [`RandomCut`] — the null baseline that motivates the paper's focus on
//!   *difficult* inputs;
//! - [`Exhaustive`] — ground-truth optimum for tiny instances, used by the
//!   test suite and the crossing-probability experiment;
//! - [`Refined`] — any constructor followed by FM refinement (the
//!   "Alg I + FM" hybrid the paper's future work points toward);
//! - [`Multilevel`] — the `fhp_core::multilevel` V-cycle engine
//!   (coarsen → partition → project → refine), the scheme that later
//!   superseded all flat methods, packaged as a baseline bipartitioner;
//! - [`SpectralBisection`] — Fiedler-vector bisection with a sweep cut,
//!   standing in for the "graph space mapping" family the paper surveys.
//!
//! All baselines implement [`fhp_core::Bipartitioner`], are fully seeded,
//! and share one incremental-move engine
//! ([`fhp_core::moves::MoveState`]) whose consistency is property-tested
//! against the ground-truth metrics.
//!
//! # Examples
//!
//! ```
//! use fhp_baselines::{FiducciaMattheyses, KernighanLin, RandomCut};
//! use fhp_core::{metrics, Bipartitioner};
//! use fhp_hypergraph::Netlist;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let nl = Netlist::parse("a: 1 2 3\nb: 3 4\nc: 4 5 6\n")?;
//! let h = nl.hypergraph();
//! for p in [
//!     &KernighanLin::new(0) as &dyn Bipartitioner,
//!     &FiducciaMattheyses::new(0),
//!     &RandomCut::balanced(0),
//! ] {
//!     let bp = p.bipartition(h)?;
//!     assert!(bp.is_valid_cut(), "{}", p.name());
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod annealing;
mod exhaustive;
mod fm;
mod hybrid;
mod kl;
mod random;
mod spectral;

pub use annealing::SimulatedAnnealing;
pub use exhaustive::{exhaustive_min_losers, Exhaustive, EXHAUSTIVE_VERTEX_LIMIT};
pub use fhp_core::multilevel::Multilevel;
pub use fm::FiducciaMattheyses;
pub use hybrid::Refined;
pub use kl::KernighanLin;
pub use random::RandomCut;
pub use spectral::SpectralBisection;
