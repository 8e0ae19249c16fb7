//! Exact quantitative analysis of stabilizing systems: the "quantitative
//! study of weak-stabilization, evaluating the expected stabilization time
//! of transformed algorithms" that the paper's conclusion lists as future
//! work.
//!
//! Under a **randomized scheduler** (Definition 6) a finite system is a
//! Markov chain over its configurations. Lumping the legitimate set `L`
//! (closed, by the strong closure property) into one absorbing state yields
//! an absorbing chain whose fundamental-matrix equation
//!
//! ```text
//! (I − Q) t = 1
//! ```
//!
//! gives the exact expected stabilization time `t(γ)` from every
//! configuration `γ`. This crate builds the chain ([`AbsorbingChain`]),
//! solves the equation by dense Gaussian elimination or sparse BiCGSTAB
//! ([`linalg`]), verifies almost-sure absorption (Theorems 7–9), and
//! computes hitting-time distributions.
//!
//! [`AbsorbingChain::build_with`] additionally builds the chain over the
//! engine's rotation quotient (the exact lumping by rotation orbits —
//! per-state times match the full space, and
//! [`HittingTimes::average_weighted`] recovers uniform-initial averages
//! from orbit weights) or over the reachable set of a designated initial
//! set only.
//!
//! # Example: expected stabilization time of `Trans(Algorithm 3)`
//!
//! ```
//! use stab_algorithms::TwoProcessToggle;
//! use stab_core::{Daemon, Transformed, ProjectedLegitimacy};
//! use stab_markov::AbsorbingChain;
//!
//! let alg = Transformed::new(TwoProcessToggle::new());
//! let spec = ProjectedLegitimacy::new(TwoProcessToggle::new().legitimacy());
//! // Theorem 8: under the synchronous scheduler the transformed system is
//! // probabilistically self-stabilizing — with finite expected time.
//! let chain = AbsorbingChain::build(&alg, Daemon::Synchronous, &spec, 1 << 20).unwrap();
//! let times = chain.expected_steps().unwrap();
//! assert!(times.worst_case() > 0.0);
//! assert!(times.worst_case().is_finite());
//! ```

pub mod chain;
pub mod error;
pub mod hitting;
pub mod linalg;
pub mod qstore;

pub use chain::AbsorbingChain;
pub use error::MarkovError;
pub use hitting::HittingTimes;
pub use qstore::{QEntry, QMatrix, QStorage};
