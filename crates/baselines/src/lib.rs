#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! # empower-baselines
//!
//! The comparison schemes of the paper's evaluation (§5.2.2):
//!
//! * **optimal** — a centralized utility maximizer over the best available
//!   relaxation of the true scheduling capacity region (maximal-clique
//!   constraints on the conflict graph; exact when the conflict graph is
//!   perfect, an upper bound otherwise);
//! * **conservative opt** — the same maximizer under EMPoWER's conservative
//!   per-interference-domain constraint (2), isolating the cost of the
//!   constraint from the cost of preselecting routes;
//! * **backpressure** — the slot-level dynamic scheme of Neely et al. \[27\]:
//!   drift-plus-penalty admission at sources plus max-weight scheduling
//!   (exact maximum-weight independent set per slot), used to reproduce the
//!   convergence-time comparison of §5.2.2;
//! * a **fluid CSMA saturation model** that computes the goodput of schemes
//!   *without* congestion control (MP-w/o-CC, SP-w/o-CC), including the
//!   congestion collapse on over-driven multihop paths;
//! * supporting machinery: conflict graphs, Bron–Kerbosch maximal cliques,
//!   exact branch-and-bound MWIS, path enumeration, a dense-simplex LP
//!   solver and pairwise Frank–Wolfe for concave utility maximization.

pub mod backpressure;
pub mod conflict;
pub mod fluid;
pub mod num;
pub mod path_enum;
pub mod region;
pub mod simplex;

pub use backpressure::{Backpressure, BackpressureConfig, BackpressureResult};
pub use conflict::{max_weight_independent_set, maximal_cliques, ConflictGraph};
pub use fluid::{saturation_goodput, FluidOutcome};
pub use num::{maximize_utility, reference_optimum, NumSolution, GAP_TOL, MAX_ITERATIONS};
pub use path_enum::enumerate_paths;
pub use region::{CapacityRegion, RegionKind};
pub use simplex::{solve_lp, LpOutcome};
