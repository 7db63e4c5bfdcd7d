#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! # empower-cc
//!
//! The congestion-control algorithms of EMPoWER (§4 of the paper).
//!
//! Given routes selected by `empower-routing`, the controller decides the
//! rate `x_r` injected on every route so as to maximize aggregate utility
//! `Σ_f U_f(Σ_{r∈f} x_r)` subject to the per-interference-domain airtime
//! constraint
//!
//! ```text
//! Σ_{l'∈I_l} d_{l'} Σ_{r: l'∈r} x_r ≤ 1 − δ     ∀ l ∈ L .     (2)/(3)
//! ```
//!
//! [`MultipathController`] is the proximal-optimization controller of §4.3
//! (Eq. (11)), which handles flows with several routes despite the
//! objective not being strictly concave in `x`. A flow with one route is
//! §4.2's single-path case: the same prices, Eqs. (7)–(9), and the same
//! optimum.
//!
//! It is expressed as a *slotted* update — one step per acknowledgement
//! interval (100 ms in the implementation) — and uses only quantities a
//! node can measure or overhear locally: per-link airtime demands, dual
//! prices `γ_l` broadcast per technology, and route prices `q_r` accumulated
//! in the layer-2.5 packet header and echoed by the destination.

pub mod controller;
pub mod convergence;
pub mod distributed;
pub mod flow;
pub mod problem;
pub mod step_size;
pub mod utility;

pub use controller::{CcConfig, MultipathController, GAIN};
pub use convergence::slots_to_converge;
pub use distributed::{BroadcastPlan, LinkPriceState, PriceBroadcast};
pub use flow::FlowController;
pub use problem::{CcProblem, FlowSpec, RouteRef};
pub use step_size::AdaptiveAlpha;
pub use utility::{AlphaFair, Linear, ProportionalFair, Utility};
