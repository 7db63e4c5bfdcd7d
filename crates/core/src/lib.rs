#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! # empower-core
//!
//! The public facade of the EMPoWER reproduction. It ties together the
//! subsystem crates and exposes:
//!
//! * [`Scheme`] — the eight evaluation schemes of §5.1 (EMPoWER, SP,
//!   SP-WiFi, MP-WiFi, MP-mWiFi, MP-w/o-CC, SP-w/o-CC, MP-2bp) as a single
//!   configuration switch that selects mediums, routing flavour,
//!   channel-switching cost and congestion control;
//! * [`RunConfig`] — the typed run builder: scheme, `n`-shortest, δ,
//!   controller gains and an optional [`telemetry::Telemetry`] registry,
//!   with `Result`-typed entry points ([`EmpowerError`]) for route
//!   computation, fluid/equilibrium evaluation (§5, Figs. 4–7),
//!   packet-level simulation (§6) and route monitoring (§3.2);
//! * re-exports of the subsystem crates under stable names.
//!
//! ## Quickstart
//!
//! ```
//! use empower_core::{RunConfig, Scheme};
//! use empower_core::model::topology::fig1_scenario;
//! use empower_core::model::{InterferenceModel, SharedMedium};
//!
//! let s = fig1_scenario();
//! let imap = SharedMedium.build_map(&s.net);
//! let eval = RunConfig::new(Scheme::Empower)
//!     .evaluate_fluid(&s.net, &imap, &[(s.gateway, s.client)])
//!     .unwrap();
//! // The paper's worked example: 10 Mbps hybrid + 6.6 Mbps WiFi-WiFi.
//! assert!((eval.flow_rates[0] - 16.67).abs() < 0.3);
//! ```

pub mod eval;
pub mod monitor;
pub mod run;
pub mod scheme;
pub mod stack;

pub use eval::{FluidEval, FluidEvalResult};
pub use monitor::{RecomputeReason, RouteMonitor};
pub use run::{EmpowerError, RunConfig};
pub use scheme::Scheme;

/// Re-export: the network-model substrate.
pub use empower_baselines as baselines;
pub use empower_cc as cc;
pub use empower_datapath as datapath;
pub use empower_model as model;
pub use empower_routing as routing;
pub use empower_sim as sim;
pub use empower_telemetry as telemetry;
