#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! # empower-workload
//!
//! Workload runs with SLO metrics for the EMPoWER reproduction. A workload
//! is a document of the one grammar ([`empower_dynamics::scenario`]):
//! clients — open- and closed-loop sources, request/response exchanges,
//! bulk transfers, IoT telemetry, elephant/mice mixes, diurnal load curves
//! and session churn — and optionally scheme-routed flows and a fault
//! timeline. [`empower_dynamics::driver::drive`] runs it on either engine
//! through the [`empower_sim::corpus::SimEngine`] surface; this crate adds
//! the bounded packet trace, the run manifest and the per-group SLO table
//! ([`slo`]: p50/p95/p99 flow completion times, goodput, Jain fairness).
//!
//! Determinism is the contract (DESIGN.md §6): every stochastic choice
//! draws from a generator derived from `run.seed`, so a document replays
//! **byte-identically** — report, packet trace, telemetry manifest and the
//! SLO metrics distilled from them. A seeded corpus ([`corpus`]) pins the
//! reference documents across both engines, the same way the sim
//! equivalence corpus pins the raw engines.
//!
//! ```
//! use empower_workload::{run_workload, Workload};
//!
//! let text = r#"
//! schema = 1
//! name = "demo"
//!
//! [topology]
//! kind = "fig1"
//!
//! [run]
//! seed = 1
//! horizon_secs = 5.0
//!
//! [[clients]]
//! kind = "closed_loop"
//! src = 0
//! dst = 2
//! "#;
//! let w = Workload::parse_str(text).unwrap();
//! let out = run_workload(&w).unwrap();
//! assert_eq!(out.slo.clients.len(), 1);
//! ```

pub mod compile;
pub mod corpus;
pub mod driver;
pub mod routes;
pub mod slo;
pub mod spec;

pub use compile::{compile, instance_seed, CompiledFlow, CompiledWorkload};
pub use corpus::{
    run_workload_scenario, run_workload_scenario_with, workload_corpus, WorkloadCorpusOutput,
    WorkloadScenario,
};
pub use driver::{run_workload, run_workload_on, run_workload_with, WorkloadOutput};
pub use slo::{jain_milli, ClientSlo, WorkloadSlo};
pub use spec::{ClientKind, ClientSpec, Diurnal, Workload, WorkloadTopology};
