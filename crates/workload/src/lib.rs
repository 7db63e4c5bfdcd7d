#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! # empower-workload
//!
//! A composable, netbench-style workload DSL for the EMPoWER reproduction:
//! versioned TOML/JSON documents ([`spec`]) describing clients — open- and
//! closed-loop sources, request/response exchanges, bulk transfers, IoT
//! telemetry, elephant/mice mixes, diurnal load curves and session churn —
//! that compile ([`compile()`]) into deterministic seeded flow programs for
//! the packet simulator and run ([`driver`]) on either engine through the
//! [`empower_sim::corpus::SimEngine`] surface.
//!
//! Determinism is the contract (DESIGN.md §11): every stochastic choice
//! draws from a per-client generator derived from `run.seed`, so a
//! workload file replays **byte-identically** — report, packet trace,
//! telemetry manifest and the SLO metrics ([`slo`]: p50/p95/p99 flow
//! completion times, goodput, Jain fairness) distilled from it. A seeded
//! scenario corpus ([`corpus`]) pins three reference workloads across both
//! engines, the same way the sim equivalence corpus pins the raw engines.
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
pub use spec::{
    ClientKind, ClientSpec, Diurnal, TopologySpec, Workload, WorkloadRun, WorkloadTopology,
    WORKLOAD_SCHEMA_VERSION,
};
