#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Scenario-driven network dynamics and fault injection for the EMPoWER
//! reproduction.
//!
//! The paper's story is ultimately about *change*: PLC capacity collapses
//! when an appliance switches on, WiFi links fade, nodes reboot — and the
//! hybrid stack is judged by how it rides these out (§3.2's route
//! recomputation, §6.4's recovery behaviour). This crate makes that
//! testable with three layers:
//!
//! 1. **Scenario model** ([`scenario`]) — a declarative, versioned
//!    timeline of perturbations (capacity steps and drifts, link and node
//!    outages, PLC-noise and WiFi-jam bursts) plus seeded stochastic
//!    generators (Markov on/off churn, Gilbert–Elliott flapping),
//!    serialized as TOML ([`toml`]) or JSON. Same file, same seed → same
//!    run, byte for byte.
//! 2. **Injector** ([`injector`]) — compiles a scenario against a concrete
//!    network into timestamped [`injector::FaultAction`]s, then either
//!    schedules them on the packet engine's virtual clock or replays them
//!    onto a plain [`Network`](empower_model::Network) for the fluid
//!    evaluators ([`fluid`]).
//! 3. **Resilience metrics** ([`resilience`]) — the driver ([`driver`])
//!    polls a [`RouteMonitor`](empower_core::RouteMonitor) per flow while
//!    the scenario unfolds, reroutes on triggers, and distils each fault
//!    into time-to-detect, time-to-reconverge, throughput-dip area and
//!    packets lost.
//!
//! ```
//! use empower_dynamics::{run_scenario, Scenario};
//! use empower_telemetry::Telemetry;
//!
//! let text = r#"
//! schema = 1
//! name = "wifi backhaul drop"
//!
//! [topology]
//! kind = "fig1"
//!
//! [run]
//! scheme = "EMPoWER"
//! horizon_secs = 30.0
//!
//! [[flows]]
//! src = 0
//! dst = 2
//! pattern = "saturated"
//! stop = 30.0
//!
//! [[events]]
//! at = 10.0
//! kind = "link_down"
//! link = 2
//! "#;
//! let scenario = Scenario::parse_str(text).unwrap();
//! let outcome = run_scenario(&scenario, &Telemetry::disabled()).unwrap();
//! assert_eq!(outcome.resilience.len(), 1);
//! ```

pub mod driver;
pub mod fluid;
pub mod injector;
pub mod resilience;
pub mod scenario;
pub mod schema;
pub mod toml;

pub use driver::{run_scenario, run_scenario_on, Reroute, ScenarioOutcome};
pub use fluid::{fluid_timeline, fluid_timeline_on, FluidSegment};
pub use injector::{compile, schedule, CompiledFault, FaultAction, NetMutator};
pub use resilience::{episode_metrics, episode_times, FaultMetrics};
pub use scenario::{
    FlowSpec, GeneratorSpec, PatternSpec, Perturbation, RunSpec, Scenario, ScenarioError,
    TimedPerturbation, TopologyKind, TopologySpec, SCHEMA_VERSION,
};
pub use toml::{to_toml_string, TomlError};
