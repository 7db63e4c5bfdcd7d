#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! The document and the driver of the EMPoWER reproduction: traffic on a
//! topology, under a timeline of faults.
//!
//! The paper's story is ultimately about *change*: PLC capacity collapses
//! when an appliance switches on, WiFi links fade, nodes reboot — and the
//! hybrid stack is judged by how it rides these out (§3.2's route
//! recomputation, §6.4's recovery behaviour). This crate makes that
//! testable with four layers:
//!
//! 1. **The document** ([`scenario`]) — a versioned TOML ([`toml`]) or
//!    JSON file naming a topology (Fig. 1, a residential or enterprise
//!    class, the testbed, or a campus grid), a run configuration, the
//!    traffic — hand-routed `[[clients]]` populations (open- and
//!    closed-loop sources, request/response, bulk, IoT telemetry,
//!    elephant/mice mixes, churn) and scheme-routed `[[flows]]` — and a
//!    timeline of perturbations (capacity steps and drifts, link and node
//!    outages, PLC-noise and WiFi-jam bursts) plus seeded stochastic
//!    generators (Markov on/off churn, Gilbert–Elliott flapping). Same
//!    file, same seed → same run, byte for byte.
//! 2. **Lowering** ([`lower`], [`injector`]) — builds the topology,
//!    expands the clients into a seeded flow program, and compiles the
//!    timeline into timestamped [`injector::FaultAction`]s, which are
//!    scheduled on a packet engine's virtual clock or replayed onto a
//!    plain [`Network`](empower_model::Network) for the fluid evaluators
//!    ([`fluid`]).
//! 3. **The driver** ([`driver`]) — one run loop, generic over the engine:
//!    with a timeline it polls a [`RouteMonitor`](empower_core::RouteMonitor)
//!    per flow and reroutes on triggers; without one it runs straight to
//!    the horizon. `empower-workload` adds SLO metrics on top.
//! 4. **Resilience metrics** ([`resilience`]) — each fault distilled into
//!    time-to-detect, time-to-reconverge, throughput-dip area and packets
//!    lost.
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
pub mod lower;
pub mod resilience;
pub mod scenario;
pub mod schema;
pub mod toml;

pub use driver::{drive, run_scenario, run_scenario_on, Reroute, ScenarioOutcome};
pub use fluid::{fluid_timeline, FluidSegment};
pub use injector::{compile, schedule, CompiledFault, FaultAction, NetMutator};
pub use lower::{CompiledFlow, CompiledWorkload};
pub use resilience::{episode_metrics, episode_times, FaultMetrics};
pub use scenario::{
    ClientKind, ClientSpec, Diurnal, FlowSpec, GeneratorSpec, PatternSpec, Perturbation, RunSpec,
    Scenario, ScenarioError, TimedPerturbation, TopologyKind, TopologySpec, MAX_EXPANSION,
    SCHEMA_VERSION,
};
pub use toml::{to_toml_string, TomlError};
