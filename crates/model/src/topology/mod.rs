//! Topology generators for the paper's evaluation scenarios.
//!
//! * [`examples`] — the deterministic worked examples of Figs. 1 and 3, plus
//!   small synthetic fixtures used across the test suites.
//! * [`random`] — the randomized residential (50×30 m, 10 nodes) and
//!   enterprise (100×60 m, 20 nodes, two electrical panels) topologies of
//!   §5.1.
//! * [`testbed22`](testbed22::testbed22) — the simulated stand-in for the 22-node office testbed
//!   of §6 (65×40 m floor).
//! * [`campus()`] — seeded hierarchical multi-floor/multi-building campuses
//!   (100/500/1000+ nodes) for the scale workloads.

pub mod campus;
pub mod examples;
pub mod random;
pub mod testbed22;

pub use campus::{campus, CampusConfig, CampusFloor, CampusTopology};
pub use examples::{fig1_scenario, fig3_scenario, Fig1Scenario, Fig3Scenario};
pub use random::{enterprise, residential, RandomTopologyConfig, TopologyClass};
pub use testbed22::{testbed22, Testbed22};
