#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! # empower-model
//!
//! Network-model substrate for the EMPoWER reproduction (Henri et al.,
//! CoNEXT 2016, §2).
//!
//! A hybrid local network with `N` nodes and `K` technologies is modelled as
//! a multigraph `G(V, {E_1, …, E_K})`: the same pair of nodes may be joined
//! by several links, one per technology. Everything the EMPoWER algorithms
//! consume is expressed in terms of
//!
//! * link **capacities** `c_l` (equivalently costs `d_l = 1 / c_l`),
//! * **interference domains** `I_l` — the set of links that cannot transmit
//!   simultaneously with `l` (including `l` itself), and
//! * link **airtimes** `µ_l = x_l · d_l` (Eq. (1) of the paper).
//!
//! This crate provides those primitives, plus the topology generators used by
//! the evaluation (§5.1 residential/enterprise, the worked examples of
//! Figs. 1 and 3, and the 22-node testbed floor of §6) and the capacity
//! samplers that stand in for the paper's 802.11n-MCS / HomePlug-BLE
//! measurements.

pub mod airtime;
pub mod capacity;
pub mod geometry;
pub mod graph;
pub mod ids;
pub mod interference;
pub mod link;
pub mod medium;
pub mod node;
pub mod path;
pub mod rng;
pub mod topology;

pub use airtime::{lemma1_rmax, AirtimeLedger};
pub use capacity::{CapacityModel, PlcCapacityModel, WifiCapacityModel};
pub use geometry::{Point, Rect};
pub use graph::{Network, NetworkBuilder};
pub use ids::{LinkId, NodeId, PanelId};
pub use interference::{CarrierSense, InterferenceMap, InterferenceModel, SharedMedium};
pub use link::Link;
pub use medium::Medium;
pub use node::Node;
pub use path::{Path, PathIncidence};
