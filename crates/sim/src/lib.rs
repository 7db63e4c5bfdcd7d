#![forbid(unsafe_code)]
//! # empower-sim
//!
//! A deterministic discrete-event packet simulator for hybrid local
//! networks, standing in for the paper's Matlab simulator (§5) and — with
//! the [`crate::tcp`] transport — for the hardware testbed runs (§6).
//!
//! The MAC is the paper's simulation model: CSMA/CA with perfect sensing
//! and no back-off. A link may start transmitting when its queue is
//! backlogged and no link of its interference domain is on the air; when a
//! transmission ends, the backlogged contender that has waited longest goes
//! next (long-run fair airtime sharing without collisions). Frames default
//! to 12 000 bytes — an aggregated A-MPDU/PLC burst, which both 802.11n and
//! HomePlug AV perform — so that multi-thousand-second experiments stay
//! cheap without changing airtime arithmetic.
//!
//! On top of the MAC runs the complete EMPoWER stack from the sibling
//! crates: source routing with the 20-byte header, per-packet weighted
//! route choice, token-bucket admission, per-technology price broadcasts
//! and dual updates each 100 ms slot, price accumulation in headers, paced
//! ACKs, destination reordering with the all-routes-passed loss rule, and
//! optional delay equalization for TCP.

pub mod config;
pub mod corpus;
pub mod engine;
pub mod event;
pub mod flow;
mod metrics;
pub mod packet;
pub mod perf;
pub mod reference;
pub mod sharded;
pub mod stats;
pub mod tcp;
pub mod trace;

pub use config::SimConfig;
pub use engine::Simulation;
pub use event::{Event, EventQueue, ReferenceEventQueue};
pub use flow::{FlowSpecSim, TrafficPattern};
pub use packet::{PacketId, PacketSlab, SimPacket};
pub use perf::SimPerfStats;
pub use reference::ReferenceSimulation;
pub use sharded::ShardedSimulation;
pub use stats::{FlowStats, SimReport};
pub use tcp::TcpConfig;
pub use trace::{DropSite, Trace, TraceEvent};
