#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! # empower-datapath
//!
//! The layer-2.5 datapath of EMPoWER (§6.1): everything that sits between
//! the MAC below and IP above on the wire.
//!
//! The protocol header has a fixed size of **20 bytes**:
//!
//! | bytes | field |
//! |---|---|
//! | 0–11 | source route: up to 6 hops, 2 bytes per ingress-interface id |
//! | 12–15 | the route price `q_r`, accumulated hop by hop (IEEE-754 f32) |
//! | 16–19 | sequence number (u32), used by the destination to reorder |
//!
//! Interface ids are short hashes of the interfaces' MAC addresses. Source
//! routing means intermediate nodes do no route lookups: they find the next
//! ingress interface in the header and forward (`Check Dst` → `Fwd` in the
//! paper's Fig. 2). The destination reorders packets by sequence number,
//! declares a packet lost "when it has received packets with sequence number
//! greater than S on all routes", tracks the latest `q_r` per route, and
//! acknowledges every 100 ms over the best single path.
//!
//! A flow's per-packet work is two fixed pipelines, each a plain value
//! ([`stages`]): [`FlowSource`] admits, draws a route and stamps the
//! header; [`FlowSink`] equalizes delays, reorders and paces the ACKs.
//! Stages are configured through builders ([`config`]); the simulator's
//! event loop calls them directly, and the endpoints in [`backend`] wrap
//! them around pluggable packet I/O (an in-memory pair or a UDP socket).

pub mod ack;
pub mod backend;
pub mod config;
pub mod delay_eq;
pub mod header;
pub mod iface_id;
pub mod reorder;
pub mod scheduler;
pub mod stages;

pub use ack::{Ack, AckCollector, ACK_INTERVAL_SECS};
pub use backend::{DestEndpoint, IoError, PacketIo, SourceEndpoint};
pub use config::{ReorderConfig, SchedulerConfig};
pub use delay_eq::DelayEqualizer;
pub use header::{EmpowerHeader, HeaderError, SourceRoute, HEADER_LEN, MAX_HOPS};
pub use iface_id::{IfaceId, IfaceRegistry};
pub use reorder::{ReorderBuffer, ReorderEvent};
pub use scheduler::{RouteChoice, RouteScheduler, PROBE_FLOOR_MBPS};
pub use stages::{FlowSink, FlowSource};
