//! The sharded-engine name, kept as a façade over one [`Simulation`].
//!
//! Interference-domain sharding was measured against its wire-in
//! criterion and deleted (DESIGN.md §13). What remains is the API its
//! callers compile against: a shard count that is accepted and ignored,
//! and per-shard work figures that describe the one engine.

use empower_model::{InterferenceMap, Network};

use crate::config::SimConfig;
use crate::engine::Simulation;

/// One [`Simulation`] under the sharded engine's name.
pub struct ShardedSimulation(pub(crate) Simulation);

impl ShardedSimulation {
    /// Builds the engine; `shards` is ignored, every run uses one engine.
    pub fn with_shards(net: Network, imap: InterferenceMap, cfg: SimConfig, _shards: u32) -> Self {
        ShardedSimulation(Simulation::new(net, imap, cfg))
    }

    /// Engines that ran: always 1.
    pub fn shards_used(&self) -> usize {
        1
    }

    /// Events dispatched per engine: the one engine's count.
    pub fn shard_events_dispatched(&self) -> Vec<u64> {
        vec![self.0.perf_stats().events_dispatched]
    }
}
