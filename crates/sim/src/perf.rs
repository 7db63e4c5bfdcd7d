//! Deterministic hot-path work counters for the simulator engines.
//!
//! Both [`crate::Simulation`] (the optimized engine) and
//! [`crate::ReferenceSimulation`] (the retained pre-optimization engine)
//! maintain a [`SimPerfStats`], so the equivalence tests can hold the
//! engines to exact work budgets and the repo's benchmark (`benchmark/`)
//! can report work — not only wall-clock — across machines.

/// Work counters accumulated while the simulation runs. All counts are
/// deterministic functions of the scenario (no timing, no sampling).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimPerfStats {
    /// Events popped from the queue and dispatched by `run_until`.
    pub events_dispatched: u64,
    /// Occupancy tests performed by `can_start`'s interference-domain
    /// scan: domain *elements* visited in the reference engine, domain
    /// *words* ANDed in the bitset engine (both early-exit on a busy hit).
    pub domain_probes: u64,
    /// Steady-state hot-path heap allocations. The counted allocation
    /// classes are fixed (domain `.to_vec()` clones, per-tick scratch
    /// vectors, reorder/ACK result vectors, packet-struct moves through
    /// growth); the optimized engine only counts slab growth here, so the
    /// reference/optimized ratio is the headline "allocations removed"
    /// figure.
    pub hot_allocs: u64,
    /// Packet-slab inserts that grew the slab (allocation-class events).
    pub slab_grows: u64,
    /// Elements the control ticks visited: per-link states read or
    /// written, interference-domain members, overhearing entries and the
    /// egress links behind refreshed broadcasts. The optimized engine's
    /// measure of what a slot costs; the reference engine, which visits
    /// every link and every domain every slot, leaves it at zero.
    pub tick_visits: u64,
}
