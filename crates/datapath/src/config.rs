//! Typed configuration builders for the datapath stages: one value per
//! stage that names every knob, with the paper's defaults. Mid-flow
//! changes (rate vectors, route replacement) are methods on the stages
//! themselves ([`crate::FlowSource`], [`crate::FlowSink`]).

use crate::reorder::ReorderBuffer;
use crate::scheduler::RouteScheduler;

/// Configuration of the source-side route scheduler (token-bucket
/// admission + weighted route choice).
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    routes: usize,
    bucket_depth_mb: f64,
    probe_floor_mbps: f64,
    initial_rates: Option<Vec<f64>>,
}

impl SchedulerConfig {
    /// A scheduler over `routes` routes with the historical defaults: a
    /// 0.05 Mb bucket (~4 × 12 kbit frames) and a 0.25 Mbps probe floor.
    pub fn for_routes(routes: usize) -> Self {
        SchedulerConfig {
            routes,
            bucket_depth_mb: 0.05,
            probe_floor_mbps: 0.25,
            initial_rates: None,
        }
    }

    /// Token-bucket depth in megabits (burst tolerance). Must hold at
    /// least one frame or everything is dropped.
    pub fn bucket_depth_mb(mut self, depth: f64) -> Self {
        self.bucket_depth_mb = depth;
        self
    }

    /// Price-probing floor in Mbps: a route's *selection weight* never
    /// drops below this so its price stays observable. Zero disables
    /// probing.
    pub fn probe_floor_mbps(mut self, floor: f64) -> Self {
        self.probe_floor_mbps = floor.max(0.0);
        self
    }

    /// Per-route rates to start with (open-loop flows). Controlled flows
    /// leave this unset and receive rates via [`RouteScheduler::set_rates`].
    ///
    /// # Panics
    /// Panics at [`SchedulerConfig::build`] time if the length does not
    /// match the route count.
    pub fn initial_rates(mut self, rates: &[f64]) -> Self {
        self.initial_rates = Some(rates.to_vec());
        self
    }

    /// Number of routes this scheduler is keyed for.
    pub fn routes(&self) -> usize {
        self.routes
    }

    pub(crate) fn bucket_depth(&self) -> f64 {
        self.bucket_depth_mb
    }

    pub(crate) fn probe_floor(&self) -> f64 {
        self.probe_floor_mbps
    }

    pub(crate) fn rates(&self) -> Option<&[f64]> {
        self.initial_rates.as_deref()
    }

    /// Builds the scheduler.
    pub fn build(&self) -> RouteScheduler {
        RouteScheduler::from_config(self)
    }
}

/// Configuration of the destination-side reorder buffer.
#[derive(Debug, Clone)]
pub struct ReorderConfig {
    routes: usize,
    capacity: usize,
}

impl ReorderConfig {
    /// A reorder buffer keyed for `routes` routes with the historical
    /// 4096-packet memory bound.
    pub fn for_routes(routes: usize) -> Self {
        ReorderConfig { routes, capacity: 4096 }
    }

    /// Cap on buffered out-of-order packets (drop-oldest beyond this).
    pub fn capacity(mut self, packets: usize) -> Self {
        self.capacity = packets;
        self
    }

    /// Number of routes this buffer is keyed for.
    pub fn routes(&self) -> usize {
        self.routes
    }

    pub(crate) fn cap(&self) -> usize {
        self.capacity
    }

    /// Builds the buffer.
    pub fn build(&self) -> ReorderBuffer {
        ReorderBuffer::from_config(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_defaults_match_the_historical_constructor() {
        let s = SchedulerConfig::for_routes(2).build();
        assert_eq!(s.total_rate(), 0.0);
        // Depth/floor are private; behavioural checks live in scheduler.rs.
        assert_eq!(SchedulerConfig::for_routes(2).routes(), 2);
    }

    #[test]
    fn initial_rates_apply() {
        let s = SchedulerConfig::for_routes(2).initial_rates(&[3.0, 1.0]).build();
        assert_eq!(s.total_rate(), 4.0);
    }

    #[test]
    #[should_panic]
    fn mismatched_initial_rates_panic() {
        let _ = SchedulerConfig::for_routes(2).initial_rates(&[1.0]).build();
    }
}
