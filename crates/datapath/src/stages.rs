//! A flow's two per-packet pipelines (§6.1), as plain values.
//!
//! The source side of a flow is a [`FlowSource`]: the token bucket and the
//! weighted route draw ([`RouteScheduler`]) plus the route table that turns
//! a drawn index into the header's source route. The destination side is a
//! [`FlowSink`]: optional delay equalization (§6.4), the reorder buffer
//! with its all-routes-passed loss rule, and the paced price ACKs. Each
//! hop between them adds its price with [`EmpowerHeader::add_price`].
//!
//! Drivers call the stages directly, in the fixed order the paper gives:
//! the simulator's event loop interleaves them with MAC and propagation
//! events, and the endpoints in [`crate::backend`] wrap them around a
//! packet I/O backend.

use empower_model::rng::Rng;

use crate::ack::{Ack, AckCollector};
use crate::config::{ReorderConfig, SchedulerConfig};
use crate::delay_eq::DelayEqualizer;
use crate::header::{EmpowerHeader, SourceRoute};
use crate::reorder::{ReorderBuffer, ReorderEvent};
use crate::scheduler::{RouteChoice, RouteScheduler};

/// Source side of a flow: admission, route choice and a fresh header
/// (route + next wire sequence number) for every admitted packet.
#[derive(Debug, Clone)]
pub struct FlowSource {
    scheduler: RouteScheduler,
    routes: Vec<SourceRoute>,
}

impl FlowSource {
    /// A source over `routes`, configured by `cfg`.
    ///
    /// # Panics
    /// Panics when the config's route count and the route table disagree.
    pub fn new(cfg: &SchedulerConfig, routes: Vec<SourceRoute>) -> Self {
        assert_eq!(cfg.routes(), routes.len(), "scheduler config keyed for a different route set");
        FlowSource { scheduler: cfg.build(), routes }
    }

    /// Offers one packet of `bits` bits at `now` to the token bucket; see
    /// [`RouteScheduler::offer`]. On admission returns the drawn route and
    /// the packet's header, with zero accumulated price; `None` is the
    /// refusal TCP perceives as congestion.
    pub fn admit<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        now: f64,
        bits: u64,
    ) -> Option<(usize, EmpowerHeader)> {
        match self.scheduler.offer(rng, now, bits) {
            RouteChoice::Drop => None,
            RouteChoice::Route(r) => Some((r, self.header_on(r))),
        }
    }

    /// A header for route `r` carrying the next wire sequence number,
    /// bypassing the token bucket: the open-loop TCP path pins a route
    /// without consuming tokens or RNG draws.
    pub fn header_on(&mut self, r: usize) -> EmpowerHeader {
        EmpowerHeader::new(self.routes[r], self.scheduler.next_seq())
    }

    /// New per-route rates `x_r` (Mbps) from the congestion controller.
    pub fn set_rates(&mut self, rates: &[f64]) {
        self.scheduler.set_rates(rates);
    }

    /// Replaces the route set (route recomputation after a failure, §3.2):
    /// the rates restart at zero, the token bucket and the wire sequence
    /// counter survive.
    pub fn replace_routes(&mut self, routes: Vec<SourceRoute>) {
        self.scheduler.reset_routes(routes.len());
        self.routes = routes;
    }

    /// Current total admitted rate, Mbps.
    pub fn total_rate(&self) -> f64 {
        self.scheduler.total_rate()
    }

    /// Number of routes currently keyed.
    pub fn route_count(&self) -> usize {
        self.routes.len()
    }
}

/// Destination side of a flow: delay equalization (when configured),
/// reordering with the loss rule, and the per-route price observations and
/// delivery counts behind the 100 ms paced ACKs.
#[derive(Debug, Clone)]
pub struct FlowSink {
    delay_eq: Option<DelayEqualizer>,
    reorder: ReorderBuffer,
    acks: AckCollector,
}

impl FlowSink {
    /// A sink configured by `cfg`, equalizing delays over the same routes
    /// when `delay_equalization` is set.
    pub fn new(cfg: &ReorderConfig, delay_equalization: bool) -> Self {
        FlowSink {
            delay_eq: delay_equalization.then(|| DelayEqualizer::new(cfg.routes())),
            reorder: cfg.build(),
            acks: AckCollector::new(cfg.routes()),
        }
    }

    /// Records `route`'s observed one-way delay and returns the hold to
    /// apply before [`FlowSink::accept`] (0 without delay equalization);
    /// see [`DelayEqualizer::on_arrival`].
    pub fn arrival_hold(&mut self, route: usize, delay_secs: f64) -> f64 {
        self.delay_eq.as_mut().map_or(0.0, |eq| eq.on_arrival(route, delay_secs))
    }

    /// Accepts a packet's (route, seq, price) triple: records the price
    /// observation, runs the all-routes-passed reorder logic (appending
    /// releasable events to `out`), counts deliveries for the next ACK, and
    /// returns how many packets were delivered in order.
    ///
    /// `route` must be below [`FlowSink::route_count`]; the caller applies
    /// its stale-route policy first.
    pub fn accept(
        &mut self,
        route: usize,
        seq: u32,
        price: f64,
        out: &mut Vec<ReorderEvent>,
    ) -> u64 {
        self.acks.observe_price(route, price);
        let start = out.len();
        self.reorder.accept_into(route, seq, out);
        let mut delivered = 0u64;
        for ev in &out[start..] {
            if matches!(ev, ReorderEvent::Deliver(_)) {
                self.acks.count_delivery();
                delivered += 1;
            }
        }
        delivered
    }

    /// The reorder stage's next expected sequence number; see
    /// [`ReorderBuffer::expected`].
    pub fn expected(&self) -> u32 {
        self.reorder.expected()
    }

    /// The paced price acknowledgement, when one is due; see
    /// [`AckCollector::maybe_ack`].
    pub fn maybe_ack(&mut self, now: f64) -> Option<Ack> {
        self.acks.maybe_ack(now)
    }

    /// The due ACK's per-route prices, lent instead of copied; see
    /// [`AckCollector::ack_due`].
    pub fn ack_due(&mut self, now: f64) -> Option<&[Option<f64>]> {
        self.acks.ack_due(now)
    }

    /// Re-keys for a new set of `route_count` routes: the expected
    /// sequence number and buffered packets survive, the per-route
    /// high-water marks and delay estimates restart, and so does the ACK
    /// collector with its pacing clock.
    pub fn replace_routes(&mut self, route_count: usize) {
        if let Some(eq) = self.delay_eq.as_mut() {
            eq.reset_routes(route_count);
        }
        self.reorder.reset_routes(route_count);
        self.acks = AckCollector::new(route_count);
    }

    /// Number of routes currently keyed.
    pub fn route_count(&self) -> usize {
        self.reorder.route_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iface_id::IfaceId;
    use empower_model::rng::{SeedableRng, StdRng};

    fn route(ids: &[u16]) -> SourceRoute {
        let hops: Vec<IfaceId> = ids.iter().map(|&i| IfaceId(i)).collect();
        SourceRoute::new(&hops).unwrap()
    }

    fn two_route_source() -> FlowSource {
        let cfg = SchedulerConfig::for_routes(2).initial_rates(&[10.0, 10.0]);
        FlowSource::new(&cfg, vec![route(&[1, 2]), route(&[3, 4])])
    }

    fn sink(routes: usize, delay_eq: bool) -> FlowSink {
        FlowSink::new(&ReorderConfig::for_routes(routes), delay_eq)
    }

    #[test]
    fn admitted_packets_flow_source_to_destination() {
        let mut src = two_route_source();
        let mut dst = sink(2, false);
        let mut rng = StdRng::seed_from_u64(11);
        let mut events = Vec::new();
        let (mut delivered, mut t) = (0u64, 0.0);
        for _ in 0..50 {
            t += 0.01;
            if let Some((r, mut h)) = src.admit(&mut rng, t, 12_000) {
                h.add_price(0.01);
                events.clear();
                delivered += dst.accept(r, h.seq, f64::from(h.price), &mut events);
            }
        }
        assert!(delivered > 0, "packets flowed end to end");
        let ack = dst.maybe_ack(t).expect("ack due");
        assert_eq!(ack.delivered_packets, delivered);
    }

    #[test]
    fn route_choice_assigns_sequences_and_routes() {
        let mut src = two_route_source();
        let mut rng = StdRng::seed_from_u64(7);
        // The open-loop path draws from the same sequence counter.
        let mut seqs = vec![src.header_on(1).seq];
        let mut t = 0.0;
        while seqs.len() < 5 {
            t += 0.01;
            if let Some((r, h)) = src.admit(&mut rng, t, 12_000) {
                assert_eq!(h.route, src.routes[r], "the header names the drawn route");
                assert_eq!(h.price, 0.0, "the source stamps no price of its own");
                seqs.push(h.seq);
            }
        }
        seqs.push(src.header_on(0).seq);
        assert_eq!(seqs, [0, 1, 2, 3, 4, 5], "wire sequence numbers increment");
    }

    #[test]
    fn replace_routes_rekeys_every_stage() {
        let mut src = two_route_source();
        let mut dst = sink(2, true);
        src.replace_routes(vec![route(&[5, 6]), route(&[7, 8]), route(&[9, 10])]);
        dst.replace_routes(3);
        assert_eq!(src.total_rate(), 0.0, "rates restart at zero");
        src.set_rates(&[1.0, 1.0, 1.0]);
        assert_eq!((src.route_count(), dst.route_count(), src.total_rate()), (3, 3, 3.0));
        assert_eq!(src.header_on(2).route, route(&[9, 10]));
        assert_eq!(dst.arrival_hold(2, 0.01), 0.0, "the new route has a delay slot");
        assert!(dst.maybe_ack(0.0).is_none(), "the ACK collector restarted empty");
    }

    #[test]
    fn delay_eq_holds_the_fast_route() {
        let mut dst = sink(2, true);
        dst.arrival_hold(1, 0.2);
        let hold = dst.arrival_hold(0, 0.01);
        assert!(hold > 0.1, "hold {hold}");
        let mut plain = sink(2, false);
        plain.arrival_hold(1, 0.2);
        assert_eq!(plain.arrival_hold(0, 0.01), 0.0, "no equalizer, no hold");
    }

    #[test]
    fn reorder_counts_deliveries_and_acks() {
        let mut dst = sink(2, false);
        let mut out = Vec::new();
        assert_eq!(dst.accept(0, 0, 0.5, &mut out), 1);
        assert_eq!(dst.accept(1, 1, 0.7, &mut out), 1);
        assert_eq!(out, [ReorderEvent::Deliver(0), ReorderEvent::Deliver(1)], "appended");
        let ack = dst.maybe_ack(0.2).expect("ack due");
        assert_eq!(ack.delivered_packets, 2);
        assert_eq!(ack.route_prices, vec![Some(0.5), Some(0.7)]);
    }
}
