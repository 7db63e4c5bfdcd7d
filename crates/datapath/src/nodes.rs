//! The typed forwarding-graph nodes.
//!
//! Each stage of the layer-2.5 datapath is a [`Node`]:
//! `Decap → RouteChoice → PriceStamp → DelayEq → Reorder → Encap`. A node
//! owns its stage's state (the token bucket, the reorder buffer, …),
//! processes one pooled packet at a time, and reacts to control-plane
//! messages ([`CtrlMsg`]) drained at graph ticks. The heavy lifting stays
//! in the existing stage types ([`RouteScheduler`], [`ReorderBuffer`],
//! [`DelayEqualizer`]); the nodes adapt them to the graph contract and own
//! the route table that used to be smeared across the driver.
//!
//! Every node also exposes its core operation as a plain method (e.g.
//! [`RouteChoiceNode::offer`], [`ReorderNode::accept`]) so drivers that
//! interleave graph stages with their own bookkeeping — the simulator's
//! event loop — can call stages directly while sharing the exact state the
//! graph runs.

use empower_model::rng::Rng;

use crate::ack::{Ack, AckCollector};
use crate::config::{DelayEqConfig, ReorderConfig, SchedulerConfig};
use crate::delay_eq::DelayEqualizer;
use crate::graph::{CtrlMsg, Disposition, DropReason, GraphCtx, Node};
use crate::header::{EmpowerHeader, SourceRoute, HEADER_LEN};
use crate::pool::{Packet, PktHandle};
use crate::reorder::{ReorderBuffer, ReorderEvent};
use crate::scheduler::{RouteChoice, RouteScheduler};

/// Ingress parsing: decodes the 20-byte wire header off the front of the
/// payload and recovers the flow-local route index from the route table.
#[derive(Debug, Clone)]
pub struct DecapNode {
    routes: Vec<SourceRoute>,
}

impl DecapNode {
    /// A decapsulator recognizing the given source routes.
    pub fn new(routes: Vec<SourceRoute>) -> Self {
        DecapNode { routes }
    }

    /// The flow-local index of `route`, if known.
    pub fn route_index(&self, route: &SourceRoute) -> Option<usize> {
        self.routes.iter().position(|r| r == route)
    }
}

impl Node for DecapNode {
    fn name(&self) -> &'static str {
        "decap"
    }

    fn process(&mut self, pkt: PktHandle, ctx: &mut GraphCtx<'_>) -> Disposition {
        let p = ctx.pool.get_mut(pkt);
        if p.payload.len() < HEADER_LEN {
            return Disposition::Drop(DropReason::Malformed);
        }
        let header = match EmpowerHeader::decode(&mut &p.payload[..HEADER_LEN]) {
            Ok(h) => h,
            Err(_) => return Disposition::Drop(DropReason::Malformed),
        };
        let Some(route) = self.route_index(&header.route) else {
            return Disposition::Drop(DropReason::NoRoute);
        };
        p.header = header;
        p.route = route;
        p.payload.drain(..HEADER_LEN);
        Disposition::Next
    }

    fn handle_ctrl(&mut self, msg: &CtrlMsg) {
        if let CtrlMsg::ReplaceRoutes(routes) = msg {
            self.routes.clone_from(routes);
        }
    }
}

/// Source-side admission and route selection: the token bucket plus the
/// weighted `max(x_r, probe_floor)` route draw, stamping a fresh header
/// (route + next sequence number) on admitted packets.
#[derive(Debug, Clone)]
pub struct RouteChoiceNode {
    scheduler: RouteScheduler,
    routes: Vec<SourceRoute>,
}

impl RouteChoiceNode {
    /// A route chooser over `routes`, configured by `cfg`.
    ///
    /// # Panics
    /// Panics when the config's route count and the route table disagree.
    pub fn new(cfg: &SchedulerConfig, routes: Vec<SourceRoute>) -> Self {
        assert_eq!(cfg.routes(), routes.len(), "scheduler config keyed for a different route set");
        RouteChoiceNode { scheduler: cfg.build(), routes }
    }

    /// Offers one packet of `bits` bits to the token bucket; see
    /// [`RouteScheduler::offer`].
    pub fn offer<R: Rng + ?Sized>(&mut self, rng: &mut R, now: f64, bits: u64) -> RouteChoice {
        self.scheduler.offer(rng, now, bits)
    }

    /// Stamps an admitted packet: fresh header carrying route `r`'s source
    /// route and the next wire sequence number.
    pub fn assign(&mut self, p: &mut Packet, r: usize) {
        let seq = self.scheduler.next_seq();
        p.header = EmpowerHeader::new(self.routes[r], seq);
        p.route = r;
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

impl Node for RouteChoiceNode {
    fn name(&self) -> &'static str {
        "route_choice"
    }

    fn process(&mut self, pkt: PktHandle, ctx: &mut GraphCtx<'_>) -> Disposition {
        let bits = ctx.pool.get(pkt).size_bits;
        match self.scheduler.offer(ctx.rng, ctx.now, bits) {
            RouteChoice::Drop => Disposition::Drop(DropReason::NoTokens),
            RouteChoice::Route(r) => {
                self.assign(ctx.pool.get_mut(pkt), r);
                Disposition::Next
            }
        }
    }

    fn handle_ctrl(&mut self, msg: &CtrlMsg) {
        match msg {
            CtrlMsg::SetRates(rates) => self.scheduler.apply_rates(rates),
            CtrlMsg::SetProbeFloor(floor) => self.scheduler.apply_probe_floor(*floor),
            CtrlMsg::ReplaceRoutes(routes) => {
                self.scheduler.rekey(routes.len());
                self.routes.clone_from(routes);
            }
        }
    }
}

/// Accumulates a forwarding node's price contribution into the header
/// (the Eq. (9) summand each hop adds to `q_r`).
#[derive(Debug, Clone, Copy, Default)]
pub struct PriceStampNode;

impl PriceStampNode {
    /// The stamp itself, callable without a graph: forwarding hops in the
    /// simulator touch only this one stage.
    pub fn apply(header: &mut EmpowerHeader, contribution: f64) {
        header.add_price(contribution);
    }
}

impl Node for PriceStampNode {
    fn name(&self) -> &'static str {
        "price_stamp"
    }

    fn process(&mut self, pkt: PktHandle, ctx: &mut GraphCtx<'_>) -> Disposition {
        Self::apply(&mut ctx.pool.get_mut(pkt).header, ctx.price_contribution);
        Disposition::Next
    }
}

/// Destination-side delay equalization (§6.4): holds packets from fast
/// routes so all routes present comparable latency to TCP above.
#[derive(Debug, Clone)]
pub struct DelayEqNode {
    eq: DelayEqualizer,
}

impl DelayEqNode {
    /// An equalizer node configured by `cfg`.
    pub fn new(cfg: &DelayEqConfig) -> Self {
        DelayEqNode { eq: cfg.build() }
    }

    /// Records `route`'s observed one-way delay and returns the hold time;
    /// see [`DelayEqualizer::on_arrival`].
    pub fn hold_for(&mut self, route: usize, delay_secs: f64) -> f64 {
        self.eq.on_arrival(route, delay_secs)
    }

    /// Current delay estimate of a route.
    pub fn estimate(&self, route: usize) -> Option<f64> {
        self.eq.estimate(route)
    }
}

impl Node for DelayEqNode {
    fn name(&self) -> &'static str {
        "delay_eq"
    }

    fn process(&mut self, pkt: PktHandle, ctx: &mut GraphCtx<'_>) -> Disposition {
        let p = ctx.pool.get(pkt);
        let hold = self.hold_for(p.route, ctx.now - p.created_at);
        if hold > 1e-9 {
            // The driver re-injects the packet after the hold elapses.
            ctx.out.hold_secs = Some(hold);
            Disposition::Consumed
        } else {
            Disposition::Next
        }
    }

    fn handle_ctrl(&mut self, msg: &CtrlMsg) {
        if let CtrlMsg::ReplaceRoutes(routes) = msg {
            self.eq.rekey(routes.len());
        }
    }
}

/// Destination-side reordering plus price acknowledgements: the per-route
/// price observations and delivery counts feed the 100 ms paced ACKs.
#[derive(Debug, Clone)]
pub struct ReorderNode {
    reorder: ReorderBuffer,
    acks: AckCollector,
}

impl ReorderNode {
    /// A reorder + ACK stage configured by `cfg`.
    pub fn new(cfg: &ReorderConfig) -> Self {
        ReorderNode { reorder: cfg.build(), acks: AckCollector::new(cfg.routes()) }
    }

    /// Accepts a packet's (route, seq, price) triple: records the price
    /// observation, runs the all-routes-passed reorder logic (appending
    /// releasable events to `out`), counts deliveries for the next ACK, and
    /// returns how many packets were delivered in order.
    ///
    /// `route` must be a live route index (the caller applies any stale-
    /// route policy first).
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

    /// The paced price acknowledgement, when one is due; see
    /// [`AckCollector::maybe_ack`].
    pub fn maybe_ack(&mut self, now: f64) -> Option<Ack> {
        self.acks.maybe_ack(now)
    }

    /// Number of routes currently keyed.
    pub fn route_count(&self) -> usize {
        self.reorder.route_count()
    }

    /// Packets buffered out of order.
    pub fn buffered(&self) -> usize {
        self.reorder.buffered()
    }

    /// The next in-order sequence number expected.
    pub fn expected(&self) -> u32 {
        self.reorder.expected()
    }
}

impl Node for ReorderNode {
    fn name(&self) -> &'static str {
        "reorder"
    }

    fn process(&mut self, pkt: PktHandle, ctx: &mut GraphCtx<'_>) -> Disposition {
        let p = ctx.pool.get(pkt);
        if p.route >= self.reorder.route_count() {
            return Disposition::Drop(DropReason::Stale);
        }
        let (route, seq, price) = (p.route, p.header.seq, f64::from(p.header.price));
        ctx.pool.release(pkt);
        self.accept(route, seq, price, &mut ctx.out.reorder);
        Disposition::Consumed
    }

    fn handle_ctrl(&mut self, msg: &CtrlMsg) {
        if let CtrlMsg::ReplaceRoutes(routes) = msg {
            // High-water marks restart (the loss rule waits for the new
            // routes); the ACK pacing clock restarts with them.
            self.reorder.rekey(routes.len());
            self.acks = AckCollector::new(routes.len());
        }
    }
}

/// Egress framing: serializes the wire header ahead of the payload into
/// the outbox's reusable frame buffer.
#[derive(Debug, Clone, Copy, Default)]
pub struct EncapNode;

impl Node for EncapNode {
    fn name(&self) -> &'static str {
        "encap"
    }

    fn process(&mut self, pkt: PktHandle, ctx: &mut GraphCtx<'_>) -> Disposition {
        let p = ctx.pool.get(pkt);
        let mut header = [0u8; HEADER_LEN];
        p.header.encode_into(&mut header);
        ctx.out.frame.clear();
        ctx.out.frame.extend_from_slice(&header);
        ctx.out.frame.extend_from_slice(&p.payload);
        Disposition::Next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Outbox;
    use crate::iface_id::IfaceId;
    use crate::pool::PktPool;
    use empower_model::rng::{SeedableRng, StdRng};

    fn route(ids: &[u16]) -> SourceRoute {
        let hops: Vec<IfaceId> = ids.iter().map(|&i| IfaceId(i)).collect();
        SourceRoute::new(&hops).unwrap()
    }

    fn ctx_parts() -> (PktPool, StdRng, Outbox) {
        (PktPool::new(), StdRng::seed_from_u64(7), Outbox::default())
    }

    #[test]
    fn decap_recovers_header_and_route() {
        let routes = vec![route(&[1, 2]), route(&[3, 4])];
        let mut decap = DecapNode::new(routes.clone());
        let (mut pool, mut rng, mut out) = ctx_parts();

        let mut h = EmpowerHeader::new(routes[1], 42);
        h.add_price(0.25);
        let pkt = pool.insert_with(|p| {
            p.reset();
            h.encode(&mut p.payload);
            p.payload.extend_from_slice(b"hello");
        });
        let mut ctx = GraphCtx {
            now: 0.0,
            pool: &mut pool,
            rng: &mut rng,
            price_contribution: 0.0,
            out: &mut out,
        };
        assert_eq!(decap.process(pkt, &mut ctx), Disposition::Next);
        let p = pool.get(pkt);
        assert_eq!(p.route, 1);
        assert_eq!(p.header.seq, 42);
        assert_eq!(p.payload, b"hello");
    }

    #[test]
    fn decap_rejects_unknown_routes_and_short_frames() {
        let mut decap = DecapNode::new(vec![route(&[1, 2])]);
        let (mut pool, mut rng, mut out) = ctx_parts();

        let pkt = pool.insert_with(|p| {
            p.reset();
            EmpowerHeader::new(route(&[9, 9]), 0).encode(&mut p.payload);
        });
        let mut ctx = GraphCtx {
            now: 0.0,
            pool: &mut pool,
            rng: &mut rng,
            price_contribution: 0.0,
            out: &mut out,
        };
        assert_eq!(decap.process(pkt, &mut ctx), Disposition::Drop(DropReason::NoRoute));

        let short = ctx.pool.insert_with(|p| {
            p.reset();
            p.payload.extend_from_slice(&[0u8; HEADER_LEN - 1]);
        });
        assert_eq!(decap.process(short, &mut ctx), Disposition::Drop(DropReason::Malformed));
    }

    #[test]
    fn route_choice_assigns_sequences_and_routes() {
        let routes = vec![route(&[1, 2]), route(&[3, 4])];
        let cfg = SchedulerConfig::for_routes(2).initial_rates(&[10.0, 10.0]);
        let mut rc = RouteChoiceNode::new(&cfg, routes.clone());
        let (mut pool, mut rng, mut out) = ctx_parts();

        let mut seqs = Vec::new();
        let mut t = 0.0;
        for _ in 0..4 {
            t += 0.01;
            let pkt = pool.insert_with(|p| {
                p.reset();
                p.size_bits = 12_000;
            });
            let mut ctx = GraphCtx {
                now: t,
                pool: &mut pool,
                rng: &mut rng,
                price_contribution: 0.0,
                out: &mut out,
            };
            if rc.process(pkt, &mut ctx) == Disposition::Next {
                let p = pool.get(pkt);
                assert_eq!(p.header.route, routes[p.route]);
                seqs.push(p.header.seq);
            }
            pool.release(pkt);
        }
        assert!(!seqs.is_empty());
        for w in seqs.windows(2) {
            assert_eq!(w[1], w[0] + 1, "wire sequence numbers increment");
        }
    }

    #[test]
    fn reorder_node_counts_deliveries_and_acks() {
        let mut node = ReorderNode::new(&ReorderConfig::for_routes(2));
        let mut out = Vec::new();
        assert_eq!(node.accept(0, 0, 0.5, &mut out), 1);
        out.clear();
        assert_eq!(node.accept(1, 1, 0.7, &mut out), 1);
        let ack = node.maybe_ack(0.2).expect("ack due");
        assert_eq!(ack.delivered_packets, 2);
        assert_eq!(ack.route_prices, vec![Some(0.5), Some(0.7)]);
    }

    #[test]
    fn delay_eq_node_consumes_held_packets() {
        let mut node = DelayEqNode::new(&DelayEqConfig::for_routes(2));
        let (mut pool, mut rng, mut out) = ctx_parts();
        // Prime: route 1 is slow.
        node.hold_for(1, 0.2);
        let pkt = pool.insert_with(|p| {
            p.reset();
            p.route = 0;
            p.created_at = 1.0;
        });
        let mut ctx = GraphCtx {
            now: 1.01,
            pool: &mut pool,
            rng: &mut rng,
            price_contribution: 0.0,
            out: &mut out,
        };
        assert_eq!(node.process(pkt, &mut ctx), Disposition::Consumed);
        let hold = out.hold_secs.expect("fast route is held");
        assert!(hold > 0.1, "hold {hold}");
    }

    #[test]
    fn encap_then_decap_round_trips() {
        let routes = vec![route(&[1, 2])];
        let mut encap = EncapNode;
        let mut decap = DecapNode::new(routes.clone());
        let (mut pool, mut rng, mut out) = ctx_parts();

        let pkt = pool.insert_with(|p| {
            p.reset();
            p.header = EmpowerHeader::new(routes[0], 9);
            p.payload.extend_from_slice(b"payload");
        });
        let mut ctx = GraphCtx {
            now: 0.0,
            pool: &mut pool,
            rng: &mut rng,
            price_contribution: 0.0,
            out: &mut out,
        };
        assert_eq!(encap.process(pkt, &mut ctx), Disposition::Next);
        let frame = ctx.out.frame.clone();
        assert_eq!(frame.len(), HEADER_LEN + 7);

        let rx = ctx.pool.insert_with(|p| {
            p.reset();
            p.payload.extend_from_slice(&frame);
        });
        assert_eq!(decap.process(rx, &mut ctx), Disposition::Next);
        let p = pool.get(rx);
        assert_eq!(p.header.seq, 9);
        assert_eq!(p.payload, b"payload");
    }
}
