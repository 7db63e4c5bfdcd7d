//! Pluggable packet I/O backends for the forwarding graph.
//!
//! A [`PacketIo`] moves opaque frames; it knows nothing about the EMPoWER
//! header. The two endpoint types assemble forwarding graphs around a
//! backend: [`SourceEndpoint`] runs `RouteChoice → PriceStamp → Encap` and
//! hands the serialized frame to the backend, [`DestEndpoint`] receives
//! frames and runs `Decap → Reorder`. The same node code runs whether the
//! backend is the in-memory loopback ([`sim::SimBackend`]), a real UDP
//! socket ([`udp::UdpBackend`]), or the simulator's event loop driving the
//! stages directly through [`FlowDatapath`](crate::graph::FlowDatapath).

pub mod sim;
pub mod udp;

use empower_model::rng::{SeedableRng, StdRng};
use empower_telemetry::Scope;

use crate::ack::Ack;
use crate::config::{ReorderConfig, SchedulerConfig};
use crate::graph::{ChainResult, Disposition, FlowGraph, GraphCtx, GraphNode, Outbox};
use crate::header::{SourceRoute, HEADER_LEN};
use crate::nodes::{DecapNode, EncapNode, PriceStampNode, ReorderNode, RouteChoiceNode};
use crate::pool::PktPool;
use crate::reorder::ReorderEvent;

/// A backend failure, carrying a human-readable description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoError(pub String);

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "packet i/o error: {}", self.0)
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError(e.to_string())
    }
}

/// Frame-level packet I/O: the graph's only window onto the outside world.
///
/// Frames cross the boundary as owned buffers so a backend that queues
/// them (the in-memory loopback) moves buffers instead of copying bytes,
/// and the steady state allocates nothing on either side.
pub trait PacketIo {
    /// Sends the frame held in `frame`. The backend may keep the buffer and
    /// leave an empty recycled one in its place; a frame the backend loses
    /// on purpose stays with the caller.
    fn send(&mut self, frame: &mut Vec<u8>) -> Result<(), IoError>;
    /// Receives one frame if one is available *now*, replacing `frame`'s
    /// contents with it and returning `Ok(true)`; `Ok(false)` otherwise,
    /// with `frame` untouched (backends must not block indefinitely).
    fn recv(&mut self, frame: &mut Vec<u8>) -> Result<bool, IoError>;
}

/// Source side of a flow: admits payloads through the token bucket,
/// stamps the (per-route) path price, frames, and sends.
pub struct SourceEndpoint<B: PacketIo> {
    io: B,
    graph: FlowGraph,
    route_choice: usize,
    price_stamp: usize,
    route_price: Vec<f64>,
    pool: PktPool,
    rng: StdRng,
    out: Outbox,
    sent: u64,
    dropped: u64,
}

impl<B: PacketIo> SourceEndpoint<B> {
    /// Builds a source over `routes`, where `route_price[r]` is the path
    /// price stamped on packets taking route `r` (in the simulator this
    /// accumulates hop by hop; a standalone endpoint stamps the whole
    /// path's price at once).
    ///
    /// # Panics
    /// Panics when `route_price` and the route set disagree in length.
    pub fn new(
        io: B,
        cfg: &SchedulerConfig,
        routes: Vec<SourceRoute>,
        route_price: Vec<f64>,
        seed: u64,
        scope: Option<&Scope>,
    ) -> Self {
        assert_eq!(routes.len(), route_price.len());
        let mut graph = FlowGraph::new();
        let route_choice =
            graph.push(GraphNode::RouteChoice(RouteChoiceNode::new(cfg, routes)), scope);
        let price_stamp = graph.push(GraphNode::PriceStamp(PriceStampNode), scope);
        graph.push(GraphNode::Encap(EncapNode), scope);
        SourceEndpoint {
            io,
            graph,
            route_choice,
            price_stamp,
            route_price,
            pool: PktPool::new(),
            rng: StdRng::seed_from_u64(seed),
            out: Outbox::new(),
            sent: 0,
            dropped: 0,
        }
    }

    /// Offers one payload at `now`: on admission the frame goes out on the
    /// chosen route (returned); a token-bucket refusal returns `Ok(None)`.
    pub fn offer(&mut self, now: f64, payload: &[u8]) -> Result<Option<usize>, IoError> {
        let pkt = self.pool.insert_with(|p| {
            p.reset();
            p.size_bits = ((HEADER_LEN + payload.len()) * 8) as u64;
            p.created_at = now;
            p.payload.extend_from_slice(payload);
        });
        self.out.clear();
        let mut ctx = GraphCtx {
            now,
            pool: &mut self.pool,
            rng: &mut self.rng,
            price_contribution: 0.0,
            out: &mut self.out,
        };
        match self.graph.step(self.route_choice, pkt, &mut ctx) {
            Disposition::Next => {}
            _ => {
                self.dropped += 1;
                return Ok(None);
            }
        }
        let route = ctx.pool.get(pkt).route;
        ctx.price_contribution = self.route_price[route];
        let end = self.graph.run_from(self.price_stamp, pkt, &mut ctx);
        debug_assert_eq!(end, ChainResult::Egress(pkt));
        self.pool.release(pkt);
        self.io.send(&mut self.out.frame)?;
        self.sent += 1;
        Ok(Some(route))
    }

    /// Frames sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Offers refused by the token bucket so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The underlying backend.
    pub fn io_mut(&mut self) -> &mut B {
        &mut self.io
    }
}

/// Destination side of a flow: receives frames, parses them, reorders,
/// and reports deliveries, losses, and paced price acknowledgements.
pub struct DestEndpoint<B: PacketIo> {
    io: B,
    graph: FlowGraph,
    reorder: usize,
    pool: PktPool,
    rng: StdRng,
    out: Outbox,
}

impl<B: PacketIo> DestEndpoint<B> {
    /// Builds a destination recognizing `routes`.
    pub fn new(
        io: B,
        cfg: &ReorderConfig,
        routes: Vec<SourceRoute>,
        scope: Option<&Scope>,
    ) -> Self {
        let mut graph = FlowGraph::new();
        graph.push(GraphNode::Decap(DecapNode::new(routes)), scope);
        let reorder = graph.push(GraphNode::Reorder(ReorderNode::new(cfg)), scope);
        DestEndpoint {
            io,
            graph,
            reorder,
            pool: PktPool::new(),
            rng: StdRng::seed_from_u64(0),
            out: Outbox::new(),
        }
    }

    /// Polls the backend for one frame and runs it through the graph,
    /// appending any reorder releases to `events`. Returns whether a frame
    /// was processed.
    pub fn poll(&mut self, now: f64, events: &mut Vec<ReorderEvent>) -> Result<bool, IoError> {
        // The frame lands straight in the pooled packet's payload buffer.
        let pkt = self.pool.insert_with(|p| {
            p.reset();
            p.created_at = now;
        });
        let p = self.pool.get_mut(pkt);
        match self.io.recv(&mut p.payload) {
            Ok(true) => p.size_bits = (p.payload.len() * 8) as u64,
            nothing_or_err => {
                self.pool.release(pkt);
                return nothing_or_err;
            }
        }
        self.out.clear();
        let mut ctx = GraphCtx {
            now,
            pool: &mut self.pool,
            rng: &mut self.rng,
            price_contribution: 0.0,
            out: &mut self.out,
        };
        let _ = self.graph.run(pkt, &mut ctx);
        events.extend_from_slice(&self.out.reorder);
        Ok(true)
    }

    /// The paced price acknowledgement, when one is due.
    pub fn maybe_ack(&mut self, now: f64) -> Option<Ack> {
        match self.graph.node_mut(self.reorder) {
            GraphNode::Reorder(n) => n.maybe_ack(now),
            _ => unreachable!("reorder slot holds the Reorder node"),
        }
    }

    /// The underlying backend.
    pub fn io_mut(&mut self) -> &mut B {
        &mut self.io
    }
}

#[cfg(test)]
mod tests {
    use super::sim::SimBackend;
    use super::*;
    use crate::iface_id::IfaceId;

    fn route(ids: &[u16]) -> SourceRoute {
        let hops: Vec<IfaceId> = ids.iter().map(|&i| IfaceId(i)).collect();
        SourceRoute::new(&hops).unwrap()
    }

    fn endpoints(
        drop_every: Option<u64>,
    ) -> (SourceEndpoint<SimBackend>, DestEndpoint<SimBackend>) {
        let (mut a, b) = SimBackend::pair();
        if let Some(k) = drop_every {
            a = a.drop_every(k);
        }
        let routes = vec![route(&[1, 2]), route(&[3, 4])];
        let src = SourceEndpoint::new(
            a,
            &SchedulerConfig::for_routes(2).initial_rates(&[4.0, 4.0]),
            routes.clone(),
            vec![0.25, 0.5],
            42,
            None,
        );
        let dst = DestEndpoint::new(b, &ReorderConfig::for_routes(2), routes, None);
        (src, dst)
    }

    #[test]
    fn loopback_delivers_in_order_with_prices() {
        let (mut src, mut dst) = endpoints(None);
        let mut now = 0.0;
        for _ in 0..64 {
            now += 0.005;
            src.offer(now, b"frame payload").unwrap();
        }
        assert_eq!(src.sent(), 64, "rates admit every offer at this pace");
        let mut events = Vec::new();
        while dst.poll(now, &mut events).unwrap() {}
        let delivered: Vec<u32> = events
            .iter()
            .filter_map(|e| match e {
                ReorderEvent::Deliver(s) => Some(*s),
                ReorderEvent::Lost(_) => None,
            })
            .collect();
        assert_eq!(delivered, (0..64).collect::<Vec<u32>>());
        let ack = dst.maybe_ack(now).expect("ack due");
        assert_eq!(ack.delivered_packets, 64);
        assert_eq!(ack.route_prices, vec![Some(0.25), Some(0.5)]);
    }

    #[test]
    fn lossy_backend_triggers_the_loss_rule() {
        let (mut src, mut dst) = endpoints(Some(10));
        let mut now = 0.0;
        for _ in 0..100 {
            now += 0.005;
            src.offer(now, b"x").unwrap();
        }
        let mut events = Vec::new();
        while dst.poll(now, &mut events).unwrap() {}
        let lost = events.iter().filter(|e| matches!(e, ReorderEvent::Lost(_))).count();
        assert!(lost > 0, "dropped frames must be declared lost");
    }

    /// A backend whose receive side is down.
    struct Unplugged;

    impl PacketIo for Unplugged {
        fn send(&mut self, _frame: &mut Vec<u8>) -> Result<(), IoError> {
            Ok(())
        }

        fn recv(&mut self, _frame: &mut Vec<u8>) -> Result<bool, IoError> {
            Err(IoError("unplugged".into()))
        }
    }

    #[test]
    fn polls_that_receive_nothing_release_their_pool_slot() {
        let (mut src, mut dst) = endpoints(None);
        let mut events = Vec::new();
        for _ in 0..3 {
            assert!(!dst.poll(0.0, &mut events).unwrap());
        }
        assert_eq!(dst.pool.live(), 0, "an empty poll leaks no slot");
        let mut now = 0.0;
        for _ in 0..8 {
            now += 0.005;
            src.offer(now, &[3u8; 700]).unwrap();
            src.offer(now, b"short").unwrap();
        }
        while dst.poll(now, &mut events).unwrap() {}
        assert_eq!(events.len(), 16);
        assert_eq!((dst.pool.live(), dst.pool.grows()), (0, 1), "one slot serves every frame");

        let routes = vec![route(&[1, 2])];
        let mut down = DestEndpoint::new(Unplugged, &ReorderConfig::for_routes(1), routes, None);
        assert_eq!(down.poll(0.0, &mut events), Err(IoError("unplugged".into())));
        assert_eq!(down.pool.live(), 0, "a failed poll leaks no slot");
    }
}
