//! Pluggable packet I/O backends, and the two endpoints that run a flow's
//! stages around one.
//!
//! A [`PacketIo`] moves opaque frames; it knows nothing about the EMPoWER
//! header. [`SourceEndpoint`] runs a [`FlowSource`] (route choice), stamps
//! the route's price, writes the header ahead of the payload (encap) and
//! hands the frame to the backend; [`DestEndpoint`] receives frames,
//! parses the header and looks up the route (decap), and runs a
//! [`FlowSink`] (reorder and ACKs). The same stage code runs whether the
//! backend is the in-memory loopback ([`sim::SimBackend`]) or a real UDP
//! socket ([`udp::UdpBackend`]); the simulator calls the stages directly.
//!
//! With a telemetry scope, each endpoint counts every stage a frame passes
//! as `<scope>/<stage>/{in,out,drops}`: `route_choice`, `price_stamp` and
//! `encap` at the source, `decap` and `reorder` at the destination.

pub mod sim;
pub mod udp;

use empower_model::rng::{SeedableRng, StdRng};
use empower_telemetry::{Counter, CounterType, Scope};

use crate::ack::Ack;
use crate::config::{ReorderConfig, SchedulerConfig};
use crate::header::{EmpowerHeader, SourceRoute, HEADER_LEN};
use crate::reorder::ReorderEvent;
use crate::stages::{FlowSink, FlowSource};
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

/// One stage's packet counters, `<scope>/<stage>/{in,out,drops}`; no-ops
/// without a scope.
pub(crate) struct NodeCounters {
    pkts_in: Counter,
    pkts_out: Counter,
    drops: Counter,
}

impl NodeCounters {
    fn new(scope: Option<&Scope>, stage: &str) -> Self {
        let stage = scope.map(|s| s.scope(stage));
        let counter = |name: &str| {
            stage.as_ref().map_or_else(Counter::noop, |s| s.counter(name, CounterType::Packets))
        };
        NodeCounters { pkts_in: counter("in"), pkts_out: counter("out"), drops: counter("drops") }
    }

    /// A packet went through the stage.
    fn pass(&self) {
        self.pkts_in.inc();
        self.pkts_out.inc();
    }

    /// The stage dropped a packet.
    fn reject(&self) {
        self.pkts_in.inc();
        self.drops.inc();
    }
}

/// Source side of a flow: admits payloads through the token bucket,
/// stamps the (per-route) path price, frames, and sends.
pub struct SourceEndpoint<B: PacketIo> {
    io: B,
    source: FlowSource,
    route_price: Vec<f64>,
    rng: StdRng,
    /// The outgoing frame, reused (or exchanged with the backend) per send.
    frame: Vec<u8>,
    route_choice: NodeCounters,
    price_stamp: NodeCounters,
    encap: NodeCounters,
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
    /// Panics when `route_price`, the route set and `cfg` disagree in
    /// length.
    pub fn new(
        io: B,
        cfg: &SchedulerConfig,
        routes: Vec<SourceRoute>,
        route_price: Vec<f64>,
        seed: u64,
        scope: Option<&Scope>,
    ) -> Self {
        assert_eq!(routes.len(), route_price.len());
        SourceEndpoint {
            io,
            source: FlowSource::new(cfg, routes),
            route_price,
            rng: StdRng::seed_from_u64(seed),
            frame: Vec::new(),
            route_choice: NodeCounters::new(scope, "route_choice"),
            price_stamp: NodeCounters::new(scope, "price_stamp"),
            encap: NodeCounters::new(scope, "encap"),
            sent: 0,
            dropped: 0,
        }
    }

    /// Offers one payload at `now`: on admission the frame goes out on the
    /// chosen route (returned); a token-bucket refusal returns `Ok(None)`.
    /// The payload is copied once, into the frame behind the header.
    pub fn offer(&mut self, now: f64, payload: &[u8]) -> Result<Option<usize>, IoError> {
        let bits = ((HEADER_LEN + payload.len()) * 8) as u64;
        let Some((route, mut header)) = self.source.admit(&mut self.rng, now, bits) else {
            self.route_choice.reject();
            self.dropped += 1;
            return Ok(None);
        };
        self.route_choice.pass();
        header.add_price(self.route_price[route]);
        self.price_stamp.pass();
        let mut bytes = [0u8; HEADER_LEN];
        header.encode_into(&mut bytes);
        self.frame.clear();
        self.frame.extend_from_slice(&bytes);
        self.frame.extend_from_slice(payload);
        self.encap.pass();
        self.io.send(&mut self.frame)?;
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
}

/// Destination side of a flow: receives frames, parses them, reorders,
/// and reports deliveries, losses, and paced price acknowledgements.
pub struct DestEndpoint<B: PacketIo> {
    io: B,
    routes: Vec<SourceRoute>,
    sink: FlowSink,
    /// The incoming frame, reused (or exchanged with the backend) per poll.
    frame: Vec<u8>,
    decap: NodeCounters,
    reorder: NodeCounters,
}

impl<B: PacketIo> DestEndpoint<B> {
    /// Builds a destination recognizing `routes`.
    pub fn new(
        io: B,
        cfg: &ReorderConfig,
        routes: Vec<SourceRoute>,
        scope: Option<&Scope>,
    ) -> Self {
        DestEndpoint {
            io,
            routes,
            sink: FlowSink::new(cfg, false),
            frame: Vec::new(),
            decap: NodeCounters::new(scope, "decap"),
            reorder: NodeCounters::new(scope, "reorder"),
        }
    }

    /// Polls the backend for one frame and runs it through decap and
    /// reorder, appending any reorder releases to `events`. Returns whether
    /// a frame was received; a frame that does not parse, or names a route
    /// outside the table, is counted as a decap drop. Nothing on this path
    /// reads a clock, so `_now` is unused.
    pub fn poll(&mut self, _now: f64, events: &mut Vec<ReorderEvent>) -> Result<bool, IoError> {
        if !self.io.recv(&mut self.frame)? {
            return Ok(false);
        }
        let parsed = EmpowerHeader::decode(&mut self.frame.as_slice()).ok().and_then(|h| {
            let route = self.routes.iter().position(|r| *r == h.route)?;
            Some((route, h))
        });
        let Some((route, header)) = parsed else {
            self.decap.reject();
            return Ok(true);
        };
        self.decap.pass();
        if route >= self.sink.route_count() {
            self.reorder.reject();
            return Ok(true);
        }
        self.sink.accept(route, header.seq, f64::from(header.price), events);
        self.reorder.pass();
        Ok(true)
    }

    /// The paced price acknowledgement, when one is due.
    pub fn maybe_ack(&mut self, now: f64) -> Option<Ack> {
        self.sink.maybe_ack(now)
    }
}

#[cfg(test)]
mod tests {
    use super::sim::SimBackend;
    use super::*;
    use crate::iface_id::IfaceId;
    use empower_telemetry::Telemetry;

    fn route(ids: &[u16]) -> SourceRoute {
        let hops: Vec<IfaceId> = ids.iter().map(|&i| IfaceId(i)).collect();
        SourceRoute::new(&hops).unwrap()
    }

    fn routes() -> Vec<SourceRoute> {
        vec![route(&[1, 2]), route(&[3, 4])]
    }

    /// A connected pair at 4 + 4 Mbps, stamping prices 0.25 and 0.5, with
    /// both sides' stage counters under `scope/{src,dst}` when given.
    fn endpoints(
        drop_every: Option<u64>,
        scope: Option<&Scope>,
    ) -> (SourceEndpoint<SimBackend>, DestEndpoint<SimBackend>) {
        let (mut a, b) = SimBackend::pair();
        if let Some(k) = drop_every {
            a = a.drop_every(k);
        }
        let src = SourceEndpoint::new(
            a,
            &SchedulerConfig::for_routes(2).initial_rates(&[4.0, 4.0]),
            routes(),
            vec![0.25, 0.5],
            42,
            scope.map(|s| s.scope("src")).as_ref(),
        );
        let dst = DestEndpoint::new(
            b,
            &ReorderConfig::for_routes(2),
            routes(),
            scope.map(|s| s.scope("dst")).as_ref(),
        );
        (src, dst)
    }

    /// Encodes `header` ahead of `payload_len` filler bytes.
    fn frame(header: EmpowerHeader, payload_len: usize) -> Vec<u8> {
        let mut bytes = [0u8; HEADER_LEN];
        header.encode_into(&mut bytes);
        let mut frame = bytes.to_vec();
        frame.resize(HEADER_LEN + payload_len, 0xA5);
        frame
    }

    #[test]
    fn loopback_delivers_in_order_with_prices() {
        let (mut src, mut dst) = endpoints(None, None);
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
        let (mut src, mut dst) = endpoints(Some(10), None);
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

    #[test]
    fn per_node_counters_register_under_the_scope() {
        let tel = Telemetry::enabled();
        let (mut src, mut dst) = endpoints(None, Some(&tel.scope("flow/0")));
        // 1 400 B every 5 ms is 2.3 Mbit/s against 8 admitted: all pass.
        // The second half offers 4 × 1 400 B per 5 ms, which the bucket
        // cannot all admit.
        let mut now = 0.0;
        for i in 0..40 {
            now += 0.005;
            for _ in 0..if i < 20 { 1 } else { 4 } {
                src.offer(now, &[7u8; 1400]).unwrap();
            }
        }
        let mut events = Vec::new();
        while dst.poll(now, &mut events).unwrap() {}
        let (sent, refused) = (src.sent(), src.dropped());
        assert!(sent > 20 && refused > 0, "sent {sent}, refused {refused}");
        let snap = tel.snapshot();
        let count = |name: &str| snap.value(&format!("flow/0/{name}")).expect(name);
        assert_eq!(
            (count("src/route_choice/in"), count("src/route_choice/out")),
            (sent + refused, sent)
        );
        assert_eq!(count("src/route_choice/drops"), refused);
        for stage in ["src/price_stamp", "src/encap", "dst/decap", "dst/reorder"] {
            let (i, o, d) = (
                count(&format!("{stage}/in")),
                count(&format!("{stage}/out")),
                count(&format!("{stage}/drops")),
            );
            assert_eq!((i, o, d), (sent, sent, 0), "{stage}");
        }
    }

    #[test]
    fn decap_recovers_header_and_route() {
        let (mut wire, b) = SimBackend::pair();
        let mut dst = DestEndpoint::new(b, &ReorderConfig::for_routes(2), routes(), None);
        let mut h = EmpowerHeader::new(routes()[1], 0);
        h.add_price(0.25);
        let mut bytes = frame(h, 0);
        bytes.extend_from_slice(b"hello");
        wire.send(&mut bytes).unwrap();
        let mut events = Vec::new();
        assert_eq!(dst.poll(0.0, &mut events), Ok(true));
        assert_eq!(events, [ReorderEvent::Deliver(0)]);
        let ack = dst.maybe_ack(0.0).expect("ack due");
        assert_eq!(ack.route_prices, vec![None, Some(0.25)], "the price landed on route 1");
    }

    #[test]
    fn decap_drops_hostile_frames_and_counts_them() {
        let tel = Telemetry::enabled();
        let (mut wire, b) = SimBackend::pair();
        let scope = tel.scope("dst");
        let mut dst = DestEndpoint::new(b, &ReorderConfig::for_routes(2), routes(), Some(&scope));
        // Every length short of a header, a route with a gap (a decode
        // error), and a well-formed header naming a route outside the table.
        let mut hostile: Vec<Vec<u8>> = (0..HEADER_LEN).map(|n| vec![0xFF; n]).collect();
        let mut gap = frame(EmpowerHeader::new(routes()[0], 9), 8);
        gap[..2].fill(0);
        hostile.push(gap);
        hostile.push(frame(EmpowerHeader::new(route(&[9, 9]), 9), 8));
        // A minimal frame and an oversized one (a 64 KiB payload).
        let valid = [
            frame(EmpowerHeader::new(routes()[0], 0), 0),
            frame(EmpowerHeader::new(routes()[1], 1), 1 << 16),
        ];
        let (head, tail) = hostile.split_at(11);
        let stream = head.iter().chain(&valid[..1]).chain(tail).chain(&valid[1..]);
        let mut events = Vec::new();
        for bytes in stream {
            wire.send(&mut bytes.clone()).unwrap();
            assert_eq!(dst.poll(0.0, &mut events), Ok(true));
        }
        assert_eq!(dst.poll(0.0, &mut events), Ok(false));
        assert_eq!(
            events,
            [ReorderEvent::Deliver(0), ReorderEvent::Deliver(1)],
            "only the valid reach the sink"
        );
        assert_eq!(dst.maybe_ack(0.0).expect("ack due").delivered_packets, 2);

        let snap = tel.snapshot();
        let count = |name: &str| snap.value(&format!("dst/{name}")).expect(name);
        let (d_in, d_out, d_drops) = (count("decap/in"), count("decap/out"), count("decap/drops"));
        assert_eq!(d_in, d_out + d_drops);
        assert_eq!(d_drops, hostile.len() as u64);
        assert_eq!(count("reorder/in"), d_out);
        assert_eq!((count("reorder/out"), count("reorder/drops")), (2, 0));
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
    fn polls_that_receive_nothing_touch_no_stage() {
        let tel = Telemetry::enabled();
        let (mut src, mut dst) = endpoints(None, Some(&tel.scope("up")));
        let decap_in = || tel.snapshot().value("up/dst/decap/in");
        let mut events = Vec::new();
        for _ in 0..3 {
            assert!(!dst.poll(0.0, &mut events).unwrap());
        }
        assert_eq!(decap_in(), Some(0), "an empty poll parses nothing");
        let mut now = 0.0;
        for _ in 0..8 {
            now += 0.005;
            src.offer(now, &[3u8; 700]).unwrap();
            src.offer(now, b"short").unwrap();
        }
        while dst.poll(now, &mut events).unwrap() {}
        assert_eq!(events.len(), 16);
        assert_eq!(decap_in(), Some(16));

        let routes = vec![route(&[1, 2])];
        let scope = tel.scope("down");
        let mut down =
            DestEndpoint::new(Unplugged, &ReorderConfig::for_routes(1), routes, Some(&scope));
        assert_eq!(down.poll(0.0, &mut events), Err(IoError("unplugged".into())));
        assert_eq!(tel.snapshot().value("down/decap/in"), Some(0), "a failed poll parses nothing");
        assert_eq!(events.len(), 16, "and releases nothing");
    }
}
