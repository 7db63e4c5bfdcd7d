//! `datapath_forward`: the forwarding graph alone. A `SourceEndpoint`
//! offers frames over two routes to a `DestEndpoint` through the in-memory
//! backend; no link is crossed and no simulator runs. Four phases of equal
//! frame count: small frames, small frames with every fiftieth lost on the
//! wire (the loss rule and reorder flushes leave the fast path), large
//! frames, and small frames offered at twice what the token bucket admits.
//!
//! Inside the simulator the graph is a small share of the per-frame cost,
//! so this is the one workload where a datapath change shows end to end.

use std::hint::black_box;
use std::time::Instant;

use empower_datapath::backend::sim::SimBackend;
use empower_datapath::backend::udp::UdpBackend;
use empower_datapath::{
    DestEndpoint, EmpowerHeader, IfaceId, PacketIo, ReorderConfig, ReorderEvent, SchedulerConfig,
    SourceEndpoint, SourceRoute, HEADER_LEN,
};
use empower_telemetry::{Manifest, Scope, Telemetry};

use super::{AllocPhases, Tr};
use crate::gen::{self, ForwardInputs, ForwardPhase, Size, FORWARD_RATES_MBPS};
use crate::harness::{Bench, Ledger, Outcome, ProbeCtx};
use crate::spans::Recorder;

/// The graph nodes the two endpoints assemble: endpoint, node name, and
/// the metrics its packet counters are reported as.
const GRAPH_NODES: [(&str, &str, &str, &str); 5] = [
    ("src", "route_choice", "datapath.node.route_choice.in", "datapath.node.route_choice.out"),
    ("src", "price_stamp", "datapath.node.price_stamp.in", "datapath.node.price_stamp.out"),
    ("src", "encap", "datapath.node.encap.in", "datapath.node.encap.out"),
    ("dst", "decap", "datapath.node.decap.in", "datapath.node.decap.out"),
    ("dst", "reorder", "datapath.node.reorder.in", "datapath.node.reorder.out"),
];

/// Offers between two rounds of polling and acknowledging.
const BATCH: u64 = 32;

pub struct DatapathBench {
    inputs: ForwardInputs,
}

impl DatapathBench {
    pub fn new(seed: u64, size: Size) -> DatapathBench {
        DatapathBench { inputs: gen::forward_inputs(seed, size) }
    }

    fn routes(&self) -> Vec<SourceRoute> {
        self.inputs
            .routes
            .iter()
            .map(|hops| {
                let ids: Vec<IfaceId> = hops.iter().map(|&h| IfaceId(h)).collect();
                SourceRoute::new(&ids).expect("generated routes have one to six hops")
            })
            .collect()
    }

    /// Builds the endpoint pair over `(a, b)`: everything before the first
    /// frame.
    fn endpoints<B: PacketIo>(
        &self,
        a: B,
        b: B,
        scope: &Scope,
    ) -> (SourceEndpoint<B>, DestEndpoint<B>) {
        let routes = self.routes();
        let src = SourceEndpoint::new(
            a,
            &SchedulerConfig::for_routes(2).initial_rates(&FORWARD_RATES_MBPS),
            routes.clone(),
            self.inputs.route_price.to_vec(),
            self.inputs.scheduler_seed,
            Some(&scope.scope("src")),
        );
        let dst =
            DestEndpoint::new(b, &ReorderConfig::for_routes(2), routes, Some(&scope.scope("dst")));
        (src, dst)
    }

    fn payload(&self, i: u64, size: usize) -> &[u8] {
        let start = (i as usize * 7) % (self.inputs.payload.len() - size);
        &self.inputs.payload[start..start + size]
    }
}

/// What one phase did, frame by frame.
#[derive(Debug, Default, Clone)]
struct Tally {
    offered: u64,
    refused: u64,
    /// Frames sent per route, as the scheduler chose.
    per_route: [u64; 2],
    /// The last acknowledgement: frames delivered and each route's price.
    last_ack: Option<(u64, Vec<Option<f64>>)>,
    delivered: u64,
    lost: u64,
    /// Polls whose reorder stage released more than the frame polled.
    flushes: u64,
    acks: u64,
    payload_bits: u64,
    virtual_secs: f64,
    /// Host seconds inside `offer` and inside `poll` + `maybe_ack`, when
    /// the phase was asked to time them.
    offer_secs: f64,
    poll_secs: f64,
}

impl Tally {
    fn add(&mut self, o: &Tally) {
        self.offered += o.offered;
        self.refused += o.refused;
        self.delivered += o.delivered;
        self.lost += o.lost;
        self.flushes += o.flushes;
        self.acks += o.acks;
        self.payload_bits += o.payload_bits;
        self.virtual_secs += o.virtual_secs;
        self.offer_secs += o.offer_secs;
        self.poll_secs += o.poll_secs;
    }
}

impl DatapathBench {
    /// Drives one phase over an endpoint pair. `split_clock` times the two
    /// sides of the loop apart, which costs two clock reads per batch.
    fn drive<B: PacketIo>(
        &self,
        phase: &ForwardPhase,
        frames: u64,
        src: &mut SourceEndpoint<B>,
        dst: &mut DestEndpoint<B>,
        split_clock: bool,
    ) -> Tally {
        let mut t = Tally::default();
        let mut events: Vec<ReorderEvent> = Vec::new();
        let mut now = 0.0;
        let mut next = 0;
        while next < frames {
            let batch_end = (next + BATCH).min(frames);
            let clock = split_clock.then(Instant::now);
            let mut in_flight = 0;
            for i in next..batch_end {
                now += phase.offer_gap_secs;
                match src
                    .offer(now, self.payload(i, phase.payload_bytes))
                    .expect("backend accepts frames")
                {
                    Some(route) => {
                        in_flight += 1;
                        t.per_route[route] += 1;
                    }
                    None => t.refused += 1,
                }
            }
            let offered_at = clock.map(|c| c.elapsed().as_secs_f64());
            // At most one poll per frame sent: a poll that finds nothing
            // may block for the backend's timeout.
            for _ in 0..in_flight {
                events.clear();
                if !dst.poll(now, &mut events).expect("backend delivers frames") {
                    break;
                }
                t.flushes += u64::from(events.len() > 1);
                for e in &events {
                    match e {
                        ReorderEvent::Deliver(_) => t.delivered += 1,
                        ReorderEvent::Lost(_) => t.lost += 1,
                    }
                }
            }
            if let Some(ack) = dst.maybe_ack(now) {
                t.acks += 1;
                t.last_ack = Some((ack.delivered_packets, ack.route_prices));
            }
            if let (Some(c), Some(o)) = (clock, offered_at) {
                t.offer_secs += o;
                t.poll_secs += c.elapsed().as_secs_f64() - o;
            }
            next = batch_end;
        }
        t.offered = frames;
        t.payload_bits = t.delivered * phase.payload_bytes as u64 * 8;
        t.virtual_secs = now;
        t
    }

    /// One iteration: the four phases, each on a fresh endpoint pair.
    fn run(
        &self,
        tr: &mut Tr,
        alloc: &mut AllocPhases,
        split_clock: bool,
    ) -> (Outcome, Tally, Telemetry) {
        let tele = Telemetry::enabled();
        let mut out = Outcome::default();
        let mut total = Tally::default();
        let mut summary = String::new();
        for phase in &self.inputs.phases {
            let scope = tele.scope(phase.name);
            let (mut src, mut dst) = tr.call("datapath.setup", || {
                let (a, b) = SimBackend::pair();
                self.endpoints(a.drop_every(phase.drop_every), b, &scope)
            });
            alloc.end_setup();
            let t = tr.call("datapath.forward", || {
                self.drive(phase, self.inputs.frames_per_phase, &mut src, &mut dst, split_clock)
            });
            alloc.end_run();

            // Conservation: every frame offered was refused by the bucket,
            // delivered in order, or declared lost.
            let accounted = t.refused + t.delivered + t.lost;
            if accounted != t.offered || src.sent() + src.dropped() != t.offered {
                out.check_failures.push(format!(
                    "phase {}: {} offered but {} refused + {} delivered + {} lost",
                    phase.name, t.offered, t.refused, t.delivered, t.lost
                ));
            }
            out.ops += t.offered;
            out.failed += t.offered.saturating_sub(accounted);
            summary.push_str(&format!(
                "{}: offered {} refused {} delivered {} lost {} flushes {} acks {} \
                 per route {:?} last ack {:?}\n",
                phase.name,
                t.offered,
                t.refused,
                t.delivered,
                t.lost,
                t.flushes,
                t.acks,
                t.per_route,
                t.last_ack
            ));
            total.add(&t);
        }
        // Delivered payload over the virtual time the offers spanned.
        out.goodput_mbps = total.payload_bits as f64 / total.virtual_secs / 1e6;
        let manifest = tr.call("telemetry.manifest", || {
            let mut m = Manifest::new("datapath_forward");
            m.set("frames_per_phase", self.inputs.frames_per_phase).attach_counters(&tele);
            m.render()
        });
        out.rendered = vec![("summary", summary), ("manifest", manifest)];
        alloc.end_render();
        (out, total, tele)
    }
}

impl Bench for DatapathBench {
    fn inputs(&self) -> String {
        let i = &self.inputs;
        let mut s = format!(
            "routes {:?} prices {:?} scheduler seed {} payload ring {} B, {} frames per phase\n",
            i.routes,
            i.route_price,
            i.scheduler_seed,
            i.payload.len(),
            i.frames_per_phase
        );
        for p in &i.phases {
            s.push_str(&format!("{p:?}\n"));
        }
        s
    }

    fn setup(&self) {
        let tele = Telemetry::enabled();
        for phase in &self.inputs.phases {
            let (a, b) = SimBackend::pair();
            black_box(self.endpoints(a.drop_every(phase.drop_every), b, &tele.scope(phase.name)));
        }
    }

    fn iterate(&self) -> Outcome {
        self.run(&mut Tr::off(), &mut AllocPhases::start(), false).0
    }

    fn iterate_traced(&self, rec: &mut Recorder, ledger: &mut Ledger) -> Outcome {
        let mut alloc = AllocPhases::start();
        let (out, t, tele) = self.run(&mut Tr::on(rec), &mut alloc, true);
        alloc.finish(ledger);

        let sent = (t.offered - t.refused) as f64;
        ledger.set("datapath.frames_offered", t.offered as f64);
        ledger.set("datapath.frames_delivered", t.delivered as f64);
        ledger.set("datapath.frames_lost", t.lost as f64);
        ledger.set("datapath.bucket_refusals", t.refused as f64);
        ledger.set("datapath.loss_rule_firings", t.lost as f64);
        ledger.set("datapath.reorder_flushes", t.flushes as f64);
        ledger.set("datapath.ns_per_frame", (t.offer_secs + t.poll_secs) * 1e9 / t.offered as f64);
        ledger.set("datapath.offer_ns", t.offer_secs * 1e9 / t.offered as f64);
        ledger.set("datapath.poll_ns", t.poll_secs * 1e9 / sent);
        ledger.set("telemetry.manifest_bytes", out.rendered_bytes("manifest"));

        // Per-node packet counts, summed over the phases' scopes.
        let snap = tele.snapshot();
        ledger.set("telemetry.counters", snap.counters.len() as f64);
        for (side, node, metric_in, metric_out) in GRAPH_NODES {
            let total = |dir: &str| -> f64 {
                let phases = self.inputs.phases.iter();
                phases
                    .filter_map(|p| snap.value(&format!("{}/{side}/{node}/{dir}", p.name)))
                    .sum::<u64>() as f64
            };
            ledger.set(metric_in, total("in"));
            ledger.set(metric_out, total("out"));
        }
        out
    }

    fn probes(&self, ctx: &mut ProbeCtx, ledger: &mut Ledger) {
        self.header_and_reorder(ledger);
        self.udp_loopback(ctx, ledger);
    }
}

/// Repetitions of the header and reorder micro-measurements.
const MICRO_OPS: u32 = 2_000_000;
/// Frames the UDP loopback measurement sends.
const UDP_FRAMES: u64 = 50_000;

impl DatapathBench {
    /// The three stages a frame always passes, alone: header encode, header
    /// decode, and the reorder buffer accepting an in-order sequence.
    fn header_and_reorder(&self, ledger: &mut Ledger) {
        let route = self.routes()[0];
        let mut buf = [0u8; HEADER_LEN];
        let t = Instant::now();
        for seq in 0..MICRO_OPS {
            black_box(EmpowerHeader::new(route, seq)).encode_into(&mut buf);
            black_box(&mut buf);
        }
        ledger.set(
            "datapath.header_encode_ns",
            t.elapsed().as_secs_f64() * 1e9 / f64::from(MICRO_OPS),
        );

        let t = Instant::now();
        for _ in 0..MICRO_OPS {
            let mut cursor: &[u8] = black_box(&buf);
            black_box(EmpowerHeader::decode(&mut cursor)).expect("an encoded header decodes");
        }
        ledger.set(
            "datapath.header_decode_ns",
            t.elapsed().as_secs_f64() * 1e9 / f64::from(MICRO_OPS),
        );

        let mut reorder = ReorderConfig::for_routes(2).build();
        let mut events = Vec::new();
        let t = Instant::now();
        for seq in 0..MICRO_OPS {
            events.clear();
            reorder.accept_into((seq % 2) as usize, seq, &mut events);
            black_box(&events);
        }
        ledger.set(
            "datapath.reorder_accept_ns",
            t.elapsed().as_secs_f64() * 1e9 / f64::from(MICRO_OPS),
        );
    }

    /// The same endpoints over UDP on the host's loopback interface, in
    /// this one process. Host loopback, not a link: informational. Skipped
    /// under `EMPOWER_SKIP_NET` or where sockets are not allowed.
    fn udp_loopback(&self, ctx: &mut ProbeCtx, ledger: &mut Ledger) {
        if std::env::var_os("EMPOWER_SKIP_NET").is_some() {
            return;
        }
        let Ok(b) = UdpBackend::bind("127.0.0.1:0", "127.0.0.1:9") else { return };
        let Ok(a) = b.local_addr().and_then(|addr| UdpBackend::bind("127.0.0.1:0", &addr)) else {
            return;
        };
        let tele = Telemetry::enabled();
        let (mut src, mut dst) = self.endpoints(a, b, &tele.scope("udp"));
        let phase = &self.inputs.phases[0];
        let frames = UDP_FRAMES.min(self.inputs.frames_per_phase);
        let clock = Instant::now();
        let t = self.drive(phase, frames, &mut src, &mut dst, false);
        let secs = clock.elapsed().as_secs_f64();
        ledger.set("datapath.udp_frames_per_s", t.delivered as f64 / secs);
        // Loopback may drop under pressure; frames must still not multiply.
        if t.delivered + t.lost + t.refused > t.offered {
            ctx.check_failures.push(format!(
                "udp loopback: {} offered but {} delivered + {} lost + {} refused",
                t.offered, t.delivered, t.lost, t.refused
            ));
        }
    }
}
