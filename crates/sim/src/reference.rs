//! The retained pre-optimization engine: a verbatim copy of the
//! simulator as it stood before the zero-allocation hot-path rework
//! (binary-heap event queue, per-frame `domain(link)` slice scans and
//! `.to_vec()` clones, by-value `SimPacket` queues, per-tick scratch
//! allocations).
//!
//! [`ReferenceSimulation`] is the correctness oracle for
//! [`crate::Simulation`]: the equivalence corpus
//! (`crates/sim/tests/equivalence.rs`) runs both engines over ≥ 20 seeded
//! scenarios and requires byte-identical `SimReport`s, traces and
//! telemetry manifests. It is also the baseline the same test measures the
//! optimized engine's work against, so it carries the same deterministic
//! [`SimPerfStats`] work counters (instrumented at the allocation sites
//! the rework removed).
//!
//! Keep this file semantically frozen — fix bugs in both engines or in
//! neither. The forwarding-graph redesign deprecated the monolithic
//! datapath entry points this oracle is built on; the frozen copy keeps
//! using them on purpose.
#![allow(deprecated)]

use std::collections::{BTreeMap, VecDeque};

use empower_cc::{FlowController, LinkPriceState, PriceBroadcast, ProportionalFair};
use empower_datapath::{
    AckCollector, DelayEqConfig, DelayEqualizer, EmpowerHeader, IfaceId, IfaceRegistry,
    ReorderBuffer, ReorderConfig, ReorderEvent, RouteChoice, RouteScheduler, SchedulerConfig,
    SourceRoute,
};
use empower_model::rng::SeedableRng;
use empower_model::rng::StdRng;
use empower_model::rng::{exponential, normal, stream_seed};

use crate::engine::{STREAM_FLOW, STREAM_LINK};
use empower_model::{InterferenceMap, LinkId, Network, NodeId};

use empower_telemetry::{Counter, Telemetry};

use crate::config::SimConfig;
use crate::event::{Event, ReferenceEventQueue};
use crate::flow::{FlowSpecSim, TrafficPattern};
use crate::metrics::EngineCounters;
use crate::packet::{PacketKind, SimPacket};
use crate::perf::SimPerfStats;
use crate::stats::{FlowStats, SimReport};
use crate::tcp::{TcpConfig, TcpReceiver, TcpSender};
use crate::trace::{DropSite, Trace, TraceEvent};

/// One flow's live state inside the engine.
struct FlowRuntime {
    spec: FlowSpecSim,
    source_routes: Vec<SourceRoute>,
    /// First link of each route (the source's egress).
    first_links: Vec<LinkId>,
    scheduler: RouteScheduler,
    controller: Option<FlowController<ProportionalFair>>,
    reorder: ReorderBuffer,
    acks: AckCollector,
    delay_eq: Option<DelayEqualizer>,
    active: bool,
    /// Remaining frame goal of the current file (None = not a file flow).
    current_file_frames: Option<u64>,
    /// Frames of the current file delivered so far.
    file_frames_delivered: u64,
    /// When the current file's transfer began.
    file_began_at: f64,
    /// Precomputed absolute ready-times of queued files (PoissonFiles).
    pending_files: VecDeque<f64>,
    /// TCP machinery, if this is a TCP flow.
    tcp: Option<TcpFlow>,
    /// Source-side backlog of TCP segments awaiting admission (the tun/tap
    /// → datapath queue of the real implementation). Lets TCP self-clock
    /// instead of losing every burst to the token bucket.
    tcp_backlog: VecDeque<u32>,
    /// Guard so exactly one Emit event is in flight per flow.
    emit_pending: bool,
    /// Emission gate: no packet may be offered before this time (a queued
    /// Poisson file that is not ready yet).
    emission_not_before: f64,
    /// Per-route frame counters (`flow/<f>/route/<r>/frames`).
    route_frames: Vec<Counter>,
    /// ACK-cadence counter (`flow/<f>/acks_sent`).
    acks_sent: Counter,
}

struct TcpFlow {
    sender: TcpSender,
    receiver: TcpReceiver,
    /// Map wire sequence → TCP segment id at the destination.
    wire_to_tcp: BTreeMap<u32, u32>,
    /// One-way ACK-path delay, seconds.
    ack_delay: f64,
    /// Time of the currently scheduled RTO check (stale events ignored).
    rto_check_at: Option<f64>,
}

/// The pre-optimization simulator (see the module docs).
pub struct ReferenceSimulation {
    net: Network,
    imap: InterferenceMap,
    reg: IfaceRegistry,
    cfg: SimConfig,
    /// Per-flow random streams — same `(seed, tag, index)` derivation as
    /// the optimized engine, so the two draw bit-identical sequences.
    flow_rngs: Vec<StdRng>,
    /// Per-link random streams (estimation noise).
    link_rngs: Vec<StdRng>,
    events: ReferenceEventQueue,
    now: f64,
    /// Per-link FIFO queues.
    queues: Vec<VecDeque<SimPacket>>,
    /// Frame currently on the air per link.
    busy: Vec<Option<SimPacket>>,
    last_start: Vec<f64>,
    /// Bits enqueued per link since the last control tick (demand).
    demand_bits: Vec<f64>,
    /// EWMA-smoothed per-link airtime demand (see the optimized engine for
    /// the rationale).
    last_demand: Vec<f64>,
    /// Slow-EWMA demand driving the saturation penalty.
    penalty_demand: Vec<f64>,
    price_states: Vec<LinkPriceState>,
    broadcasts: Vec<PriceBroadcast>,
    flows: Vec<FlowRuntime>,
    stats: Vec<FlowStats>,
    ticks: u64,
    /// Flows whose FlowStart event has fired.
    started_flows: usize,
    /// Capacity each link had when a node crash took it down (indexed by
    /// link): restored on node recovery, `None` while the link is healthy.
    crash_saved: Vec<Option<f64>>,
    /// Whether the initial ControlTick has been scheduled.
    control_started: bool,
    /// Optional packet-level trace sink.
    trace: Option<Trace>,
    /// Telemetry counter bundle (all no-ops until a registry is attached).
    etel: EngineCounters,
    /// Deterministic hot-path work counters.
    perf: SimPerfStats,
}

impl ReferenceSimulation {
    /// Creates an empty simulation over `net`.
    pub fn new(net: Network, imap: InterferenceMap, cfg: SimConfig) -> Self {
        let reg = IfaceRegistry::for_network(&net);
        let l = net.link_count();
        let price_states =
            net.nodes().iter().map(|n| LinkPriceState::new(&net, &imap, n.id)).collect();
        let link_rngs = (0..l)
            .map(|i| StdRng::seed_from_u64(stream_seed(cfg.seed, STREAM_LINK, i as u64)))
            .collect();
        ReferenceSimulation {
            reg,
            queues: vec![VecDeque::new(); l],
            busy: vec![None; l],
            last_start: vec![-1.0; l],
            demand_bits: vec![0.0; l],
            last_demand: vec![0.0; l],
            penalty_demand: vec![0.0; l],
            price_states,
            broadcasts: Vec::new(),
            flows: Vec::new(),
            stats: Vec::new(),
            ticks: 0,
            started_flows: 0,
            crash_saved: vec![None; l],
            control_started: false,
            trace: None,
            etel: EngineCounters::disabled(l),
            perf: SimPerfStats::default(),
            events: ReferenceEventQueue::new(),
            now: 0.0,
            net,
            imap,
            cfg,
            flow_rngs: Vec::new(),
            link_rngs,
        }
    }

    /// Read access to the network (capacities may change via failures).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The deterministic work counters accumulated so far.
    pub fn perf_stats(&self) -> SimPerfStats {
        self.perf
    }

    /// Attaches a packet-level trace sink (e.g. `Trace::bounded(100_000)`).
    pub fn attach_trace(&mut self, trace: Trace) {
        self.trace = Some(trace);
    }

    /// Attaches a telemetry registry (see [`crate::Simulation::attach_telemetry`]).
    pub fn attach_telemetry(&mut self, tele: Telemetry) {
        self.etel = EngineCounters::attach(tele, self.net.link_count());
        for f in 0..self.flows.len() {
            let routes = self.flows[f].spec.routes.len();
            self.flows[f].route_frames = self.etel.flow_route_counters(f, routes);
            self.flows[f].acks_sent = self.etel.flow_ack_counter(f);
        }
    }

    /// The attached telemetry handle (disabled if none was attached).
    pub fn telemetry(&self) -> &Telemetry {
        &self.etel.tele
    }

    /// Detaches and returns the trace recorded so far.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.take()
    }

    /// Resolves a path into a wire source route, or `None` when a hop's
    /// receiving interface is gone (node removed mid-run) or the path does
    /// not fit the 6-hop header — callers skip such routes instead of
    /// panicking.
    fn resolve_source_route(&self, p: &empower_model::Path) -> Option<SourceRoute> {
        let mut hops: Vec<IfaceId> = Vec::with_capacity(p.links().len());
        for &l in p.links() {
            let link = self.net.try_link(l)?;
            hops.push(self.reg.id_of(link.to, link.medium)?);
        }
        SourceRoute::new(&hops).ok()
    }

    /// Registers a flow; returns its index. Routes that cannot be resolved
    /// (missing interface, more than 6 hops) are skipped.
    ///
    /// # Panics
    /// Panics if the spec has no usable routes, or an open-loop flow lacks
    /// rates.
    pub fn add_flow(&mut self, mut spec: FlowSpecSim) -> usize {
        assert!(!spec.routes.is_empty(), "flow has no routes");
        assert!(
            !self.control_started,
            "flows must be registered before the simulation starts \
             (the control-tick chain may already have drained)"
        );
        if !spec.use_cc {
            assert_eq!(
                spec.open_loop_rates.len(),
                spec.routes.len(),
                "open-loop flows need one rate per route"
            );
        }
        let resolved: Vec<Option<SourceRoute>> =
            spec.routes.iter().map(|p| self.resolve_source_route(p)).collect();
        if resolved.iter().any(Option::is_none) {
            self.etel.route_errors.inc();
            let keep: Vec<bool> = resolved.iter().map(Option::is_some).collect();
            let mut i = 0;
            spec.routes.retain(|_| {
                let keep_it = keep.get(i).copied().unwrap_or(false);
                i += 1;
                keep_it
            });
            if !spec.use_cc {
                let mut i = 0;
                spec.open_loop_rates.retain(|_| {
                    let keep_it = keep.get(i).copied().unwrap_or(false);
                    i += 1;
                    keep_it
                });
            }
        }
        let source_routes: Vec<SourceRoute> = resolved.into_iter().flatten().collect();
        assert!(!spec.routes.is_empty(), "no route of the flow could be resolved");
        let first_links: Vec<LinkId> = spec.routes.iter().map(|p| p.links()[0]).collect();
        let mut scheduler = SchedulerConfig::for_routes(spec.routes.len())
            .bucket_depth_mb(4.0 * self.cfg.frame_bits as f64 / 1e6)
            .build();
        let controller = if spec.use_cc {
            let caps: Vec<f64> =
                spec.routes.iter().map(|p| p.capacity(&self.net, &self.imap)).collect();
            let max_hops = spec.routes.iter().map(|p| p.hop_count()).max().unwrap_or(1);
            Some(FlowController::new(ProportionalFair, self.cfg.cc_config(), caps, max_hops))
        } else {
            scheduler.set_rates(&spec.open_loop_rates);
            None
        };
        let tcp = spec.pattern.is_tcp().then(|| {
            let total = match spec.pattern {
                TrafficPattern::Tcp { size_bytes: 0, .. } => None,
                TrafficPattern::Tcp { size_bytes, .. } => {
                    Some(size_bytes * 8 / self.cfg.frame_bits + 1)
                }
                _ => unreachable!(),
            };
            // ACK path: the reverse of route 0, small frames, lightly
            // loaded prioritized queues → per-hop store-and-forward of a
            // 40 B segment plus 1 ms of MAC access per hop.
            let ack_delay: f64 = spec.routes[0]
                .links()
                .iter()
                .map(|&l| {
                    let link = self.net.link(l);
                    0.001 + 320.0 / (link.capacity_mbps.max(1.0) * 1e6)
                })
                .sum();
            TcpFlow {
                sender: TcpSender::new(TcpConfig::default(), total),
                receiver: TcpReceiver::new(),
                wire_to_tcp: BTreeMap::new(),
                ack_delay,
                rto_check_at: None,
            }
        });
        let route_count = spec.routes.len();
        let delay_eq =
            spec.delay_equalization.then(|| DelayEqConfig::for_routes(route_count).build());
        let start = spec.pattern.start_time();
        let stop = spec.pattern.stop_time();
        let idx = self.flows.len();
        self.flows.push(FlowRuntime {
            spec,
            source_routes,
            first_links,
            scheduler,
            controller,
            reorder: ReorderConfig::for_routes(route_count).build(),
            acks: AckCollector::new(route_count),
            delay_eq,
            active: false,
            current_file_frames: None,
            file_frames_delivered: 0,
            file_began_at: 0.0,
            pending_files: VecDeque::new(),
            tcp,
            tcp_backlog: VecDeque::new(),
            emit_pending: false,
            emission_not_before: 0.0,
            route_frames: self.etel.flow_route_counters(idx, route_count),
            acks_sent: self.etel.flow_ack_counter(idx),
        });
        self.flow_rngs.push(StdRng::seed_from_u64(stream_seed(
            self.cfg.seed,
            STREAM_FLOW,
            idx as u64,
        )));
        self.stats.push(FlowStats { started_at: start, ..Default::default() });
        self.events.push(start, Event::FlowStart { flow: idx as u32 });
        if let Some(stop) = stop {
            self.events.push(stop, Event::FlowStop { flow: idx as u32 });
        }
        idx
    }

    /// Schedules a capacity change (failure injection: 0 = link death).
    pub fn schedule_link_change(&mut self, at: f64, link: LinkId, capacity_mbps: f64) {
        self.events.push(at, Event::LinkChange { link, capacity_mbps });
    }

    /// Schedules a node crash (`up = false`) or recovery (`up = true`).
    pub fn schedule_node_change(&mut self, at: f64, node: NodeId, up: bool) {
        self.events.push(at, Event::NodeChange { node, up });
    }

    /// Replaces a flow's routes mid-run (see [`crate::Simulation::replace_routes`]).
    ///
    /// # Panics
    /// Panics if `routes` is empty or a route does not match the flow's
    /// endpoints.
    pub fn replace_routes(&mut self, flow: usize, routes: Vec<empower_model::Path>) -> usize {
        assert!(!routes.is_empty(), "a flow needs at least one route");
        for p in &routes {
            assert_eq!(p.source(&self.net), self.flows[flow].spec.src);
            assert_eq!(p.destination(&self.net), self.flows[flow].spec.dst);
        }
        let mut source_routes: Vec<SourceRoute> = Vec::with_capacity(routes.len());
        let routes: Vec<empower_model::Path> = routes
            .into_iter()
            .filter(|p| match self.resolve_source_route(p) {
                Some(sr) => {
                    source_routes.push(sr);
                    true
                }
                None => {
                    self.etel.route_errors.inc();
                    false
                }
            })
            .collect();
        if routes.is_empty() {
            self.etel.tele.event("sim", "route_replace_failed", &[("flow", flow.into())]);
            return 0;
        }
        let n = routes.len();
        let caps: Vec<f64> = routes.iter().map(|p| p.capacity(&self.net, &self.imap)).collect();
        let max_hops = routes.iter().map(|p| p.hop_count()).max().unwrap_or(1);
        let fl = &mut self.flows[flow];
        fl.first_links = routes.iter().map(|p| p.links()[0]).collect();
        fl.source_routes = source_routes;
        fl.spec.routes = routes;
        fl.scheduler.reset_routes(n);
        if fl.controller.is_some() {
            fl.controller =
                Some(FlowController::new(ProportionalFair, self.cfg.cc_config(), caps, max_hops));
        } else {
            // Open-loop flows keep driving each new route at its standalone
            // capacity.
            fl.spec.open_loop_rates =
                fl.spec.routes.iter().map(|p| p.capacity(&self.net, &self.imap)).collect();
            fl.scheduler.set_rates(&fl.spec.open_loop_rates);
        }
        fl.reorder.reset_routes(n);
        fl.acks = AckCollector::new(n);
        if fl.delay_eq.is_some() {
            fl.delay_eq = Some(DelayEqConfig::for_routes(n).build());
        }
        fl.route_frames = self.etel.flow_route_counters(flow, n);
        self.etel.tele.event(
            "sim",
            "route_replace",
            &[("flow", flow.into()), ("routes", n.into())],
        );
        // New route columns in the rate series start now, padded with zeros
        // for the elapsed samples.
        let series = &mut self.stats[flow].rate_series;
        let len = series.first().map_or(0, Vec::len);
        if series.len() < n {
            series.resize_with(n, || vec![0.0; len]);
        }
        n
    }

    /// Runs until `duration` seconds of simulated time and returns the
    /// report.
    pub fn run(&mut self, duration: f64) -> SimReport {
        self.run_until(duration);
        self.report(duration)
    }

    /// Advances the simulation to time `until` and pauses, leaving all
    /// state intact.
    pub fn run_until(&mut self, until: f64) {
        if !self.control_started {
            self.control_started = true;
            self.events.push(0.0, Event::ControlTick);
        }
        while let Some(at) = self.events.peek_time() {
            if at > until {
                break;
            }
            let Some((at, event)) = self.events.pop() else { break };
            debug_assert!(at + 1e-9 >= self.now, "time went backwards");
            self.now = at;
            self.etel.tele.set_now(at);
            self.perf.events_dispatched += 1;
            self.dispatch(event);
        }
        self.now = self.now.max(until);
    }

    /// The report as of the current simulated time.
    pub fn report(&self, duration: f64) -> SimReport {
        SimReport { flows: self.stats.clone(), duration }
    }

    fn dispatch(&mut self, event: Event) {
        match event {
            Event::ControlTick => self.control_tick(),
            Event::Emit { flow } => self.emit(flow as usize),
            Event::TxEnd { link } => self.tx_end(link),
            Event::FlowStart { flow } => self.flow_start(flow as usize),
            Event::FlowStop { flow } => self.flow_stop(flow as usize),
            Event::LinkChange { link, capacity_mbps } => self.link_change(link, capacity_mbps),
            Event::NodeChange { node, up } => self.node_change(node, up),
            Event::Release { flow, route, seq, price, created_at } => {
                self.deliver_to_reorder(
                    flow as usize,
                    route as usize,
                    seq,
                    price as f64,
                    created_at,
                );
            }
            Event::TcpAckArrival { flow, ack_seq, .. } => self.tcp_ack(flow as usize, ack_seq),
            Event::TcpRtoCheck { flow } => self.tcp_rto_check(flow as usize),
        }
    }

    // ------------------------------------------------------------------
    // Applications
    // ------------------------------------------------------------------

    fn flow_start(&mut self, f: usize) {
        self.started_flows += 1;
        self.flows[f].active = true;
        self.etel.tele.event("sim", "flow_start", &[("flow", f.into())]);
        match self.flows[f].spec.pattern {
            TrafficPattern::SaturatedUdp { .. } => self.schedule_emit(f, 0.0),
            TrafficPattern::FileDownload { size_bytes, .. } => {
                self.begin_file(f, size_bytes);
                self.schedule_emit(f, 0.0);
            }
            TrafficPattern::PoissonFiles { count, size_bytes, mean_gap_secs, .. } => {
                // Precompute the Poisson ready-times of the files.
                let mut t = self.now;
                for _ in 0..count {
                    self.flows[f].pending_files.push_back(t);
                    t += exponential(&mut self.flow_rngs[f], mean_gap_secs);
                }
                self.begin_file(f, size_bytes);
                self.flows[f].pending_files.pop_front();
                self.schedule_emit(f, 0.0);
            }
            TrafficPattern::Tcp { .. } => {
                self.tcp_pump(f);
            }
        }
    }

    /// Deactivates flow `f` on its first stop, recording the stop time and
    /// emitting the `flow_stop` hook event (kept in lockstep with the
    /// optimized engine so the equivalence corpus stays byte-identical).
    fn flow_stop(&mut self, f: usize) {
        if !self.flows[f].active {
            return;
        }
        self.flows[f].active = false;
        self.stats[f].stopped_at = self.now;
        self.etel.tele.event("sim", "flow_stop", &[("flow", f.into())]);
    }

    fn begin_file(&mut self, f: usize, size_bytes: u64) {
        let frames = (size_bytes * 8).div_ceil(self.cfg.frame_bits);
        let fl = &mut self.flows[f];
        fl.current_file_frames = Some(frames);
        fl.file_frames_delivered = 0;
        fl.file_began_at = self.now;
    }

    fn schedule_emit(&mut self, f: usize, delay: f64) {
        if !self.flows[f].emit_pending {
            self.flows[f].emit_pending = true;
            self.events.push(self.now + delay, Event::Emit { flow: f as u32 });
        }
    }

    fn emit(&mut self, f: usize) {
        self.flows[f].emit_pending = false;
        if !self.flows[f].active {
            return;
        }
        // A queued file may not be ready yet (Poisson arrivals): a stale
        // Emit event from the previous file's pacing must not start it
        // early.
        let gate = self.flows[f].emission_not_before;
        if self.now + 1e-9 < gate {
            self.schedule_emit(f, gate - self.now);
            return;
        }
        if self.flows[f].spec.pattern.is_tcp() {
            self.tcp_drain(f);
            return;
        }
        // File flows stop offering once the goal is met.
        if self.flows[f]
            .current_file_frames
            .is_some_and(|goal| self.flows[f].file_frames_delivered >= goal)
        {
            return; // completion handling re-arms emission
        }
        let bits = self.cfg.frame_bits;
        let choice = self.flows[f].scheduler.offer(&mut self.flow_rngs[f], self.now, bits);
        match choice {
            RouteChoice::Drop => {
                self.stats[f].dropped_at_source += 1;
                self.etel.drops_source.inc();
            }
            RouteChoice::Route(r) => {
                let seq = self.flows[f].scheduler.next_seq();
                self.send_on_route(f, r, seq, PacketKind::Data, None);
            }
        }
        let rate = self.flows[f].scheduler.total_rate().max(1.0);
        let interval = bits as f64 / 1e6 / rate;
        self.schedule_emit(f, interval);
    }

    /// Builds a frame and enqueues it on the first link of route `r`.
    fn send_on_route(
        &mut self,
        f: usize,
        r: usize,
        wire_seq: u32,
        kind: PacketKind,
        tcp_seq: Option<u32>,
    ) {
        let src_route = self.flows[f].source_routes[r];
        let mut header = EmpowerHeader::new(src_route, wire_seq);
        let first = self.flows[f].first_links[r];
        // The source adds its own price contribution for the first hop.
        let src_node = self.flows[f].spec.src;
        let contribution = self.price_states[src_node.index()].price_contribution(
            &self.net,
            &self.broadcasts,
            first,
        );
        header.add_price(contribution);
        if self.etel.enabled() {
            // Exercise the real 20-byte wire codec on every emitted frame:
            // an encode/decode round-trip failure is a datapath bug the
            // counters must surface (the disabled path skips this).
            self.flows[f].route_frames[r].inc();
            let bytes = header.to_bytes();
            if EmpowerHeader::decode(&mut bytes.as_slice()).is_err() {
                self.etel.header_decode_errors.inc();
            }
        }
        if let (Some(tcp), Some(ts)) = (self.flows[f].tcp.as_mut(), tcp_seq) {
            tcp.wire_to_tcp.insert(wire_seq, ts);
        }
        let pkt = SimPacket {
            header,
            size_bits: self.cfg.frame_bits,
            flow: f,
            route: r,
            created_at: self.now,
            kind,
        };
        self.stats[f].sent_frames += 1;
        self.enqueue_link(first, pkt);
    }

    // ------------------------------------------------------------------
    // MAC
    // ------------------------------------------------------------------

    fn enqueue_link(&mut self, link: LinkId, pkt: SimPacket) {
        let l = link.index();
        // Demand is the *offered* airtime (Eq. (7) measures what flows try
        // to push, which is what the prices must react to), so count the
        // frame even when the queue then drops it.
        self.demand_bits[l] += pkt.size_bits as f64;
        if !self.net.link(link).is_alive() || self.queues[l].len() >= self.cfg.queue_frames {
            self.stats[pkt.flow].dropped_in_network += 1;
            let alive = self.net.link(link).is_alive();
            if alive {
                self.etel.drops_overflow.inc();
            } else {
                self.etel.drops_dead_link.inc();
            }
            if let Some(tr) = self.trace.as_mut() {
                let site = if alive { DropSite::QueueOverflow } else { DropSite::DeadLink };
                tr.push(TraceEvent::Drop {
                    t: self.now,
                    flow: pkt.flow,
                    seq: pkt.header.seq,
                    where_: site,
                });
            }
            return;
        }
        self.queues[l].push_back(pkt);
        self.etel.queue_hwm[l].record_max(self.queues[l].len() as u64);
        self.try_start(link);
    }

    fn can_start(&mut self, link: LinkId) -> bool {
        let l = link.index();
        if self.busy[l].is_some() || self.queues[l].is_empty() || !self.net.link(link).is_alive() {
            return false;
        }
        // Element-wise interference-domain scan with early exit — the work
        // the bitset engine replaces with word ANDs. One probe per element
        // visited.
        let mut probes = 0u64;
        let mut clear = true;
        for &i in self.imap.domain(link) {
            probes += 1;
            if self.busy[i.index()].is_some() {
                clear = false;
                break;
            }
        }
        self.perf.domain_probes += probes;
        clear
    }

    fn try_start(&mut self, link: LinkId) {
        if !self.can_start(link) {
            // A deferral is a backlogged, healthy link that found its
            // contention domain occupied — the CSMA wait the paper's MAC
            // model abstracts into fair sharing.
            let l = link.index();
            if self.busy[l].is_none()
                && !self.queues[l].is_empty()
                && self.net.link(link).is_alive()
            {
                self.etel.mac_deferrals.inc();
            }
            return;
        }
        let l = link.index();
        // `can_start` verified the queue is non-empty.
        let Some(pkt) = self.queues[l].pop_front() else { return };
        self.etel.mac_grants.inc();
        let mut duration = self.net.link(link).tx_time_secs(pkt.size_bits);
        if self.cfg.saturation_penalty > 0.0 {
            // CSMA saturation rolloff (see SimConfig::saturation_penalty):
            // collisions and back-off waste airtime once the domain's
            // offered load exceeds what it can carry.
            let y: f64 =
                self.imap.domain(link).iter().map(|&i| self.penalty_demand[i.index()]).sum();
            // Tolerance band: a controlled flow rides y ≈ 1 − δ (exactly
            // 1.0 when δ = 0) with measurement jitter; only *persistent*
            // overdrive pays (the penalty demand is slow-smoothed).
            if y > 1.1 {
                let base = duration;
                duration *= 1.0 + self.cfg.saturation_penalty * (y - 1.1);
                self.etel.mac_penalty_frames.inc();
                self.etel.mac_penalty_airtime_us.add(((duration - base) * 1e6) as u64);
            }
        }
        if let Some(tr) = self.trace.as_mut() {
            tr.push(TraceEvent::TxStart {
                t: self.now,
                link: link.0,
                flow: pkt.flow,
                seq: pkt.header.seq,
                bits: pkt.size_bits,
            });
        }
        self.busy[l] = Some(pkt);
        self.last_start[l] = self.now;
        self.events.push(self.now + duration, Event::TxEnd { link });
    }

    fn tx_end(&mut self, link: LinkId) {
        let l = link.index();
        // A stale TxEnd: the frame that was on the air got dropped when its
        // link (or an endpoint node) went down mid-transmission.
        let Some(pkt) = self.busy[l].take() else {
            return;
        };
        if let Some(tr) = self.trace.as_mut() {
            tr.push(TraceEvent::TxEnd {
                t: self.now,
                link: link.0,
                flow: pkt.flow,
                seq: pkt.header.seq,
            });
        }
        self.receive(link, pkt);
        // Give the freed medium to the longest-waiting backlogged contender
        // (round-robin-fair CSMA without collisions), then everyone else
        // that still fits.
        self.perf.hot_allocs += 1; // the domain clone below
        let mut candidates: Vec<LinkId> = self.imap.domain(link).to_vec();
        candidates.sort_by(|a, b| {
            self.last_start[a.index()].total_cmp(&self.last_start[b.index()]).then_with(|| a.cmp(b))
        });
        for cand in candidates {
            self.try_start(cand);
        }
    }

    fn receive(&mut self, link: LinkId, mut pkt: SimPacket) {
        let node = self.net.link(link).to;
        let medium = self.net.link(link).medium;
        let Some(arrived_iface) = self.reg.id_of(node, medium) else {
            // The receiving interface vanished (node removal mid-run).
            self.stats[pkt.flow].dropped_in_network += 1;
            self.etel.route_errors.inc();
            return;
        };
        if pkt.header.route.is_destination(arrived_iface) {
            self.arrive_at_destination(pkt);
            return;
        }
        let Some(next_iface) = pkt.header.route.next_hop_after(arrived_iface) else {
            // Mis-routed (e.g. stale route after failure): drop.
            self.stats[pkt.flow].dropped_in_network += 1;
            self.etel.route_errors.inc();
            return;
        };
        let Some((nnode, nmedium)) = self.reg.iface_of(next_iface) else {
            self.stats[pkt.flow].dropped_in_network += 1;
            self.etel.route_errors.inc();
            return;
        };
        let Some(next_link) = self.net.find_link(node, nnode, nmedium).map(|l| l.id) else {
            self.stats[pkt.flow].dropped_in_network += 1;
            self.etel.route_errors.inc();
            return;
        };
        // Forwarding node adds its price contribution (Eq. (9)).
        let contribution = self.price_states[node.index()].price_contribution(
            &self.net,
            &self.broadcasts,
            next_link,
        );
        pkt.header.add_price(contribution);
        self.enqueue_link(next_link, pkt);
    }

    fn arrive_at_destination(&mut self, pkt: SimPacket) {
        let f = pkt.flow;
        let route = pkt.route;
        let seq = pkt.header.seq;
        let price = pkt.header.price as f64;
        let delay = self.now - pkt.created_at;
        // Stale route index (route set shrank mid-flight): the equalizer
        // and reorder state below it no longer have this route's slot.
        if route >= self.flows[f].spec.routes.len() {
            self.stats[f].dropped_in_network += 1;
            self.etel.route_errors.inc();
            return;
        }
        if let Some(eq) = self.flows[f].delay_eq.as_mut() {
            let hold = eq.on_arrival(route, delay);
            if hold > 1e-9 {
                self.events.push(
                    self.now + hold,
                    Event::Release {
                        flow: f as u32,
                        route: route as u16,
                        seq,
                        price: pkt.header.price,
                        created_at: pkt.created_at,
                    },
                );
                return;
            }
        }
        self.deliver_to_reorder(f, route, seq, price, pkt.created_at);
    }

    fn deliver_to_reorder(
        &mut self,
        f: usize,
        route: usize,
        seq: u32,
        price: f64,
        created_at: f64,
    ) {
        // A packet (or delay-equalizer release) launched before a route
        // replacement shrank the flow's route set: its route index no
        // longer exists in the per-route receiver state. Count it as lost
        // in the transient rather than indexing out of bounds.
        if route >= self.flows[f].spec.routes.len() {
            self.stats[f].dropped_in_network += 1;
            self.etel.route_errors.inc();
            return;
        }
        // End-to-end latency sample: source emission to (pre-reorder)
        // arrival at the destination stack, including any delay-equalizer
        // hold that brought us here.
        let delay = self.now - created_at;
        let st = &mut self.stats[f];
        st.delay_sum_secs += delay;
        st.delay_samples += 1;
        if delay > st.delay_max_secs {
            st.delay_max_secs = delay;
        }
        self.flows[f].acks.observe_price(route, price);
        let events = self.flows[f].reorder.accept(route, seq);
        if !events.is_empty() {
            self.etel.reorder_flushes.inc();
            self.perf.hot_allocs += 1; // the reorder result vector
        }
        let mut delivered_now = 0u64;
        let mut tcp_acks: Vec<u32> = Vec::new();
        for ev in events {
            match ev {
                ReorderEvent::Deliver(s) => {
                    if let Some(tr) = self.trace.as_mut() {
                        tr.push(TraceEvent::Deliver { t: self.now, flow: f, seq: s });
                    }
                    self.flows[f].acks.count_delivery();
                    delivered_now += 1;
                    if let Some(tcp) = self.flows[f].tcp.as_mut() {
                        if let Some(ts) = tcp.wire_to_tcp.remove(&s) {
                            tcp_acks.push(tcp.receiver.on_segment(ts));
                        }
                    }
                }
                ReorderEvent::Lost(s) => {
                    if let Some(tr) = self.trace.as_mut() {
                        tr.push(TraceEvent::DeclaredLost { t: self.now, flow: f, seq: s });
                    }
                    self.stats[f].declared_lost += 1;
                    self.etel.loss_rule_firings.inc();
                }
            }
        }
        if delivered_now > 0 {
            self.etel.reorder_delivered.add(delivered_now);
            let bits = delivered_now * self.cfg.frame_bits;
            self.stats[f].delivered_bits += bits;
            let bucket = self.now as usize;
            let series = &mut self.stats[f].throughput_series;
            if series.len() <= bucket {
                series.resize(bucket + 1, 0.0);
            }
            series[bucket] += bits as f64 / 1e6;
            self.flows[f].file_frames_delivered += delivered_now;
            self.check_file_completion(f);
        }
        if !tcp_acks.is_empty() {
            self.perf.hot_allocs += 1; // the TCP-ACK scratch vector
        }
        if let Some(tcp) = self.flows[f].tcp.as_ref() {
            let ack_delay = tcp.ack_delay;
            for ack in tcp_acks {
                self.events.push(
                    self.now + ack_delay,
                    Event::TcpAckArrival { flow: f as u32, ack_seq: ack, dup: false },
                );
            }
        }
    }

    fn check_file_completion(&mut self, f: usize) {
        let Some(goal) = self.flows[f].current_file_frames else {
            return;
        };
        if self.flows[f].file_frames_delivered < goal {
            return;
        }
        let took = self.now - self.flows[f].file_began_at;
        self.stats[f].completions.push(took);
        self.etel.tele.event("sim", "file_complete", &[("flow", f.into()), ("secs", took.into())]);
        match self.flows[f].spec.pattern {
            TrafficPattern::PoissonFiles { size_bytes, .. } => {
                if let Some(ready) = self.flows[f].pending_files.pop_front() {
                    let begin_in = (ready - self.now).max(0.0);
                    // Sequential downloads: the next file begins when it is
                    // both ready and the previous one is done. In-flight
                    // frames of the old file carry over.
                    let frames = (size_bytes * 8).div_ceil(self.cfg.frame_bits);
                    let excess = self.flows[f].file_frames_delivered - goal;
                    let fl = &mut self.flows[f];
                    fl.current_file_frames = Some(frames);
                    fl.file_frames_delivered = excess;
                    fl.file_began_at = self.now + begin_in;
                    fl.emission_not_before = self.now + begin_in;
                    self.schedule_emit(f, begin_in);
                } else {
                    self.flow_stop(f);
                    self.flows[f].current_file_frames = None;
                }
            }
            _ => {
                self.flow_stop(f);
                self.flows[f].current_file_frames = None;
            }
        }
    }

    // ------------------------------------------------------------------
    // Control plane
    // ------------------------------------------------------------------

    fn control_tick(&mut self) {
        let slot = self.cfg.slot_secs;
        // 1. Per-link airtime-demand measurement over the last slot, with
        //    optional capacity-estimation error.
        for l in 0..self.net.link_count() {
            let link = self.net.link(LinkId(l as u32));
            let demand = if link.is_alive() {
                self.demand_bits[l] / (link.capacity_mbps * 1e6 * slot)
            } else if self.demand_bits[l] > 0.0 {
                // Traffic offered to a dead link: the capacity estimator
                // notices within ~100 ms (§6.1), and a zero-capacity link
                // under any load is infinitely oversubscribed. Report a
                // mildly saturated demand: enough for prices to drain the
                // route, small enough that γ unwinds quickly on recovery
                // (the γ update (8) decays at most α per slot).
                1.2
            } else {
                0.0
            };
            let noisy = if self.cfg.estimation_rel_std > 0.0 {
                demand * normal(&mut self.link_rngs[l], 1.0, self.cfg.estimation_rel_std).max(0.05)
            } else {
                demand
            };
            let smoothed =
                self.cfg.demand_ewma * noisy + (1.0 - self.cfg.demand_ewma) * self.last_demand[l];
            let owner = link.from;
            self.price_states[owner.index()].set_demand(LinkId(l as u32), smoothed);
            self.last_demand[l] = smoothed;
            self.penalty_demand[l] = 0.05 * noisy + 0.95 * self.penalty_demand[l];
            self.demand_bits[l] = 0.0;
        }
        // 2. TCP piggyback (§6.4): destinations of active TCP flows flag
        //    themselves; the flag rides on their price broadcasts and
        //    tightens the airtime budget across their contention domains.
        self.perf.hot_allocs += 1; // the tcp_nodes scratch vector
        let mut tcp_nodes = vec![false; self.net.node_count()];
        for fl in &self.flows {
            if fl.active && fl.spec.pattern.is_tcp() {
                tcp_nodes[fl.spec.dst.index()] = true;
            }
        }
        for s in self.price_states.iter_mut() {
            s.set_tcp_receiver(tcp_nodes[s.node().index()]);
        }
        // 3. Broadcast, overhear, update duals.
        self.perf.hot_allocs += 1; // the broadcast collect
        let broadcasts: Vec<PriceBroadcast> =
            self.price_states.iter().flat_map(|s| s.make_broadcasts(&self.net)).collect();
        let alpha = self.cfg.cc.alpha;
        let delta = self.cfg.delta;
        let delta_tcp = self.cfg.tcp_delta.max(delta);
        let mut margin_violations = 0usize;
        for s in self.price_states.iter_mut() {
            margin_violations +=
                s.update_gammas_with_tcp_margin(&broadcasts, alpha, delta, delta_tcp);
        }
        self.etel.ctrl_ticks.inc();
        self.etel.cc_price_updates.add(self.net.link_count() as u64);
        self.etel.cc_margin_violations.add(margin_violations as u64);
        // 3. Fresh broadcasts carry the updated γ sums for the coming slot.
        self.perf.hot_allocs += 1; // the second broadcast collect
        self.broadcasts =
            self.price_states.iter().flat_map(|s| s.make_broadcasts(&self.net)).collect();
        // 4. ACKs and controller steps.
        for f in 0..self.flows.len() {
            if self.flows[f].controller.is_none() {
                continue;
            }
            let ack = self.flows[f].acks.maybe_ack(self.now);
            if ack.is_some() {
                self.flows[f].acks_sent.inc();
            }
            let prices: Vec<Option<f64>> = match ack {
                Some(a) => a.route_prices,
                None => {
                    self.perf.hot_allocs += 1; // the no-ack price vector
                    vec![None; self.flows[f].spec.routes.len()]
                }
            };
            let Some(controller) = self.flows[f].controller.as_mut() else { continue };
            let rates = controller.on_ack(&prices);
            self.flows[f].scheduler.set_rates(&rates.per_route);
        }
        // 5. Once per second: sample injected rates.
        let per_sec = (1.0 / slot).round() as u64;
        if self.ticks.is_multiple_of(per_sec) {
            for f in 0..self.flows.len() {
                self.perf.hot_allocs += 1; // the rate snapshot clone
                let rates: Vec<f64> = match self.flows[f].controller.as_ref() {
                    Some(c) => c.rates().to_vec(),
                    None => self.flows[f].spec.open_loop_rates.clone(),
                };
                let series = &mut self.stats[f].rate_series;
                if series.is_empty() {
                    *series = vec![Vec::new(); rates.len()];
                }
                for (r, &x) in rates.iter().enumerate() {
                    series[r].push(if self.flows[f].active { x } else { 0.0 });
                }
            }
        }
        self.ticks += 1;
        // Unconditional re-arm, mirroring the optimized engine: the tick
        // chain must depend only on the caller's horizon, never on global
        // drain state, so sharded runs (DESIGN.md §13) tick identically.
        self.events.push(self.now + slot, Event::ControlTick);
    }

    fn link_change(&mut self, link: LinkId, capacity_mbps: f64) {
        self.etel.tele.event(
            "sim",
            "link_change",
            &[("link", link.0.into()), ("capacity_mbps", capacity_mbps.into())],
        );
        // An explicit capacity change overrides whatever a node crash saved.
        self.crash_saved[link.index()] = None;
        self.apply_capacity(link, capacity_mbps);
    }

    /// Sets a link's capacity mid-run, handling the death/revival edges:
    /// queued and in-flight frames on a dying link are dropped, a reviving
    /// link gets its stale γ dual forgotten so prices restart from fresh
    /// measurements instead of unwinding at α per slot.
    fn apply_capacity(&mut self, link: LinkId, capacity_mbps: f64) {
        if let Some(tr) = self.trace.as_mut() {
            tr.push(TraceEvent::LinkChange { t: self.now, link: link.0, capacity_mbps });
        }
        let was_alive = self.net.link(link).is_alive();
        self.net.set_capacity(link, capacity_mbps);
        let l = link.index();
        if !self.net.link(link).is_alive() {
            // Queued frames on a dead link are lost, and so is the frame on
            // the air (its TxEnd event goes stale and is ignored).
            let in_flight = self.busy[l].take();
            let freed_medium = in_flight.is_some();
            self.perf.hot_allocs += 1; // the lost-frame collect
            let lost: Vec<SimPacket> = self.queues[l].drain(..).chain(in_flight).collect();
            for pkt in lost {
                self.stats[pkt.flow].dropped_in_network += 1;
                self.etel.drops_dead_link.inc();
                if let Some(tr) = self.trace.as_mut() {
                    tr.push(TraceEvent::Drop {
                        t: self.now,
                        flow: pkt.flow,
                        seq: pkt.header.seq,
                        where_: DropSite::DeadLink,
                    });
                }
            }
            if freed_medium {
                // The aborted transmission freed its contention domain.
                self.perf.hot_allocs += 1; // the domain clone below
                for cand in self.imap.domain(link).to_vec() {
                    self.try_start(cand);
                }
            }
        } else {
            if !was_alive {
                // Topology change: the γ this link's owner learned while it
                // was dead (demand-starved or drain-priced) is stale.
                let owner = self.net.link(link).from;
                self.price_states[owner.index()].reset_gamma(link);
            }
            self.try_start(link);
        }
        // Route-capacity clamps in controllers are intentionally NOT
        // updated: the controller adapts through prices, as in the paper
        // (routes are only recomputed on failures, by the caller).
    }

    fn node_change(&mut self, node: NodeId, up: bool) {
        self.etel.tele.event(
            "sim",
            "node_change",
            &[("node", node.index().into()), ("up", up.into())],
        );
        let adjacent: Vec<LinkId> = self
            .net
            .links()
            .iter()
            .filter(|lk| lk.from == node || lk.to == node)
            .map(|lk| lk.id)
            .collect();
        for link in adjacent {
            let l = link.index();
            if up {
                if let Some(cap) = self.crash_saved[l].take() {
                    self.apply_capacity(link, cap);
                }
            } else {
                if self.net.link(link).is_alive() && self.crash_saved[l].is_none() {
                    self.crash_saved[l] = Some(self.net.link(link).capacity_mbps);
                }
                self.apply_capacity(link, 0.0);
            }
        }
    }

    // ------------------------------------------------------------------
    // TCP
    // ------------------------------------------------------------------

    fn tcp_pump(&mut self, f: usize) {
        if !self.flows[f].active {
            return;
        }
        loop {
            let Some(tcp) = self.flows[f].tcp.as_mut() else { return };
            let Some((tcp_seq, is_retx)) = tcp.sender.next_to_send() else {
                break;
            };
            tcp.sender.on_sent(tcp_seq, self.now, is_retx);
            // Into the source queue; the drain loop paces admission. A full
            // queue is the §6.4 drop TCP perceives as congestion.
            if self.flows[f].tcp_backlog.len() >= 64 {
                self.stats[f].dropped_at_source += 1;
                self.etel.drops_source.inc();
            } else {
                self.flows[f].tcp_backlog.push_back(tcp_seq);
            }
        }
        self.tcp_drain(f);
        self.tcp_arm_rto(f);
    }

    /// Drains the TCP source queue at the admitted rate.
    fn tcp_drain(&mut self, f: usize) {
        if self.flows[f].tcp_backlog.is_empty() || !self.flows[f].active {
            return;
        }
        let bits = self.cfg.frame_bits;
        let choice = if self.flows[f].spec.use_cc {
            self.flows[f].scheduler.offer(&mut self.flow_rngs[f], self.now, bits)
        } else {
            RouteChoice::Route(0)
        };
        match choice {
            RouteChoice::Drop => {
                // No tokens yet: retry after roughly one frame time at the
                // admitted rate; the segment stays queued.
            }
            RouteChoice::Route(r) => {
                if let Some(tcp_seq) = self.flows[f].tcp_backlog.pop_front() {
                    let wire_seq = self.flows[f].scheduler.next_seq();
                    self.send_on_route(f, r, wire_seq, PacketKind::TcpData, Some(tcp_seq));
                }
            }
        }
        if !self.flows[f].tcp_backlog.is_empty() {
            let rate = self.flows[f].scheduler.total_rate().max(1.0);
            let interval = bits as f64 / 1e6 / rate;
            self.schedule_emit(f, interval);
        }
    }

    fn tcp_arm_rto(&mut self, f: usize) {
        let Some(tcp) = self.flows[f].tcp.as_mut() else { return };
        if tcp.rto_check_at.is_none() {
            let at = self.now + tcp.sender.rto();
            tcp.rto_check_at = Some(at);
            self.events.push(at, Event::TcpRtoCheck { flow: f as u32 });
        }
    }

    fn tcp_ack(&mut self, f: usize, ack_seq: u32) {
        {
            let Some(tcp) = self.flows[f].tcp.as_mut() else { return };
            tcp.sender.on_ack(ack_seq, self.now);
            if tcp.sender.done() {
                let elapsed = self.now - self.stats[f].started_at;
                self.stats[f].completions.push(elapsed);
                self.flow_stop(f);
                return;
            }
        }
        self.tcp_pump(f);
    }

    fn tcp_rto_check(&mut self, f: usize) {
        let active = self.flows[f].active;
        let retransmit = {
            let Some(tcp) = self.flows[f].tcp.as_mut() else { return };
            tcp.rto_check_at = None;
            if !active {
                return;
            }
            match tcp.sender.on_rto_check(self.now) {
                Some(next) => {
                    tcp.rto_check_at = Some(next);
                    true
                }
                None => false,
            }
        };
        if retransmit {
            let at = self.flows[f].tcp.as_ref().and_then(|t| t.rto_check_at);
            if let Some(at) = at {
                self.events.push(at, Event::TcpRtoCheck { flow: f as u32 });
            }
            self.tcp_pump(f);
        }
    }
}
