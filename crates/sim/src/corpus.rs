//! The seeded equivalence corpus: a fixed set of scenarios that both
//! engines — the optimized [`crate::Simulation`] and the retained
//! [`crate::ReferenceSimulation`] — must reproduce **byte-identically**
//! (report, packet trace and telemetry manifest).
//!
//! The corpus is the contract that makes the zero-allocation rewrite safe:
//! `crates/sim/tests/equivalence.rs` runs every scenario through both
//! engines and compares the three renderings byte for byte. Keep
//! the scenarios deterministic — topology construction, flow setup and
//! fault schedules may depend only on the descriptor fields.

use empower_model::topology::{fig1_scenario, testbed22};
use empower_model::{
    CarrierSense, InterferenceMap, InterferenceModel, LinkId, Network, NodeId, Path, SharedMedium,
};
use empower_telemetry::{Manifest, Telemetry};

use crate::config::SimConfig;
use crate::flow::{FlowSpecSim, TrafficPattern};
use crate::perf::SimPerfStats;
use crate::stats::SimReport;
use crate::trace::Trace;

/// The engine API surface the corpus drives, implemented by both the
/// optimized and the reference simulator so one runner exercises either.
pub trait SimEngine {
    /// Constructs the engine over a prebuilt network.
    fn build(net: Network, imap: InterferenceMap, cfg: SimConfig) -> Self;
    /// Attaches a packet-level trace sink.
    fn attach_trace(&mut self, trace: Trace);
    /// Attaches a telemetry registry.
    fn attach_telemetry(&mut self, tele: Telemetry);
    /// The attached telemetry handle.
    fn telemetry(&self) -> &Telemetry;
    /// Detaches and returns the recorded trace.
    fn take_trace(&mut self) -> Option<Trace>;
    /// Registers a flow; returns its index.
    fn add_flow(&mut self, spec: FlowSpecSim) -> usize;
    /// Schedules a capacity change (0 = link death).
    fn schedule_link_change(&mut self, at: f64, link: LinkId, capacity_mbps: f64);
    /// Schedules a node crash or recovery.
    fn schedule_node_change(&mut self, at: f64, node: NodeId, up: bool);
    /// Replaces a flow's routes mid-run (§3.2 route recomputation).
    fn replace_routes(&mut self, flow: usize, routes: Vec<Path>) -> usize;
    /// Advances simulated time to `until`.
    fn run_until(&mut self, until: f64);
    /// The report as of the current simulated time.
    fn report(&self, duration: f64) -> SimReport;
    /// Read access to the (possibly mutated) network.
    fn network(&self) -> &Network;
    /// Deterministic hot-path work counters.
    fn perf_stats(&self) -> SimPerfStats;
}

macro_rules! impl_sim_engine {
    ($ty:ty) => {
        impl SimEngine for $ty {
            fn build(net: Network, imap: InterferenceMap, cfg: SimConfig) -> Self {
                <$ty>::new(net, imap, cfg)
            }
            fn attach_trace(&mut self, trace: Trace) {
                <$ty>::attach_trace(self, trace)
            }
            fn attach_telemetry(&mut self, tele: Telemetry) {
                <$ty>::attach_telemetry(self, tele)
            }
            fn telemetry(&self) -> &Telemetry {
                <$ty>::telemetry(self)
            }
            fn take_trace(&mut self) -> Option<Trace> {
                <$ty>::take_trace(self)
            }
            fn add_flow(&mut self, spec: FlowSpecSim) -> usize {
                <$ty>::add_flow(self, spec)
            }
            fn schedule_link_change(&mut self, at: f64, link: LinkId, capacity_mbps: f64) {
                <$ty>::schedule_link_change(self, at, link, capacity_mbps)
            }
            fn schedule_node_change(&mut self, at: f64, node: NodeId, up: bool) {
                <$ty>::schedule_node_change(self, at, node, up)
            }
            fn replace_routes(&mut self, flow: usize, routes: Vec<Path>) -> usize {
                <$ty>::replace_routes(self, flow, routes)
            }
            fn run_until(&mut self, until: f64) {
                <$ty>::run_until(self, until)
            }
            fn report(&self, duration: f64) -> SimReport {
                <$ty>::report(self, duration)
            }
            fn network(&self) -> &Network {
                <$ty>::network(self)
            }
            fn perf_stats(&self) -> SimPerfStats {
                <$ty>::perf_stats(self)
            }
        }
    };
}

impl_sim_engine!(crate::engine::Simulation);
impl_sim_engine!(crate::reference::ReferenceSimulation);

/// [`crate::sharded::ShardedSimulation`] pinned to `N` shards at the type
/// level, so determinism gates can sweep shard counts through the generic
/// corpus runner.
pub struct ShardedN<const N: u32>(pub crate::sharded::ShardedSimulation);

impl<const N: u32> SimEngine for ShardedN<N> {
    fn build(net: Network, imap: InterferenceMap, cfg: SimConfig) -> Self {
        ShardedN(crate::sharded::ShardedSimulation::with_shards(net, imap, cfg, N))
    }
    fn attach_trace(&mut self, trace: Trace) {
        self.0.attach_trace(trace)
    }
    fn attach_telemetry(&mut self, tele: Telemetry) {
        self.0.attach_telemetry(tele)
    }
    fn telemetry(&self) -> &Telemetry {
        self.0.telemetry()
    }
    fn take_trace(&mut self) -> Option<Trace> {
        self.0.take_trace()
    }
    fn add_flow(&mut self, spec: FlowSpecSim) -> usize {
        self.0.add_flow(spec)
    }
    fn schedule_link_change(&mut self, at: f64, link: LinkId, capacity_mbps: f64) {
        self.0.schedule_link_change(at, link, capacity_mbps)
    }
    fn schedule_node_change(&mut self, at: f64, node: NodeId, up: bool) {
        self.0.schedule_node_change(at, node, up)
    }
    fn replace_routes(&mut self, flow: usize, routes: Vec<Path>) -> usize {
        self.0.replace_routes(flow, routes)
    }
    fn run_until(&mut self, until: f64) {
        self.0.run_until(until)
    }
    fn report(&self, duration: f64) -> SimReport {
        self.0.report(duration)
    }
    fn network(&self) -> &Network {
        self.0.network()
    }
    fn perf_stats(&self) -> SimPerfStats {
        self.0.perf_stats()
    }
}

/// What a scenario does on top of its topology.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// One CC flow over both Fig. 1 routes (optionally delay-equalized).
    Multipath { delay_eq: bool },
    /// One CC flow on the hybrid Fig. 1 route only.
    SingleRoute,
    /// Two contending single-route CC flows in the shared WiFi domain.
    Contending,
    /// An open-loop flow over-driving the 2-hop WiFi route (no CC).
    OpenLoop { rate_mbps: f64 },
    /// A single file download over both routes.
    File { size_bytes: u64 },
    /// Sequential Poisson file downloads (Table 1's Conc workload).
    Poisson { count: u32, size_bytes: u64, gap_secs: f64 },
    /// A TCP bulk transfer with delay equalization (`0` = run to stop).
    Tcp { size_bytes: u64 },
    /// CC multipath plus a fixed-rate external interferer on WiFi a→b.
    External { rate_mbps: f64 },
    /// The PLC link dies mid-run; the flow keeps its stale routes.
    LinkDeath { at: f64 },
    /// The PLC link dies and later revives at its old capacity.
    LinkFlap { down_at: f64, up_at: f64 },
    /// The Fig. 1 extender crashes and recovers (both routes die with it).
    NodeFlap { down_at: f64, up_at: f64 },
    /// Fig. 12 dynamics: PLC death at `kill_at`, route recomputation onto
    /// the surviving WiFi route at `replace_at`.
    Reroute { kill_at: f64, replace_at: f64 },
    /// One CC flow on the 22-node testbed: direct PLC plus (when the
    /// sampled topology has them) a 2-hop WiFi relay route.
    TestbedPair { src: u32, via: u32, dst: u32 },
    /// A TCP bulk transfer on the testbed (direct PLC route).
    TestbedTcp { src: u32, dst: u32 },
    /// Testbed flow whose WiFi relay crashes and recovers mid-run.
    TestbedNodeFlap { src: u32, via: u32, dst: u32, down_at: f64, up_at: f64 },
}

/// One corpus entry: everything a runner needs to reproduce the run.
#[derive(Debug, Clone, Copy)]
pub struct CorpusScenario {
    /// Stable name (manifest key and test label).
    pub name: &'static str,
    /// Engine RNG seed (`SimConfig::seed`).
    pub cfg_seed: u64,
    /// Topology seed for the sampled testbed (ignored by Fig. 1 entries).
    pub topo_seed: u64,
    /// Capacity-estimation noise (`SimConfig::estimation_rel_std`).
    pub noise: f64,
    /// Simulated duration, seconds.
    pub duration: f64,
    /// The workload / fault schedule.
    pub kind: Kind,
}

/// The three byte-compared renderings of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusOutput {
    /// `format!("{report:?}")` — every stat of every flow, bit-exact.
    pub report: String,
    /// The packet trace as JSON lines.
    pub trace: String,
    /// The telemetry manifest rendering.
    pub manifest: String,
}

/// The fixed corpus (≥ 20 scenarios; see module docs). Order is stable —
/// tests and benches index into it.
pub fn corpus() -> Vec<CorpusScenario> {
    use Kind::*;
    let s = |name, cfg_seed, duration, kind| CorpusScenario {
        name,
        cfg_seed,
        topo_seed: 1,
        noise: 0.0,
        duration,
        kind,
    };
    vec![
        s("fig1_multipath", 1, 30.0, Multipath { delay_eq: false }),
        s("fig1_multipath_seed7", 7, 30.0, Multipath { delay_eq: false }),
        s("fig1_multipath_long", 3, 60.0, Multipath { delay_eq: false }),
        s("fig1_multipath_delay_eq", 2, 20.0, Multipath { delay_eq: true }),
        CorpusScenario {
            name: "fig1_multipath_noisy",
            cfg_seed: 5,
            topo_seed: 1,
            noise: 0.2,
            duration: 30.0,
            kind: Multipath { delay_eq: false },
        },
        s("fig1_single_route", 1, 20.0, SingleRoute),
        s("fig1_contending", 1, 30.0, Contending),
        s("fig1_open_loop_overdrive", 1, 20.0, OpenLoop { rate_mbps: 30.0 }),
        s("fig1_file_download", 1, 60.0, File { size_bytes: 5_000_000 }),
        s("fig1_poisson_files", 4, 60.0, Poisson { count: 4, size_bytes: 400_000, gap_secs: 2.0 }),
        s("fig1_tcp_bulk", 1, 30.0, Tcp { size_bytes: 0 }),
        s("fig1_tcp_file", 2, 60.0, Tcp { size_bytes: 3_000_000 }),
        s("fig1_external_interference", 1, 30.0, External { rate_mbps: 7.5 }),
        s("fig1_link_death", 1, 30.0, LinkDeath { at: 10.0 }),
        s("fig1_link_flap", 1, 30.0, LinkFlap { down_at: 10.0, up_at: 20.0 }),
        s("fig1_node_flap", 1, 30.0, NodeFlap { down_at: 10.0, up_at: 20.0 }),
        s("fig12_reroute_after_death", 1, 30.0, Reroute { kill_at: 10.0, replace_at: 12.0 }),
        s("fig12_reroute_seed9", 9, 30.0, Reroute { kill_at: 8.0, replace_at: 10.5 }),
        s("testbed_pair_1_4_13", 1, 20.0, TestbedPair { src: 1, via: 4, dst: 13 }),
        CorpusScenario {
            name: "testbed_pair_seed9",
            cfg_seed: 2,
            topo_seed: 9,
            noise: 0.0,
            duration: 20.0,
            kind: TestbedPair { src: 1, via: 4, dst: 13 },
        },
        s("testbed_pair_5_8_9", 1, 20.0, TestbedPair { src: 5, via: 8, dst: 9 }),
        s("testbed_tcp_1_13", 1, 20.0, TestbedTcp { src: 1, dst: 13 }),
        s(
            "testbed_node_flap",
            1,
            20.0,
            TestbedNodeFlap { src: 1, via: 4, dst: 13, down_at: 8.0, up_at: 14.0 },
        ),
    ]
}

/// Builds a corpus route from links that are valid by construction.
fn path(net: &Network, links: Vec<LinkId>) -> Path {
    // empower-lint: allow(D005) — corpus fixtures are static; an invalid
    // route is a bug in this file and must abort the run loudly
    Path::new(net, links).expect("corpus route must be valid")
}

/// The testbed route set for a `src → dst` pair: the direct PLC link
/// (required) plus a 2-hop WiFi relay via `via` when the sampled topology
/// has both hops.
fn testbed_routes(net: &Network, src: NodeId, via: NodeId, dst: NodeId) -> Vec<Path> {
    let plc = net
        .find_link(src, dst, empower_model::Medium::Plc)
        .map(|l| l.id)
        // empower-lint: allow(D005) — see `path`: static fixture invariant
        .expect("corpus testbed pair needs a direct PLC link");
    let mut routes = vec![path(net, vec![plc])];
    let hop1 = net.find_link(src, via, empower_model::Medium::WIFI1).map(|l| l.id);
    let hop2 = net.find_link(via, dst, empower_model::Medium::WIFI1).map(|l| l.id);
    if let (Some(a), Some(b)) = (hop1, hop2) {
        routes.push(path(net, vec![a, b]));
    }
    routes
}

/// Runs one scenario through engine `E` with telemetry and a bounded trace
/// attached, returning the three byte-comparable renderings.
pub fn run_scenario<E: SimEngine>(s: &CorpusScenario) -> CorpusOutput {
    let mut sim = setup::<E>(s, true);
    drive(&mut sim, s);
    let report = sim.report(s.duration);
    let mut m = Manifest::new("sim_corpus");
    m.set("scenario", s.name).set("seed", s.cfg_seed).set("duration", s.duration);
    m.attach_counters(sim.telemetry());
    let trace = sim.take_trace().map(|t| t.to_jsonl()).unwrap_or_default();
    CorpusOutput { report: format!("{report:?}"), trace, manifest: m.render() }
}

/// Runs one scenario with **no** trace and **no** telemetry — the
/// steady-state configuration the hot-path budgets are stated for —
/// returning the report rendering and the engine's deterministic work
/// counters.
pub fn run_scenario_plain<E: SimEngine>(s: &CorpusScenario) -> (String, SimPerfStats) {
    let mut sim = setup::<E>(s, false);
    drive(&mut sim, s);
    let report = sim.report(s.duration);
    (format!("{report:?}"), sim.perf_stats())
}

/// Constructs the engine, its topology and its flow set for `s`.
fn setup<E: SimEngine>(s: &CorpusScenario, instrumented: bool) -> E {
    let cfg = SimConfig { seed: s.cfg_seed, estimation_rel_std: s.noise, ..SimConfig::default() };
    let mut sim = match s.kind {
        Kind::TestbedPair { .. } | Kind::TestbedTcp { .. } | Kind::TestbedNodeFlap { .. } => {
            let t = testbed22(s.topo_seed);
            let imap = CarrierSense::default().build_map(&t.net);
            E::build(t.net, imap, cfg)
        }
        _ => {
            let f = fig1_scenario();
            let imap = SharedMedium.build_map(&f.net);
            E::build(f.net, imap, cfg)
        }
    };
    if instrumented {
        sim.attach_telemetry(Telemetry::enabled());
        sim.attach_trace(Trace::bounded(50_000));
    }
    add_flows(&mut sim, s);
    sim
}

/// Registers the scenario's flows and schedules its faults.
fn add_flows<E: SimEngine>(sim: &mut E, s: &CorpusScenario) {
    let stop = s.duration;
    match s.kind {
        Kind::Multipath { delay_eq } => {
            let (r1, r2, f) = fig1_paths(sim.network());
            sim.add_flow(FlowSpecSim {
                delay_equalization: delay_eq,
                ..FlowSpecSim::saturated(f.gateway, f.client, vec![r1, r2], stop)
            });
        }
        Kind::SingleRoute => {
            let (r1, _, f) = fig1_paths(sim.network());
            sim.add_flow(FlowSpecSim::saturated(f.gateway, f.client, vec![r1], stop));
        }
        Kind::Contending => {
            let f = fig1_scenario();
            let wifi_ab = path(sim.network(), vec![f.wifi_ab]);
            let wifi_bc = path(sim.network(), vec![f.wifi_bc]);
            sim.add_flow(FlowSpecSim::saturated(f.gateway, f.extender, vec![wifi_ab], stop));
            sim.add_flow(FlowSpecSim::saturated(f.extender, f.client, vec![wifi_bc], stop));
        }
        Kind::OpenLoop { rate_mbps } => {
            let (_, r2, f) = fig1_paths(sim.network());
            sim.add_flow(FlowSpecSim {
                src: f.gateway,
                dst: f.client,
                routes: vec![r2],
                use_cc: false,
                open_loop_rates: vec![rate_mbps],
                pattern: TrafficPattern::SaturatedUdp { start: 0.0, stop },
                delay_equalization: false,
            });
        }
        Kind::File { size_bytes } => {
            let (r1, r2, f) = fig1_paths(sim.network());
            sim.add_flow(FlowSpecSim {
                pattern: TrafficPattern::FileDownload { start: 0.0, size_bytes },
                ..FlowSpecSim::saturated(f.gateway, f.client, vec![r1, r2], stop)
            });
        }
        Kind::Poisson { count, size_bytes, gap_secs } => {
            let (r1, r2, f) = fig1_paths(sim.network());
            sim.add_flow(FlowSpecSim {
                pattern: TrafficPattern::PoissonFiles {
                    start: 0.0,
                    count,
                    size_bytes,
                    mean_gap_secs: gap_secs,
                },
                ..FlowSpecSim::saturated(f.gateway, f.client, vec![r1, r2], stop)
            });
        }
        Kind::Tcp { size_bytes } => {
            let (r1, r2, f) = fig1_paths(sim.network());
            sim.add_flow(FlowSpecSim {
                pattern: TrafficPattern::Tcp { start: 0.0, stop, size_bytes },
                delay_equalization: true,
                ..FlowSpecSim::saturated(f.gateway, f.client, vec![r1, r2], stop)
            });
        }
        Kind::External { rate_mbps } => {
            let (r1, r2, f) = fig1_paths(sim.network());
            let ext = FlowSpecSim::external(sim.network(), f.wifi_ab, rate_mbps, 0.0, stop);
            sim.add_flow(ext);
            sim.add_flow(FlowSpecSim::saturated(f.gateway, f.client, vec![r1, r2], stop));
        }
        Kind::LinkDeath { at } => {
            let (r1, r2, f) = fig1_paths(sim.network());
            sim.add_flow(FlowSpecSim::saturated(f.gateway, f.client, vec![r1, r2], stop));
            sim.schedule_link_change(at, f.plc_ab, 0.0);
        }
        Kind::LinkFlap { down_at, up_at } => {
            let (r1, r2, f) = fig1_paths(sim.network());
            let plc_cap = sim.network().link(f.plc_ab).capacity_mbps;
            sim.add_flow(FlowSpecSim::saturated(f.gateway, f.client, vec![r1, r2], stop));
            sim.schedule_link_change(down_at, f.plc_ab, 0.0);
            sim.schedule_link_change(up_at, f.plc_ab, plc_cap);
        }
        Kind::NodeFlap { down_at, up_at } => {
            let (r1, r2, f) = fig1_paths(sim.network());
            sim.add_flow(FlowSpecSim::saturated(f.gateway, f.client, vec![r1, r2], stop));
            sim.schedule_node_change(down_at, f.extender, false);
            sim.schedule_node_change(up_at, f.extender, true);
        }
        Kind::Reroute { kill_at, .. } => {
            let (r1, r2, f) = fig1_paths(sim.network());
            sim.add_flow(FlowSpecSim::saturated(f.gateway, f.client, vec![r1, r2], stop));
            sim.schedule_link_change(kill_at, f.plc_ab, 0.0);
        }
        Kind::TestbedPair { src, via, dst } => {
            let t = testbed22(s.topo_seed);
            let routes = testbed_routes(sim.network(), t.node(src), t.node(via), t.node(dst));
            sim.add_flow(FlowSpecSim::saturated(t.node(src), t.node(dst), routes, stop));
        }
        Kind::TestbedTcp { src, dst } => {
            let t = testbed22(s.topo_seed);
            let routes = testbed_routes(sim.network(), t.node(src), t.node(src), t.node(dst));
            sim.add_flow(FlowSpecSim {
                pattern: TrafficPattern::Tcp { start: 0.0, stop, size_bytes: 0 },
                delay_equalization: true,
                ..FlowSpecSim::saturated(t.node(src), t.node(dst), routes, stop)
            });
        }
        Kind::TestbedNodeFlap { src, via, dst, down_at, up_at } => {
            let t = testbed22(s.topo_seed);
            let routes = testbed_routes(sim.network(), t.node(src), t.node(via), t.node(dst));
            sim.add_flow(FlowSpecSim::saturated(t.node(src), t.node(dst), routes, stop));
            sim.schedule_node_change(down_at, t.node(via), false);
            sim.schedule_node_change(up_at, t.node(via), true);
        }
    }
}

/// Advances the engine to the scenario's end, pausing for mid-run route
/// recomputation where the scenario calls for it.
fn drive<E: SimEngine>(sim: &mut E, s: &CorpusScenario) {
    if let Kind::Reroute { replace_at, .. } = s.kind {
        sim.run_until(replace_at);
        let f = fig1_scenario();
        let wifi_only = path(sim.network(), vec![f.wifi_ab, f.wifi_bc]);
        sim.replace_routes(0, vec![wifi_only]);
    }
    sim.run_until(s.duration);
}

/// The two Fig. 1 routes plus the scenario handles (node/link ids are
/// deterministic, so rebuilding the descriptor is equivalent to threading
/// it through).
fn fig1_paths(net: &Network) -> (Path, Path, empower_model::topology::Fig1Scenario) {
    let f = fig1_scenario();
    let r1 = path(net, vec![f.plc_ab, f.wifi_bc]);
    let r2 = path(net, vec![f.wifi_ab, f.wifi_bc]);
    (r1, r2, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_at_least_20_unique_scenarios() {
        let c = corpus();
        assert!(c.len() >= 20, "corpus holds {} scenarios", c.len());
        let mut names: Vec<&str> = c.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), c.len(), "scenario names must be unique");
    }

    #[test]
    fn corpus_covers_dynamics_and_tcp() {
        let c = corpus();
        assert!(c.iter().any(|s| matches!(s.kind, Kind::Reroute { .. })));
        assert!(c.iter().any(|s| matches!(s.kind, Kind::Tcp { .. } | Kind::TestbedTcp { .. })));
        assert!(c.iter().any(|s| matches!(s.kind, Kind::NodeFlap { .. })));
        assert!(c.iter().any(|s| s.noise > 0.0));
    }

    #[test]
    fn one_scenario_runs_and_renders() {
        let s = corpus()[0];
        let out = run_scenario::<crate::Simulation>(&s);
        assert!(out.report.contains("delivered_bits"));
        assert!(!out.trace.is_empty());
        assert!(out.manifest.contains("sim_corpus"));
    }
}
