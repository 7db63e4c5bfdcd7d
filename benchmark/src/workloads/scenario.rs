//! `scenario_faults`: fault scenarios through `Scenario::parse_str` →
//! `run_scenario`, the write side of the simulator: link changes scheduled
//! ahead, a node crash and recovery, a report every poll, route monitors,
//! on-line route searches and `replace_routes`.
//!
//! The traced pass re-plays `run_scenario_on` call by call. That function
//! owns a control loop, so the replay is long; the harness checks that it
//! renders the same bytes as the real entry point.

use std::fmt::Write as _;

use empower_core::{EmpowerError, RouteMonitor, RunConfig};
use empower_dynamics::driver::build_topology;
use empower_dynamics::{
    episode_metrics, episode_times, injector, run_scenario, FaultMetrics, PatternSpec, Reroute,
    Scenario, ScenarioOutcome, TopologyKind,
};
use empower_model::rng::{SeedableRng, StdRng};
use empower_model::topology::enterprise;
use empower_model::{CarrierSense, InterferenceMap, InterferenceModel, Network, NodeId};
use empower_sim::{SimConfig, SimPerfStats, TrafficPattern};
use empower_telemetry::{CounterType, Manifest, Telemetry};

use super::{probes, sim_counts, AllocPhases, Tr};
use crate::gen::{self, Size};
use crate::harness::{Bench, Ledger, Outcome, ProbeCtx};
use crate::spans::Recorder;

pub struct ScenarioBench {
    docs: Vec<String>,
}

impl ScenarioBench {
    pub fn new(seed: u64, size: Size) -> ScenarioBench {
        ScenarioBench { docs: gen::scenario_docs(seed, size) }
    }
}

fn fmt_opt_secs(v: Option<f64>) -> String {
    v.map_or_else(|| "—".to_string(), |s| format!("{s:.1} s"))
}

/// What `empower scenario run --metrics` prints and writes for one
/// scenario, appended to the iteration's renderings.
fn render(scenario: &Scenario, o: &ScenarioOutcome, tele: &Telemetry, out: &mut Outcome) {
    let horizon = scenario.run.horizon_secs;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "scenario {:?}: {} on {}, {:.0} s horizon",
        scenario.name,
        scenario.run.scheme.label(),
        scenario.topology.kind.label(),
        horizon
    );
    let _ = writeln!(
        s,
        "{} faults injected, {} route changes, {} fault episodes",
        o.faults.len(),
        o.reroutes.len(),
        o.resilience.len()
    );
    for r in &o.reroutes {
        let _ =
            writeln!(s, "  t={:>7.1}  flow {}  {} → {} routes", r.at, r.flow, r.reason, r.routes);
    }
    let _ = writeln!(
        s,
        "{:>10} {:>12} {:>10} {:>12} {:>12} {:>8}",
        "fault", "baseline", "detect", "reconverge", "dip", "lost"
    );
    for m in &o.resilience {
        let _ = writeln!(
            s,
            "{:>8.1} s {:>7.2} Mbps {:>10} {:>12} {:>7.1} Mbit {:>8}",
            m.fault_at_secs,
            m.baseline_mbps,
            fmt_opt_secs(m.time_to_detect_secs),
            fmt_opt_secs(m.time_to_reconverge_secs),
            m.dip_area_mbit,
            m.packets_lost
        );
    }
    let mean = o.aggregate_series.iter().sum::<f64>() / o.aggregate_series.len().max(1) as f64;
    let _ = writeln!(s, "mean aggregate goodput over {horizon:.0} s: {mean:.2} Mbps");

    let mut m = Manifest::new("scenario");
    m.set("name", scenario.name.as_str())
        .set("scheme", scenario.run.scheme.label())
        .set("topology", scenario.topology.kind.label())
        .set("seed", scenario.run.seed)
        .set("horizon_secs", horizon)
        .set("faults", o.faults.len() as u64)
        .set("reroutes", o.reroutes.len() as u64)
        .set("resilience", &o.resilience[..])
        .attach_counters(tele);

    // Operations are flows. A transfer of a given size fails unless it
    // completes by the horizon; any flow fails if it never got a route or
    // delivered nothing.
    for (i, (mapped, spec)) in o.flow_mapping.iter().zip(&scenario.flows).enumerate() {
        out.ops += 1;
        let stats = mapped.map(|f| &o.report.flows[f]);
        let finite = match spec.pattern {
            PatternSpec::File { .. } => true,
            PatternSpec::Tcp { size_bytes, .. } => size_bytes > 0,
            PatternSpec::Saturated { .. } => false,
        };
        let ok = stats
            .is_some_and(|st| st.delivered_bits > 0 && (!finite || !st.completions.is_empty()));
        if !ok {
            out.failed += 1;
            out.failed_ops.push(format!(
                "{}: flow {i} ({:?}) delivered {} bits, completed {}",
                scenario.name,
                spec.pattern,
                stats.map_or(0, |st| st.delivered_bits),
                stats.map_or(0, |st| st.completions.len()),
            ));
        }
    }
    out.goodput_mbps += super::goodput_mbps(&o.report);
    out.append("report", &format!("{:?}\n", o.report));
    out.append("summary", &s);
    out.append("manifest", &m.render());
}

/// `driver::build_topology`, topology and interference map apart.
fn topology(scenario: &Scenario, tr: &mut Tr) -> (Network, InterferenceMap) {
    if scenario.topology.kind != TopologyKind::Enterprise {
        return tr.call("model.topology", || build_topology(scenario));
    }
    let net = tr.call("model.topology", || {
        enterprise(&mut StdRng::seed_from_u64(scenario.topology.seed)).net
    });
    let imap = tr.call("model.imap", || CarrierSense::default().build_map(&net));
    (net, imap)
}

fn pattern(p: &PatternSpec) -> TrafficPattern {
    match *p {
        PatternSpec::Saturated { start, stop } => TrafficPattern::SaturatedUdp { start, stop },
        PatternSpec::File { start, size_bytes } => {
            TrafficPattern::FileDownload { start, size_bytes }
        }
        PatternSpec::Tcp { start, stop, size_bytes } => {
            TrafficPattern::Tcp { start, stop, size_bytes }
        }
    }
}

enum Watch {
    Monitoring(RouteMonitor),
    Disconnected,
}

/// Everything `run_scenario_on` does before its poll loop.
struct Ready {
    scenario: Scenario,
    imap: InterferenceMap,
    config: RunConfig,
    flows: Vec<(NodeId, NodeId, TrafficPattern)>,
    faults: Vec<injector::CompiledFault>,
    sim: empower_sim::Simulation,
    flow_mapping: Vec<Option<usize>>,
    watches: Vec<(usize, usize, Watch)>,
}

fn prepare(text: &str, tele: &Telemetry, tr: &mut Tr) -> Ready {
    let scenario =
        tr.call("dynamics.parse", || Scenario::parse_str(text)).expect("generated scenario parses");
    let (net, imap) = topology(&scenario, tr);
    let faults = tr
        .call("dynamics.inject", || {
            scenario.validate().and_then(|()| injector::compile(&scenario, &net, &imap))
        })
        .expect("generated scenario compiles");
    let config =
        RunConfig::new(scenario.run.scheme).delta(scenario.run.delta).telemetry(tele.clone());
    let sim_config =
        SimConfig { delta: scenario.run.delta, seed: scenario.run.seed, ..SimConfig::default() };
    let flows: Vec<_> = scenario
        .flows
        .iter()
        .map(|f| (NodeId(f.src), NodeId(f.dst), pattern(&f.pattern)))
        .collect();
    let (mut sim, flow_mapping) = tr
        .call("core.build_sim", || config.build_simulation(&net, &imap, &flows, sim_config))
        .expect("connectivity is not strict, so building cannot fail");
    tr.call("dynamics.inject", || injector::schedule(&mut sim, &faults));
    let mut watches = Vec::new();
    for (scn_idx, mapped) in flow_mapping.iter().enumerate() {
        let Some(engine_idx) = *mapped else { continue };
        let (src, dst, _) = flows[scn_idx];
        let watch = match tr.call("routing.query", || config.routes(&net, &imap, src, dst)) {
            Ok(routes) => Watch::Monitoring(config.monitor(&net, src, dst, &routes)),
            Err(_) => Watch::Disconnected,
        };
        watches.push((scn_idx, engine_idx, watch));
    }
    Ready { scenario, imap, config, flows, faults, sim, flow_mapping, watches }
}

/// The poll loop and the resilience bookkeeping of `run_scenario_on`.
fn run(ready: Ready, tele: &Telemetry, tr: &mut Tr) -> (Scenario, ScenarioOutcome, SimPerfStats) {
    let Ready { scenario, imap, config, flows, faults, mut sim, flow_mapping, mut watches } = ready;
    let horizon = scenario.run.horizon_secs;
    let poll = scenario.run.poll_secs;
    let reroute_counter = tele.counter("dynamics/reroutes", CounterType::Packets);
    let mut reroutes: Vec<Reroute> = Vec::new();
    let mut detections: Vec<f64> = Vec::new();
    let mut drops: Vec<(f64, u64)> = Vec::new();

    let mut tick = 1u64;
    let mut now = 0.0;
    loop {
        let t = (tick as f64 * poll).min(horizon);
        super::run_in_slots(&mut sim, now, t, tr);
        now = t;
        let polled = tr.call("sim.report", || sim.report(t));
        drops.push((t, polled.flows.iter().map(|f| f.dropped_in_network).sum()));

        for (scn_idx, engine_idx, watch) in &mut watches {
            match watch {
                Watch::Monitoring(monitor) => {
                    let Ok(Some(reason)) = monitor.try_check(sim.network()) else { continue };
                    detections.push(t);
                    tele.event(
                        "dynamics",
                        "detected",
                        &[("flow", (*scn_idx as u64).into()), ("reason", reason.label().into())],
                    );
                    let recomputed = tr.call("routing.query", || {
                        monitor.recompute_after(sim.network(), &imap, reason)
                    });
                    match recomputed {
                        Ok(routes) => {
                            let installed = sim.replace_routes(*engine_idx, routes.paths());
                            reroute_counter.inc();
                            reroutes.push(Reroute {
                                flow: *scn_idx,
                                at: t,
                                reason: reason.label().to_string(),
                                routes: installed,
                            });
                            if installed == 0 {
                                *watch = Watch::Disconnected;
                            }
                        }
                        Err(EmpowerError::Disconnected { .. }) => {
                            reroutes.push(Reroute {
                                flow: *scn_idx,
                                at: t,
                                reason: reason.label().to_string(),
                                routes: 0,
                            });
                            *watch = Watch::Disconnected;
                        }
                        Err(_) => {}
                    }
                }
                Watch::Disconnected => {
                    let (src, dst, _) = flows[*scn_idx];
                    let found =
                        tr.call("routing.query", || config.routes(sim.network(), &imap, src, dst));
                    let Ok(routes) = found else { continue };
                    let installed = sim.replace_routes(*engine_idx, routes.paths());
                    if installed == 0 {
                        continue;
                    }
                    reroute_counter.inc();
                    reroutes.push(Reroute {
                        flow: *scn_idx,
                        at: t,
                        reason: "reconnected".to_string(),
                        routes: installed,
                    });
                    *watch = Watch::Monitoring(config.monitor(sim.network(), src, dst, &routes));
                }
            }
        }
        if t >= horizon {
            break;
        }
        tick += 1;
    }

    let report = tr.call("sim.report", || sim.report(horizon));
    let mut aggregate_series = vec![0.0f64; horizon.ceil() as usize];
    for f in &report.flows {
        for (s, &r) in f.throughput_series.iter().enumerate() {
            if s < aggregate_series.len() {
                aggregate_series[s] += r;
            }
        }
    }
    let resilience: Vec<FaultMetrics> = episode_times(&faults)
        .into_iter()
        .map(|at| {
            episode_metrics(
                at,
                &aggregate_series,
                &detections,
                &drops,
                scenario.run.recovery_fraction,
            )
        })
        .collect();
    // `driver::record_resilience`, which is private to the driver.
    for (i, m) in resilience.iter().enumerate() {
        let gauge = |name: &str, v: u64| {
            tele.counter(format!("dynamics/episode{i}/{name}"), CounterType::Gauge).set(v);
        };
        gauge("fault_at_ms", (m.fault_at_secs * 1e3).round() as u64);
        gauge("baseline_kbps", (m.baseline_mbps * 1e3).round() as u64);
        if let Some(d) = m.time_to_detect_secs {
            gauge("time_to_detect_ms", (d * 1e3).round() as u64);
        }
        if let Some(r) = m.time_to_reconverge_secs {
            gauge("time_to_reconverge_ms", (r * 1e3).round() as u64);
        }
        gauge("dip_area_kbit", (m.dip_area_mbit * 1e3).round() as u64);
        gauge("packets_lost", m.packets_lost);
    }
    let perf = sim.perf_stats();
    let outcome =
        ScenarioOutcome { report, faults, resilience, reroutes, aggregate_series, flow_mapping };
    (scenario, outcome, perf)
}

impl Bench for ScenarioBench {
    fn inputs(&self) -> String {
        self.docs.join("\n# ---- next scenario ----\n")
    }

    fn setup(&self) {
        for text in &self.docs {
            std::hint::black_box(prepare(text, &Telemetry::enabled(), &mut Tr::off()).sim);
        }
    }

    fn iterate(&self) -> Outcome {
        let mut out = Outcome::default();
        for text in &self.docs {
            let scenario = Scenario::parse_str(text).expect("generated scenario parses");
            let tele = Telemetry::enabled();
            let o = run_scenario(&scenario, &tele).expect("generated scenario runs");
            render(&scenario, &o, &tele, &mut out);
        }
        out
    }

    fn iterate_traced(&self, rec: &mut Recorder, ledger: &mut Ledger) -> Outcome {
        let mut alloc = AllocPhases::start();
        let mut tr = Tr::on(rec);
        let mut out = Outcome::default();
        let mut perf = SimPerfStats::default();
        let counters = Telemetry::enabled();
        let (mut faults, mut reroutes, mut bytes) = (0, 0, 0);
        for text in &self.docs {
            let tele = Telemetry::enabled();
            let ready = prepare(text, &tele, &mut tr);
            alloc.end_setup();
            let open = tr.enter("dynamics.run");
            let (scenario, o, p) = run(ready, &tele, &mut tr);
            tr.exit(open);
            alloc.end_run();
            tr.call("telemetry.manifest", || render(&scenario, &o, &tele, &mut out));
            alloc.end_render();
            super::add_perf(&mut perf, &p);
            faults += o.faults.len();
            reroutes += o.reroutes.len();
            bytes += text.len();
            counters.merge_snapshot(&tele.snapshot());
        }
        alloc.finish(ledger);
        sim_counts(&perf, &counters.snapshot(), ledger);
        ledger.set("dynamics.faults", faults as f64);
        ledger.set("dynamics.reroutes", reroutes as f64);
        ledger.set("workload.flows", out.ops as f64);
        ledger.set("workload.doc_bytes", bytes as f64);
        ledger.set("telemetry.manifest_bytes", out.rendered_bytes("manifest"));
        out
    }

    fn probes(&self, _ctx: &mut ProbeCtx, ledger: &mut Ledger) {
        let scenario = Scenario::parse_str(&self.docs[0]).expect("generated scenario parses");
        let (net, imap) = build_topology(&scenario);
        probes::network_counts(&net, &imap, ledger);
        probes::idle_tick(&net, &imap, scenario.run.seed, ledger);
        probes::event_queue(scenario.flows.len(), ledger);
        let pairs: Vec<(NodeId, NodeId)> =
            scenario.flows.iter().map(|f| (NodeId(f.src), NodeId(f.dst))).collect();
        probes::explorer_counts(&net, &imap, scenario.run.scheme, &pairs, ledger);
        let config = RunConfig::new(scenario.run.scheme);
        let routes = pairs
            .iter()
            .map(|&(s, d)| config.routes(&net, &imap, s, d).map(|r| r.paths()).unwrap_or_default())
            .collect();
        probes::cc_step(&net, &imap, routes, ledger);
    }
}
