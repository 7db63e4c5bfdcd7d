//! Executing a document on a packet engine: the one driver.
//!
//! [`drive`] builds the engine over the document's network, adds every
//! client's and flow's traffic and schedules the compiled faults. A
//! document with a timeline (`[[events]]` or `[[generators]]`) then runs
//! the §3.2 control loop the engine itself deliberately does not have: it
//! polls each `[[flows]]` entry's [`RouteMonitor`] every `run.poll_secs`
//! of virtual time, recomputes routes when the monitor triggers, swaps
//! them into the running simulation (fresh congestion-controller state,
//! as `Simulation::replace_routes` specifies), and keeps retrying
//! disconnected flows until the topology lets them back in. Everything it
//! observes — fault times, detections, reroutes, drop samples — feeds the
//! [`crate::resilience`] metrics. A document without a timeline runs
//! straight to the horizon in one `run_until` call.

use empower_core::{EmpowerError, RouteMonitor, RunConfig};
use empower_model::{InterferenceMap, Network, NodeId};
use empower_sim::corpus::SimEngine;
use empower_sim::{FlowSpecSim, SimConfig, SimReport, Simulation, Trace, TrafficPattern};
use empower_telemetry::{CounterType, Telemetry};

use crate::injector::{self, CompiledFault};
use crate::lower::{compile, CompiledFlow, CompiledWorkload};
use crate::resilience::{episode_metrics, episode_times, FaultMetrics};
use crate::scenario::{PatternSpec, Scenario, ScenarioError};
use crate::schema::serr;

/// One route replacement the driver performed.
#[derive(Debug, Clone, PartialEq)]
pub struct Reroute {
    /// Scenario flow index.
    pub flow: usize,
    /// Virtual time of the poll that triggered it.
    pub at: f64,
    /// The monitor's reason label (`"link-failure"`, `"capacity-shift"`)
    /// or `"reconnected"` for a flow coming back from disconnection.
    pub reason: String,
    /// Number of routes installed (0 = the flow went disconnected).
    pub routes: usize,
}

/// Everything a scenario run produces.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// The engine's end-of-run report.
    pub report: SimReport,
    /// The compiled fault list that was injected.
    pub faults: Vec<CompiledFault>,
    /// Per-episode resilience metrics, in fault order.
    pub resilience: Vec<FaultMetrics>,
    /// Every route change the driver performed.
    pub reroutes: Vec<Reroute>,
    /// Aggregate goodput per whole second, summed over flows.
    pub aggregate_series: Vec<f64>,
    /// Scenario flow index → engine flow index (`None` = never had a
    /// route).
    pub flow_mapping: Vec<Option<usize>>,
}

/// Builds the document's base network and interference map
/// ([`crate::scenario::TopologySpec::build`]).
pub fn build_topology(scenario: &Scenario) -> (Network, InterferenceMap) {
    scenario.topology.build()
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

/// A routed `[[flows]]` entry under the poll loop.
struct Watch {
    /// `[[flows]]` index.
    flow: usize,
    /// Engine flow index.
    engine: usize,
    src: NodeId,
    dst: NodeId,
    /// The monitor of the installed routes; `None` while the flow has no
    /// route, which is retried every poll.
    monitor: Option<RouteMonitor>,
}

/// Runs `doc` on engine `E` over `net`: the one driver behind
/// [`run_scenario_on`] and `empower_workload::run_workload_with`.
///
/// `tele` is attached to the engine and counts the route monitors' work;
/// `trace`, when given, is attached before any flow is added. Returns the
/// engine (for its telemetry and trace), the flow program in engine order
/// (every client's flows, then every routed `[[flows]]` entry) and the
/// outcome.
///
/// # Errors
/// [`ScenarioError`] if the document is invalid, a flow or event names a
/// node or link the network does not have, a client pair has no route, or
/// no flow is runnable.
pub fn drive<E: SimEngine>(
    doc: &Scenario,
    net: Network,
    imap: InterferenceMap,
    tele: &Telemetry,
    trace: Option<Trace>,
) -> Result<(E, CompiledWorkload, ScenarioOutcome), ScenarioError> {
    doc.validate()?;
    for (i, f) in doc.flows.iter().enumerate() {
        for (label, id) in [("src", f.src), ("dst", f.dst)] {
            if id as usize >= net.node_count() {
                return serr(format!("flows[{i}].{label}"), format!("node {id} does not exist"));
            }
        }
    }
    let faults = injector::compile(doc, &net, &imap)?;
    let mut compiled = compile(doc, &net)?;

    // Each `[[flows]]` entry is routed once, by the scheme; its monitor
    // watches those same routes.
    let timeline = !doc.events.is_empty() || !doc.generators.is_empty();
    let scheme = doc.run.scheme;
    let config = RunConfig::new(scheme).delta(doc.run.delta).telemetry(tele.clone());
    let mut flow_mapping = Vec::with_capacity(doc.flows.len());
    let mut watches = Vec::new();
    for (i, f) in doc.flows.iter().enumerate() {
        let (src, dst) = (NodeId(f.src), NodeId(f.dst));
        let Ok(routes) = config.routes(&net, &imap, src, dst) else {
            flow_mapping.push(None);
            continue;
        };
        // Open loop drives each route at its standalone capacity — the
        // w/o-CC schemes' defining mistake.
        let open_loop_rates = if scheme.uses_cc() {
            Vec::new()
        } else {
            routes.routes.iter().map(|r| r.path.capacity(&net, &imap)).collect()
        };
        let engine = compiled.flows.len();
        let pattern = pattern(&f.pattern);
        let spec = FlowSpecSim {
            src,
            dst,
            routes: routes.paths(),
            use_cc: scheme.uses_cc(),
            open_loop_rates,
            pattern,
            delay_equalization: pattern.is_tcp(),
        };
        compiled.flows.push(CompiledFlow { client: doc.clients.len() + i, spec });
        flow_mapping.push(Some(engine));
        if timeline {
            let monitor = Some(config.monitor(&net, src, dst, &routes));
            watches.push(Watch { flow: i, engine, src, dst, monitor });
        }
    }
    compiled.labels.extend((0..doc.flows.len()).map(|i| format!("flow{i}")));
    if compiled.flows.is_empty() {
        return serr("", "the document lowered to zero runnable flows");
    }

    let horizon = doc.run.horizon_secs;
    let cfg = SimConfig {
        delta: doc.run.delta,
        seed: doc.run.seed,
        estimation_rel_std: doc.run.noise,
        ..SimConfig::default()
    };
    // The poll loop recomputes routes after the engine has taken the map.
    let loop_imap = timeline.then(|| imap.clone());
    let mut sim = E::build(net, imap, cfg);
    sim.attach_telemetry(tele.clone());
    if let Some(trace) = trace {
        sim.attach_trace(trace);
    }
    for f in &compiled.flows {
        sim.add_flow(f.spec.clone());
    }
    injector::schedule(&mut sim, &faults);

    let mut reroutes: Vec<Reroute> = Vec::new();
    let mut detections: Vec<f64> = Vec::new();
    let mut drops: Vec<(f64, u64)> = Vec::new();
    if let Some(imap) = loop_imap {
        let reroute_counter = tele.counter("dynamics/reroutes", CounterType::Packets);
        let mut tick = 1u64;
        loop {
            let t = (tick as f64 * doc.run.poll_secs).min(horizon);
            sim.run_until(t);
            let polled = sim.report(t);
            drops.push((t, polled.flows.iter().map(|f| f.dropped_in_network).sum()));
            for w in &mut watches {
                let reroute = |reason: &str, routes| Reroute {
                    flow: w.flow,
                    at: t,
                    reason: reason.to_string(),
                    routes,
                };
                let Some(monitor) = &mut w.monitor else {
                    let Ok(routes) = config.routes(sim.network(), &imap, w.src, w.dst) else {
                        continue;
                    };
                    let installed = sim.replace_routes(w.engine, routes.paths());
                    if installed > 0 {
                        reroute_counter.inc();
                        reroutes.push(reroute("reconnected", installed));
                        w.monitor = Some(config.monitor(sim.network(), w.src, w.dst, &routes));
                    }
                    continue;
                };
                let Ok(Some(reason)) = monitor.try_check(sim.network()) else { continue };
                detections.push(t);
                tele.event(
                    "dynamics",
                    "detected",
                    &[("flow", (w.flow as u64).into()), ("reason", reason.label().into())],
                );
                let installed = match monitor.recompute_after(sim.network(), &imap, reason) {
                    Ok(routes) => {
                        reroute_counter.inc();
                        sim.replace_routes(w.engine, routes.paths())
                    }
                    Err(EmpowerError::Disconnected { .. }) => 0,
                    Err(_) => continue,
                };
                reroutes.push(reroute(reason.label(), installed));
                if installed == 0 {
                    w.monitor = None;
                }
            }
            if t >= horizon {
                break;
            }
            tick += 1;
        }
    } else {
        sim.run_until(horizon);
    }

    let report = sim.report(horizon);
    let mut aggregate_series = vec![0.0f64; horizon.ceil() as usize];
    for f in &report.flows {
        for (sum, &r) in aggregate_series.iter_mut().zip(&f.throughput_series) {
            *sum += r;
        }
    }
    let resilience: Vec<FaultMetrics> = episode_times(&faults)
        .into_iter()
        .map(|fault_at| {
            let fraction = doc.run.recovery_fraction;
            episode_metrics(fault_at, &aggregate_series, &detections, &drops, fraction)
        })
        .collect();
    record_resilience(tele, &resilience);
    let outcome =
        ScenarioOutcome { report, faults, resilience, reroutes, aggregate_series, flow_mapping };
    Ok((sim, compiled, outcome))
}

/// Runs the document on its own declared topology.
///
/// # Errors
/// See [`drive`].
pub fn run_scenario(
    scenario: &Scenario,
    tele: &Telemetry,
) -> Result<ScenarioOutcome, ScenarioError> {
    let (net, imap) = build_topology(scenario);
    Ok(drive::<Simulation>(scenario, net, imap, tele, None)?.2)
}

/// Runs the document on an explicit network (tests, custom topologies).
///
/// # Errors
/// See [`drive`].
pub fn run_scenario_on(
    scenario: &Scenario,
    net: &Network,
    imap: &InterferenceMap,
    tele: &Telemetry,
) -> Result<ScenarioOutcome, ScenarioError> {
    Ok(drive::<Simulation>(scenario, net.clone(), imap.clone(), tele, None)?.2)
}

/// Publishes the per-episode metrics as telemetry gauges
/// (`dynamics/episodeN/...`, millisecond-rounded where the unit is time,
/// so snapshots stay bit-stable across platforms).
fn record_resilience(tele: &Telemetry, resilience: &[FaultMetrics]) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use empower_model::LinkId;

    const DOC: &str = "schema = 1\nname = \"mixed\"\n\n[topology]\nkind = \"fig1\"\n\n[run]\n\
                       horizon_secs = 6.0\n\n[[clients]]\nkind = \"closed_loop\"\nsrc = 0\ndst = 1\n";
    const FLOW: &str = "\n[[flows]]\nsrc = 0\ndst = 2\npattern = \"saturated\"\nstop = 6.0\n";
    const EVENT: &str = "\n[[events]]\nat = 2.0\nkind = \"link_down\"\nlink = 2\n";

    /// Clients alone make a runnable scenario; without a timeline nothing
    /// is polled, so no reroute counter exists.
    #[test]
    fn clients_run_without_a_poll_loop() {
        let doc = Scenario::parse_str(DOC).unwrap();
        let tele = Telemetry::enabled();
        let (net, imap) = build_topology(&doc);
        let (_, compiled, o) = drive::<Simulation>(&doc, net, imap, &tele, None).unwrap();
        assert_eq!((compiled.labels, o.flow_mapping.len()), (vec!["client0".to_string()], 0));
        assert!(o.report.flows[0].delivered_bits > 0);
        assert_eq!(tele.snapshot().value("dynamics/reroutes"), None);
    }

    /// Flows follow the clients in engine order and are the ones watched:
    /// the link failure reroutes the flow, never the client.
    #[test]
    fn flows_follow_clients_and_alone_are_rerouted() {
        let doc = Scenario::parse_str(&format!("{DOC}{FLOW}{EVENT}")).unwrap();
        let (net, imap) = build_topology(&doc);
        let (_, compiled, o) =
            drive::<Simulation>(&doc, net, imap, &Telemetry::enabled(), None).unwrap();
        assert_eq!(compiled.labels, vec!["client0".to_string(), "flow0".to_string()]);
        assert_eq!((o.flow_mapping, compiled.flows[1].client), (vec![Some(1)], 1));
        assert!(!o.reroutes.is_empty() && o.reroutes.iter().all(|r| r.flow == 0));
    }

    /// A document none of whose traffic can run is an error, not an empty
    /// run: here every link is dead, so the flow gets no route.
    #[test]
    fn a_document_without_a_runnable_flow_is_an_error() {
        let without_clients = &DOC[..DOC.find("[[clients]]").unwrap()];
        let doc = Scenario::parse_str(&format!("{without_clients}{FLOW}")).unwrap();
        let (mut net, imap) = build_topology(&doc);
        for l in 0..net.link_count() {
            net.set_capacity(LinkId(l as u32), 0.0);
        }
        let err = run_scenario_on(&doc, &net, &imap, &Telemetry::disabled()).unwrap_err();
        assert_eq!(err.message, "the document lowered to zero runnable flows");
    }
}
