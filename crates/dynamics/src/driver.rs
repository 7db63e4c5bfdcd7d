//! Executing a scenario against the packet-level engine.
//!
//! The driver owns the §3.2 control loop the engine itself deliberately
//! does not have: it polls each flow's
//! [`RouteMonitor`] every `run.poll_secs` of
//! virtual time, recomputes routes when the monitor triggers, swaps them
//! into the running simulation (fresh congestion-controller state, as
//! `Simulation::replace_routes` specifies), and keeps retrying
//! disconnected flows until the topology lets them back in. Everything it
//! observes — fault times, detections, reroutes, drop samples — feeds the
//! [`crate::resilience`] metrics.

use empower_core::{EmpowerError, RouteMonitor, RunConfig};
use empower_model::rng::{SeedableRng, StdRng};
use empower_model::topology::{enterprise, fig1_scenario, residential, testbed22};
use empower_model::{CarrierSense, InterferenceMap, InterferenceModel, Network, SharedMedium};
use empower_sim::{SimConfig, SimReport, TrafficPattern};
use empower_telemetry::{CounterType, Telemetry};

use crate::injector::{self, CompiledFault};
use crate::resilience::{episode_metrics, episode_times, FaultMetrics};
use crate::scenario::{PatternSpec, Scenario, ScenarioError, TopologyKind};

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

/// Builds the scenario's base network and interference map.
///
/// `fig1` uses the paper's shared-medium worst case; the randomized
/// classes and the testbed use carrier-sense interference, matching the
/// §5/§6 experiment runners.
pub fn build_topology(scenario: &Scenario) -> (Network, InterferenceMap) {
    match scenario.topology.kind {
        TopologyKind::Fig1 => {
            let s = fig1_scenario();
            let imap = SharedMedium.build_map(&s.net);
            (s.net, imap)
        }
        TopologyKind::Residential => {
            let mut rng = StdRng::seed_from_u64(scenario.topology.seed);
            let t = residential(&mut rng);
            let imap = CarrierSense::default().build_map(&t.net);
            (t.net, imap)
        }
        TopologyKind::Enterprise => {
            let mut rng = StdRng::seed_from_u64(scenario.topology.seed);
            let t = enterprise(&mut rng);
            let imap = CarrierSense::default().build_map(&t.net);
            (t.net, imap)
        }
        TopologyKind::Testbed => {
            let t = testbed22(scenario.topology.seed);
            let imap = CarrierSense::default().build_map(&t.net);
            (t.net, imap)
        }
    }
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

/// Per-flow monitor state across polls.
enum FlowWatch {
    /// Routes installed; the monitor watches their links.
    Monitoring(RouteMonitor),
    /// No route exists right now; retry every poll.
    Disconnected,
}

/// Runs the scenario on its own declared topology.
///
/// # Errors
/// [`ScenarioError`] if an event addresses a link or node the topology
/// does not have, or no flow resolves a node id.
pub fn run_scenario(
    scenario: &Scenario,
    tele: &Telemetry,
) -> Result<ScenarioOutcome, ScenarioError> {
    let (net, imap) = build_topology(scenario);
    run_scenario_on(scenario, &net, &imap, tele)
}

/// Runs the scenario on an explicit network (tests, custom topologies).
///
/// # Errors
/// See [`run_scenario`].
pub fn run_scenario_on(
    scenario: &Scenario,
    net: &Network,
    imap: &InterferenceMap,
    tele: &Telemetry,
) -> Result<ScenarioOutcome, ScenarioError> {
    scenario.validate()?;
    for (i, f) in scenario.flows.iter().enumerate() {
        for (label, id) in [("src", f.src), ("dst", f.dst)] {
            if id as usize >= net.node_count() {
                return Err(ScenarioError {
                    path: format!("flows[{i}].{label}"),
                    message: format!("node {id} does not exist"),
                });
            }
        }
    }
    let faults = injector::compile(scenario, net, imap)?;

    let config =
        RunConfig::new(scenario.run.scheme).delta(scenario.run.delta).telemetry(tele.clone());
    let sim_config =
        SimConfig { delta: scenario.run.delta, seed: scenario.run.seed, ..SimConfig::default() };
    let flows: Vec<_> = scenario
        .flows
        .iter()
        .map(|f| (empower_model::NodeId(f.src), empower_model::NodeId(f.dst), pattern(&f.pattern)))
        .collect();
    let (mut sim, flow_mapping) = config
        .build_simulation(net, imap, &flows, sim_config)
        // empower-lint: allow(D005) — the RunConfig built above leaves
        // strict connectivity off, which is build_simulation's only error.
        .expect("strict connectivity is off; build cannot fail");
    injector::schedule(&mut sim, &faults);

    // One monitor per engine-mapped flow, watching the routes the builder
    // just installed (recomputed here — route computation is
    // deterministic, so these are the installed ones).
    let mut watches: Vec<(usize, usize, FlowWatch)> = Vec::new();
    for (scn_idx, mapped) in flow_mapping.iter().enumerate() {
        let Some(engine_idx) = *mapped else { continue };
        let (src, dst, _) = flows[scn_idx];
        let watch = match config.routes(net, imap, src, dst) {
            Ok(routes) => FlowWatch::Monitoring(config.monitor(net, src, dst, &routes)),
            Err(_) => FlowWatch::Disconnected,
        };
        watches.push((scn_idx, engine_idx, watch));
    }

    let horizon = scenario.run.horizon_secs;
    let poll = scenario.run.poll_secs;
    let reroute_counter = tele.counter("dynamics/reroutes", CounterType::Packets);
    let mut reroutes: Vec<Reroute> = Vec::new();
    let mut detections: Vec<f64> = Vec::new();
    let mut drops: Vec<(f64, u64)> = Vec::new();

    let mut tick = 1u64;
    loop {
        let t = (tick as f64 * poll).min(horizon);
        sim.run_until(t);
        let polled = sim.report(t);
        let in_network_drops: u64 = polled.flows.iter().map(|f| f.dropped_in_network).sum();
        drops.push((t, in_network_drops));

        for (scn_idx, engine_idx, watch) in &mut watches {
            match watch {
                FlowWatch::Monitoring(monitor) => {
                    let Ok(Some(reason)) = monitor.try_check(sim.network()) else { continue };
                    detections.push(t);
                    tele.event(
                        "dynamics",
                        "detected",
                        &[("flow", (*scn_idx as u64).into()), ("reason", reason.label().into())],
                    );
                    match monitor.recompute_after(sim.network(), imap, reason) {
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
                                *watch = FlowWatch::Disconnected;
                            }
                        }
                        Err(EmpowerError::Disconnected { .. }) => {
                            reroutes.push(Reroute {
                                flow: *scn_idx,
                                at: t,
                                reason: reason.label().to_string(),
                                routes: 0,
                            });
                            *watch = FlowWatch::Disconnected;
                        }
                        Err(_) => {}
                    }
                }
                FlowWatch::Disconnected => {
                    let (src, dst, _) = flows[*scn_idx];
                    let Ok(routes) = config.routes(sim.network(), imap, src, dst) else {
                        continue;
                    };
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
                    *watch =
                        FlowWatch::Monitoring(config.monitor(sim.network(), src, dst, &routes));
                }
            }
        }
        if t >= horizon {
            break;
        }
        tick += 1;
    }

    let report = sim.report(horizon);
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
        .map(|fault_at| {
            episode_metrics(
                fault_at,
                &aggregate_series,
                &detections,
                &drops,
                scenario.run.recovery_fraction,
            )
        })
        .collect();
    record_resilience(tele, &resilience);

    Ok(ScenarioOutcome { report, faults, resilience, reroutes, aggregate_series, flow_mapping })
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
