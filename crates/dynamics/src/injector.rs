//! Compiling a [`Scenario`] into concrete, timestamped network faults.
//!
//! Compilation happens against a *baseline* network: `link_up` without an
//! explicit capacity, burst restores, and node recoveries all refer to the
//! capacities the network had at scenario start, and generators expand
//! into a deterministic event list (same seed → same events, down to the
//! byte). The result is medium-agnostic: [`schedule`] pushes the faults
//! onto a packet engine's virtual clock, while [`NetMutator`] replays
//! them against a plain [`Network`] for the fluid evaluators.

use empower_model::rng::{exponential, Rng, SeedableRng, StdRng};
use empower_model::{InterferenceMap, LinkId, Medium, Network, NodeId};
use empower_sim::corpus::SimEngine;

use crate::scenario::{GeneratorSpec, Perturbation, Scenario, ScenarioError, TimedPerturbation};

/// One primitive mutation of the network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Set a directed link to an absolute capacity (0 = down).
    SetCapacity { link: LinkId, capacity_mbps: f64 },
    /// Crash (`up = false`) or recover (`up = true`) a node; adjacent
    /// links follow, recoveries restore pre-crash capacities.
    NodeChange { node: NodeId, up: bool },
}

/// A [`FaultAction`] bound to a point on the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompiledFault {
    /// Fire time, seconds.
    pub at: f64,
    pub action: FaultAction,
    /// True if the action degrades the network relative to the state the
    /// compiler tracked just before it — these open resilience-metric
    /// episodes; restorations and no-ops don't.
    pub disruptive: bool,
}

fn cerr<T>(path: impl Into<String>, message: impl Into<String>) -> Result<T, ScenarioError> {
    Err(ScenarioError { path: path.into(), message: message.into() })
}

fn check_link(net: &Network, id: u32, path: &str) -> Result<LinkId, ScenarioError> {
    let l = LinkId(id);
    if net.try_link(l).is_none() {
        return cerr(path, format!("link {id} does not exist (network has {})", net.link_count()));
    }
    Ok(l)
}

/// Expands a directed link id to itself plus (when `both`) its reverse
/// twin.
fn twins(net: &Network, l: LinkId, both: bool) -> Vec<LinkId> {
    let mut v = vec![l];
    if both {
        if let Some(r) = net.link(l).reverse {
            v.push(r);
        }
    }
    v
}

/// The compiler's working state: current capacities as the event list is
/// unrolled in time order, so `disruptive` and implicit restores are
/// exact.
struct Tracker {
    caps: Vec<f64>,
    baseline: Vec<f64>,
}

impl Tracker {
    fn new(net: &Network) -> Tracker {
        let caps: Vec<f64> = net.links().iter().map(|l| l.capacity_mbps).collect();
        Tracker { baseline: caps.clone(), caps }
    }

    fn set(&mut self, out: &mut Vec<CompiledFault>, at: f64, link: LinkId, cap: f64) {
        let old = self.caps[link.index()];
        self.caps[link.index()] = cap;
        out.push(CompiledFault {
            at,
            action: FaultAction::SetCapacity { link, capacity_mbps: cap },
            disruptive: cap < old,
        });
    }
}

/// Compiles the scenario's scripted events and generators into a single
/// time-sorted fault list against `net`'s baseline capacities.
///
/// # Errors
/// [`ScenarioError`] when an event names a link or node the network does
/// not have, or a jam/noise burst matches no link.
pub fn compile(
    scenario: &Scenario,
    net: &Network,
    imap: &InterferenceMap,
) -> Result<Vec<CompiledFault>, ScenarioError> {
    let horizon = scenario.run.horizon_secs;
    // Expand generators first so everything is sorted together.
    let mut timed: Vec<TimedPerturbation> = scenario.events.clone();
    for (i, g) in scenario.generators.iter().enumerate() {
        expand_generator(g, i, scenario.run.seed, horizon, &mut timed);
    }
    // Stable sort: simultaneous events keep scenario order (events before
    // generator output, generators in declaration order).
    timed.sort_by(|a, b| a.at.total_cmp(&b.at));

    let mut tracker = Tracker::new(net);
    let mut out: Vec<CompiledFault> = Vec::new();
    let mut node_up = vec![true; net.node_count()];
    for (i, e) in timed.iter().enumerate() {
        let path = format!("events[{i}]");
        match &e.what {
            Perturbation::Capacity { link, capacity_mbps, both } => {
                let l = check_link(net, *link, &path)?;
                for t in twins(net, l, *both) {
                    let cap = resolve_capacity(*capacity_mbps, tracker.baseline[t.index()]);
                    tracker.set(&mut out, e.at, t, cap);
                }
            }
            Perturbation::LinkDown { link, both } => {
                let l = check_link(net, *link, &path)?;
                for t in twins(net, l, *both) {
                    tracker.set(&mut out, e.at, t, 0.0);
                }
            }
            Perturbation::LinkUp { link, capacity_mbps, both } => {
                let l = check_link(net, *link, &path)?;
                for t in twins(net, l, *both) {
                    let cap = capacity_mbps.unwrap_or(tracker.baseline[t.index()]);
                    tracker.set(&mut out, e.at, t, cap);
                }
            }
            Perturbation::NodeDown { node } | Perturbation::NodeUp { node } => {
                let up = matches!(e.what, Perturbation::NodeUp { .. });
                if *node as usize >= net.node_count() {
                    return cerr(path, format!("node {node} does not exist"));
                }
                let n = NodeId(*node);
                // Track adjacent capacities so later `disruptive` flags
                // stay accurate.
                for link in net.links() {
                    if link.from == n || link.to == n {
                        let idx = link.id.index();
                        tracker.caps[idx] = if up { tracker.baseline[idx] } else { 0.0 };
                    }
                }
                let disruptive = !up && node_up[n.index()];
                node_up[n.index()] = up;
                out.push(CompiledFault {
                    at: e.at,
                    action: FaultAction::NodeChange { node: n, up },
                    disruptive,
                });
            }
            Perturbation::PlcNoise { factor, duration_secs, domain_of } => {
                let links = medium_burst_links(net, imap, *domain_of, &path, |m| m.is_plc())?;
                for l in links {
                    let cap = tracker.caps[l.index()];
                    tracker.set(&mut out, e.at, l, cap * factor);
                    tracker.set(&mut out, e.at + duration_secs, l, cap);
                }
            }
            Perturbation::WifiJam { factor, duration_secs, channel, domain_of } => {
                let links = medium_burst_links(net, imap, *domain_of, &path, |m| match channel {
                    Some(c) => m == Medium::Wifi { channel: *c },
                    None => m.is_wifi(),
                })?;
                for l in links {
                    let cap = tracker.caps[l.index()];
                    tracker.set(&mut out, e.at, l, cap * factor);
                    tracker.set(&mut out, e.at + duration_secs, l, cap);
                }
            }
            Perturbation::Drift { link, to_mbps, over_secs, steps, both } => {
                let l = check_link(net, *link, &path)?;
                for t in twins(net, l, *both) {
                    let from = tracker.caps[t.index()];
                    for k in 1..=*steps {
                        let frac = k as f64 / *steps as f64;
                        let cap = from + (to_mbps - from) * frac;
                        tracker.set(&mut out, e.at + over_secs * frac, t, cap);
                    }
                }
            }
        }
    }
    // Burst restores and drift steps may land out of order relative to
    // later scripted events; sort once more (stable, so simultaneous
    // faults keep emission order).
    out.sort_by(|a, b| a.at.total_cmp(&b.at));
    out.retain(|f| f.at <= horizon);
    Ok(out)
}

/// The links a PLC-noise / WiFi-jam burst hits: all links of the medium,
/// or just the interference domain of `domain_of`.
fn medium_burst_links(
    net: &Network,
    imap: &InterferenceMap,
    domain_of: Option<u32>,
    path: &str,
    medium_matches: impl Fn(Medium) -> bool,
) -> Result<Vec<LinkId>, ScenarioError> {
    let links: Vec<LinkId> = match domain_of {
        Some(id) => {
            let l = check_link(net, id, path)?;
            let mut v = imap.domain(l).to_vec();
            if !v.contains(&l) {
                v.push(l);
            }
            v.sort();
            v.retain(|&x| medium_matches(net.link(x).medium));
            v
        }
        None => net.links().iter().filter(|l| medium_matches(l.medium)).map(|l| l.id).collect(),
    };
    if links.is_empty() {
        return cerr(path, "burst matches no link of that medium");
    }
    Ok(links)
}

/// Deterministically unrolls one generator into timed perturbations.
/// The stream depends only on `(run_seed, index, spec)`.
fn expand_generator(
    g: &GeneratorSpec,
    index: usize,
    run_seed: u64,
    horizon: f64,
    out: &mut Vec<TimedPerturbation>,
) {
    // Decorrelate generators sharing a run seed.
    let mut rng = StdRng::seed_from_u64(run_seed ^ (0x9e37_79b9 + index as u64));
    match *g {
        GeneratorSpec::MarkovOnOff { link, mean_up_secs, mean_down_secs, from, until, both } => {
            let until = until.unwrap_or(horizon).min(horizon);
            let mut t = from;
            loop {
                t += exponential(&mut rng, mean_up_secs);
                if t >= until {
                    break;
                }
                out.push(TimedPerturbation { at: t, what: Perturbation::LinkDown { link, both } });
                t += exponential(&mut rng, mean_down_secs);
                // A downed link always comes back, even if the up-event
                // lands past `until`: churn shouldn't end a scenario with
                // the link dead unless the horizon itself cuts it off.
                out.push(TimedPerturbation {
                    at: t.min(until),
                    what: Perturbation::LinkUp { link, capacity_mbps: None, both },
                });
            }
        }
        GeneratorSpec::GilbertElliott {
            link,
            step_secs,
            p_bad,
            p_good,
            bad_factor,
            from,
            until,
            both,
        } => {
            let until = until.unwrap_or(horizon).min(horizon);
            let mut bad = false;
            let mut t = from;
            while t < until {
                let flip: f64 = rng.gen();
                let p = if bad { p_good } else { p_bad };
                if flip < p {
                    bad = !bad;
                    let what = if bad {
                        // Relative to the *baseline* capacity, so repeated
                        // visits to the bad state do not compound. The
                        // baseline is only known at compile time: a
                        // negative capacity marks "baseline × bad_factor".
                        Perturbation::Capacity { link, capacity_mbps: -bad_factor, both }
                    } else {
                        Perturbation::LinkUp { link, capacity_mbps: None, both }
                    };
                    out.push(TimedPerturbation { at: t, what });
                }
                t += step_secs;
            }
            if bad {
                out.push(TimedPerturbation {
                    at: until,
                    what: Perturbation::LinkUp { link, capacity_mbps: None, both },
                });
            }
        }
    }
}

/// Pushes the compiled faults onto a packet engine's event queue.
pub fn schedule<E: SimEngine>(sim: &mut E, faults: &[CompiledFault]) {
    for f in faults {
        match f.action {
            FaultAction::SetCapacity { link, capacity_mbps } => {
                sim.schedule_link_change(f.at, link, capacity_mbps);
            }
            FaultAction::NodeChange { node, up } => sim.schedule_node_change(f.at, node, up),
        }
    }
}

/// Negative capacities are Gilbert–Elliott "scale the baseline" markers
/// (see [`expand_generator`]); [`compile`] resolves them against the
/// baseline so compiled faults are always absolute.
fn resolve_capacity(encoded: f64, baseline: f64) -> f64 {
    if encoded < 0.0 {
        baseline * -encoded
    } else {
        encoded
    }
}

/// Replays [`FaultAction`]s onto a plain [`Network`] for the fluid
/// evaluators: applies the same semantics as the engine's event handlers
/// (node crashes save capacities, recoveries restore them).
pub struct NetMutator {
    /// Capacity each link had when its node crashed.
    crash_saved: Vec<Option<f64>>,
}

impl NetMutator {
    pub fn new(net: &Network) -> NetMutator {
        NetMutator { crash_saved: vec![None; net.link_count()] }
    }

    /// Applies one fault to `net`.
    pub fn apply(&mut self, net: &mut Network, action: FaultAction) {
        match action {
            FaultAction::SetCapacity { link, capacity_mbps } => {
                self.crash_saved[link.index()] = None;
                net.set_capacity(link, capacity_mbps);
            }
            FaultAction::NodeChange { node, up } => {
                let adjacent: Vec<LinkId> = net
                    .links()
                    .iter()
                    .filter(|l| l.from == node || l.to == node)
                    .map(|l| l.id)
                    .collect();
                for l in adjacent {
                    if up {
                        if let Some(cap) = self.crash_saved[l.index()].take() {
                            net.set_capacity(l, cap);
                        }
                    } else {
                        let link = net.link(l);
                        if link.is_alive() && self.crash_saved[l.index()].is_none() {
                            self.crash_saved[l.index()] = Some(link.capacity_mbps);
                        }
                        net.set_capacity(l, 0.0);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{FlowSpec, PatternSpec, RunSpec, Scenario, TopologyKind, TopologySpec};
    use empower_core::Scheme;
    use empower_model::topology::fig1_scenario;
    use empower_model::{InterferenceModel, SharedMedium};

    fn base(events: Vec<TimedPerturbation>, generators: Vec<GeneratorSpec>) -> Scenario {
        Scenario {
            name: "t".into(),
            topology: TopologySpec { kind: TopologyKind::Fig1, seed: 1 },
            run: RunSpec {
                scheme: Scheme::Empower,
                seed: 3,
                horizon_secs: 100.0,
                poll_secs: 0.5,
                delta: 0.0,
                recovery_fraction: 0.9,
                noise: 0.0,
            },
            clients: vec![],
            flows: vec![FlowSpec {
                src: 0,
                dst: 2,
                pattern: PatternSpec::Saturated { start: 0.0, stop: 100.0 },
            }],
            events,
            generators,
        }
    }

    #[test]
    fn link_down_expands_to_both_directions_and_is_disruptive() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let sc = base(
            vec![TimedPerturbation {
                at: 10.0,
                what: Perturbation::LinkDown { link: 2, both: true },
            }],
            vec![],
        );
        let faults = compile(&sc, &s.net, &imap).unwrap();
        assert_eq!(faults.len(), 2);
        let twin = s.net.link(LinkId(2)).reverse.unwrap();
        assert!(faults.iter().all(|f| f.disruptive && f.at == 10.0));
        assert!(faults.iter().any(|f| matches!(
            f.action,
            FaultAction::SetCapacity { link, capacity_mbps } if link == twin && capacity_mbps == 0.0
        )));
    }

    #[test]
    fn link_up_without_capacity_restores_the_baseline() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let sc = base(
            vec![
                TimedPerturbation {
                    at: 10.0,
                    what: Perturbation::Capacity { link: 0, capacity_mbps: 2.0, both: false },
                },
                TimedPerturbation {
                    at: 20.0,
                    what: Perturbation::LinkUp { link: 0, capacity_mbps: None, both: false },
                },
            ],
            vec![],
        );
        let faults = compile(&sc, &s.net, &imap).unwrap();
        let baseline = s.net.link(LinkId(0)).capacity_mbps;
        assert_eq!(faults.len(), 2);
        assert!(faults[0].disruptive && !faults[1].disruptive);
        assert!(matches!(
            faults[1].action,
            FaultAction::SetCapacity { capacity_mbps, .. } if capacity_mbps == baseline
        ));
    }

    #[test]
    fn bursts_restore_after_their_duration() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let sc = base(
            vec![TimedPerturbation {
                at: 10.0,
                what: Perturbation::PlcNoise { factor: 0.5, duration_secs: 5.0, domain_of: None },
            }],
            vec![],
        );
        let faults = compile(&sc, &s.net, &imap).unwrap();
        // fig1 has one PLC duplex pair → 2 directed links × (degrade,
        // restore).
        assert_eq!(faults.len(), 4);
        let degrades: Vec<_> = faults.iter().filter(|f| f.at == 10.0).collect();
        let restores: Vec<_> = faults.iter().filter(|f| f.at == 15.0).collect();
        assert_eq!((degrades.len(), restores.len()), (2, 2));
        assert!(degrades.iter().all(|f| f.disruptive));
        assert!(restores.iter().all(|f| !f.disruptive));
    }

    #[test]
    fn generator_expansion_is_deterministic() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let sc = base(
            vec![],
            vec![GeneratorSpec::MarkovOnOff {
                link: 4,
                mean_up_secs: 10.0,
                mean_down_secs: 2.0,
                from: 0.0,
                until: None,
                both: true,
            }],
        );
        let a = compile(&sc, &s.net, &imap).unwrap();
        let b = compile(&sc, &s.net, &imap).unwrap();
        assert_eq!(a, b);
        assert!(!a.is_empty(), "a 100 s horizon with 10 s mean up-time churns");
        // Different seed → different stream.
        let mut sc2 = sc.clone();
        sc2.run.seed = 4;
        let c = compile(&sc2, &s.net, &imap).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn node_crash_and_recovery_round_trip_in_the_mutator() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let sc = base(
            vec![
                TimedPerturbation { at: 10.0, what: Perturbation::NodeDown { node: 1 } },
                TimedPerturbation { at: 20.0, what: Perturbation::NodeUp { node: 1 } },
            ],
            vec![],
        );
        let faults = compile(&sc, &s.net, &imap).unwrap();
        assert_eq!(faults.len(), 2);
        assert!(faults[0].disruptive && !faults[1].disruptive);
        let mut net = s.net.clone();
        let before: Vec<f64> = net.links().iter().map(|l| l.capacity_mbps).collect();
        let mut m = NetMutator::new(&net);
        m.apply(&mut net, faults[0].action);
        // Every extender-adjacent link is down (fig1: all of them).
        assert!(net.links().iter().all(|l| !l.is_alive()));
        m.apply(&mut net, faults[1].action);
        let after: Vec<f64> = net.links().iter().map(|l| l.capacity_mbps).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn unknown_links_are_compile_errors() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let sc = base(
            vec![TimedPerturbation {
                at: 1.0,
                what: Perturbation::LinkDown { link: 99, both: true },
            }],
            vec![],
        );
        let err = compile(&sc, &s.net, &imap).unwrap_err();
        assert!(err.to_string().contains("99"), "{err}");
    }
}
