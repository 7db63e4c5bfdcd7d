//! Fast slotted evaluation of a scheme on a topology (the §5 methodology).
//!
//! For congestion-controlled schemes this runs the actual multipath
//! controller of §4.3 against the airtime model until it settles — exactly
//! what the paper's simulator measures once the MAC is abstracted to
//! perfect-sensing CSMA. For the w/o-CC schemes it computes delivered
//! goodput with the fluid saturation model (open-loop injection at each
//! route's standalone capacity, which ignores that the routes share
//! airtime — the mistake congestion control exists to fix).

use empower_baselines::saturation_goodput;
use empower_cc::{slots_to_converge, CcProblem, MultipathController, ProportionalFair, Utility};
use empower_model::{InterferenceMap, Network, NodeId, Path};
use empower_routing::RouteSet;
use empower_telemetry::CounterType;

use crate::run::{RunConfig, N_SHORTEST};

/// Outcome of a fluid evaluation.
#[derive(Debug, Clone)]
pub struct FluidEvalResult {
    /// Final rate per flow, Mbps (0 for disconnected flows).
    pub flow_rates: Vec<f64>,
    /// Aggregate proportional-fair utility `Σ log(1 + x_f)`.
    pub utility: f64,
    /// Per-slot total-rate trajectory of each flow (empty for w/o-CC
    /// schemes, which have no dynamics).
    pub trajectories: Vec<Vec<f64>>,
    /// Slots to reach the §5.2.2 steady-state criterion, per flow
    /// (`None` = never settled or no dynamics).
    pub convergence_slots: Vec<Option<usize>>,
    /// Number of routes used per flow.
    pub route_counts: Vec<usize>,
}

/// The flows' route sets under the run's scheme and the indices of the
/// connected flows (disconnected flows keep rate 0), with the per-flow route
/// gauges and the flow-count summary registered on the run's telemetry.
fn route_flows(
    net: &Network,
    imap: &InterferenceMap,
    flows: &[(NodeId, NodeId)],
    run: &RunConfig,
) -> (Vec<RouteSet>, Vec<usize>) {
    let route_sets: Vec<RouteSet> = flows
        .iter()
        .map(|&(s, d)| run.scheme.compute_routes(net, imap, s, d, N_SHORTEST))
        .collect();
    let connected: Vec<usize> = (0..flows.len()).filter(|&f| !route_sets[f].is_empty()).collect();
    let tele = &run.telemetry;
    if tele.is_enabled() {
        tele.counter("eval/flows", CounterType::Gauge).set(route_sets.len() as u64);
        tele.counter("eval/connected_flows", CounterType::Gauge).set(connected.len() as u64);
        for (f, routes) in route_sets.iter().enumerate() {
            tele.counter(format!("flow/{f}/routes"), CounterType::Gauge).set(routes.len() as u64);
        }
    }
    (route_sets, connected)
}

/// The connected flows' routes as a controller problem.
fn problem(
    net: &Network,
    imap: &InterferenceMap,
    route_sets: &[RouteSet],
    connected: &[usize],
) -> CcProblem {
    let flow_routes: Vec<Vec<Path>> = connected.iter().map(|&f| route_sets[f].paths()).collect();
    CcProblem::new(net, imap, flow_routes)
}

/// Assembles the result both evaluations return.
fn assemble(
    flow_rates: Vec<f64>,
    trajectories: Vec<Vec<f64>>,
    convergence_slots: Vec<Option<usize>>,
    route_sets: &[RouteSet],
) -> FluidEvalResult {
    let pf = ProportionalFair;
    let utility = flow_rates.iter().map(|&x| pf.value(x)).sum();
    let route_counts = route_sets.iter().map(|r| r.len()).collect();
    FluidEvalResult { flow_rates, utility, trajectories, convergence_slots, route_counts }
}

/// The engine behind [`crate::RunConfig::evaluate_fluid`]: instruments the
/// run on its telemetry (per-flow route gauges, controller price/violation
/// totals, convergence slots) with the virtual clock following the slot
/// index.
pub(crate) fn evaluate_fluid_impl(
    net: &Network,
    imap: &InterferenceMap,
    flows: &[(NodeId, NodeId)],
    run: &RunConfig,
) -> FluidEvalResult {
    let (route_sets, connected) = route_flows(net, imap, flows, run);
    let tele = &run.telemetry;
    let mut flow_rates = vec![0.0; flows.len()];
    let mut trajectories = vec![Vec::new(); flows.len()];
    let mut convergence = vec![None; flows.len()];

    if !connected.is_empty() {
        if run.scheme.uses_cc() {
            let problem = problem(net, imap, &route_sets, &connected);
            let mut controller =
                MultipathController::new(&problem, ProportionalFair, run.cc_config());
            let traj = controller.run_trajectory(&problem, imap, run.slots);
            tele.set_now(run.slots as f64);
            tele.counter("cc/price_updates", CounterType::Packets).add(controller.price_updates());
            tele.counter("cc/margin_violations", CounterType::Errors)
                .add(controller.margin_violations());
            let finals = problem.flow_rates(controller.rates());
            for (ci, &f) in connected.iter().enumerate() {
                flow_rates[f] = finals[ci];
                trajectories[f] = traj.iter().map(|slot| slot[ci]).collect();
                convergence[f] = slots_to_converge(&trajectories[f]);
                if let Some(slots) = convergence[f] {
                    tele.counter(format!("flow/{f}/convergence_slots"), CounterType::Gauge)
                        .set(slots as u64);
                }
            }
        } else {
            // Open loop: every route driven at its standalone R(P).
            let mut paths = Vec::new();
            let mut offered = Vec::new();
            let mut owners = Vec::new();
            for &f in &connected {
                for route in &route_sets[f].routes {
                    paths.push(route.path.clone());
                    offered.push(route.path.capacity(net, imap));
                    owners.push(f);
                }
            }
            let outcome = saturation_goodput(net, imap, &paths, &offered);
            for (i, &f) in owners.iter().enumerate() {
                flow_rates[f] += outcome.delivered[i];
            }
        }
    }
    assemble(flow_rates, trajectories, convergence, &route_sets)
}

/// Computes the *equilibrium* of a scheme directly: the §4 controller
/// provably converges to the maximizer of `Σ U_f` over constraint (2)
/// restricted to the scheme's routes, so for steady-state statistics
/// (Figs. 4–7) we can solve that program with Frank–Wolfe instead of
/// iterating thousands of controller slots per topology. w/o-CC schemes are
/// evaluated with the saturation model exactly as in
/// [`crate::RunConfig::evaluate_fluid`].
///
/// The engine behind [`crate::RunConfig::evaluate_equilibrium`].
pub(crate) fn evaluate_equilibrium_impl(
    net: &Network,
    imap: &InterferenceMap,
    flows: &[(NodeId, NodeId)],
    run: &RunConfig,
) -> FluidEvalResult {
    if !run.scheme.uses_cc() {
        return evaluate_fluid_impl(net, imap, flows, run);
    }
    let (route_sets, connected) = route_flows(net, imap, flows, run);
    let mut flow_rates = vec![0.0; flows.len()];
    if !connected.is_empty() {
        let problem = problem(net, imap, &route_sets, &connected);
        let region = empower_baselines::CapacityRegion::build(
            &problem,
            imap,
            empower_baselines::RegionKind::Conservative,
            run.delta,
        );
        let sol = empower_baselines::maximize_utility(&problem, &region, &ProportionalFair, 300);
        for (ci, &f) in connected.iter().enumerate() {
            flow_rates[f] = sol.flow_rates[ci];
        }
    }
    assemble(flow_rates, vec![Vec::new(); flows.len()], vec![None; flows.len()], &route_sets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheme;
    use empower_model::rng::SeedableRng;
    use empower_model::rng::StdRng;
    use empower_model::topology::{fig1_scenario, residential};
    use empower_model::{CarrierSense, InterferenceModel, SharedMedium};

    fn fluid(
        net: &Network,
        imap: &InterferenceMap,
        flows: &[(NodeId, NodeId)],
        scheme: Scheme,
    ) -> FluidEvalResult {
        RunConfig::new(scheme).evaluate_fluid(net, imap, flows).unwrap()
    }

    fn equilibrium(
        net: &Network,
        imap: &InterferenceMap,
        flows: &[(NodeId, NodeId)],
        scheme: Scheme,
    ) -> FluidEvalResult {
        RunConfig::new(scheme).evaluate_equilibrium(net, imap, flows).unwrap()
    }

    #[test]
    fn empower_beats_single_path_on_fig1() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let flows = [(s.gateway, s.client)];
        let emp = fluid(&s.net, &imap, &flows, Scheme::Empower);
        let sp = fluid(&s.net, &imap, &flows, Scheme::Sp);
        assert!((emp.flow_rates[0] - 50.0 / 3.0).abs() < 0.3, "{}", emp.flow_rates[0]);
        assert!((sp.flow_rates[0] - 10.0).abs() < 0.3, "{}", sp.flow_rates[0]);
        // 66 % gain, matching the §1 example.
        let gain = emp.flow_rates[0] / sp.flow_rates[0];
        assert!((gain - 5.0 / 3.0).abs() < 0.08, "gain {gain}");
    }

    #[test]
    fn convergence_is_order_100_slots() {
        // §5.2.2 reports ~90 slots to steady state.
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let emp = fluid(&s.net, &imap, &[(s.gateway, s.client)], Scheme::Empower);
        let slots = emp.convergence_slots[0].expect("converges");
        assert!(slots < 1000, "converged in {slots} slots");
    }

    #[test]
    fn disconnected_flow_rates_are_zero() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        // PLC-only scheme cannot reach the WiFi-only client... use SP-WiFi
        // with a flow from client to gateway but WiFi removed? Simpler:
        // flow to a node with no common medium does not exist in fig1, so
        // kill the WiFi links instead.
        let mut net = s.net.clone();
        for l in 0..net.link_count() {
            let id = empower_model::LinkId(l as u32);
            if net.link(id).medium.is_wifi() {
                net.set_capacity(id, 0.0);
            }
        }
        let out = fluid(&net, &imap, &[(s.gateway, s.client)], Scheme::SpWifi);
        assert_eq!(out.flow_rates[0], 0.0);
        assert_eq!(out.route_counts[0], 0);
    }

    #[test]
    fn without_cc_is_never_better_on_fig1() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let flows = [(s.gateway, s.client)];
        let with = fluid(&s.net, &imap, &flows, Scheme::Empower);
        let without = fluid(&s.net, &imap, &flows, Scheme::MpWoCc);
        assert!(with.flow_rates[0] > without.flow_rates[0] - 1e-6);
    }

    #[test]
    fn three_flow_utility_is_finite_and_fair() {
        let mut rng = StdRng::seed_from_u64(11);
        let topo = residential(&mut rng);
        let imap = CarrierSense::default().build_map(&topo.net);
        let flows: Vec<_> = (0..3).map(|_| topo.sample_flow(&mut rng)).collect();
        let out = fluid(&topo.net, &imap, &flows, Scheme::Empower);
        assert!(out.utility.is_finite());
        assert!(out.flow_rates.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn mwifi_doubles_single_channel_wifi() {
        // §5.2.1: T_MP-mWiFi = 2 · T_SP-WiFi (identical mirrored channels).
        let mut rng = StdRng::seed_from_u64(3);
        let topo = residential(&mut rng);
        let imap = CarrierSense::default().build_map(&topo.net);
        let flows = [topo.sample_flow(&mut rng)];
        let one = equilibrium(&topo.net, &imap, &flows, Scheme::SpWifi);
        let two = equilibrium(&topo.net, &imap, &flows, Scheme::MpMwifi);
        assert!(one.flow_rates[0] > 0.5, "seed 3 pair is connected");
        let ratio = two.flow_rates[0] / one.flow_rates[0];
        assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn equilibrium_matches_the_dynamic_controller() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let flows = [(s.gateway, s.client)];
        let dynamic = fluid(&s.net, &imap, &flows, Scheme::Empower);
        let eq = equilibrium(&s.net, &imap, &flows, Scheme::Empower);
        assert!(
            (dynamic.flow_rates[0] - eq.flow_rates[0]).abs() < 0.3,
            "{} vs {}",
            dynamic.flow_rates[0],
            eq.flow_rates[0]
        );
    }
}
