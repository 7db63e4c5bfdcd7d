//! Cross-crate end-to-end checks: the packet-level simulator, the fluid
//! controller and the centralized solver must agree on the same networks.

use empower_core::model::topology::{fig1_scenario, testbed22};
use empower_core::model::{CarrierSense, InterferenceModel, SharedMedium};
use empower_core::sim::{SimConfig, TrafficPattern};
use empower_core::{RunConfig, Scheme};

#[test]
fn three_evaluation_layers_agree_on_fig1() {
    let s = fig1_scenario();
    let imap = SharedMedium.build_map(&s.net);
    let flows = [(s.gateway, s.client)];

    let run = RunConfig::new(Scheme::Empower);
    let eq = run.evaluate_equilibrium(&s.net, &imap, &flows).unwrap();
    let dy = run.evaluate_fluid(&s.net, &imap, &flows).unwrap();
    let sim_flows =
        [(s.gateway, s.client, TrafficPattern::SaturatedUdp { start: 0.0, stop: 300.0 })];
    let (mut sim, mapping) =
        run.build_simulation(&s.net, &imap, &sim_flows, SimConfig::default()).unwrap();
    let report = sim.run(300.0);
    let pkt = report.final_throughput(mapping[0].unwrap(), 10);

    let reference = 50.0 / 3.0; // the paper's worked optimum
    assert!((eq.flow_rates[0] - reference).abs() < 0.05, "equilibrium {}", eq.flow_rates[0]);
    assert!((dy.flow_rates[0] - reference).abs() < 0.4, "dynamic {}", dy.flow_rates[0]);
    assert!((pkt - reference).abs() < 1.7, "packet sim {pkt}");
}

#[test]
fn packet_sim_tracks_equilibrium_on_the_testbed() {
    let t = testbed22(1);
    let imap = CarrierSense::default().build_map(&t.net);
    let flows = [(t.node(2), t.node(11))];
    let run = RunConfig::new(Scheme::Empower).delta(0.05);
    let eq = run.evaluate_equilibrium(&t.net, &imap, &flows).unwrap();
    let sim_flows =
        [(t.node(2), t.node(11), TrafficPattern::SaturatedUdp { start: 0.0, stop: 300.0 })];
    let (mut sim, mapping) = run
        .build_simulation(
            &t.net,
            &imap,
            &sim_flows,
            SimConfig { delta: 0.05, ..Default::default() },
        )
        .unwrap();
    let report = sim.run(300.0);
    let pkt = report.final_throughput(mapping[0].unwrap(), 10);
    assert!(eq.flow_rates[0] > 0.0);
    let ratio = pkt / eq.flow_rates[0];
    assert!(
        (0.8..=1.1).contains(&ratio),
        "packet sim {pkt:.1} vs equilibrium {:.1} (ratio {ratio:.2})",
        eq.flow_rates[0]
    );
}

#[test]
fn two_flows_share_fairly_end_to_end() {
    // Two saturated EMPoWER flows crossing the testbed: the packet sim's
    // allocation must stay within the airtime region and give both flows
    // meaningful throughput (proportional fairness starves no one).
    let t = testbed22(1);
    let imap = CarrierSense::default().build_map(&t.net);
    let sim_flows = [
        (t.node(1), t.node(13), TrafficPattern::SaturatedUdp { start: 0.0, stop: 300.0 }),
        (t.node(4), t.node(7), TrafficPattern::SaturatedUdp { start: 0.0, stop: 300.0 }),
    ];
    let (mut sim, mapping) = RunConfig::new(Scheme::Empower)
        .build_simulation(
            &t.net,
            &imap,
            &sim_flows,
            SimConfig { delta: 0.05, ..Default::default() },
        )
        .unwrap();
    let report = sim.run(300.0);
    let t1 = report.final_throughput(mapping[0].unwrap(), 10);
    let t2 = report.final_throughput(mapping[1].unwrap(), 10);
    assert!(t1 > 3.0, "flow 1-13 starved: {t1}");
    assert!(t2 > 3.0, "flow 4-7 starved: {t2}");
}

#[test]
fn all_schemes_run_end_to_end_on_the_testbed() {
    let t = testbed22(5);
    let imap = CarrierSense::default().build_map(&t.net);
    for scheme in Scheme::ALL {
        let sim_flows =
            [(t.node(3), t.node(18), TrafficPattern::SaturatedUdp { start: 0.0, stop: 60.0 })];
        let (mut sim, mapping) = RunConfig::new(scheme)
            .build_simulation(&t.net, &imap, &sim_flows, SimConfig::default())
            .unwrap();
        if let Some(f) = mapping[0] {
            let report = sim.run(60.0);
            assert!(report.flows[f].delivered_bits > 0, "{scheme} moved no data");
        }
    }
}

#[test]
fn route_recomputation_rescues_a_single_path_flow() {
    // The §3.2 failure story end to end: an SP flow rides the hybrid
    // PLC→WiFi route; the PLC link dies; the RouteMonitor notices, the
    // routes are recomputed (~50 ms in the paper), the simulator swaps
    // them in, and traffic resumes on the all-WiFi route.
    use empower_core::RecomputeReason;
    let s = fig1_scenario();
    let imap = SharedMedium.build_map(&s.net);
    let run = RunConfig::new(Scheme::Sp);
    let routes = run.routes(&s.net, &imap, s.gateway, s.client).unwrap();
    // Both gateway→client routes have capacity 10; whichever SP picked,
    // kill its first link so the flow must be re-routed.
    let victim = routes.routes[0].path.links()[0];
    let mut monitor = run.monitor(&s.net, s.gateway, s.client, &routes);

    let flows = [(s.gateway, s.client, TrafficPattern::SaturatedUdp { start: 0.0, stop: 400.0 })];
    let (mut sim, mapping) =
        run.build_simulation(&s.net, &imap, &flows, SimConfig::default()).unwrap();
    let f = mapping[0].unwrap();
    let rev = s.net.link(victim).reverse.unwrap();
    sim.schedule_link_change(120.0, victim, 0.0);
    sim.schedule_link_change(120.0, rev, 0.0);

    // Phase 1: healthy.
    sim.run_until(120.5);
    let reason = monitor.try_check(sim.network()).unwrap();
    assert_eq!(reason, Some(RecomputeReason::LinkFailure));
    let new_routes = monitor.recompute_after(sim.network(), &imap, reason.unwrap()).unwrap();
    assert!(!new_routes.routes[0].path.uses_link(victim));
    sim.replace_routes(f, new_routes.paths());

    // Phase 2: recovered on WiFi.
    sim.run_until(400.0);
    let report = sim.report(400.0);
    let before = report.flows[f].mean_throughput(60, 119);
    let during_gap = report.flows[f].mean_throughput(121, 130);
    let after = report.flows[f].mean_throughput(250, 399);
    assert!(before > 8.5, "healthy phase {before}");
    assert!(after > 8.0, "recovered phase {after} (WiFi route capacity 10)");
    let _ = during_gap; // transition dip is expected and unasserted
}

/// FNV-1a (64-bit) over the bit patterns of a sequence of `f64`s.
fn fnv1a_bits(acc: u64, values: &[f64]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(acc, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Folds one fluid run's final rates and every trajectory slot into `acc`.
fn fold_fluid_run(acc: u64, out: &empower_core::eval::FluidEvalResult) -> u64 {
    let acc = fnv1a_bits(acc, &out.flow_rates);
    out.trajectories.iter().fold(acc, |h, t| fnv1a_bits(h, t))
}

#[test]
fn fluid_controller_bits_are_pinned() {
    // The §4.3 controller on the fluid model has no twin to be compared
    // against, so its output is pinned bit for bit: Fig. 1 at δ = 0 and
    // δ = 0.05, then three residential draws at the §5.2.2 figure's
    // settings (4 000 slots, boost cap 64).
    use empower_bench::sweep::make_instance;
    use empower_core::model::topology::random::TopologyClass;
    let s = fig1_scenario();
    let imap = SharedMedium.build_map(&s.net);
    let flows = [(s.gateway, s.client)];
    let mut acc = 0xcbf2_9ce4_8422_2325;
    for delta in [0.0, 0.05] {
        let out = RunConfig::new(Scheme::Empower)
            .delta(delta)
            .evaluate_fluid(&s.net, &imap, &flows)
            .unwrap();
        acc = fold_fluid_run(acc, &out);
    }
    for seed in 1..=3 {
        let (net, imap, flows) = make_instance(TopologyClass::Residential, seed, 1);
        let run = RunConfig::new(Scheme::Empower).slots(4000).boost_cap(64.0);
        acc = fold_fluid_run(acc, &run.evaluate_fluid(&net, &imap, &flows).unwrap());
    }
    assert_eq!(acc, 0x98ec_7f72_83b4_211d, "fluid controller bits moved: {acc:#018x}");
}
