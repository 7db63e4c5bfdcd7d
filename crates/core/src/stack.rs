//! Wiring schemes into the packet-level simulator (§6-style runs).

use empower_model::{InterferenceMap, Network, NodeId};
use empower_sim::{FlowSpecSim, SimConfig, Simulation, TrafficPattern};

use crate::run::{EmpowerError, RunConfig, N_SHORTEST};

/// The engine behind [`crate::RunConfig::build_simulation`]: route
/// computation with [`N_SHORTEST`], telemetry attached to the engine
/// before flows register, and an optional strict mode that turns a
/// disconnected flow into [`EmpowerError::Disconnected`].
pub(crate) fn build_simulation_impl(
    net: &Network,
    imap: &InterferenceMap,
    flows: &[(NodeId, NodeId, TrafficPattern)],
    config: SimConfig,
    run: &RunConfig,
) -> Result<(Simulation, Vec<Option<usize>>), EmpowerError> {
    let scheme = run.scheme;
    let mut sim = Simulation::new(net.clone(), imap.clone(), config);
    sim.attach_telemetry(run.telemetry.clone());
    let mut mapping = Vec::with_capacity(flows.len());
    for (f, &(src, dst, pattern)) in flows.iter().enumerate() {
        let routes = scheme.compute_routes(net, imap, src, dst, N_SHORTEST);
        if routes.is_empty() {
            if run.strict_connectivity {
                return Err(EmpowerError::Disconnected { flow: f, src, dst });
            }
            mapping.push(None);
            continue;
        }
        let open_loop_rates: Vec<f64> = if scheme.uses_cc() {
            Vec::new()
        } else {
            // Open loop drives each route at its standalone capacity — the
            // w/o-CC schemes' defining mistake.
            routes.routes.iter().map(|r| r.path.capacity(net, imap)).collect()
        };
        let idx = sim.add_flow(FlowSpecSim {
            src,
            dst,
            routes: routes.paths(),
            use_cc: scheme.uses_cc(),
            open_loop_rates,
            pattern,
            delay_equalization: pattern.is_tcp(),
        });
        mapping.push(Some(idx));
    }
    Ok((sim, mapping))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheme;
    use empower_model::topology::fig1_scenario;
    use empower_model::{InterferenceModel, SharedMedium};
    use empower_telemetry::Telemetry;

    #[test]
    fn packet_sim_matches_fluid_eval_on_fig1() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let flows =
            [(s.gateway, s.client, TrafficPattern::SaturatedUdp { start: 0.0, stop: 300.0 })];
        let (mut sim, mapping) = RunConfig::new(Scheme::Empower)
            .build_simulation(&s.net, &imap, &flows, SimConfig::default())
            .unwrap();
        assert_eq!(mapping, vec![Some(0)]);
        let report = sim.run(300.0);
        let t = report.final_throughput(0, 10);
        assert!((t - 50.0 / 3.0).abs() < 1.6, "packet sim {t} vs fluid 16.67");
    }

    #[test]
    fn disconnected_flows_are_skipped() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let mut net = s.net.clone();
        for l in 0..net.link_count() {
            let id = empower_model::LinkId(l as u32);
            net.set_capacity(id, 0.0);
        }
        let flows = [(s.gateway, s.client, TrafficPattern::SaturatedUdp { start: 0.0, stop: 1.0 })];
        let (_, mapping) = RunConfig::new(Scheme::Empower)
            .build_simulation(&net, &imap, &flows, SimConfig::default())
            .unwrap();
        assert_eq!(mapping, vec![None]);
        // Strict mode names the offending flow instead.
        let strict = RunConfig::new(Scheme::Empower).strict_connectivity(true).build_simulation(
            &net,
            &imap,
            &flows,
            SimConfig::default(),
        );
        match strict {
            Err(EmpowerError::Disconnected { flow: 0, .. }) => {}
            Err(other) => panic!("unexpected error: {other}"),
            Ok(_) => panic!("strict mode should refuse a disconnected flow"),
        }
    }

    #[test]
    fn telemetry_flows_through_to_the_engine() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let tele = Telemetry::enabled();
        let flows = [(s.gateway, s.client, TrafficPattern::SaturatedUdp { start: 0.0, stop: 5.0 })];
        let (mut sim, _) = RunConfig::new(Scheme::Empower)
            .telemetry(tele.clone())
            .build_simulation(&s.net, &imap, &flows, SimConfig::default())
            .unwrap();
        sim.run(5.0);
        let snap = tele.snapshot();
        assert!(snap.value("mac/grants").unwrap() > 0, "MAC grants recorded");
        assert!(snap.value("datapath/reorder_delivered").unwrap() > 0);
        assert_eq!(snap.value("datapath/header_decode_errors"), Some(0));
    }
}
