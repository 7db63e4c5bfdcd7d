//! The §6.2 worked example (Fig. 9): Flow 1-13 over two routes, with a
//! contending Flow 4-7 switching on and off.
//!
//! The paper prints the measured link capacities of the four involved nodes
//! at experiment time; the exact values are not recoverable from the figure,
//! so this runner fixes a capacity assignment that preserves every stated
//! property of the example:
//!
//! * Flow 1-13 gets a two-hop WiFi+PLC Route 1 and a single-hop PLC
//!   Route 2, Flow 4-7 a single-hop WiFi Route 3;
//! * Route 1 and Route 3 share the WiFi medium; Route 1's PLC hop and
//!   Route 2 share the PLC medium;
//! * alone, the controller drives Route 1 at 100 % and fills Route 2 with
//!   the PLC airtime Route 1 leaves over (≈ 50 %), beating the best single
//!   path;
//! * when Flow 4-7 saturates WiFi, the proportional-fair equilibrium moves
//!   Flow 1-13 entirely onto Route 2 (WiFi is "avoided altogether") and
//!   reverts after Flow 4-7 stops.

use empower_core::{RunConfig, Scheme};
use empower_model::topology::testbed22::NODE_POSITIONS;
use empower_model::{
    InterferenceModel, Medium, Network, NetworkBuilder, NodeId, PanelId, Point, SharedMedium,
};
use empower_sim::{SimConfig, TrafficPattern};
use empower_telemetry::Telemetry;

/// Timing of the experiment, seconds.
pub const FLOW47_START: f64 = 1950.0;
pub const FLOW47_STOP: f64 = 3950.0;
pub const DURATION: f64 = 5000.0;

/// Capacity assignment (Mbps) for the four links of the example.
pub const WIFI_1_4: f64 = 23.0;
pub const PLC_4_13: f64 = 35.0;
pub const PLC_1_13: f64 = 20.0;
pub const WIFI_4_7: f64 = 45.0;

/// Result: per-second series, ready for plotting/printing.
#[derive(Debug, Clone)]
pub struct Fig9Data {
    /// Rate injected on Route 1 (WiFi-PLC) of Flow 1-13, per second.
    pub route1_rate: Vec<f64>,
    /// Rate injected on Route 2 (PLC direct) of Flow 1-13, per second.
    pub route2_rate: Vec<f64>,
    /// Total rate sent by node 1, per second.
    pub total_sent: Vec<f64>,
    /// Throughput received by node 13, per second.
    pub received: Vec<f64>,
    /// The best single-path capacity for Flow 1-13 (horizontal reference).
    pub best_single_path: f64,
    /// Throughput received by node 7 (Flow 4-7), per second.
    pub flow47_received: Vec<f64>,
}

empower_telemetry::impl_to_json_struct!(Fig9Data {
    route1_rate,
    route2_rate,
    total_sent,
    received,
    best_single_path,
    flow47_received,
});

/// Builds the 4-node cut-out of the testbed used by the example.
pub fn fig9_network() -> (Network, [NodeId; 4]) {
    let mut b = NetworkBuilder::new();
    let mediums = vec![Medium::WIFI1, Medium::Plc];
    let pick = |i: usize| {
        let (x, y) = NODE_POSITIONS[i - 1];
        Point::new(x, y)
    };
    let n1 = b.add_labeled_node(pick(1), mediums.clone(), Some(PanelId(0)), "node1");
    let n4 = b.add_labeled_node(pick(4), mediums.clone(), Some(PanelId(0)), "node4");
    let n7 = b.add_labeled_node(pick(7), mediums.clone(), Some(PanelId(0)), "node7");
    let n13 = b.add_labeled_node(pick(13), mediums, Some(PanelId(0)), "node13");
    b.add_duplex(n1, n4, Medium::WIFI1, WIFI_1_4);
    b.add_duplex(n4, n13, Medium::Plc, PLC_4_13);
    b.add_duplex(n1, n13, Medium::Plc, PLC_1_13);
    b.add_duplex(n4, n7, Medium::WIFI1, WIFI_4_7);
    (b.build(), [n1, n4, n7, n13])
}

/// Runs the experiment (several simulated thousand seconds; a couple of
/// seconds of wall clock), with engine counters recorded on `tele`.
pub fn run_traced(seed: u64, tele: &Telemetry) -> Fig9Data {
    let (net, [n1, n4, n7, n13]) = fig9_network();
    let imap = SharedMedium.build_map(&net);
    let flows = [
        (n1, n13, TrafficPattern::SaturatedUdp { start: 0.0, stop: DURATION }),
        (n4, n7, TrafficPattern::SaturatedUdp { start: FLOW47_START, stop: FLOW47_STOP }),
    ];
    let config = SimConfig { seed, ..Default::default() };
    #[expect(
        clippy::expect_used,
        reason = "RunConfig defaults to tolerant connectivity, which is \
                  build_simulation's only error path"
    )]
    let (mut sim, mapping) = RunConfig::new(Scheme::Empower)
        .telemetry(tele.clone())
        .build_simulation(&net, &imap, &flows, config)
        .expect("tolerant mode cannot fail");
    #[expect(
        clippy::expect_used,
        reason = "the fig. 9 topology is a fixed fixture in which flow 1→13 is connected by \
                  construction"
    )]
    let f1 = mapping[0].expect("flow 1-13 is connected");
    #[expect(clippy::expect_used, reason = "same fixture; flow 4→7 is connected")]
    let f2 = mapping[1].expect("flow 4-7 is connected");
    let report = sim.run(DURATION);

    let stats1 = &report.flows[f1];
    // Identify which of flow 1-13's routes is the 2-hop one (Route 1).
    // rate_series[r] is indexed by route in selection order.
    let routes = Scheme::Empower.compute_routes(&net, &imap, n1, n13, 5);
    let (idx_r1, idx_r2) = if routes.routes[0].path.hop_count() == 2 { (0, 1) } else { (1, 0) };
    let best_single_path = Scheme::Sp.compute_routes(&net, &imap, n1, n13, 5).total_rate();
    let route1_rate = stats1.rate_series[idx_r1].clone();
    let route2_rate = stats1.rate_series[idx_r2].clone();
    let total_sent: Vec<f64> = route1_rate.iter().zip(&route2_rate).map(|(a, b)| a + b).collect();
    Fig9Data {
        route1_rate,
        route2_rate,
        total_sent,
        received: stats1.throughput_series.clone(),
        best_single_path,
        flow47_received: report.flows[f2].throughput_series.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean(xs: &[f64]) -> f64 {
        if xs.is_empty() {
            return 0.0;
        }
        xs.iter().sum::<f64>() / xs.len() as f64
    }

    #[test]
    fn routing_selects_the_papers_routes() {
        let (net, [n1, _, _, n13]) = fig9_network();
        let imap = SharedMedium.build_map(&net);
        let routes = Scheme::Empower.compute_routes(&net, &imap, n1, n13, 5);
        assert_eq!(routes.len(), 2);
        let hops: Vec<usize> = routes.routes.iter().map(|r| r.path.hop_count()).collect();
        assert!(hops.contains(&2) && hops.contains(&1), "{hops:?}");
        // Nominal combination: 23 on the hybrid route + PLC residual 6.86.
        assert!((routes.total_rate() - (23.0 + (1.0 - 23.0 / 35.0) * 20.0)).abs() < 1e-6);
    }

    #[test]
    fn multipath_beats_best_single_path_in_phase_one() {
        let data = run_traced(1, &Telemetry::disabled());
        let phase1 = mean(&data.received[600..1900]);
        assert!(
            phase1 > data.best_single_path * 1.3,
            "phase-1 throughput {phase1} vs single path {}",
            data.best_single_path
        );
    }

    #[test]
    fn flow_1_13_vacates_wifi_under_contention() {
        let data = run_traced(1, &Telemetry::disabled());
        // Phase 2 (2200–3900 s): Route 1 (WiFi) rate collapses, Route 2
        // carries (almost) everything.
        let r1_phase2 = mean(&data.route1_rate[2200..3900]);
        let r2_phase2 = mean(&data.route2_rate[2200..3900]);
        assert!(r1_phase2 < 2.5, "route 1 should be (nearly) vacated: {r1_phase2}");
        assert!(r2_phase2 > 15.0, "route 2 should carry the flow: {r2_phase2}");
        // Flow 4-7 gets (almost) the full WiFi capacity.
        let f47 = mean(&data.flow47_received[2200..3900]);
        assert!(f47 > 35.0, "flow 4-7 throughput {f47}");
    }

    #[test]
    fn situation_reverts_after_contention_stops() {
        let data = run_traced(1, &Telemetry::disabled());
        let phase1 = mean(&data.received[600..1900]);
        let phase3 = mean(&data.received[4200..4990]);
        assert!((phase1 - phase3).abs() < 0.15 * phase1, "{phase1} vs {phase3}");
        let r1_phase3 = mean(&data.route1_rate[4200..4990]);
        assert!(r1_phase3 > 15.0, "route 1 resumes: {r1_phase3}");
    }
}
