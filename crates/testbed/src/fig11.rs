//! §6.3 / Fig. 11: mean ± std of the converged throughput for the ten
//! selected flows, under EMPoWER, MP-mWiFi and SP.
//!
//! The standard deviation over the last 100 s of per-second measurements is
//! the paper's check that multipath reordering does not add throughput
//! variance compared to single path.

use empower_core::{RunConfig, Scheme};
use empower_model::{InterferenceMap, Network, NodeId};
use empower_sim::{SimConfig, TrafficPattern};
use empower_telemetry::Telemetry;

use crate::TESTBED_DELTA;

/// The flows of Fig. 11, in the paper's (1-based) numbering.
pub const FLOWS: [(u32, u32); 10] =
    [(4, 19), (1, 11), (17, 1), (19, 3), (9, 4), (11, 5), (13, 21), (11, 15), (20, 19), (7, 6)];

/// The three compared schemes.
pub const SCHEMES: [Scheme; 3] = [Scheme::Empower, Scheme::MpMwifi, Scheme::Sp];

/// Result for one flow under one scheme.
#[derive(Debug, Clone)]
pub struct Fig11Cell {
    pub mean_mbps: f64,
    pub std_mbps: f64,
}

/// One bar group: a flow with its three scheme measurements.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    pub src: u32,
    pub dst: u32,
    /// Indexed like [`SCHEMES`].
    pub cells: Vec<Fig11Cell>,
}

empower_telemetry::impl_to_json_struct!(Fig11Cell { mean_mbps, std_mbps });
empower_telemetry::impl_to_json_struct!(Fig11Row { src, dst, cells });

/// Configuration.
#[derive(Debug, Clone)]
pub struct Fig11Config {
    /// Simulated seconds per run; statistics use the last 100 s.
    pub duration: f64,
    pub seed: u64,
}

impl Default for Fig11Config {
    fn default() -> Self {
        Fig11Config { duration: 300.0, seed: 1 }
    }
}

/// Runs each flow of an explicit list (use [`FLOWS`] for the paper's
/// figure) in isolation under the three schemes, with engine counters
/// recorded on `tele`.
pub fn run_flows_traced(
    net: &Network,
    imap: &InterferenceMap,
    config: &Fig11Config,
    flows: &[(u32, u32)],
    tele: &Telemetry,
) -> Vec<Fig11Row> {
    flows
        .iter()
        .map(|&(s, d)| {
            let src = NodeId(s - 1);
            let dst = NodeId(d - 1);
            let cells = SCHEMES
                .iter()
                .map(|&scheme| {
                    let fl = [(
                        src,
                        dst,
                        TrafficPattern::SaturatedUdp { start: 0.0, stop: config.duration },
                    )];
                    let sim_cfg =
                        SimConfig { delta: TESTBED_DELTA, seed: config.seed, ..Default::default() };
                    #[expect(
                        clippy::expect_used,
                        reason = "RunConfig defaults to tolerant connectivity, which is \
                                  build_simulation's only error path"
                    )]
                    let (mut sim, mapping) = RunConfig::new(scheme)
                        .telemetry(tele.clone())
                        .build_simulation(net, imap, &fl, sim_cfg)
                        .expect("tolerant mode cannot fail");
                    match mapping[0] {
                        None => Fig11Cell { mean_mbps: 0.0, std_mbps: 0.0 },
                        Some(f) => {
                            let report = sim.run(config.duration);
                            let to = config.duration as usize;
                            let from = to.saturating_sub(100);
                            Fig11Cell {
                                mean_mbps: report.flows[f].mean_throughput(from, to),
                                std_mbps: report.flows[f].std_throughput(from, to),
                            }
                        }
                    }
                })
                .collect();
            Fig11Row { src: s, dst: d, cells }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use empower_model::topology::testbed22;
    use empower_model::{CarrierSense, InterferenceModel};

    #[test]
    fn one_flow_produces_three_cells() {
        let t = testbed22(1);
        let imap = CarrierSense::default().build_map(&t.net);
        // One flow on a short horizon, for test speed.
        let config = Fig11Config { duration: 60.0, ..Default::default() };
        let rows = run_flows_traced(&t.net, &imap, &config, &FLOWS[..1], &Telemetry::disabled());
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].cells.len(), 3);
        assert!(rows[0].cells[0].mean_mbps > 0.0);
        assert!(rows[0].cells[0].std_mbps >= 0.0);
    }

    #[test]
    fn flow_list_matches_the_paper() {
        assert_eq!(FLOWS.len(), 10);
        assert_eq!(FLOWS[0], (4, 19));
        assert_eq!(FLOWS[9], (7, 6));
    }
}
