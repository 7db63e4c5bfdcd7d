//! §6.4 / Fig. 13: average TCP rate (± std) for ten flows, EMPoWER
//! (δ = 0.3, multipath) vs SP-w/o-CC (plain single-path TCP).

use empower_core::{RunConfig, Scheme};
use empower_model::{InterferenceMap, Network, NodeId};
use empower_sim::{SimConfig, TrafficPattern};
use empower_telemetry::Telemetry;

use crate::fig12::TCP_DELTA;

/// The ten flows of Fig. 13, 1-based paper numbering.
pub const FLOWS: [(u32, u32); 10] =
    [(9, 10), (4, 7), (21, 18), (8, 6), (17, 15), (9, 13), (4, 5), (20, 17), (3, 6), (13, 7)];

/// Result for one flow.
#[derive(Debug, Clone)]
pub struct Fig13Row {
    pub src: u32,
    pub dst: u32,
    pub empower_mean: f64,
    pub empower_std: f64,
    pub sp_wo_cc_mean: f64,
    pub sp_wo_cc_std: f64,
}

empower_telemetry::impl_to_json_struct!(Fig13Row {
    src,
    dst,
    empower_mean,
    empower_std,
    sp_wo_cc_mean,
    sp_wo_cc_std,
});

/// Configuration.
#[derive(Debug, Clone)]
pub struct Fig13Config {
    /// Simulated seconds per run; statistics over the last 100 s.
    pub duration: f64,
    pub seed: u64,
}

impl Default for Fig13Config {
    fn default() -> Self {
        Fig13Config { duration: 300.0, seed: 1 }
    }
}

/// Runs an explicit flow list (use [`FLOWS`] for the paper's figure).
pub fn run_flows(
    net: &Network,
    imap: &InterferenceMap,
    config: &Fig13Config,
    flows: &[(u32, u32)],
) -> Vec<Fig13Row> {
    run_flows_traced(net, imap, config, flows, &Telemetry::disabled())
}

/// Like [`run_flows`], with engine counters recorded on `tele`.
pub fn run_flows_traced(
    net: &Network,
    imap: &InterferenceMap,
    config: &Fig13Config,
    flows: &[(u32, u32)],
    tele: &Telemetry,
) -> Vec<Fig13Row> {
    flows
        .iter()
        .map(|&(s, d)| {
            let mut means = [0.0; 2];
            let mut stds = [0.0; 2];
            for (i, scheme) in [Scheme::Empower, Scheme::SpWoCc].into_iter().enumerate() {
                let fl = [(
                    NodeId(s - 1),
                    NodeId(d - 1),
                    TrafficPattern::Tcp { start: 0.0, stop: config.duration, size_bytes: 0 },
                )];
                let sim_cfg =
                    SimConfig { delta: TCP_DELTA, seed: config.seed, ..Default::default() };
                #[expect(
                    clippy::expect_used,
                    reason = "RunConfig defaults to tolerant connectivity, which is \
                              build_simulation's only error path"
                )]
                let (mut sim, mapping) = RunConfig::new(scheme)
                    .telemetry(tele.clone())
                    .build_simulation(net, imap, &fl, sim_cfg)
                    .expect("tolerant mode cannot fail");
                if let Some(f) = mapping[0] {
                    let report = sim.run(config.duration);
                    let to = config.duration as usize;
                    let from = to.saturating_sub(100);
                    means[i] = report.flows[f].mean_throughput(from, to);
                    stds[i] = report.flows[f].std_throughput(from, to);
                }
            }
            Fig13Row {
                src: s,
                dst: d,
                empower_mean: means[0],
                empower_std: stds[0],
                sp_wo_cc_mean: means[1],
                sp_wo_cc_std: stds[1],
            }
        })
        .collect()
}

/// Runs the paper's ten flows.
pub fn run(net: &Network, imap: &InterferenceMap, config: &Fig13Config) -> Vec<Fig13Row> {
    run_flows(net, imap, config, &FLOWS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use empower_model::topology::testbed22;
    use empower_model::{CarrierSense, InterferenceModel};

    #[test]
    fn one_tcp_flow_compares_sanely() {
        let t = testbed22(1);
        let imap = CarrierSense::default().build_map(&t.net);
        let config = Fig13Config { duration: 200.0, ..Default::default() };
        let rows = run_flows(&t.net, &imap, &config, &FLOWS[..1]);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.empower_mean > 0.0 && r.sp_wo_cc_mean > 0.0, "{r:?}");
        // §6.4: δ = 0.3 improves performance over single-path TCP "in all
        // the cases" — allow slack for the single short test flow.
        assert!(
            r.empower_mean > 0.75 * r.sp_wo_cc_mean,
            "EMPoWER {:.1} vs SP {:.1}",
            r.empower_mean,
            r.sp_wo_cc_mean
        );
    }

    #[test]
    fn flow_list_matches_the_paper() {
        assert_eq!(FLOWS.len(), 10);
        assert_eq!(FLOWS[5], (9, 13));
    }
}
