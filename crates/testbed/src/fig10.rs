//! §6.3 / Fig. 10: broad evaluation over randomly selected station pairs.
//!
//! For each pair, saturated UDP runs under EMPoWER, SP, SP-WiFi, MP-mWiFi
//! and MP-2bp (packet-level, δ = 0.05 as in the paper), plus the two
//! brute-force single-path baselines. The left plot is the CDF of
//! `T_X / T_EMPoWER`; the right plot is EMPoWER's throughput after 10–20 s
//! and 190–200 s (when the runs last that long) as a fraction of its final
//! value.

use empower_core::{RunConfig, Scheme};
use empower_model::rng::StdRng;
use empower_model::rng::{Rng, SeedableRng};
use empower_model::{InterferenceMap, Network, NodeId};
use empower_sim::{SimConfig, TrafficPattern};
use empower_telemetry::Telemetry;

use crate::brute_force::brute_force_single_path;
use crate::TESTBED_DELTA;

/// Schemes measured with the packet simulator (brute-force baselines are
/// handled separately).
pub const SIM_SCHEMES: [Scheme; 5] =
    [Scheme::Empower, Scheme::Sp, Scheme::SpWifi, Scheme::MpMwifi, Scheme::Mp2bp];

/// Configuration of the sweep.
#[derive(Debug, Clone)]
pub struct Fig10Config {
    /// Number of random source–destination pairs (50 in the paper).
    pub pairs: usize,
    /// Simulated seconds per run (the paper uses 1000 s; final throughput
    /// is the last-10 s average, converged well before this).
    pub duration: f64,
    pub seed: u64,
}

impl Default for Fig10Config {
    fn default() -> Self {
        Fig10Config { pairs: 50, duration: 300.0, seed: 1 }
    }
}

/// Results for one pair.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// 1-based paper numbering of (source, destination).
    pub src: u32,
    pub dst: u32,
    /// Final throughput per simulated scheme, ordered as [`SIM_SCHEMES`].
    pub throughput: Vec<f64>,
    /// SP-bf / SP-WiFi-bf brute-force goodputs.
    pub sp_bf: f64,
    pub sp_wifi_bf: f64,
    /// EMPoWER mean throughput over 10–20 s (convergence snapshot).
    pub empower_10_20: f64,
    /// EMPoWER mean throughput over the 190–200 s window; `None` when the
    /// runs end before 200 s.
    pub empower_190_200: Option<f64>,
    /// EMPoWER final throughput (denominator of every ratio).
    pub empower_final: f64,
    /// Number of routes EMPoWER used.
    pub empower_routes: usize,
}

empower_telemetry::impl_to_json_struct!(Fig10Row {
    src,
    dst,
    throughput,
    sp_bf,
    sp_wifi_bf,
    empower_10_20,
    empower_190_200,
    empower_final,
    empower_routes,
});

/// Runs the sweep on `net` (normally the 22-node testbed's network), with
/// engine counters recorded on `tele`.
pub fn run_traced(
    net: &Network,
    imap: &InterferenceMap,
    config: &Fig10Config,
    tele: &Telemetry,
) -> Vec<Fig10Row> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut rows = Vec::with_capacity(config.pairs);
    for pair_idx in 0..config.pairs {
        let src = NodeId(rng.gen_range(0..net.node_count()) as u32);
        let dst = loop {
            let d = NodeId(rng.gen_range(0..net.node_count()) as u32);
            if d != src {
                break d;
            }
        };
        let mut throughput = Vec::with_capacity(SIM_SCHEMES.len());
        let mut empower = (0.0, 0.0, 0.0, 0usize); // (final, 10-20, 190-200, routes)
        for (si, &scheme) in SIM_SCHEMES.iter().enumerate() {
            let flows =
                [(src, dst, TrafficPattern::SaturatedUdp { start: 0.0, stop: config.duration })];
            let sim_cfg = SimConfig {
                delta: TESTBED_DELTA,
                seed: config.seed ^ ((pair_idx as u64) << 8) ^ si as u64,
                ..Default::default()
            };
            #[expect(
                clippy::expect_used,
                reason = "RunConfig defaults to tolerant connectivity, which is \
                          build_simulation's only error path"
            )]
            let (mut sim, mapping) = RunConfig::new(scheme)
                .telemetry(tele.clone())
                .build_simulation(net, imap, &flows, sim_cfg)
                .expect("tolerant mode cannot fail");
            let t = match mapping[0] {
                None => 0.0,
                Some(f) => {
                    let report = sim.run(config.duration);
                    let fin = report.final_throughput(f, 10);
                    if scheme == Scheme::Empower {
                        empower = (
                            fin,
                            report.flows[f].mean_throughput(10, 20),
                            report.flows[f].mean_throughput(190, 200),
                            report.flows[f].rate_series.len(),
                        );
                    }
                    fin
                }
            };
            throughput.push(t);
        }
        let sp_bf = brute_force_single_path(net, imap, src, dst, Scheme::SpWoCc)
            .map_or(0.0, |b| b.best_goodput);
        let sp_wifi_bf = brute_force_single_path(net, imap, src, dst, Scheme::SpWifi)
            .map_or(0.0, |b| b.best_goodput);
        rows.push(Fig10Row {
            src: src.0 + 1,
            dst: dst.0 + 1,
            throughput,
            sp_bf,
            sp_wifi_bf,
            empower_10_20: empower.1,
            empower_190_200: (config.duration >= 200.0).then_some(empower.2),
            empower_final: empower.0,
            empower_routes: empower.3,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use empower_model::topology::testbed22;
    use empower_model::{CarrierSense, InterferenceModel};

    #[test]
    fn small_sweep_produces_sane_rows() {
        let t = testbed22(1);
        let imap = CarrierSense::default().build_map(&t.net);
        let config = Fig10Config { pairs: 2, duration: 120.0, ..Default::default() };
        let rows = run_traced(&t.net, &imap, &config, &Telemetry::disabled());
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.throughput.len(), SIM_SCHEMES.len());
            // On an all-hybrid testbed every pair is connected.
            assert!(row.empower_final > 0.0, "pair {}→{}", row.src, row.dst);
            // Brute force finds something on the hybrid mediums.
            assert!(row.sp_bf > 0.0);
            // A 120 s run never reaches the 190–200 s window.
            assert_eq!(row.empower_190_200, None);
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let t = testbed22(1);
        let imap = CarrierSense::default().build_map(&t.net);
        let config = Fig10Config { pairs: 1, duration: 60.0, ..Default::default() };
        let a = run_traced(&t.net, &imap, &config, &Telemetry::disabled());
        let b = run_traced(&t.net, &imap, &config, &Telemetry::disabled());
        assert_eq!(a[0].throughput, b[0].throughput);
        assert_eq!((a[0].src, a[0].dst), (b[0].src, b[0].dst));
    }
}
