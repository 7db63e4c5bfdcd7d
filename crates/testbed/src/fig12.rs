//! §6.4 / Fig. 12: TCP over EMPoWER, time series for Flow 9-13.
//!
//! The paper sends TCP traffic for 500 s over the best single path without
//! the EMPoWER controller (SP-w/o-CC), then 500 s with the full stack
//! (congestion controller + both routes + delay equalization), δ = 0.3. The
//! figure shows the per-route rates the controller admits and the
//! throughput the TCP receiver sees.

use empower_core::{RunConfig, Scheme};
use empower_model::{InterferenceMap, Network, NodeId};
use empower_sim::{SimConfig, TrafficPattern};
use empower_telemetry::Telemetry;

/// Phase length, seconds (500 in the paper).
pub const PHASE_SECS: f64 = 500.0;
/// δ for TCP coexistence (§6.4 finds 0.3 works best).
pub const TCP_DELTA: f64 = 0.3;

/// The two phases' series.
#[derive(Debug, Clone)]
pub struct Fig12Data {
    /// Phase 1 (SP-w/o-CC): received TCP throughput per second.
    pub phase1_received: Vec<f64>,
    /// Phase 2 (EMPoWER): per-route admitted rates per second.
    pub phase2_route_rates: Vec<Vec<f64>>,
    /// Phase 2: received TCP throughput per second.
    pub phase2_received: Vec<f64>,
}

empower_telemetry::impl_to_json_struct!(Fig12Data {
    phase1_received,
    phase2_route_rates,
    phase2_received,
});

/// Runs both phases for the paper's flow 9 → 13.
pub fn run(net: &Network, imap: &InterferenceMap, seed: u64) -> Fig12Data {
    run_flow(net, imap, seed, 9, 13)
}

/// Runs both phases for an arbitrary flow (1-based node numbers).
pub fn run_flow(
    net: &Network,
    imap: &InterferenceMap,
    seed: u64,
    src_no: u32,
    dst_no: u32,
) -> Fig12Data {
    run_flow_traced(net, imap, seed, src_no, dst_no, &Telemetry::disabled())
}

/// Like [`run_flow`], with engine counters recorded on `tele`.
pub fn run_flow_traced(
    net: &Network,
    imap: &InterferenceMap,
    seed: u64,
    src_no: u32,
    dst_no: u32,
    tele: &Telemetry,
) -> Fig12Data {
    let src = NodeId(src_no - 1);
    let dst = NodeId(dst_no - 1);
    let tcp = TrafficPattern::Tcp { start: 0.0, stop: PHASE_SECS, size_bytes: 0 };
    // Phase 1: plain TCP on the single best path, no controller.
    #[expect(
        clippy::expect_used,
        reason = "RunConfig defaults to tolerant connectivity, which is \
                  build_simulation's only error path"
    )]
    let (mut sim1, map1) = RunConfig::new(Scheme::SpWoCc)
        .telemetry(tele.clone())
        .build_simulation(
            net,
            imap,
            &[(src, dst, tcp)],
            SimConfig { delta: TCP_DELTA, seed, ..Default::default() },
        )
        .expect("tolerant mode cannot fail");
    let rep1 = sim1.run(PHASE_SECS);
    let phase1_received =
        map1[0].map(|f| rep1.flows[f].throughput_series.clone()).unwrap_or_default();
    // Phase 2: the full stack.
    #[expect(
        clippy::expect_used,
        reason = "RunConfig defaults to tolerant connectivity, which is \
                  build_simulation's only error path"
    )]
    let (mut sim2, map2) = RunConfig::new(Scheme::Empower)
        .telemetry(tele.clone())
        .build_simulation(
            net,
            imap,
            &[(src, dst, tcp)],
            SimConfig { delta: TCP_DELTA, seed, ..Default::default() },
        )
        .expect("tolerant mode cannot fail");
    let rep2 = sim2.run(PHASE_SECS);
    let (phase2_route_rates, phase2_received) = match map2[0] {
        Some(f) => (rep2.flows[f].rate_series.clone(), rep2.flows[f].throughput_series.clone()),
        None => (Vec::new(), Vec::new()),
    };
    Fig12Data { phase1_received, phase2_route_rates, phase2_received }
}

#[cfg(test)]
mod tests {
    use super::*;
    use empower_model::topology::testbed22;
    use empower_model::{CarrierSense, InterferenceModel};

    fn mean_tail(xs: &[f64]) -> f64 {
        let lo = xs.len().saturating_sub(60);
        if xs.len() == lo {
            return 0.0;
        }
        xs[lo..].iter().sum::<f64>() / (xs.len() - lo) as f64
    }

    #[test]
    fn empower_tcp_is_stable_and_near_the_admission_reserve() {
        // Against our idealized loss-free MAC, plain single-path TCP fills
        // the whole path — a *stronger* baseline than the paper's hardware,
        // where multihop wireless TCP collapses under self-interference.
        // What must hold here: EMPoWER TCP sustains at least the δ-reserved
        // share of the single-path baseline (≥ (1 − δ) up to TCP overhead),
        // i.e. the stack imposes no cost beyond the deliberate margin.
        // See EXPERIMENTS.md for the full discussion of this deviation.
        let t = testbed22(1);
        let imap = CarrierSense::default().build_map(&t.net);
        let data = run_flow(&t.net, &imap, 3, 9, 13);
        let p1 = mean_tail(&data.phase1_received);
        let p2 = mean_tail(&data.phase2_received);
        assert!(p1 > 0.0, "phase 1 TCP moves data");
        assert!(
            p2 >= 0.95 * (1.0 - TCP_DELTA) * p1,
            "EMPoWER TCP {p2:.1} fell below the δ-reserved share of SP TCP {p1:.1}"
        );
    }

    #[test]
    fn received_matches_admitted_rate_in_phase2() {
        // §6.4's headline: "the received throughput matches the traffic
        // sent by our congestion controller".
        let t = testbed22(1);
        let imap = CarrierSense::default().build_map(&t.net);
        let data = run(&t.net, &imap, 3);
        let admitted: f64 = data.phase2_route_rates.iter().map(|r| mean_tail(r)).sum();
        let received = mean_tail(&data.phase2_received);
        assert!(received > 0.6 * admitted, "received {received:.1} vs admitted {admitted:.1}");
    }
}
