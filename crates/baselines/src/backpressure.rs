//! The backpressure baseline of Neely et al. \[27\] (§5.2.2).
//!
//! A slot-level drift-plus-penalty scheme with per-node, per-flow backlogs:
//!
//! 1. **Admission**: each source admits
//!    `a_f = min(A_max, U'⁻¹(Q_src^f / V))` — the utility-gradient rule with
//!    trade-off parameter `V` (larger `V` → closer to optimal utility, but
//!    proportionally larger queues and slower convergence; this is exactly
//!    the symptom the paper's convergence comparison exposes).
//! 2. **Scheduling**: per slot, activate the *maximum-weight independent
//!    set* of the conflict graph, with link weight
//!    `w_l = c_l · max_f (Q_tx^f − Q_rx^f)⁺` — solved exactly (this is the
//!    NP-hard, centralized step that makes the scheme impractical; on
//!    local-network conflict graphs the branch-and-bound is fine).
//! 3. **Forwarding**: an active link moves up to `c_l · τ` megabits of its
//!    argmax flow; traffic reaching the flow's destination leaves the
//!    system and is counted as delivered.
//!
//! Routing is implicit (traffic follows backlog gradients), which is why the
//! scheme is throughput-optimal at steady state but "good routes are
//! employed only after the queues on the bad routes start to fill up".

use empower_cc::Utility;
use empower_model::{InterferenceMap, Network, NodeId};

use crate::conflict::{max_weight_independent_set, ConflictGraph};

/// Backpressure parameters.
#[derive(Debug, Clone, Copy)]
pub struct BackpressureConfig {
    /// Utility/backlog trade-off `V`.
    pub v: f64,
    /// Slot length `τ`, seconds (0.1 s to match EMPoWER's ACK interval).
    pub slot_secs: f64,
    /// Admission cap per slot, Mbps.
    pub a_max: f64,
}

impl Default for BackpressureConfig {
    fn default() -> Self {
        BackpressureConfig { v: 300.0, slot_secs: 0.1, a_max: 200.0 }
    }
}

/// Result of a backpressure run.
#[derive(Debug, Clone)]
pub struct BackpressureResult {
    /// Long-run delivered throughput per flow (window-averaged tail), Mbps.
    pub flow_throughputs: Vec<f64>,
    /// Windowed delivered-rate trajectory per slot, per flow (Mbps).
    pub trajectory: Vec<Vec<f64>>,
    /// Total delivered megabits per flow.
    pub delivered_mb: Vec<f64>,
}

/// The backpressure simulator.
#[derive(Debug)]
pub struct Backpressure {
    config: BackpressureConfig,
    /// Flow endpoints.
    flows: Vec<(NodeId, NodeId)>,
    /// Backlog `Q[node][flow]`, megabits.
    queues: Vec<Vec<f64>>,
    conflict: ConflictGraph,
}

impl Backpressure {
    /// Creates the scheme for the given flows.
    pub fn new(
        net: &Network,
        imap: &InterferenceMap,
        flows: Vec<(NodeId, NodeId)>,
        config: BackpressureConfig,
    ) -> Self {
        Backpressure {
            config,
            queues: vec![vec![0.0; flows.len()]; net.node_count()],
            flows,
            conflict: ConflictGraph::from_interference(imap),
        }
    }

    /// Runs `slots` slots under `utility`; returns delivered-rate statistics.
    pub fn run<U: Utility>(
        &mut self,
        net: &Network,
        utility: &U,
        slots: usize,
    ) -> BackpressureResult {
        let window = 50usize;
        let nf = self.flows.len();
        let tau = self.config.slot_secs;
        let mut delivered_mb = vec![0.0; nf];
        let mut recent: Vec<Vec<f64>> = Vec::with_capacity(slots); // per-slot delivered Mb
        let mut trajectory: Vec<Vec<f64>> = Vec::with_capacity(slots);

        for _ in 0..slots {
            // 1. Admission.
            for (f, &(src, _)) in self.flows.iter().enumerate() {
                let q = self.queues[src.index()][f];
                let a = utility.deriv_inv(q / self.config.v).min(self.config.a_max);
                self.queues[src.index()][f] += a * tau;
            }
            // 2. Max-weight schedule.
            let weights: Vec<f64> = net
                .links()
                .iter()
                .map(|l| {
                    if !l.is_alive() {
                        return 0.0;
                    }
                    let best_diff = (0..nf)
                        .map(|f| {
                            let rx = if self.flows[f].1 == l.to {
                                0.0 // destination absorbs
                            } else {
                                self.queues[l.to.index()][f]
                            };
                            self.queues[l.from.index()][f] - rx
                        })
                        .fold(0.0_f64, f64::max);
                    l.capacity_mbps * best_diff
                })
                .collect();
            let (active, _) = max_weight_independent_set(&self.conflict, &weights);
            // 3. Forwarding.
            let mut slot_delivered = vec![0.0; nf];
            for li in active {
                let link = &net.links()[li];
                // Argmax flow for this link (recompute; cheap).
                let mut best_f = None;
                let mut best_diff = 0.0;
                for f in 0..nf {
                    let rx = if self.flows[f].1 == link.to {
                        0.0
                    } else {
                        self.queues[link.to.index()][f]
                    };
                    let diff = self.queues[link.from.index()][f] - rx;
                    if diff > best_diff {
                        best_diff = diff;
                        best_f = Some(f);
                    }
                }
                let Some(f) = best_f else { continue };
                let amount = (link.capacity_mbps * tau).min(self.queues[link.from.index()][f]);
                self.queues[link.from.index()][f] -= amount;
                if self.flows[f].1 == link.to {
                    delivered_mb[f] += amount;
                    slot_delivered[f] += amount;
                } else {
                    self.queues[link.to.index()][f] += amount;
                }
            }
            recent.push(slot_delivered);
            // Windowed delivered rate.
            let lo = recent.len().saturating_sub(window);
            let w = &recent[lo..];
            let rates: Vec<f64> = (0..nf)
                .map(|f| w.iter().map(|s| s[f]).sum::<f64>() / (w.len() as f64 * tau))
                .collect();
            trajectory.push(rates);
        }

        let tail = trajectory.last().cloned().unwrap_or_else(|| vec![0.0; nf]);
        BackpressureResult { flow_throughputs: tail, trajectory, delivered_mb }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use empower_cc::ProportionalFair;
    use empower_model::topology::fig1_scenario;
    use empower_model::{InterferenceModel, SharedMedium};

    #[test]
    fn single_flow_approaches_the_multipath_optimum() {
        // Backpressure with both mediums available should approach the
        // 16.67 Mbps optimum of the Fig. 1 scenario.
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let mut bp = Backpressure::new(
            &s.net,
            &imap,
            vec![(s.gateway, s.client)],
            BackpressureConfig::default(),
        );
        let out = bp.run(&s.net, &ProportionalFair, 6000);
        let t = out.flow_throughputs[0];
        assert!(t > 15.0 && t < 17.5, "throughput {t}");
    }

    #[test]
    fn larger_v_converges_slower() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let run = |v: f64| {
            let mut bp = Backpressure::new(
                &s.net,
                &imap,
                vec![(s.gateway, s.client)],
                BackpressureConfig { v, ..Default::default() },
            );
            let out = bp.run(&s.net, &ProportionalFair, 4000);
            let traj: Vec<f64> = out.trajectory.iter().map(|t| t[0]).collect();
            empower_cc::slots_to_converge(&traj).unwrap_or(usize::MAX)
        };
        let fast = run(50.0);
        let slow = run(1000.0);
        assert!(slow > fast, "V=1000 took {slow} ≤ V=50 took {fast}");
    }

    #[test]
    fn delivered_counts_accumulate() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let mut bp = Backpressure::new(
            &s.net,
            &imap,
            vec![(s.gateway, s.client)],
            BackpressureConfig::default(),
        );
        let out = bp.run(&s.net, &ProportionalFair, 500);
        assert!(out.delivered_mb[0] > 0.0);
        assert_eq!(out.trajectory.len(), 500);
    }

    #[test]
    fn no_traffic_without_flows() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let mut bp = Backpressure::new(&s.net, &imap, vec![], BackpressureConfig::default());
        let out = bp.run(&s.net, &ProportionalFair, 100);
        assert!(out.flow_throughputs.is_empty());
    }

    #[test]
    fn queues_stay_bounded() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let mut bp = Backpressure::new(
            &s.net,
            &imap,
            vec![(s.gateway, s.client)],
            BackpressureConfig::default(),
        );
        bp.run(&s.net, &ProportionalFair, 3000);
        // Drift-plus-penalty keeps backlogs O(V): loose sanity bound.
        for node_q in &bp.queues {
            for &q in node_q {
                assert!(q < 10_000.0, "queue exploded: {q}");
            }
        }
    }
}
