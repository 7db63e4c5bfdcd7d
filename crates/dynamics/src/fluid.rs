//! The fluid-model equivalent of the packet-level driver.
//!
//! Instead of injecting events into a virtual clock, the timeline is cut
//! at every fault instant and the §4.3 equilibrium is solved per segment
//! on the mutated network — the quasi-static view of the same scenario.
//! Useful as a fast predictor of where the packet run should settle
//! between faults, and for scenarios far too long to simulate
//! packet-by-packet.

use empower_core::RunConfig;
use empower_telemetry::{impl_to_json_struct, Telemetry};

use crate::driver::build_topology;
use crate::injector::{self, NetMutator};
use crate::scenario::{Scenario, ScenarioError};

/// The equilibrium over one constant-topology stretch of the scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct FluidSegment {
    /// Segment start, seconds.
    pub from_secs: f64,
    /// Segment end, seconds.
    pub to_secs: f64,
    /// Equilibrium rate per scenario flow, Mb/s (0 = disconnected).
    pub flow_rates: Vec<f64>,
    /// Aggregate proportional-fair utility `Σ log(1 + x_f)`.
    pub utility: f64,
}

impl_to_json_struct!(FluidSegment { from_secs, to_secs, flow_rates, utility });

/// Cuts the document at its fault instants and solves each segment's
/// equilibrium of its `[[flows]]` on the mutated network.
///
/// # Errors
/// [`ScenarioError`] for events addressing links or nodes the topology
/// does not have.
pub fn fluid_timeline(
    scenario: &Scenario,
    tele: &Telemetry,
) -> Result<Vec<FluidSegment>, ScenarioError> {
    let (net, imap) = build_topology(scenario);
    scenario.validate()?;
    let faults = injector::compile(scenario, &net, &imap)?;
    let config =
        RunConfig::new(scenario.run.scheme).delta(scenario.run.delta).telemetry(tele.clone());
    let flows: Vec<_> = scenario
        .flows
        .iter()
        .map(|f| (empower_model::NodeId(f.src), empower_model::NodeId(f.dst)))
        .collect();

    // Segment boundaries: scenario start, every distinct fault time, the
    // horizon.
    let mut cuts: Vec<f64> = vec![0.0];
    cuts.extend(faults.iter().map(|f| f.at));
    cuts.push(scenario.run.horizon_secs);
    cuts.sort_by(f64::total_cmp);
    cuts.dedup();

    let mut current = net;
    let mut mutator = NetMutator::new(&current);
    let mut applied = 0usize;
    let mut out = Vec::with_capacity(cuts.len().saturating_sub(1));
    for w in cuts.windows(2) {
        let (from, to) = (w[0], w[1]);
        // Apply every fault at or before the segment start.
        while applied < faults.len() && faults[applied].at <= from {
            mutator.apply(&mut current, faults[applied].action);
            applied += 1;
        }
        if to <= from {
            continue;
        }
        #[expect(
            clippy::expect_used,
            reason = "the RunConfig built above leaves strict connectivity off, which is \
                      evaluate_equilibrium's only error"
        )]
        let eq = config
            .evaluate_equilibrium(&current, &imap, &flows)
            .expect("strict connectivity is off; evaluation cannot fail");
        out.push(FluidSegment {
            from_secs: from,
            to_secs: to,
            flow_rates: eq.flow_rates,
            utility: eq.utility,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{
        FlowSpec, PatternSpec, Perturbation, RunSpec, Scenario, TimedPerturbation, TopologyKind,
        TopologySpec,
    };
    use empower_core::Scheme;

    fn drop_and_restore() -> Scenario {
        Scenario {
            name: "fluid".into(),
            topology: TopologySpec { kind: TopologyKind::Fig1, seed: 1 },
            run: RunSpec {
                scheme: Scheme::Empower,
                seed: 1,
                horizon_secs: 90.0,
                poll_secs: 0.5,
                delta: 0.0,
                recovery_fraction: 0.9,
                noise: 0.0,
            },
            clients: vec![],
            flows: vec![FlowSpec {
                src: 0,
                dst: 2,
                pattern: PatternSpec::Saturated { start: 0.0, stop: 90.0 },
            }],
            events: vec![
                TimedPerturbation {
                    at: 30.0,
                    what: Perturbation::LinkDown { link: 2, both: true },
                },
                TimedPerturbation {
                    at: 60.0,
                    what: Perturbation::LinkUp { link: 2, capacity_mbps: None, both: true },
                },
            ],
            generators: vec![],
        }
    }

    #[test]
    fn segments_follow_the_fault_timeline() {
        let segs = fluid_timeline(&drop_and_restore(), &Telemetry::disabled()).unwrap();
        assert_eq!(segs.len(), 3);
        assert_eq!((segs[0].from_secs, segs[0].to_secs), (0.0, 30.0));
        assert_eq!((segs[1].from_secs, segs[1].to_secs), (30.0, 60.0));
        assert_eq!((segs[2].from_secs, segs[2].to_secs), (60.0, 90.0));
        // Losing the gateway→extender WiFi link hurts the equilibrium,
        // restoring it brings the rate back exactly.
        assert!(segs[1].flow_rates[0] < segs[0].flow_rates[0] - 1.0);
        assert!((segs[2].flow_rates[0] - segs[0].flow_rates[0]).abs() < 1e-6);
    }
}
