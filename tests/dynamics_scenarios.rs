//! Integration tests for the dynamics subsystem: serialization round
//! trips that replay bit-identically, and the §3.2 recovery story — a
//! mid-run link failure must trigger a reroute that restores goodput.

use empower_core::Scheme;
use empower_dynamics::{
    run_scenario, run_scenario_on, FlowSpec, GeneratorSpec, PatternSpec, Perturbation, RunSpec,
    Scenario, TimedPerturbation, TopologyKind, TopologySpec,
};
use empower_model::topology::fig1_scenario;
use empower_model::{InterferenceModel, SharedMedium};
use empower_telemetry::Telemetry;

fn churny_scenario(seed: u64) -> Scenario {
    Scenario {
        name: "churny".into(),
        topology: TopologySpec { kind: TopologyKind::Fig1, seed: 1 },
        run: RunSpec {
            scheme: Scheme::Empower,
            seed,
            horizon_secs: 40.0,
            poll_secs: 0.5,
            delta: 0.0,
            recovery_fraction: 0.9,
            noise: 0.0,
        },
        clients: vec![],
        flows: vec![FlowSpec {
            src: 0,
            dst: 2,
            pattern: PatternSpec::Saturated { start: 0.0, stop: 40.0 },
        }],
        events: vec![
            TimedPerturbation {
                at: 12.0,
                what: Perturbation::Capacity { link: 2, capacity_mbps: 3.0, both: true },
            },
            TimedPerturbation {
                at: 25.0,
                what: Perturbation::LinkUp { link: 2, capacity_mbps: None, both: true },
            },
        ],
        generators: vec![GeneratorSpec::MarkovOnOff {
            link: 0,
            mean_up_secs: 15.0,
            mean_down_secs: 3.0,
            from: 0.0,
            until: None,
            both: true,
        }],
    }
}

/// The property the scenario format exists for: serialize → reparse →
/// replay produces the byte-identical telemetry trace, across seeds.
#[test]
fn toml_round_trip_replays_to_an_identical_trace() {
    for seed in [1u64, 7, 42] {
        let original = churny_scenario(seed);
        let reparsed = Scenario::parse_str(&original.to_toml()).expect("round trip parses");
        assert_eq!(reparsed, original, "seed {seed}: TOML round trip is identity");

        let run = |s: &Scenario| {
            let tele = Telemetry::enabled();
            run_scenario(s, &tele).expect("scenario runs");
            (tele.snapshot(), tele.trace_jsonl())
        };
        let (snap_a, trace_a) = run(&original);
        let (snap_b, trace_b) = run(&reparsed);
        assert_eq!(snap_a, snap_b, "seed {seed}: counter snapshots diverge");
        assert_eq!(trace_a, trace_b, "seed {seed}: telemetry traces diverge");
        assert!(trace_a.contains("dynamics"), "seed {seed}: the driver recorded dynamics events");
    }
}

/// JSON is the second wire format; it must round trip through the same
/// typed model.
#[test]
fn json_and_toml_agree_on_the_same_scenario() {
    let s = churny_scenario(3);
    let from_json = Scenario::parse_str(&s.to_json().to_string_pretty()).expect("JSON parses");
    let from_toml = Scenario::parse_str(&s.to_toml()).expect("TOML parses");
    assert_eq!(from_json, from_toml);
}

/// §3.2: a mid-run link failure on the active route must be detected by
/// the route monitor and rerouted around, with goodput recovering to at
/// least 90 % of the pre-fault level before the horizon.
#[test]
fn link_down_forces_a_reroute_and_goodput_recovers() {
    // Single path (SP) on fig1 picks the two-hop WiFi route (cost 1/15 +
    // 1/30 < 1/10 + 1/30); killing the gateway↔extender WiFi link leaves
    // the PLC alternative, whose path capacity is the same 10 Mb/s.
    let fault_at = 30.0;
    let horizon = 120.0;
    let scenario = Scenario {
        name: "wifi backhaul dies".into(),
        topology: TopologySpec { kind: TopologyKind::Fig1, seed: 1 },
        run: RunSpec {
            scheme: Scheme::Sp,
            seed: 1,
            horizon_secs: horizon,
            poll_secs: 0.5,
            delta: 0.0,
            recovery_fraction: 0.9,
            noise: 0.0,
        },
        clients: vec![],
        flows: vec![FlowSpec {
            src: 0,
            dst: 2,
            pattern: PatternSpec::Saturated { start: 0.0, stop: horizon },
        }],
        events: vec![TimedPerturbation {
            at: fault_at,
            what: Perturbation::LinkDown { link: 2, both: true },
        }],
        generators: vec![],
    };
    let fig1 = fig1_scenario();
    let imap = SharedMedium.build_map(&fig1.net);
    let tele = Telemetry::enabled();
    let outcome = run_scenario_on(&scenario, &fig1.net, &imap, &tele).expect("scenario runs");

    // The monitor saw the failure and installed a replacement route.
    assert!(
        outcome.reroutes.iter().any(|r| r.reason == "link_failure" && r.routes > 0),
        "expected a link-failure reroute, got {:?}",
        outcome.reroutes
    );
    let m = &outcome.resilience[0];
    assert_eq!(m.fault_at_secs, fault_at);
    assert!(m.time_to_detect_secs.is_some(), "the monitor never triggered");
    assert!(m.time_to_detect_secs.unwrap() <= 1.0, "detection took {:?}", m.time_to_detect_secs);

    // Goodput is back to ≥ 90 % of the pre-fault baseline.
    let series = &outcome.aggregate_series;
    let pre = series[(fault_at as usize - 10)..fault_at as usize].iter().sum::<f64>() / 10.0;
    let tail = &series[series.len() - 20..];
    let recovered = tail.iter().sum::<f64>() / tail.len() as f64;
    assert!(
        recovered >= 0.9 * pre,
        "goodput did not recover: pre-fault {pre:.2} Mbps, tail {recovered:.2} Mbps"
    );
    assert!(
        m.time_to_reconverge_secs.is_some(),
        "reconvergence never detected (baseline {:.2}, series tail {:?})",
        m.baseline_mbps,
        &series[series.len() - 5..]
    );
}

/// A node crash takes every adjacent link down; recovery restores the
/// pre-crash capacities and the flow comes back from disconnection.
#[test]
fn node_crash_disconnects_and_recovery_reconnects() {
    let horizon = 60.0;
    let scenario = Scenario {
        name: "extender reboots".into(),
        topology: TopologySpec { kind: TopologyKind::Fig1, seed: 1 },
        run: RunSpec {
            scheme: Scheme::Empower,
            seed: 1,
            horizon_secs: horizon,
            poll_secs: 0.5,
            delta: 0.0,
            recovery_fraction: 0.5,
            noise: 0.0,
        },
        clients: vec![],
        flows: vec![FlowSpec {
            src: 0,
            dst: 2,
            pattern: PatternSpec::Saturated { start: 0.0, stop: horizon },
        }],
        // Node 1 is the extender: every fig1 path crosses it, so the flow
        // is fully disconnected until the node returns.
        events: vec![
            TimedPerturbation { at: 20.0, what: Perturbation::NodeDown { node: 1 } },
            TimedPerturbation { at: 35.0, what: Perturbation::NodeUp { node: 1 } },
        ],
        generators: vec![],
    };
    let outcome = run_scenario(&scenario, &Telemetry::disabled()).expect("scenario runs");
    assert!(
        outcome.reroutes.iter().any(|r| r.routes == 0),
        "the crash should leave the flow without routes: {:?}",
        outcome.reroutes
    );
    let reconnect = outcome
        .reroutes
        .iter()
        .find(|r| r.reason == "reconnected")
        .expect("the flow reconnects after the node recovers");
    assert!(reconnect.at >= 35.0 && reconnect.routes > 0);
    // Traffic actually flows again after the reconnect.
    let tail = &outcome.aggregate_series[50..];
    assert!(
        tail.iter().sum::<f64>() / tail.len() as f64 > 1.0,
        "no goodput after recovery: {tail:?}"
    );
}

/// Two identical CLI-style runs must write byte-identical manifests —
/// checked here at the outcome level (the ci.sh smoke test covers the
/// binary itself).
#[test]
fn same_seed_runs_are_bit_identical() {
    let s = churny_scenario(5);
    let run = |s: &Scenario| {
        let tele = Telemetry::enabled();
        let o = run_scenario(s, &tele).expect("runs");
        (o.aggregate_series.clone(), o.reroutes.clone(), tele.trace_jsonl())
    };
    assert_eq!(run(&s), run(&s));
}
