//! The telemetry acceptance property: two runs with the same seed must
//! produce *byte-identical* observability output — counter snapshots,
//! trace streams, and rendered manifests. Virtual time (not wall clock)
//! stamps every record, so nothing here may depend on the host.

use empower_bench::sweep::run_one_traced;
use empower_core::model::topology::{fig1_scenario, testbed22};
use empower_core::model::{CarrierSense, InterferenceModel, SharedMedium};
use empower_core::sim::{SimConfig, TrafficPattern};
use empower_core::telemetry::{Manifest, Telemetry};
use empower_core::{RunConfig, Scheme};
use empower_model::topology::random::TopologyClass;

/// Renders everything observable about a registry into one string.
fn observe(tele: &Telemetry, experiment: &str) -> String {
    let mut m = Manifest::new(experiment);
    m.attach_counters(tele);
    format!("{}\n---\n{}", m.render(), tele.trace_jsonl())
}

#[test]
fn fluid_sweep_telemetry_is_byte_identical_across_same_seed_runs() {
    let schemes = [Scheme::Empower, Scheme::Sp, Scheme::SpWifi];
    let observed: Vec<String> = (0..2)
        .map(|_| {
            let tele = Telemetry::enabled();
            for seed in [11u64, 12, 13] {
                run_one_traced(TopologyClass::Residential, seed, 1, &schemes, &tele);
            }
            observe(&tele, "fluid_sweep")
        })
        .collect();
    assert_eq!(observed[0], observed[1]);
    // The equilibrium solver records route counts (the slotted-controller
    // counters only appear under `evaluate_fluid`).
    assert!(observed[0].contains("eval/flows"), "counters present");
    assert!(observed[0].contains("sweep/runs"), "sweep tally present");
}

#[test]
fn packet_sim_telemetry_is_byte_identical_across_same_seed_runs() {
    let s = fig1_scenario();
    let imap = SharedMedium.build_map(&s.net);
    let flows = [(s.gateway, s.client, TrafficPattern::SaturatedUdp { start: 0.0, stop: 30.0 })];
    let observed: Vec<String> = (0..2)
        .map(|_| {
            let tele = Telemetry::enabled();
            let (mut sim, _) = RunConfig::new(Scheme::Empower)
                .telemetry(tele.clone())
                .build_simulation(
                    &s.net,
                    &imap,
                    &flows,
                    SimConfig { seed: 9, ..Default::default() },
                )
                .unwrap();
            sim.run(30.0);
            observe(&tele, "fig1_packet")
        })
        .collect();
    assert_eq!(observed[0], observed[1]);
    let snap_line = &observed[0];
    for name in ["mac/grants", "datapath/reorder_delivered", "flow/0/acks_sent"] {
        assert!(snap_line.contains(name), "{name} missing from manifest");
    }
}

#[test]
fn different_seeds_actually_change_the_telemetry() {
    // Guards against the vacuous version of the property above (e.g. a
    // registry that never records anything would also be "identical").
    let t = testbed22(1);
    let imap = CarrierSense::default().build_map(&t.net);
    let flows = [(t.node(2), t.node(11), TrafficPattern::SaturatedUdp { start: 0.0, stop: 20.0 })];
    let observed: Vec<String> = [3u64, 4]
        .iter()
        .map(|&seed| {
            let tele = Telemetry::enabled();
            let (mut sim, _) = RunConfig::new(Scheme::Empower)
                .telemetry(tele.clone())
                .build_simulation(&t.net, &imap, &flows, SimConfig { seed, ..Default::default() })
                .unwrap();
            sim.run(20.0);
            observe(&tele, "seed_sensitivity")
        })
        .collect();
    assert_ne!(observed[0], observed[1], "MAC jitter is seeded; traces must differ");
}

#[test]
fn streamed_trace_file_matches_the_in_memory_ring() {
    let dir = std::env::temp_dir().join("empower_telemetry_determinism");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.jsonl");
    let path_s = path.to_str().unwrap();

    let s = fig1_scenario();
    let imap = SharedMedium.build_map(&s.net);
    let flows = [(s.gateway, s.client, TrafficPattern::SaturatedUdp { start: 0.0, stop: 10.0 })];
    let tele = Telemetry::enabled();
    tele.stream_trace_to(path_s).unwrap();
    let (mut sim, _) = RunConfig::new(Scheme::Empower)
        .telemetry(tele.clone())
        .build_simulation(&s.net, &imap, &flows, SimConfig::default())
        .unwrap();
    sim.run(10.0);
    tele.flush().unwrap();
    let streamed = std::fs::read_to_string(path_s).unwrap();
    assert_eq!(tele.trace_evicted(), 0, "ring did not wrap in this short run");
    assert_eq!(streamed, tele.trace_jsonl());
    std::fs::remove_file(path_s).ok();
}
