//! The workload corpus gate: every reference scenario must replay
//! **byte-identically** — across repeated runs of the optimized engine and
//! across the optimized/frozen-reference engine pair — in all four
//! renderings (SLO report, flow report, packet trace, telemetry manifest).
//! The two entries with a fault timeline put the driver's poll-and-reroute
//! loop on both engines.
//!
//! `EMPOWER_WORKLOAD_SCENARIOS=N` trims the sweep to the first `N`
//! scenarios (quick CI mode), mirroring `EMPOWER_SIM_EQUIV_SCENARIOS`.

use empower_sim::{ReferenceSimulation, SimConfig, Simulation};
use empower_workload::corpus::{run_workload_scenario, workload_corpus, WorkloadScenario};
use empower_workload::routes::build_topology;
use empower_workload::{compile, Workload};

fn parse_scenario_count(raw: &str) -> usize {
    raw.parse()
        .unwrap_or_else(|_| panic!("EMPOWER_WORKLOAD_SCENARIOS={raw} is not a scenario count"))
}

#[expect(
    clippy::disallowed_methods,
    reason = "EMPOWER_WORKLOAD_SCENARIOS: prefix of the workload corpus to sweep (quick CI trims to 1)"
)]
fn gated_corpus() -> Vec<WorkloadScenario> {
    let mut c = workload_corpus();
    if let Some(n) = std::env::var_os("EMPOWER_WORKLOAD_SCENARIOS") {
        c.truncate(parse_scenario_count(&n.to_string_lossy()).max(1));
    }
    c
}

#[test]
#[should_panic(expected = "EMPOWER_WORKLOAD_SCENARIOS=ten is not a scenario count")]
fn an_unparsable_scenario_count_is_an_error() {
    parse_scenario_count("ten");
}

#[test]
fn workload_scenarios_replay_byte_identically() {
    for s in gated_corpus() {
        let a =
            run_workload_scenario::<Simulation>(&s).unwrap_or_else(|e| panic!("{}: {e}", s.name));
        let b = run_workload_scenario::<Simulation>(&s).unwrap();
        assert_eq!(a.slo, b.slo, "{}: SLO replay", s.name);
        assert_eq!(a.report, b.report, "{}: report replay", s.name);
        assert_eq!(a.trace, b.trace, "{}: trace replay", s.name);
        assert_eq!(a.manifest, b.manifest, "{}: manifest replay", s.name);
    }
}

#[test]
fn workload_scenarios_agree_across_engines() {
    for s in gated_corpus() {
        let opt = run_workload_scenario::<Simulation>(&s).unwrap();
        let reference = run_workload_scenario::<ReferenceSimulation>(&s)
            .unwrap_or_else(|e| panic!("{}: {e}", s.name));
        assert_eq!(opt.slo, reference.slo, "{}: SLO engines agree", s.name);
        assert_eq!(opt.report, reference.report, "{}: report engines agree", s.name);
        assert_eq!(opt.trace, reference.trace, "{}: trace engines agree", s.name);
        assert_eq!(opt.manifest, reference.manifest, "{}: manifest engines agree", s.name);
    }
}

/// `ShardedN` is a façade over one engine, kept for the benchmark's
/// `sim.sharded.*` probe: on the campus scenario it renders every byte the
/// engine does, trace included, and its per-shard work figures describe
/// that one engine.
#[test]
fn campus_scenario_is_byte_identical_across_shard_counts() {
    use empower_sim::corpus::{ShardedN, SimEngine};

    let corpus = workload_corpus();
    let s = corpus.iter().find(|s| s.name == "campus_scale").expect("the campus entry");
    let single = run_workload_scenario::<Simulation>(s).unwrap();
    assert_eq!(single, run_workload_scenario::<ShardedN<2>>(s).unwrap(), "façade diverged");

    let w = Workload::parse_str(s.toml).unwrap();
    let (net, imap) = build_topology(&w.topology);
    let compiled = compile(&w, &net).unwrap();
    let cfg =
        SimConfig { seed: w.run.seed, estimation_rel_std: w.run.noise, ..SimConfig::default() };
    let mut sim = ShardedN::<2>::build(net, imap, cfg);
    for f in &compiled.flows {
        sim.add_flow(f.spec.clone());
    }
    sim.run_until(w.run.horizon_secs);
    let events = sim.perf_stats().events_dispatched;
    assert!(events > 0);
    assert_eq!(sim.0.shards_used(), 1);
    assert_eq!(sim.0.shard_events_dispatched(), vec![events]);
}
