//! The workload corpus gate: every reference scenario must replay
//! **byte-identically** — across repeated runs of the optimized engine and
//! across the optimized/frozen-reference engine pair — in all four
//! renderings (SLO report, flow report, packet trace, telemetry manifest).
//!
//! `EMPOWER_WORKLOAD_SCENARIOS=N` trims the sweep to the first `N`
//! scenarios (quick CI mode), mirroring `EMPOWER_SIM_EQUIV_SCENARIOS`.

use empower_sim::{ReferenceSimulation, Simulation};
use empower_workload::corpus::{run_workload_scenario, workload_corpus, WorkloadScenario};

fn parse_scenario_count(raw: &str) -> usize {
    raw.parse()
        .unwrap_or_else(|_| panic!("EMPOWER_WORKLOAD_SCENARIOS={raw} is not a scenario count"))
}

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

/// The campus scenario runs floors in independent interference atoms, so
/// the sharded simulator spreads it across workers — every rendering must
/// still be byte-identical for any shard count (DESIGN.md §13), and the
/// complete renderings (SLO, report, manifest) must match the
/// single-threaded engine exactly. (The trace is compared across shard
/// counts only: the sharded engine emits canonical trace order, and the
/// bounded trace cap may cut the two engines' orderings differently.)
#[test]
fn campus_scenario_is_byte_identical_across_shard_counts() {
    use empower_sim::corpus::ShardedN;

    let corpus = workload_corpus();
    let s = corpus.last().expect("corpus is non-empty");
    assert_eq!(s.name, "campus_scale");
    let single = run_workload_scenario::<Simulation>(s).unwrap();
    let base = run_workload_scenario::<ShardedN<1>>(s).unwrap();
    assert_eq!(single.slo, base.slo, "shards=1 SLO diverged from single-threaded");
    assert_eq!(single.report, base.report, "shards=1 report diverged from single-threaded");
    assert_eq!(single.manifest, base.manifest, "shards=1 manifest diverged from single-threaded");
    let two = run_workload_scenario::<ShardedN<2>>(s).unwrap();
    let four = run_workload_scenario::<ShardedN<4>>(s).unwrap();
    let eight = run_workload_scenario::<ShardedN<8>>(s).unwrap();
    assert_eq!(base, two, "shards=2 diverged from shards=1");
    assert_eq!(base, four, "shards=4 diverged from shards=1");
    assert_eq!(base, eight, "shards=8 diverged from shards=1");
}
