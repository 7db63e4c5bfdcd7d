//! The PR-5 safety net, doubling since the forwarding-graph redesign as
//! the graph-vs-monolith equivalence gate: every corpus scenario must
//! produce **byte-identical** results on the optimized engine (whose
//! datapath stages now run as `empower-datapath` graph nodes behind
//! `FlowDatapath`) and on the retained reference engine (the frozen
//! pre-refactor monolith, still driving `RouteScheduler`/`ReorderBuffer`/
//! `AckCollector`/`DelayEqualizer` directly) — the full `SimReport` debug
//! rendering, the packet trace JSONL and the telemetry manifest.
//!
//! The same sweep holds the optimized engine to its hot-path work budget:
//! with trace and telemetry detached, both engines must dispatch the same
//! events and the optimized one must stay within the allocation budget
//! below.
//!
//! Set `EMPOWER_SIM_EQUIV_SCENARIOS=<n>` to trim the corpus for quick local
//! iterations; CI runs the full set.

mod common;

use common::scenario_budget;
use empower_sim::corpus::{corpus, run_scenario, run_scenario_plain};
use empower_sim::{ReferenceSimulation, Simulation};

/// Steady-state hot-path allocations the optimized engine may make over
/// the swept corpus (all of them slab warm-up grows): 2308 on the full
/// 23 scenarios, 1194 on the 10-scenario Fig. 1 prefix, ~5 % headroom.
const MAX_HOT_ALLOCS: u64 = 2430;
/// Floor on reference / optimized hot-path allocations: 110x on the full
/// corpus, 83x on the Fig. 1 prefix, never below 79x on any prefix.
const MIN_ALLOC_RATIO: u64 = 60;

#[test]
fn optimized_engine_is_byte_identical_to_reference_on_the_corpus() {
    let scenarios = corpus();
    let n = scenario_budget().min(scenarios.len());
    for s in &scenarios[..n] {
        let opt = run_scenario::<Simulation>(s);
        let reference = run_scenario::<ReferenceSimulation>(s);
        assert_eq!(opt.report, reference.report, "{}: SimReport diverged", s.name);
        assert_eq!(opt.trace, reference.trace, "{}: packet trace diverged", s.name);
        assert_eq!(opt.manifest, reference.manifest, "{}: telemetry manifest diverged", s.name);
    }
}

#[test]
fn optimized_engine_stays_within_its_hot_path_budget() {
    let scenarios = corpus();
    let n = scenario_budget().min(scenarios.len());
    let (mut opt_allocs, mut ref_allocs) = (0u64, 0u64);
    for s in &scenarios[..n] {
        let (opt_report, opt) = run_scenario_plain::<Simulation>(s);
        let (ref_report, reference) = run_scenario_plain::<ReferenceSimulation>(s);
        assert_eq!(opt_report, ref_report, "{}: plain-run SimReport diverged", s.name);
        assert_eq!(
            opt.events_dispatched, reference.events_dispatched,
            "{}: engines dispatched different event counts",
            s.name
        );
        opt_allocs += opt.hot_allocs;
        ref_allocs += reference.hot_allocs;
    }
    assert!(
        opt_allocs <= MAX_HOT_ALLOCS,
        "{opt_allocs} steady-state hot-path allocations exceed the budget of {MAX_HOT_ALLOCS}"
    );
    assert!(
        ref_allocs >= MIN_ALLOC_RATIO * opt_allocs,
        "reference/optimized allocations {ref_allocs}/{opt_allocs} fell below {MIN_ALLOC_RATIO}x"
    );
}

#[test]
fn corpus_runs_are_reproducible_within_one_engine() {
    // A weaker but faster invariant checked on one scenario per topology
    // family: the same descriptor renders identically twice (no ambient
    // nondeterminism in either engine).
    let scenarios = corpus();
    for name in ["fig1_multipath", "testbed_pair_1_4_13"] {
        let s = scenarios.iter().find(|s| s.name == name).expect("corpus scenario exists");
        assert_eq!(run_scenario::<Simulation>(s), run_scenario::<Simulation>(s), "{name}");
        assert_eq!(
            run_scenario::<ReferenceSimulation>(s),
            run_scenario::<ReferenceSimulation>(s),
            "{name}"
        );
    }
}
