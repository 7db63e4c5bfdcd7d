#![forbid(unsafe_code)]
//! The sharded-simulation equivalence gate (DESIGN.md §13): the sharded
//! engine must produce **byte-identical** `SimReport`s, telemetry
//! manifests and canonical packet traces
//!
//! * across shard counts 1/2/4/8 on the full corpus, and
//! * versus the single-threaded engine on the full corpus and on a
//!   generated 1000+-node campus.
//!
//! A violation means a scale experiment rerun with a different shard
//! count (or on a box with a different core count) would silently change
//! its figures — the exact bug class the deterministic merge rules exist
//! to rule out.
//!
//! Set `EMPOWER_SIM_EQUIV_SCENARIOS=<n>` to trim the corpus for quick
//! local iterations; CI runs the full set.

mod common;

use common::scenario_budget;
use empower_model::rng::{SeedableRng, StdRng};
use empower_model::topology::campus::{campus, CampusConfig};
use empower_model::{CarrierSense, InterferenceModel, Path};
use empower_sim::corpus::{corpus, run_scenario, ShardedN as Sharded};
use empower_sim::{FlowSpecSim, ShardedSimulation, SimConfig, Simulation, Trace};
use empower_telemetry::{Json, Manifest, Telemetry};

/// Floor on the campus gate's 4-shard counter speedup (single-threaded
/// events ÷ the busiest shard's events): the point below which sharding
/// stops paying for itself. 3.48 on this gate's 10 flows; 3.96 with one
/// flow per floor (100 flows, 5 s).
const MIN_COUNTER_SPEEDUP_4_SHARDS: f64 = 1.8;

/// Re-sorts a JSONL trace into canonical `(time, line)` order, the order
/// the sharded engine emits natively (see `Trace::canonical_jsonl`).
fn canon(trace: &str) -> String {
    let mut lines: Vec<(u64, &str)> = trace
        .lines()
        .map(|l| {
            let v = Json::parse(l).expect("trace line parses");
            let t = v.get("t").and_then(|t| t.as_f64()).expect("trace line has a time");
            (t.to_bits(), l)
        })
        .collect();
    lines.sort();
    let mut out = String::new();
    for (_, l) in lines {
        out.push_str(l);
        out.push('\n');
    }
    out
}

#[test]
fn sharded_engine_is_byte_identical_across_shard_counts_on_the_corpus() {
    let scenarios = corpus();
    let n = scenario_budget().min(scenarios.len());
    for s in &scenarios[..n] {
        let one = run_scenario::<Sharded<1>>(s);
        let two = run_scenario::<Sharded<2>>(s);
        let four = run_scenario::<Sharded<4>>(s);
        let eight = run_scenario::<Sharded<8>>(s);
        assert_eq!(one, two, "{}: shards=2 diverged from shards=1", s.name);
        assert_eq!(one, four, "{}: shards=4 diverged from shards=1", s.name);
        assert_eq!(one, eight, "{}: shards=8 diverged from shards=1", s.name);
    }
}

#[test]
fn sharded_engine_matches_single_threaded_on_the_corpus() {
    let scenarios = corpus();
    let n = scenario_budget().min(scenarios.len());
    for s in &scenarios[..n] {
        let single = run_scenario::<Simulation>(s);
        let sharded = run_scenario::<Sharded<4>>(s);
        assert_eq!(single.report, sharded.report, "{}: SimReport diverged", s.name);
        assert_eq!(single.manifest, sharded.manifest, "{}: telemetry manifest diverged", s.name);
        // The sharded trace is canonical by construction; canonicalize the
        // single-threaded one for comparison.
        assert_eq!(canon(&single.trace), sharded.trace, "{}: packet trace diverged", s.name);
    }
}

/// The campus-scale gate: a generated 1011-node topology (10 buildings ×
/// 10 floors × 9 clients), one saturated router→client download per
/// building, short horizon. Byte-identity across shard counts AND versus
/// the single-threaded engine — and the plan must actually spread the
/// load (otherwise this gate would pass vacuously with one worker): at
/// 4 shards the busiest worker dispatches well under the single-threaded
/// engine's event count.
#[test]
fn campus_1000_nodes_is_byte_identical_across_shard_counts() {
    let mut rng = StdRng::seed_from_u64(42);
    let t = campus(&mut rng, &CampusConfig::new(10, 10, 9));
    assert!(t.net.node_count() >= 1000, "campus should be 1000+ nodes");
    let imap = CarrierSense::default().build_map(&t.net);

    // One hybrid multipath download on the first floor of each building.
    let mut specs = Vec::new();
    for b in 0..10 {
        let fl = &t.floors[b * 10];
        let c = fl.clients[0];
        let routes: Vec<Path> = t
            .net
            .out_links(fl.router)
            .filter(|l| l.to == c)
            .map(|l| Path::new(&t.net, vec![l.id]).expect("direct link is a valid path"))
            .collect();
        specs.push(FlowSpecSim::saturated(fl.router, c, routes, 2.0));
    }

    let run_single = || {
        let mut sim = Simulation::new(t.net.clone(), imap.clone(), SimConfig::default());
        sim.attach_telemetry(Telemetry::enabled());
        sim.attach_trace(Trace::new());
        for s in &specs {
            sim.add_flow(s.clone());
        }
        sim.run_until(2.0);
        let mut m = Manifest::new("campus_gate");
        m.attach_counters(sim.telemetry());
        let trace = sim.take_trace().map(|t| t.canonical_jsonl()).unwrap_or_default();
        let events = sim.perf_stats().events_dispatched;
        ((format!("{:?}", sim.report(2.0)), trace, m.render()), events)
    };
    let run_sharded = |shards: u32| {
        let mut sim = ShardedSimulation::with_shards(
            t.net.clone(),
            imap.clone(),
            SimConfig::default(),
            shards,
        );
        sim.attach_telemetry(Telemetry::enabled());
        sim.attach_trace(Trace::new());
        for s in &specs {
            sim.add_flow(s.clone());
        }
        sim.run_until(2.0);
        let mut m = Manifest::new("campus_gate");
        m.attach_counters(sim.telemetry());
        let used = sim.shards_used();
        let busiest = sim.shard_events_dispatched().into_iter().max().unwrap_or(0);
        let trace = sim.take_trace().map(|t| t.to_jsonl()).unwrap_or_default();
        ((format!("{:?}", sim.report(2.0)), trace, m.render()), used, busiest)
    };

    let (single, seq_events) = run_single();
    assert!(!single.1.is_empty(), "campus run should produce trace events");
    let (base, used1, _) = run_sharded(1);
    assert_eq!(used1, 1);
    assert_eq!(single, base, "shards=1 diverged from the single-threaded engine");
    for shards in [2, 4, 8] {
        let (out, used, busiest) = run_sharded(shards);
        assert!(used >= 2, "shards={shards} should spread flows over >1 worker");
        assert_eq!(base, out, "shards={shards} diverged from shards=1");
        if shards == 4 {
            let speedup = seq_events as f64 / busiest.max(1) as f64;
            assert!(
                speedup >= MIN_COUNTER_SPEEDUP_4_SHARDS,
                "4-shard counter speedup {speedup:.2} fell below {MIN_COUNTER_SPEEDUP_4_SHARDS}"
            );
        }
    }
}
