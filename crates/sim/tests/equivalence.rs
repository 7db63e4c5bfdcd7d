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
//! below. A second budget holds the control tick to what is active, and
//! one scenario local to this file (the corpus stays at 23) makes links
//! join the tick's active sets late, by every way there is.
//!
//! Set `EMPOWER_SIM_EQUIV_SCENARIOS=<n>` to trim the corpus for quick local
//! iterations; CI runs the full set.

mod common;

use common::scenario_budget;
use empower_model::topology::testbed22;
use empower_model::{CarrierSense, InterferenceModel, LinkId, Medium, Network, NodeId, Path};
use empower_sim::corpus::{corpus, run_scenario, run_scenario_plain, CorpusOutput, SimEngine};
use empower_sim::{FlowSpecSim, ReferenceSimulation, SimConfig, Simulation, Trace, TrafficPattern};
use empower_telemetry::{Manifest, Telemetry};

/// Steady-state hot-path allocations the optimized engine may make over
/// the swept corpus (all of them slab warm-up grows): 2308 on the full
/// 23 scenarios, 1194 on the 10-scenario Fig. 1 prefix, ~5 % headroom.
const MAX_HOT_ALLOCS: u64 = 2430;
/// Floor on reference / optimized hot-path allocations: 110x on the full
/// corpus, 83x on the Fig. 1 prefix, never below 79x on any prefix.
const MIN_ALLOC_RATIO: u64 = 60;
/// Ceiling on what the control ticks of a single download on the testbed
/// may visit, as a share of what visiting every link and every member of
/// every interference domain each slot would: 2.6 % measured.
const MAX_TICK_VISIT_SHARE: f64 = 0.1;

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

/// The testbed node the paper prints as `number`.
fn node(number: u32) -> NodeId {
    NodeId(number - 1)
}

/// A route over `hops` (paper node numbers) on `medium`.
fn route(net: &Network, hops: &[u32], medium: Medium) -> Path {
    let links: Vec<LinkId> = hops
        .windows(2)
        .map(|w| net.find_link(node(w[0]), node(w[1]), medium).expect("hop exists").id)
        .collect();
    Path::new(net, links).expect("hops are adjacent")
}

#[test]
fn control_ticks_visit_what_is_active_not_every_domain() {
    // Table 1 Short's shape: one 5 MB download on flow 6-13 of the
    // testbed, then an idle tail to 120 s.
    let t = testbed22(1);
    let imap = CarrierSense::default().build_map(&t.net);
    let links = t.net.link_count();
    let domain_elems: usize = t.net.links().iter().map(|l| imap.domain(l.id).len()).sum();
    let cfg = SimConfig { delta: 0.05, ..SimConfig::default() };
    let ticks = (120.0 / cfg.slot_secs) as u64;
    let routes = vec![
        route(&t.net, &[6, 13], Medium::Plc),
        route(&t.net, &[6, 4, 13], Medium::WIFI1),
        route(&t.net, &[6, 8, 13], Medium::WIFI2),
    ];
    let mut sim = Simulation::new(t.net, imap, cfg);
    sim.add_flow(FlowSpecSim {
        pattern: TrafficPattern::FileDownload { start: 0.0, size_bytes: 5_000_000 },
        ..FlowSpecSim::saturated(node(6), node(13), routes, 120.0)
    });
    let report = sim.run(120.0);
    assert_eq!(report.flows[0].completions.len(), 1, "the download completes");
    let visits = sim.perf_stats().tick_visits;
    let every_slot_everything = ticks * (links + domain_elems) as u64;
    assert!(visits > 0, "the control plane ran");
    assert!(
        visits as f64 <= MAX_TICK_VISIT_SHARE * every_slot_everything as f64,
        "{ticks} ticks visited {visits} elements, over {MAX_TICK_VISIT_SHARE} of \
         {every_slot_everything} ({links} links, {domain_elems} domain members)"
    );
}

/// Every way a link can join the control tick's active sets after the run
/// began, in one run on the testbed: a second flow starts at 40 s on links
/// idle until then, a loaded link dies (its demand reads 1.2 while frames
/// are still offered to it) and revives (its γ is reset), and a route
/// replacement moves the first flow onto links never used before.
fn late_joiners<E: SimEngine>(noise: f64, delta: f64) -> CorpusOutput {
    let t = testbed22(1);
    let imap = CarrierSense::default().build_map(&t.net);
    let cfg = SimConfig { seed: 3, estimation_rel_std: noise, delta, ..SimConfig::default() };
    let plc_1_13 = route(&t.net, &[1, 13], Medium::Plc);
    let first = vec![plc_1_13.clone(), route(&t.net, &[1, 4, 13], Medium::WIFI1)];
    let second =
        vec![route(&t.net, &[5, 9], Medium::Plc), route(&t.net, &[5, 3, 9], Medium::WIFI1)];
    let moved =
        vec![route(&t.net, &[1, 8, 13], Medium::WIFI2), route(&t.net, &[1, 2, 13], Medium::Plc)];
    let dying = plc_1_13.links()[0];
    let capacity = t.net.link(dying).capacity_mbps;

    let mut sim = E::build(t.net, imap, cfg);
    sim.attach_telemetry(Telemetry::enabled());
    sim.attach_trace(Trace::new());
    sim.add_flow(FlowSpecSim::saturated(node(1), node(13), first, 55.0));
    sim.add_flow(FlowSpecSim {
        pattern: TrafficPattern::SaturatedUdp { start: 40.0, stop: 55.0 },
        ..FlowSpecSim::saturated(node(5), node(9), second, 55.0)
    });
    sim.schedule_link_change(5.0, dying, 0.0);
    sim.schedule_link_change(12.0, dying, capacity);
    sim.run_until(47.0);
    assert_eq!(sim.replace_routes(0, moved), 2);
    sim.run_until(55.0);
    rendered(&mut sim, "late_joiners", 55.0)
}

/// The three byte-compared renderings of a finished run, as
/// `corpus::run_scenario` takes them.
fn rendered<E: SimEngine>(sim: &mut E, name: &str, duration: f64) -> CorpusOutput {
    let report = sim.report(duration);
    let mut m = Manifest::new(name);
    m.attach_counters(sim.telemetry());
    let trace = sim.take_trace().map(|t| t.to_jsonl()).unwrap_or_default();
    CorpusOutput { report: format!("{report:?}"), trace, manifest: m.render() }
}

#[test]
fn links_that_join_the_active_sets_late_leave_every_byte_unchanged() {
    // Noise and a margin of 1 are the two inputs under which a tick moves
    // a link that carries nothing, so every link is active from the start.
    for (noise, delta) in [(0.0, 0.05), (0.2, 0.05), (0.0, 1.0), (0.2, 1.0)] {
        let opt = late_joiners::<Simulation>(noise, delta);
        let reference = late_joiners::<ReferenceSimulation>(noise, delta);
        let case = format!("noise {noise}, delta {delta}");
        assert!(opt.trace.lines().count() > 5_000, "{case}: the run carries traffic");
        assert_eq!(opt.report, reference.report, "{case}: SimReport diverged");
        assert_eq!(opt.trace, reference.trace, "{case}: packet trace diverged");
        assert_eq!(opt.manifest, reference.manifest, "{case}: telemetry manifest diverged");
    }
}

/// §4.2 aggregates a node's demand per technology, so under partial
/// interference a link is priced by demand that is outside its own domain:
/// link `quiet` overhears `loud`'s owner because *another* link of that
/// owner interferes with it. An open-loop source overdrives `loud` from the
/// start; by the time a controlled flow tries `quiet`, its γ has been
/// rising for 10 s in both engines.
fn overheard_from_outside_the_domain<E: SimEngine>() -> CorpusOutput {
    let t = testbed22(1);
    let imap = CarrierSense { wifi_sense_range_m: 35.0 }.build_map(&t.net);
    let net = &t.net;
    let wifi = |l: &&empower_model::Link| l.medium == Medium::WIFI1;
    let (loud, quiet) = net
        .links()
        .iter()
        .filter(wifi)
        .flat_map(|a| net.links().iter().filter(wifi).map(move |l| (a, l)))
        .find(|(a, l)| {
            a.from != l.from
                && !imap.interferes(a.id, l.id)
                && net.out_links(a.from).filter(wifi).any(|e| imap.interferes(e.id, l.id))
        })
        .map(|(a, l)| (a.clone(), l.clone()))
        .expect("the testbed is wider than one sensing range");

    let cfg = SimConfig { seed: 5, delta: 0.05, ..SimConfig::default() };
    let mut sim = E::build(t.net.clone(), imap, cfg);
    sim.attach_telemetry(Telemetry::enabled());
    sim.attach_trace(Trace::new());
    let overdrive = 3.0 * loud.capacity_mbps;
    sim.add_flow(FlowSpecSim::external(&t.net, loud.id, overdrive, 0.0, 30.0));
    let tried = Path::new(&t.net, vec![quiet.id]).expect("one hop");
    sim.add_flow(FlowSpecSim {
        pattern: TrafficPattern::SaturatedUdp { start: 10.0, stop: 30.0 },
        ..FlowSpecSim::saturated(quiet.from, quiet.to, vec![tried], 30.0)
    });
    sim.run_until(30.0);
    rendered(&mut sim, "overheard_from_outside_the_domain", 30.0)
}

#[test]
fn demand_overheard_from_outside_a_links_domain_still_prices_it() {
    let opt = overheard_from_outside_the_domain::<Simulation>();
    let reference = overheard_from_outside_the_domain::<ReferenceSimulation>();
    assert_eq!(opt.report, reference.report, "SimReport diverged");
    assert_eq!(opt.trace, reference.trace, "packet trace diverged");
    assert_eq!(opt.manifest, reference.manifest, "telemetry manifest diverged");
}
