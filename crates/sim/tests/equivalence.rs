//! The PR-5 safety net: every corpus scenario must produce
//! **byte-identical** results on the optimized engine (whose datapath
//! stages are `empower-datapath`'s `FlowSource` / `FlowSink`) and on the
//! retained reference engine (the frozen pre-refactor monolith, driving
//! `RouteScheduler`/`ReorderBuffer`/`AckCollector`/`DelayEqualizer`
//! directly) — the full `SimReport` debug rendering, the packet trace
//! JSONL and the telemetry manifest.
//!
//! The same sweep holds the optimized engine to its hot-path work budget:
//! with trace and telemetry detached, both engines must dispatch the same
//! events and the optimized one must stay within the allocation budget
//! below. A second budget holds the control tick to what is active, and
//! two scenarios local to this file (the corpus stays at 23) make links
//! join the tick's active sets late, by every way there is, and leave them
//! and come back.
//!
//! Set `EMPOWER_SIM_EQUIV_SCENARIOS=<n>` to trim the corpus for quick local
//! iterations; CI runs the full set.

use empower_model::topology::{fig1_scenario, testbed22};
use empower_model::{
    CarrierSense, InterferenceModel, LinkId, Medium, Network, NodeId, Path, SharedMedium,
};
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
/// every interference domain each slot would: 0.032 % measured, 1.5× that
/// allowed. A tick that rewrites every speaker's broadcasts and runs
/// Eqs. (7)–(8) in slots that cannot move a price visits 2.6 %.
const MAX_TICK_VISIT_SHARE: f64 = 0.00048;

fn parse_budget(raw: &str) -> usize {
    raw.parse()
        .unwrap_or_else(|_| panic!("EMPOWER_SIM_EQUIV_SCENARIOS={raw} is not a scenario count"))
}

/// How many corpus scenarios to sweep (a prefix); unset = all. An
/// unparsable value is an error, not a silent full run.
#[expect(
    clippy::disallowed_methods,
    reason = "EMPOWER_SIM_EQUIV_SCENARIOS: prefix of the engine-equivalence corpus to sweep \
              (quick CI trims to 14)"
)]
fn scenario_budget() -> usize {
    std::env::var_os("EMPOWER_SIM_EQUIV_SCENARIOS")
        .map_or(usize::MAX, |v| parse_budget(&v.to_string_lossy()))
}

#[test]
#[should_panic(expected = "EMPOWER_SIM_EQUIV_SCENARIOS=ten is not a scenario count")]
fn an_unparsable_scenario_budget_is_an_error() {
    parse_budget("ten");
}

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
    // Noise makes a tick move a link that carries nothing (one draw per
    // link per slot), so every link is active from the start. A margin of
    // exactly 1 is the boundary: Eq. (8) still leaves an idle γ at +0.0
    // and counts no violation, so links rest; only `max(δ, δ_tcp) > 1`
    // moves them (`idle_prices_that_move`).
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

/// A TCP margin above one, `max(δ, δ_tcp) > 1`: Eq. (8) then raises the γ
/// of every link that overhears a TCP receiver's flag, idle or not, and
/// counts a violation on it every slot, so no link rests and the EWMAs are
/// never flushed. A TCP transfer runs from 1 s to 15 s beside a saturated
/// UDP flow, and the run goes on to 25 s while the γ unwind.
fn idle_prices_that_move<E: SimEngine>() -> CorpusOutput {
    let t = testbed22(1);
    let imap = CarrierSense::default().build_map(&t.net);
    let cfg = SimConfig { seed: 7, delta: 0.05, tcp_delta: 1.2, ..SimConfig::default() };
    let udp = vec![route(&t.net, &[1, 13], Medium::Plc), route(&t.net, &[1, 4, 13], Medium::WIFI1)];
    let tcp = vec![route(&t.net, &[5, 9], Medium::Plc)];
    let mut sim = E::build(t.net.clone(), imap, cfg);
    sim.attach_telemetry(Telemetry::enabled());
    sim.attach_trace(Trace::new());
    sim.add_flow(FlowSpecSim::saturated(node(1), node(13), udp, 25.0));
    sim.add_flow(FlowSpecSim {
        pattern: TrafficPattern::Tcp { start: 1.0, stop: 15.0, size_bytes: 0 },
        delay_equalization: true,
        ..FlowSpecSim::saturated(node(5), node(9), tcp, 15.0)
    });
    sim.run_until(25.0);
    rendered(&mut sim, "idle_prices_that_move", 25.0)
}

#[test]
fn idle_links_whose_prices_move_leave_every_byte_unchanged() {
    let opt = idle_prices_that_move::<Simulation>();
    let reference = idle_prices_that_move::<ReferenceSimulation>();
    assert!(opt.trace.lines().count() > 5_000, "the run carries traffic");
    assert_eq!(opt.report, reference.report, "SimReport diverged");
    assert_eq!(opt.trace, reference.trace, "packet trace diverged");
    assert_eq!(opt.manifest, reference.manifest, "telemetry manifest diverged");
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

/// Links that come to rest and wake up again, on the Fig. 1 network over a
/// horizon past both EWMA flushes (the demand EWMA's some 250 s after a
/// link's last frame, the penalty EWMA's some 1 400 s after it): a 300 kB
/// download ends within seconds, a TCP transfer back to the gateway ends
/// and leaves its receiver quiet, the PLC link dies and revives while only
/// penalty EWMAs still decay and the WiFi link does so once everything
/// rests, and at 1 500 s new traffic wakes the rested links, with a gap of
/// three slots before a second burst. A third burst starts 15 s after the
/// second ends: γ is back at zero, the demand EWMAs still decay, and
/// the slots just before the new frames cannot move a price. Returns the
/// renderings and the tick visits of the fully rested stretch before
/// 1 500 s.
fn rest_and_rejoin<E: SimEngine>(tweak: fn(&mut SimConfig)) -> (CorpusOutput, u64) {
    let f = fig1_scenario();
    let imap = SharedMedium.build_map(&f.net);
    let mut cfg = SimConfig { seed: 5, delta: 0.05, ..SimConfig::default() };
    tweak(&mut cfg);
    let down = |links: Vec<LinkId>| Path::new(&f.net, links).expect("hops are adjacent");
    let routes = || vec![down(vec![f.plc_ab, f.wifi_bc]), down(vec![f.wifi_ab, f.wifi_bc])];
    let reverse = |l: LinkId| {
        let lk = f.net.link(l);
        f.net.find_link(lk.to, lk.from, lk.medium).expect("duplex").id
    };
    let back = vec![down(vec![reverse(f.wifi_bc), reverse(f.plc_ab)])];
    let (plc, wifi) = (f.net.link(f.plc_ab).capacity_mbps, f.net.link(f.wifi_bc).capacity_mbps);

    let mut sim = E::build(f.net.clone(), imap, cfg);
    sim.attach_telemetry(Telemetry::enabled());
    sim.attach_trace(Trace::new());
    sim.add_flow(FlowSpecSim {
        pattern: TrafficPattern::FileDownload { start: 0.0, size_bytes: 300_000 },
        ..FlowSpecSim::saturated(f.gateway, f.client, routes(), 1800.0)
    });
    sim.add_flow(FlowSpecSim {
        pattern: TrafficPattern::Tcp { start: 1.0, stop: 20.0, size_bytes: 200_000 },
        delay_equalization: true,
        ..FlowSpecSim::saturated(f.client, f.gateway, back, 20.0)
    });
    for (start, stop) in [(1500.0, 1520.0), (1520.3, 1530.0), (1545.0, 1550.0)] {
        sim.add_flow(FlowSpecSim {
            pattern: TrafficPattern::SaturatedUdp { start, stop },
            ..FlowSpecSim::saturated(f.gateway, f.client, routes(), stop)
        });
    }
    sim.schedule_link_change(600.0, f.plc_ab, 0.0);
    sim.schedule_link_change(610.0, f.plc_ab, plc);
    sim.schedule_link_change(1450.0, f.wifi_bc, 0.0);
    sim.schedule_link_change(1460.0, f.wifi_bc, wifi);
    sim.run_until(1430.0);
    let rested = sim.perf_stats().tick_visits;
    sim.run_until(1499.0);
    let rested = sim.perf_stats().tick_visits - rested;
    sim.run_until(1800.0);
    let flows = sim.report(1800.0).flows;
    assert!(flows[0].completions.iter().all(|&t| t < 10.0), "{:?}", flows[0].completions);
    assert!(flows[1].completions.iter().all(|&t| t < 19.0), "{:?}", flows[1].completions);
    assert_eq!((flows[0].completions.len(), flows[1].completions.len()), (1, 1));
    assert!(flows[2].delivered_bits > 0, "the rested links carry the new traffic");
    assert!(flows[3].delivered_bits > 0, "and the second burst");
    assert!(flows[4].delivered_bits > 0, "and the third");
    (rendered(&mut sim, "rest_and_rejoin", 1800.0), rested)
}

/// A named change to the scenario's configuration, and whether idle links
/// rest under it.
type Tweak = (&'static str, fn(&mut SimConfig), bool);

#[test]
fn links_that_rest_and_wake_up_leave_every_byte_unchanged() {
    let cases: [Tweak; 3] = [
        ("default", |_| {}, true),
        // Every link draws every slot, so nothing rests.
        ("noise on", |c| c.estimation_rel_std = 0.2, false),
        // No smoothing: a link stops measuring after one slot without a
        // frame. Between the bursts, links leave every earshot while their
        // γ still unwinds, and the second burst reads the γ.
        ("γ outlives the demand", |c| c.demand_ewma = 1.0, true),
    ];
    for (case, tweak, rests) in cases {
        let (opt, visits) = rest_and_rejoin::<Simulation>(tweak);
        let (reference, _) = rest_and_rejoin::<ReferenceSimulation>(tweak);
        assert_eq!(opt.report, reference.report, "{case}: SimReport diverged");
        assert_eq!(opt.trace, reference.trace, "{case}: packet trace diverged");
        assert_eq!(opt.manifest, reference.manifest, "{case}: telemetry manifest diverged");
        assert_eq!(visits == 0, rests, "{case}: {visits} visits while at rest");
    }
}
