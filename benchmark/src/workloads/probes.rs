//! Per-layer measurements taken beside the iterations, once per traced
//! pass: what a layer costs alone, on the workload's own network.

use std::hint::black_box;
use std::time::Instant;

use empower_cc::{CcConfig, CcProblem, MultipathController, ProportionalFair};
use empower_core::Scheme;
use empower_model::{InterferenceMap, LinkId, Network, NodeId, Path};
use empower_routing::{Explorer, MultipathConfig, RouteQuery};
use empower_sim::{Event, EventQueue, SimConfig, Simulation, Trace};
use empower_telemetry::{CounterSnapshot, Json, Telemetry};

use crate::gen::Rng;
use crate::harness::{Ledger, ProbeCtx};

/// Size of the network and of its interference map. `domain_elems` is
/// Σ|I_l|, which predicts what a control tick costs.
pub fn network_counts(net: &Network, imap: &InterferenceMap, ledger: &mut Ledger) {
    let elems: usize = (0..net.link_count()).map(|l| imap.domain(LinkId(l as u32)).len()).sum();
    ledger.set("model.nodes", net.node_count() as f64);
    ledger.set("model.links", net.link_count() as f64);
    ledger.set("model.domain_elems", elems as f64);
}

/// Control slots the idle-tick probe runs.
const IDLE_SLOTS: u32 = 1000;

/// What a control tick costs when no flow exists: a flow-less simulation on
/// the same network with the same sinks attached, run for a thousand slots.
/// Times the tick count of a run, it is a lower bound on the control
/// plane's share of that run.
pub fn idle_tick(net: &Network, imap: &InterferenceMap, seed: u64, ledger: &mut Ledger) {
    let cfg = SimConfig { seed, ..SimConfig::default() };
    let until = f64::from(IDLE_SLOTS) * cfg.slot_secs;
    let mut sim = Simulation::new(net.clone(), imap.clone(), cfg);
    sim.attach_telemetry(Telemetry::enabled());
    sim.attach_trace(Trace::bounded(50_000));
    let t = Instant::now();
    sim.run_until(until);
    let secs = t.elapsed().as_secs_f64();
    let ticks = sim.telemetry().snapshot().value("ctrl/ticks").unwrap_or(0).max(1);
    ledger.set("sim.idle_tick_us", secs * 1e6 / ticks as f64);
}

/// Push/pop pairs the event-queue probe times.
const QUEUE_OPS: u32 = 1_000_000;

/// One push plus one pop on the simulator's event queue holding `depth`
/// pending events spread over the next control slot. The queue's real
/// depth is private to the engine; one pending event per flow (and the
/// control tick) is the stand-in.
pub fn event_queue(depth: usize, ledger: &mut Ledger) {
    let slot = SimConfig::default().slot_secs;
    let mut rng = Rng::new(depth as u64, 0x51_7e);
    let mut q = EventQueue::new();
    q.push(slot, Event::ControlTick);
    for f in 0..depth {
        q.push(rng.range(0.0, slot), Event::Emit { flow: f as u32 });
    }
    let t = Instant::now();
    for _ in 0..QUEUE_OPS {
        let Some((at, event)) = q.pop() else { break };
        q.push(at + rng.range(0.0, slot), black_box(event));
    }
    let secs = t.elapsed().as_secs_f64();
    black_box(q.len());
    ledger.set("sim.event_queue_ns", secs * 1e9 / f64::from(QUEUE_OPS));
}

/// Most counters the parse probe renders and reads back. `Json::parse`
/// revalidates the rest of the text for every string character, so its
/// cost grows with the square of the document; the cap keeps the probe
/// under a second on the largest manifests.
const PARSE_COUNTERS: usize = 2000;

/// Reads a counter snapshot back through the program's own JSON parser,
/// which is how a manifest is consumed, and checks that it survives.
pub fn json_parse(snap: &CounterSnapshot, ctx: &mut ProbeCtx, ledger: &mut Ledger) {
    let head =
        CounterSnapshot { counters: snap.counters.iter().take(PARSE_COUNTERS).cloned().collect() };
    let text = head.to_json().to_string_pretty();
    let t = Instant::now();
    let back = Json::parse(&text);
    ledger.set("telemetry.json_parse_ms", t.elapsed().as_secs_f64() * 1e3);
    // Compared as text: the parser reads a small count back as a signed
    // integer, which renders the same.
    if back.map(|tree| tree.to_string_pretty()) != Ok(text) {
        ctx.check_failures.push("a counter snapshot does not survive render and parse".into());
    }
}

/// Replays route queries on a benchmark-owned [`Explorer`] for the counts
/// the search keeps: the facade computes the same routes but does not
/// expose its explorer. Returns how many pairs had no route.
pub fn explorer_counts(
    net: &Network,
    imap: &InterferenceMap,
    scheme: Scheme,
    pairs: &[(NodeId, NodeId)],
    ledger: &mut Ledger,
) {
    let config =
        MultipathConfig { n_shortest: N_SHORTEST, csc: scheme.csc(), ..Default::default() };
    let mut explorer = Explorer::new();
    let mut disconnected = 0;
    for &(src, dst) in pairs {
        let query = RouteQuery::new(src, dst).with_mediums(&scheme.mediums());
        let routes = explorer.best_combination(net, imap, &query, &config);
        disconnected += u64::from(routes.is_empty());
    }
    let stats = explorer.stats();
    ledger.set("routing.queries", pairs.len() as f64);
    ledger.set("routing.disconnected", disconnected as f64);
    ledger.set("routing.nodes_expanded", stats.nodes_expanded as f64);
    ledger.set("routing.ksp_invocations", stats.ksp_invocations as f64);
    ledger.set("routing.subtrees_pruned", stats.subtrees_pruned as f64);
}

/// The paper's `n` of `n-shortest`, which every facade call here uses.
pub const N_SHORTEST: usize = 5;

/// Controller slots the step probe runs.
const CC_STEPS: u32 = 2000;

/// One slot of the multipath controller on the workload's own problem:
/// the flows' installed routes on the workload's network. Returns the
/// controller's `(price updates, margin violations)` over the probe, for
/// workloads with no simulator to count the run's own.
pub fn cc_step(
    net: &Network,
    imap: &InterferenceMap,
    flow_routes: Vec<Vec<Path>>,
    ledger: &mut Ledger,
) -> Option<(u64, u64)> {
    let flow_routes: Vec<Vec<Path>> = flow_routes.into_iter().filter(|r| !r.is_empty()).collect();
    if flow_routes.is_empty() {
        return None;
    }
    let problem = CcProblem::new(net, imap, flow_routes);
    let mut controller = MultipathController::new(&problem, ProportionalFair, CcConfig::default());
    let t = Instant::now();
    for _ in 0..CC_STEPS {
        black_box(controller.step(&problem, imap));
    }
    let secs = t.elapsed().as_secs_f64();
    ledger.set("cc.step_us", secs * 1e6 / f64::from(CC_STEPS));
    Some((controller.price_updates(), controller.margin_violations()))
}
