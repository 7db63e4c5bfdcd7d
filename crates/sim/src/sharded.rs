//! The sharded simulator: interference-domain parallelism with
//! byte-identical results (DESIGN.md §13).
//!
//! [`ShardedSimulation`] partitions the network's links into *atoms* —
//! closed groups under the coupling rules R1–R4 of
//! [`empower_model::shard`] — packs atoms onto the requested number of
//! shards, and runs one [`Simulation`] per used shard on
//! [`empower_exec::run_indexed`] scoped threads (at most one per core).
//! Because no flow, interference domain, broadcast group or fault ever
//! crosses an atom boundary, the conservative lookahead is *degenerate*:
//! shards never exchange events at all, and each shard's execution of its
//! own flows is bit-identical to the single-threaded engine's.
//!
//! Three mechanisms make the merge exact rather than approximate:
//!
//! * **One op log, replayed in place.** The public API records operations
//!   (`add_flow`, fault schedules, `replace_routes`, `run_until`) into an
//!   op log; nothing executes until the first observer (`report`,
//!   `telemetry`, `take_trace`, `perf_stats`). Only then is the full
//!   coupling closure known — including replacement routes scheduled for
//!   later — so the partition can be computed once, correctly. One table
//!   names the shard that owns each op; every worker walks the same log
//!   once against it, skipping what its shard does not own, and the same
//!   table says which shards run.
//! * **Workers are plain engines.** Every worker is the [`Simulation`]
//!   everyone else runs, built by [`Simulation::new`] over a clone of the
//!   whole network, and registers only the flows its shard owns. Link and
//!   node ids are therefore global by construction; flows keep their
//!   *global* ids for RNG streams, counter names and trace lines (the one
//!   identity hook, `add_flow_global`) — so every byte a worker produces
//!   already speaks global ids, and the merge never has to translate.
//!   Links of other shards' atoms cost a worker nothing per tick: the
//!   engine's control plane iterates only links that have carried frames.
//! * **Index-ordered merges decided by declaration.** Worker results are
//!   merged in shard-index order (no completion-order nondeterminism):
//!   per-flow stats are keyed by global flow id; counters fold by their
//!   declared flavor (see `ShardedSimulation::merge_counters`); traces
//!   merge in the canonical `(time, rendered line)` order that
//!   `trace.rs` defines once for both engines, and are truncated to the
//!   configured cap only *after* the sort, so the bytes cannot depend on
//!   the shard count. Workers record into a sink bounded by the same cap
//!   that keeps the whole of its last timestamp
//!   (`Trace::bounded_through_ties`): each worker's record is a superset
//!   of its share of the canonical first `cap`, so the merge sorts
//!   shards × (cap + ties) events at most, never the whole run.
//!
//! The result: `SimReport`s, telemetry manifests and canonical traces
//! are byte-identical across `--shards` counts, and equal to the
//! single-threaded engine's up to canonical trace ordering — enforced by
//! `crates/sim/tests/shard_equivalence.rs` over the full corpus.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

use empower_datapath::IfaceRegistry;
use empower_exec::run_indexed;
use empower_model::shard::{plan_shards, CouplingSpec};
use empower_model::{InterferenceMap, LinkId, Network, NodeId, Path};
use empower_telemetry::{CounterSnapshot, CounterType, Telemetry};

use crate::config::SimConfig;
use crate::engine::{resolve_source_route, Simulation};
use crate::flow::FlowSpecSim;
use crate::metrics::EngineCounters;
use crate::perf::SimPerfStats;
use crate::stats::{FlowStats, SimReport};
use crate::trace::{for_each_canonical, Trace};

/// One recorded API call. Each worker applies the ops it owns as recorded.
enum Op {
    AddFlow(FlowSpecSim),
    LinkChange { at: f64, link: LinkId, capacity_mbps: f64 },
    NodeChange { at: f64, node: NodeId, up: bool },
    ReplaceRoutes { flow: usize, routes: Vec<Path> },
    RunUntil { until: f64 },
}

/// What one shard worker sends back for merging.
struct WorkerOut {
    /// Stats of the flows this shard owns, keyed by global flow id.
    flows: Vec<(usize, FlowStats)>,
    counters: CounterSnapshot,
    /// Control-plane slots the worker executed. Every worker replays every
    /// `RunUntil`, so all workers agree on it.
    ticks: u64,
    trace: Option<Trace>,
    perf: SimPerfStats,
}

/// Merged results of one execution of the op log.
struct Exec {
    /// Number of ops reflected in this execution (re-executed when the
    /// log grows past it).
    ops_done: usize,
    flows: Vec<FlowStats>,
    trace: Option<Trace>,
    perf: SimPerfStats,
    /// `events_dispatched` per worker, shard-index order — the
    /// denominator of the counter-based speedup statistic.
    shard_events: Vec<u64>,
    shards_used: usize,
}

/// The sharded engine. API-compatible with [`Simulation`] (the corpus
/// `SimEngine` trait drives it through `ShardedN`); see the module docs
/// for semantics.
pub struct ShardedSimulation {
    /// The pristine pre-run network. [`ShardedSimulation::network`]
    /// returns this — mid-run capacity mutations live inside the worker
    /// engines (callers needing mutated state inspect reports instead).
    /// Every worker runs on a clone of it.
    net: Network,
    imap: InterferenceMap,
    reg: IfaceRegistry,
    cfg: SimConfig,
    shards: u32,
    ops: Vec<Op>,
    flow_count: usize,
    tele: Telemetry,
    /// `Some(cap)` once a trace sink is attached (the sink itself is
    /// re-created canonically at merge time; workers record into
    /// tie-extending sinks of the same cap).
    trace_cap: Option<Option<usize>>,
    exec: RefCell<Option<Exec>>,
}

impl ShardedSimulation {
    /// Creates a sharded simulation with an explicit shard count.
    pub fn with_shards(net: Network, imap: InterferenceMap, cfg: SimConfig, shards: u32) -> Self {
        let reg = IfaceRegistry::for_network(&net);
        ShardedSimulation {
            reg,
            net,
            imap,
            cfg,
            shards: shards.max(1),
            ops: Vec::new(),
            flow_count: 0,
            tele: Telemetry::disabled(),
            trace_cap: None,
            exec: RefCell::new(None),
        }
    }

    /// Attaches a packet-level trace sink. Only the sink's cap is used:
    /// the merged trace is truncated to it *after* the canonical sort, and
    /// each worker records up to the cap plus whatever shares its last
    /// timestamp (cutting a worker mid-timestamp would make the kept
    /// prefix depend on the shard count).
    pub fn attach_trace(&mut self, trace: Trace) {
        self.trace_cap = Some(trace.cap());
    }

    /// Attaches a telemetry registry; merged counters are written into it
    /// at execution time.
    pub fn attach_telemetry(&mut self, tele: Telemetry) {
        self.tele = tele;
    }

    /// The attached telemetry handle, with merged counters.
    pub fn telemetry(&self) -> &Telemetry {
        self.ensure_executed();
        &self.tele
    }

    /// Detaches and returns the canonically merged trace.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.ensure_executed();
        self.exec.borrow_mut().as_mut().and_then(|e| e.trace.take())
    }

    /// Records a flow; returns its index. Validation and resolution
    /// happen at execution time, exactly as the single-threaded engine
    /// would perform them.
    pub fn add_flow(&mut self, spec: FlowSpecSim) -> usize {
        assert!(!spec.routes.is_empty(), "flow has no routes");
        let idx = self.flow_count;
        self.flow_count += 1;
        self.ops.push(Op::AddFlow(spec));
        idx
    }

    /// Schedules a capacity change (0 = link death).
    pub fn schedule_link_change(&mut self, at: f64, link: LinkId, capacity_mbps: f64) {
        self.ops.push(Op::LinkChange { at, link, capacity_mbps });
    }

    /// Schedules a node crash or recovery.
    pub fn schedule_node_change(&mut self, at: f64, node: NodeId, up: bool) {
        self.ops.push(Op::NodeChange { at, node, up });
    }

    /// Replaces a flow's routes mid-run. Returns the number of routes
    /// that resolve — route resolution depends only on static link ids
    /// and the interface registry (never on mid-run capacities), so the
    /// eager count here equals what the owning shard installs at replay.
    pub fn replace_routes(&mut self, flow: usize, routes: Vec<Path>) -> usize {
        assert!(flow < self.flow_count, "no such flow");
        assert!(!routes.is_empty(), "a flow needs at least one route");
        let installed = routes
            .iter()
            .filter(|p| resolve_source_route(&self.net, &self.reg, p).is_some())
            .count();
        self.ops.push(Op::ReplaceRoutes { flow, routes });
        installed
    }

    /// Advances simulated time (deferred until the next observer).
    pub fn run_until(&mut self, until: f64) {
        self.ops.push(Op::RunUntil { until });
    }

    /// The merged report as of the op log's horizon.
    pub fn report(&self, duration: f64) -> SimReport {
        self.ensure_executed();
        let exec = self.exec.borrow();
        let flows = match exec.as_ref() {
            Some(e) => e.flows.clone(),
            None => Vec::new(),
        };
        SimReport { flows, duration }
    }

    /// The **pristine pre-run** network (see the field docs).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Work counters summed over all shards.
    pub fn perf_stats(&self) -> SimPerfStats {
        self.ensure_executed();
        self.exec.borrow().as_ref().map(|e| e.perf).unwrap_or_default()
    }

    /// `events_dispatched` per worker in shard-index order. The maximum
    /// entry is the critical-path work of the parallel run;
    /// `single_threaded_events / max` is the counter-based speedup the
    /// campus equivalence gate holds to a floor.
    pub fn shard_events_dispatched(&self) -> Vec<u64> {
        self.ensure_executed();
        self.exec.borrow().as_ref().map(|e| e.shard_events.clone()).unwrap_or_default()
    }

    /// Number of worker engines the last execution actually ran (shards
    /// owning neither flows nor faults are skipped).
    pub fn shards_used(&self) -> usize {
        self.ensure_executed();
        self.exec.borrow().as_ref().map(|e| e.shards_used).unwrap_or(0)
    }

    /// Builds the coupling spec from the op log: every flow's link
    /// closure (all routes, all scheduled replacement routes, and for TCP
    /// flows the receiver's adjacent links — the §6.4 tcp-margin flag
    /// influences every link whose contention domain contains the
    /// receiver, and R1 pulls those in through the adjacent links), plus
    /// the fault-node list.
    fn coupling(&self) -> CouplingSpec {
        let mut flow_links: Vec<Vec<LinkId>> = Vec::with_capacity(self.flow_count);
        let mut fault_nodes: Vec<NodeId> = Vec::new();
        for op in &self.ops {
            match op {
                Op::AddFlow(spec) => {
                    let mut links: Vec<LinkId> =
                        spec.routes.iter().flat_map(|p| p.links().iter().copied()).collect();
                    if spec.pattern.is_tcp() {
                        links.extend(self.net.out_links(spec.dst).map(|l| l.id));
                        links.extend(self.net.in_links(spec.dst).map(|l| l.id));
                    }
                    flow_links.push(links);
                }
                Op::ReplaceRoutes { flow, routes } => {
                    flow_links[*flow].extend(routes.iter().flat_map(|p| p.links().iter().copied()));
                }
                Op::NodeChange { node, .. } => fault_nodes.push(*node),
                _ => {}
            }
        }
        CouplingSpec { flow_links, fault_nodes }
    }

    /// Runs the op log if the cached execution is stale.
    fn ensure_executed(&self) {
        let done = self.exec.borrow().as_ref().map(|e| e.ops_done);
        if done == Some(self.ops.len()) {
            return;
        }
        let exec = self.execute();
        *self.exec.borrow_mut() = Some(exec);
    }

    /// Plans the partition and runs one worker per used shard over the op
    /// log; results come back in shard-index order.
    fn replay(&self) -> Vec<WorkerOut> {
        let cspec = self.coupling();
        let plan = plan_shards(&self.net, &self.imap, &cspec, self.shards);

        // The owner table: a flow op belongs to the shard of its closure's
        // (single) atom; a fault op to that of its link's / node's atom
        // (R4 makes all links adjacent to a faulted node one atom, so
        // "first adjacent link" is canonical). Time advances, and faults
        // on a node without links (no observable effect), belong to nobody.
        let shard_of = |l: LinkId| plan.shard_of_atom[plan.atom_of_link[l.index()] as usize];
        let mut flow_shard = cspec.flow_links.iter().map(|links| shard_of(links[0]));
        let op_shard: Vec<Option<u32>> = self
            .ops
            .iter()
            .map(|op| match op {
                Op::AddFlow(_) => flow_shard.next(),
                Op::LinkChange { link, .. } => Some(shard_of(*link)),
                Op::NodeChange { node, .. } => {
                    let mut adjacent = self.net.out_links(*node).chain(self.net.in_links(*node));
                    adjacent.next().map(|l| shard_of(l.id))
                }
                Op::ReplaceRoutes { flow, .. } => Some(shard_of(cspec.flow_links[*flow][0])),
                Op::RunUntil { .. } => None,
            })
            .collect();

        // Only shards owning a flow or a scheduled fault do any observable
        // work — zero demand, zero violations, zero traffic everywhere
        // else — so the rest, which would only replay idle control ticks,
        // are skipped.
        let mut used: BTreeSet<u32> = op_shard.iter().flatten().copied().collect();
        if used.is_empty() {
            used.insert(0);
        }
        let used: Vec<u32> = used.into_iter().collect();

        // One job per used shard, at most one thread per core; on a single
        // core the jobs run in shard order on this thread.
        let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
        let replay = Replay {
            net: &self.net,
            imap: &self.imap,
            cfg: &self.cfg,
            ops: &self.ops,
            op_shard: &op_shard,
            instrument: self.tele.is_enabled(),
            trace_cap: self.trace_cap,
        };
        run_indexed(jobs, used.len(), |w| replay.run(used[w]))
    }

    fn execute(&self) -> Exec {
        let mut results = self.replay();
        if self.tele.is_enabled() {
            self.merge_counters(&results);
        }

        // Equal-time events from independent atoms have no defined order
        // in a single event loop; the canonical order makes the merged
        // bytes a function of the event *multiset* only.
        let trace = self.trace_cap.map(|cap| {
            let parts: Vec<&Trace> = results.iter().filter_map(|r| r.trace.as_ref()).collect();
            let mut out = cap.map_or_else(Trace::new, Trace::bounded);
            for_each_canonical(&parts, |e, _| out.push(e.clone()));
            out
        });

        let mut perf = SimPerfStats::default();
        let mut shard_events = Vec::with_capacity(results.len());
        let mut flows: Vec<(usize, FlowStats)> = Vec::with_capacity(self.flow_count);
        for r in &mut results {
            perf.events_dispatched += r.perf.events_dispatched;
            perf.domain_probes += r.perf.domain_probes;
            perf.hot_allocs += r.perf.hot_allocs;
            perf.slab_grows += r.perf.slab_grows;
            perf.tick_visits += r.perf.tick_visits;
            shard_events.push(r.perf.events_dispatched);
            flows.append(&mut r.flows);
        }
        flows.sort_by_key(|&(gid, _)| gid);

        Exec {
            ops_done: self.ops.len(),
            flows: flows.into_iter().map(|(_, stats)| stats).collect(),
            trace,
            perf,
            shard_events,
            shards_used: results.len(),
        }
    }

    /// Folds the per-shard counter snapshots into the attached registry.
    ///
    /// Every worker is a whole-network engine, so every snapshot already
    /// carries the single-threaded engine's name set, per-link gauges of
    /// idle links at zero. Snapshots fold by **declared flavor**
    /// (DESIGN.md §13): gauges are levels, and only a link's owning shard
    /// ever raises one, so they merge by **max**; every other flavor is a
    /// monotone count that only the owning shard advances, so it merges by
    /// **sum**.
    ///
    /// The two network-wide control counters are not a fold at all: every
    /// worker ticks the full horizon over the whole network, so they are
    /// written last, over whatever the fold made of them, through the
    /// engine's own handles from the typed tick count — `ctrl/ticks` once,
    /// `cc/price_updates` as ticks × the link count.
    ///
    /// Values are written with `set`, making re-merges after op-log
    /// growth idempotent.
    fn merge_counters(&self, results: &[WorkerOut]) {
        // Handles for the two overrides only: the per-link names arrive
        // with the worker snapshots.
        let engine = EngineCounters::attach(self.tele.clone(), 0);
        let mut merged: BTreeMap<&str, (CounterType, u64)> = BTreeMap::new();
        for r in results {
            for (name, flavor, value) in &r.counters.counters {
                let slot = merged.entry(name).or_insert((*flavor, 0));
                slot.1 = match flavor {
                    CounterType::Gauge => slot.1.max(*value),
                    _ => slot.1 + *value,
                };
            }
        }
        for (name, (flavor, value)) in merged {
            self.tele.counter(name, flavor).set(value);
        }
        let ticks = results.iter().map(|r| r.ticks).max().unwrap_or(0);
        engine.ctrl_ticks.set(ticks);
        engine.cc_price_updates.set(ticks * self.net.link_count() as u64);
    }
}

/// Everything a shard worker borrows for one execution of the op log.
/// Shared across executor threads, hence plain references only.
struct Replay<'a> {
    net: &'a Network,
    imap: &'a InterferenceMap,
    cfg: &'a SimConfig,
    ops: &'a [Op],
    /// Owner shard of every op, aligned with `ops` (`None` = nobody's).
    op_shard: &'a [Option<u32>],
    instrument: bool,
    /// [`ShardedSimulation::trace_cap`].
    trace_cap: Option<Option<usize>>,
}

impl Replay<'_> {
    /// One shard's run: a plain [`Simulation`] over a clone of the whole
    /// network, driven through the op log — applying the ops `shard` owns
    /// as recorded, skipping everyone else's, applying every time advance.
    /// Runs on an executor thread.
    fn run(&self, shard: u32) -> WorkerOut {
        let mut sim = Simulation::new(self.net.clone(), self.imap.clone(), self.cfg.clone());
        if self.instrument {
            sim.attach_telemetry(Telemetry::enabled());
        }
        if let Some(cap) = self.trace_cap {
            // One past the cap: a worker that drops anything then hands the
            // merge more than `cap` events, so the merged sink reports
            // truncation exactly when a single engine's would.
            let sink = |cap: usize| Trace::bounded_through_ties(cap.saturating_add(1));
            sim.attach_trace(cap.map_or_else(Trace::new, sink));
        }

        // Flows are numbered by their position among *all* `AddFlow`s, and
        // owned ones arrive in ascending global id, so the worker's index
        // of flow `g` is its rank in `owned`.
        let mut owned: Vec<usize> = Vec::new();
        let mut next_gid = 0usize;
        for (op, owner) in self.ops.iter().zip(self.op_shard) {
            let mine = *owner == Some(shard);
            match op {
                Op::AddFlow(spec) => {
                    let gid = next_gid;
                    next_gid += 1;
                    if mine {
                        owned.push(gid);
                        sim.add_flow_global(spec.clone(), gid);
                    }
                }
                Op::LinkChange { at, link, capacity_mbps } if mine => {
                    sim.schedule_link_change(*at, *link, *capacity_mbps);
                }
                Op::NodeChange { at, node, up } if mine => {
                    sim.schedule_node_change(*at, *node, *up);
                }
                Op::ReplaceRoutes { flow, routes } if mine => {
                    let Ok(f) = owned.binary_search(flow) else {
                        unreachable!("replace_routes owned by a shard that does not own the flow")
                    };
                    sim.replace_routes(f, routes.clone());
                }
                Op::RunUntil { until } => sim.run_until(*until),
                _ => {}
            }
        }

        WorkerOut {
            flows: owned.into_iter().zip(sim.report(0.0).flows).collect(),
            counters: sim.telemetry().snapshot(),
            ticks: sim.ticks(),
            trace: sim.take_trace(),
            perf: sim.perf_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;
    use empower_model::rng::{SeedableRng, StdRng};
    use empower_model::topology::campus::{campus, CampusConfig};
    use empower_model::{CarrierSense, InterferenceModel};
    use empower_telemetry::Manifest;

    fn campus_setup() -> (Network, InterferenceMap, Vec<FlowSpecSim>) {
        let mut rng = StdRng::seed_from_u64(5);
        let t = campus(&mut rng, &CampusConfig::new(2, 2, 4));
        let imap = CarrierSense::default().build_map(&t.net);
        // One hybrid multipath download per floor: router → first client
        // over every direct link between them.
        let mut specs = Vec::new();
        for fl in &t.floors {
            let c = fl.clients[0];
            let routes: Vec<Path> = t
                .net
                .out_links(fl.router)
                .filter(|l| l.to == c)
                .map(|l| Path::new(&t.net, vec![l.id]).unwrap())
                .collect();
            specs.push(FlowSpecSim::saturated(fl.router, c, routes, 5.0));
        }
        (t.net, imap, specs)
    }

    fn run_sharded(shards: u32) -> (String, String, String) {
        let (net, imap, specs) = campus_setup();
        let mut sim = ShardedSimulation::with_shards(net, imap, SimConfig::default(), shards);
        sim.attach_telemetry(Telemetry::enabled());
        sim.attach_trace(Trace::bounded(50_000));
        for s in specs {
            sim.add_flow(s);
        }
        sim.run_until(5.0);
        let report = format!("{:?}", sim.report(5.0));
        let mut m = Manifest::new("shard_test");
        m.attach_counters(sim.telemetry());
        let trace = sim.take_trace().map(|t| t.to_jsonl()).unwrap_or_default();
        (report, trace, m.render())
    }

    #[test]
    fn byte_identical_across_shard_counts() {
        let one = run_sharded(1);
        for shards in [2, 4, 8] {
            assert_eq!(one, run_sharded(shards), "shards={shards} diverged");
        }
    }

    #[test]
    fn matches_single_threaded_engine() {
        let (net, imap, specs) = campus_setup();
        let mut single = Simulation::new(net.clone(), imap.clone(), SimConfig::default());
        single.attach_telemetry(Telemetry::enabled());
        single.attach_trace(Trace::new());
        for s in &specs {
            single.add_flow(s.clone());
        }
        single.run_until(5.0);
        let mut m1 = Manifest::new("shard_test");
        m1.attach_counters(single.telemetry());

        let mut sharded = ShardedSimulation::with_shards(net, imap, SimConfig::default(), 4);
        sharded.attach_telemetry(Telemetry::enabled());
        sharded.attach_trace(Trace::new());
        for s in specs {
            sharded.add_flow(s);
        }
        sharded.run_until(5.0);
        let mut m2 = Manifest::new("shard_test");
        m2.attach_counters(sharded.telemetry());

        assert_eq!(format!("{:?}", single.report(5.0)), format!("{:?}", sharded.report(5.0)));
        assert_eq!(m1.render(), m2.render());
        let t1 = single.take_trace().map(|t| t.canonical_jsonl()).unwrap_or_default();
        let t2 = sharded.take_trace().map(|t| t.canonical_jsonl()).unwrap_or_default();
        assert!(!t1.is_empty());
        assert_eq!(t1, t2);
    }

    #[test]
    fn uses_multiple_shards_and_reports_per_shard_work() {
        let (net, imap, specs) = campus_setup();
        let mut sim = ShardedSimulation::with_shards(net, imap, SimConfig::default(), 4);
        for s in specs {
            sim.add_flow(s);
        }
        sim.run_until(2.0);
        let _ = sim.report(2.0);
        assert!(sim.shards_used() >= 2, "campus flows should spread over shards");
        let per = sim.shard_events_dispatched();
        assert_eq!(per.len(), sim.shards_used());
        let total: u64 = per.iter().sum();
        assert_eq!(total, sim.perf_stats().events_dispatched);
    }

    /// The guard against the ghost-flow regression: workers are engines
    /// over the whole network, yet the 4-shard run dispatches barely more
    /// events than the serial engine (the extra is one control-tick chain
    /// per additional worker). That holds because the engine's control
    /// tick walks its active link sets (PR 16), never the network: a
    /// worker that re-dispatched the full network's control plane, as the
    /// first full-clone workers did, would fail it.
    #[test]
    fn workers_do_not_multiply_control_work() {
        let (net, imap, specs) = campus_setup();
        let mut single = Simulation::new(net.clone(), imap.clone(), SimConfig::default());
        for s in &specs {
            single.add_flow(s.clone());
        }
        single.run_until(5.0);
        let serial = single.perf_stats().events_dispatched;

        let (net, imap, specs) = campus_setup();
        let mut sim = ShardedSimulation::with_shards(net, imap, SimConfig::default(), 4);
        for s in specs {
            sim.add_flow(s);
        }
        sim.run_until(5.0);
        let _ = sim.report(5.0);
        let sharded = sim.perf_stats().events_dispatched;
        let workers = sim.shards_used() as u64;
        // Each extra worker contributes exactly one extra control-tick
        // chain (one event per 100 ms slot over 5 s = 51 ticks ≤ 60).
        assert!(workers >= 2);
        assert!(
            sharded <= serial + (workers - 1) * 60,
            "sharded dispatched {sharded} events vs serial {serial} (+{workers} workers)"
        );
    }

    /// The truncation argument where it can break: caps that land inside
    /// a group of equal-time events recorded by different workers, and
    /// inside the `tx_end` / `deliver` pairs one worker records in the
    /// opposite of their canonical order. The bounded merge must still be
    /// the first `cap` lines of the unbounded one at every shard count, and
    /// no worker may hold more than the cap plus the events sharing its
    /// last timestamp (what keeps a traced dense run from buffering
    /// millions of events per worker).
    #[test]
    fn bounded_merge_is_the_unbounded_prefix_even_inside_a_tie() {
        let build = |shards: u32, sink: Trace| {
            let (net, imap, specs) = campus_setup();
            let mut sim = ShardedSimulation::with_shards(net, imap, SimConfig::default(), shards);
            sim.attach_trace(sink);
            for s in specs {
                sim.add_flow(s);
            }
            sim.run_until(0.5);
            sim
        };
        let time_of = |e: &TraceEvent| e.time().to_bits();
        let times = |w: &WorkerOut| -> BTreeSet<u64> {
            w.trace.iter().flat_map(|t| t.events()).map(time_of).collect()
        };
        let mut unbounded = build(4, Trace::new());
        let workers = unbounded.replay();
        let full = unbounded.take_trace().expect("trace attached");
        // The merged range of the first timestamp two workers both recorded.
        let shared = times(&workers[0]).intersection(&times(&workers[1])).next().copied();
        let first = full.events().iter().position(|e| Some(time_of(e)) == shared);
        let last = full.events().iter().rposition(|e| Some(time_of(e)) == shared);
        let (first, last) = first.zip(last).expect("two workers share a timestamp");
        assert!(first < last);

        // Every cap through that group (strictly inside it from
        // `first + 1` to `last`) and the same-worker pairs that follow.
        for cap in 1..last + 8 {
            for shards in [1, 2, 4, 8] {
                let mut sim = build(shards, Trace::bounded(cap));
                for w in sim.replay() {
                    let events = w.trace.as_ref().map_or(&[][..], |t| t.events());
                    let last = events.last().map(time_of);
                    let ties = events.iter().filter(|e| Some(time_of(e)) == last).count();
                    assert!(events.len() <= cap + ties, "shards={shards} cap={cap}");
                }
                let got = sim.take_trace().expect("trace attached");
                assert!(got.is_truncated());
                assert_eq!(&full.events()[..cap], got.events(), "shards={shards} cap={cap}");
            }
        }
    }

    /// Observe → extend → observe: every poll after the first re-executes
    /// a grown op log (the `ops_done`-stale path), and must agree with an
    /// engine that was simply paused and resumed.
    #[test]
    fn polling_between_time_advances_matches_single_threaded_engine() {
        let manifest = |tele: &Telemetry| {
            let mut m = Manifest::new("shard_test");
            m.attach_counters(tele);
            m.render()
        };
        let (net, imap, specs) = campus_setup();
        let mut single = Simulation::new(net.clone(), imap.clone(), SimConfig::default());
        single.attach_telemetry(Telemetry::enabled());
        let mut sharded: Vec<ShardedSimulation> = [1, 4]
            .map(|n| {
                ShardedSimulation::with_shards(net.clone(), imap.clone(), SimConfig::default(), n)
            })
            .into();
        for sim in &mut sharded {
            sim.attach_telemetry(Telemetry::enabled());
        }
        for s in &specs {
            single.add_flow(s.clone());
            for sim in &mut sharded {
                sim.add_flow(s.clone());
            }
        }
        for t in 1..=5 {
            let t = f64::from(t);
            single.run_until(t);
            let want = (format!("{:?}", single.report(t)), manifest(single.telemetry()));
            for sim in &mut sharded {
                sim.run_until(t);
                let got = (format!("{:?}", sim.report(t)), manifest(sim.telemetry()));
                assert_eq!(want, got, "poll at t={t} diverged");
            }
        }
    }

    /// The merge rule belongs to the flavor, not to a list of names: a
    /// gauge and a monotone counter the engine has never heard of fold by
    /// max and by sum.
    #[test]
    fn counters_merge_by_declared_flavor() {
        let worker = |level: u64, count: u64, ticks: u64| {
            let tele = Telemetry::enabled();
            tele.counter("plugin/level", CounterType::Gauge).set(level);
            tele.counter("plugin/count", CounterType::Bytes).add(count);
            WorkerOut {
                flows: Vec::new(),
                counters: tele.snapshot(),
                ticks,
                trace: None,
                perf: SimPerfStats::default(),
            }
        };
        let (net, imap, _) = campus_setup();
        let links = net.link_count() as u64;
        let mut sim = ShardedSimulation::with_shards(net, imap, SimConfig::default(), 2);
        sim.attach_telemetry(Telemetry::enabled());
        sim.merge_counters(&[worker(7, 3, 11), worker(4, 5, 11)]);
        let snap = sim.tele.snapshot();
        assert_eq!(snap.value("plugin/level"), Some(7));
        assert_eq!(snap.value("plugin/count"), Some(8));
        assert_eq!(snap.value("ctrl/ticks"), Some(11));
        assert_eq!(snap.value("cc/price_updates"), Some(11 * links));
    }

    #[test]
    fn replace_routes_counts_statically() {
        let (net, imap, specs) = campus_setup();
        let mut sim = ShardedSimulation::with_shards(net.clone(), imap, SimConfig::default(), 2);
        let f = sim.add_flow(specs[0].clone());
        let routes = specs[0].routes.clone();
        let n = routes.len();
        sim.run_until(1.0);
        assert_eq!(sim.replace_routes(f, routes), n);
        sim.run_until(2.0);
        let report = sim.report(2.0);
        assert_eq!(report.flows.len(), specs.len().min(1));
    }
}
