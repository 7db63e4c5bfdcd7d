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
//! * **Deferred command-log replay.** The public API records operations
//!   (`add_flow`, fault schedules, `replace_routes`, `run_until`) into an
//!   op log; nothing executes until the first observer (`report`,
//!   `telemetry`, `take_trace`, `perf_stats`). Only then is the full
//!   coupling closure known — including replacement routes scheduled for
//!   later — so the partition can be computed once, correctly.
//! * **Shard-local views.** Every worker runs on a
//!   [`ShardView`]: the subgraph of its own
//!   *active* atoms (those hosting an owned flow or scheduled fault),
//!   with dense local ids. No full-network clone, no ghost flows, and
//!   control-plane ticks iterate local links only. The local→global
//!   remap is monotone, per-link RNG streams are seeded by *global* link
//!   id, and flows keep their *global* ids for RNG streams, counter
//!   names and trace lines — so every byte a worker produces already
//!   speaks global ids, and the merge never has to translate.
//! * **Index-ordered, canonical merges.** Worker results are merged in
//!   shard-index order (no completion-order nondeterminism): per-flow
//!   stats are taken from each flow's owning shard in ascending global
//!   flow order; counters merge by fixed per-name rules (see
//!   `ShardedSimulation::merge_counters`); traces merge in canonical
//!   `(time, rendered line)` order — rendered into one shared buffer,
//!   not one `String` per event — and are truncated to the configured
//!   cap only *after* the sort, so the bytes cannot depend on the shard
//!   count.
//!
//! The result: `SimReport`s, telemetry manifests and canonical traces
//! are byte-identical across `--shards` counts, and equal to the
//! single-threaded engine's up to canonical trace ordering — enforced by
//! `crates/sim/tests/shard_equivalence.rs` over the full corpus.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use empower_datapath::{IfaceId, IfaceRegistry, SourceRoute};
use empower_exec::run_indexed;
use empower_model::shard::{
    extract_view, plan_shards, CouplingSpec, ShardPlan, ShardView, ViewScratch,
};
use empower_model::{InterferenceMap, LinkId, Network, NodeId, Path};
use empower_telemetry::{CounterSnapshot, CounterType, Telemetry};

use crate::config::SimConfig;
use crate::engine::Simulation;
use crate::flow::FlowSpecSim;
use crate::perf::SimPerfStats;
use crate::stats::{FlowStats, SimReport};
use crate::trace::Trace;

/// One recorded API call, replayed per shard at execution time.
enum Op {
    AddFlow(FlowSpecSim),
    LinkChange { at: f64, link: LinkId, capacity_mbps: f64 },
    NodeChange { at: f64, node: NodeId, up: bool },
    ReplaceRoutes { flow: usize, routes: Vec<Path> },
    RunUntil { until: f64 },
}

/// One op rewritten for a specific worker. Flow references carry their
/// *global* ids so the worker can seed RNG streams and name counters
/// exactly as the single-threaded engine does; link/node ids start
/// global and are localized against the worker's view before replay.
enum WorkerOp {
    AddFlow { gid: usize, spec: FlowSpecSim },
    LinkChange { at: f64, link: LinkId, capacity_mbps: f64 },
    NodeChange { at: f64, node: NodeId, up: bool },
    ReplaceRoutes { gid: usize, routes: Vec<Path> },
    RunUntil { until: f64 },
}

/// What one shard worker sends back for merging.
type WorkerOut = (Vec<FlowStats>, CounterSnapshot, Option<Trace>, SimPerfStats);

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
    /// Workers borrow it and extract their views without cloning the
    /// graph.
    net: Network,
    imap: InterferenceMap,
    reg: IfaceRegistry,
    cfg: SimConfig,
    shards: u32,
    ops: Vec<Op>,
    flow_count: usize,
    tele: Telemetry,
    /// `Some(cap)` once a trace sink is attached (the sink itself is
    /// re-created canonically at merge time; workers record unbounded).
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
    /// workers record unbounded and the merged trace is truncated to the
    /// cap *after* the canonical sort (truncating earlier would make the
    /// kept prefix depend on the shard count).
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
        let installed = routes.iter().filter(|p| self.resolves(p)).count();
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

    /// The shard plan for the current op log (diagnostics / tests).
    pub fn plan(&self) -> ShardPlan {
        let (spec, _) = self.coupling();
        plan_shards(&self.net, &self.imap, &spec, self.shards)
    }

    /// Mirror of the engine's route resolution, which is static: link ids
    /// never disappear (failures zero capacities) and the interface
    /// registry is fixed at construction.
    fn resolves(&self, p: &Path) -> bool {
        let mut hops: Vec<IfaceId> = Vec::with_capacity(p.links().len());
        for &l in p.links() {
            let Some(link) = self.net.try_link(l) else { return false };
            let Some(id) = self.reg.id_of(link.to, link.medium) else { return false };
            hops.push(id);
        }
        SourceRoute::new(&hops).is_ok()
    }

    /// Builds the coupling spec from the op log: every flow's link
    /// closure (all routes, all scheduled replacement routes, and for TCP
    /// flows the receiver's adjacent links — the §6.4 tcp-margin flag
    /// influences every link whose contention domain contains the
    /// receiver, and R1 pulls those in through the adjacent links), plus
    /// the fault-node list. Also returns the op-aligned fault links.
    fn coupling(&self) -> (CouplingSpec, Vec<Vec<LinkId>>) {
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
        let per_flow = flow_links.clone();
        (CouplingSpec { flow_links, fault_nodes }, per_flow)
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

    fn execute(&self) -> Exec {
        let (cspec, per_flow_links) = self.coupling();
        let plan = plan_shards(&self.net, &self.imap, &cspec, self.shards);

        // Owners: a flow belongs to its closure's (single) atom; a fault
        // op to its link's / node's atom. R4 makes all links adjacent to
        // a faulted node one atom, so "first adjacent link" is canonical.
        let flow_owner: Vec<u32> =
            per_flow_links.iter().map(|links| plan.shard_of_link(links[0])).collect();
        let mut next_flow = 0usize;
        let op_owner: Vec<u32> = self
            .ops
            .iter()
            .map(|op| match op {
                Op::AddFlow(_) => {
                    let o = flow_owner[next_flow];
                    next_flow += 1;
                    o
                }
                Op::LinkChange { link, .. } => plan.shard_of_link(*link),
                Op::NodeChange { node, .. } => self
                    .net
                    .out_links(*node)
                    .chain(self.net.in_links(*node))
                    .map(|l| plan.shard_of_link(l.id))
                    .next()
                    .unwrap_or(0),
                Op::ReplaceRoutes { flow, .. } => flow_owner[*flow],
                Op::RunUntil { .. } => 0,
            })
            .collect();

        // Shards with neither flows nor fault events would only replay
        // idle control ticks; skip them (global per-tick counters merge
        // by max, so the remaining shards carry them).
        let mut used: BTreeSet<u32> = flow_owner.iter().copied().collect();
        for (i, op) in self.ops.iter().enumerate() {
            if matches!(op, Op::LinkChange { .. } | Op::NodeChange { .. }) {
                used.insert(op_owner[i]);
            }
        }
        if used.is_empty() {
            used.insert(0);
        }
        let used: Vec<u32> = used.into_iter().collect();

        // Active atoms: only atoms hosting an owned flow or a scheduled
        // op do any observable work — zero demand, zero violations, zero
        // traffic everywhere else — so views exclude the rest entirely.
        // This is where the wall-clock win comes from: control ticks and
        // MAC domain scans run over each shard's local links only.
        let mut active_atom = vec![false; plan.atom_count as usize];
        for links in &per_flow_links {
            active_atom[plan.atom_of_link[links[0].index()] as usize] = true;
        }
        for op in &self.ops {
            match op {
                Op::LinkChange { link, .. } => {
                    active_atom[plan.atom_of_link[link.index()] as usize] = true;
                }
                Op::NodeChange { node, .. } => {
                    for l in self.net.out_links(*node).chain(self.net.in_links(*node)) {
                        active_atom[plan.atom_of_link[l.id.index()] as usize] = true;
                    }
                }
                _ => {}
            }
        }

        // Rewrite the op log into one replay list per used shard: every
        // shard sees its own ops (with global flow ids attached) plus all
        // time advances, in original log order.
        let mut worker_ops: Vec<Vec<WorkerOp>> = used.iter().map(|_| Vec::new()).collect();
        let pos_of = |s: u32| used.iter().position(|&u| u == s);
        let mut next_flow = 0usize;
        for (i, op) in self.ops.iter().enumerate() {
            let owned = |worker_ops: &mut Vec<Vec<WorkerOp>>, wop: WorkerOp| {
                let Some(p) = pos_of(op_owner[i]) else {
                    unreachable!("owner of an op is always a used shard")
                };
                worker_ops[p].push(wop);
            };
            match op {
                Op::AddFlow(spec) => {
                    let gid = next_flow;
                    next_flow += 1;
                    owned(&mut worker_ops, WorkerOp::AddFlow { gid, spec: spec.clone() });
                }
                Op::LinkChange { at, link, capacity_mbps } => owned(
                    &mut worker_ops,
                    WorkerOp::LinkChange { at: *at, link: *link, capacity_mbps: *capacity_mbps },
                ),
                Op::NodeChange { at, node, up } => {
                    owned(&mut worker_ops, WorkerOp::NodeChange { at: *at, node: *node, up: *up })
                }
                Op::ReplaceRoutes { flow, routes } => owned(
                    &mut worker_ops,
                    WorkerOp::ReplaceRoutes { gid: *flow, routes: routes.clone() },
                ),
                Op::RunUntil { until } => {
                    for list in worker_ops.iter_mut() {
                        list.push(WorkerOp::RunUntil { until: *until });
                    }
                }
            }
        }

        let instrument = self.tele.is_enabled();
        let trace_on = self.trace_cap.is_some();
        // One job per used shard, at most one thread per core; on a single
        // core the jobs run in shard order on this thread.
        let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (net, imap, cfg) = (&self.net, &self.imap, &self.cfg);
        let results: Vec<WorkerOut> = run_indexed(jobs, used.len(), |w| {
            run_worker(
                net,
                imap,
                &plan,
                used[w],
                &active_atom,
                cfg,
                &worker_ops[w],
                instrument,
                trace_on,
            )
        });

        // Per-flow stats: each worker reports exactly its own flows in
        // ascending global order, so a per-shard cursor walk reassembles
        // the global order without any placeholder entries.
        let mut cursor = vec![0usize; results.len()];
        let mut flows = Vec::with_capacity(self.flow_count);
        for owner in &flow_owner {
            let Some(pos) = used.iter().position(|u| u == owner) else {
                unreachable!("every flow owner is a used shard")
            };
            let c = cursor[pos];
            cursor[pos] += 1;
            flows.push(results[pos].0[c].clone());
        }

        if instrument {
            self.merge_counters(&results);
        }

        let trace = self.trace_cap.map(|cap| {
            // Canonical order: (time, rendered line). Equal-time events
            // from independent atoms have no defined order in a single
            // event loop; the canonical sort makes the merged bytes a
            // function of the event *multiset* only. Every line is
            // rendered into ONE shared buffer and keyed by its byte
            // range, not into one `String` per event.
            let mut buf = String::new();
            let mut keyed: Vec<(u64, u32, u32, u32, u32)> = Vec::new();
            for (r, (_, _, tr, _)) in results.iter().enumerate() {
                let Some(tr) = tr else { continue };
                for (i, e) in tr.events().iter().enumerate() {
                    let start = buf.len() as u32;
                    let _ = write!(buf, "{}", e.to_json());
                    keyed.push((e.time().to_bits(), start, buf.len() as u32, r as u32, i as u32));
                }
            }
            keyed.sort_by(|a, b| {
                (a.0, &buf[a.1 as usize..a.2 as usize])
                    .cmp(&(b.0, &buf[b.1 as usize..b.2 as usize]))
            });
            let mut out = match cap {
                Some(c) => Trace::bounded(c),
                None => Trace::new(),
            };
            for &(_, _, _, r, i) in &keyed {
                let Some(tr) = &results[r as usize].2 else {
                    unreachable!("keyed events only come from present traces")
                };
                out.push(tr.events()[i as usize].clone());
            }
            out
        });

        let mut perf = SimPerfStats::default();
        let mut shard_events = Vec::with_capacity(results.len());
        for (_, _, _, p) in &results {
            perf.events_dispatched += p.events_dispatched;
            perf.domain_probes += p.domain_probes;
            perf.hot_allocs += p.hot_allocs;
            perf.slab_grows += p.slab_grows;
            shard_events.push(p.events_dispatched);
        }

        Exec {
            ops_done: self.ops.len(),
            flows,
            trace,
            perf,
            shard_events,
            shards_used: results.len(),
        }
    }

    /// Folds the per-shard counter snapshots into the attached registry.
    ///
    /// Workers run on shard-local views, so per-name rules (DESIGN.md
    /// §13):
    /// * `ctrl/ticks` — **max**: every worker ticks the full horizon, so
    ///   the values are equal and must not multiply.
    /// * `cc/price_updates` — **reconstructed** as merged ticks × the
    ///   *global* link count: each worker advances it by its local link
    ///   count per tick, and links outside every view still carry a
    ///   (trivially converged) price in the serial semantics.
    /// * `mac/penalty_airtime_us` — **sum**: a gauge by flavor but
    ///   accumulated (`add`), and only owning shards contribute.
    /// * other gauges (`link/<g>/queue_hwm`) — **max**, with gauges for
    ///   links outside every view **zero-filled** so the manifest's name
    ///   set matches the single-threaded engine's.
    /// * everything else — **sum**: traffic and flow counters are only
    ///   advanced by the owning shard, so sums reproduce serial totals.
    ///
    /// Values are written with `set`, making re-merges after op-log
    /// growth idempotent.
    fn merge_counters(&self, results: &[WorkerOut]) {
        let mut merged: BTreeMap<String, (CounterType, u64)> = BTreeMap::new();
        for (_, snap, _, _) in results {
            for (name, flavor, value) in &snap.counters {
                let slot = merged.entry(name.clone()).or_insert((*flavor, 0));
                let take_max = name == "ctrl/ticks"
                    || (*flavor == CounterType::Gauge && name != "mac/penalty_airtime_us");
                if take_max {
                    slot.1 = slot.1.max(*value);
                } else {
                    slot.1 += *value;
                }
            }
        }
        let ticks = merged.get("ctrl/ticks").map(|&(_, v)| v).unwrap_or(0);
        if let Some(slot) = merged.get_mut("cc/price_updates") {
            slot.1 = ticks * self.net.link_count() as u64;
        }
        for g in 0..self.net.link_count() {
            merged.entry(format!("link/{g}/queue_hwm")).or_insert((CounterType::Gauge, 0));
        }
        for (name, (flavor, value)) in &merged {
            self.tele.counter(name.clone(), *flavor).set(*value);
        }
    }
}

/// One shard's run: extract the view, localize the replay list, drive a
/// [`Simulation`] over the subnetwork, and return globally-addressed
/// results. Runs on an executor thread.
#[allow(clippy::too_many_arguments)]
fn run_worker(
    net: &Network,
    imap: &InterferenceMap,
    plan: &ShardPlan,
    shard: u32,
    active_atom: &[bool],
    cfg: &SimConfig,
    ops: &[WorkerOp],
    instrument: bool,
    trace_on: bool,
) -> WorkerOut {
    let view = extract_view(net, imap, plan, shard, active_atom, &mut ViewScratch::default());

    // Localize the whole replay list up front. Owned flows and faults
    // always fit the view by construction (their atoms are active and
    // packed here); the one legitimate miss is a NodeChange on a node
    // with no links in any active atom, which has no observable effect
    // and is skipped outright.
    let mut local: Vec<WorkerOp> = Vec::with_capacity(ops.len());
    for op in ops {
        match *op {
            WorkerOp::AddFlow { gid, ref spec } => {
                let Some(src) = view.local_node(spec.src) else {
                    unreachable!("owned flow's source is outside its shard view")
                };
                let Some(dst) = view.local_node(spec.dst) else {
                    unreachable!("owned flow's destination is outside its shard view")
                };
                let spec = FlowSpecSim {
                    src,
                    dst,
                    routes: localize_routes(&view, &spec.routes),
                    open_loop_rates: spec.open_loop_rates.clone(),
                    ..*spec
                };
                local.push(WorkerOp::AddFlow { gid, spec });
            }
            WorkerOp::LinkChange { at, link, capacity_mbps } => {
                let Some(l) = view.local_link(link) else {
                    unreachable!("owned link fault is outside its shard view")
                };
                local.push(WorkerOp::LinkChange { at, link: l, capacity_mbps });
            }
            WorkerOp::NodeChange { at, node, up } => {
                if let Some(n) = view.local_node(node) {
                    local.push(WorkerOp::NodeChange { at, node: n, up });
                }
            }
            WorkerOp::ReplaceRoutes { gid, ref routes } => {
                local.push(WorkerOp::ReplaceRoutes { gid, routes: localize_routes(&view, routes) });
            }
            WorkerOp::RunUntil { until } => local.push(WorkerOp::RunUntil { until }),
        }
    }

    let link_gids: Vec<u32> = view.link_to_global.iter().map(|l| l.0).collect();
    let ShardView { net: vnet, imap: vimap, .. } = view;
    let mut sim = Simulation::with_global_link_ids(vnet, vimap, cfg.clone(), link_gids);
    if instrument {
        sim.attach_telemetry(Telemetry::enabled());
    }
    if trace_on {
        sim.attach_trace(Trace::new());
    }

    // Owned flows arrive in ascending global-id order, so the local
    // index of gid `g` is its rank in this list.
    let mut owned_gids: Vec<usize> = Vec::new();
    for op in local {
        match op {
            WorkerOp::AddFlow { gid, spec } => {
                owned_gids.push(gid);
                sim.add_flow_global(spec, gid);
            }
            WorkerOp::LinkChange { at, link, capacity_mbps } => {
                sim.schedule_link_change(at, link, capacity_mbps);
            }
            WorkerOp::NodeChange { at, node, up } => sim.schedule_node_change(at, node, up),
            WorkerOp::ReplaceRoutes { gid, routes } => {
                let Ok(f) = owned_gids.binary_search(&gid) else {
                    unreachable!("replace_routes routed to a shard that does not own the flow")
                };
                sim.replace_routes(f, routes);
            }
            WorkerOp::RunUntil { until } => sim.run_until(until),
        }
    }

    let flows = sim.report(0.0).flows;
    let snap = sim.telemetry().snapshot();
    let trace = sim.take_trace();
    let perf = sim.perf_stats();
    (flows, snap, trace, perf)
}

/// Rewrites a set of global-id routes into view-local ids. Every route
/// of an owned flow — including scheduled replacements — is inside the
/// flow's coupling atom, hence inside the view.
fn localize_routes(view: &ShardView, routes: &[Path]) -> Vec<Path> {
    routes
        .iter()
        .map(|p| {
            let Some(local) = view.localize_path(p) else {
                unreachable!("owned flow's route leaves its shard view")
            };
            local
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// The view-based workers do strictly less total work than one
    /// engine over the full network — the wall-clock side of the PR.
    /// With views, the whole 4-shard run dispatches barely more events
    /// than the serial engine (the extra is one control-tick chain per
    /// additional worker), where the old full-clone workers each
    /// re-dispatched the full network's control plane.
    #[test]
    fn view_workers_do_not_multiply_control_work() {
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
