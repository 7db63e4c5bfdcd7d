//! The six workloads, and what they share: the optional span recorder, the
//! allocation phases, and reading the counts the simulator already exposes.

pub mod campus;
pub mod datapath;
pub mod probes;
pub mod route_eval;
pub mod scenario;
pub mod testbed;

use empower_sim::corpus::SimEngine;
use empower_sim::{SimConfig, SimPerfStats, SimReport};
use empower_telemetry::CounterSnapshot;

use crate::alloc;
use crate::gen::{Campus, Size};
use crate::harness::{Bench, Ledger};
use crate::spans::{Open, Recorder};

/// Builds the workload called `name` with inputs generated from `seed`.
pub fn build(name: &str, seed: u64, size: Size) -> Option<Box<dyn Bench>> {
    Some(match name {
        "campus_dense" => Box::new(campus::CampusBench::new(seed, Campus::Dense, size)),
        "campus_sparse" => Box::new(campus::CampusBench::new(seed, Campus::Sparse, size)),
        "testbed_downloads" => Box::new(testbed::TestbedBench::new(seed, size)),
        "scenario_faults" => Box::new(scenario::ScenarioBench::new(seed, size)),
        "route_eval" => Box::new(route_eval::RouteEvalBench::new(seed, size)),
        "datapath_forward" => Box::new(datapath::DatapathBench::new(seed, size)),
        _ => return None,
    })
}

/// A span recorder that may be absent, so one function serves as set-up
/// repetition (no spans) and as traced replay (a span per call).
pub struct Tr<'a>(Option<&'a mut Recorder>);

impl<'a> Tr<'a> {
    pub fn on(rec: &'a mut Recorder) -> Self {
        Tr(Some(rec))
    }

    pub fn off() -> Self {
        Tr(None)
    }

    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        match &mut self.0 {
            Some(rec) => rec.call(name, f),
            None => f(),
        }
    }

    /// Opens a span that calls made through `self` nest under; close it
    /// with [`Tr::exit`].
    pub fn enter(&mut self, name: &'static str) -> Option<Open> {
        self.0.as_mut().map(|rec| rec.enter(name))
    }

    pub fn exit(&mut self, open: Option<Open>) {
        if let (Some(rec), Some(open)) = (&mut self.0, open) {
            rec.exit(open);
        }
    }
}

/// Advances `sim` from `from` to `to`. Traced, it stops at every control
/// slot boundary so each slot is one `sim.run` span; `run_until` pauses
/// with all state intact, so the stepped run renders the same bytes.
pub fn run_in_slots<E: SimEngine>(sim: &mut E, from: f64, to: f64, tr: &mut Tr) {
    if tr.is_on() {
        let slot = SimConfig::default().slot_secs;
        let mut k = (from / slot).floor() as u64 + 1;
        while (k as f64) * slot < to {
            tr.call("sim.run", || sim.run_until(k as f64 * slot));
            k += 1;
        }
    }
    tr.call("sim.run", || sim.run_until(to));
}

/// Heap allocations of the traced iteration by phase. Each `end_*` call
/// books what was allocated since the previous one, so phases may repeat
/// (a workload that runs several documents sets up, runs and renders once
/// per document).
pub struct AllocPhases {
    last: (u64, u64),
    setup: u64,
    run: (u64, u64),
    render: u64,
}

impl AllocPhases {
    pub fn start() -> Self {
        AllocPhases { last: alloc::totals(), setup: 0, run: (0, 0), render: 0 }
    }

    fn since_last(&mut self) -> (u64, u64) {
        let now = alloc::totals();
        let delta = (now.0 - self.last.0, now.1 - self.last.1);
        self.last = now;
        delta
    }

    pub fn end_setup(&mut self) {
        self.setup += self.since_last().0;
    }

    pub fn end_run(&mut self) {
        let (count, bytes) = self.since_last();
        self.run = (self.run.0 + count, self.run.1 + bytes);
    }

    pub fn end_render(&mut self) {
        self.render += self.since_last().0;
    }

    pub fn finish(self, ledger: &mut Ledger) {
        ledger.set("alloc.setup.count", self.setup as f64);
        ledger.set("alloc.run.count", self.run.0 as f64);
        ledger.set("alloc.run.bytes", self.run.1 as f64);
        ledger.set("alloc.render.count", self.render as f64);
    }
}

/// Delivered payload bits over the simulated horizon, summed over flows.
pub fn goodput_mbps(report: &SimReport) -> f64 {
    report.flows.iter().map(|f| f.delivered_bits).sum::<u64>() as f64 / report.duration / 1e6
}

/// Adds one simulation's work counters to a workload's total.
pub fn add_perf(total: &mut SimPerfStats, one: &SimPerfStats) {
    total.events_dispatched += one.events_dispatched;
    total.domain_probes += one.domain_probes;
    total.hot_allocs += one.hot_allocs;
    total.slab_grows += one.slab_grows;
}

/// The counts the simulator keeps on its own: `SimPerfStats` and the
/// engine's telemetry counters.
pub fn sim_counts(perf: &SimPerfStats, snap: &CounterSnapshot, ledger: &mut Ledger) {
    let counter = |name: &str| snap.value(name).unwrap_or(0) as f64;
    ledger.set("sim.events", perf.events_dispatched as f64);
    ledger.set("sim.domain_probes", perf.domain_probes as f64);
    ledger.set("sim.hot_allocs", perf.hot_allocs as f64);
    ledger.set("sim.slab_grows", perf.slab_grows as f64);
    ledger.set("sim.ticks", counter("ctrl/ticks"));
    ledger.set("sim.mac_grants", counter("mac/grants"));
    ledger.set("sim.mac_deferrals", counter("mac/deferrals"));
    ledger
        .set("sim.queue_drops", counter("queue/drops_overflow") + counter("queue/drops_dead_link"));
    ledger.set("datapath.loss_rule_firings", counter("datapath/loss_rule_firings"));
    ledger.set("datapath.reorder_flushes", counter("datapath/reorder_flushes"));
    ledger.set("cc.price_updates", counter("cc/price_updates"));
    ledger.set("cc.margin_violations", counter("cc/margin_violations"));
    ledger.set("telemetry.counters", snap.counters.len() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::harness::digest;
    use crate::metrics::WORKLOADS;

    #[test]
    fn every_listed_workload_builds_and_no_other() {
        for (name, _) in WORKLOADS {
            assert!(build(name, 1, Size::Smoke).is_some(), "{name}");
        }
        assert!(build("no_such_workload", 1, Size::Smoke).is_none());
    }

    #[test]
    fn generated_workload_documents_parse_validate_and_compile() {
        use empower_workload::routes::build_topology;
        use empower_workload::{compile, Workload};
        for seed in [1, 2, 0xdead_beef] {
            for which in [Campus::Dense, Campus::Sparse] {
                for size in [Size::Smoke, Size::Full] {
                    let text = gen::campus_doc(seed, which, size);
                    let w = Workload::parse_str(&text)
                        .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", which.name()));
                    w.validate().expect("validates");
                    assert_eq!(w.name, which.name());
                    if size == Size::Smoke {
                        let (net, _) = build_topology(&w.topology);
                        let compiled = compile(&w, &net).expect("every pair shares a link");
                        assert!(!compiled.flows.is_empty());
                    }
                }
            }
        }
    }

    #[test]
    fn the_dense_campus_keeps_every_floor_busy_and_the_sparse_one_few() {
        use empower_workload::Workload;
        let floors = gen::CampusGrid::of(Size::Full).floor_count() as usize;
        let busy = |which| {
            let w = Workload::parse_str(&gen::campus_doc(5, which, Size::Full)).unwrap();
            let routers: std::collections::BTreeSet<u32> =
                w.clients.iter().map(|c| c.src).collect();
            routers.len()
        };
        assert_eq!(busy(Campus::Dense), floors);
        let sparse = busy(Campus::Sparse);
        assert!(sparse * 100 >= 5 * floors && sparse * 100 <= 10 * floors, "{sparse} of {floors}");
    }

    #[test]
    fn generated_scenarios_parse_validate_and_inject_on_links_their_flows_use() {
        use empower_core::RunConfig;
        use empower_dynamics::driver::build_topology;
        use empower_dynamics::{injector, GeneratorSpec, Scenario};
        use empower_model::{LinkId, NodeId};
        for seed in [1, 7] {
            for text in gen::scenario_docs(seed, Size::Smoke) {
                let s = Scenario::parse_str(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
                s.validate().expect("validates");
                let (net, imap) = build_topology(&s);
                let faults = injector::compile(&s, &net, &imap).expect("faults name real links");
                assert!(!faults.is_empty());
                assert_eq!(s.generators.len(), 2);
                assert_eq!(s.events.len(), 2, "one crash and one recovery");
                let config = RunConfig::new(s.run.scheme);
                for (g, flow) in s.generators.iter().zip(&s.flows) {
                    let (GeneratorSpec::MarkovOnOff { link, .. }
                    | GeneratorSpec::GilbertElliott { link, .. }) = g;
                    let routes =
                        config.routes(&net, &imap, NodeId(flow.src), NodeId(flow.dst)).unwrap();
                    assert!(
                        routes.routes.iter().any(|r| r.path.uses_link(LinkId(*link))),
                        "generator on link {link} misses flow {}>{}",
                        flow.src,
                        flow.dst
                    );
                }
            }
        }
    }

    /// The seed really drives the inputs: one seed gives the same inputs
    /// and the same output bytes twice, another seed gives other inputs and
    /// other bytes, and the traced replay renders what the entry points do.
    #[test]
    fn one_seed_repeats_exactly_and_two_seeds_differ() {
        for (name, _) in WORKLOADS {
            let a = build(name, 11, Size::Smoke).unwrap();
            let again = build(name, 11, Size::Smoke).unwrap();
            let other = build(name, 12, Size::Smoke).unwrap();
            assert_eq!(a.inputs(), again.inputs(), "{name}: inputs of one seed");
            assert_ne!(a.inputs(), other.inputs(), "{name}: inputs of two seeds");

            let out = a.iterate();
            assert!(out.ops > 0 && out.failed == 0, "{name}: {:?}", out.failed_ops);
            assert!(out.check_failures.is_empty(), "{name}: {:?}", out.check_failures);
            assert!(out.goodput_mbps > 0.0, "{name}: goodput is never zero");
            let d = digest(&out.rendered);
            assert_eq!(d, digest(&again.iterate().rendered), "{name}: digest of one seed");
            assert_ne!(d, digest(&other.iterate().rendered), "{name}: digest of two seeds");

            let mut rec = Recorder::new();
            let mut ledger = Ledger::default();
            let traced = a.iterate_traced(&mut rec, &mut ledger);
            assert_eq!(d, digest(&traced.rendered), "{name}: traced replay renders other bytes");
            assert_eq!(traced.goodput_mbps.to_bits(), out.goodput_mbps.to_bits(), "{name}");
            assert!(!rec.spans().is_empty(), "{name}: the traced pass records spans");
        }
    }
}
