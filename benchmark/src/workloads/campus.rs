//! `campus_dense` and `campus_sparse`: a workload document through
//! `Workload::parse_str` → `run_workload` on a generated campus.
//!
//! The timed pass calls exactly those two entry points and renders what the
//! CLI renders. The traced pass re-plays `run_workload_with`'s sequence
//! call by call — the only way to put a span around each layer from
//! outside — and must render the same bytes, which the harness checks.

use std::fmt::Write as _;

use empower_model::rng::{SeedableRng, StdRng};
use empower_model::topology::campus::{campus, CampusConfig};
use empower_model::{CarrierSense, InterferenceMap, InterferenceModel, Network};
use empower_sim::corpus::{ShardedN, SimEngine};
use empower_sim::{SimConfig, SimReport, Simulation, Trace, TrafficPattern};
use empower_telemetry::{Manifest, Telemetry};
use empower_workload::routes::build_topology;
use empower_workload::{
    compile, run_workload, ClientKind, CompiledWorkload, Workload, WorkloadSlo, WorkloadTopology,
};

use super::{probes, sim_counts, AllocPhases, Tr};
use crate::gen::{self, Campus, Size};
use crate::harness::{Bench, Ledger, Outcome, ProbeCtx};
use crate::spans::Recorder;

pub struct CampusBench {
    text: String,
}

impl CampusBench {
    pub fn new(seed: u64, which: Campus, size: Size) -> CampusBench {
        CampusBench { text: gen::campus_doc(seed, which, size) }
    }
}

/// The SLO table as `empower workload run` prints it.
fn slo_table(w: &Workload, flows: usize, slo: &WorkloadSlo) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "workload {:?}: {} client groups, {} flows on {}, {:.0} s horizon, seed {}",
        w.name,
        w.clients.len(),
        flows,
        w.topology.kind.label(),
        w.run.horizon_secs,
        w.run.seed
    );
    let _ = writeln!(
        s,
        "{:<14} {:>5} {:>9} {:>22} {:>17} {:>6}",
        "client", "flows", "MB", "fct p50/p95/p99 ms", "goodput p50 kbps", "jain"
    );
    for c in &slo.clients {
        let _ = writeln!(
            s,
            "{:<14} {:>5} {:>9.2} {:>10}/{:>5}/{:>5} {:>17} {:>6}",
            c.label,
            c.flows,
            c.delivered_bytes as f64 / 1e6,
            c.fct_ms.p50,
            c.fct_ms.p95,
            c.fct_ms.p99,
            c.goodput_kbps.p50,
            c.jain_milli,
        );
    }
    s
}

/// A saturated session this short may end before its first frame is
/// through; delivering nothing is then not a failure.
const MIN_JUDGED_WINDOW_SECS: f64 = 1.0;

/// Operations are flows. A finite transfer fails unless it completes by
/// the horizon; an open-ended flow fails if it delivers nothing.
fn judge(w: &Workload, compiled: &CompiledWorkload, report: &SimReport, out: &mut Outcome) {
    let horizon = w.run.horizon_secs;
    out.ops = compiled.flows.len() as u64;
    for (f, st) in compiled.flows.iter().zip(&report.flows) {
        let done = st.completions.len() as u64;
        let ok = match f.spec.pattern {
            TrafficPattern::FileDownload { .. } => done >= 1,
            TrafficPattern::Tcp { size_bytes, .. } if size_bytes > 0 => done >= 1,
            TrafficPattern::PoissonFiles { count, .. }
                if matches!(w.clients[f.client].kind, ClientKind::RequestResponse { .. }) =>
            {
                done >= u64::from(count)
            }
            TrafficPattern::SaturatedUdp { start, stop }
                if stop.min(horizon) - start < MIN_JUDGED_WINDOW_SECS =>
            {
                true
            }
            _ => st.delivered_bits > 0,
        };
        if !ok {
            out.failed += 1;
            out.failed_ops.push(format!(
                "{} {:?}: {} completions, {} bits delivered",
                compiled.labels[f.client], f.spec.pattern, done, st.delivered_bits
            ));
        }
    }
}

/// Share of the simulated horizon after the last flow went quiet.
fn idle_tail_frac(report: &SimReport) -> f64 {
    let last = report
        .flows
        .iter()
        .map(|f| if f.stopped_at > 0.0 { f.stopped_at } else { report.duration })
        .fold(0.0, f64::max);
    (1.0 - last / report.duration).max(0.0)
}

fn finish(
    w: &Workload,
    compiled: &CompiledWorkload,
    report: &SimReport,
    slo: &WorkloadSlo,
    manifest: String,
    trace: String,
) -> Outcome {
    let mut out = Outcome { goodput_mbps: super::goodput_mbps(report), ..Outcome::default() };
    judge(w, compiled, report, &mut out);
    out.rendered = vec![
        ("report", format!("{report:?}")),
        ("slo", slo_table(w, compiled.flows.len(), slo)),
        ("manifest", manifest),
        ("trace", trace),
    ];
    out
}

/// `routes::build_topology`, with the topology and the interference map as
/// two calls so each gets its span.
fn topology(w: &Workload, tr: &mut Tr) -> (Network, InterferenceMap) {
    let WorkloadTopology::Campus { buildings, floors_per_building, clients_per_floor } =
        w.topology.kind
    else {
        return tr.call("model.topology", || build_topology(&w.topology));
    };
    let net = tr.call("model.topology", || {
        let mut rng = StdRng::seed_from_u64(w.topology.seed);
        campus(&mut rng, &CampusConfig::new(buildings, floors_per_building, clients_per_floor)).net
    });
    let imap = tr.call("model.imap", || CarrierSense::default().build_map(&net));
    (net, imap)
}

/// Everything `run_workload_with` does before `run_until`.
struct Ready<E> {
    w: Workload,
    compiled: CompiledWorkload,
    sim: E,
}

fn prepare<E: SimEngine>(text: &str, tr: &mut Tr) -> Ready<E> {
    let w =
        tr.call("workload.parse", || Workload::parse_str(text)).expect("generated document parses");
    let (net, imap) = topology(&w, tr);
    let compiled = tr
        .call("workload.compile", || w.validate().and_then(|()| compile(&w, &net)))
        .expect("generated document compiles");
    let sim = tr.call("sim.construct", || {
        let cfg =
            SimConfig { seed: w.run.seed, estimation_rel_std: w.run.noise, ..SimConfig::default() };
        let mut sim = E::build(net, imap, cfg);
        sim.attach_telemetry(Telemetry::enabled());
        sim.attach_trace(Trace::bounded(50_000));
        for f in &compiled.flows {
            sim.add_flow(f.spec.clone());
        }
        sim
    });
    Ready { w, compiled, sim }
}

/// The rest of `run_workload_with`; `run_until` is stepped one control
/// slot at a time when traced, so each slot is a `sim.run` span.
fn run<E: SimEngine>(
    ready: Ready<E>,
    tr: &mut Tr,
    alloc: &mut AllocPhases,
) -> (Outcome, E, SimReport) {
    let Ready { w, compiled, mut sim } = ready;
    let horizon = w.run.horizon_secs;
    super::run_in_slots(&mut sim, 0.0, horizon, tr);
    alloc.end_run();
    let report = tr.call("sim.report", || sim.report(horizon));
    let slo = tr.call("workload.slo", || {
        let slo = WorkloadSlo::compute(&w.name, &compiled, &report);
        slo.emit(sim.telemetry());
        slo
    });
    let manifest = tr.call("telemetry.manifest", || {
        let mut m = Manifest::new("workload");
        m.set("workload", w.name.as_str())
            .set("seed", w.run.seed)
            .set("horizon_secs", horizon)
            .set("flows", compiled.flows.len() as u64);
        m.attach_counters(sim.telemetry());
        m.render()
    });
    let trace = tr.call("telemetry.trace_jsonl", || {
        sim.take_trace().map(|t| t.to_jsonl()).unwrap_or_default()
    });
    let out = finish(&w, &compiled, &report, &slo, manifest, trace);
    (out, sim, report)
}

impl Bench for CampusBench {
    fn inputs(&self) -> String {
        self.text.clone()
    }

    fn setup(&self) {
        std::hint::black_box(prepare::<Simulation>(&self.text, &mut Tr::off()));
    }

    fn iterate(&self) -> Outcome {
        let w = Workload::parse_str(&self.text).expect("generated document parses");
        let o = run_workload(&w).expect("generated workload runs");
        finish(&w, &o.compiled, &o.report, &o.slo, o.manifest, o.trace)
    }

    fn iterate_traced(&self, rec: &mut Recorder, ledger: &mut Ledger) -> Outcome {
        let mut alloc = AllocPhases::start();
        let mut tr = Tr::on(rec);
        let ready = prepare::<Simulation>(&self.text, &mut tr);
        alloc.end_setup();
        let flows = ready.compiled.flows.len();
        let (out, sim, report) = run(ready, &mut tr, &mut alloc);
        alloc.end_render();
        alloc.finish(ledger);

        ledger.set("workload.flows", flows as f64);
        ledger.set("workload.doc_bytes", self.text.len() as f64);
        ledger.set("telemetry.manifest_bytes", out.rendered_bytes("manifest"));
        ledger.set("telemetry.trace_bytes", out.rendered_bytes("trace"));
        ledger.set("sim.idle_tail_frac", idle_tail_frac(&report));
        sim_counts(&sim.perf_stats(), &sim.telemetry().snapshot(), ledger);
        out
    }

    fn probes(&self, ctx: &mut ProbeCtx, ledger: &mut Ledger) {
        let w = Workload::parse_str(&self.text).expect("generated document parses");
        let (net, imap) = build_topology(&w.topology);
        probes::network_counts(&net, &imap, ledger);
        probes::idle_tick(&net, &imap, w.run.seed, ledger);
        let flows = ledger.get("workload.flows").unwrap_or(1.0) as usize;
        probes::event_queue(flows, ledger);

        // The sharded engine on the same document, whole iteration against
        // whole iteration. The CLI never selects it; this is the evidence
        // for putting it on trial.
        let t = std::time::Instant::now();
        let ready = prepare::<ShardedN<2>>(&self.text, &mut Tr::off());
        let (out, sharded, _) = run(ready, &mut Tr::off(), &mut AllocPhases::start());
        let secs = t.elapsed().as_secs_f64();
        ledger.set("sim.sharded.run_s", secs);
        ledger.set("sim.sharded.wall_ratio", secs / ctx.plain_wall_s);
        ledger.set("sim.sharded.shards_used", sharded.0.shards_used() as f64);
        let most = sharded.0.shard_events_dispatched().into_iter().max().unwrap_or(0);
        ledger.set("sim.sharded.max_shard_events", most as f64);
        // The sharded engine emits its trace in canonical order, so the
        // trace is the one rendering the two engines need not share.
        ctx.expect_same_bytes("sharded engine", &out, &["report", "slo", "manifest"]);
        probes::json_parse(&sharded.telemetry().snapshot(), ctx, ledger);
    }
}
