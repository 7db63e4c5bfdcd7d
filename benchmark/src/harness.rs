//! The two passes every workload goes through.
//!
//! The *timed* pass measures what a user sees with tracing off: it repeats
//! set-up alone, then whole iterations (input text in, every output
//! rendered) for the requested number of seconds, and reports medians. The
//! *traced* pass re-plays the same iteration call by call with a span
//! around each call into a layer and the allocation counter on, and
//! alternates it with plain iterations so the tracing overhead is measured
//! in the same process. Both passes check every iteration's outputs.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::alloc;
use crate::metrics;
use crate::spans::{self, Recorder};
use crate::stats::{self, Summary};

/// What one iteration produced. The harness digests `rendered` after the
/// clock has stopped.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: flows, route queries or frames.
    pub ops: u64,
    /// Operations that failed by the workload's rule.
    pub failed: u64,
    /// Which operations failed, in words (the first few are printed).
    pub failed_ops: Vec<String>,
    /// The simulated result, Mbit/s. Repeats exactly for one input.
    pub goodput_mbps: f64,
    /// Every output the iteration rendered, by name, in a fixed order.
    pub rendered: Vec<(&'static str, String)>,
    /// Output checks that did not hold, in words.
    pub check_failures: Vec<String>,
}

impl Outcome {
    /// Appends `text` to the rendering called `name`; renderings keep the
    /// order in which they were first named. For workloads whose iteration
    /// runs several documents and renders each.
    pub fn append(&mut self, name: &'static str, text: &str) {
        match self.rendered.iter_mut().find(|(n, _)| *n == name) {
            Some((_, all)) => all.push_str(text),
            None => self.rendered.push((name, text.to_string())),
        }
    }

    /// Length in bytes of the rendering called `name` (0 if there is none).
    pub fn rendered_bytes(&self, name: &str) -> f64 {
        self.rendered.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, text)| text.len() as f64)
    }
}

/// Exact values a layer exposes (counts, simulated results), by metric name.
#[derive(Debug, Default)]
pub struct Ledger {
    values: BTreeMap<&'static str, f64>,
}

impl Ledger {
    /// Records `value` under the per-layer metric `name`.
    ///
    /// # Panics
    /// Panics on a name that is not in [`metrics::PER_LAYER`]: a misspelt
    /// metric would otherwise vanish from the report silently.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(metrics::per_layer_unit(name).is_some(), "unknown per-layer metric {name:?}");
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.values.iter().map(|(k, v)| (*k, *v))
    }
}

/// One workload with its inputs already generated from the seed.
pub trait Bench {
    /// The generated inputs as text: the documents as the program reads
    /// them, or a description where the input is not a document.
    fn inputs(&self) -> String;

    /// Everything before the first event, query or frame, and nothing
    /// after: parse, topology, interference map, routes, compile, engine
    /// construction, flow registration.
    fn setup(&self);

    /// One whole iteration through the entry points a user calls.
    fn iterate(&self) -> Outcome;

    /// The same iteration call by call, a span around each call into a
    /// layer; exact per-layer values go to `ledger`. Must render the same
    /// bytes as [`Bench::iterate`].
    fn iterate_traced(&self, rec: &mut Recorder, ledger: &mut Ledger) -> Outcome;

    /// Per-layer measurements that are not part of an iteration (an idle
    /// control tick, the event queue alone, the sharded engine, …). Run
    /// once, after the traced iterations.
    fn probes(&self, _ctx: &mut ProbeCtx, _ledger: &mut Ledger) {}
}

/// What a probe may compare itself with: the plain iterations of the pass.
#[derive(Debug)]
pub struct ProbeCtx {
    /// Median wall time of the untraced iterations, seconds.
    pub plain_wall_s: f64,
    /// Digest of each rendering of the first iteration, by name.
    pub rendered: Vec<(&'static str, u64)>,
    pub check_failures: Vec<String>,
}

impl ProbeCtx {
    /// Checks that another way of running the iteration rendered the same
    /// bytes as the iterations did, for the renderings in `names`.
    pub fn expect_same_bytes(&mut self, what: &str, out: &Outcome, names: &[&str]) {
        for (name, text) in out.rendered.iter().filter(|(n, _)| names.contains(n)) {
            let d = fnv1a(FNV_OFFSET, text.as_bytes());
            if !self.rendered.contains(&(*name, d)) {
                self.check_failures
                    .push(format!("{what}: the {name} differs from the iterations' {name}"));
            }
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over the renderings, each followed by a separator so that moving
/// bytes from one rendering to the next changes the digest.
pub fn digest(rendered: &[(&'static str, String)]) -> u64 {
    rendered.iter().fold(FNV_OFFSET, |h, (_, text)| fnv1a(fnv1a(h, text.as_bytes()), &[0xff]))
}

/// Peak resident set size of this process, MB (`VmHWM`); 0 where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported value with its unit, and the spread when it is a timing.
#[derive(Debug, Clone)]
pub struct Reading {
    pub value: f64,
    pub unit: &'static str,
    pub spread: Option<Summary>,
}

/// Everything a pass reports.
#[derive(Debug, Default)]
pub struct PassResult {
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    pub iterations: usize,
    pub setup_reps: usize,
    pub check_failures: Vec<String>,
    /// The failed operations of the first iteration that had any.
    pub failed_ops: Vec<String>,
    /// Metric name → reading. The timed pass fills the end-to-end names,
    /// the traced pass the per-layer names it exercised.
    pub readings: BTreeMap<&'static str, Reading>,
    /// Spans of the traced pass, for the trace file.
    pub spans: Vec<spans::Span>,
}

impl PassResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures.is_empty()
    }

    fn exact(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.readings.insert(name, Reading { value, unit, spread: None });
    }

    fn timing(&mut self, name: &'static str, unit: &'static str, samples: &[f64]) {
        if let Some(s) = Summary::of(samples) {
            self.readings.insert(name, Reading { value: s.median, unit, spread: Some(s) });
        }
    }
}

/// Folds one iteration's outcome into the pass: operation counts, output
/// checks, and the digest rule (an iteration whose digest differs from the
/// first one's fails all its operations).
#[derive(Default)]
struct OutcomeFold {
    first: Option<(u64, f64)>,
    /// Per-rendering digests of the first iteration.
    rendered: Vec<(&'static str, u64)>,
}

impl OutcomeFold {
    fn take(&mut self, out: Outcome, pass: &mut PassResult) {
        let d = digest(&out.rendered);
        pass.attempted += out.ops;
        pass.failed += out.failed;
        pass.iterations += 1;
        for c in out.check_failures {
            pass.check_failures.push(format!("iteration {}: {c}", pass.iterations));
        }
        if pass.failed_ops.is_empty() {
            pass.failed_ops = out.failed_ops;
        }
        match self.first {
            None => {
                self.first = Some((d, out.goodput_mbps));
                self.rendered = out
                    .rendered
                    .iter()
                    .map(|(n, t)| (*n, fnv1a(FNV_OFFSET, t.as_bytes())))
                    .collect();
                pass.digest = d;
            }
            Some((d0, g0)) => {
                if d != d0 || out.goodput_mbps.to_bits() != g0.to_bits() {
                    pass.failed += out.ops - out.failed.min(out.ops);
                    pass.check_failures.push(format!(
                        "iteration {}: digest {d:016x} / goodput {} differ from the first \
                         iteration's {d0:016x} / {g0}",
                        pass.iterations, out.goodput_mbps
                    ));
                }
            }
        }
    }
}

/// Fewest set-up-only repetitions behind `setup_s`; all of them come
/// before the first iteration.
const MIN_SETUP_REPS: usize = 9;
/// Most set-up repetitions before any one iteration (cheap set-ups would
/// otherwise spin for the whole slice).
const MAX_SETUP_REPS_PER_SLICE: usize = 400;
/// Set-up repetitions get this share of the time iterations take.
const SETUP_BUDGET_SHARE: f64 = 0.1;

/// Whether another repetition that is expected to take `last` seconds
/// still belongs in a budget of `budget` seconds, `spent` of them used: it
/// does while at least half of it fits.
fn fits(spent: f64, last: f64, budget: f64) -> bool {
    spent + 0.5 * last < budget
}

/// The timed pass: tracing and allocation counting off.
///
/// Set-up repetitions are dealt out in slices, one before every iteration,
/// so that `setup_s` and `wall_s` sample the same stretch of time: the
/// speed of a shared machine drifts over a run, and a metric measured only
/// in the run's first second drifts differently from one measured all along.
pub fn timed_pass(bench: &dyn Bench, seconds: f64) -> PassResult {
    let mut pass = PassResult::default();
    let started = Instant::now();
    let (mut setup, mut wall) = (Vec::new(), Vec::new());
    let mut fold = OutcomeFold::default();
    let mut peak_rss = 0.0;
    loop {
        let slice = Instant::now();
        let slice_secs = SETUP_BUDGET_SHARE * wall.last().copied().unwrap_or(0.0);
        let mut reps = 0;
        while setup.len() < MIN_SETUP_REPS
            || (reps < MAX_SETUP_REPS_PER_SLICE && slice.elapsed().as_secs_f64() < slice_secs)
        {
            let t = Instant::now();
            bench.setup();
            setup.push(t.elapsed().as_secs_f64());
            reps += 1;
        }

        let t = Instant::now();
        let out = bench.iterate();
        let dt = t.elapsed().as_secs_f64();
        wall.push(dt);
        fold.take(out, &mut pass);
        if wall.len() == 1 {
            // What one run of the program needs. Repeating the iteration
            // in one process only ratchets the allocator's heap up (about
            // 1 MB per campus iteration), by a count the clock decides.
            peak_rss = peak_rss_mb();
        }
        if !fits(started.elapsed().as_secs_f64(), dt, seconds) {
            break;
        }
    }
    pass.setup_reps = setup.len();
    // Every iteration's goodput is bit-equal to the first's, or it failed.
    let goodput = fold.first.map_or(0.0, |(_, g)| g);

    pass.timing(metrics::WALL_S, "s", &wall);
    pass.timing(metrics::SETUP_S, "s", &setup);
    pass.exact(metrics::PEAK_RSS_MB, "MB", peak_rss);
    pass.exact(metrics::GOODPUT_MBPS, "Mbit/s", goodput);
    pass
}

/// Name of the span the traced pass opens around each whole iteration.
pub const ROOT_SPAN: &str = "iteration";

/// Span name → the per-layer metric its self time (summed over one
/// iteration, median over iterations) is reported as, and the factor from
/// seconds to the metric's unit.
const SELF_TIME_METRICS: [(&str, &str, f64); 14] = [
    ("model.topology", "model.topology_ms", 1e3),
    ("model.imap", "model.imap_ms", 1e3),
    ("workload.parse", "workload.parse_us", 1e6),
    ("workload.compile", "workload.compile_ms", 1e3),
    ("workload.slo", "workload.slo_ms", 1e3),
    ("dynamics.parse", "dynamics.parse_us", 1e6),
    ("dynamics.inject", "dynamics.inject_ms", 1e3),
    ("dynamics.run", "dynamics.run_s", 1.0),
    ("core.build_sim", "core.build_sim_ms", 1e3),
    ("sim.construct", "sim.construct_ms", 1e3),
    ("sim.run", "sim.run_s", 1.0),
    ("sim.report", "sim.report_ms", 1e3),
    ("telemetry.manifest", "telemetry.manifest_ms", 1e3),
    ("telemetry.trace_jsonl", "telemetry.trace_jsonl_ms", 1e3),
];

/// Span name → the p50/p99 metrics of its durations, and the unit factor.
const PERCENTILE_METRICS: [(&str, &str, &str, f64); 3] = [
    ("routing.query", "routing.query_ms.p50", "routing.query_ms.p99", 1e3),
    ("core.equilibrium", "core.equilibrium_ms.p50", "core.equilibrium_ms.p99", 1e3),
    ("sim.run", "sim.slot_us.p50", "sim.slot_us.p99", 1e6),
];

/// The traced pass: spans and allocation counts on, alternated with plain
/// iterations to price the tracing.
pub fn traced_pass(bench: &dyn Bench, seconds: f64) -> PassResult {
    let mut pass = PassResult::default();
    let mut rec = Recorder::new();
    let mut ledger = Ledger::default();
    let mut fold = OutcomeFold::default();
    let started = Instant::now();
    let (mut traced_wall, mut plain_wall) = (Vec::new(), Vec::new());

    loop {
        let it = traced_wall.len() as u32;
        rec.set_iteration(it);
        alloc::set_enabled(true);
        let t = Instant::now();
        let root = rec.enter(ROOT_SPAN);
        let out = bench.iterate_traced(&mut rec, &mut ledger);
        rec.exit(root);
        let dt_traced = t.elapsed().as_secs_f64();
        alloc::set_enabled(false);
        traced_wall.push(dt_traced);
        fold.take(out, &mut pass);

        let t = Instant::now();
        let out = bench.iterate();
        let dt_plain = t.elapsed().as_secs_f64();
        plain_wall.push(dt_plain);
        fold.take(out, &mut pass);

        if !fits(started.elapsed().as_secs_f64(), dt_traced + dt_plain, seconds) {
            break;
        }
    }
    let mut ctx = ProbeCtx {
        plain_wall_s: stats::median(&plain_wall),
        rendered: fold.rendered,
        check_failures: Vec::new(),
    };
    bench.probes(&mut ctx, &mut ledger);
    pass.check_failures.append(&mut ctx.check_failures);

    let iters = traced_wall.len();
    pass.exact("trace.iterations", "count", iters as f64);
    let per_iter: Vec<BTreeMap<&'static str, u64>> =
        spans::self_ns_by_iteration(rec.spans()).into_values().collect();
    let self_secs = |span: &str| -> Vec<f64> {
        per_iter.iter().filter_map(|by_name| Some(*by_name.get(span)? as f64 * 1e-9)).collect()
    };
    for (span, metric, factor) in SELF_TIME_METRICS {
        let samples: Vec<f64> = self_secs(span).iter().map(|secs| secs * factor).collect();
        let unit = metrics::per_layer_unit(metric).expect("listed metric");
        pass.timing(metric, unit, &samples);
    }
    // The root's self time is what no layer span covers.
    let uncovered: Vec<f64> =
        self_secs(ROOT_SPAN).iter().zip(&traced_wall).map(|(secs, wall)| secs / wall).collect();
    pass.timing("trace.unattributed_frac", "ratio", &uncovered);
    for (span, p50, p99, factor) in PERCENTILE_METRICS {
        let d = rec.durations_secs(span);
        if !d.is_empty() {
            let unit = metrics::per_layer_unit(p50).expect("listed metric");
            pass.exact(p50, unit, stats::percentile(&d, 50.0) * factor);
            pass.exact(p99, unit, stats::percentile(&d, 99.0) * factor);
        }
    }
    let overhead = stats::median(&traced_wall) / stats::median(&plain_wall) - 1.0;
    pass.exact("trace_overhead_frac", "ratio", overhead);
    for (name, value) in ledger.iter() {
        let unit = metrics::per_layer_unit(name).expect("ledger checks names");
        pass.exact(name, unit, value);
    }
    derive_ratios(&mut pass);
    pass.spans = rec.spans().to_vec();
    pass
}

/// Per-layer metrics that are quotients of other per-layer metrics.
fn derive_ratios(pass: &mut PassResult) {
    let get = |p: &PassResult, k: &str| p.readings.get(k).map(|r| r.value);
    if let (Some(run_s), Some(events)) = (get(pass, "sim.run_s"), get(pass, "sim.events")) {
        if events > 0.0 {
            pass.exact("sim.ns_per_event", "ns", run_s * 1e9 / events);
            if let Some(probes) = get(pass, "sim.domain_probes") {
                pass.exact("sim.probes_per_event", "ratio", probes / events);
            }
        }
        // A lower bound on the control plane's share of the run: what the
        // same number of ticks costs on the same network with no flow.
        if let (Some(idle_us), Some(ticks)) =
            (get(pass, "sim.idle_tick_us"), get(pass, "sim.ticks"))
        {
            if run_s > 0.0 {
                pass.exact("sim.tick_share", "ratio", idle_us * 1e-6 * ticks / run_s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_depends_on_bytes_and_on_where_renderings_split() {
        let d = |x: &str, y: &str| digest(&[("x", x.to_string()), ("y", y.to_string())]);
        assert_eq!(d("ab", "c"), d("ab", "c"));
        assert_ne!(d("ab", "c"), d("a", "bc"));
        assert_ne!(d("ab", "c"), d("ab", "d"));
        // FNV-1a offset basis for no input at all.
        assert_eq!(digest(&[]), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn an_iteration_with_another_digest_fails_all_its_operations() {
        let mut pass = PassResult::default();
        let mut fold = OutcomeFold::default();
        let out = |text: &str| Outcome {
            ops: 10,
            failed: 1,
            goodput_mbps: 2.0,
            rendered: vec![("report", text.to_string())],
            ..Outcome::default()
        };
        fold.take(out("x"), &mut pass);
        fold.take(out("x"), &mut pass);
        assert_eq!((pass.attempted, pass.failed, pass.iterations), (20, 2, 2));
        assert!(pass.check_failures.is_empty());
        fold.take(out("y"), &mut pass);
        assert_eq!((pass.attempted, pass.failed), (30, 12));
        assert_eq!(pass.check_failures.len(), 1);
        assert!(!pass.correct());
    }

    #[test]
    fn every_span_metric_is_a_listed_per_layer_metric() {
        for (_, metric, _) in SELF_TIME_METRICS {
            assert!(metrics::per_layer_unit(metric).is_some(), "{metric}");
        }
        for (_, p50, p99, _) in PERCENTILE_METRICS {
            assert!(metrics::per_layer_unit(p50).is_some(), "{p50}");
            assert!(metrics::per_layer_unit(p99).is_some(), "{p99}");
        }
    }

    #[test]
    fn peak_rss_reads_this_process() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.5);
        }
    }
}
