//! `testbed_downloads`: Table 1's Long (2 GB) and Short (5 MB) downloads on
//! the simulated 22-node testbed, under EMPoWER and MP-w/o-CC — the
//! paper-reproduction path, through `table1::run_repetition`.
//!
//! The testbed is the one capacity draw EXPERIMENTS.md reports Table 1 on
//! (`testbed22(1)`), as the paper has one physical testbed; `--seed` is the
//! seed of the repetition, which is what Table 1 varies. That keeps the
//! fidelity figure on the configuration the repository's claim is about:
//! across capacity draws the Long ratio runs from 0.46 to 1.28.

use std::fmt::Write as _;

use empower_core::{RunConfig, Scheme};
use empower_model::topology::testbed22;
use empower_model::{CarrierSense, InterferenceMap, InterferenceModel, Network, NodeId};
use empower_sim::{SimConfig, SimPerfStats, Simulation, TrafficPattern};
use empower_telemetry::{Manifest, Telemetry, ToJson};
use empower_testbed::table1::{row_from_samples, run_repetition, Experiment, Table1Row, SCHEMES};

use super::{probes, sim_counts, AllocPhases, Tr};
use crate::gen::{Size, TESTBED_SEED};
use crate::harness::{Bench, Ledger, Outcome, ProbeCtx};
use crate::spans::Recorder;

/// Table 1 measures Flow 6-13 (paper numbering).
const SRC: NodeId = NodeId(6 - 1);
const DST: NodeId = NodeId(13 - 1);
/// The paper's Long row: t_EMPoWER / t_MP-w/o-CC = 333.2 / 534.5.
const PAPER_LONG_RATIO: f64 = 0.62;

pub struct TestbedBench {
    seed: u64,
    /// The experiments of one iteration; the last is the "long" one the
    /// fidelity figure is taken on.
    experiments: Vec<Experiment>,
}

impl TestbedBench {
    pub fn new(seed: u64, size: Size) -> TestbedBench {
        let experiments = match size {
            Size::Full => vec![Experiment::Short, Experiment::Long],
            // A 100 kB download on a 120 s horizon: the same path, 1/33 of
            // the ticks.
            Size::Smoke => vec![Experiment::Tiny],
        };
        TestbedBench { seed, experiments }
    }
}

fn testbed(tr: &mut Tr) -> (Network, InterferenceMap) {
    let net = tr.call("model.topology", || testbed22(TESTBED_SEED).net);
    let imap = tr.call("model.imap", || CarrierSense::default().build_map(&net));
    (net, imap)
}

/// The simulated horizon `run_repetition` gives an experiment.
fn horizon_secs(exp: Experiment) -> f64 {
    (exp.main_size() as f64 * 8.0 / 2e6).clamp(120.0, 4000.0)
}

/// `run_repetition` up to the point where the simulation exists.
fn build(
    net: &Network,
    imap: &InterferenceMap,
    exp: Experiment,
    scheme: Scheme,
    seed: u64,
    tele: &Telemetry,
) -> (Simulation, Option<usize>) {
    let flows =
        [(SRC, DST, TrafficPattern::FileDownload { start: 0.0, size_bytes: exp.main_size() })];
    let cfg = SimConfig { delta: 0.05, seed, ..Default::default() };
    let (sim, mapping) = RunConfig::new(scheme)
        .telemetry(tele.clone())
        .build_simulation(net, imap, &flows, cfg)
        .expect("connectivity is not strict, so building cannot fail");
    (sim, mapping[0])
}

/// Download times per experiment and scheme, `None` = did not complete.
type Times = Vec<(Experiment, [Option<f64>; 2])>;

/// The table as `table1_downloads` prints it, the rows as it dumps them,
/// and the manifest it writes.
fn finish(times: &Times, seed: u64, tele: &Telemetry) -> Outcome {
    let mut out = Outcome::default();
    let mut table = String::new();
    let _ = writeln!(table, "== Table 1 — download times (mean ± std, seconds) ==");
    let _ = writeln!(table, "{:<26}{:>18}{:>18}", "", "EMPoWER", "MP-w/o-CC");
    let mut rows: Vec<Table1Row> = Vec::new();
    for (exp, by_scheme) in times {
        let samples = by_scheme.map(|t| (t.into_iter().collect::<Vec<f64>>(), Vec::new()));
        let row = row_from_samples(*exp, &samples[0], &samples[1]);
        let _ = writeln!(
            table,
            "{:<26}{:>11.1} ± {:>4.1}{:>11.1} ± {:>4.1}",
            exp.label(),
            row.empower.mean_secs,
            row.empower.std_secs,
            row.mp_wo_cc.mean_secs,
            row.mp_wo_cc.std_secs
        );
        rows.push(row);
        for (scheme, t) in SCHEMES.iter().zip(by_scheme) {
            out.ops += 1;
            match t {
                // What the download saw: its payload over its duration.
                Some(secs) => out.goodput_mbps += exp.main_size() as f64 * 8.0 / secs / 1e6,
                None => {
                    out.failed += 1;
                    out.failed_ops.push(format!(
                        "{} under {} did not complete within {} s",
                        exp.label(),
                        scheme.label(),
                        horizon_secs(*exp)
                    ));
                }
            }
        }
    }
    let mut m = Manifest::new("table1_downloads");
    m.set("seed", seed).set("experiments", rows.len() as u64).attach_counters(tele);
    out.rendered = vec![
        ("report", table),
        ("rows", rows.to_json().to_string_pretty()),
        ("manifest", m.render()),
    ];
    out
}

/// EMPoWER's and MP-w/o-CC's time on the last experiment of `times`.
fn long_times(times: &Times) -> Option<(f64, f64)> {
    let (_, [empower, wocc]) = times.last()?;
    Some(((*empower)?, (*wocc)?))
}

impl Bench for TestbedBench {
    fn inputs(&self) -> String {
        let labels: Vec<&str> = self.experiments.iter().map(|e| e.label()).collect();
        format!(
            "testbed22({TESTBED_SEED}), flow 6 -> 13, repetition seed {}, experiments: {}\n",
            self.seed,
            labels.join("; ")
        )
    }

    fn setup(&self) {
        let (net, imap) = testbed(&mut Tr::off());
        let tele = Telemetry::enabled();
        for &exp in &self.experiments {
            for scheme in SCHEMES {
                std::hint::black_box(build(&net, &imap, exp, scheme, self.seed, &tele));
            }
        }
    }

    fn iterate(&self) -> Outcome {
        let (net, imap) = testbed(&mut Tr::off());
        let tele = Telemetry::enabled();
        let times: Times = self
            .experiments
            .iter()
            .map(|&exp| {
                (
                    exp,
                    SCHEMES.map(|scheme| {
                        run_repetition(&net, &imap, exp, scheme, 0, self.seed, &tele).0
                    }),
                )
            })
            .collect();
        finish(&times, self.seed, &tele)
    }

    fn iterate_traced(&self, rec: &mut Recorder, ledger: &mut Ledger) -> Outcome {
        let mut alloc = AllocPhases::start();
        let mut tr = Tr::on(rec);
        let (net, imap) = testbed(&mut tr);
        let tele = Telemetry::enabled();
        alloc.end_setup();
        let mut perf = SimPerfStats::default();
        let mut times: Times = Vec::new();
        let mut idle_tail = 0.0;
        for &exp in &self.experiments {
            let horizon = horizon_secs(exp);
            let by_scheme = SCHEMES.map(|scheme| {
                let (mut sim, flow) =
                    tr.call("core.build_sim", || build(&net, &imap, exp, scheme, self.seed, &tele));
                alloc.end_setup();
                super::run_in_slots(&mut sim, 0.0, horizon, &mut tr);
                alloc.end_run();
                let report = tr.call("sim.report", || sim.report(horizon));
                super::add_perf(&mut perf, &sim.perf_stats());
                flow.and_then(|f| report.flows[f].completions.first().copied())
            });
            // The share of the horizon after the download is done, mean of
            // the two schemes; the last experiment's stands.
            idle_tail =
                by_scheme.iter().map(|t| 1.0 - t.unwrap_or(horizon) / horizon).sum::<f64>() / 2.0;
            times.push((exp, by_scheme));
        }
        let out = finish(&times, self.seed, &tele);
        alloc.end_render();
        alloc.finish(ledger);

        sim_counts(&perf, &tele.snapshot(), ledger);
        ledger.set("sim.idle_tail_frac", idle_tail);
        ledger.set("workload.flows", out.ops as f64);
        ledger.set("telemetry.manifest_bytes", out.rendered_bytes("manifest"));
        if let Some((empower, wocc)) = long_times(&times) {
            ledger.set("testbed.long_empower_s", empower);
            ledger.set("testbed.long_wocc_s", wocc);
            ledger.set("testbed.long_ratio", empower / wocc);
            ledger.set(crate::metrics::FIDELITY_ERR, (empower / wocc - PAPER_LONG_RATIO).abs());
        }
        out
    }

    fn probes(&self, _ctx: &mut ProbeCtx, ledger: &mut Ledger) {
        let (net, imap) = testbed(&mut Tr::off());
        probes::network_counts(&net, &imap, ledger);
        probes::idle_tick(&net, &imap, self.seed, ledger);
        probes::event_queue(1, ledger);
        probes::explorer_counts(&net, &imap, Scheme::Empower, &[(SRC, DST)], ledger);
        let routes = RunConfig::new(Scheme::Empower)
            .routes(&net, &imap, SRC, DST)
            .map(|r| r.paths())
            .unwrap_or_default();
        probes::cc_step(&net, &imap, vec![routes], ledger);
    }
}
