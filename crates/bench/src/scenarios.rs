//! Figures driven by scenario documents: the Fig. 12 capacity-drop story
//! through the dynamics driver, and the SLO table of the seeded workload
//! corpus.

use empower_dynamics::{FaultMetrics, Scenario, ScenarioOutcome};
use empower_telemetry::{Json, Manifest, SloSummary, Telemetry, ToJson};
use empower_workload::{workload_corpus, ClientSlo};

use crate::sweep::{run_dynamics_sweep, run_workload_corpus_parallel};
use crate::{mean, Figure, Opts};

/// The scenario [`fig12_dynamic`] runs, embedded so that the executable
/// does not depend on where it was built.
const FIG12_DROP: &str = include_str!("../../../examples/fig12_drop.toml");

/// Fig. 12's recovery story: the scenario and one outcome per seed.
pub struct Fig12Dynamic {
    pub scenario: Scenario,
    /// One outcome per seed, from the base seed up.
    pub outcomes: Vec<ScenarioOutcome>,
}

impl Fig12Dynamic {
    /// Every seed's fault episodes, in seed order.
    pub fn episodes(&self) -> Vec<FaultMetrics> {
        self.outcomes.iter().flat_map(|o| o.resilience.iter().cloned()).collect()
    }
}

impl ToJson for Fig12Dynamic {
    fn to_json(&self) -> Json {
        self.episodes().to_json()
    }
}

/// Fig. 12 (dynamic variant): `examples/fig12_drop.toml` through the dynamics driver
/// under `runs` seeds. The shape to look for is the paper's §6.4
/// narrative: a sharp dip when the WiFi link drops, partial recovery once
/// the route monitor reroutes onto PLC, and the pre-fault level after the
/// link comes back.
pub fn fig12_dynamic(opts: &Opts, tele: &Telemetry) -> Fig12Dynamic {
    let mut scenario = Scenario::parse_str(FIG12_DROP).expect("example scenario parses");
    scenario.run.seed = opts.seed;
    let outcomes = run_dynamics_sweep(&scenario, opts.seed, opts.sweep(8, 2), opts.jobs, tele)
        .expect("example scenario runs");
    Fig12Dynamic { scenario, outcomes }
}

impl Figure for Fig12Dynamic {
    fn render(&self, opts: &Opts, m: &mut Manifest) {
        let runs = self.outcomes.len();
        println!("== Fig. 12 (dynamic) — {}, {runs} seeds ==", self.scenario.name);
        let outcome = &self.outcomes[0];
        let fault_at = outcome.resilience[0].fault_at_secs; // the scenario's one episode
        let step = opts.full_or_quick(5, 20);
        println!("{:>6} {:>10}   (seed {}, fault at {fault_at:.0} s)", "t[s]", "Mbps", opts.seed);
        for (s, r) in outcome.aggregate_series.iter().enumerate().step_by(step) {
            let (from, to) = (s as f64, (s + step) as f64);
            let reroute = outcome.reroutes.iter().find(|rr| rr.at >= from && rr.at < to);
            let mark = reroute.map_or("", |rr| match rr.reason.as_str() {
                "reconnected" => "  ← reconnect",
                _ => "  ← reroute",
            });
            println!("{s:>6} {r:>10.2}{mark}");
        }

        // The three phases of the paper's recovery narrative, on the base seed.
        let series = &outcome.aggregate_series;
        let pre = mean(&series[20..40]);
        let degraded = mean(&series[50..80]);
        let recovered = mean(&series[95..120]);
        println!(
            "\nphase means: pre-fault {pre:.2} Mbps, degraded {degraded:.2} Mbps, \
             recovered {recovered:.2} Mbps"
        );
        let episodes = self.episodes();
        for (i, m) in episodes.iter().enumerate() {
            println!(
                "seed {}, episode at {:.0} s: baseline {:.2} Mbps, detect {}, reconverge {}, \
                 dip {:.1} Mbit, {} packets lost",
                opts.seed + i as u64,
                m.fault_at_secs,
                m.baseline_mbps,
                m.time_to_detect_secs.map_or("—".into(), |d| format!("{d:.1} s")),
                m.time_to_reconverge_secs.map_or("—".into(), |r| format!("{r:.1} s")),
                m.dip_area_mbit,
                m.packets_lost
            );
        }
        let dips: Vec<f64> = episodes.iter().map(|m| m.dip_area_mbit).collect();
        let reconverged = episodes.iter().filter(|m| m.time_to_reconverge_secs.is_some()).count();
        println!(
            "across {runs} seeds: mean dip {:.1} Mbit, reconverged on {reconverged}/{}",
            mean(&dips),
            episodes.len()
        );
        let shape_ok = degraded < pre && recovered > degraded;
        println!(
            "qualitative Fig. 12 shape (dip on drop, recovery after reroute): {}",
            if shape_ok { "yes" } else { "NO" }
        );
        m.set("scenario", self.scenario.name.as_str())
            .set("scheme", self.scenario.run.scheme.label())
            .set("horizon_secs", self.scenario.run.horizon_secs)
            .set("runs", self.outcomes.len() as u64)
            .set("resilience", &self.episodes()[..]);
    }
}

/// SLO table of the seeded workload corpus (`empower_workload::corpus`):
/// per scenario and client group, flow-completion-time quantiles, goodput
/// and Jain fairness.
pub struct WorkloadTable {
    pub scenarios: Vec<&'static str>,
    /// `clients[i]`: the client groups of `scenarios[i]`.
    pub clients: Vec<Vec<ClientSlo>>,
}

fn slo_json(s: &SloSummary) -> Json {
    let exact = [("count", s.count), ("sum", s.sum), ("min", s.min), ("max", s.max)];
    let quantiles = [("p50", s.p50), ("p95", s.p95), ("p99", s.p99)];
    Json::obj(exact.into_iter().chain(quantiles).map(|(k, v)| (k, Json::UInt(v))))
}

impl ToJson for WorkloadTable {
    fn to_json(&self) -> Json {
        let rows = self.scenarios.iter().zip(&self.clients).flat_map(|(s, clients)| {
            clients.iter().map(move |c| {
                Json::obj([
                    ("scenario", Json::Str((*s).into())),
                    ("client", Json::Str(c.label.clone())),
                    ("flows", Json::UInt(c.flows)),
                    ("delivered_bytes", Json::UInt(c.delivered_bytes)),
                    ("fct_ms", slo_json(&c.fct_ms)),
                    ("goodput_kbps", slo_json(&c.goodput_kbps)),
                    ("jain_milli", Json::UInt(c.jain_milli)),
                ])
            })
        });
        Json::arr(rows)
    }
}

/// Runs the workload corpus (its first scenario with `quick`) on the
/// deterministic parallel sweep runner: rows and counters are
/// byte-identical for any job count (gated in
/// `crates/bench/tests/parallel_determinism.rs`).
///
/// # Errors
/// The first scenario error, as a message.
pub fn workload(opts: &Opts, tele: &Telemetry) -> Result<WorkloadTable, String> {
    let mut corpus = workload_corpus();
    corpus.truncate(opts.full_or_quick(corpus.len(), 1));
    let outputs = run_workload_corpus_parallel(&corpus, opts.jobs, tele)
        .map_err(|e| format!("workload corpus failed: {e}"))?;
    Ok(WorkloadTable {
        scenarios: corpus.iter().map(|s| s.name).collect(),
        clients: outputs.into_iter().map(|(out, _)| out.slo.clients).collect(),
    })
}

impl Figure for WorkloadTable {
    fn render(&self, _: &Opts, m: &mut Manifest) {
        println!(
            "{:<16} {:<12} {:>5} {:>9} {:>22} {:>13} {:>6}",
            "scenario", "client", "flows", "MB", "fct p50/p95/p99 ms", "goodput p50", "jain"
        );
        for (s, clients) in self.scenarios.iter().zip(&self.clients) {
            for c in clients {
                println!(
                    "{:<16} {:<12} {:>5} {:>9.2} {:>10}/{:>5}/{:>5} {:>8} kbps {:>6}",
                    s,
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
        }
        // No `jobs` key: the manifest is the same for any job count.
        m.set("scenarios", self.scenarios.len() as u64);
    }
}
