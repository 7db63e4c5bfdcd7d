//! §6.3 / Table 1: download times under EMPoWER vs MP-w/o-CC.
//!
//! Four experiments: Tiny (100 kB), Short (5 MB) and Long (2 GB) are single
//! downloads on Flow 6-13 without concurrent traffic; Conc runs the 2 GB
//! Flow 6-13 download against a concurrent Flow 12-8 that fetches five 5 MB
//! files with Poisson-distributed start times (mean 60 s). Tiny and Short
//! are repeated 40 times, Long and Conc 10 times in the paper; repetition
//! counts here are configurable (each repetition re-seeds the simulator).

use empower_core::{RunConfig, Scheme};
use empower_model::{InterferenceMap, Network, NodeId};
use empower_sim::{SimConfig, TrafficPattern};
use empower_telemetry::Telemetry;

/// Which Table 1 row to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    Tiny,
    Short,
    Long,
    Conc,
}

impl Experiment {
    pub const ALL: [Experiment; 4] =
        [Experiment::Tiny, Experiment::Short, Experiment::Long, Experiment::Conc];

    /// File size of the Flow 6-13 download, bytes.
    pub fn main_size(self) -> u64 {
        match self {
            Experiment::Tiny => 100_000,
            Experiment::Short => 5_000_000,
            Experiment::Long | Experiment::Conc => 2_000_000_000,
        }
    }

    /// The paper's repetition count.
    pub fn paper_repetitions(self) -> usize {
        match self {
            Experiment::Tiny | Experiment::Short => 40,
            Experiment::Long | Experiment::Conc => 10,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Experiment::Tiny => "Tiny, F. 6-13 (100 kB)",
            Experiment::Short => "Short, F. 6-13 (5 MB)",
            Experiment::Long => "Long, F. 6-13 (2 GB)",
            Experiment::Conc => "Conc, F. 6-13 (2 GB)",
        }
    }
}

/// Mean ± std of download durations, seconds.
#[derive(Debug, Clone, Copy)]
pub struct DurationStats {
    pub mean_secs: f64,
    pub std_secs: f64,
    pub samples: usize,
}

fn stats(durations: &[f64]) -> DurationStats {
    let n = durations.len().max(1) as f64;
    let mean = durations.iter().sum::<f64>() / n;
    let var = durations.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / n;
    DurationStats { mean_secs: mean, std_secs: var.sqrt(), samples: durations.len() }
}

/// One Table 1 row: the experiment under both schemes. For Conc the row
/// additionally carries the concurrent flow's (Flow 12-8, 25 MB total)
/// statistics, as in the paper.
#[derive(Debug, Clone)]
pub struct Table1Row {
    pub experiment: Experiment,
    pub empower: DurationStats,
    pub mp_wo_cc: DurationStats,
    pub conc_flow_empower: Option<DurationStats>,
    pub conc_flow_wo_cc: Option<DurationStats>,
}

impl empower_telemetry::ToJson for Experiment {
    fn to_json(&self) -> empower_telemetry::Json {
        empower_telemetry::Json::from(self.label())
    }
}

empower_telemetry::impl_to_json_struct!(DurationStats { mean_secs, std_secs, samples });
empower_telemetry::impl_to_json_struct!(Table1Row {
    experiment,
    empower,
    mp_wo_cc,
    conc_flow_empower,
    conc_flow_wo_cc,
});

/// Runs one experiment with `repetitions` per scheme.
pub fn run_experiment(
    net: &Network,
    imap: &InterferenceMap,
    experiment: Experiment,
    repetitions: usize,
    seed: u64,
) -> Table1Row {
    run_experiment_traced(net, imap, experiment, repetitions, seed, &Telemetry::disabled())
}

/// Like [`run_experiment`], with engine counters recorded on `tele`.
pub fn run_experiment_traced(
    net: &Network,
    imap: &InterferenceMap,
    experiment: Experiment,
    repetitions: usize,
    seed: u64,
    tele: &Telemetry,
) -> Table1Row {
    let mut results: Vec<(Vec<f64>, Vec<f64>)> = Vec::new(); // per scheme: (main, conc-total)
    for scheme in SCHEMES {
        let mut main_durations = Vec::new();
        let mut conc_durations = Vec::new();
        for rep in 0..repetitions {
            let (main, conc) = run_repetition(net, imap, experiment, scheme, rep, seed, tele);
            main_durations.extend(main);
            conc_durations.extend(conc);
        }
        results.push((main_durations, conc_durations));
    }
    row_from_samples(experiment, &results[0], &results[1])
}

/// The two schemes of Table 1, in row order (EMPoWER first).
pub const SCHEMES: [Scheme; 2] = [Scheme::Empower, Scheme::MpWoCc];

/// One `(scheme, repetition)` cell of a Table 1 experiment — the
/// independently-seeded unit a parallel runner can fan out over. Returns
/// `(main download duration, concurrent-flow total)`; either is `None` when
/// the corresponding download did not complete within the horizon.
pub fn run_repetition(
    net: &Network,
    imap: &InterferenceMap,
    experiment: Experiment,
    scheme: Scheme,
    rep: usize,
    seed: u64,
    tele: &Telemetry,
) -> (Option<f64>, Option<f64>) {
    let src = NodeId(6 - 1);
    let dst = NodeId(13 - 1);
    let mut flows = vec![(
        src,
        dst,
        TrafficPattern::FileDownload { start: 0.0, size_bytes: experiment.main_size() },
    )];
    if experiment == Experiment::Conc {
        flows.push((
            NodeId(12 - 1),
            NodeId(8 - 1),
            TrafficPattern::PoissonFiles {
                start: 0.0,
                count: 5,
                size_bytes: 5_000_000,
                mean_gap_secs: 60.0,
            },
        ));
    }
    let sim_cfg =
        SimConfig { delta: 0.05, seed: seed ^ ((rep as u64) << 16), ..Default::default() };
    #[expect(
        clippy::expect_used,
        reason = "RunConfig defaults to tolerant connectivity, which is \
                  build_simulation's only error path"
    )]
    let (mut sim, mapping) = RunConfig::new(scheme)
        .telemetry(tele.clone())
        .build_simulation(net, imap, &flows, sim_cfg)
        .expect("tolerant mode cannot fail");
    // Generous horizon: 2 GB at a few tens of Mbps finishes well
    // within an hour of simulated time.
    let horizon = (experiment.main_size() as f64 * 8.0 / 2e6).clamp(120.0, 4000.0);
    let report = sim.run(horizon);
    let main = mapping[0].and_then(|f| report.flows[f].completions.first().copied());
    let conc = (experiment == Experiment::Conc)
        .then(|| {
            mapping[1].and_then(|f| {
                // The paper reports the total time for the 25 MB of
                // concurrent files: sum of the five download times.
                (report.flows[f].completions.len() == 5)
                    .then(|| report.flows[f].completions.iter().sum::<f64>())
            })
        })
        .flatten();
    (main, conc)
}

/// Assembles a [`Table1Row`] from per-scheme sample lists (each a
/// `(main durations, concurrent-flow totals)` pair, EMPoWER first) —
/// the aggregation half of [`run_experiment_traced`], usable directly by a
/// parallel runner that collected the samples itself.
pub fn row_from_samples(
    experiment: Experiment,
    empower: &(Vec<f64>, Vec<f64>),
    mp_wo_cc: &(Vec<f64>, Vec<f64>),
) -> Table1Row {
    Table1Row {
        experiment,
        empower: stats(&empower.0),
        mp_wo_cc: stats(&mp_wo_cc.0),
        conc_flow_empower: (experiment == Experiment::Conc).then(|| stats(&empower.1)),
        conc_flow_wo_cc: (experiment == Experiment::Conc).then(|| stats(&mp_wo_cc.1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use empower_model::topology::testbed22;
    use empower_model::{CarrierSense, InterferenceModel};

    #[test]
    fn short_download_finishes_under_both_schemes() {
        let t = testbed22(1);
        let imap = CarrierSense::default().build_map(&t.net);
        let row = run_experiment(&t.net, &imap, Experiment::Short, 2, 7);
        assert_eq!(row.empower.samples, 2);
        assert_eq!(row.mp_wo_cc.samples, 2);
        assert!(row.empower.mean_secs > 0.0 && row.mp_wo_cc.mean_secs > 0.0);
        // A short file is dominated by EMPoWER's ramp; the win (paper's
        // Table 1 shape) comes from steady state and contention, asserted
        // in `contention_favors_congestion_control` below.
        assert!(row.empower.mean_secs < 30.0, "{:.1}s", row.empower.mean_secs);
    }

    #[test]
    fn contention_favors_congestion_control() {
        // A 30 MB download on flow 6-13 while flow 12-8 blasts
        // continuously: without CC both flows over-drive the shared
        // mediums (queue drops + reorder losses); with CC the download
        // finishes faster. This is Table 1's Conc row in miniature.
        use empower_sim::SimConfig;
        let t = testbed22(1);
        let imap = CarrierSense::default().build_map(&t.net);
        let mut times = Vec::new();
        for scheme in [Scheme::Empower, Scheme::MpWoCc] {
            let flows = [
                (
                    NodeId(6 - 1),
                    NodeId(13 - 1),
                    TrafficPattern::FileDownload { start: 0.0, size_bytes: 100_000_000 },
                ),
                (
                    NodeId(12 - 1),
                    NodeId(8 - 1),
                    TrafficPattern::SaturatedUdp { start: 0.0, stop: 400.0 },
                ),
            ];
            let (mut sim, mapping) = RunConfig::new(scheme)
                .build_simulation(
                    &t.net,
                    &imap,
                    &flows,
                    SimConfig { delta: 0.05, seed: 7, ..Default::default() },
                )
                .expect("tolerant mode cannot fail");
            let report = sim.run(400.0);
            let f = mapping[0].expect("connected");
            let done = report.flows[f].completions.first().copied().unwrap_or(400.0);
            times.push(done);
        }
        assert!(
            times[0] < times[1],
            "EMPoWER {:.1}s should beat w/o-CC {:.1}s under contention",
            times[0],
            times[1]
        );
    }

    #[test]
    fn tiny_download_is_subsecond_scale() {
        let t = testbed22(1);
        let imap = CarrierSense::default().build_map(&t.net);
        let row = run_experiment(&t.net, &imap, Experiment::Tiny, 3, 7);
        assert!(row.empower.mean_secs < 5.0, "{}", row.empower.mean_secs);
    }

    #[test]
    fn experiment_metadata_matches_the_paper() {
        assert_eq!(Experiment::Tiny.main_size(), 100_000);
        assert_eq!(Experiment::Long.main_size(), 2_000_000_000);
        assert_eq!(Experiment::Short.paper_repetitions(), 40);
        assert_eq!(Experiment::Conc.paper_repetitions(), 10);
    }
}
