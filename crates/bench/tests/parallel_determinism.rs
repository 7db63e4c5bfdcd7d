#![forbid(unsafe_code)]
//! Determinism gate for the parallel sweep runner (DESIGN.md §8): for the
//! same seeds, `run_sweep_parallel` must produce byte-identical results and
//! byte-identical manifests for ANY job count. A violation here means a
//! figure regenerated on a different machine (or with a different `--jobs`)
//! would silently change — exactly the class of bug the deterministic
//! telemetry subsystem exists to rule out.

use empower_bench::sweep::{run_dynamics_sweep, run_fig13_parallel, run_sweep_parallel, SweepRun};
use empower_bench::Opts;
use empower_core::Scheme;
use empower_model::topology::random::TopologyClass;
use empower_model::topology::testbed22;
use empower_model::{CarrierSense, InterferenceModel};
use empower_telemetry::{Manifest, Telemetry, ToJson};

const SCHEMES: [Scheme; 2] = [Scheme::Empower, Scheme::Sp];
const RUNS: usize = 4;
const SEED: u64 = 0xD1CE;

/// Renders a run list to the exact JSON bytes `--out` would dump, so
/// float comparisons are bitwise, not epsilon-based.
fn render(runs: &[SweepRun]) -> String {
    runs.iter().map(|r| r.to_json().to_string_pretty()).collect::<Vec<_>>().join("\n")
}

fn sweep(jobs: usize, tele: &Telemetry) -> Vec<SweepRun> {
    let opts = Opts { seed: SEED, jobs, ..Opts::default() };
    run_sweep_parallel(TopologyClass::Residential, RUNS, 1, &SCHEMES, &opts, tele)
}

/// A shortened Fig. 12-style capacity-drop scenario (same shape as
/// `examples/fig12_drop.toml`, 24 s instead of 120 s) for the dynamics
/// sweep gate.
const DROP_SCENARIO: &str = r#"
schema = 1
name = "determinism drop"

[topology]
kind = "fig1"

[run]
scheme = "EMPoWER"
seed = 1
horizon_secs = 24.0
poll_secs = 0.5
recovery_fraction = 0.6

[[flows]]
src = 0
dst = 2
pattern = "saturated"
start = 0.0
stop = 24.0

[[events]]
at = 8.0
kind = "capacity"
link = 2
capacity_mbps = 1.5
both = true

[[events]]
at = 16.0
kind = "link_up"
link = 2
both = true
"#;

fn counter_manifest(tele: &Telemetry) -> String {
    let mut m = Manifest::new("determinism_gate");
    m.set("seed", SEED).attach_counters(tele);
    m.render()
}

#[test]
fn parallel_dynamics_sweep_matches_serial_bytes_and_manifest() {
    let scenario =
        empower_dynamics::Scenario::parse_str(DROP_SCENARIO).expect("inline scenario parses");
    let serial_tele = Telemetry::enabled();
    let serial = run_dynamics_sweep(&scenario, SEED, 3, 1, &serial_tele).expect("scenario runs");
    let par_tele = Telemetry::enabled();
    let parallel = run_dynamics_sweep(&scenario, SEED, 3, 2, &par_tele).expect("scenario runs");
    assert_eq!(
        format!("{serial:?}"),
        format!("{parallel:?}"),
        "jobs=2 changed dynamics outcomes vs serial"
    );
    assert_eq!(
        counter_manifest(&serial_tele),
        counter_manifest(&par_tele),
        "jobs=2 changed the dynamics counter manifest vs serial"
    );
}

#[test]
fn parallel_fig13_rows_match_serial_bytes_and_manifest() {
    let t = testbed22(SEED);
    let imap = CarrierSense::default().build_map(&t.net);
    let config = empower_testbed::fig13::Fig13Config { duration: 20.0, seed: SEED };
    let flows = &empower_testbed::fig13::FLOWS[..3];
    let serial_tele = Telemetry::enabled();
    let serial = run_fig13_parallel(&t.net, &imap, &config, flows, 1, &serial_tele);
    let par_tele = Telemetry::enabled();
    let parallel = run_fig13_parallel(&t.net, &imap, &config, flows, 2, &par_tele);
    let render = |rows: &[empower_testbed::fig13::Fig13Row]| {
        rows.iter().map(|r| r.to_json().to_string_pretty()).collect::<Vec<_>>().join("\n")
    };
    assert_eq!(render(&serial), render(&parallel), "jobs=2 changed Fig. 13 rows vs serial");
    assert_eq!(
        counter_manifest(&serial_tele),
        counter_manifest(&par_tele),
        "jobs=2 changed the Fig. 13 counter manifest vs serial"
    );
}

#[test]
fn parallel_workload_corpus_matches_serial_bytes_and_manifest() {
    use empower_bench::sweep::run_workload_corpus_parallel;
    // Two scenarios keep the gate fast while still exercising the executor.
    let scenarios = &empower_workload::workload_corpus()[..2];
    let serial_tele = Telemetry::enabled();
    let serial =
        run_workload_corpus_parallel(scenarios, 1, &serial_tele).expect("corpus runs serially");
    for jobs in [2, 4] {
        let par_tele = Telemetry::enabled();
        let parallel =
            run_workload_corpus_parallel(scenarios, jobs, &par_tele).expect("corpus runs");
        for (s, ((_, a), (_, b))) in scenarios.iter().zip(serial.iter().zip(&parallel)) {
            assert_eq!(a.slo, b.slo, "jobs={jobs} changed {} SLOs vs serial", s.name);
            assert_eq!(a.report, b.report, "jobs={jobs} changed {} report vs serial", s.name);
            assert_eq!(a.trace, b.trace, "jobs={jobs} changed {} trace vs serial", s.name);
            assert_eq!(a.manifest, b.manifest, "jobs={jobs} changed {} manifest vs serial", s.name);
        }
        assert_eq!(
            counter_manifest(&serial_tele),
            counter_manifest(&par_tele),
            "jobs={jobs} changed the merged workload counter manifest vs serial"
        );
    }
}

#[test]
fn parallel_sweep_matches_serial_bytes_and_manifest() {
    let serial_tele = Telemetry::enabled();
    let serial = sweep(1, &serial_tele);
    assert_eq!(serial.len(), RUNS);

    for jobs in [2, 4] {
        let par_tele = Telemetry::enabled();
        let parallel = sweep(jobs, &par_tele);
        assert_eq!(
            render(&serial),
            render(&parallel),
            "jobs={jobs} changed sweep results vs serial"
        );

        let mut m_serial = Manifest::new("determinism_gate");
        m_serial.set("seed", SEED).set("runs", RUNS).attach_counters(&serial_tele);
        let mut m_par = Manifest::new("determinism_gate");
        m_par.set("seed", SEED).set("runs", RUNS).attach_counters(&par_tele);
        assert_eq!(
            m_serial.render(),
            m_par.render(),
            "jobs={jobs} changed the counter manifest vs serial"
        );
    }
}
