//! Running a workload: the one driver ([`drive`]) with a bounded packet
//! trace, then the SLO table and the run manifest.

use empower_dynamics::{drive, ScenarioError};
use empower_sim::corpus::SimEngine;
use empower_sim::{SimReport, Simulation, Trace};
use empower_telemetry::{Manifest, Telemetry};

use crate::compile::CompiledWorkload;
use crate::slo::WorkloadSlo;
use crate::spec::Workload;

/// Everything a workload run produces.
#[derive(Debug, Clone)]
pub struct WorkloadOutput {
    /// The compiled flow program the run executed.
    pub compiled: CompiledWorkload,
    /// Per-group SLO metrics.
    pub slo: WorkloadSlo,
    /// The engine's raw per-flow report.
    pub report: SimReport,
    /// The packet trace as JSON lines (bounded).
    pub trace: String,
    /// The run manifest: configuration plus every counter, SLO gauges
    /// included.
    pub manifest: String,
}

/// Runs `w` through engine `E` with a fresh live telemetry registry and a
/// bounded trace attached.
///
/// All client flows — churn arrivals included — are compiled and
/// registered before the control plane starts, so the engine sees one
/// deterministic event program; replaying the same document yields
/// byte-identical report, trace and manifest renderings.
pub fn run_workload_on<E: SimEngine>(w: &Workload) -> Result<WorkloadOutput, ScenarioError> {
    run_workload_with::<E>(w, Telemetry::enabled())
}

/// [`run_workload_on`] with a caller-supplied telemetry registry — the
/// hook the deterministic parallel sweep uses to give every work item its
/// own registry and merge snapshots in index order.
pub fn run_workload_with<E: SimEngine>(
    w: &Workload,
    tele: Telemetry,
) -> Result<WorkloadOutput, ScenarioError> {
    let (net, imap) = w.topology.build();
    let (mut sim, compiled, outcome) =
        drive::<E>(w, net, imap, &tele, Some(Trace::bounded(50_000)))?;
    let report = outcome.report;
    let slo = WorkloadSlo::compute(&w.name, &compiled, &report);
    slo.emit(sim.telemetry());
    let mut m = Manifest::new("workload");
    m.set("workload", w.name.as_str())
        .set("seed", w.run.seed)
        .set("horizon_secs", w.run.horizon_secs)
        .set("flows", compiled.flows.len() as u64);
    m.attach_counters(sim.telemetry());
    let trace = sim.take_trace().map(|t| t.to_jsonl()).unwrap_or_default();
    Ok(WorkloadOutput { compiled, slo, report, trace, manifest: m.render() })
}

/// Runs `w` on the optimized engine (the common entry point).
pub fn run_workload(w: &Workload) -> Result<WorkloadOutput, ScenarioError> {
    run_workload_on::<Simulation>(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: &str = r#"
schema = 1
name = "tiny"

[topology]
kind = "fig1"

[run]
seed = 3
horizon_secs = 6.0

[[clients]]
label = "rr"
kind = "request_response"
src = 0
dst = 2
requests = 3
response_bytes = 120000
think_secs = 0.3
"#;

    #[test]
    fn runs_and_reports_slo() {
        let w = Workload::parse_str(TINY).unwrap();
        let out = run_workload(&w).unwrap();
        assert_eq!(out.slo.clients.len(), 1);
        let c = &out.slo.clients[0];
        assert_eq!(c.label, "rr");
        assert_eq!(c.flows, 1);
        assert!(c.fct_ms.count > 0, "responses completed");
        assert!(out.manifest.contains("workload/rr/fct_ms/p50"));
        assert!(!out.trace.is_empty());
    }

    #[test]
    fn replay_is_byte_identical() {
        let w = Workload::parse_str(TINY).unwrap();
        let a = run_workload(&w).unwrap();
        let b = run_workload(&w).unwrap();
        assert_eq!(format!("{:?}", a.report), format!("{:?}", b.report));
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.manifest, b.manifest);
        assert_eq!(a.slo, b.slo);
    }
}
