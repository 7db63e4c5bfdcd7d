//! The seeded workload scenario corpus.
//!
//! Six reference documents — an enterprise request/response mix, an IoT
//! telemetry floor, a diurnal elephant/mice mix with churn, a campus-scale
//! mix on a generated hierarchical topology, the Fig. 12 capacity drop
//! under the poll-and-reroute loop, and a campus under link flapping and a
//! router crash — pinned the same way the sim equivalence corpus pins the
//! raw engines: the gate test
//! (`crates/workload/tests/corpus_gate.rs`) replays each scenario twice
//! and across both engines, comparing every rendering byte for byte.
//! The documents are the runnable examples under `examples/` verbatim
//! (`include_str!`), so the corpus and the documentation cannot drift.

use empower_dynamics::ScenarioError;
use empower_sim::corpus::SimEngine;
use empower_telemetry::Telemetry;

use crate::driver::{run_workload_on, run_workload_with, WorkloadOutput};
use crate::spec::Workload;

/// One corpus entry: a named workload document.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadScenario {
    /// Stable name (matches the document's `name` field).
    pub name: &'static str,
    /// The TOML source.
    pub toml: &'static str,
}

/// The four byte-compared renderings of one workload run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadCorpusOutput {
    /// `format!("{slo:?}")` — every SLO metric of every client group.
    pub slo: String,
    /// `format!("{report:?}")` — every stat of every flow.
    pub report: String,
    /// The packet trace as JSON lines.
    pub trace: String,
    /// The telemetry manifest rendering (SLO gauges included).
    pub manifest: String,
}

/// The fixed workload corpus. Order is stable — tests index into it, and
/// quick CI runs a prefix — so entries are only ever appended.
pub fn workload_corpus() -> Vec<WorkloadScenario> {
    vec![
        WorkloadScenario {
            name: "enterprise_rr",
            toml: include_str!("../../../examples/workload_enterprise_rr.toml"),
        },
        WorkloadScenario {
            name: "iot_floor",
            toml: include_str!("../../../examples/workload_iot_floor.toml"),
        },
        WorkloadScenario {
            name: "elephant_mice",
            toml: include_str!("../../../examples/workload_elephant_mice.toml"),
        },
        WorkloadScenario {
            name: "campus_scale",
            toml: include_str!("../../../examples/workload_campus.toml"),
        },
        WorkloadScenario {
            name: "fig12 capacity drop",
            toml: include_str!("../../../examples/fig12_drop.toml"),
        },
        WorkloadScenario {
            name: "campus_flap",
            toml: include_str!("../../../examples/workload_campus_flap.toml"),
        },
    ]
}

/// Parses and runs one corpus scenario through engine `E`, returning the
/// byte-comparable renderings.
pub fn run_workload_scenario<E: SimEngine>(
    s: &WorkloadScenario,
) -> Result<WorkloadCorpusOutput, ScenarioError> {
    let w = Workload::parse_str(s.toml)?;
    Ok(render(run_workload_on::<E>(&w)?))
}

/// [`run_workload_scenario`] with a caller-supplied telemetry registry
/// (see [`run_workload_with`]), returning the structured output alongside
/// the renderings.
pub fn run_workload_scenario_with<E: SimEngine>(
    s: &WorkloadScenario,
    tele: Telemetry,
) -> Result<(WorkloadOutput, WorkloadCorpusOutput), ScenarioError> {
    let w = Workload::parse_str(s.toml)?;
    let out = run_workload_with::<E>(&w, tele)?;
    let rendered = render(out.clone());
    Ok((out, rendered))
}

fn render(out: WorkloadOutput) -> WorkloadCorpusOutput {
    WorkloadCorpusOutput {
        slo: format!("{:?}", out.slo),
        report: format!("{:?}", out.report),
        trace: out.trace,
        manifest: out.manifest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_documents_parse_and_match_names() {
        for s in workload_corpus() {
            let w = Workload::parse_str(s.toml).unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert_eq!(w.name, s.name, "document name matches corpus entry");
            assert!(!w.clients.is_empty() || !w.flows.is_empty());
        }
    }

    #[test]
    fn one_scenario_runs_and_renders() {
        let s = workload_corpus()[0];
        let out = run_workload_scenario::<empower_sim::Simulation>(&s).unwrap();
        assert!(out.slo.contains("fct_ms"));
        assert!(out.report.contains("delivered_bits"));
        assert!(out.manifest.contains("workload"));
    }
}
