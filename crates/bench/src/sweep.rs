//! Shared sweep machinery for the §5 simulation figures (Figs. 4–7).
//!
//! One "run" = one randomized topology (residential or enterprise) with one
//! or more random flows, evaluated under every scheme plus the centralized
//! `optimal` / `conservative opt` references.

use empower_baselines::{enumerate_paths, maximize_utility, CapacityRegion, RegionKind};
use empower_cc::{CcProblem, ProportionalFair, Utility};
use empower_core::{FluidEval, RunConfig, Scheme};
use empower_exec::run_indexed;
use empower_model::rng::SeedableRng;
use empower_model::rng::StdRng;
use empower_model::topology::random::{generate, RandomTopologyConfig, TopologyClass};
use empower_model::{CarrierSense, InterferenceMap, InterferenceModel, Medium, Network, NodeId};
use empower_telemetry::{CounterType, Telemetry};

/// Maximum hop count for the centralized references' route space. Local-
/// network routes are a few hops (§3.2: observed tree depth ≤ 3; the header
/// caps at 6); 3 keeps the LP column count tractable and covers everything
/// the random topologies actually use.
pub const OPT_MAX_HOPS: usize = 3;

/// Result of the centralized reference on one run.
#[derive(Debug, Clone)]
pub struct ReferencePoint {
    pub flow_rates: Vec<f64>,
    pub utility: f64,
}

/// Everything measured on one run.
#[derive(Debug, Clone)]
pub struct SweepRun {
    pub seed: u64,
    /// Per-scheme per-flow rates, in the order the caller's scheme list.
    pub scheme_rates: Vec<Vec<f64>>,
    /// Per-scheme utility.
    pub scheme_utility: Vec<f64>,
    pub optimal: ReferencePoint,
    pub conservative: ReferencePoint,
}

empower_telemetry::impl_to_json_struct!(ReferencePoint { flow_rates, utility });
empower_telemetry::impl_to_json_struct!(SweepRun {
    seed,
    scheme_rates,
    scheme_utility,
    optimal,
    conservative,
});

/// Draws one topology + flow set for `seed`.
pub fn make_instance(
    class: TopologyClass,
    seed: u64,
    flow_count: usize,
) -> (Network, InterferenceMap, Vec<(NodeId, NodeId)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = generate(&mut rng, &RandomTopologyConfig::new(class));
    let imap = CarrierSense::default().build_map(&topo.net);
    let flows: Vec<(NodeId, NodeId)> =
        (0..flow_count).map(|_| topo.sample_flow(&mut rng)).collect();
    (topo.net, imap, flows)
}

/// Solves the centralized reference over all ≤-[`OPT_MAX_HOPS`] hybrid
/// paths.
pub fn reference(
    net: &Network,
    imap: &InterferenceMap,
    flows: &[(NodeId, NodeId)],
    kind: RegionKind,
    delta: f64,
) -> ReferencePoint {
    reference_with_extra(net, imap, flows, kind, delta, &[])
}

/// Like [`reference()`] but guaranteeing that `extra_routes[f]` (e.g. the
/// routes the evaluated schemes actually used — which may be longer than
/// [`OPT_MAX_HOPS`]) are part of the reference's route space, so the
/// "optimal" can never lose to a scheme it is supposed to bound.
pub fn reference_with_extra(
    net: &Network,
    imap: &InterferenceMap,
    flows: &[(NodeId, NodeId)],
    kind: RegionKind,
    delta: f64,
    extra_routes: &[Vec<empower_model::Path>],
) -> ReferencePoint {
    let mediums = [Medium::WIFI1, Medium::Plc];
    let mut flow_routes = Vec::new();
    let mut connected = Vec::new();
    for (f, &(s, d)) in flows.iter().enumerate() {
        let mut paths = enumerate_paths(net, s, d, OPT_MAX_HOPS, Some(&mediums));
        if let Some(extra) = extra_routes.get(f) {
            for p in extra {
                if !paths.contains(p) {
                    paths.push(p.clone());
                }
            }
        }
        if !paths.is_empty() {
            connected.push(f);
            flow_routes.push(paths);
        }
    }
    let mut flow_rates = vec![0.0; flows.len()];
    if !connected.is_empty() {
        let problem = CcProblem::new(net, imap, flow_routes);
        let region = CapacityRegion::build(&problem, imap, kind, delta);
        let sol = maximize_utility(&problem, &region, &ProportionalFair, 200);
        for (ci, &f) in connected.iter().enumerate() {
            flow_rates[f] = sol.flow_rates[ci];
        }
    }
    let pf = ProportionalFair;
    let utility = flow_rates.iter().map(|&x| pf.value(x)).sum();
    ReferencePoint { flow_rates, utility }
}

/// Evaluates one run under `schemes` plus both references.
pub fn run_one(
    class: TopologyClass,
    seed: u64,
    flow_count: usize,
    schemes: &[Scheme],
    params: &FluidEval,
) -> SweepRun {
    run_one_traced(class, seed, flow_count, schemes, params, &Telemetry::disabled())
}

/// Like [`run_one`], recording per-run counters on `tele`: every
/// `evaluate_equilibrium` call's counters accumulate, plus a
/// `sweep/runs` tally so a manifest shows how many runs contributed.
pub fn run_one_traced(
    class: TopologyClass,
    seed: u64,
    flow_count: usize,
    schemes: &[Scheme],
    params: &FluidEval,
    tele: &Telemetry,
) -> SweepRun {
    let (net, imap, flows) = make_instance(class, seed, flow_count);
    let mut scheme_rates = Vec::with_capacity(schemes.len());
    let mut scheme_utility = Vec::with_capacity(schemes.len());
    let mut extra: Vec<Vec<empower_model::Path>> = vec![Vec::new(); flows.len()];
    for &scheme in schemes {
        for (f, &(s, d)) in flows.iter().enumerate() {
            for p in scheme.compute_routes(&net, &imap, s, d, params.n_shortest).paths() {
                if !extra[f].contains(&p) {
                    extra[f].push(p);
                }
            }
        }
        let out = RunConfig::from_fluid(scheme, params)
            .telemetry(tele.clone())
            .evaluate_equilibrium(&net, &imap, &flows)
            .expect("tolerant mode cannot fail");
        scheme_rates.push(out.flow_rates);
        scheme_utility.push(out.utility);
    }
    tele.counter("sweep/runs", CounterType::Packets).inc();
    let optimal =
        reference_with_extra(&net, &imap, &flows, RegionKind::Cliques, params.delta, &extra);
    let conservative =
        reference_with_extra(&net, &imap, &flows, RegionKind::Conservative, params.delta, &extra);
    SweepRun { seed, scheme_rates, scheme_utility, optimal, conservative }
}

/// The one parallel-sweep idiom: computes `f(i, &item_tele)` for
/// `i ∈ 0..count` on `jobs` worker threads (see [`run_indexed`]) and
/// returns the results in index order — byte-identical to a serial loop
/// for any `jobs`.
///
/// `Telemetry` is single-threaded by design (`Rc`-based), so each work item
/// records on its own registry inside the worker (a disabled one when `tele`
/// is) and only the `Send`-able [`empower_telemetry::CounterSnapshot`]
/// crosses threads; snapshots merge into `tele` in index order (monotone
/// counters add, gauges last-write-win), which reproduces exactly the
/// registry a serial run would build.
pub fn fan_out<T: Send>(
    jobs: usize,
    count: usize,
    tele: &Telemetry,
    f: impl Fn(usize, &Telemetry) -> T + Sync,
) -> Vec<T> {
    let enabled = tele.is_enabled();
    let results = run_indexed(jobs, count, |i| {
        let item_tele = if enabled { Telemetry::enabled() } else { Telemetry::disabled() };
        let item = f(i, &item_tele);
        (item, item_tele.snapshot())
    });
    let mut out = Vec::with_capacity(results.len());
    for (item, snap) in results {
        tele.merge_snapshot(&snap);
        out.push(item);
    }
    out
}

/// Runs the sweep `seed = base_seed + index` for `index ∈ 0..count` through
/// [`fan_out`] and returns the runs in index order.
#[allow(clippy::too_many_arguments)]
pub fn run_sweep_parallel(
    class: TopologyClass,
    base_seed: u64,
    count: usize,
    flow_count: usize,
    schemes: &[Scheme],
    params: &FluidEval,
    jobs: usize,
    tele: &Telemetry,
) -> Vec<SweepRun> {
    fan_out(jobs, count, tele, |i, item_tele| {
        run_one_traced(class, base_seed + i as u64, flow_count, schemes, params, item_tele)
    })
}

/// Runs `scenario` under `count` seeds (`run.seed = base_seed + index`)
/// through [`fan_out`] and returns the outcomes in index order.
///
/// # Errors
/// The first [`empower_dynamics::ScenarioError`] any seed produced (they
/// all address the same topology, so one failing means all do).
pub fn run_dynamics_sweep(
    scenario: &empower_dynamics::Scenario,
    base_seed: u64,
    count: usize,
    jobs: usize,
    tele: &Telemetry,
) -> Result<Vec<empower_dynamics::ScenarioOutcome>, empower_dynamics::ScenarioError> {
    let run = |i: usize, item_tele: &Telemetry| {
        let mut item = scenario.clone();
        item.run.seed = base_seed + i as u64;
        empower_dynamics::run_scenario(&item, item_tele)
    };
    fan_out(jobs, count, tele, run).into_iter().collect()
}

/// Runs the Fig. 13 testbed flow list through [`fan_out`] (one work item
/// per flow — each flow is an independent pair of simulations) and
/// returns the rows in flow order — byte-identical to
/// [`empower_testbed::fig13::run_flows_traced`] for any `jobs`.
pub fn run_fig13_parallel(
    net: &Network,
    imap: &InterferenceMap,
    config: &empower_testbed::fig13::Fig13Config,
    flows: &[(u32, u32)],
    jobs: usize,
    tele: &Telemetry,
) -> Vec<empower_testbed::fig13::Fig13Row> {
    let run = |i: usize, item_tele: &Telemetry| {
        empower_testbed::fig13::run_flows_traced(net, imap, config, &flows[i..=i], item_tele)
    };
    fan_out(jobs, flows.len(), tele, run).into_iter().flatten().collect()
}

/// Runs a list of workload corpus scenarios through [`fan_out`] (one work
/// item per scenario) and returns the structured outputs plus the
/// byte-comparable renderings, in scenario order.
///
/// # Errors
/// The first [`empower_dynamics::ScenarioError`] any scenario produced.
#[allow(clippy::type_complexity)]
pub fn run_workload_corpus_parallel(
    scenarios: &[empower_workload::WorkloadScenario],
    jobs: usize,
    tele: &Telemetry,
) -> Result<
    Vec<(empower_workload::WorkloadOutput, empower_workload::WorkloadCorpusOutput)>,
    empower_dynamics::ScenarioError,
> {
    let run = |i: usize, item_tele: &Telemetry| {
        empower_workload::run_workload_scenario_with::<empower_sim::Simulation>(
            &scenarios[i],
            item_tele.clone(),
        )
    };
    fan_out(jobs, scenarios.len(), tele, run).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_residential_run_is_consistent() {
        let schemes = [Scheme::Empower, Scheme::Sp, Scheme::SpWifi];
        let run = run_one(TopologyClass::Residential, 42, 1, &schemes, &FluidEval::default());
        assert_eq!(run.scheme_rates.len(), 3);
        // EMPoWER never loses to its own single-path restriction.
        assert!(run.scheme_rates[0][0] >= run.scheme_rates[1][0] - 1e-6);
        // The references bound EMPoWER (the optimal may exceed conservative).
        assert!(run.optimal.flow_rates[0] + 1e-6 >= run.conservative.flow_rates[0]);
        assert!(run.conservative.flow_rates[0] + 0.5 >= run.scheme_rates[0][0]);
    }

    #[test]
    fn enterprise_reference_is_no_smaller_than_empower() {
        let run =
            run_one(TopologyClass::Enterprise, 7, 1, &[Scheme::Empower], &FluidEval::default());
        assert!(run.optimal.flow_rates[0] + 1e-6 >= run.scheme_rates[0][0] * 0.99);
    }
}
