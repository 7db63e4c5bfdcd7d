//! Shared sweep machinery for the §5 simulation figures (Figs. 4–7).
//!
//! One "run" = one randomized topology (residential or enterprise) with one
//! or more random flows, evaluated under every scheme plus the centralized
//! `optimal` / `conservative opt` references.

use empower_baselines::{
    enumerate_paths, maximize_utility, CapacityRegion, NumSolution, RegionKind,
};
use empower_cc::{CcProblem, ProportionalFair, Utility};
use empower_core::{RunConfig, Scheme, N_SHORTEST};
use empower_dynamics::{run_scenario, Scenario, ScenarioError, ScenarioOutcome};
use empower_exec::run_indexed;
use empower_model::rng::{SeedableRng, StdRng};
use empower_model::topology::random::{generate, RandomTopologyConfig, TopologyClass};
use empower_model::{
    CarrierSense, InterferenceMap, InterferenceModel, Medium, Network, NodeId, Path,
};
use empower_sim::Simulation;
use empower_telemetry::{impl_to_json_struct, CounterSnapshot, CounterType, Manifest, Telemetry};
use empower_testbed::fig13::{run_flows_traced, Fig13Config, Fig13Row};
use empower_workload::{WorkloadCorpusOutput, WorkloadOutput, WorkloadScenario};

use crate::Opts;

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
    /// The solve's work (none when no flow is connected).
    pub solver: SolverWork,
}

/// The work of one or more centralized solves: the most LP oracle calls
/// and the largest certified relative gap
/// ([`empower_baselines::NumSolution::gap`]) among them.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverWork {
    pub max_iterations: usize,
    pub max_gap: f64,
}

impl SolverWork {
    /// The work of one solve.
    pub fn of(sol: &NumSolution) -> SolverWork {
        SolverWork { max_iterations: sol.iterations, max_gap: sol.gap }
    }

    /// The work of both sets of solves.
    pub fn max(self, other: SolverWork) -> SolverWork {
        SolverWork {
            max_iterations: self.max_iterations.max(other.max_iterations),
            max_gap: self.max_gap.max(other.max_gap),
        }
    }

    /// Adds `solver_max_iterations` and `solver_max_gap` to a figure's
    /// manifest.
    pub fn record(&self, m: &mut Manifest) {
        m.set("solver_max_iterations", self.max_iterations as u64)
            .set("solver_max_gap", self.max_gap);
    }
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

impl_to_json_struct!(ReferencePoint { flow_rates, utility });
impl_to_json_struct!(SweepRun { seed, scheme_rates, scheme_utility, optimal, conservative });

/// Draws one topology + flow set for `seed`.
pub fn make_instance(
    class: TopologyClass,
    seed: u64,
    flow_count: usize,
) -> (Network, InterferenceMap, Vec<(NodeId, NodeId)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = generate(&mut rng, &RandomTopologyConfig::new(class));
    let imap = CarrierSense::default().build_map(&topo.net);
    let flows = (0..flow_count).map(|_| topo.sample_flow(&mut rng)).collect();
    (topo.net, imap, flows)
}

/// Solves the centralized reference over all ≤-[`OPT_MAX_HOPS`] hybrid
/// paths plus `extra_routes[f]` (e.g. the routes the evaluated schemes
/// actually used — which may be longer than [`OPT_MAX_HOPS`]), so the
/// "optimal" can never lose to a scheme it is supposed to bound.
pub fn reference(
    net: &Network,
    imap: &InterferenceMap,
    flows: &[(NodeId, NodeId)],
    kind: RegionKind,
    delta: f64,
    extra_routes: &[Vec<Path>],
) -> ReferencePoint {
    let mediums = [Medium::WIFI1, Medium::Plc];
    let mut flow_routes = Vec::new();
    let mut connected = Vec::new();
    for (f, &(s, d)) in flows.iter().enumerate() {
        let mut paths = enumerate_paths(net, s, d, OPT_MAX_HOPS, Some(&mediums));
        push_new(&mut paths, extra_routes.get(f).into_iter().flatten().cloned());
        if !paths.is_empty() {
            connected.push(f);
            flow_routes.push(paths);
        }
    }
    let mut flow_rates = vec![0.0; flows.len()];
    let mut solver = SolverWork::default();
    if !connected.is_empty() {
        let problem = CcProblem::new(net, imap, flow_routes);
        let region = CapacityRegion::build(&problem, imap, kind, delta);
        let sol = maximize_utility(&problem, &region, &ProportionalFair);
        for (ci, &f) in connected.iter().enumerate() {
            flow_rates[f] = sol.flow_rates[ci];
        }
        solver = SolverWork::of(&sol);
    }
    let utility = flow_rates.iter().map(|&x| ProportionalFair.value(x)).sum();
    ReferencePoint { flow_rates, utility, solver }
}

/// Appends the paths of `more` that `paths` does not hold yet, in order.
fn push_new(paths: &mut Vec<Path>, more: impl IntoIterator<Item = Path>) {
    for p in more {
        if !paths.contains(&p) {
            paths.push(p);
        }
    }
}

/// Evaluates one run under `schemes` plus both references, recording
/// per-run counters on `tele`: every `evaluate_equilibrium` call's counters
/// accumulate, plus a `sweep/runs` tally so a manifest shows how many runs
/// contributed.
pub fn run_one_traced(
    class: TopologyClass,
    seed: u64,
    flow_count: usize,
    schemes: &[Scheme],
    tele: &Telemetry,
) -> SweepRun {
    let (net, imap, flows) = make_instance(class, seed, flow_count);
    let mut scheme_rates = Vec::with_capacity(schemes.len());
    let mut scheme_utility = Vec::with_capacity(schemes.len());
    let mut extra: Vec<Vec<Path>> = vec![Vec::new(); flows.len()];
    for &scheme in schemes {
        for (f, &(s, d)) in flows.iter().enumerate() {
            push_new(&mut extra[f], scheme.compute_routes(&net, &imap, s, d, N_SHORTEST).paths());
        }
        let out = RunConfig::new(scheme)
            .telemetry(tele.clone())
            .evaluate_equilibrium(&net, &imap, &flows)
            .expect("tolerant mode cannot fail");
        scheme_rates.push(out.flow_rates);
        scheme_utility.push(out.utility);
    }
    tele.counter("sweep/runs", CounterType::Packets).inc();
    let optimal = reference(&net, &imap, &flows, RegionKind::Cliques, 0.0, &extra);
    let conservative = reference(&net, &imap, &flows, RegionKind::Conservative, 0.0, &extra);
    SweepRun { seed, scheme_rates, scheme_utility, optimal, conservative }
}

/// The one parallel-sweep idiom: computes `f(i, &item_tele)` for
/// `i ∈ 0..count` on `jobs` worker threads (see [`run_indexed`]) and
/// returns the results in index order — byte-identical to a serial loop
/// for any `jobs`.
///
/// `Telemetry` is single-threaded by design (`Rc`-based), so each work item
/// records on its own registry inside the worker (a disabled one when `tele`
/// is) and only the `Send`-able [`CounterSnapshot`] crosses threads; snapshots merge into `tele` in index order (monotone
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
    let merge = |(item, snap): (T, CounterSnapshot)| {
        tele.merge_snapshot(&snap);
        item
    };
    results.into_iter().map(merge).collect()
}

/// Runs the sweep `seed = opts.seed + index` for `index ∈ 0..count` under
/// the default fluid evaluation on `opts.jobs` workers through [`fan_out`]
/// and returns the runs in index order.
pub fn run_sweep_parallel(
    class: TopologyClass,
    count: usize,
    flow_count: usize,
    schemes: &[Scheme],
    opts: &Opts,
    tele: &Telemetry,
) -> Vec<SweepRun> {
    fan_out(opts.jobs, count, tele, |i, item_tele| {
        run_one_traced(class, opts.seed + i as u64, flow_count, schemes, item_tele)
    })
}

/// Runs `scenario` under `count` seeds (`run.seed = base_seed + index`)
/// through [`fan_out`] and returns the outcomes in index order.
///
/// # Errors
/// The first [`ScenarioError`] any seed produced (they all address the
/// same topology, so one failing means all do).
pub fn run_dynamics_sweep(
    scenario: &Scenario,
    base_seed: u64,
    count: usize,
    jobs: usize,
    tele: &Telemetry,
) -> Result<Vec<ScenarioOutcome>, ScenarioError> {
    let run = |i: usize, item_tele: &Telemetry| {
        let mut item = scenario.clone();
        item.run.seed = base_seed + i as u64;
        run_scenario(&item, item_tele)
    };
    fan_out(jobs, count, tele, run).into_iter().collect()
}

/// Runs the Fig. 13 testbed flow list through [`fan_out`] (one work item
/// per flow — each flow is an independent pair of simulations) and
/// returns the rows in flow order — byte-identical to
/// [`run_flows_traced`] for any `jobs`.
pub fn run_fig13_parallel(
    net: &Network,
    imap: &InterferenceMap,
    config: &Fig13Config,
    flows: &[(u32, u32)],
    jobs: usize,
    tele: &Telemetry,
) -> Vec<Fig13Row> {
    let run = |i: usize, item_tele: &Telemetry| {
        run_flows_traced(net, imap, config, &flows[i..=i], item_tele)
    };
    fan_out(jobs, flows.len(), tele, run).into_iter().flatten().collect()
}

/// Runs a list of workload corpus scenarios through [`fan_out`] (one work
/// item per scenario) and returns the structured outputs plus the
/// byte-comparable renderings, in scenario order.
///
/// # Errors
/// The first [`ScenarioError`] any scenario produced.
pub fn run_workload_corpus_parallel(
    scenarios: &[WorkloadScenario],
    jobs: usize,
    tele: &Telemetry,
) -> Result<Vec<(WorkloadOutput, WorkloadCorpusOutput)>, ScenarioError> {
    let run = |i: usize, item_tele: &Telemetry| {
        let item_tele = item_tele.clone();
        empower_workload::run_workload_scenario_with::<Simulation>(&scenarios[i], item_tele)
    };
    fan_out(jobs, scenarios.len(), tele, run).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_residential_run_is_consistent() {
        let schemes = [Scheme::Empower, Scheme::Sp, Scheme::SpWifi];
        let tele = Telemetry::disabled();
        let run = run_one_traced(TopologyClass::Residential, 42, 1, &schemes, &tele);
        assert_eq!(run.scheme_rates.len(), 3);
        // EMPoWER never loses to its own single-path restriction.
        assert!(run.scheme_rates[0][0] >= run.scheme_rates[1][0] - 1e-6);
        // The references bound EMPoWER (the optimal may exceed conservative).
        assert!(run.optimal.flow_rates[0] + 1e-6 >= run.conservative.flow_rates[0]);
        assert!(run.conservative.flow_rates[0] + 0.5 >= run.scheme_rates[0][0]);
    }

    #[test]
    fn enterprise_reference_is_no_smaller_than_empower() {
        let tele = Telemetry::disabled();
        let run = run_one_traced(TopologyClass::Enterprise, 7, 1, &[Scheme::Empower], &tele);
        assert!(run.optimal.flow_rates[0] + 1e-6 >= run.scheme_rates[0][0] * 0.99);
    }
}
