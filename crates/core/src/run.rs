//! The typed run facade: [`RunConfig`] + [`EmpowerError`].
//!
//! A [`RunConfig`] bundles everything a scheme evaluation varies — the
//! [`Scheme`], the constraint margin δ, the fluid controller's slots and
//! boost cap and an optional [`Telemetry`] registry —
//! and exposes `Result`-typed entry points for route computation, fluid /
//! equilibrium evaluation, packet-level simulation and route monitoring.
//!
//! ```
//! use empower_core::{RunConfig, Scheme};
//! use empower_core::model::topology::fig1_scenario;
//! use empower_core::model::{InterferenceModel, SharedMedium};
//!
//! let s = fig1_scenario();
//! let imap = SharedMedium.build_map(&s.net);
//! let run = RunConfig::new(Scheme::Empower);
//! let out = run.evaluate_fluid(&s.net, &imap, &[(s.gateway, s.client)]).unwrap();
//! assert!((out.flow_rates[0] - 50.0 / 3.0).abs() < 0.3);
//! ```

use empower_cc::CcConfig;
use empower_model::{InterferenceMap, LinkId, Network, NodeId};
use empower_routing::RouteSet;
use empower_sim::{SimConfig, Simulation, TrafficPattern};
use empower_telemetry::Telemetry;

use crate::eval::{evaluate_equilibrium_impl, evaluate_fluid_impl, FluidEvalResult};
use crate::monitor::RouteMonitor;
use crate::scheme::Scheme;
use crate::stack::build_simulation_impl;

/// Everything that can go wrong when driving a scheme end to end.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EmpowerError {
    /// A flow's endpoints have no route under the scheme's media
    /// restriction (or every candidate link is dead).
    Disconnected {
        /// Index of the flow in the caller's flow list.
        flow: usize,
        src: NodeId,
        dst: NodeId,
    },
    /// A link id did not resolve in the network it was looked up in —
    /// typically a stale baseline applied to a different network instance.
    DeadLink { link: LinkId },
}

impl std::fmt::Display for EmpowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmpowerError::Disconnected { flow, src, dst } => write!(
                f,
                "flow {flow} ({} -> {}) is disconnected under the scheme's media",
                src.index(),
                dst.index()
            ),
            EmpowerError::DeadLink { link } => {
                write!(f, "link {} does not exist in this network", link.0)
            }
        }
    }
}

impl std::error::Error for EmpowerError {}

/// `n` of `n-shortest(G)` (§3.2): every route computation of a run keeps
/// the five shortest paths of each multigraph.
pub const N_SHORTEST: usize = 5;

/// A typed, buildable run configuration.
///
/// Construction is infallible; the evaluation methods return
/// [`EmpowerError`] where the old API panicked or silently zeroed.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub(crate) scheme: Scheme,
    pub(crate) delta: f64,
    pub(crate) slots: usize,
    boost_cap: f64,
    pub(crate) telemetry: Telemetry,
    pub(crate) strict_connectivity: bool,
}

impl RunConfig {
    /// A run of `scheme` with the paper defaults: δ = 0, 3000 controller
    /// slots, the default controller boost cap, telemetry disabled,
    /// disconnected flows tolerated (rate 0 / skipped). Routes are the
    /// [`N_SHORTEST`] combination of §3.2.
    pub fn new(scheme: Scheme) -> RunConfig {
        RunConfig {
            scheme,
            delta: 0.0,
            slots: 3000,
            boost_cap: CcConfig::default().boost_cap,
            telemetry: Telemetry::disabled(),
            strict_connectivity: false,
        }
    }

    /// Sets the constraint margin δ (§4.3).
    pub fn delta(mut self, delta: f64) -> RunConfig {
        self.delta = delta;
        self
    }

    /// Sets the number of controller slots the fluid evaluation runs.
    pub fn slots(mut self, slots: usize) -> RunConfig {
        self.slots = slots;
        self
    }

    /// Sets the fluid controller's cap on its rate-proportional gain boost
    /// ([`CcConfig::boost_cap`]).
    pub fn boost_cap(mut self, cap: f64) -> RunConfig {
        self.boost_cap = cap;
        self
    }

    /// Attaches a telemetry registry: evaluations and simulations built
    /// from this config register and update their counters on it.
    pub fn telemetry(mut self, telemetry: Telemetry) -> RunConfig {
        self.telemetry = telemetry;
        self
    }

    /// Makes disconnected flows a hard [`EmpowerError::Disconnected`]
    /// instead of a tolerated rate-0 / skipped flow.
    pub fn strict_connectivity(mut self, strict: bool) -> RunConfig {
        self.strict_connectivity = strict;
        self
    }

    /// The scheme under evaluation.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The fluid controller's configuration: this run's δ and boost cap.
    pub(crate) fn cc_config(&self) -> CcConfig {
        CcConfig { delta: self.delta, boost_cap: self.boost_cap }
    }

    /// Computes the scheme's route set for one flow.
    ///
    /// # Errors
    /// [`EmpowerError::Disconnected`] if no route exists (`flow` is 0 —
    /// use the error's `src`/`dst` to identify the pair).
    pub fn routes(
        &self,
        net: &Network,
        imap: &InterferenceMap,
        src: NodeId,
        dst: NodeId,
    ) -> Result<RouteSet, EmpowerError> {
        let routes = self.scheme.compute_routes(net, imap, src, dst, N_SHORTEST);
        if routes.is_empty() {
            return Err(EmpowerError::Disconnected { flow: 0, src, dst });
        }
        Ok(routes)
    }

    /// Runs the §4.3 multipath controller (or the open-loop saturation
    /// model for w/o-CC schemes) on the fluid airtime model.
    ///
    /// # Errors
    /// [`EmpowerError::Disconnected`] for the first route-less flow when
    /// [`RunConfig::strict_connectivity`] is on; otherwise such flows
    /// simply score rate 0 as in the paper's figures.
    pub fn evaluate_fluid(
        &self,
        net: &Network,
        imap: &InterferenceMap,
        flows: &[(NodeId, NodeId)],
    ) -> Result<FluidEvalResult, EmpowerError> {
        let out = evaluate_fluid_impl(net, imap, flows, self);
        self.check_connectivity(flows, &out)?;
        Ok(out)
    }

    /// Solves for the controller's equilibrium directly (Frank–Wolfe over
    /// the conservative region) — the fast path for steady-state figures.
    ///
    /// # Errors
    /// As [`RunConfig::evaluate_fluid`].
    pub fn evaluate_equilibrium(
        &self,
        net: &Network,
        imap: &InterferenceMap,
        flows: &[(NodeId, NodeId)],
    ) -> Result<FluidEvalResult, EmpowerError> {
        let out = evaluate_equilibrium_impl(net, imap, flows, self);
        self.check_connectivity(flows, &out)?;
        Ok(out)
    }

    fn check_connectivity(
        &self,
        flows: &[(NodeId, NodeId)],
        out: &FluidEvalResult,
    ) -> Result<(), EmpowerError> {
        if self.strict_connectivity {
            if let Some(f) = out.route_counts.iter().position(|&c| c == 0) {
                return Err(EmpowerError::Disconnected {
                    flow: f,
                    src: flows[f].0,
                    dst: flows[f].1,
                });
            }
        }
        Ok(())
    }

    /// Builds a packet-level simulation with one flow per `(src, dst,
    /// pattern)` triple, with this config's telemetry attached. The mapping
    /// gives each input's simulator flow index (`None` = skipped because
    /// disconnected).
    ///
    /// # Errors
    /// [`EmpowerError::Disconnected`] for the first route-less flow when
    /// [`RunConfig::strict_connectivity`] is on.
    pub fn build_simulation(
        &self,
        net: &Network,
        imap: &InterferenceMap,
        flows: &[(NodeId, NodeId, TrafficPattern)],
        config: SimConfig,
    ) -> Result<(Simulation, Vec<Option<usize>>), EmpowerError> {
        build_simulation_impl(net, imap, flows, config, self)
    }

    /// Starts a [`RouteMonitor`] for one flow's routes, carrying this
    /// config's scheme and telemetry (recomputations are counted by
    /// [`crate::RecomputeReason`]).
    pub fn monitor(
        &self,
        net: &Network,
        src: NodeId,
        dst: NodeId,
        routes: &RouteSet,
    ) -> RouteMonitor {
        RouteMonitor::start(net, self.scheme, src, dst, routes, self.telemetry.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use empower_model::topology::fig1_scenario;
    use empower_model::{InterferenceModel, SharedMedium};
    use empower_telemetry::CounterType;

    #[test]
    fn run_config_matches_the_raw_evaluator() {
        // The facade must add configuration, not change results: a default
        // RunConfig reproduces the raw evaluator bit for bit.
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let flows = [(s.gateway, s.client)];
        let run = RunConfig::new(Scheme::Empower);
        let new = run.evaluate_fluid(&s.net, &imap, &flows).unwrap();
        let old = crate::eval::evaluate_fluid_impl(&s.net, &imap, &flows, &run);
        assert_eq!(new.flow_rates, old.flow_rates);
        assert_eq!(new.utility, old.utility);
    }

    #[test]
    fn routes_error_names_the_pair() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let mut net = s.net.clone();
        for l in 0..net.link_count() {
            net.set_capacity(empower_model::LinkId(l as u32), 0.0);
        }
        let run = RunConfig::new(Scheme::Empower);
        let err = run.routes(&net, &imap, s.gateway, s.client).unwrap_err();
        assert_eq!(err, EmpowerError::Disconnected { flow: 0, src: s.gateway, dst: s.client });
        assert!(err.to_string().contains("disconnected"));
    }

    #[test]
    fn strict_connectivity_turns_zero_rates_into_errors() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let mut net = s.net.clone();
        for l in 0..net.link_count() {
            let id = empower_model::LinkId(l as u32);
            if net.link(id).medium.is_wifi() {
                net.set_capacity(id, 0.0);
            }
        }
        let run = RunConfig::new(Scheme::SpWifi).strict_connectivity(true);
        let err = run.evaluate_fluid(&net, &imap, &[(s.gateway, s.client)]).unwrap_err();
        assert!(matches!(err, EmpowerError::Disconnected { flow: 0, .. }));
        // Tolerant mode keeps the old zero-rate behaviour.
        let ok = RunConfig::new(Scheme::SpWifi)
            .evaluate_fluid(&net, &imap, &[(s.gateway, s.client)])
            .unwrap();
        assert_eq!(ok.flow_rates[0], 0.0);
    }

    #[test]
    fn telemetry_records_the_fluid_run() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let tele = Telemetry::enabled();
        let run = RunConfig::new(Scheme::Empower).telemetry(tele.clone());
        run.evaluate_fluid(&s.net, &imap, &[(s.gateway, s.client)]).unwrap();
        let snap = tele.snapshot();
        assert!(snap.value("cc/price_updates").unwrap() > 0);
        assert!(snap.value("eval/flows") == Some(1));
        assert!(snap.value("flow/0/convergence_slots").is_some());
    }

    #[test]
    fn gauge_flavor_reaches_the_snapshot() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let tele = Telemetry::enabled();
        let run = RunConfig::new(Scheme::Empower).telemetry(tele.clone());
        run.evaluate_fluid(&s.net, &imap, &[(s.gateway, s.client)]).unwrap();
        let snap = tele.snapshot();
        let (_, flavor, _) = snap
            .counters
            .iter()
            .find(|(n, _, _)| n == "flow/0/routes")
            .expect("per-flow route gauge registered")
            .clone();
        assert_eq!(flavor, CounterType::Gauge);
    }
}
