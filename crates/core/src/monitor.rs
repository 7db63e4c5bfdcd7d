//! Route-recomputation triggering (§3.2).
//!
//! "The routes need to be recomputed only when there is a link failure or a
//! large capacity variation, which occurs infrequently (order of minutes or
//! hours)." The congestion controller absorbs everything smaller. This
//! module watches a flow's routes against fresh capacity estimates and says
//! when the ~50 ms recomputation is worth paying.

use empower_model::{InterferenceMap, Network, NodeId};
use empower_routing::RouteSet;
use empower_telemetry::{CounterType, Telemetry};

use crate::run::EmpowerError;
use crate::scheme::Scheme;

/// Why the monitor asked for new routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecomputeReason {
    /// A link on one of the flow's routes died.
    LinkFailure,
    /// A link's capacity moved by more than the configured fraction.
    CapacityShift,
}

impl RecomputeReason {
    /// Stable lowercase label used in counter names.
    pub fn label(self) -> &'static str {
        match self {
            RecomputeReason::LinkFailure => "link_failure",
            RecomputeReason::CapacityShift => "capacity_shift",
        }
    }
}

/// Watches one flow's routes.
#[derive(Debug, Clone)]
pub struct RouteMonitor {
    src: NodeId,
    dst: NodeId,
    scheme: Scheme,
    /// The `n`-shortest parameter recomputation uses (matches whatever the
    /// original routes were computed with).
    n_shortest: usize,
    /// Relative capacity change that counts as "large" (0.5 = ±50 %).
    pub shift_threshold: f64,
    /// Capacities of the route links at the time the routes were computed.
    baseline: Vec<(empower_model::LinkId, f64)>,
    /// Recomputations are counted here by [`RecomputeReason`]
    /// (`monitor/recomputes/<reason>`); disabled by default.
    tele: Telemetry,
}

impl RouteMonitor {
    /// Starts monitoring `routes` as computed on `net`, with the default
    /// `n = 5` and no telemetry. Prefer [`crate::RunConfig::monitor`],
    /// which carries both from the run configuration.
    pub fn new(net: &Network, scheme: Scheme, src: NodeId, dst: NodeId, routes: &RouteSet) -> Self {
        Self::with_config(net, scheme, src, dst, routes, 5, Telemetry::disabled())
    }

    /// Starts monitoring with an explicit `n`-shortest parameter and
    /// telemetry registry.
    pub fn with_config(
        net: &Network,
        scheme: Scheme,
        src: NodeId,
        dst: NodeId,
        routes: &RouteSet,
        n_shortest: usize,
        tele: Telemetry,
    ) -> Self {
        let mut baseline = Vec::new();
        for r in &routes.routes {
            for &l in r.path.links() {
                if !baseline.iter().any(|&(id, _)| id == l) {
                    baseline.push((l, net.link(l).capacity_mbps));
                }
            }
        }
        RouteMonitor { src, dst, scheme, n_shortest, shift_threshold: 0.5, baseline, tele }
    }

    /// Checks the current network state; `Some(reason)` means recompute.
    ///
    /// # Panics
    /// Panics if a baseline link id does not exist in `net` (a baseline
    /// from a different network) — use [`RouteMonitor::try_check`] to get
    /// an [`EmpowerError::DeadLink`] instead.
    #[expect(
        clippy::expect_used,
        reason = "documented panicking convenience wrapper (see `# Panics` above); `try_check` \
                  is the fallible form"
    )]
    pub fn check(&self, net: &Network) -> Option<RecomputeReason> {
        self.try_check(net).expect("baseline links exist in this network")
    }

    /// Checks the current network state without panicking on foreign
    /// baselines; `Ok(Some(reason))` means recompute.
    ///
    /// # Errors
    /// [`EmpowerError::DeadLink`] if a baseline link id does not resolve
    /// in `net`.
    pub fn try_check(&self, net: &Network) -> Result<Option<RecomputeReason>, EmpowerError> {
        for &(l, was) in &self.baseline {
            let link = net.try_link(l).ok_or(EmpowerError::DeadLink { link: l })?;
            if !link.is_alive() {
                return Ok(Some(RecomputeReason::LinkFailure));
            }
            let rel = (link.capacity_mbps - was).abs() / was.max(1e-9);
            if rel > self.shift_threshold {
                return Ok(Some(RecomputeReason::CapacityShift));
            }
        }
        Ok(None)
    }

    /// Re-samples the baseline from the current capacities of the links
    /// already being watched, in place. Call after the routes have been
    /// reinstalled by other means (e.g. the caller recomputed them itself,
    /// or decided to keep them through a shift): without it, the stale
    /// baseline re-reports the same shift on every subsequent
    /// [`RouteMonitor::check`]. Links that no longer resolve keep their old
    /// baseline so a later `check` still reports them.
    pub fn rearm(&mut self, net: &Network) {
        for (l, cap) in &mut self.baseline {
            if let Some(link) = net.try_link(*l) {
                *cap = link.capacity_mbps;
            }
        }
    }

    /// Recomputes the routes and re-baselines the monitor on them. Returns
    /// the new route set (possibly empty if the flow got disconnected).
    /// The configured [`RouteMonitor::shift_threshold`] is preserved.
    pub fn recompute(&mut self, net: &Network, imap: &InterferenceMap) -> RouteSet {
        let routes = self.scheme.compute_routes(net, imap, self.src, self.dst, self.n_shortest);
        let (n, tele, threshold) = (self.n_shortest, self.tele.clone(), self.shift_threshold);
        *self = RouteMonitor::with_config(net, self.scheme, self.src, self.dst, &routes, n, tele);
        self.shift_threshold = threshold;
        routes
    }

    /// Recomputes after a [`RecomputeReason`] (typically the one
    /// [`RouteMonitor::check`] returned), counting it under
    /// `monitor/recomputes/<reason>`.
    ///
    /// # Errors
    /// [`EmpowerError::Disconnected`] if the recomputed route set is empty
    /// — the flow no longer has any path under the scheme's media.
    pub fn recompute_after(
        &mut self,
        net: &Network,
        imap: &InterferenceMap,
        reason: RecomputeReason,
    ) -> Result<RouteSet, EmpowerError> {
        self.tele
            .counter(format!("monitor/recomputes/{}", reason.label()), CounterType::Packets)
            .inc();
        self.tele.event(
            "monitor",
            "recompute",
            &[
                ("reason", reason.label().into()),
                ("src", self.src.index().into()),
                ("dst", self.dst.index().into()),
            ],
        );
        let routes = self.recompute(net, imap);
        if routes.is_empty() {
            return Err(EmpowerError::Disconnected { flow: 0, src: self.src, dst: self.dst });
        }
        Ok(routes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use empower_model::topology::fig1_scenario;
    use empower_model::{InterferenceModel, SharedMedium};

    #[test]
    fn quiet_network_triggers_nothing() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let routes = Scheme::Empower.compute_routes(&s.net, &imap, s.gateway, s.client, 5);
        let monitor = RouteMonitor::new(&s.net, Scheme::Empower, s.gateway, s.client, &routes);
        assert_eq!(monitor.check(&s.net), None);
    }

    #[test]
    fn small_variation_is_absorbed_by_the_controller() {
        let mut s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let routes = Scheme::Empower.compute_routes(&s.net, &imap, s.gateway, s.client, 5);
        let monitor = RouteMonitor::new(&s.net, Scheme::Empower, s.gateway, s.client, &routes);
        s.net.set_capacity(s.wifi_bc, 30.0 * 0.8); // −20 %, below threshold
        assert_eq!(monitor.check(&s.net), None);
    }

    #[test]
    fn failure_triggers_and_recompute_drops_the_dead_route() {
        let mut s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let routes = Scheme::Empower.compute_routes(&s.net, &imap, s.gateway, s.client, 5);
        assert_eq!(routes.len(), 2);
        let mut monitor = RouteMonitor::new(&s.net, Scheme::Empower, s.gateway, s.client, &routes);
        s.net.set_capacity(s.plc_ab, 0.0);
        assert_eq!(monitor.check(&s.net), Some(RecomputeReason::LinkFailure));
        let new_routes = monitor.recompute(&s.net, &imap);
        assert_eq!(new_routes.len(), 1, "only the WiFi route survives");
        for r in &new_routes.routes {
            assert!(!r.path.uses_link(s.plc_ab));
        }
        // Re-baselined: no further trigger.
        assert_eq!(monitor.check(&s.net), None);
    }

    #[test]
    fn large_capacity_shift_triggers() {
        let mut s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let routes = Scheme::Empower.compute_routes(&s.net, &imap, s.gateway, s.client, 5);
        let monitor = RouteMonitor::new(&s.net, Scheme::Empower, s.gateway, s.client, &routes);
        s.net.set_capacity(s.wifi_bc, 5.0); // −83 %
        assert_eq!(monitor.check(&s.net), Some(RecomputeReason::CapacityShift));
    }

    #[test]
    fn off_route_links_are_ignored() {
        // A failure somewhere else in the network is not this flow's
        // problem — recomputation stays a rare event.
        let mut s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        // Monitor only the single-path hybrid route.
        let routes = Scheme::Sp.compute_routes(&s.net, &imap, s.gateway, s.client, 5);
        let monitor = RouteMonitor::new(&s.net, Scheme::Sp, s.gateway, s.client, &routes);
        let on_route = routes.routes[0].path.links().to_vec();
        // Kill some link not on the route.
        let victim = s.net.links().iter().map(|l| l.id).find(|l| !on_route.contains(l)).unwrap();
        s.net.set_capacity(victim, 0.0);
        assert_eq!(monitor.check(&s.net), None);
    }

    #[test]
    fn try_check_reports_foreign_baselines_as_dead_links() {
        use crate::run::EmpowerError;
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let routes = Scheme::Empower.compute_routes(&s.net, &imap, s.gateway, s.client, 5);
        let monitor = RouteMonitor::new(&s.net, Scheme::Empower, s.gateway, s.client, &routes);
        // A network with no links at all: every baseline id is foreign.
        let empty = empower_model::NetworkBuilder::new().build();
        let err = monitor.try_check(&empty).unwrap_err();
        assert!(matches!(err, EmpowerError::DeadLink { .. }));
    }

    #[test]
    fn rearm_clears_a_stale_baseline_double_trigger() {
        // Regression: the baseline is sampled only at construction, so a
        // caller that handles a CapacityShift without calling recompute
        // (keeping its routes) used to get the *same* shift re-reported on
        // every subsequent check.
        let mut s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let routes = Scheme::Empower.compute_routes(&s.net, &imap, s.gateway, s.client, 5);
        let mut monitor = RouteMonitor::new(&s.net, Scheme::Empower, s.gateway, s.client, &routes);
        s.net.set_capacity(s.wifi_bc, 5.0); // −83 %: triggers
        assert_eq!(monitor.check(&s.net), Some(RecomputeReason::CapacityShift));
        // Without rearm the stale baseline keeps firing.
        assert_eq!(monitor.check(&s.net), Some(RecomputeReason::CapacityShift));
        monitor.rearm(&s.net);
        assert_eq!(monitor.check(&s.net), None, "re-armed baseline is quiet");
        // And the new baseline is live: a further shift from 5 triggers.
        s.net.set_capacity(s.wifi_bc, 30.0);
        assert_eq!(monitor.check(&s.net), Some(RecomputeReason::CapacityShift));
    }

    #[test]
    fn recompute_preserves_a_customized_shift_threshold() {
        // Regression: recompute used to rebuild the monitor with the
        // default threshold, silently discarding the caller's setting.
        let mut s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let routes = Scheme::Empower.compute_routes(&s.net, &imap, s.gateway, s.client, 5);
        let mut monitor = RouteMonitor::new(&s.net, Scheme::Empower, s.gateway, s.client, &routes);
        monitor.shift_threshold = 0.1;
        s.net.set_capacity(s.wifi_bc, 30.0 * 0.8); // −20 %
        assert_eq!(monitor.check(&s.net), Some(RecomputeReason::CapacityShift));
        monitor.recompute(&s.net, &imap);
        assert!((monitor.shift_threshold - 0.1).abs() < 1e-12, "threshold survives recompute");
        assert_eq!(monitor.check(&s.net), None);
        s.net.set_capacity(s.wifi_bc, 30.0 * 0.8 * 0.85); // −15 % from new baseline
        assert_eq!(monitor.check(&s.net), Some(RecomputeReason::CapacityShift));
    }

    #[test]
    fn recompute_after_counts_by_reason() {
        let mut s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let tele = Telemetry::enabled();
        let routes = Scheme::Empower.compute_routes(&s.net, &imap, s.gateway, s.client, 5);
        let mut monitor = RouteMonitor::with_config(
            &s.net,
            Scheme::Empower,
            s.gateway,
            s.client,
            &routes,
            5,
            tele.clone(),
        );
        s.net.set_capacity(s.plc_ab, 0.0);
        let reason = monitor.check(&s.net).expect("failure triggers");
        let new_routes = monitor.recompute_after(&s.net, &imap, reason).unwrap();
        assert_eq!(new_routes.len(), 1);
        assert_eq!(tele.snapshot().value("monitor/recomputes/link_failure"), Some(1));
        assert_eq!(tele.snapshot().value("monitor/recomputes/capacity_shift"), None);
    }
}
