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

use crate::run::{EmpowerError, N_SHORTEST};
use crate::scheme::Scheme;

/// Why the monitor asked for new routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecomputeReason {
    /// A link on one of the flow's routes died.
    LinkFailure,
    /// A link's capacity moved by more than [`SHIFT_THRESHOLD`].
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

/// Relative capacity change of a route link that counts as "large" and
/// triggers a recomputation (0.5 = ±50 %); smaller variations are left to
/// the congestion controller.
pub const SHIFT_THRESHOLD: f64 = 0.5;

/// Watches one flow's routes. Start one with [`crate::RunConfig::monitor`].
#[derive(Debug, Clone)]
pub struct RouteMonitor {
    src: NodeId,
    dst: NodeId,
    scheme: Scheme,
    /// Capacities of the route links at the time the routes were computed.
    baseline: Vec<(empower_model::LinkId, f64)>,
    /// Recomputations are counted here by [`RecomputeReason`]
    /// (`monitor/recomputes/<reason>`); disabled by default.
    tele: Telemetry,
}

impl RouteMonitor {
    /// Starts monitoring `routes` as computed on `net`.
    pub(crate) fn start(
        net: &Network,
        scheme: Scheme,
        src: NodeId,
        dst: NodeId,
        routes: &RouteSet,
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
        RouteMonitor { src, dst, scheme, baseline, tele }
    }

    /// Checks the current network state; `Ok(Some(reason))` means
    /// recompute.
    ///
    /// # Errors
    /// [`EmpowerError::DeadLink`] if a baseline link id does not resolve
    /// in `net` (a baseline from a different network).
    pub fn try_check(&self, net: &Network) -> Result<Option<RecomputeReason>, EmpowerError> {
        for &(l, was) in &self.baseline {
            let link = net.try_link(l).ok_or(EmpowerError::DeadLink { link: l })?;
            if !link.is_alive() {
                return Ok(Some(RecomputeReason::LinkFailure));
            }
            let rel = (link.capacity_mbps - was).abs() / was.max(1e-9);
            if rel > SHIFT_THRESHOLD {
                return Ok(Some(RecomputeReason::CapacityShift));
            }
        }
        Ok(None)
    }

    /// Recomputes the routes and re-baselines the monitor on them. Returns
    /// the new route set (possibly empty if the flow got disconnected).
    fn recompute(&mut self, net: &Network, imap: &InterferenceMap) -> RouteSet {
        let routes = self.scheme.compute_routes(net, imap, self.src, self.dst, N_SHORTEST);
        *self =
            RouteMonitor::start(net, self.scheme, self.src, self.dst, &routes, self.tele.clone());
        routes
    }

    /// Recomputes after a [`RecomputeReason`] (typically the one
    /// [`RouteMonitor::try_check`] returned), re-baselines the monitor on
    /// the new routes and counts the reason under
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
    use crate::RunConfig;
    use empower_model::topology::fig1_scenario;
    use empower_model::{InterferenceModel, SharedMedium};

    /// `scheme`'s routes for the Fig. 1 flow and a monitor watching them.
    fn watch(net: &Network, imap: &InterferenceMap, scheme: Scheme) -> (RouteSet, RouteMonitor) {
        let s = fig1_scenario();
        let run = RunConfig::new(scheme);
        let routes = run.routes(net, imap, s.gateway, s.client).unwrap();
        let monitor = run.monitor(net, s.gateway, s.client, &routes);
        (routes, monitor)
    }

    #[test]
    fn quiet_network_triggers_nothing() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let (_, monitor) = watch(&s.net, &imap, Scheme::Empower);
        assert_eq!(monitor.try_check(&s.net), Ok(None));
    }

    #[test]
    fn small_variation_is_absorbed_by_the_controller() {
        let mut s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let (_, monitor) = watch(&s.net, &imap, Scheme::Empower);
        s.net.set_capacity(s.wifi_bc, 30.0 * 0.8); // −20 %, below threshold
        assert_eq!(monitor.try_check(&s.net), Ok(None));
    }

    #[test]
    fn failure_triggers_and_recompute_drops_the_dead_route() {
        let mut s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let (routes, mut monitor) = watch(&s.net, &imap, Scheme::Empower);
        assert_eq!(routes.len(), 2);
        s.net.set_capacity(s.plc_ab, 0.0);
        assert_eq!(monitor.try_check(&s.net), Ok(Some(RecomputeReason::LinkFailure)));
        let new_routes = monitor.recompute(&s.net, &imap);
        assert_eq!(new_routes.len(), 1, "only the WiFi route survives");
        for r in &new_routes.routes {
            assert!(!r.path.uses_link(s.plc_ab));
        }
        // Re-baselined: no further trigger.
        assert_eq!(monitor.try_check(&s.net), Ok(None));
    }

    #[test]
    fn large_capacity_shift_triggers() {
        let mut s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let (_, monitor) = watch(&s.net, &imap, Scheme::Empower);
        s.net.set_capacity(s.wifi_bc, 5.0); // −83 %
        assert_eq!(monitor.try_check(&s.net), Ok(Some(RecomputeReason::CapacityShift)));
    }

    #[test]
    fn off_route_links_are_ignored() {
        // A failure somewhere else in the network is not this flow's
        // problem — recomputation stays a rare event.
        let mut s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        // Monitor only the single-path hybrid route.
        let (routes, monitor) = watch(&s.net, &imap, Scheme::Sp);
        let on_route = routes.routes[0].path.links().to_vec();
        // Kill some link not on the route.
        let victim = s.net.links().iter().map(|l| l.id).find(|l| !on_route.contains(l)).unwrap();
        s.net.set_capacity(victim, 0.0);
        assert_eq!(monitor.try_check(&s.net), Ok(None));
    }

    #[test]
    fn try_check_reports_foreign_baselines_as_dead_links() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let (_, monitor) = watch(&s.net, &imap, Scheme::Empower);
        // A network with no links at all: every baseline id is foreign.
        let empty = empower_model::NetworkBuilder::new().build();
        let err = monitor.try_check(&empty).unwrap_err();
        assert!(matches!(err, EmpowerError::DeadLink { .. }));
    }

    #[test]
    fn recompute_after_counts_by_reason() {
        let mut s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let tele = Telemetry::enabled();
        let run = RunConfig::new(Scheme::Empower).telemetry(tele.clone());
        let routes = run.routes(&s.net, &imap, s.gateway, s.client).unwrap();
        let mut monitor = run.monitor(&s.net, s.gateway, s.client, &routes);
        s.net.set_capacity(s.plc_ab, 0.0);
        let reason = monitor.try_check(&s.net).unwrap().expect("failure triggers");
        let new_routes = monitor.recompute_after(&s.net, &imap, reason).unwrap();
        assert_eq!(new_routes.len(), 1);
        assert_eq!(tele.snapshot().value("monitor/recomputes/link_failure"), Some(1));
        assert_eq!(tele.snapshot().value("monitor/recomputes/capacity_shift"), None);
    }
}
