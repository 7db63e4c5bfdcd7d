//! The congestion-control problem instance: flows, their routes, and the
//! precomputed link/route incidence structures the controllers iterate over.

use empower_model::{InterferenceMap, LinkId, Network, Path};

/// Index of a route within a [`CcProblem`].
pub type RouteRef = usize;

/// A flow: a source–destination pair that may employ several routes (§4.1).
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Routes available to this flow (`r ∈ f`), as indexes into
    /// [`CcProblem::routes`].
    pub routes: Vec<RouteRef>,
}

/// A fully-indexed problem instance.
///
/// All controllers share this structure; it precomputes for every link the
/// routes crossing it and the standalone capacity `R(P)` of every route,
/// used as a physically-motivated clamp on rate iterates.
#[derive(Debug, Clone)]
pub struct CcProblem {
    /// All routes, across flows.
    pub routes: Vec<Path>,
    /// Flow → route ownership.
    pub flows: Vec<FlowSpec>,
    /// `flow_of[r]` = the flow owning route `r`.
    pub flow_of: Vec<usize>,
    /// `routes_on_link[l]` = routes crossing link `l`.
    pub routes_on_link: Vec<Vec<RouteRef>>,
    /// `R(P)` per route — standalone intra-path capacity, Mbps.
    pub route_caps: Vec<f64>,
    /// Link costs `d_l` snapshot (1/Mbps).
    pub link_costs: Vec<f64>,
}

impl CcProblem {
    /// Builds the problem from per-flow route sets.
    ///
    /// # Panics
    /// Panics if a flow has no routes (callers must drop disconnected flows
    /// first) or a route has zero capacity.
    pub fn new(net: &Network, imap: &InterferenceMap, flow_routes: Vec<Vec<Path>>) -> Self {
        let mut routes = Vec::new();
        let mut flows = Vec::new();
        let mut flow_of = Vec::new();
        for (f, paths) in flow_routes.into_iter().enumerate() {
            assert!(!paths.is_empty(), "flow {f} has no routes");
            let mut refs = Vec::with_capacity(paths.len());
            for p in paths {
                refs.push(routes.len());
                flow_of.push(f);
                routes.push(p);
            }
            flows.push(FlowSpec { routes: refs });
        }
        let mut routes_on_link = vec![Vec::new(); net.link_count()];
        for (r, path) in routes.iter().enumerate() {
            for &l in path.links() {
                routes_on_link[l.index()].push(r);
            }
        }
        let route_caps: Vec<f64> = routes.iter().map(|p| p.capacity(net, imap)).collect();
        for (r, &cap) in route_caps.iter().enumerate() {
            assert!(cap > 0.0, "route {r} has zero capacity: {}", routes[r].render(net));
        }
        let link_costs = net.links().iter().map(|l| l.cost()).collect();
        CcProblem { routes, flows, flow_of, routes_on_link, route_caps, link_costs }
    }

    /// Number of routes.
    pub fn route_count(&self) -> usize {
        self.routes.len()
    }

    /// Number of flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Traffic rate on each link induced by route rates `x`.
    pub fn link_rates(&self, x: &[f64]) -> Vec<f64> {
        let mut rates = vec![0.0; self.routes_on_link.len()];
        for (r, path) in self.routes.iter().enumerate() {
            for &l in path.links() {
                rates[l.index()] += x[r];
            }
        }
        rates
    }

    /// Aggregate flow rates `x_f = Σ_{r∈f} x_r`.
    pub fn flow_rates(&self, x: &[f64]) -> Vec<f64> {
        let mut rates = Vec::new();
        self.flow_rates_into(x, &mut rates);
        rates
    }

    /// [`CcProblem::flow_rates`] written into `rates`, reusing its buffer.
    pub fn flow_rates_into(&self, x: &[f64], rates: &mut Vec<f64>) {
        rates.clear();
        rates.resize(self.flows.len(), 0.0);
        for (r, &f) in self.flow_of.iter().enumerate() {
            rates[f] += x[r];
        }
    }

    /// Airtime demand `y_l = Σ_{l'∈I_l} d_{l'} x_{l'}` for every link — the
    /// left-hand side of constraint (2) — given per-link rates.
    pub fn domain_airtimes(&self, imap: &InterferenceMap, link_rates: &[f64]) -> Vec<f64> {
        (0..link_rates.len())
            .map(|i| {
                imap.domain(LinkId(i as u32))
                    .iter()
                    .map(|&l| self.link_costs[l.index()] * link_rates[l.index()])
                    .sum()
            })
            .collect()
    }

    /// True if rates `x` satisfy constraint (3) with margin `delta`.
    pub fn is_feasible(&self, imap: &InterferenceMap, x: &[f64], delta: f64) -> bool {
        let rates = self.link_rates(x);
        self.domain_airtimes(imap, &rates).iter().all(|&y| y <= 1.0 - delta + 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use empower_model::topology::fig1_scenario;
    use empower_model::{InterferenceModel, SharedMedium};

    fn problem() -> (CcProblem, InterferenceMap) {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let route1 = Path::new(&s.net, vec![s.plc_ab, s.wifi_bc]).unwrap();
        let route2 = Path::new(&s.net, vec![s.wifi_ab, s.wifi_bc]).unwrap();
        (CcProblem::new(&s.net, &imap, vec![vec![route1, route2]]), imap)
    }

    #[test]
    fn incidence_structures_are_consistent() {
        let (p, _) = problem();
        assert_eq!(p.route_count(), 2);
        assert_eq!(p.flow_count(), 1);
        assert_eq!(p.flow_of, vec![0, 0]);
        // wifi_bc is on both routes.
        let shared = p.routes_on_link.iter().filter(|rs| rs.len() == 2).count();
        assert_eq!(shared, 1);
    }

    #[test]
    fn route_caps_match_lemma1() {
        let (p, _) = problem();
        assert!((p.route_caps[0] - 10.0).abs() < 1e-9);
        assert!((p.route_caps[1] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn feasibility_matches_paper_example() {
        let (p, imap) = problem();
        // 10 on the hybrid route + 6.66 on the WiFi route: exactly feasible.
        assert!(p.is_feasible(&imap, &[10.0, 20.0 / 3.0], 0.0));
        // A little more WiFi traffic is infeasible.
        assert!(!p.is_feasible(&imap, &[10.0, 7.5], 0.0));
        // With a margin, the feasible set shrinks.
        assert!(!p.is_feasible(&imap, &[10.0, 20.0 / 3.0], 0.1));
    }

    #[test]
    fn flow_rates_aggregate_routes() {
        let (p, _) = problem();
        assert_eq!(p.flow_rates(&[10.0, 6.0]), vec![16.0]);
    }

    #[test]
    #[should_panic(expected = "no routes")]
    fn empty_flow_is_rejected() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        CcProblem::new(&s.net, &imap, vec![vec![]]);
    }
}
