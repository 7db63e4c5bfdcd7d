//! The slotted congestion controllers of §4.2 (single path) and §4.3
//! (multipath, proximal optimization).
//!
//! Per slot `t` (one acknowledgement interval), with step size `α`:
//!
//! ```text
//! y_l[t]   = Σ_{l'∈I_l} d_{l'} Σ_{s: l'∈s} x_s[t]                     (7)
//! γ_l[t+1] = [γ_l[t] + α (y_l[t] − (1 − δ))]⁺                        (8)
//! q_r[t]   = Σ_{l∈r} d_l Σ_{i∈I_l} γ_i[t]                             (9)
//! ```
//!
//! then the rate update — single path:
//!
//! ```text
//! x_r[t+1] = U'⁻¹_r (q_r[t])                                          (10)
//! ```
//!
//! or multipath (proximal, §4.3):
//!
//! ```text
//! x_r[t+1] = (1−α) x_r[t] + α [ x̄_r[t] + U'_f(Σ_{h∈f} x_h[t]) − q_r[t] ]⁺
//! x̄_r[t+1] = (1−α) x̄_r[t] + α x_r[t]
//! ```
//!
//! Iterates are clamped to each route's standalone capacity `R(P)` — a
//! source cannot usefully inject more than its path can ever carry — which
//! bounds the transient of the single-path controller whose Eq. (10) jumps
//! to `U'⁻¹(0) = ∞` while prices are still zero.

use empower_model::InterferenceMap;

use crate::problem::CcProblem;
use crate::utility::Utility;

/// Controller parameters.
#[derive(Debug, Clone, Copy)]
pub struct CcConfig {
    /// Fixed step size `α` (the paper uses 0.02 as the base; see
    /// [`crate::step_size::AdaptiveAlpha`] for the §6.1 heuristic).
    pub alpha: f64,
    /// Constraint margin `δ ∈ [0, 1]` of Eq. (3).
    pub delta: f64,
    /// Cap on the rate-proportional gain boost `min(1 + x_f, boost_cap)`.
    ///
    /// The boost cancels the 1/(1+x) decay of the proportional-fair
    /// derivative so ramps stay fast at high rates, but it also multiplies
    /// the loop gain; with delayed/noisy prices (the packet simulator, real
    /// hardware) large boosts oscillate. The fluid controller tolerates the
    /// default; the simulator uses a smaller cap.
    pub boost_cap: f64,
    /// Unit-conversion gain on the multipath drive term `U' − q`.
    ///
    /// The paper's `α = 0.02` yields ~90-slot convergence in its
    /// implementation, which implies its rate iterates move on a coarser
    /// unit scale than 1 Mbps (its brute-force sweeps step in 0.25 MB/s).
    /// Scaling the drive term by `gain` changes *only* the transient speed:
    /// the fixed point still satisfies `U'_f = q_r` exactly. The default is
    /// calibrated (together with `boost_cap`) so typical flows converge in the order of 10² slots,
    /// matching §5.2.2.
    pub gain: f64,
}

impl Default for CcConfig {
    fn default() -> Self {
        CcConfig { alpha: 0.02, delta: 0.0, gain: 25.0, boost_cap: 8.0 }
    }
}

/// Shared dual-price machinery: Eqs. (7)–(9).
#[derive(Debug, Clone)]
struct PriceState {
    /// Dual variables `γ_l`.
    gamma: Vec<f64>,
    /// Cumulative γ updates performed (links × slots).
    updates: u64,
    /// Cumulative count of (link, slot) pairs whose airtime demand exceeded
    /// the constraint margin, i.e. `y_l > 1 − δ` (Eq. (8) pushing γ up).
    violations: u64,
}

impl PriceState {
    fn new(link_count: usize) -> Self {
        PriceState { gamma: vec![0.0; link_count], updates: 0, violations: 0 }
    }

    /// One price slot: computes `y_l` from current rates, updates `γ`, and
    /// returns the route prices `q_r`. `external` carries measured traffic
    /// from non-EMPoWER nodes per link (§4.3): it enters the airtime demand
    /// like any other traffic, so the controller converges to the optimal
    /// allocation *under that load* without affecting it.
    fn step(
        &mut self,
        problem: &CcProblem,
        imap: &InterferenceMap,
        x: &[f64],
        external: Option<&[f64]>,
        alpha: f64,
        delta: f64,
    ) -> Vec<f64> {
        let mut link_rates = problem.link_rates(x);
        if let Some(ext) = external {
            for (r, e) in link_rates.iter_mut().zip(ext) {
                *r += e;
            }
        }
        let y = problem.domain_airtimes(imap, &link_rates);
        for (g, &yl) in self.gamma.iter_mut().zip(&y) {
            *g = (*g + alpha * (yl - (1.0 - delta))).max(0.0);
            self.updates += 1;
            if yl > 1.0 - delta {
                self.violations += 1;
            }
        }
        // Σ_{i∈I_l} γ_i per link, then q_r = Σ_{l∈r} d_l · that sum.
        let domain_gamma: Vec<f64> = (0..self.gamma.len())
            .map(|i| {
                imap.domain(empower_model::LinkId(i as u32))
                    .iter()
                    .map(|&l| self.gamma[l.index()])
                    .sum()
            })
            .collect();
        problem
            .routes
            .iter()
            .map(|path| {
                path.links()
                    .iter()
                    .map(|&l| problem.link_costs[l.index()] * domain_gamma[l.index()])
                    .sum()
            })
            .collect()
    }
}

/// The single-path controller (§4.2). Valid when every flow has exactly one
/// route; enforced at construction.
#[derive(Debug, Clone)]
pub struct SinglePathController<U: Utility> {
    config: CcConfig,
    utility: U,
    prices: PriceState,
    x: Vec<f64>,
    /// Measured non-EMPoWER traffic per link, Mbps (§4.3).
    external: Option<Vec<f64>>,
}

impl<U: Utility> SinglePathController<U> {
    /// Creates the controller with rates starting at zero.
    ///
    /// # Panics
    /// Panics if some flow has more than one route.
    pub fn new(problem: &CcProblem, utility: U, config: CcConfig) -> Self {
        assert!(
            problem.flows.iter().all(|f| f.routes.len() == 1),
            "single-path controller requires exactly one route per flow"
        );
        SinglePathController {
            config,
            utility,
            prices: PriceState::new(problem.link_costs.len()),
            x: vec![0.0; problem.route_count()],
            external: None,
        }
    }

    /// Sets the measured external (non-EMPoWER) traffic per link, Mbps.
    pub fn set_external(&mut self, rates: Vec<f64>) {
        self.external = Some(rates);
    }

    /// Current route rates (Mbps).
    pub fn rates(&self) -> &[f64] {
        &self.x
    }

    /// Current dual prices `γ_l`.
    pub fn prices(&self) -> &[f64] {
        &self.prices.gamma
    }

    /// Cumulative γ updates performed so far (links × slots).
    pub fn price_updates(&self) -> u64 {
        self.prices.updates
    }

    /// Cumulative (link, slot) pairs where `y_l > 1 − δ`.
    pub fn margin_violations(&self) -> u64 {
        self.prices.violations
    }

    /// Advances one slot; returns the new rates.
    pub fn step(&mut self, problem: &CcProblem, imap: &InterferenceMap) -> &[f64] {
        let q = self.prices.step(
            problem,
            imap,
            &self.x,
            self.external.as_deref(),
            self.config.alpha,
            self.config.delta,
        );
        for (r, qr) in q.into_iter().enumerate() {
            self.x[r] = self.utility.deriv_inv(qr).min(problem.route_caps[r]);
        }
        &self.x
    }
}

/// The multipath proximal controller (§4.3).
#[derive(Debug, Clone)]
pub struct MultipathController<U: Utility> {
    config: CcConfig,
    utility: U,
    prices: PriceState,
    x: Vec<f64>,
    /// Proximal auxiliary variable `x̄`.
    x_bar: Vec<f64>,
    /// Measured non-EMPoWER traffic per link, Mbps (§4.3).
    external: Option<Vec<f64>>,
}

impl<U: Utility> MultipathController<U> {
    /// Creates the controller with rates starting at zero.
    pub fn new(problem: &CcProblem, utility: U, config: CcConfig) -> Self {
        MultipathController {
            config,
            utility,
            prices: PriceState::new(problem.link_costs.len()),
            x: vec![0.0; problem.route_count()],
            x_bar: vec![0.0; problem.route_count()],
            external: None,
        }
    }

    /// Sets the measured external (non-EMPoWER) traffic per link, Mbps
    /// (§4.3). The controller then converges to the utility optimum of the
    /// *residual* capacity region, leaving the external load untouched.
    pub fn set_external(&mut self, rates: Vec<f64>) {
        self.external = Some(rates);
    }

    /// Current route rates (Mbps).
    pub fn rates(&self) -> &[f64] {
        &self.x
    }

    /// Current dual prices `γ_l`.
    pub fn prices(&self) -> &[f64] {
        &self.prices.gamma
    }

    /// Cumulative γ updates performed so far (links × slots).
    pub fn price_updates(&self) -> u64 {
        self.prices.updates
    }

    /// Cumulative (link, slot) pairs where `y_l > 1 − δ`.
    pub fn margin_violations(&self) -> u64 {
        self.prices.violations
    }

    /// Advances one slot; returns the new rates.
    #[allow(clippy::needless_range_loop, reason = "r indexes four parallel arrays")]
    pub fn step(&mut self, problem: &CcProblem, imap: &InterferenceMap) -> &[f64] {
        let alpha = self.config.alpha;
        let q = self.prices.step(
            problem,
            imap,
            &self.x,
            self.external.as_deref(),
            alpha,
            self.config.delta,
        );
        let flow_rates = problem.flow_rates(&self.x);
        for r in 0..problem.route_count() {
            let f = problem.flow_of[r];
            // The gain scales with the operating point: near the optimum
            // `U'` shrinks like 1/(1+x), so a fixed gain would crawl at
            // high rates. `gain·(1+x_f)` keeps the relative step roughly
            // constant without moving the fixed point (which still requires
            // U' = q exactly).
            let boost = (1.0 + flow_rates[f]).min(self.config.boost_cap);
            let drive = self.config.gain * boost * (self.utility.deriv(flow_rates[f]) - q[r]);
            let inner = (self.x_bar[r] + drive).max(0.0);
            let new_x =
                ((1.0 - alpha) * self.x[r] + alpha * inner).min(problem.route_caps[r]).max(0.0);
            self.x_bar[r] = (1.0 - alpha) * self.x_bar[r] + alpha * self.x[r];
            self.x[r] = new_x;
        }
        &self.x
    }

    /// Runs `slots` steps and returns the trajectory of per-flow total
    /// rates, one vector per slot.
    pub fn run_trajectory(
        &mut self,
        problem: &CcProblem,
        imap: &InterferenceMap,
        slots: usize,
    ) -> Vec<Vec<f64>> {
        (0..slots)
            .map(|_| {
                self.step(problem, imap);
                problem.flow_rates(&self.x)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::ProportionalFair;
    use empower_model::topology::{fig1_scenario, fig3_scenario};
    use empower_model::{InterferenceModel, Path, SharedMedium};

    fn fig1_problem() -> (CcProblem, InterferenceMap) {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let route1 = Path::new(&s.net, vec![s.plc_ab, s.wifi_bc]).unwrap();
        let route2 = Path::new(&s.net, vec![s.wifi_ab, s.wifi_bc]).unwrap();
        (CcProblem::new(&s.net, &imap, vec![vec![route1, route2]]), imap)
    }

    #[test]
    fn multipath_converges_to_fig1_optimum() {
        // Max log(1+x1+x2) subject to the airtime constraints is attained at
        // the corner x = (10, 20/3): total 16.67 Mbps.
        let (p, imap) = fig1_problem();
        let mut c = MultipathController::new(&p, ProportionalFair, CcConfig::default());
        for _ in 0..3000 {
            c.step(&p, &imap);
        }
        let total: f64 = c.rates().iter().sum();
        assert!((total - (10.0 + 20.0 / 3.0)).abs() < 0.3, "total {total}");
        assert!(p.is_feasible(&imap, c.rates(), -0.02), "slightly infeasible is tolerable");
    }

    #[test]
    fn multipath_respects_constraint_margin() {
        let (p, imap) = fig1_problem();
        let mut c = MultipathController::new(
            &p,
            ProportionalFair,
            CcConfig { delta: 0.2, ..Default::default() },
        );
        for _ in 0..8000 {
            c.step(&p, &imap);
        }
        // With δ = 0.2 the airtime budget shrinks to 0.8 per domain.
        let rates = p.link_rates(c.rates());
        let worst = p.domain_airtimes(&imap, &rates).into_iter().fold(0.0, f64::max);
        assert!(worst <= 0.82, "worst domain airtime {worst}");
        let total: f64 = c.rates().iter().sum();
        assert!(total > 10.0, "still uses both mediums: {total}");
    }

    #[test]
    fn single_path_matches_kelly_optimum_on_one_route() {
        // One flow on the hybrid route alone: optimum is x = R(P) = 10.
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let route1 = Path::new(&s.net, vec![s.plc_ab, s.wifi_bc]).unwrap();
        let p = CcProblem::new(&s.net, &imap, vec![vec![route1]]);
        let mut c = SinglePathController::new(&p, ProportionalFair, CcConfig::default());
        for _ in 0..5000 {
            c.step(&p, &imap);
        }
        assert!((c.rates()[0] - 10.0).abs() < 0.3, "x = {}", c.rates()[0]);
    }

    #[test]
    #[should_panic(expected = "one route per flow")]
    fn single_path_controller_rejects_multiroute_flows() {
        let (p, _) = fig1_problem();
        SinglePathController::new(&p, ProportionalFair, CcConfig::default());
    }

    #[test]
    fn two_flows_share_a_medium_fairly() {
        // Two single-route flows crossing the same WiFi domain. With equal
        // utilities the proportional-fair split is symmetric.
        let s = fig3_scenario();
        let imap = SharedMedium.build_map(&s.net);
        // Flow A: s→u on WIFI1 (20); Flow B: s→d direct on WIFI1 (10).
        let pa = Path::new(&s.net, vec![s.route1[0]]).unwrap();
        let pb = Path::new(&s.net, s.route3.to_vec()).unwrap();
        let p = CcProblem::new(&s.net, &imap, vec![vec![pa], vec![pb]]);
        let mut c = MultipathController::new(&p, ProportionalFair, CcConfig::default());
        for _ in 0..6000 {
            c.step(&p, &imap);
        }
        let x = c.rates();
        // Proportional fairness on a shared domain: maximize
        // log(1+x1)+log(1+x2) s.t. x1/20 + x2/10 ≤ 1 → x1 = 10.5, x2 = 4.75.
        assert!((x[0] - 10.5).abs() < 0.4, "x1 = {}", x[0]);
        assert!((x[1] - 4.75).abs() < 0.4, "x2 = {}", x[1]);
    }

    #[test]
    fn rates_never_exceed_route_capacity() {
        let (p, imap) = fig1_problem();
        let mut c = MultipathController::new(&p, ProportionalFair, CcConfig::default());
        for _ in 0..3000 {
            c.step(&p, &imap);
            for (r, &x) in c.rates().iter().enumerate() {
                assert!(x <= p.route_caps[r] + 1e-9);
                assert!(x >= 0.0);
            }
        }
    }

    #[test]
    fn trajectory_has_requested_length() {
        let (p, imap) = fig1_problem();
        let mut c = MultipathController::new(&p, ProportionalFair, CcConfig::default());
        let traj = c.run_trajectory(&p, &imap, 50);
        assert_eq!(traj.len(), 50);
        assert_eq!(traj[0].len(), p.flow_count());
        // Rates ramp up from zero.
        assert!(traj[0][0] < traj[49][0]);
    }

    #[test]
    fn idle_network_keeps_prices_at_zero() {
        let (p, imap) = fig1_problem();
        let mut c = MultipathController::new(&p, ProportionalFair, CcConfig::default());
        c.step(&p, &imap);
        // After one step from x = 0: y = 0 < 1, so γ stays 0.
        assert!(c.prices().iter().all(|&g| g == 0.0));
    }
}

#[cfg(test)]
mod external_tests {
    use super::*;
    use crate::utility::ProportionalFair;
    use empower_model::topology::fig1_scenario;
    use empower_model::{InterferenceModel, Path, SharedMedium};

    /// §4.3: "if one external node saturates WiFi, EMPoWER converges to an
    /// allocation that never uses WiFi."
    #[test]
    fn saturating_external_wifi_pushes_empower_onto_plc() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let route1 = Path::new(&s.net, vec![s.plc_ab, s.wifi_bc]).unwrap();
        let route2 = Path::new(&s.net, vec![s.wifi_ab, s.wifi_bc]).unwrap();
        let p = CcProblem::new(&s.net, &imap, vec![vec![route1, route2]]);
        let mut c = MultipathController::new(&p, ProportionalFair, CcConfig::default());
        // External node saturates the 15 Mbps WiFi a→b link.
        let mut ext = vec![0.0; s.net.link_count()];
        ext[s.wifi_ab.index()] = 15.0;
        c.set_external(ext);
        for _ in 0..8000 {
            c.step(&p, &imap);
        }
        // Both EMPoWER routes cross WiFi (route 1's second hop does too),
        // so nothing is fully WiFi-free here; but route 2 (WiFi-WiFi) must
        // be completely abandoned and route 1 squeezed to the residual.
        assert!(c.rates()[1] < 0.3, "WiFi-WiFi route should drain: {:?}", c.rates());
        assert!(c.rates()[0] < 1.0, "no WiFi airtime is left for route 1: {:?}", c.rates());
    }

    /// §4.3: external interference consumes part of the region; the
    /// controller fills exactly the remainder.
    #[test]
    fn partial_external_load_leaves_the_residual() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let route1 = Path::new(&s.net, vec![s.plc_ab, s.wifi_bc]).unwrap();
        let route2 = Path::new(&s.net, vec![s.wifi_ab, s.wifi_bc]).unwrap();
        let p = CcProblem::new(&s.net, &imap, vec![vec![route1, route2]]);
        let mut c = MultipathController::new(&p, ProportionalFair, CcConfig::default());
        // External load eats 1/3 of the WiFi airtime (5 Mbps on the 15 Mbps
        // link). Residual optimum: x1 = 10 (PLC-bound), WiFi budget
        // 2/3 − x1/30 = 1/3 → x2 = (1/3)/(1/15 + 1/30) = 10/3.
        let mut ext = vec![0.0; s.net.link_count()];
        ext[s.wifi_ab.index()] = 5.0;
        c.set_external(ext);
        for _ in 0..8000 {
            c.step(&p, &imap);
        }
        assert!((c.rates()[0] - 10.0).abs() < 0.3, "{:?}", c.rates());
        assert!((c.rates()[1] - 10.0 / 3.0).abs() < 0.3, "{:?}", c.rates());
    }

    /// With no external load, `set_external(zeros)` changes nothing.
    #[test]
    fn zero_external_load_is_identity() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let route1 = Path::new(&s.net, vec![s.plc_ab, s.wifi_bc]).unwrap();
        let p = CcProblem::new(&s.net, &imap, vec![vec![route1]]);
        let mut a = MultipathController::new(&p, ProportionalFair, CcConfig::default());
        let mut b = MultipathController::new(&p, ProportionalFair, CcConfig::default());
        b.set_external(vec![0.0; s.net.link_count()]);
        for _ in 0..2000 {
            a.step(&p, &imap);
            b.step(&p, &imap);
        }
        assert_eq!(a.rates(), b.rates());
    }
}
