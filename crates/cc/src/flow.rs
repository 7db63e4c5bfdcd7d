//! Source-side per-flow rate controller.
//!
//! This is the piece of the §4.3 controller that runs *inside one source
//! node*: it owns the flow's `x_r`/`x̄_r` iterates and consumes the route
//! prices `q_r` echoed in acknowledgements. The dual-variable machinery
//! lives in [`crate::distributed::LinkPriceState`] on every node; this type
//! is deliberately ignorant of the network — it sees only prices.

use crate::controller::{CcConfig, GAIN};
use crate::step_size::AdaptiveAlpha;
use crate::utility::Utility;

/// The rate state of one flow at its source.
#[derive(Debug, Clone)]
pub struct FlowController<U: Utility> {
    utility: U,
    config: CcConfig,
    /// Adaptive step size (§6.1 heuristic).
    alpha: AdaptiveAlpha,
    /// Standalone capacity clamp per route.
    caps: Vec<f64>,
    x: Vec<f64>,
    x_bar: Vec<f64>,
    /// Last known price per route (kept when an ACK reports no fresh one).
    q: Vec<f64>,
}

impl<U: Utility> FlowController<U> {
    /// Creates the controller for a flow whose routes have standalone
    /// capacities `route_caps` (used to clamp iterates) and whose longest
    /// route has `max_hops` hops (drives the initial step size).
    pub fn new(utility: U, config: CcConfig, route_caps: Vec<f64>, max_hops: usize) -> Self {
        let n = route_caps.len();
        FlowController {
            utility,
            config,
            alpha: AdaptiveAlpha::new(max_hops, n),
            caps: route_caps,
            x: vec![0.0; n],
            x_bar: vec![0.0; n],
            q: vec![0.0; n],
        }
    }

    /// Current per-route rates, Mbps.
    pub fn rates(&self) -> &[f64] {
        &self.x
    }

    /// Current total rate, Mbps.
    pub fn total_rate(&self) -> f64 {
        self.x.iter().sum()
    }

    /// Current step size.
    pub fn alpha(&self) -> f64 {
        self.alpha.alpha()
    }

    /// One slot: consume the latest prices (`None` = no update for that
    /// route, keep the previous value) and advance the proximal iteration
    /// in place; read the new rates with [`FlowController::rates`].
    pub fn on_ack(&mut self, route_prices: &[Option<f64>]) {
        assert_eq!(route_prices.len(), self.x.len());
        for (q, p) in self.q.iter_mut().zip(route_prices) {
            if let Some(p) = p {
                *q = *p;
            }
        }
        let alpha = self.alpha.alpha();
        let total: f64 = self.x.iter().sum();
        let u_prime = self.utility.deriv(total);
        // Rate-proportional gain boost; see MultipathController::step.
        let boost = (1.0 + total).min(self.config.boost_cap);
        for r in 0..self.x.len() {
            let drive = GAIN * boost * (u_prime - self.q[r]);
            let inner = (self.x_bar[r] + drive).max(0.0);
            let nx = ((1.0 - alpha) * self.x[r] + alpha * inner).min(self.caps[r]).max(0.0);
            self.x_bar[r] = (1.0 - alpha) * self.x_bar[r] + alpha * self.x[r];
            self.x[r] = nx;
        }
        let total: f64 = self.x.iter().sum();
        self.alpha.observe(total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::ProportionalFair;

    #[test]
    fn rates_start_at_zero_and_ramp() {
        let mut c = FlowController::new(ProportionalFair, CcConfig::default(), vec![10.0, 10.0], 2);
        assert_eq!(c.total_rate(), 0.0);
        c.on_ack(&[Some(0.0), Some(0.0)]);
        assert!(c.total_rate() > 0.0);
    }

    #[test]
    fn converges_against_a_static_price() {
        // Fixed prices q = U'(x*) pin the equilibrium: with q = 0.1,
        // the unconstrained optimum is total x with 1/(1+x) = 0.1 → x = 9,
        // split across routes (each clamped at 6).
        let mut c = FlowController::new(ProportionalFair, CcConfig::default(), vec![6.0, 6.0], 2);
        for _ in 0..4000 {
            c.on_ack(&[Some(0.1), Some(0.1)]);
        }
        let total = c.total_rate();
        assert!((total - 9.0).abs() < 0.5, "total {total}");
    }

    #[test]
    fn missing_prices_keep_previous_value() {
        let mut c = FlowController::new(ProportionalFair, CcConfig::default(), vec![100.0], 1);
        for _ in 0..500 {
            c.on_ack(&[Some(2.0)]); // price above U'(0)=1 → rate stays 0
        }
        assert!(c.total_rate() < 0.2, "{}", c.total_rate());
        // ACKs stop carrying prices; the controller keeps using q = 2.
        for _ in 0..500 {
            c.on_ack(&[None]);
        }
        assert!(c.total_rate() < 0.2, "{}", c.total_rate());
    }

    #[test]
    fn rates_respect_route_caps() {
        let mut c = FlowController::new(ProportionalFair, CcConfig::default(), vec![3.0, 5.0], 2);
        for _ in 0..2000 {
            c.on_ack(&[Some(0.0), Some(0.0)]);
        }
        assert!(c.rates()[0] <= 3.0 + 1e-9);
        assert!(c.rates()[1] <= 5.0 + 1e-9);
    }

    #[test]
    fn higher_price_moves_traffic_to_the_cheaper_route() {
        let mut c = FlowController::new(ProportionalFair, CcConfig::default(), vec![50.0, 50.0], 2);
        for _ in 0..4000 {
            c.on_ack(&[Some(0.30), Some(0.05)]);
        }
        assert!(c.rates()[1] > c.rates()[0] + 1.0, "{:?}", c.rates());
    }
}
