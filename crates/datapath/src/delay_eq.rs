//! Delay equalization for TCP over multipath (§6.4).
//!
//! TCP expects packets within a time frame; when one route is much faster
//! than another, packets from the fast route wait in the reorder buffer for
//! stragglers and TCP may time out. "To improve performance, we add some
//! delay on the fast route at the destination, so that both routes have
//! approximately the same delays. The packets are then reordered."
//!
//! The equalizer keeps an EWMA of each route's one-way delay and returns,
//! per arriving packet, the artificial hold time that aligns its total
//! latency with the currently slowest route.

/// EWMA smoothing factor for the per-route delay estimates.
const EWMA: f64 = 0.1;
/// Cap on artificially added delay, seconds (a straggling route must not
/// stall the flow indefinitely).
const MAX_HOLD_SECS: f64 = 0.5;

/// Per-flow destination-side delay equalizer.
#[derive(Debug, Clone)]
pub struct DelayEqualizer {
    est_delay: Vec<Option<f64>>,
}

impl DelayEqualizer {
    /// An equalizer for `routes` routes, with no estimates yet.
    pub fn new(routes: usize) -> Self {
        DelayEqualizer { est_delay: vec![None; routes] }
    }

    /// Re-keys for a new route set: fresh estimates.
    pub(crate) fn reset_routes(&mut self, route_count: usize) {
        self.est_delay = vec![None; route_count];
    }

    /// Records an observed one-way delay for `route` and returns the hold
    /// time to apply to this packet before releasing it upward.
    pub fn on_arrival(&mut self, route: usize, delay_secs: f64) -> f64 {
        let updated = match self.est_delay[route] {
            None => delay_secs,
            Some(e) => (1.0 - EWMA) * e + EWMA * delay_secs,
        };
        self.est_delay[route] = Some(updated);
        let slowest = self.est_delay.iter().flatten().fold(0.0_f64, |a, &b| a.max(b));
        (slowest - updated).clamp(0.0, MAX_HOLD_SECS)
    }

    /// Current delay estimate of a route.
    pub fn estimate(&self, route: usize) -> Option<f64> {
        self.est_delay[route]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_route_never_holds() {
        let mut eq = DelayEqualizer::new(1);
        assert_eq!(eq.on_arrival(0, 0.02), 0.0);
        assert_eq!(eq.on_arrival(0, 0.05), 0.0);
    }

    #[test]
    fn fast_route_is_held_to_match_slow_route() {
        let mut eq = DelayEqualizer::new(2);
        // Prime both estimates.
        eq.on_arrival(0, 0.010); // fast
        eq.on_arrival(1, 0.100); // slow
        let hold = eq.on_arrival(0, 0.010);
        assert!((hold - 0.090).abs() < 0.005, "hold {hold}");
        // The slow route itself is never held.
        assert_eq!(eq.on_arrival(1, 0.100), 0.0);
    }

    #[test]
    fn hold_is_capped() {
        let mut eq = DelayEqualizer::new(2);
        eq.on_arrival(1, 10.0); // pathological straggler
        let hold = eq.on_arrival(0, 0.01);
        assert_eq!(hold, MAX_HOLD_SECS);
    }

    #[test]
    fn estimates_track_with_ewma() {
        let mut eq = DelayEqualizer::new(1);
        eq.on_arrival(0, 0.1);
        for _ in 0..200 {
            eq.on_arrival(0, 0.02);
        }
        let est = eq.estimate(0).unwrap();
        assert!((est - 0.02).abs() < 1e-3, "est {est}");
    }

    #[test]
    fn equalized_delays_converge() {
        let mut eq = DelayEqualizer::new(2);
        let mut total0 = 0.0;
        let mut total1 = 0.0;
        for _ in 0..500 {
            total0 = 0.01 + eq.on_arrival(0, 0.01);
            total1 = 0.08 + eq.on_arrival(1, 0.08);
        }
        assert!((total0 - total1).abs() < 0.005, "{total0} vs {total1}");
    }
}
