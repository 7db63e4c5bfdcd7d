//! Source-side packet scheduling (§6.1).
//!
//! "If several routes exist, each packet is sent over route r with a
//! probability proportional to the rate x_r." The scheduler also enforces
//! the flow's total rate with a token bucket: "our congestion controller …
//! drops packets if the rate sent by the above layers goes above the total
//! rate for the flow" (§6.4) — that drop signal is what TCP perceives as
//! congestion.

use empower_model::rng::Rng;

use crate::config::SchedulerConfig;

/// Outcome of offering one packet to the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteChoice {
    /// Send on this route index.
    Route(usize),
    /// The flow's admitted rate is exhausted: drop (TCP sees congestion).
    Drop,
}

/// Weighted route picker + token-bucket admission for one flow.
#[derive(Debug, Clone)]
pub struct RouteScheduler {
    /// Current per-route rates `x_r`, Mbps.
    rates: Vec<f64>,
    /// Token bucket level, megabits.
    tokens: f64,
    /// Bucket depth, megabits (burst tolerance).
    bucket_depth: f64,
    /// Last refill time, seconds.
    last_refill: f64,
    /// Next sequence number to stamp.
    next_seq: u32,
    /// Price-probing floor, Mbps: a route's *selection weight* never drops
    /// below this, so every route keeps carrying a trickle of packets and
    /// its price `q_r` stays observable. Without it, a route whose rate the
    /// controller drove to zero could never learn that its price has since
    /// dropped (no packets → no fresh `q_r` in ACKs → deadlock).
    probe_floor: f64,
}

impl RouteScheduler {
    /// Builds a scheduler from its typed configuration (see
    /// [`SchedulerConfig`]).
    pub(crate) fn from_config(cfg: &SchedulerConfig) -> Self {
        assert!(cfg.bucket_depth() > 0.0);
        let mut s = RouteScheduler {
            rates: vec![0.0; cfg.routes()],
            tokens: 0.0,
            bucket_depth: cfg.bucket_depth(),
            last_refill: 0.0,
            next_seq: 0,
            probe_floor: cfg.probe_floor().max(0.0),
        };
        if let Some(rates) = cfg.rates() {
            s.set_rates(rates);
        }
        s
    }

    /// Re-keys the scheduler for a new route set, zeroing the rates but
    /// preserving the token bucket and — crucially — the wire sequence
    /// counter (the destination's reorder buffer lives across route
    /// recomputations).
    pub fn reset_routes(&mut self, route_count: usize) {
        self.rates = vec![0.0; route_count];
    }

    /// Updates the per-route rates from the congestion controller.
    ///
    /// # Panics
    /// Panics when `rates` and the route set disagree in length.
    pub fn set_rates(&mut self, rates: &[f64]) {
        assert_eq!(rates.len(), self.rates.len());
        self.rates.copy_from_slice(rates);
    }

    /// Current total admitted rate, Mbps.
    pub fn total_rate(&self) -> f64 {
        self.rates.iter().sum()
    }

    /// Offers one packet of `bits` bits at time `now`; returns the route to
    /// use (and consumes tokens) or [`RouteChoice::Drop`].
    pub fn offer<R: Rng + ?Sized>(&mut self, rng: &mut R, now: f64, bits: u64) -> RouteChoice {
        let total = self.total_rate();
        // Refill: rate is Mbps = Mb/s; tokens are Mb.
        let elapsed = (now - self.last_refill).max(0.0);
        self.tokens = (self.tokens + total * elapsed).min(self.bucket_depth);
        self.last_refill = now;
        let need = bits as f64 / 1e6;
        if total <= 0.0 || self.tokens < need {
            return RouteChoice::Drop;
        }
        self.tokens -= need;
        // Weighted route choice ∝ max(x_r, probe floor): proportional to
        // the controller's split, with a trickle on quiet routes to keep
        // their prices observable. The weights are recomputed on the second
        // walk rather than collected: same values, same order, no Vec.
        let floor = self.probe_floor;
        let sum: f64 = self.rates.iter().map(|&x| x.max(floor)).sum();
        let mut draw = rng.gen::<f64>() * sum;
        for (i, &x) in self.rates.iter().enumerate() {
            let w = x.max(floor);
            if draw < w {
                return RouteChoice::Route(i);
            }
            draw -= w;
        }
        RouteChoice::Route(self.rates.len() - 1)
    }

    /// Stamps and returns the next sequence number.
    pub fn next_seq(&mut self) -> u32 {
        let s = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use empower_model::rng::SeedableRng;
    use empower_model::rng::StdRng;

    #[test]
    fn zero_rate_drops_everything() {
        let mut s = SchedulerConfig::for_routes(2).build();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(s.offer(&mut rng, 0.0, 12000), RouteChoice::Drop);
    }

    #[test]
    fn route_choice_is_proportional_to_rates() {
        let mut s = SchedulerConfig::for_routes(2).initial_rates(&[30.0, 10.0]).build();
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0usize; 2];
        let mut t = 0.0;
        for _ in 0..40_000 {
            t += 0.001; // plenty of tokens at 40 Mbps
            if let RouteChoice::Route(r) = s.offer(&mut rng, t, 12000) {
                counts[r] += 1;
            }
        }
        let frac = counts[0] as f64 / (counts[0] + counts[1]) as f64;
        assert!((frac - 0.75).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn token_bucket_enforces_the_total_rate() {
        let mut s = SchedulerConfig::for_routes(1).initial_rates(&[10.0]).build(); // 10 Mbps
        let mut rng = StdRng::seed_from_u64(3);
        // Offer 1500 B packets every 0.5 ms for 1 s → offered 24 Mbps.
        let mut sent_bits = 0u64;
        let mut t = 0.0;
        while t < 1.0 {
            if let RouteChoice::Route(_) = s.offer(&mut rng, t, 12000) {
                sent_bits += 12000;
            }
            t += 0.0005;
        }
        let rate = sent_bits as f64 / 1e6;
        assert!((rate - 10.0).abs() < 0.5, "admitted {rate} Mbps");
    }

    #[test]
    fn sequence_numbers_increment() {
        let mut s = SchedulerConfig::for_routes(1).build();
        assert_eq!(s.next_seq(), 0);
        assert_eq!(s.next_seq(), 1);
        assert_eq!(s.next_seq(), 2);
    }

    #[test]
    fn probe_floor_keeps_quiet_routes_sampled() {
        let mut s = SchedulerConfig::for_routes(2).initial_rates(&[0.0, 20.0]).build();
        let mut rng = StdRng::seed_from_u64(9);
        let mut t = 0.0;
        let mut probe_hits = 0;
        for _ in 0..20_000 {
            t += 0.001;
            if let RouteChoice::Route(0) = s.offer(&mut rng, t, 12000) {
                probe_hits += 1;
            }
        }
        // Expected share ≈ 0.25 / 20.25 ≈ 1.2 %.
        assert!(probe_hits > 50, "quiet route got {probe_hits} probes");
    }

    /// `offer` as it was before the draw stopped collecting its weights.
    fn collect_then_draw<R: Rng + ?Sized>(
        s: &mut RouteScheduler,
        rng: &mut R,
        now: f64,
        bits: u64,
    ) -> RouteChoice {
        let total = s.total_rate();
        let elapsed = (now - s.last_refill).max(0.0);
        s.tokens = (s.tokens + total * elapsed).min(s.bucket_depth);
        s.last_refill = now;
        let need = bits as f64 / 1e6;
        if total <= 0.0 || s.tokens < need {
            return RouteChoice::Drop;
        }
        s.tokens -= need;
        let weights: Vec<f64> = s.rates.iter().map(|&x| x.max(s.probe_floor)).collect();
        let sum: f64 = weights.iter().sum();
        let mut draw = rng.gen::<f64>() * sum;
        for (i, &w) in weights.iter().enumerate() {
            if draw < w {
                return RouteChoice::Route(i);
            }
            draw -= w;
        }
        RouteChoice::Route(s.rates.len() - 1)
    }

    #[test]
    fn route_draw_is_bit_identical_to_collect_then_draw() {
        let mut inputs = StdRng::seed_from_u64(0x0FFE_4D4A);
        let mut routed = 0usize;
        for case in 0..300 {
            let routes = inputs.gen_range(1usize..=6);
            let floor = match case % 3 {
                0 => 0.0,
                1 => 0.25,
                _ => inputs.gen_range(0.0..5.0),
            };
            let cfg = SchedulerConfig::for_routes(routes).probe_floor_mbps(floor);
            let mut fast = cfg.build();
            let mut slow = cfg.build();
            let mut rng_fast = StdRng::seed_from_u64(case);
            let mut rng_slow = StdRng::seed_from_u64(case);
            let mut t = 0.0;
            for step in 0..200 {
                if step % 50 == 0 {
                    // Fresh rates, a third of them zero (all zero sometimes).
                    let rates: Vec<f64> =
                        (0..routes)
                            .map(|_| {
                                if inputs.gen_bool(0.3) {
                                    0.0
                                } else {
                                    inputs.gen_range(0.0..40.0)
                                }
                            })
                            .collect();
                    fast.set_rates(&rates);
                    slow.set_rates(&rates);
                }
                t += inputs.gen_range(0.0..0.002);
                let bits = inputs.gen_range(800u64..=12_000);
                let got = fast.offer(&mut rng_fast, t, bits);
                let want = collect_then_draw(&mut slow, &mut rng_slow, t, bits);
                let at = format!("case {case} step {step}");
                assert_eq!(got, want, "{at}");
                assert_eq!(fast.tokens.to_bits(), slow.tokens.to_bits(), "{at}");
                assert_eq!(rng_fast, rng_slow, "{at}: both drew the same number of words");
                routed += usize::from(matches!(got, RouteChoice::Route(_)));
            }
        }
        assert!(routed > 10_000, "only {routed} offers reached the route draw");
    }

    #[test]
    fn rate_updates_take_effect() {
        let mut s = SchedulerConfig::for_routes(2).probe_floor_mbps(0.0).build();
        s.set_rates(&[0.0, 5.0]);
        let mut rng = StdRng::seed_from_u64(4);
        let mut t = 0.0;
        for _ in 0..100 {
            t += 0.01;
            if let RouteChoice::Route(r) = s.offer(&mut rng, t, 12000) {
                assert_eq!(r, 1, "only route 1 has rate");
            }
        }
    }
}
