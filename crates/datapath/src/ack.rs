//! Price acknowledgements (§4.2/§6.1).
//!
//! The destination reads the accumulated `q_r` from each data packet's
//! header, remembers the latest value per route, and sends it back to the
//! source in dedicated acknowledgements "at most 10 times per second, using
//! the best single-path" with prioritized queues. One ACK carries the prices
//! of *all* routes of the flow.

/// ACK pacing: at most one per 100 ms per flow.
pub const ACK_INTERVAL_SECS: f64 = 0.1;

/// An EMPoWER acknowledgement: the per-route prices observed since the last
/// ACK, plus cumulative delivery feedback usable for throughput accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct Ack {
    /// Latest accumulated price `q_r` per route (`None` = no packet seen on
    /// that route during the window).
    pub route_prices: Vec<Option<f64>>,
    /// Packets delivered in order to the upper layer since flow start.
    pub delivered_packets: u64,
    /// Emission time, seconds.
    pub sent_at: f64,
}

/// Destination-side collector producing paced ACKs.
#[derive(Debug, Clone)]
pub struct AckCollector {
    latest_price: Vec<Option<f64>>,
    delivered_packets: u64,
    last_ack_at: f64,
}

impl AckCollector {
    /// Collector for a flow with `route_count` routes.
    pub fn new(route_count: usize) -> Self {
        AckCollector {
            latest_price: vec![None; route_count],
            delivered_packets: 0,
            // Allow an ACK as soon as the first packet arrives.
            last_ack_at: f64::NEG_INFINITY,
        }
    }

    /// Records the header price of a packet that arrived on `route`.
    pub fn observe_price(&mut self, route: usize, q: f64) {
        self.latest_price[route] = Some(q);
    }

    /// Records an in-order delivery to the upper layer.
    pub fn count_delivery(&mut self) {
        self.delivered_packets += 1;
    }

    /// Total in-order deliveries so far.
    pub fn delivered(&self) -> u64 {
        self.delivered_packets
    }

    /// Sends the paced ACK if one is due at `now` and lends its per-route
    /// prices, without building an [`Ack`]: the control tick reads them
    /// in place. Prices are kept (not cleared): the controller always acts
    /// on the freshest known `q_r`.
    pub fn ack_due(&mut self, now: f64) -> Option<&[Option<f64>]> {
        if now - self.last_ack_at < ACK_INTERVAL_SECS {
            return None;
        }
        if self.latest_price.iter().all(|p| p.is_none()) && self.delivered_packets == 0 {
            return None; // nothing to report yet
        }
        self.last_ack_at = now;
        Some(&self.latest_price)
    }

    /// Produces an ACK if the pacing interval has elapsed; the owned form
    /// of [`AckCollector::ack_due`].
    pub fn maybe_ack(&mut self, now: f64) -> Option<Ack> {
        let delivered_packets = self.delivered_packets;
        self.ack_due(now).map(|prices| Ack {
            route_prices: prices.to_vec(),
            delivered_packets,
            sent_at: now,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acks_are_paced_at_100ms() {
        let mut c = AckCollector::new(2);
        c.observe_price(0, 0.5);
        assert!(c.maybe_ack(0.0).is_some());
        c.observe_price(0, 0.6);
        assert!(c.maybe_ack(0.05).is_none());
        assert!(c.maybe_ack(0.1).is_some());
    }

    #[test]
    fn ack_carries_latest_price_per_route() {
        let mut c = AckCollector::new(2);
        c.observe_price(0, 0.5);
        c.observe_price(0, 0.7);
        c.observe_price(1, 0.2);
        let ack = c.maybe_ack(0.0).unwrap();
        assert_eq!(ack.route_prices, vec![Some(0.7), Some(0.2)]);
    }

    #[test]
    fn ack_due_lends_what_maybe_ack_sends() {
        let (mut lent, mut owned) = (AckCollector::new(2), AckCollector::new(2));
        for c in [&mut lent, &mut owned] {
            c.observe_price(1, 0.3);
        }
        for now in [0.0, 0.05, 0.1, 0.3] {
            let ack = owned.maybe_ack(now);
            assert_eq!(lent.ack_due(now), ack.as_ref().map(|a| &a.route_prices[..]), "at {now}");
        }
    }

    #[test]
    fn silent_flow_sends_no_acks() {
        let mut c = AckCollector::new(2);
        assert!(c.maybe_ack(10.0).is_none());
    }

    #[test]
    fn unseen_route_reports_none() {
        let mut c = AckCollector::new(3);
        c.observe_price(1, 0.4);
        let ack = c.maybe_ack(1.0).unwrap();
        assert_eq!(ack.route_prices, vec![None, Some(0.4), None]);
    }

    #[test]
    fn delivery_counter_is_cumulative() {
        let mut c = AckCollector::new(1);
        c.observe_price(0, 0.1);
        for _ in 0..5 {
            c.count_delivery();
        }
        assert_eq!(c.maybe_ack(0.0).unwrap().delivered_packets, 5);
        for _ in 0..3 {
            c.count_delivery();
        }
        assert_eq!(c.maybe_ack(0.2).unwrap().delivered_packets, 8);
    }
}
