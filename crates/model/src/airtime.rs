//! The airtime model of §2 and Lemma 1 of §3.2.
//!
//! The airtime of an unsaturated link is `µ_l = x_l · d_l` (Eq. (1)). The
//! congestion-control constraint (2) requires the *aggregate* airtime demand
//! in every interference domain to stay below 1 (or `1 − δ` with a margin):
//!
//! ```text
//! Σ_{l'∈I_l} d_{l'} · Σ_{r: l'∈r} x_r  ≤  1 − δ      ∀ l ∈ L
//! ```
//!
//! [`AirtimeLedger`] evaluates that expression for a set of routes and rates.

use crate::graph::Network;
use crate::ids::LinkId;
use crate::interference::InterferenceMap;
use crate::path::Path;

/// Lemma 1: if `λ` links share one collision domain, the maximum rate
/// simultaneously achievable by *each* link is `R_max = (Σ d_i)⁻¹`.
///
/// Returns 0 when any link is dead or the set is empty.
pub fn lemma1_rmax(costs: &[f64]) -> f64 {
    if costs.is_empty() {
        return 0.0;
    }
    let sum: f64 = costs.iter().sum();
    if sum.is_finite() && sum > 0.0 {
        1.0 / sum
    } else {
        0.0
    }
}

/// Accumulates per-link traffic from (route, rate) pairs and evaluates the
/// interference constraint (2)/(3).
#[derive(Debug, Clone)]
pub struct AirtimeLedger {
    /// Traffic rate `x_l = Σ_{r: l∈r} x_r` per link, Mbps.
    link_rates: Vec<f64>,
}

impl AirtimeLedger {
    /// Creates an empty ledger for `net`.
    pub fn new(net: &Network) -> Self {
        AirtimeLedger { link_rates: vec![0.0; net.link_count()] }
    }

    /// Clears all recorded traffic.
    pub fn clear(&mut self) {
        self.link_rates.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Adds `rate` Mbps flowing over every link of `path`.
    pub fn add_route(&mut self, path: &Path, rate: f64) {
        debug_assert!(rate >= 0.0);
        for &l in path.links() {
            self.link_rates[l.index()] += rate;
        }
    }

    /// Adds `rate` Mbps on a single link (external/background traffic).
    pub fn add_link_traffic(&mut self, link: LinkId, rate: f64) {
        self.link_rates[link.index()] += rate;
    }

    /// Traffic rate currently recorded on `link`.
    pub fn link_rate(&self, link: LinkId) -> f64 {
        self.link_rates[link.index()]
    }

    /// Airtime demand of a single link: `µ_l = x_l · d_l`. Infinite when a
    /// dead link carries traffic.
    pub fn link_airtime(&self, net: &Network, link: LinkId) -> f64 {
        let x = self.link_rates[link.index()];
        if x == 0.0 {
            0.0
        } else {
            x * net.link(link).cost()
        }
    }

    /// Aggregate airtime demand in the interference domain of `link`:
    /// `y_l = Σ_{l'∈I_l} d_{l'} x_{l'}` — the left-hand side of constraint (2).
    pub fn domain_airtime(&self, net: &Network, imap: &InterferenceMap, link: LinkId) -> f64 {
        imap.domain(link).iter().map(|&l| self.link_airtime(net, l)).sum()
    }

    /// The largest domain airtime demand over all links — ≤ 1 iff constraint
    /// (2) holds everywhere.
    pub fn max_domain_airtime(&self, net: &Network, imap: &InterferenceMap) -> f64 {
        (0..net.link_count())
            .map(|i| self.domain_airtime(net, imap, LinkId(i as u32)))
            .fold(0.0, f64::max)
    }

    /// True if constraint (3) holds with margin `delta` on every link.
    pub fn is_feasible(&self, net: &Network, imap: &InterferenceMap, delta: f64) -> bool {
        let budget = 1.0 - delta;
        (0..net.link_count())
            .all(|i| self.domain_airtime(net, imap, LinkId(i as u32)) <= budget + 1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use crate::graph::NetworkBuilder;
    use crate::interference::{InterferenceModel, SharedMedium};
    use crate::medium::Medium;
    use crate::path::Path;

    #[test]
    fn lemma1_matches_closed_form() {
        // Three links of 30, 15, 30 Mbps in one domain:
        // Rmax = 1/(1/30 + 1/15 + 1/30) = 7.5.
        let r = lemma1_rmax(&[1.0 / 30.0, 1.0 / 15.0, 1.0 / 30.0]);
        assert!((r - 7.5).abs() < 1e-9);
    }

    #[test]
    fn lemma1_degenerate_cases() {
        assert_eq!(lemma1_rmax(&[]), 0.0);
        assert_eq!(lemma1_rmax(&[f64::INFINITY, 0.1]), 0.0);
        assert!((lemma1_rmax(&[0.1]) - 10.0).abs() < 1e-12);
    }

    fn chain() -> (Network, Vec<LinkId>) {
        let mut b = NetworkBuilder::new();
        let m = vec![Medium::WIFI1];
        let n0 = b.add_node(Point::new(0.0, 0.0), m.clone(), None);
        let n1 = b.add_node(Point::new(10.0, 0.0), m.clone(), None);
        let n2 = b.add_node(Point::new(20.0, 0.0), m, None);
        let (l0, _) = b.add_duplex(n0, n1, Medium::WIFI1, 15.0);
        let (l1, _) = b.add_duplex(n1, n2, Medium::WIFI1, 30.0);
        (b.build(), vec![l0, l1])
    }

    #[test]
    fn ledger_accumulates_route_traffic() {
        let (net, ids) = chain();
        let imap = SharedMedium.build_map(&net);
        let mut ledger = AirtimeLedger::new(&net);
        let p = Path::new(&net, vec![ids[0], ids[1]]).unwrap();
        ledger.add_route(&p, 5.0);
        assert_eq!(ledger.link_rate(ids[0]), 5.0);
        assert_eq!(ledger.link_rate(ids[1]), 5.0);
        // Domain airtime: 5/15 + 5/30 = 0.5 on the shared WiFi medium.
        assert!((ledger.domain_airtime(&net, &imap, ids[0]) - 0.5).abs() < 1e-9);
        assert!(ledger.is_feasible(&net, &imap, 0.0));
        assert!(!ledger.is_feasible(&net, &imap, 0.6));
    }

    #[test]
    fn ledger_detects_overload() {
        let (net, ids) = chain();
        let imap = SharedMedium.build_map(&net);
        let mut ledger = AirtimeLedger::new(&net);
        let p = Path::new(&net, vec![ids[0], ids[1]]).unwrap();
        // Path capacity is 1/(1/15+1/30) = 10; inject 12.
        ledger.add_route(&p, 12.0);
        assert!(ledger.max_domain_airtime(&net, &imap) > 1.0);
        assert!(!ledger.is_feasible(&net, &imap, 0.0));
    }

    #[test]
    fn rate_at_path_capacity_saturates_exactly() {
        let (net, ids) = chain();
        let imap = SharedMedium.build_map(&net);
        let p = Path::new(&net, vec![ids[0], ids[1]]).unwrap();
        let cap = p.capacity(&net, &imap);
        let mut ledger = AirtimeLedger::new(&net);
        ledger.add_route(&p, cap);
        assert!((ledger.max_domain_airtime(&net, &imap) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn clear_resets_ledger() {
        let (net, ids) = chain();
        let mut ledger = AirtimeLedger::new(&net);
        ledger.add_link_traffic(ids[0], 3.0);
        ledger.clear();
        assert_eq!(ledger.link_rate(ids[0]), 0.0);
    }

    #[test]
    fn external_traffic_counts_toward_domain() {
        let (net, ids) = chain();
        let imap = SharedMedium.build_map(&net);
        let mut ledger = AirtimeLedger::new(&net);
        ledger.add_link_traffic(ids[1], 30.0); // saturates the 30 Mbps link
        assert!((ledger.domain_airtime(&net, &imap, ids[0]) - 1.0).abs() < 1e-9);
    }
}
