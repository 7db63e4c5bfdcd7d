//! Link metrics for the single-path procedure.
//!
//! EMPoWER uses `W(l) = d_l` — proportional to the expected transmission
//! time (ETT) of \[7\] — and handles intra-flow interference through the
//! channel-switching cost instead of baking it into the metric. The paper's
//! footnote 7 reports that alternative metrics (IRU of Yang et al., CATT of
//! Genetzakis & Siris, and plain hop count) all gave worse results; they are
//! provided here as baselines so that comparison is reproducible.

use empower_model::{InterferenceMap, LinkId, Network};

/// Selects a link metric by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// `W(l) = d_l` (EMPoWER's choice; ETT up to a constant factor).
    Ett,
    /// Interference-aware resource usage: `d_l · |I_l|` — charges a link for
    /// the number of links whose airtime its transmissions consume.
    Iru,
    /// Contention-aware transmission time: `Σ_{l'∈I_l} d_{l'}` — the total
    /// airtime a transmission occupies across its contention domain.
    Catt,
    /// Plain hop count (every alive link costs 1).
    HopCount,
}

/// A computed metric ready to evaluate links.
#[derive(Debug, Clone)]
pub struct LinkMetric {
    kind: MetricKind,
    /// Cached per-link weights for the interference-aware metrics.
    weights: Vec<f64>,
}

impl LinkMetric {
    /// Builds the metric. `imap` is only consulted for [`MetricKind::Iru`]
    /// and [`MetricKind::Catt`].
    pub fn new(kind: MetricKind, net: &Network, imap: &InterferenceMap) -> Self {
        let weights = net
            .links()
            .iter()
            .map(|l| match kind {
                MetricKind::Ett => l.cost(),
                MetricKind::HopCount => {
                    if l.is_alive() {
                        1.0
                    } else {
                        f64::INFINITY
                    }
                }
                MetricKind::Iru => l.cost() * imap.domain(l.id).len() as f64,
                MetricKind::Catt => imap
                    .domain(l.id)
                    .iter()
                    .map(|&i| net.link(i).cost())
                    .filter(|c| c.is_finite())
                    .sum::<f64>()
                    .max(l.cost()),
            })
            .collect();
        LinkMetric { kind, weights }
    }

    /// EMPoWER's default metric, which needs no interference map.
    pub fn ett(net: &Network) -> Self {
        let weights = net.links().iter().map(|l| l.cost()).collect();
        LinkMetric { kind: MetricKind::Ett, weights }
    }

    /// The metric kind.
    pub fn kind(&self) -> MetricKind {
        self.kind
    }

    /// Weight of a link. Infinite for dead links.
    pub fn weight(&self, link: LinkId) -> f64 {
        self.weights[link.index()]
    }

    /// Recomputes a single link's weight after its capacity changed. Only
    /// exact for capacity-local metrics (ETT, hop count); the interference-
    /// aware baselines must be rebuilt instead.
    ///
    /// # Panics
    /// Panics for any other metric kind — a silent no-op would leave a
    /// stale weight in place, which is worse than failing loudly.
    #[expect(
        clippy::panic,
        reason = "documented caller-contract panic; a silent no-op would corrupt route weights"
    )]
    pub fn refresh_link(&mut self, net: &Network, link: LinkId) {
        match self.kind {
            MetricKind::Ett => self.weights[link.index()] = net.link(link).cost(),
            MetricKind::HopCount => {
                self.weights[link.index()] =
                    if net.link(link).is_alive() { 1.0 } else { f64::INFINITY }
            }
            _ => panic!("refresh_link is only supported for ETT and hop count"),
        }
    }

    /// Puts back a weight [`LinkMetric::weight`] read before a capacity
    /// change the caller has since undone.
    pub(crate) fn restore_weight(&mut self, link: LinkId, weight: f64) {
        self.weights[link.index()] = weight;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use empower_model::topology::fig1_scenario;
    use empower_model::{InterferenceModel, SharedMedium};

    #[test]
    fn ett_weight_is_link_cost() {
        let s = fig1_scenario();
        let m = LinkMetric::ett(&s.net);
        assert!((m.weight(s.plc_ab) - 0.1).abs() < 1e-12);
        assert!((m.weight(s.wifi_bc) - 1.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn iru_scales_with_domain_size() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let m = LinkMetric::new(MetricKind::Iru, &s.net, &imap);
        // wifi_ab contends with all 4 directed WiFi links: weight = d · 4.
        assert!((m.weight(s.wifi_ab) - (1.0 / 15.0) * 4.0).abs() < 1e-12);
        // plc_ab contends only with its own duplex pair: weight = d · 2.
        assert!((m.weight(s.plc_ab) - 0.1 * 2.0).abs() < 1e-12);
    }

    #[test]
    fn catt_sums_domain_costs() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let m = LinkMetric::new(MetricKind::Catt, &s.net, &imap);
        // WiFi domain: two 15 Mbps directions + two 30 Mbps directions.
        let expected = 2.0 / 15.0 + 2.0 / 30.0;
        assert!((m.weight(s.wifi_ab) - expected).abs() < 1e-12);
    }

    #[test]
    fn hop_count_is_uniform() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let m = LinkMetric::new(MetricKind::HopCount, &s.net, &imap);
        assert_eq!(m.weight(s.plc_ab), 1.0);
        assert_eq!(m.weight(s.wifi_bc), 1.0);
    }

    #[test]
    fn dead_links_weigh_infinity() {
        let mut s = fig1_scenario();
        s.net.set_capacity(s.wifi_ab, 0.0);
        let m = LinkMetric::ett(&s.net);
        assert_eq!(m.weight(s.wifi_ab), f64::INFINITY);
    }

    #[test]
    fn refresh_link_tracks_capacity_changes() {
        let mut s = fig1_scenario();
        let mut m = LinkMetric::ett(&s.net);
        s.net.set_capacity(s.plc_ab, 20.0);
        m.refresh_link(&s.net, s.plc_ab);
        assert!((m.weight(s.plc_ab) - 0.05).abs() < 1e-12);
    }
}
