//! Fluid CSMA saturation model.
//!
//! Schemes without congestion control (MP-w/o-CC, SP-w/o-CC) inject traffic
//! open-loop; when the offered load exceeds what an interference domain can
//! carry, queues overflow and *upstream hops keep burning airtime on packets
//! that die downstream* — the congestion collapse of multihop paths the
//! paper cites (\[11, 33\]). This module computes the resulting end-to-end
//! goodput as the fixed point of a per-domain processor-sharing model:
//!
//! * every hop's arrival is the previous hop's *served* traffic;
//! * a link's demanded airtime is `arrival · d_l`;
//! * a domain serving more than 100 % demand scales every member link by
//!   `1 / demand` (CSMA with perfect sensing shares airtime, not rate).
//!
//! Damped fixed-point iteration converges in tens of rounds on local-network
//! topologies; the result is exact for feasible loads (no scaling happens)
//! and a standard approximation under overload.

use empower_model::{InterferenceMap, LinkId, Network, Path};

/// Outcome of a saturation computation.
#[derive(Debug, Clone)]
pub struct FluidOutcome {
    /// End-to-end delivered rate per route, Mbps.
    pub delivered: Vec<f64>,
    /// Per-link arrival rates at the fixed point, Mbps.
    pub link_arrivals: Vec<f64>,
    /// Worst domain airtime demand at the fixed point.
    pub max_domain_airtime: f64,
}

/// Computes delivered goodput when route `i` is offered `offered[i]` Mbps at
/// its ingress.
pub fn saturation_goodput(
    net: &Network,
    imap: &InterferenceMap,
    routes: &[Path],
    offered: &[f64],
) -> FluidOutcome {
    assert_eq!(routes.len(), offered.len());
    let l_count = net.link_count();
    let costs: Vec<f64> = net.links().iter().map(|l| l.cost()).collect();
    // Only route links carry traffic, and a link's demand sums the domain
    // of every carrier it belongs to (domains are symmetric), so the links
    // a round must visit are the carriers' domains: `touched`.
    let mut carriers: Vec<LinkId> = routes.iter().flat_map(|p| p.links().iter().copied()).collect();
    carriers.sort_unstable();
    carriers.dedup();
    let mut words = Vec::new();
    imap.union_domains_into(&carriers, &mut words);
    let touched: Vec<usize> = InterferenceMap::iter_links(&words).map(|l| l.index()).collect();
    // Service scaling per link, starts optimistic.
    let mut scale = vec![1.0_f64; l_count];
    let mut arrivals = vec![0.0_f64; l_count];
    let mut delivered = vec![0.0_f64; routes.len()];
    let mut demand = vec![0.0_f64; l_count];

    for _round in 0..300 {
        // Propagate offered traffic hop by hop under the current scaling.
        for &c in &carriers {
            arrivals[c.index()] = 0.0;
        }
        for (r, path) in routes.iter().enumerate() {
            let mut rate = offered[r];
            for &l in path.links() {
                arrivals[l.index()] += rate;
                rate *= scale[l.index()];
            }
            delivered[r] = rate;
        }
        // Domain demands, scattered from the carriers in ascending id
        // order: each link receives its nonzero terms in the order a sum
        // over its own (sorted) domain would add them, and the terms that
        // sum would add besides are `+0.0` (DESIGN.md §8).
        for &l in &touched {
            demand[l] = 0.0;
        }
        for &c in &carriers {
            let (a, cost) = (arrivals[c.index()], costs[c.index()]);
            let term = if cost.is_finite() {
                a * cost
            } else if a > 0.0 {
                f64::INFINITY
            } else {
                0.0
            };
            for &l in imap.domain(c) {
                demand[l.index()] += term;
            }
        }
        // New scalings, damped for stability. An untouched link's demand is
        // zero, so its scale stays exactly 1 and it moves nothing.
        let mut moved = 0.0_f64;
        for &l in &touched {
            let target = if demand[l] > 1.0 { 1.0 / demand[l] } else { 1.0 };
            let next = 0.5 * scale[l] + 0.5 * target;
            moved = moved.max((next - scale[l]).abs());
            scale[l] = next;
        }
        if moved < 1e-10 {
            break;
        }
    }
    let max_domain_airtime = (0..l_count)
        .map(|l| {
            imap.domain(LinkId(l as u32))
                .iter()
                .map(|&i| {
                    let c = costs[i.index()];
                    if c.is_finite() {
                        arrivals[i.index()] * c * scale[i.index()]
                    } else {
                        0.0
                    }
                })
                .sum::<f64>()
        })
        .fold(0.0, f64::max);
    FluidOutcome { delivered, link_arrivals: arrivals, max_domain_airtime }
}

#[cfg(test)]
mod tests {
    use super::*;
    use empower_model::topology::fig1_scenario;
    use empower_model::{InterferenceModel, SharedMedium};

    #[test]
    fn feasible_load_is_delivered_intact() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let route1 = Path::new(&s.net, vec![s.plc_ab, s.wifi_bc]).unwrap();
        let route2 = Path::new(&s.net, vec![s.wifi_ab, s.wifi_bc]).unwrap();
        let out = saturation_goodput(&s.net, &imap, &[route1, route2], &[10.0, 6.0]);
        assert!((out.delivered[0] - 10.0).abs() < 1e-6);
        assert!((out.delivered[1] - 6.0).abs() < 1e-6);
        assert!(out.max_domain_airtime <= 1.0 + 1e-6);
    }

    #[test]
    fn overload_collapses_goodput_below_capacity() {
        // Drive the WiFi-WiFi route at 30 Mbps (capacity 10): the first hop
        // burns airtime on traffic the second hop must drop, so goodput
        // lands *below* the 10 Mbps the path could carry if paced.
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let route2 = Path::new(&s.net, vec![s.wifi_ab, s.wifi_bc]).unwrap();
        let out = saturation_goodput(&s.net, &imap, &[route2], &[30.0]);
        assert!(out.delivered[0] < 10.0, "delivered {}", out.delivered[0]);
        assert!(out.delivered[0] > 2.0, "not a total blackout: {}", out.delivered[0]);
    }

    #[test]
    fn single_hop_overload_saturates_at_capacity() {
        // A single-hop route wastes nothing: offered 50 on a 10 Mbps PLC
        // link delivers ~10.
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let plc = Path::new(&s.net, vec![s.plc_ab]).unwrap();
        let out = saturation_goodput(&s.net, &imap, &[plc], &[50.0]);
        assert!((out.delivered[0] - 10.0).abs() < 0.2, "delivered {}", out.delivered[0]);
    }

    #[test]
    fn contending_overloaded_routes_share_airtime() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let wifi_ab = Path::new(&s.net, vec![s.wifi_ab]).unwrap();
        let wifi_bc = Path::new(&s.net, vec![s.wifi_bc]).unwrap();
        let out = saturation_goodput(&s.net, &imap, &[wifi_ab, wifi_bc], &[100.0, 100.0]);
        // Demand D = 100/15 + 100/30 = 10 → each link serves arrival/D:
        // 10 and 10 Mbps (equal-throughput Lemma 1 point, Rmax = 10).
        assert!((out.delivered[0] - 10.0).abs() < 0.2, "{:?}", out.delivered);
        assert!((out.delivered[1] - 10.0).abs() < 0.2, "{:?}", out.delivered);
    }

    #[test]
    fn zero_offered_is_zero_delivered() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let plc = Path::new(&s.net, vec![s.plc_ab]).unwrap();
        let out = saturation_goodput(&s.net, &imap, &[plc], &[0.0]);
        assert_eq!(out.delivered[0], 0.0);
        assert_eq!(out.max_domain_airtime, 0.0);
    }

    #[test]
    fn paced_beats_saturated_on_multihop() {
        // The whole point of congestion control (Table 1): offered exactly
        // at capacity delivers more than wild over-injection.
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let route2 = Path::new(&s.net, vec![s.wifi_ab, s.wifi_bc]).unwrap();
        let paced =
            saturation_goodput(&s.net, &imap, std::slice::from_ref(&route2), &[10.0]).delivered[0];
        let wild = saturation_goodput(&s.net, &imap, &[route2], &[100.0]).delivered[0];
        assert!(paced > wild, "paced {paced} vs wild {wild}");
    }
}
