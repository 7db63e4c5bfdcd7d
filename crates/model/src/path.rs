//! Routes (paths) through the multigraph, and the per-path rate computations
//! of §3.2.
//!
//! For a path `P` and a link `l ∈ P`, the maximum traffic rate supported by
//! `l` is `R(l, P) = (Σ_{l'∈ I_l ∩ P} d_{l'})⁻¹` (Lemma 1 applied to the
//! links of the path that contend with `l`), and the end-to-end capacity of
//! the path is `R(P) = min_{l∈P} R(l, P)`. When traffic flows on `P` at rate
//! `R(P)`, a link `l` (of the whole network, not only of `P`) keeps the idle
//! fraction `r(l, P) = 1 − Σ_{l'∈ I_l ∩ P} R(P)·d_{l'}`.

use crate::graph::Network;
use crate::ids::{LinkId, NodeId};
use crate::interference::InterferenceMap;

/// A loop-free route: an ordered sequence of directed links where each link
/// starts at the previous link's head.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    links: Vec<LinkId>,
}

/// Errors returned by [`Path::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathError {
    /// The path has no links.
    Empty,
    /// Two consecutive links do not share the intermediate node.
    Disconnected { at_hop: usize },
    /// The path visits a node twice.
    Loop { node: NodeId },
}

impl std::fmt::Display for PathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PathError::Empty => write!(f, "path has no links"),
            PathError::Disconnected { at_hop } => {
                write!(f, "links at hops {} and {} do not connect", at_hop, at_hop + 1)
            }
            PathError::Loop { node } => write!(f, "path visits node {node} twice"),
        }
    }
}

impl std::error::Error for PathError {}

/// Precomputed self-interference incidence of one path (see
/// [`Path::incidence`]): `masks[i]` has bit `j` set iff hop `j` belongs to
/// the interference domain of hop `i`. Valid only for the path (and the
/// interference map) it was computed from; capacities may change freely —
/// interference is geometric and capacity-independent.
#[derive(Debug, Clone, Default)]
pub struct PathIncidence {
    masks: Vec<u64>,
}

impl PathIncidence {
    /// The per-hop incidence masks.
    pub fn masks(&self) -> &[u64] {
        &self.masks
    }
}

impl Path {
    /// Builds a validated path from a sequence of link ids.
    pub fn new(net: &Network, links: Vec<LinkId>) -> Result<Self, PathError> {
        if links.is_empty() {
            return Err(PathError::Empty);
        }
        let mut visited = vec![net.link(links[0]).from];
        for (hop, pair) in links.windows(2).enumerate() {
            let (a, b) = (net.link(pair[0]), net.link(pair[1]));
            if a.to != b.from {
                return Err(PathError::Disconnected { at_hop: hop });
            }
        }
        for &l in &links {
            let node = net.link(l).to;
            if visited.contains(&node) {
                return Err(PathError::Loop { node });
            }
            visited.push(node);
        }
        Ok(Path { links })
    }

    /// Builds a path without validation (for internal use where the sequence
    /// is constructed correct by construction, e.g. Dijkstra back-tracking).
    pub fn from_links_unchecked(links: Vec<LinkId>) -> Self {
        debug_assert!(!links.is_empty());
        Path { links }
    }

    /// The links of the path, in order.
    pub fn links(&self) -> &[LinkId] {
        &self.links
    }

    /// Number of hops.
    pub fn hop_count(&self) -> usize {
        self.links.len()
    }

    /// The source node.
    pub fn source(&self, net: &Network) -> NodeId {
        net.link(self.links[0]).from
    }

    /// The destination node.
    #[expect(
        clippy::expect_used,
        reason = "`Path::new` rejects empty link lists (`PathError::Empty`), so `links` is \
                  always non-empty"
    )]
    pub fn destination(&self, net: &Network) -> NodeId {
        net.link(*self.links.last().expect("paths are non-empty")).to
    }

    /// The ordered list of nodes visited, source first.
    pub fn nodes(&self, net: &Network) -> Vec<NodeId> {
        let mut nodes = Vec::with_capacity(self.links.len() + 1);
        nodes.push(self.source(net));
        nodes.extend(self.links.iter().map(|&l| net.link(l).to));
        nodes
    }

    /// True if the path traverses `link`.
    pub fn uses_link(&self, link: LinkId) -> bool {
        self.links.contains(&link)
    }

    /// `R(l, P)`: the maximum rate on `P` supported by `l`, i.e.
    /// `(Σ_{l'∈I_l∩P} d_{l'})⁻¹`. Zero if any contending path link is dead.
    pub fn rate_limit_at(&self, net: &Network, imap: &InterferenceMap, link: LinkId) -> f64 {
        let mut sum = 0.0;
        for l in imap.domain_intersect(link, &self.links) {
            let cost = net.link(l).cost();
            if !cost.is_finite() {
                return 0.0;
            }
            sum += cost;
        }
        if sum <= 0.0 {
            0.0
        } else {
            1.0 / sum
        }
    }

    /// `R(P) = min_{l∈P} R(l, P)`: the end-to-end capacity of the path under
    /// intra-path interference.
    pub fn capacity(&self, net: &Network, imap: &InterferenceMap) -> f64 {
        self.links
            .iter()
            .map(|&l| self.rate_limit_at(net, imap, l))
            .fold(f64::INFINITY, f64::min)
            .min(f64::MAX)
    }

    /// The bottleneck link `l₀ = argmin_{l∈P} R(l, P)`.
    ///
    /// Rate limits come from capacities and idle fractions, both finite
    /// and non-negative, so NaN cannot occur; `total_cmp` keeps the
    /// ordering total (and panic-free) regardless.
    #[expect(
        clippy::expect_used,
        reason = "`Path::new` rejects empty link lists (`PathError::Empty`), so `links` is \
                  always non-empty"
    )]
    pub fn bottleneck(&self, net: &Network, imap: &InterferenceMap) -> LinkId {
        *self
            .links
            .iter()
            .min_by(|&&a, &&b| {
                self.rate_limit_at(net, imap, a).total_cmp(&self.rate_limit_at(net, imap, b))
            })
            .expect("paths are non-empty")
    }

    /// `r(l, P) = 1 − Σ_{l'∈I_l∩P} R(P)·d_{l'}`: the idle-time fraction left
    /// on an arbitrary network link `l` when `P` carries rate `rate`
    /// (normally `R(P)`). Clamped to `[0, 1]`.
    pub fn residual_idle_fraction(
        &self,
        net: &Network,
        imap: &InterferenceMap,
        link: LinkId,
        rate: f64,
    ) -> f64 {
        self.residual_idle_fraction_masked(net, imap.incidence_mask(link, &self.links), rate)
    }

    /// [`Path::residual_idle_fraction`] with the `I_l ∩ P` membership
    /// precomputed as a bitmask over path positions (bit `j` ⇔ `links[j] ∈
    /// I_l`, see [`InterferenceMap::incidence_mask`]) — the bitwise airtime
    /// accounting `update(P, G)` runs per affected link. Evaluation order is
    /// path order, so results are bit-identical to the scanning form.
    pub fn residual_idle_fraction_masked(&self, net: &Network, mask: u64, rate: f64) -> f64 {
        let mut used = 0.0;
        let mut rest = mask;
        while rest != 0 {
            let j = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let cost = net.link(self.links[j]).cost();
            if cost.is_finite() {
                used += rate * cost;
            } else {
                return 0.0;
            }
        }
        (1.0 - used).clamp(0.0, 1.0)
    }

    /// Precomputes this path's *self*-incidence — for every hop `i` the
    /// bitmask of hops `j` with `links[j] ∈ I_{links[i]}` — so repeated
    /// capacity evaluations ([`Path::capacity_with`]) are pure bit-loops
    /// with no interference-map queries.
    pub fn incidence(&self, imap: &InterferenceMap) -> PathIncidence {
        PathIncidence {
            masks: self.links.iter().map(|&l| imap.incidence_mask(l, &self.links)).collect(),
        }
    }

    /// `R(P)` evaluated from a precomputed [`PathIncidence`]; bit-identical
    /// to [`Path::capacity`] (same per-hop summation order).
    pub fn capacity_with(&self, net: &Network, inc: &PathIncidence) -> f64 {
        debug_assert_eq!(inc.masks.len(), self.links.len(), "incidence from another path");
        inc.masks
            .iter()
            .map(|&mask| {
                let mut sum = 0.0;
                let mut rest = mask;
                while rest != 0 {
                    let j = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    let cost = net.link(self.links[j]).cost();
                    if !cost.is_finite() {
                        return 0.0;
                    }
                    sum += cost;
                }
                if sum <= 0.0 {
                    0.0
                } else {
                    1.0 / sum
                }
            })
            .fold(f64::INFINITY, f64::min)
            .min(f64::MAX)
    }

    /// Sum of link costs `Σ d_l` — the raw (CSC-free) path weight.
    pub fn cost(&self, net: &Network) -> f64 {
        self.links.iter().map(|&l| net.link(l).cost()).sum()
    }

    /// Human-readable rendering, e.g. `n0 -wifi1-> n1 -plc-> n2`.
    pub fn render(&self, net: &Network) -> String {
        let mut s = self.source(net).to_string();
        for &l in &self.links {
            let link = net.link(l);
            s.push_str(&format!(" -{}-> {}", link.medium, link.to));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use crate::graph::NetworkBuilder;
    use crate::interference::{InterferenceModel, SharedMedium};
    use crate::medium::Medium;

    /// The Figure 1 scenario: gateway a, extender b, client c.
    /// PLC a-b 10 Mbps, WiFi a-b 15 Mbps, WiFi b-c 30 Mbps.
    fn fig1() -> (Network, Vec<LinkId>) {
        let mut b = NetworkBuilder::new();
        let hybrid = vec![Medium::WIFI1, Medium::Plc];
        let a = b.add_node(Point::new(0.0, 0.0), hybrid.clone(), Some(crate::ids::PanelId(0)));
        let ext = b.add_node(Point::new(10.0, 0.0), hybrid, Some(crate::ids::PanelId(0)));
        let c = b.add_node(Point::new(20.0, 0.0), vec![Medium::WIFI1], None);
        let (plc_ab, _) = b.add_duplex(a, ext, Medium::Plc, 10.0);
        let (wifi_ab, _) = b.add_duplex(a, ext, Medium::WIFI1, 15.0);
        let (wifi_bc, _) = b.add_duplex(ext, c, Medium::WIFI1, 30.0);
        (b.build(), vec![plc_ab, wifi_ab, wifi_bc])
    }

    #[test]
    fn path_validation_rejects_disconnected() {
        let (net, ids) = fig1();
        // plc a->b then wifi a->b: second link starts at a, not b.
        let err = Path::new(&net, vec![ids[0], ids[1]]).unwrap_err();
        assert_eq!(err, PathError::Disconnected { at_hop: 0 });
    }

    #[test]
    fn path_validation_rejects_loops() {
        let (net, ids) = fig1();
        let rev = net.link(ids[1]).reverse.unwrap();
        // plc a->b then wifi b->a revisits a.
        let err = Path::new(&net, vec![ids[0], rev]).unwrap_err();
        assert!(matches!(err, PathError::Loop { .. }));
    }

    #[test]
    fn path_validation_rejects_empty() {
        let (net, _) = fig1();
        assert_eq!(Path::new(&net, vec![]).unwrap_err(), PathError::Empty);
    }

    #[test]
    fn hybrid_route_capacity_is_bottleneck_capacity() {
        // Route 1 of Fig. 1: PLC a->b then WiFi b->c. No intra-path
        // interference, so R = min(10, 30) = 10 Mbps.
        let (net, ids) = fig1();
        let imap = SharedMedium.build_map(&net);
        let p = Path::new(&net, vec![ids[0], ids[2]]).unwrap();
        assert!((p.capacity(&net, &imap) - 10.0).abs() < 1e-9);
        assert_eq!(p.bottleneck(&net, &imap), ids[0]);
    }

    #[test]
    fn self_interfering_route_shares_airtime() {
        // Route 2 of Fig. 1: WiFi a->b (15) then WiFi b->c (30), same
        // channel: R = 1 / (1/15 + 1/30) = 10 Mbps.
        let (net, ids) = fig1();
        let imap = SharedMedium.build_map(&net);
        let p = Path::new(&net, vec![ids[1], ids[2]]).unwrap();
        assert!((p.capacity(&net, &imap) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn fig1_back_of_envelope_residuals() {
        // After Route 1 (PLC a->b + WiFi b->c) is loaded at 10 Mbps, the WiFi
        // medium keeps 1 − 10/30 = 2/3 idle time on both WiFi links; solving
        // x(1/15 + 1/30) = 2/3 gives the paper's x ≈ 6.6 Mbps on Route 2.
        let (net, ids) = fig1();
        let imap = SharedMedium.build_map(&net);
        let route1 = Path::new(&net, vec![ids[0], ids[2]]).unwrap();
        let r = route1.residual_idle_fraction(&net, &imap, ids[1], 10.0);
        assert!((r - 2.0 / 3.0).abs() < 1e-9);
        let x = r / (1.0 / 15.0 + 1.0 / 30.0);
        assert!((x - 20.0 / 3.0).abs() < 1e-9); // 6.67 Mbps
    }

    #[test]
    fn residual_is_zero_at_bottleneck() {
        let (net, ids) = fig1();
        let imap = SharedMedium.build_map(&net);
        let p = Path::new(&net, vec![ids[1], ids[2]]).unwrap();
        let rate = p.capacity(&net, &imap);
        // Both links of a 2-link single-domain path are bottlenecked jointly.
        let r1 = p.residual_idle_fraction(&net, &imap, ids[1], rate);
        assert!(r1.abs() < 1e-9);
    }

    #[test]
    fn nodes_and_render() {
        let (net, ids) = fig1();
        let p = Path::new(&net, vec![ids[0], ids[2]]).unwrap();
        let nodes = p.nodes(&net);
        assert_eq!(nodes.len(), 3);
        assert_eq!(p.render(&net), "n0 -plc-> n1 -wifi1-> n2");
        assert_eq!(p.source(&net), nodes[0]);
        assert_eq!(p.destination(&net), nodes[2]);
    }

    #[test]
    fn dead_link_kills_capacity() {
        let (mut net, ids) = fig1();
        let imap = SharedMedium.build_map(&net);
        let p = Path::new(&net, vec![ids[0], ids[2]]).unwrap();
        net.set_capacity(ids[2], 0.0);
        assert_eq!(p.capacity(&net, &imap), 0.0);
    }

    #[test]
    fn capacity_with_incidence_is_bit_identical() {
        let (mut net, ids) = fig1();
        let imap = SharedMedium.build_map(&net);
        for links in [vec![ids[0], ids[2]], vec![ids[1], ids[2]]] {
            let p = Path::new(&net, links).unwrap();
            let inc = p.incidence(&imap);
            assert_eq!(p.capacity_with(&net, &inc).to_bits(), p.capacity(&net, &imap).to_bits());
            // Incidence survives capacity changes (interference is
            // geometric), including a dead link on the path.
            net.set_capacity(ids[2], 17.0);
            assert_eq!(p.capacity_with(&net, &inc).to_bits(), p.capacity(&net, &imap).to_bits());
            net.set_capacity(ids[2], 0.0);
            assert_eq!(p.capacity_with(&net, &inc), 0.0);
            net.set_capacity(ids[2], 30.0);
        }
    }

    #[test]
    fn masked_residual_matches_scanning_residual() {
        let (net, ids) = fig1();
        let imap = SharedMedium.build_map(&net);
        let p = Path::new(&net, vec![ids[0], ids[2]]).unwrap();
        let rate = p.capacity(&net, &imap);
        for l in net.links() {
            let mask = imap.incidence_mask(l.id, p.links());
            assert_eq!(
                p.residual_idle_fraction_masked(&net, mask, rate).to_bits(),
                p.residual_idle_fraction(&net, &imap, l.id, rate).to_bits()
            );
        }
    }
}
