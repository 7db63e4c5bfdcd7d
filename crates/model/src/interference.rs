//! Interference domains `I_l` (§2).
//!
//! `I_l` contains `l` itself plus every link that cannot transmit at the same
//! time as `l`. The EMPoWER algorithms never look deeper than this set: both
//! the multipath route computation (§3.2) and the congestion-control
//! constraint (2) are expressed over `I_l`.
//!
//! Two models are provided:
//!
//! * [`CarrierSense`] — the default used for randomized topologies: two links
//!   of the same shared medium interfere when any endpoint of one is within
//!   carrier-sensing range of any endpoint of the other (for WiFi), while PLC
//!   links interfere whenever they hang off the same electrical panel (the
//!   IEEE 1901 central coordinator forms one collision domain).
//! * [`SharedMedium`] — every pair of same-medium links interferes. This is
//!   the model of the worked examples (Fig. 3: "all links using the same
//!   medium interfere") and a good approximation for dense single-room
//!   deployments.

use crate::graph::Network;
use crate::ids::{LinkId, PanelId};
use crate::link::Link;
use crate::medium::Medium;

/// Decides whether two links interfere.
pub trait InterferenceModel {
    /// True if `a` and `b` cannot transmit simultaneously. Must be symmetric
    /// and reflexive for shared-medium links (`interferes(l, l)` is true
    /// because a link cannot transmit two frames at once).
    fn interferes(&self, net: &Network, a: &Link, b: &Link) -> bool;

    /// Precomputes all interference domains for `net`.
    fn build_map(&self, net: &Network) -> InterferenceMap
    where
        Self: Sized,
    {
        InterferenceMap::build(net, self)
    }
}

/// Range-based carrier sensing for WiFi + per-panel collision domains for PLC.
#[derive(Debug, Clone)]
pub struct CarrierSense {
    /// Carrier-sensing range for WiFi, metres. Two same-channel WiFi links
    /// interfere iff some endpoint of one is within this distance of some
    /// endpoint of the other. The paper's testbed-derived connection radius
    /// is 35 m; sensing typically reaches at least as far.
    pub wifi_sense_range_m: f64,
}

impl Default for CarrierSense {
    fn default() -> Self {
        // Carrier sensing reaches well beyond the communication range
        // (energy detection works at SNRs far below decodability): the
        // default is 2× the §5.1 WiFi connection radius. This also matches
        // the paper's "perfect sensing" MAC — on the 65×40 m testbed floor
        // every WiFi link then shares one collision domain, and the
        // per-(node, technology) price aggregation of §4.2 is exact.
        CarrierSense { wifi_sense_range_m: 70.0 }
    }
}

impl InterferenceModel for CarrierSense {
    fn interferes(&self, net: &Network, a: &Link, b: &Link) -> bool {
        if !a.medium.may_interfere_with(b.medium) {
            return false;
        }
        if a.id == b.id {
            return true;
        }
        if a.medium.is_plc() {
            // One collision domain per electrical panel. Links only exist
            // within a panel, so compare the panels of the transmitters.
            let pa = net.node(a.from).panel;
            let pb = net.node(b.from).panel;
            return pa.is_some() && pa == pb;
        }
        // WiFi same channel: endpoint-to-endpoint proximity.
        let ends_a = [a.from, a.to];
        let ends_b = [b.from, b.to];
        ends_a.iter().any(|&u| {
            ends_b.iter().any(|&v| u == v || net.node_distance(u, v) <= self.wifi_sense_range_m)
        })
    }

    /// The map [`InterferenceMap::build`] gives, from candidate pairs only.
    /// Links of different mediums, different PLC panels, PLC links without
    /// a panel and Ethernet links never interfere, so each (medium, panel)
    /// group is tested on its own: PLC groups pairwise, WiFi groups by a
    /// sweep along x that stops once the next link's smallest x is beyond
    /// this link's largest x plus the sensing range and `SWEEP_SLACK`
    /// (DESIGN.md §3, "Carrier-sense map by sweep", has why that stop is
    /// exact). Every candidate pair still goes through
    /// [`CarrierSense::interferes`].
    fn build_map(&self, net: &Network) -> InterferenceMap {
        let range = self.wifi_sense_range_m;
        // The exactness argument needs `range²` to be a normal number.
        if !(1e-100..=1e100).contains(&range) {
            return InterferenceMap::build(net, self);
        }
        let mut cands: Vec<Candidate> = net
            .links()
            .iter()
            .filter_map(|l| {
                let group = match l.medium {
                    Medium::Plc => (l.medium, Some(net.node(l.from).panel?)),
                    m if m.is_shared() => (m, None),
                    _ => return None,
                };
                let (lo, hi) = match (net.node(l.from).pos.x, net.node(l.to).pos.x) {
                    // A NaN coordinate could be anywhere: never stop early.
                    (xa, xb) if xa.is_nan() || xb.is_nan() => (f64::NEG_INFINITY, f64::INFINITY),
                    (xa, xb) => (xa.min(xb), xa.max(xb)),
                };
                Some(Candidate { group, lo, hi, link: l })
            })
            .collect();
        cands.sort_unstable_by(|a, b| a.group.cmp(&b.group).then(a.lo.total_cmp(&b.lo)));
        let mut rel = Relation::new(net.link_count());
        for group in cands.chunk_by(|a, b| a.group == b.group) {
            let sweep = group[0].group.0.is_wifi();
            for (i, a) in group.iter().enumerate() {
                let limit = a.hi + range + SWEEP_SLACK * (a.hi.abs() + range);
                for b in &group[i + 1..] {
                    if sweep && b.lo > limit {
                        break;
                    }
                    if self.interferes(net, a.link, b.link) {
                        rel.set(a.link.id, b.link.id);
                    }
                }
            }
        }
        rel.into_map()
    }
}

/// The relative slack of the carrier-sense sweep's stop: 16 machine
/// epsilons of `|hi| + range`, which covers the rounding of the stop's own
/// sum and of `Point::distance` with room to spare. Without it, a pair
/// whose exact gap is a hair above the range, but whose distance computes
/// to exactly the range, would be cut off though it interferes.
const SWEEP_SLACK: f64 = 16.0 * f64::EPSILON;

/// A shared-medium link as the carrier-sense sweep sees it: its group
/// (medium, and the transmitter's panel for PLC) and its x extent.
struct Candidate<'a> {
    group: (Medium, Option<PanelId>),
    lo: f64,
    hi: f64,
    link: &'a Link,
}

/// Every pair of links on the same shared medium interferes (single collision
/// domain per medium).
#[derive(Debug, Clone, Default)]
pub struct SharedMedium;

impl InterferenceModel for SharedMedium {
    fn interferes(&self, _net: &Network, a: &Link, b: &Link) -> bool {
        a.medium.may_interfere_with(b.medium) || a.id == b.id
    }
}

/// Bits per packed incidence word.
const WORD_BITS: usize = 64;

/// Precomputed interference domains: `domains[l]` is `I_l`, sorted by id and
/// always containing `l` itself.
///
/// Besides the sorted id lists, the map keeps a packed bit-matrix of the
/// interference relation (`stride` words per link), so membership tests
/// (`interferes`), per-path incidence masks and domain unions are bitwise
/// instead of per-link scans — these are the inner loops of `update(P, G)`
/// and of the §3.2 exploration tree.
#[derive(Debug, Clone)]
pub struct InterferenceMap {
    domains: Vec<Vec<LinkId>>,
    /// Row-major packed incidence matrix: bit `b` of row `l` (words
    /// `[l·stride, (l+1)·stride)`) is set iff links `l` and `b` interfere.
    words: Vec<u64>,
    /// Words per row: `⌈link_count / 64⌉`.
    stride: usize,
}

/// The interference relation under construction, as the map's packed
/// rows: reflexive from the start (even for Ethernet), symmetric by
/// [`Relation::set`].
struct Relation {
    words: Vec<u64>,
    stride: usize,
}

impl Relation {
    fn new(link_count: usize) -> Self {
        let stride = link_count.div_ceil(WORD_BITS);
        let mut rel = Relation { words: vec![0; link_count * stride], stride };
        for l in 0..link_count {
            rel.set_bit(l, l);
        }
        rel
    }

    fn set_bit(&mut self, row: usize, col: usize) {
        self.words[row * self.stride + col / WORD_BITS] |= 1u64 << (col % WORD_BITS);
    }

    /// Records that `a` and `b` interfere.
    fn set(&mut self, a: LinkId, b: LinkId) {
        self.set_bit(a.index(), b.index());
        self.set_bit(b.index(), a.index());
    }

    /// The map, each domain read off its row in ascending id order.
    fn into_map(self) -> InterferenceMap {
        let Relation { words, stride } = self;
        let domains = words
            .chunks_exact(stride.max(1))
            .map(|row| {
                let mut d = Vec::with_capacity(row.iter().map(|w| w.count_ones() as usize).sum());
                d.extend(InterferenceMap::iter_links(row));
                d
            })
            .collect();
        InterferenceMap { domains, words, stride }
    }
}

impl InterferenceMap {
    /// Builds the map by evaluating `model` on every link pair: O(L²).
    /// [`CarrierSense`] overrides [`InterferenceModel::build_map`] with a
    /// build that tests only candidate pairs; this one stays the
    /// reference it is tested against.
    pub fn build<M: InterferenceModel + ?Sized>(net: &Network, model: &M) -> Self {
        let links = net.links();
        let mut rel = Relation::new(links.len());
        for a in links {
            for b in links.iter().skip(a.id.index() + 1) {
                if model.interferes(net, a, b) {
                    debug_assert!(
                        model.interferes(net, b, a),
                        "interference model must be symmetric"
                    );
                    rel.set(a.id, b.id);
                }
            }
        }
        rel.into_map()
    }

    /// The interference domain `I_l` of `link` (sorted, contains `link`).
    pub fn domain(&self, link: LinkId) -> &[LinkId] {
        &self.domains[link.index()]
    }

    /// The packed bitset row of `I_l`: bit `b` set iff link `b ∈ I_l`.
    pub fn domain_words(&self, link: LinkId) -> &[u64] {
        &self.words[link.index() * self.stride..(link.index() + 1) * self.stride]
    }

    /// Number of links covered by the map.
    pub fn link_count(&self) -> usize {
        self.domains.len()
    }

    /// True if `a` and `b` interfere. O(1): one bit test.
    #[inline]
    pub fn interferes(&self, a: LinkId, b: LinkId) -> bool {
        debug_assert!(b.index() < self.domains.len());
        self.words[a.index() * self.stride + b.index() / WORD_BITS] >> (b.index() % WORD_BITS) & 1
            != 0
    }

    /// Iterates over `I_l ∩ P` for a path given as a slice of link ids —
    /// the set that Lemma 1 and `R(l, P)` sum over.
    pub fn domain_intersect<'a>(
        &'a self,
        link: LinkId,
        path: &'a [LinkId],
    ) -> impl Iterator<Item = LinkId> + 'a {
        path.iter().copied().filter(move |&p| self.interferes(link, p))
    }

    /// Bitmask over *path positions*: bit `j` is set iff `path[j] ∈ I_l`.
    /// The mask drives [`crate::Path::residual_idle_fraction_masked`];
    /// positions beyond 64 hops are unsupported (the routing header caps
    /// routes at 6 hops, see `MAX_ROUTE_HOPS` in `empower-routing`).
    #[inline]
    pub fn incidence_mask(&self, link: LinkId, path: &[LinkId]) -> u64 {
        debug_assert!(path.len() <= WORD_BITS, "paths longer than 64 hops are unsupported");
        let mut mask = 0u64;
        for (j, &p) in path.iter().enumerate() {
            mask |= (self.interferes(link, p) as u64) << j;
        }
        mask
    }

    /// Writes `⋃_{l∈links} I_l` into `out` as a packed bitset (`stride`
    /// words). Reuses `out`'s allocation; iterate it with
    /// [`InterferenceMap::iter_links`] to visit the union in ascending id
    /// order — the same order a sorted set of the union would produce.
    pub fn union_domains_into(&self, links: &[LinkId], out: &mut Vec<u64>) {
        out.clear();
        out.resize(self.stride, 0);
        for &l in links {
            for (o, w) in out.iter_mut().zip(self.domain_words(l)) {
                *o |= w;
            }
        }
    }

    /// Iterates the link ids whose bits are set in a packed word slice, in
    /// ascending id order.
    pub fn iter_links(words: &[u64]) -> impl Iterator<Item = LinkId> + '_ {
        words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                Some(LinkId((wi * WORD_BITS) as u32 + bit))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use crate::graph::NetworkBuilder;
    use crate::ids::{NodeId, PanelId};
    use crate::medium::Medium;

    /// Four nodes in a line, 30 m apart: a(0) b(30) c(60) d(90).
    /// WiFi links a-b, b-c, c-d (all channel 1); PLC a-b (panel 0) and
    /// c-d (panel 1).
    fn line_net() -> (Network, Vec<LinkId>) {
        let mut b = NetworkBuilder::new();
        let mediums = vec![Medium::WIFI1, Medium::Plc];
        let n: Vec<NodeId> = (0..4)
            .map(|i| {
                b.add_node(
                    Point::new(30.0 * i as f64, 0.0),
                    mediums.clone(),
                    Some(PanelId(if i < 2 { 0 } else { 1 })),
                )
            })
            .collect();
        let (w_ab, _) = b.add_duplex(n[0], n[1], Medium::WIFI1, 30.0);
        let (w_bc, _) = b.add_duplex(n[1], n[2], Medium::WIFI1, 30.0);
        let (w_cd, _) = b.add_duplex(n[2], n[3], Medium::WIFI1, 30.0);
        let (p_ab, _) = b.add_duplex(n[0], n[1], Medium::Plc, 10.0);
        let (p_cd, _) = b.add_duplex(n[2], n[3], Medium::Plc, 10.0);
        (b.build(), vec![w_ab, w_bc, w_cd, p_ab, p_cd])
    }

    #[test]
    fn carrier_sense_adjacent_wifi_links_interfere() {
        let (net, ids) = line_net();
        let map = CarrierSense::default().build_map(&net);
        // a-b and b-c share node b.
        assert!(map.interferes(ids[0], ids[1]));
        // b-c and c-d share node c.
        assert!(map.interferes(ids[1], ids[2]));
    }

    #[test]
    fn carrier_sense_far_wifi_links_do_not_interfere() {
        let (net, ids) = line_net();
        // a-b endpoints at 0 and 30; c-d endpoints at 60 and 90: min distance
        // 30 m ≤ 35 m default, so they DO interfere by default...
        let map = CarrierSense::default().build_map(&net);
        assert!(map.interferes(ids[0], ids[2]));
        // ...but not with a tighter 25 m sensing range.
        let map = CarrierSense { wifi_sense_range_m: 25.0 }.build_map(&net);
        assert!(!map.interferes(ids[0], ids[2]));
    }

    #[test]
    fn plc_domains_are_per_panel() {
        let (net, ids) = line_net();
        let map = CarrierSense::default().build_map(&net);
        // PLC a-b (panel 0) vs PLC c-d (panel 1): no interference.
        assert!(!map.interferes(ids[3], ids[4]));
        // A PLC link always interferes with its own reverse (same panel).
        let rev = net.link(ids[3]).reverse.unwrap();
        assert!(map.interferes(ids[3], rev));
    }

    #[test]
    fn plc_never_interferes_with_wifi() {
        let (net, ids) = line_net();
        let map = CarrierSense::default().build_map(&net);
        assert!(!map.interferes(ids[0], ids[3])); // same node pair, different medium
    }

    #[test]
    fn domains_contain_self() {
        let (net, _) = line_net();
        let map = CarrierSense::default().build_map(&net);
        for l in net.links() {
            assert!(map.domain(l.id).contains(&l.id), "{} not in its own I_l", l.id);
        }
    }

    #[test]
    fn shared_medium_merges_everything_per_medium() {
        let (net, ids) = line_net();
        let map = SharedMedium.build_map(&net);
        assert!(map.interferes(ids[0], ids[2])); // distant WiFi links
        assert!(map.interferes(ids[3], ids[4])); // cross-panel PLC
        assert!(!map.interferes(ids[0], ids[3])); // cross-medium, never
    }

    #[test]
    fn domain_intersect_filters_path_links() {
        let (net, ids) = line_net();
        let map = CarrierSense::default().build_map(&net);
        // Path = WiFi a-b, WiFi b-c, PLC c-d(panel1).
        let path = vec![ids[0], ids[1], ids[4]];
        let inter: Vec<LinkId> = map.domain_intersect(ids[0], &path).collect();
        assert_eq!(inter, vec![ids[0], ids[1]]);
        let inter: Vec<LinkId> = map.domain_intersect(ids[4], &path).collect();
        assert_eq!(inter, vec![ids[4]]);
        let _ = net;
    }

    #[test]
    fn domains_are_sorted() {
        let (net, _) = line_net();
        let map = SharedMedium.build_map(&net);
        for l in net.links() {
            let d = map.domain(l.id);
            assert!(d.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn bitset_rows_agree_with_domain_lists() {
        let (net, _) = line_net();
        for map in [CarrierSense::default().build_map(&net), SharedMedium.build_map(&net)] {
            for a in net.links() {
                let from_bits: Vec<LinkId> =
                    InterferenceMap::iter_links(map.domain_words(a.id)).collect();
                assert_eq!(from_bits, map.domain(a.id), "row {} disagrees", a.id);
                for b in net.links() {
                    assert_eq!(
                        map.interferes(a.id, b.id),
                        map.domain(a.id).binary_search(&b.id).is_ok()
                    );
                }
            }
        }
    }

    #[test]
    fn union_domains_matches_sorted_set_union() {
        let (net, ids) = line_net();
        let map = CarrierSense::default().build_map(&net);
        let path = vec![ids[0], ids[4]];
        let mut words = Vec::new();
        map.union_domains_into(&path, &mut words);
        let got: Vec<LinkId> = InterferenceMap::iter_links(&words).collect();
        let mut want: Vec<LinkId> =
            path.iter().flat_map(|&l| map.domain(l).iter().copied()).collect();
        want.sort_unstable();
        want.dedup();
        assert_eq!(got, want);
        // Reuse keeps the buffer correct.
        map.union_domains_into(&[ids[1]], &mut words);
        let got: Vec<LinkId> = InterferenceMap::iter_links(&words).collect();
        assert_eq!(got, map.domain(ids[1]));
    }

    #[test]
    fn incidence_mask_mirrors_domain_intersect() {
        let (net, ids) = line_net();
        let map = CarrierSense::default().build_map(&net);
        let path = vec![ids[0], ids[1], ids[4]];
        for l in net.links() {
            let mask = map.incidence_mask(l.id, &path);
            let from_mask: Vec<LinkId> =
                (0..path.len()).filter(|&j| mask >> j & 1 != 0).map(|j| path[j]).collect();
            let from_scan: Vec<LinkId> = map.domain_intersect(l.id, &path).collect();
            assert_eq!(from_mask, from_scan, "link {}", l.id);
        }
    }
}
