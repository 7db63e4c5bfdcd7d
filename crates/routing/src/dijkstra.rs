//! The single-path procedure (§3.1): Dijkstra with channel-switching costs
//! on the virtual graph of network interfaces.
//!
//! A path's weight is the sum of its link weights `W(l)` plus, at every
//! intermediate node `u`, a channel-switching cost: `w_s(u)` if the path
//! changes interface at `u` and `w_ns(u)` if it stays on the same interface.
//! Requiring `w_s(u) < w_ns(u)` favours technology-alternating paths, which
//! mitigates intra-path interference. To keep the metric isotone (so that
//! Dijkstra is exact), the paper chooses the node-global values
//! `w_ns(u) = min_{l∈L(u)} d_l` and `w_s(u) = 0`.
//!
//! Running Dijkstra over states `(node, ingress medium)` is exactly Dijkstra
//! on the interface graph of Yang et al. \[44\].

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use empower_model::{LinkId, Medium, Network, Path};

use crate::metrics::LinkMetric;
use crate::query::RouteQuery;

/// Maximum route length, hops. The layer-2.5 header's source-route field is
/// fixed at 12 bytes — 2 per ingress interface — so no route may exceed 6
/// hops (§6.1). The path search runs over (node, ingress medium, hops used)
/// states, which keeps it exact under the cap.
pub const MAX_ROUTE_HOPS: usize = 6;

/// Channel-switching-cost policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CscMode {
    /// The paper's choice: `w_ns(u) = min_{l∈L(u)} d_l`, `w_s(u) = 0`.
    Paper,
    /// No switching cost (used when only one medium is in play — "when
    /// using only WiFi, the CSC is set to 0", §5.1).
    Zero,
    /// Fixed custom costs (same for every node), for ablations.
    Custom { w_ns: f64, w_s: f64 },
}

impl CscMode {
    /// The cost of leaving node `u` on `egress` having arrived on `ingress`.
    fn cost(
        &self,
        net: &Network,
        query: &RouteQuery,
        u: empower_model::NodeId,
        ingress: Medium,
        egress: Medium,
    ) -> f64 {
        let switches = ingress != egress;
        match self {
            CscMode::Zero => 0.0,
            CscMode::Paper => {
                if switches {
                    0.0
                } else {
                    let w = query.min_permitted_egress_cost(net, u);
                    if w.is_finite() {
                        w
                    } else {
                        0.0
                    }
                }
            }
            CscMode::Custom { w_ns, w_s } => {
                if switches {
                    *w_s
                } else {
                    *w_ns
                }
            }
        }
    }
}

/// Result of a shortest-path computation.
#[derive(Debug, Clone)]
pub struct DijkstraOutcome {
    pub path: Path,
    /// Total weight including channel-switching costs.
    pub weight: f64,
}

/// Totally ordered f64 for the heap (weights are never NaN).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Heap entry: min-heap via reversed comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HeapEntry {
    dist: OrdF64,
    state: usize,
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other.dist.cmp(&self.dist).then_with(|| other.state.cmp(&self.state))
    }
}

/// Computes the shortest path for `query` under `metric` and `csc`.
///
/// Returns `None` when the destination is unreachable under the query's
/// restrictions.
pub fn shortest_path(
    net: &Network,
    metric: &LinkMetric,
    csc: CscMode,
    query: &RouteQuery,
) -> Option<DijkstraOutcome> {
    shortest_path_with_ingress(net, metric, csc, query, None)
}

/// Like [`shortest_path`] but starting as if the source had just been
/// reached over `ingress` — so the channel-switching cost at the source is
/// charged correctly. Used by Yen's algorithm for spur computations.
pub fn shortest_path_with_ingress(
    net: &Network,
    metric: &LinkMetric,
    csc: CscMode,
    query: &RouteQuery,
    initial_ingress: Option<Medium>,
) -> Option<DijkstraOutcome> {
    shortest_path_with_budget(net, metric, csc, query, initial_ingress, MAX_ROUTE_HOPS)
}

/// Like [`shortest_path_with_ingress`] with an explicit hop budget — Yen's
/// spur searches must run under `MAX_ROUTE_HOPS − root length` for the
/// spliced paths to enumerate in true weight order.
pub fn shortest_path_with_budget(
    net: &Network,
    metric: &LinkMetric,
    csc: CscMode,
    query: &RouteQuery,
    initial_ingress: Option<Medium>,
    max_hops: usize,
) -> Option<DijkstraOutcome> {
    let mut scratch = DijkstraScratch::new();
    shortest_path_with_scratch(net, metric, csc, query, initial_ingress, max_hops, &mut scratch)
}

/// Reusable Dijkstra working memory: the per-state distance and predecessor
/// tables plus the frontier heap. One instance amortizes the allocations
/// across the thousands of single-path searches a §3.2 exploration tree (or
/// a topology sweep) performs; results are identical to the allocating
/// entry points.
#[derive(Debug, Default)]
pub struct DijkstraScratch {
    dist: Vec<f64>,
    pred: Vec<Option<(usize, LinkId)>>,
    heap: BinaryHeap<HeapEntry>,
    /// Per-node non-switching channel cost `w_ns(u)` for [`CscMode::Paper`],
    /// precomputed once per search. `w_ns` deliberately ignores Yen's
    /// temporary bans (see [`RouteQuery::min_permitted_egress_cost`]), so it
    /// is a function of the graph and the query's medium restriction only —
    /// caching it replaces an out-degree scan per same-medium edge
    /// relaxation with an indexed load, bit-identically.
    w_ns: Vec<f64>,
}

impl DijkstraScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets for a state space of `states` entries.
    fn reset(&mut self, states: usize) {
        self.dist.clear();
        self.dist.resize(states, f64::INFINITY);
        self.pred.clear();
        self.pred.resize(states, None);
        self.heap.clear();
    }
}

/// [`shortest_path_with_budget`] running on caller-provided scratch
/// buffers (allocation-free after warm-up).
pub fn shortest_path_with_scratch(
    net: &Network,
    metric: &LinkMetric,
    csc: CscMode,
    query: &RouteQuery,
    initial_ingress: Option<Medium>,
    max_hops: usize,
    scratch: &mut DijkstraScratch,
) -> Option<DijkstraOutcome> {
    if query.src == query.dst || max_hops == 0 {
        return None;
    }
    let mediums = net.mediums();
    let k = mediums.len();
    #[expect(
        clippy::expect_used,
        reason = "`net.mediums()` enumerates the medium of every link, and the closure is only \
                  queried with link mediums"
    )]
    let medium_idx = |m: Medium| mediums.iter().position(|&x| x == m).expect("known medium");
    // State encoding: ((node * (k+1)) + (1 + ingress medium index)) *
    // (H+1) + hops, with ingress slot 0 for "no ingress yet" (the source).
    // Tracking the hop count keeps the search exact under the 6-hop header
    // cap (a cheaper 2-hop detour may enable a short completion where the
    // globally cheapest prefix would overrun the cap).
    let h = max_hops;
    let states = net.node_count() * (k + 1) * (h + 1);
    let state_of = |node: usize, ingress: Option<usize>, hops: usize| {
        (node * (k + 1) + ingress.map_or(0, |m| m + 1)) * (h + 1) + hops
    };
    scratch.reset(states);
    if csc == CscMode::Paper {
        // Same fold as `min_permitted_egress_cost`, computed once per node
        // instead of once per same-medium relaxation.
        scratch.w_ns.clear();
        scratch.w_ns.extend((0..net.node_count()).map(|n| {
            let w = query.min_permitted_egress_cost(net, empower_model::NodeId(n as u32));
            if w.is_finite() {
                w
            } else {
                0.0
            }
        }));
    }
    let DijkstraScratch { dist, pred, heap, w_ns } = scratch;

    let start = state_of(query.src.index(), initial_ingress.map(&medium_idx), 0);
    dist[start] = 0.0;
    heap.push(HeapEntry { dist: OrdF64(0.0), state: start });

    while let Some(HeapEntry { dist: OrdF64(d), state }) = heap.pop() {
        if d > dist[state] {
            continue; // stale entry
        }
        let hops = state % (h + 1);
        if hops == h {
            continue; // hop budget exhausted
        }
        let node_medium = state / (h + 1);
        let node = node_medium / (k + 1);
        let ingress = match node_medium % (k + 1) {
            0 => None,
            i => Some(mediums[i - 1]),
        };
        for link in net.out_links(empower_model::NodeId(node as u32)) {
            if !query.permits(net, link.id) {
                continue;
            }
            let w = metric.weight(link.id);
            if !w.is_finite() {
                continue;
            }
            let switch_cost = match ingress {
                // No CSC at the source.
                None => 0.0,
                // Paper mode reads the precomputed `w_ns` table (switching
                // is free, staying costs the node's best egress time).
                Some(m_in) if csc == CscMode::Paper && m_in == link.medium => w_ns[node],
                Some(m_in) => {
                    csc.cost(net, query, empower_model::NodeId(node as u32), m_in, link.medium)
                }
            };
            let next = state_of(link.to.index(), Some(medium_idx(link.medium)), hops + 1);
            let nd = d + w + switch_cost;
            if nd < dist[next] {
                dist[next] = nd;
                pred[next] = Some((state, link.id));
                heap.push(HeapEntry { dist: OrdF64(nd), state: next });
            }
        }
    }

    // Best terminal state at the destination, over all ingress mediums and
    // hop counts.
    let mut best: Option<(usize, f64)> = None;
    for m in 0..k {
        for hops in 1..=h {
            let s = state_of(query.dst.index(), Some(m), hops);
            if dist[s].is_finite() && best.is_none_or(|(_, bd)| dist[s] < bd) {
                best = Some((s, dist[s]));
            }
        }
    }
    let (mut state, weight) = best?;

    let mut links = Vec::new();
    while let Some((prev, link)) = pred[state] {
        links.push(link);
        state = prev;
    }
    links.reverse();
    // The per-interface state space cannot revisit a (node, medium) pair,
    // but it can revisit a *node* on different mediums; the paper's routes
    // are loop-free at node level, so reject such paths defensively.
    let path = Path::new(net, links).ok()?;
    Some(DijkstraOutcome { path, weight })
}

/// Total weight of a link sequence under `metric` and `csc`: `Σ W(l)` plus
/// the channel-switching cost at every interior node. The sequence need not
/// reach the query's destination (Yen's algorithm evaluates root prefixes).
pub fn path_weight(
    net: &Network,
    metric: &LinkMetric,
    csc: CscMode,
    query: &RouteQuery,
    links: &[LinkId],
) -> f64 {
    let mut total = 0.0;
    for (i, &l) in links.iter().enumerate() {
        total += metric.weight(l);
        if i > 0 {
            let prev = net.link(links[i - 1]);
            let cur = net.link(l);
            total += csc.cost(net, query, prev.to, prev.medium, cur.medium);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use empower_model::topology::{fig1_scenario, fig3_scenario};
    use empower_model::Medium;

    #[test]
    fn picks_the_hybrid_route_in_fig1() {
        // Gateway → client. Candidates: PLC+WiFi (weights 1/10 + 1/30, CSC 0
        // because of the switch) vs WiFi+WiFi (1/15 + 1/30 + w_ns(b)).
        // w_ns(extender) = min egress d = 1/30. Hybrid: 0.1333; WiFi-WiFi:
        // 0.1333... PLC first is favoured only through the CSC tie-break.
        // Weights: hybrid = 1/10 + 1/30 = 0.1333; wifi = 1/15 + 1/30 + 1/30
        // = 0.1333. Exact tie — accept either but require correctness.
        let s = fig1_scenario();
        let metric = LinkMetric::ett(&s.net);
        let out =
            shortest_path(&s.net, &metric, CscMode::Paper, &RouteQuery::new(s.gateway, s.client))
                .unwrap();
        assert_eq!(out.path.source(&s.net), s.gateway);
        assert_eq!(out.path.destination(&s.net), s.client);
        assert_eq!(out.path.hop_count(), 2);
        assert!(
            (out.weight - (0.1 + 1.0 / 30.0)).abs() < 1e-9
                || (out.weight - (1.0 / 15.0 + 1.0 / 30.0 + 1.0 / 30.0)).abs() < 1e-9
        );
    }

    #[test]
    fn csc_prefers_alternating_technologies() {
        // Raise the PLC capacity so the two routes tie on raw link weight;
        // the CSC must then break the tie toward the hybrid route.
        let mut s = fig1_scenario();
        s.net.set_capacity(s.plc_ab, 15.0);
        let rev = s.net.link(s.plc_ab).reverse.unwrap();
        s.net.set_capacity(rev, 15.0);
        let metric = LinkMetric::ett(&s.net);
        let out =
            shortest_path(&s.net, &metric, CscMode::Paper, &RouteQuery::new(s.gateway, s.client))
                .unwrap();
        let first_medium = s.net.link(out.path.links()[0]).medium;
        assert_eq!(first_medium, Medium::Plc, "CSC should favour PLC→WiFi");
    }

    #[test]
    fn zero_csc_ignores_switching() {
        let s = fig1_scenario();
        let metric = LinkMetric::ett(&s.net);
        let q = RouteQuery::new(s.gateway, s.client).with_mediums(&[Medium::WIFI1]);
        let out = shortest_path(&s.net, &metric, CscMode::Zero, &q).unwrap();
        assert_eq!(out.path.hop_count(), 2);
        assert!((out.weight - (1.0 / 15.0 + 1.0 / 30.0)).abs() < 1e-12);
    }

    #[test]
    fn unreachable_returns_none() {
        let s = fig1_scenario();
        let metric = LinkMetric::ett(&s.net);
        // Client only has WiFi; restrict to PLC.
        let q = RouteQuery::new(s.gateway, s.client).with_mediums(&[Medium::Plc]);
        assert!(shortest_path(&s.net, &metric, CscMode::Paper, &q).is_none());
    }

    #[test]
    fn same_source_destination_returns_none() {
        let s = fig1_scenario();
        let metric = LinkMetric::ett(&s.net);
        assert!(shortest_path(
            &s.net,
            &metric,
            CscMode::Paper,
            &RouteQuery::new(s.gateway, s.gateway)
        )
        .is_none());
    }

    #[test]
    fn banned_node_forces_detour_or_none() {
        let s = fig1_scenario();
        let metric = LinkMetric::ett(&s.net);
        let mut q = RouteQuery::new(s.gateway, s.client);
        q.banned_nodes.insert(s.extender);
        // Every gateway→client route passes the extender.
        assert!(shortest_path(&s.net, &metric, CscMode::Paper, &q).is_none());
    }

    #[test]
    fn fig3_shortest_path_is_route2() {
        // Route 2 (11/11 alternating) has weight 2/11 ≈ 0.1818 and zero CSC;
        // Route 1 has 1/20 + 1/10 = 0.15 (alternating, no CSC) — Route 1 is
        // actually shorter by raw weight. Direct Route 3: 1/10 = 0.1.
        // The single-path procedure should return the direct 10 Mbps link.
        let s = fig3_scenario();
        let metric = LinkMetric::ett(&s.net);
        let out =
            shortest_path(&s.net, &metric, CscMode::Paper, &RouteQuery::new(s.source, s.dest))
                .unwrap();
        assert_eq!(out.path.links(), &s.route3[..]);
    }

    #[test]
    fn custom_csc_can_penalize_switching() {
        // With a large w_s, the router avoids switching mediums.
        let s = fig1_scenario();
        let metric = LinkMetric::ett(&s.net);
        let csc = CscMode::Custom { w_ns: 0.0, w_s: 10.0 };
        let out =
            shortest_path(&s.net, &metric, csc, &RouteQuery::new(s.gateway, s.client)).unwrap();
        let mediums: Vec<Medium> = out.path.links().iter().map(|&l| s.net.link(l).medium).collect();
        assert_eq!(mediums, vec![Medium::WIFI1, Medium::WIFI1]);
    }
}
