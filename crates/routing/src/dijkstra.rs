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

use empower_model::{LinkId, Medium, Network, NodeId, Path};

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
        u: NodeId,
        ingress: Medium,
        egress: Medium,
    ) -> f64 {
        if ingress != egress {
            self.switch_cost()
        } else {
            self.stay_cost(net, query, u)
        }
    }

    /// `w_ns(u)`: the cost of leaving `u` on the medium it was entered on.
    fn stay_cost(&self, net: &Network, query: &RouteQuery, u: NodeId) -> f64 {
        match self {
            CscMode::Zero => 0.0,
            CscMode::Paper => {
                let w = query.min_permitted_egress_cost(net, u);
                if w.is_finite() {
                    w
                } else {
                    0.0
                }
            }
            CscMode::Custom { w_ns, .. } => *w_ns,
        }
    }

    /// `w_s`: the cost of leaving on another medium.
    fn switch_cost(&self) -> f64 {
        match self {
            CscMode::Custom { w_s, .. } => *w_s,
            CscMode::Paper | CscMode::Zero => 0.0,
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

/// One permitted arc of a [`SearchGraph`].
#[derive(Debug, Clone, Copy)]
struct Arc {
    link: LinkId,
    to: usize,
    /// Index of the link's medium in [`Network::mediums`].
    slot: usize,
    weight: f64,
}

/// The graph one query searches, compiled once: every node's permitted
/// arcs (alive, on an allowed medium, finite weight) in `out_adj` order,
/// and the channel-switching costs. It depends on the network, the metric,
/// the CSC mode and the query's medium restriction, and not on its source
/// or bans, so all of Yen's spur searches share the one compiled for the
/// first search.
#[derive(Debug, Default)]
struct SearchGraph {
    /// `Network::mediums().len()`.
    mediums: usize,
    /// `arcs[first[u]..first[u + 1]]` leave node `u`.
    first: Vec<usize>,
    arcs: Vec<Arc>,
    /// Cost of leaving `u` on the medium it was entered on: `w_ns(u)`.
    /// `w_ns` ignores Yen's temporary bans (see
    /// [`RouteQuery::min_permitted_egress_cost`]), so it is a function of
    /// what the graph is compiled from.
    stay: Vec<f64>,
    /// Cost of leaving on another medium: `w_s`.
    switch: f64,
    /// Smallest arc weight.
    min_weight: f64,
    /// Largest arc weight plus the largest switching cost: a bound on what
    /// one hop adds to a distance.
    max_step: f64,
    /// Every switching cost is `≥ 0`.
    costs_nonnegative: bool,
}

impl SearchGraph {
    fn compile(&mut self, net: &Network, metric: &LinkMetric, csc: CscMode, query: &RouteQuery) {
        let mediums = net.mediums();
        self.mediums = mediums.len();
        self.first.clear();
        self.arcs.clear();
        self.stay.clear();
        self.switch = csc.switch_cost();
        self.min_weight = f64::INFINITY;
        let mut max_weight = 0.0f64;
        let mut max_stay = 0.0f64;
        self.costs_nonnegative = self.switch >= 0.0;
        for u in 0..net.node_count() {
            self.first.push(self.arcs.len());
            for link in net.out_links(NodeId(u as u32)) {
                let weight = metric.weight(link.id);
                let allowed = query
                    .allowed_mediums
                    .as_ref()
                    .is_none_or(|allowed| allowed.contains(&link.medium));
                if !link.is_alive() || !allowed || !weight.is_finite() {
                    continue;
                }
                self.min_weight = self.min_weight.min(weight);
                max_weight = max_weight.max(weight);
                self.arcs.push(Arc {
                    link: link.id,
                    to: link.to.index(),
                    slot: medium_slot(mediums, link.medium),
                    weight,
                });
            }
            let stay = csc.stay_cost(net, query, NodeId(u as u32));
            self.costs_nonnegative &= stay >= 0.0;
            max_stay = max_stay.max(stay);
            self.stay.push(stay);
        }
        self.first.push(self.arcs.len());
        self.max_step = max_weight + max_stay.max(self.switch);
    }

    fn arcs(&self, u: usize) -> &[Arc] {
        &self.arcs[self.first[u]..self.first[u + 1]]
    }

    /// Whether every relaxation of a search under `max_hops` strictly
    /// increases the distance it starts from, `(d + w) + c > d`: switching
    /// costs are non-negative, and the smallest weight is at least one ulp
    /// of any distance a label can reach (fewer than `max_hops` steps of at
    /// most `max_step`, so below `2 · max_hops · max_step`). Dominance
    /// pruning and the stop at the first destination label are exact only
    /// then (DESIGN.md §8); otherwise the search runs without them, until
    /// its heap is empty.
    fn strictly_increasing(&self, max_hops: usize) -> bool {
        self.costs_nonnegative
            && self.min_weight > 0.0
            && self.min_weight * 2f64.powi(52) > 2.0 * max_hops as f64 * self.max_step
    }
}

/// Index of `medium` in `mediums` (a network's distinct mediums).
fn medium_slot(mediums: &[Medium], medium: Medium) -> usize {
    #[expect(
        clippy::expect_used,
        reason = "`Network::mediums()` lists the medium of every link, and the search only asks \
                  for link mediums and a spur's ingress, which is a link medium too"
    )]
    mediums.iter().position(|&m| m == medium).expect("known medium")
}

/// Reusable Dijkstra working memory: the compiled graph, the per-state
/// distance and predecessor tables, the frontier heap and the ban masks.
/// One instance amortizes the allocations across the thousands of
/// single-path searches a §3.2 exploration tree (or a topology sweep)
/// performs; results are identical to the allocating entry points.
#[derive(Debug, Default)]
pub struct DijkstraScratch {
    graph: SearchGraph,
    dist: Vec<f64>,
    pred: Vec<Option<(usize, LinkId)>>,
    heap: BinaryHeap<HeapEntry>,
    /// Dense masks of the running search's `banned_links` and
    /// `banned_nodes`; all `false` between searches.
    banned_link: Vec<bool>,
    banned_node: Vec<bool>,
    labels_expanded: u64,
    labels_dominated: u64,
}

impl DijkstraScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Labels whose arcs were relaxed, over every search this scratch ran.
    pub fn labels_expanded(&self) -> u64 {
        self.labels_expanded
    }

    /// Labels skipped because a fewer-hop label at the same node and
    /// ingress medium had settled strictly cheaper, over every search.
    pub fn labels_dominated(&self) -> u64 {
        self.labels_dominated
    }

    /// Compiles the graph later [`DijkstraScratch::search`] calls run on.
    pub(crate) fn compile(
        &mut self,
        net: &Network,
        metric: &LinkMetric,
        csc: CscMode,
        query: &RouteQuery,
    ) {
        self.graph.compile(net, metric, csc, query);
    }

    /// One search of the compiled graph for `query`'s source, destination
    /// and bans (its medium restriction must be the compiled one's).
    pub(crate) fn search(
        &mut self,
        net: &Network,
        query: &RouteQuery,
        initial_ingress: Option<Medium>,
        max_hops: usize,
    ) -> Option<DijkstraOutcome> {
        if query.src == query.dst || max_hops == 0 {
            return None;
        }
        self.banned_link.resize(net.link_count(), false);
        self.banned_node.resize(net.node_count(), false);
        self.set_bans(query, true);
        let out = self.run(net, query, initial_ingress, max_hops);
        self.set_bans(query, false);
        out
    }

    fn set_bans(&mut self, query: &RouteQuery, banned: bool) {
        for l in &query.banned_links {
            if let Some(b) = self.banned_link.get_mut(l.index()) {
                *b = banned;
            }
        }
        for n in &query.banned_nodes {
            if let Some(b) = self.banned_node.get_mut(n.index()) {
                *b = banned;
            }
        }
    }

    fn run(
        &mut self,
        net: &Network,
        query: &RouteQuery,
        initial_ingress: Option<Medium>,
        max_hops: usize,
    ) -> Option<DijkstraOutcome> {
        let k = self.graph.mediums;
        // State encoding: ((node * (k+1)) + (1 + ingress medium index)) *
        // (H+1) + hops, with ingress slot 0 for "no ingress yet" (the
        // source). Tracking the hop count keeps the search exact under the
        // 6-hop header cap (a cheaper 2-hop detour may enable a short
        // completion where the globally cheapest prefix would overrun the
        // cap). The heap breaks distance ties on this index, so the
        // encoding is part of the result.
        let h = max_hops;
        let state_of =
            |node: usize, slot: usize, hops: usize| (node * (k + 1) + slot) * (h + 1) + hops;
        let states = net.node_count() * (k + 1) * (h + 1);
        let prune = self.graph.strictly_increasing(h);
        let DijkstraScratch {
            graph,
            dist,
            pred,
            heap,
            banned_link,
            banned_node,
            labels_expanded,
            labels_dominated,
        } = self;
        dist.clear();
        dist.resize(states, f64::INFINITY);
        pred.clear();
        pred.resize(states, None);
        heap.clear();

        let start_slot = initial_ingress.map_or(0, |m| medium_slot(net.mediums(), m) + 1);
        let start = state_of(query.src.index(), start_slot, 0);
        dist[start] = 0.0;
        heap.push(HeapEntry { dist: OrdF64(0.0), state: start });

        while let Some(HeapEntry { dist: OrdF64(d), state }) = heap.pop() {
            if d > dist[state] {
                continue; // stale entry
            }
            let node_slot = state / (h + 1);
            // Under strictly increasing relaxations the first destination
            // label settled holds the least distance any terminal can reach,
            // and every terminal at that distance already holds it and its
            // final predecessor, so the scan below picks what an exhaustive
            // search would (DESIGN.md §8, step 5).
            if prune && node_slot / (k + 1) == query.dst.index() {
                break;
            }
            let hops = state % (h + 1);
            if hops == h {
                continue; // hop budget exhausted
            }
            // Dominance: the same node and ingress medium already settled
            // at fewer hops for strictly less. That label's extensions
            // reach the same states one or more hops earlier for no more,
            // so this one's cannot be on the returned path (DESIGN.md §8).
            // Under strictly increasing relaxations every label cheaper
            // than `d` has settled, so its distance is final.
            if prune && dist[node_slot * (h + 1)..state].iter().any(|&e| e < d) {
                *labels_dominated += 1;
                continue;
            }
            *labels_expanded += 1;
            let node = node_slot / (k + 1);
            let ingress = node_slot % (k + 1);
            let stay = graph.stay[node];
            for arc in graph.arcs(node) {
                if banned_link[arc.link.index()] || banned_node[arc.to] {
                    continue;
                }
                let switch_cost = match ingress {
                    0 => 0.0, // no CSC at the source
                    i if i == arc.slot + 1 => stay,
                    _ => graph.switch,
                };
                let next = state_of(arc.to, arc.slot + 1, hops + 1);
                let nd = d + arc.weight + switch_cost;
                if nd < dist[next] {
                    dist[next] = nd;
                    pred[next] = Some((state, arc.link));
                    heap.push(HeapEntry { dist: OrdF64(nd), state: next });
                }
            }
        }

        // Best terminal state at the destination, over all ingress mediums
        // and hop counts.
        let mut best: Option<(usize, f64)> = None;
        for slot in 1..=k {
            for hops in 1..=h {
                let s = state_of(query.dst.index(), slot, hops);
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
        // The state space can revisit a node (on another medium, or at
        // another hop count); the paper's routes are loop-free at node
        // level, so reject such paths.
        let path = Path::new(net, links).ok()?;
        Some(DijkstraOutcome { path, weight })
    }
}

/// [`shortest_path_with_budget`] running on caller-provided scratch
/// buffers (allocation-free after warm-up). Compiles the query's graph on
/// every call; Yen's algorithm compiles once for all its searches.
pub fn shortest_path_with_scratch(
    net: &Network,
    metric: &LinkMetric,
    csc: CscMode,
    query: &RouteQuery,
    initial_ingress: Option<Medium>,
    max_hops: usize,
    scratch: &mut DijkstraScratch,
) -> Option<DijkstraOutcome> {
    scratch.compile(net, metric, csc, query);
    scratch.search(net, query, initial_ingress, max_hops)
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

    #[test]
    fn dominance_is_off_unless_every_relaxation_strictly_increases() {
        let mut s = fig1_scenario();
        let q = RouteQuery::new(s.gateway, s.client);
        let on = |net: &Network, csc: CscMode| {
            let mut graph = SearchGraph::default();
            graph.compile(net, &LinkMetric::ett(net), csc, &q);
            graph.strictly_increasing(MAX_ROUTE_HOPS)
        };
        assert!(on(&s.net, CscMode::Paper));
        // A negative switching cost can lower a distance.
        assert!(!on(&s.net, CscMode::Custom { w_ns: -0.01, w_s: 0.0 }));
        // Weights 16 decimal orders apart: d + w can round back to d.
        s.net.set_capacity(s.plc_ab, 1e-8);
        s.net.set_capacity(s.wifi_bc, 1e8);
        assert!(!on(&s.net, CscMode::Paper));
    }
}
