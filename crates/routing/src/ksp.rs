//! `n-shortest(G)`: the n shortest loopless paths (Yen's algorithm) under
//! the single-path metric of §3.1.
//!
//! The multipath procedure of §3.2 explores combinations built from these
//! paths; the paper uses `n = 5`, "which enables route diversity while
//! limiting the number of possible combinations to be explored".

use std::collections::BTreeSet;

use empower_model::{LinkId, Network, Path};

use crate::dijkstra::{path_weight, CscMode, DijkstraOutcome, DijkstraScratch, MAX_ROUTE_HOPS};
use crate::metrics::LinkMetric;
use crate::query::RouteQuery;

/// Reusable working memory for [`k_shortest_paths_into`]: the Dijkstra
/// scratch (with the graph compiled once per call), the candidate pool,
/// the duplicate-suppression set, and the lexicographic index over
/// accepted paths that powers the prefix-range spur-ban lookup. One
/// workspace amortizes all allocations across the many KSP invocations an
/// exploration tree performs.
#[derive(Debug, Default)]
pub struct KspWorkspace {
    pub(crate) dijkstra: DijkstraScratch,
    candidates: Vec<DijkstraOutcome>,
    seen: BTreeSet<Vec<u32>>,
    /// Indices into the accepted list, sorted lexicographically by link
    /// sequence. Accepted paths sharing a root prefix form a contiguous
    /// range here, so the per-spur ban scan narrows a `[lo, hi)` window
    /// instead of re-scanning every accepted path at every spur index.
    order: Vec<usize>,
}

impl KspWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Computes up to `k` shortest loopless paths for `query`, cheapest first.
///
/// Ties are broken deterministically (by weight, then by link sequence), so
/// results are stable across runs.
pub fn k_shortest_paths(
    net: &Network,
    metric: &LinkMetric,
    csc: CscMode,
    query: &RouteQuery,
    k: usize,
) -> Vec<DijkstraOutcome> {
    let mut ws = KspWorkspace::new();
    let mut out = Vec::new();
    k_shortest_paths_into(net, metric, csc, query, k, &mut ws, &mut out);
    out
}

/// [`k_shortest_paths`] writing into `out` and running on caller-provided
/// working memory. The accepted sequence is identical to the allocating
/// entry point.
pub fn k_shortest_paths_into(
    net: &Network,
    metric: &LinkMetric,
    csc: CscMode,
    query: &RouteQuery,
    k: usize,
    ws: &mut KspWorkspace,
    out: &mut Vec<DijkstraOutcome>,
) {
    out.clear();
    ws.candidates.clear();
    ws.seen.clear();
    ws.order.clear();
    if k == 0 {
        return;
    }
    // Spur searches change only the source, the ingress and the bans, so
    // they all run on the graph compiled here.
    ws.dijkstra.compile(net, metric, csc, query);
    let Some(first) = ws.dijkstra.search(net, query, None, MAX_ROUTE_HOPS) else {
        return;
    };
    ws.seen.insert(first.path.links().iter().map(|l| l.0).collect());
    push_ordered(out, &mut ws.order, first);

    // One spur query per accepted path: the banned sets are edited in place
    // (tracked inserts, removed before the next spur index) instead of
    // cloning the query's BTreeSets for every spur.
    let mut spur_query = query.clone();
    let mut added_nodes: Vec<empower_model::NodeId> = Vec::new();
    let mut added_links: Vec<LinkId> = Vec::new();

    while out.len() < k {
        // `out` starts with the first shortest path and only grows.
        let Some(last_idx) = out.len().checked_sub(1) else { break };
        let prev_links: Vec<LinkId> = out[last_idx].path.links().to_vec();
        let prev_nodes = out[last_idx].path.nodes(net);

        // Accepted paths sharing the (empty) root prefix: all of them.
        let mut lo = 0usize;
        let mut hi = ws.order.len();
        debug_assert!(added_nodes.is_empty());

        for spur_idx in 0..prev_links.len() {
            let spur_node = prev_nodes[spur_idx];
            let root_links = &prev_links[..spur_idx];

            spur_query.src = spur_node;
            // Ban the next link of every *accepted* path sharing this root,
            // so the spur leg must deviate here. (Banning pending
            // candidates' links too would over-constrain the search and
            // break the weight ordering — duplicates are handled by the
            // `seen` set instead.) `order[lo..hi]` is exactly the accepted
            // paths whose first `spur_idx` links equal `root_links`; within
            // it, equal next-links are contiguous, so the distinct bans fall
            // out of a single sorted sweep.
            debug_assert!(ws.order[lo..hi]
                .iter()
                .all(|&i| out[i].path.links().starts_with(root_links)));
            for &i in &ws.order[lo..hi] {
                let known = out[i].path.links();
                if let Some(&next) = known.get(spur_idx) {
                    if spur_query.banned_links.insert(next) {
                        added_links.push(next);
                    }
                }
            }
            // Ban the root's interior nodes to keep the total path loopless;
            // the set grows by exactly one node per spur index.
            if spur_idx > 0 && spur_query.banned_nodes.insert(prev_nodes[spur_idx - 1]) {
                added_nodes.push(prev_nodes[spur_idx - 1]);
            }

            let ingress = (spur_idx > 0).then(|| net.link(root_links[spur_idx - 1]).medium);
            // The spliced path must respect the header's 6-hop cap, so the
            // spur leg's budget shrinks by the root's length.
            let budget = MAX_ROUTE_HOPS - spur_idx;
            let spur = ws.dijkstra.search(net, &spur_query, ingress, budget);
            for l in added_links.drain(..) {
                spur_query.banned_links.remove(&l);
            }

            // Narrow the prefix window for the next spur index: keep only
            // the accepted paths whose link at `spur_idx` matches `prev`'s.
            let target = prev_links[spur_idx];
            lo += ws.order[lo..hi]
                .partition_point(|&i| out[i].path.links().get(spur_idx) < Some(&target));
            hi = lo
                + ws.order[lo..hi]
                    .partition_point(|&i| out[i].path.links().get(spur_idx) <= Some(&target));

            let Some(spur) = spur else {
                continue;
            };
            let mut links = root_links.to_vec();
            links.extend_from_slice(spur.path.links());
            let key: Vec<u32> = links.iter().map(|l| l.0).collect();
            if !ws.seen.insert(key) {
                continue;
            }
            let Ok(path) = Path::new(net, links) else {
                continue;
            };
            debug_assert!(path.hop_count() <= MAX_ROUTE_HOPS, "budgeted spur overran the cap");
            let weight = path_weight(net, metric, csc, query, path.links());
            ws.candidates.push(DijkstraOutcome { path, weight });
        }
        // Reset the banned-node set for the next accepted path.
        for node in added_nodes.drain(..) {
            spur_query.banned_nodes.remove(&node);
        }

        if ws.candidates.is_empty() {
            break;
        }
        // Extract the cheapest candidate (stable tie-break on links); the
        // emptiness check above makes the `min_by` always succeed.
        let Some(best_idx) = ws
            .candidates
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.weight.total_cmp(&b.weight).then_with(|| a.path.links().cmp(b.path.links()))
            })
            .map(|(i, _)| i)
        else {
            break;
        };
        let best = ws.candidates.swap_remove(best_idx);
        push_ordered(out, &mut ws.order, best);
    }
    ws.candidates.clear();
    ws.seen.clear();
    ws.order.clear();
}

/// Appends `outcome` to `out` and inserts its index into `order`, keeping
/// `order` sorted lexicographically by link sequence.
fn push_ordered(out: &mut Vec<DijkstraOutcome>, order: &mut Vec<usize>, outcome: DijkstraOutcome) {
    let idx = out.len();
    let pos = order.partition_point(|&i| out[i].path.links() < outcome.path.links());
    out.push(outcome);
    order.insert(pos, idx);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::shortest_path;
    use empower_model::topology::{fig1_scenario, fig3_scenario};
    use empower_model::Medium;

    #[test]
    fn finds_both_fig1_routes() {
        let s = fig1_scenario();
        let metric = LinkMetric::ett(&s.net);
        let q = RouteQuery::new(s.gateway, s.client);
        let paths = k_shortest_paths(&s.net, &metric, CscMode::Paper, &q, 5);
        assert_eq!(paths.len(), 2, "exactly two loopless gateway→client paths");
        let mediums: Vec<Vec<Medium>> = paths
            .iter()
            .map(|o| o.path.links().iter().map(|&l| s.net.link(l).medium).collect())
            .collect();
        assert!(mediums.contains(&vec![Medium::Plc, Medium::WIFI1]));
        assert!(mediums.contains(&vec![Medium::WIFI1, Medium::WIFI1]));
    }

    #[test]
    fn weights_are_nondecreasing() {
        let s = fig3_scenario();
        let metric = LinkMetric::ett(&s.net);
        let q = RouteQuery::new(s.source, s.dest);
        let paths = k_shortest_paths(&s.net, &metric, CscMode::Paper, &q, 10);
        assert!(paths.len() >= 3);
        for w in paths.windows(2) {
            assert!(w[0].weight <= w[1].weight + 1e-12);
        }
    }

    #[test]
    fn finds_all_three_fig3_routes() {
        let s = fig3_scenario();
        let metric = LinkMetric::ett(&s.net);
        let q = RouteQuery::new(s.source, s.dest);
        let paths = k_shortest_paths(&s.net, &metric, CscMode::Paper, &q, 10);
        let link_sets: Vec<&[empower_model::LinkId]> =
            paths.iter().map(|o| o.path.links()).collect();
        assert!(link_sets.contains(&&s.route1[..]));
        assert!(link_sets.contains(&&s.route2[..]));
        assert!(link_sets.contains(&&s.route3[..]));
    }

    #[test]
    fn paths_are_unique_and_loopless() {
        let s = fig3_scenario();
        let metric = LinkMetric::ett(&s.net);
        let q = RouteQuery::new(s.source, s.dest);
        let paths = k_shortest_paths(&s.net, &metric, CscMode::Paper, &q, 10);
        let mut seen = std::collections::BTreeSet::new();
        for o in &paths {
            assert!(seen.insert(o.path.links().to_vec()), "duplicate path");
            // Node-loopless by Path construction.
            let nodes = o.path.nodes(&s.net);
            let mut uniq = nodes.clone();
            uniq.sort();
            uniq.dedup();
            assert_eq!(uniq.len(), nodes.len());
        }
    }

    #[test]
    fn k_one_equals_shortest_path() {
        let s = fig1_scenario();
        let metric = LinkMetric::ett(&s.net);
        let q = RouteQuery::new(s.gateway, s.client);
        let single = shortest_path(&s.net, &metric, CscMode::Paper, &q).unwrap();
        let paths = k_shortest_paths(&s.net, &metric, CscMode::Paper, &q, 1);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].path.links(), single.path.links());
    }

    #[test]
    fn no_paths_when_disconnected() {
        let s = fig1_scenario();
        let metric = LinkMetric::ett(&s.net);
        let q = RouteQuery::new(s.gateway, s.client).with_mediums(&[Medium::Plc]);
        assert!(k_shortest_paths(&s.net, &metric, CscMode::Paper, &q, 5).is_empty());
    }

    #[test]
    fn medium_restriction_propagates_to_spurs() {
        let s = fig3_scenario();
        let metric = LinkMetric::ett(&s.net);
        let q = RouteQuery::new(s.source, s.dest).with_mediums(&[Medium::WIFI1]);
        let paths = k_shortest_paths(&s.net, &metric, CscMode::Paper, &q, 10);
        for o in &paths {
            for &l in o.path.links() {
                assert_eq!(s.net.link(l).medium, Medium::WIFI1);
            }
        }
    }

    #[test]
    fn workspace_reuse_matches_fresh_runs() {
        // The same workspace serving two different queries must reproduce
        // the fresh-workspace output of each, in order, bit for bit.
        let s = fig3_scenario();
        let metric = LinkMetric::ett(&s.net);
        let q1 = RouteQuery::new(s.source, s.dest);
        let q2 = RouteQuery::new(s.dest, s.source);
        let mut ws = KspWorkspace::new();
        let mut got = Vec::new();
        for q in [&q1, &q2, &q1] {
            k_shortest_paths_into(&s.net, &metric, CscMode::Paper, q, 10, &mut ws, &mut got);
            let fresh = k_shortest_paths(&s.net, &metric, CscMode::Paper, q, 10);
            assert_eq!(got.len(), fresh.len());
            for (a, b) in got.iter().zip(&fresh) {
                assert_eq!(a.path.links(), b.path.links());
                assert_eq!(a.weight.to_bits(), b.weight.to_bits());
            }
        }
    }
}
