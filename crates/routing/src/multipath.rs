//! The multipath procedure (§3.2): exploration tree over `update(P, G)`.
//!
//! The tree's root is the initial multigraph `G₀`. From every vertex `G`,
//! the `j ≤ n` non-empty paths returned by `n-shortest(G)` become edges,
//! each leading to `update(Pᵢ, G)`. A root-to-leaf edge set `B(G_L)` is a
//! combination of paths usable simultaneously, with total capacity
//! `Σ_{P∈B(G_L)} R(P)` (each `R(P)` evaluated in the multigraph it was
//! selected in). The procedure returns the best leaf's combination.
//!
//! Termination: `update` zeroes at least the bottleneck link of the chosen
//! path, so each tree level strictly reduces the set of alive links. With
//! shared mediums many links die at once, which is why the paper observes a
//! tree depth of 1–3 in practice; a configurable `max_depth` guards against
//! pathological inputs.
//!
//! ## Incremental exploration engine
//!
//! The [`Explorer`] walks the tree without cloning the multigraph per
//! candidate: `update(P, G)` records its capacity writes on an [`UndoLog`]
//! and is reverted when the DFS backtracks, the ETT metric is refreshed
//! per-changed-link instead of rebuilt per node, and Yen/Dijkstra run on a
//! reusable [`KspWorkspace`]. An admissible branch-and-bound bound prunes
//! subtrees that cannot beat the incumbent (see
//! `remaining_total_bound`); the result is bit-identical to the retained
//! exhaustive reference ([`best_combination_reference`]) because pruned
//! subtrees contain no strict improvement and every incumbent's chain is
//! recorded in per-depth slots as the recursion returns through its
//! ancestors (one path clone per improvement, never one per tree edge).

use std::mem;

use empower_model::{InterferenceMap, Link, LinkId, Network, Path};

use crate::dijkstra::{CscMode, DijkstraOutcome};
use crate::ksp::{k_shortest_paths, k_shortest_paths_into, KspWorkspace};
use crate::metrics::LinkMetric;
use crate::query::RouteQuery;
use crate::update::{update_multigraph, update_multigraph_logged, UndoLog, UpdateScratch};

/// Parameters of the multipath route computation.
#[derive(Debug, Clone)]
pub struct MultipathConfig {
    /// `n` of `n-shortest(G)`; the paper uses 5.
    pub n_shortest: usize,
    /// Hard cap on tree depth (i.e. on the number of combined routes).
    pub max_depth: usize,
    /// Channel-switching-cost policy for the underlying single-path steps.
    pub csc: CscMode,
    /// Ignore additional routes whose marginal rate is below this threshold
    /// (Mbps); keeps numerically-dead branches out of the combination.
    pub min_route_rate: f64,
}

impl Default for MultipathConfig {
    fn default() -> Self {
        MultipathConfig { n_shortest: 5, max_depth: 16, csc: CscMode::Paper, min_route_rate: 1e-6 }
    }
}

/// One selected route with its nominal rate `R(P)` (the rate `update`
/// assumed; the congestion controller refines actual rates online).
#[derive(Debug, Clone)]
pub struct RouteAllocation {
    pub path: Path,
    /// `R(P)` evaluated in the multigraph the path was selected in, Mbps.
    pub nominal_rate: f64,
}

/// The combination of routes returned by the multipath procedure.
#[derive(Debug, Clone, Default)]
pub struct RouteSet {
    pub routes: Vec<RouteAllocation>,
}

impl RouteSet {
    /// Total nominal capacity `C_B = Σ R(P)`.
    pub fn total_rate(&self) -> f64 {
        self.routes.iter().map(|r| r.nominal_rate).sum()
    }

    /// Number of routes (the paper's desirable data-dependent path count).
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True when no route was found (disconnected pair).
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// The paths, dropping rate annotations.
    pub fn paths(&self) -> Vec<Path> {
        self.routes.iter().map(|r| r.path.clone()).collect()
    }

    /// Longest route length in hops (drives the §6.1 step-size heuristic).
    pub fn max_hops(&self) -> usize {
        self.routes.iter().map(|r| r.path.hop_count()).max().unwrap_or(0)
    }
}

/// Deterministic work counters of an exploration-tree search. All counts
/// are cumulative across the [`Explorer`]'s lifetime and are byte-for-byte
/// reproducible for a given workload — they power the perf-regression gate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Tree nodes on which `n-shortest(G)` was actually run.
    pub nodes_expanded: u64,
    /// Total Yen invocations (equals `nodes_expanded` for the incremental
    /// engine; kept separate so implementations that re-run Yen outside
    /// node expansion stay comparable).
    pub ksp_invocations: u64,
    /// Subtrees skipped by the branch-and-bound test.
    pub subtrees_pruned: u64,
    /// Times the incumbent (best combination so far) improved.
    pub incumbent_updates: u64,
    /// Bytes of `Network` clones the undo-log overlay avoided (one clone
    /// per explored candidate under the cloning implementation).
    pub clone_bytes_avoided: u64,
    /// Dijkstra labels `(node, ingress medium, hops)` whose arcs were
    /// relaxed, summed over every single-path search.
    pub labels_expanded: u64,
    /// Labels skipped because a fewer-hop label at the same node and
    /// ingress medium had settled strictly cheaper (DESIGN.md §8).
    pub labels_dominated: u64,
}

/// Relative slack applied to the branch-and-bound bound before pruning, so
/// float rounding in `R(P)` (a double reciprocal round-trip can exceed the
/// exact capacity by a few ulps) and in the `total + remaining · bound`
/// accumulation can never prune a subtree holding a strictly better
/// combination. The true relative error is ~2⁻⁵², orders of magnitude
/// below this slack.
const BOUND_SLACK: f64 = 1e-9;

/// Estimated size of one `Network` clone: the link and node arrays plus the
/// two per-link adjacency indices.
fn clone_cost_bytes(net: &Network) -> u64 {
    (net.links().len() * (mem::size_of::<Link>() + 2 * mem::size_of::<LinkId>())
        + net.node_count() * mem::size_of::<empower_model::Node>()) as u64
}

/// An admissible upper bound on the total rate any descendant combination
/// can still add below a tree node with multigraph `net` and
/// `remaining_depth` levels to go. Two bounds, both admissible, combined by
/// `min`:
///
/// * **Per-route × depth** — every future route starts on a permitted alive
///   egress link of `src` and ends on a permitted alive ingress link of
///   `dst`, and `R(P) ≤ c_l` for every `l ∈ P` (the rate is the reciprocal
///   of a sum that includes `d_l`), so each future route adds at most
///   `min(max egress c_l, max ingress c_l)` — and there are at most
///   `remaining_depth` of them.
/// * **Capacity budget** — `update(P, G)` reduces the first (and last) hop
///   of `P` by at least `R(P)`: its residual factor is
///   `1 − R·Σd ≤ 1 − R·d_l`, so `c_l` drops by at least `c_l·R·d_l = R`.
///   Capacities never increase down the tree, hence the future routes'
///   rates sum to at most `Σ` permitted alive egress capacities of `src`
///   (and symmetrically for `dst` ingress).
///
/// Both arguments are monotone under `update`'s capacity decreases, so the
/// bound computed at a node holds for all its descendants.
fn remaining_total_bound(net: &Network, query: &RouteQuery, remaining_depth: usize) -> f64 {
    let mut max_out = 0.0f64;
    let mut sum_out = 0.0f64;
    for l in net.out_links(query.src) {
        if query.permits(net, l.id) {
            max_out = max_out.max(l.capacity_mbps);
            sum_out += l.capacity_mbps;
        }
    }
    let mut max_in = 0.0f64;
    let mut sum_in = 0.0f64;
    for l in net.in_links(query.dst) {
        if query.permits(net, l.id) {
            max_in = max_in.max(l.capacity_mbps);
            sum_in += l.capacity_mbps;
        }
    }
    (remaining_depth as f64 * max_out.min(max_in)).min(sum_out.min(sum_in))
}

/// Reusable incremental exploration engine for the §3.2 tree.
///
/// One `Explorer` amortizes every allocation a search needs (Dijkstra/Yen
/// scratch, per-depth candidate buffers, the undo log) across queries; the
/// answer of [`Explorer::best_combination`] is bit-identical to
/// [`best_combination_reference`] on any input.
#[derive(Debug, Default)]
pub struct Explorer {
    ksp: KspWorkspace,
    undo: UndoLog,
    /// The metric weight of every link the undo log holds, pushed in log
    /// order before its refresh and popped back on revert.
    saved_weights: Vec<f64>,
    scratch: UpdateScratch,
    /// Per-depth candidate buffers (recycled between sibling subtrees).
    levels: Vec<Vec<DijkstraOutcome>>,
    /// Incumbent chain slots: `best_chain[d]` is the route chosen at tree
    /// level `d` on the incumbent's DFS path. A frame writes its slot only
    /// when its subtree improved the incumbent (signalled by `explore`'s
    /// return value), so the chain is cloned once per improvement instead of
    /// once per tree edge, and no search step is ever replayed.
    best_chain: Vec<Option<RouteAllocation>>,
    /// Chain length of the incumbent (depth of the improving node).
    best_len: usize,
    stats: SearchStats,
}

impl Explorer {
    /// A fresh engine; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cumulative work counters since construction.
    pub fn stats(&self) -> SearchStats {
        SearchStats {
            labels_expanded: self.ksp.dijkstra.labels_expanded(),
            labels_dominated: self.ksp.dijkstra.labels_dominated(),
            ..self.stats
        }
    }

    /// Runs the exploration tree for `query` and returns the best
    /// combination — bit-identical to [`best_combination_reference`].
    pub fn best_combination(
        &mut self,
        net: &Network,
        imap: &InterferenceMap,
        query: &RouteQuery,
        config: &MultipathConfig,
    ) -> RouteSet {
        self.undo.clear();
        self.saved_weights.clear();
        self.best_len = 0;
        // The single clone of the whole search; every candidate edge is an
        // apply/revert on this one working copy.
        let mut g = net.clone();
        let mut metric = LinkMetric::ett(&g);
        let mut best_total = 0.0;
        self.explore(&mut g, &mut metric, imap, query, config, 0, 0.0, &mut best_total);
        debug_assert!(self.undo.is_empty(), "search must fully revert its updates");
        // Assemble the incumbent from the chain slots its ancestors wrote.
        // Slots past `best_len` are stale leftovers of abandoned incumbents;
        // slots below it are always filled (every improvement's ancestors
        // write theirs as the recursion returns through them).
        let routes: Vec<RouteAllocation> =
            self.best_chain[..self.best_len].iter_mut().filter_map(|slot| slot.take()).collect();
        debug_assert_eq!(routes.len(), self.best_len, "incumbent slot unfilled");
        RouteSet { routes }
    }

    /// Expands one tree node. Returns whether this subtree improved the
    /// incumbent — the parent uses that signal to write its chain slot, so
    /// by the time the search finishes, `best_chain[..best_len]` holds
    /// exactly the final incumbent's DFS path (a later improvement's
    /// ancestors always overwrite any stale slot on their way back up).
    #[allow(
        clippy::too_many_arguments,
        reason = "the recursion threads the search state explicitly instead of through a struct"
    )]
    fn explore(
        &mut self,
        g: &mut Network,
        metric: &mut LinkMetric,
        imap: &InterferenceMap,
        query: &RouteQuery,
        config: &MultipathConfig,
        depth: usize,
        total: f64,
        best_total: &mut f64,
    ) -> bool {
        // `total` is the left-fold sum of the chain's rates — the same
        // float the reference computes by summing its chain.
        let mut improved = false;
        if total > *best_total {
            *best_total = total;
            self.best_len = depth;
            self.stats.incumbent_updates += 1;
            improved = true;
        }
        if depth >= config.max_depth {
            return improved;
        }
        // Branch-and-bound: no descendant of this node can exceed
        // `total + remaining_total_bound`. Pruning on equality is safe —
        // the incumbent only updates on a strict improvement, so a subtree
        // that can at best tie contributes nothing.
        let bound = remaining_total_bound(g, query, config.max_depth - depth);
        if total + bound * (1.0 + BOUND_SLACK) <= *best_total {
            self.stats.subtrees_pruned += 1;
            return improved;
        }
        self.stats.nodes_expanded += 1;
        self.stats.ksp_invocations += 1;
        if self.levels.len() <= depth {
            self.levels.resize_with(depth + 1, Vec::new);
        }
        let mut candidates = mem::take(&mut self.levels[depth]);
        k_shortest_paths_into(
            g,
            metric,
            config.csc,
            query,
            config.n_shortest,
            &mut self.ksp,
            &mut candidates,
        );
        let clone_cost = clone_cost_bytes(g);
        for cand in &candidates {
            self.stats.clone_bytes_avoided += clone_cost;
            let mark = self.undo.mark();
            let rate =
                update_multigraph_logged(g, imap, &cand.path, &mut self.undo, &mut self.scratch);
            if rate <= config.min_route_rate {
                // Empty path: no spare capacity on this branch. The metric
                // was not refreshed after the update, so a plain capacity
                // revert restores full consistency.
                self.undo.revert(g, mark);
                continue;
            }
            for &(l, _) in self.undo.entries_since(mark) {
                self.saved_weights.push(metric.weight(l));
                metric.refresh_link(g, l);
            }
            if self.explore(g, metric, imap, query, config, depth + 1, total + rate, best_total) {
                improved = true;
                if self.best_chain.len() <= depth {
                    self.best_chain.resize_with(depth + 1, || None);
                }
                self.best_chain[depth] =
                    Some(RouteAllocation { path: cand.path.clone(), nominal_rate: rate });
            }
            // The ETT weight is a function of the capacity the log restores,
            // so the weight saved on apply is the one a refresh would compute.
            self.undo.revert_with(g, mark, |net, l| {
                #[expect(
                    clippy::expect_used,
                    reason = "every log entry past `mark` had its weight pushed on apply"
                )]
                let w = self.saved_weights.pop().expect("a saved weight per log entry");
                debug_assert_eq!(w.to_bits(), net.link(l).cost().to_bits(), "restored weight");
                metric.restore_weight(l, w);
            });
        }
        self.levels[depth] = candidates;
        improved
    }
}

/// Runs the §3.2 exploration tree and returns the best combination of paths
/// for `query`.
pub fn best_combination(
    net: &Network,
    imap: &InterferenceMap,
    query: &RouteQuery,
    config: &MultipathConfig,
) -> RouteSet {
    Explorer::new().best_combination(net, imap, query, config)
}

/// The exhaustive cloning implementation of the §3.2 search, retained
/// verbatim as the equivalence oracle and perf baseline for the
/// incremental [`Explorer`]: every candidate edge clones the multigraph,
/// every tree node rebuilds the metric and runs Yen from scratch, and no
/// subtree is pruned.
pub fn best_combination_reference(
    net: &Network,
    imap: &InterferenceMap,
    query: &RouteQuery,
    config: &MultipathConfig,
) -> RouteSet {
    best_combination_reference_counted(net, imap, query, config).0
}

/// [`best_combination_reference`] also reporting the work it did, for
/// baseline-vs-optimized comparisons. Only `nodes_expanded`,
/// `ksp_invocations` and `incumbent_updates` are meaningful for the
/// reference (it prunes nothing, avoids no clones and does not count
/// Dijkstra labels).
pub fn best_combination_reference_counted(
    net: &Network,
    imap: &InterferenceMap,
    query: &RouteQuery,
    config: &MultipathConfig,
) -> (RouteSet, SearchStats) {
    let mut best = RouteSet::default();
    let mut best_total = 0.0;
    let mut chain: Vec<RouteAllocation> = Vec::new();
    let mut stats = SearchStats::default();
    explore_reference(
        net,
        imap,
        query,
        config,
        0,
        &mut chain,
        &mut best,
        &mut best_total,
        &mut stats,
    );
    (best, stats)
}

#[allow(
    clippy::too_many_arguments,
    reason = "the frozen reference keeps the original recursion's signature"
)]
fn explore_reference(
    g: &Network,
    imap: &InterferenceMap,
    query: &RouteQuery,
    config: &MultipathConfig,
    depth: usize,
    chain: &mut Vec<RouteAllocation>,
    best: &mut RouteSet,
    best_total: &mut f64,
    stats: &mut SearchStats,
) {
    let total: f64 = chain.iter().map(|r| r.nominal_rate).sum();
    if total > *best_total {
        *best_total = total;
        *best = RouteSet { routes: chain.clone() };
        stats.incumbent_updates += 1;
    }
    if depth >= config.max_depth {
        return;
    }
    // n-shortest on the current (already-discounted) multigraph. The metric
    // must reflect the current capacities.
    stats.nodes_expanded += 1;
    stats.ksp_invocations += 1;
    let metric = LinkMetric::ett(g);
    let candidates = k_shortest_paths(g, &metric, config.csc, query, config.n_shortest);
    for outcome in candidates {
        let mut child = g.clone();
        let rate = update_multigraph(&mut child, imap, &outcome.path);
        if rate <= config.min_route_rate {
            continue; // empty path: no spare capacity on this branch
        }
        chain.push(RouteAllocation { path: outcome.path, nominal_rate: rate });
        explore_reference(&child, imap, query, config, depth + 1, chain, best, best_total, stats);
        chain.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use empower_model::topology::{fig1_scenario, fig3_scenario};
    use empower_model::{InterferenceModel, SharedMedium};

    #[test]
    fn fig1_combination_matches_the_papers_example() {
        // Optimal load balancing: 10 Mbps on the hybrid route, 6.6 on the
        // WiFi-WiFi route — a 66 % improvement over single path.
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let q = RouteQuery::new(s.gateway, s.client);
        let set = best_combination(&s.net, &imap, &q, &MultipathConfig::default());
        assert_eq!(set.len(), 2);
        assert!((set.total_rate() - (10.0 + 20.0 / 3.0)).abs() < 1e-6, "{}", set.total_rate());
        // First selected route is the hybrid one at 10 Mbps.
        assert!((set.routes[0].nominal_rate - 10.0).abs() < 1e-9);
        assert_eq!(set.routes[0].path.links()[0], s.plc_ab);
    }

    #[test]
    fn fig3_best_combination_avoids_the_best_single_route() {
        let s = fig3_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let q = RouteQuery::new(s.source, s.dest);
        let set = best_combination(&s.net, &imap, &q, &MultipathConfig::default());
        assert!((set.total_rate() - 15.0).abs() < 1e-6, "{}", set.total_rate());
        assert_eq!(set.len(), 2);
        // Route 2 (the best isolated route) is not part of the combination.
        for route in &set.routes {
            assert_ne!(route.path.links(), &s.route2[..]);
        }
    }

    #[test]
    fn route_count_is_data_dependent() {
        // Remove the WiFi a-b link: only the hybrid route remains.
        let mut s = fig1_scenario();
        s.net.set_capacity(s.wifi_ab, 0.0);
        let rev = s.net.link(s.wifi_ab).reverse.unwrap();
        s.net.set_capacity(rev, 0.0);
        let imap = SharedMedium.build_map(&s.net);
        let q = RouteQuery::new(s.gateway, s.client);
        let set = best_combination(&s.net, &imap, &q, &MultipathConfig::default());
        assert_eq!(set.len(), 1);
        assert!((set.total_rate() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn disconnected_pair_yields_empty_set() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let q = RouteQuery::new(s.gateway, s.client).with_mediums(&[empower_model::Medium::Plc]);
        let set = best_combination(&s.net, &imap, &q, &MultipathConfig::default());
        assert!(set.is_empty());
        assert_eq!(set.total_rate(), 0.0);
    }

    #[test]
    fn depth_limit_bounds_route_count() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let q = RouteQuery::new(s.gateway, s.client);
        let config = MultipathConfig { max_depth: 1, ..Default::default() };
        let set = best_combination(&s.net, &imap, &q, &config);
        assert_eq!(set.len(), 1);
        // Depth 1 picks the single route with the best R(P), which here is
        // either route at 10 Mbps.
        assert!((set.total_rate() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn multipath_never_loses_to_single_path() {
        let s = fig3_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let q = RouteQuery::new(s.source, s.dest);
        let single = best_combination(
            &s.net,
            &imap,
            &q,
            &MultipathConfig { max_depth: 1, ..Default::default() },
        );
        let multi = best_combination(&s.net, &imap, &q, &MultipathConfig::default());
        assert!(multi.total_rate() >= single.total_rate() - 1e-12);
    }

    #[test]
    fn max_hops_reports_longest_route() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let q = RouteQuery::new(s.gateway, s.client);
        let set = best_combination(&s.net, &imap, &q, &MultipathConfig::default());
        assert_eq!(set.max_hops(), 2);
    }

    fn assert_bit_identical(a: &RouteSet, b: &RouteSet) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.routes.iter().zip(&b.routes) {
            assert_eq!(x.path.links(), y.path.links());
            assert_eq!(x.nominal_rate.to_bits(), y.nominal_rate.to_bits());
        }
    }

    #[test]
    fn explorer_matches_reference_on_worked_examples() {
        let mut explorer = Explorer::new();
        let config = MultipathConfig::default();
        let s1 = fig1_scenario();
        let imap1 = SharedMedium.build_map(&s1.net);
        let q1 = RouteQuery::new(s1.gateway, s1.client);
        let s3 = fig3_scenario();
        let imap3 = SharedMedium.build_map(&s3.net);
        let q3 = RouteQuery::new(s3.source, s3.dest);
        // Explorer reused across queries, interleaved with reference runs.
        for _ in 0..2 {
            let opt = explorer.best_combination(&s1.net, &imap1, &q1, &config);
            assert_bit_identical(&opt, &best_combination_reference(&s1.net, &imap1, &q1, &config));
            let opt = explorer.best_combination(&s3.net, &imap3, &q3, &config);
            assert_bit_identical(&opt, &best_combination_reference(&s3.net, &imap3, &q3, &config));
        }
    }

    #[test]
    fn explorer_prunes_and_never_expands_more_than_reference() {
        let s = fig3_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let q = RouteQuery::new(s.source, s.dest);
        let config = MultipathConfig::default();
        let mut explorer = Explorer::new();
        explorer.best_combination(&s.net, &imap, &q, &config);
        let opt = explorer.stats();
        let (_, base) = best_combination_reference_counted(&s.net, &imap, &q, &config);
        assert!(opt.subtrees_pruned > 0, "bound never fired: {opt:?}");
        assert!(
            opt.nodes_expanded < base.nodes_expanded,
            "optimized {} vs reference {}",
            opt.nodes_expanded,
            base.nodes_expanded
        );
        assert!(opt.clone_bytes_avoided > 0);
    }
}
