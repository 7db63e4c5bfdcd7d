//! Conflict graphs over links, maximal cliques, and maximum-weight
//! independent sets.
//!
//! The conflict graph has one vertex per directed link; two vertices are
//! adjacent iff the links cannot transmit simultaneously. A feasible
//! transmission schedule activates an independent set per instant; the
//! backpressure baseline needs the *maximum-weight* independent set each
//! slot, and the `optimal` capacity region is approximated by the maximal-
//! clique inequalities.

use empower_model::{InterferenceMap, LinkId};

/// Dense adjacency over links (vertex `i` ↔ `LinkId(i)`).
#[derive(Debug, Clone)]
pub struct ConflictGraph {
    n: usize,
    /// Adjacency sets, sorted. `adj[i]` excludes `i` itself.
    adj: Vec<Vec<usize>>,
}

impl ConflictGraph {
    /// Builds the conflict graph from precomputed interference domains
    /// (`I_l` minus the link itself).
    pub fn from_interference(imap: &InterferenceMap) -> Self {
        let n = imap.link_count();
        let adj = (0..n)
            .map(|i| {
                imap.domain(LinkId(i as u32))
                    .iter()
                    .map(|l| l.index())
                    .filter(|&j| j != i)
                    .collect()
            })
            .collect();
        ConflictGraph { n, adj }
    }

    /// Number of vertices (links).
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// True if vertices `a` and `b` conflict.
    pub fn conflicts(&self, a: usize, b: usize) -> bool {
        self.adj[a].binary_search(&b).is_ok()
    }

    /// Neighbors of `v`.
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.adj[v]
    }
}

/// All maximal cliques (Bron–Kerbosch with pivoting). Intended for conflict
/// graphs of local networks (≲ a few hundred vertices).
pub fn maximal_cliques(g: &ConflictGraph) -> Vec<Vec<usize>> {
    let mut cliques = Vec::new();
    let mut r = Vec::new();
    let p: Vec<usize> = (0..g.len()).collect();
    let x: Vec<usize> = Vec::new();
    bron_kerbosch(g, &mut r, p, x, &mut cliques);
    cliques
}

fn bron_kerbosch(
    g: &ConflictGraph,
    r: &mut Vec<usize>,
    p: Vec<usize>,
    x: Vec<usize>,
    out: &mut Vec<Vec<usize>>,
) {
    if p.is_empty() && x.is_empty() {
        let mut clique = r.clone();
        clique.sort_unstable();
        out.push(clique);
        return;
    }
    // Pivot: vertex of P ∪ X with the most neighbors in P. The early
    // return above fired if P ∪ X was empty, but degrade to "no work"
    // rather than panicking if that ever changes.
    let Some(pivot) = p
        .iter()
        .chain(x.iter())
        .copied()
        .max_by_key(|&u| p.iter().filter(|&&v| g.conflicts(u, v)).count())
    else {
        return;
    };
    let candidates: Vec<usize> = p.iter().copied().filter(|&v| !g.conflicts(pivot, v)).collect();
    let mut p = p;
    let mut x = x;
    for v in candidates {
        let np: Vec<usize> = p.iter().copied().filter(|&u| g.conflicts(v, u)).collect();
        let nx: Vec<usize> = x.iter().copied().filter(|&u| g.conflicts(v, u)).collect();
        r.push(v);
        bron_kerbosch(g, r, np, nx, out);
        r.pop();
        p.retain(|&u| u != v);
        x.push(v);
    }
}

/// Maximum-weight independent set: exact branch and bound when the
/// positive-weight candidate set is small enough to enumerate reliably,
/// greedy maximal scheduling (GMS — the standard practical relaxation of
/// max-weight scheduling) beyond that.
///
/// Zero- and negative-weight vertices are never selected (they cannot
/// help), which keeps the search small for backpressure where most links
/// have zero differential backlog. Instances with more than
/// [`EXACT_MWIS_LIMIT`] positive vertices fall back to the greedy rule;
/// backpressure's throughput optimality then degrades to GMS's efficiency
/// ratio, which is the trade every practical backpressure implementation
/// makes (§7 discusses why exact max-weight scheduling is unusable).
pub fn max_weight_independent_set(g: &ConflictGraph, weights: &[f64]) -> (Vec<usize>, f64) {
    assert_eq!(weights.len(), g.len());
    // Candidates: positive weight only, sorted by descending weight for
    // better pruning.
    let mut order: Vec<usize> = (0..g.len()).filter(|&v| weights[v] > 0.0).collect();
    order.sort_by(|&a, &b| weights[b].total_cmp(&weights[a]).then(a.cmp(&b)));
    if order.len() > EXACT_MWIS_LIMIT {
        let mut chosen: Vec<usize> = Vec::new();
        let mut total = 0.0;
        for v in order {
            if chosen.iter().all(|&u| !g.conflicts(u, v)) {
                total += weights[v];
                chosen.push(v);
            }
        }
        chosen.sort_unstable();
        return (chosen, total);
    }
    let mut best: Vec<usize> = Vec::new();
    let mut best_w = 0.0;
    let mut current: Vec<usize> = Vec::new();
    branch(g, weights, &order, 0, 0.0, &mut current, &mut best, &mut best_w);
    best.sort_unstable();
    (best, best_w)
}

/// Positive-vertex count above which MWIS switches to greedy scheduling.
pub const EXACT_MWIS_LIMIT: usize = 36;

#[allow(
    clippy::too_many_arguments,
    reason = "branch-and-bound recursion: the search state is passed down explicitly"
)]
fn branch(
    g: &ConflictGraph,
    weights: &[f64],
    order: &[usize],
    idx: usize,
    current_w: f64,
    current: &mut Vec<usize>,
    best: &mut Vec<usize>,
    best_w: &mut f64,
) {
    // Upper bound: current + all remaining weights.
    let remaining: f64 = order[idx..].iter().map(|&v| weights[v]).sum();
    if current_w + remaining <= *best_w {
        return;
    }
    if idx == order.len() {
        if current_w > *best_w {
            *best_w = current_w;
            *best = current.clone();
        }
        return;
    }
    let v = order[idx];
    // Include v if compatible.
    if current.iter().all(|&u| !g.conflicts(u, v)) {
        current.push(v);
        branch(g, weights, order, idx + 1, current_w + weights[v], current, best, best_w);
        current.pop();
    }
    // Exclude v.
    branch(g, weights, order, idx + 1, current_w, current, best, best_w);
}

#[cfg(test)]
mod tests {
    use super::*;
    use empower_model::topology::fig1_scenario;
    use empower_model::{InterferenceModel, SharedMedium};

    fn fig1_graph() -> ConflictGraph {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        ConflictGraph::from_interference(&imap)
    }

    #[test]
    fn conflict_graph_mirrors_interference() {
        // Fig. 1: 6 directed links; WiFi links (ids 2..6) form a clique of 4,
        // PLC links (0, 1) a clique of 2, no cross-medium edges.
        let g = fig1_graph();
        assert_eq!(g.len(), 6);
        assert!(g.conflicts(0, 1)); // plc fwd/rev
        assert!(g.conflicts(2, 4)); // wifi a-b with wifi b-c
        assert!(!g.conflicts(0, 2)); // plc vs wifi
    }

    #[test]
    fn cliques_of_fig1_are_the_two_mediums() {
        let g = fig1_graph();
        let mut cliques = maximal_cliques(&g);
        cliques.sort();
        assert_eq!(cliques, vec![vec![0, 1], vec![2, 3, 4, 5]]);
    }

    #[test]
    fn mwis_picks_one_link_per_medium() {
        let g = fig1_graph();
        // Weight link 0 (plc) and links 2,4 (wifi) — wifi pair conflicts.
        let mut w = vec![0.0; 6];
        w[0] = 1.0;
        w[2] = 2.0;
        w[4] = 1.5;
        let (set, total) = max_weight_independent_set(&g, &w);
        assert_eq!(set, vec![0, 2]);
        assert!((total - 3.0).abs() < 1e-12);
    }

    #[test]
    fn mwis_ignores_zero_weights() {
        let g = fig1_graph();
        let (set, total) = max_weight_independent_set(&g, &[0.0; 6]);
        assert!(set.is_empty());
        assert_eq!(total, 0.0);
    }

    #[test]
    fn mwis_is_independent() {
        let g = fig1_graph();
        let w = vec![1.0, 1.1, 0.9, 1.2, 1.3, 0.8];
        let (set, _) = max_weight_independent_set(&g, &w);
        for (i, &a) in set.iter().enumerate() {
            for &b in &set[i + 1..] {
                assert!(!g.conflicts(a, b));
            }
        }
    }

    #[test]
    fn mwis_beats_greedy_on_a_path_graph() {
        // Path graph 0-1-2 with weights 1, 1.5, 1: greedy by weight takes
        // {1} (1.5); optimal takes {0, 2} (2.0).
        let imap_free = |n: usize, edges: &[(usize, usize)]| {
            let mut adj = vec![Vec::new(); n];
            for &(a, b) in edges {
                adj[a].push(b);
                adj[b].push(a);
            }
            for a in &mut adj {
                a.sort_unstable();
            }
            ConflictGraph { n, adj }
        };
        let g = imap_free(3, &[(0, 1), (1, 2)]);
        let (set, total) = max_weight_independent_set(&g, &[1.0, 1.5, 1.0]);
        assert_eq!(set, vec![0, 2]);
        assert!((total - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cliques_cover_all_edges() {
        let g = fig1_graph();
        let cliques = maximal_cliques(&g);
        for a in 0..g.len() {
            for &b in g.neighbors(a) {
                assert!(
                    cliques.iter().any(|c| c.contains(&a) && c.contains(&b)),
                    "edge ({a},{b}) not covered"
                );
            }
        }
    }
}
