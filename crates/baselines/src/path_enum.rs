//! Exhaustive enumeration of simple paths, used to hand the centralized
//! baselines the *full* route space (they are allowed optimal routing,
//! unlike EMPoWER which preselects routes).

use empower_model::{Medium, Network, NodeId, Path};

/// Enumerates every loop-free path from `src` to `dst` with at most
/// `max_hops` links, optionally restricted to `allowed_mediums`.
///
/// Local-network paths are short (§3.2: testbed tree depth ≤ 3, header
/// limits routes to 6 hops), so DFS with a hop cap is exact and fast.
pub fn enumerate_paths(
    net: &Network,
    src: NodeId,
    dst: NodeId,
    max_hops: usize,
    allowed_mediums: Option<&[Medium]>,
) -> Vec<Path> {
    let mut out = Vec::new();
    let mut visited = vec![false; net.node_count()];
    visited[src.index()] = true;
    let mut stack = Vec::new();
    dfs(net, src, dst, max_hops, allowed_mediums, &mut visited, &mut stack, &mut out);
    out
}

#[allow(
    clippy::too_many_arguments,
    reason = "DFS recursion: the search state is passed down explicitly"
)]
fn dfs(
    net: &Network,
    at: NodeId,
    dst: NodeId,
    budget: usize,
    allowed: Option<&[Medium]>,
    visited: &mut Vec<bool>,
    stack: &mut Vec<empower_model::LinkId>,
    out: &mut Vec<Path>,
) {
    if budget == 0 {
        return;
    }
    for link in net.out_links(at) {
        if !link.is_alive() || visited[link.to.index()] {
            continue;
        }
        if let Some(allowed) = allowed {
            if !allowed.contains(&link.medium) {
                continue;
            }
        }
        stack.push(link.id);
        if link.to == dst {
            out.push(Path::from_links_unchecked(stack.clone()));
        } else {
            visited[link.to.index()] = true;
            dfs(net, link.to, dst, budget - 1, allowed, visited, stack, out);
            visited[link.to.index()] = false;
        }
        stack.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use empower_model::topology::{fig1_scenario, fig3_scenario};

    #[test]
    fn fig1_has_two_paths() {
        let s = fig1_scenario();
        let paths = enumerate_paths(&s.net, s.gateway, s.client, 4, None);
        assert_eq!(paths.len(), 2);
    }

    #[test]
    fn fig3_has_exactly_the_three_routes() {
        let s = fig3_scenario();
        let paths = enumerate_paths(&s.net, s.source, s.dest, 4, None);
        // Routes 1, 2, 3 plus the 2-hop "mixed" detours via u and v using
        // the wrong-medium legs… the fixture only wires each leg on one
        // medium, so exactly 3 paths exist.
        assert_eq!(paths.len(), 3);
    }

    #[test]
    fn hop_cap_is_respected() {
        let s = fig3_scenario();
        let paths = enumerate_paths(&s.net, s.source, s.dest, 1, None);
        assert_eq!(paths.len(), 1); // only the direct Route 3
        assert_eq!(paths[0].links(), &s.route3[..]);
    }

    #[test]
    fn medium_restriction_prunes_paths() {
        let s = fig1_scenario();
        let wifi_only =
            enumerate_paths(&s.net, s.gateway, s.client, 4, Some(&[empower_model::Medium::WIFI1]));
        assert_eq!(wifi_only.len(), 1);
    }

    #[test]
    fn paths_are_simple() {
        let s = fig3_scenario();
        for p in enumerate_paths(&s.net, s.source, s.dest, 6, None) {
            let nodes = p.nodes(&s.net);
            let mut dedup = nodes.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), nodes.len());
        }
    }

    #[test]
    fn dead_links_are_skipped() {
        let mut s = fig1_scenario();
        s.net.set_capacity(s.plc_ab, 0.0);
        let paths = enumerate_paths(&s.net, s.gateway, s.client, 4, None);
        assert_eq!(paths.len(), 1);
    }
}
