//! Property tests of the routing layer over randomized topologies. Each
//! property sweeps a deterministic seed list (the in-tree RNG replaces
//! proptest; the failing seed is in the assertion message).

use empower_model::rng::{Rng, SeedableRng, StdRng};
use empower_model::topology::random::{generate, RandomTopologyConfig, TopologyClass};
use empower_model::{CarrierSense, InterferenceMap, InterferenceModel, LinkId, Medium};
use empower_routing::{
    best_combination, k_shortest_paths, path_weight, shortest_path, update_multigraph_logged,
    CscMode, LinkMetric, MultipathConfig, RouteQuery, UndoLog, UpdateScratch, MAX_ROUTE_HOPS,
};

const CASES: u64 = 24;

fn instance(seed: u64) -> (empower_model::Network, empower_model::NodeId, empower_model::NodeId) {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = generate(&mut rng, &RandomTopologyConfig::new(TopologyClass::Enterprise));
    let n = topo.net.node_count();
    let a = empower_model::NodeId(rng.gen_range(0..n) as u32);
    let b = loop {
        let b = empower_model::NodeId(rng.gen_range(0..n) as u32);
        if b != a {
            break b;
        }
    };
    (topo.net, a, b)
}

fn seeds(meta_seed: u64) -> impl Iterator<Item = u64> {
    let mut meta = StdRng::seed_from_u64(meta_seed);
    (0..CASES).map(move |_| meta.gen_range(0u64..10_000))
}

/// Yen's paths are loopless, unique, weight-sorted, within the hop cap,
/// and the first equals plain Dijkstra.
#[test]
fn yen_invariants() {
    for seed in seeds(0xB001) {
        let (net, src, dst) = instance(seed);
        let metric = LinkMetric::ett(&net);
        let q = RouteQuery::new(src, dst).with_mediums(&[Medium::WIFI1, Medium::Plc]);
        let paths = k_shortest_paths(&net, &metric, CscMode::Paper, &q, 6);
        if paths.is_empty() {
            assert!(shortest_path(&net, &metric, CscMode::Paper, &q).is_none());
            continue;
        }
        let single = shortest_path(&net, &metric, CscMode::Paper, &q).unwrap();
        assert_eq!(paths[0].path.links(), single.path.links(), "seed {seed}");
        let mut seen = std::collections::BTreeSet::new();
        for w in paths.windows(2) {
            assert!(w[0].weight <= w[1].weight + 1e-9, "seed {seed}: unsorted");
        }
        for o in &paths {
            assert!(seen.insert(o.path.links().to_vec()), "seed {seed}: duplicate path");
            assert!(o.path.hop_count() <= MAX_ROUTE_HOPS, "seed {seed}");
            assert_eq!(o.path.source(&net), src, "seed {seed}");
            assert_eq!(o.path.destination(&net), dst, "seed {seed}");
            // Reported weight equals an independent recomputation.
            let w = path_weight(&net, &metric, CscMode::Paper, &q, o.path.links());
            assert!((w - o.weight).abs() < 1e-9, "seed {seed}: weight mismatch");
        }
    }
}

/// Wider trees never hurt: the best combination with n-shortest width 5
/// carries at least as much as width 1 or 2.
#[test]
fn wider_exploration_is_monotone() {
    for seed in seeds(0xB002) {
        let (net, src, dst) = instance(seed);
        let imap = CarrierSense::default().build_map(&net);
        let q = RouteQuery::new(src, dst).with_mediums(&[Medium::WIFI1, Medium::Plc]);
        let rate = |n: usize| {
            best_combination(
                &net,
                &imap,
                &q,
                &MultipathConfig { n_shortest: n, ..Default::default() },
            )
            .total_rate()
        };
        let r1 = rate(1);
        let r2 = rate(2);
        let r5 = rate(5);
        assert!(r2 >= r1 - 1e-9, "seed {seed}: n=2 ({r2}) < n=1 ({r1})");
        assert!(r5 >= r2 - 1e-9, "seed {seed}: n=5 ({r5}) < n=2 ({r2})");
    }
}

/// Restricting mediums never increases the achievable combination.
#[test]
fn more_mediums_never_hurt() {
    for seed in seeds(0xB003) {
        let (net, src, dst) = instance(seed);
        let imap = CarrierSense::default().build_map(&net);
        let hybrid = RouteQuery::new(src, dst).with_mediums(&[Medium::WIFI1, Medium::Plc]);
        let wifi = RouteQuery::new(src, dst).with_mediums(&[Medium::WIFI1]);
        let config = MultipathConfig::default();
        let rh = best_combination(&net, &imap, &hybrid, &config).total_rate();
        let rw = best_combination(&net, &imap, &wifi, &config).total_rate();
        assert!(rh >= rw - 1e-9, "seed {seed}: hybrid {rh} < wifi-only {rw}");
    }
}

/// `update(P, G)` computes `r(l, P)` once per distinct incidence mask.
/// Every capacity it writes must equal, bit for bit, the affected link's
/// old capacity scaled by the per-link residual, and it must write exactly
/// the union of the path's interference domains.
#[test]
fn update_writes_the_per_link_residual() {
    let mut hops_seen = [false; MAX_ROUTE_HOPS + 1];
    for seed in seeds(0xB004) {
        let (net, src, dst) = instance(seed);
        let imap = CarrierSense::default().build_map(&net);
        let metric = LinkMetric::ett(&net);
        let q = RouteQuery::new(src, dst);
        let mut undo = UndoLog::new();
        let mut scratch = UpdateScratch::default();
        for o in k_shortest_paths(&net, &metric, CscMode::Paper, &q, 24) {
            let path = o.path;
            hops_seen[path.hop_count()] = true;
            let rate = path.capacity(&net, &imap);
            let mut g = net.clone();
            undo.clear();
            let got = update_multigraph_logged(&mut g, &imap, &path, &mut undo, &mut scratch);
            assert_eq!(got.to_bits(), rate.to_bits(), "seed {seed}: R(P)");
            let mut affected: Vec<LinkId> = Vec::new();
            if rate > 0.0 {
                let mut words = Vec::new();
                imap.union_domains_into(path.links(), &mut words);
                affected.extend(InterferenceMap::iter_links(&words));
            }
            let written: Vec<LinkId> = undo.entries_since(0).iter().map(|&(l, _)| l).collect();
            assert_eq!(written, affected, "seed {seed}: the links written");
            for &(l, before) in undo.entries_since(0) {
                let mask = imap.incidence_mask(l, path.links());
                let r = path.residual_idle_fraction_masked(&net, mask, rate);
                let want = (before * r).max(0.0);
                assert_eq!(
                    g.link(l).capacity_mbps.to_bits(),
                    want.to_bits(),
                    "seed {seed}: link {l} on a {}-hop path",
                    path.hop_count()
                );
            }
        }
    }
    assert!(hops_seen[1..].iter().all(|&s| s), "paths of every length 1-6: {hops_seen:?}");
}
