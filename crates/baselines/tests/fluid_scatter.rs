//! `saturation_goodput` scatters each round's demand from the links that
//! carry traffic. This file keeps the form it replaced, which sums every
//! link's whole interference domain on every round, and checks that the
//! two agree bit for bit on seeded route sets over the paper's topologies:
//! overload, routes that share links, dead links on a route with and
//! without arrivals, and zero offered load.

use empower_baselines::{saturation_goodput, FluidOutcome};
use empower_model::rng::{Rng, SeedableRng, StdRng};
use empower_model::topology::{enterprise, fig1_scenario, fig3_scenario, residential, testbed22};
use empower_model::{
    CarrierSense, InterferenceMap, InterferenceModel, LinkId, Network, NodeId, Path,
};
use empower_routing::{k_shortest_paths, CscMode, LinkMetric, RouteQuery};

/// The all-links gather: every round sums `I_l` for every link `l`.
fn gather(net: &Network, imap: &InterferenceMap, routes: &[Path], offered: &[f64]) -> FluidOutcome {
    let l_count = net.link_count();
    let costs: Vec<f64> = net.links().iter().map(|l| l.cost()).collect();
    let mut scale = vec![1.0_f64; l_count];
    let mut arrivals = vec![0.0_f64; l_count];
    let mut delivered = vec![0.0_f64; routes.len()];
    let mut new_scale = vec![1.0_f64; l_count];
    for _round in 0..300 {
        arrivals.iter_mut().for_each(|a| *a = 0.0);
        for (r, path) in routes.iter().enumerate() {
            let mut rate = offered[r];
            for &l in path.links() {
                arrivals[l.index()] += rate;
                rate *= scale[l.index()];
            }
            delivered[r] = rate;
        }
        new_scale.fill(1.0);
        for (l, slot) in new_scale.iter_mut().enumerate() {
            let demand: f64 = imap
                .domain(LinkId(l as u32))
                .iter()
                .map(|&i| {
                    let c = costs[i.index()];
                    if c.is_finite() {
                        arrivals[i.index()] * c
                    } else if arrivals[i.index()] > 0.0 {
                        f64::INFINITY
                    } else {
                        0.0
                    }
                })
                .sum();
            if demand > 1.0 {
                *slot = 1.0 / demand;
            }
        }
        let mut moved = 0.0_f64;
        for l in 0..l_count {
            let next = 0.5 * scale[l] + 0.5 * new_scale[l];
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

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_same(
    case: &str,
    net: &Network,
    imap: &InterferenceMap,
    routes: &[Path],
    offered: &[f64],
) {
    let got = saturation_goodput(net, imap, routes, offered);
    let want = gather(net, imap, routes, offered);
    assert_eq!(bits(&got.delivered), bits(&want.delivered), "{case}: delivered");
    assert_eq!(bits(&got.link_arrivals), bits(&want.link_arrivals), "{case}: link arrivals");
    assert_eq!(
        got.max_domain_airtime.to_bits(),
        want.max_domain_airtime.to_bits(),
        "{case}: max domain airtime"
    );
}

/// Up to 4 of Yen's routes for each of 1–3 random pairs: a pair's routes
/// share prefixes and links, and pairs may share links too.
fn route_set(rng: &mut StdRng, net: &Network) -> Vec<Path> {
    let metric = LinkMetric::ett(net);
    let n = net.node_count();
    let mut routes = Vec::new();
    for _ in 0..rng.gen_range(1..=3usize) {
        let src = NodeId(rng.gen_range(0..n) as u32);
        let dst = NodeId(rng.gen_range(0..n) as u32);
        if src == dst {
            continue;
        }
        let k = rng.gen_range(1..=4usize);
        let found = k_shortest_paths(net, &metric, CscMode::Paper, &RouteQuery::new(src, dst), k);
        routes.extend(found.into_iter().map(|o| o.path));
    }
    routes
}

/// Offered loads from idle to far past any route's capacity.
fn loads(rng: &mut StdRng, count: usize) -> Vec<f64> {
    (0..count).map(|_| if rng.gen_bool(0.15) { 0.0 } else { rng.gen_range(0.0..150.0) }).collect()
}

/// Every case on one network: random loads, zero load, and one route link
/// dead, once fed by traffic and once with every route through it idle.
fn sweep(label: &str, net: &Network, seed: u64, draws: usize) {
    let imap = CarrierSense::default().build_map(net);
    let mut rng = StdRng::seed_from_u64(seed);
    for draw in 0..draws {
        let routes = route_set(&mut rng, net);
        if routes.is_empty() {
            continue;
        }
        let case = format!("{label} seed {seed} draw {draw}");
        let offered = loads(&mut rng, routes.len());
        assert_same(&format!("{case} loaded"), net, &imap, &routes, &offered);
        assert_same(&format!("{case} idle"), net, &imap, &routes, &vec![0.0; routes.len()]);

        let r = rng.gen_range(0..routes.len());
        let links = routes[r].links();
        let dead = links[rng.gen_range(0..links.len())];
        let mut broken = net.clone();
        broken.set_capacity(dead, 0.0);
        let mut fed = offered.clone();
        fed[r] = fed[r].max(1.0);
        assert_same(&format!("{case} dead {dead} fed"), &broken, &imap, &routes, &fed);
        let idle: Vec<f64> = routes
            .iter()
            .zip(&offered)
            .map(|(p, &o)| if p.links().contains(&dead) { 0.0 } else { o })
            .collect();
        assert_same(&format!("{case} dead {dead} idle"), &broken, &imap, &routes, &idle);
    }
}

#[test]
fn scatter_matches_gather_on_the_worked_examples() {
    let fig1 = fig1_scenario();
    sweep("fig1", &fig1.net, 0xF1, 12);
    let fig3 = fig3_scenario();
    sweep("fig3", &fig3.net, 0xF3, 12);
}

#[test]
fn scatter_matches_gather_on_random_draws() {
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(0x5CA7 + seed);
        let topo = if seed % 2 == 0 { residential(&mut rng) } else { enterprise(&mut rng) };
        sweep("random", &topo.net, seed, 6);
    }
}

#[test]
fn scatter_matches_gather_on_the_testbed() {
    for seed in 1..=2 {
        sweep("testbed22", &testbed22(seed).net, seed, 8);
    }
}
