//! An oracle for the §3.1 single-path search that shares none of its code:
//! every walk of at most `budget` permitted links from the source is
//! enumerated, weighed in Dijkstra's accumulation order `(d + w) + csc`,
//! and the search's answer is checked against the cheapest ones. The
//! multipath equivalence test (`equivalence.rs`) runs the same Dijkstra on
//! both sides, so only this file can see a change to the search itself.

use empower_model::rng::{Rng, SeedableRng, StdRng};
use empower_model::{LinkId, Medium, Network, NetworkBuilder, NodeId, Point};
use empower_routing::dijkstra::shortest_path_with_scratch;
use empower_routing::{CscMode, DijkstraOutcome, DijkstraScratch, LinkMetric, RouteQuery};

/// Random instances per CSC mode.
const CASES: u64 = 200;

/// A multigraph of 2–7 nodes on 2–3 mediums, some links dead, some pairs
/// joined on several mediums, some on one medium twice.
fn random_net(rng: &mut StdRng) -> Network {
    let all = [Medium::WIFI1, Medium::Plc, Medium::WIFI2];
    let mediums = &all[..rng.gen_range(2..=3usize)];
    let n = rng.gen_range(2..=7usize);
    let mut b = NetworkBuilder::new();
    let nodes: Vec<NodeId> =
        (0..n).map(|i| b.add_node(Point::new(i as f64, 0.0), mediums.to_vec(), None)).collect();
    for &from in &nodes {
        for &to in &nodes {
            for &m in mediums {
                if from == to || !rng.gen_bool(0.45) {
                    continue;
                }
                let copies = if rng.gen_bool(0.1) { 2 } else { 1 };
                for _ in 0..copies {
                    let capacity = if rng.gen_bool(0.15) { 0.0 } else { rng.gen_range(1.0..100.0) };
                    b.add_link(from, to, m, capacity);
                }
            }
        }
    }
    b.build()
}

/// A query with a random medium restriction and random bans.
fn random_query(rng: &mut StdRng, net: &Network) -> RouteQuery {
    let n = net.node_count();
    let src = NodeId(rng.gen_range(0..n) as u32);
    let dst = loop {
        let d = NodeId(rng.gen_range(0..n) as u32);
        if d != src {
            break d;
        }
    };
    let mut q = RouteQuery::new(src, dst);
    if rng.gen_bool(0.3) {
        let allowed: Vec<Medium> =
            net.mediums().iter().copied().filter(|_| rng.gen_bool(0.7)).collect();
        q = q.with_mediums(&allowed);
    }
    for l in 0..net.link_count() {
        if rng.gen_bool(0.1) {
            q.banned_links.insert(LinkId(l as u32));
        }
    }
    for v in 0..n {
        if rng.gen_bool(0.08) {
            q.banned_nodes.insert(NodeId(v as u32));
        }
    }
    q
}

/// The channel-switching cost of leaving `u` on `egress` after entering on
/// `ingress`, from the paper's definitions (§3.1).
fn csc_cost(
    net: &Network,
    q: &RouteQuery,
    csc: CscMode,
    u: NodeId,
    ingress: Medium,
    egress: Medium,
) -> f64 {
    let stays = ingress == egress;
    match csc {
        CscMode::Zero => 0.0,
        CscMode::Custom { w_ns, w_s } => {
            if stays {
                w_ns
            } else {
                w_s
            }
        }
        CscMode::Paper if !stays => 0.0,
        CscMode::Paper => {
            // w_ns(u): the cheapest alive egress on an allowed medium;
            // Yen's bans do not move it.
            let w = net
                .out_links(u)
                .filter(|l| {
                    l.is_alive() && q.allowed_mediums.as_ref().is_none_or(|a| a.contains(&l.medium))
                })
                .map(|l| l.cost())
                .fold(f64::INFINITY, f64::min);
            if w.is_finite() {
                w
            } else {
                0.0
            }
        }
    }
}

/// Appends every walk of at most `budget` links from `at` to the
/// destination to `walks`, with its weight, continuing from distance `d`.
#[allow(clippy::too_many_arguments, reason = "a recursive enumerator threads its state")]
fn enumerate(
    net: &Network,
    metric: &LinkMetric,
    csc: CscMode,
    q: &RouteQuery,
    at: NodeId,
    ingress: Option<Medium>,
    d: f64,
    budget: usize,
    links: &mut Vec<LinkId>,
    walks: &mut Vec<(Vec<LinkId>, f64)>,
) {
    if budget == 0 {
        return;
    }
    for link in net.out_links(at) {
        let w = metric.weight(link.id);
        if !q.permits(net, link.id) || !w.is_finite() {
            continue;
        }
        let c = ingress.map_or(0.0, |m| csc_cost(net, q, csc, at, m, link.medium));
        let nd = d + w + c;
        links.push(link.id);
        if link.to == q.dst {
            walks.push((links.clone(), nd));
        }
        enumerate(net, metric, csc, q, link.to, Some(link.medium), nd, budget - 1, links, walks);
        links.pop();
    }
}

fn is_simple(net: &Network, links: &[LinkId]) -> bool {
    let mut seen = vec![false; net.node_count()];
    let mut mark = |v: NodeId| !std::mem::replace(&mut seen[v.index()], true);
    let Some(&first) = links.first() else { return true };
    mark(net.link(first).from) && links.iter().all(|&l| mark(net.link(l).to))
}

/// One search on a scratch of its own.
fn fresh(
    net: &Network,
    metric: &LinkMetric,
    csc: CscMode,
    q: &RouteQuery,
    ingress: Option<Medium>,
    budget: usize,
) -> Option<DijkstraOutcome> {
    shortest_path_with_scratch(net, metric, csc, q, ingress, budget, &mut DijkstraScratch::new())
}

/// Checks one search against the enumeration; `case` names it on failure.
#[allow(clippy::too_many_arguments, reason = "one search's inputs plus the scratch it reuses")]
fn check(
    case: &str,
    net: &Network,
    metric: &LinkMetric,
    csc: CscMode,
    q: &RouteQuery,
    ingress: Option<Medium>,
    budget: usize,
    scratch: &mut DijkstraScratch,
) {
    let got = shortest_path_with_scratch(net, metric, csc, q, ingress, budget, scratch);
    let fresh = fresh(net, metric, csc, q, ingress, budget);
    assert_eq!(
        got.as_ref().map(|o| (o.path.links().to_vec(), o.weight.to_bits())),
        fresh.as_ref().map(|o| (o.path.links().to_vec(), o.weight.to_bits())),
        "{case}: a reused scratch answers differently from a fresh one"
    );
    let mut walks = Vec::new();
    enumerate(net, metric, csc, q, q.src, ingress, 0.0, budget, &mut Vec::new(), &mut walks);
    let Some(min) = walks.iter().map(|&(_, w)| w).min_by(f64::total_cmp) else {
        assert!(got.is_none(), "{case}: a path where no walk exists");
        return;
    };
    let cheapest: Vec<&[LinkId]> =
        walks.iter().filter(|(_, w)| *w == min).map(|(l, _)| &l[..]).collect();
    match got {
        Some(out) => {
            assert_eq!(
                out.weight.to_bits(),
                min.to_bits(),
                "{case}: weight {} against the cheapest walk's {min}",
                out.weight
            );
            assert!(
                cheapest.contains(&out.path.links()),
                "{case}: {:?} is not a cheapest walk ({cheapest:?})",
                out.path.links()
            );
        }
        None => assert!(
            cheapest.iter().any(|l| !is_simple(net, l)),
            "{case}: no path, but every cheapest walk is loop-free ({cheapest:?})"
        ),
    }
}

fn sweep(csc: CscMode, meta_seed: u64) -> u64 {
    let mut scratch = DijkstraScratch::new();
    for i in 0..CASES {
        let seed = meta_seed + i;
        let mut rng = StdRng::seed_from_u64(seed);
        let net = random_net(&mut rng);
        let metric = LinkMetric::ett(&net);
        let q = random_query(&mut rng, &net);
        let ingress = if net.mediums().is_empty() || rng.gen_bool(0.5) {
            None
        } else {
            Some(net.mediums()[rng.gen_range(0..net.mediums().len())])
        };
        let budget = rng.gen_range(1..=6usize);
        let case = format!("{csc:?} seed {seed} budget {budget} ingress {ingress:?}");
        check(&case, &net, &metric, csc, &q, ingress, budget, &mut scratch);
    }
    scratch.labels_dominated()
}

#[test]
fn paper_csc_search_returns_a_cheapest_walk() {
    let dominated = sweep(CscMode::Paper, 0xD1_0000);
    assert!(dominated > 0, "the corpus never exercised dominance");
}

#[test]
fn zero_csc_search_returns_a_cheapest_walk() {
    sweep(CscMode::Zero, 0xD2_0000);
}

#[test]
fn custom_csc_search_returns_a_cheapest_walk() {
    sweep(CscMode::Custom { w_ns: 0.03, w_s: 0.01 }, 0xD3_0000);
}

/// a → b directly on WiFi costs 0.1; a → c → b (PLC, then WiFi) reaches the
/// same (b, WiFi) state one hop later for 0.15, so that label is dominated
/// and never expanded. The answer is a → b → d.
#[test]
fn a_dominated_label_is_skipped_and_the_answer_stands() {
    let both = vec![Medium::WIFI1, Medium::Plc];
    let mut b = NetworkBuilder::new();
    let a = b.add_node(Point::new(0.0, 0.0), both.clone(), None);
    let bn = b.add_node(Point::new(1.0, 0.0), both.clone(), None);
    let c = b.add_node(Point::new(0.0, 1.0), both.clone(), None);
    let d = b.add_node(Point::new(2.0, 0.0), both, None);
    let ab = b.add_link(a, bn, Medium::WIFI1, 10.0);
    b.add_link(a, c, Medium::Plc, 20.0);
    b.add_link(c, bn, Medium::WIFI1, 10.0);
    let bd = b.add_link(bn, d, Medium::WIFI1, 10.0);
    let net = b.build();
    let metric = LinkMetric::ett(&net);
    let q = RouteQuery::new(a, d);
    let mut scratch = DijkstraScratch::new();
    check("hand-built", &net, &metric, CscMode::Paper, &q, None, 6, &mut scratch);
    assert!(scratch.labels_dominated() >= 1, "(b, WiFi, 2) was expanded");
    let out = fresh(&net, &metric, CscMode::Paper, &q, None, 6).unwrap();
    assert_eq!(out.path.links(), [ab, bd]);
}

/// The other way round: a → c → b reaches (b, WiFi) for 0.15, cheaper than
/// the direct 0.5, but at two hops. Under a budget of two only the direct
/// label can go on to d, so the cheaper, longer label must not dominate it.
#[test]
fn a_cheaper_label_with_more_hops_does_not_dominate() {
    let both = vec![Medium::WIFI1, Medium::Plc];
    let mut b = NetworkBuilder::new();
    let a = b.add_node(Point::new(0.0, 0.0), both.clone(), None);
    let bn = b.add_node(Point::new(1.0, 0.0), both.clone(), None);
    let c = b.add_node(Point::new(0.0, 1.0), both.clone(), None);
    let d = b.add_node(Point::new(2.0, 0.0), both, None);
    let ab = b.add_link(a, bn, Medium::WIFI1, 2.0);
    b.add_link(a, c, Medium::Plc, 20.0);
    b.add_link(c, bn, Medium::WIFI1, 10.0);
    let bd = b.add_link(bn, d, Medium::WIFI1, 10.0);
    let net = b.build();
    let metric = LinkMetric::ett(&net);
    let q = RouteQuery::new(a, d);
    let mut scratch = DijkstraScratch::new();
    for budget in 2..=3 {
        check(
            &format!("budget {budget}"),
            &net,
            &metric,
            CscMode::Paper,
            &q,
            None,
            budget,
            &mut scratch,
        );
    }
    let out = fresh(&net, &metric, CscMode::Paper, &q, None, 2).unwrap();
    assert_eq!(out.path.links(), [ab, bd]);
}

/// A negative switching cost lets a relaxation lower a distance, so the
/// search must neither prune nor stop at its first destination label.
#[test]
fn negative_csc_search_returns_a_cheapest_walk() {
    let dominated = sweep(CscMode::Custom { w_ns: 0.02, w_s: -0.05 }, 0xD4_0000);
    assert_eq!(dominated, 0, "dominance ran where a relaxation can lower a distance");
}

/// s → t directly on WiFi settles t first, at 0.1. The detour s → m → t
/// switches from PLC to WiFi at m, and the switching cost of −0.3 brings
/// it to 0.15 + 0.1 − 0.3 = −0.05, so the search must run past that first
/// destination label.
#[test]
fn the_first_destination_label_is_not_final_when_a_cost_is_negative() {
    let both = vec![Medium::WIFI1, Medium::Plc];
    let mut b = NetworkBuilder::new();
    let s = b.add_node(Point::new(0.0, 0.0), both.clone(), None);
    let m = b.add_node(Point::new(1.0, 1.0), both.clone(), None);
    let t = b.add_node(Point::new(2.0, 0.0), both, None);
    b.add_link(s, t, Medium::WIFI1, 10.0);
    let sm = b.add_link(s, m, Medium::Plc, 20.0 / 3.0);
    let mt = b.add_link(m, t, Medium::WIFI1, 10.0);
    let net = b.build();
    let metric = LinkMetric::ett(&net);
    let csc = CscMode::Custom { w_ns: 0.0, w_s: -0.3 };
    let q = RouteQuery::new(s, t);
    let mut scratch = DijkstraScratch::new();
    check("hand-built", &net, &metric, csc, &q, None, 6, &mut scratch);
    let out = fresh(&net, &metric, csc, &q, None, 6).unwrap();
    assert_eq!(out.path.links(), [sm, mt]);
    assert!((out.weight + 0.05).abs() < 1e-12, "weight {}", out.weight);
}
