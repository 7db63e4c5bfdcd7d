//! `CarrierSense::build_map` tests only candidate pairs: links grouped by
//! medium (and PLC panel), WiFi groups swept along x with an early stop.
//! These tests hold it to the all-pairs `InterferenceMap::build`, domain
//! by domain and word by word, on the generated topologies, on seeded
//! random point sets, and on hand-placed pairs at the edge of the range.

use empower_model::geometry::Point;
use empower_model::rng::{Rng, SeedableRng, StdRng};
use empower_model::topology::{
    campus, enterprise, fig1_scenario, residential, testbed22, CampusConfig,
};
use empower_model::{
    CarrierSense, InterferenceMap, InterferenceModel, Medium, Network, NetworkBuilder, NodeId,
    PanelId,
};

const ALL: [Medium; 4] = [Medium::WIFI1, Medium::WIFI2, Medium::Plc, Medium::Ethernet];

fn assert_same_map_with(net: &Network, model: &CarrierSense, what: &str) {
    let swept = model.build_map(net);
    let reference = InterferenceMap::build(net, model);
    assert_eq!(swept.link_count(), reference.link_count(), "{what}: link count");
    for l in net.links() {
        assert_eq!(swept.domain(l.id), reference.domain(l.id), "{what}: domain of {}", l.id);
        assert_eq!(
            swept.domain_words(l.id),
            reference.domain_words(l.id),
            "{what}: packed row of {}",
            l.id
        );
    }
}

fn assert_same_map(net: &Network, what: &str) {
    assert_same_map_with(net, &CarrierSense::default(), what);
}

#[test]
fn the_generated_topologies_get_the_all_pairs_map() {
    assert_same_map(&fig1_scenario().net, "fig1");
    for seed in [1, 2, 3] {
        assert_same_map(&testbed22(seed).net, &format!("testbed22({seed})"));
    }
    for seed in 0..6 {
        let mut rng = StdRng::seed_from_u64(seed);
        assert_same_map(&residential(&mut rng).net, &format!("residential {seed}"));
        assert_same_map(&enterprise(&mut rng).net, &format!("enterprise {seed}"));
    }
    let mut rng = StdRng::seed_from_u64(7);
    assert_same_map(&campus(&mut rng, &CampusConfig::new(2, 3, 5)).net, "campus 2×3×5");
}

/// Random nodes in a box, every node on every medium, a random panel or
/// none, and random links between them; a third of the x values snapped
/// to a 10 m grid so equal x values are common.
fn random_net(rng: &mut StdRng, nodes: usize, links: usize, origin: f64, width: f64) -> Network {
    let mut b = NetworkBuilder::new();
    let ids: Vec<NodeId> = (0..nodes)
        .map(|_| {
            let mut x = rng.gen_range(0.0..width);
            if rng.gen_bool(0.3) {
                x = (x / 10.0).round() * 10.0;
            }
            let y = rng.gen_range(0.0..width / 2.0);
            let panel = rng.gen_bool(0.8).then(|| PanelId(rng.gen_range(0u32..3)));
            b.add_node(Point::new(origin + x, y), ALL.to_vec(), panel)
        })
        .collect();
    for _ in 0..links {
        let u = ids[rng.gen_range(0..nodes)];
        let v = ids[rng.gen_range(0..nodes)];
        if u != v {
            b.add_duplex(u, v, ALL[rng.gen_range(0..ALL.len())], 10.0);
        }
    }
    b.build()
}

#[test]
fn seeded_random_point_sets_get_the_all_pairs_map() {
    let mut rng = StdRng::seed_from_u64(0x5EE9);
    for case in 0..40 {
        let nodes = rng.gen_range(2usize..60);
        let links = rng.gen_range(1usize..120);
        let width = [50.0, 300.0, 1500.0][case % 3];
        // Far from the origin, the rounding of `hi + range` is coarser.
        let origin = [0.0, -1e4, 3.7e6][case % 3];
        let net = random_net(&mut rng, nodes, links, origin, width);
        assert_same_map(&net, &format!("case {case}"));
        for range in [35.0, 140.0] {
            let model = CarrierSense { wifi_sense_range_m: range };
            assert_same_map_with(&net, &model, &format!("case {case}, range {range}"));
        }
    }
}

/// Two WiFi links on one row, `a` ending at `a_hi` and `b` starting at
/// `b_lo`, their other ends pointing away from each other.
fn facing_pair(a_hi: f64, b_lo: f64, medium: Medium) -> Network {
    let mut b = NetworkBuilder::new();
    let at = |b: &mut NetworkBuilder, x: f64| b.add_node(Point::new(x, 5.0), ALL.to_vec(), None);
    let (a0, a1) = (at(&mut b, a_hi - 30.0), at(&mut b, a_hi));
    let (b0, b1) = (at(&mut b, b_lo), at(&mut b, b_lo + 30.0));
    b.add_duplex(a0, a1, medium, 10.0);
    b.add_duplex(b0, b1, medium, 10.0);
    b.build()
}

#[test]
fn pairs_at_the_edge_of_the_range_are_kept() {
    let range = CarrierSense::default().wifi_sense_range_m;
    // The exact gap is 70 + 3.6e-15, above the range, and the sum
    // `a_hi + 70` rounds below `b_lo`; yet `Point::distance` computes
    // exactly 70.0, so the links interfere. A stop without slack drops
    // this pair.
    let (a_hi, b_lo) = (-50.50893521126187, 19.491064788738132);
    assert!(b_lo > a_hi + range);
    assert_eq!(Point::new(a_hi, 5.0).distance(Point::new(b_lo, 5.0)), range);
    let net = facing_pair(a_hi, b_lo, Medium::WIFI1);
    assert!(CarrierSense::default()
        .build_map(&net)
        .interferes(net.links()[0].id, net.links()[2].id));
    assert_same_map(&net, "the pair whose distance rounds to the range");

    // Exactly the range apart, and a few ulps either side of it, at
    // several magnitudes and signs.
    let mut rng = StdRng::seed_from_u64(0xED6E);
    for case in 0..400 {
        let scale = [1.0, 100.0, 1e5, 1e7][case % 4];
        let a_hi = rng.gen_range(-scale..scale);
        let mut b_lo = a_hi + range;
        let steps = rng.gen_range(0u32..=8) as i32 - 4;
        for _ in 0..steps.unsigned_abs() {
            b_lo = if steps > 0 { b_lo.next_up() } else { b_lo.next_down() };
        }
        assert_same_map(&facing_pair(a_hi, b_lo, Medium::WIFI2), &format!("edge case {case}"));
    }
}

#[test]
fn equal_x_shared_endpoints_plc_without_panel_and_ethernet() {
    let mut b = NetworkBuilder::new();
    let node = |b: &mut NetworkBuilder, x: f64, y: f64, panel: Option<u32>| {
        b.add_node(Point::new(x, y), ALL.to_vec(), panel.map(PanelId))
    };
    // A column of nodes at one x, 60 m apart in y, and a far node that
    // shares an endpoint with the column's top.
    let col: Vec<NodeId> = (0..4).map(|i| node(&mut b, 10.0, 60.0 * i as f64, Some(0))).collect();
    let far = node(&mut b, 500.0, 0.0, None);
    let bare = node(&mut b, 10.0, 30.0, None);
    for w in col.windows(2) {
        b.add_duplex(w[0], w[1], Medium::WIFI1, 10.0);
        b.add_duplex(w[0], w[1], Medium::Plc, 10.0);
        b.add_duplex(w[0], w[1], Medium::Ethernet, 10.0);
    }
    // Far apart in x, but one endpoint shared: they interfere.
    b.add_duplex(col[0], far, Medium::WIFI1, 10.0);
    b.add_duplex(col[3], far, Medium::WIFI1, 10.0);
    // PLC links whose transmitter has no panel interfere with nothing.
    b.add_duplex(bare, col[1], Medium::Plc, 10.0);
    b.add_duplex(far, bare, Medium::Plc, 10.0);
    b.add_duplex(bare, far, Medium::Ethernet, 10.0);
    let net = b.build();
    assert_same_map(&net, "hand-placed");
    let map = CarrierSense::default().build_map(&net);
    for l in net.links() {
        if l.medium == Medium::Ethernet || (l.medium.is_plc() && net.node(l.from).panel.is_none()) {
            assert_eq!(map.domain(l.id), [l.id], "{} interferes only with itself", l.id);
        }
    }
}

#[test]
fn ranges_outside_the_sweep_guard_fall_back_to_all_pairs() {
    let mut rng = StdRng::seed_from_u64(0x6A4D);
    let net = random_net(&mut rng, 30, 60, 0.0, 200.0);
    for range in [0.0, -5.0, 1e-200, 1e200, f64::INFINITY, f64::NAN] {
        let model = CarrierSense { wifi_sense_range_m: range };
        assert_same_map_with(&net, &model, &format!("range {range}"));
    }
}

#[test]
fn nan_and_infinite_coordinates_never_stop_the_sweep_early() {
    let mut b = NetworkBuilder::new();
    let xs = [f64::NAN, 0.0, 50.0, 200.0, f64::INFINITY, f64::NEG_INFINITY, 120.0];
    let ids: Vec<NodeId> =
        xs.iter().map(|&x| b.add_node(Point::new(x, 0.0), ALL.to_vec(), None)).collect();
    for (i, &u) in ids.iter().enumerate() {
        for &v in &ids[i + 1..] {
            b.add_duplex(u, v, Medium::WIFI1, 10.0);
        }
    }
    assert_same_map(&b.build(), "non-finite coordinates");
}
