//! Equivalence oracle for the incremental exploration engine: across a
//! seeded corpus of random §5.1 topologies, [`Explorer::best_combination`]
//! must return a `RouteSet` that is *bit-identical* (same link sequences,
//! same `f64` bits of every nominal rate) to the retained exhaustive
//! reference — the pre-optimization cloning implementation.
//!
//! Set `EMPOWER_EQUIV_TOPOLOGIES` to override the corpus size (CI quick
//! mode uses a smaller corpus; the default exercises 50 topologies).

use empower_model::rng::{SeedableRng, StdRng};
use empower_model::topology::random::{generate, RandomTopologyConfig, TopologyClass};
use empower_model::{CarrierSense, InterferenceModel};
use empower_routing::{
    best_combination_reference_counted, Explorer, MultipathConfig, RouteQuery, RouteSet,
};

/// Tree nodes the optimized engine may expand on the pinned budget
/// workload below (331 today; ~3 % headroom for benign search-order churn).
const MAX_NODES_EXPANDED: u64 = 340;
/// Floor on reference / optimized expansions on the same workload (1576 /
/// 331 = 4.76 today).
const MIN_EXPANSION_RATIO: f64 = 4.5;

fn parse_corpus_size(raw: &str) -> usize {
    raw.parse().unwrap_or_else(|_| panic!("EMPOWER_EQUIV_TOPOLOGIES={raw} is not a topology count"))
}

fn corpus_size() -> usize {
    std::env::var_os("EMPOWER_EQUIV_TOPOLOGIES")
        .map_or(50, |v| parse_corpus_size(&v.to_string_lossy()))
}

#[test]
#[should_panic(expected = "EMPOWER_EQUIV_TOPOLOGIES=ten is not a topology count")]
fn an_unparsable_corpus_size_is_an_error() {
    parse_corpus_size("ten");
}

fn assert_bit_identical(seed: u64, flow: usize, opt: &RouteSet, reference: &RouteSet) {
    assert_eq!(
        opt.len(),
        reference.len(),
        "seed {seed} flow {flow}: route count {} vs {}",
        opt.len(),
        reference.len()
    );
    for (i, (a, b)) in opt.routes.iter().zip(&reference.routes).enumerate() {
        assert_eq!(
            a.path.links(),
            b.path.links(),
            "seed {seed} flow {flow}: route {i} link sequence differs"
        );
        assert_eq!(
            a.nominal_rate.to_bits(),
            b.nominal_rate.to_bits(),
            "seed {seed} flow {flow}: route {i} rate {} vs {} (bits differ)",
            a.nominal_rate,
            b.nominal_rate
        );
    }
}

#[test]
fn explorer_is_bit_identical_to_exhaustive_reference() {
    let config = MultipathConfig::default();
    // One Explorer across the whole corpus: workspace reuse must not leak
    // state between queries.
    let mut explorer = Explorer::new();
    let mut total_opt_nodes = 0u64;
    let mut total_ref_nodes = 0u64;
    for i in 0..corpus_size() {
        let seed = 0xE9_0000 + i as u64;
        let class = if i % 2 == 0 { TopologyClass::Residential } else { TopologyClass::Enterprise };
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = generate(&mut rng, &RandomTopologyConfig::new(class));
        let imap = CarrierSense::default().build_map(&topo.net);
        for flow in 0..2 {
            let (src, dst) = topo.sample_flow(&mut rng);
            let query = RouteQuery::new(src, dst);
            let opt = explorer.best_combination(&topo.net, &imap, &query, &config);
            let (reference, ref_stats) =
                best_combination_reference_counted(&topo.net, &imap, &query, &config);
            assert_bit_identical(seed, flow, &opt, &reference);
            total_ref_nodes += ref_stats.nodes_expanded;
        }
        // Exercise a medium-restricted query too (WiFi-only), which stresses
        // the disconnected / single-route corners of the search.
        let (src, dst) = topo.sample_flow(&mut rng);
        let query = RouteQuery::new(src, dst).with_mediums(&[empower_model::Medium::WIFI1]);
        let opt = explorer.best_combination(&topo.net, &imap, &query, &config);
        let (reference, ref_stats) =
            best_combination_reference_counted(&topo.net, &imap, &query, &config);
        assert_bit_identical(seed, 2, &opt, &reference);
        total_ref_nodes += ref_stats.nodes_expanded;
    }
    total_opt_nodes += explorer.stats().nodes_expanded;
    // The branch-and-bound engine must do strictly less tree work than the
    // exhaustive reference over the corpus.
    assert!(
        total_opt_nodes < total_ref_nodes,
        "optimized expanded {total_opt_nodes} nodes vs reference {total_ref_nodes}"
    );
}

/// The deterministic work budget, on a workload pinned independently of
/// `EMPOWER_EQUIV_TOPOLOGIES`: seeds 1–8, alternating residential /
/// enterprise topologies, two sampled flows each.
#[test]
fn explorer_stays_within_its_expansion_budget() {
    let config = MultipathConfig::default();
    let mut explorer = Explorer::new();
    let mut ref_nodes = 0u64;
    for i in 0..8 {
        let seed = 1 + i as u64;
        let class = if i % 2 == 0 { TopologyClass::Residential } else { TopologyClass::Enterprise };
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = generate(&mut rng, &RandomTopologyConfig::new(class));
        let imap = CarrierSense::default().build_map(&topo.net);
        for flow in 0..2 {
            let (src, dst) = topo.sample_flow(&mut rng);
            let query = RouteQuery::new(src, dst);
            let opt = explorer.best_combination(&topo.net, &imap, &query, &config);
            let (reference, ref_stats) =
                best_combination_reference_counted(&topo.net, &imap, &query, &config);
            assert_bit_identical(seed, flow, &opt, &reference);
            ref_nodes += ref_stats.nodes_expanded;
        }
    }
    let opt_nodes = explorer.stats().nodes_expanded;
    assert!(
        opt_nodes <= MAX_NODES_EXPANDED,
        "{opt_nodes} tree nodes expanded exceed the budget of {MAX_NODES_EXPANDED}"
    );
    let ratio = ref_nodes as f64 / opt_nodes.max(1) as f64;
    assert!(
        ratio >= MIN_EXPANSION_RATIO,
        "reference/optimized expansion ratio {ratio:.2} fell below {MIN_EXPANSION_RATIO}"
    );
}
