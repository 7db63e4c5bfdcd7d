//! Property-based tests of the paper's core invariants, spanning crates.
//! Each property sweeps a deterministic seed list (the in-tree RNG
//! replaces proptest; the failing seed is in the assertion message).

use empower_core::model::topology::random::{generate, RandomTopologyConfig, TopologyClass};
use empower_core::model::{CarrierSense, InterferenceModel, Path};
use empower_core::routing::{best_combination, MultipathConfig, RouteQuery};
use empower_core::Scheme;
use empower_model::rng::{Rng, SeedableRng, StdRng};

const CASES: u64 = 24;

fn seeds(meta_seed: u64, below: u64) -> impl Iterator<Item = u64> {
    let mut meta = StdRng::seed_from_u64(meta_seed);
    (0..CASES).map(move |_| meta.gen_range(0..below))
}

/// Lemma 1 / R(P): a path's self-interference-aware capacity never
/// exceeds its weakest link, and is positive whenever all links live.
#[test]
fn path_capacity_is_bounded_by_bottleneck() {
    for seed in seeds(0xC001, 5000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = generate(&mut rng, &RandomTopologyConfig::new(TopologyClass::Residential));
        let imap = CarrierSense::default().build_map(&topo.net);
        let (src, dst) = topo.sample_flow(&mut rng);
        let routes = Scheme::Empower.compute_routes(&topo.net, &imap, src, dst, 5);
        for r in &routes.routes {
            let cap = r.path.capacity(&topo.net, &imap);
            let min_link = r
                .path
                .links()
                .iter()
                .map(|&l| topo.net.link(l).capacity_mbps)
                .fold(f64::INFINITY, f64::min);
            assert!(cap > 0.0, "seed {seed}");
            assert!(cap <= min_link + 1e-9, "seed {seed}: cap {cap} > min link {min_link}");
        }
    }
}

/// The §3.2 exploration tree never does worse than the single best
/// isolated route, and the nominal rates it reports are feasible under
/// constraint (2).
#[test]
fn multipath_dominates_single_path_and_is_feasible() {
    for seed in seeds(0xC002, 5000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = generate(&mut rng, &RandomTopologyConfig::new(TopologyClass::Residential));
        let imap = CarrierSense::default().build_map(&topo.net);
        let (src, dst) = topo.sample_flow(&mut rng);
        let q = RouteQuery::new(src, dst).with_mediums(&Scheme::Empower.mediums());
        let single = best_combination(
            &topo.net,
            &imap,
            &q,
            &MultipathConfig { max_depth: 1, ..Default::default() },
        );
        let multi = best_combination(&topo.net, &imap, &q, &MultipathConfig::default());
        assert!(multi.total_rate() >= single.total_rate() - 1e-9, "seed {seed}");
        // Nominal rates respect the airtime constraint.
        let mut ledger = empower_core::model::AirtimeLedger::new(&topo.net);
        for r in &multi.routes {
            ledger.add_route(&r.path, r.nominal_rate);
        }
        assert!(
            ledger.max_domain_airtime(&topo.net, &imap) <= 1.0 + 1e-6,
            "seed {seed}: nominal combination violates constraint (2)"
        );
    }
}

/// Scheme dominance: EMPoWER ≥ SP and EMPoWER ≥ SP-WiFi at equilibrium
/// (more mediums / more routes never hurt a single flow), and the
/// centralized references bound EMPoWER.
#[test]
fn scheme_partial_order_holds() {
    for seed in seeds(0xC003, 2000) {
        let (net, imap, flows) =
            empower_bench::sweep::make_instance(TopologyClass::Residential, seed, 1);
        let eq = |scheme| {
            empower_core::RunConfig::new(scheme).evaluate_equilibrium(&net, &imap, &flows).unwrap()
        };
        let emp = eq(Scheme::Empower);
        let sp = eq(Scheme::Sp);
        let spw = eq(Scheme::SpWifi);
        assert!(emp.flow_rates[0] >= sp.flow_rates[0] - 0.05, "seed {seed}: EMPoWER < SP");
        assert!(emp.flow_rates[0] >= spw.flow_rates[0] - 0.05, "seed {seed}: EMPoWER < SP-WiFi");
        let opt = empower_bench::sweep::reference(
            &net,
            &imap,
            &flows,
            empower_core::baselines::RegionKind::Cliques,
            0.0,
            &[],
        );
        let cons = empower_bench::sweep::reference(
            &net,
            &imap,
            &flows,
            empower_core::baselines::RegionKind::Conservative,
            0.0,
            &[],
        );
        assert!(opt.flow_rates[0] + 1e-6 >= cons.flow_rates[0], "seed {seed}");
    }
}

/// Validated paths survive a render/nodes round trip and stay loop-free.
#[test]
fn computed_routes_are_simple_paths() {
    for seed in seeds(0xC004, 5000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = generate(&mut rng, &RandomTopologyConfig::new(TopologyClass::Enterprise));
        let imap = CarrierSense::default().build_map(&topo.net);
        let (src, dst) = topo.sample_flow(&mut rng);
        for scheme in [Scheme::Empower, Scheme::Mp2bp, Scheme::MpMwifi] {
            for path in scheme.compute_routes(&topo.net, &imap, src, dst, 5).paths() {
                // Re-validate through the strict constructor.
                let again = Path::new(&topo.net, path.links().to_vec());
                assert!(again.is_ok(), "seed {seed}: scheme {scheme} produced an invalid path");
                assert_eq!(path.source(&topo.net), src, "seed {seed}");
                assert_eq!(path.destination(&topo.net), dst, "seed {seed}");
                assert!(path.hop_count() <= empower_core::datapath::MAX_HOPS, "seed {seed}");
            }
        }
    }
}
