//! Accuracy of the centralized optimum (`empower_baselines::maximize_utility`).
//!
//! On seeded draws of the §5 topologies (EMPoWER routes, the conservative
//! region of constraint (2), δ = 0, `log(1 + x)`), every solve must stop on
//! its certified gap within `MAX_ITERATIONS`, a one-flow solve within 10
//! iterations, and its flow totals must agree within 0.1 % with a solve
//! certified to a relative gap of 10⁻¹³. Flow totals are compared, not
//! route rates: at the optimum the split over a flow's routes is not
//! unique.
//!
//! Tier-1 runs 18 draws. The full set, 40 seeds × {residential,
//! enterprise} × {1, 3} flows, is `#[ignore]`d; run it with
//! `cargo test --release --test centralized_optimum -- --ignored`
//! (full-mode `ci.sh` does).

use empower_baselines::{
    maximize_utility, reference_optimum, CapacityRegion, RegionKind, GAP_TOL, MAX_ITERATIONS,
};
use empower_bench::sweep::make_instance;
use empower_cc::{CcProblem, ProportionalFair};
use empower_core::{Scheme, N_SHORTEST};
use empower_model::topology::random::TopologyClass;

/// What one draw measured: the production solve's iterations and its
/// worst relative per-flow error against the reference.
struct Draw {
    iterations: usize,
    error: f64,
}

/// Solves draw (`class`, `seed`, `flows`) both ways and asserts the
/// certificates; `None` when no flow of the draw is connected.
fn draw(class: TopologyClass, seed: u64, flows: usize) -> Option<Draw> {
    let (net, imap, pairs) = make_instance(class, seed, flows);
    let routes: Vec<_> = pairs
        .iter()
        .map(|&(s, d)| Scheme::Empower.compute_routes(&net, &imap, s, d, N_SHORTEST).paths())
        .filter(|paths| !paths.is_empty())
        .collect();
    if routes.is_empty() {
        return None;
    }
    let problem = CcProblem::new(&net, &imap, routes);
    let region = CapacityRegion::build(&problem, &imap, RegionKind::Conservative, 0.0);
    let sol = maximize_utility(&problem, &region, &ProportionalFair);
    let reference = reference_optimum(&problem, &region, &ProportionalFair);
    let what = format!("{class:?} seed {seed}, {flows} flow(s)");
    assert!(
        sol.gap <= GAP_TOL && sol.iterations <= MAX_ITERATIONS,
        "{what}: gap {:e} after {} iterations",
        sol.gap,
        sol.iterations
    );
    assert!(reference.gap <= 1e-13, "{what}: reference gap {:e}", reference.gap);
    if flows == 1 {
        assert!(sol.iterations <= 10, "{what}: {} iterations", sol.iterations);
    }
    let error = sol
        .flow_rates
        .iter()
        .zip(&reference.flow_rates)
        .map(|(a, b)| (a - b).abs() / b.abs().max(1e-9))
        .fold(0.0, f64::max);
    assert!(
        error <= 1e-3,
        "{what}: flow totals {:?} vs {:?}",
        sol.flow_rates,
        reference.flow_rates
    );
    Some(Draw { iterations: sol.iterations, error })
}

/// Runs every draw of `seeds` × both classes × `flow_counts` and prints,
/// per class and flow count, the median and largest iteration count and
/// the worst per-flow error.
fn sweep(seeds: impl Iterator<Item = u64> + Clone, flow_counts: &[usize]) {
    for class in [TopologyClass::Residential, TopologyClass::Enterprise] {
        for &flows in flow_counts {
            let mut draws: Vec<Draw> =
                seeds.clone().filter_map(|seed| draw(class, seed, flows)).collect();
            assert!(!draws.is_empty(), "{class:?}, {flows} flow(s): no connected draw");
            draws.sort_by_key(|d| d.iterations);
            let worst = draws.iter().map(|d| d.error).fold(0.0, f64::max);
            println!(
                "{class:?}, {flows} flow(s): {} draws, iterations median {} max {}, \
                 worst per-flow error {worst:.1e}",
                draws.len(),
                draws[draws.len() / 2].iterations,
                draws[draws.len() - 1].iterations,
            );
        }
    }
}

#[test]
fn three_flow_draws_certify_and_match_the_reference() {
    sweep(1..=8, &[3]);
}

#[test]
fn one_flow_draws_certify_within_ten_iterations() {
    sweep(1..=1, &[1]);
}

#[test]
#[ignore = "the full 160 draws; run with --release -- --ignored"]
fn all_160_draws_certify_and_match_the_reference() {
    sweep(1..=40, &[1, 3]);
}
