//! Centralized network-utility maximization over a capacity region.
//!
//! `max Σ_f U_f(Σ_{r∈f} x_r)` over `{x ≥ 0 : A x ≤ b}` is solved by the
//! Frank–Wolfe (conditional-gradient) method: every iteration linearizes the
//! utility at the current point, solves the resulting LP exactly with the
//! dense simplex, and moves by an exact (ternary-search) line step. The
//! objective is concave and the region is a polytope, so the iterates
//! converge to the global optimum; with the LP solved exactly the duality
//! gap `∇U·(s − x)` is a certified optimality bound, which we expose.
//!
//! This gives the paper's two reference baselines:
//! `optimal` = clique region, `conservative opt` = constraint-(2) region
//! (§5.2.2), both with *centralized* knowledge — exactly what EMPoWER's
//! distributed controller is compared against.

use empower_cc::{CcProblem, Utility};

use crate::region::CapacityRegion;
use crate::simplex::solve_lp;

/// Result of a centralized solve.
#[derive(Debug, Clone)]
pub struct NumSolution {
    /// Optimal route rates.
    pub x: Vec<f64>,
    /// Per-flow totals.
    pub flow_rates: Vec<f64>,
    /// Achieved aggregate utility.
    pub utility: f64,
    /// Final Frank–Wolfe duality gap (≥ optimal − achieved).
    pub gap: f64,
}

/// Maximizes aggregate utility over `region`.
///
/// `iters` Frank–Wolfe iterations; 200–500 reaches well below 1 % error on
/// the evaluation topologies. For a *linear* utility the first iteration is
/// already exact.
pub fn maximize_utility<U: Utility>(
    problem: &CcProblem,
    region: &CapacityRegion,
    utility: &U,
    iters: usize,
) -> NumSolution {
    let n = problem.route_count();
    let b = vec![region.budget; region.rows.len()];
    let mut x = vec![0.0; n];
    let mut gap = f64::INFINITY;
    // The line search's point and its flow totals, reused by all of its
    // evaluations.
    let mut xt = vec![0.0; n];
    let mut xt_flows = Vec::new();

    for _ in 0..iters {
        let flow_rates = problem.flow_rates(&x);
        // ∇_x Σ U_f = U'_f(x_f) for every route of flow f.
        let grad: Vec<f64> =
            (0..n).map(|r| utility.deriv(flow_rates[problem.flow_of[r]])).collect();
        let Some(lp) = solve_lp(&grad, &region.rows, &b) else {
            // Unbounded region can only happen if some route crosses no
            // constrained link — physically impossible, but bail gracefully.
            break;
        };
        let s = lp.x;
        gap = grad.iter().zip(s.iter().zip(&x)).map(|(g, (si, xi))| g * (si - xi)).sum();
        if gap <= 1e-9 {
            break;
        }
        // Exact line search on the concave φ(θ) = U(x + θ (s − x)).
        let mut eval = |theta: f64| {
            for ((t, xi), si) in xt.iter_mut().zip(&x).zip(&s) {
                *t = xi + theta * (si - xi);
            }
            problem.flow_rates_into(&xt, &mut xt_flows);
            xt_flows.iter().map(|&f| utility.value(f)).sum::<f64>()
        };
        let mut lo = 0.0_f64;
        let mut hi = 1.0_f64;
        for _ in 0..60 {
            let m1 = lo + (hi - lo) / 3.0;
            let m2 = hi - (hi - lo) / 3.0;
            let (u1, u2) = (eval(m1), eval(m2));
            if u1 < u2 {
                lo = m1;
            } else {
                hi = m2;
            }
        }
        let theta = 0.5 * (lo + hi);
        for (xi, si) in x.iter_mut().zip(&s) {
            *xi += theta * (si - *xi);
        }
    }
    let flow_rates = problem.flow_rates(&x);
    let total_utility = flow_rates.iter().map(|&f| utility.value(f)).sum();
    NumSolution { x, flow_rates, utility: total_utility, gap: gap.max(0.0) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::RegionKind;
    use empower_cc::{Linear, ProportionalFair};
    use empower_model::topology::fig1_scenario;
    use empower_model::{InterferenceMap, InterferenceModel, Path, SharedMedium};

    fn fig1_problem() -> (CcProblem, InterferenceMap) {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let route1 = Path::new(&s.net, vec![s.plc_ab, s.wifi_bc]).unwrap();
        let route2 = Path::new(&s.net, vec![s.wifi_ab, s.wifi_bc]).unwrap();
        (CcProblem::new(&s.net, &imap, vec![vec![route1, route2]]), imap)
    }

    #[test]
    fn linear_utility_recovers_max_throughput() {
        let (p, imap) = fig1_problem();
        let region = CapacityRegion::build(&p, &imap, RegionKind::Conservative, 0.0);
        let sol = maximize_utility(&p, &region, &Linear { weight: 1.0 }, 50);
        let total: f64 = sol.flow_rates.iter().sum();
        assert!((total - 50.0 / 3.0).abs() < 1e-6, "total {total}");
    }

    #[test]
    fn proportional_fair_single_flow_also_maxes_throughput() {
        // With one flow, any increasing utility maximizes total rate.
        let (p, imap) = fig1_problem();
        let region = CapacityRegion::build(&p, &imap, RegionKind::Conservative, 0.0);
        let sol = maximize_utility(&p, &region, &ProportionalFair, 300);
        let total: f64 = sol.flow_rates.iter().sum();
        assert!((total - 50.0 / 3.0).abs() < 1e-3, "total {total}");
        assert!(sol.gap < 1e-3);
    }

    #[test]
    fn matches_the_distributed_controller_equilibrium() {
        // The centralized conservative optimum must agree with what the
        // distributed controller converges to (§5.2.2 claims EMPoWER ≈
        // conservative opt when routing finds the right routes).
        let (p, imap) = fig1_problem();
        let region = CapacityRegion::build(&p, &imap, RegionKind::Conservative, 0.0);
        let sol = maximize_utility(&p, &region, &ProportionalFair, 300);
        let mut c = empower_cc::MultipathController::new(
            &p,
            ProportionalFair,
            empower_cc::CcConfig::default(),
        );
        for _ in 0..5000 {
            c.step(&p, &imap);
        }
        let distributed: f64 = c.rates().iter().sum();
        let central: f64 = sol.flow_rates.iter().sum();
        assert!((distributed - central).abs() < 0.1, "{distributed} vs {central}");
    }

    #[test]
    fn two_flow_fair_split_matches_lagrangian_solution() {
        // Two single-route flows on one shared 20/10 Mbps domain (see the
        // controller test): PF optimum (10.5, 4.75).
        use empower_model::topology::fig3_scenario;
        let s = fig3_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let pa = Path::new(&s.net, vec![s.route1[0]]).unwrap();
        let pb = Path::new(&s.net, s.route3.to_vec()).unwrap();
        let p = CcProblem::new(&s.net, &imap, vec![vec![pa], vec![pb]]);
        let region = CapacityRegion::build(&p, &imap, RegionKind::Conservative, 0.0);
        let sol = maximize_utility(&p, &region, &ProportionalFair, 400);
        assert!((sol.flow_rates[0] - 10.5).abs() < 0.05, "{:?}", sol.flow_rates);
        assert!((sol.flow_rates[1] - 4.75).abs() < 0.05, "{:?}", sol.flow_rates);
    }

    #[test]
    fn solution_is_feasible() {
        let (p, imap) = fig1_problem();
        let region = CapacityRegion::build(&p, &imap, RegionKind::Conservative, 0.0);
        let sol = maximize_utility(&p, &region, &ProportionalFair, 200);
        assert!(region.contains(&sol.x));
    }

    #[test]
    fn delta_margin_lowers_the_optimum() {
        let (p, imap) = fig1_problem();
        let tight = CapacityRegion::build(&p, &imap, RegionKind::Conservative, 0.3);
        let loose = CapacityRegion::build(&p, &imap, RegionKind::Conservative, 0.0);
        let ut = maximize_utility(&p, &tight, &Linear { weight: 1.0 }, 50);
        let ul = maximize_utility(&p, &loose, &Linear { weight: 1.0 }, 50);
        assert!(ut.utility < ul.utility);
        assert!((ut.utility - 0.7 * ul.utility).abs() < 1e-6, "scales with budget");
    }
}
