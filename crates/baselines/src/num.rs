//! Centralized network-utility maximization over a capacity region.
//!
//! `max Σ_f U_f(Σ_{r∈f} x_r)` over `{x ≥ 0 : A x ≤ b}` is solved by
//! blended pairwise Frank–Wolfe (the pairwise step of Lacoste-Julien and
//! Jaggi, "On the Global Linear Convergence of Frank-Wolfe Optimization
//! Variants", NeurIPS 2015, blended with local steps as in Tsuji, Tanaka
//! and Pokutta, "Pairwise Conditional Gradients without Swap Steps",
//! ICML 2022). The iterate is kept as a convex combination of vertices of
//! the region (the active set), each one an answer of the LP oracle: the
//! dense simplex, solved exactly on the linearized utility. Every
//! iteration calls the LP once and moves weight from the active vertex the
//! gradient likes least (the *away* vertex) to the LP vertex. Then, with no
//! further LP call, it moves weight from the worst to the best active
//! vertex while that promises more than half of what the LP vertex did.
//! Each move is an exact line search on the derivative over flow totals.
//! The utility is strictly concave in the flow totals and the region is a
//! polytope, so the iterates converge linearly to the global optimum, and
//! the duality gap `∇U(x)·(s − x)` of the exact LP vertex `s` is a
//! certified bound on how far the utility is from it. The solver stops on
//! that certificate.
//!
//! This gives the paper's two reference baselines:
//! `optimal` = clique region, `conservative opt` = constraint-(2) region
//! (§5.2.2), both with *centralized* knowledge — exactly what EMPoWER's
//! distributed controller is compared against.

use empower_cc::{CcProblem, Utility};

use crate::region::CapacityRegion;
use crate::simplex::solve_lp;

/// The certified stop: a solve ends once `∇U(x)·(s − x) ≤ GAP_TOL·∇U(x)·x`.
/// Both sides scale alike with `U`, so the test means the same for
/// `log(1 + x)` and for an α-fair utility whose gradient is 10⁻¹².
pub const GAP_TOL: f64 = 1e-6;

/// The one iteration cap: LP oracle calls per solve. The evaluation's
/// three-flow problems certify in at most about 20; a solve that reaches
/// the cap reports its gap uncertified.
pub const MAX_ITERATIONS: usize = 300;

/// The most local steps between two LP calls. It only bounds the work of a
/// local problem that converges slowly; the next LP call then goes on.
const MAX_LOCAL_STEPS: usize = 1000;

/// [`reference_optimum`]'s stop and cap: tight enough that its flow totals
/// are the optimum's to every digit an accuracy check reads.
const REFERENCE_GAP_TOL: f64 = 1e-13;
const REFERENCE_MAX_ITERATIONS: usize = 10_000;

/// Result of a centralized solve.
#[derive(Debug, Clone)]
pub struct NumSolution {
    /// Optimal route rates (not unique at the optimum; the flow totals are).
    pub x: Vec<f64>,
    /// Per-flow totals.
    pub flow_rates: Vec<f64>,
    /// Achieved aggregate utility.
    pub utility: f64,
    /// Certified relative duality gap at `x`: `∇U(x)·(s − x) / ∇U(x)·x`.
    /// The optimum's utility exceeds `utility` by at most `gap·∇U(x)·x`.
    pub gap: f64,
    /// LP oracle calls the solve made, at most [`MAX_ITERATIONS`].
    pub iterations: usize,
}

impl NumSolution {
    /// True if the solve stopped on its certificate, not on the cap.
    pub fn certified(&self) -> bool {
        self.gap <= GAP_TOL
    }
}

/// Maximizes aggregate utility over `region`.
///
/// Stops when the relative duality gap is at most [`GAP_TOL`], or after
/// [`MAX_ITERATIONS`] LP oracle calls; [`NumSolution::gap`] and
/// [`NumSolution::certified`] say which. A one-flow problem certifies in
/// 2 iterations (every route of the flow has the same gradient, so the
/// first LP vertex is the optimum), as does any *linear* utility.
pub fn maximize_utility<U: Utility>(
    problem: &CcProblem,
    region: &CapacityRegion,
    utility: &U,
) -> NumSolution {
    solve(problem, region, utility, GAP_TOL, MAX_ITERATIONS)
}

/// [`maximize_utility`] solved to a relative gap of 10⁻¹³: the reference
/// that accuracy checks hold the production solve to.
pub fn reference_optimum<U: Utility>(
    problem: &CcProblem,
    region: &CapacityRegion,
    utility: &U,
) -> NumSolution {
    solve(problem, region, utility, REFERENCE_GAP_TOL, REFERENCE_MAX_ITERATIONS)
}

/// `Σ_f g_f y_f`: the gradient applied to a point with flow totals `y`.
/// `U` depends on the flow totals alone, so this is `∇U·x` for any `x` with
/// those totals.
fn dot(g: &[f64], y: &[f64]) -> f64 {
    g.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// A vertex of the region in the active set: its route rates, their flow
/// totals, and its weight in the iterate.
struct Atom {
    x: Vec<f64>,
    flows: Vec<f64>,
    weight: f64,
}

/// The iterate, as weights on LP vertices that sum to 1.
struct ActiveSet(Vec<Atom>);

impl ActiveSet {
    /// Writes the iterate's flow totals and the gradient `U'(x_f)` there.
    /// Both come from the vertices, so they never drift from a convex
    /// combination of them.
    fn gradient<U: Utility>(&self, utility: &U, xf: &mut [f64], grad_f: &mut [f64]) {
        xf.fill(0.0);
        for a in &self.0 {
            for (t, v) in xf.iter_mut().zip(&a.flows) {
                *t += a.weight * v;
            }
        }
        for (g, &x) in grad_f.iter_mut().zip(xf.iter()) {
            *g = utility.deriv(x);
        }
    }

    /// The index of vertex `x`, added with no weight if it is new.
    fn insert(&mut self, x: Vec<f64>, flows: Vec<f64>) -> usize {
        let same =
            |a: &Atom| a.x.iter().zip(&x).all(|(p, q)| (p - q).abs() <= 1e-12 * p.abs().max(1.0));
        match self.0.iter().position(same) {
            Some(i) => i,
            None => {
                self.0.push(Atom { x, flows, weight: 0.0 });
                self.0.len() - 1
            }
        }
    }

    /// The vertices of most and of least gradient value, with the
    /// difference of their values.
    fn extremes(&self, grad_f: &[f64]) -> (usize, usize, f64) {
        let (mut best, mut worst) = (0, 0);
        let (mut hi, mut lo) = (f64::NEG_INFINITY, f64::INFINITY);
        for (i, a) in self.0.iter().enumerate() {
            let v = dot(grad_f, &a.flows);
            if v > hi {
                (best, hi) = (i, v);
            }
            if v < lo {
                (worst, lo) = (i, v);
            }
        }
        (best, worst, hi - lo)
    }

    /// Moves weight from vertex `from` to vertex `to`, as much as the exact
    /// line search along `to − from` says; a move that empties `from`
    /// drops it.
    fn pairwise<U: Utility>(
        &mut self,
        to: usize,
        from: usize,
        utility: &U,
        xf: &[f64],
        d: &mut [f64],
    ) {
        if to == from {
            return; // every active vertex has the same value: nothing to move
        }
        for ((dv, s), v) in d.iter_mut().zip(&self.0[to].flows).zip(&self.0[from].flows) {
            *dv = s - v;
        }
        let max_step = self.0[from].weight;
        let step = line_search(utility, xf, d, max_step);
        self.0[to].weight += step;
        if step >= max_step {
            self.0.swap_remove(from);
        } else {
            self.0[from].weight -= step;
        }
    }
}

/// Blended pairwise Frank–Wolfe to a relative gap of `gap_tol`, or
/// `max_iterations` LP oracle calls.
fn solve<U: Utility>(
    problem: &CcProblem,
    region: &CapacityRegion,
    utility: &U,
    gap_tol: f64,
    max_iterations: usize,
) -> NumSolution {
    let n = problem.route_count();
    let flows = problem.flow_count();
    let b = vec![region.budget; region.rows.len()];
    // The origin is a vertex of every region, and the start.
    let mut active =
        ActiveSet(vec![Atom { x: vec![0.0; n], flows: vec![0.0; flows], weight: 1.0 }]);
    let mut xf = vec![0.0; flows];
    let mut grad_f = vec![0.0; flows];
    let mut grad = vec![0.0; n];
    let mut d = vec![0.0; flows];
    let mut gap = f64::INFINITY;
    let mut iterations = 0;
    while iterations < max_iterations {
        iterations += 1;
        active.gradient(utility, &mut xf, &mut grad_f);
        // ∇_x Σ U_f = U'_f(x_f) for every route of flow f.
        for (g, &f) in grad.iter_mut().zip(&problem.flow_of) {
            *g = grad_f[f];
        }
        let Some(lp) = solve_lp(&grad, &region.rows, &b) else {
            // Unbounded region can only happen if some route crosses no
            // constrained link — physically impossible, but bail gracefully.
            break;
        };
        let s_flows = problem.flow_rates(&lp.x);
        let scale = dot(&grad_f, &xf);
        let fw_gap = dot(&grad_f, &s_flows) - scale;
        gap = if fw_gap <= 0.0 { 0.0 } else { fw_gap / scale };
        if gap <= gap_tol || iterations == max_iterations {
            break;
        }
        // The pairwise step: from the away vertex to the LP vertex.
        let to = active.insert(lp.x, s_flows);
        let (_, away, _) = active.extremes(&grad_f);
        active.pairwise(to, away, utility, &xf, &mut d);
        // Local steps, from the worst active vertex to the best, while
        // they promise more than half of the LP vertex's gap.
        for _ in 0..MAX_LOCAL_STEPS {
            active.gradient(utility, &mut xf, &mut grad_f);
            let (best, worst, local_gap) = active.extremes(&grad_f);
            if local_gap <= 0.5 * fw_gap {
                break;
            }
            active.pairwise(best, worst, utility, &xf, &mut d);
        }
    }
    let mut x = vec![0.0; n];
    for a in &active.0 {
        for (t, v) in x.iter_mut().zip(&a.x) {
            *t += a.weight * v;
        }
    }
    let flow_rates = problem.flow_rates(&x);
    let total_utility = flow_rates.iter().map(|&f| utility.value(f)).sum();
    NumSolution { x, flow_rates, utility: total_utility, gap, iterations }
}

/// The maximizer over `θ ∈ [0, max_step]` of the concave
/// `φ(θ) = Σ_f U(x_f + θ d_f)`, by bisection on its decreasing derivative
/// `φ'(θ) = Σ_f d_f U'(x_f + θ d_f)` — no `U` evaluation, and one pass over
/// the flows (not the routes) per step.
fn line_search<U: Utility>(utility: &U, xf: &[f64], d: &[f64], max_step: f64) -> f64 {
    let slope = |theta: f64| -> f64 {
        xf.iter().zip(d).map(|(&x, &dv)| dv * utility.deriv(x + theta * dv)).sum()
    };
    if slope(max_step) >= 0.0 {
        return max_step;
    }
    // 64 halvings leave a bracket of `max_step·2⁻⁶⁴`; `lo` keeps φ' ≥ 0,
    // so the step never overshoots the maximizer.
    let (mut lo, mut hi) = (0.0_f64, max_step);
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if slope(mid) >= 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
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
        let sol = maximize_utility(&p, &region, &Linear { weight: 1.0 });
        let total: f64 = sol.flow_rates.iter().sum();
        assert!((total - 50.0 / 3.0).abs() < 1e-6, "total {total}");
    }

    #[test]
    fn proportional_fair_single_flow_also_maxes_throughput() {
        // With one flow, any increasing utility maximizes total rate.
        let (p, imap) = fig1_problem();
        let region = CapacityRegion::build(&p, &imap, RegionKind::Conservative, 0.0);
        let sol = maximize_utility(&p, &region, &ProportionalFair);
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
        let sol = maximize_utility(&p, &region, &ProportionalFair);
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
        let sol = maximize_utility(&p, &region, &ProportionalFair);
        assert!((sol.flow_rates[0] - 10.5).abs() < 0.05, "{:?}", sol.flow_rates);
        assert!((sol.flow_rates[1] - 4.75).abs() < 0.05, "{:?}", sol.flow_rates);
    }

    #[test]
    fn one_flow_certifies_in_two_iterations() {
        // Every route of the flow has the same gradient, so the first LP
        // vertex is the optimum and the second call certifies it.
        let (p, imap) = fig1_problem();
        let region = CapacityRegion::build(&p, &imap, RegionKind::Conservative, 0.0);
        let sol = maximize_utility(&p, &region, &ProportionalFair);
        assert_eq!(sol.iterations, 2);
        assert!(sol.certified(), "gap {}", sol.gap);
    }

    #[test]
    fn tiny_gradients_still_reach_the_optimum() {
        // α = 8 on the Fig. 3 pair: U' is 10⁻⁸–10⁻¹² around the optimum.
        // The solve must agree with its tight reference, not stop at the
        // origin on a falsely certified gap.
        use empower_cc::AlphaFair;
        use empower_model::topology::fig3_scenario;
        let s = fig3_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let pa = Path::new(&s.net, vec![s.route1[0]]).unwrap();
        let pb = Path::new(&s.net, s.route3.to_vec()).unwrap();
        let p = CcProblem::new(&s.net, &imap, vec![vec![pa], vec![pb]]);
        let region = CapacityRegion::build(&p, &imap, RegionKind::Conservative, 0.0);
        let u = AlphaFair::new(8.0);
        let sol = maximize_utility(&p, &region, &u);
        let reference = reference_optimum(&p, &region, &u);
        assert!(sol.certified() && reference.gap <= REFERENCE_GAP_TOL);
        for (a, b) in sol.flow_rates.iter().zip(&reference.flow_rates) {
            assert!(*b > 1.0 && (a - b).abs() <= 1e-3 * b, "{a} vs {b}");
        }
    }

    #[test]
    fn solution_is_feasible() {
        let (p, imap) = fig1_problem();
        let region = CapacityRegion::build(&p, &imap, RegionKind::Conservative, 0.0);
        let sol = maximize_utility(&p, &region, &ProportionalFair);
        assert!(region.contains(&sol.x));
    }

    #[test]
    fn delta_margin_lowers_the_optimum() {
        let (p, imap) = fig1_problem();
        let tight = CapacityRegion::build(&p, &imap, RegionKind::Conservative, 0.3);
        let loose = CapacityRegion::build(&p, &imap, RegionKind::Conservative, 0.0);
        let ut = maximize_utility(&p, &tight, &Linear { weight: 1.0 });
        let ul = maximize_utility(&p, &loose, &Linear { weight: 1.0 });
        assert!(ut.utility < ul.utility);
        assert!((ut.utility - 0.7 * ul.utility).abs() < 1e-6, "scales with budget");
    }
}
