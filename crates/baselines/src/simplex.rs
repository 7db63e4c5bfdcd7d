//! A small dense-simplex solver for `max cᵀx  s.t.  Ax ≤ b, x ≥ 0`.
//!
//! The capacity-region LPs of this crate are tiny (hundreds of route
//! variables, tens of airtime constraints, `b = 1`), so a straightforward
//! tableau simplex with Bland's anti-cycling rule is exact, fast, and free
//! of external dependencies. All right-hand sides are non-negative in our
//! use (airtime budgets), so the initial slack basis is always feasible.

/// Result of an LP solve.
#[derive(Debug, Clone)]
pub struct LpOutcome {
    /// Optimal primal solution.
    pub x: Vec<f64>,
    /// Optimal objective value.
    pub objective: f64,
}

/// Solves `max cᵀx` subject to `Ax ≤ b`, `x ≥ 0`.
///
/// `a` is row-major (`a[i]` is constraint row `i`). Every `b[i]` must be
/// ≥ 0. Returns `None` if the problem is unbounded.
///
/// # Panics
/// Panics on dimension mismatches or negative `b`.
pub fn solve_lp(c: &[f64], a: &[Vec<f64>], b: &[f64]) -> Option<LpOutcome> {
    let n = c.len();
    let m = a.len();
    assert_eq!(b.len(), m, "one rhs per row");
    for (i, row) in a.iter().enumerate() {
        assert_eq!(row.len(), n, "row {i} has wrong width");
        assert!(b[i] >= 0.0, "rhs must be non-negative (row {i}: {})", b[i]);
    }
    if n == 0 {
        return Some(LpOutcome { x: Vec::new(), objective: 0.0 });
    }

    // Tableau: m rows × (n + m + 1) columns (variables, slacks, rhs).
    let cols = n + m + 1;
    let mut t = vec![vec![0.0; cols]; m];
    for i in 0..m {
        t[i][..n].copy_from_slice(&a[i]);
        t[i][n + i] = 1.0;
        t[i][cols - 1] = b[i];
    }
    // Objective row: minimize -cᵀx, with `c` scaled to a largest entry of
    // 1 so that the reduced-cost tolerance is relative: a positive multiple
    // of `c` (a gradient of 10⁻¹², say) has the same optimal vertex.
    let c_max = c.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    let c_scale = if c_max > 0.0 { c_max } else { 1.0 };
    let mut obj = vec![0.0; cols];
    for j in 0..n {
        obj[j] = -c[j] / c_scale;
    }
    let mut basis: Vec<usize> = (n..n + m).collect();

    const EPS: f64 = 1e-9;
    let max_iters = 50 * (n + m) * (m + 1).max(10);
    for _ in 0..max_iters {
        // Entering column: most negative reduced cost (Dantzig), Bland on
        // near-ties to avoid cycling.
        let mut enter = None;
        let mut best = -EPS;
        for (j, &oj) in obj.iter().enumerate().take(cols - 1) {
            if oj < best {
                best = oj;
                enter = Some(j);
            }
        }
        let Some(enter) = enter else {
            // Optimal.
            let mut x = vec![0.0; n];
            for (i, &bv) in basis.iter().enumerate() {
                if bv < n {
                    x[bv] = t[i][cols - 1];
                }
            }
            let objective = c.iter().zip(&x).map(|(ci, xi)| ci * xi).sum();
            return Some(LpOutcome { x, objective });
        };
        // Ratio test.
        let mut leave = None;
        let mut best_ratio = f64::INFINITY;
        for i in 0..m {
            if t[i][enter] > EPS {
                let ratio = t[i][cols - 1] / t[i][enter];
                if ratio < best_ratio - EPS
                    || (ratio < best_ratio + EPS
                        && leave.is_none_or(|l: usize| basis[i] < basis[l]))
                {
                    best_ratio = ratio;
                    leave = Some(i);
                }
            }
        }
        let Some(leave) = leave else {
            return None; // unbounded
        };
        // Pivot.
        let pivot = t[leave][enter];
        for v in t[leave].iter_mut() {
            *v /= pivot;
        }
        for i in 0..m {
            if i != leave && t[i][enter].abs() > EPS {
                let factor = t[i][enter];
                // Two rows of the same tableau: split to borrow disjointly.
                let (head, tail) = t.split_at_mut(i.max(leave));
                let (row, pivot_row) =
                    if i < leave { (&mut head[i], &tail[0]) } else { (&mut tail[0], &head[leave]) };
                for (v, pv) in row.iter_mut().zip(pivot_row) {
                    *v -= factor * pv;
                }
            }
        }
        if obj[enter].abs() > EPS {
            let factor = obj[enter];
            for (o, tv) in obj.iter_mut().zip(&t[leave]) {
                *o -= factor * tv;
            }
        }
        basis[leave] = enter;
    }
    // Iteration cap hit: return the current (feasible) basic solution.
    let mut x = vec![0.0; n];
    for (i, &bv) in basis.iter().enumerate() {
        if bv < n {
            x[bv] = t[i][cols - 1];
        }
    }
    let objective = c.iter().zip(&x).map(|(ci, xi)| ci * xi).sum();
    Some(LpOutcome { x, objective })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_a_textbook_lp() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → (2, 6), obj 36.
        let out = solve_lp(
            &[3.0, 5.0],
            &[vec![1.0, 0.0], vec![0.0, 2.0], vec![3.0, 2.0]],
            &[4.0, 12.0, 18.0],
        )
        .unwrap();
        assert!((out.objective - 36.0).abs() < 1e-9);
        assert!((out.x[0] - 2.0).abs() < 1e-9);
        assert!((out.x[1] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn detects_unbounded() {
        // max x with no binding constraint.
        assert!(solve_lp(&[1.0], &[vec![-1.0]], &[1.0]).is_none());
    }

    #[test]
    fn zero_objective_is_fine() {
        let out = solve_lp(&[0.0, 0.0], &[vec![1.0, 1.0]], &[1.0]).unwrap();
        assert_eq!(out.objective, 0.0);
    }

    #[test]
    fn degenerate_constraints_do_not_cycle() {
        // Multiple identical rows.
        let out = solve_lp(
            &[1.0, 1.0],
            &[vec![1.0, 1.0], vec![1.0, 1.0], vec![1.0, 1.0]],
            &[1.0, 1.0, 1.0],
        )
        .unwrap();
        assert!((out.objective - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fig1_airtime_lp_matches_hand_computation() {
        // Route variables (x1 = hybrid route, x2 = wifi-wifi route) under
        // the Fig. 1 airtime constraints:
        //   PLC domain:  x1/10 ≤ 1
        //   WiFi domain: x1/30 + x2(1/15 + 1/30) ≤ 1
        // max x1 + x2 → x1 = 10, x2 = 20/3.
        let out =
            solve_lp(&[1.0, 1.0], &[vec![0.1, 0.0], vec![1.0 / 30.0, 0.1]], &[1.0, 1.0]).unwrap();
        assert!((out.x[0] - 10.0).abs() < 1e-9);
        assert!((out.x[1] - 20.0 / 3.0).abs() < 1e-9);
        assert!((out.objective - 50.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn scaling_the_objective_keeps_the_vertex() {
        // The Fig. 1 LP with weights (1, 2): the vertex (10, 20/3). At a scale
        // of 10⁻¹² every reduced cost is below an absolute 1e-9 tolerance,
        // so an unscaled simplex would stop at the origin.
        let (a, b) = (vec![vec![0.1, 0.0], vec![1.0 / 30.0, 0.1]], [1.0, 1.0]);
        let unit = solve_lp(&[1.0, 2.0], &a, &b).unwrap();
        let tiny = solve_lp(&[1e-12, 2e-12], &a, &b).unwrap();
        assert_eq!(unit.x, tiny.x);
        assert!((tiny.x[0] - 10.0).abs() < 1e-9, "{:?}", tiny.x);
        assert!((tiny.x[1] - 20.0 / 3.0).abs() < 1e-9, "{:?}", tiny.x);
        assert!((tiny.objective - 70e-12 / 3.0).abs() < 1e-20);
    }

    #[test]
    fn empty_problem_is_trivial() {
        let out = solve_lp(&[], &[], &[]).unwrap();
        assert!(out.x.is_empty());
        assert_eq!(out.objective, 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rhs_is_rejected() {
        solve_lp(&[1.0], &[vec![1.0]], &[-1.0]);
    }
}
