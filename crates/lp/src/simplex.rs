//! Two-phase dense primal simplex.
//!
//! Standard-form conversion: every constraint row is normalized to
//! `aᵀx (+ slack) (+ artificial) = b` with `b ≥ 0`; phase 1 minimizes the
//! sum of artificials to find a basic feasible solution, phase 2 then
//! minimizes the real objective. Bland's rule (smallest-index entering and
//! leaving variables) guarantees termination on degenerate instances.

use std::fmt;

/// Numerical tolerance for pivoting and feasibility checks.
const EPS: f64 = 1e-9;

/// Constraint direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cmp {
    /// `aᵀx ≤ b`
    Le,
    /// `aᵀx = b`
    Eq,
    /// `aᵀx ≥ b`
    Ge,
}

/// Solver failure modes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LpError {
    /// No point satisfies all constraints.
    Infeasible,
    /// The objective decreases without bound.
    Unbounded,
    /// A constraint row's coefficient count didn't match the variable
    /// count.
    DimensionMismatch {
        /// Expected number of coefficients (variables in the program).
        expected: usize,
        /// Number of coefficients actually supplied.
        got: usize,
    },
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "infeasible"),
            LpError::Unbounded => write!(f, "unbounded"),
            LpError::DimensionMismatch { expected, got } => {
                write!(f, "constraint has {got} coefficients, expected {expected}")
            }
        }
    }
}

impl std::error::Error for LpError {}

/// An optimal solution.
#[derive(Clone, Debug)]
pub struct Solution {
    /// Optimal variable assignment (length = number of variables).
    pub x: Vec<f64>,
    /// Optimal objective value `cᵀx`.
    pub objective: f64,
}

/// Builder for `min cᵀx  s.t.  Ax {≤,=,≥} b,  x ≥ 0`.
#[derive(Clone, Debug)]
pub struct LinearProgram {
    objective: Vec<f64>,
    rows: Vec<Vec<f64>>,
    cmps: Vec<Cmp>,
    rhs: Vec<f64>,
}

impl LinearProgram {
    /// Starts a minimization over `costs.len()` non-negative variables.
    pub fn minimize(costs: Vec<f64>) -> Self {
        LinearProgram {
            objective: costs,
            rows: Vec::new(),
            cmps: Vec::new(),
            rhs: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Number of constraint rows.
    pub fn num_constraints(&self) -> usize {
        self.rows.len()
    }

    /// Adds the constraint `coeffs · x  cmp  rhs`.
    pub fn constrain(&mut self, coeffs: Vec<f64>, cmp: Cmp, rhs: f64) -> &mut Self {
        assert_eq!(
            coeffs.len(),
            self.objective.len(),
            "constraint width must match variable count"
        );
        self.rows.push(coeffs);
        self.cmps.push(cmp);
        self.rhs.push(rhs);
        self
    }

    /// Solves the program.
    pub fn solve(&self) -> Result<Solution, LpError> {
        solve(self)
    }
}

/// Solves a [`LinearProgram`] with two-phase simplex.
pub fn solve(lp: &LinearProgram) -> Result<Solution, LpError> {
    let n = lp.num_vars();
    let m = lp.num_constraints();

    // Normalize rows to b ≥ 0 and count extra columns.
    // Column layout: [x (n)] [slack/surplus (≤ m)] [artificial (≤ m)].
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut cmps: Vec<Cmp> = Vec::with_capacity(m);
    let mut rhs: Vec<f64> = Vec::with_capacity(m);
    for i in 0..m {
        if lp.rows[i].len() != n {
            return Err(LpError::DimensionMismatch {
                expected: n,
                got: lp.rows[i].len(),
            });
        }
        let (mut row, mut c, mut b) = (lp.rows[i].clone(), lp.cmps[i], lp.rhs[i]);
        if b < 0.0 {
            for a in &mut row {
                *a = -*a;
            }
            b = -b;
            c = match c {
                Cmp::Le => Cmp::Ge,
                Cmp::Eq => Cmp::Eq,
                Cmp::Ge => Cmp::Le,
            };
        }
        rows.push(row);
        cmps.push(c);
        rhs.push(b);
    }

    let n_slack = cmps.iter().filter(|c| **c != Cmp::Eq).count();
    let n_art = cmps
        .iter()
        .filter(|c| matches!(c, Cmp::Eq | Cmp::Ge))
        .count();
    let total = n + n_slack + n_art;

    // Tableau: m rows × (total + 1) columns (last column = rhs).
    let mut t = vec![vec![0.0f64; total + 1]; m];
    let mut basis = vec![usize::MAX; m];
    let mut next_slack = n;
    let mut next_art = n + n_slack;
    for i in 0..m {
        t[i][..n].copy_from_slice(&rows[i]);
        t[i][total] = rhs[i];
        match cmps[i] {
            Cmp::Le => {
                t[i][next_slack] = 1.0;
                basis[i] = next_slack;
                next_slack += 1;
            }
            Cmp::Ge => {
                t[i][next_slack] = -1.0; // surplus
                next_slack += 1;
                t[i][next_art] = 1.0;
                basis[i] = next_art;
                next_art += 1;
            }
            Cmp::Eq => {
                t[i][next_art] = 1.0;
                basis[i] = next_art;
                next_art += 1;
            }
        }
    }

    let art_start = n + n_slack;

    // ---- Phase 1: minimize sum of artificials ----
    if n_art > 0 {
        let mut cost = vec![0.0f64; total];
        for c in cost.iter_mut().take(total).skip(art_start) {
            *c = 1.0;
        }
        let obj = run_simplex(&mut t, &mut basis, &cost, total)?;
        if obj > 1e-7 {
            return Err(LpError::Infeasible);
        }
        // Drive any artificial still in the basis out (degenerate case).
        for i in 0..m {
            if basis[i] >= art_start {
                // Pivot on any non-artificial column with a non-zero
                // coefficient in this row.
                if let Some(j) = (0..art_start).find(|&j| t[i][j].abs() > EPS) {
                    pivot(&mut t, &mut basis, i, j, total);
                }
                // If none exists the row is all-zero: redundant, leave it.
            }
        }
    }

    // ---- Phase 2: original objective, artificials frozen at zero ----
    let mut cost = vec![0.0f64; total];
    cost[..n].copy_from_slice(&lp.objective);
    // Forbid artificials from re-entering by pricing them prohibitively.
    // (They are non-basic at zero after phase 1; simplex never picks a
    // column with positive reduced cost in a minimization.)
    let obj = run_simplex_restricted(&mut t, &mut basis, &cost, total, art_start)?;

    let mut x = vec![0.0f64; n];
    for i in 0..m {
        if basis[i] < n {
            x[basis[i]] = t[i][total];
        }
    }
    Ok(Solution { x, objective: obj })
}

/// Runs simplex minimizing `cost` over all `total` columns.
fn run_simplex(
    t: &mut [Vec<f64>],
    basis: &mut [usize],
    cost: &[f64],
    total: usize,
) -> Result<f64, LpError> {
    run_simplex_restricted(t, basis, cost, total, total)
}

/// Runs simplex but only allows columns `< allowed` to enter the basis.
fn run_simplex_restricted(
    t: &mut [Vec<f64>],
    basis: &mut [usize],
    cost: &[f64],
    total: usize,
    allowed: usize,
) -> Result<f64, LpError> {
    let m = t.len();
    loop {
        // Reduced costs: r_j = c_j − c_B · B⁻¹ A_j, computed directly
        // from the tableau (rows are already B⁻¹A).
        let mut entering = None;
        for j in 0..allowed {
            if basis.contains(&j) {
                continue;
            }
            let mut r = cost[j];
            for i in 0..m {
                r -= cost[basis[i]] * t[i][j];
            }
            if r < -EPS {
                entering = Some(j); // Bland: first (smallest) index
                break;
            }
        }
        let Some(j) = entering else {
            // Optimal.
            let mut obj = 0.0;
            for i in 0..m {
                obj += cost[basis[i]] * t[i][total];
            }
            return Ok(obj);
        };
        // Ratio test (Bland: smallest basis index on ties).
        let mut leave: Option<usize> = None;
        let mut best = f64::INFINITY;
        for i in 0..m {
            if t[i][j] > EPS {
                let ratio = t[i][total] / t[i][j];
                if ratio < best - EPS
                    || (ratio < best + EPS && leave.is_some_and(|l| basis[i] < basis[l]))
                {
                    best = ratio;
                    leave = Some(i);
                }
            }
        }
        let Some(i) = leave else {
            return Err(LpError::Unbounded);
        };
        pivot(t, basis, i, j, total);
    }
}

fn pivot(t: &mut [Vec<f64>], basis: &mut [usize], row: usize, col: usize, total: usize) {
    let p = t[row][col];
    debug_assert!(p.abs() > EPS);
    for v in t[row].iter_mut() {
        *v /= p;
    }
    let (before, rest) = t.split_at_mut(row);
    #[expect(
        clippy::expect_used,
        reason = "`row` indexes the tableau, so the split-off rest is non-empty"
    )]
    let (pivot_row, after) = rest.split_first_mut().expect("row index in bounds");
    for r in before.iter_mut().chain(after.iter_mut()) {
        if r[col].abs() > EPS {
            let f = r[col];
            for (dst, &src) in r[..=total].iter_mut().zip(&pivot_row[..=total]) {
                *dst -= f * src;
            }
        }
    }
    basis[row] = col;
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn textbook_le_program() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → x=2, y=6, obj 36.
        // As a minimization: min −3x − 5y.
        let mut lp = LinearProgram::minimize(vec![-3.0, -5.0]);
        lp.constrain(vec![1.0, 0.0], Cmp::Le, 4.0);
        lp.constrain(vec![0.0, 2.0], Cmp::Le, 12.0);
        lp.constrain(vec![3.0, 2.0], Cmp::Le, 18.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective, -36.0);
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 6.0);
    }

    #[test]
    fn equality_constraint() {
        // min 2x + 3y s.t. x + y = 10, x ≤ 4 → x=4, y=6, obj 26.
        let mut lp = LinearProgram::minimize(vec![2.0, 3.0]);
        lp.constrain(vec![1.0, 1.0], Cmp::Eq, 10.0);
        lp.constrain(vec![1.0, 0.0], Cmp::Le, 4.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective, 26.0);
        assert_close(s.x[0], 4.0);
    }

    #[test]
    fn ge_constraints_need_phase_one() {
        // min x + y s.t. x + 2y ≥ 4, 3x + y ≥ 6 → intersection x=1.6, y=1.2.
        let mut lp = LinearProgram::minimize(vec![1.0, 1.0]);
        lp.constrain(vec![1.0, 2.0], Cmp::Ge, 4.0);
        lp.constrain(vec![3.0, 1.0], Cmp::Ge, 6.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective, 2.8);
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LinearProgram::minimize(vec![1.0]);
        lp.constrain(vec![1.0], Cmp::Le, 1.0);
        lp.constrain(vec![1.0], Cmp::Ge, 2.0);
        assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        // min −x with no upper bound on x.
        let mut lp = LinearProgram::minimize(vec![-1.0]);
        lp.constrain(vec![-1.0], Cmp::Le, 0.0); // −x ≤ 0 i.e. x ≥ 0, vacuous
        assert_eq!(lp.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn negative_rhs_normalized() {
        // x ≥ 2 written as −x ≤ −2.
        let mut lp = LinearProgram::minimize(vec![1.0]);
        lp.constrain(vec![-1.0], Cmp::Le, -2.0);
        let s = lp.solve().unwrap();
        assert_close(s.x[0], 2.0);
    }

    #[test]
    fn degenerate_program_terminates() {
        // Classic degeneracy: multiple constraints active at the optimum.
        let mut lp = LinearProgram::minimize(vec![-0.75, 150.0, -0.02, 6.0]);
        lp.constrain(vec![0.25, -60.0, -0.04, 9.0], Cmp::Le, 0.0);
        lp.constrain(vec![0.5, -90.0, -0.02, 3.0], Cmp::Le, 0.0);
        lp.constrain(vec![0.0, 0.0, 1.0, 0.0], Cmp::Le, 1.0);
        // Beale's cycling example — Bland's rule must terminate.
        let s = lp.solve().unwrap();
        assert_close(s.objective, -0.05);
    }

    #[test]
    fn path_split_shape() {
        // The fee-min program for 3 paths with unit costs (3, 1, 2),
        // demand 10, per-path caps 4, 5, 8:
        // optimum: fill path 2 (5 @ 1), then path 3 (5 @ 2) → 15.
        let mut lp = LinearProgram::minimize(vec![3.0, 1.0, 2.0]);
        lp.constrain(vec![1.0, 1.0, 1.0], Cmp::Eq, 10.0);
        lp.constrain(vec![1.0, 0.0, 0.0], Cmp::Le, 4.0);
        lp.constrain(vec![0.0, 1.0, 0.0], Cmp::Le, 5.0);
        lp.constrain(vec![0.0, 0.0, 1.0], Cmp::Le, 8.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective, 15.0);
        assert_close(s.x[1], 5.0);
        assert_close(s.x[2], 5.0);
    }

    #[test]
    fn dimension_mismatch_via_raw_solve() {
        let lp = LinearProgram {
            objective: vec![1.0, 2.0],
            rows: vec![vec![1.0]],
            cmps: vec![Cmp::Le],
            rhs: vec![1.0],
        };
        assert!(matches!(
            solve(&lp),
            Err(LpError::DimensionMismatch {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn zero_variable_program() {
        let lp = LinearProgram::minimize(vec![]);
        let s = lp.solve().unwrap();
        assert_eq!(s.x.len(), 0);
        assert_close(s.objective, 0.0);
    }

    /// Random bounded-feasible programs: box constraints keep everything
    /// bounded, so the solver must return a solution that is feasible and
    /// no worse than a sample of random feasible points.
    fn arb_lp() -> impl Strategy<Value = (LinearProgram, Vec<Vec<f64>>)> {
        let nvars = 2usize..5;
        nvars.prop_flat_map(|n| {
            let costs = proptest::collection::vec(-5.0f64..5.0, n);
            let rows = proptest::collection::vec(
                (proptest::collection::vec(0.0f64..3.0, n), 1.0f64..20.0),
                1..4,
            );
            (costs, rows).prop_map(move |(c, rows)| {
                let mut lp = LinearProgram::minimize(c);
                // Box: every var ≤ 10 (keeps min of negative costs bounded).
                for v in 0..n {
                    let mut row = vec![0.0; n];
                    row[v] = 1.0;
                    lp.constrain(row, Cmp::Le, 10.0);
                }
                let mut sample_rows = Vec::new();
                for (row, b) in rows {
                    lp.constrain(row.clone(), Cmp::Le, b);
                    sample_rows.push(row);
                }
                (lp, sample_rows)
            })
        })
    }

    proptest! {
        #[test]
        fn solution_is_feasible_and_not_dominated((lp, _rows) in arb_lp()) {
            let s = lp.solve().unwrap();
            // Feasibility.
            for (i, row) in lp.rows.iter().enumerate() {
                let lhs: f64 = row.iter().zip(&s.x).map(|(a, x)| a * x).sum();
                match lp.cmps[i] {
                    Cmp::Le => prop_assert!(lhs <= lp.rhs[i] + 1e-6),
                    Cmp::Ge => prop_assert!(lhs >= lp.rhs[i] - 1e-6),
                    Cmp::Eq => prop_assert!((lhs - lp.rhs[i]).abs() < 1e-6),
                }
            }
            for x in &s.x {
                prop_assert!(*x >= -1e-9);
            }
            // The origin is feasible for pure ≤ programs with b ≥ 0, so
            // the optimum can never exceed 0 here.
            prop_assert!(s.objective <= 1e-9);
        }
    }
}
