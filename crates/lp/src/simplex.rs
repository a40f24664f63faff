//! Two-phase dense primal simplex on one flat, reused tableau.
//!
//! Standard-form conversion: every constraint row is normalized to
//! `aᵀx (+ slack) (+ artificial) = b` with `b ≥ 0`; phase 1 minimizes the
//! sum of artificials to find a basic feasible solution, phase 2 then
//! minimizes the real objective. Bland's rule (smallest-index entering and
//! leaving variables) guarantees termination on degenerate instances.
//!
//! [`Simplex`] keeps the program's rows and the tableau as flat,
//! row-major vectors between solves; the fee split solves one small
//! program per elephant on the router's own. It replaced a solver that
//! built a `Vec<Vec<f64>>` tableau and two row copies per solve, and it
//! makes the same pivots with the same floating-point operations:
//! - the same column layout `[x | slack/surplus | artificial | rhs]` and
//!   row normalisation;
//! - a per-column count of the rows a column is basic in, where the old
//!   solver searched the basis;
//! - each reduced cost starts at `c_j` and subtracts `c_B[i] · t[i][j]`
//!   in ascending `i`, a whole row at a time, skipping rows whose basic
//!   cost is exactly `0.0`: on a finite tableau such a term can flip
//!   only the sign of a zero, which the `< −EPS` entering test cannot
//!   see;
//! - the same ratio test, pivot-row division (not multiplication by a
//!   reciprocal), elimination and final objective sum.
//!
//! The old solver is kept as the tests' reference: the differential
//! proptest requires equal `x` and objective bits, the same error and
//! the same pivot count on every program.

use std::fmt;

#[cfg(test)]
mod reference;

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

/// Solves a [`LinearProgram`] with two-phase simplex, on a [`Simplex`]
/// made for the call.
pub fn solve(lp: &LinearProgram) -> Result<Solution, LpError> {
    let mut simplex = Simplex::new();
    simplex.load(lp)?;
    let objective = simplex.solve()?;
    Ok(Solution {
        x: simplex.x,
        objective,
    })
}

/// The work a [`Simplex`] has done since it was made: plain counts,
/// summed over every program it solved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LpWork {
    /// Calls to [`Simplex::solve`].
    pub solves: u64,
    /// Pivots, in both phases and in driving artificials out between
    /// them.
    pub pivots: u64,
}

/// A two-phase simplex solver whose arrays outlive the solve: the
/// program's rows, the tableau and the basis are flat, row-major
/// vectors, sized by the largest program so far. A caller that solves
/// many small programs keeps one and allocates only while they grow.
///
/// A program is built in place — [`Simplex::minimize`], then one
/// [`Simplex::constrain`] per row, whose zeroed coefficients the caller
/// fills through the returned slice or later through
/// [`Simplex::row_mut`] — or copied from a [`LinearProgram`] by
/// [`Simplex::load`]. [`Simplex::solve`] then solves it.
#[derive(Clone, Debug, Default)]
pub struct Simplex {
    /// The program: `n` costs, and `n` coefficients per row.
    costs: Vec<f64>,
    a: Vec<f64>,
    cmps: Vec<Cmp>,
    rhs: Vec<f64>,
    /// The tableau, `width` columns per row: `[x | slack/surplus |
    /// artificial | rhs]`.
    t: Vec<f64>,
    width: usize,
    /// The basic column of each row, and per column the number of rows
    /// it is basic in: one or none, unless phase 1's drive-out pivots on
    /// a basic column whose other entries drifted past `EPS`, where the
    /// count keeps `basis.contains`'s answer.
    basis: Vec<usize>,
    basic_rows: Vec<u32>,
    /// The running phase's cost per column, the cost of each row's
    /// basic column, and the reduced costs of one pricing pass.
    cost: Vec<f64>,
    basic_cost: Vec<f64>,
    reduced: Vec<f64>,
    /// The last optimum; empty after a failed solve.
    x: Vec<f64>,
    work: LpWork,
}

impl Simplex {
    /// An empty solver; arrays are sized by the first program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new program: minimize `costs · x` over `costs.len()`
    /// non-negative variables, with no constraints yet.
    pub fn minimize(&mut self, costs: &[f64]) {
        self.costs.clear();
        self.costs.extend_from_slice(costs);
        self.a.clear();
        self.cmps.clear();
        self.rhs.clear();
    }

    /// Adds the constraint `a · x  cmp  rhs` with every coefficient zero,
    /// and returns the coefficients to fill.
    pub fn constrain(&mut self, cmp: Cmp, rhs: f64) -> &mut [f64] {
        let start = self.a.len();
        self.a.resize(start + self.costs.len(), 0.0);
        self.cmps.push(cmp);
        self.rhs.push(rhs);
        &mut self.a[start..]
    }

    /// The coefficients of constraint `i`, in the order they were added.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        let n = self.costs.len();
        &mut self.a[i * n..(i + 1) * n]
    }

    /// Starts a new program that copies `lp`.
    pub fn load(&mut self, lp: &LinearProgram) -> Result<(), LpError> {
        self.minimize(&lp.objective);
        for ((row, &cmp), &rhs) in lp.rows.iter().zip(&lp.cmps).zip(&lp.rhs) {
            if row.len() != lp.num_vars() {
                return Err(LpError::DimensionMismatch {
                    expected: lp.num_vars(),
                    got: row.len(),
                });
            }
            self.constrain(cmp, rhs).copy_from_slice(row);
        }
        Ok(())
    }

    /// The optimal assignment of the last successful [`Simplex::solve`],
    /// one value per variable; empty after a failed one.
    pub fn x(&self) -> &[f64] {
        &self.x
    }

    /// The work done so far.
    pub fn work(&self) -> LpWork {
        self.work
    }

    /// Solves the program built since the last [`Simplex::minimize`] and
    /// returns the optimal objective, the assignment in
    /// [`Simplex::x`]. A row with a negative right-hand side is
    /// normalised in place: negated, its direction flipped.
    pub fn solve(&mut self) -> Result<f64, LpError> {
        self.work.solves += 1;
        self.x.clear();
        let n = self.costs.len();
        for (i, (cmp, b)) in self.cmps.iter_mut().zip(&mut self.rhs).enumerate() {
            if *b < 0.0 {
                for a in &mut self.a[i * n..(i + 1) * n] {
                    *a = -*a;
                }
                *b = -*b;
                *cmp = match cmp {
                    Cmp::Le => Cmp::Ge,
                    Cmp::Eq => Cmp::Eq,
                    Cmp::Ge => Cmp::Le,
                };
            }
        }

        let n_slack = self.cmps.iter().filter(|c| **c != Cmp::Eq).count();
        let n_art = self
            .cmps
            .iter()
            .filter(|c| matches!(c, Cmp::Eq | Cmp::Ge))
            .count();
        let art_start = n + n_slack;
        let total = art_start + n_art;
        self.width = total + 1;

        self.t.clear();
        self.t.resize(self.cmps.len() * self.width, 0.0);
        self.basis.clear();
        let (mut next_slack, mut next_art) = (n, art_start);
        for (i, row) in self.t.chunks_exact_mut(self.width).enumerate() {
            row[..n].copy_from_slice(&self.a[i * n..(i + 1) * n]);
            row[total] = self.rhs[i];
            let basic = match self.cmps[i] {
                Cmp::Le => {
                    row[next_slack] = 1.0;
                    next_slack += 1;
                    next_slack - 1
                }
                Cmp::Ge => {
                    row[next_slack] = -1.0; // surplus
                    next_slack += 1;
                    row[next_art] = 1.0;
                    next_art += 1;
                    next_art - 1
                }
                Cmp::Eq => {
                    row[next_art] = 1.0;
                    next_art += 1;
                    next_art - 1
                }
            };
            self.basis.push(basic);
        }
        self.basic_rows.clear();
        self.basic_rows.resize(total, 0);
        for &b in &self.basis {
            self.basic_rows[b] += 1;
        }

        // ---- Phase 1: minimize sum of artificials ----
        if n_art > 0 {
            self.cost.clear();
            self.cost.resize(total, 0.0);
            self.cost[art_start..].fill(1.0);
            if self.run(total)? > 1e-7 {
                return Err(LpError::Infeasible);
            }
            // Drive any artificial still in the basis out (degenerate
            // case) by pivoting on the row's first non-artificial column
            // with a non-zero coefficient. A row without one is all zero:
            // redundant, so its artificial stays.
            for i in 0..self.basis.len() {
                if self.basis[i] >= art_start {
                    let row = &self.t[i * self.width..][..art_start];
                    if let Some(j) = row.iter().position(|v| v.abs() > EPS) {
                        self.pivot(i, j);
                    }
                }
            }
        }

        // ---- Phase 2: original objective, artificials frozen at zero ----
        // They are non-basic at zero after phase 1 (or basic in a
        // redundant row), and only columns before them may enter.
        self.cost.clear();
        self.cost.extend_from_slice(&self.costs);
        self.cost.resize(total, 0.0);
        let objective = self.run(art_start)?;

        self.x.resize(n, 0.0);
        for (row, &b) in self.t.chunks_exact(self.width).zip(&self.basis) {
            if b < n {
                self.x[b] = row[total];
            }
        }
        Ok(objective)
    }

    /// Runs simplex on the tableau minimizing `self.cost`, letting only
    /// columns `< allowed` enter the basis.
    fn run(&mut self, allowed: usize) -> Result<f64, LpError> {
        let w = self.width;
        let total = w - 1;
        self.basic_cost.clear();
        self.basic_cost
            .extend(self.basis.iter().map(|&b| self.cost[b]));
        loop {
            // Reduced costs: r_j = c_j − Σ_i c_B[i] · t[i][j], rows
            // already being B⁻¹A, accumulated in ascending `i` a whole
            // row at a time. A row whose basic cost is exactly zero is
            // skipped: on a finite tableau its term could change only
            // the sign of a zero `r_j`, which the `< −EPS` test below
            // cannot see.
            self.reduced.clear();
            self.reduced.extend_from_slice(&self.cost[..allowed]);
            for (row, &cb) in self.t.chunks_exact(w).zip(&self.basic_cost) {
                if cb != 0.0 {
                    for (r, &a) in self.reduced.iter_mut().zip(&row[..allowed]) {
                        *r -= cb * a;
                    }
                }
            }
            // Bland: the first (smallest) non-basic column that improves.
            let entering =
                (0..allowed).find(|&j| self.basic_rows[j] == 0 && self.reduced[j] < -EPS);
            let Some(j) = entering else {
                // Optimal.
                let mut obj = 0.0;
                for (row, &cb) in self.t.chunks_exact(w).zip(&self.basic_cost) {
                    obj += cb * row[total];
                }
                return Ok(obj);
            };
            // Ratio test (Bland: smallest basis index on ties).
            let mut leave: Option<usize> = None;
            let mut best = f64::INFINITY;
            for (i, row) in self.t.chunks_exact(w).enumerate() {
                if row[j] > EPS {
                    let ratio = row[total] / row[j];
                    if ratio < best - EPS
                        || (ratio < best + EPS
                            && leave.is_some_and(|l| self.basis[i] < self.basis[l]))
                    {
                        best = ratio;
                        leave = Some(i);
                    }
                }
            }
            let Some(i) = leave else {
                return Err(LpError::Unbounded);
            };
            self.pivot(i, j);
            self.basic_cost[i] = self.cost[j];
        }
    }

    /// Makes `col` the basic column of `row`: divides the row by the
    /// pivot, then subtracts its multiple from every other row whose
    /// `col` entry is not already (near) zero.
    fn pivot(&mut self, row: usize, col: usize) {
        self.work.pivots += 1;
        let w = self.width;
        let (before, rest) = self.t.split_at_mut(row * w);
        let (pivot_row, after) = rest.split_at_mut(w);
        let p = pivot_row[col];
        debug_assert!(p.abs() > EPS);
        for v in pivot_row.iter_mut() {
            *v /= p;
        }
        for r in before.chunks_exact_mut(w).chain(after.chunks_exact_mut(w)) {
            let f = r[col];
            if f.abs() > EPS {
                for (dst, &src) in r.iter_mut().zip(pivot_row.iter()) {
                    *dst -= f * src;
                }
            }
        }
        self.basic_rows[self.basis[row]] -= 1;
        self.basic_rows[col] += 1;
        self.basis[row] = col;
    }
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

    /// Loads and solves `lp` on `simplex`; returns the result and the
    /// pivots it took.
    fn solve_on(simplex: &mut Simplex, lp: &LinearProgram) -> (Result<Solution, LpError>, u64) {
        let before = simplex.work().pivots;
        let result = simplex
            .load(lp)
            .and_then(|()| simplex.solve())
            .map(|objective| Solution {
                x: simplex.x().to_vec(),
                objective,
            });
        (result, simplex.work().pivots - before)
    }

    /// A result as bits: every `x` value's and the objective's.
    fn bits(result: &Result<Solution, LpError>) -> Result<(Vec<u64>, u64), LpError> {
        result.clone().map(|s| {
            let x = s.x.iter().map(|v| v.to_bits()).collect();
            (x, s.objective.to_bits())
        })
    }

    /// Beale's cycling example, a redundant equality row (the second is
    /// twice the first, so phase 1 leaves an artificial basic in an
    /// all-zero row), an infeasible and an unbounded program, a `≥` row
    /// written with a negative right-hand side, and the empty program,
    /// all on one solver: each result and pivot count is the
    /// reference's, and the work counts every solve.
    #[test]
    fn flat_solver_matches_the_reference_on_edge_programs() {
        let mut beale = LinearProgram::minimize(vec![-0.75, 150.0, -0.02, 6.0]);
        beale.constrain(vec![0.25, -60.0, -0.04, 9.0], Cmp::Le, 0.0);
        beale.constrain(vec![0.5, -90.0, -0.02, 3.0], Cmp::Le, 0.0);
        beale.constrain(vec![0.0, 0.0, 1.0, 0.0], Cmp::Le, 1.0);
        let mut redundant = LinearProgram::minimize(vec![1.0, 2.0, 0.5]);
        redundant.constrain(vec![1.0, 1.0, 0.0], Cmp::Eq, 2.0);
        redundant.constrain(vec![2.0, 2.0, 0.0], Cmp::Eq, 4.0);
        redundant.constrain(vec![0.0, 1.0, 1.0], Cmp::Ge, 1.0);
        let mut infeasible = LinearProgram::minimize(vec![1.0, 1.0]);
        infeasible.constrain(vec![1.0, 1.0], Cmp::Le, 1.0);
        infeasible.constrain(vec![1.0, 1.0], Cmp::Ge, 2.0);
        let mut unbounded = LinearProgram::minimize(vec![-1.0, 1.0]);
        unbounded.constrain(vec![1.0, -1.0], Cmp::Ge, -3.0);
        unbounded.constrain(vec![0.0, 1.0], Cmp::Le, 5.0);
        let mut negative = LinearProgram::minimize(vec![2.0, 1.0]);
        negative.constrain(vec![-1.0, -1.0], Cmp::Le, -3.0);
        negative.constrain(vec![1.0, -1.0], Cmp::Eq, -1.0);
        let empty = LinearProgram::minimize(vec![]);

        let programs = [
            &beale,
            &redundant,
            &infeasible,
            &unbounded,
            &negative,
            &empty,
        ];
        let mut simplex = Simplex::new();
        let mut pivots = 0;
        for (i, lp) in programs.into_iter().enumerate() {
            let (got, got_pivots) = solve_on(&mut simplex, lp);
            let (want, want_pivots) = reference::solve(lp);
            assert_eq!(bits(&got), bits(&want), "program {i}");
            assert_eq!(got_pivots, want_pivots, "program {i}: pivots");
            pivots += got_pivots;
        }
        let Ok(x) = bits(&solve_on(&mut simplex, &redundant).0) else {
            panic!("the redundant row makes the program no less feasible");
        };
        assert_eq!(x.0, [2.0f64, 0.0, 1.0].map(f64::to_bits));
        assert_close(solve(&beale).unwrap().objective, -0.05);
        assert_eq!(solve(&infeasible).unwrap_err(), LpError::Infeasible);
        assert_eq!(solve(&unbounded).unwrap_err(), LpError::Unbounded);
        let (_, redundant_pivots) = reference::solve(&redundant);
        assert_eq!(
            simplex.work(),
            LpWork {
                solves: 7,
                pivots: pivots + redundant_pivots,
            }
        );
    }

    /// A coefficient: a half-integer in −3..=3 two times in three (ties
    /// and degenerate vertices), otherwise any value in −5..5.
    fn coefficient() -> impl Strategy<Value = f64> {
        (-6i32..=6, -5.0f64..5.0, 0u32..3).prop_map(
            |(k, v, kind)| {
                if kind == 0 {
                    v
                } else {
                    f64::from(k) / 2.0
                }
            },
        )
    }

    /// Programs of 1–7 variables and 0–8 rows of every direction, with
    /// right-hand sides of either sign, and sometimes a box `x ≤ 10` on
    /// every variable: optimal, infeasible and unbounded ones.
    fn arb_program() -> impl Strategy<Value = LinearProgram> {
        (1usize..8, 0usize..9).prop_flat_map(|(n, m)| {
            let costs = proptest::collection::vec(coefficient(), n);
            let row = (
                proptest::collection::vec(coefficient(), n),
                0usize..3,
                coefficient(),
            );
            let rows = proptest::collection::vec(row, m);
            (costs, rows, 0u32..2).prop_map(move |(costs, rows, boxed)| {
                let mut lp = LinearProgram::minimize(costs);
                for (row, cmp, b) in rows {
                    lp.constrain(row, [Cmp::Le, Cmp::Eq, Cmp::Ge][cmp], 4.0 * b);
                }
                for v in (0..n).filter(|_| boxed == 1) {
                    let mut row = vec![0.0; n];
                    row[v] = 1.0;
                    lp.constrain(row, Cmp::Le, 10.0);
                }
                lp
            })
        })
    }

    proptest! {
        /// Sequences of random programs of different sizes on one
        /// solver, so stale state from a larger program would show:
        /// every result is the reference's to the bit (each `x` value
        /// and the objective, or the same error), after the same number
        /// of pivots.
        #[test]
        fn flat_solver_equals_the_reference(programs in proptest::collection::vec(arb_program(), 1..6)) {
            let mut simplex = Simplex::new();
            for (i, lp) in programs.iter().enumerate() {
                let (got, got_pivots) = solve_on(&mut simplex, lp);
                let (want, want_pivots) = reference::solve(lp);
                prop_assert_eq!(bits(&got), bits(&want), "program {}: {:?}", i, lp);
                prop_assert_eq!(got_pivots, want_pivots, "program {}: pivots, {:?}", i, lp);
            }
        }
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
