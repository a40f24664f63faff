//! The row-of-rows solver that [`super::Simplex`] replaced, kept as the
//! reference of the differential tests: a fresh `Vec<Vec<f64>>` tableau
//! per solve, `basis.contains` and a column pass over every row per
//! reduced cost. It also counts its pivots, so a test can compare the
//! two pivot sequences' lengths as well as their results.

use super::{Cmp, LinearProgram, LpError, Solution, EPS};

/// Solves `lp`; returns the result and the pivots it took.
pub(super) fn solve(lp: &LinearProgram) -> (Result<Solution, LpError>, u64) {
    let mut pivots = 0;
    let result = solve_counted(lp, &mut pivots);
    (result, pivots)
}

fn solve_counted(lp: &LinearProgram, pivots: &mut u64) -> Result<Solution, LpError> {
    let n = lp.num_vars();
    let m = lp.num_constraints();

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
                t[i][next_slack] = -1.0;
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

    if n_art > 0 {
        let mut cost = vec![0.0f64; total];
        for c in cost.iter_mut().take(total).skip(art_start) {
            *c = 1.0;
        }
        let obj = run_simplex_restricted(&mut t, &mut basis, &cost, total, total, pivots)?;
        if obj > 1e-7 {
            return Err(LpError::Infeasible);
        }
        for i in 0..m {
            if basis[i] >= art_start {
                if let Some(j) = (0..art_start).find(|&j| t[i][j].abs() > EPS) {
                    pivot(&mut t, &mut basis, i, j, total, pivots);
                }
            }
        }
    }

    let mut cost = vec![0.0f64; total];
    cost[..n].copy_from_slice(&lp.objective);
    let obj = run_simplex_restricted(&mut t, &mut basis, &cost, total, art_start, pivots)?;

    let mut x = vec![0.0f64; n];
    for i in 0..m {
        if basis[i] < n {
            x[basis[i]] = t[i][total];
        }
    }
    Ok(Solution { x, objective: obj })
}

fn run_simplex_restricted(
    t: &mut [Vec<f64>],
    basis: &mut [usize],
    cost: &[f64],
    total: usize,
    allowed: usize,
    pivots: &mut u64,
) -> Result<f64, LpError> {
    let m = t.len();
    loop {
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
                entering = Some(j);
                break;
            }
        }
        let Some(j) = entering else {
            let mut obj = 0.0;
            for i in 0..m {
                obj += cost[basis[i]] * t[i][total];
            }
            return Ok(obj);
        };
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
        pivot(t, basis, i, j, total, pivots);
    }
}

fn pivot(
    t: &mut [Vec<f64>],
    basis: &mut [usize],
    row: usize,
    col: usize,
    total: usize,
    pivots: &mut u64,
) {
    *pivots += 1;
    let p = t[row][col];
    for v in t[row].iter_mut() {
        *v /= p;
    }
    let (before, rest) = t.split_at_mut(row);
    let (pivot_row, after) = rest.split_first_mut().unwrap();
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
