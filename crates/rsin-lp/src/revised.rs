//! Revised simplex with an explicitly maintained basis inverse.
//!
//! The tableau method ([`crate::tableau`]) updates the *entire* `m×(n+m)`
//! tableau on every pivot; the revised method maintains only the `m×m`
//! basis inverse and prices columns on demand, which wins when the LP has
//! many more columns than rows — exactly the shape of multicommodity flow
//! LPs (one column per arc per commodity, one row per arc/node). Both
//! implementations share the standard form of [`crate::standard`] and are
//! cross-checked against each other on every problem shape the test suite
//! can generate; `cargo bench -p rsin-bench --bench simplex` compares
//! their pivot costs.

use crate::error::LpError;
use crate::tableau::TableauResult;
use crate::EPS;

/// Dense `m×m` matrix helper (row-major).
struct Inverse {
    m: usize,
    data: Vec<f64>,
}

impl Inverse {
    fn identity(m: usize) -> Self {
        let mut data = vec![0.0; m * m];
        for i in 0..m {
            data[i * m + i] = 1.0;
        }
        Inverse { m, data }
    }

    fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.m..(i + 1) * self.m]
    }

    /// `y = x' * B_inv` (left multiply by a row vector).
    fn left_mul(&self, x: &[f64]) -> Vec<f64> {
        let m = self.m;
        let mut y = vec![0.0; m];
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            let row = self.row(i);
            for j in 0..m {
                y[j] += xi * row[j];
            }
        }
        y
    }

    /// `d = B_inv * a` for a column given by its nonzeros `(row, value)`,
    /// rows ascending: O(m) per nonzero, not O(m²).
    fn times_sparse(&self, a: &[(usize, f64)]) -> Vec<f64> {
        (0..self.m)
            .map(|i| {
                let row = self.row(i);
                a.iter().map(|&(j, aj)| row[j] * aj).sum()
            })
            .collect()
    }

    /// Pivot update: the entering column's direction is `d = B_inv a_q`;
    /// after replacing basis row `r`, apply the eta transformation.
    fn pivot(&mut self, r: usize, d: &[f64]) {
        let m = self.m;
        let pivot = d[r];
        debug_assert!(pivot.abs() > EPS);
        let inv = 1.0 / pivot;
        // Scale row r.
        for j in 0..m {
            self.data[r * m + j] *= inv;
        }
        // Eliminate from other rows.
        for (i, &factor) in d.iter().enumerate() {
            if i == r || factor.abs() <= EPS {
                continue;
            }
            for j in 0..m {
                let v = self.data[r * m + j] * factor;
                self.data[i * m + j] -= v;
            }
        }
    }
}

/// The structural columns of `A` as their nonzeros `(row, value)`, rows
/// ascending, built once per solve: the flow LPs solved here have a few
/// nonzeros per column, so pricing and `B_inv a_q` read those, not `m`
/// strided rows.
struct Columns {
    start: Vec<usize>,
    entries: Vec<(usize, f64)>,
}

impl Columns {
    fn new(a: &[Vec<f64>], n: usize) -> Self {
        let mut start = Vec::with_capacity(n + 1);
        let mut entries = Vec::new();
        start.push(0);
        for j in 0..n {
            for (i, row) in a.iter().enumerate() {
                if row[j] != 0.0 {
                    entries.push((i, row[j]));
                }
            }
            start.push(entries.len());
        }
        Columns { start, entries }
    }

    fn col(&self, j: usize) -> &[(usize, f64)] {
        &self.entries[self.start[j]..self.start[j + 1]]
    }
}

/// Solve `min c'x, Ax = b, x >= 0` (with `b >= 0`) by two-phase *revised*
/// simplex with Bland's rule. Same contract as
/// [`crate::tableau::solve_standard`].
///
/// Columns are read at their sparsity: reduced costs and the entering
/// direction `B_inv a_q` sum over a column's nonzeros only, and a flag per
/// column says whether it is basic. Zero entries add nothing to those
/// sums, so every pivot is the one the dense products would choose.
pub fn solve_standard_revised(
    a: &[Vec<f64>],
    b: &[f64],
    c: &[f64],
) -> Result<TableauResult, LpError> {
    let m = a.len();
    let n = if m > 0 { a[0].len() } else { c.len() };
    let max_iters = 2000 + 200 * (m + n);

    // Structural columns from `a`; artificial j >= n is e_{j-n}.
    let cols = Columns::new(a, n);

    let total = n + m;
    let mut basis: Vec<usize> = (n..total).collect();
    let mut in_basis: Vec<bool> = (0..total).map(|j| j >= n).collect();
    let mut binv = Inverse::identity(m);
    let mut xb: Vec<f64> = b.to_vec();
    let mut pivots = 0usize;
    let mut banned = vec![false; total];

    // One simplex phase over the cost vector `cost(j)`.
    let run_phase = |basis: &mut Vec<usize>,
                     in_basis: &mut Vec<bool>,
                     binv: &mut Inverse,
                     xb: &mut Vec<f64>,
                     banned: &[bool],
                     cost: &dyn Fn(usize) -> f64,
                     pivots: &mut usize|
     -> Result<(), LpError> {
        for _ in 0..max_iters {
            // Simplex multipliers y = c_B' B_inv.
            let cb: Vec<f64> = basis.iter().map(|&j| cost(j)).collect();
            let y = binv.left_mul(&cb);
            // Bland pricing: smallest j with negative reduced cost.
            let entering = (0..total).find(|&j| {
                if banned[j] || in_basis[j] {
                    return false;
                }
                // reduced = cost(j) - y' a_j, over a_j's nonzeros.
                let mut red = cost(j);
                if j < n {
                    for &(i, aij) in cols.col(j) {
                        red -= y[i] * aij;
                    }
                } else {
                    red -= y[j - n];
                }
                red < -EPS
            });
            let Some(q) = entering else {
                return Ok(());
            };
            let artificial = [(q.wrapping_sub(n), 1.0)];
            let d = binv.times_sparse(if q < n { cols.col(q) } else { &artificial });
            // Ratio test with Bland tie-break.
            let mut leaving: Option<(usize, f64)> = None;
            for i in 0..m {
                if d[i] > EPS {
                    let ratio = xb[i] / d[i];
                    match leaving {
                        None => leaving = Some((i, ratio)),
                        Some((li, lr)) => {
                            if ratio < lr - EPS || (ratio < lr + EPS && basis[i] < basis[li]) {
                                leaving = Some((i, ratio));
                            }
                        }
                    }
                }
            }
            let Some((r, theta)) = leaving else {
                return Err(LpError::Unbounded);
            };
            // Update solution and inverse.
            for i in 0..m {
                xb[i] -= theta * d[i];
            }
            xb[r] = theta;
            binv.pivot(r, &d);
            in_basis[basis[r]] = false;
            in_basis[q] = true;
            basis[r] = q;
            *pivots += 1;
        }
        Err(LpError::IterationLimit(max_iters))
    };

    // Phase 1: minimize the sum of artificials.
    let phase1_cost = |j: usize| if j >= n { 1.0 } else { 0.0 };
    run_phase(
        &mut basis,
        &mut in_basis,
        &mut binv,
        &mut xb,
        &banned,
        &phase1_cost,
        &mut pivots,
    )?;
    let art_sum: f64 = basis
        .iter()
        .zip(xb.iter())
        .filter(|(&j, _)| j >= n)
        .map(|(_, &v)| v)
        .sum();
    if art_sum > 1e-6 {
        return Err(LpError::Infeasible);
    }
    // Drive remaining artificials out where possible.
    for r in 0..m {
        if basis[r] >= n {
            let row_r: Vec<f64> = binv.row(r).to_vec();
            let replacement = (0..n).find(|&j| {
                if in_basis[j] {
                    return false;
                }
                // d_r = (B_inv a_j)_r
                let mut dr = 0.0;
                for &(i, aij) in cols.col(j) {
                    dr += row_r[i] * aij;
                }
                dr.abs() > 1e-7
            });
            if let Some(j) = replacement {
                let d = binv.times_sparse(cols.col(j));
                binv.pivot(r, &d);
                in_basis[basis[r]] = false;
                in_basis[j] = true;
                basis[r] = j;
                pivots += 1;
            }
        }
    }
    for bj in banned.iter_mut().skip(n) {
        *bj = true;
    }

    // Phase 2: true objective.
    let phase2_cost = |j: usize| if j < n { c[j] } else { 0.0 };
    run_phase(
        &mut basis,
        &mut in_basis,
        &mut binv,
        &mut xb,
        &banned,
        &phase2_cost,
        &mut pivots,
    )?;

    let mut x = vec![0.0; n];
    for (i, &j) in basis.iter().enumerate() {
        if j < n {
            x[j] = xb[i];
        }
    }
    let objective: f64 = c.iter().zip(&x).map(|(ci, xi)| ci * xi).sum();
    // Duals from the final multipliers.
    let cb: Vec<f64> = basis.iter().map(|&j| phase2_cost(j)).collect();
    let duals = binv.left_mul(&cb);
    Ok(TableauResult {
        x,
        objective,
        duals,
        pivots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tableau::solve_standard;

    fn cross_check(a: &[Vec<f64>], b: &[f64], c: &[f64]) {
        let t = solve_standard(a, b, c);
        let r = solve_standard_revised(a, b, c);
        match (t, r) {
            (Ok(t), Ok(r)) => {
                assert!(
                    (t.objective - r.objective).abs() < 1e-6,
                    "objectives differ: tableau {} revised {}",
                    t.objective,
                    r.objective
                );
            }
            (Err(te), Err(re)) => assert_eq!(te, re),
            (t, r) => panic!("outcome mismatch: tableau {t:?} revised {r:?}"),
        }
    }

    #[test]
    fn agrees_on_simple_equalities() {
        cross_check(&[vec![1.0, 1.0], vec![1.0, -1.0]], &[2.0, 0.0], &[1.0, 1.0]);
    }

    #[test]
    fn agrees_on_infeasible() {
        cross_check(&[vec![1.0], vec![1.0]], &[1.0, 2.0], &[0.0]);
    }

    #[test]
    fn agrees_on_unbounded() {
        cross_check(&[vec![1.0, -1.0]], &[0.0], &[-1.0, -1.0]);
    }

    #[test]
    fn agrees_on_degenerate_instance() {
        cross_check(
            &[
                vec![0.5, -5.5, -2.5, 9.0, 1.0, 0.0, 0.0],
                vec![0.5, -1.5, -0.5, 1.0, 0.0, 1.0, 0.0],
                vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
            ],
            &[0.0, 0.0, 1.0],
            &[-10.0, 57.0, 9.0, 24.0, 0.0, 0.0, 0.0],
        );
    }

    #[test]
    fn agrees_on_pseudo_random_instances() {
        // Deterministic pseudo-random LPs of several shapes.
        let mut seed = 0x2545F491_4F6CDD1Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for (m, n) in [(2usize, 4usize), (3, 6), (4, 9), (5, 12)] {
            let a: Vec<Vec<f64>> = (0..m)
                .map(|_| (0..n).map(|_| (next() % 5) as f64).collect())
                .collect();
            let b: Vec<f64> = (0..m).map(|_| (next() % 9) as f64).collect();
            let c: Vec<f64> = (0..n).map(|_| (next() % 7) as f64 - 3.0).collect();
            cross_check(&a, &b, &c);
        }
    }

    #[test]
    fn duals_match_tableau() {
        let a = vec![vec![1.0, 0.0, 1.0, 0.0], vec![0.0, 2.0, 0.0, 1.0]];
        let b = vec![4.0, 12.0];
        let c = vec![-3.0, -5.0, 0.0, 0.0];
        let t = solve_standard(&a, &b, &c).unwrap();
        let r = solve_standard_revised(&a, &b, &c).unwrap();
        for (yt, yr) in t.duals.iter().zip(&r.duals) {
            assert!((yt - yr).abs() < 1e-6, "{:?} vs {:?}", t.duals, r.duals);
        }
    }
}
