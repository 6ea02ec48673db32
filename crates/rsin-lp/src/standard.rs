//! Lowering of a [`Problem`] into computational standard form
//! `min c'x  s.t.  Ax = b, x >= 0`.
//!
//! Bounded and free variables are handled by substitution:
//!
//! * `l <= x <= u`, `l` finite: substitute `x = l + x'` with `x' >= 0`; a
//!   finite `u` adds the row `x' <= u - l` (then slacked).
//! * `x <= u`, no lower bound: substitute `x = u - x'` (sign flip).
//! * free `x`: split `x = x⁺ - x⁻`.
//!
//! Inequality rows gain slack/surplus columns; rows are sign-normalized so
//! every `b_i >= 0`, which lets phase 1 start from an all-artificial basis.

use crate::model::{Cmp, Problem, Sense};

/// How an original variable is represented in standard-form columns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VarMap {
    /// `x = lower + col`
    Shifted { col: usize, lower: f64 },
    /// `x = upper - col`
    Flipped { col: usize, upper: f64 },
    /// `x = pos - neg`
    Split { pos: usize, neg: usize },
}

/// Dense standard-form LP produced by [`standardize`].
#[derive(Debug, Clone)]
pub struct StandardForm {
    /// Constraint matrix, row-major, `rows x cols`.
    pub a: Vec<Vec<f64>>,
    /// Right-hand side, all entries nonnegative.
    pub b: Vec<f64>,
    /// Objective coefficients (minimization).
    pub c: Vec<f64>,
    /// Constant added to `c'x` to recover the original objective value
    /// (before any max→min negation is undone).
    pub obj_offset: f64,
    /// Per-original-variable recovery recipe.
    pub var_map: Vec<VarMap>,
    /// Number of structural + slack columns.
    pub cols: usize,
    /// `row_flipped[i]` is true when row `i` was multiplied by −1 to make
    /// its right-hand side nonnegative (needed to recover dual signs).
    pub row_flipped: Vec<bool>,
    /// True when the original problem was a maximization (the caller must
    /// negate the optimal value back).
    pub negated: bool,
}

impl StandardForm {
    /// Recover original variable values from a standard-form point.
    pub fn recover(&self, x: &[f64]) -> Vec<f64> {
        self.var_map
            .iter()
            .map(|m| match *m {
                VarMap::Shifted { col, lower } => lower + x[col],
                VarMap::Flipped { col, upper } => upper - x[col],
                VarMap::Split { pos, neg } => x[pos] - x[neg],
            })
            .collect()
    }

    /// Recover the original objective value from the optimal `c'x`.
    pub fn objective(&self, standard: f64) -> f64 {
        let v = standard + self.obj_offset;
        if self.negated {
            -v
        } else {
            v
        }
    }
}

/// Convert `p` into standard form.
pub fn standardize(p: &Problem) -> StandardForm {
    let negated = p.sense == Sense::Maximize;
    let sign = if negated { -1.0 } else { 1.0 };

    // Assign columns to variables and record substitutions.
    let mut var_map = Vec::with_capacity(p.vars.len());
    let mut c: Vec<f64> = Vec::new();
    let mut obj_offset = 0.0;
    // Extra rows for finite ranges l..u (as x' <= u-l).
    let mut range_rows: Vec<(usize, f64)> = Vec::new();

    for v in &p.vars {
        let obj = sign * v.objective;
        if v.lower.is_finite() {
            let col = c.len();
            c.push(obj);
            obj_offset += obj * v.lower;
            var_map.push(VarMap::Shifted {
                col,
                lower: v.lower,
            });
            if v.upper.is_finite() {
                range_rows.push((col, v.upper - v.lower));
            }
        } else if v.upper.is_finite() {
            let col = c.len();
            c.push(-obj);
            obj_offset += obj * v.upper;
            var_map.push(VarMap::Flipped {
                col,
                upper: v.upper,
            });
        } else {
            let pos = c.len();
            c.push(obj);
            let neg = c.len();
            c.push(-obj);
            var_map.push(VarMap::Split { pos, neg });
        }
    }

    // Count slack columns needed: one per inequality row (including range rows).
    let n_ineq = p
        .constraints
        .iter()
        .filter(|con| con.cmp != Cmp::Eq)
        .count()
        + range_rows.len();
    let n_struct = c.len();
    let cols = n_struct + n_ineq;
    c.resize(cols, 0.0);

    let n_rows = p.constraints.len() + range_rows.len();
    let mut a = vec![vec![0.0; cols]; n_rows];
    let mut b = vec![0.0; n_rows];
    let mut next_slack = n_struct;

    for (row, con) in p.constraints.iter().enumerate() {
        let mut rhs = con.rhs;
        for &(vid, coef) in &con.terms {
            match var_map[vid.0] {
                VarMap::Shifted { col, lower } => {
                    a[row][col] += coef;
                    rhs -= coef * lower;
                }
                VarMap::Flipped { col, upper } => {
                    a[row][col] -= coef;
                    rhs -= coef * upper;
                }
                VarMap::Split { pos, neg } => {
                    a[row][pos] += coef;
                    a[row][neg] -= coef;
                }
            }
        }
        match con.cmp {
            Cmp::Le => {
                a[row][next_slack] = 1.0;
                next_slack += 1;
            }
            Cmp::Ge => {
                a[row][next_slack] = -1.0;
                next_slack += 1;
            }
            Cmp::Eq => {}
        }
        b[row] = rhs;
    }

    for (k, &(col, ub)) in range_rows.iter().enumerate() {
        let row = p.constraints.len() + k;
        a[row][col] = 1.0;
        a[row][next_slack] = 1.0;
        next_slack += 1;
        b[row] = ub;
    }
    debug_assert_eq!(next_slack, cols);

    // Normalize signs so b >= 0.
    let mut row_flipped = vec![false; n_rows];
    for row in 0..n_rows {
        if b[row] < 0.0 {
            b[row] = -b[row];
            for entry in &mut a[row] {
                *entry = -*entry;
            }
            row_flipped[row] = true;
        }
    }

    StandardForm {
        a,
        b,
        c,
        obj_offset,
        var_map,
        cols,
        negated,
        row_flipped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, Problem, Sense};

    #[test]
    fn shifted_lower_bound_moves_rhs() {
        // x >= 2, x <= 5, min x  ->  x' in [0,3], offset 2.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 2.0, 5.0, 1.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Le, 4.0);
        let sf = standardize(&p);
        assert_eq!(sf.obj_offset, 2.0);
        // One user row + one range row, each with a slack.
        assert_eq!(sf.a.len(), 2);
        assert_eq!(sf.b[0], 2.0); // 4 - lower(2)
        assert_eq!(sf.b[1], 3.0); // upper - lower
    }

    #[test]
    fn free_variable_splits() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", f64::NEG_INFINITY, f64::INFINITY, 1.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Eq, -3.0);
        let sf = standardize(&p);
        assert!(matches!(sf.var_map[0], VarMap::Split { .. }));
        // Row was sign-normalized.
        assert!(sf.b[0] >= 0.0);
        let recovered = sf.recover(&[0.0, 3.0]);
        assert_eq!(recovered[0], -3.0);
    }

    #[test]
    fn flipped_upper_only_variable() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", f64::NEG_INFINITY, 7.0, 1.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Le, 7.0);
        let sf = standardize(&p);
        assert!(matches!(sf.var_map[0], VarMap::Flipped { .. }));
        let recovered = sf.recover(&[2.0, 0.0]);
        assert_eq!(recovered[0], 5.0);
    }

    #[test]
    fn maximize_negates_objective() {
        let mut p = Problem::new(Sense::Maximize);
        p.add_var("x", 0.0, 1.0, 4.0);
        let sf = standardize(&p);
        assert!(sf.negated);
        assert_eq!(sf.c[0], -4.0);
    }
}
