//! Solver driver: standardize → two-phase revised simplex → recover
//! original values.

use crate::error::LpError;
use crate::model::{Problem, VarId};
use crate::revised::solve_standard_revised;
use crate::standard::standardize;

/// Termination status of a successful solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// An optimal basic solution was found.
    Optimal,
}

/// Optimal solution of a [`Problem`].
#[derive(Debug, Clone)]
pub struct Solution {
    /// Values of the original decision variables, indexed by [`VarId`].
    pub values: Vec<f64>,
    /// Optimal objective value in the original problem's sense.
    pub objective: f64,
    /// Dual value (shadow price) per user constraint, in the original
    /// problem's sense: the rate of change of the optimal objective per
    /// unit increase of that constraint's right-hand side.
    pub duals: Vec<f64>,
    /// Termination status.
    pub status: SolveStatus,
    /// Total simplex pivots performed (a work measure used by benches).
    pub pivots: usize,
}

impl Solution {
    /// Value of one variable.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.index()]
    }

    /// True when every variable value is within `tol` of an integer.
    ///
    /// Used by the multicommodity scheduler to check the Evans–Jarvis
    /// integrality property on restricted interconnection topologies.
    pub fn is_integral(&self, tol: f64) -> bool {
        self.values.iter().all(|v| (v - v.round()).abs() <= tol)
    }
}

/// Solve an LP model (called via [`Problem::solve`]) with the revised
/// simplex.
pub fn solve_problem(p: &Problem) -> Result<Solution, LpError> {
    let sf = standardize(p);
    let r = solve_standard_revised(&sf.a, &sf.b, &sf.c)?;
    let values = sf.recover(&r.x);
    let objective = sf.objective(r.objective);
    // Duals back in user coordinates: undo row sign flips and the max->min
    // negation; drop the internal range rows appended after user rows.
    let duals = r
        .duals
        .iter()
        .take(p.num_constraints())
        .zip(&sf.row_flipped)
        .map(|(&y0, &flipped)| {
            let mut y = y0;
            if flipped {
                y = -y;
            }
            if sf.negated {
                y = -y;
            }
            y
        })
        .collect();
    Ok(Solution {
        values,
        objective,
        duals,
        status: SolveStatus::Optimal,
        pivots: r.pivots,
    })
}

#[cfg(test)]
mod tests {
    use crate::{Cmp, LpError, Problem, Sense};

    #[test]
    fn classic_max_lp() {
        // The Dantzig example from the crate docs.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, f64::INFINITY, 3.0);
        let y = p.add_var("y", 0.0, f64::INFINITY, 5.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Le, 4.0);
        p.add_constraint(vec![(y, 2.0)], Cmp::Le, 12.0);
        p.add_constraint(vec![(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
        let s = p.solve().unwrap();
        assert!((s.objective - 36.0).abs() < 1e-6);
    }

    #[test]
    fn minimization_with_ge_rows() {
        // min 2x + 3y  s.t.  x + y >= 4, x >= 1  => x = 4, y = 0 gives 8?
        // Actually x=4,y=0: cost 8; x=1,y=3: 2+9=11. So optimum picks x.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 0.0, f64::INFINITY, 2.0);
        let y = p.add_var("y", 0.0, f64::INFINITY, 3.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 4.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Ge, 1.0);
        let s = p.solve().unwrap();
        assert!((s.objective - 8.0).abs() < 1e-6);
        assert!((s.value(x) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn bounded_variables_respected() {
        // max x + y with x in [0,2], y in [1,3], x + y <= 4.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, 2.0, 1.0);
        let y = p.add_var("y", 1.0, 3.0, 1.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
        let s = p.solve().unwrap();
        assert!((s.objective - 4.0).abs() < 1e-6);
        assert!(s.value(x) <= 2.0 + 1e-9);
        assert!(s.value(y) >= 1.0 - 1e-9);
        assert!(s.value(y) <= 3.0 + 1e-9);
    }

    #[test]
    fn negative_lower_bound() {
        // min x with x in [-5, 5] and x >= -3  => x = -3.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", -5.0, 5.0, 1.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Ge, -3.0);
        let s = p.solve().unwrap();
        assert!((s.value(x) + 3.0).abs() < 1e-6);
        assert!((s.objective + 3.0).abs() < 1e-6);
    }

    #[test]
    fn free_variable_equality() {
        // min |structure|: x free, x + y = 0, y in [2, 10], min y - x  => y=2, x=-2, obj 4.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", f64::NEG_INFINITY, f64::INFINITY, -1.0);
        let y = p.add_var("y", 2.0, 10.0, 1.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 0.0);
        let s = p.solve().unwrap();
        assert!((s.value(y) - 2.0).abs() < 1e-6);
        assert!((s.value(x) + 2.0).abs() < 1e-6);
        assert!((s.objective - 4.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_bounds_vs_constraint() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 0.0, 1.0, 1.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Ge, 2.0);
        assert_eq!(p.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_maximization() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, f64::INFINITY, 1.0);
        let y = p.add_var("y", 0.0, f64::INFINITY, 0.0);
        p.add_constraint(vec![(x, 1.0), (y, -1.0)], Cmp::Le, 1.0);
        assert_eq!(p.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn assignment_lp_is_integral() {
        // 3x3 assignment problem relaxation; vertices of the Birkhoff
        // polytope are permutation matrices, so the LP optimum is integral.
        let cost = [[4.0, 2.0, 8.0], [4.0, 3.0, 7.0], [3.0, 1.0, 6.0]];
        let mut p = Problem::new(Sense::Minimize);
        let mut vars = [[None; 3]; 3];
        for i in 0..3 {
            for j in 0..3 {
                vars[i][j] = Some(p.add_var(format!("x{i}{j}"), 0.0, 1.0, cost[i][j]));
            }
        }
        for (i, var_row) in vars.iter().enumerate() {
            let row: Vec<_> = var_row.iter().map(|v| (v.unwrap(), 1.0)).collect();
            p.add_constraint(row, Cmp::Eq, 1.0);
            let col: Vec<_> = (0..3).map(|j| (vars[j][i].unwrap(), 1.0)).collect();
            p.add_constraint(col, Cmp::Eq, 1.0);
        }
        let s = p.solve().unwrap();
        assert!(s.is_integral(1e-6));
        // Optimal assignment: (0,1)+(1,0)+(2,2) = 2+4+6 = 12, or (0,1)=2,(1,2)=7,(2,0)=3 = 12.
        assert!((s.objective - 12.0).abs() < 1e-6);
    }

    #[test]
    fn dantzig_duals_are_the_textbook_shadow_prices() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, f64::INFINITY, 3.0);
        let y = p.add_var("y", 0.0, f64::INFINITY, 5.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Le, 4.0);
        p.add_constraint(vec![(y, 2.0)], Cmp::Le, 12.0);
        p.add_constraint(vec![(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
        let s = p.solve().unwrap();
        assert!((s.duals[0] - 0.0).abs() < 1e-6, "{:?}", s.duals);
        assert!((s.duals[1] - 1.5).abs() < 1e-6, "{:?}", s.duals);
        assert!((s.duals[2] - 1.0).abs() < 1e-6, "{:?}", s.duals);
        // Strong duality: y'b == optimal objective.
        let yb = s.duals[0] * 4.0 + s.duals[1] * 12.0 + s.duals[2] * 18.0;
        assert!((yb - s.objective).abs() < 1e-6);
    }

    #[test]
    fn duals_predict_rhs_perturbation() {
        // Shadow price check by finite difference: raise one rhs by 1 and
        // compare the objective delta with the dual value.
        let build = |rhs2: f64| {
            let mut p = Problem::new(Sense::Maximize);
            let x = p.add_var("x", 0.0, f64::INFINITY, 3.0);
            let y = p.add_var("y", 0.0, f64::INFINITY, 5.0);
            p.add_constraint(vec![(x, 1.0)], Cmp::Le, 4.0);
            p.add_constraint(vec![(y, 2.0)], Cmp::Le, rhs2);
            p.add_constraint(vec![(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
            p.solve().unwrap()
        };
        let base = build(12.0);
        let bumped = build(12.5);
        let predicted = base.objective + 0.5 * base.duals[1];
        assert!((bumped.objective - predicted).abs() < 1e-6);
    }

    #[test]
    fn minimization_ge_duals_are_nonnegative() {
        // min 2x + 3y, x + y >= 4: binding constraint has dual = 2 (the
        // cheaper variable's cost).
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 0.0, f64::INFINITY, 2.0);
        let y = p.add_var("y", 0.0, f64::INFINITY, 3.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 4.0);
        let s = p.solve().unwrap();
        assert!((s.duals[0] - 2.0).abs() < 1e-6, "{:?}", s.duals);
    }

    #[test]
    fn empty_problem_solves_trivially() {
        let p = Problem::new(Sense::Minimize);
        let s = p.solve().unwrap();
        assert_eq!(s.objective, 0.0);
        assert!(s.values.is_empty());
    }
}
