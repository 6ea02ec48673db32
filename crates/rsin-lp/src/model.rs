//! LP modelling API: variables with bounds, linear constraints, an objective.
//!
//! The model layer is independent of the solution algorithm; [`crate::standard`]
//! lowers a [`Problem`] into computational standard form and
//! [`crate::solver`] runs two-phase simplex on it.

use crate::error::LpError;
use crate::solver::{solve_problem, Solution};

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    Minimize,
    Maximize,
}

/// Constraint comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `expr <= rhs`
    Le,
    /// `expr == rhs`
    Eq,
    /// `expr >= rhs`
    Ge,
}

/// Opaque handle to a decision variable of a [`Problem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Index of this variable within its problem (also its index in
    /// [`Solution::values`]).
    pub fn index(self) -> usize {
        self.0
    }
}

/// A decision variable: bounds and objective coefficient.
#[derive(Debug, Clone)]
pub struct Variable {
    /// Human-readable name used in debug dumps.
    pub name: String,
    /// Lower bound (may be 0, finite negative, or `-inf`).
    pub lower: f64,
    /// Upper bound (may be finite or `+inf`).
    pub upper: f64,
    /// Coefficient in the objective function.
    pub objective: f64,
}

/// A linear constraint `sum coeff_i * x_i (cmp) rhs`.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Sparse row: `(variable, coefficient)` pairs.
    pub terms: Vec<(VarId, f64)>,
    /// Comparison operator.
    pub cmp: Cmp,
    /// Right-hand side.
    pub rhs: f64,
}

/// A linear program under construction.
///
/// Build with [`Problem::add_var`] / [`Problem::add_constraint`], then call
/// [`Problem::solve`].
#[derive(Debug, Clone)]
pub struct Problem {
    pub(crate) sense: Sense,
    pub(crate) vars: Vec<Variable>,
    pub(crate) constraints: Vec<Constraint>,
}

impl Problem {
    /// Create an empty problem with the given optimization direction.
    pub fn new(sense: Sense) -> Self {
        Problem {
            sense,
            vars: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Optimization direction of this problem.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Add a decision variable and return its handle.
    ///
    /// `lower`/`upper` may be infinite. The variable contributes
    /// `objective * x` to the objective function.
    pub fn add_var(
        &mut self,
        name: impl Into<String>,
        lower: f64,
        upper: f64,
        objective: f64,
    ) -> VarId {
        let id = VarId(self.vars.len());
        self.vars.push(Variable {
            name: name.into(),
            lower,
            upper,
            objective,
        });
        id
    }

    /// Add a linear constraint. Terms with the same variable are summed.
    pub fn add_constraint(&mut self, terms: Vec<(VarId, f64)>, cmp: Cmp, rhs: f64) {
        self.constraints.push(Constraint { terms, cmp, rhs });
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints (rows), excluding variable bounds.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Read access to a variable's metadata.
    pub fn var(&self, id: VarId) -> &Variable {
        &self.vars[id.0]
    }

    /// Iterate over the constraints.
    pub fn constraints(&self) -> impl Iterator<Item = &Constraint> {
        self.constraints.iter()
    }

    /// Validate problem data: variable ids in range, finite-or-infinite
    /// bounds ordered correctly, no NaNs.
    pub fn validate(&self) -> Result<(), LpError> {
        for (i, v) in self.vars.iter().enumerate() {
            if v.lower.is_nan() || v.upper.is_nan() || v.objective.is_nan() {
                return Err(LpError::NotANumber);
            }
            if v.lower > v.upper {
                return Err(LpError::InvalidBounds {
                    var: i,
                    lower: v.lower,
                    upper: v.upper,
                });
            }
        }
        for c in &self.constraints {
            if c.rhs.is_nan() {
                return Err(LpError::NotANumber);
            }
            for &(vid, coef) in &c.terms {
                if coef.is_nan() {
                    return Err(LpError::NotANumber);
                }
                if vid.0 >= self.vars.len() {
                    return Err(LpError::UnknownVariable(vid.0));
                }
            }
        }
        Ok(())
    }

    /// Solve the problem with the two-phase revised simplex.
    ///
    /// Returns [`LpError::Infeasible`] / [`LpError::Unbounded`] when
    /// appropriate.
    pub fn solve(&self) -> Result<Solution, LpError> {
        self.validate()?;
        solve_problem(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_ids_are_sequential() {
        let mut p = Problem::new(Sense::Minimize);
        let a = p.add_var("a", 0.0, 1.0, 1.0);
        let b = p.add_var("b", 0.0, 1.0, 1.0);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(p.num_vars(), 2);
    }

    #[test]
    fn validate_rejects_bad_bounds() {
        let mut p = Problem::new(Sense::Minimize);
        p.add_var("x", 2.0, 1.0, 0.0);
        assert!(matches!(p.validate(), Err(LpError::InvalidBounds { .. })));
    }

    #[test]
    fn validate_rejects_unknown_variable() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 0.0, 1.0, 0.0);
        let mut q = Problem::new(Sense::Minimize);
        q.add_constraint(vec![(x, 1.0)], Cmp::Le, 1.0);
        assert!(matches!(q.validate(), Err(LpError::UnknownVariable(0))));
    }

    #[test]
    fn validate_rejects_nan() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 0.0, 1.0, 0.0);
        p.add_constraint(vec![(x, f64::NAN)], Cmp::Le, 1.0);
        assert_eq!(p.validate(), Err(LpError::NotANumber));
    }
}
