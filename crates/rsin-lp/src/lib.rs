//! # rsin-lp — a dense two-phase simplex solver
//!
//! Linear-programming substrate for the RSIN workspace. The paper
//! (Juang & Wah, *Resource Sharing Interconnection Networks in
//! Multiprocessors*) solves heterogeneous resource scheduling by casting it
//! as a **multicommodity (minimum-cost) flow** problem and notes that for the
//! restricted topologies arising from interconnection networks the optimal
//! flows "can be obtained efficiently by the Simplex Method". This crate is
//! that simplex method, built from scratch:
//!
//! * a small modelling API ([`Problem`], [`Variable`], [`Constraint`]) for
//!   assembling LPs with bounded variables and `<=` / `=` / `>=` rows;
//! * conversion to standard computational form (`min c'x, Ax = b, x >= 0`)
//!   in [`standard`];
//! * a two-phase *revised* simplex with Bland's anti-cycling rule and an
//!   explicit basis inverse in [`revised`] (cheap when columns far outnumber
//!   rows, as in multicommodity flow LPs): the one solver [`Problem::solve`]
//!   runs;
//! * a dense full-tableau simplex in [`tableau`], kept as the reference the
//!   property tests and the `simplex` bench compare the revised one with;
//! * a solver driver returning primal values, objective, and solution status
//!   in [`solver`].
//!
//! The solvers are exact enough for the flow LPs used here (hundreds of
//! variables) and deliberately dense: problem sizes are bounded by the
//! interconnection networks under study (≤ 64×64 ports), so sparse
//! factorizations would be complexity without payoff.
//!
//! ```
//! use rsin_lp::{Problem, Sense, Cmp};
//!
//! // max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0
//! let mut p = Problem::new(Sense::Maximize);
//! let x = p.add_var("x", 0.0, f64::INFINITY, 3.0);
//! let y = p.add_var("y", 0.0, f64::INFINITY, 5.0);
//! p.add_constraint(vec![(x, 1.0)], Cmp::Le, 4.0);
//! p.add_constraint(vec![(y, 2.0)], Cmp::Le, 12.0);
//! p.add_constraint(vec![(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
//! let sol = p.solve().unwrap();
//! assert!((sol.objective - 36.0).abs() < 1e-6);
//! assert!((sol.value(x) - 2.0).abs() < 1e-6);
//! assert!((sol.value(y) - 6.0).abs() < 1e-6);
//! ```

pub mod error;
pub mod model;
pub mod revised;
pub mod solver;
pub mod standard;
pub mod tableau;

pub use error::LpError;
pub use model::{Cmp, Constraint, Problem, Sense, VarId, Variable};
pub use solver::{Solution, SolveStatus};

/// Numerical tolerance used throughout the solver for feasibility and
/// optimality tests. LPs in this workspace have integer data, so a fairly
/// loose tolerance is safe.
pub const EPS: f64 = 1e-9;
