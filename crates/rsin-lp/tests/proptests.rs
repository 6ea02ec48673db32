//! Property tests over the simplex solver.

use proptest::prelude::*;
use rsin_lp::{standard, tableau, Cmp, LpError, Problem, Sense};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For bounded-box maximization with `<=` rows, the simplex optimum is
    /// never beaten by any sampled feasible point (weak duality, checked
    /// numerically).
    #[test]
    fn optimum_dominates_sampled_feasible_points(
        nv in 1usize..5,
        objs in proptest::collection::vec(-5i64..6, 1..5),
        rows in proptest::collection::vec(
            (proptest::collection::vec(0i64..4, 1..5), 1i64..20),
            0..5,
        ),
        samples in proptest::collection::vec(proptest::collection::vec(0.0f64..3.0, 1..5), 1..12),
    ) {
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..nv)
            .map(|i| p.add_var(format!("x{i}"), 0.0, 3.0, objs[i % objs.len()] as f64))
            .collect();
        for (coefs, rhs) in &rows {
            let terms: Vec<_> = vars
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, coefs[i % coefs.len()] as f64))
                .collect();
            p.add_constraint(terms, Cmp::Le, *rhs as f64);
        }
        let sol = match p.solve() {
            Ok(s) => s,
            Err(LpError::Unbounded) => unreachable!("box-bounded"),
            Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
        };
        // Try each sampled point; if feasible, its objective must not beat
        // the reported optimum.
        for point in &samples {
            let x: Vec<f64> = (0..nv).map(|i| point[i % point.len()]).collect();
            let feasible = rows.iter().all(|(coefs, rhs)| {
                let lhs: f64 = x
                    .iter()
                    .enumerate()
                    .map(|(i, xi)| coefs[i % coefs.len()] as f64 * xi)
                    .sum();
                lhs <= *rhs as f64 + 1e-9
            });
            if feasible {
                let val: f64 = x
                    .iter()
                    .enumerate()
                    .map(|(i, xi)| objs[i % objs.len()] as f64 * xi)
                    .sum();
                prop_assert!(val <= sol.objective + 1e-6,
                    "feasible point {x:?} has value {val} > optimum {}", sol.objective);
            }
        }
        // The optimum itself is feasible and within bounds.
        for (i, v) in sol.values.iter().enumerate() {
            prop_assert!((-1e-9..=3.0 + 1e-9).contains(v), "x{i} = {v}");
        }
    }

    /// The revised simplex (`Problem::solve`) and the reference tableau
    /// agree on the objective of random box-bounded LPs.
    #[test]
    fn tableau_and_revised_agree(
        nv in 1usize..5,
        objs in proptest::collection::vec(-5i64..6, 1..5),
        rows in proptest::collection::vec(
            (proptest::collection::vec(-2i64..4, 1..5), -5i64..20, 0usize..3),
            0..6,
        ),
    ) {
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..nv)
            .map(|i| p.add_var(format!("x{i}"), 0.0, 4.0, objs[i % objs.len()] as f64))
            .collect();
        for (coefs, rhs, cmp) in &rows {
            let terms: Vec<_> = vars
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, coefs[i % coefs.len()] as f64))
                .collect();
            let cmp = match cmp {
                0 => Cmp::Le,
                1 => Cmp::Ge,
                _ => Cmp::Eq,
            };
            p.add_constraint(terms, cmp, *rhs as f64);
        }
        let sf = standard::standardize(&p);
        let t = tableau::solve_standard(&sf.a, &sf.b, &sf.c).map(|t| sf.objective(t.objective));
        let r = p.solve().map(|r| r.objective);
        match (t, r) {
            (Ok(t), Ok(r)) => {
                prop_assert!((t - r).abs() < 1e-6, "tableau {} revised {}", t, r);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (t, r) => return Err(TestCaseError::fail(format!("mismatch: {t:?} vs {r:?}"))),
        }
    }

    /// Equality-constrained transport LPs: the solver's objective equals
    /// the dual bound `y'b` (strong duality).
    #[test]
    fn strong_duality_on_random_lps(
        nv in 2usize..5,
        costs in proptest::collection::vec(0i64..9, 2..5),
        total in 1i64..8,
    ) {
        // min c'x  s.t.  sum x_i = total, 0 <= x_i <= total.
        let mut p = Problem::new(Sense::Minimize);
        let vars: Vec<_> = (0..nv)
            .map(|i| p.add_var(format!("x{i}"), 0.0, total as f64, costs[i % costs.len()] as f64))
            .collect();
        p.add_constraint(vars.iter().map(|&v| (v, 1.0)).collect(), Cmp::Eq, total as f64);
        let sol = p.solve().unwrap();
        // Optimal: put everything on the cheapest variable.
        let cmin = (0..nv).map(|i| costs[i % costs.len()]).min().unwrap();
        prop_assert!((sol.objective - (cmin * total) as f64).abs() < 1e-6);
        // Strong duality against the single equality row.
        let yb = sol.duals[0] * total as f64;
        prop_assert!((yb - sol.objective).abs() < 1e-6,
            "y'b = {yb} vs obj = {}", sol.objective);
    }
}
