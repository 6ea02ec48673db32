//! Assertions for every worked example and headline number in the paper —
//! the same checks the experiment binaries print, locked in as tests.

use rsin_core::mapping::verify;
use rsin_core::model::ScheduleProblem;
use rsin_core::scheduler::{AddressMappedScheduler, MaxFlowScheduler, MinCostScheduler, Scheduler};
use rsin_distrib::TokenEngine;
use rsin_flow::max_flow::{solve as max_flow_solve, Algorithm};
use rsin_flow::FlowNetworkBuilder;
use rsin_sim::blocking::{run_blocking, BlockingConfig};
use rsin_topology::builders::{generalized_cube, omega};
use rsin_topology::CircuitState;

/// Fig. 2: 8×8 Omega, p2→r6 and p4→r4 occupied, five requests, five free
/// resources — the optimal mapping allocates all five.
#[test]
fn fig2_optimal_allocates_all_five() {
    let net = omega(8).unwrap();
    let mut cs = CircuitState::new(&net);
    cs.connect(1, 5).unwrap();
    cs.connect(3, 3).unwrap();
    let problem = ScheduleProblem::homogeneous(&cs, &[0, 2, 4, 6, 7], &[0, 2, 4, 6, 7]);
    let out = MaxFlowScheduler::default().schedule(&problem);
    assert_eq!(out.allocated(), 5);
    verify(&out.assignments, &problem).unwrap();
    // ... and a fixed arbitrary mapping blocks (the paper's point).
    let mut fixed = cs.clone();
    let mut placed = 0;
    for (p, r) in [(0, 0), (2, 4), (4, 2), (6, 6), (7, 7)] {
        if fixed.connect(p, r).is_ok() {
            placed += 1;
        }
    }
    assert!(
        placed < 5,
        "the fixed mapping must lose at least one allocation"
    );
}

/// Figs. 3–4: augmenting through a cancellation reallocates resources.
#[test]
fn fig3_4_augmentation_reallocates() {
    let mut g = FlowNetworkBuilder::new();
    let s = g.add_node("s");
    let a = g.add_node("a");
    let b = g.add_node("b");
    let c = g.add_node("c");
    let d = g.add_node("d");
    let t = g.add_node("t");
    let sa = g.add_arc(s, a, 1, 0);
    g.add_arc(s, c, 1, 0);
    g.add_arc(a, b, 1, 0);
    let ad = g.add_arc(a, d, 1, 0);
    g.add_arc(c, d, 1, 0);
    g.add_arc(b, t, 1, 0);
    let dt = g.add_arc(d, t, 1, 0);
    let mut g = g.build();
    g.push(sa, 1);
    g.push(ad, 1);
    g.push(dt, 1);
    assert_eq!(g.check_legal_flow(s, t).unwrap(), 1);
    max_flow_solve(&mut g, s, t, Algorithm::Dinic);
    assert_eq!(g.flow_value(s), 2);
    assert_eq!(g.arc(ad).flow, 0, "a->d cancelled, exactly as Fig. 3(c)");
}

/// Fig. 5: min-cost flow allocates every request and picks the
/// highest-preference resources.
#[test]
fn fig5_min_cost_prefers_preferred_resources() {
    let net = omega(8).unwrap();
    let cs = CircuitState::new(&net);
    let problem = ScheduleProblem::with_priorities(
        &cs,
        &[(2, 10), (4, 6), (7, 3)],
        &[(0, 9), (2, 2), (4, 8), (6, 7), (7, 1)],
    );
    for algo in rsin_flow::min_cost::Algorithm::ALL {
        let out = MinCostScheduler::new(algo).schedule(&problem);
        assert_eq!(out.allocated(), 3, "{algo:?}");
        let mut chosen: Vec<usize> = out.assignments.iter().map(|a| a.resource).collect();
        chosen.sort_unstable();
        assert_eq!(chosen, vec![0, 4, 6], "{algo:?}: r1, r5, r7 selected");
        verify(&out.assignments, &problem).unwrap();
    }
}

/// Fig. 10 / Table I: the distributed cycle walks the paper's bus vectors.
#[test]
fn fig10_bus_vectors() {
    let net = omega(8).unwrap();
    let mut cs = CircuitState::new(&net);
    cs.connect(1, 5).unwrap();
    cs.connect(3, 3).unwrap();
    let problem = ScheduleProblem::homogeneous(&cs, &[0, 2, 4, 6, 7], &[0, 2, 4, 6, 7]);
    let report = TokenEngine::run(&problem);
    assert_eq!(report.outcome.assignments.len(), 5);
    let vectors: Vec<&str> = report.trace.iter().map(|t| t.vector.as_str()).collect();
    for expected in ["111000x", "111001x", "110100x", "110110x"] {
        assert!(
            vectors.contains(&expected),
            "missing {expected} in {vectors:?}"
        );
    }
}

/// Headline numbers: optimal scheduling in the low single digits of
/// blocking on free 8×8 cube/Omega MRSINs; the conventional address-mapped
/// discipline an order of magnitude worse (paper: ≈2 % vs ≈20 %).
#[test]
fn headline_blocking_numbers() {
    let cube = generalized_cube(8).unwrap();
    let cfg = BlockingConfig {
        trials: 400,
        requests: 5,
        resources: 5,
        occupied_circuits: 0,
        seed: 2026,
    };
    let optimal = run_blocking(&cube, &MaxFlowScheduler::default(), &cfg).unwrap();
    let address = run_blocking(&cube, &AddressMappedScheduler::new(1), &cfg).unwrap();
    assert!(
        optimal.blocking.mean < 0.05,
        "optimal blocking {} should be low single digits",
        optimal.blocking.mean
    );
    assert!(
        address.blocking.mean > 3.0 * optimal.blocking.mean,
        "address-mapped ({}) must be several times worse than optimal ({})",
        address.blocking.mean,
        optimal.blocking.mean
    );
    // Omega: the paper's "< 5 percent" claim.
    let om = omega(8).unwrap();
    let o = run_blocking(&om, &MaxFlowScheduler::default(), &cfg).unwrap();
    assert!(
        o.blocking.mean < 0.05,
        "omega optimal blocking {}",
        o.blocking.mean
    );
}

/// "If extra stages are provided … finding an optimal mapping becomes less
/// critical": the optimal-vs-greedy gap shrinks to ~zero with extra stages.
#[test]
fn extra_stages_shrink_the_gap() {
    use rsin_core::scheduler::{GreedyScheduler, RequestOrder};
    use rsin_topology::builders::omega_extra_stage;
    let cfg = BlockingConfig {
        trials: 250,
        requests: 6,
        resources: 6,
        occupied_circuits: 1,
        seed: 5,
    };
    let gap = |extra: usize| {
        let net = omega_extra_stage(8, extra).unwrap();
        let o = run_blocking(&net, &MaxFlowScheduler::default(), &cfg)
            .unwrap()
            .blocking
            .mean;
        let h = run_blocking(&net, &GreedyScheduler::new(RequestOrder::Shuffled(2)), &cfg)
            .unwrap()
            .blocking
            .mean;
        h - o
    };
    let g0 = gap(0);
    let g2 = gap(2);
    assert!(
        g2 < g0,
        "gap with 2 extra stages ({g2}) < gap with none ({g0})"
    );
    assert!(g2 < 0.02, "gap nearly vanishes: {g2}");
}
