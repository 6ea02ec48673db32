//! Property-based tests (proptest) over the core invariants:
//! max-flow = min-cut certificates on arbitrary digraphs, min-cost
//! optimality agreement, scheduler mapping validity, and circuit-state
//! bookkeeping.

use proptest::prelude::*;
use rsin_core::mapping::verify;
use rsin_core::model::ScheduleProblem;
use rsin_core::scheduler::{
    GreedyScheduler, MaxFlowScheduler, MinCostScheduler, RequestOrder, Scheduler,
};
use rsin_flow::cut::verify_max_flow;
use rsin_flow::max_flow::{solve, Algorithm};
use rsin_flow::min_cost;
use rsin_flow::path::decompose_unit_flow;
use rsin_flow::{FlowNetwork, FlowNetworkBuilder};
use rsin_integration::{problem_with_attrs, snapshot};
use rsin_sim::workload::trial_rng;
use rsin_topology::builders::{generalized_cube, omega, omega_3dp, omega_extra_stage};
use rsin_topology::{CircuitState, NodeRef};

/// Strategy: a random digraph as (nodes, arc list with caps and costs).
fn arb_flow_network() -> impl Strategy<Value = (usize, Vec<(usize, usize, i64, i64)>)> {
    (3usize..10).prop_flat_map(|n| {
        let arcs = proptest::collection::vec((0..n, 0..n, 1i64..8, 0i64..6), 1..30);
        (Just(n), arcs)
    })
}

fn build(n: usize, arcs: &[(usize, usize, i64, i64)]) -> FlowNetwork {
    let mut g = FlowNetworkBuilder::new();
    for i in 0..n {
        g.add_node(format!("n{i}"));
    }
    for &(u, v, cap, cost) in arcs {
        if u != v {
            g.add_arc(
                rsin_flow::NodeId(u as u32),
                rsin_flow::NodeId(v as u32),
                cap,
                cost,
            );
        }
    }
    g.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every algorithm's max flow passes the independent min-cut
    /// certificate, and all three agree.
    #[test]
    fn max_flow_certified_by_min_cut((n, arcs) in arb_flow_network()) {
        let s = rsin_flow::NodeId(0);
        let t = rsin_flow::NodeId(n as u32 - 1);
        let mut values = Vec::new();
        for algo in Algorithm::ALL {
            let mut g = build(n, &arcs);
            let r = solve(&mut g, s, t, algo);
            let certified = verify_max_flow(&g, s, t).unwrap();
            prop_assert_eq!(r.value, certified);
            values.push(r.value);
        }
        prop_assert!(values.windows(2).all(|w| w[0] == w[1]));
    }

    /// Min-cost algorithms agree on (flow value, cost) for any target.
    #[test]
    fn min_cost_algorithms_agree((n, arcs) in arb_flow_network(), target in 1i64..6) {
        let s = rsin_flow::NodeId(0);
        let t = rsin_flow::NodeId(n as u32 - 1);
        let mut results = Vec::new();
        for algo in min_cost::Algorithm::ALL {
            let mut g = build(n, &arcs);
            let r = min_cost::solve(&mut g, s, t, target, algo);
            prop_assert_eq!(g.check_legal_flow(s, t).unwrap(), r.flow);
            results.push((r.flow, r.cost));
        }
        prop_assert_eq!(results[0], results[1]);
    }

    /// Unit-capacity flows decompose into exactly `value` arc-disjoint
    /// paths (the constructive half of Theorem 2).
    #[test]
    fn unit_flow_decomposition_counts((n, arcs) in arb_flow_network()) {
        let s = rsin_flow::NodeId(0);
        let t = rsin_flow::NodeId(n as u32 - 1);
        // Force unit capacities.
        let unit: Vec<_> = arcs.iter().map(|&(u, v, _, c)| (u, v, 1, c)).collect();
        let mut g = build(n, &unit);
        let r = solve(&mut g, s, t, Algorithm::Dinic);
        let paths = decompose_unit_flow(&g, s, t, None);
        prop_assert_eq!(paths.len() as i64, r.value);
        let mut used = std::collections::HashSet::new();
        for p in &paths {
            for &a in &p.arcs {
                prop_assert!(used.insert(a), "arc reused across paths");
            }
        }
    }

    /// Every scheduler on every random snapshot produces a certified
    /// mapping, and the optimal is never beaten.
    #[test]
    fn schedulers_always_valid(seed in 0u64..500, k in 2usize..7, occ in 0usize..3) {
        let net = omega(8).unwrap();
        let snap = snapshot(&net, seed, 0, k, occ);
        let problem =
            ScheduleProblem::homogeneous(&snap.circuits, &snap.requesting, &snap.free);
        let opt = MaxFlowScheduler::default().schedule(&problem);
        verify(&opt.assignments, &problem).unwrap();
        for order in [RequestOrder::Index, RequestOrder::Shuffled(seed)] {
            let heu = GreedyScheduler::new(order).schedule(&problem);
            verify(&heu.assignments, &problem).unwrap();
            prop_assert!(heu.allocated() <= opt.allocated());
        }
    }

    /// Priority scheduling: cardinality equals the unpriced optimum, and
    /// the reported cost is consistent with the mapping (Theorem 3).
    #[test]
    fn priority_cost_consistency(seed in 0u64..200, k in 2usize..6) {
        let net = generalized_cube(8).unwrap();
        let snap = snapshot(&net, seed, 1, k, 1);
        let mut rng = trial_rng(seed, 77);
        let problem = problem_with_attrs(&snap, 10, 1, &mut rng);
        let out = MinCostScheduler::default().schedule(&problem);
        verify(&out.assignments, &problem).unwrap();
        let plain = ScheduleProblem::homogeneous(&snap.circuits, &snap.requesting, &snap.free);
        let unpriced = MaxFlowScheduler::default().schedule(&plain);
        prop_assert_eq!(out.allocated(), unpriced.allocated());
        // Recompute cost independently.
        let gmax = problem.max_priority() as i64;
        let qmax = problem.max_preference() as i64;
        let expect: i64 = out.assignments.iter().map(|a| {
            let req = problem.requests.iter().find(|r| r.processor == a.processor).unwrap();
            let res = problem.free.iter().find(|f| f.resource == a.resource).unwrap();
            (gmax - req.priority as i64) + (qmax - res.preference as i64)
        }).sum();
        prop_assert_eq!(out.total_cost, expect);
    }

    /// Circuit bookkeeping: establish/release over random pair sequences
    /// always returns the network to fully free.
    #[test]
    fn circuit_state_roundtrip(pairs in proptest::collection::vec((0usize..8, 0usize..8), 1..10)) {
        let net = omega(8).unwrap();
        let mut cs = CircuitState::new(&net);
        let mut live = Vec::new();
        for (p, r) in pairs {
            if let Ok(c) = cs.connect(p, r) {
                live.push(c);
            }
        }
        let held: usize = live.iter().map(|c| cs.circuit_links(*c).unwrap().len()).sum();
        prop_assert_eq!(cs.occupied_count(), held);
        for c in live {
            cs.release(c).unwrap();
        }
        prop_assert_eq!(cs.occupied_count(), 0);
    }

    /// Transshipment: all min-cost algorithms agree on random balanced
    /// instances (or all report the same infeasibility).
    #[test]
    fn transshipment_algorithms_agree(
        (n, arcs) in arb_flow_network(),
        supplies in proptest::collection::vec(0i64..4, 3..10),
    ) {
        use rsin_flow::transshipment::Transshipment;
        let mut t = Transshipment::new();
        // Balance: mirror each supply with a demand on another node.
        let k = n.min(supplies.len() / 2 * 2);
        for i in 0..n {
            let s = if i < k / 2 {
                supplies[i]
            } else if i < k {
                -supplies[i - k / 2]
            } else {
                0
            };
            t.add_node(format!("n{i}"), s);
        }
        for &(u, v, cap, cost) in &arcs {
            if u != v {
                t.add_arc(u, v, cap, cost);
            }
        }
        let results: Vec<_> = min_cost::Algorithm::ALL
            .iter()
            .map(|&algo| t.solve(algo).map(|r| r.cost))
            .collect();
        prop_assert!(
            results.windows(2).all(|w| w[0] == w[1]),
            "algorithms disagree: {results:?}"
        );
    }

    /// The distributed engine equals software Dinic on random instances
    /// (Theorem 4 as a property).
    #[test]
    fn token_engine_equals_dinic(seed in 0u64..300, k in 2usize..8, occ in 0usize..4) {
        let net = omega(8).unwrap();
        let snap = snapshot(&net, seed, 2, k, occ);
        let problem =
            ScheduleProblem::homogeneous(&snap.circuits, &snap.requesting, &snap.free);
        let hw = rsin_distrib::TokenEngine::run(&problem);
        let sw = MaxFlowScheduler::default().schedule(&problem);
        prop_assert_eq!(hw.outcome.assignments.len(), sw.allocated());
        verify(&hw.outcome.assignments, &problem).unwrap();
    }
}

// ---------------------------------------------------------------------------
// Path-diverse generator properties (extra-stage Omega and 3-disjoint-paths).
// ---------------------------------------------------------------------------

/// Every processor can reach every resource on an otherwise-empty network.
fn assert_full_access(net: &rsin_topology::Network) {
    let cs = CircuitState::new(net);
    for p in 0..net.num_processors() {
        for r in 0..net.num_resources() {
            assert!(
                cs.find_path(p, r).is_some(),
                "{}: no path {p} -> {r}",
                net.name()
            );
        }
    }
}

#[test]
fn path_diverse_generators_have_full_access() {
    for n in [4usize, 8, 16] {
        for extra in 0usize..3 {
            assert_full_access(&omega_extra_stage(n, extra).unwrap());
        }
        assert_full_access(&omega_3dp(n).unwrap());
    }
}

/// Max-flow >= 3 certificate for the 3-disjoint-paths generator: between
/// every processor/resource pair, a unit-capacity solve over the fabric
/// (one cap-1 arc per inter-box link) pushes at least 3 units from the
/// pair's entry box to its exit box — i.e. three arc-disjoint routes
/// survive between every pair, so any two fabric link faults leave the
/// pair connected.
#[test]
fn three_disjoint_paths_certified_by_unit_capacity_max_flow() {
    let net = omega_3dp(8).unwrap();
    for p in 0..net.num_processors() {
        for r in 0..net.num_resources() {
            let mut g = FlowNetworkBuilder::new();
            for b in 0..net.num_boxes() {
                g.add_node(format!("b{b}"));
            }
            for (_, link) in net.links() {
                if let (NodeRef::Box(u), NodeRef::Box(v)) = (link.src, link.dst) {
                    g.add_arc(
                        rsin_flow::NodeId(u as u32),
                        rsin_flow::NodeId(v as u32),
                        1,
                        0,
                    );
                }
            }
            let mut g = g.build();
            let NodeRef::Box(entry) = net.link(net.processor_link(p).unwrap()).dst else {
                panic!("processor {p} not attached to a box");
            };
            let NodeRef::Box(exit) = net.link(net.resource_link(r).unwrap()).src else {
                panic!("resource {r} not attached to a box");
            };
            let flow = solve(
                &mut g,
                rsin_flow::NodeId(entry as u32),
                rsin_flow::NodeId(exit as u32),
                Algorithm::Dinic,
            );
            assert!(
                flow.value >= 3,
                "3dp pair ({p},{r}): unit max-flow {} < 3",
                flow.value
            );
        }
    }
}

/// `omega_extra_stage(n, 0)` is bit-identical to plain `omega(n)`: same
/// stage/box/link structure, element by element (only the registry name
/// differs: `omega-8+0` vs `omega-8`).
#[test]
fn extra_stage_zero_is_bit_identical_to_omega() {
    for n in [4usize, 8, 16, 32] {
        let a = omega_extra_stage(n, 0).unwrap();
        let b = omega(n).unwrap();
        assert_eq!(a.num_processors(), b.num_processors());
        assert_eq!(a.num_resources(), b.num_resources());
        assert_eq!(a.num_stages(), b.num_stages());
        assert_eq!(a.num_boxes(), b.num_boxes());
        assert_eq!(a.num_links(), b.num_links());
        for bx in 0..a.num_boxes() {
            assert_eq!(a.box_spec(bx), b.box_spec(bx), "box {bx} differs (n={n})");
            assert_eq!(a.box_inputs(bx), b.box_inputs(bx));
            assert_eq!(a.box_outputs(bx), b.box_outputs(bx));
        }
        let la: Vec<_> = a.links().map(|(_, l)| *l).collect();
        let lb: Vec<_> = b.links().map(|(_, l)| *l).collect();
        assert_eq!(la, lb, "link tables differ (n={n})");
    }
}
