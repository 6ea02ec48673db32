//! Property tests over the flow substrate (in addition to the cross-crate
//! properties in the workspace `tests/` member).

use proptest::prelude::*;
use rsin_flow::graph::{FlowNetwork, FlowNetworkBuilder};
use rsin_flow::max_flow::{solve, Algorithm};
use rsin_flow::min_cost::out_of_kilter::KilterNetwork;
use rsin_flow::stats::OpStats;
use rsin_flow::NodeId;

fn build(n: usize, arcs: &[(usize, usize, i64, i64)]) -> FlowNetwork {
    let mut g = FlowNetworkBuilder::new();
    for i in 0..n {
        g.add_node(format!("n{i}"));
    }
    for &(u, v, cap, cost) in arcs {
        if u != v {
            g.add_arc(NodeId(u as u32), NodeId(v as u32), cap, cost);
        }
    }
    g.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Max flow never exceeds the trivial degree cuts at source and sink.
    #[test]
    fn flow_bounded_by_degree_cuts(
        n in 3usize..9,
        arcs in proptest::collection::vec((0usize..9, 0usize..9, 1i64..6, 0i64..4), 1..25),
    ) {
        let arcs: Vec<_> = arcs.into_iter().filter(|&(u, v, ..)| u < n && v < n).collect();
        let mut g = build(n, &arcs);
        let s = NodeId(0);
        let t = NodeId(n as u32 - 1);
        let out_cap: i64 = g.forward_arcs().filter(|(_, a)| a.from == s).map(|(_, a)| a.cap).sum();
        let in_cap: i64 = g.forward_arcs().filter(|(_, a)| a.to == t).map(|(_, a)| a.cap).sum();
        let r = solve(&mut g, s, t, Algorithm::Dinic);
        prop_assert!(r.value <= out_cap.min(in_cap));
        prop_assert!(r.value >= 0);
    }

    /// Max flow is monotone in capacity: raising one arc's capacity never
    /// lowers the optimum.
    #[test]
    fn flow_monotone_in_capacity(
        n in 3usize..8,
        arcs in proptest::collection::vec((0usize..8, 0usize..8, 1i64..5, 0i64..1), 2..20),
        pick in any::<prop::sample::Index>(),
        boost in 1i64..5,
    ) {
        let arcs: Vec<_> = arcs.into_iter().filter(|&(u, v, ..)| u < n && v < n && u != v).collect();
        prop_assume!(!arcs.is_empty());
        let s = NodeId(0);
        let t = NodeId(n as u32 - 1);
        let mut g1 = build(n, &arcs);
        let v1 = solve(&mut g1, s, t, Algorithm::Dinic).value;
        let mut boosted = arcs.clone();
        let k = pick.index(boosted.len());
        boosted[k].2 += boost;
        let mut g2 = build(n, &boosted);
        let v2 = solve(&mut g2, s, t, Algorithm::Dinic).value;
        prop_assert!(v2 >= v1, "boosting arc {k} lowered flow: {v1} -> {v2}");
    }

    /// Out-of-kilter terminates with every arc in kilter (complementary
    /// slackness) on feasible random circulations.
    #[test]
    fn kilter_network_reaches_zero_kilter(
        n in 2usize..7,
        arcs in proptest::collection::vec((0usize..7, 0usize..7, 0i64..3, 1i64..5, -4i64..5), 1..15),
    ) {
        let mut kn = KilterNetwork::new(n);
        for &(u, v, lo, extra, cost) in &arcs {
            if u < n && v < n && u != v {
                // lower <= upper by construction; lower bounds 0..2.
                kn.add_arc(u, v, lo, lo + extra, cost);
            }
        }
        let mut st = OpStats::new();
        match kn.solve(&mut st) {
            Ok(()) => prop_assert_eq!(kn.total_kilter(), 0),
            Err(_) => {
                // Infeasible is acceptable only if some lower bound > 0
                // exists (zero lower bounds are always feasible).
                prop_assert!(kn.arcs().iter().any(|a| a.lower > 0));
            }
        }
    }

    /// check_legal_flow accepts exactly the flows produced by the solvers
    /// and rejects tampered ones.
    #[test]
    fn legality_checker_rejects_tampering(
        n in 3usize..8,
        arcs in proptest::collection::vec((0usize..8, 0usize..8, 1i64..4, 0i64..1), 2..16),
    ) {
        let arcs: Vec<_> = arcs.into_iter().filter(|&(u, v, ..)| u < n && v < n && u != v).collect();
        prop_assume!(!arcs.is_empty());
        let s = NodeId(0);
        let t = NodeId(n as u32 - 1);
        let mut g = build(n, &arcs);
        let r = solve(&mut g, s, t, Algorithm::EdmondsKarp);
        prop_assert_eq!(g.check_legal_flow(s, t).unwrap(), r.value);
        // Tamper: push over some arc with residual, bypassing conservation.
        if r.value > 0 {
            let tamper = g
                .forward_arcs()
                .find(|(_, a)| a.flow > 0 && a.from != s)
                .map(|(id, _)| id);
            if let Some(id) = tamper {
                g.push(id.twin(), 1); // remove one unit mid-path
                prop_assert!(g.check_legal_flow(s, t).is_err());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Dinic on unit-capacity networks uses O(sqrt(E)) phases (the bound
    /// behind the paper's O(|V|^{2/3}|E|) claim; checked with slack).
    #[test]
    fn dinic_phase_bound_on_unit_networks(
        n in 4usize..12,
        arcs in proptest::collection::vec((0usize..12, 0usize..12, 0i64..1), 4..60),
    ) {
        let unit: Vec<_> = arcs
            .into_iter()
            .filter(|&(u, v, _)| u < n && v < n && u != v)
            .map(|(u, v, _)| (u, v, 1i64, 0i64))
            .collect();
        prop_assume!(!unit.is_empty());
        let mut g = build(n, &unit);
        let e = g.num_arcs() as f64;
        let s = NodeId(0);
        let t = NodeId(n as u32 - 1);
        let r = solve(&mut g, s, t, Algorithm::Dinic);
        // Phases <= 2*sqrt(E) + 2 on unit-capacity graphs.
        prop_assert!(
            (r.stats.phases as f64) <= 2.0 * e.sqrt() + 2.0,
            "phases {} on E = {}",
            r.stats.phases,
            e
        );
    }
}
