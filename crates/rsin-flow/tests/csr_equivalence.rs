//! CSR ≡ nested-adjacency equivalence properties.
//!
//! The CSR data-layout pass replaced `FlowNetwork`'s per-node `Vec<Vec<ArcId>>`
//! adjacency with flat offset-indexed arrays plus a hot residual/head lane.
//! Its contract is *bit-identity*: same traversal order, same solutions, same
//! operation counters as the nested layout — the layout is allowed to change
//! how fast the solvers run, never what they do. These properties pin that
//! contract over random topologies and all solvers, and pin that the reuse
//! protocol (reset, then capacity and cost patches) leaves a graph that
//! solves exactly like one freshly built with the patched values.

use proptest::prelude::*;
use rsin_flow::graph::{ArcId, FlowNetwork, FlowNetworkBuilder};
use rsin_flow::scratch::SolveScratch;
use rsin_flow::stats::OpStats;
use rsin_flow::{max_flow, min_cost, Flow, NodeId};
use rsin_obs::NoopProbe;
use std::collections::VecDeque;

/// Random-instance arc spec: `(from, to, cap, cost)` with indexes clamped by
/// the caller.
type ArcSpec = (usize, usize, i64, i64);

/// Build a network, returning it plus the *shadow* nested adjacency
/// constructed exactly the way the pre-CSR `FlowNetwork` built it: `add_arc`
/// appended the forward id to `from`'s list and the twin id to `to`'s list,
/// in creation order.
fn build_with_shadow(n: usize, arcs: &[ArcSpec]) -> (FlowNetwork, Vec<Vec<ArcId>>) {
    let mut g = FlowNetworkBuilder::new();
    let mut shadow: Vec<Vec<ArcId>> = vec![Vec::new(); n];
    for i in 0..n {
        g.add_node(format!("n{i}"));
    }
    for &(u, v, cap, cost) in arcs {
        if u < n && v < n && u != v {
            let a = g.add_arc(NodeId(u as u32), NodeId(v as u32), cap, cost);
            shadow[u].push(a);
            shadow[v].push(a.twin());
        }
    }
    (g.build(), shadow)
}

/// Reference Edmonds–Karp over the shadow nested adjacency, mirroring the
/// crate solver statement-for-statement but iterating `shadow[u]` with the
/// id-addressed accessors instead of the CSR hot lane.
fn nested_edmonds_karp(
    g: &mut FlowNetwork,
    shadow: &[Vec<ArcId>],
    s: NodeId,
    t: NodeId,
) -> (Flow, OpStats) {
    let mut stats = OpStats::new();
    let mut value = 0;
    loop {
        let mut parent: Vec<Option<ArcId>> = vec![None; g.num_nodes()];
        let mut visited = vec![false; g.num_nodes()];
        visited[s.index()] = true;
        let mut queue = VecDeque::new();
        queue.push_back(s);
        let mut found = false;
        'bfs: while let Some(u) = queue.pop_front() {
            stats.node_visits += 1;
            for &a in &shadow[u.index()] {
                stats.arc_scans += 1;
                if g.residual(a) > 0 {
                    let to = g.head(a);
                    if !visited[to.index()] {
                        visited[to.index()] = true;
                        parent[to.index()] = Some(a);
                        if to == t {
                            found = true;
                            break 'bfs;
                        }
                        queue.push_back(to);
                    }
                }
            }
        }
        if !found {
            break;
        }
        let mut bottleneck = Flow::MAX;
        let mut v = t;
        while v != s {
            let a = parent[v.index()].unwrap();
            bottleneck = bottleneck.min(g.residual(a));
            v = g.tail(a);
        }
        let mut v = t;
        while v != s {
            let a = parent[v.index()].unwrap();
            g.push(a, bottleneck);
            v = g.tail(a);
        }
        value += bottleneck;
        stats.augmentations += 1;
    }
    (value, stats)
}

/// Per-arc flow vector (forward arcs only), the full solution fingerprint.
fn flows(g: &FlowNetwork) -> Vec<Flow> {
    g.forward_arcs().map(|(_, a)| a.flow).collect()
}

/// The crate's five solvers: three max-flow, two min-cost.
#[derive(Debug, Clone, Copy)]
enum Solver {
    Max(max_flow::Algorithm),
    Min(min_cost::Algorithm),
}

fn solvers() -> impl Iterator<Item = Solver> {
    let max = max_flow::Algorithm::ALL.into_iter().map(Solver::Max);
    max.chain(min_cost::Algorithm::ALL.into_iter().map(Solver::Min))
}

/// Solve `g` from zero flow (min-cost solvers up to `target`) in
/// `scratch`: the value, the cost, every forward arc's flow, and the
/// operation counters.
fn solve(
    g: &mut FlowNetwork,
    s: NodeId,
    t: NodeId,
    target: Flow,
    solver: Solver,
    scratch: &mut SolveScratch,
) -> (Flow, i64, Vec<Flow>, OpStats) {
    let (value, stats) = match solver {
        Solver::Max(algo) => {
            let r = max_flow::solve_observed(g, s, t, algo, scratch, &NoopProbe);
            (r.value, r.stats)
        }
        Solver::Min(algo) => {
            let r = min_cost::solve_observed(g, s, t, target, algo, scratch, &NoopProbe);
            (r.flow, r.stats)
        }
    };
    (value, g.flow_cost(), flows(g), stats)
}

fn arcs_strategy(max_n: usize, max_len: usize) -> impl Strategy<Value = Vec<ArcSpec>> {
    proptest::collection::vec((0..max_n, 0..max_n, 1i64..8, 0i64..6), 1..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The CSR `out_arcs` view reproduces the nested insertion order
    /// slice-for-slice on every node.
    #[test]
    fn csr_out_arcs_match_nested_insertion_order(
        n in 2usize..10,
        arcs in arcs_strategy(10, 30),
    ) {
        let (g, shadow) = build_with_shadow(n, &arcs);
        for (u, nested) in shadow.iter().enumerate() {
            prop_assert_eq!(
                g.out_arcs(NodeId(u as u32)).collect::<Vec<_>>(),
                nested.clone(),
                "node {} adjacency diverged",
                u
            );
        }
    }

    /// A reference Edmonds–Karp walking the nested shadow adjacency is
    /// bit-identical to the CSR solver: value, per-arc flows, and the full
    /// operation counters.
    #[test]
    fn nested_reference_solver_is_bit_identical(
        n in 3usize..10,
        arcs in arcs_strategy(10, 30),
    ) {
        let s = NodeId(0);
        let t = NodeId(n as u32 - 1);
        let (mut g_ref, shadow) = build_with_shadow(n, &arcs);
        let (ref_value, ref_stats) = nested_edmonds_karp(&mut g_ref, &shadow, s, t);
        let (mut g_csr, _) = build_with_shadow(n, &arcs);
        let r = max_flow::solve(&mut g_csr, s, t, max_flow::Algorithm::EdmondsKarp);
        prop_assert_eq!(r.value, ref_value);
        prop_assert_eq!(r.stats, ref_stats, "operation counters diverged");
        prop_assert_eq!(flows(&g_csr), flows(&g_ref), "per-arc flows diverged");
    }

    /// All five max-flow solvers agree on the value, and for each the
    /// scratch-reusing entry point is bit-identical (value, per-arc flows,
    /// OpStats) to the allocating one.
    #[test]
    fn all_max_flow_solvers_agree_and_scratch_is_transparent(
        n in 3usize..9,
        arcs in arcs_strategy(9, 24),
    ) {
        let s = NodeId(0);
        let t = NodeId(n as u32 - 1);
        let mut reference: Option<Flow> = None;
        for algo in max_flow::Algorithm::ALL {
            let (mut g1, _) = build_with_shadow(n, &arcs);
            let plain = max_flow::solve(&mut g1, s, t, algo);
            let (mut g2, _) = build_with_shadow(n, &arcs);
            let mut scratch = SolveScratch::new();
            let reused = max_flow::solve_observed(&mut g2, s, t, algo, &mut scratch, &NoopProbe);
            prop_assert_eq!(plain.value, reused.value, "{:?}", algo);
            prop_assert_eq!(plain.stats, reused.stats, "{:?} scratch changed counters", algo);
            prop_assert_eq!(flows(&g1), flows(&g2), "{:?} scratch changed flows", algo);
            match reference {
                None => reference = Some(plain.value),
                Some(v) => prop_assert_eq!(plain.value, v, "{:?} disagrees on max flow", algo),
            }
        }
    }

    /// One scratch serves interleaved solves of all five solvers and runs
    /// of `augment_one`, on graphs of different node counts, and each gives
    /// what a fresh scratch gives: the value, the cost, every arc's flow and
    /// the full operation counters, and for `augment_one` the augmentation
    /// it reports. The augmenting-path search writes the `parent`,
    /// `frontier` and `level` buffers that SSP and Dinic read.
    #[test]
    fn scratch_serves_interleaved_solvers_like_a_fresh_one(
        steps in proptest::collection::vec(
            (3usize..12, arcs_strategy(12, 40), 0usize..6, 1i64..6),
            4..24,
        ),
    ) {
        let mut shared = SolveScratch::new();
        for (n, arcs, pick, target) in steps {
            let s = NodeId(0);
            let t = NodeId(n as u32 - 1);
            // Every arc lands on the step's nodes, so small graphs are dense.
            let arcs: Vec<ArcSpec> = arcs.iter().map(|&(u, v, c, w)| (u % n, v % n, c, w)).collect();
            let (mut reused, _) = build_with_shadow(n, &arcs);
            let (mut fresh, _) = build_with_shadow(n, &arcs);
            match solvers().nth(pick) {
                Some(solver) => prop_assert_eq!(
                    solve(&mut reused, s, t, target, solver, &mut shared),
                    solve(&mut fresh, s, t, target, solver, &mut SolveScratch::new()),
                    "{:?} on {} nodes",
                    solver,
                    n
                ),
                // Arrivals one augmentation at a time, up to the maximum.
                None => loop {
                    let got = reused.augment_one(s, t, &mut shared);
                    let want = fresh.augment_one(s, t, &mut SolveScratch::new());
                    prop_assert_eq!(got, want, "augment_one on {} nodes", n);
                    prop_assert_eq!(flows(&reused), flows(&fresh));
                    if got.is_none() {
                        break;
                    }
                },
            }
        }
    }

    /// The three min-cost solvers agree on (flow, cost) at every target up
    /// to the max flow, on CSR-backed networks.
    #[test]
    fn min_cost_solvers_agree(
        n in 3usize..8,
        arcs in arcs_strategy(8, 18),
        target in 1i64..6,
    ) {
        let s = NodeId(0);
        let t = NodeId(n as u32 - 1);
        let mut reference: Option<(Flow, i64)> = None;
        for algo in min_cost::Algorithm::ALL {
            let (mut g, _) = build_with_shadow(n, &arcs);
            let r = min_cost::solve(&mut g, s, t, target, algo);
            match reference {
                None => reference = Some((r.flow, r.cost)),
                Some(v) => prop_assert_eq!(
                    (r.flow, r.cost), v, "{:?} disagrees at target {}", algo, target
                ),
            }
        }
    }

    /// The reuse protocol is exact: a solved graph that is reset and then
    /// patched (some arcs' capacities and costs rewritten, closed arcs
    /// included) solves exactly like a graph freshly built with the patched
    /// values, for all five solvers: the same value, cost, per-arc flows,
    /// and operation counters.
    #[test]
    fn reset_and_patches_solve_like_a_fresh_build(
        n in 3usize..8,
        arcs in arcs_strategy(8, 18),
        patches in proptest::collection::vec(
            (any::<prop::sample::Index>(), 0i64..8, 0i64..6),
            1..8,
        ),
        target in 1i64..6,
    ) {
        let s = NodeId(0);
        let t = NodeId(n as u32 - 1);
        // The arcs `build_with_shadow` keeps: forward arc `i` is `kept[i]`.
        let kept: Vec<ArcSpec> = arcs
            .iter()
            .copied()
            .filter(|&(u, v, _, _)| u < n && v < n && u != v)
            .collect();
        prop_assume!(!kept.is_empty());
        let patches: Vec<(usize, i64, i64)> = patches
            .iter()
            .map(|&(pick, cap, cost)| (pick.index(kept.len()), cap, cost))
            .collect();
        let mut patched_spec = kept.clone();
        for &(i, cap, cost) in &patches {
            (patched_spec[i].2, patched_spec[i].3) = (cap, cost);
        }
        for solver in solvers() {
            let (mut patched, _) = build_with_shadow(n, &kept);
            solve(&mut patched, s, t, target, solver, &mut SolveScratch::new());
            patched.reset();
            for &(i, cap, cost) in &patches {
                let a = ArcId(2 * i as u32);
                patched.set_cap(a, cap);
                patched.set_cost(a, cost);
            }
            let (mut fresh, _) = build_with_shadow(n, &patched_spec);
            prop_assert_eq!(
                solve(&mut patched, s, t, target, solver, &mut SolveScratch::new()),
                solve(&mut fresh, s, t, target, solver, &mut SolveScratch::new()),
                "{:?}",
                solver
            );
        }
    }

    /// Solves, resets, capacity patches, and fault on/off toggles on one
    /// built graph: a failed arc never raises the optimum, and re-solving
    /// after its repair restores it.
    #[test]
    fn rebuilds_stay_one_across_reset_patch_and_fault_toggles(
        n in 3usize..8,
        arcs in arcs_strategy(8, 18),
        toggles in proptest::collection::vec(any::<prop::sample::Index>(), 1..6),
    ) {
        let s = NodeId(0);
        let t = NodeId(n as u32 - 1);
        let (mut g, _) = build_with_shadow(n, &arcs);
        let m = g.num_arcs();
        prop_assume!(m > 0);
        let baseline = max_flow::solve(&mut g, s, t, max_flow::Algorithm::Dinic).value;
        // Fault-toggle sequence: zero a forward arc's capacity (fail), solve,
        // restore it (repair), solve — the incremental patch path.
        for pick in &toggles {
            let a = ArcId((pick.index(m) * 2) as u32);
            let original = g.cap(a);
            g.reset();
            g.set_cap(a, 0);
            let degraded = max_flow::solve(&mut g, s, t, max_flow::Algorithm::Dinic).value;
            prop_assert!(degraded <= baseline);
            g.reset();
            g.set_cap(a, original);
            let repaired = max_flow::solve(&mut g, s, t, max_flow::Algorithm::Dinic).value;
            prop_assert_eq!(repaired, baseline, "repair must restore the optimum");
        }
    }
}
