//! Minimum-cost flow (Section III-C of the paper).
//!
//! Transformation 2 turns priority/preference scheduling into: *circulate a
//! fixed amount `F₀` of flow from source to sink at minimum total cost*.
//! Two algorithms are provided:
//!
//! * [`Algorithm::SuccessiveShortestPaths`] — successive shortest augmenting
//!   paths with Johnson node potentials (Edmonds–Karp scaling ancestor \[13\]);
//! * [`Algorithm::OutOfKilter`] — Fulkerson's **out-of-kilter** method \[18\],
//!   the algorithm the paper names for this problem, operating on kilter
//!   numbers and node potentials (complementary slackness), and SSP's
//!   cross-check.
//!
//! Both produce a flow of value `min(target, max-flow)` whose cost is
//! minimal among flows of that value (a "minimum-cost maximum flow bounded
//! by the target"), which is exactly what Theorem 3 requires: the bypass arc
//! guarantees the target is always reachable, and minimizing cost then
//! simultaneously maximizes the number of real allocations.

pub mod out_of_kilter;
pub mod ssp;

use crate::graph::{FlowNetwork, NodeId};
use crate::scratch::SolveScratch;
use crate::stats::OpStats;
use crate::{Cost, Flow};

/// Selects a minimum-cost-flow algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Successive shortest paths with potentials.
    SuccessiveShortestPaths,
    /// Fulkerson's out-of-kilter method.
    OutOfKilter,
}

impl Algorithm {
    /// All variants, for cross-checking and ablation benches.
    pub const ALL: [Algorithm; 2] = [Algorithm::SuccessiveShortestPaths, Algorithm::OutOfKilter];

    /// The telemetry identity of this algorithm.
    pub fn solver_id(self) -> rsin_obs::SolverId {
        match self {
            Algorithm::SuccessiveShortestPaths => rsin_obs::SolverId::MinCostSsp,
            Algorithm::OutOfKilter => rsin_obs::SolverId::MinCostOutOfKilter,
        }
    }
}

/// Result of a minimum-cost flow computation.
#[derive(Debug, Clone)]
pub struct MinCostResult {
    /// Flow value actually circulated (`min(target, max-flow)`).
    pub flow: Flow,
    /// Total cost `Σ w(e)·f(e)` of the final assignment. For SSP this is
    /// the cost of the flow the call pushed, which equals the total only
    /// under SSP's zero-start-flow precondition (see [`solve`]).
    pub cost: Cost,
    /// Operation counters.
    pub stats: OpStats,
}

/// Compute a minimum-cost flow of value `min(target, max-flow)` in place:
/// [`solve_observed`] with a fresh scratch and no probe.
///
/// [`Algorithm::SuccessiveShortestPaths`] requires `g` to carry zero flow
/// (a fresh or [`FlowNetwork::reset`] network): its returned `cost` sums
/// this call's augmentations only, and a broken precondition may panic
/// (a negative reduced cost). Out-of-kilter returns the network's total
/// `flow_cost()`.
pub fn solve(
    g: &mut FlowNetwork,
    s: NodeId,
    t: NodeId,
    target: Flow,
    algo: Algorithm,
) -> MinCostResult {
    solve_observed(
        g,
        s,
        t,
        target,
        algo,
        &mut SolveScratch::new(),
        &rsin_obs::NoopProbe,
    )
}

/// Compute a minimum-cost flow of value `min(target, max-flow)` in place,
/// reusing `scratch` and reporting the solve to a telemetry probe: one
/// [`rsin_obs::Hist::SolveLatencyNs`] span plus the run's [`OpStats`] as
/// pre-aggregated per-solver counts. SSP reuses the scratch's
/// potential/Dijkstra buffers; out-of-kilter keeps its circulation network
/// and labeling buffers there and probes the max flow in place instead of
/// cloning the graph. A reused scratch gives the results of a fresh one.
/// Same precondition as [`solve`]. Under [`rsin_obs::NoopProbe`] every
/// probe call compiles away.
pub fn solve_observed<P: rsin_obs::Probe + ?Sized>(
    g: &mut FlowNetwork,
    s: NodeId,
    t: NodeId,
    target: Flow,
    algo: Algorithm,
    scratch: &mut SolveScratch,
    probe: &P,
) -> MinCostResult {
    let span = probe.start();
    let r = match algo {
        Algorithm::SuccessiveShortestPaths => ssp::solve(g, s, t, target, scratch),
        Algorithm::OutOfKilter => out_of_kilter::solve_on_network(g, s, t, target, scratch),
    };
    probe.finish(span, rsin_obs::Hist::SolveLatencyNs);
    probe.solver(algo.solver_id(), r.stats.probe_counts());
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::FlowNetworkBuilder;

    /// Two parallel routes with different costs.
    fn two_routes() -> (FlowNetwork, NodeId, NodeId) {
        let mut g = FlowNetworkBuilder::new();
        let s = g.add_node("s");
        let a = g.add_node("a");
        let b = g.add_node("b");
        let t = g.add_node("t");
        g.add_arc(s, a, 2, 1);
        g.add_arc(a, t, 2, 1);
        g.add_arc(s, b, 2, 5);
        g.add_arc(b, t, 2, 5);
        let g = g.build();
        (g, s, t)
    }

    #[test]
    fn prefers_cheap_route() {
        for algo in Algorithm::ALL {
            let (mut g, s, t) = two_routes();
            let r = solve(&mut g, s, t, 2, algo);
            assert_eq!(r.flow, 2, "{algo:?}");
            assert_eq!(r.cost, 4, "{algo:?}"); // both units over the cost-2 route
            assert_eq!(g.check_legal_flow(s, t).unwrap(), 2);
        }
    }

    #[test]
    fn spills_to_expensive_route_when_needed() {
        for algo in Algorithm::ALL {
            let (mut g, s, t) = two_routes();
            let r = solve(&mut g, s, t, 4, algo);
            assert_eq!(r.flow, 4, "{algo:?}");
            assert_eq!(r.cost, 2 * 2 + 2 * 10, "{algo:?}");
        }
    }

    #[test]
    fn caps_at_max_flow() {
        for algo in Algorithm::ALL {
            let (mut g, s, t) = two_routes();
            let r = solve(&mut g, s, t, 100, algo);
            assert_eq!(r.flow, 4, "{algo:?}");
        }
    }

    #[test]
    fn zero_target_zero_flow() {
        for algo in Algorithm::ALL {
            let (mut g, s, t) = two_routes();
            let r = solve(&mut g, s, t, 0, algo);
            assert_eq!(r.flow, 0, "{algo:?}");
            assert_eq!(r.cost, 0, "{algo:?}");
        }
    }

    #[test]
    fn algorithms_agree_on_random_like_instance() {
        // A denser instance with asymmetric costs; both algorithms must
        // reach the same optimal cost (the optimum is unique in value, not
        // necessarily in assignment).
        for target in [1, 2, 3, 5] {
            let mut costs = Vec::new();
            for algo in Algorithm::ALL {
                let mut g = FlowNetworkBuilder::new();
                let s = g.add_node("s");
                let n1 = g.add_node("1");
                let n2 = g.add_node("2");
                let n3 = g.add_node("3");
                let t = g.add_node("t");
                g.add_arc(s, n1, 2, 3);
                g.add_arc(s, n2, 2, 1);
                g.add_arc(s, n3, 1, 4);
                g.add_arc(n1, n2, 1, 0);
                g.add_arc(n2, n3, 2, 2);
                g.add_arc(n1, t, 2, 2);
                g.add_arc(n2, t, 1, 6);
                g.add_arc(n3, t, 2, 1);
                let mut g = g.build();
                let r = solve(&mut g, s, t, target, algo);
                costs.push((r.flow, r.cost));
            }
            assert!(
                costs.windows(2).all(|w| w[0] == w[1]),
                "target {target}: {costs:?}"
            );
        }
    }

    #[test]
    fn residual_entry_matches_plain_solve_on_bypass_shape() {
        // A bypass-shaped residual, as priced degraded-mode scheduling
        // solves through the observed entry: two blocked requests, one
        // reachable free resource, bypass node absorbing the overflow at a
        // cost strictly above any real allocation. Both algorithms must
        // route the cheap request to the resource and bypass the other,
        // matching the unobserved solver bit for bit.
        for algo in Algorithm::ALL {
            let build = || {
                let mut g = FlowNetworkBuilder::new();
                let s = g.add_node("s");
                let p0 = g.add_node("p0");
                let p1 = g.add_node("p1");
                let u = g.add_node("u"); // bypass
                let r0 = g.add_node("r0");
                let t = g.add_node("t");
                g.add_arc(s, p0, 1, 0);
                g.add_arc(s, p1, 1, 0);
                g.add_arc(p0, r0, 1, 3); // (γ_max−γ)+(q_max−q) = 3
                g.add_arc(p1, r0, 1, 1);
                g.add_arc(p0, u, 1, 7); // bypass leg > any allocation
                g.add_arc(p1, u, 1, 9);
                g.add_arc(u, t, 2, 6);
                g.add_arc(r0, t, 1, 0);
                let g = g.build();
                (g, s, t)
            };
            let (mut g, s, t) = build();
            let mut scratch = SolveScratch::default();
            let probe = rsin_obs::NoopProbe;
            let r = solve_observed(&mut g, s, t, 2, algo, &mut scratch, &probe);
            let (mut g2, s2, t2) = build();
            let plain = solve(&mut g2, s2, t2, 2, algo);
            assert_eq!((r.flow, r.cost), (plain.flow, plain.cost), "{algo:?}");
            // p1 (cost 1) takes r0; p0 goes through the bypass: 1 + 7 + 6.
            assert_eq!(r.flow, 2, "{algo:?}");
            assert_eq!(r.cost, 14, "{algo:?}");
            assert_eq!(g.check_legal_flow(s, t).unwrap(), 2, "{algo:?}");
        }
    }

    #[test]
    fn min_cost_flow_uses_cancellation() {
        // Cheap route shares an arc with the only other route; optimal
        // 2-unit flow must reroute (cost cancellation), not just greedily add.
        for algo in Algorithm::ALL {
            let mut g = FlowNetworkBuilder::new();
            let s = g.add_node("s");
            let a = g.add_node("a");
            let b = g.add_node("b");
            let t = g.add_node("t");
            g.add_arc(s, a, 1, 0);
            g.add_arc(s, b, 1, 10);
            g.add_arc(a, b, 1, 0);
            g.add_arc(a, t, 1, 10);
            g.add_arc(b, t, 1, 0);
            let mut g = g.build();
            // Optimal single unit: s-a-b-t cost 0. Optimal two units:
            // s-a-t (10) + s-b-t (10) = 20.
            let r = solve(&mut g, s, t, 2, algo);
            assert_eq!(r.flow, 2, "{algo:?}");
            assert_eq!(r.cost, 20, "{algo:?}");
        }
    }
}
