//! Maximum-flow algorithms (Section III-B of the paper).
//!
//! Three algorithms are provided behind one entry point, [`solve_observed`]
//! ([`solve`] is it with a fresh scratch and no probe):
//!
//! * [`Algorithm::FordFulkerson`] — DFS augmenting paths, the primal-dual
//!   scheme of Ford & Fulkerson \[17\] described in the paper;
//! * [`Algorithm::EdmondsKarp`] — BFS (shortest) augmenting paths;
//! * [`Algorithm::Dinic`] — Dinic's algorithm \[12\] with an *explicit*
//!   [`dinic::LayeredNetwork`], alternating layered-network construction and
//!   maximal-flow phases exactly as the paper's Fig. 7 flow chart does. This
//!   is the algorithm the distributed token-propagation architecture of
//!   Section IV realizes, so the layered network is a public type that the
//!   `rsin-distrib` tests compare against.
//!
//! Ford–Fulkerson and Edmonds–Karp are one augmenting-path search read as a
//! stack or as a queue, the search a streaming arrival runs once
//! ([`FlowNetwork::augment_one`]).
//!
//! All algorithms leave the optimal flow assignment *in* the
//! [`FlowNetwork`] (the request→resource mapping
//! is then read out of it by flow decomposition) and report operation counts
//! via [`OpStats`].
//!
//! [`OpStats`]: crate::stats::OpStats

pub(crate) mod augmenting;
pub mod dinic;

pub use dinic::LayeredNetwork;

use crate::graph::{FlowNetwork, NodeId};
use crate::scratch::SolveScratch;
use crate::stats::OpStats;
use crate::Flow;

/// Selects a maximum-flow algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// DFS augmenting paths (Ford–Fulkerson).
    FordFulkerson,
    /// BFS shortest augmenting paths (Edmonds–Karp).
    EdmondsKarp,
    /// Layered networks + blocking flow (Dinic).
    Dinic,
}

impl Algorithm {
    /// All variants, for cross-checking tests and ablation benches.
    pub const ALL: [Algorithm; 3] = [
        Algorithm::FordFulkerson,
        Algorithm::EdmondsKarp,
        Algorithm::Dinic,
    ];

    /// The telemetry identity of this algorithm.
    pub fn solver_id(self) -> rsin_obs::SolverId {
        match self {
            Algorithm::FordFulkerson => rsin_obs::SolverId::MaxFlowFordFulkerson,
            Algorithm::EdmondsKarp => rsin_obs::SolverId::MaxFlowEdmondsKarp,
            Algorithm::Dinic => rsin_obs::SolverId::MaxFlowDinic,
        }
    }
}

/// Result of a maximum-flow computation.
#[derive(Debug, Clone)]
pub struct MaxFlowResult {
    /// Value of the maximum flow (= number of resources allocated, by
    /// Theorem 2).
    pub value: Flow,
    /// Operation counters for the cost model.
    pub stats: OpStats,
}

/// Compute a maximum `s`→`t` flow in place: [`solve_observed`] with a
/// fresh scratch and no probe.
pub fn solve(g: &mut FlowNetwork, s: NodeId, t: NodeId, algo: Algorithm) -> MaxFlowResult {
    solve_observed(
        g,
        s,
        t,
        algo,
        &mut SolveScratch::new(),
        &rsin_obs::NoopProbe,
    )
}

/// Compute a maximum `s`→`t` flow in place, reusing `scratch` and
/// reporting the solve to a telemetry probe: one
/// [`rsin_obs::Hist::SolveLatencyNs`] span plus the run's [`OpStats`] as
/// pre-aggregated per-solver counts. Every algorithm is allocation-free
/// once the scratch has seen the node count, and a reused scratch gives
/// the results and [`OpStats`] of a fresh one.
///
/// Dinic also times each labelling search into
/// [`rsin_obs::Hist::DinicLevelPhaseNs`] and each blocking-flow pass into
/// [`rsin_obs::Hist::DinicBlockingPhaseNs`], and leaves its augmenting
/// paths, passes and graded first phase in `scratch`
/// ([`SolveScratch::one_pass_paths`], [`SolveScratch::graded_first_phase`]).
/// Its labels run from the smaller end: from `t` when the residual
/// capacity into `t` is at most that out of `s`, else from `s`. The solve
/// stops without a final search once the flow it added meets the smaller
/// of the two (the cut bound). A solve from zero flow on a graded network
/// with no closed interior arc takes the grading as its first phase's
/// labels; that phase is timed as a blocking-flow pass only.
///
/// Under [`rsin_obs::NoopProbe`] the spans never read the clock and every
/// probe call compiles away.
pub fn solve_observed<P: rsin_obs::Probe + ?Sized>(
    g: &mut FlowNetwork,
    s: NodeId,
    t: NodeId,
    algo: Algorithm,
    scratch: &mut SolveScratch,
    probe: &P,
) -> MaxFlowResult {
    let span = probe.start();
    let r = match algo {
        Algorithm::FordFulkerson => augmenting::solve::<true>(g, s, t, scratch),
        Algorithm::EdmondsKarp => augmenting::solve::<false>(g, s, t, scratch),
        Algorithm::Dinic => dinic::solve_labelled(g, s, t, None, scratch, probe),
    };
    probe.finish(span, rsin_obs::Hist::SolveLatencyNs);
    probe.solver(algo.solver_id(), r.stats.probe_counts());
    if algo == Algorithm::Dinic && r.stats.arc_scans > 0 {
        probe.add(
            rsin_obs::Counter::DinicLevelArcScans,
            r.stats.level_arc_scans,
        );
        probe.add(
            rsin_obs::Counter::DinicBlockingArcScans,
            r.stats.arc_scans - r.stats.level_arc_scans,
        );
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::FlowNetworkBuilder;

    /// Classic CLRS instance with known max flow 23.
    fn clrs() -> (FlowNetwork, NodeId, NodeId) {
        let mut g = FlowNetworkBuilder::new();
        let s = g.add_node("s");
        let v1 = g.add_node("v1");
        let v2 = g.add_node("v2");
        let v3 = g.add_node("v3");
        let v4 = g.add_node("v4");
        let t = g.add_node("t");
        g.add_arc(s, v1, 16, 0);
        g.add_arc(s, v2, 13, 0);
        g.add_arc(v1, v3, 12, 0);
        g.add_arc(v2, v1, 4, 0);
        g.add_arc(v2, v4, 14, 0);
        g.add_arc(v3, v2, 9, 0);
        g.add_arc(v3, t, 20, 0);
        g.add_arc(v4, v3, 7, 0);
        g.add_arc(v4, t, 4, 0);
        let g = g.build();
        (g, s, t)
    }

    #[test]
    fn all_algorithms_agree_on_clrs() {
        for algo in Algorithm::ALL {
            let (mut g, s, t) = clrs();
            let r = solve(&mut g, s, t, algo);
            assert_eq!(r.value, 23, "{algo:?}");
            assert_eq!(g.check_legal_flow(s, t).unwrap(), 23, "{algo:?}");
        }
    }

    #[test]
    fn disconnected_sink_gives_zero() {
        for algo in Algorithm::ALL {
            let mut g = FlowNetworkBuilder::new();
            let s = g.add_node("s");
            let a = g.add_node("a");
            let t = g.add_node("t");
            g.add_arc(s, a, 5, 0);
            let mut g = g.build();
            let r = solve(&mut g, s, t, algo);
            assert_eq!(r.value, 0, "{algo:?}");
        }
    }

    #[test]
    fn source_equals_sink_is_zero_flow() {
        for algo in Algorithm::ALL {
            let mut g = FlowNetworkBuilder::new();
            let s = g.add_node("s");
            let t = g.add_node("t");
            g.add_arc(s, t, 3, 0);
            let mut g = g.build();
            let r = solve(&mut g, s, s, algo);
            assert_eq!(r.value, 0, "{algo:?}");
        }
    }

    #[test]
    fn parallel_arcs_accumulate() {
        for algo in Algorithm::ALL {
            let mut g = FlowNetworkBuilder::new();
            let s = g.add_node("s");
            let t = g.add_node("t");
            g.add_arc(s, t, 2, 0);
            g.add_arc(s, t, 3, 0);
            let mut g = g.build();
            let r = solve(&mut g, s, t, algo);
            assert_eq!(r.value, 5, "{algo:?}");
        }
    }

    #[test]
    fn augmentation_requires_cancellation() {
        // The paper's Fig. 3 example: initial flow s-a-d-t blocks the naive
        // mapping; the augmenting path s-c-d-a-b-t cancels d->a... here we
        // verify algorithms find value 2 from scratch on that topology.
        for algo in Algorithm::ALL {
            let mut g = FlowNetworkBuilder::new();
            let s = g.add_node("s");
            let a = g.add_node("a");
            let b = g.add_node("b");
            let c = g.add_node("c");
            let d = g.add_node("d");
            let t = g.add_node("t");
            g.add_arc(s, a, 1, 0);
            g.add_arc(s, c, 1, 0);
            g.add_arc(a, b, 1, 0);
            g.add_arc(a, d, 1, 0);
            g.add_arc(c, d, 1, 0);
            g.add_arc(b, t, 1, 0);
            g.add_arc(d, t, 1, 0);
            let mut g = g.build();
            let r = solve(&mut g, s, t, algo);
            assert_eq!(r.value, 2, "{algo:?}");
        }
    }
}

/// Edmonds–Karp's own cases: the augmenting-path search read as a queue.
#[cfg(test)]
mod edmonds_karp {
    mod tests {
        use crate::graph::FlowNetworkBuilder;
        use crate::max_flow::{solve, Algorithm};

        #[test]
        fn finds_shortest_paths_first() {
            // s->t direct (length 1) plus a 3-hop path; BFS saturates the
            // direct arc on the first augmentation.
            let mut g = FlowNetworkBuilder::new();
            let s = g.add_node("s");
            let a = g.add_node("a");
            let b = g.add_node("b");
            let t = g.add_node("t");
            let direct = g.add_arc(s, t, 1, 0);
            g.add_arc(s, a, 1, 0);
            g.add_arc(a, b, 1, 0);
            g.add_arc(b, t, 1, 0);
            let mut g = g.build();
            let r = solve(&mut g, s, t, Algorithm::EdmondsKarp);
            assert_eq!(r.value, 2);
            assert_eq!(g.arc(direct).flow, 1);
        }

        #[test]
        fn zigzag_instance_known_hard_for_dfs() {
            // Bipartite-ish instance where naive DFS could do many
            // augmentations; BFS still produces the right value.
            let mut g = FlowNetworkBuilder::new();
            let s = g.add_node("s");
            let u = g.add_node("u");
            let v = g.add_node("v");
            let t = g.add_node("t");
            g.add_arc(s, u, 100, 0);
            g.add_arc(s, v, 100, 0);
            g.add_arc(u, v, 1, 0);
            g.add_arc(u, t, 100, 0);
            g.add_arc(v, t, 100, 0);
            let mut g = g.build();
            let r = solve(&mut g, s, t, Algorithm::EdmondsKarp);
            assert_eq!(r.value, 200);
            // Shortest-path augmentation needs only 2 phases of big pushes.
            assert!(r.stats.augmentations <= 4);
        }
    }
}

/// Ford–Fulkerson's own cases: the augmenting-path search read as a stack.
#[cfg(test)]
mod ford_fulkerson {
    mod tests {
        use crate::graph::FlowNetworkBuilder;
        use crate::max_flow::{solve, Algorithm};

        #[test]
        fn counts_augmentations() {
            let mut g = FlowNetworkBuilder::new();
            let s = g.add_node("s");
            let t = g.add_node("t");
            g.add_arc(s, t, 1, 0);
            g.add_arc(s, t, 1, 0);
            let mut g = g.build();
            let r = solve(&mut g, s, t, Algorithm::FordFulkerson);
            assert_eq!(r.value, 2);
            assert_eq!(r.stats.augmentations, 2);
            assert!(r.stats.node_visits > 0);
        }

        #[test]
        fn respects_residual_twins() {
            // s -> a -> t with cap 1 and s -> b -> a with cap 1: second
            // unit must not exist because a -> t is saturated.
            let mut g = FlowNetworkBuilder::new();
            let s = g.add_node("s");
            let a = g.add_node("a");
            let b = g.add_node("b");
            let t = g.add_node("t");
            g.add_arc(s, a, 1, 0);
            g.add_arc(s, b, 1, 0);
            g.add_arc(b, a, 1, 0);
            g.add_arc(a, t, 1, 0);
            let mut g = g.build();
            let r = solve(&mut g, s, t, Algorithm::FordFulkerson);
            assert_eq!(r.value, 1);
        }
    }
}
