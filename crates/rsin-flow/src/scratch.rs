//! Reusable solver scratch space for the zero-rebuild hot path.
//!
//! The Monte-Carlo and dynamic simulations solve thousands of flow problems
//! on the *same* transformation graph (one per snapshot). The plain solvers
//! allocate their working vectors (BFS levels, Dijkstra distances, DFS
//! stacks, heaps) afresh per call; [`SolveScratch`] hoists those buffers out
//! so a caller can do
//!
//! ```
//! use rsin_flow::graph::FlowNetworkBuilder;
//! use rsin_flow::scratch::SolveScratch;
//! use rsin_flow::max_flow::{self, Algorithm};
//!
//! let mut b = FlowNetworkBuilder::new();
//! let s = b.add_node("s");
//! let t = b.add_node("t");
//! b.add_arc(s, t, 2, 0);
//! let mut g = b.build();
//! let mut scratch = SolveScratch::new();
//! for _ in 0..3 {
//!     g.reset();
//!     let r = max_flow::solve_with(&mut g, s, t, Algorithm::Dinic, &mut scratch);
//!     assert_eq!(r.value, 2);
//! }
//! ```
//!
//! and pay for allocation only on the first solve (or when the node count
//! grows). The scratch-aware code paths are exact rewrites of the plain
//! ones — same traversal order, same augmentations, same [`OpStats`] — so
//! `solve_with` and `solve` are interchangeable result-for-result; a
//! property test in `rsin-core` pins that equivalence on random snapshots.
//!
//! [`OpStats`]: crate::stats::OpStats

use crate::graph::{ArcId, NodeId};
use crate::min_cost::out_of_kilter::KilterNetwork;
use crate::min_cost::ssp::BucketQueue;
use crate::Cost;

/// Sentinel for "node not levelled" in the scratch BFS (the plain Dinic uses
/// `Option<u32>`; the scratch variant packs the same information into a bare
/// `u32` so resetting is a `fill`).
pub(crate) const UNLEVELLED: u32 = u32::MAX;

/// Reusable working memory for the scratch-aware solvers
/// ([`max_flow::solve_with`](crate::max_flow::solve_with) and
/// [`min_cost::solve_with`](crate::min_cost::solve_with)).
///
/// One instance serves the Dinic, successive-shortest-paths and
/// out-of-kilter buffers; create it once and thread it through every solve
/// on the same (or any) network. Buffers grow to the largest node count
/// seen and are never shrunk.
#[derive(Debug, Default)]
pub struct SolveScratch {
    /// Dinic: BFS label per node, the distance from `s` or to `t`
    /// (`UNLEVELLED` where the search did not reach).
    pub(crate) level: Vec<u32>,
    /// Dinic and incremental augmentation: BFS frontier, every node in the
    /// order it was labelled.
    pub(crate) frontier: Vec<NodeId>,
    /// Dinic: current-arc pointer per node, as an absolute CSR slot.
    pub(crate) next_slot: Vec<u32>,
    /// Dinic: DFS path stack, the CSR slot taken and the node it left.
    pub(crate) steps: Vec<(u32, NodeId)>,
    /// Dinic: every augmenting path of the last solve, its arc ids `s` to
    /// `t`, one path after another in the order pushed.
    pub(crate) paths: Vec<ArcId>,
    /// Dinic: blocking-flow passes of the last solve.
    pub(crate) passes: u32,
    /// Dinic: whether every augmentation of the last solve pushed one
    /// unit, so `paths` holds each unit path once.
    pub(crate) unit_pushes: bool,
    /// Incremental augmentation: the path's arcs.
    pub(crate) path: Vec<ArcId>,
    /// SSP: Johnson node potentials.
    pub(crate) pot: Vec<Cost>,
    /// SSP: Dijkstra/Bellman-Ford tentative distances.
    pub(crate) dist: Vec<Cost>,
    /// SSP: predecessor arc on the shortest-path tree.
    pub(crate) parent: Vec<Option<ArcId>>,
    /// SSP: Dijkstra priority queue (distance buckets plus overflow heap).
    pub(crate) dist_queue: BucketQueue,
    /// Out-of-kilter: reusable circulation network (arcs, potentials and
    /// labeling buffers), re-populated per solve via `reset`.
    pub(crate) kilter: KilterNetwork,
}

impl SolveScratch {
    /// Empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The last Dinic solve's augmenting paths, arc ids `s` to `t`, one
    /// path after another in the order pushed, when that solve ran at most
    /// one blocking-flow pass and pushed one unit per path; `None` after
    /// any other Dinic solve. Other solvers leave it as the last Dinic
    /// solve left it.
    ///
    /// When that solve started from zero flow these are exactly the unit
    /// paths [`for_each_unit_path`](crate::path::for_each_unit_path) walks
    /// in its flow, in the walk's order, and their concatenation is the
    /// walk's `carried()` trail (DESIGN.md §14.8): within one pass from
    /// zero flow no twin arc is admissible and the admissible set only
    /// shrinks, so each path the current-arc DFS completes is the first
    /// remaining one in slot order, which is the one the walk takes.
    pub fn one_pass_paths(&self) -> Option<&[ArcId]> {
        (self.passes <= 1 && self.unit_pushes).then_some(self.paths.as_slice())
    }

    /// Size every per-node buffer for a graph of `n` nodes without
    /// initializing contents (each solver fills what it reads).
    pub(crate) fn ensure_nodes(&mut self, n: usize) {
        self.level.resize(n, UNLEVELLED);
        self.next_slot.resize(n, 0);
        self.pot.resize(n, 0);
        self.dist.resize(n, 0);
        self.parent.resize(n, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{FlowNetwork, FlowNetworkBuilder};
    use crate::{max_flow, min_cost};

    fn ladder() -> (FlowNetwork, NodeId, NodeId) {
        let mut g = FlowNetworkBuilder::new();
        let s = g.add_node("s");
        let t = g.add_node("t");
        for i in 0..6 {
            let u = g.add_node(format!("u{i}"));
            let v = g.add_node(format!("v{i}"));
            g.add_arc(s, u, 1, 1 + i);
            g.add_arc(u, v, 1, 0);
            g.add_arc(v, t, 1, 1);
        }
        let g = g.build();
        (g, s, t)
    }

    #[test]
    fn scratch_grows_and_is_reused_across_networks() {
        let mut scratch = SolveScratch::new();
        let mut small = FlowNetworkBuilder::new();
        let s = small.add_node("s");
        let t = small.add_node("t");
        small.add_arc(s, t, 4, 0);
        let mut small = small.build();
        let r = max_flow::solve_with(&mut small, s, t, max_flow::Algorithm::Dinic, &mut scratch);
        assert_eq!(r.value, 4);

        let (mut big, s, t) = ladder();
        let r = max_flow::solve_with(&mut big, s, t, max_flow::Algorithm::Dinic, &mut scratch);
        assert_eq!(r.value, 6);
        assert!(scratch.level.len() >= big.num_nodes());

        big.reset();
        let r = min_cost::solve_with(
            &mut big,
            s,
            t,
            3,
            min_cost::Algorithm::SuccessiveShortestPaths,
            &mut scratch,
        );
        assert_eq!(r.flow, 3);
    }

    #[test]
    fn solve_with_matches_plain_solve_including_stats() {
        let mut scratch = SolveScratch::new();
        for algo in max_flow::Algorithm::ALL {
            let (mut fresh, s, t) = ladder();
            let plain = max_flow::solve(&mut fresh, s, t, algo);
            let (mut reused, s2, t2) = ladder();
            // Dirty the scratch with an unrelated solve first.
            let r = max_flow::solve_with(&mut reused, s2, t2, algo, &mut scratch);
            reused.reset();
            let again = max_flow::solve_with(&mut reused, s2, t2, algo, &mut scratch);
            assert_eq!(plain.value, r.value, "{algo:?}");
            assert_eq!(plain.value, again.value, "{algo:?}");
            assert_eq!(plain.stats.phases, again.stats.phases, "{algo:?}");
            assert_eq!(
                plain.stats.augmentations, again.stats.augmentations,
                "{algo:?}"
            );
            assert_eq!(plain.stats.node_visits, again.stats.node_visits, "{algo:?}");
            assert_eq!(plain.stats.arc_scans, again.stats.arc_scans, "{algo:?}");
        }
        for algo in min_cost::Algorithm::ALL {
            let (mut fresh, s, t) = ladder();
            let plain = min_cost::solve(&mut fresh, s, t, 4, algo);
            let (mut reused, s2, t2) = ladder();
            let with = min_cost::solve_with(&mut reused, s2, t2, 4, algo, &mut scratch);
            assert_eq!((plain.flow, plain.cost), (with.flow, with.cost), "{algo:?}");
            assert_eq!(
                plain.stats.augmentations, with.stats.augmentations,
                "{algo:?}"
            );
            assert_eq!(plain.stats.arc_scans, with.stats.arc_scans, "{algo:?}");
            assert_eq!(plain.stats.node_visits, with.stats.node_visits, "{algo:?}");
        }
    }
}
