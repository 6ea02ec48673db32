//! Warm-start primitives for streaming (incremental) scheduling.
//!
//! The batch solvers in [`max_flow`](crate::max_flow) and
//! [`min_cost`](crate::min_cost) start from zero flow and run to optimality.
//! A long-lived scheduling service instead keeps the flow *between*
//! decisions: every allocated request is one retained unit of flow, and each
//! arrival or release perturbs the optimum by at most one unit. Two
//! primitives cover both perturbations:
//!
//! * [`FlowNetwork::augment_one`] — a single BFS shortest augmenting path on
//!   the retained residual graph (one Dinic phase of depth one), for
//!   arrivals. If the new request can be routed — possibly by *rerouting*
//!   existing units through cancellation (backward) arcs, exactly the
//!   Fig. 3 rearrangement argument of the paper — one augmentation restores
//!   maximality, because enabling a single unit-capacity source arc raises
//!   the maximum flow by at most one.
//! * [`FlowNetwork::cancel_path`] — walk one unit of flow from a saturated
//!   source-adjacent arc to the sink and push it *back* along the walk
//!   (each backward push is legal because a forward arc's flow is exactly
//!   its twin's residual), for releases. Afterwards the flow is again legal
//!   with value reduced by one.
//!
//! Both reuse [`SolveScratch`] buffers, so a steady-state decision performs
//! no allocations. There is no cheapest-path variant: a streaming command
//! carries no priority or preference, so every arc a service reaches costs
//! 0 and every maximum flow is already minimum-cost (DESIGN.md §11).

use crate::graph::{ArcId, FlowNetwork, NodeId};
use crate::max_flow::augmenting;
use crate::scratch::SolveScratch;
use crate::stats::OpStats;
use crate::Flow;

/// A completed warm-start augmentation. The endpoint arcs matter to
/// schedulers: an augmenting path changes the saturation of exactly one
/// source-adjacent arc (`first`, the request that got routed) and exactly
/// one sink-adjacent arc (`last`, the resource that got taken) — interior
/// rerouting through cancellation arcs never touches either set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Augmentation {
    /// Units pushed (the path's bottleneck).
    pub bottleneck: Flow,
    /// The path's first arc (out of the source).
    pub first: ArcId,
    /// The path's last arc (into the sink).
    pub last: ArcId,
}

impl FlowNetwork {
    /// One BFS shortest augmenting path from `s` to `t` over the current
    /// residual graph; pushes the path's bottleneck and describes the path,
    /// or returns `None` when the retained flow is already maximum (and
    /// when `s == t`, where every solver's flow is 0).
    ///
    /// This is Edmonds–Karp's search, run once. It reuses `scratch.level` /
    /// `scratch.frontier` / `scratch.parent` / `scratch.path`, so repeated
    /// calls on a same-size graph allocate nothing. The traversal order
    /// (out-arc declaration order) is fixed, so results are deterministic.
    pub fn augment_one(
        &mut self,
        s: NodeId,
        t: NodeId,
        scratch: &mut SolveScratch,
    ) -> Option<Augmentation> {
        let bottleneck =
            augmenting::augment::<false, false>(self, s, t, scratch, &mut OpStats::new())?;
        // path was collected sink-first: [0] touches t, the final entry s.
        let path = &scratch.path;
        Some(Augmentation {
            bottleneck,
            first: path[path.len() - 1],
            last: path[0],
        })
    }

    /// Cancel one unit of flow along a saturated path that starts with the
    /// forward arc `first` (typically a source-adjacent request arc) and
    /// ends at `t`: walk forward greedily over flow-carrying arcs, then push
    /// one unit on every walked arc's twin, restoring residual capacity.
    ///
    /// The walked arcs are left in `path` (cleared first), oldest first, so
    /// the caller can identify what was freed — e.g. the sink-adjacent arc
    /// names the resource a release returns to the pool. `path` is a
    /// caller-owned buffer precisely so steady-state releases allocate
    /// nothing.
    ///
    /// The walk may interleave units of different decomposition paths when
    /// they share a node; any flow-carrying continuation is algebraically
    /// valid (flow conservation drops by one on both sides of each visited
    /// node) — the result is a legal flow of value one less in which `first`
    /// carries no flow. Errors (without modifying the flow) if `first` is
    /// not a flow-carrying forward arc, or if the walk cannot reach `t` —
    /// conservation is violated or the flow contains a cycle, both of which
    /// indicate a corrupted network rather than a malformed command.
    pub fn cancel_path(
        &mut self,
        first: ArcId,
        t: NodeId,
        path: &mut Vec<ArcId>,
    ) -> Result<(), String> {
        if !first.is_forward() {
            return Err(format!(
                "cancel_path: arc {} is a residual twin, not a forward arc",
                first.index()
            ));
        }
        if self.arc_flow(first) < 1 {
            return Err(format!(
                "cancel_path: arc {} carries no flow to cancel",
                first.index()
            ));
        }
        path.clear();
        path.push(first);
        let mut u = self.head(first);
        let mut steps = 0usize;
        while u != t {
            steps += 1;
            if steps > self.num_arcs() {
                return Err("cancel_path: walk exceeded arc count (cyclic flow?)".into());
            }
            let next = self
                .out_arcs(u)
                .find(|&a| a.is_forward() && self.arc_flow(a) > 0)
                .ok_or_else(|| {
                    format!(
                        "cancel_path: flow conservation violated at node {}",
                        u.index()
                    )
                })?;
            path.push(next);
            u = self.head(next);
        }
        for &a in path.iter() {
            self.push(a.twin(), 1);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::FlowNetworkBuilder;
    use crate::max_flow::{solve, Algorithm};

    /// s -> a,b -> t diamond, all unit caps.
    fn diamond() -> (FlowNetwork, NodeId, NodeId, ArcId, ArcId) {
        let mut g = FlowNetworkBuilder::new();
        let s = g.add_node("s");
        let a = g.add_node("a");
        let b = g.add_node("b");
        let t = g.add_node("t");
        let sa = g.add_arc(s, a, 1, 0);
        let sb = g.add_arc(s, b, 1, 0);
        g.add_arc(a, t, 1, 0);
        g.add_arc(b, t, 1, 0);
        let g = g.build();
        (g, s, t, sa, sb)
    }

    #[test]
    fn augment_one_reaches_max_flow_one_unit_at_a_time() {
        let (mut g, s, t, sa, sb) = diamond();
        let mut scratch = SolveScratch::new();
        let a1 = g.augment_one(s, t, &mut scratch).unwrap();
        assert_eq!((a1.bottleneck, a1.first), (1, sa));
        let a2 = g.augment_one(s, t, &mut scratch).unwrap();
        assert_eq!((a2.bottleneck, a2.first), (1, sb));
        assert!(g.augment_one(s, t, &mut scratch).is_none());
        assert_eq!(g.check_legal_flow(s, t).unwrap(), 2);
    }

    #[test]
    fn augment_one_with_source_equal_to_sink_is_none() {
        let (mut g, s, t, _, _) = diamond();
        let mut scratch = SolveScratch::new();
        assert_eq!(g.augment_one(s, s, &mut scratch), None);
        assert_eq!(g.augment_one(t, t, &mut scratch), None);
        assert_eq!(g.check_legal_flow(s, t).unwrap(), 0);
    }

    #[test]
    fn augment_one_reroutes_through_cancellation_arcs() {
        // Fig. 3 shape: the greedy first unit takes s->a->d->t, and the
        // second must cancel it back through the (d, a) residual arc.
        let mut g = FlowNetworkBuilder::new();
        let s = g.add_node("s");
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        let t = g.add_node("t");
        let sa = g.add_arc(s, a, 1, 0);
        g.add_arc(a, d, 1, 0);
        g.add_arc(a, b, 1, 0);
        g.add_arc(b, t, 1, 0);
        let sc = g.add_arc(s, c, 1, 0);
        g.add_arc(c, d, 1, 0);
        g.add_arc(d, t, 1, 0);
        let mut g = g.build();
        let mut scratch = SolveScratch::new();
        // Force the awkward first unit by hand: s->a->d->t.
        g.push(sa, 1);
        g.push(ArcId(2), 1);
        g.push(ArcId(12), 1);
        assert_eq!(g.check_legal_flow(s, t).unwrap(), 1);
        let aug = g.augment_one(s, t, &mut scratch).unwrap();
        assert_eq!((aug.bottleneck, aug.first), (1, sc));
        assert_eq!(g.check_legal_flow(s, t).unwrap(), 2);
        assert_eq!(g.arc(sa).flow, 1);
        assert_eq!(g.arc(sc).flow, 1);
    }

    #[test]
    fn cancel_path_releases_one_unit_and_augment_restores_it() {
        let (mut g, s, t, sa, _) = diamond();
        let mut scratch = SolveScratch::new();
        let r = solve(&mut g, s, t, Algorithm::Dinic);
        assert_eq!(r.value, 2);
        let mut buf = Vec::new();
        g.cancel_path(sa, t, &mut buf).unwrap();
        assert_eq!(g.check_legal_flow(s, t).unwrap(), 1);
        assert_eq!(g.arc(sa).flow, 0);
        assert_eq!(buf.len(), 2, "s->a->t has two arcs");
        // The freed capacity is immediately re-augmentable.
        assert_eq!(g.augment_one(s, t, &mut scratch).unwrap().bottleneck, 1);
        assert_eq!(g.check_legal_flow(s, t).unwrap(), 2);
    }

    #[test]
    fn cancel_path_rejects_flowless_and_backward_arcs() {
        let (mut g, s, t, sa, sb) = diamond();
        let mut buf = Vec::new();
        assert!(g.cancel_path(sa, t, &mut buf).is_err(), "no flow yet");
        let mut scratch = SolveScratch::new();
        g.augment_one(s, t, &mut scratch).unwrap();
        assert!(g.cancel_path(sa.twin(), t, &mut buf).is_err(), "twin arc");
        assert!(g.cancel_path(sb, t, &mut buf).is_err(), "unused request");
        // The legal one still works and leaves a legal empty flow.
        assert!(g.cancel_path(sa, t, &mut buf).is_ok());
        assert_eq!(g.check_legal_flow(s, t).unwrap(), 0);
    }

    #[test]
    fn incremental_stream_matches_batch_dinic_value() {
        // Random-ish interleaving on a ladder: every prefix's incremental
        // value equals a from-scratch Dinic solve on the same capacities.
        let build = |enabled: &[bool]| {
            let mut g = FlowNetworkBuilder::new();
            let s = g.add_node("s");
            let t = g.add_node("t");
            let mut source_arcs = Vec::new();
            let mid: Vec<NodeId> = (0..4).map(|i| g.add_node(format!("m{i}"))).collect();
            for (i, &m) in mid.iter().enumerate() {
                let cap = Flow::from(enabled[i]);
                source_arcs.push(g.add_arc(s, m, cap, 0));
                g.add_arc(m, t, 1, 0);
            }
            let g = g.build();
            (g, s, t, source_arcs)
        };
        let mut enabled = [false; 4];
        let (mut inc, s, t, arcs) = build(&enabled);
        let mut scratch = SolveScratch::new();
        let mut buf = Vec::new();
        let script: &[(usize, bool)] = &[(0, true), (2, true), (0, false), (1, true), (2, false)];
        for &(i, on) in script {
            enabled[i] = on;
            if on {
                inc.set_cap(arcs[i], 1);
                inc.augment_one(s, t, &mut scratch);
            } else {
                inc.cancel_path(arcs[i], t, &mut buf).unwrap();
                inc.set_cap(arcs[i], 0);
            }
            let (mut fresh, fs, ft, _) = build(&enabled);
            let want = solve(&mut fresh, fs, ft, Algorithm::Dinic).value;
            assert_eq!(inc.check_legal_flow(s, t).unwrap(), want);
        }
    }
}
