//! Fulkerson's out-of-kilter algorithm for minimum-cost circulations.
//!
//! The algorithm the paper names for Transformation 2 ("Edmonds and Karp
//! have developed a scaled out-of-kilter algorithm to obtain the minimum
//! cost flow … in polynomial time \[18\], \[13\]"). It operates on a circulation
//! network whose arcs carry lower/upper bounds and costs. Every arc has a
//! *kilter state* derived from its reduced cost `ĉ(e) = c(e) + π(tail) −
//! π(head)` under node potentials `π` (complementary slackness):
//!
//! | reduced cost | in kilter iff |
//! |--------------|----------------|
//! | `ĉ > 0`      | `f = lower`    |
//! | `ĉ = 0`      | `lower ≤ f ≤ upper` |
//! | `ĉ < 0`      | `f = upper`    |
//!
//! Out-of-kilter arcs are repaired by augmenting around cycles found in an
//! auxiliary labeling graph; when the labeling is blocked, node potentials
//! are raised across the cut. Kilter numbers never increase, so the method
//! terminates with an optimal circulation (or proves infeasibility of the
//! lower bounds).
//!
//! The min-cost *flow* adapter (behind
//! [`min_cost::solve_observed`](super::solve_observed)) first computes the
//! maximum-flow value `F*` (capped by the target) and then asks for a
//! circulation with a return arc `t→s` bounded `[F*, F*]`, i.e. the
//! minimum-cost flow of value `F*`.

use super::MinCostResult;
use crate::graph::{ArcId, FlowNetwork, NodeId};
use crate::max_flow::dinic;
use crate::scratch::SolveScratch;
use crate::stats::OpStats;
use crate::{Cost, Flow};

const INF_COST: Cost = Cost::MAX / 4;

/// One arc of a kilter (circulation) network.
#[derive(Debug, Clone)]
pub struct KilterArc {
    /// Tail node index.
    pub from: usize,
    /// Head node index.
    pub to: usize,
    /// Lower flow bound.
    pub lower: Flow,
    /// Upper flow bound (capacity).
    pub upper: Flow,
    /// Cost per unit of flow.
    pub cost: Cost,
    /// Current flow.
    pub flow: Flow,
}

impl KilterArc {
    fn kilter_number(&self, pot: &[Cost]) -> Flow {
        let rc = self.cost + pot[self.from] - pot[self.to];
        if rc > 0 {
            (self.flow - self.lower).abs()
        } else if rc < 0 {
            (self.upper - self.flow).abs()
        } else {
            (self.lower - self.flow).max(self.flow - self.upper).max(0)
        }
    }
}

/// A circulation network for the out-of-kilter method.
///
/// Also owns the labeling working buffers, so repeated solves on the same
/// instance — and, via [`KilterNetwork::reset`], successive instances — run
/// without per-iteration allocation. A default-constructed network has zero
/// nodes; [`reset`](Self::reset) re-sizes it for reuse inside
/// [`SolveScratch`].
#[derive(Debug, Clone, Default)]
pub struct KilterNetwork {
    num_nodes: usize,
    arcs: Vec<KilterArc>,
    pot: Vec<Cost>,
    /// Labeling: node in the reachable set S.
    in_s: Vec<bool>,
    /// Labeling: `parent[v] = (arc index, traversed forward?)`.
    parent: Vec<Option<(usize, bool)>>,
    /// Labeling: DFS frontier stack.
    frontier: Vec<usize>,
}

/// Error: the lower bounds admit no feasible circulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Infeasible;

impl KilterNetwork {
    /// A network over `num_nodes` nodes with no arcs.
    pub fn new(num_nodes: usize) -> Self {
        let mut kn = KilterNetwork::default();
        kn.reset(num_nodes);
        kn
    }

    /// Clear arcs, potentials and labels and re-size for `num_nodes`,
    /// keeping every allocation. This is the reuse protocol for scratch
    /// callers: reset, re-add arcs, solve.
    pub fn reset(&mut self, num_nodes: usize) {
        self.num_nodes = num_nodes;
        self.arcs.clear();
        self.pot.clear();
        self.pot.resize(num_nodes, 0);
    }

    /// Add an arc with bounds `[lower, upper]` and unit cost `cost`; initial
    /// flow is zero (which may leave the arc out of kilter).
    pub fn add_arc(&mut self, from: usize, to: usize, lower: Flow, upper: Flow, cost: Cost) {
        assert!(lower <= upper, "lower > upper");
        assert!(from < self.num_nodes && to < self.num_nodes);
        self.arcs.push(KilterArc {
            from,
            to,
            lower,
            upper,
            cost,
            flow: 0,
        });
    }

    /// Current arcs (with final flows after [`KilterNetwork::solve`]).
    pub fn arcs(&self) -> &[KilterArc] {
        &self.arcs
    }

    /// Total cost of the current circulation.
    pub fn total_cost(&self) -> Cost {
        self.arcs.iter().map(|a| a.cost * a.flow).sum()
    }

    /// Sum of kilter numbers (zero iff the circulation is optimal/feasible).
    pub fn total_kilter(&self) -> Flow {
        self.arcs.iter().map(|a| a.kilter_number(&self.pot)).sum()
    }

    /// Run the out-of-kilter method to optimality.
    pub fn solve(&mut self, stats: &mut OpStats) -> Result<(), Infeasible> {
        while let Some(e) =
            (0..self.arcs.len()).find(|&i| self.arcs[i].kilter_number(&self.pot) > 0)
        {
            self.bring_into_kilter(e, stats)?;
        }
        Ok(())
    }

    /// Repair arc `e` (repeated augment / potential-update steps).
    fn bring_into_kilter(&mut self, e: usize, stats: &mut OpStats) -> Result<(), Infeasible> {
        loop {
            let arc = &self.arcs[e];
            let rc = arc.cost + self.pot[arc.from] - self.pot[arc.to];
            let k = arc.kilter_number(&self.pot);
            if k == 0 {
                return Ok(());
            }
            // Decide whether e's flow must increase or decrease, how much,
            // and between which endpoints the repair path must run.
            let (increase, amount) = if rc > 0 {
                if arc.flow < arc.lower {
                    (true, arc.lower - arc.flow)
                } else {
                    (false, arc.flow - arc.lower)
                }
            } else if rc < 0 {
                if arc.flow < arc.upper {
                    (true, arc.upper - arc.flow)
                } else {
                    (false, arc.flow - arc.upper)
                }
            } else if arc.flow < arc.lower {
                (true, arc.lower - arc.flow)
            } else {
                (false, arc.flow - arc.upper)
            };
            // Increasing f(e) needs a path head->tail; decreasing, tail->head.
            let (start, goal) = if increase {
                (self.arcs[e].to, self.arcs[e].from)
            } else {
                (self.arcs[e].from, self.arcs[e].to)
            };

            match self.label(start, goal, e, stats) {
                LabelOutcome::Path => {
                    // Trace bottleneck along the labeled path.
                    let mut delta = amount;
                    let mut v = goal;
                    while v != start {
                        let (arc_idx, forward) = self.parent[v].unwrap();
                        let a = &self.arcs[arc_idx];
                        let rc_a = a.cost + self.pot[a.from] - self.pot[a.to];
                        let room = if forward {
                            if rc_a > 0 {
                                a.lower - a.flow
                            } else {
                                a.upper - a.flow
                            }
                        } else if rc_a < 0 {
                            a.flow - a.upper
                        } else {
                            a.flow - a.lower
                        };
                        delta = delta.min(room);
                        v = if forward { a.from } else { a.to };
                    }
                    debug_assert!(delta > 0);
                    // Apply: path arcs then e itself.
                    let mut v = goal;
                    while v != start {
                        let (arc_idx, forward) = self.parent[v].unwrap();
                        if forward {
                            self.arcs[arc_idx].flow += delta;
                            v = self.arcs[arc_idx].from;
                        } else {
                            self.arcs[arc_idx].flow -= delta;
                            v = self.arcs[arc_idx].to;
                        }
                    }
                    if increase {
                        self.arcs[e].flow += delta;
                    } else {
                        self.arcs[e].flow -= delta;
                    }
                    stats.augmentations += 1;
                }
                LabelOutcome::Cut => {
                    // Potential update across (S, V\S). The bound must keep
                    // *every* crossing arc's reduced cost from changing
                    // sign (otherwise an in-kilter arc could leave kilter),
                    // which also covers the repair arc `e` itself: when `e`
                    // crosses the cut with the "wrong" reduced-cost sign,
                    // successive updates drive its ĉ to zero and repair it
                    // without any augmentation (e.g. a negative-cost arc
                    // with no return path, which is optimal at ĉ = 0).
                    let mut delta = INF_COST;
                    for a in &self.arcs {
                        let rc_a = a.cost + self.pot[a.from] - self.pot[a.to];
                        if self.in_s[a.from] && !self.in_s[a.to] && rc_a > 0 {
                            delta = delta.min(rc_a);
                        }
                        if !self.in_s[a.from] && self.in_s[a.to] && rc_a < 0 {
                            delta = delta.min(-rc_a);
                        }
                    }
                    if delta >= INF_COST {
                        return Err(Infeasible);
                    }
                    for (pot, &inside) in self.pot.iter_mut().zip(&self.in_s) {
                        if !inside {
                            *pot += delta;
                        }
                    }
                }
            }
        }
    }

    /// Label nodes reachable from `start` in the auxiliary graph (skipping
    /// the arc being repaired), filling `self.in_s` / `self.parent`.
    /// Returns whether `goal` was reached (path) or not (cut).
    fn label(
        &mut self,
        start: usize,
        goal: usize,
        skip: usize,
        stats: &mut OpStats,
    ) -> LabelOutcome {
        self.in_s.clear();
        self.in_s.resize(self.num_nodes, false);
        self.parent.clear();
        self.parent.resize(self.num_nodes, None);
        self.in_s[start] = true;
        self.frontier.clear();
        self.frontier.push(start);
        while let Some(u) = self.frontier.pop() {
            stats.node_visits += 1;
            if u == goal {
                return LabelOutcome::Path;
            }
            for (i, a) in self.arcs.iter().enumerate() {
                if i == skip {
                    continue;
                }
                stats.arc_scans += 1;
                let rc = a.cost + self.pot[a.from] - self.pot[a.to];
                // Forward traversal p -> q.
                if a.from == u && !self.in_s[a.to] {
                    let ok = (rc > 0 && a.flow < a.lower) || (rc <= 0 && a.flow < a.upper);
                    if ok {
                        self.in_s[a.to] = true;
                        self.parent[a.to] = Some((i, true));
                        self.frontier.push(a.to);
                    }
                }
                // Backward traversal q -> p.
                if a.to == u && !self.in_s[a.from] {
                    let ok = (rc < 0 && a.flow > a.upper) || (rc >= 0 && a.flow > a.lower);
                    if ok {
                        self.in_s[a.from] = true;
                        self.parent[a.from] = Some((i, false));
                        self.frontier.push(a.from);
                    }
                }
            }
        }
        if self.in_s[goal] {
            LabelOutcome::Path
        } else {
            LabelOutcome::Cut
        }
    }
}

enum LabelOutcome {
    Path,
    Cut,
}

/// Min-cost-flow adapter: compute the minimum-cost flow of value
/// `min(target, max-flow)` on `g` using the out-of-kilter method, writing
/// the optimal flow back into `g`. The phase-A max-flow probe runs on `g`
/// itself through Dinic (no graph clone — `g` is cleared before write-back
/// regardless), and the kilter network and its labeling buffers live inside
/// the scratch, so a hot-loop caller allocates nothing after the first
/// solve.
pub(crate) fn solve_on_network(
    g: &mut FlowNetwork,
    s: NodeId,
    t: NodeId,
    target: Flow,
    scratch: &mut SolveScratch,
) -> MinCostResult {
    let mut stats = OpStats::new();
    if s == t || target <= 0 {
        g.clear_flow();
        return MinCostResult {
            flow: 0,
            cost: 0,
            stats,
        };
    }
    // Phase A: the achievable value, probed in place.
    g.clear_flow();
    let mf = dinic::solve_labelled(g, s, t, None, scratch, &rsin_obs::NoopProbe);
    stats.merge(&mf.stats);
    let fstar = target.min(mf.value);

    // Phase B: min-cost circulation with return arc bounded [F*, F*].
    let kn = &mut scratch.kilter;
    kn.reset(g.num_nodes());
    for (_, a) in g.forward_arcs() {
        kn.add_arc(a.from.index(), a.to.index(), 0, a.cap, a.cost);
    }
    kn.add_arc(t.index(), s.index(), fstar, fstar, 0);
    kn.solve(&mut stats)
        .expect("F* <= max-flow, so the circulation is feasible");

    // Write flows back (forward arc i of `g` is kilter arc i, by
    // construction order).
    g.clear_flow();
    for i in 0..g.num_arcs() {
        let f = kn.arcs()[i].flow;
        if f > 0 {
            g.push(ArcId(2 * i as u32), f);
        }
    }
    MinCostResult {
        flow: fstar,
        cost: g.flow_cost(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kilter_number_cases() {
        let arc = KilterArc {
            from: 0,
            to: 1,
            lower: 1,
            upper: 3,
            cost: 2,
            flow: 0,
        };
        // pot zero: rc = 2 > 0, in kilter iff f = lower = 1; f=0 -> k=1.
        assert_eq!(arc.kilter_number(&[0, 0]), 1);
        // pot makes rc = 0: k = violation of bounds only.
        assert_eq!(arc.kilter_number(&[0, 2]), 1); // f=0 < lower=1
                                                   // pot makes rc < 0: want f = upper.
        assert_eq!(arc.kilter_number(&[0, 5]), 3);
    }

    #[test]
    fn feasible_circulation_with_lower_bounds() {
        // Cycle a->b->a, both lower bound 2.
        let mut kn = KilterNetwork::new(2);
        kn.add_arc(0, 1, 2, 5, 1);
        kn.add_arc(1, 0, 2, 5, 1);
        let mut st = OpStats::new();
        kn.solve(&mut st).unwrap();
        assert_eq!(kn.total_kilter(), 0);
        assert_eq!(kn.arcs()[0].flow, 2);
        assert_eq!(kn.arcs()[1].flow, 2);
        assert_eq!(kn.total_cost(), 4);
    }

    #[test]
    fn infeasible_lower_bound_detected() {
        // Arc with lower bound 1 and no way to return the flow.
        let mut kn = KilterNetwork::new(2);
        kn.add_arc(0, 1, 1, 1, 0);
        let mut st = OpStats::new();
        assert_eq!(kn.solve(&mut st), Err(Infeasible));
    }

    #[test]
    fn negative_cost_cycle_is_saturated() {
        // A profitable cycle must be pushed to capacity.
        let mut kn = KilterNetwork::new(2);
        kn.add_arc(0, 1, 0, 4, -3);
        kn.add_arc(1, 0, 0, 4, 1);
        let mut st = OpStats::new();
        kn.solve(&mut st).unwrap();
        assert_eq!(kn.arcs()[0].flow, 4);
        assert_eq!(kn.arcs()[1].flow, 4);
        assert_eq!(kn.total_cost(), -8);
    }

    #[test]
    fn negative_cost_arc_without_return_path_is_repaired_by_potentials() {
        // Regression (found by proptest): an arc with negative cost, zero
        // lower bound, and no cycle through it cannot carry flow; the
        // algorithm must repair it by raising potentials until ĉ = 0, not
        // report infeasibility.
        let mut kn = KilterNetwork::new(4);
        kn.add_arc(1, 2, 0, 3, -3);
        let mut st = OpStats::new();
        kn.solve(&mut st).unwrap();
        assert_eq!(kn.arcs()[0].flow, 0);
        assert_eq!(kn.total_kilter(), 0);
    }

    #[test]
    fn zero_cost_network_only_meets_bounds() {
        let mut kn = KilterNetwork::new(3);
        kn.add_arc(0, 1, 1, 2, 0);
        kn.add_arc(1, 2, 0, 2, 0);
        kn.add_arc(2, 0, 0, 2, 0);
        let mut st = OpStats::new();
        kn.solve(&mut st).unwrap();
        assert!(kn.arcs()[0].flow >= 1);
        assert_eq!(kn.total_kilter(), 0);
    }
}
