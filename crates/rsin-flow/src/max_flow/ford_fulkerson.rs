//! Ford–Fulkerson maximum flow with DFS augmenting-path search.
//!
//! The paper describes this as the primal-dual scheme "in which the flow
//! value is increased by iteratively searching for flow augmenting paths
//! until the minimum cut-set of the network is saturated" (Section III-B).
//! With integral capacities the method terminates with an integral maximum
//! flow — the property Theorem 2 relies on.

use super::MaxFlowResult;
use crate::graph::{ArcId, FlowNetwork, NodeId};
use crate::stats::OpStats;
use crate::Flow;

/// Compute a maximum `s`→`t` flow by repeated DFS augmentation.
pub fn solve(g: &mut FlowNetwork, s: NodeId, t: NodeId) -> MaxFlowResult {
    let mut stats = OpStats::new();
    let mut value = 0;
    if s == t {
        return MaxFlowResult { value, stats };
    }
    loop {
        let mut visited = vec![false; g.num_nodes()];
        let mut parent: Vec<Option<ArcId>> = vec![None; g.num_nodes()];
        // Iterative DFS over residual arcs.
        let mut stack = vec![s];
        visited[s.index()] = true;
        let mut found = false;
        while let Some(u) = stack.pop() {
            stats.node_visits += 1;
            if u == t {
                found = true;
                break;
            }
            let range = g.out_range(u);
            for h in &g.hot_arcs()[range] {
                stats.arc_scans += 1;
                if h.res > 0 {
                    let to = h.head;
                    if !visited[to.index()] {
                        visited[to.index()] = true;
                        parent[to.index()] = Some(h.id);
                        stack.push(to);
                    }
                }
            }
        }
        if !found {
            break;
        }
        // Bottleneck along the path, then push.
        let mut bottleneck = Flow::MAX;
        let mut v = t;
        while v != s {
            let a = parent[v.index()].expect("path reconstruction");
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
    MaxFlowResult { value, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::FlowNetworkBuilder;

    #[test]
    fn counts_augmentations() {
        let mut g = FlowNetworkBuilder::new();
        let s = g.add_node("s");
        let t = g.add_node("t");
        g.add_arc(s, t, 1, 0);
        g.add_arc(s, t, 1, 0);
        let mut g = g.build();
        let r = solve(&mut g, s, t);
        assert_eq!(r.value, 2);
        assert_eq!(r.stats.augmentations, 2);
        assert!(r.stats.node_visits > 0);
    }

    #[test]
    fn respects_residual_twins() {
        // s -> a -> t with cap 1 and s -> b -> a with cap 1: second unit must
        // not exist because a -> t is saturated.
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
        let r = solve(&mut g, s, t);
        assert_eq!(r.value, 1);
    }
}
