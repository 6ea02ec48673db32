//! Minimum-cut extraction and the max-flow = min-cut certificate.
//!
//! After a maximum flow has been computed, the set `S` of nodes reachable
//! from the source in the residual graph defines a minimum cut `(S, V\S)`.
//! The paper uses this as the termination argument for Ford–Fulkerson: "no
//! more flow can be advanced since the minimum cut-set is the bottleneck".
//! Tests across the workspace use [`verify_max_flow`] as an *independent
//! certificate* that a computed flow really is maximum.

use crate::graph::{ArcId, FlowNetwork, NodeId};
use crate::Flow;

/// A source-side/sink-side partition with its crossing arcs.
#[derive(Debug, Clone)]
pub struct Cut {
    /// Nodes reachable from the source in the residual graph.
    pub source_side: Vec<NodeId>,
    /// Forward arcs crossing from the source side to the sink side.
    pub arcs: Vec<ArcId>,
    /// Total capacity of the crossing arcs.
    pub capacity: Flow,
}

/// Extract the canonical minimum cut of the *current* flow in `g`.
///
/// Only meaningful when the flow is maximum (otherwise the "cut" includes
/// the sink or undersells the capacity); combine with [`verify_max_flow`].
pub fn min_cut(g: &FlowNetwork, s: NodeId) -> Cut {
    let mut reachable = vec![false; g.num_nodes()];
    reachable[s.index()] = true;
    let mut stack = vec![s];
    while let Some(u) = stack.pop() {
        for a in g.out_arcs(u) {
            let arc = g.arc(a);
            if arc.residual() > 0 && !reachable[arc.to.index()] {
                reachable[arc.to.index()] = true;
                stack.push(arc.to);
            }
        }
    }
    let mut arcs = Vec::new();
    let mut capacity = 0;
    for (id, a) in g.forward_arcs() {
        if reachable[a.from.index()] && !reachable[a.to.index()] {
            arcs.push(id);
            capacity += a.cap;
        }
    }
    let source_side = g.nodes().filter(|n| reachable[n.index()]).collect();
    Cut {
        source_side,
        arcs,
        capacity,
    }
}

/// Certify that the current flow in `g` is a legal maximum `s`→`t` flow:
/// it must be legal (capacity + conservation) and its value must equal the
/// capacity of the residual-reachability cut, with `t` on the sink side.
pub fn verify_max_flow(g: &FlowNetwork, s: NodeId, t: NodeId) -> Result<Flow, String> {
    let value = g.check_legal_flow(s, t)?;
    let cut = min_cut(g, s);
    if cut.source_side.contains(&t) {
        return Err("sink still reachable in residual graph: flow not maximum".into());
    }
    if cut.capacity != value {
        return Err(format!(
            "flow value {} != min-cut capacity {}",
            value, cut.capacity
        ));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::FlowNetworkBuilder;
    use crate::max_flow::{solve, Algorithm};

    #[test]
    fn cut_certifies_max_flow() {
        let mut g = FlowNetworkBuilder::new();
        let s = g.add_node("s");
        let a = g.add_node("a");
        let b = g.add_node("b");
        let t = g.add_node("t");
        g.add_arc(s, a, 3, 0);
        g.add_arc(s, b, 2, 0);
        g.add_arc(a, t, 2, 0);
        g.add_arc(b, t, 3, 0);
        g.add_arc(a, b, 5, 0);
        let mut g = g.build();
        let r = solve(&mut g, s, t, Algorithm::Dinic);
        assert_eq!(r.value, 5);
        assert_eq!(verify_max_flow(&g, s, t).unwrap(), 5);
    }

    #[test]
    fn partial_flow_fails_verification() {
        let mut g = FlowNetworkBuilder::new();
        let s = g.add_node("s");
        let t = g.add_node("t");
        g.add_arc(s, t, 2, 0);
        let g = g.build();
        // Zero flow is legal but not maximum.
        assert!(verify_max_flow(&g, s, t).is_err());
    }

    #[test]
    fn bottleneck_cut_identified() {
        // s -> a (10), a -> t (1): the min cut is {a->t}.
        let mut g = FlowNetworkBuilder::new();
        let s = g.add_node("s");
        let a = g.add_node("a");
        let t = g.add_node("t");
        g.add_arc(s, a, 10, 0);
        let at = g.add_arc(a, t, 1, 0);
        let mut g = g.build();
        solve(&mut g, s, t, Algorithm::EdmondsKarp);
        let cut = min_cut(&g, s);
        assert_eq!(cut.capacity, 1);
        assert_eq!(cut.arcs, vec![at]);
        assert!(cut.source_side.contains(&a));
    }

    #[test]
    fn zero_flow_on_disconnected_graph_verifies() {
        let mut g = FlowNetworkBuilder::new();
        let s = g.add_node("s");
        let t = g.add_node("t");
        let g = g.build();
        assert_eq!(verify_max_flow(&g, s, t).unwrap(), 0);
    }
}
