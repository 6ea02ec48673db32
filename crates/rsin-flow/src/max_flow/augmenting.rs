//! Augmenting-path search: the one residual-graph search behind
//! Ford–Fulkerson, Edmonds–Karp and the streaming schedulers' warm-start
//! arrivals ([`FlowNetwork::augment_one`]).
//!
//! The paper describes the scheme as the primal-dual method "in which the
//! flow value is increased by iteratively searching for flow augmenting
//! paths until the minimum cut-set of the network is saturated" (Section
//! III-B). With integral capacities it terminates with an integral maximum
//! flow, the property Theorem 2 relies on. Read as a stack, the search is
//! Ford–Fulkerson's depth-first one; read as a queue, it finds a shortest
//! path, which gives Edmonds–Karp its `O(|V| |E|^2)` bound independent of
//! capacities.

use super::MaxFlowResult;
use crate::graph::{FlowNetwork, NodeId};
use crate::scratch::{SolveScratch, UNLEVELLED};
use crate::stats::OpStats;
use crate::Flow;

/// Search the residual graph for an `s`→`t` path and push its bottleneck;
/// `None` when there is none (the flow is maximum) or `s == t`.
///
/// The frontier is a stack when `DEPTH_FIRST` (Ford–Fulkerson: `t` ends
/// the search when popped) and a queue otherwise (a shortest path:
/// `t` ends the search when labelled). Either way arcs are taken in slot
/// order and each node is labelled once. With `COUNT`, a node visit counts
/// into `stats` per pop and an arc scan per slot read; without it `stats`
/// is untouched, for a streaming arrival, which reports no counts (the
/// updates cost `serve_stream` about a fifth of its throughput). The path's
/// arcs are left in `scratch.path`, sink first. Allocation-free once the
/// scratch has seen the node count.
pub(crate) fn augment<const DEPTH_FIRST: bool, const COUNT: bool>(
    g: &mut FlowNetwork,
    s: NodeId,
    t: NodeId,
    scratch: &mut SolveScratch,
    stats: &mut OpStats,
) -> Option<Flow> {
    if s == t {
        return None;
    }
    let n = g.num_nodes();
    scratch.ensure_nodes(n);
    let SolveScratch {
        level,
        frontier,
        parent,
        path,
        ..
    } = scratch;
    level[..n].fill(UNLEVELLED);
    frontier.clear();
    frontier.reserve(n);
    level[s.index()] = 0;
    frontier.push(s);
    // A queue is the frontier read by a head index.
    let mut head = 0;
    'search: loop {
        let u = if DEPTH_FIRST {
            match frontier.pop() {
                Some(u) => u,
                None => break,
            }
        } else {
            match frontier.get(head) {
                Some(&u) => {
                    head += 1;
                    u
                }
                None => break,
            }
        };
        if COUNT {
            stats.node_visits += 1;
        }
        if DEPTH_FIRST && u == t {
            break;
        }
        let range = g.out_range(u);
        for h in &g.hot_arcs()[range] {
            if COUNT {
                stats.arc_scans += 1;
            }
            let v = h.head;
            if h.res <= 0 || level[v.index()] != UNLEVELLED {
                continue;
            }
            level[v.index()] = level[u.index()] + 1;
            parent[v.index()] = Some(h.id);
            if !DEPTH_FIRST && v == t {
                break 'search;
            }
            frontier.push(v);
        }
    }
    // Depth first, `t` is labelled only once pushed, and the stack empties
    // only after it is popped: labelled means found either way.
    if level[t.index()] == UNLEVELLED {
        return None;
    }
    path.clear();
    let mut bottleneck = Flow::MAX;
    let mut v = t;
    while v != s {
        let a = parent[v.index()].expect("the search tree reaches back to s");
        bottleneck = bottleneck.min(g.residual(a));
        path.push(a);
        v = g.tail(a);
    }
    for &a in path.iter() {
        g.push(a, bottleneck);
    }
    Some(bottleneck)
}

/// A maximum `s`→`t` flow by repeated [`augment`], depth first
/// (Ford–Fulkerson) or breadth first (Edmonds–Karp).
pub(crate) fn solve<const DEPTH_FIRST: bool>(
    g: &mut FlowNetwork,
    s: NodeId,
    t: NodeId,
    scratch: &mut SolveScratch,
) -> MaxFlowResult {
    let mut stats = OpStats::new();
    let mut value = 0;
    while let Some(pushed) = augment::<DEPTH_FIRST, true>(g, s, t, scratch, &mut stats) {
        value += pushed;
        stats.augmentations += 1;
    }
    MaxFlowResult { value, stats }
}
