//! The transshipment problem (mentioned alongside minimum-cost flow in
//! Section III-A's survey of network flow problems).
//!
//! Nodes carry integral *supplies* (positive) and *demands* (negative,
//! summing to zero); arcs carry capacities and costs; the goal is a
//! minimum-cost flow that ships every supply to a demand, possibly through
//! intermediate (transshipment) nodes. Solved by the classic reduction to
//! single-source minimum-cost flow: a super-source feeds every supply node
//! and every demand node drains to a super-sink.
//!
//! In RSIN terms this generalizes scheduling snapshots where processors
//! hold *several* queued requests and resources expose *several* service
//! slots — the load-balancing view of Section I.

use crate::graph::{ArcId, FlowNetworkBuilder, NodeId};
use crate::min_cost::{self, Algorithm};
use crate::stats::OpStats;
use crate::{Cost, Flow};

/// A transshipment instance builder.
///
/// ```
/// use rsin_flow::transshipment::Transshipment;
/// use rsin_flow::min_cost::Algorithm;
/// let mut t = Transshipment::new();
/// let a = t.add_node("factory", 2);
/// let b = t.add_node("store", -2);
/// t.add_arc(a, b, 5, 3);
/// let r = t.solve(Algorithm::SuccessiveShortestPaths).unwrap();
/// assert_eq!(r.cost, 6);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Transshipment {
    names: Vec<String>,
    supply: Vec<Flow>,
    arcs: Vec<(usize, usize, Flow, Cost)>,
}

/// Outcome of a transshipment solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransshipmentResult {
    /// Flow on each arc, in insertion order.
    pub flows: Vec<Flow>,
    /// Total shipping cost.
    pub cost: Cost,
    /// Operation counters.
    pub stats: OpStats,
}

/// The instance's supplies do not sum to zero, or a supply cannot be
/// routed under the capacities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransshipmentError {
    /// `Σ supply != 0`.
    Unbalanced,
    /// The network cannot carry all supplies to the demands.
    Infeasible,
}

impl Transshipment {
    /// Empty instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node with the given supply (positive), demand (negative), or
    /// pure transshipment role (zero).
    pub fn add_node(&mut self, name: impl Into<String>, supply: Flow) -> usize {
        self.names.push(name.into());
        self.supply.push(supply);
        self.names.len() - 1
    }

    /// Add a directed arc with capacity and per-unit cost.
    pub fn add_arc(&mut self, from: usize, to: usize, cap: Flow, cost: Cost) -> usize {
        assert!(from < self.names.len() && to < self.names.len());
        self.arcs.push((from, to, cap, cost));
        self.arcs.len() - 1
    }

    /// Total positive supply.
    pub fn total_supply(&self) -> Flow {
        self.supply.iter().filter(|s| **s > 0).sum()
    }

    /// Solve by reduction to single-source minimum-cost flow.
    pub fn solve(&self, algo: Algorithm) -> Result<TransshipmentResult, TransshipmentError> {
        if self.supply.iter().sum::<Flow>() != 0 {
            return Err(TransshipmentError::Unbalanced);
        }
        let mut b = FlowNetworkBuilder::with_capacity(self.names.len() + 2, self.arcs.len() + 4);
        let s = b.add_node("super-source");
        let t = b.add_node("super-sink");
        let nodes: Vec<NodeId> = self.names.iter().map(|n| b.add_node(n.clone())).collect();
        let mut arc_ids: Vec<ArcId> = Vec::with_capacity(self.arcs.len());
        for &(from, to, cap, cost) in &self.arcs {
            arc_ids.push(b.add_arc(nodes[from], nodes[to], cap, cost));
        }
        for (i, &sup) in self.supply.iter().enumerate() {
            if sup > 0 {
                b.add_arc(s, nodes[i], sup, 0);
            } else if sup < 0 {
                b.add_arc(nodes[i], t, -sup, 0);
            }
        }
        let mut g = b.build();
        let total = self.total_supply();
        let r = min_cost::solve(&mut g, s, t, total, algo);
        if r.flow < total {
            return Err(TransshipmentError::Infeasible);
        }
        let flows = arc_ids.iter().map(|&a| g.arc(a).flow).collect();
        Ok(TransshipmentResult {
            flows,
            cost: r.cost,
            stats: r.stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two factories, a warehouse, two stores.
    fn instance() -> Transshipment {
        let mut t = Transshipment::new();
        let f1 = t.add_node("f1", 4);
        let f2 = t.add_node("f2", 2);
        let w = t.add_node("warehouse", 0);
        let s1 = t.add_node("s1", -3);
        let s2 = t.add_node("s2", -3);
        t.add_arc(f1, w, 10, 2);
        t.add_arc(f2, w, 10, 1);
        t.add_arc(w, s1, 10, 1);
        t.add_arc(w, s2, 10, 3);
        t.add_arc(f1, s2, 2, 4);
        t
    }

    #[test]
    fn solves_and_all_algorithms_agree() {
        let inst = instance();
        let mut costs = Vec::new();
        for algo in Algorithm::ALL {
            let r = inst.solve(algo).unwrap();
            // All 6 units shipped.
            let shipped: Flow = r.flows[0] + r.flows[1] + r.flows[4];
            assert_eq!(shipped, 6, "{algo:?}");
            costs.push(r.cost);
        }
        assert!(costs.windows(2).all(|w| w[0] == w[1]), "{costs:?}");
        // Hand optimum: s1 <- f2 via w (2 units @2) + f1 via w (1 @3) = 7;
        // s2 <- f1 direct (2 @4) + f1 via w (1 @5) = 13. Total 20.
        assert_eq!(costs[0], 20);
    }

    #[test]
    fn unbalanced_rejected() {
        let mut t = Transshipment::new();
        t.add_node("a", 1);
        t.add_node("b", -2);
        assert_eq!(
            t.solve(Algorithm::SuccessiveShortestPaths),
            Err(TransshipmentError::Unbalanced)
        );
    }

    #[test]
    fn infeasible_capacity_detected() {
        let mut t = Transshipment::new();
        let a = t.add_node("a", 3);
        let b = t.add_node("b", -3);
        t.add_arc(a, b, 1, 1);
        assert_eq!(
            t.solve(Algorithm::SuccessiveShortestPaths),
            Err(TransshipmentError::Infeasible)
        );
    }

    #[test]
    fn pure_transshipment_nodes_conserve() {
        let inst = instance();
        let r = inst.solve(Algorithm::OutOfKilter).unwrap();
        // Warehouse in-flow equals out-flow.
        let into_w = r.flows[0] + r.flows[1];
        let out_w = r.flows[2] + r.flows[3];
        assert_eq!(into_w, out_w);
    }

    #[test]
    fn zero_supply_instance_ships_nothing() {
        let mut t = Transshipment::new();
        let a = t.add_node("a", 0);
        let b = t.add_node("b", 0);
        t.add_arc(a, b, 5, -2); // even profitable arcs carry nothing
        let r = t.solve(Algorithm::SuccessiveShortestPaths).unwrap();
        assert_eq!(r.flows, vec![0]);
        assert_eq!(r.cost, 0);
    }
}
