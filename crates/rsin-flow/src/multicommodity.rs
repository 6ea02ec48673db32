//! Multicommodity flow via linear programming (Section III-D of the paper).
//!
//! A heterogeneous MRSIN "is equivalent to a flow network carrying different
//! types of commodities": each resource type gets a source/sink pair, flows
//! of different commodities may share a link as long as the *total* stays
//! within its capacity. The paper formulates two LPs — the multicommodity
//! **maximum flow** and the multicommodity **minimum cost flow** — and notes
//! that while integral multicommodity flow is NP-hard in general,
//! interconnection networks of restricted topology belong to a class
//! (Evans–Jarvis \[14\]) whose LP optima are always integral and are obtained
//! "efficiently by the Simplex Method". This module builds those LPs
//! verbatim over a shared [`FlowNetwork`] and solves them with `rsin-lp`.

use crate::graph::{ArcId, FlowNetwork, NodeId};
use crate::{Cost, Flow};
use rsin_lp::{Cmp, LpError, Problem, Sense, VarId};

/// What a commodity wants: maximize its own throughput, or circulate a
/// fixed demand (the paper's `F₀^i`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Contribute `F^i` to a joint maximum-throughput objective.
    Maximize,
    /// Circulate exactly this much flow (requires a feasible network, e.g.
    /// one with bypass arcs from Transformation 2).
    FixedDemand(Flow),
}

/// Why a multicommodity solve failed.
#[derive(Debug, Clone, PartialEq)]
pub enum MultiCommodityError {
    /// [`min_cost`] was given a commodity without a fixed demand; the
    /// minimum-cost formulation needs every `F₀^i` pinned (use [`max_flow`]
    /// for throughput objectives).
    NonFixedDemand {
        /// Index of the offending commodity.
        commodity: usize,
    },
    /// The underlying LP failed (typically [`LpError::Infeasible`] when the
    /// demands exceed what the network can carry).
    Lp(LpError),
}

impl std::fmt::Display for MultiCommodityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MultiCommodityError::NonFixedDemand { commodity } => write!(
                f,
                "min_cost requires FixedDemand commodities, but commodity {commodity} maximizes"
            ),
            MultiCommodityError::Lp(e) => write!(f, "multicommodity LP failed: {e:?}"),
        }
    }
}

impl std::error::Error for MultiCommodityError {}

impl From<LpError> for MultiCommodityError {
    fn from(e: LpError) -> Self {
        MultiCommodityError::Lp(e)
    }
}

/// One commodity: a source/sink pair with an objective and optional
/// per-arc costs overriding the network's arc costs.
#[derive(Debug, Clone)]
pub struct Commodity {
    /// Where this commodity's flow originates.
    pub source: NodeId,
    /// Where it must be absorbed.
    pub sink: NodeId,
    /// Throughput or fixed-demand objective.
    pub objective: Objective,
    /// `costs[i]` = cost of the i-th forward arc for this commodity
    /// (the paper's `w^i(e)`); `None` uses the arc's own cost.
    pub costs: Option<Vec<Cost>>,
}

/// LP solution for a multicommodity problem.
#[derive(Debug, Clone)]
pub struct MultiSolution {
    /// `flows[i][a]` = flow of commodity `i` on forward arc index `a`
    /// (forward arc index = `ArcId.0 / 2`).
    pub flows: Vec<Vec<f64>>,
    /// Net flow value per commodity.
    pub values: Vec<f64>,
    /// LP objective (total throughput for max-flow, total cost for
    /// min-cost).
    pub objective: f64,
    /// Whether the LP vertex was integral (Evans–Jarvis property holds on
    /// the instance).
    pub integral: bool,
    /// Simplex pivots (work measure).
    pub pivots: usize,
}

impl MultiSolution {
    /// Rounded integral flow of commodity `i` on forward arc `a`.
    ///
    /// Only meaningful when [`MultiSolution::integral`] is true.
    pub fn int_flow(&self, commodity: usize, arc: ArcId) -> Flow {
        self.flows[commodity][arc.index() / 2].round() as Flow
    }
}

/// Build LP variables `f^i_a` and the joint-capacity + conservation rows
/// shared by both formulations. Returns the per-commodity variable grid.
fn build_base(
    p: &mut Problem,
    g: &FlowNetwork,
    commodities: &[Commodity],
    costed: bool,
) -> Vec<Vec<VarId>> {
    let arcs: Vec<_> = g
        .forward_arcs()
        .map(|(id, a)| (id, a.from, a.to, a.cap, a.cost))
        .collect();
    let mut vars: Vec<Vec<VarId>> = Vec::with_capacity(commodities.len());
    for (i, com) in commodities.iter().enumerate() {
        let mut row = Vec::with_capacity(arcs.len());
        for (k, &(_, from, to, _, cost)) in arcs.iter().enumerate() {
            let w = if costed {
                com.costs.as_ref().map_or(cost, |c| c[k]) as f64
            } else {
                0.0
            };
            row.push(p.add_var(
                format!("f{}_{}_{}", i, g.name(from), g.name(to)),
                0.0,
                f64::INFINITY,
                w,
            ));
            let _ = to;
        }
        vars.push(row);
    }
    // Joint capacity: sum_i f^i_a <= cap(a).
    for (k, &(_, _, _, cap, _)) in arcs.iter().enumerate() {
        let terms: Vec<_> = (0..commodities.len()).map(|i| (vars[i][k], 1.0)).collect();
        p.add_constraint(terms, Cmp::Le, cap as f64);
    }
    // Conservation per commodity at every interior node.
    for (i, com) in commodities.iter().enumerate() {
        for v in g.nodes() {
            if v == com.source || v == com.sink {
                continue;
            }
            let mut terms = Vec::new();
            for (k, &(_, from, to, _, _)) in arcs.iter().enumerate() {
                if from == v {
                    terms.push((vars[i][k], 1.0));
                }
                if to == v {
                    terms.push((vars[i][k], -1.0));
                }
            }
            if !terms.is_empty() {
                p.add_constraint(terms, Cmp::Eq, 0.0);
            }
        }
        // Nothing may flow *into* a commodity's source or *out of* its sink;
        // on loop-free MRSINs this is vacuous, but it keeps the formulation
        // faithful on general digraphs.
        for (k, &(_, from, to, _, _)) in arcs.iter().enumerate() {
            if to == com.source || from == com.sink {
                p.add_constraint(vec![(vars[i][k], 1.0)], Cmp::Eq, 0.0);
            }
        }
    }
    vars
}

fn net_out_terms(g: &FlowNetwork, vars: &[VarId], node: NodeId) -> Vec<(VarId, f64)> {
    let mut terms = Vec::new();
    for (k, (_, a)) in g.forward_arcs().enumerate() {
        if a.from == node {
            terms.push((vars[k], 1.0));
        }
        if a.to == node {
            terms.push((vars[k], -1.0));
        }
    }
    terms
}

fn extract(
    g: &FlowNetwork,
    commodities: &[Commodity],
    vars: &[Vec<VarId>],
    sol: &rsin_lp::Solution,
) -> MultiSolution {
    let n_arcs = g.num_arcs();
    let mut flows = Vec::with_capacity(commodities.len());
    let mut values = Vec::with_capacity(commodities.len());
    for (i, com) in commodities.iter().enumerate() {
        let f: Vec<f64> = (0..n_arcs).map(|k| sol.value(vars[i][k])).collect();
        let mut val = 0.0;
        for (k, (_, a)) in g.forward_arcs().enumerate() {
            if a.from == com.source {
                val += f[k];
            }
            if a.to == com.source {
                val -= f[k];
            }
        }
        flows.push(f);
        values.push(val);
    }
    let integral = sol.is_integral(1e-6);
    MultiSolution {
        flows,
        values,
        objective: sol.objective,
        integral,
        pivots: sol.pivots,
    }
}

/// The paper's *Multicommodity Maximum Flow Problem*: maximize `Σᵢ Fⁱ`
/// subject to per-commodity conservation and joint capacity limitation.
pub fn max_flow(g: &FlowNetwork, commodities: &[Commodity]) -> Result<MultiSolution, LpError> {
    let mut p = Problem::new(Sense::Maximize);
    let vars = build_base(&mut p, g, commodities, false);
    // Objective: sum of net outflow at each source.
    // (Encode as extra "value" variables tied by equality rows, so the
    // objective is a plain sum.)
    for (i, com) in commodities.iter().enumerate() {
        let fi = p.add_var(format!("F{i}"), 0.0, f64::INFINITY, 1.0);
        let mut terms = net_out_terms(g, &vars[i], com.source);
        terms.push((fi, -1.0));
        p.add_constraint(terms, Cmp::Eq, 0.0);
    }
    // Multicommodity LPs have far more columns (arcs x commodities) than
    // rows, the shape the revised simplex prices efficiently.
    let sol = p.solve()?;
    Ok(extract(g, commodities, &vars, &sol))
}

/// The paper's *Multicommodity Minimum Cost Flow Problem*: circulate the
/// fixed demands `F₀^i` at minimum total cost `Σᵢ Σₑ wⁱ(e) fⁱ(e)`.
///
/// Commodities with [`Objective::Maximize`] are rejected here with
/// [`MultiCommodityError::NonFixedDemand`]; use [`max_flow`] for throughput
/// objectives.
pub fn min_cost(
    g: &FlowNetwork,
    commodities: &[Commodity],
) -> Result<MultiSolution, MultiCommodityError> {
    let mut p = Problem::new(Sense::Minimize);
    let vars = build_base(&mut p, g, commodities, true);
    for (i, com) in commodities.iter().enumerate() {
        let Objective::FixedDemand(demand) = com.objective else {
            return Err(MultiCommodityError::NonFixedDemand { commodity: i });
        };
        let terms = net_out_terms(g, &vars[i], com.source);
        p.add_constraint(terms, Cmp::Eq, demand as f64);
    }
    let sol = p.solve()?;
    Ok(extract(g, commodities, &vars, &sol))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::FlowNetworkBuilder;

    /// Two commodities sharing a middle arc of capacity 1.
    fn shared_bottleneck() -> (FlowNetwork, Vec<Commodity>) {
        let mut g = FlowNetworkBuilder::new();
        let s1 = g.add_node("s1");
        let s2 = g.add_node("s2");
        let m = g.add_node("m");
        let n = g.add_node("n");
        let t1 = g.add_node("t1");
        let t2 = g.add_node("t2");
        g.add_arc(s1, m, 1, 0);
        g.add_arc(s2, m, 1, 0);
        g.add_arc(m, n, 1, 0); // shared bottleneck
        g.add_arc(n, t1, 1, 0);
        g.add_arc(n, t2, 1, 0);
        let g = g.build();
        let c = vec![
            Commodity {
                source: s1,
                sink: t1,
                objective: Objective::Maximize,
                costs: None,
            },
            Commodity {
                source: s2,
                sink: t2,
                objective: Objective::Maximize,
                costs: None,
            },
        ];
        (g, c)
    }

    #[test]
    fn joint_capacity_limits_total() {
        let (g, c) = shared_bottleneck();
        let sol = max_flow(&g, &c).unwrap();
        assert!(
            (sol.objective - 1.0).abs() < 1e-6,
            "total {}",
            sol.objective
        );
        assert!((sol.values[0] + sol.values[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn disjoint_commodities_both_saturate() {
        let mut g = FlowNetworkBuilder::new();
        let s1 = g.add_node("s1");
        let t1 = g.add_node("t1");
        let s2 = g.add_node("s2");
        let t2 = g.add_node("t2");
        g.add_arc(s1, t1, 2, 0);
        g.add_arc(s2, t2, 3, 0);
        let g = g.build();
        let c = vec![
            Commodity {
                source: s1,
                sink: t1,
                objective: Objective::Maximize,
                costs: None,
            },
            Commodity {
                source: s2,
                sink: t2,
                objective: Objective::Maximize,
                costs: None,
            },
        ];
        let sol = max_flow(&g, &c).unwrap();
        assert!((sol.values[0] - 2.0).abs() < 1e-6);
        assert!((sol.values[1] - 3.0).abs() < 1e-6);
        assert!(sol.integral);
    }

    #[test]
    fn min_cost_respects_demands_and_costs() {
        let mut g = FlowNetworkBuilder::new();
        let s = g.add_node("s");
        let a = g.add_node("a");
        let b = g.add_node("b");
        let t = g.add_node("t");
        g.add_arc(s, a, 2, 1);
        g.add_arc(s, b, 2, 4);
        g.add_arc(a, t, 2, 0);
        g.add_arc(b, t, 2, 0);
        let g = g.build();
        let c = vec![Commodity {
            source: s,
            sink: t,
            objective: Objective::FixedDemand(3),
            costs: None,
        }];
        let sol = min_cost(&g, &c).unwrap();
        assert!((sol.values[0] - 3.0).abs() < 1e-6);
        // 2 units at cost 1, 1 unit at cost 4.
        assert!((sol.objective - 6.0).abs() < 1e-6);
    }

    #[test]
    fn min_cost_infeasible_demand_errors() {
        let mut g = FlowNetworkBuilder::new();
        let s = g.add_node("s");
        let t = g.add_node("t");
        g.add_arc(s, t, 1, 1);
        let g = g.build();
        let c = vec![Commodity {
            source: s,
            sink: t,
            objective: Objective::FixedDemand(5),
            costs: None,
        }];
        assert!(min_cost(&g, &c).is_err());
    }

    #[test]
    fn min_cost_rejects_maximize_commodities_with_typed_error() {
        let mut g = FlowNetworkBuilder::new();
        let s = g.add_node("s");
        let t = g.add_node("t");
        g.add_arc(s, t, 1, 1);
        let g = g.build();
        let c = vec![
            Commodity {
                source: s,
                sink: t,
                objective: Objective::FixedDemand(1),
                costs: None,
            },
            Commodity {
                source: s,
                sink: t,
                objective: Objective::Maximize,
                costs: None,
            },
        ];
        assert_eq!(
            min_cost(&g, &c).unwrap_err(),
            MultiCommodityError::NonFixedDemand { commodity: 1 }
        );
    }

    #[test]
    fn per_commodity_cost_overrides() {
        // One arc, two commodities with different costs for it; the cheap
        // commodity should carry the demand... both have demand 0 and 1.
        let mut g = FlowNetworkBuilder::new();
        let s = g.add_node("s");
        let t = g.add_node("t");
        g.add_arc(s, t, 2, 7);
        let g = g.build();
        let c = vec![
            Commodity {
                source: s,
                sink: t,
                objective: Objective::FixedDemand(1),
                costs: Some(vec![2]),
            },
            Commodity {
                source: s,
                sink: t,
                objective: Objective::FixedDemand(1),
                costs: Some(vec![5]),
            },
        ];
        let sol = min_cost(&g, &c).unwrap();
        assert!((sol.objective - 7.0).abs() < 1e-6);
        assert!(sol.integral);
    }

    #[test]
    fn int_flow_rounds_vertex_solution() {
        let mut g = FlowNetworkBuilder::new();
        let s = g.add_node("s");
        let t = g.add_node("t");
        let a = g.add_arc(s, t, 2, 0);
        let g = g.build();
        let c = vec![Commodity {
            source: s,
            sink: t,
            objective: Objective::Maximize,
            costs: None,
        }];
        let sol = max_flow(&g, &c).unwrap();
        assert!(sol.integral);
        assert_eq!(sol.int_flow(0, a), 2);
    }
}
