//! Heterogeneous MRSIN → multicommodity flow (Section III-D).
//!
//! "A heterogeneous MRSIN consists of multiple types of resources … Such an
//! MRSIN is equivalent to a flow network carrying different types of
//! commodities." Each resource type `i` gets its own source `sᵢ` (feeding
//! the processors requesting type `i`), sink `tᵢ` (fed by the free
//! resources of type `i`), and — in the priority variant — bypass node
//! `uᵢ`. All commodities share the network arcs subject to the joint
//! capacity limitation; the LP formulations of
//! [`rsin_flow::multicommodity`] optimize them simultaneously.

use super::{mirror_network, NetworkImage};
use crate::model::ScheduleProblem;
use rsin_flow::multicommodity::{Commodity, Objective};
use rsin_flow::{ArcId, Flow, FlowNetwork, FlowNetworkBuilder, NodeId};
use rsin_topology::LinkId;

/// A flow network with one commodity per resource type.
#[derive(Debug, Clone)]
pub struct HeteroTransformed {
    /// The shared flow network.
    pub flow: FlowNetwork,
    /// Distinct resource types, index-aligned with `commodities`.
    pub types: Vec<usize>,
    /// One commodity spec per type, ready for the multicommodity solvers.
    pub commodities: Vec<Commodity>,
    /// `(processor, type, s_i→p arc)` per request.
    pub request_arcs: Vec<(usize, usize, ArcId)>,
    /// `(resource, type, r→t_i arc)` per free resource.
    pub resource_arcs: Vec<(usize, usize, ArcId)>,
    /// For each forward arc index: the mirrored network link, if any.
    pub arc_link: Vec<Option<LinkId>>,
    /// Bypass node per type (priority variant only).
    pub bypass: Vec<Option<NodeId>>,
}

fn build(problem: &ScheduleProblem, with_priorities: bool) -> HeteroTransformed {
    let net = problem.circuits.network();
    let types = problem.resource_types();
    let mut flow = FlowNetworkBuilder::new();
    // Per-type boundary nodes first.
    let sources: Vec<NodeId> = types
        .iter()
        .map(|ty| flow.add_node(format!("s{ty}")))
        .collect();
    let sinks: Vec<NodeId> = types
        .iter()
        .map(|ty| flow.add_node(format!("t{ty}")))
        .collect();
    let bypass: Vec<Option<NodeId>> = types
        .iter()
        .map(|ty| with_priorities.then(|| flow.add_node(format!("u{ty}"))))
        .collect();
    let requesting: Vec<usize> = problem.requests.iter().map(|r| r.processor).collect();
    let free: Vec<usize> = problem.free.iter().map(|f| f.resource).collect();
    let NetworkImage {
        proc_node,
        res_node,
        arc_link: mut arc_link_vec,
        ..
    } = mirror_network(
        &mut flow,
        net,
        |l| problem.circuits.is_free(l),
        &requesting,
        &free,
    );
    let gamma_max = problem.max_priority() as i64;
    let q_max = problem.max_preference() as i64;
    let bypass_cost = (gamma_max + 1).max(q_max + 1);
    let type_index = |ty: usize| types.iter().position(|&t| t == ty).unwrap();

    let mut request_arcs = Vec::new();
    for req in &problem.requests {
        let ti = type_index(req.resource_type);
        let p_node = proc_node[req.processor].unwrap();
        let cost = if with_priorities {
            gamma_max - req.priority as i64
        } else {
            0
        };
        let a = flow.add_arc(sources[ti], p_node, 1, cost);
        arc_link_vec.push(None);
        request_arcs.push((req.processor, req.resource_type, a));
        if let Some(u) = bypass[ti] {
            // Priority surcharge on the bypass leg, as in the homogeneous
            // Transformation 2 (see `transform::priority` module docs).
            flow.add_arc(p_node, u, 1, bypass_cost + req.priority as i64);
            arc_link_vec.push(None);
        }
    }
    let mut resource_arcs = Vec::new();
    for res in &problem.free {
        let ti = type_index(res.resource_type);
        let r_node = res_node[res.resource].unwrap();
        let cost = if with_priorities {
            q_max - res.preference as i64
        } else {
            0
        };
        let a = flow.add_arc(r_node, sinks[ti], 1, cost);
        arc_link_vec.push(None);
        resource_arcs.push((res.resource, res.resource_type, a));
    }
    let mut commodities = Vec::with_capacity(types.len());
    for (ti, &ty) in types.iter().enumerate() {
        let demand = problem
            .requests
            .iter()
            .filter(|r| r.resource_type == ty)
            .count() as Flow;
        if let Some(u) = bypass[ti] {
            flow.add_arc(u, sinks[ti], demand.max(1), bypass_cost);
            arc_link_vec.push(None);
        }
        commodities.push(Commodity {
            source: sources[ti],
            sink: sinks[ti],
            objective: if with_priorities {
                Objective::FixedDemand(demand)
            } else {
                Objective::Maximize
            },
            costs: None,
        });
    }
    HeteroTransformed {
        flow: flow.build(),
        types,
        commodities,
        request_arcs,
        resource_arcs,
        arc_link: arc_link_vec,
        bypass,
    }
}

/// Multicommodity *maximum flow* transformation (equal priorities): one
/// Transformation-1-style layer per resource type, superposed.
pub fn transform_max(problem: &ScheduleProblem) -> HeteroTransformed {
    build(problem, false)
}

/// Multicommodity *minimum cost* transformation (priorities/preferences):
/// one Transformation-2-style layer (with bypass) per resource type.
pub fn transform_min_cost(problem: &ScheduleProblem) -> HeteroTransformed {
    build(problem, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FreeResource, ScheduleRequest};
    use rsin_flow::multicommodity;
    use rsin_topology::builders::omega;
    use rsin_topology::CircuitState;

    fn two_type_problem<'a, 'n>(cs: &'a CircuitState<'n>) -> ScheduleProblem<'a, 'n> {
        ScheduleProblem {
            circuits: cs,
            requests: vec![
                ScheduleRequest {
                    processor: 0,
                    priority: 1,
                    resource_type: 0,
                },
                ScheduleRequest {
                    processor: 2,
                    priority: 1,
                    resource_type: 1,
                },
                ScheduleRequest {
                    processor: 5,
                    priority: 1,
                    resource_type: 0,
                },
            ],
            free: vec![
                FreeResource {
                    resource: 1,
                    preference: 1,
                    resource_type: 0,
                },
                FreeResource {
                    resource: 4,
                    preference: 1,
                    resource_type: 1,
                },
                FreeResource {
                    resource: 6,
                    preference: 1,
                    resource_type: 0,
                },
            ],
        }
    }

    #[test]
    fn builds_one_commodity_per_type() {
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let problem = two_type_problem(&cs);
        let t = transform_max(&problem);
        assert_eq!(t.types, vec![0, 1]);
        assert_eq!(t.commodities.len(), 2);
        assert!(t.bypass.iter().all(|b| b.is_none()));
        assert_eq!(t.request_arcs.len(), 3);
        assert_eq!(t.resource_arcs.len(), 3);
    }

    #[test]
    fn max_flow_allocates_all_when_routable() {
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let problem = two_type_problem(&cs);
        let t = transform_max(&problem);
        let sol = multicommodity::max_flow(&t.flow, &t.commodities).unwrap();
        let total: f64 = sol.values.iter().sum();
        assert!((total - 3.0).abs() < 1e-6, "total {total}");
    }

    #[test]
    fn commodity_respects_its_own_type() {
        // Type-1 commodity must not absorb type-0 resources: with only a
        // type-1 resource free, type-0 requests stay unallocated.
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let problem = ScheduleProblem {
            circuits: &cs,
            requests: vec![
                ScheduleRequest {
                    processor: 0,
                    priority: 1,
                    resource_type: 0,
                },
                ScheduleRequest {
                    processor: 1,
                    priority: 1,
                    resource_type: 1,
                },
            ],
            free: vec![FreeResource {
                resource: 3,
                preference: 1,
                resource_type: 1,
            }],
        };
        let t = transform_max(&problem);
        let sol = multicommodity::max_flow(&t.flow, &t.commodities).unwrap();
        let total: f64 = sol.values.iter().sum();
        assert!((total - 1.0).abs() < 1e-6);
        // The allocation is the type-1 commodity's.
        let ti1 = t.types.iter().position(|&t| t == 1).unwrap();
        assert!((sol.values[ti1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn min_cost_variant_has_bypass_and_demands() {
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let problem = two_type_problem(&cs);
        let t = transform_min_cost(&problem);
        assert!(t.bypass.iter().all(|b| b.is_some()));
        let demands: Vec<_> = t
            .commodities
            .iter()
            .map(|c| match c.objective {
                Objective::FixedDemand(d) => d,
                _ => panic!("expected fixed demand"),
            })
            .collect();
        assert_eq!(demands, vec![2, 1]);
        let sol = multicommodity::min_cost(&t.flow, &t.commodities).unwrap();
        let total: f64 = sol.values.iter().sum();
        assert!(
            (total - 3.0).abs() < 1e-6,
            "demands are met (possibly via bypass)"
        );
    }

    #[test]
    fn hetero_priorities_pick_the_urgent_request() {
        // Two type-0 requests contend for one type-0 resource; the
        // priority-9 request must win under the min-cost formulation
        // (the bypass surcharge makes bypassing it dearest).
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let problem = ScheduleProblem {
            circuits: &cs,
            requests: vec![
                ScheduleRequest {
                    processor: 0,
                    priority: 2,
                    resource_type: 0,
                },
                ScheduleRequest {
                    processor: 3,
                    priority: 9,
                    resource_type: 0,
                },
            ],
            free: vec![FreeResource {
                resource: 6,
                preference: 1,
                resource_type: 0,
            }],
        };
        let t = transform_min_cost(&problem);
        let sol = multicommodity::min_cost(&t.flow, &t.commodities).unwrap();
        assert!(sol.integral);
        let assignments = crate::mapping::extract_hetero(&t, &sol).unwrap();
        assert_eq!(assignments.len(), 1);
        assert_eq!(assignments[0].processor, 3, "priority 9 beats priority 2");
    }

    #[test]
    fn restricted_topology_solutions_are_integral() {
        // The Evans-Jarvis claim on an Omega-derived instance.
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let problem = two_type_problem(&cs);
        let t = transform_max(&problem);
        let sol = multicommodity::max_flow(&t.flow, &t.commodities).unwrap();
        assert!(sol.integral, "LP vertex should be integral on this MIN");
    }
}
