//! Transformation 2 (Section III-C): priorities/preferences → minimum-cost
//! flow with a bypass node.
//!
//! Exactly the paper's steps T1–T6:
//!
//! * a bypass node `u` with arcs `(p, u)` from every requesting processor
//!   and `(u, t)` to the sink, so that the required circulation
//!   `F₀ = |requests|` is always feasible (a request routed through `u`
//!   is simply *not allocated*);
//! * cost function (T4): `w = 0` on network arcs, `γ_max − γ_p` on `(s,p)`,
//!   `q_max − q_w` on `(r,t)`, and `max(γ_max+1, q_max+1)` on the bypass
//!   arcs — strictly dearer than any real allocation path, which is what
//!   makes Theorem 3's argument go through (minimum cost ⇒ maximum number
//!   of real allocations, ties broken toward high priority / preference).
//!
//! One refinement over the literal T4 is required to realize the paper's
//! stated objective that "requests of higher priority are to be allocated":
//! because the circulation `F₀` saturates *every* `(s,p)` arc (each request
//! flows somewhere — a resource or the bypass), the `γ_max − γ_p` costs on
//! `S` sum to a constant and cannot influence *which* requests are
//! bypassed. The paper explicitly allows "any cost function that is
//! inversely related to priorities and preferences"; we therefore charge
//! the per-request bypass leg `(p,u)` an additional `γ_p`, making the
//! bypassing of urgent requests strictly dearer. With this, every
//! minimum-cost flow bypasses the lowest-priority requests and selects the
//! highest-preference resources, and both min-cost algorithms agree
//! with exhaustive search on the assignment cost (a property the
//! integration tests pin down).

use super::{mirror_network, Transformed};
use crate::model::ScheduleProblem;
use rsin_flow::{Flow, FlowNetworkBuilder};

/// Apply Transformation 2 to a homogeneous snapshot with priorities.
///
/// Returns the transformed network plus `F₀`, the amount of flow to
/// circulate (= number of requests).
pub fn transform(problem: &ScheduleProblem) -> (Transformed, Flow) {
    let net = problem.circuits.network();
    let mut flow = FlowNetworkBuilder::with_capacity(
        net.num_boxes() + problem.requests.len() + problem.free.len() + 3,
        net.num_links() + 2 * problem.requests.len() + problem.free.len() + 1,
    );
    let source = flow.add_node("s");
    let sink = flow.add_node("t");
    let bypass = flow.add_node("u");
    let requesting: Vec<usize> = problem.requests.iter().map(|r| r.processor).collect();
    let free: Vec<usize> = problem.free.iter().map(|f| f.resource).collect();
    let mut img = mirror_network(
        &mut flow,
        net,
        |l| problem.circuits.is_free(l),
        &requesting,
        &free,
    );
    let gamma_max = problem.max_priority() as i64;
    let q_max = problem.max_preference() as i64;
    let bypass_cost = (gamma_max + 1).max(q_max + 1);

    let mut request_arcs = Vec::with_capacity(requesting.len());
    for req in &problem.requests {
        let p_node = img.proc_node[req.processor].unwrap();
        let a = flow.add_arc(source, p_node, 1, gamma_max - req.priority as i64);
        img.arc_link.push(None);
        request_arcs.push((req.processor, a));
        // (p, u) bypass leg: base cost plus the request's priority, so
        // bypassing urgent requests is strictly dearer (see module docs).
        flow.add_arc(p_node, bypass, 1, bypass_cost + req.priority as i64);
        img.arc_link.push(None);
    }
    let mut resource_arcs = Vec::with_capacity(free.len());
    for res in &problem.free {
        let r_node = img.res_node[res.resource].unwrap();
        let a = flow.add_arc(r_node, sink, 1, q_max - res.preference as i64);
        img.arc_link.push(None);
        resource_arcs.push((res.resource, a));
    }
    // (u, t) leg carries every unallocated request.
    flow.add_arc(bypass, sink, problem.requests.len() as Flow, bypass_cost);
    img.arc_link.push(None);

    (
        Transformed {
            flow: flow.build(),
            source,
            sink,
            link_arc: img.link_arc,
            arc_link: img.arc_link,
            request_arcs,
            resource_arcs,
            bypass: Some(bypass),
        },
        problem.requests.len() as Flow,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsin_flow::min_cost::{self, Algorithm};
    use rsin_topology::builders::omega;
    use rsin_topology::CircuitState;

    #[test]
    fn bypass_guarantees_feasibility() {
        // More requests than resources: the extra requests route via u.
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let problem = ScheduleProblem::with_priorities(&cs, &[(0, 5), (1, 3), (2, 1)], &[(0, 2)]);
        let (mut t, f0) = transform(&problem);
        assert_eq!(f0, 3);
        let r = min_cost::solve(
            &mut t.flow,
            t.source,
            t.sink,
            f0,
            Algorithm::SuccessiveShortestPaths,
        );
        assert_eq!(r.flow, 3, "bypass absorbs the two unallocatable requests");
    }

    #[test]
    fn min_cost_allocates_maximum_cardinality() {
        // Theorem 3: despite costs, the number of real allocations equals
        // the max flow of the Transformation-1 network.
        let net = omega(8).unwrap();
        let mut cs = CircuitState::new(&net);
        cs.connect(1, 5).unwrap();
        cs.connect(3, 3).unwrap();
        let problem = ScheduleProblem::with_priorities(
            &cs,
            &[(0, 1), (2, 9), (4, 5), (6, 3), (7, 7)],
            &[(0, 2), (2, 8), (4, 4), (6, 6), (7, 1)],
        );
        let (mut t, f0) = transform(&problem);
        let r = min_cost::solve(&mut t.flow, t.source, t.sink, f0, Algorithm::OutOfKilter);
        assert_eq!(r.flow, 5);
        // Count real (non-bypass) allocations = flow entering the sink from
        // resource arcs.
        let real: i64 = t
            .resource_arcs
            .iter()
            .map(|&(_, a)| t.flow.arc(a).flow)
            .sum();
        assert_eq!(real, 5, "all five requests allocated to real resources");
    }

    #[test]
    fn high_priority_request_wins_contention() {
        // Two requests, one resource: the higher-priority request gets it.
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let problem = ScheduleProblem::with_priorities(&cs, &[(0, 9), (1, 2)], &[(3, 1)]);
        let (mut t, f0) = transform(&problem);
        min_cost::solve(
            &mut t.flow,
            t.source,
            t.sink,
            f0,
            Algorithm::SuccessiveShortestPaths,
        );
        // s->p1 arc (priority 9, cost gamma_max-9=0) must carry flow.
        let (_, a_p1) = t.request_arcs.iter().find(|(p, _)| *p == 0).unwrap();
        let (_, a_p2) = t.request_arcs.iter().find(|(p, _)| *p == 1).unwrap();
        assert_eq!(t.flow.arc(*a_p1).flow, 1);
        // p2's request also carries one unit — through the bypass.
        assert_eq!(t.flow.arc(*a_p2).flow, 1);
        let real: i64 = t
            .resource_arcs
            .iter()
            .map(|&(_, a)| t.flow.arc(a).flow)
            .sum();
        assert_eq!(real, 1);
    }

    #[test]
    fn every_algorithm_bypasses_the_lowest_priority() {
        // The refinement's pinning test: with 3 requests and 2 resources,
        // the bypassed request must be the priority-1 one under *all*
        // min-cost algorithms (not just the ones whose path order happens
        // to prefer it).
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let problem =
            ScheduleProblem::with_priorities(&cs, &[(0, 9), (3, 1), (5, 6)], &[(1, 5), (6, 5)]);
        for algo in Algorithm::ALL {
            let (mut t, f0) = transform(&problem);
            min_cost::solve(&mut t.flow, t.source, t.sink, f0, algo);
            let (_, a_low) = t.request_arcs.iter().find(|(p, _)| *p == 3).unwrap();
            // p4 (priority 1) flows, but only via the bypass: its network
            // links carry nothing. Check by summing real resource arrivals.
            assert_eq!(t.flow.arc(*a_low).flow, 1, "{algo:?}");
            let real: i64 = t
                .resource_arcs
                .iter()
                .map(|&(_, a)| t.flow.arc(a).flow)
                .sum();
            assert_eq!(real, 2, "{algo:?}: both resources allocated");
            // The bypass node absorbed exactly one unit - from p4.
            let u = t.bypass.unwrap();
            let bypass_in: i64 = t
                .flow
                .forward_arcs()
                .filter(|(_, arc)| arc.to == u)
                .map(|(_, arc)| arc.flow)
                .sum();
            assert_eq!(bypass_in, 1, "{algo:?}");
            let p4_bypass = t
                .flow
                .forward_arcs()
                .find(|(_, arc)| arc.to == u && t.flow.name(arc.from) == "p4")
                .map(|(_, arc)| arc.flow)
                .unwrap();
            assert_eq!(
                p4_bypass, 1,
                "{algo:?}: the priority-1 request is the bypassed one"
            );
        }
    }

    #[test]
    fn high_preference_resource_chosen() {
        // One request, two resources: the preferred one is selected.
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let problem = ScheduleProblem::with_priorities(&cs, &[(0, 1)], &[(2, 1), (5, 10)]);
        let (mut t, f0) = transform(&problem);
        min_cost::solve(
            &mut t.flow,
            t.source,
            t.sink,
            f0,
            Algorithm::SuccessiveShortestPaths,
        );
        let (_, a_r6) = t.resource_arcs.iter().find(|(r, _)| *r == 5).unwrap();
        assert_eq!(
            t.flow.arc(*a_r6).flow,
            1,
            "preference 10 beats preference 1"
        );
    }

    #[test]
    fn bypass_cost_exceeds_any_real_path() {
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let problem = ScheduleProblem::with_priorities(&cs, &[(0, 1), (1, 10)], &[(0, 1), (1, 10)]);
        let (t, _) = transform(&problem);
        // Max real path cost = (gamma_max - 1) + (q_max - 1) = 18.
        // Bypass path costs 2 * max(11, 11) = 22 plus the s->p leg.
        let bypass_arc_cost =
            (problem.max_priority() as i64 + 1).max(problem.max_preference() as i64 + 1);
        assert!(2 * bypass_arc_cost > 18);
        assert!(t.bypass.is_some());
    }
}
