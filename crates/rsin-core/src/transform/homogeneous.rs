//! Transformation 1 (Section III-B): homogeneous MRSIN → unit-capacity
//! maximum-flow network.
//!
//! Steps T1–T4 of the paper: node sets `P`, `X`, `R` plus source `s` and
//! sink `t`; arcs `S = {(s,p)}` for requesting processors, `T = {(r,t)}`
//! for free resources, and `B` mirroring every free network link; all
//! capacities are 1; zero-capacity (occupied) arcs are simply never created.
//! Theorem 2 then says the number of resources allocated by an optimal
//! mapping equals the maximum integral `s→t` flow.

use super::{mirror_network, Transformed};
use crate::model::ScheduleProblem;
use rsin_flow::FlowNetworkBuilder;

/// Apply Transformation 1 to a homogeneous scheduling snapshot.
///
/// Priorities/preferences in `problem` are ignored (use
/// [`priority::transform`](crate::transform::priority::transform) to honour
/// them).
pub fn transform(problem: &ScheduleProblem) -> Transformed {
    let net = problem.circuits.network();
    let mut flow = FlowNetworkBuilder::with_capacity(
        net.num_boxes() + problem.requests.len() + problem.free.len() + 2,
        net.num_links() + problem.requests.len() + problem.free.len(),
    );
    let source = flow.add_node("s");
    let sink = flow.add_node("t");
    let requesting: Vec<usize> = problem.requests.iter().map(|r| r.processor).collect();
    let free: Vec<usize> = problem.free.iter().map(|f| f.resource).collect();
    let mut img = mirror_network(
        &mut flow,
        net,
        |l| problem.circuits.is_free(l),
        &requesting,
        &free,
    );
    let mut request_arcs = Vec::with_capacity(requesting.len());
    for &p in &requesting {
        let a = flow.add_arc(source, img.proc_node[p].unwrap(), 1, 0);
        img.arc_link.push(None);
        request_arcs.push((p, a));
    }
    let mut resource_arcs = Vec::with_capacity(free.len());
    for &r in &free {
        let a = flow.add_arc(img.res_node[r].unwrap(), sink, 1, 0);
        img.arc_link.push(None);
        resource_arcs.push((r, a));
    }
    Transformed {
        flow: flow.build(),
        source,
        sink,
        link_arc: img.link_arc,
        arc_link: img.arc_link,
        request_arcs,
        resource_arcs,
        bypass: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsin_flow::cut::verify_max_flow;
    use rsin_flow::max_flow::{solve, Algorithm};
    use rsin_topology::builders::omega;
    use rsin_topology::CircuitState;

    #[test]
    fn free_omega_allows_full_allocation() {
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let all: Vec<usize> = (0..8).collect();
        let problem = ScheduleProblem::homogeneous(&cs, &all, &all);
        let mut t = transform(&problem);
        let r = solve(&mut t.flow, t.source, t.sink, Algorithm::Dinic);
        assert_eq!(r.value, 8, "identity permutation is routable in Omega");
        verify_max_flow(&t.flow, t.source, t.sink).unwrap();
    }

    #[test]
    fn fig2_instance_allocates_all_five() {
        // Paper Fig. 2: p2->r6 and p4->r4 occupied; p1,p3,p5,p7,p8 request;
        // r1,r3,r5,r7,r8 free. The maximum flow allocates all 5.
        let net = omega(8).unwrap();
        let mut cs = CircuitState::new(&net);
        cs.connect(1, 5).unwrap();
        cs.connect(3, 3).unwrap();
        let problem = ScheduleProblem::homogeneous(&cs, &[0, 2, 4, 6, 7], &[0, 2, 4, 6, 7]);
        let mut t = transform(&problem);
        let r = solve(&mut t.flow, t.source, t.sink, Algorithm::Dinic);
        assert_eq!(r.value, 5);
    }

    #[test]
    fn occupied_links_absent_from_flow_network() {
        let net = omega(8).unwrap();
        let mut cs = CircuitState::new(&net);
        cs.connect(0, 0).unwrap();
        let problem = ScheduleProblem::homogeneous(&cs, &[1], &[1]);
        let t = transform(&problem);
        for l in cs.occupied_links() {
            assert!(t.link_arc[l.index()].is_none());
        }
    }

    #[test]
    fn no_requests_gives_zero_flow() {
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let problem = ScheduleProblem::homogeneous(&cs, &[], &[0, 1]);
        let mut t = transform(&problem);
        let r = solve(&mut t.flow, t.source, t.sink, Algorithm::Dinic);
        assert_eq!(r.value, 0);
    }

    #[test]
    fn flow_bounded_by_min_of_requests_and_resources() {
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let problem = ScheduleProblem::homogeneous(&cs, &[0, 1, 2, 3, 4], &[6, 7]);
        let mut t = transform(&problem);
        let r = solve(&mut t.flow, t.source, t.sink, Algorithm::EdmondsKarp);
        assert_eq!(r.value, 2);
    }
}
