//! The paper's MRSIN → flow-network transformations (Section III).
//!
//! * [`homogeneous`] — **Transformation 1**: requesting processors hang off
//!   a source, free resources feed a sink, every *free* network link becomes
//!   a unit-capacity arc. Theorem 2: resources allocated by an optimal
//!   mapping = maximum integral flow.
//! * [`priority`] — **Transformation 2**: adds costs encoding priorities and
//!   preferences plus a bypass node absorbing unallocatable requests.
//!   Theorem 3: the minimum-cost flow of value `F₀ = |requests|` yields the
//!   optimal priority-respecting mapping.
//! * [`hetero`] — Section III-D: one (source, sink, bypass) triple per
//!   resource type over a shared arc set; the multicommodity LP of
//!   `rsin_flow::multicommodity` optimizes all types jointly.
//!
//! All transformations share [`Transformed`], which records the
//! correspondence between flow arcs and network links so that an optimal
//! flow can be mapped back to circuits (see [`crate::mapping`]).

pub mod hetero;
pub mod homogeneous;
pub mod priority;
pub mod reusable;

use rsin_flow::{ArcId, FlowNetwork, FlowNetworkBuilder, NodeId};
use rsin_topology::{LinkId, Network, NodeRef};

/// A flow network derived from an MRSIN snapshot, with the bookkeeping
/// needed to translate flows back into circuits.
#[derive(Debug, Clone)]
pub struct Transformed {
    /// The flow network (`G(V, E, s, t, c)` of the paper, plus costs for
    /// Transformation 2).
    pub flow: FlowNetwork,
    /// Source node `s`.
    pub source: NodeId,
    /// Sink node `t`.
    pub sink: NodeId,
    /// For each network link (by `LinkId` index): the corresponding arc,
    /// or `None` when the link was occupied/omitted.
    pub link_arc: Vec<Option<ArcId>>,
    /// For each forward arc (by `ArcId.0 / 2`): the network link it mirrors
    /// (`None` for source/sink/bypass arcs).
    pub arc_link: Vec<Option<LinkId>>,
    /// `(processor, s→p arc)` per requesting processor, in ascending arc
    /// order (every transformation pushes them as it creates the arcs).
    pub request_arcs: Vec<(usize, ArcId)>,
    /// `(resource, r→t arc)` per free resource, in ascending arc order.
    pub resource_arcs: Vec<(usize, ArcId)>,
    /// The bypass node `u` (Transformation 2 only).
    pub bypass: Option<NodeId>,
}

impl Transformed {
    /// Network link corresponding to a flow arc, if any.
    pub fn link_of_arc(&self, a: ArcId) -> Option<LinkId> {
        self.arc_link.get(a.index() / 2).copied().flatten()
    }

    /// Processor whose request arc is `a`, if `a` is one (binary search
    /// over the ascending `request_arcs`).
    pub fn processor_of_arc(&self, a: ArcId) -> Option<usize> {
        owner_of_arc(&self.request_arcs, a)
    }

    /// Resource whose sink arc is `a`, if `a` is one (binary search over
    /// the ascending `resource_arcs`).
    pub fn resource_of_arc(&self, a: ArcId) -> Option<usize> {
        owner_of_arc(&self.resource_arcs, a)
    }

    /// `(processor, resource)` of a path whose first arc is a request arc
    /// and whose last arc is a sink arc.
    pub(crate) fn path_ends(&self, first: ArcId, last: ArcId) -> Option<(usize, usize)> {
        Some((self.processor_of_arc(first)?, self.resource_of_arc(last)?))
    }
}

/// The element owning arc `a` in an `(element, arc)` table sorted by arc.
fn owner_of_arc(table: &[(usize, ArcId)], a: ArcId) -> Option<usize> {
    table
        .binary_search_by_key(&a, |&(_, arc)| arc)
        .ok()
        .map(|i| table[i].0)
}

/// Shared sub-builder: create flow nodes for boxes and requested/free
/// boundary nodes, then mirror every **free** link of the MRSIN as a
/// unit-capacity arc (step T2/T3's `B` arc set). Returns per-element node
/// tables.
pub(crate) struct NetworkImage {
    pub proc_node: Vec<Option<NodeId>>,
    pub res_node: Vec<Option<NodeId>>,
    #[allow(dead_code)]
    pub box_node: Vec<NodeId>,
    pub link_arc: Vec<Option<ArcId>>,
    pub arc_link: Vec<Option<LinkId>>,
}

pub(crate) fn mirror_network(
    flow: &mut FlowNetworkBuilder,
    net: &Network,
    link_free: impl Fn(LinkId) -> bool,
    requesting: &[usize],
    free_resources: &[usize],
) -> NetworkImage {
    let mut proc_node = vec![None; net.num_processors()];
    for &p in requesting {
        proc_node[p] = Some(flow.add_node(format!("p{}", p + 1)));
    }
    let box_node: Vec<NodeId> = (0..net.num_boxes())
        .map(|b| flow.add_node(format!("sb{b}")))
        .collect();
    let mut res_node = vec![None; net.num_resources()];
    for &r in free_resources {
        res_node[r] = Some(flow.add_node(format!("r{}", r + 1)));
    }
    let mut link_arc = vec![None; net.num_links()];
    let mut arc_link: Vec<Option<LinkId>> = Vec::new();
    // Existing arcs (from earlier nodes) keep arc_link aligned by index.
    arc_link.resize(flow.num_arcs(), None);
    for (lid, link) in net.links() {
        if !link_free(lid) {
            continue;
        }
        let from = match link.src {
            NodeRef::Processor(p) => proc_node[p],
            NodeRef::Box(b) => Some(box_node[b]),
            NodeRef::Resource(_) => None,
        };
        let to = match link.dst {
            NodeRef::Box(b) => Some(box_node[b]),
            NodeRef::Resource(r) => res_node[r],
            NodeRef::Processor(_) => None,
        };
        if let (Some(from), Some(to)) = (from, to) {
            let a = flow.add_arc(from, to, 1, 0);
            link_arc[lid.index()] = Some(a);
            arc_link.push(Some(lid));
            debug_assert_eq!(arc_link.len() - 1, a.index() / 2);
        }
    }
    NetworkImage {
        proc_node,
        res_node,
        box_node,
        link_arc,
        arc_link,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ScheduleProblem;
    use crate::transform::reusable::ReusableTransform;
    use rsin_topology::builders::{
        baseline, crossbar, generalized_cube, omega, omega_3dp, omega_extra_stage,
    };
    use rsin_topology::{CircuitState, GlobalTopology, ShardedNetwork, ShardedSpec};

    /// Which transformation graphs [`FlowNetwork::grading`] grades, on the
    /// all-free snapshot with every processor requesting and every resource
    /// free. Transformation 1 of a multistage network is graded by its
    /// stages, in the fresh graph and in the reusable superset alike. The
    /// flattened sharded network is not: its splitters' local and uplink
    /// legs cross different numbers of boxes. Nor is Transformation 2: its
    /// bypass legs reach `t` in two arcs from a processor.
    #[test]
    fn which_transformations_are_graded() {
        let sharded = ShardedNetwork::new(ShardedSpec::new(8, 16, GlobalTopology::Omega)).unwrap();
        let cases = [
            (omega(16).unwrap(), true),
            (generalized_cube(16).unwrap(), true),
            (baseline(16).unwrap(), true),
            (omega_extra_stage(16, 1).unwrap(), true),
            (omega_3dp(16).unwrap(), true),
            (crossbar(16, 8).unwrap(), true),
            (sharded.flatten().unwrap(), false),
        ];
        for (net, graded) in &cases {
            let cs = CircuitState::new(net);
            let procs: Vec<usize> = (0..net.num_processors()).collect();
            let res: Vec<usize> = (0..net.num_resources()).collect();
            let problem = ScheduleProblem::homogeneous(&cs, &procs, &res);
            let name = net.name();
            let fresh = homogeneous::transform(&problem);
            assert_eq!(fresh.flow.grading().is_some(), *graded, "{name} fresh");
            let mut reusable = ReusableTransform::new();
            let superset = &reusable.configure_max_flow(&problem).flow;
            assert_eq!(superset.grading().is_some(), *graded, "{name} superset");
            let (priced, _) = priority::transform(&problem);
            assert!(priced.flow.grading().is_none(), "{name} priced");
            let (superset, _) = reusable.configure_min_cost(&problem);
            assert!(superset.flow.grading().is_none(), "{name} priced superset");
        }
    }

    #[test]
    fn mirror_counts_free_links_only() {
        let net = omega(8).unwrap();
        let mut flow = FlowNetworkBuilder::new();
        let all_procs: Vec<usize> = (0..8).collect();
        let all_res: Vec<usize> = (0..8).collect();
        let img = mirror_network(&mut flow, &net, |_| true, &all_procs, &all_res);
        assert_eq!(flow.num_arcs(), net.num_links());
        assert!(img.link_arc.iter().all(|a| a.is_some()));

        let mut flow2 = FlowNetworkBuilder::new();
        let img2 = mirror_network(&mut flow2, &net, |l| l.0 != 0, &all_procs, &all_res);
        assert_eq!(flow2.num_arcs(), net.num_links() - 1);
        assert!(img2.link_arc[0].is_none());
    }

    #[test]
    fn mirror_skips_unrequesting_processors() {
        let net = omega(8).unwrap();
        let mut flow = FlowNetworkBuilder::new();
        let img = mirror_network(&mut flow, &net, |_| true, &[0], &[0]);
        assert!(img.proc_node[0].is_some());
        assert!(img.proc_node[1].is_none());
        // Links from non-requesting processors are not mirrored.
        let expected_missing = 7 /* procs */ + 7 /* resources */;
        assert_eq!(flow.num_arcs(), net.num_links() - expected_missing);
    }

    #[test]
    fn arc_link_roundtrip() {
        let net = omega(8).unwrap();
        let mut flow = FlowNetworkBuilder::new();
        let img = mirror_network(&mut flow, &net, |_| true, &[0, 1], &[2, 3]);
        for (lid, _) in net.links() {
            if let Some(arc) = img.link_arc[lid.index()] {
                assert_eq!(img.arc_link[arc.index() / 2], Some(lid));
            }
        }
    }
}
