//! Arena flow-network representation with paired residual arcs.
//!
//! Arcs are stored in forward/reverse pairs: the arc added by
//! [`FlowNetworkBuilder::add_arc`] gets an even id and its residual twin the
//! following odd id, so `id ^ 1` is always the companion. Pushing `d` units
//! over an arc adds `d` to its flow and subtracts `d` from its twin's flow,
//! which keeps residual capacities consistent without special cases — the
//! same "advance flow forward or cancel flow backward" rule the paper's
//! augmenting paths use (Section III-B, Fig. 3).
//!
//! # Data layout (DESIGN.md §14)
//!
//! A [`FlowNetworkBuilder`] collects nodes and arcs; [`FlowNetworkBuilder::build`]
//! freezes them into a [`FlowNetwork`], whose topology no method can change.
//! Arc attributes live in structs-of-arrays (`head`/`cap`/`cost`, indexed by
//! [`ArcId`]; an arc's tail is its twin's head) and adjacency is a **CSR**
//! (compressed sparse row) layout — `csr_offsets: Vec<u32>` of length
//! `n + 1` into one flat [`HotArc`] lane of `(residual, head, id)` slots —
//! instead of one heap-allocated `Vec<ArcId>` per node. A solver walking a
//! node's out-arcs therefore streams one contiguous array with no per-node
//! pointer chase, and a capacity/flow scan touches 8-byte lanes instead of
//! 40-byte structs.
//!
//! `build` lays the CSR out once with a counting sort (`O(V + E)`). After
//! it, capacity patches ([`FlowNetwork::set_cap`]), cost updates, pushes,
//! and resets write lane entries in place, so a reuse loop (patch caps
//! between solves) never re-derives the layout. Arc ids ascend in insertion
//! order, so the counting sort reproduces exactly the per-node arc order
//! the nested `Vec<Vec<ArcId>>` layout used to produce: traversal order,
//! and with it every solver's `OpStats`, is bit-identical to the old layout.

use crate::{Cost, Flow};
use std::fmt::Write as _;

/// Index of a node in a [`FlowNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Index of a directed arc (even = forward arc created by the user, odd =
/// its residual twin).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArcId(pub u32);

impl ArcId {
    /// Usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The paired residual arc.
    pub fn twin(self) -> ArcId {
        ArcId(self.0 ^ 1)
    }

    /// True for arcs created by `add_arc` (as opposed to residual twins).
    pub fn is_forward(self) -> bool {
        self.0.is_multiple_of(2)
    }
}

/// One directed arc of the network, materialized from the SoA lanes by
/// [`FlowNetwork::arc`]. A plain value: cheap to copy, detached from the
/// network (mutating the network does not update copies already taken).
#[derive(Debug, Clone, Copy)]
pub struct Arc {
    /// Tail node.
    pub from: NodeId,
    /// Head node.
    pub to: NodeId,
    /// Capacity (0 for residual twins until flow is pushed).
    pub cap: Flow,
    /// Current flow (twin carries the negative).
    pub flow: Flow,
    /// Cost per unit of flow (twin carries the negative).
    pub cost: Cost,
}

impl Arc {
    /// Remaining capacity in the residual network.
    pub fn residual(&self) -> Flow {
        self.cap - self.flow
    }
}

/// How many in-order slot writes of the [`FlowNetwork::reset`] sweep one
/// restored arc of [`FlowNetwork::reset_carried`] is worth: two writes
/// through the id permutation plus the permutation reads. Measured break-
/// even on omega-16 and omega-64 transformation graphs (EXPERIMENTS.md,
/// CYCLE-STAGES).
const RESTORE_SLOT_COST: usize = 10;

/// A slot's residual at zero flow: its pair capacity on a forward slot,
/// 0 on a twin's.
#[inline]
fn empty_res(h: &HotArc, pair_cap: Flow) -> Flow {
    if h.id.is_forward() {
        pair_cap
    } else {
        0
    }
}

/// One CSR slot of the hot scan lane: everything a solver inner loop needs
/// to *reject or take* an arc, packed into exactly 16 bytes and laid out in
/// adjacency (CSR) order, so scanning a node's out-arcs is one contiguous
/// forward walk with no random access. The residual stored here is the
/// canonical one — [`FlowNetwork::push`] writes through the `arc_pos`
/// permutation into these slots.
#[derive(Debug, Clone, Copy)]
pub struct HotArc {
    /// Residual capacity (`cap - flow`; for twins, the forward flow).
    pub res: Flow,
    /// Head (target node) of the arc.
    pub head: NodeId,
    /// The arc's [`ArcId`], for parent pointers and write-back.
    pub id: ArcId,
}

/// Collects the nodes and arcs of a [`FlowNetwork`];
/// [`Self::build`] freezes them.
///
/// Node names exist so that networks derived from interconnection networks
/// keep a human-readable correspondence (`"p3"`, `"sb(1,2)"`, `"r5"`, …) for
/// debugging, DOT dumps, and the worked paper examples.
#[derive(Debug, Clone, Default)]
pub struct FlowNetworkBuilder {
    names: Vec<String>,
    /// Arc lanes indexed by [`ArcId`] (even forward, odd twin).
    head: Vec<NodeId>,
    cap: Vec<Flow>,
    cost: Vec<Cost>,
}

impl FlowNetworkBuilder {
    /// Empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-allocating constructor.
    pub fn with_capacity(nodes: usize, arcs: usize) -> Self {
        FlowNetworkBuilder {
            names: Vec::with_capacity(nodes),
            head: Vec::with_capacity(2 * arcs),
            cap: Vec::with_capacity(2 * arcs),
            cost: Vec::with_capacity(2 * arcs),
        }
    }

    /// Add a node with a debug name; returns its id.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.names.len() as u32);
        self.names.push(name.into());
        id
    }

    /// Add a directed arc with capacity `cap` and per-unit cost `cost`.
    /// A zero-capacity residual twin (with cost `-cost`) is added
    /// automatically.
    pub fn add_arc(&mut self, from: NodeId, to: NodeId, cap: Flow, cost: Cost) -> ArcId {
        assert!(cap >= 0, "negative capacity");
        assert!(from.index() < self.names.len() && to.index() < self.names.len());
        let id = ArcId(self.head.len() as u32);
        self.head.extend([to, from]);
        self.cap.extend([cap, 0]);
        self.cost.extend([cost, -cost]);
        id
    }

    /// Number of forward arcs added so far.
    pub fn num_arcs(&self) -> usize {
        self.head.len() / 2
    }

    /// Freeze the network at zero flow. Counting sort over arc tails,
    /// `O(V + E)`; arc ids ascend in insertion order, so each node's slots
    /// list its outgoing arcs in exactly the order `add_arc` created them —
    /// the order the nested `Vec<Vec<ArcId>>` layout exposed.
    pub fn build(self) -> FlowNetwork {
        let FlowNetworkBuilder {
            names,
            head,
            cap,
            cost,
        } = self;
        let n = names.len();
        let m = head.len();
        let tail = |i: usize| head[i ^ 1].index();
        let mut csr_offsets = vec![0u32; n + 1];
        for i in 0..m {
            csr_offsets[tail(i) + 1] += 1;
        }
        for i in 0..n {
            csr_offsets[i + 1] += csr_offsets[i];
        }
        let empty = HotArc {
            res: 0,
            head: NodeId(0),
            id: ArcId(0),
        };
        let mut hot = vec![empty; m];
        let mut cost_csr = vec![0; m];
        let mut pair_cap_csr = vec![0; m];
        let mut arc_pos = vec![0; m];
        let mut cursor = csr_offsets.clone();
        for i in 0..m {
            let c = &mut cursor[tail(i)];
            let slot = *c as usize;
            *c += 1;
            hot[slot] = HotArc {
                res: cap[i],
                head: head[i],
                id: ArcId(i as u32),
            };
            cost_csr[slot] = cost[i];
            pair_cap_csr[slot] = cap[i & !1];
            arc_pos[i] = slot as u32;
        }
        let negative_costs = cost.iter().step_by(2).filter(|&&c| c < 0).count();
        FlowNetwork {
            names,
            head,
            cap,
            cost,
            csr_offsets,
            hot,
            cost_csr,
            pair_cap_csr,
            arc_pos,
            negative_costs,
        }
    }
}

/// A directed flow network with named nodes, built by a
/// [`FlowNetworkBuilder`]. Its nodes and arcs are fixed; flows,
/// capacities, and costs change in place.
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    names: Vec<String>,
    /// Cold SoA arc lanes, indexed by [`ArcId`] (even forward, odd twin).
    head: Vec<NodeId>,
    cap: Vec<Flow>,
    cost: Vec<Cost>,
    /// CSR adjacency: slots `csr_offsets[n] .. csr_offsets[n + 1]` of the
    /// lanes below are the outgoing arcs of node `n`, in insertion order.
    csr_offsets: Vec<u32>,
    /// Hot scan lane in CSR order: `(residual, head, id)` per slot. The
    /// residual here is canonical (flow is derived as `cap - res`); storing
    /// it in adjacency order turns every solver's out-arc scan into a
    /// sequential 16-byte-stride walk.
    hot: Vec<HotArc>,
    /// Arc costs in CSR order, parallel to `hot`, so SSP's Dijkstra scans
    /// zip a second sequential lane instead of random-accessing `cost`.
    cost_csr: Vec<Cost>,
    /// The pair's forward capacity in CSR order, parallel to `hot`: a
    /// forward slot and its twin's slot both carry the forward arc's
    /// capacity. A pair's two residuals sum to it, so the residual of a
    /// slot's *reverse* arc is `pair_cap - res`, read sequentially, and
    /// [`Self::clear_flow`] restores `res` (the capacity on forward slots,
    /// 0 on twins) as one sequential zip.
    pair_cap_csr: Vec<Flow>,
    /// Permutation `ArcId -> hot/cost_csr slot`, for id-addressed reads and
    /// writes (`push`, `residual`, bottleneck walks).
    arc_pos: Vec<u32>,
    /// How many forward arcs have a negative cost (counted by `build` and
    /// kept by `set_cost`, so [`Self::has_negative_cost`] is O(1)).
    negative_costs: usize,
}

impl FlowNetwork {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.names.len()
    }

    /// Number of forward (user-created) arcs.
    pub fn num_arcs(&self) -> usize {
        self.head.len() / 2
    }

    /// Node name.
    pub fn name(&self, n: NodeId) -> &str {
        &self.names[n.index()]
    }

    /// Arc data, materialized from the SoA lanes. Hot loops that need a
    /// single attribute should prefer [`Self::head`] / [`Self::arc_flow`] /
    /// [`Self::arc_cost`] / [`Self::residual`], which read one lane each.
    #[inline]
    pub fn arc(&self, a: ArcId) -> Arc {
        Arc {
            from: self.tail(a),
            to: self.head(a),
            cap: self.cap(a),
            flow: self.arc_flow(a),
            cost: self.arc_cost(a),
        }
    }

    /// Head (target node) of an arc.
    #[inline]
    pub fn head(&self, a: ArcId) -> NodeId {
        self.head[a.index()]
    }

    /// Tail (source node) of an arc: its twin's head.
    #[inline]
    pub fn tail(&self, a: ArcId) -> NodeId {
        self.head[a.index() ^ 1]
    }

    /// Current flow on an arc (twins report the negative).
    #[inline]
    pub fn arc_flow(&self, a: ArcId) -> Flow {
        self.cap(a) - self.residual(a)
    }

    /// Per-unit cost of an arc (twins report the negative).
    #[inline]
    pub fn arc_cost(&self, a: ArcId) -> Cost {
        self.cost[a.index()]
    }

    /// Outgoing arc ids of `n` (forward and residual), in insertion order:
    /// the ids of the [`Self::hot_arcs`] slots in [`Self::out_range`].
    #[inline]
    pub fn out_arcs(&self, n: NodeId) -> impl ExactSizeIterator<Item = ArcId> + Clone + '_ {
        self.hot[self.out_range(n)].iter().map(|h| h.id)
    }

    /// CSR slot range of `n`'s outgoing arcs, for indexing the parallel
    /// [`Self::hot_arcs`] / [`Self::csr_costs`] lanes directly.
    #[inline]
    pub fn out_range(&self, n: NodeId) -> std::ops::Range<usize> {
        self.csr_offsets[n.index()] as usize..self.csr_offsets[n.index() + 1] as usize
    }

    /// The CSR offsets: node `n`'s slots are `offsets[n] .. offsets[n + 1]`.
    #[inline]
    pub(crate) fn csr_offsets(&self) -> &[u32] {
        &self.csr_offsets
    }

    /// The CSR offsets, the hot lane to write and the `arc_pos`
    /// permutation, borrowed together: a kernel that walks and pushes by
    /// slot reaches a twin's slot as `arc_pos[id ^ 1]`. Writers keep each
    /// pair's two residuals summing to its pair capacity, as
    /// [`Self::push`] does.
    #[inline]
    pub(crate) fn slot_lanes_mut(&mut self) -> (&[u32], &mut [HotArc], &[u32]) {
        (&self.csr_offsets, &mut self.hot, &self.arc_pos)
    }

    /// The CSR-ordered hot scan lane (`residual`, `head`, `id` per slot).
    /// Index it with [`Self::out_range`]; solver inner loops iterate this
    /// contiguously instead of chasing per-arc lanes through the id
    /// permutation.
    #[inline]
    pub fn hot_arcs(&self) -> &[HotArc] {
        &self.hot
    }

    /// Arc costs in CSR order, parallel to [`Self::hot_arcs`].
    #[inline]
    pub fn csr_costs(&self) -> &[Cost] {
        &self.cost_csr
    }

    /// Each slot's pair capacity in CSR order, parallel to
    /// [`Self::hot_arcs`]: the forward arc's capacity, on the forward slot
    /// and on its twin's slot alike. A slot's residual and its reverse
    /// arc's residual sum to it, so `pair_caps()[i] - hot_arcs()[i].res` is
    /// the residual of the slot's reverse arc (head → tail): a sink-side
    /// search walks the arcs into a node from that node's own slots,
    /// without the `arc_pos` permutation. On a forward slot the same
    /// difference is the arc's flow.
    #[inline]
    pub fn pair_caps(&self) -> &[Flow] {
        &self.pair_cap_csr
    }

    /// True when any forward arc has a negative per-unit cost. O(1): the
    /// count is kept by [`FlowNetworkBuilder::build`] and [`Self::set_cost`]; debug
    /// builds check it against a scan of the cost lane.
    pub fn has_negative_cost(&self) -> bool {
        debug_assert_eq!(
            self.negative_costs,
            self.cost.iter().step_by(2).filter(|&&c| c < 0).count(),
            "negative-cost arc count out of step with the cost lane"
        );
        self.negative_costs > 0
    }

    /// Iterate all forward arcs with their ids.
    pub fn forward_arcs(&self) -> impl Iterator<Item = (ArcId, Arc)> + '_ {
        (0..self.head.len())
            .step_by(2)
            .map(|i| (ArcId(i as u32), self.arc(ArcId(i as u32))))
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.names.len() as u32).map(NodeId)
    }

    /// Residual capacity of an arc (id-addressed: one hop through the
    /// `arc_pos` permutation into the hot lane).
    #[inline]
    pub fn residual(&self, a: ArcId) -> Flow {
        self.hot[self.arc_pos[a.index()] as usize].res
    }

    /// Push `d` units of flow over `a` (and pull them from its twin).
    ///
    /// Panics in debug builds if `d` exceeds the residual capacity.
    #[inline]
    pub fn push(&mut self, a: ArcId, d: Flow) {
        let i = a.index();
        let p = self.arc_pos[i] as usize;
        let q = self.arc_pos[i ^ 1] as usize;
        debug_assert!(d <= self.hot[p].res, "push exceeds residual capacity");
        self.hot[p].res -= d;
        self.hot[q].res += d;
    }

    /// Reset all flow to zero, keeping topology and capacities.
    pub fn clear_flow(&mut self) {
        // Both lanes are in CSR order, so this is a sequential zip.
        for (h, &pair_cap) in self.hot.iter_mut().zip(&self.pair_cap_csr) {
            h.res = empty_res(h, pair_cap);
        }
    }

    /// [`Self::reset`] that restores only the arcs in `carried`, when the
    /// caller knows every arc that carries flow: `carried` must list each
    /// forward arc with nonzero flow at least once (repeats are harmless).
    /// [`crate::path::PathWalk::carried`] is such a list for an acyclic
    /// network, where all flow lies on the unit paths a walk decomposes.
    ///
    /// Restoring an arc writes two slots through the id permutation, where
    /// the sweep writes every slot in order. So a list longer than a tenth
    /// of the slots is swept instead: the choice follows the list's length,
    /// and the result is the same either way.
    /// Debug builds check that every slot's residual equals its capacity.
    pub fn reset_carried(&mut self, carried: &[ArcId]) {
        if carried.len() * RESTORE_SLOT_COST >= self.hot.len() {
            self.clear_flow();
        } else {
            for &a in carried {
                debug_assert!(a.is_forward(), "carried lists forward arcs");
                let p = self.arc_pos[a.index()] as usize;
                let q = self.arc_pos[a.index() ^ 1] as usize;
                self.hot[p].res = self.pair_cap_csr[p];
                self.hot[q].res = 0;
            }
        }
        self.debug_assert_no_flow();
    }

    /// Debug builds: every slot's residual equals its capacity (no flow).
    fn debug_assert_no_flow(&self) {
        debug_assert!(
            self.hot
                .iter()
                .zip(&self.pair_cap_csr)
                .all(|(h, &pair_cap)| h.res == empty_res(h, pair_cap)),
            "flow left after a reset"
        );
    }

    /// Return the network to its just-built state: zero flow on every arc,
    /// nodes/arcs/capacities/costs untouched. This is the entry point of the
    /// reuse protocol — reset, retune capacities with [`Self::set_cap`] /
    /// [`Self::set_cost`], re-solve — that lets successive snapshots share
    /// one transformation graph instead of rebuilding it per solve.
    pub fn reset(&mut self) {
        self.clear_flow();
        self.debug_assert_no_flow();
    }

    /// Replace the capacity of a forward arc. The residual twin keeps
    /// capacity 0; any flow must have been cleared first (capacities may
    /// shrink below the current flow otherwise). Three indexed lane writes:
    /// the CSR layout never depends on a capacity, so patching stays
    /// `O(patches)`.
    pub fn set_cap(&mut self, a: ArcId, cap: Flow) {
        assert!(a.is_forward(), "set_cap addresses forward arcs only");
        assert!(cap >= 0, "negative capacity");
        let i = a.index();
        let p = self.arc_pos[i] as usize;
        let flow = self.cap[i] - self.hot[p].res;
        debug_assert!(
            flow <= cap,
            "set_cap below current flow; call reset() first"
        );
        self.cap[i] = cap;
        self.pair_cap_csr[p] = cap;
        self.pair_cap_csr[self.arc_pos[i ^ 1] as usize] = cap;
        self.hot[p].res = cap - flow;
    }

    /// Current capacity of an arc (residual twins report 0).
    #[inline]
    pub fn cap(&self, a: ArcId) -> Flow {
        self.cap[a.index()]
    }

    /// Replace the per-unit cost of a forward arc; the twin gets `-cost` so
    /// cancellation stays consistent.
    pub fn set_cost(&mut self, a: ArcId, cost: Cost) {
        assert!(a.is_forward(), "set_cost addresses forward arcs only");
        let i = a.index();
        self.negative_costs =
            self.negative_costs + usize::from(cost < 0) - usize::from(self.cost[i] < 0);
        self.cost[i] = cost;
        self.cost[i ^ 1] = -cost;
        self.cost_csr[self.arc_pos[i] as usize] = cost;
        self.cost_csr[self.arc_pos[i ^ 1] as usize] = -cost;
    }

    /// Check the two legality conditions of the paper's Section III-A:
    /// capacity limitation on every arc and flow conservation at every node
    /// except `s` and `t`. Returns the total flow leaving `s` when legal.
    pub fn check_legal_flow(&self, s: NodeId, t: NodeId) -> Result<Flow, String> {
        for (id, a) in self.forward_arcs() {
            if a.flow < 0 || a.flow > a.cap {
                return Err(format!(
                    "arc {} ({} -> {}) violates capacity: flow {} cap {}",
                    id.0,
                    self.name(a.from),
                    self.name(a.to),
                    a.flow,
                    a.cap
                ));
            }
        }
        let mut net = vec![0i64; self.num_nodes()];
        for (_, a) in self.forward_arcs() {
            net[a.from.index()] += a.flow;
            net[a.to.index()] -= a.flow;
        }
        for n in self.nodes() {
            if n != s && n != t && net[n.index()] != 0 {
                return Err(format!(
                    "flow not conserved at {} (net {})",
                    self.name(n),
                    net[n.index()]
                ));
            }
        }
        if net[s.index()] != -net[t.index()] {
            return Err("source and sink imbalance".into());
        }
        Ok(net[s.index()])
    }

    /// Total cost of the current flow (forward arcs only).
    pub fn flow_cost(&self) -> Cost {
        self.forward_arcs().map(|(_, a)| a.cost * a.flow).sum()
    }

    /// Value of the current flow out of `s`.
    pub fn flow_value(&self, s: NodeId) -> Flow {
        let mut net = 0;
        for (_, a) in self.forward_arcs() {
            if a.from == s {
                net += a.flow;
            }
            if a.to == s {
                net -= a.flow;
            }
        }
        net
    }

    /// Graphviz DOT dump (forward arcs; label = `flow/cap @cost`).
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph flow {\n  rankdir=LR;\n");
        for n in self.nodes() {
            let _ = writeln!(out, "  n{} [label=\"{}\"];", n.0, self.name(n));
        }
        for (_, a) in self.forward_arcs() {
            let style = if a.flow > 0 { ",penwidth=2" } else { "" };
            let _ = writeln!(
                out,
                "  n{} -> n{} [label=\"{}/{}{}\"{}];",
                a.from.0,
                a.to.0,
                a.flow,
                a.cap,
                if a.cost != 0 {
                    format!(" @{}", a.cost)
                } else {
                    String::new()
                },
                style
            );
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `s -> a -> t` and `s -> b -> t`, unit capacities, plus `spares`
    /// unit arcs from a node off every s–t path into `t`.
    fn diamond_with_spares(spares: usize) -> (FlowNetwork, NodeId, NodeId) {
        let mut b = FlowNetworkBuilder::new();
        let s = b.add_node("s");
        let x = b.add_node("a");
        let y = b.add_node("b");
        let t = b.add_node("t");
        b.add_arc(s, x, 1, 0);
        b.add_arc(s, y, 1, 0);
        b.add_arc(x, t, 1, 0);
        b.add_arc(y, t, 1, 0);
        if spares > 0 {
            let spare = b.add_node("spare");
            for _ in 0..spares {
                b.add_arc(spare, t, 1, 0);
            }
        }
        (b.build(), s, t)
    }

    fn diamond() -> (FlowNetwork, NodeId, NodeId) {
        diamond_with_spares(0)
    }

    /// The `i`-th outgoing arc of `n`.
    fn out(g: &FlowNetwork, n: NodeId, i: usize) -> ArcId {
        g.out_arcs(n).nth(i).unwrap()
    }

    #[test]
    fn twin_pairing() {
        let (g, s, _) = diamond();
        let first = out(&g, s, 0);
        assert!(first.is_forward());
        assert!(!first.twin().is_forward());
        assert_eq!(first.twin().twin(), first);
        assert_eq!(g.arc(first).from, g.arc(first.twin()).to);
    }

    #[test]
    fn push_updates_residuals() {
        let (mut g, s, _) = diamond();
        let a = out(&g, s, 0);
        assert_eq!(g.residual(a), 1);
        assert_eq!(g.residual(a.twin()), 0);
        g.push(a, 1);
        assert_eq!(g.residual(a), 0);
        assert_eq!(g.residual(a.twin()), 1);
    }

    // The residual check is a `debug_assert!` on the hot path, so the panic
    // only exists in debug builds.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "push exceeds residual")]
    fn push_over_capacity_panics_in_debug() {
        let (mut g, s, _) = diamond();
        let a = out(&g, s, 0);
        g.push(a, 2);
    }

    #[test]
    fn legal_flow_checks_conservation() {
        let (mut g, s, t) = diamond();
        // Push along s->a only: conservation violated at a.
        let sa = out(&g, s, 0);
        g.push(sa, 1);
        assert!(g.check_legal_flow(s, t).is_err());
        // Complete the path a->t.
        let a = g.arc(sa).to;
        let at = g
            .out_arcs(a)
            .find(|id| id.is_forward() && g.arc(*id).to == t)
            .unwrap();
        g.push(at, 1);
        assert_eq!(g.check_legal_flow(s, t).unwrap(), 1);
    }

    #[test]
    fn clear_flow_resets() {
        let (mut g, s, t) = diamond();
        let sa = out(&g, s, 0);
        g.push(sa, 1);
        g.clear_flow();
        assert_eq!(g.flow_value(s), 0);
        assert_eq!(g.check_legal_flow(s, t).unwrap(), 0);
    }

    #[test]
    fn reset_then_retune_supports_resolve() {
        let (mut g, s, t) = diamond();
        let sa = out(&g, s, 0);
        g.push(sa, 1);
        g.reset();
        assert_eq!(g.flow_value(s), 0);
        // Close one branch, widen the other, and reprice it.
        let sb = out(&g, s, 1);
        g.set_cap(sa, 0);
        g.set_cap(sb, 3);
        g.set_cost(sb, 7);
        assert_eq!(g.arc(sa).cap, 0);
        assert_eq!(g.arc(sb).cap, 3);
        assert_eq!(g.arc(sb).cost, 7);
        assert_eq!(g.arc(sb.twin()).cost, -7);
        assert_eq!(g.arc(sb.twin()).cap, 0, "twin capacity stays zero");
        assert_eq!(g.check_legal_flow(s, t).unwrap(), 0);
    }

    #[test]
    #[should_panic(expected = "forward arcs only")]
    fn set_cap_rejects_residual_twin() {
        let (mut g, s, _) = diamond();
        let sa = out(&g, s, 0);
        g.set_cap(sa.twin(), 2);
    }

    #[test]
    fn dot_contains_nodes_and_arcs() {
        let (g, _, _) = diamond();
        let dot = g.to_dot();
        assert!(dot.contains("digraph"));
        assert!(dot.contains("\"s\""));
        assert!(dot.contains("->"));
    }

    #[test]
    fn flow_cost_accumulates() {
        let mut b = FlowNetworkBuilder::new();
        let s = b.add_node("s");
        let t = b.add_node("t");
        let a = b.add_arc(s, t, 2, 5);
        let mut g = b.build();
        g.push(a, 2);
        assert_eq!(g.flow_cost(), 10);
    }

    #[test]
    fn reset_carried_restores_the_listed_arcs_or_sweeps() {
        // s -> a -> t and s -> b -> t, both carrying flow.
        let solved = |g: &mut FlowNetwork, s: NodeId, t: NodeId| {
            let mut carried = Vec::new();
            for first in g.out_arcs(s).filter(|a| a.is_forward()).collect::<Vec<_>>() {
                let mid = g.head(first);
                let next = g
                    .out_arcs(mid)
                    .find(|a| a.is_forward() && g.head(*a) == t)
                    .unwrap();
                g.push(first, 1);
                g.push(next, 1);
                carried.extend([first, next]);
            }
            carried
        };
        // Four arcs of 8 slots: long enough to sweep.
        let (mut g, s, t) = diamond();
        let carried = solved(&mut g, s, t);
        assert_eq!(g.flow_value(s), 2);
        g.reset_carried(&carried);
        assert_eq!(g.flow_value(s), 0);
        assert_eq!(g.check_legal_flow(s, t).unwrap(), 0);
        // The same flow in a graph six times the size: restored arc by arc,
        // with the same result.
        let (mut g, s, t) = diamond_with_spares(20);
        let carried = solved(&mut g, s, t);
        assert_eq!(g.flow_value(s), 2);
        g.reset_carried(&carried);
        for (a, arc) in g.forward_arcs() {
            assert_eq!(arc.flow, 0, "{a:?}");
            assert_eq!(g.residual(a), arc.cap, "{a:?}");
            assert_eq!(g.residual(a.twin()), 0, "{a:?}");
        }
    }

    #[test]
    fn negative_cost_count_follows_add_arc_and_set_cost() {
        let mut b = FlowNetworkBuilder::new();
        let s = b.add_node("s");
        let t = b.add_node("t");
        let a = b.add_arc(s, t, 1, 3);
        assert!(!b.clone().build().has_negative_cost());
        let c = b.add_arc(s, t, 1, -2);
        let mut g = b.build();
        assert!(g.has_negative_cost());
        g.set_cost(a, -1);
        g.set_cost(c, 0);
        assert!(g.has_negative_cost());
        g.set_cost(a, -5);
        assert!(g.has_negative_cost());
        g.set_cost(a, 0);
        assert!(!g.has_negative_cost(), "twins' negated costs never count");
    }

    #[test]
    fn csr_order_matches_insertion_order_per_node() {
        // The CSR slices must list each node's outgoing arcs in exactly the
        // order add_arc created them — forward arcs and twins interleaved —
        // because solver traversal order (hence OpStats) depends on it.
        let mut b = FlowNetworkBuilder::new();
        let s = b.add_node("s");
        let a = b.add_node("a");
        let t = b.add_node("t");
        let sa = b.add_arc(s, a, 1, 0); // ArcId(0), twin 1 out of a
        let st = b.add_arc(s, t, 1, 0); // ArcId(2), twin 3 out of t
        let at = b.add_arc(a, t, 1, 0); // ArcId(4), twin 5 out of t
        let sa2 = b.add_arc(s, a, 1, 0); // ArcId(6), twin 7 out of a
        let g = b.build();
        let out = |n| g.out_arcs(n).collect::<Vec<_>>();
        assert_eq!(out(s), [sa, st, sa2]);
        assert_eq!(out(a), [sa.twin(), at, sa2.twin()]);
        assert_eq!(out(t), [st.twin(), at.twin()]);
        for n in [s, a, t] {
            for id in g.out_arcs(n) {
                assert_eq!(g.tail(id), n, "{id:?}");
            }
        }
    }
}
