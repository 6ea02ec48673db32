//! Arena flow-network representation with paired residual arcs.
//!
//! Arcs are stored in forward/reverse pairs: the arc added by
//! [`FlowNetwork::add_arc`] gets an even id and its residual twin the
//! following odd id, so `id ^ 1` is always the companion. Pushing `d` units
//! over an arc adds `d` to its flow and subtracts `d` from its twin's flow,
//! which keeps residual capacities consistent without special cases — the
//! same "advance flow forward or cancel flow backward" rule the paper's
//! augmenting paths use (Section III-B, Fig. 3).
//!
//! # Data layout (DESIGN.md §14)
//!
//! Arc attributes live in structs-of-arrays (`tail`/`head`/`cap`/`flow`/
//! `cost`, indexed by [`ArcId`]) and adjacency is a **CSR** (compressed
//! sparse row) pair — `csr_offsets: Vec<u32>` of length `n + 1` plus one
//! flat `csr_arcs` arc-id array — instead of one heap-allocated `Vec<ArcId>`
//! per node. A solver walking `out_arcs` therefore streams one contiguous
//! array with no per-node pointer chase, and a capacity/flow scan touches
//! 8-byte lanes instead of 40-byte structs.
//!
//! The CSR cache is rebuilt **lazily**: every topology mutation
//! ([`FlowNetwork::add_node`] / [`FlowNetwork::add_arc`]) folds into an
//! FNV-1a topology fingerprint, and [`FlowNetwork::ensure_csr`] rebuilds the
//! adjacency (counting sort, `O(V + E)`) only when the fingerprint differs
//! from the one the cache was built at. Capacity patches
//! ([`FlowNetwork::set_cap`]), cost updates, pushes, and resets touch only
//! the SoA lanes — never the fingerprint — so the zero-rebuild contract
//! (patch caps between solves, `rebuilds() == 1`) holds by construction.
//! Arc ids ascend in insertion order, so the counting sort reproduces
//! exactly the per-node arc order the nested `Vec<Vec<ArcId>>` layout used
//! to produce: traversal order, and with it every solver's `OpStats`, is
//! bit-identical to the old layout.

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

/// FNV-1a step over one 64-bit word (the topology fingerprint accumulator).
#[inline]
fn fp_mix(fp: u64, word: u64) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
    (fp ^ word).wrapping_mul(FNV_PRIME)
}

/// FNV-1a offset basis: the fingerprint of the empty topology.
const FP_SEED: u64 = 0xCBF2_9CE4_8422_2325;

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

/// A directed flow network with named nodes.
///
/// Node names exist so that networks derived from interconnection networks
/// keep a human-readable correspondence (`"p3"`, `"sb(1,2)"`, `"r5"`, …) for
/// debugging, DOT dumps, and the worked paper examples.
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    names: Vec<String>,
    /// Cold SoA arc lanes, indexed by [`ArcId`] (even forward, odd twin).
    tail: Vec<NodeId>,
    head: Vec<NodeId>,
    cap: Vec<Flow>,
    cost: Vec<Cost>,
    /// CSR adjacency cache: `csr_arcs[csr_offsets[n] .. csr_offsets[n + 1]]`
    /// are the outgoing arc ids of node `n`, in insertion order.
    csr_offsets: Vec<u32>,
    csr_arcs: Vec<ArcId>,
    /// Hot scan lane in CSR order, parallel to `csr_arcs`: `(residual,
    /// head, id)` per slot. The residual here is canonical (flow is derived
    /// as `cap - res`); storing it in adjacency order turns every solver's
    /// out-arc scan into a sequential 16-byte-stride walk.
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
    /// Permutation `ArcId -> hot/cost_csr/csr_arcs slot`, for id-addressed
    /// reads and writes (`push`, `residual`, bottleneck walks).
    arc_pos: Vec<u32>,
    /// How many forward arcs have a negative cost (kept by `add_arc` and
    /// `set_cost`, so [`Self::has_negative_cost`] is O(1)).
    negative_costs: usize,
    /// Fingerprint of the current topology (mutated by `add_node`/`add_arc`).
    topo_fp: u64,
    /// Fingerprint the CSR cache was built at (`!= topo_fp` ⇒ stale).
    csr_fp: u64,
    /// How many times the CSR cache has actually been rebuilt.
    csr_rebuilds: u64,
}

impl Default for FlowNetwork {
    fn default() -> Self {
        FlowNetwork {
            names: Vec::new(),
            tail: Vec::new(),
            head: Vec::new(),
            cap: Vec::new(),
            cost: Vec::new(),
            csr_offsets: Vec::new(),
            csr_arcs: Vec::new(),
            hot: Vec::new(),
            cost_csr: Vec::new(),
            pair_cap_csr: Vec::new(),
            arc_pos: Vec::new(),
            negative_costs: 0,
            topo_fp: FP_SEED,
            // Deliberately != topo_fp: a fresh network has a stale (empty)
            // CSR cache until the first ensure_csr().
            csr_fp: 0,
            csr_rebuilds: 0,
        }
    }
}

impl FlowNetwork {
    /// Empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-allocating constructor.
    pub fn with_capacity(nodes: usize, arcs: usize) -> Self {
        FlowNetwork {
            names: Vec::with_capacity(nodes),
            tail: Vec::with_capacity(2 * arcs),
            head: Vec::with_capacity(2 * arcs),
            cap: Vec::with_capacity(2 * arcs),
            cost: Vec::with_capacity(2 * arcs),
            csr_offsets: Vec::with_capacity(nodes + 1),
            csr_arcs: Vec::with_capacity(2 * arcs),
            hot: Vec::with_capacity(2 * arcs),
            cost_csr: Vec::with_capacity(2 * arcs),
            pair_cap_csr: Vec::with_capacity(2 * arcs),
            arc_pos: Vec::with_capacity(2 * arcs),
            ..Self::default()
        }
    }

    /// Add a node with a debug name; returns its id.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.names.len() as u32);
        self.names.push(name.into());
        self.topo_fp = fp_mix(self.topo_fp, 0x4E00_0000_0000_0000 | u64::from(id.0));
        id
    }

    /// Add a directed arc with capacity `cap` and per-unit cost `cost`.
    /// A zero-capacity residual twin (with cost `-cost`) is added
    /// automatically.
    pub fn add_arc(&mut self, from: NodeId, to: NodeId, cap: Flow, cost: Cost) -> ArcId {
        assert!(cap >= 0, "negative capacity");
        assert!(from.index() < self.names.len() && to.index() < self.names.len());
        let id = ArcId(self.tail.len() as u32);
        self.tail.push(from);
        self.head.push(to);
        self.cap.push(cap);
        self.cost.push(cost);
        self.tail.push(to);
        self.head.push(from);
        self.cap.push(0);
        self.cost.push(-cost);
        self.negative_costs += usize::from(cost < 0);
        self.topo_fp = fp_mix(
            self.topo_fp,
            0xA000_0000_0000_0000 | (u64::from(from.0) << 30) | u64::from(to.0),
        );
        id
    }

    /// True when the CSR adjacency cache matches the current topology.
    pub fn csr_is_fresh(&self) -> bool {
        self.csr_fp == self.topo_fp
    }

    /// How many times the CSR adjacency has been (re)built over this
    /// network's lifetime. The zero-rebuild hot path — reset, patch caps,
    /// re-solve — keeps this at 1 for arbitrarily many solves; a second
    /// rebuild means some caller mutated topology mid-reuse.
    pub fn csr_rebuilds(&self) -> u64 {
        self.csr_rebuilds
    }

    /// Rebuild the CSR adjacency cache if (and only if) the topology
    /// fingerprint has moved since the last build. Counting sort over arc
    /// tails, `O(V + E)`; arc ids ascend in insertion order, so each node's
    /// slice lists its outgoing arcs in exactly the order `add_arc` created
    /// them — the order the nested `Vec<Vec<ArcId>>` layout exposed.
    ///
    /// Every solver entry point calls this; only code inspecting adjacency
    /// *between* building a network and the first solve (tests, mostly)
    /// needs to call it explicitly.
    pub fn ensure_csr(&mut self) {
        if self.csr_is_fresh() {
            return;
        }
        let n = self.names.len();
        let m = self.tail.len();
        // Residuals by arc id: carried over from the previous hot lane for
        // arcs that already existed (so flow survives a topology extension,
        // exactly as a flow lane would), full capacity for new arcs.
        let old_m = self.arc_pos.len();
        let mut res_by_id: Vec<Flow> = Vec::with_capacity(m);
        for i in 0..m {
            if i < old_m {
                res_by_id.push(self.hot[self.arc_pos[i] as usize].res);
            } else {
                res_by_id.push(self.cap[i]);
            }
        }
        self.csr_offsets.clear();
        self.csr_offsets.resize(n + 1, 0);
        for &f in &self.tail {
            self.csr_offsets[f.index() + 1] += 1;
        }
        for i in 0..n {
            self.csr_offsets[i + 1] += self.csr_offsets[i];
        }
        self.csr_arcs.clear();
        self.csr_arcs.resize(m, ArcId(0));
        self.hot.clear();
        self.hot.resize(
            m,
            HotArc {
                res: 0,
                head: NodeId(0),
                id: ArcId(0),
            },
        );
        self.cost_csr.clear();
        self.cost_csr.resize(m, 0);
        self.pair_cap_csr.clear();
        self.pair_cap_csr.resize(m, 0);
        self.arc_pos.clear();
        self.arc_pos.resize(m, 0);
        let mut cursor = self.csr_offsets.clone();
        for (i, &f) in self.tail.iter().enumerate() {
            let c = &mut cursor[f.index()];
            let slot = *c as usize;
            self.csr_arcs[slot] = ArcId(i as u32);
            self.hot[slot] = HotArc {
                res: res_by_id[i],
                head: self.head[i],
                id: ArcId(i as u32),
            };
            self.cost_csr[slot] = self.cost[i];
            self.pair_cap_csr[slot] = self.cap[i & !1];
            self.arc_pos[i] = slot as u32;
            *c += 1;
        }
        self.csr_fp = self.topo_fp;
        self.csr_rebuilds += 1;
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.names.len()
    }

    /// Number of forward (user-created) arcs.
    pub fn num_arcs(&self) -> usize {
        self.tail.len() / 2
    }

    /// Node name.
    pub fn name(&self, n: NodeId) -> &str {
        &self.names[n.index()]
    }

    /// Find a node by exact name (linear scan; intended for tests/examples).
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| NodeId(i as u32))
    }

    /// Arc data, materialized from the SoA lanes. Hot loops that need a
    /// single attribute should prefer [`Self::head`] / [`Self::arc_flow`] /
    /// [`Self::arc_cost`] / [`Self::residual`], which read one lane each.
    #[inline]
    pub fn arc(&self, a: ArcId) -> Arc {
        let i = a.index();
        Arc {
            from: self.tail[i],
            to: self.head[i],
            cap: self.cap[i],
            flow: self.cap[i] - self.res_of(i),
            cost: self.cost[i],
        }
    }

    /// Residual of arc id `i`, tolerating a stale CSR cache: arcs added
    /// since the last rebuild have no hot slot yet and carry zero flow, so
    /// their residual is their capacity.
    #[inline]
    fn res_of(&self, i: usize) -> Flow {
        if i < self.arc_pos.len() {
            self.hot[self.arc_pos[i] as usize].res
        } else {
            self.cap[i]
        }
    }

    /// Head (target node) of an arc.
    #[inline]
    pub fn head(&self, a: ArcId) -> NodeId {
        self.head[a.index()]
    }

    /// Tail (source node) of an arc.
    #[inline]
    pub fn tail(&self, a: ArcId) -> NodeId {
        self.tail[a.index()]
    }

    /// Current flow on an arc (twins report the negative).
    #[inline]
    pub fn arc_flow(&self, a: ArcId) -> Flow {
        let i = a.index();
        self.cap[i] - self.res_of(i)
    }

    /// Per-unit cost of an arc (twins report the negative).
    #[inline]
    pub fn arc_cost(&self, a: ArcId) -> Cost {
        self.cost[a.index()]
    }

    /// Outgoing arc ids of `n` (forward and residual), from the CSR cache.
    ///
    /// Debug builds assert the cache is fresh; call
    /// [`Self::ensure_csr`] after topology mutations (solver entry points
    /// do this for you).
    #[inline]
    pub fn out_arcs(&self, n: NodeId) -> &[ArcId] {
        debug_assert!(
            self.csr_is_fresh(),
            "adjacency read on a stale CSR cache: call ensure_csr() after add_node/add_arc"
        );
        let lo = self.csr_offsets[n.index()] as usize;
        let hi = self.csr_offsets[n.index() + 1] as usize;
        &self.csr_arcs[lo..hi]
    }

    /// CSR slot range of `n`'s outgoing arcs, for indexing the parallel
    /// [`Self::hot_arcs`] / [`Self::csr_costs`] lanes directly. Same
    /// freshness contract as [`Self::out_arcs`].
    #[inline]
    pub fn out_range(&self, n: NodeId) -> std::ops::Range<usize> {
        debug_assert!(
            self.csr_is_fresh(),
            "adjacency read on a stale CSR cache: call ensure_csr() after add_node/add_arc"
        );
        self.csr_offsets[n.index()] as usize..self.csr_offsets[n.index() + 1] as usize
    }

    /// The CSR offsets: node `n`'s slots are `offsets[n] .. offsets[n + 1]`.
    /// Same freshness contract as [`Self::out_arcs`].
    #[inline]
    pub(crate) fn csr_offsets(&self) -> &[u32] {
        debug_assert!(
            self.csr_is_fresh(),
            "adjacency read on a stale CSR cache: call ensure_csr() after add_node/add_arc"
        );
        &self.csr_offsets
    }

    /// The CSR offsets, the hot lane to write and the `arc_pos`
    /// permutation, borrowed together: a kernel that walks and pushes by
    /// slot reaches a twin's slot as `arc_pos[id ^ 1]`. Writers keep each
    /// pair's two residuals summing to its pair capacity, as
    /// [`Self::push`] does.
    #[inline]
    pub(crate) fn slot_lanes_mut(&mut self) -> (&[u32], &mut [HotArc], &[u32]) {
        debug_assert!(
            self.csr_is_fresh(),
            "adjacency read on a stale CSR cache: call ensure_csr() after add_node/add_arc"
        );
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
    /// count is kept by [`Self::add_arc`] and [`Self::set_cost`]; debug
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
        (0..self.tail.len())
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
        debug_assert!(
            self.csr_is_fresh(),
            "residual read on a stale CSR cache: call ensure_csr() after add_node/add_arc"
        );
        self.hot[self.arc_pos[a.index()] as usize].res
    }

    /// Push `d` units of flow over `a` (and pull them from its twin).
    ///
    /// Panics in debug builds if `d` exceeds the residual capacity.
    #[inline]
    pub fn push(&mut self, a: ArcId, d: Flow) {
        self.ensure_csr();
        let i = a.index();
        let p = self.arc_pos[i] as usize;
        let q = self.arc_pos[i ^ 1] as usize;
        debug_assert!(d <= self.hot[p].res, "push exceeds residual capacity");
        self.hot[p].res -= d;
        self.hot[q].res += d;
    }

    /// Reset all flow to zero, keeping topology and capacities.
    pub fn clear_flow(&mut self) {
        self.ensure_csr();
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
        self.ensure_csr();
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
    /// one transformation graph instead of rebuilding it per solve. Also
    /// freshens the CSR adjacency cache, so the first solve of a reuse loop
    /// pays the one and only rebuild here.
    pub fn reset(&mut self) {
        self.ensure_csr();
        self.clear_flow();
        self.debug_assert_no_flow();
    }

    /// Replace the capacity of a forward arc. The residual twin keeps
    /// capacity 0; any flow must have been cleared first (capacities may
    /// shrink below the current flow otherwise). A pure SoA-lane write:
    /// never touches the topology fingerprint, so the CSR cache stays valid
    /// (this is why patch-caps stays `O(patches)` with zero rebuilds).
    pub fn set_cap(&mut self, a: ArcId, cap: Flow) {
        assert!(a.is_forward(), "set_cap addresses forward arcs only");
        assert!(cap >= 0, "negative capacity");
        self.ensure_csr();
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
        self.ensure_csr();
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

    fn diamond() -> (FlowNetwork, NodeId, NodeId) {
        let mut g = FlowNetwork::new();
        let s = g.add_node("s");
        let a = g.add_node("a");
        let b = g.add_node("b");
        let t = g.add_node("t");
        g.add_arc(s, a, 1, 0);
        g.add_arc(s, b, 1, 0);
        g.add_arc(a, t, 1, 0);
        g.add_arc(b, t, 1, 0);
        g.ensure_csr();
        (g, s, t)
    }

    #[test]
    fn twin_pairing() {
        let (g, s, _) = diamond();
        let first = g.out_arcs(s)[0];
        assert!(first.is_forward());
        assert!(!first.twin().is_forward());
        assert_eq!(first.twin().twin(), first);
        assert_eq!(g.arc(first).from, g.arc(first.twin()).to);
    }

    #[test]
    fn push_updates_residuals() {
        let (mut g, s, _) = diamond();
        let a = g.out_arcs(s)[0];
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
        let a = g.out_arcs(s)[0];
        g.push(a, 2);
    }

    #[test]
    fn legal_flow_checks_conservation() {
        let (mut g, s, t) = diamond();
        // Push along s->a only: conservation violated at a.
        let sa = g.out_arcs(s)[0];
        g.push(sa, 1);
        assert!(g.check_legal_flow(s, t).is_err());
        // Complete the path a->t.
        let a = g.arc(sa).to;
        let at = *g
            .out_arcs(a)
            .iter()
            .find(|id| id.is_forward() && g.arc(**id).to == t)
            .unwrap();
        g.push(at, 1);
        assert_eq!(g.check_legal_flow(s, t).unwrap(), 1);
    }

    #[test]
    fn clear_flow_resets() {
        let (mut g, s, t) = diamond();
        let sa = g.out_arcs(s)[0];
        g.push(sa, 1);
        g.clear_flow();
        assert_eq!(g.flow_value(s), 0);
        assert_eq!(g.check_legal_flow(s, t).unwrap(), 0);
    }

    #[test]
    fn reset_then_retune_supports_resolve() {
        let (mut g, s, t) = diamond();
        let sa = g.out_arcs(s)[0];
        g.push(sa, 1);
        g.reset();
        assert_eq!(g.flow_value(s), 0);
        // Close one branch, widen the other, and reprice it.
        let sb = g.out_arcs(s)[1];
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
        let sa = g.out_arcs(s)[0];
        g.set_cap(sa.twin(), 2);
    }

    #[test]
    fn node_lookup_by_name() {
        let (g, s, t) = diamond();
        assert_eq!(g.node_by_name("s"), Some(s));
        assert_eq!(g.node_by_name("t"), Some(t));
        assert_eq!(g.node_by_name("zz"), None);
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
        let mut g = FlowNetwork::new();
        let s = g.add_node("s");
        let t = g.add_node("t");
        let a = g.add_arc(s, t, 2, 5);
        g.push(a, 2);
        assert_eq!(g.flow_cost(), 10);
    }

    #[test]
    fn reset_carried_restores_the_listed_arcs_or_sweeps() {
        // s -> a -> t and s -> b -> t, both carrying flow.
        let (mut g, s, t) = diamond();
        let solved = |g: &mut FlowNetwork| {
            let mut carried = Vec::new();
            for &first in g.out_arcs(s).to_vec().iter().filter(|a| a.is_forward()) {
                let mid = g.head(first);
                let next = *g
                    .out_arcs(mid)
                    .iter()
                    .find(|a| a.is_forward() && g.head(**a) == t)
                    .unwrap();
                g.push(first, 1);
                g.push(next, 1);
                carried.extend([first, next]);
            }
            carried
        };
        // Four arcs of 8 slots: long enough to sweep.
        let carried = solved(&mut g);
        assert_eq!(g.flow_value(s), 2);
        g.reset_carried(&carried);
        assert_eq!(g.flow_value(s), 0);
        assert_eq!(g.check_legal_flow(s, t).unwrap(), 0);
        // The same flow in a graph six times the size: restored arc by arc,
        // with the same result.
        let spare = g.add_node("spare");
        for _ in 0..20 {
            g.add_arc(spare, t, 1, 0);
        }
        g.ensure_csr();
        let carried = solved(&mut g);
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
        let mut g = FlowNetwork::new();
        let s = g.add_node("s");
        let t = g.add_node("t");
        let a = g.add_arc(s, t, 1, 3);
        assert!(!g.has_negative_cost());
        let b = g.add_arc(s, t, 1, -2);
        assert!(g.has_negative_cost());
        g.set_cost(a, -1);
        g.set_cost(b, 0);
        assert!(g.has_negative_cost());
        g.set_cost(a, -5);
        assert!(g.has_negative_cost());
        g.set_cost(a, 0);
        assert!(!g.has_negative_cost(), "twins' negated costs never count");
    }

    #[test]
    fn csr_rebuilds_lazily_and_only_on_topology_change() {
        let mut g = FlowNetwork::new();
        assert!(!g.csr_is_fresh(), "fresh network has a stale empty cache");
        assert_eq!(g.csr_rebuilds(), 0);
        let s = g.add_node("s");
        let t = g.add_node("t");
        let a = g.add_arc(s, t, 2, 0);
        g.ensure_csr();
        assert!(g.csr_is_fresh());
        assert_eq!(g.csr_rebuilds(), 1);
        // Idempotent: freshness short-circuits.
        g.ensure_csr();
        assert_eq!(g.csr_rebuilds(), 1);
        // Flow/capacity/cost mutations never stale the cache.
        g.push(a, 1);
        g.reset();
        g.set_cap(a, 5);
        g.set_cost(a, 3);
        assert!(g.csr_is_fresh());
        assert_eq!(g.csr_rebuilds(), 1);
        // Topology mutation stales it; the next ensure rebuilds once.
        let u = g.add_node("u");
        assert!(!g.csr_is_fresh());
        g.add_arc(s, u, 1, 0);
        g.add_arc(u, t, 1, 0);
        g.ensure_csr();
        assert_eq!(g.csr_rebuilds(), 2);
        assert_eq!(g.out_arcs(u).len(), 2, "u: forward u->t plus twin of s->u");
    }

    #[test]
    fn csr_order_matches_insertion_order_per_node() {
        // The CSR slices must list each node's outgoing arcs in exactly the
        // order add_arc created them — forward arcs and twins interleaved —
        // because solver traversal order (hence OpStats) depends on it.
        let mut g = FlowNetwork::new();
        let s = g.add_node("s");
        let a = g.add_node("a");
        let t = g.add_node("t");
        let sa = g.add_arc(s, a, 1, 0); // ArcId(0), twin 1 out of a
        let st = g.add_arc(s, t, 1, 0); // ArcId(2), twin 3 out of t
        let at = g.add_arc(a, t, 1, 0); // ArcId(4), twin 5 out of t
        let sa2 = g.add_arc(s, a, 1, 0); // ArcId(6), twin 7 out of a
        g.ensure_csr();
        assert_eq!(g.out_arcs(s), &[sa, st, sa2]);
        assert_eq!(g.out_arcs(a), &[sa.twin(), at, sa2.twin()]);
        assert_eq!(g.out_arcs(t), &[st.twin(), at.twin()]);
    }
}
