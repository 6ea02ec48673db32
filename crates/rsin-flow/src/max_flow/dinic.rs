//! Dinic's maximum-flow algorithm with an explicit layered network.
//!
//! Mirrors the paper's Fig. 7 flow chart: alternate between (1) constructing
//! a **layered network** from the current flow and (2) finding a **maximal**
//! (not maximum) flow in it by depth-first search, until the sink no longer
//! appears in any layer. The layered network is a public type because the
//! distributed token-propagation architecture of Section IV constructs the
//! very same structure by request-token propagation (Theorem 4), and the
//! `rsin-distrib` tests verify the correspondence layer by layer.
//!
//! A *useful* arc (paper's term) is either an unsaturated forward arc or an
//! arc with nonzero flow traversed backwards; both appear as residual arcs
//! with positive residual capacity in [`FlowNetwork`], so the layered
//! network is simply a BFS levelling of the residual graph, cut off at the
//! sink's layer ("all tokens stop propagating" once a resource server is
//! reached).
//!
//! The solver itself labels from whichever end has less residual capacity.
//! From the sink side it labels nodes by distance to `t` (the paper's
//! resource tokens travelling back), so its DFS from `s` only ever steps
//! onto shortest s–t paths and never walks into a node that cannot reach
//! `t`. Both sides advance exactly the augmenting paths of the layered
//! network above, in the same order. A solve also stops, without a final
//! search, once its flow meets the residual capacity out of `s` or into
//! `t` (DESIGN.md §14.6).
//!
//! On a graded network ([`FlowNetwork::grading`]: a multistage fabric's
//! stages) a solve from zero flow with no closed interior arc skips its
//! first search: the grading is that phase's layered network, as the
//! paper's request tokens cross one switchbox stage per clock
//! (DESIGN.md §14.9).

use super::MaxFlowResult;
use crate::graph::{ArcId, FlowNetwork, NodeId};
use crate::scratch::{SolveScratch, UNLEVELLED};
use crate::stats::OpStats;
use crate::Flow;
use std::collections::VecDeque;

/// A layered (level) network over the residual graph, as in Fig. 8(b).
#[derive(Debug, Clone)]
pub struct LayeredNetwork {
    /// `level[v] = Some(k)` iff `v` appears in layer `k`.
    level: Vec<Option<u32>>,
    /// Nodes grouped by layer, `layers\[0\] == [source]`.
    layers: Vec<Vec<NodeId>>,
    /// Whether the sink was reached (if not, the current flow is maximum).
    reaches_sink: bool,
}

impl LayeredNetwork {
    /// Build the layered network for the current residual graph of `g`.
    ///
    /// Layer 0 is `{s}`; layer `k+1` contains nodes not in earlier layers
    /// that are reachable over a useful arc from layer `k`. Construction
    /// stops expanding past the layer containing `t` (the paper stops the
    /// request-token phase "when one or more RS's has received a token").
    pub fn build(g: &FlowNetwork, s: NodeId, t: NodeId, stats: &mut OpStats) -> Self {
        stats.phases += 1;
        let mut level: Vec<Option<u32>> = vec![None; g.num_nodes()];
        let mut layers: Vec<Vec<NodeId>> = vec![vec![s]];
        level[s.index()] = Some(0);
        let mut queue = VecDeque::new();
        queue.push_back(s);
        let mut sink_level: Option<u32> = if s == t { Some(0) } else { None };
        while let Some(u) = queue.pop_front() {
            stats.node_visits += 1;
            stats.level_node_visits += 1;
            let lu = level[u.index()].unwrap();
            // Do not expand nodes at or beyond the sink layer.
            if let Some(sl) = sink_level {
                if lu >= sl {
                    continue;
                }
            }
            for a in g.out_arcs(u) {
                stats.arc_scans += 1;
                stats.level_arc_scans += 1;
                let arc = g.arc(a);
                if arc.residual() > 0 && level[arc.to.index()].is_none() {
                    let lv = lu + 1;
                    level[arc.to.index()] = Some(lv);
                    if layers.len() as u32 <= lv {
                        layers.push(Vec::new());
                    }
                    layers[lv as usize].push(arc.to);
                    if arc.to == t {
                        sink_level = Some(lv);
                    }
                    queue.push_back(arc.to);
                }
            }
        }
        let reaches_sink = level[t.index()].is_some();
        LayeredNetwork {
            level,
            layers,
            reaches_sink,
        }
    }

    /// Layer index of a node, if it appears in the layered network.
    pub fn level(&self, n: NodeId) -> Option<u32> {
        self.level[n.index()]
    }

    /// Nodes grouped by layer; `layers()\[0\]` is the source layer.
    pub fn layers(&self) -> &[Vec<NodeId>] {
        &self.layers
    }

    /// Number of layers (= shortest augmenting path length + 1 when the sink
    /// is reachable).
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// True when the sink appears in some layer (an augmenting path exists).
    pub fn reaches_sink(&self) -> bool {
        self.reaches_sink
    }

    /// Whether a residual arc belongs to the layered network ("useful link"
    /// in the paper: positive residual and pointing to the next layer).
    pub fn contains_arc(&self, g: &FlowNetwork, a: ArcId) -> bool {
        let arc = g.arc(a);
        if arc.residual() <= 0 {
            return false;
        }
        match (self.level(arc.from), self.level(arc.to)) {
            (Some(lu), Some(lv)) => lv == lu + 1,
            _ => false,
        }
    }
}

/// Which end of the network a solve's BFS labels count distance from.
///
/// Either side yields the same augmenting paths: the DFS starts at `s` and
/// only ever steps to a node one label closer to `t`, and every s–t path it
/// can complete is a shortest one, taken in CSR order. The sides differ in
/// what the DFS can walk into. Source-side labels admit arcs into nodes
/// that lead nowhere near `t`, so the DFS walks into dead ends and retreats;
/// sink-side labels admit only arcs on a shortest s–t path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LabelSide {
    /// Distance from `s` over residual arcs: the paper's layered network.
    Source,
    /// Distance to `t` over residual arcs, searched from `t` over reverse
    /// residual arcs (the paper's resource tokens travelling back).
    Sink,
}

/// BFS labelling into `scratch.level` (sentinel [`UNLEVELLED`]), one body
/// per label side. From the source side (`FROM_SINK == false`): the
/// traversal, sink-layer cutoff and operation counts of
/// [`LayeredNetwork::build`]. From the sink side: the mirror image, from
/// `t` over reverse residual arcs (read as `pair_cap - res` on the slot's
/// own lane, so no walk through the `arc_pos` permutation), cut off at the
/// source's layer. The frontier is a flat list read by a head index: every
/// node it holds is popped exactly once, so the visit count is its length,
/// and an expanded node's slots are counted in one add. Returns `true`
/// when the far end was labelled, i.e. an augmenting path exists. Requires
/// `s != t`.
fn level_residual<const FROM_SINK: bool>(
    g: &FlowNetwork,
    s: NodeId,
    t: NodeId,
    scratch: &mut SolveScratch,
    stats: &mut OpStats,
) -> bool {
    stats.phases += 1;
    let n = g.num_nodes();
    let (root, goal) = if FROM_SINK { (t, s) } else { (s, t) };
    let SolveScratch {
        level, frontier, ..
    } = scratch;
    level[..n].fill(UNLEVELLED);
    level[root.index()] = 0;
    frontier.clear();
    frontier.reserve(n);
    frontier.push(root);
    // `UNLEVELLED` doubles as "goal not seen yet": no reachable node's level
    // can compare >= to it, so the cutoff below only bites once it is found.
    let mut goal_level = UNLEVELLED;
    let (offsets, hot, pair_caps) = (g.csr_offsets(), g.hot_arcs(), g.pair_caps());
    let mut scans = 0;
    let mut popped = 0;
    while let Some(&u) = frontier.get(popped) {
        popped += 1;
        let lu = level[u.index()];
        // Do not expand nodes at or beyond the goal's layer.
        if lu >= goal_level {
            continue;
        }
        let (lo, hi) = (offsets[u.index()] as usize, offsets[u.index() + 1] as usize);
        scans += hi - lo;
        // The source side never reads `pair_cap`, so its load folds away.
        for (h, &pair_cap) in hot[lo..hi].iter().zip(&pair_caps[lo..hi]) {
            let res = if FROM_SINK { pair_cap - h.res } else { h.res };
            if res > 0 && level[h.head.index()] == UNLEVELLED {
                let lv = lu + 1;
                level[h.head.index()] = lv;
                if h.head == goal {
                    goal_level = lv;
                }
                frontier.push(h.head);
            }
        }
    }
    stats.node_visits += popped as u64;
    stats.level_node_visits += popped as u64;
    stats.arc_scans += scans as u64;
    stats.level_arc_scans += scans as u64;
    level[goal.index()] != UNLEVELLED
}

/// Find a *maximal* flow over the labelled arcs by DFS from `s` with
/// current-arc pointers, pushing it into `g`. Returns the value advanced.
/// An arc is admissible when it has residual capacity and its head is one
/// label closer to `t`: one more than its tail's label from the source
/// side, one less from the sink side. Reads the labels written by
/// [`level_residual`] and reuses the DFS buffers in `scratch`.
///
/// Everything is addressed by CSR slot: each node's current-arc pointer is
/// an absolute slot, seeded from the CSR offsets, and the DFS stack holds
/// the slot taken plus the node it left. Bottleneck, push, retreat and
/// backtracking read the hot lane at those slots; only the push's write to
/// the twin goes through the `arc_pos` permutation.
///
/// Each augmenting path's arc ids are appended to `scratch.paths` as it is
/// pushed, and a push of more than one unit clears `scratch.unit_pushes`:
/// a one-pass solve's record is then its flow's decomposition
/// ([`SolveScratch::one_pass_paths`]).
fn blocking_flow<const FROM_SINK: bool>(
    g: &mut FlowNetwork,
    s: NodeId,
    t: NodeId,
    scratch: &mut SolveScratch,
    stats: &mut OpStats,
) -> Flow {
    let n = g.num_nodes();
    // One step closer to t, as a wrapping add: +1 or -1. The DFS stands
    // only on labelled nodes other than t, so neither step wraps.
    let step = if FROM_SINK { u32::MAX } else { 1 };
    let SolveScratch {
        level,
        next_slot,
        steps,
        paths,
        unit_pushes,
        ..
    } = scratch;
    let (offsets, hot, arc_pos) = g.slot_lanes_mut();
    // Current-arc pointer per node: slots before it are exhausted.
    next_slot[..n].copy_from_slice(&offsets[..n]);
    let (mut total, mut scans, mut retreats, mut augmentations) = (0, 0, 0, 0);
    steps.clear();
    let mut u = s;
    loop {
        if u == t {
            // Found a shortest s-t path; push its bottleneck.
            let bottleneck = steps
                .iter()
                .map(|&(slot, _)| hot[slot as usize].res)
                .min()
                .expect("s != t, so the path has an arc");
            for &(slot, _) in steps.iter() {
                let h = &mut hot[slot as usize];
                h.res -= bottleneck;
                let twin = arc_pos[h.id.twin().index()] as usize;
                hot[twin].res += bottleneck;
            }
            // Recorded after the push loop: a `Vec` push inside it slowed
            // the DFS (EXPERIMENTS.md ONE-PASS).
            paths.extend(steps.iter().map(|&(slot, _)| hot[slot as usize].id));
            *unit_pushes &= bottleneck == 1;
            total += bottleneck;
            augmentations += 1;
            // Retreat to the tail of the first saturated arc on the path.
            let first_full = steps
                .iter()
                .position(|&(slot, _)| hot[slot as usize].res == 0)
                .expect("the bottleneck arc is saturated");
            u = steps[first_full].1;
            steps.truncate(first_full);
            continue;
        }
        // Advance over the next admissible ("useful") arc out of u, one
        // 16-byte slot per probe.
        let closer = level[u.index()].wrapping_add(step);
        let end = offsets[u.index() + 1];
        let mut slot = next_slot[u.index()];
        while slot < end {
            let h = hot[slot as usize];
            scans += 1;
            if h.res > 0 && level[h.head.index()] == closer {
                break;
            }
            slot += 1;
        }
        next_slot[u.index()] = slot;
        if slot < end {
            steps.push((slot, u));
            u = hot[slot as usize].head;
            continue;
        }
        // Dead end: retreat (or finish if at the source).
        if u == s {
            break;
        }
        retreats += 1;
        let (slot, prev) = steps.pop().expect("retreat below source");
        // Exhaust the arc we came through so we never retry this dead end.
        // Each retreat moves a pointer past a slot for good, so a phase
        // retreats at most once per slot.
        next_slot[prev.index()] = slot + 1;
        debug_assert!(retreats <= hot.len() as u64, "a dead end was retried");
        u = prev;
    }
    stats.arc_scans += scans;
    stats.node_visits += retreats;
    stats.augmentations += augmentations;
    total
}

/// What one pass over `s`'s and `t`'s slots tells a solve.
struct Ends {
    /// Residual capacity out of `s`: the capacity of the cut `{s}`.
    out_of_s: Flow,
    /// Residual capacity into `t`: the capacity of the cut `V - {t}`.
    into_t: Flow,
    /// Flow on the arcs at `s`, in and out (counted when `IDLE`).
    s_flow: Flow,
    /// Closed (capacity-0) forward arcs with an end at `s` or `t`, each
    /// counted once on a network without self-loops (counted when `IDLE`).
    closed: usize,
}

/// One straight pass over `s`'s and `t`'s slots, once per solve: the cut
/// capacities, so the flow a solve can still add is at most the smaller
/// of the two. With `IDLE` the same pass also sums the flow at `s` and
/// counts the closed arcs at either end, which the graded first phase
/// needs (§14.9); an arc between `s` and `t` has a slot at both, and
/// `t`'s side skips the slots whose head is `s`. [`OpStats`] counts
/// search work, so the pass is not counted.
fn end_residuals<const IDLE: bool>(g: &FlowNetwork, s: NodeId, t: NodeId) -> Ends {
    let (hot, pair_caps) = (g.hot_arcs(), g.pair_caps());
    let (rs, rt) = (g.out_range(s), g.out_range(t));
    let mut ends = Ends {
        out_of_s: 0,
        into_t: 0,
        s_flow: 0,
        closed: 0,
    };
    for (h, &pair_cap) in hot[rs.clone()].iter().zip(&pair_caps[rs]) {
        ends.out_of_s += h.res;
        if IDLE {
            // A forward slot's flow is `pair_cap - res`, a twin's its `res`.
            ends.s_flow += if h.id.is_forward() {
                pair_cap - h.res
            } else {
                h.res
            };
            ends.closed += usize::from(pair_cap == 0);
        }
    }
    for (h, &pair_cap) in hot[rt.clone()].iter().zip(&pair_caps[rt]) {
        ends.into_t += pair_cap - h.res;
        if IDLE {
            ends.closed += usize::from(pair_cap == 0 && h.head != s);
        }
    }
    ends
}

/// Compute a maximum `s`→`t` flow with Dinic's algorithm.
pub fn solve(g: &mut FlowNetwork, s: NodeId, t: NodeId) -> MaxFlowResult {
    solve_with(g, s, t, &mut SolveScratch::new())
}

/// [`solve`] with caller-provided scratch buffers: identical results and
/// [`OpStats`], allocation-free after the first call on a given node count.
/// The solve leaves its augmenting paths and pass count in `scratch`
/// ([`SolveScratch::one_pass_paths`]).
pub fn solve_with(
    g: &mut FlowNetwork,
    s: NodeId,
    t: NodeId,
    scratch: &mut SolveScratch,
) -> MaxFlowResult {
    solve_probed(g, s, t, scratch, &rsin_obs::NoopProbe)
}

/// [`solve_with`] reporting each of Dinic's two alternating phases to a
/// telemetry probe: every labelling search is timed into
/// [`rsin_obs::Hist::DinicLevelPhaseNs`] and every blocking-flow pass into
/// [`rsin_obs::Hist::DinicBlockingPhaseNs`], so the BFS-vs-DFS split of a
/// solve is visible per phase, not just in aggregate. Identical results and
/// [`OpStats`] to [`solve_with`]; under [`rsin_obs::NoopProbe`] the spans
/// never read the clock and this monomorphizes to plain [`solve_with`].
///
/// Labels run from the smaller end: from `t` when the residual capacity
/// into `t` is at most that out of `s`, else from `s`. The solve stops
/// without a final search once the flow it added meets the smaller of the
/// two (the cut bound). A solve from zero flow on a graded network with no
/// closed interior arc takes the grading as its first phase's labels
/// ([`SolveScratch::graded_first_phase`]); that phase is timed as a
/// blocking-flow pass only.
pub fn solve_probed<P: rsin_obs::Probe + ?Sized>(
    g: &mut FlowNetwork,
    s: NodeId,
    t: NodeId,
    scratch: &mut SolveScratch,
    probe: &P,
) -> MaxFlowResult {
    solve_labelled(g, s, t, None, scratch, probe)
}

/// [`solve_probed`] with the label side forced (`Some`) or chosen from the
/// end residuals (`None`). Every side gives the same flow.
pub(crate) fn solve_labelled<P: rsin_obs::Probe + ?Sized>(
    g: &mut FlowNetwork,
    s: NodeId,
    t: NodeId,
    side: Option<LabelSide>,
    scratch: &mut SolveScratch,
    probe: &P,
) -> MaxFlowResult {
    scratch.paths.clear();
    scratch.passes = 0;
    scratch.unit_pushes = true;
    scratch.graded = false;
    let mut stats = OpStats::new();
    if s == t {
        return MaxFlowResult { value: 0, stats };
    }
    scratch.ensure_nodes(g.num_nodes());
    // The graded first phase needs a graded network with no closed
    // interior arc. If there are more closed arcs than `s` and `t` have
    // slots, some are interior: a test in O(1) before the end pass counts.
    let slots_at_ends = g.out_range(s).len() + g.out_range(t).len();
    let may_grade = g.grading().is_some() && g.closed_arcs() <= slots_at_ends;
    let ends = if may_grade {
        end_residuals::<true>(g, s, t)
    } else {
        end_residuals::<false>(g, s, t)
    };
    let side = side.unwrap_or(if ends.into_t <= ends.out_of_s {
        LabelSide::Sink
    } else {
        LabelSide::Source
    });
    // A shortest augmenting path leaves s once and enters t once, so each
    // unit added spends one unit of both end residuals.
    let bound = ends.out_of_s.min(ends.into_t);
    // In a graded network (acyclic) no flow at s means no flow anywhere.
    // Closed interior arcs are held or failed links: there the sink-side
    // labels prune dead regions that the grading would let the DFS walk.
    let graded = may_grade && ends.s_flow == 0 && bound > 0 && g.closed_arcs() == ends.closed;
    let mut value = 0;
    if graded {
        let span = probe.start();
        value = graded_phase(g, s, t, scratch, &mut stats);
        probe.finish(span, rsin_obs::Hist::DinicBlockingPhaseNs);
        if value == 0 {
            // The DFS covered everything reachable from s: t is not.
            return MaxFlowResult { value, stats };
        }
    }
    let rest = bound - value;
    value += match side {
        LabelSide::Source => run_phases::<false, P>(g, s, t, rest, scratch, &mut stats, probe),
        LabelSide::Sink => run_phases::<true, P>(g, s, t, rest, scratch, &mut stats, probe),
    };
    MaxFlowResult { value, stats }
}

/// The first phase of a solve from zero flow on a graded network: the
/// grading is copied in as the labels, with no search, and the
/// source-side DFS runs over it (DESIGN.md §14.9). At zero flow the
/// residual arcs are the open forward arcs, and each of them rises one
/// grade, so every node reachable from `s` is labelled with its distance
/// from `s` (shifted by `s`'s grade). The DFS therefore completes the
/// augmenting paths, in the order, that it completes after either side's
/// search; the grading only admits more dead ends, which it walks into and
/// retreats from. Counts one phase, and a pass when it pushed flow.
/// Returns the flow pushed; 0 means `t` is out of reach.
fn graded_phase(
    g: &mut FlowNetwork,
    s: NodeId,
    t: NodeId,
    scratch: &mut SolveScratch,
    stats: &mut OpStats,
) -> Flow {
    stats.phases += 1;
    let n = g.num_nodes();
    let grading = g.grading().expect("graded_phase needs a graded network");
    scratch.level[..n].copy_from_slice(grading);
    scratch.graded = true;
    let pushed = blocking_flow::<false>(g, s, t, scratch, stats);
    scratch.passes += u32::from(pushed > 0);
    pushed
}

/// Alternate labelling and blocking flow from one side until a search
/// fails to reach the far end or the flow added meets `bound`, counting
/// the blocking-flow passes in `scratch.passes`. Returns the flow added.
fn run_phases<const FROM_SINK: bool, P: rsin_obs::Probe + ?Sized>(
    g: &mut FlowNetwork,
    s: NodeId,
    t: NodeId,
    bound: Flow,
    scratch: &mut SolveScratch,
    stats: &mut OpStats,
    probe: &P,
) -> Flow {
    let mut value = 0;
    while value < bound {
        let span = probe.start();
        let reached = level_residual::<FROM_SINK>(g, s, t, scratch, stats);
        probe.finish(span, rsin_obs::Hist::DinicLevelPhaseNs);
        if !reached {
            break;
        }
        let span = probe.start();
        let pushed = blocking_flow::<FROM_SINK>(g, s, t, scratch, stats);
        probe.finish(span, rsin_obs::Hist::DinicBlockingPhaseNs);
        scratch.passes += 1;
        debug_assert!(
            pushed > 0,
            "labels reached the far end but no path was found"
        );
        value += pushed;
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::FlowNetworkBuilder;
    use crate::path::{for_each_unit_path, PathWalk};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The source-labelled Dinic this module ran before labels could come
    /// from the sink side and before the cut-bound stop, kept as the
    /// exact-path oracle for [`solve_labelled`]: each phase is a
    /// [`LayeredNetwork::build`] (BFS from `s` cut off at the sink's layer),
    /// then a DFS with current-arc pointers into every arc the layered
    /// network contains (dead ends included), until a phase fails to reach
    /// `t`.
    fn reference_solve(g: &mut FlowNetwork, s: NodeId, t: NodeId) -> MaxFlowResult {
        let mut stats = OpStats::new();
        let mut value = 0;
        loop {
            let layered = LayeredNetwork::build(g, s, t, &mut stats);
            if !layered.reaches_sink() {
                break;
            }
            let mut next_arc = vec![0; g.num_nodes()];
            let mut path: Vec<ArcId> = Vec::new();
            let mut u = s;
            loop {
                if u == t {
                    let bottleneck = path.iter().map(|&a| g.residual(a)).min().unwrap();
                    for &a in &path {
                        g.push(a, bottleneck);
                    }
                    value += bottleneck;
                    stats.augmentations += 1;
                    // Retreat to the tail of the first saturated arc.
                    let first_full = path.iter().position(|&a| g.residual(a) == 0);
                    path.truncate(first_full.unwrap());
                    u = path.last().map_or(s, |&a| g.head(a));
                    continue;
                }
                let out: Vec<ArcId> = g.out_arcs(u).collect();
                let i = &mut next_arc[u.index()];
                while *i < out.len() && !layered.contains_arc(g, out[*i]) {
                    *i += 1;
                }
                if let Some(&a) = out.get(*i) {
                    path.push(a);
                    u = g.head(a);
                } else if let Some(a) = path.pop() {
                    u = g.tail(a);
                    next_arc[u.index()] += 1;
                } else {
                    break;
                }
            }
        }
        MaxFlowResult { value, stats }
    }

    /// Buffers of the arc-id kernels below.
    #[derive(Default)]
    struct ArcIdScratch {
        level: Vec<u32>,
        queue: VecDeque<NodeId>,
        next_arc: Vec<usize>,
        path: Vec<ArcId>,
    }

    /// [`solve_labelled`] as it ran before its kernels addressed CSR slots,
    /// kept as the exact-order oracle for them: the same side rule and
    /// cut-bound stop around the arc-id level search and DFS below, which
    /// branch on the side per slot, pop a `VecDeque`, count one scan and
    /// one visit at a time, and read bottleneck, push, retreat and tail by
    /// arc id.
    fn arc_id_solve_labelled(
        g: &mut FlowNetwork,
        s: NodeId,
        t: NodeId,
        side: Option<LabelSide>,
    ) -> MaxFlowResult {
        let mut stats = OpStats::new();
        let mut value = 0;
        if s == t {
            return MaxFlowResult { value, stats };
        }
        let n = g.num_nodes();
        let mut scratch = ArcIdScratch {
            level: vec![UNLEVELLED; n],
            next_arc: vec![0; n],
            ..ArcIdScratch::default()
        };
        let ends = end_residuals::<false>(g, s, t);
        let side = side.unwrap_or(if ends.into_t <= ends.out_of_s {
            LabelSide::Sink
        } else {
            LabelSide::Source
        });
        let bound = ends.out_of_s.min(ends.into_t);
        while value < bound {
            if !arc_id_level_residual(g, s, t, side, &mut scratch, &mut stats) {
                break;
            }
            value += arc_id_blocking_flow(g, s, t, side, &mut scratch, &mut stats);
        }
        MaxFlowResult { value, stats }
    }

    /// The arc-id level search of [`arc_id_solve_labelled`].
    fn arc_id_level_residual(
        g: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        side: LabelSide,
        scratch: &mut ArcIdScratch,
        stats: &mut OpStats,
    ) -> bool {
        stats.phases += 1;
        let n = g.num_nodes();
        let (root, goal) = match side {
            LabelSide::Source => (s, t),
            LabelSide::Sink => (t, s),
        };
        let ArcIdScratch { level, queue, .. } = scratch;
        level[..n].fill(UNLEVELLED);
        level[root.index()] = 0;
        queue.clear();
        queue.push_back(root);
        let mut goal_level = UNLEVELLED;
        let (hot, pair_caps) = (g.hot_arcs(), g.pair_caps());
        while let Some(u) = queue.pop_front() {
            stats.node_visits += 1;
            stats.level_node_visits += 1;
            let lu = level[u.index()];
            if lu >= goal_level {
                continue;
            }
            let r = g.out_range(u);
            for (h, &pair_cap) in hot[r.clone()].iter().zip(&pair_caps[r]) {
                stats.arc_scans += 1;
                stats.level_arc_scans += 1;
                let res = match side {
                    LabelSide::Source => h.res,
                    LabelSide::Sink => pair_cap - h.res,
                };
                if res > 0 {
                    let to = h.head;
                    if level[to.index()] == UNLEVELLED {
                        let lv = lu + 1;
                        level[to.index()] = lv;
                        if to == goal {
                            goal_level = lv;
                        }
                        queue.push_back(to);
                    }
                }
            }
        }
        level[goal.index()] != UNLEVELLED
    }

    /// The arc-id DFS of [`arc_id_solve_labelled`].
    fn arc_id_blocking_flow(
        g: &mut FlowNetwork,
        s: NodeId,
        t: NodeId,
        side: LabelSide,
        scratch: &mut ArcIdScratch,
        stats: &mut OpStats,
    ) -> Flow {
        let n = g.num_nodes();
        let step = match side {
            LabelSide::Source => 1,
            LabelSide::Sink => u32::MAX,
        };
        let ArcIdScratch {
            level,
            next_arc,
            path,
            ..
        } = scratch;
        next_arc[..n].fill(0);
        let mut total = 0;
        path.clear();
        let mut u = s;
        loop {
            if u == t {
                let mut bottleneck = Flow::MAX;
                for &a in path.iter() {
                    bottleneck = bottleneck.min(g.residual(a));
                }
                for &a in path.iter() {
                    g.push(a, bottleneck);
                }
                total += bottleneck;
                stats.augmentations += 1;
                let mut retreat_to = 0;
                for (i, &a) in path.iter().enumerate() {
                    if g.residual(a) == 0 {
                        retreat_to = i;
                        break;
                    }
                }
                path.truncate(retreat_to);
                u = if let Some(&a) = path.last() {
                    g.head(a)
                } else {
                    s
                };
                continue;
            }
            let range = g.out_range(u);
            let hots = &g.hot_arcs()[range];
            let closer = level[u.index()].wrapping_add(step);
            let mut advanced = false;
            while next_arc[u.index()] < hots.len() {
                let h = hots[next_arc[u.index()]];
                stats.arc_scans += 1;
                if h.res > 0 && level[h.head.index()] == closer {
                    path.push(h.id);
                    u = h.head;
                    advanced = true;
                    break;
                }
                next_arc[u.index()] += 1;
            }
            if advanced {
                continue;
            }
            if u == s {
                break;
            }
            stats.node_visits += 1;
            let a = path.pop().expect("retreat below source");
            let prev = g.tail(a);
            next_arc[prev.index()] += 1;
            u = prev;
        }
        total
    }

    /// A random network on `s = 0`, `t = 1` and up to eight more nodes:
    /// capacities 0–4, parallel arcs, cycles, self-loops, arcs into `s` and
    /// out of `t`. Half the time it carries a prior (warm-start) flow: a
    /// partial max flow, routed with some arcs narrowed and then widened
    /// back, plus one unit around a cycle through `s` and one through `t`.
    fn random_network(seed: u64) -> (FlowNetwork, NodeId, NodeId) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = FlowNetworkBuilder::new();
        let n = rng.random_range(2..11u32);
        let nodes: Vec<NodeId> = (0..n).map(|i| b.add_node(format!("n{i}"))).collect();
        let (s, t) = (nodes[0], nodes[1]);
        let mut arcs = Vec::new();
        for _ in 0..rng.random_range(0..4 * n as usize) {
            let from = nodes[rng.random_range(0..n as usize)];
            let to = nodes[rng.random_range(0..n as usize)];
            let cap = rng.random_range(0..5);
            arcs.push((b.add_arc(from, to, cap, 0), cap));
        }
        if !rng.random_bool(0.5) {
            return (b.build(), s, t);
        }
        let narrowed: Vec<Flow> = arcs
            .iter()
            .map(|&(_, cap)| rng.random_range(0..=cap))
            .collect();
        // The cycle arcs exist from the start, closed until the partial
        // flow is routed.
        let x = nodes[rng.random_range(0..n as usize)];
        let mut cycles = Vec::new();
        for end in [s, t] {
            if x != s && x != t {
                cycles.push(b.add_arc(end, x, 0, 0));
                cycles.push(b.add_arc(x, end, 0, 0));
            }
        }
        let mut g = b.build();
        for (&(a, _), &cap) in arcs.iter().zip(&narrowed) {
            g.set_cap(a, cap);
        }
        reference_solve(&mut g, s, t);
        for &(a, cap) in &arcs {
            g.set_cap(a, cap);
        }
        for a in cycles {
            g.set_cap(a, 1);
            g.push(a, 1);
        }
        (g, s, t)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Each label side, and the automatic choice, advances exactly the
        /// reference's augmenting paths: the same value, the same number of
        /// augmentations and the same flow on every arc.
        #[test]
        fn every_label_side_matches_the_source_labelled_reference(seed in 0u64..u64::MAX) {
            let (g, s, t) = random_network(seed);
            let mut want_g = g.clone();
            let want = reference_solve(&mut want_g, s, t);
            let mut scratch = SolveScratch::new();
            for side in [None, Some(LabelSide::Source), Some(LabelSide::Sink)] {
                let mut got_g = g.clone();
                let got = solve_labelled(&mut got_g, s, t, side, &mut scratch, &rsin_obs::NoopProbe);
                prop_assert_eq!(got.value, want.value, "{:?}", side);
                prop_assert_eq!(got.stats.augmentations, want.stats.augmentations, "{:?}", side);
                for (a, arc) in want_g.forward_arcs() {
                    prop_assert_eq!(got_g.arc_flow(a), arc.flow, "{:?} arc {:?}", side, a);
                }
                prop_assert!(got.stats.phases <= want.stats.phases, "{:?}", side);
            }
        }

        /// The slot kernels are the arc-id kernels they replaced, step for
        /// step: on each label side and the automatic choice, the same
        /// value, all six `OpStats` fields and the same flow on every arc
        /// (the random networks carry parallel arcs, self-loops, arcs into
        /// `s` and out of `t`, and half the time a warm-start flow). The
        /// scratch is shared across sides and seeds, as a reusing caller's
        /// would be. The arc-id kernels always search, so a solve that took
        /// the graded first phase (DESIGN.md §14.9) matches them in value,
        /// flow, augmentations and phases, but not in search counts.
        #[test]
        fn slot_kernels_match_the_arc_id_kernels_exactly(seed in 0u64..u64::MAX) {
            let (g, s, t) = random_network(seed);
            let mut scratch = SolveScratch::new();
            for side in [None, Some(LabelSide::Source), Some(LabelSide::Sink)] {
                let mut want_g = g.clone();
                let want = arc_id_solve_labelled(&mut want_g, s, t, side);
                let mut got_g = g.clone();
                let got = solve_labelled(&mut got_g, s, t, side, &mut scratch, &rsin_obs::NoopProbe);
                prop_assert_eq!(got.value, want.value, "{:?}", side);
                if scratch.graded_first_phase() {
                    prop_assert_eq!(got.stats.augmentations, want.stats.augmentations, "{:?}", side);
                    prop_assert_eq!(got.stats.phases, want.stats.phases, "{:?}", side);
                } else {
                    prop_assert_eq!(got.stats, want.stats, "{:?}", side);
                }
                for (a, arc) in want_g.forward_arcs() {
                    prop_assert_eq!(got_g.arc_flow(a), arc.flow, "{:?} arc {:?}", side, a);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A solve from zero flow that ran at most one blocking-flow pass
        /// and pushed one unit per augmenting path leaves those paths as
        /// its flow's unit-path decomposition: on each label side and the
        /// automatic choice, the record is the walk's `carried()` trail,
        /// path for path and in order. Any other solve (a second pass, a
        /// wider push) offers no record. The random networks carry
        /// capacities 0–4, parallel arcs, cycles, self-loops, arcs into `s`
        /// and out of `t`.
        #[test]
        fn one_pass_record_is_the_unit_path_walk(seed in 0u64..u64::MAX) {
            let (mut g, s, t) = random_network(seed);
            g.reset();
            let ends = end_residuals::<false>(&g, s, t);
            let mut scratch = SolveScratch::new();
            for side in [None, Some(LabelSide::Source), Some(LabelSide::Sink)] {
                let mut solved = g.clone();
                let r = solve_labelled(&mut solved, s, t, side, &mut scratch, &rsin_obs::NoopProbe);
                // Below the cut bound the last search found nothing.
                let passes = r.stats.phases - u64::from(r.value < ends.out_of_s.min(ends.into_t));
                let unit_pushes = r.value == r.stats.augmentations as Flow;
                let recorded = scratch.one_pass_paths();
                prop_assert_eq!(recorded.is_some(), passes <= 1 && unit_pushes, "{:?}", side);
                if let Some(paths) = recorded {
                    let mut walk = PathWalk::default();
                    for_each_unit_path(&solved, s, t, None, &mut walk, |_| Ok::<(), ()>(()))
                        .unwrap();
                    prop_assert_eq!(walk.carried(), Some(paths), "{:?}", side);
                }
            }
        }
    }

    /// A random graded network: 1–3 nodes on each grade `0..=depth + 2`,
    /// `s` on grade 1 and `t` usually on grade `depth + 1` (sometimes on
    /// grade 0, out of reach), and arcs of capacity 1–2 between random
    /// nodes of consecutive grades, parallel ones included. So `s` has arcs
    /// in and `t` arcs out. Arcs with an end at `s` or `t` are closed at
    /// random; half the networks close interior arcs too, and a quarter
    /// carry a warm-start flow.
    fn random_graded_network(seed: u64) -> (FlowNetwork, NodeId, NodeId) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = FlowNetworkBuilder::new();
        let depth = rng.random_range(1..6usize);
        let mut grades: Vec<Vec<NodeId>> = vec![Vec::new(); depth + 3];
        let s = b.add_node("s");
        let t = b.add_node("t");
        grades[1].push(s);
        grades[if rng.random_bool(0.9) { depth + 1 } else { 0 }].push(t);
        for (k, nodes) in grades.iter_mut().enumerate() {
            for i in 0..rng.random_range(1..4) {
                nodes.push(b.add_node(format!("g{k}.{i}")));
            }
        }
        let mut arcs = Vec::new();
        for k in 0..=depth + 1 {
            for _ in 0..rng.random_range(0..3 * grades[k].len()) {
                let from = grades[k][rng.random_range(0..grades[k].len())];
                let to = grades[k + 1][rng.random_range(0..grades[k + 1].len())];
                let cap = rng.random_range(1..=2);
                arcs.push((b.add_arc(from, to, cap, 0), from, to, cap));
            }
        }
        let mut g = b.build();
        assert!(g.grading().is_some(), "arcs join consecutive grades");
        let close_interior = rng.random_bool(0.5);
        for &(a, from, to, _) in &arcs {
            let boundary = [from, to].iter().any(|&n| n == s || n == t);
            let p = if boundary {
                0.3
            } else if close_interior {
                0.2
            } else {
                0.0
            };
            if rng.random_bool(p) {
                g.set_cap(a, 0);
            }
        }
        if rng.random_bool(0.25) {
            let caps: Vec<Flow> = arcs.iter().map(|&(a, ..)| g.cap(a)).collect();
            for &(a, ..) in &arcs {
                let narrowed = rng.random_range(0..=g.cap(a));
                g.set_cap(a, narrowed);
            }
            reference_solve(&mut g, s, t);
            for (&(a, ..), &cap) in arcs.iter().zip(&caps) {
                g.set_cap(a, cap);
            }
        }
        (g, s, t)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The graded first phase (DESIGN.md §14.9) is the searched one
        /// with other op counts: on each label side and the automatic
        /// choice, a solve of a random graded network equals the solve of
        /// the same network with its grading removed in value, flow on
        /// every arc, augmentations, phases, passes and one-pass record. It
        /// takes the grading exactly when no arc carries flow, the cut
        /// bound is positive and every closed arc ends at `s` or `t`.
        #[test]
        fn graded_first_phase_matches_the_searched_one(seed in 0u64..u64::MAX) {
            let (g, s, t) = random_graded_network(seed);
            let searched = g.clone().without_grading();
            let ends = [s, t];
            let idle = g.forward_arcs().all(|(_, a)| a.flow == 0);
            let interior_closed = g
                .forward_arcs()
                .any(|(_, a)| a.cap == 0 && !ends.contains(&a.from) && !ends.contains(&a.to));
            let cut = |out: bool| -> Flow {
                g.forward_arcs()
                    .filter(|(_, a)| if out { a.from == s } else { a.to == t })
                    .map(|(_, a)| a.cap)
                    .sum()
            };
            let qualifies = idle && !interior_closed && cut(true).min(cut(false)) > 0;
            let (mut got_scratch, mut want_scratch) = (SolveScratch::new(), SolveScratch::new());
            for side in [None, Some(LabelSide::Source), Some(LabelSide::Sink)] {
                let mut got_g = g.clone();
                let got = solve_labelled(&mut got_g, s, t, side, &mut got_scratch, &rsin_obs::NoopProbe);
                let mut want_g = searched.clone();
                let want =
                    solve_labelled(&mut want_g, s, t, side, &mut want_scratch, &rsin_obs::NoopProbe);
                prop_assert_eq!(got_scratch.graded_first_phase(), qualifies, "{:?}", side);
                prop_assert!(!want_scratch.graded_first_phase());
                prop_assert_eq!(got.value, want.value, "{:?}", side);
                for (a, arc) in want_g.forward_arcs() {
                    prop_assert_eq!(got_g.arc_flow(a), arc.flow, "{:?} arc {:?}", side, a);
                }
                prop_assert_eq!(got.stats.augmentations, want.stats.augmentations, "{:?}", side);
                prop_assert_eq!(got.stats.phases, want.stats.phases, "{:?}", side);
                prop_assert_eq!(got_scratch.passes, want_scratch.passes, "{:?}", side);
                prop_assert_eq!(
                    got_scratch.one_pass_paths(),
                    want_scratch.one_pass_paths(),
                    "{:?}",
                    side
                );
                if !qualifies {
                    prop_assert_eq!(got.stats, want.stats, "{:?}", side);
                }
            }
        }
    }

    #[test]
    fn layered_network_levels_are_bfs_distances() {
        let mut g = FlowNetworkBuilder::new();
        let s = g.add_node("s");
        let a = g.add_node("a");
        let b = g.add_node("b");
        let t = g.add_node("t");
        g.add_arc(s, a, 1, 0);
        g.add_arc(a, b, 1, 0);
        g.add_arc(b, t, 1, 0);
        g.add_arc(s, b, 1, 0); // shortcut
        let g = g.build();
        let mut st = OpStats::new();
        let ln = LayeredNetwork::build(&g, s, t, &mut st);
        assert_eq!(ln.level(s), Some(0));
        assert_eq!(ln.level(a), Some(1));
        assert_eq!(ln.level(b), Some(1));
        assert_eq!(ln.level(t), Some(2));
        assert_eq!(ln.depth(), 3);
        assert!(ln.reaches_sink());
        assert_eq!(st.phases, 1);
    }

    #[test]
    fn layered_network_stops_at_sink_layer() {
        // A node strictly beyond the sink's layer must not be levelled.
        let mut g = FlowNetworkBuilder::new();
        let s = g.add_node("s");
        let t = g.add_node("t");
        let far = g.add_node("far");
        g.add_arc(s, t, 1, 0);
        g.add_arc(t, far, 1, 0);
        let g = g.build();
        let mut st = OpStats::new();
        let ln = LayeredNetwork::build(&g, s, t, &mut st);
        assert_eq!(ln.level(t), Some(1));
        assert_eq!(ln.level(far), None);
    }

    #[test]
    fn contains_arc_requires_consecutive_layers() {
        let mut g = FlowNetworkBuilder::new();
        let s = g.add_node("s");
        let a = g.add_node("a");
        let t = g.add_node("t");
        let sa = g.add_arc(s, a, 1, 0);
        let st_arc = g.add_arc(s, t, 1, 0);
        let at = g.add_arc(a, t, 1, 0);
        let g = g.build();
        let mut st = OpStats::new();
        let ln = LayeredNetwork::build(&g, s, t, &mut st);
        // t is at level 1, a at level 1: s->a in LN, s->t in LN, a->t not.
        assert!(ln.contains_arc(&g, sa));
        assert!(ln.contains_arc(&g, st_arc));
        assert!(!ln.contains_arc(&g, at));
    }

    #[test]
    fn saturated_arcs_are_not_useful() {
        let mut g = FlowNetworkBuilder::new();
        let s = g.add_node("s");
        let t = g.add_node("t");
        let a = g.add_arc(s, t, 1, 0);
        let mut g = g.build();
        g.push(a, 1);
        let mut st = OpStats::new();
        let ln = LayeredNetwork::build(&g, s, t, &mut st);
        assert!(!ln.reaches_sink());
        assert!(!ln.contains_arc(&g, a));
        // But the reverse (cancellation) arc is useful from t's side; t is
        // unreachable from s though, so it is not levelled.
        assert_eq!(ln.level(t), None);
    }

    #[test]
    fn blocking_flow_saturates_every_short_path() {
        let mut g = FlowNetworkBuilder::new();
        let s = g.add_node("s");
        let a = g.add_node("a");
        let b = g.add_node("b");
        let t = g.add_node("t");
        g.add_arc(s, a, 1, 0);
        g.add_arc(s, b, 1, 0);
        g.add_arc(a, t, 1, 0);
        g.add_arc(b, t, 1, 0);
        let mut g = g.build();
        let mut scratch = SolveScratch::new();
        let r = solve_with(&mut g, s, t, &mut scratch);
        assert_eq!(r.value, 2);
        // Both unit paths have length 2, so one layered network suffices.
        // The flow then meets the cut bound (two open s-arcs, two open
        // t-arcs), so no final search runs. The network is graded and
        // idle, so that layered network is its grading: nothing searched.
        assert_eq!(r.stats.phases, 1);
        assert!(scratch.graded_first_phase());
        assert_eq!(r.stats.level_arc_scans, 0);
    }

    #[test]
    fn closed_interior_arcs_send_the_first_phase_back_to_the_search() {
        // s -> a -> c -> t and s -> b -> d -> t: a -> c and b -> d are the
        // interior arcs.
        let mut b = FlowNetworkBuilder::new();
        let s = b.add_node("s");
        let [x, y, c, d] = ["a", "b", "c", "d"].map(|n| b.add_node(n));
        let t = b.add_node("t");
        let first = b.add_arc(s, x, 1, 0);
        b.add_arc(s, y, 1, 0);
        let mid = b.add_arc(x, c, 1, 0);
        b.add_arc(y, d, 1, 0);
        let last = b.add_arc(c, t, 1, 0);
        b.add_arc(d, t, 1, 0);
        let mut g = b.build();
        let mut scratch = SolveScratch::new();
        // A held link closes an interior arc; requests and resources that
        // are off close arcs at s and t.
        for (arc, graded) in [(first, true), (last, true), (mid, false)] {
            g.reset();
            g.set_cap(arc, 0);
            let r = solve_with(&mut g, s, t, &mut scratch);
            assert_eq!(r.value, 1, "{arc:?}");
            assert_eq!(scratch.graded_first_phase(), graded, "{arc:?}");
            assert_eq!(r.stats.level_arc_scans == 0, graded, "{arc:?}");
            g.set_cap(arc, 1);
        }
        // A solve that starts with flow at s searches.
        g.reset();
        g.push(first, 1);
        g.push(mid, 1);
        g.push(last, 1);
        let r = solve_with(&mut g, s, t, &mut scratch);
        assert_eq!(r.value, 1);
        assert!(!scratch.graded_first_phase());
    }

    #[test]
    fn flow_below_the_cut_bound_runs_the_final_search() {
        // Two open s-arcs and two open t-arcs, but one unit (c -> d) between
        // them: the flow stops at 1 < 2, so only a search that fails to
        // reach t can prove it maximum.
        let mut g = FlowNetworkBuilder::new();
        let s = g.add_node("s");
        let [a, b, c, d, e] = ["a", "b", "c", "d", "e"].map(|n| g.add_node(n));
        let t = g.add_node("t");
        g.add_arc(s, a, 1, 0);
        g.add_arc(s, b, 1, 0);
        g.add_arc(a, c, 1, 0);
        g.add_arc(b, c, 1, 0);
        g.add_arc(c, d, 1, 0);
        g.add_arc(d, t, 1, 0);
        g.add_arc(e, t, 1, 0);
        let mut g = g.build();
        for side in [LabelSide::Source, LabelSide::Sink] {
            g.reset();
            let r = solve_labelled(
                &mut g,
                s,
                t,
                Some(side),
                &mut SolveScratch::new(),
                &rsin_obs::NoopProbe,
            );
            assert_eq!(r.value, 1, "{side:?}");
            assert_eq!(r.stats.augmentations, 1, "{side:?}");
            assert_eq!(r.stats.phases, 2, "{side:?}");
        }
    }

    #[test]
    fn phases_grow_logarithmically_not_linearly() {
        // Dinic needs at most O(sqrt(E)) phases on unit networks; build a
        // ladder where FF might do many augmentations.
        let mut g = FlowNetworkBuilder::new();
        let s = g.add_node("s");
        let t = g.add_node("t");
        let mut mids = Vec::new();
        for i in 0..20 {
            let u = g.add_node(format!("u{i}"));
            let v = g.add_node(format!("v{i}"));
            g.add_arc(s, u, 1, 0);
            g.add_arc(u, v, 1, 0);
            g.add_arc(v, t, 1, 0);
            mids.push((u, v));
        }
        // Cross arcs that tempt longer paths.
        for w in mids.windows(2) {
            g.add_arc(w[0].0, w[1].1, 1, 0);
        }
        let mut g = g.build();
        let r = solve(&mut g, s, t);
        assert_eq!(r.value, 20);
        assert!(r.stats.phases <= 4, "phases = {}", r.stats.phases);
    }

    #[test]
    fn fig8_instance_augments_through_cancellation() {
        // Fig. 8(a): a 4x4 MRSIN-derived flow network where p1->r4 and
        // p4->r1 are an initial (suboptimal-order) flow and the augmenting
        // path for p2 must cancel the arc 5->6. We reproduce the topology:
        // nodes: s, p1, p2, p4 (requesting), 4/5/6/7 (switchboxes),
        // r1, r3, r4, t.
        let mut g = FlowNetworkBuilder::new();
        let s = g.add_node("s");
        let p1 = g.add_node("p1");
        let p2 = g.add_node("p2");
        let p4 = g.add_node("p4");
        let n4 = g.add_node("4");
        let n5 = g.add_node("5");
        let n6 = g.add_node("6");
        let n7 = g.add_node("7");
        let r1 = g.add_node("r1");
        let r3 = g.add_node("r3");
        let r4 = g.add_node("r4");
        let t = g.add_node("t");
        for &p in &[p1, p2, p4] {
            g.add_arc(s, p, 1, 0);
        }
        // Stage wiring: p1,p2 -> box4; p4 -> box5 (plus an unused input).
        let a_p1_4 = g.add_arc(p1, n4, 1, 0);
        g.add_arc(p2, n4, 1, 0);
        let a_p4_5 = g.add_arc(p4, n5, 1, 0);
        // Inter-stage: box4 -> box6, box4 -> box7; box5 -> box6, box5 -> box7.
        g.add_arc(n4, n6, 1, 0);
        let a_4_7 = g.add_arc(n4, n7, 1, 0);
        let a_5_6 = g.add_arc(n5, n6, 1, 0);
        let a_5_7 = g.add_arc(n5, n7, 1, 0);
        // Outputs: box6 -> r1, box6 -> r3? In Fig. 8 r1, r3, r4 are free.
        let a_6_r1 = g.add_arc(n6, r1, 1, 0);
        g.add_arc(n6, r3, 1, 0);
        let a_7_r4 = g.add_arc(n7, r4, 1, 0);
        g.add_arc(n7, r3, 1, 0);
        for &r in &[r1, r3, r4] {
            g.add_arc(r, t, 1, 0);
        }
        let mut g = g.build();
        // Initial flow: p1 -> 4 -> 7 -> r4 and p4 -> 5 -> 6 -> r1.
        for &(arc, path_head) in &[
            (a_p1_4, s),
            (a_4_7, p1),
            (a_7_r4, n7),
            (a_p4_5, s),
            (a_5_6, n5),
            (a_6_r1, n6),
        ] {
            let _ = path_head;
            g.push(arc, 1);
        }
        // Complete the source/sink legs of the initial flow.
        let s_p1 = g.out_arcs(s).find(|&a| g.arc(a).to == p1).unwrap();
        let s_p4 = g.out_arcs(s).find(|&a| g.arc(a).to == p4).unwrap();
        g.push(s_p1, 1);
        g.push(s_p4, 1);
        let r4_t = g.out_arcs(r4).find(|a| a.is_forward()).unwrap();
        let r1_t = g.out_arcs(r1).find(|a| a.is_forward()).unwrap();
        g.push(r4_t, 1);
        g.push(r1_t, 1);
        assert_eq!(g.check_legal_flow(s, t).unwrap(), 2);

        // The layered network must expose the cancellation arc 6 -> 5
        // (residual twin of 5->6): p2 -> 4 -> 6 -> (cancel) 5 -> 7 -> r3.
        let mut st = OpStats::new();
        let ln = LayeredNetwork::build(&g, s, t, &mut st);
        assert!(ln.reaches_sink());
        assert!(
            ln.contains_arc(&g, a_5_6.twin()),
            "cancellation arc must be useful"
        );
        let _ = a_5_7;

        // Augment: all three resources allocated.
        let r = solve(&mut g, s, t);
        assert_eq!(r.value + 2, 3, "one more unit advanced");
        assert_eq!(g.check_legal_flow(s, t).unwrap(), 3);
    }
}
