//! Successive shortest augmenting paths with Johnson node potentials.
//!
//! Repeatedly augments along a cheapest residual `s`→`t` path. Potentials
//! keep reduced costs nonnegative so Dijkstra applies after an initial
//! Bellman–Ford pass (needed only when the input has negative arc costs,
//! which Transformation 2 never produces but the API permits).
//!
//! Each Dijkstra stops when `t` settles: the augmenting path is fixed
//! then. Every potential is raised by `min(dist(v), dist(t))`, which keeps
//! every residual reduced cost nonnegative (settled nodes have exact
//! distances; the rest are capped at the sink's), so each later search
//! still finds a shortest path and the flow stays minimum-cost. Among
//! equal-cost paths the stopped search may pick another one than a search
//! run to exhaustion would: the flow value, its cost and the number of
//! augmentations are the same, the paths need not be.
//!
//! Dijkstra's priority queue is a bucket queue: one node bitset per
//! reduced distance below 256, plus a binary-heap overflow for the rest.
//! It pops in exactly the `(distance, node id)` order of a
//! `BinaryHeap<Reverse<(Cost, u32)>>`, so every pop, relaxation, parent and
//! potential — and hence every flow and [`OpStats`] counter — matches the
//! same stopped Dijkstra on a plain binary heap.

use super::MinCostResult;
use crate::graph::{FlowNetwork, NodeId};
use crate::scratch::SolveScratch;
use crate::stats::OpStats;
use crate::{Cost, Flow};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

const INF: Cost = Cost::MAX / 4;

/// Reduced distances `0..BUCKETS` are kept in per-distance bitsets (32
/// bytes per node in all); larger ones go to the overflow heap.
/// Transformation-2 reduced distances are bounded by the priority and
/// preference spans, far below this, so the overflow serves only arbitrary
/// API costs.
const BUCKETS: usize = 256;

/// Monotone bucket queue keyed by `(distance, node id)`.
///
/// Pop-order contract: [`Self::pop`] returns the smallest `(distance, node
/// id)` pair among the live entries — the lowest node id of the lowest
/// nonempty bucket, and only once every bucket is empty the overflow heap's
/// minimum. Bucket entries are exact (one bit per node, a decrease-key
/// clears the node's old bit); overflow entries are lazy, so an overflow pop
/// may return a stale `(d, u)` with `d > dist[u]`, which the caller skips
/// exactly as it would a stale binary-heap entry. A run that stops at the
/// sink empties the queue with [`Self::clear`], so it is empty between runs.
#[derive(Debug, Default)]
pub(crate) struct BucketQueue {
    /// `u64` words per bucket bitset (`ceil(nodes / 64)`, grow-only).
    words: usize,
    /// Bucket `b`'s bitset is `bits[b * words .. (b + 1) * words]`.
    bits: Vec<u64>,
    /// Live entries per bucket.
    len: Vec<u32>,
    /// Bit `b` set ⇔ bucket `b` is nonempty.
    nonempty: [u64; BUCKETS / 64],
    /// Distances `≥ BUCKETS`, popped only after every bucket is empty.
    overflow: BinaryHeap<Reverse<(Cost, u32)>>,
}

impl BucketQueue {
    /// Size the bitsets for `n` nodes. The queue must be empty.
    fn ensure_nodes(&mut self, n: usize) {
        debug_assert!(self.nonempty == [0; BUCKETS / 64] && self.overflow.is_empty());
        let words = n.div_ceil(64);
        if words > self.words {
            self.words = words;
            self.bits = vec![0; BUCKETS * words];
            self.len = vec![0; BUCKETS];
        }
    }

    /// The bucket of distance `d`, if it has one.
    #[inline]
    fn bucket(d: Cost) -> Option<usize> {
        usize::try_from(d).ok().filter(|&b| b < BUCKETS)
    }

    /// Insert node `u` at distance `d`.
    #[inline]
    fn push(&mut self, d: Cost, u: u32) {
        let Some(b) = Self::bucket(d) else {
            self.overflow.push(Reverse((d, u)));
            return;
        };
        let w = u as usize / 64;
        self.bits[b * self.words + w] |= 1 << (u % 64);
        self.len[b] += 1;
        self.nonempty[b / 64] |= 1 << (b % 64);
    }

    /// Move node `u` from distance `old` to the smaller `new`. An `old`
    /// past the buckets (an overflow entry, or `INF` for a node not yet
    /// queued) has no bit to clear; an overflow entry stays behind stale.
    #[inline]
    fn decrease(&mut self, old: Cost, new: Cost, u: u32) {
        if let Some(b) = Self::bucket(old) {
            let word = &mut self.bits[b * self.words + u as usize / 64];
            let mask = 1 << (u % 64);
            // A popped node whose distance drops again means a negative
            // reduced cost (a broken zero-flow precondition); stop before
            // the bucket counts go out of step with the bits.
            assert!(*word & mask != 0, "decrease-key of a node not queued");
            *word &= !mask;
            self.len[b] -= 1;
            if self.len[b] == 0 {
                self.nonempty[b / 64] &= !(1 << (b % 64));
            }
        }
        self.push(new, u);
    }

    /// Drop every entry. Zeroes only the nonempty buckets' bitsets and
    /// counts (the mask names them), so the cost is the live buckets', not
    /// the node count's.
    fn clear(&mut self) {
        for (i, mask) in self.nonempty.iter_mut().enumerate() {
            while *mask != 0 {
                let b = i * 64 + mask.trailing_zeros() as usize;
                self.bits[b * self.words..(b + 1) * self.words].fill(0);
                self.len[b] = 0;
                *mask &= *mask - 1;
            }
        }
        self.overflow.clear();
    }

    /// Remove and return the smallest `(distance, node id)` entry.
    #[inline]
    fn pop(&mut self) -> Option<(Cost, u32)> {
        let Some(i) = self.nonempty.iter().position(|&m| m != 0) else {
            return self.overflow.pop().map(|Reverse(e)| e);
        };
        let b = i * 64 + self.nonempty[i].trailing_zeros() as usize;
        let row = &mut self.bits[b * self.words..(b + 1) * self.words];
        let w = row.iter().position(|&x| x != 0).expect("nonempty bucket");
        let bit = row[w].trailing_zeros();
        row[w] &= row[w] - 1;
        self.len[b] -= 1;
        if self.len[b] == 0 {
            self.nonempty[i] &= !(1 << (b % 64));
        }
        Some((b as Cost, (w * 64) as u32 + bit))
    }
}

/// Compute a minimum-cost flow of value `min(target, max-flow)`, reusing
/// `scratch`: allocation-free after the first call on a given node count.
///
/// Precondition: `g` carries zero flow (a fresh or [`FlowNetwork::reset`]
/// network). The Bellman–Ford prepass reads forward arcs only, Dijkstra
/// needs nonnegative reduced costs on every residual arc, and the returned
/// cost sums this call's augmentations only.
pub(crate) fn solve(
    g: &mut FlowNetwork,
    s: NodeId,
    t: NodeId,
    target: Flow,
    scratch: &mut SolveScratch,
) -> MinCostResult {
    let n = g.num_nodes();
    let mut stats = OpStats::new();
    let mut flow = 0;
    let mut cost = 0;
    if s == t || target <= 0 {
        return MinCostResult {
            flow: 0,
            cost: 0,
            stats,
        };
    }
    scratch.ensure_nodes(n);
    let SolveScratch {
        pot,
        dist,
        parent,
        dist_queue: queue,
        ..
    } = scratch;
    queue.ensure_nodes(n);

    // Initial potentials via Bellman-Ford when negative costs exist.
    pot[..n].fill(0);
    if g.has_negative_cost() {
        dist[..n].fill(INF);
        dist[s.index()] = 0;
        for _ in 0..n {
            let mut changed = false;
            for (id, a) in g.forward_arcs() {
                let _ = id;
                if a.residual() > 0 && dist[a.from.index()] < INF {
                    let nd = dist[a.from.index()] + a.cost;
                    if nd < dist[a.to.index()] {
                        dist[a.to.index()] = nd;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        for v in 0..n {
            pot[v] = if dist[v] < INF { dist[v] } else { 0 };
        }
    }

    while flow < target {
        // Dijkstra over residual arcs with reduced costs.
        dist[..n].fill(INF);
        parent[..n].fill(None);
        dist[s.index()] = 0;
        queue.push(0, s.0);
        while let Some((d, u)) = queue.pop() {
            let u = NodeId(u);
            if d > dist[u.index()] {
                continue;
            }
            stats.node_visits += 1;
            if u == t {
                // The shortest path to `t` is fixed: scan none of its arcs.
                queue.clear();
                break;
            }
            let pot_u = pot[u.index()];
            // Zip the hot lane with the CSR cost lane: two sequential
            // streams, no per-arc random access.
            let range = g.out_range(u);
            let hots = &g.hot_arcs()[range.clone()];
            let costs = &g.csr_costs()[range];
            for (h, &c) in hots.iter().zip(costs) {
                stats.arc_scans += 1;
                if h.res <= 0 {
                    continue;
                }
                let to = h.head;
                let rc = c + pot_u - pot[to.index()];
                debug_assert!(rc >= 0, "reduced cost must be nonnegative");
                let nd = d + rc;
                let old = dist[to.index()];
                if nd < old {
                    dist[to.index()] = nd;
                    parent[to.index()] = Some(h.id);
                    queue.decrease(old, nd, to.0);
                }
            }
        }
        if dist[t.index()] >= INF {
            break; // no more augmenting paths: max flow reached
        }
        // Raise potentials by the distance capped at the sink's: settled
        // nodes by their exact distance, the rest (unreached ones at `INF`
        // included) by `dist(t)`, so every residual reduced cost stays
        // nonnegative.
        let dist_t = dist[t.index()];
        for (p, &d) in pot[..n].iter_mut().zip(&dist[..n]) {
            *p += d.min(dist_t);
        }
        // Augment along the shortest path, pricing it on the way: from zero
        // flow, the total cost is Σ bottleneck × path cost (a residual
        // twin's cost is the negated forward cost).
        let mut bottleneck = target - flow;
        let mut path_cost = 0;
        let mut v = t;
        while v != s {
            let a = parent[v.index()].unwrap();
            bottleneck = bottleneck.min(g.residual(a));
            path_cost += g.arc_cost(a);
            v = g.tail(a);
        }
        let mut v = t;
        while v != s {
            let a = parent[v.index()].unwrap();
            g.push(a, bottleneck);
            v = g.tail(a);
        }
        flow += bottleneck;
        cost += bottleneck * path_cost;
        stats.augmentations += 1;
    }
    debug_assert_eq!(
        cost,
        g.flow_cost(),
        "SSP must start from zero flow (reset the network first)"
    );
    MinCostResult { flow, cost, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::FlowNetworkBuilder;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Where each Dijkstra of [`reference_ssp`] ends.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Search {
        /// At the sink's pop, potentials raised by `min(dist(v), dist(t))`:
        /// the kernel's rule.
        Stopped,
        /// When the heap is empty, potentials raised by the exact distance
        /// (the sink's for unreached nodes): the kernel before the stop.
        Full,
    }

    /// The binary-heap SSP the bucket queue replaced, kept as the
    /// exact-order oracle: same potentials and relaxations, popping a
    /// `BinaryHeap<Reverse<(Cost, u32)>>` with lazy stale-entry skips, and
    /// costing the result with an O(arcs) `flow_cost()` scan. `search`
    /// picks the kernel's stop at the sink or the full search it replaced.
    fn reference_ssp(
        g: &mut FlowNetwork,
        s: NodeId,
        t: NodeId,
        target: Flow,
        search: Search,
    ) -> MinCostResult {
        let n = g.num_nodes();
        let mut stats = OpStats::new();
        let mut flow = 0;
        if s == t || target <= 0 {
            return MinCostResult {
                flow: 0,
                cost: 0,
                stats,
            };
        }
        let mut pot = vec![0; n];
        let mut dist = vec![INF; n];
        let mut parent = vec![None; n];
        let mut heap = BinaryHeap::new();
        if g.has_negative_cost() {
            dist[s.index()] = 0;
            for _ in 0..n {
                let mut changed = false;
                for (_, a) in g.forward_arcs() {
                    if a.residual() > 0 && dist[a.from.index()] < INF {
                        let nd = dist[a.from.index()] + a.cost;
                        if nd < dist[a.to.index()] {
                            dist[a.to.index()] = nd;
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            for v in 0..n {
                pot[v] = if dist[v] < INF { dist[v] } else { 0 };
            }
        }
        while flow < target {
            dist.fill(INF);
            parent.fill(None);
            dist[s.index()] = 0;
            heap.push(Reverse((0, s.0)));
            while let Some(Reverse((d, u))) = heap.pop() {
                let u = NodeId(u);
                if d > dist[u.index()] {
                    continue;
                }
                stats.node_visits += 1;
                if search == Search::Stopped && u == t {
                    heap.clear();
                    break;
                }
                let pot_u = pot[u.index()];
                let range = g.out_range(u);
                let hots = &g.hot_arcs()[range.clone()];
                let costs = &g.csr_costs()[range];
                for (h, &c) in hots.iter().zip(costs) {
                    stats.arc_scans += 1;
                    if h.res <= 0 {
                        continue;
                    }
                    let to = h.head;
                    let nd = d + c + pot_u - pot[to.index()];
                    if nd < dist[to.index()] {
                        dist[to.index()] = nd;
                        parent[to.index()] = Some(h.id);
                        heap.push(Reverse((nd, to.0)));
                    }
                }
            }
            if dist[t.index()] >= INF {
                break;
            }
            let dist_t = dist[t.index()];
            for v in 0..n {
                pot[v] += match search {
                    Search::Stopped => dist[v].min(dist_t),
                    Search::Full if dist[v] < INF => dist[v],
                    Search::Full => dist_t,
                };
            }
            let mut bottleneck = target - flow;
            let mut v = t;
            while v != s {
                let a = parent[v.index()].unwrap();
                bottleneck = bottleneck.min(g.residual(a));
                v = g.tail(a);
            }
            let mut v = t;
            while v != s {
                let a = parent[v.index()].unwrap();
                g.push(a, bottleneck);
                v = g.tail(a);
            }
            flow += bottleneck;
            stats.augmentations += 1;
        }
        MinCostResult {
            flow,
            cost: g.flow_cost(),
            stats,
        }
    }

    /// Arc-cost regimes for [`random_network`].
    #[derive(Debug, Clone, Copy)]
    enum Costs {
        /// `0..4`: many equal distances, so pops tie-break on node id
        /// inside one bucket.
        Small,
        /// `0..600`: reduced distances pass [`BUCKETS`] and ride the
        /// overflow heap.
        Large,
        /// `-8..8` forward costs on a DAG (no negative cycles): the
        /// Bellman–Ford prepass sets the first potentials.
        Negative,
    }

    /// A random network of 2 to `max_nodes - 1` nodes (`s` = 0, `t` = 1)
    /// with multi-unit capacities (some 0) and a target anywhere from 1 to
    /// past max-flow.
    fn random_network(
        seed: u64,
        costs: Costs,
        max_nodes: u32,
    ) -> (FlowNetwork, NodeId, NodeId, Flow) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = FlowNetworkBuilder::new();
        let n = rng.random_range(2..max_nodes);
        for i in 0..n {
            g.add_node(format!("n{i}"));
        }
        // On a DAG over the order s, 2, 3, …, n-1, t.
        let rank = |v: u32| match v {
            0 => 0,
            1 => n,
            v => v,
        };
        for _ in 0..rng.random_range(0..4 * n) {
            let (mut a, mut b) = (rng.random_range(0..n), rng.random_range(0..n));
            if a == b {
                continue;
            }
            if matches!(costs, Costs::Negative) && rank(a) > rank(b) {
                std::mem::swap(&mut a, &mut b);
            }
            let cost = match costs {
                Costs::Small => rng.random_range(0..4i64),
                Costs::Large => rng.random_range(0..600i64),
                Costs::Negative => rng.random_range(-8..8i64),
            };
            g.add_arc(NodeId(a), NodeId(b), rng.random_range(0..4i64), cost);
        }
        let g = g.build();
        (g, NodeId(0), NodeId(1), rng.random_range(1..12i64))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The bucket-queue kernel reproduces the binary-heap oracle
        /// exactly: same final residual lane, flow, cost and `OpStats`,
        /// across the bucket path, the overflow path, the Bellman–Ford
        /// prepass and partial targets.
        #[test]
        fn bucket_queue_matches_binary_heap_reference(seed in 0u64..u64::MAX, mode in 0u8..3) {
            let costs = [Costs::Small, Costs::Large, Costs::Negative][mode as usize];
            let (mut want_g, s, t, target) = random_network(seed, costs, 40);
            let mut got_g = want_g.clone();
            let want = reference_ssp(&mut want_g, s, t, target, Search::Stopped);
            let got = solve(&mut got_g, s, t, target, &mut SolveScratch::new());
            prop_assert_eq!((got.flow, got.cost, got.stats), (want.flow, want.cost, want.stats));
            prop_assert_eq!(residuals(&got_g), residuals(&want_g));
        }

        /// Stopping each search at the sink changes neither the flow value,
        /// nor its cost, nor the number of augmentations of a search run to
        /// exhaustion, and the final potentials certify optimality: no
        /// residual arc out of a node `s` can reach has a negative reduced
        /// cost. (Nodes `s` never reaches keep the Bellman–Ford prepass's
        /// potential 0, which certifies nothing, and no search scans them;
        /// `s`'s residual reach only shrinks, so the start network's is the
        /// whole of it.)
        #[test]
        fn stopped_search_matches_full_search(seed in 0u64..u64::MAX, mode in 0u8..3) {
            let costs = [Costs::Small, Costs::Large, Costs::Negative][mode as usize];
            let (mut full_g, s, t, target) = random_network(seed, costs, 40);
            let mut g = full_g.clone();
            let reach = reachable(&g, s);
            let full = reference_ssp(&mut full_g, s, t, target, Search::Full);
            let mut scratch = SolveScratch::new();
            let got = solve(&mut g, s, t, target, &mut scratch);
            prop_assert_eq!(
                (got.flow, got.cost, got.stats.augmentations),
                (full.flow, full.cost, full.stats.augmentations)
            );
            let pot = &scratch.pot;
            for u in g.nodes().filter(|u| reach[u.index()]) {
                let range = g.out_range(u);
                for (h, &c) in g.hot_arcs()[range.clone()].iter().zip(&g.csr_costs()[range]) {
                    let rc = c + pot[u.index()] - pot[h.head.index()];
                    prop_assert!(h.res <= 0 || rc >= 0, "arc {:?}: reduced cost {}", h.id, rc);
                }
            }
        }
    }

    /// The residual lane, in CSR order.
    fn residuals(g: &FlowNetwork) -> Vec<Flow> {
        g.hot_arcs().iter().map(|h| h.res).collect()
    }

    /// Nodes `s` reaches over arcs with residual capacity.
    fn reachable(g: &FlowNetwork, s: NodeId) -> Vec<bool> {
        let mut seen = vec![false; g.num_nodes()];
        seen[s.index()] = true;
        let mut stack = vec![s];
        while let Some(u) = stack.pop() {
            for h in &g.hot_arcs()[g.out_range(u)] {
                if h.res > 0 && !seen[h.head.index()] {
                    seen[h.head.index()] = true;
                    stack.push(h.head);
                }
            }
        }
        seen
    }

    #[test]
    fn bucket_queue_clear_empties_a_queue_mid_run() {
        let mut q = BucketQueue::default();
        q.ensure_nodes(200);
        for (d, u) in [(3, 150), (3, 7), (0, 199), (900, 2), (255, 64), (70, 9)] {
            q.push(d, u);
        }
        assert_eq!(q.pop(), Some((0, 199)));
        q.clear();
        assert_eq!(q.pop(), None);
        // Empty again (`ensure_nodes` asserts it), and fresh pushes, into a
        // bucket that was live before the clear too, pop in order.
        q.ensure_nodes(200);
        for (d, u) in [(4, 150), (900, 2), (3, 40), (4, 7), (1, 199), (300, 1)] {
            q.push(d, u);
        }
        q.decrease(4, 2, 150);
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            popped,
            [(1, 199), (2, 150), (3, 40), (4, 7), (300, 1), (900, 2)]
        );
    }

    /// One scratch threaded through networks of growing and shrinking
    /// node counts (bucket bitsets of one to three words) solves each
    /// exactly as a fresh scratch does.
    #[test]
    fn reused_scratch_matches_fresh_scratch_across_node_counts() {
        let mut scratch = SolveScratch::new();
        for seed in 0..120u64 {
            let costs = [Costs::Small, Costs::Large, Costs::Negative][seed as usize % 3];
            let max_nodes = [40, 190][seed as usize % 2];
            let (mut fresh_g, s, t, target) = random_network(seed, costs, max_nodes);
            let mut g = fresh_g.clone();
            let want = solve(&mut fresh_g, s, t, target, &mut SolveScratch::new());
            let got = solve(&mut g, s, t, target, &mut scratch);
            assert_eq!(
                (got.flow, got.cost, got.stats),
                (want.flow, want.cost, want.stats),
                "seed {seed}"
            );
            assert_eq!(residuals(&g), residuals(&fresh_g), "seed {seed}");
        }
    }

    #[test]
    fn bucket_queue_pops_in_distance_then_node_order() {
        let mut q = BucketQueue::default();
        q.ensure_nodes(200);
        for (d, u) in [
            (3, 150),
            (3, 7),
            (0, 199),
            (900, 2),
            (300, 1),
            (3, 64),
            (5, 9),
        ] {
            q.push(d, u);
        }
        q.decrease(5, 3, 9);
        q.decrease(300, 1, 1);
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            popped,
            [
                (0, 199),
                (1, 1),
                (3, 7),
                (3, 9),
                (3, 64),
                (3, 150),
                (300, 1), // the stale overflow entry, skipped by the caller
                (900, 2)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "decrease-key of a node not queued")]
    fn bucket_queue_rejects_decrease_of_a_popped_node() {
        let mut q = BucketQueue::default();
        q.ensure_nodes(8);
        q.push(2, 5);
        assert_eq!(q.pop(), Some((2, 5)));
        q.decrease(2, 1, 5);
    }

    #[test]
    fn handles_negative_costs_via_bellman_ford() {
        let mut g = FlowNetworkBuilder::new();
        let s = g.add_node("s");
        let a = g.add_node("a");
        let t = g.add_node("t");
        g.add_arc(s, a, 1, -5);
        g.add_arc(a, t, 1, 2);
        g.add_arc(s, t, 1, 0);
        let mut g = g.build();
        let r = solve(&mut g, s, t, 2, &mut SolveScratch::new());
        assert_eq!(r.flow, 2);
        assert_eq!(r.cost, -3);
    }

    #[test]
    fn partial_target_stops_early() {
        let mut g = FlowNetworkBuilder::new();
        let s = g.add_node("s");
        let t = g.add_node("t");
        g.add_arc(s, t, 5, 2);
        let mut g = g.build();
        let r = solve(&mut g, s, t, 3, &mut SolveScratch::new());
        assert_eq!(r.flow, 3);
        assert_eq!(r.cost, 6);
    }

    #[test]
    fn successive_paths_are_monotone_in_cost() {
        // Each augmentation uses the cheapest remaining path, so pushing one
        // unit at a time must produce nondecreasing marginal costs.
        let mut marginals = Vec::new();
        let mut last_cost = 0;
        for k in 1..=4 {
            let mut g = FlowNetworkBuilder::new();
            let s = g.add_node("s");
            let a = g.add_node("a");
            let b = g.add_node("b");
            let t = g.add_node("t");
            g.add_arc(s, a, 2, 1);
            g.add_arc(a, t, 2, 1);
            g.add_arc(s, b, 2, 3);
            g.add_arc(b, t, 2, 3);
            let mut g = g.build();
            let r = solve(&mut g, s, t, k, &mut SolveScratch::new());
            marginals.push(r.cost - last_cost);
            last_cost = r.cost;
        }
        assert!(marginals.windows(2).all(|w| w[0] <= w[1]), "{marginals:?}");
    }
}
