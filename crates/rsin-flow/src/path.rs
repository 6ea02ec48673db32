//! Flow decomposition into arc-disjoint s–t paths.
//!
//! Theorem 2's proof observes that "every legal integral flow defines a set
//! of F nonoverlapping paths from s to t". For an MRSIN-derived network each
//! such path, stripped of the source and sink legs, is exactly a circuit
//! from a requesting processor to a free resource — so path decomposition is
//! how a flow assignment is turned back into a request→resource mapping.

use crate::graph::{ArcId, FlowNetwork, HotArc, NodeId};
use crate::Flow;

/// One unit-flow path from source to sink (sequence of forward arc ids).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowPath {
    /// Arcs from `s` to `t`, in order.
    pub arcs: Vec<ArcId>,
}

impl FlowPath {
    /// Node sequence of the path, starting at the source.
    pub fn nodes(&self, g: &FlowNetwork) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.arcs.len() + 1);
        if let Some(&first) = self.arcs.first() {
            out.push(g.arc(first).from);
        }
        for &a in &self.arcs {
            out.push(g.arc(a).to);
        }
        out
    }
}

/// Decompose the current flow of `g` into arc-disjoint s–t paths, one per
/// unit of flow.
///
/// Requires the flow to be legal; arcs carrying more than one unit (e.g. the
/// bypass arc `(u, t)` of Transformation 2) are traversed once per unit.
/// Completed paths that visit the `skip` node (the bypass node `u`) are
/// *dropped* from the result — they represent requests that were not
/// allocated — but their flow is still consumed so the remaining paths
/// decompose correctly. The paths are those [`for_each_unit_path`] visits,
/// in its order.
pub fn decompose_unit_flow(
    g: &FlowNetwork,
    s: NodeId,
    t: NodeId,
    skip: Option<NodeId>,
) -> Vec<FlowPath> {
    let mut paths = Vec::new();
    for_each_unit_path(g, s, t, skip, &mut PathWalk::default(), |arcs| {
        paths.push(FlowPath {
            arcs: arcs.to_vec(),
        });
        Ok::<(), std::convert::Infallible>(())
    })
    .unwrap_or_else(|never| match never {});
    paths
}

/// Reusable buffers for [`for_each_unit_path`]: one cursor per node and the
/// walk's trail, every arc it routed a unit over, paths one after another.
///
/// Each cursor is stamped with the walk that last moved it, and a cursor
/// from an earlier walk reads as untouched, so no walk clears cursors and a
/// walk's cost follows the paths, not the graph. After a walk that ran to
/// the end, the trail lists every forward arc that carries flow in an
/// acyclic network (each flow-carrying arc of a DAG lies on some unit
/// path), which is what [`FlowNetwork::reset_carried`] needs to restore.
#[derive(Debug, Clone, Default)]
pub struct PathWalk {
    cursors: Vec<Cursor>,
    trail: Vec<ArcId>,
    complete: bool,
    /// The current walk's stamp; 0 stamps no walk.
    walks: u32,
}

impl PathWalk {
    /// Every arc the last walk routed flow over, when that walk ran to the
    /// end and [`forget`](Self::forget) was not called since; `None`
    /// otherwise. Arcs carrying several units appear once per unit.
    pub fn carried(&self) -> Option<&[ArcId]> {
        self.complete.then_some(self.trail.as_slice())
    }

    /// Drop the record: the flow has changed since the last walk.
    pub fn forget(&mut self) {
        self.complete = false;
    }

    /// Record `trail` as [`carried`](Self::carried), as a walk that ran to
    /// the end would: for a flow whose unit paths are known without
    /// walking it, such as a one-pass Dinic solve's
    /// ([`SolveScratch::one_pass_paths`](crate::scratch::SolveScratch::one_pass_paths)).
    pub fn adopt(&mut self, trail: &[ArcId]) {
        self.trail.clear();
        self.trail.extend_from_slice(trail);
        self.complete = true;
    }
}

/// Walk the unit paths of [`decompose_unit_flow`] without materialising
/// them: `visit` sees each kept path's arcs, `s` to `t`, and the first error
/// it returns stops the walk.
///
/// Every step leaves a node over its first forward out-arc (in adjacency
/// order) with flow left to route. Flow left only shrinks, so that arc never
/// moves backwards: each node keeps a cursor into its out-arcs plus the
/// units already routed over the cursor arc, and an arc's flow is read from
/// its own CSR slot (capacity minus residual). The flow in `g` is not
/// modified. The cursors and the arc buffer come from `walk`, so the work is
/// proportional to the paths and the out-arcs they pass over — no per-node
/// or per-arc table, no rescans, no allocation once `walk` has grown.
pub fn for_each_unit_path<E>(
    g: &FlowNetwork,
    s: NodeId,
    t: NodeId,
    skip: Option<NodeId>,
    walk: &mut PathWalk,
    mut visit: impl FnMut(&[ArcId]) -> Result<(), E>,
) -> Result<(), E> {
    let PathWalk {
        cursors,
        trail,
        complete,
        walks,
    } = walk;
    if cursors.len() < g.num_nodes() {
        cursors.resize(g.num_nodes(), Cursor::default());
    }
    *walks = walks.wrapping_add(1);
    if *walks == 0 {
        // The stamps wrapped: clear them all, so none matches a live walk.
        cursors.fill(Cursor::default());
        *walks = 1;
    }
    trail.clear();
    let lanes = Lanes {
        offsets: g.csr_offsets(),
        hot: g.hot_arcs(),
        pair_caps: g.pair_caps(),
        walk: *walks,
    };
    let walked = walk_paths(&lanes, s, t, skip, cursors, trail, &mut visit);
    *complete = walked.is_ok();
    walked
}

/// The walk of [`for_each_unit_path`], appending every routed arc to
/// `trail`; each kept path is the trail's last stretch.
fn walk_paths<E>(
    lanes: &Lanes<'_>,
    s: NodeId,
    t: NodeId,
    skip: Option<NodeId>,
    cursors: &mut [Cursor],
    trail: &mut Vec<ArcId>,
    visit: &mut impl FnMut(&[ArcId]) -> Result<(), E>,
) -> Result<(), E> {
    // Start a new path over an unexhausted source arc, until none remain.
    while let Some(start) = lanes.next_arc(&mut cursors[s.index()], s) {
        let from = trail.len();
        trail.push(start.id);
        let mut u = start.head;
        let mut skipped = Some(u) == skip;
        while u != t {
            let next = lanes
                .next_arc(&mut cursors[u.index()], u)
                .expect("legal flow must continue to the sink");
            u = next.head;
            if Some(u) == skip {
                skipped = true;
            }
            trail.push(next.id);
        }
        if !skipped {
            visit(&trail[from..])?;
        }
    }
    Ok(())
}

/// Where a node's out-arc walk stands in walk `walk`: slots before `slot`
/// (an absolute CSR slot) have no flow left, `used` units of the arc at
/// `slot` are routed, later slots are untouched. Under any other stamp the
/// cursor is untouched: it stands at the node's first slot.
#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    walk: u32,
    slot: u32,
    used: u32,
}

/// The CSR lanes a walk reads, borrowed once per walk, and its stamp.
struct Lanes<'g> {
    offsets: &'g [u32],
    hot: &'g [HotArc],
    pair_caps: &'g [Flow],
    walk: u32,
}

impl Lanes<'_> {
    /// Route one unit out of `u`: its first forward out-arc with flow left,
    /// as that slot's hot entry (id and head), or `None` when every one is
    /// exhausted.
    fn next_arc(&self, c: &mut Cursor, u: NodeId) -> Option<HotArc> {
        if c.walk != self.walk {
            *c = Cursor {
                walk: self.walk,
                slot: self.offsets[u.index()],
                used: 0,
            };
        }
        let end = self.offsets[u.index() + 1];
        while c.slot < end {
            let slot = c.slot as usize;
            let h = self.hot[slot];
            // A forward arc's flow is its capacity minus its residual, read
            // from its own slot. (On a twin's slot that difference is the
            // forward arc's residual, not a flow.)
            if h.id.is_forward() && self.pair_caps[slot] - h.res > Flow::from(c.used) {
                c.used += 1;
                return Some(h);
            }
            c.slot += 1;
            c.used = 0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::max_flow::{solve, Algorithm};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The original O(A) decomposition, kept as the exact-order oracle:
    /// materialise every forward arc's flow, then rescan each node's
    /// out-arcs from the start for every unit routed.
    fn reference_decompose(
        g: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        skip: Option<NodeId>,
    ) -> Vec<FlowPath> {
        let mut remaining: Vec<i64> = g.forward_arcs().map(|(_, a)| a.flow.max(0)).collect();
        let mut paths = Vec::new();
        while let Some(start) = g
            .out_arcs(s)
            .iter()
            .copied()
            .find(|a| a.is_forward() && remaining[a.index() / 2] > 0)
        {
            let mut arcs = vec![start];
            remaining[start.index() / 2] -= 1;
            let mut u = g.arc(start).to;
            let mut skipped = Some(u) == skip;
            while u != t {
                let next = g
                    .out_arcs(u)
                    .iter()
                    .copied()
                    .find(|a| a.is_forward() && remaining[a.index() / 2] > 0)
                    .expect("legal flow must continue to the sink");
                remaining[next.index() / 2] -= 1;
                u = g.arc(next).to;
                if Some(u) == skip {
                    skipped = true;
                }
                arcs.push(next);
            }
            if !skipped {
                paths.push(FlowPath { arcs });
            }
        }
        paths
    }

    /// [`for_each_unit_path`] as it walked before its step read the taken
    /// slot's head from the hot lane, kept as the exact-order oracle for
    /// it: each step slices `out_range` and returns an arc id, the walk
    /// reads the next node with `g.head(arc)`, and a pass over the trail
    /// re-zeroes every cursor the walk moved.
    fn arc_id_for_each_unit_path<E>(
        g: &FlowNetwork,
        s: NodeId,
        t: NodeId,
        skip: Option<NodeId>,
        walk: &mut ArcIdWalk,
        mut visit: impl FnMut(&[ArcId]) -> Result<(), E>,
    ) -> Result<(), E> {
        let ArcIdWalk {
            cursors,
            trail,
            complete,
        } = walk;
        if cursors.len() < g.num_nodes() {
            cursors.resize(g.num_nodes(), ArcIdCursor::default());
        }
        trail.clear();
        let walked = (|| {
            while let Some(start) = arc_id_next_arc(g, &mut cursors[s.index()], s) {
                let from = trail.len();
                trail.push(start);
                let mut u = g.head(start);
                let mut skipped = Some(u) == skip;
                while u != t {
                    let next = arc_id_next_arc(g, &mut cursors[u.index()], u)
                        .expect("legal flow must continue to the sink");
                    u = g.head(next);
                    if Some(u) == skip {
                        skipped = true;
                    }
                    trail.push(next);
                }
                if !skipped {
                    visit(&trail[from..])?;
                }
            }
            Ok(())
        })();
        cursors[s.index()] = ArcIdCursor::default();
        for &a in trail.iter() {
            cursors[g.head(a).index()] = ArcIdCursor::default();
        }
        *complete = walked.is_ok();
        walked
    }

    /// The buffers of [`arc_id_for_each_unit_path`]: cursors all-zero
    /// between walks, each walk re-zeroing the ones it moved.
    #[derive(Default)]
    struct ArcIdWalk {
        cursors: Vec<ArcIdCursor>,
        trail: Vec<ArcId>,
        complete: bool,
    }

    impl ArcIdWalk {
        fn carried(&self) -> Option<&[ArcId]> {
            self.complete.then_some(self.trail.as_slice())
        }
    }

    /// A node's place in [`arc_id_for_each_unit_path`]: slot relative to
    /// the node's first, and units routed over it.
    #[derive(Debug, Clone, Copy, Default)]
    struct ArcIdCursor {
        slot: u32,
        used: u32,
    }

    /// The arc-id step of [`arc_id_for_each_unit_path`].
    fn arc_id_next_arc(g: &FlowNetwork, c: &mut ArcIdCursor, u: NodeId) -> Option<ArcId> {
        let range = g.out_range(u);
        let hot = &g.hot_arcs()[range.clone()];
        let caps = &g.pair_caps()[range];
        while let Some(h) = hot.get(c.slot as usize) {
            if h.id.is_forward() && caps[c.slot as usize] - h.res > Flow::from(c.used) {
                c.used += 1;
                return Some(h.id);
            }
            c.slot += 1;
            c.used = 0;
        }
        None
    }

    /// A random graph in the shape of Transformation 1 (`priced == false`)
    /// or 2: `s` → requesting processors → layers of unit-capacity
    /// switchbox arcs (some occupied, capacity 0) → free resources → `t`,
    /// plus, when priced, a bypass node `u` fed by every request with one
    /// multi-unit `(u, t)` arc. Returns `(g, s, t, bypass, F₀)`.
    fn random_transform(
        seed: u64,
        priced: bool,
    ) -> (FlowNetwork, NodeId, NodeId, Option<NodeId>, Flow) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = FlowNetwork::new();
        let s = g.add_node("s");
        let t = g.add_node("t");
        let u = priced.then(|| g.add_node("u"));
        let width = rng.random_range(2..6usize);
        let depth = rng.random_range(1..4usize);
        let layers: Vec<Vec<NodeId>> = (0..depth + 2)
            .map(|l| {
                (0..width)
                    .map(|i| g.add_node(format!("n{l}_{i}")))
                    .collect()
            })
            .collect();
        for pair in layers.windows(2) {
            for &a in &pair[0] {
                for _ in 0..rng.random_range(1..3usize) {
                    let b = pair[1][rng.random_range(0..width)];
                    let cap = Flow::from(rng.random_range(0..5u32) != 0);
                    g.add_arc(a, b, cap, 0);
                }
            }
        }
        let mut requests = 0;
        for &p in &layers[0] {
            if rng.random_bool(0.7) {
                requests += 1;
                let prio = rng.random_range(0..4i64);
                g.add_arc(s, p, 1, if priced { prio } else { 0 });
                if let Some(u) = u {
                    g.add_arc(p, u, 1, 5 + prio);
                }
            }
        }
        for &r in &layers[depth + 1] {
            if rng.random_bool(0.7) {
                let pref = rng.random_range(0..4i64);
                g.add_arc(r, t, 1, if priced { pref } else { 0 });
            }
        }
        if let Some(u) = u {
            g.add_arc(u, t, requests, 5);
        }
        (g, s, t, u, requests)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The cursor decomposition returns exactly the oracle's path list
        /// — same paths, same order — on solved Transformation-1 and
        /// Transformation-2 shaped graphs, bypass skips and the multi-unit
        /// `(u, t)` arc included.
        #[test]
        fn cursor_decomposition_matches_reference(seed in 0u64..u64::MAX, priced in any::<bool>()) {
            let (mut g, s, t, u, f0) = random_transform(seed, priced);
            if priced {
                crate::min_cost::solve(
                    &mut g,
                    s,
                    t,
                    f0,
                    crate::min_cost::Algorithm::SuccessiveShortestPaths,
                );
            } else {
                solve(&mut g, s, t, Algorithm::Dinic);
            }
            let want = reference_decompose(&g, s, t, u);
            let got = decompose_unit_flow(&g, s, t, u);
            prop_assert_eq!(&got, &want);
            // The visitor sees exactly those paths, in order, and an error
            // stops the walk at the path that raised it.
            let mut visited = Vec::new();
            let mut walk = PathWalk::default();
            let walked = for_each_unit_path(&g, s, t, u, &mut walk, |arcs| {
                visited.push(arcs.to_vec());
                if visited.len() == 2 { Err(visited.len()) } else { Ok(()) }
            });
            let want_arcs: Vec<Vec<ArcId>> = want.into_iter().map(|p| p.arcs).collect();
            prop_assert_eq!(walked, if want_arcs.len() >= 2 { Err(2) } else { Ok(()) });
            prop_assert_eq!(visited.as_slice(), &want_arcs[..want_arcs.len().min(2)]);
            // A stopped walk records nothing.
            prop_assert_eq!(walk.carried().is_some(), want_arcs.len() < 2);
            // The same walk again, reusing the cursors the stopped walk
            // moved: all paths, and a trail that routes exactly each
            // forward arc's flow over it.
            let mut all = Vec::new();
            for_each_unit_path(&g, s, t, u, &mut walk, |arcs| {
                all.push(arcs.to_vec());
                Ok::<(), ()>(())
            })
            .unwrap();
            prop_assert_eq!(all, want_arcs);
            let carried = walk.carried().expect("a finished walk records its trail");
            for (a, arc) in g.forward_arcs() {
                let units = carried.iter().filter(|&&c| c == a).count() as Flow;
                prop_assert_eq!(units, arc.flow, "arc {:?}", a);
            }
            walk.forget();
            prop_assert!(walk.carried().is_none());
        }

        /// The slot walk is the arc-id walk it replaced, step for step: on
        /// solved Transformation-1 and Transformation-2 shaped graphs
        /// (bypass skips and the multi-unit `(u, t)` arc included) it
        /// visits the same paths in the same order, stops at the same path
        /// when the visitor errs, and records the same `carried()` trail.
        /// Both walks reuse their cursors across the two passes.
        #[test]
        fn slot_walk_matches_the_arc_id_walk(seed in 0u64..u64::MAX, priced in any::<bool>()) {
            let (mut g, s, t, u, f0) = random_transform(seed, priced);
            if priced {
                crate::min_cost::solve(
                    &mut g,
                    s,
                    t,
                    f0,
                    crate::min_cost::Algorithm::SuccessiveShortestPaths,
                );
            } else {
                solve(&mut g, s, t, Algorithm::Dinic);
            }
            let (mut got_walk, mut want_walk) = (PathWalk::default(), ArcIdWalk::default());
            for stop_at in [3, usize::MAX] {
                let stop = |visited: &Vec<Vec<ArcId>>| {
                    if visited.len() == stop_at { Err(stop_at) } else { Ok(()) }
                };
                let mut got = Vec::new();
                let got_walked = for_each_unit_path(&g, s, t, u, &mut got_walk, |arcs| {
                    got.push(arcs.to_vec());
                    stop(&got)
                });
                let mut want = Vec::new();
                let want_walked = arc_id_for_each_unit_path(&g, s, t, u, &mut want_walk, |arcs| {
                    want.push(arcs.to_vec());
                    stop(&want)
                });
                prop_assert_eq!(got_walked, want_walked, "stop at {}", stop_at);
                prop_assert_eq!(got, want, "stop at {}", stop_at);
                prop_assert_eq!(got_walk.carried(), want_walk.carried(), "stop at {}", stop_at);
            }
        }
    }

    #[test]
    fn cursor_stamps_wrap_without_reading_stale_cursors() {
        // Two one-unit routes, s -> a -> t and s -> b -> t, each carrying
        // flow in turn. A walk stamped 1 exhausts a's cursor; the walk
        // stamped u32::MAX routes through b only, so a's cursor keeps
        // stamp 1; the walk after that wraps to stamp 1 again and must
        // still find a's unit.
        let mut g = FlowNetwork::new();
        let [s, a, b, t] = ["s", "a", "b", "t"].map(|n| g.add_node(n));
        let via_a = [g.add_arc(s, a, 1, 0), g.add_arc(a, t, 1, 0)];
        let via_b = [g.add_arc(s, b, 1, 0), g.add_arc(b, t, 1, 0)];
        let mut walk = PathWalk::default();
        for (route, stamp) in [(via_a, 1), (via_b, u32::MAX), (via_a, 1)] {
            g.reset();
            for arc in route {
                g.push(arc, 1);
            }
            if stamp == u32::MAX {
                walk.walks = u32::MAX - 1;
            }
            let mut got = Vec::new();
            for_each_unit_path(&g, s, t, None, &mut walk, |arcs| {
                got.push(arcs.to_vec());
                Ok::<(), ()>(())
            })
            .unwrap();
            assert_eq!(walk.walks, stamp);
            assert_eq!(got, vec![route.to_vec()], "walk stamped {stamp}");
        }
    }

    #[test]
    fn decomposes_into_disjoint_paths() {
        let mut g = FlowNetwork::new();
        let s = g.add_node("s");
        let a = g.add_node("a");
        let b = g.add_node("b");
        let t = g.add_node("t");
        g.add_arc(s, a, 1, 0);
        g.add_arc(s, b, 1, 0);
        g.add_arc(a, t, 1, 0);
        g.add_arc(b, t, 1, 0);
        let r = solve(&mut g, s, t, Algorithm::Dinic);
        let paths = decompose_unit_flow(&g, s, t, None);
        assert_eq!(paths.len() as i64, r.value);
        // Arc-disjointness.
        let mut seen = std::collections::HashSet::new();
        for p in &paths {
            for &arc in &p.arcs {
                assert!(seen.insert(arc), "arc used twice");
            }
            let nodes = p.nodes(&g);
            assert_eq!(nodes.first(), Some(&s));
            assert_eq!(nodes.last(), Some(&t));
        }
    }

    #[test]
    fn skip_node_excluded_from_paths() {
        // s -> bypass -> t carries flow but must be ignored.
        let mut g = FlowNetwork::new();
        let s = g.add_node("s");
        let bypass = g.add_node("u");
        let a = g.add_node("a");
        let t = g.add_node("t");
        let sb = g.add_arc(s, bypass, 1, 0);
        let bt = g.add_arc(bypass, t, 1, 0);
        let sa = g.add_arc(s, a, 1, 0);
        let at = g.add_arc(a, t, 1, 0);
        g.ensure_csr();
        g.push(sb, 1);
        g.push(bt, 1);
        g.push(sa, 1);
        g.push(at, 1);
        let paths = decompose_unit_flow(&g, s, t, Some(bypass));
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].nodes(&g), vec![s, a, t]);
    }

    #[test]
    fn zero_flow_decomposes_empty() {
        let mut g = FlowNetwork::new();
        let s = g.add_node("s");
        let t = g.add_node("t");
        g.add_arc(s, t, 1, 0);
        g.ensure_csr();
        assert!(decompose_unit_flow(&g, s, t, None).is_empty());
    }

    #[test]
    fn cancellation_yields_simple_paths() {
        // After augmenting through a cancellation, decomposition must still
        // produce simple forward paths (Fig. 3(c): two separate paths).
        let mut g = FlowNetwork::new();
        let s = g.add_node("s");
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        let t = g.add_node("t");
        g.add_arc(s, a, 1, 0);
        g.add_arc(s, c, 1, 0);
        g.add_arc(a, b, 1, 0);
        g.add_arc(a, d, 1, 0);
        g.add_arc(c, d, 1, 0);
        g.add_arc(b, t, 1, 0);
        g.add_arc(d, t, 1, 0);
        let r = solve(&mut g, s, t, Algorithm::Dinic);
        assert_eq!(r.value, 2);
        let paths = decompose_unit_flow(&g, s, t, None);
        assert_eq!(paths.len(), 2);
        let node_sets: Vec<Vec<_>> = paths
            .iter()
            .map(|p| p.nodes(&g).iter().map(|n| g.name(*n).to_string()).collect())
            .collect();
        assert!(node_sets.contains(&vec!["s".into(), "a".into(), "b".into(), "t".into()]));
        assert!(node_sets.contains(&vec!["s".into(), "c".into(), "d".into(), "t".into()]));
    }
}
