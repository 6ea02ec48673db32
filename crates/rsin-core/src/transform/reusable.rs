//! Zero-rebuild transformations: one superset graph per topology, retuned
//! per snapshot.
//!
//! [`homogeneous::transform`](super::homogeneous::transform) and
//! [`priority::transform`](super::priority::transform) rebuild the flow
//! network — nodes, arcs, `format!`ed debug names, bookkeeping vectors —
//! for every snapshot, even though consecutive snapshots in a simulation
//! differ only in *which* processors request, *which* resources are free,
//! and *which* links are occupied. [`ReusableTransform`] builds a
//! **superset** graph once per topology (every processor, every resource,
//! every link mirrored) and reconfigures it per snapshot by toggling arc
//! capacities: absent elements get capacity 0, which makes their arcs
//! invisible to every flow algorithm (zero residual), so solving the
//! reconfigured superset is equivalent to solving a freshly built
//! transformation — same flow value and same optimal cost, though possibly
//! a different (equally optimal) assignment, since arc order differs. A
//! property test pins that equivalence on random snapshots.
//!
//! The graph is rebuilt automatically when a snapshot arrives from a
//! different topology (detected by comparing [`Network::fingerprint`], the
//! FNV hash of the link structure cached at network build), so one scratch
//! can serve sweeps over several networks.
//!
//! A configure costs what changed since the last one, not what the topology
//! holds (DESIGN.md §6): link availability and the request and resource
//! arcs are diffed as bit words and only flipped arcs are written, and the
//! flow reset restores only the arcs on the last decomposition's paths.

use super::{mirror_network, Transformed};
use crate::mapping::{self, Assignment, Circuit, MappingError};
use crate::model::ScheduleProblem;
use rsin_flow::path::PathWalk;
use rsin_flow::{ArcId, Flow, FlowNetworkBuilder, SolveScratch};
use rsin_topology::Network;

/// A lazily built, capacity-toggled superset transformation graph.
///
/// Holds either shape: Transformation 1 (plain max-flow) or Transformation 2
/// (priced, with bypass node) — chosen by which `configure_*` method is
/// called. Reconfiguring between shapes or topologies triggers a rebuild —
/// and *only* those do: link availability changes (circuits coming and
/// going, faults injected and repaired) are applied as incremental capacity
/// patches against the last-configured state, never as rebuilds. The
/// [`rebuilds`](Self::rebuilds) counter exposes that guarantee to tests:
/// a whole fault-injection run on one topology must report exactly 1.
#[derive(Debug, Default)]
pub struct ReusableTransform {
    inner: Option<Inner>,
    /// How many times the superset graph has been (re)built.
    rebuild_count: u64,
}

#[derive(Debug)]
struct Inner {
    t: Transformed,
    priced: bool,
    fingerprint: u64,
    /// `(p, u)` bypass leg per processor, aligned with `t.request_arcs`
    /// (priced shape only).
    bypass_arcs: Vec<ArcId>,
    /// The `(u, t)` arc absorbing unallocated requests (priced shape only).
    bypass_sink_arc: Option<ArcId>,
    /// Where the request and resource arcs sit, for O(1) path ends.
    boundary: Boundary,
    /// Last-configured availability per topology link, as bit words in the
    /// layout of [`CircuitState::free_link_words`] (all set at build: the
    /// superset mirrors every link at unit capacity). [`configure`] XORs
    /// against this and patches only the arcs whose bit flipped.
    ///
    /// [`CircuitState::free_link_words`]: rsin_topology::CircuitState::free_link_words
    /// [`configure`]: ReusableTransform::configure
    link_avail: Vec<u64>,
    /// Processors whose request (and bypass) arcs are enabled, one bit per
    /// processor.
    requests_on: Vec<u64>,
    /// Resources whose sink arcs are enabled, one bit per resource.
    resources_on: Vec<u64>,
    /// The bits a configure is bringing the graph to (reused buffer).
    want: Vec<u64>,
    /// The last decomposition's buffers. Its trail lists the arcs that
    /// carry flow, so the next configure restores only those.
    walk: PathWalk,
    /// Set when [`ReusableTransform::transformed_mut`] handed out the graph:
    /// the caller may have pushed flow anywhere and retuned any request or
    /// resource arc, so the next configure sweeps the flow and rewrites
    /// every boundary arc.
    lent: bool,
}

/// The superset's request and resource arcs are built consecutively, one
/// per id: processor `p`'s request arc is forward arc `request + step·p`
/// (`step` 2 in the priced shape, where each bypass leg follows its request
/// arc, else 1) and resource `r`'s sink arc is `resource + r`. So a path's
/// two ends are found by arithmetic on its first and last arc, where
/// [`Transformed::processor_of_arc`]/[`resource_of_arc`] binary-search.
///
/// [`resource_of_arc`]: Transformed::resource_of_arc
#[derive(Debug, Clone, Copy)]
struct Boundary {
    /// Forward-arc index of processor 0's request arc.
    request: usize,
    /// Forward arcs from one request arc to the next.
    step: usize,
    processors: usize,
    /// Forward-arc index of resource 0's sink arc.
    resource: usize,
    resources: usize,
}

impl Boundary {
    /// The processor whose request arc is `a`, if `a` is one.
    fn processor_of(self, a: ArcId) -> Option<usize> {
        let k = (a.index() / 2).checked_sub(self.request)?;
        let p = k / self.step;
        (a.is_forward() && k % self.step == 0 && p < self.processors).then_some(p)
    }

    /// The resource whose sink arc is `a`, if `a` is one.
    fn resource_of(self, a: ArcId) -> Option<usize> {
        let r = (a.index() / 2).checked_sub(self.resource)?;
        (a.is_forward() && r < self.resources).then_some(r)
    }

    /// [`Transformed::path_ends`] in O(1), checked against its binary
    /// searches in debug builds.
    fn ends(self, t: &Transformed, first: ArcId, last: ArcId) -> Option<(usize, usize)> {
        let ends = Some((self.processor_of(first)?, self.resource_of(last)?));
        debug_assert_eq!(ends, t.path_ends(first, last));
        ends
    }
}

/// `n` set bits in words, the rest of the last word clear.
fn ones(n: usize) -> Vec<u64> {
    let mut words = vec![u64::MAX; n.div_ceil(64)];
    if let (Some(last), r @ 1..) = (words.last_mut(), n % 64) {
        *last = (1 << r) - 1;
    }
    words
}

/// Is bit `i` of `words` set?
fn bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 == 1
}

/// Bring the arcs whose bits `on` holds to `want`: call `set(i, bit)` for
/// every bit `i` that differs (for all `n` bits when `all`), then copy
/// `want` into `on`.
fn apply_bits(on: &mut [u64], want: &[u64], n: usize, all: bool, mut set: impl FnMut(usize, bool)) {
    if all {
        for i in 0..n {
            set(i, bit(want, i));
        }
    } else {
        for (w, (&was, &now)) in on.iter().zip(want).enumerate() {
            let mut flipped = was ^ now;
            while flipped != 0 {
                let i = w * 64 + flipped.trailing_zeros() as usize;
                flipped &= flipped - 1;
                set(i, bit(want, i));
            }
        }
    }
    on.copy_from_slice(want);
}

/// Build the superset graph: every processor, resource, and link mirrored,
/// every tunable arc created with capacity 0 ("disabled").
fn build(net: &Network, priced: bool) -> Inner {
    let np = net.num_processors();
    let nr = net.num_resources();
    let mut flow = FlowNetworkBuilder::with_capacity(
        net.num_boxes() + np + nr + if priced { 3 } else { 2 },
        net.num_links() + np * if priced { 2 } else { 1 } + nr + usize::from(priced),
    );
    let source = flow.add_node("s");
    let sink = flow.add_node("t");
    let bypass = if priced {
        Some(flow.add_node("u"))
    } else {
        None
    };
    let all_procs: Vec<usize> = (0..np).collect();
    let all_res: Vec<usize> = (0..nr).collect();
    let mut img = mirror_network(&mut flow, net, |_| true, &all_procs, &all_res);

    let first_request = flow.num_arcs();
    let mut request_arcs = Vec::with_capacity(np);
    let mut bypass_arcs = Vec::with_capacity(if priced { np } else { 0 });
    for &p in &all_procs {
        let p_node = img.proc_node[p].unwrap();
        let a = flow.add_arc(source, p_node, 0, 0);
        img.arc_link.push(None);
        request_arcs.push((p, a));
        if let Some(u) = bypass {
            let b = flow.add_arc(p_node, u, 0, 0);
            img.arc_link.push(None);
            bypass_arcs.push(b);
        }
    }
    let first_resource = flow.num_arcs();
    let mut resource_arcs = Vec::with_capacity(nr);
    for &r in &all_res {
        let a = flow.add_arc(img.res_node[r].unwrap(), sink, 0, 0);
        img.arc_link.push(None);
        resource_arcs.push((r, a));
    }
    let bypass_sink_arc = bypass.map(|u| {
        let a = flow.add_arc(u, sink, 0, 0);
        img.arc_link.push(None);
        a
    });
    Inner {
        t: Transformed {
            flow: flow.build(),
            source,
            sink,
            link_arc: img.link_arc,
            arc_link: img.arc_link,
            request_arcs,
            resource_arcs,
            bypass,
        },
        priced,
        fingerprint: net.fingerprint(),
        bypass_arcs,
        bypass_sink_arc,
        boundary: Boundary {
            request: first_request,
            step: if priced { 2 } else { 1 },
            processors: np,
            resource: first_resource,
            resources: nr,
        },
        link_avail: ones(net.num_links()),
        requests_on: vec![0; np.div_ceil(64)],
        resources_on: vec![0; nr.div_ceil(64)],
        want: Vec::new(),
        walk: PathWalk::default(),
        lent: false,
    }
}

impl ReusableTransform {
    /// Empty holder; the graph is built on first `configure_*` call.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many times the superset graph has been (re)built. A simulation
    /// that stays on one topology and one shape must observe this stay at 1
    /// no matter how many snapshots, faults, or repairs it processes.
    pub fn rebuilds(&self) -> u64 {
        self.rebuild_count
    }

    /// The currently built transform, for solving on it directly. `None`
    /// until the first configure. The caller may push flow and retune any
    /// request or resource arc; the next `configure_*` then sweeps all flow
    /// and rewrites every one of them before applying its snapshot.
    pub fn transformed_mut(&mut self) -> Option<&mut Transformed> {
        self.inner.as_mut().map(|i| {
            i.lent = true;
            &mut i.t
        })
    }

    /// Read-only view of the currently built transform (e.g. to decompose
    /// the retained flow without touching it). `None` until the first
    /// configure.
    pub fn transformed(&self) -> Option<&Transformed> {
        self.inner.as_ref().map(|i| &i.t)
    }

    /// Retune the superset for `problem` in the Transformation-1 shape
    /// (unit capacities, no costs) and return it ready to solve.
    ///
    /// Panics on a processor or resource id the network lacks; the
    /// schedulers reject those first with a typed `ScheduleError`.
    pub fn configure_max_flow(&mut self, problem: &ScheduleProblem) -> &mut Transformed {
        self.configure(problem, false).0
    }

    /// Retune the superset for `problem` in the Transformation-2 shape
    /// (priority/preference costs, bypass node). Returns the transformed
    /// network plus `F₀`, the circulation target (= number of requests).
    pub fn configure_min_cost(&mut self, problem: &ScheduleProblem) -> (&mut Transformed, Flow) {
        self.configure(problem, true)
    }

    /// Decompose the flow of the last solve into assignments, as
    /// [`mapping::extract`] does, with this graph's reusable walk buffers.
    /// The walk also records the arcs that carry flow, so the next
    /// configure restores only those. Empty until the first configure.
    pub fn extract(&mut self) -> Result<Vec<Assignment>, MappingError> {
        self.extract_recorded(None)
    }

    /// [`extract`](Self::extract) after a Dinic solve of this graph with
    /// `solved`, from the zero flow a configure leaves: the scheduling
    /// cycle's decomposition. When that solve ran one blocking-flow pass its
    /// augmenting paths are the decomposition, so the circuits are read
    /// from them and nothing is walked
    /// ([`SolveScratch::one_pass_paths`]); otherwise the flow is walked.
    pub fn extract_solved(
        &mut self,
        solved: &SolveScratch,
    ) -> Result<Vec<Assignment>, MappingError> {
        self.extract_recorded(solved.one_pass_paths())
    }

    fn extract_recorded(
        &mut self,
        recorded: Option<&[ArcId]>,
    ) -> Result<Vec<Assignment>, MappingError> {
        let mut out = Vec::new();
        self.for_each_circuit(recorded, |c| {
            out.push(c.assignment()?);
            Ok::<_, MappingError>(())
        })?;
        Ok(out)
    }

    /// The decomposition of [`extract`](Self::extract), handing each path
    /// to `visit` as a [`Circuit`] whose two ends are found in O(1). With
    /// `recorded`, the flow's unit paths one after another (a one-pass
    /// Dinic solve's, from zero flow), the circuits are split off them and
    /// they become the next configure's restore list; otherwise the flow is
    /// walked. Does nothing until the first configure.
    pub(crate) fn for_each_circuit<E: From<MappingError>>(
        &mut self,
        recorded: Option<&[ArcId]>,
        visit: impl FnMut(Circuit<'_>) -> Result<(), E>,
    ) -> Result<(), E> {
        let Some(Inner {
            t, walk, boundary, ..
        }) = self.inner.as_mut()
        else {
            return Ok(());
        };
        let (t, boundary) = (&*t, *boundary);
        let ends = |f, l| boundary.ends(t, f, l);
        let Some(paths) = recorded else {
            return mapping::for_each_circuit(t, walk, ends, visit);
        };
        let split = mapping::for_each_recorded_circuit(t, paths, ends, visit);
        match split {
            Ok(()) => walk.adopt(paths),
            Err(_) => walk.forget(),
        }
        split
    }

    /// The arcs the next configure restores, as its walk records them.
    #[cfg(test)]
    pub(crate) fn carried(&self) -> Option<&[ArcId]> {
        self.inner.as_ref().and_then(|i| i.walk.carried())
    }

    fn configure(&mut self, problem: &ScheduleProblem, priced: bool) -> (&mut Transformed, Flow) {
        let net = problem.circuits.network();
        let stale = match &self.inner {
            Some(inner) => inner.fingerprint != net.fingerprint() || inner.priced != priced,
            None => true,
        };
        if stale {
            self.inner = Some(build(net, priced));
            self.rebuild_count += 1;
        }
        let Inner {
            t,
            bypass_arcs,
            bypass_sink_arc,
            link_avail,
            requests_on,
            resources_on,
            want,
            walk,
            lent,
            ..
        } = self.inner.as_mut().expect("just built");
        let lent = std::mem::take(lent);

        // Flow: the transform graphs are DAGs, so every arc carrying flow
        // lies on a path of the last decomposition. Restore those arcs,
        // or sweep when nothing was recorded since the last configure or
        // the graph was lent out.
        match walk.carried() {
            Some(carried) if !lent => t.flow.reset_carried(carried),
            _ => t.flow.reset(),
        }
        walk.forget();

        // Network links: free = unit capacity, occupied/faulty = invisible.
        // One XOR per 64 links against the last-configured words, so a
        // snapshot that toggles k links (a released circuit, an injected
        // fault, a repair) patches exactly k arcs.
        want.clear();
        want.extend(problem.circuits.free_link_words());
        apply_bits(link_avail, want, net.num_links(), false, |l, avail| {
            let a = t.link_arc[l].expect("superset mirrors every link");
            t.flow.set_cap(a, Flow::from(avail));
        });

        // Request (and bypass) arcs, then resource arcs: flip the ones whose
        // enablement changed since the last configure.
        let np = t.request_arcs.len();
        set_bits(want, np, problem.requests.iter().map(|r| r.processor));
        apply_bits(requests_on, want, np, lent, |p, on| {
            t.flow.set_cap(t.request_arcs[p].1, Flow::from(on));
            if let Some(&b) = bypass_arcs.get(p) {
                t.flow.set_cap(b, Flow::from(on));
            }
        });
        let nr = t.resource_arcs.len();
        set_bits(want, nr, problem.free.iter().map(|f| f.resource));
        apply_bits(resources_on, want, nr, lent, |r, on| {
            t.flow.set_cap(t.resource_arcs[r].1, Flow::from(on));
        });

        // The priced shape sets this snapshot's costs.
        if priced {
            let gamma_max = problem.max_priority() as i64;
            let q_max = problem.max_preference() as i64;
            let bypass_cost = (gamma_max + 1).max(q_max + 1);
            for req in &problem.requests {
                let (p, a) = t.request_arcs[req.processor];
                debug_assert_eq!(p, req.processor, "request_arcs indexed by processor");
                t.flow.set_cost(a, gamma_max - req.priority as i64);
                // Same priority surcharge as priority::transform (see its
                // module docs): bypassing urgent requests is strictly dearer.
                t.flow
                    .set_cost(bypass_arcs[p], bypass_cost + req.priority as i64);
            }
            for res in &problem.free {
                let (r, a) = t.resource_arcs[res.resource];
                debug_assert_eq!(r, res.resource, "resource_arcs indexed by resource");
                t.flow.set_cost(a, q_max - res.preference as i64);
            }
            // The (u, t) leg carries every unallocated request.
            if let Some(ua) = *bypass_sink_arc {
                t.flow.set_cap(ua, problem.requests.len() as Flow);
                t.flow.set_cost(ua, bypass_cost);
            }
        }
        (t, problem.requests.len() as Flow)
    }
}

/// Fill `words` with the bits of `ids` over `n` bits.
///
/// Panics on an id of `n` or more, as indexing the arcs would.
fn set_bits(words: &mut Vec<u64>, n: usize, ids: impl Iterator<Item = usize>) {
    words.clear();
    words.resize(n.div_ceil(64), 0);
    for i in ids {
        assert!(i < n, "snapshot id {i} past the network's {n} ports");
        words[i / 64] |= 1 << (i % 64);
    }
}

#[cfg(test)]
mod tests {
    use super::super::{homogeneous, priority};
    use super::*;
    use crate::mapping::verify;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use rsin_flow::{max_flow, min_cost};
    use rsin_topology::builders::{generalized_cube, omega, omega_3dp};
    use rsin_topology::{CircuitState, LinkId, NodeRef};

    #[test]
    fn reconfigured_superset_matches_fresh_build_value() {
        let net = omega(8).unwrap();
        let mut cs = CircuitState::new(&net);
        cs.connect(1, 5).unwrap();
        cs.connect(3, 3).unwrap();
        let problem = ScheduleProblem::homogeneous(&cs, &[0, 2, 4, 6, 7], &[0, 2, 4, 6, 7]);

        let mut fresh = homogeneous::transform(&problem);
        let want = max_flow::solve(
            &mut fresh.flow,
            fresh.source,
            fresh.sink,
            max_flow::Algorithm::Dinic,
        );

        let mut reusable = ReusableTransform::new();
        for _ in 0..3 {
            let t = reusable.configure_max_flow(&problem);
            let got = max_flow::solve(&mut t.flow, t.source, t.sink, max_flow::Algorithm::Dinic);
            assert_eq!(got.value, want.value);
            let assignments = reusable.extract().unwrap();
            assert_eq!(assignments.len() as i64, want.value);
            verify(&assignments, &problem).unwrap();
        }
    }

    #[test]
    fn priced_superset_matches_fresh_build_cost() {
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let problem = ScheduleProblem::with_priorities(
            &cs,
            &[(0, 5), (1, 2), (4, 9), (7, 1)],
            &[(0, 3), (3, 7), (5, 1), (7, 9)],
        );
        let (mut fresh, f0) = priority::transform(&problem);
        let want = min_cost::solve(
            &mut fresh.flow,
            fresh.source,
            fresh.sink,
            f0,
            min_cost::Algorithm::SuccessiveShortestPaths,
        );

        let mut reusable = ReusableTransform::new();
        for _ in 0..3 {
            let (t, f0) = reusable.configure_min_cost(&problem);
            let got = min_cost::solve(
                &mut t.flow,
                t.source,
                t.sink,
                f0,
                min_cost::Algorithm::SuccessiveShortestPaths,
            );
            assert_eq!((got.flow, got.cost), (want.flow, want.cost));
            let assignments = reusable.extract().unwrap();
            verify(&assignments, &problem).unwrap();
        }
    }

    #[test]
    fn topology_change_triggers_rebuild() {
        let omega_net = omega(8).unwrap();
        let cube_net = generalized_cube(8).unwrap();
        let omega_cs = CircuitState::new(&omega_net);
        let cube_cs = CircuitState::new(&cube_net);
        let mut reusable = ReusableTransform::new();
        for _ in 0..2 {
            let p1 = ScheduleProblem::homogeneous(&omega_cs, &[0, 1, 2], &[0, 1, 2]);
            let t = reusable.configure_max_flow(&p1);
            let r = max_flow::solve(&mut t.flow, t.source, t.sink, max_flow::Algorithm::Dinic);
            assert_eq!(r.value, 3);

            let p2 = ScheduleProblem::homogeneous(&cube_cs, &[1, 3, 5, 7], &[0, 3, 5, 7]);
            let t = reusable.configure_max_flow(&p2);
            let r = max_flow::solve(&mut t.flow, t.source, t.sink, max_flow::Algorithm::Dinic);
            let assignments = reusable.extract().unwrap();
            assert_eq!(assignments.len() as i64, r.value);
            verify(&assignments, &p2).unwrap();
        }
    }

    #[test]
    fn fault_toggles_patch_without_rebuild() {
        let net = omega(8).unwrap();
        let mut cs = CircuitState::new(&net);
        let all: Vec<usize> = (0..8).collect();
        let mut reusable = ReusableTransform::new();
        // Fail then repair a couple of links between configures; every
        // snapshot must solve like a fresh build of the same faulted state,
        // with exactly one graph build over the whole sequence.
        let toggles = [
            (3u32, true),
            (11, true),
            (3, false),
            (20, true),
            (11, false),
        ];
        for &(raw, fail) in &toggles {
            let lid = rsin_topology::LinkId(raw);
            if fail {
                cs.fail_link(lid);
            } else {
                cs.repair_link(lid);
            }
            let problem = ScheduleProblem::homogeneous(&cs, &all, &all);
            let t = reusable.configure_max_flow(&problem);
            let got = max_flow::solve(&mut t.flow, t.source, t.sink, max_flow::Algorithm::Dinic);
            let mut fresh = homogeneous::transform(&problem);
            let want = max_flow::solve(
                &mut fresh.flow,
                fresh.source,
                fresh.sink,
                max_flow::Algorithm::Dinic,
            );
            assert_eq!(got.value, want.value);
        }
        assert_eq!(reusable.rebuilds(), 1);
    }

    #[test]
    fn shrinking_snapshot_leaves_no_ghost_flow() {
        // A big snapshot followed by a tiny one: the tiny solve must not see
        // capacities or flow left over from the big one.
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let mut reusable = ReusableTransform::new();
        let all: Vec<usize> = (0..8).collect();
        let big = ScheduleProblem::homogeneous(&cs, &all, &all);
        let t = reusable.configure_max_flow(&big);
        let r = max_flow::solve(&mut t.flow, t.source, t.sink, max_flow::Algorithm::Dinic);
        assert_eq!(r.value, 8);

        let tiny = ScheduleProblem::homogeneous(&cs, &[3], &[6]);
        let t = reusable.configure_max_flow(&tiny);
        let r = max_flow::solve(&mut t.flow, t.source, t.sink, max_flow::Algorithm::Dinic);
        assert_eq!(r.value, 1);
        let assignments = reusable.extract().unwrap();
        assert_eq!(assignments.len(), 1);
        assert_eq!(assignments[0].processor, 3);
        assert_eq!(assignments[0].resource, 6);
        verify(&assignments, &tiny).unwrap();
    }

    #[test]
    fn boundary_lookup_matches_the_binary_search() {
        let omega_net = omega(8).unwrap();
        let dp_net = omega_3dp(8).unwrap();
        for priced in [false, true] {
            let mut reusable = ReusableTransform::new();
            // omega, then 3dp-omega (a rebuild), then omega again.
            for (net, rebuilds) in [(&omega_net, 1), (&dp_net, 2), (&omega_net, 3)] {
                let cs = CircuitState::new(net);
                reusable.configure(&ScheduleProblem::homogeneous(&cs, &[1], &[2]), priced);
                assert_eq!(reusable.rebuilds(), rebuilds);
                let inner = reusable.inner.as_ref().unwrap();
                let (t, b) = (&inner.t, inner.boundary);
                let named = |a: ArcId| b.processor_of(a).is_some() || b.resource_of(a).is_some();
                for i in 0..2 * t.flow.num_arcs() {
                    let a = ArcId(i as u32);
                    assert_eq!(b.processor_of(a), t.processor_of_arc(a), "{priced} arc {i}");
                    assert_eq!(b.resource_of(a), t.resource_of_arc(a), "{priced} arc {i}");
                }
                for (p, &(q, a)) in t.request_arcs.iter().enumerate() {
                    assert_eq!((q, b.processor_of(a)), (p, Some(p)));
                }
                for (r, &(q, a)) in t.resource_arcs.iter().enumerate() {
                    assert_eq!((q, b.resource_of(a)), (r, Some(r)));
                }
                let links = t.link_arc.iter().map(|a| a.unwrap());
                let legs = inner.bypass_arcs.iter().copied();
                for a in links.chain(legs).chain(inner.bypass_sink_arc) {
                    assert!(!named(a), "{priced} arc {a:?} is no boundary arc");
                }
                assert_eq!(inner.bypass_arcs.len(), if priced { 8 } else { 0 });
                assert_eq!(inner.bypass_sink_arc.is_some(), priced);
            }
        }
    }

    #[test]
    fn network_fingerprint_is_per_topology() {
        let omega_a = omega(8).unwrap();
        let omega_b = omega(8).unwrap();
        let cube = generalized_cube(8).unwrap();
        assert_eq!(omega_a.fingerprint(), omega_b.fingerprint());
        assert_ne!(omega_a.fingerprint(), cube.fingerprint());
    }

    /// The request/resource arcs a configure leaves enabled, as sorted
    /// `(processors, resources)` lists read back from the capacities.
    fn enabled_arcs(reusable: &ReusableTransform) -> (Vec<usize>, Vec<usize>) {
        let t = reusable.transformed().unwrap();
        let on = |arcs: &[(usize, ArcId)]| -> Vec<usize> {
            arcs.iter()
                .filter(|&&(_, a)| t.flow.cap(a) > 0)
                .map(|&(x, _)| x)
                .collect()
        };
        (on(&t.request_arcs), on(&t.resource_arcs))
    }

    #[test]
    fn configure_sequence_leaves_no_stale_arcs() {
        let net = omega(8).unwrap();
        let mut cs = CircuitState::new(&net);
        let mut reusable = ReusableTransform::new();
        let mut priced = ReusableTransform::new();
        // Shrinking, then growing, then the same snapshot under fault
        // toggles, then an empty one.
        // (requesting processors, free resources, link toggled first).
        type Step = (&'static [usize], &'static [usize], Option<(u32, bool)>);
        let steps: [Step; 6] = [
            (&[0, 1, 2, 3, 4, 5, 6, 7], &[0, 1, 2, 3, 4, 5, 6, 7], None),
            (&[2, 5], &[7], None),
            (&[1, 3, 4, 6], &[0, 2, 5, 6], None),
            (&[1, 3, 4, 6], &[0, 2, 5, 6], Some((9, true))),
            (&[0, 6], &[3, 4], Some((9, false))),
            (&[], &[], None),
        ];
        for (procs, res, toggle) in steps {
            if let Some((raw, fail)) = toggle {
                let lid = LinkId(raw);
                if fail {
                    cs.fail_link(lid);
                } else {
                    cs.repair_link(lid);
                }
            }
            let problem = ScheduleProblem::homogeneous(&cs, procs, res);
            let want = (procs.to_vec(), res.to_vec());

            let t = reusable.configure_max_flow(&problem);
            let r = max_flow::solve(&mut t.flow, t.source, t.sink, max_flow::Algorithm::Dinic);
            verify(&reusable.extract().unwrap(), &problem).unwrap();
            assert_eq!(enabled_arcs(&reusable), want);

            let (t, f0) = priced.configure_min_cost(&problem);
            let got = min_cost::solve(
                &mut t.flow,
                t.source,
                t.sink,
                f0,
                min_cost::Algorithm::SuccessiveShortestPaths,
            );
            assert_eq!(got.flow, procs.len() as i64);
            assert_eq!(priced.extract().unwrap().len() as i64, r.value);
            assert_eq!(enabled_arcs(&priced), want);
            let inner = priced.inner.as_ref().unwrap();
            let bypassing: Vec<usize> = (0..8)
                .filter(|&p| inner.t.flow.cap(inner.bypass_arcs[p]) > 0)
                .collect();
            assert_eq!(bypassing, procs, "bypass legs follow the requests");
        }
        assert_eq!(reusable.rebuilds(), 1);
        assert_eq!(priced.rebuilds(), 1);
    }

    #[test]
    fn configure_after_lending_the_graph_disables_every_arc() {
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let mut reusable = ReusableTransform::new();
        reusable.configure_max_flow(&ScheduleProblem::homogeneous(&cs, &[0], &[0]));
        // A caller enables arcs behind configure's back ...
        let t = reusable.transformed_mut().unwrap();
        for i in 0..8 {
            t.flow.set_cap(t.request_arcs[i].1, 1);
            t.flow.set_cap(t.resource_arcs[i].1, 1);
        }
        // ... and the next configure still applies exactly its snapshot.
        reusable.configure_max_flow(&ScheduleProblem::homogeneous(&cs, &[3], &[5]));
        assert_eq!(enabled_arcs(&reusable), (vec![3], vec![5]));
    }

    /// The link state a `CircuitState` must report, kept as plain flags.
    struct LinkModel {
        occupied: Vec<bool>,
        faulty: Vec<bool>,
    }

    impl LinkModel {
        fn check(&self, cs: &CircuitState<'_>) -> Result<(), TestCaseError> {
            let copy = cs.clone_link_state();
            for (l, (&occ, &bad)) in self.occupied.iter().zip(&self.faulty).enumerate() {
                let lid = LinkId(l as u32);
                prop_assert_eq!(cs.is_free(lid), !occ && !bad, "link {}", l);
                prop_assert_eq!(cs.is_faulty(lid), bad, "link {}", l);
                prop_assert_eq!(copy.is_free(lid), !occ && !bad, "copied link {}", l);
                prop_assert_eq!(copy.is_faulty(lid), bad, "copied link {}", l);
            }
            let count = |flags: &[bool]| flags.iter().filter(|&&f| f).count();
            prop_assert_eq!(cs.faulty_count(), count(&self.faulty));
            prop_assert_eq!(cs.occupied_count(), count(&self.occupied));
            prop_assert_eq!(copy.occupied_count(), count(&self.occupied));
            let free: u32 = cs.free_link_words().map(u64::count_ones).sum();
            let want = (0..self.occupied.len())
                .filter(|&l| !self.occupied[l] && !self.faulty[l])
                .count();
            prop_assert_eq!(free as usize, want, "free words carry no stray bits");
            Ok(())
        }
    }

    /// One step of the diff proptest: `(op, a, b)` picks the circuit-state
    /// change, then `(requests, free)` masks pick the snapshot.
    type Step = ((u8, usize, usize), u64, u64, bool);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The bit-word diff configure leaves exactly the capacities of a
        /// freshly built transform configured on the same snapshot, with no
        /// flow left, after any sequence of circuit, fault and repair
        /// changes — with a solve (and usually a decomposition, whose walk
        /// the next reset restores) between configures, and the graph
        /// sometimes lent out, retuned and solved behind configure's back.
        /// The circuit state's bit words are checked against plain flags
        /// along the way.
        #[test]
        fn diff_configure_matches_fresh_build(
            three_dp in any::<bool>(),
            priced in any::<bool>(),
            bits in 2u32..4,
            steps in proptest::collection::vec(
                (
                    (0u8..9, 0usize..1024, 0usize..1024),
                    0u64..u64::MAX,
                    0u64..u64::MAX,
                    any::<bool>(),
                ),
                1..24,
            ),
        ) {
            let n = 1usize << bits;
            let net = if three_dp { omega_3dp(n) } else { omega(n) }.unwrap();
            let mut cs = CircuitState::new(&net);
            let mut model = LinkModel {
                occupied: vec![false; net.num_links()],
                faulty: vec![false; net.num_links()],
            };
            let mut live = Vec::new();
            let mut reusable = ReusableTransform::new();
            for ((op, a, b), req_mask, free_mask, decompose) in steps as Vec<Step> {
                let link = LinkId((a % net.num_links()) as u32);
                let bx = b % net.num_boxes();
                let boxed = || {
                    let node = NodeRef::Box(bx);
                    net.in_links(node).into_iter().chain(net.out_links(node))
                };
                match op {
                    0 | 1 => {
                        if let Ok(c) = cs.connect(a % n, b % n) {
                            for l in cs.circuit_links(c).unwrap() {
                                model.occupied[l.index()] = true;
                            }
                            live.push(c);
                        }
                    }
                    2 if !live.is_empty() => {
                        let c = live.swap_remove(a % live.len());
                        for l in cs.circuit_links(c).unwrap() {
                            model.occupied[l.index()] = false;
                        }
                        cs.release(c).unwrap();
                    }
                    3 => {
                        cs.release_all();
                        live.clear();
                        model.occupied.iter_mut().for_each(|o| *o = false);
                    }
                    4 => {
                        cs.fail_link(link);
                        model.faulty[link.index()] = true;
                    }
                    5 => {
                        cs.repair_link(link);
                        model.faulty[link.index()] = false;
                    }
                    6 => {
                        cs.fail_box(bx);
                        boxed().for_each(|l| model.faulty[l.index()] = true);
                    }
                    7 => {
                        cs.repair_box(bx);
                        boxed().for_each(|l| model.faulty[l.index()] = false);
                    }
                    8 if reusable.transformed().is_some() => {
                        // Lend the graph: retune boundary arcs and leave an
                        // unrecorded flow behind.
                        let t = reusable.transformed_mut().unwrap();
                        t.flow.reset();
                        for (i, &(_, arc)) in t.request_arcs.iter().enumerate() {
                            t.flow.set_cap(arc, Flow::from(req_mask >> i & 1 == 1));
                        }
                        for (i, &(_, arc)) in t.resource_arcs.iter().enumerate() {
                            t.flow.set_cap(arc, Flow::from(free_mask >> i & 1 == 1));
                        }
                        max_flow::solve(&mut t.flow, t.source, t.sink, max_flow::Algorithm::Dinic);
                    }
                    _ => {}
                }
                model.check(&cs)?;

                let requests: Vec<(usize, u32)> = (0..n)
                    .filter(|p| req_mask >> p & 1 == 1)
                    .map(|p| (p, (a + p) as u32 % 5))
                    .collect();
                let free: Vec<(usize, u32)> = (0..n)
                    .filter(|r| free_mask >> (r + 32) & 1 == 1)
                    .map(|r| (r, (b + r) as u32 % 7))
                    .collect();
                let problem = ScheduleProblem::with_priorities(&cs, &requests, &free);
                let mut fresh = ReusableTransform::new();
                let want = &fresh.configure(&problem, priced).0.flow;
                let (t, f0) = reusable.configure(&problem, priced);
                for (arc, got) in t.flow.forward_arcs() {
                    prop_assert_eq!(got.cap, want.cap(arc), "arc {:?}", arc);
                }
                for i in 0..2 * t.flow.num_arcs() {
                    let arc = ArcId(i as u32);
                    prop_assert_eq!(t.flow.residual(arc), t.flow.cap(arc), "arc {:?}", arc);
                }
                // Solve, so the next configure has flow to restore.
                if priced {
                    min_cost::solve(
                        &mut t.flow,
                        t.source,
                        t.sink,
                        f0,
                        min_cost::Algorithm::SuccessiveShortestPaths,
                    );
                } else {
                    max_flow::solve(&mut t.flow, t.source, t.sink, max_flow::Algorithm::Dinic);
                }
                if decompose {
                    verify(&reusable.extract().unwrap(), &problem).unwrap();
                }
            }
            prop_assert_eq!(reusable.rebuilds(), 1);
        }
    }
}
