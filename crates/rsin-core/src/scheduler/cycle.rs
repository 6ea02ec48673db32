//! The one Theorem-2/3 solve path: [`solve_each`] builds or configures a
//! transformation of the snapshot, solves it and decomposes the flow for
//! every flow schedule in this crate (DESIGN.md §6), [`solve`] collects
//! its circuits into assignments, and [`cycle`] wraps that into a
//! scheduling cycle.

use super::{check_ids, finish_outcome, OutcomeTables, ScheduleError, ScheduleScratch};
use crate::mapping::{self, Assignment, Circuit};
use crate::model::{ScheduleOutcome, ScheduleProblem};
use crate::transform::reusable::ReusableTransform;
use crate::transform::{homogeneous, priority, Transformed};
use rsin_flow::path::PathWalk;
use rsin_flow::{max_flow, min_cost, ArcId, Flow, SolveScratch};
use rsin_obs::{Counter, Hist, NoopProbe, Probe};

/// A flow scheduler's transformation and solver.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Shape {
    /// Transformation 1, solved by maximum flow (Theorem 2).
    MaxFlow(max_flow::Algorithm),
    /// Transformation 2, solved by minimum-cost flow (Theorem 3).
    MinCost(min_cost::Algorithm),
}

/// Where [`solve`] takes its graph from.
pub(crate) enum Graph<'s> {
    /// Build the transformation of this snapshot alone: the paper's monitor
    /// model, whose graph the instruction-count cost model prices.
    Fresh,
    /// Retune a superset graph and solve with reused buffers.
    Reusing(&'s mut ReusableTransform, &'s mut SolveScratch),
}

impl Shape {
    /// A cycle on a freshly built transformation ([`Graph::Fresh`]).
    pub(crate) fn fresh_cycle(
        self,
        problem: &ScheduleProblem,
    ) -> Result<ScheduleOutcome, ScheduleError> {
        let tables = &mut OutcomeTables::default();
        cycle(self, problem, Graph::Fresh, tables, &NoopProbe)
    }

    /// A cycle on `scratch`'s superset graph of this shape.
    pub(crate) fn cycle<P: Probe + ?Sized>(
        self,
        problem: &ScheduleProblem,
        scratch: &mut ScheduleScratch,
        probe: &P,
    ) -> Result<ScheduleOutcome, ScheduleError> {
        let reusable = match self {
            Shape::MaxFlow(_) => &mut scratch.max_flow,
            Shape::MinCost(_) => &mut scratch.min_cost,
        };
        let graph = Graph::Reusing(reusable, &mut scratch.solve);
        cycle(self, problem, graph, &mut scratch.outcome, probe)
    }
}

/// [`solve_each`], collecting the circuits into assignments.
pub(crate) fn solve<P: Probe + ?Sized, S: Probe + ?Sized>(
    shape: Shape,
    problem: &ScheduleProblem,
    graph: Graph<'_>,
    probe: &P,
    stages: &S,
) -> Result<(Vec<Assignment>, u64), ScheduleError> {
    let mut assignments = Vec::new();
    let work = solve_each(shape, problem, graph, probe, stages, &mut |c| {
        assignments.push(c.assignment()?);
        Ok(())
    })?;
    Ok((assignments, work))
}

/// Build or configure → solve → extract: hand each circuit of an optimal
/// flow of `shape` on `problem` to `visit`, in decomposition order, and
/// return the solve's work in estimated instructions. Extract reads the
/// circuits off a one-pass Dinic solve's augmenting paths and walks the
/// flow otherwise. `probe` sees the solve, counts a Dinic solve whose first
/// phase took the graph's grading and counts the decomposition as recorded
/// or walked; `stages` times configure and extract (`visit` included),
/// which only the cycles ask for.
pub(crate) fn solve_each<P: Probe + ?Sized, S: Probe + ?Sized>(
    shape: Shape,
    problem: &ScheduleProblem,
    graph: Graph<'_>,
    probe: &P,
    stages: &S,
    visit: &mut dyn FnMut(Circuit<'_>) -> Result<(), ScheduleError>,
) -> Result<u64, ScheduleError> {
    let mut found: Flow = 0;
    let mut visit = |c: Circuit<'_>| {
        found += 1;
        visit(c)
    };
    // The solve's work in estimated instructions and, under Theorem 2, its
    // flow value (the number of circuits).
    let run = |t: &mut Transformed, target: Flow, scratch: &mut SolveScratch| match shape {
        Shape::MaxFlow(algo) => {
            let r = max_flow::solve_observed(&mut t.flow, t.source, t.sink, algo, scratch, probe);
            if algo == max_flow::Algorithm::Dinic && scratch.graded_first_phase() {
                probe.add(Counter::GradedPhases, 1);
            }
            (r.stats.estimated_instructions(), Some(r.value))
        }
        Shape::MinCost(algo) => {
            // Transformation 2, of a snapshot or of a residual, prices
            // allocations at (γ_max − γ_p) + (q_max − q_w) ≥ 0 and the
            // bypass above them, so SSP skips its reweighting prepass.
            debug_assert!(
                !t.flow.has_negative_cost(),
                "Transformation-2 networks must have nonnegative arc costs"
            );
            let r = min_cost::solve_observed(
                &mut t.flow,
                t.source,
                t.sink,
                target,
                algo,
                scratch,
                probe,
            );
            (r.stats.estimated_instructions(), None)
        }
    };
    let (work, value, recorded) = match graph {
        Graph::Fresh => {
            let (mut t, target) = match shape {
                Shape::MaxFlow(_) => (homogeneous::transform(problem), 0),
                Shape::MinCost(_) => priority::transform(problem),
            };
            let scratch = &mut SolveScratch::new();
            let (work, value) = run(&mut t, target, scratch);
            let ends = |f, l| t.path_ends(f, l);
            let recorded = recorded_paths(shape, scratch);
            match recorded {
                Some(paths) => mapping::for_each_recorded_circuit(&t, paths, ends, &mut visit)?,
                None => mapping::for_each_circuit(&t, &mut PathWalk::default(), ends, &mut visit)?,
            }
            (work, value, recorded.is_some())
        }
        Graph::Reusing(reusable, scratch) => {
            let stage = stages.start();
            let (t, target) = match shape {
                Shape::MaxFlow(_) => (reusable.configure_max_flow(problem), 0),
                Shape::MinCost(_) => reusable.configure_min_cost(problem),
            };
            stages.finish(stage, Hist::ConfigureNs);
            let (work, value) = run(t, target, scratch);
            let stage = stages.start();
            let recorded = recorded_paths(shape, scratch);
            reusable.for_each_circuit(recorded, &mut visit)?;
            stages.finish(stage, Hist::ExtractNs);
            (work, value, recorded.is_some())
        }
    };
    debug_assert!(value.is_none_or(|v| v == found));
    let decomposed = if recorded {
        Counter::RecordedDecompositions
    } else {
        Counter::WalkedDecompositions
    };
    probe.add(decomposed, 1);
    Ok(work)
}

/// The solve's augmenting paths when they are its flow's decomposition: a
/// Dinic solve that ran at most one blocking-flow pass. Every solve here
/// starts from zero flow (a fresh graph has none, and a configure resets
/// it), so within its one pass no twin arc is admissible and the
/// current-arc DFS completes the paths the walk would take, in the walk's
/// order (DESIGN.md §14.8).
fn recorded_paths(shape: Shape, scratch: &SolveScratch) -> Option<&[ArcId]> {
    match shape {
        Shape::MaxFlow(max_flow::Algorithm::Dinic) => scratch.one_pass_paths(),
        _ => None,
    }
}

/// The flow schedulers' one scheduling cycle: validate ids, [`solve`],
/// assemble the outcome. Reports a [`Hist::CycleLatencyNs`] span over the
/// cycle, the configure/extract/finish stage spans, the solve's counts and
/// a [`Counter::Cycles`] tick; instantiated with [`NoopProbe`] every probe
/// call compiles away.
fn cycle<P: Probe + ?Sized>(
    shape: Shape,
    problem: &ScheduleProblem,
    graph: Graph<'_>,
    tables: &mut OutcomeTables,
    probe: &P,
) -> Result<ScheduleOutcome, ScheduleError> {
    check_ids(problem)?;
    let span = probe.start();
    let (assignments, work) = solve(shape, problem, graph, probe, probe)?;
    let stage = probe.start();
    let out = finish_outcome(problem, assignments, work, tables);
    probe.finish(stage, Hist::FinishNs);
    probe.finish(span, Hist::CycleLatencyNs);
    probe.add(Counter::Cycles, 1);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::MappingError;
    use crate::scheduler::{HierarchicalScheduler, InterShardPolicy};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use rsin_obs::Telemetry;
    use rsin_topology::builders::{generalized_cube, omega, omega_3dp};
    use rsin_topology::{
        CircuitState, GlobalTopology, LinkId, Network, ShardedNetwork, ShardedSpec,
    };

    /// A circuit as the tests compare it: processor, resource and the
    /// network links between them.
    type Key = (usize, usize, Vec<LinkId>);

    fn key(c: &Circuit<'_>) -> Key {
        (c.processor, c.resource, c.assignment().unwrap().path)
    }

    /// The circuits of `t`'s flow in walk order, and the walk's trail.
    fn walked(t: &Transformed) -> (Vec<Key>, Vec<ArcId>) {
        let mut walk = PathWalk::default();
        let mut circuits = Vec::new();
        let ends = |f, l| t.path_ends(f, l);
        mapping::for_each_circuit(t, &mut walk, ends, |c| {
            circuits.push(key(&c));
            Ok::<_, MappingError>(())
        })
        .unwrap();
        (circuits, walk.carried().unwrap().to_vec())
    }

    /// A random number of distinct ids below `n`, in random order.
    fn pick(rng: &mut StdRng, n: usize) -> Vec<usize> {
        let mut ids: Vec<usize> = (0..n).collect();
        ids.shuffle(rng);
        ids.truncate(rng.random_range(0..=n));
        ids
    }

    /// One Theorem-2 `solve_each` on `graph`: its circuits, in the order
    /// handed out, and its blocking-flow passes. Asserts that it read them
    /// off the solve's augmenting paths exactly when the solve ran at most
    /// one pass, and walked otherwise, and that its first phase took the
    /// graph's grading exactly when it had a cut to fill and no closed
    /// interior arc: always on a fresh graph, which leaves held and failed
    /// links out, and on the reusable graph when no link is held or failed.
    fn solve_counted(
        problem: &ScheduleProblem,
        graph: Graph<'_>,
    ) -> Result<(Vec<Key>, u64), TestCaseError> {
        let cs = problem.circuits;
        let idle = matches!(graph, Graph::Fresh) || cs.occupied_count() + cs.faulty_count() == 0;
        let telemetry = Telemetry::new();
        let mut got = Vec::new();
        let shape = Shape::MaxFlow(max_flow::Algorithm::Dinic);
        solve_each(shape, problem, graph, &telemetry, &NoopProbe, &mut |c| {
            got.push(key(&c));
            Ok(())
        })
        .unwrap();
        // From zero flow the cut bound is min(requests, free resources); a
        // solve below it ran one last search that found nothing.
        let report = telemetry.report();
        let phases: u64 = report.solvers.iter().map(|s| s.counts.phases).sum();
        let bound = problem.requests.len().min(problem.free.len());
        let passes = phases - u64::from(got.len() < bound);
        let counter = |c: Counter| report.counters[c.index()];
        prop_assert_eq!(
            counter(Counter::RecordedDecompositions),
            u64::from(passes <= 1)
        );
        prop_assert_eq!(
            counter(Counter::WalkedDecompositions),
            u64::from(passes > 1)
        );
        prop_assert_eq!(counter(Counter::GradedPhases), u64::from(idle && bound > 0));
        Ok((got, passes))
    }

    /// [`solve_counted`] on `reusable`'s graph, checked against the walk
    /// of the flow it solved: the same circuits in the same order, and the
    /// walk's trail as the next configure's restore list. Returns the
    /// solve's passes.
    fn check_reusing(
        problem: &ScheduleProblem,
        reusable: &mut ReusableTransform,
        scratch: &mut SolveScratch,
    ) -> Result<u64, TestCaseError> {
        let (got, passes) = solve_counted(problem, Graph::Reusing(reusable, scratch))?;
        let (want, trail) = walked(reusable.transformed().unwrap());
        prop_assert_eq!(got, want);
        prop_assert_eq!(reusable.carried(), Some(trail.as_slice()));
        Ok(passes)
    }

    /// A random snapshot of `net`: a few circuits held, a few links
    /// failed, random requests and free resources.
    fn snapshot<'n>(
        net: &'n Network,
        rng: &mut StdRng,
    ) -> (CircuitState<'n>, Vec<usize>, Vec<usize>) {
        let (np, nr) = (net.num_processors(), net.num_resources());
        let mut cs = CircuitState::new(net);
        for _ in 0..rng.random_range(0..np / 2) {
            let _ = cs.connect(rng.random_range(0..np), rng.random_range(0..nr));
        }
        for _ in 0..rng.random_range(0..4) {
            cs.fail_link(LinkId(rng.random_range(0..net.num_links() as u32)));
        }
        let requests = pick(rng, np);
        let free = pick(rng, nr);
        (cs, requests, free)
    }

    /// The solves of [`one_pass_paths_are_the_walk`] for one seed, each
    /// checked; returns how many ran at most one pass and how many more.
    fn check_seed(seed: u64) -> Result<[u32; 2], TestCaseError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = match seed % 3 {
            0 => omega(16),
            1 => generalized_cube(16),
            _ => omega_3dp(16),
        }
        .unwrap();
        let mut passes = [0; 2];
        let mut tally = |p: u64| passes[usize::from(p > 1)] += 1;
        let (mut reusable, mut scratch) = (ReusableTransform::new(), SolveScratch::new());
        for _ in 0..6 {
            let (cs, requests, free) = snapshot(&net, &mut rng);
            let problem = ScheduleProblem::homogeneous(&cs, &requests, &free);
            let (got, p) = solve_counted(&problem, Graph::Fresh)?;
            tally(p);
            let mut t = homogeneous::transform(&problem);
            max_flow::solve(&mut t.flow, t.source, t.sink, max_flow::Algorithm::Dinic);
            prop_assert_eq!(got, walked(&t).0);
            tally(check_reusing(&problem, &mut reusable, &mut scratch)?);
        }
        prop_assert_eq!(reusable.rebuilds(), 1);

        let sharded = ShardedNetwork::new(ShardedSpec::new(4, 16, GlobalTopology::Omega))
            .expect("4x16 omega composition is well-formed");
        let h = HierarchicalScheduler::new(&sharded, InterShardPolicy::TokenRing);
        let local = CircuitState::new(sharded.local());
        let mut shards: Vec<ReusableTransform> = (0..4).map(|_| ReusableTransform::new()).collect();
        for _ in 0..4 {
            let ports = sharded.num_ports();
            let requests = pick(&mut rng, ports);
            let free = pick(&mut rng, ports);
            let placement = h.place(&requests, &free).unwrap();
            for (plan, shard) in placement.shards.iter().zip(&mut shards) {
                let requests: Vec<usize> = plan.requests.iter().map(|&(p, _)| p).collect();
                let problem = ScheduleProblem::homogeneous(&local, &requests, &plan.free);
                tally(check_reusing(&problem, shard, &mut scratch)?);
            }
        }
        Ok(passes)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A one-pass Dinic solve's augmenting paths are the walk's
        /// decomposition of its flow. On random Transformation-1
        /// snapshots of omega, cube and 3dp-omega networks (circuits held,
        /// links failed), through one reusable graph cycle after cycle and
        /// on freshly built graphs, and on the shard plans of random
        /// hierarchical placements: every solve hands out the walk's
        /// circuits (processor, resource, links, order), a one-pass solve's
        /// record becomes exactly the walk's `carried` trail, every
        /// multi-pass solve walks, and the first phase takes the graph's
        /// grading exactly when no interior arc is closed.
        #[test]
        fn one_pass_paths_are_the_walk(seed in 0u64..u64::MAX) {
            check_seed(seed)?;
        }
    }

    /// The seeds above reach both kinds of solve: the property is not
    /// vacuous on either side.
    #[test]
    fn one_pass_and_multi_pass_solves_are_both_checked() {
        let mut total = [0; 2];
        for seed in 0..12 {
            let [one, multi] = check_seed(seed).unwrap();
            total = [total[0] + one, total[1] + multi];
        }
        assert!(total[0] > 0 && total[1] > 0, "{total:?}");
    }
}
