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
use rsin_flow::{max_flow, min_cost, Flow, SolveScratch};
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
/// return the solve's work in estimated instructions. `probe` sees the
/// solve; `stages` times configure and extract (`visit` included), which
/// only the cycles ask for.
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
    let (work, value) = match graph {
        Graph::Fresh => {
            let (mut t, target) = match shape {
                Shape::MaxFlow(_) => (homogeneous::transform(problem), 0),
                Shape::MinCost(_) => priority::transform(problem),
            };
            let r = run(&mut t, target, &mut SolveScratch::new());
            let ends = |f, l| t.path_ends(f, l);
            mapping::for_each_circuit(&t, &mut PathWalk::default(), ends, &mut visit)?;
            r
        }
        Graph::Reusing(reusable, scratch) => {
            let stage = stages.start();
            let (t, target) = match shape {
                Shape::MaxFlow(_) => (reusable.configure_max_flow(problem), 0),
                Shape::MinCost(_) => reusable.configure_min_cost(problem),
            };
            stages.finish(stage, Hist::ConfigureNs);
            let r = run(t, target, scratch);
            let stage = stages.start();
            reusable.for_each_circuit(&mut visit)?;
            stages.finish(stage, Hist::ExtractNs);
            r
        }
    };
    debug_assert!(value.is_none_or(|v| v == found));
    Ok(work)
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
