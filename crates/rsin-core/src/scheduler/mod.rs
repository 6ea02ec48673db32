//! Resource schedulers: the paper's optimal flow-based mappings and the
//! heuristic baselines they are compared against.
//!
//! | scheduler | discipline | algorithm |
//! |-----------|------------|-----------|
//! | [`MaxFlowScheduler`] | homogeneous, no priority | Transformation 1 + max flow (Theorem 2) |
//! | [`MinCostScheduler`] | homogeneous, priority & preference | Transformation 2 + min-cost flow (Theorem 3) |
//! | [`MultiCommodityScheduler`] | heterogeneous | multicommodity LP (Section III-D) |
//! | [`MatchingScheduler`] | single-stage networks | Hopcroft–Karp maximum matching (crossbar fast path) |
//! | [`GreedyScheduler`] | any | per-request BFS routing, no lookahead (the "heuristic routing algorithm" with ≈20 % blocking) |
//! | [`AddressMappedScheduler`] | any | resource bound *before* entering the network (conventional address mapping) |
//! | [`ExhaustiveScheduler`] | any (tiny instances) | full search over mappings × path choices |
//!
//! All implement [`Scheduler`] and return a [`ScheduleOutcome`] whose
//! assignments can be independently certified with
//! [`mapping::verify`](crate::mapping::verify).

mod cycle;
mod exhaustive;
mod heuristic;
pub mod hierarchical;
pub mod incremental;
mod matching;
mod max_flow;
mod min_cost;
mod multicommodity;

pub use exhaustive::ExhaustiveScheduler;
pub use heuristic::{AddressMappedScheduler, GreedyScheduler, RequestOrder};
pub use hierarchical::{
    GlobalAssignment, HierarchicalOutcome, HierarchicalScheduler, InterShardPolicy, Placement,
    ShardBreakdown, ShardPlan,
};
pub use incremental::{IncrementalBackend, IncrementalScheduler, PromotedRequest, StreamDecision};
pub use matching::MatchingScheduler;
pub use max_flow::MaxFlowScheduler;
pub use min_cost::MinCostScheduler;
pub use multicommodity::MultiCommodityScheduler;

use crate::mapping::{Assignment, MappingError};
use crate::model::{FreeResource, ScheduleOutcome, ScheduleProblem, ScheduleRequest};
use crate::transform::reusable::ReusableTransform;
use cycle::{Graph, Shape};
use rsin_flow::min_cost::Algorithm as MinCostAlgorithm;
use rsin_flow::SolveScratch;
use rsin_topology::circuit::CircuitError;
use rsin_topology::CircuitState;

/// Why a scheduler could not produce an outcome for a snapshot.
///
/// Optimal schedulers cannot fail on well-formed problems (their theorems
/// guarantee decomposable flows), so an error here always indicates a
/// corrupted snapshot or an internal invariant violation — but callers that
/// drive schedulers over untrusted input get a typed error instead of a
/// panic via [`Scheduler::try_schedule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// The optimal flow did not decompose into request→resource circuits.
    Mapping(MappingError),
    /// A fallback path could not establish a circuit it believed was free.
    Circuit(CircuitError),
    /// A stream command named a processor the network does not have.
    UnknownProcessor(usize),
    /// A snapshot or command named a resource the network does not have.
    UnknownResource(usize),
    /// A stream `Request` arrived for a processor that is already queued or
    /// allocated.
    DuplicateRequest(usize),
    /// A stream `Release` arrived for a processor with nothing to release.
    ReleaseIdle(usize),
    /// The scheduler handles single-stage networks only and was given one
    /// with this many stages.
    MultiStageNetwork(usize),
    /// An internal invariant was violated (corrupted flow or bookkeeping);
    /// the message names the broken invariant.
    Internal(&'static str),
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::Mapping(e) => write!(f, "flow decomposition failed: {e:?}"),
            ScheduleError::Circuit(e) => write!(f, "circuit establishment failed: {e:?}"),
            ScheduleError::UnknownProcessor(p) => write!(f, "unknown processor {p}"),
            ScheduleError::UnknownResource(r) => write!(f, "unknown resource {r}"),
            ScheduleError::DuplicateRequest(p) => {
                write!(f, "processor {p} already has an active request")
            }
            ScheduleError::ReleaseIdle(p) => write!(f, "processor {p} has nothing to release"),
            ScheduleError::MultiStageNetwork(n) => {
                write!(f, "single-stage network required, got {n} stages")
            }
            ScheduleError::Internal(m) => write!(f, "internal invariant violated: {m}"),
        }
    }
}

impl std::error::Error for ScheduleError {}

impl From<MappingError> for ScheduleError {
    fn from(e: MappingError) -> Self {
        ScheduleError::Mapping(e)
    }
}

impl From<CircuitError> for ScheduleError {
    fn from(e: CircuitError) -> Self {
        ScheduleError::Circuit(e)
    }
}

/// Reusable per-thread state for the scheduling hot path: solver buffers
/// plus lazily built reusable transformation graphs (one per transformation
/// shape). Feed it to [`Scheduler::try_schedule_reusing`] to re-solve
/// successive snapshots on the same topology without rebuilding the
/// transformation graph or reallocating solver scratch.
#[derive(Debug, Default)]
pub struct ScheduleScratch {
    /// Solver working memory shared by all flow algorithms.
    pub(crate) solve: SolveScratch,
    /// Superset Transformation-1 graph (max-flow schedulers).
    pub(crate) max_flow: ReusableTransform,
    /// Superset Transformation-2 graph (min-cost schedulers).
    pub(crate) min_cost: ReusableTransform,
    /// [`finish_outcome`]'s id-indexed tables.
    pub(crate) outcome: OutcomeTables,
}

/// The id-indexed tables of [`finish_outcome`]: per processor its request's
/// priority and whether an assignment serves it, per resource its
/// preference. They grow to the largest id seen and are left all-clear, so
/// a call touches only the entries of its snapshot.
#[derive(Debug, Default)]
pub(crate) struct OutcomeTables {
    priority_of: Vec<Option<i64>>,
    preference_of: Vec<Option<i64>>,
    allocated: Vec<bool>,
}

impl ScheduleScratch {
    /// Empty scratch; graphs and buffers are built on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total transformation-graph (re)builds across both shapes. A run that
    /// stays on one topology with one scheduler must observe exactly 1 —
    /// link faults and repairs are incremental capacity patches, never
    /// rebuilds.
    pub fn rebuilds(&self) -> u64 {
        self.max_flow.rebuilds() + self.min_cost.rebuilds()
    }
}

// Worker pools (rsin-sim) construct one `ScheduleScratch` per worker thread
// and move it into the scoped closure; keep the hot-path state `Send` so
// that per-worker plumbing cannot silently regress.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ScheduleScratch>()
};

/// Outcome of a degraded-mode scheduling cycle
/// ([`Scheduler::try_schedule_degraded`] and
/// [`Scheduler::try_schedule_degraded_priced`]): the merged mapping plus
/// how many blocked requests the retry rescued, and how many were shed
/// (left unallocated this cycle).
#[derive(Debug, Clone)]
pub struct DegradedOutcome {
    /// The merged outcome: primary assignments plus recovered ones, with
    /// `blocked` listing only the shed requests. `total_cost` is computed
    /// on the original problem's cost scale.
    pub outcome: ScheduleOutcome,
    /// Requests the primary pass blocked but the retry re-routed to an
    /// alternate free resource.
    pub recovered: usize,
    /// Requests still unallocated after the retry.
    pub shed: usize,
    /// Transformation-2 cost added by the recovered assignments: merged
    /// total cost minus the primary pass's total cost, both on the original
    /// problem's cost scale. Always ≥ 0 (recovered assignments only add
    /// nonnegative terms). The BFS retry picks alternates blindly; the
    /// priced retry's is minimal among maximal recoveries (Theorem 3
    /// applied to the residual).
    pub recovery_cost: i64,
}

/// The priced retry's outcome: the same [`DegradedOutcome`], kept under
/// this name only because external [`Scheduler`] implementations still
/// spell it in their method signatures.
pub type PricedDegradedOutcome = DegradedOutcome;

impl DegradedOutcome {
    /// `primary` unchanged, every blocked request shed.
    pub(crate) fn shed_all(primary: ScheduleOutcome) -> Self {
        DegradedOutcome {
            recovered: 0,
            shed: primary.blocked.len(),
            recovery_cost: 0,
            outcome: primary,
        }
    }
}

/// The residual of a cycle: a copy of the snapshot's link state with the
/// cycle's assignments so far established on it, and which resources (by
/// id) they took. Every heuristic and every degraded retry routes over one
/// of these.
struct Residual<'n> {
    circuits: CircuitState<'n>,
    taken: Vec<bool>,
    assignments: Vec<Assignment>,
}

impl<'n> Residual<'n> {
    /// Validate the snapshot's ids (`taken` and the circuit state are
    /// indexed by them), then pin `pinned` onto a copy of its link state.
    fn pin(
        problem: &ScheduleProblem<'_, 'n>,
        pinned: Vec<Assignment>,
    ) -> Result<Self, ScheduleError> {
        check_ids(problem)?;
        let mut circuits = problem.circuits.clone_link_state();
        let mut taken = vec![false; problem.circuits.network().num_resources()];
        for a in &pinned {
            if let Some(t) = taken.get_mut(a.resource) {
                *t = true;
            }
            circuits.establish(&a.path)?;
        }
        Ok(Residual {
            circuits,
            taken,
            assignments: pinned,
        })
    }

    /// The untaken free resources of type `ty`, in free-list order.
    fn untaken<'p>(
        &'p self,
        problem: &'p ScheduleProblem,
        ty: usize,
    ) -> impl Iterator<Item = &'p FreeResource> {
        problem
            .free
            .iter()
            .filter(move |f| !self.taken[f.resource] && f.resource_type == ty)
    }

    /// Establish `a`'s circuit, take its resource and keep the assignment.
    fn commit(&mut self, a: Assignment) -> Result<(), ScheduleError> {
        self.circuits.establish(&a.path)?;
        self.taken[a.resource] = true;
        self.assignments.push(a);
        Ok(())
    }

    /// Map the requests `wanted` selects one resource type at a time, in
    /// ascending type order, since Transformations 1 and 2 are type-blind:
    /// each round's snapshot holds that type's selected requests and
    /// untaken free resources over the residual links, `solve` maps it, and
    /// the round's assignments are committed before the next round, so
    /// rounds stay link-disjoint. Returns the work `solve` reported.
    fn rounds(
        &mut self,
        problem: &ScheduleProblem,
        wanted: impl Fn(&ScheduleRequest) -> bool,
        mut solve: impl FnMut(&ScheduleProblem) -> Result<(Vec<Assignment>, u64), ScheduleError>,
    ) -> Result<u64, ScheduleError> {
        let mut types: Vec<usize> = problem
            .requests
            .iter()
            .filter(|r| wanted(r))
            .map(|r| r.resource_type)
            .collect();
        types.sort_unstable();
        types.dedup();
        let mut spent = 0;
        for ty in types {
            let requests = problem
                .requests
                .iter()
                .filter(|r| r.resource_type == ty && wanted(r))
                .copied()
                .collect();
            let free: Vec<_> = self.untaken(problem, ty).copied().collect();
            if free.is_empty() {
                continue;
            }
            let (found, work) = solve(&ScheduleProblem {
                circuits: &self.circuits,
                requests,
                free,
            })?;
            spent += work;
            for a in found {
                self.commit(a)?;
            }
        }
        Ok(spent)
    }

    /// The paper's heuristic routing: each request in turn BFSes over the
    /// free links to *any* untaken resource of its type, with no lookahead
    /// over the requests after it.
    fn route_to_any<'r>(
        &mut self,
        problem: &ScheduleProblem,
        requests: impl IntoIterator<Item = &'r ScheduleRequest>,
    ) -> Result<(), ScheduleError> {
        for req in requests {
            let candidates: Vec<usize> = self
                .untaken(problem, req.resource_type)
                .map(|f| f.resource)
                .collect();
            if candidates.is_empty() {
                continue;
            }
            if let Some((resource, path)) =
                self.circuits.find_path_to_any(req.processor, &candidates)
            {
                self.commit(Assignment {
                    processor: req.processor,
                    resource,
                    path,
                })?;
            }
        }
        Ok(())
    }
}

/// Degraded-mode recovery, the one pipeline both retries run: pin the
/// primary assignments onto the residual, let `route` recover the blocked
/// requests over it (returning the work it spent, in estimated
/// instructions), and merge. The merged outcome is re-costed on the
/// original problem via [`finish_outcome`], so `recovery_cost` and the
/// merged `total_cost` share one scale.
fn recover(
    problem: &ScheduleProblem,
    primary: ScheduleOutcome,
    tables: &mut OutcomeTables,
    route: impl FnOnce(&mut Residual<'_>, &[usize]) -> Result<u64, ScheduleError>,
) -> Result<DegradedOutcome, ScheduleError> {
    if primary.blocked.is_empty() {
        return Ok(DegradedOutcome::shed_all(primary));
    }
    let pinned = primary.assignments.len();
    let mut residual = Residual::pin(problem, primary.assignments)?;
    let spent = route(&mut residual, &primary.blocked)?;
    let recovered = residual.assignments.len() - pinned;
    let outcome = finish_outcome(
        problem,
        residual.assignments,
        primary.estimated_instructions + spent,
        tables,
    );
    Ok(DegradedOutcome {
        recovery_cost: outcome.total_cost - primary.total_cost,
        shed: outcome.blocked.len(),
        recovered,
        outcome,
    })
}

/// Retry every blocked request of `primary` over the residual free links:
/// each blocked request BFSes to *any* still-untaken, type-compatible free
/// resource. Recovered requests join the assignments; the rest are shed.
fn retry_blocked(
    problem: &ScheduleProblem,
    primary: ScheduleOutcome,
    tables: &mut OutcomeTables,
) -> Result<DegradedOutcome, ScheduleError> {
    recover(problem, primary, tables, |residual, blocked| {
        let requests = blocked
            .iter()
            .filter_map(|&p| problem.requests.iter().find(|r| r.processor == p));
        residual.route_to_any(problem, requests)?;
        Ok(0)
    })
}

/// Priced retry of every blocked request of `primary`: residual rounds
/// ([`Residual::rounds`]) over only the blocked requests and still-untaken
/// free resources, each solved through the scratch's reusable
/// Transformation-2 graph (occupied links enter as capacity patches, never
/// a rebuild; the bypass node absorbs requests no free resource can reach).
///
/// The residual's local `γ'_max`/`q'_max` shift every allocation cost by a
/// per-round constant relative to the full problem's scale, which never
/// changes the argmin; [`recover`] re-costs the merged outcome on the
/// original problem.
fn priced_retry_blocked(
    problem: &ScheduleProblem,
    primary: ScheduleOutcome,
    scratch: &mut ScheduleScratch,
    algorithm: MinCostAlgorithm,
    probe: &dyn rsin_obs::Probe,
) -> Result<DegradedOutcome, ScheduleError> {
    let ScheduleScratch {
        solve,
        min_cost: reusable,
        outcome,
        ..
    } = scratch;
    recover(problem, primary, outcome, |residual, blocked_list| {
        let mut blocked = vec![false; problem.circuits.network().num_processors()];
        for &p in blocked_list {
            blocked[p] = true;
        }
        residual.rounds(
            problem,
            |r| blocked[r.processor],
            |sub| {
                let graph = Graph::Reusing(reusable, solve);
                cycle::solve(
                    Shape::MinCost(algorithm),
                    sub,
                    graph,
                    probe,
                    &rsin_obs::NoopProbe,
                )
            },
        )
    })
}

/// Count a degraded cycle's rescue/shed/cost totals into `probe`: the
/// epilogue both observed degraded entry points share.
fn report_degraded(probe: &dyn rsin_obs::Probe, degraded: &DegradedOutcome) {
    probe.add(rsin_obs::Counter::DegradedCycles, 1);
    probe.add(rsin_obs::Counter::Recovered, degraded.recovered as u64);
    probe.add(rsin_obs::Counter::Shed, degraded.shed as u64);
    debug_assert!(degraded.recovery_cost >= 0);
    probe.add(
        rsin_obs::Counter::RecoveryCost,
        degraded.recovery_cost as u64,
    );
    probe.record(rsin_obs::Hist::RecoveryCost, degraded.recovery_cost as u64);
}

/// A scheduling discipline: map pending requests to free resources for one
/// scheduling cycle.
///
/// `Sync` is a supertrait so one scheduler instance can drive concurrent
/// Monte-Carlo workers (`rsin-sim` shares `&dyn Scheduler` across threads).
pub trait Scheduler: Sync {
    /// Short identifier used in experiment output.
    fn name(&self) -> &'static str;

    /// Compute a request→resource mapping for the snapshot, reporting
    /// failures as typed errors.
    fn try_schedule(&self, problem: &ScheduleProblem) -> Result<ScheduleOutcome, ScheduleError>;

    /// Compute a request→resource mapping for the snapshot.
    ///
    /// Panics if the scheduler fails (impossible on well-formed snapshots);
    /// use [`Self::try_schedule`] to handle failures.
    fn schedule(&self, problem: &ScheduleProblem) -> ScheduleOutcome {
        match self.try_schedule(problem) {
            Ok(out) => out,
            Err(e) => panic!("{} failed to schedule: {e}", self.name()),
        }
    }

    /// Like [`Self::try_schedule`], but reusing `scratch` across calls so
    /// repeated solves on the same topology skip graph construction and
    /// solver allocations. The default implementation ignores the scratch;
    /// the flow schedulers run their shared cycle with no probe.
    fn try_schedule_reusing(
        &self,
        problem: &ScheduleProblem,
        scratch: &mut ScheduleScratch,
    ) -> Result<ScheduleOutcome, ScheduleError> {
        let _ = scratch;
        self.try_schedule(problem)
    }

    /// Degraded-mode scheduling for faulted networks: run the primary
    /// discipline, then retry each blocked request over an alternate path
    /// to any still-untaken type-compatible free resource before shedding
    /// it. The typed [`DegradedOutcome`] separates recovered from shed
    /// requests.
    ///
    /// For the optimal flow-based schedulers the primary mapping is already
    /// maximum, so `recovered` is 0 by construction; the retry matters for
    /// the heuristic disciplines (notably address-mapped binding, whose
    /// blind bindings fail precisely when links die under them).
    ///
    /// Forwards to [`Self::try_schedule_degraded_observed`] with
    /// [`rsin_obs::NoopProbe`].
    fn try_schedule_degraded(
        &self,
        problem: &ScheduleProblem,
        scratch: &mut ScheduleScratch,
    ) -> Result<DegradedOutcome, ScheduleError> {
        self.try_schedule_degraded_observed(problem, scratch, &rsin_obs::NoopProbe)
    }

    /// The recovery pass of priced degraded-mode scheduling: given the
    /// primary outcome, solve the residual Transformation-2 subproblem over
    /// the blocked requests and still-free resources and merge. The default
    /// runs successive shortest paths on the residual;
    /// [`MinCostScheduler`] overrides it to reuse its own configured
    /// algorithm, and [`MaxFlowScheduler`] overrides it to skip the residual
    /// entirely (its primary mapping is already maximum, so any recovery
    /// would extend a maximum mapping — impossible by Theorem 2 — and
    /// skipping keeps its scratch free of the min-cost shape).
    fn priced_retry(
        &self,
        problem: &ScheduleProblem,
        primary: ScheduleOutcome,
        scratch: &mut ScheduleScratch,
        probe: &dyn rsin_obs::Probe,
    ) -> Result<DegradedOutcome, ScheduleError> {
        priced_retry_blocked(
            problem,
            primary,
            scratch,
            MinCostAlgorithm::SuccessiveShortestPaths,
            probe,
        )
    }

    /// Priced degraded-mode scheduling for faulted networks: run the
    /// primary discipline, then instead of the blind BFS retry of
    /// [`Self::try_schedule_degraded`], solve a residual Transformation-2
    /// min-cost subproblem over the blocked requests and still-free
    /// resources (bypass node absorbing the unallocatable ones) and merge.
    /// Among all maximal recoveries the residual solve picks the one of
    /// minimum cost, so degraded capacity is filled preference-first — the
    /// regime where alternate choice dominates tail behavior.
    ///
    /// For min-cost schedulers the merged result is *bit-identical in total
    /// cost* to a fresh Transformation-2 solve on the same faulted topology
    /// (the optimality oracle in the property suite pins this), and the
    /// residual solve reuses the scratch's transformation graph, so
    /// [`ScheduleScratch::rebuilds`] stays at 1 across fault toggles.
    ///
    /// Forwards to [`Self::try_schedule_degraded_priced_observed`] with
    /// [`rsin_obs::NoopProbe`].
    fn try_schedule_degraded_priced(
        &self,
        problem: &ScheduleProblem,
        scratch: &mut ScheduleScratch,
    ) -> Result<DegradedOutcome, ScheduleError> {
        self.try_schedule_degraded_priced_observed(problem, scratch, &rsin_obs::NoopProbe)
    }

    /// [`Self::try_schedule_reusing`] reporting the cycle to a telemetry
    /// probe: one [`rsin_obs::Hist::CycleLatencyNs`] span over the whole
    /// scheduling cycle plus a [`rsin_obs::Counter::Cycles`] tick. The flow
    /// schedulers' shared cycle also times its stages and reports per-solver
    /// operation counts through [`rsin_flow`]'s observed solve entry points.
    /// Under [`rsin_obs::NoopProbe`] no clock is read and the call reduces
    /// to [`Self::try_schedule_reusing`].
    fn try_schedule_observed(
        &self,
        problem: &ScheduleProblem,
        scratch: &mut ScheduleScratch,
        probe: &dyn rsin_obs::Probe,
    ) -> Result<ScheduleOutcome, ScheduleError> {
        let span = probe.start();
        let out = self.try_schedule_reusing(problem, scratch)?;
        probe.finish(span, rsin_obs::Hist::CycleLatencyNs);
        probe.add(rsin_obs::Counter::Cycles, 1);
        Ok(out)
    }

    /// [`Self::try_schedule_degraded`] reporting the cycle to a telemetry
    /// probe. The primary pass goes through [`Self::try_schedule_observed`]
    /// (so the recorded cycle latency covers the primary discipline only,
    /// not the alternate-path retry), then the retry's rescue/shed counts
    /// land in [`rsin_obs::Counter::Recovered`] / [`rsin_obs::Counter::Shed`]
    /// and the cycle ticks [`rsin_obs::Counter::DegradedCycles`].
    fn try_schedule_degraded_observed(
        &self,
        problem: &ScheduleProblem,
        scratch: &mut ScheduleScratch,
        probe: &dyn rsin_obs::Probe,
    ) -> Result<DegradedOutcome, ScheduleError> {
        let primary = self.try_schedule_observed(problem, scratch, probe)?;
        let degraded = retry_blocked(problem, primary, &mut scratch.outcome)?;
        report_degraded(probe, &degraded);
        Ok(degraded)
    }

    /// [`Self::try_schedule_degraded_priced`] reporting the cycle to a
    /// telemetry probe. The primary pass goes through
    /// [`Self::try_schedule_observed`]; each residual round reports its
    /// solve through [`rsin_flow::min_cost::solve_observed`]; then
    /// the merge's counts land in [`rsin_obs::Counter::Recovered`] /
    /// [`rsin_obs::Counter::Shed`] / [`rsin_obs::Counter::RecoveryCost`],
    /// the per-cycle cost in [`rsin_obs::Hist::RecoveryCost`], and the
    /// cycle ticks [`rsin_obs::Counter::DegradedCycles`].
    fn try_schedule_degraded_priced_observed(
        &self,
        problem: &ScheduleProblem,
        scratch: &mut ScheduleScratch,
        probe: &dyn rsin_obs::Probe,
    ) -> Result<DegradedOutcome, ScheduleError> {
        let primary = self.try_schedule_observed(problem, scratch, probe)?;
        let priced = self.priced_retry(problem, primary, scratch, probe)?;
        report_degraded(probe, &priced);
        Ok(priced)
    }

    /// Panicking wrapper over [`Self::try_schedule_reusing`], mirroring
    /// [`Self::schedule`].
    fn schedule_reusing(
        &self,
        problem: &ScheduleProblem,
        scratch: &mut ScheduleScratch,
    ) -> ScheduleOutcome {
        match self.try_schedule_reusing(problem, scratch) {
            Ok(out) => out,
            Err(e) => panic!("{} failed to schedule: {e}", self.name()),
        }
    }
}

/// Reject snapshot ids the network does not have, before any dense table
/// is indexed by them: a request from an unknown processor is
/// [`ScheduleError::UnknownProcessor`], a free resource past the last port
/// [`ScheduleError::UnknownResource`], as [`HierarchicalScheduler::place`]
/// reports them.
/// Schedulers outside this crate whose engines index dense per-port tables
/// (the distributed token engine) call it at their boundary too.
pub fn check_ids(problem: &ScheduleProblem) -> Result<(), ScheduleError> {
    let net = problem.circuits.network();
    if let Some(r) = problem
        .requests
        .iter()
        .find(|r| r.processor >= net.num_processors())
    {
        return Err(ScheduleError::UnknownProcessor(r.processor));
    }
    if let Some(f) = problem
        .free
        .iter()
        .find(|f| f.resource >= net.num_resources())
    {
        return Err(ScheduleError::UnknownResource(f.resource));
    }
    Ok(())
}

/// Shared outcome assembly: derive the blocked list and the
/// Transformation-2 cost of the accepted assignments. Requests and
/// resources are indexed by id in the dense `tables`, so each assignment
/// costs O(1) with no hashing, and the tables are cleared entry by entry,
/// so the call follows the snapshot, not the largest id.
pub(crate) fn finish_outcome(
    problem: &ScheduleProblem,
    assignments: Vec<Assignment>,
    estimated_instructions: u64,
    tables: &mut OutcomeTables,
) -> ScheduleOutcome {
    let OutcomeTables {
        priority_of,
        preference_of,
        allocated,
    } = tables;
    let gamma_max = problem.max_priority() as i64;
    let q_max = problem.max_preference() as i64;
    // Per processor: its request's priority (last one wins, as a map
    // would) and whether an assignment serves it.
    let np = problem.requests.iter().map(|r| r.processor + 1).max();
    if let Some(np) = np.filter(|&np| np > priority_of.len()) {
        priority_of.resize(np, None);
        allocated.resize(np, false);
    }
    for r in &problem.requests {
        priority_of[r.processor] = Some(r.priority as i64);
    }
    let nr = problem.free.iter().map(|f| f.resource + 1).max();
    if let Some(nr) = nr.filter(|&nr| nr > preference_of.len()) {
        preference_of.resize(nr, None);
    }
    for f in &problem.free {
        preference_of[f.resource] = Some(f.preference as i64);
    }
    let mut total_cost = 0;
    for a in &assignments {
        if let (Some(Some(prio)), Some(Some(pref))) =
            (priority_of.get(a.processor), preference_of.get(a.resource))
        {
            total_cost += (gamma_max - prio) + (q_max - pref);
        }
        // Only a requesting processor's flag is set, so the clearing pass
        // over the requests below reaches every set flag.
        if let Some(Some(_)) = priority_of.get(a.processor) {
            allocated[a.processor] = true;
        }
    }
    let blocked = problem
        .requests
        .iter()
        .map(|r| r.processor)
        .filter(|&p| !allocated[p])
        .collect();
    for r in &problem.requests {
        priority_of[r.processor] = None;
        allocated[r.processor] = false;
    }
    for f in &problem.free {
        preference_of[f.resource] = None;
    }
    ScheduleOutcome {
        assignments,
        blocked,
        total_cost,
        estimated_instructions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::verify;
    use rsin_topology::builders::{crossbar, omega};
    use rsin_topology::CircuitState;

    /// Every scheduler must produce a *valid* mapping on the Fig. 2
    /// instance, whatever its quality.
    #[test]
    fn all_schedulers_produce_valid_mappings() {
        let net = omega(8).unwrap();
        let mut cs = CircuitState::new(&net);
        cs.connect(1, 5).unwrap();
        cs.connect(3, 3).unwrap();
        let problem = ScheduleProblem::homogeneous(&cs, &[0, 2, 4, 6, 7], &[0, 2, 4, 6, 7]);
        let schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(MaxFlowScheduler::default()),
            Box::new(MinCostScheduler::default()),
            Box::new(MultiCommodityScheduler::default()),
            Box::new(GreedyScheduler::default()),
            Box::new(AddressMappedScheduler::new(42)),
            Box::new(ExhaustiveScheduler::default()),
        ];
        for s in schedulers {
            let out = s.schedule(&problem);
            verify(&out.assignments, &problem).unwrap_or_else(|e| panic!("{}: {e}", s.name()));
            assert_eq!(
                out.assignments.len() + out.blocked.len(),
                5,
                "{}: every request accounted for",
                s.name()
            );
        }
    }

    #[test]
    fn degraded_retry_recovers_address_mapped_blockage() {
        use rsin_topology::NodeRef;
        // Kill r1's input links: an address-mapped binding to r1 fails
        // routing, but the retry re-routes the request to r0.
        let net = omega(8).unwrap();
        let mut cs = CircuitState::new(&net);
        for l in net.in_links(NodeRef::Resource(1)) {
            cs.fail_link(l);
        }
        let problem = ScheduleProblem::homogeneous(&cs, &[0], &[0, 1]);
        let mut scratch = ScheduleScratch::new();
        let mut recovered_somewhere = false;
        for seed in 0..32 {
            let s = AddressMappedScheduler::new(seed);
            let primary = s.try_schedule(&problem).unwrap();
            let degraded = s.try_schedule_degraded(&problem, &mut scratch).unwrap();
            // The retry never loses allocations and fully accounts for
            // every request.
            assert!(degraded.outcome.allocated() >= primary.allocated());
            assert_eq!(
                degraded.outcome.allocated() + degraded.shed,
                problem.requests.len()
            );
            verify(&degraded.outcome.assignments, &problem).unwrap();
            if !primary.blocked.is_empty() {
                assert_eq!(degraded.recovered, 1, "seed {seed}: retry must rescue p0");
                assert_eq!(degraded.shed, 0);
                recovered_somewhere = true;
            }
        }
        assert!(
            recovered_somewhere,
            "some seed must bind the dead resource and need the retry"
        );
    }

    #[test]
    fn degraded_on_optimal_scheduler_recovers_nothing() {
        // Max-flow is already maximum: blocked requests are truly
        // unroutable, so the retry recovers zero and sheds them all.
        let net = omega(8).unwrap();
        let mut cs = CircuitState::new(&net);
        let l = net.processor_link(2).unwrap();
        cs.fail_link(l); // p2 cannot reach anything
        let problem = ScheduleProblem::homogeneous(&cs, &[0, 2, 4], &[0, 2, 4]);
        let mut scratch = ScheduleScratch::new();
        let degraded = MaxFlowScheduler::default()
            .try_schedule_degraded(&problem, &mut scratch)
            .unwrap();
        assert_eq!(degraded.outcome.allocated(), 2);
        assert_eq!(degraded.recovered, 0);
        assert_eq!(degraded.shed, 1);
        assert_eq!(degraded.outcome.blocked, vec![2]);
        assert_eq!(cs.faulty_count(), 1, "degraded pass must not mutate state");
    }

    #[test]
    fn priced_retry_prefers_high_preference_alternate() {
        use rsin_topology::NodeRef;
        // Kill r1's input links. When address mapping binds p0 to the dead
        // r1, the priced retry must recover to r2 (preference 9, recovery
        // cost 0) and never to r0 (preference 2, recovery cost 7) — the
        // blind BFS retry has no such guarantee.
        let net = omega(8).unwrap();
        let mut cs = CircuitState::new(&net);
        for l in net.in_links(NodeRef::Resource(1)) {
            cs.fail_link(l);
        }
        let problem = ScheduleProblem::with_priorities(&cs, &[(0, 1)], &[(0, 2), (1, 1), (2, 9)]);
        let mut scratch = ScheduleScratch::new();
        let mut exercised = false;
        for seed in 0..64 {
            let s = AddressMappedScheduler::new(seed);
            let primary = s.try_schedule(&problem).unwrap();
            let priced = s
                .try_schedule_degraded_priced(&problem, &mut scratch)
                .unwrap();
            verify(&priced.outcome.assignments, &problem).unwrap();
            assert_eq!(priced.outcome.allocated() + priced.shed, 1);
            if !primary.blocked.is_empty() {
                assert_eq!(priced.recovered, 1, "seed {seed}");
                assert_eq!(priced.outcome.assignments[0].resource, 2, "seed {seed}");
                assert_eq!(
                    priced.recovery_cost,
                    priced.outcome.total_cost - primary.total_cost
                );
                exercised = true;
            }
        }
        assert!(exercised, "some seed must bind the dead resource");
    }

    #[test]
    fn priced_degraded_on_min_cost_matches_fresh_solve() {
        use rsin_flow::min_cost::Algorithm;
        use rsin_topology::NodeRef;
        // The oracle in miniature: on a faulted topology, the priced
        // degraded outcome of a min-cost scheduler is bit-identical in cost
        // and cardinality to a fresh Transformation-2 solve, and the
        // residual solve never rebuilds the transformation.
        let net = omega(8).unwrap();
        let mut cs = CircuitState::new(&net);
        let l = net.processor_link(2).unwrap();
        cs.fail_link(l);
        for l in net.in_links(NodeRef::Resource(5)) {
            cs.fail_link(l);
        }
        let problem = ScheduleProblem::with_priorities(
            &cs,
            &[(0, 3), (2, 9), (4, 1), (7, 6)],
            &[(0, 2), (3, 8), (5, 10), (6, 4)],
        );
        for algo in Algorithm::ALL {
            let s = MinCostScheduler::new(algo);
            let mut scratch = ScheduleScratch::new();
            let priced = s
                .try_schedule_degraded_priced(&problem, &mut scratch)
                .unwrap();
            let fresh = s.schedule(&problem);
            verify(&priced.outcome.assignments, &problem).unwrap();
            assert_eq!(priced.outcome.total_cost, fresh.total_cost, "{algo:?}");
            assert_eq!(priced.outcome.allocated(), fresh.allocated(), "{algo:?}");
            // Theorem 3: the primary is optimal, so the residual recovers
            // nothing and adds no cost.
            assert_eq!(priced.recovered, 0, "{algo:?}");
            assert_eq!(priced.recovery_cost, 0, "{algo:?}");
            assert_eq!(scratch.rebuilds(), 1, "{algo:?}");
        }
    }

    #[test]
    fn priced_retry_on_single_type_min_cost_sheds_without_a_residual_solve() {
        // Theorem 3: with one resource type the min-cost primary is a
        // maximum mapping, so the priced retry sheds directly and the cycle
        // runs one solve. A second type brings the residual retry back.
        let net = omega(8).unwrap();
        let mut cs = CircuitState::new(&net);
        cs.fail_link(net.processor_link(2).unwrap()); // p2 cannot route
        let mut problem = ScheduleProblem::with_priorities(
            &cs,
            &[(0, 3), (2, 9), (4, 1)],
            &[(0, 2), (3, 8), (5, 10), (7, 4)],
        );
        let cycle = |problem: &ScheduleProblem| {
            let telemetry = rsin_obs::Telemetry::new();
            let priced = MinCostScheduler::default()
                .try_schedule_degraded_priced_observed(
                    problem,
                    &mut ScheduleScratch::new(),
                    &telemetry,
                )
                .unwrap();
            let solves: u64 = telemetry.report().solvers.iter().map(|s| s.solves).sum();
            (priced, solves)
        };
        let (priced, solves) = cycle(&problem);
        assert_eq!((priced.recovered, priced.shed), (0, 1));
        assert_eq!(priced.outcome.blocked, vec![2]);
        assert_eq!(solves, 1, "no residual solve");
        // p0 and r3 become type 1: p2's type still has an untaken
        // resource, so the residual round runs (and recovers nothing).
        problem.requests[0].resource_type = 1;
        problem.free[1].resource_type = 1;
        let (priced, solves) = cycle(&problem);
        assert_eq!(priced.recovered, 0);
        assert_eq!(solves, 2, "one primary and one residual solve");
    }

    #[test]
    fn priced_degraded_on_max_flow_skips_residual() {
        // Max-flow's override sheds directly (Theorem 2) and must never
        // build the min-cost transformation shape.
        let net = omega(8).unwrap();
        let mut cs = CircuitState::new(&net);
        let l = net.processor_link(2).unwrap();
        cs.fail_link(l);
        let problem = ScheduleProblem::homogeneous(&cs, &[0, 2, 4], &[0, 2, 4]);
        let mut scratch = ScheduleScratch::new();
        let priced = MaxFlowScheduler::default()
            .try_schedule_degraded_priced(&problem, &mut scratch)
            .unwrap();
        assert_eq!(priced.outcome.allocated(), 2);
        assert_eq!(priced.recovered, 0);
        assert_eq!(priced.shed, 1);
        assert_eq!(priced.recovery_cost, 0);
        assert_eq!(scratch.rebuilds(), 1, "min-cost shape must stay unbuilt");
    }

    #[test]
    fn priced_retry_rejects_out_of_range_ids() {
        // The retry's blocked/taken flags are dense id-indexed tables, so a
        // snapshot naming a processor the network lacks is a typed error.
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let problem = ScheduleProblem::homogeneous(&cs, &[0, 99], &[2]);
        let primary = finish_outcome(&problem, Vec::new(), 0, &mut OutcomeTables::default());
        let r = priced_retry_blocked(
            &problem,
            primary,
            &mut ScheduleScratch::new(),
            MinCostAlgorithm::SuccessiveShortestPaths,
            &rsin_obs::NoopProbe,
        );
        assert!(matches!(r, Err(ScheduleError::UnknownProcessor(99))));
    }

    #[test]
    fn priced_retry_respects_resource_types() {
        // Transformation 2 is type-blind, so the retry runs one residual
        // round per type; recovered assignments must never cross types.
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let mut problem = ScheduleProblem::homogeneous(&cs, &[0, 1], &[2, 4]);
        problem.requests[1].resource_type = 1;
        problem.free[0].resource_type = 1; // r2 is the only type-1 resource
        let primary = finish_outcome(&problem, Vec::new(), 0, &mut OutcomeTables::default());
        assert_eq!(primary.blocked.len(), 2);
        let mut scratch = ScheduleScratch::new();
        let priced = priced_retry_blocked(
            &problem,
            primary,
            &mut scratch,
            MinCostAlgorithm::SuccessiveShortestPaths,
            &rsin_obs::NoopProbe,
        )
        .unwrap();
        assert_eq!(priced.recovered, 2);
        assert_eq!(priced.shed, 0);
        verify(&priced.outcome.assignments, &problem).unwrap();
        for a in &priced.outcome.assignments {
            let want = if a.processor == 1 { 2 } else { 4 };
            assert_eq!(a.resource, want, "type-matched resource");
        }
    }

    #[test]
    fn finish_outcome_computes_cost_and_blocked() {
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let problem = ScheduleProblem::with_priorities(&cs, &[(0, 3), (1, 10)], &[(0, 5), (1, 10)]);
        let path = cs.find_path(0, 0).unwrap();
        let a = Assignment {
            processor: 0,
            resource: 0,
            path,
        };
        let out = finish_outcome(&problem, vec![a], 7, &mut OutcomeTables::default());
        // gamma_max = 10, q_max = 10; cost = (10-3) + (10-5) = 12.
        assert_eq!(out.total_cost, 12);
        assert_eq!(out.blocked, vec![1]);
        assert_eq!(out.estimated_instructions, 7);
    }

    /// The error of every entry point of every scheduler on `problem`
    /// (fresh, reusing, observed, degraded and priced degraded cycle each).
    /// Callers build `problem` on a crossbar, the one topology all seven
    /// schedulers accept (matching refuses multistage networks).
    fn entry_point_errors(problem: &ScheduleProblem) -> Vec<ScheduleError> {
        let schedulers: [&dyn Scheduler; 7] = [
            &MaxFlowScheduler::default(),
            &MinCostScheduler::default(),
            &MultiCommodityScheduler::default(),
            &MatchingScheduler,
            &GreedyScheduler::default(),
            &AddressMappedScheduler::new(42),
            &ExhaustiveScheduler::default(),
        ];
        let mut errors = Vec::new();
        for s in schedulers {
            let mut scratch = ScheduleScratch::new();
            errors.push(s.try_schedule(problem).unwrap_err());
            errors.push(s.try_schedule_reusing(problem, &mut scratch).unwrap_err());
            errors.push(
                s.try_schedule_observed(problem, &mut scratch, &rsin_obs::NoopProbe)
                    .unwrap_err(),
            );
            errors.push(s.try_schedule_degraded(problem, &mut scratch).unwrap_err());
            errors.push(
                s.try_schedule_degraded_priced(problem, &mut scratch)
                    .unwrap_err(),
            );
        }
        errors
    }

    #[test]
    fn unknown_processor_is_a_typed_error() {
        let net = crossbar(8, 8).unwrap();
        let cs = CircuitState::new(&net);
        let problem = ScheduleProblem::homogeneous(&cs, &[0, 8], &[0, 1]);
        assert_eq!(
            entry_point_errors(&problem),
            vec![ScheduleError::UnknownProcessor(8); 35]
        );
    }

    #[test]
    fn out_of_range_resource_is_a_typed_error() {
        let net = crossbar(8, 8).unwrap();
        let cs = CircuitState::new(&net);
        let problem = ScheduleProblem::homogeneous(&cs, &[0], &[1, 99]);
        assert_eq!(
            entry_point_errors(&problem),
            vec![ScheduleError::UnknownResource(99); 35]
        );
    }
}
