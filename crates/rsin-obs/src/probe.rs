//! The [`Probe`] trait: the single instrumentation seam every layer of the
//! workspace reports through, and the enums naming what can be reported.

use crate::trace::SpanPhase;
use std::time::Instant;

/// Monotonic counters a probe can accumulate. One variant per event class
/// across the stack: scheduling cycles (`rsin-core`), simulation events
/// (`rsin-sim`), and the distributed engine's clock/phase accounting
/// (`rsin-distrib`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Scheduling cycles observed (one per `try_schedule_observed`).
    Cycles,
    /// Scheduling cycles that took the degraded (faulty-network) path.
    DegradedCycles,
    /// Blocked requests rescued by the degraded-mode alternate-path retry.
    Recovered,
    /// Requests still unallocated after the degraded retry.
    Shed,
    /// Task arrivals traced by the dynamic simulation.
    Requests,
    /// Circuit releases (transmission completions) traced.
    Releases,
    /// Fault (`Fail`) events applied to the circuit state.
    Faults,
    /// Repair events applied to the circuit state.
    Repairs,
    /// Distributed scheduling cycles run by the token engine.
    EngineCycles,
    /// Clock periods consumed by the token engine (the paper's cost unit).
    EngineClocks,
    /// Dinic iterations (layered networks) the token engine built.
    EngineIterations,
    /// Status-bus transitions decoded as request-token propagation.
    PhaseRequest,
    /// Status-bus transitions decoded as request-tokens-stopping.
    PhaseStopping,
    /// Status-bus transitions decoded as resource-token propagation.
    PhaseResource,
    /// Status-bus transitions decoded as path registration.
    PhaseRegistration,
    /// Status-bus transitions decoded as cycle-start.
    PhaseCycleStart,
    /// Total Transformation-2 cost of assignments recovered by priced
    /// degraded-mode scheduling (merged cost minus primary cost, summed
    /// over degraded cycles).
    RecoveryCost,
    /// Streaming decisions taken by an incremental scheduler (one per
    /// accepted `Request`/`Release` command).
    StreamDecisions,
    /// Streaming arrivals allocated immediately (one augmentation found a
    /// path).
    StreamAllocated,
    /// Streaming arrivals left queued (no augmenting path at arrival time).
    StreamQueued,
    /// Streaming releases of an allocated circuit (one unit of flow
    /// cancelled).
    StreamReleased,
    /// Queued requests promoted to allocated by the re-augmentation that
    /// follows a release.
    StreamPromoted,
    /// Requests an inter-shard placement seated on their home shard (each
    /// shard's telemetry sink counts its own intake).
    ShardHomePlaced,
    /// Requests seated cross-shard *into* this shard (remote intake — the
    /// uplink traffic the sharded composition tries to minimize).
    ShardRemoteIn,
    /// Assignments produced by this shard's local solves.
    ShardAllocated,
    /// Arc scans spent in Dinic's level-graph (BFS) phase across observed
    /// solves (subset of the solver's `arc_scans`).
    DinicLevelArcScans,
    /// Arc scans spent in Dinic's blocking-flow (DFS) phase across observed
    /// solves. Appended last: `index()` is the declaration order, so new
    /// counters must never reorder existing ones.
    DinicBlockingArcScans,
}

impl Counter {
    /// All variants, in report order.
    pub const ALL: [Counter; 27] = [
        Counter::Cycles,
        Counter::DegradedCycles,
        Counter::Recovered,
        Counter::Shed,
        Counter::Requests,
        Counter::Releases,
        Counter::Faults,
        Counter::Repairs,
        Counter::EngineCycles,
        Counter::EngineClocks,
        Counter::EngineIterations,
        Counter::PhaseRequest,
        Counter::PhaseStopping,
        Counter::PhaseResource,
        Counter::PhaseRegistration,
        Counter::PhaseCycleStart,
        Counter::RecoveryCost,
        Counter::StreamDecisions,
        Counter::StreamAllocated,
        Counter::StreamQueued,
        Counter::StreamReleased,
        Counter::StreamPromoted,
        Counter::ShardHomePlaced,
        Counter::ShardRemoteIn,
        Counter::ShardAllocated,
        Counter::DinicLevelArcScans,
        Counter::DinicBlockingArcScans,
    ];

    /// Dense array index (== position in [`Counter::ALL`]).
    pub const fn index(self) -> usize {
        self as usize
    }

    /// JSON key.
    pub const fn name(self) -> &'static str {
        match self {
            Counter::Cycles => "cycles",
            Counter::DegradedCycles => "degraded_cycles",
            Counter::Recovered => "recovered",
            Counter::Shed => "shed",
            Counter::Requests => "requests",
            Counter::Releases => "releases",
            Counter::Faults => "faults",
            Counter::Repairs => "repairs",
            Counter::EngineCycles => "engine_cycles",
            Counter::EngineClocks => "engine_clocks",
            Counter::EngineIterations => "engine_iterations",
            Counter::PhaseRequest => "phase_request",
            Counter::PhaseStopping => "phase_stopping",
            Counter::PhaseResource => "phase_resource",
            Counter::PhaseRegistration => "phase_registration",
            Counter::PhaseCycleStart => "phase_cycle_start",
            Counter::RecoveryCost => "recovery_cost",
            Counter::StreamDecisions => "stream_decisions",
            Counter::StreamAllocated => "stream_allocated",
            Counter::StreamQueued => "stream_queued",
            Counter::StreamReleased => "stream_released",
            Counter::StreamPromoted => "stream_promoted",
            Counter::ShardHomePlaced => "shard_home_placed",
            Counter::ShardRemoteIn => "shard_remote_in",
            Counter::ShardAllocated => "shard_allocated",
            Counter::DinicLevelArcScans => "dinic_level_arc_scans",
            Counter::DinicBlockingArcScans => "dinic_blocking_arc_scans",
        }
    }
}

/// Latency/size histograms a probe can record into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hist {
    /// Wall-clock nanoseconds of one scheduling cycle (primary discipline).
    CycleLatencyNs,
    /// Wall-clock nanoseconds of one flow solve.
    SolveLatencyNs,
    /// Total queued tasks at the instant a scheduling cycle starts.
    QueueDepth,
    /// Clock periods per distributed scheduling cycle.
    ClocksPerCycle,
    /// Per-degraded-cycle Transformation-2 cost of recovered assignments
    /// (the priced retry's `recovery_cost`).
    RecoveryCost,
    /// Wall-clock nanoseconds of one streaming decision (arrival
    /// augmentation or release cancellation + re-augmentation).
    DecisionLatencyNs,
    /// Wall-clock nanoseconds of one Dinic level-graph (BFS) construction.
    DinicLevelPhaseNs,
    /// Wall-clock nanoseconds of one Dinic blocking-flow (DFS) pass.
    DinicBlockingPhaseNs,
    /// Wall-clock nanoseconds of one batch cycle's configure stage: the
    /// reusable transformation retuned for the snapshot, flow reset
    /// included.
    ConfigureNs,
    /// Wall-clock nanoseconds of one batch cycle's `extract` stage: the
    /// solved flow decomposed into assignments.
    ExtractNs,
    /// Wall-clock nanoseconds of one batch cycle's `finish_outcome` stage:
    /// blocked list and Transformation-2 cost.
    FinishNs,
    /// Wall-clock nanoseconds of one simulation event: the heap pop and the
    /// event's handler.
    EventNs,
    /// Wall-clock nanoseconds of one simulation cycle's snapshot: the
    /// request and free-resource lists built for the scheduler.
    SnapshotNs,
    /// Wall-clock nanoseconds of one simulation cycle's commit: its
    /// circuits established and their transmission events pushed. Appended
    /// last: `index()` is declaration order, so new histograms never
    /// reorder existing ones.
    CommitNs,
}

impl Hist {
    /// All variants, in report order.
    pub const ALL: [Hist; 14] = [
        Hist::CycleLatencyNs,
        Hist::SolveLatencyNs,
        Hist::QueueDepth,
        Hist::ClocksPerCycle,
        Hist::RecoveryCost,
        Hist::DecisionLatencyNs,
        Hist::DinicLevelPhaseNs,
        Hist::DinicBlockingPhaseNs,
        Hist::ConfigureNs,
        Hist::ExtractNs,
        Hist::FinishNs,
        Hist::EventNs,
        Hist::SnapshotNs,
        Hist::CommitNs,
    ];

    /// Dense array index (== position in [`Hist::ALL`]).
    pub const fn index(self) -> usize {
        self as usize
    }

    /// JSON key.
    pub const fn name(self) -> &'static str {
        match self {
            Hist::CycleLatencyNs => "cycle_latency_ns",
            Hist::SolveLatencyNs => "solve_latency_ns",
            Hist::QueueDepth => "queue_depth",
            Hist::ClocksPerCycle => "clocks_per_cycle",
            Hist::RecoveryCost => "recovery_cost",
            Hist::DecisionLatencyNs => "decision_latency_ns",
            Hist::DinicLevelPhaseNs => "dinic_level_phase_ns",
            Hist::DinicBlockingPhaseNs => "dinic_blocking_phase_ns",
            Hist::ConfigureNs => "configure_ns",
            Hist::ExtractNs => "extract_ns",
            Hist::FinishNs => "finish_ns",
            Hist::EventNs => "event_ns",
            Hist::SnapshotNs => "snapshot_ns",
            Hist::CommitNs => "commit_ns",
        }
    }
}

/// Which algorithm a [`SolveCounts`] report came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverId {
    /// DFS augmenting paths.
    MaxFlowFordFulkerson,
    /// BFS shortest augmenting paths.
    MaxFlowEdmondsKarp,
    /// Layered networks + blocking flow.
    MaxFlowDinic,
    /// Successive shortest paths with potentials.
    MinCostSsp,
    /// Fulkerson's out-of-kilter method.
    MinCostOutOfKilter,
}

impl SolverId {
    /// All variants, in report order.
    pub const ALL: [SolverId; 5] = [
        SolverId::MaxFlowFordFulkerson,
        SolverId::MaxFlowEdmondsKarp,
        SolverId::MaxFlowDinic,
        SolverId::MinCostSsp,
        SolverId::MinCostOutOfKilter,
    ];

    /// Dense array index (== position in [`SolverId::ALL`]).
    pub const fn index(self) -> usize {
        self as usize
    }

    /// JSON key.
    pub const fn name(self) -> &'static str {
        match self {
            SolverId::MaxFlowFordFulkerson => "max_flow_ford_fulkerson",
            SolverId::MaxFlowEdmondsKarp => "max_flow_edmonds_karp",
            SolverId::MaxFlowDinic => "max_flow_dinic",
            SolverId::MinCostSsp => "min_cost_ssp",
            SolverId::MinCostOutOfKilter => "min_cost_out_of_kilter",
        }
    }
}

/// Per-solve operation counts, mirroring `rsin_flow::stats::OpStats` —
/// emitted *once per solve*, already aggregated, so instrumentation never
/// touches the solver inner loops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveCounts {
    /// Nodes dequeued/visited during searches.
    pub node_visits: u64,
    /// Arcs examined during searches.
    pub arc_scans: u64,
    /// Augmenting paths advanced.
    pub augmentations: u64,
    /// Layered networks built (Dinic phases / SSP iterations).
    pub phases: u64,
}

/// An in-flight latency measurement. Disabled probes return an empty span,
/// so no clock is ever read when telemetry is off.
#[derive(Debug)]
#[must_use = "finish the span via Probe::finish to record it"]
pub struct Span(Option<Instant>);

impl Span {
    /// A span that records nothing (the no-op default).
    pub const fn disabled() -> Self {
        Span(None)
    }

    /// A span anchored at the current monotonic instant.
    pub fn started() -> Self {
        Span(Some(Instant::now()))
    }

    /// Elapsed nanoseconds since the span started (None when disabled).
    pub fn elapsed_ns(&self) -> Option<u64> {
        self.0
            .map(|t0| u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }
}

/// The instrumentation seam. Every method defaults to an inlined no-op, so
/// a probe that overrides nothing (notably [`NoopProbe`]) costs nothing
/// beyond one virtual call per *solve, cycle or lifecycle step* at the
/// `&dyn Probe` call sites — and literally nothing where the concrete type
/// is statically known.
///
/// Two sinks implement it: [`Telemetry`](crate::Telemetry) keeps counters,
/// solver totals and histograms, and
/// [`FlightRecorder`](crate::FlightRecorder) keeps the lifecycle spans.
/// Each overrides only its half; the other half stays the no-op default.
///
/// `Sync` is a supertrait so one probe can sink reports from concurrent
/// Monte-Carlo workers (`rsin-sim` shares `&dyn Probe` across threads).
///
/// Contract for implementors (see DESIGN.md §8): record only — never
/// influence control flow, never consume simulation randomness, and use
/// bounded memory.
pub trait Probe: Sync {
    /// Whether this probe records anything. Callers may use this to skip
    /// *computing* expensive inputs (e.g. a queue-depth sum), never to
    /// change semantics.
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    /// Add `n` to a counter.
    #[inline]
    fn add(&self, counter: Counter, n: u64) {
        let _ = (counter, n);
    }

    /// Report one completed solve's aggregated operation counts.
    #[inline]
    fn solver(&self, id: SolverId, counts: SolveCounts) {
        let _ = (id, counts);
    }

    /// Record a value into a histogram.
    #[inline]
    fn record(&self, hist: Hist, value: u64) {
        let _ = (hist, value);
    }

    /// Open a latency span (reads the monotonic clock only when enabled).
    #[inline]
    fn start(&self) -> Span {
        Span::disabled()
    }

    /// Close a span, recording its elapsed nanoseconds into `hist`.
    #[inline]
    fn finish(&self, span: Span, hist: Hist) {
        let _ = (span, hist);
    }

    /// Record one lifecycle span of request `req` (see [`SpanPhase`] for
    /// the operands; per-cycle markers pass `req == 0`).
    #[inline]
    fn span(&self, req: u64, phase: SpanPhase, a: u64, b: u64) {
        let _ = (req, phase, a, b);
    }

    /// Record two causally adjacent spans (e.g. `Submit` and the decision
    /// it produced) sharing one timestamp. The default delegates to
    /// [`Probe::span`] twice; the flight recorder overrides it to amortize
    /// the timebase read and slot claim — the streaming scheduler's request
    /// path emits every decision through here, which is what keeps it
    /// inside `bench_smoke`'s `trace_overhead` gate.
    #[inline]
    fn span_pair(&self, first: (u64, SpanPhase, u64, u64), second: (u64, SpanPhase, u64, u64)) {
        self.span(first.0, first.1, first.2, first.3);
        self.span(second.0, second.1, second.2, second.3);
    }
}

/// The default probe: a zero-sized type whose methods are the trait's empty
/// defaults — the optimizer erases every call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopProbe;

impl Probe for NoopProbe {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_probe_is_zero_sized() {
        assert_eq!(std::mem::size_of::<NoopProbe>(), 0);
    }

    #[test]
    fn noop_probe_records_nothing_and_spans_are_disabled() {
        let p = NoopProbe;
        assert!(!p.enabled());
        let span = p.start();
        assert!(span.elapsed_ns().is_none(), "no clock read when off");
        p.finish(span, Hist::CycleLatencyNs);
        p.add(Counter::Cycles, 3);
        p.record(Hist::QueueDepth, 7);
        p.span(1, SpanPhase::Submit, 0, 0);
        p.span_pair((1, SpanPhase::Submit, 0, 0), (1, SpanPhase::Allocate, 0, 1));
        p.solver(SolverId::MaxFlowDinic, SolveCounts::default());
    }

    #[test]
    fn enum_indices_match_all_order() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, h) in Hist::ALL.iter().enumerate() {
            assert_eq!(h.index(), i);
        }
        for (i, s) in SolverId::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn started_span_measures_time() {
        let span = Span::started();
        let ns = span.elapsed_ns().unwrap();
        assert!(ns < 10_000_000_000, "sane elapsed reading");
    }
}
