//! Incremental (streaming) scheduling on a retained flow.
//!
//! The batch schedulers re-solve every snapshot from zero flow. A streaming
//! service instead keeps the transformation graph *and its flow* alive
//! between decisions: every allocated request is one retained unit, an
//! arrival is a single warm-start augmentation
//! ([`FlowNetwork::augment_one`](rsin_flow::graph::FlowNetwork::augment_one)),
//! and a release cancels one unit
//! ([`FlowNetwork::cancel_path`](rsin_flow::graph::FlowNetwork::cancel_path))
//! and, when a request is queued, re-augments so it can take the freed
//! capacity.
//!
//! ## Invariant
//!
//! After every accepted command the retained flow is a **maximum** flow over
//! the currently active request arcs and the full resource set: enabling one
//! unit-capacity source arc raises the optimum by at most one (so one
//! augmentation restores maximality on arrival), and a cancellation followed
//! by augment-until-dry restores it on release (at most one augmentation
//! succeeds, since the optimum drops by at most one). The allocated count
//! therefore always equals what a batch fresh-solve (Theorem 2) would
//! produce on the same active set — a property test pins this.
//!
//! The *mapping* is only allocation-count-equivalent, not pointwise equal:
//! an arrival may re-route existing units through cancellation arcs (the
//! paper's Fig. 3 rearrangement), so which processor holds which resource
//! can differ from any particular batch solve. See DESIGN.md §11.
//!
//! ## One backend
//!
//! The scheduler runs on the Transformation-1 shape only. Theorem 3 prices a
//! mapping through Transformation 2's request and resource arc costs, but a
//! stream command (`R`/`F`/`S`) carries no priority or preference: on the
//! priced shape every arc the service reaches would cost 0, so every maximum
//! flow is already minimum-cost and a cheapest-path search would only be a
//! slower route to the same allocation count (DESIGN.md §11).

use super::ScheduleError;
use crate::mapping::{extract, Assignment};
use crate::model::ScheduleProblem;
use crate::transform::reusable::ReusableTransform;
use crate::transform::Transformed;
use rsin_flow::path::PathWalk;
use rsin_flow::{ArcId, SolveScratch};
use rsin_obs::{Counter, Hist, NoopProbe, Probe, SpanPhase};
use rsin_topology::{CircuitState, Network};

/// The flow discipline the incremental scheduler augments with. It has
/// one variant; the type and the `backend` parameters of
/// [`IncrementalScheduler::new`] and `rsin_sim::stream::replay_incremental`
/// stay only because the benchmark package spells them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncrementalBackend {
    /// Transformation 1: BFS shortest augmenting path (Theorem 2).
    MaxFlow,
}

impl IncrementalBackend {
    /// Stable lowercase name (serve's sweep rows and trace source, replay
    /// errors).
    pub const fn name(self) -> &'static str {
        match self {
            IncrementalBackend::MaxFlow => "maxflow",
        }
    }
}

/// What one accepted stream command did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamDecision {
    /// The arriving request was routed immediately.
    Allocated {
        /// Requesting processor.
        processor: usize,
        /// Resource it was routed to.
        resource: usize,
    },
    /// No augmenting path exists; the request stays queued (its arc remains
    /// enabled, so a later release can promote it).
    Queued {
        /// Requesting processor.
        processor: usize,
    },
    /// An allocated processor released its circuit.
    Released {
        /// Releasing processor.
        processor: usize,
        /// Resource returned to the pool.
        resource: usize,
        /// A queued request promoted into the freed capacity, if any.
        promoted: Option<PromotedRequest>,
    },
    /// A still-queued request was withdrawn before it was ever allocated.
    Withdrawn {
        /// Withdrawing processor.
        processor: usize,
    },
}

/// A queued request that a release promoted to allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PromotedRequest {
    /// The promoted processor.
    pub processor: usize,
    /// The resource it was routed to.
    pub resource: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcState {
    Idle,
    Queued,
    Allocated,
}

/// A long-lived scheduler for continuous request/release streams.
///
/// Owns a configure-once [`ReusableTransform`] (the superset graph is built
/// exactly once — [`rebuilds`](Self::rebuilds) stays 1 for the lifetime of
/// the scheduler) plus the solver scratch, so steady-state decisions perform
/// no allocations: arrivals toggle one arc capacity and run one scratch-
/// buffered augmentation; releases cancel one unit into a reused path
/// buffer.
#[derive(Debug)]
pub struct IncrementalScheduler {
    reusable: ReusableTransform,
    scratch: SolveScratch,
    state: Vec<ProcState>,
    cancel_buf: Vec<ArcId>,
    allocated: usize,
    queued: usize,
    /// Next request id to hand out (fresh, monotonically increasing — ids
    /// are assigned whether or not a recorder is attached, so traced and
    /// untraced runs agree on them).
    next_req: u64,
    /// Id of the open request per processor (valid while not `Idle`).
    req_ids: Vec<u64>,
}

impl IncrementalScheduler {
    /// Build the superset graph for `net` and enable every resource.
    ///
    /// All resources start free and all processors idle; the network's links
    /// are all available. The scheduler holds no borrow of `net` afterwards.
    /// `backend` has one value and is kept only because the benchmark
    /// package passes it.
    pub fn new(net: &Network, backend: IncrementalBackend) -> Self {
        let IncrementalBackend::MaxFlow = backend;
        let mut reusable = ReusableTransform::new();
        {
            let cs = CircuitState::new(net);
            let problem = ScheduleProblem::homogeneous(&cs, &[], &[]);
            reusable.configure_max_flow(&problem);
        }
        let t = reusable.transformed_mut().expect("configured above");
        for i in 0..t.resource_arcs.len() {
            let (_, a) = t.resource_arcs[i];
            t.flow.set_cap(a, 1);
        }
        let np = t.request_arcs.len();
        IncrementalScheduler {
            reusable,
            scratch: SolveScratch::new(),
            state: vec![ProcState::Idle; np],
            cancel_buf: Vec::new(),
            allocated: 0,
            queued: 0,
            next_req: 1,
            req_ids: vec![0; np],
        }
    }

    /// Processors currently holding an allocation.
    pub fn allocated_count(&self) -> usize {
        self.allocated
    }

    /// Processors with an active but unrouted (queued) request.
    pub fn queued_count(&self) -> usize {
        self.queued
    }

    /// How many times the superset graph was built. Stays 1 for the
    /// scheduler's lifetime — the streaming path never rebuilds.
    pub fn rebuilds(&self) -> u64 {
        self.reusable.rebuilds()
    }

    /// Decompose the retained flow into the current full mapping (one
    /// [`Assignment`] per allocated processor). Allocates; meant for
    /// verification and snapshots, not the per-decision path.
    pub fn assignments(&self) -> Result<Vec<Assignment>, ScheduleError> {
        match self.reusable.transformed() {
            Some(t) => extract(t, &mut PathWalk::default()).map_err(ScheduleError::from),
            None => Ok(Vec::new()),
        }
    }

    /// Handle an arrival: enable the processor's request arc and try one
    /// warm-start augmentation. Returns [`StreamDecision::Allocated`] or
    /// [`StreamDecision::Queued`]; a malformed command (unknown processor,
    /// duplicate request) returns a typed error and changes nothing.
    pub fn request(&mut self, processor: usize) -> Result<StreamDecision, ScheduleError> {
        self.request_observed(processor, &NoopProbe)
    }

    /// [`request`](Self::request) with per-decision probe reporting: the
    /// `stream_*` counters, the `DecisionLatencyNs` histogram, and the
    /// lifecycle spans. The accepted arrival is assigned a fresh request id
    /// and emits a `Submit` span followed by its decision span
    /// (`Allocate`/`Queue`), as one [`Probe::span_pair`] sharing a
    /// timestamp. Probes only record — the decision is bit-identical under
    /// any probe (a property test pins this).
    pub fn request_observed(
        &mut self,
        processor: usize,
        probe: &dyn Probe,
    ) -> Result<StreamDecision, ScheduleError> {
        match self.state.get(processor) {
            None => return Err(ScheduleError::UnknownProcessor(processor)),
            Some(ProcState::Idle) => {}
            Some(_) => return Err(ScheduleError::DuplicateRequest(processor)),
        }
        // Ids advance on every accepted arrival, traced or not, so a
        // recorder attached mid-stream still sees globally unique ids.
        let req = self.next_req;
        self.next_req += 1;
        self.req_ids[processor] = req;
        let span = probe.start();
        let scratch = &mut self.scratch;
        let t = self
            .reusable
            .transformed_mut()
            .ok_or(ScheduleError::Internal("transform not configured"))?;
        let (_, arc) = t.request_arcs[processor];
        t.flow.set_cap(arc, 1);
        let decision = if let Some(aug) = t.flow.augment_one(t.source, t.sink, scratch) {
            // The augmenting path necessarily starts with this arrival's
            // source arc (any path avoiding it would have existed before the
            // arrival, contradicting retained maximality) and ends on the
            // one resource arc it newly saturated.
            debug_assert_eq!(aug.first, arc, "augmentation routed the arrival");
            let resource = t.resource_of_arc(aug.last).ok_or(ScheduleError::Internal(
                "augmenting path did not end on a resource arc",
            ))?;
            self.state[processor] = ProcState::Allocated;
            self.allocated += 1;
            probe.span_pair(
                (req, SpanPhase::Submit, processor as u64, 0),
                (req, SpanPhase::Allocate, processor as u64, resource as u64),
            );
            StreamDecision::Allocated {
                processor,
                resource,
            }
        } else {
            self.state[processor] = ProcState::Queued;
            self.queued += 1;
            probe.span_pair(
                (req, SpanPhase::Submit, processor as u64, 0),
                (req, SpanPhase::Queue, processor as u64, 0),
            );
            StreamDecision::Queued { processor }
        };
        record_decision(probe, span, &decision);
        Ok(decision)
    }

    /// Handle a release: cancel the processor's unit of flow (or withdraw a
    /// still-queued request) and re-augment so a queued request can take the
    /// freed capacity. A release for an idle processor returns a typed error
    /// and changes nothing.
    pub fn release(&mut self, processor: usize) -> Result<StreamDecision, ScheduleError> {
        self.release_observed(processor, &NoopProbe)
    }

    /// [`release`](Self::release) with per-decision probe reporting: the
    /// closing request emits its terminal span (`Release`/`Withdraw`), and
    /// a promotion emits `Promote` under the promoted request's id, paired
    /// with the `Release` that caused it. Same contract as
    /// [`request_observed`](Self::request_observed).
    pub fn release_observed(
        &mut self,
        processor: usize,
        probe: &dyn Probe,
    ) -> Result<StreamDecision, ScheduleError> {
        let state = *self
            .state
            .get(processor)
            .ok_or(ScheduleError::UnknownProcessor(processor))?;
        let req = self.req_ids.get(processor).copied().unwrap_or(0);
        let span = probe.start();
        match state {
            ProcState::Idle => Err(ScheduleError::ReleaseIdle(processor)),
            ProcState::Queued => {
                let t = self.transformed_checked()?;
                let (_, arc) = t.request_arcs[processor];
                t.flow.set_cap(arc, 0);
                self.state[processor] = ProcState::Idle;
                self.queued -= 1;
                probe.span(req, SpanPhase::Withdraw, processor as u64, 0);
                let decision = StreamDecision::Withdrawn { processor };
                record_decision(probe, span, &decision);
                Ok(decision)
            }
            ProcState::Allocated => {
                let scratch = &mut self.scratch;
                let cancel_buf = &mut self.cancel_buf;
                let t = self
                    .reusable
                    .transformed_mut()
                    .ok_or(ScheduleError::Internal("transform not configured"))?;
                let (_, arc) = t.request_arcs[processor];
                t.flow
                    .cancel_path(arc, t.sink, cancel_buf)
                    .map_err(|_| ScheduleError::Internal("retained flow failed to cancel"))?;
                let freed = cancel_buf
                    .last()
                    .and_then(|&a| t.resource_of_arc(a))
                    .ok_or(ScheduleError::Internal(
                        "cancelled path did not end on a resource arc",
                    ))?;
                t.flow.set_cap(arc, 0);
                self.state[processor] = ProcState::Idle;
                self.allocated -= 1;
                // Restore maximality: at most one queued request fits the
                // freed capacity (the optimum dropped by at most one). An
                // augmenting path leaves `s` on a request arc with residual
                // capacity, an enabled arc carrying no flow: a queued
                // processor. With none queued the search cannot succeed,
                // so it is skipped (debug builds still run it and check).
                let mut promoted = None;
                if self.queued == 0 {
                    debug_assert!(
                        t.flow.augment_one(t.source, t.sink, scratch).is_none(),
                        "augmenting path with nothing queued"
                    );
                } else {
                    while let Some(aug) = t.flow.augment_one(t.source, t.sink, scratch) {
                        debug_assert!(promoted.is_none(), "optimum can only rise by one");
                        // The path's first arc is the (unique) newly saturated
                        // source arc of the promoted queued request, and its
                        // last arc the resource it took.
                        let q = t
                            .processor_of_arc(aug.first)
                            .ok_or(ScheduleError::Internal(
                                "augmenting path did not start on a request arc",
                            ))?;
                        if self.state[q] != ProcState::Queued {
                            return Err(ScheduleError::Internal(
                                "promotion routed a non-queued processor",
                            ));
                        }
                        let resource =
                            t.resource_of_arc(aug.last).ok_or(ScheduleError::Internal(
                                "augmenting path did not end on a resource arc",
                            ))?;
                        self.state[q] = ProcState::Allocated;
                        self.queued -= 1;
                        self.allocated += 1;
                        promoted = Some(PromotedRequest {
                            processor: q,
                            resource,
                        });
                    }
                }
                // The release and the promotion it admitted are one causal
                // step — one span pair, one timestamp.
                let release = (req, SpanPhase::Release, processor as u64, freed as u64);
                match promoted {
                    Some(p) => probe.span_pair(
                        release,
                        (
                            self.req_ids[p.processor],
                            SpanPhase::Promote,
                            p.processor as u64,
                            p.resource as u64,
                        ),
                    ),
                    None => probe.span(release.0, release.1, release.2, release.3),
                }
                let decision = StreamDecision::Released {
                    processor,
                    resource: freed,
                    promoted,
                };
                record_decision(probe, span, &decision);
                Ok(decision)
            }
        }
    }

    fn transformed_checked(&mut self) -> Result<&mut Transformed, ScheduleError> {
        self.reusable
            .transformed_mut()
            .ok_or(ScheduleError::Internal("transform not configured"))
    }
}

/// Per-decision probe reporting (counters + latency histogram).
fn record_decision(probe: &dyn Probe, span: rsin_obs::Span, decision: &StreamDecision) {
    probe.add(Counter::StreamDecisions, 1);
    match decision {
        StreamDecision::Allocated { .. } => probe.add(Counter::StreamAllocated, 1),
        StreamDecision::Queued { .. } => probe.add(Counter::StreamQueued, 1),
        StreamDecision::Released { promoted, .. } => {
            probe.add(Counter::StreamReleased, 1);
            if promoted.is_some() {
                probe.add(Counter::StreamPromoted, 1);
            }
        }
        StreamDecision::Withdrawn { .. } => {}
    }
    probe.finish(span, Hist::DecisionLatencyNs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::verify;
    use crate::scheduler::{MaxFlowScheduler, Scheduler};
    use rsin_topology::builders::{crossbar, omega};

    #[test]
    fn arrivals_allocate_and_duplicate_requests_are_typed_errors() {
        let net = omega(8).unwrap();
        let mut inc = IncrementalScheduler::new(&net, IncrementalBackend::MaxFlow);
        let d = inc.request(0).unwrap();
        assert!(matches!(d, StreamDecision::Allocated { processor: 0, .. }));
        assert_eq!(inc.allocated_count(), 1);
        assert_eq!(
            inc.request(0),
            Err(ScheduleError::DuplicateRequest(0)),
            "second request from p0 while active"
        );
        assert_eq!(inc.request(99), Err(ScheduleError::UnknownProcessor(99)));
        assert_eq!(inc.release(3), Err(ScheduleError::ReleaseIdle(3)));
        assert_eq!(inc.rebuilds(), 1);
    }

    #[test]
    fn release_frees_the_resource_and_promotes_a_queued_request() {
        // Three processors share two resources through one crossbar, so the
        // third arrival queues until a release frees a resource.
        let net = crossbar(3, 2).unwrap();
        let mut inc = IncrementalScheduler::new(&net, IncrementalBackend::MaxFlow);
        for p in 0..2 {
            assert!(matches!(
                inc.request(p).unwrap(),
                StreamDecision::Allocated { .. }
            ));
        }
        assert_eq!(
            inc.request(2).unwrap(),
            StreamDecision::Queued { processor: 2 }
        );
        assert_eq!((inc.allocated_count(), inc.queued_count()), (2, 1));
        let d = inc.release(1).unwrap();
        let StreamDecision::Released {
            processor: 1,
            resource,
            promoted: Some(promoted),
        } = d
        else {
            panic!("release of p1 promoted nothing: {d:?}");
        };
        assert_eq!(promoted.processor, 2);
        assert_eq!(promoted.resource, resource, "takes the freed resource");
        assert_eq!((inc.allocated_count(), inc.queued_count()), (2, 0));
        // With nothing queued, a release frees its resource for the next
        // arrival.
        let d = inc.release(2).unwrap();
        assert!(matches!(d, StreamDecision::Released { promoted: None, .. }));
        assert_eq!((inc.allocated_count(), inc.queued_count()), (1, 0));
        assert!(matches!(
            inc.request(1).unwrap(),
            StreamDecision::Allocated { .. }
        ));
        assert_eq!((inc.allocated_count(), inc.queued_count()), (2, 0));
    }

    #[test]
    fn queued_request_is_promoted_when_capacity_frees() {
        // Four processors share two resources through one crossbar, so the
        // third and fourth arrivals queue.
        let net = crossbar(4, 2).unwrap();
        let mut inc = IncrementalScheduler::new(&net, IncrementalBackend::MaxFlow);
        let promoted_by = |inc: &mut IncrementalScheduler, p| {
            let d = inc.release(p).unwrap();
            let StreamDecision::Released {
                processor,
                resource,
                promoted: Some(promoted),
            } = d
            else {
                panic!("release of p{p} promoted nothing: {d:?}");
            };
            assert_eq!(processor, p);
            assert_eq!(promoted.resource, resource, "takes the freed resource");
            promoted.processor
        };
        for p in 0..2 {
            assert!(matches!(
                inc.request(p).unwrap(),
                StreamDecision::Allocated { .. }
            ));
        }
        for p in 2..4 {
            assert_eq!(
                inc.request(p).unwrap(),
                StreamDecision::Queued { processor: p }
            );
        }
        assert_eq!((inc.allocated_count(), inc.queued_count()), (2, 2));
        // Two queued, then one: each release promotes one of them.
        let first = promoted_by(&mut inc, 0);
        assert!((2..4).contains(&first));
        assert_eq!((inc.allocated_count(), inc.queued_count()), (2, 1));
        assert_eq!(promoted_by(&mut inc, 1), 5 - first);
        assert_eq!((inc.allocated_count(), inc.queued_count()), (2, 0));
        // Queue two more; one withdraws, the other is promoted.
        for p in 0..2 {
            assert_eq!(
                inc.request(p).unwrap(),
                StreamDecision::Queued { processor: p }
            );
        }
        assert_eq!(
            inc.release(1).unwrap(),
            StreamDecision::Withdrawn { processor: 1 }
        );
        assert_eq!(promoted_by(&mut inc, first), 0);
        // Nothing is queued now, so the next release promotes nothing.
        let d = inc.release(0).unwrap();
        assert!(matches!(d, StreamDecision::Released { promoted: None, .. }));
        assert_eq!((inc.allocated_count(), inc.queued_count()), (1, 0));
        let assignments = inc.assignments().unwrap();
        assert_eq!(assignments.len(), 1);
        assert_eq!(assignments[0].processor, 5 - first);
        assert_eq!(inc.rebuilds(), 1);
    }

    #[test]
    fn retained_mapping_stays_valid_and_count_matches_batch() {
        let net = omega(8).unwrap();
        let mut inc = IncrementalScheduler::new(&net, IncrementalBackend::MaxFlow);
        let script: &[(bool, usize)] = &[
            (true, 0),
            (true, 3),
            (true, 5),
            (false, 3),
            (true, 7),
            (true, 3),
            (false, 0),
            (true, 2),
        ];
        let mut active = Vec::new();
        for &(arrive, p) in script {
            if arrive {
                inc.request(p).unwrap();
                active.push(p);
            } else {
                inc.release(p).unwrap();
                active.retain(|&q| q != p);
            }
            active.sort_unstable();
            // Oracle: batch fresh-solve over the same active set on a
            // free network.
            let cs = CircuitState::new(&net);
            let all: Vec<usize> = (0..net.num_resources()).collect();
            let problem = ScheduleProblem::homogeneous(&cs, &active, &all);
            let batch = MaxFlowScheduler::default().schedule(&problem);
            assert_eq!(
                inc.allocated_count(),
                batch.assignments.len(),
                "diverged from batch on active={active:?}"
            );
            let assignments = inc.assignments().unwrap();
            assert_eq!(assignments.len(), inc.allocated_count());
            verify(&assignments, &problem).unwrap();
        }
        assert_eq!(inc.rebuilds(), 1);
    }

    #[test]
    fn traced_stream_is_decision_identical_and_emits_well_formed_spans() {
        use rsin_obs::{validate_spans, FlightRecorder, SpanPhase};
        let net = omega(8).unwrap();
        let mut plain = IncrementalScheduler::new(&net, IncrementalBackend::MaxFlow);
        let mut traced = IncrementalScheduler::new(&net, IncrementalBackend::MaxFlow);
        let fr = FlightRecorder::new(1024);
        // Saturate, churn a few releases/re-requests, then drain two.
        let script: &[(bool, usize)] = &[
            (true, 0),
            (true, 1),
            (true, 2),
            (true, 3),
            (false, 1),
            (true, 1),
            (false, 0),
            (false, 2),
        ];
        for &(arrive, p) in script {
            let (a, b) = if arrive {
                (plain.request(p), traced.request_observed(p, &fr))
            } else {
                (plain.release(p), traced.release_observed(p, &fr))
            };
            assert_eq!(a, b, "tracing changed a decision at p{p}");
        }
        let snap = fr.snapshot();
        assert_eq!(snap.dropped, 0);
        validate_spans(&snap.events).expect("span chain grammar holds");
        // Every accepted arrival contributed a Submit with a fresh id.
        let submits: Vec<u64> = snap
            .events
            .iter()
            .filter(|e| e.phase == SpanPhase::Submit)
            .map(|e| e.req)
            .collect();
        assert_eq!(submits, vec![1, 2, 3, 4, 5]);
        assert_eq!(traced.allocated_count(), plain.allocated_count());
    }
}
