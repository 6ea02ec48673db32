//! The clocked token-propagation engine (Section IV-B of the paper).
//!
//! Realizes one *scheduling cycle* of the distributed MRSIN: iterated
//! request-token propagation (layered-network construction), resource-token
//! propagation (maximal flow by distributed DFS with backtracking), and
//! path registration (flow augmentation by toggling link states and
//! rewiring switchbox settings), followed by a final allocation step that
//! turns registered paths into bonded circuits.
//!
//! Tokens are identityless signals; all routing intelligence lives in the
//! per-port markings of the NS processes, and one link traversal costs one
//! clock period. The engine therefore reports its work in **clock periods**
//! — the unit the paper uses to claim a speedup over the instruction-counted
//! monitor architecture.

use crate::status::{Event, StatusBus};
use rsin_core::mapping::Assignment;
use rsin_core::model::{ScheduleOutcome, ScheduleProblem};
use rsin_core::scheduler::{check_ids, ScheduleError, Scheduler};
use rsin_topology::{LinkId, Network, NodeRef, Switchbox};

/// Dynamic state of one link during a scheduling cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LinkState {
    /// Unused, available for token propagation.
    Free,
    /// Tentatively part of an allocated path (may still be cancelled).
    Registered,
    /// Carrying a pre-existing circuit; never touched.
    Occupied,
}

/// Token-propagation markings of one switchbox port.
#[derive(Debug, Clone, Copy, Default)]
struct PortMark {
    /// A request token arrived through this port (first batch).
    receive: bool,
    /// A request token was sent out through this port.
    send: bool,
    /// A resource token committed to this port.
    used: bool,
    /// A resource token backtracked through this port (permanently dead
    /// for this iteration).
    cleared: bool,
}

impl PortMark {
    fn receivable(&self) -> bool {
        self.receive && !self.used && !self.cleared
    }
}

#[derive(Debug, Clone, Default)]
struct NsState {
    input: Vec<PortMark>,
    output: Vec<PortMark>,
    got_batch: bool,
}

/// A propagating token: the link it is traversing and whether it travels
/// against the link's direction (`reverse`).
type Hop = (LinkId, bool);

/// One line of the Fig.-10 state-machine trace.
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// Clock period at which the bus took this value.
    pub clock: u64,
    /// Bus vector in the paper's notation (E7 rendered as `x`).
    pub vector: String,
    /// Decoded phase name.
    pub phase: &'static str,
}

/// Result of one distributed scheduling cycle.
#[derive(Debug, Clone)]
pub struct CycleReport {
    /// Assignments and blocked requests, same shape as the software
    /// schedulers produce.
    pub outcome: ScheduleOutcome,
    /// Total clock periods consumed (token hops + phase transitions).
    pub clocks: u64,
    /// Dinic iterations (layered networks built).
    pub iterations: u64,
    /// Status-bus trace, one entry per phase transition.
    pub trace: Vec<TraceEntry>,
    /// For the *first* iteration: the switchboxes that consumed their
    /// request-token batch at each clock — the physical appearance of the
    /// layered network's box layers (Theorem 4's object, recorded so tests
    /// can compare it against `rsin_flow`'s `LayeredNetwork`).
    pub first_iteration_box_layers: Vec<Vec<usize>>,
}

/// The distributed scheduling engine.
pub struct TokenEngine<'n> {
    net: &'n Network,
    link_state: Vec<LinkState>,
    boxes: Vec<Switchbox>,
    ns: Vec<NsState>,
    rq_pending: Vec<bool>,
    rq_bonded: Vec<bool>,
    rs_ready: Vec<bool>,
    rs_bonded: Vec<bool>,
    clocks: u64,
    iterations: u64,
    trace: Vec<TraceEntry>,
    first_iteration_box_layers: Vec<Vec<usize>>,
}

impl<'n> TokenEngine<'n> {
    /// Run one complete scheduling cycle for the snapshot (priorities and
    /// resource types are ignored: the distributed architecture covers the
    /// homogeneous equal-priority discipline, as in the paper).
    ///
    /// # Panics
    ///
    /// If a request names a processor or a free resource names a port the
    /// network does not have. [`DistributedScheduler`] checks ids first and
    /// returns a [`ScheduleError`] instead.
    pub fn run(problem: &ScheduleProblem<'_, 'n>) -> CycleReport {
        let net = problem.circuits.network();
        let mut engine = TokenEngine {
            net,
            link_state: (0..net.num_links() as u32)
                .map(|l| {
                    if problem.circuits.is_free(LinkId(l)) {
                        LinkState::Free
                    } else {
                        LinkState::Occupied
                    }
                })
                .collect(),
            boxes: (0..net.num_boxes())
                .map(|b| {
                    let spec = net.box_spec(b);
                    Switchbox::new(spec.inputs, spec.outputs)
                })
                .collect(),
            ns: (0..net.num_boxes())
                .map(|b| {
                    let spec = net.box_spec(b);
                    NsState {
                        input: vec![PortMark::default(); spec.inputs],
                        output: vec![PortMark::default(); spec.outputs],
                        got_batch: false,
                    }
                })
                .collect(),
            rq_pending: {
                let mut v = vec![false; net.num_processors()];
                for r in &problem.requests {
                    v[r.processor] = true;
                }
                v
            },
            rq_bonded: vec![false; net.num_processors()],
            rs_ready: {
                let mut v = vec![false; net.num_resources()];
                for f in &problem.free {
                    v[f.resource] = true;
                }
                v
            },
            rs_bonded: vec![false; net.num_resources()],
            clocks: 0,
            iterations: 0,
            trace: Vec::new(),
            first_iteration_box_layers: Vec::new(),
        };
        engine.run_cycle();
        engine.report(problem)
    }

    /// [`Self::run`] reporting the cycle to a telemetry probe: engine-level
    /// counters (cycles, clock periods, Dinic iterations), a
    /// clocks-per-cycle histogram, and per-phase transition counts decoded
    /// from the status-bus trace — the clock-period accounting behind the
    /// paper's Section IV-B speedup claim, exported through the same sink as
    /// the software solvers' instruction counts.
    ///
    /// # Panics
    ///
    /// On out-of-range ids, as [`Self::run`] does.
    pub fn run_probed(
        problem: &ScheduleProblem<'_, 'n>,
        probe: &dyn rsin_obs::Probe,
    ) -> CycleReport {
        let report = Self::run(problem);
        probe.add(rsin_obs::Counter::EngineCycles, 1);
        probe.add(rsin_obs::Counter::EngineClocks, report.clocks);
        probe.add(rsin_obs::Counter::EngineIterations, report.iterations);
        probe.record(rsin_obs::Hist::ClocksPerCycle, report.clocks);
        for entry in &report.trace {
            let counter = match entry.phase {
                "request-token-propagation" => rsin_obs::Counter::PhaseRequest,
                "request-tokens-stopping" => rsin_obs::Counter::PhaseStopping,
                "resource-token-propagation" => rsin_obs::Counter::PhaseResource,
                "path-registration" => rsin_obs::Counter::PhaseRegistration,
                "cycle-start" => rsin_obs::Counter::PhaseCycleStart,
                _ => continue,
            };
            probe.add(counter, 1);
        }
        report
    }

    fn bus(&self, phase: &'static str) -> StatusBus {
        let mut bus = StatusBus::new();
        // E1/E2 stay asserted for the whole scheduling cycle: a request is
        // "pending" until its task is actually transmitted, which happens
        // after allocation, outside this engine.
        if self.rq_pending.iter().any(|p| *p) {
            bus.assert_event(Event::RequestPending);
        }
        if self.rs_ready.iter().any(|r| *r) {
            bus.assert_event(Event::ResourceReady);
        }
        match phase {
            "request" => bus.assert_event(Event::RequestTokenPropagation),
            "stopping" => {
                bus.assert_event(Event::RequestTokenPropagation);
                bus.assert_event(Event::ResourceHit);
            }
            "resource" => bus.assert_event(Event::ResourceTokenPropagation),
            "registration" => {
                bus.assert_event(Event::ResourceTokenPropagation);
                bus.assert_event(Event::PathRegistration);
            }
            _ => {}
        }
        if self.rq_bonded.iter().any(|b| *b) {
            bus.assert_event(Event::RequestBonded);
        }
        bus
    }

    fn record(&mut self, phase: &'static str) {
        let bus = self.bus(phase);
        self.trace.push(TraceEntry {
            clock: self.clocks,
            vector: bus.vector(true),
            phase: bus.phase_name(),
        });
    }

    fn mark_at(&mut self, b: usize, input_side: bool, port: usize) -> &mut PortMark {
        if input_side {
            &mut self.ns[b].input[port]
        } else {
            &mut self.ns[b].output[port]
        }
    }

    fn run_cycle(&mut self) {
        self.record("cycle-start");
        self.clocks += 1; // entering the scheduling period (Fig. 10 state 4)
        loop {
            self.iterations += 1;
            let hits = self.request_phase();
            if hits.is_empty() {
                break; // no augmenting path: cycle complete
            }
            self.clocks += 1; // E6 settle clock ("tokens come to a stop")
            let winners = self.resource_phase(&hits);
            self.record("registration");
            self.register(&winners);
            self.clocks += 1; // registration clock (state 110110x)
                              // Clear markings for the next iteration.
            for ns in &mut self.ns {
                for m in ns.input.iter_mut().chain(ns.output.iter_mut()) {
                    *m = PortMark::default();
                }
                ns.got_batch = false;
            }
        }
        self.record("allocation");
        self.clocks += 1; // allocation state: registered paths become bonded
    }

    /// Request-token propagation: build the layered network. Returns the
    /// RS indices hit.
    fn request_phase(&mut self) -> Vec<usize> {
        self.record("request");
        // Inject from every pending unbonded RQ whose exit link is free.
        let mut frontier: Vec<Hop> = Vec::new();
        for p in 0..self.net.num_processors() {
            if self.rq_pending[p] && !self.rq_bonded[p] {
                if let Some(l) = self.net.processor_link(p) {
                    if self.link_state[l.index()] == LinkState::Free {
                        frontier.push((l, false));
                    }
                }
            }
        }
        let mut hits = Vec::new();
        while !frontier.is_empty() {
            self.clocks += 1; // one link traversal per clock
                              // Deliver all tokens of this clock; group box arrivals so only
                              // the first batch is honoured.
            let mut box_arrivals: Vec<Vec<(bool, usize)>> = vec![Vec::new(); self.net.num_boxes()];
            for &(link, reverse) in &frontier {
                let l = self.net.link(link);
                if reverse {
                    match l.src {
                        NodeRef::Box(b) => box_arrivals[b].push((false, l.src_port)),
                        NodeRef::Processor(_) => { /* absorbed by bonded RQ */ }
                        NodeRef::Resource(_) => unreachable!(),
                    }
                } else {
                    match l.dst {
                        NodeRef::Box(b) => box_arrivals[b].push((true, l.dst_port)),
                        NodeRef::Resource(r) => {
                            if self.rs_ready[r] && !self.rs_bonded[r] && !hits.contains(&r) {
                                hits.push(r);
                            }
                        }
                        NodeRef::Processor(_) => unreachable!(),
                    }
                }
            }
            let mut next = Vec::new();
            let mut layer = Vec::new();
            for (b, arrivals) in box_arrivals.iter().enumerate() {
                if arrivals.is_empty() || self.ns[b].got_batch {
                    continue; // later batches are discarded, unmarked
                }
                self.ns[b].got_batch = true;
                layer.push(b);
                for &(input_side, port) in arrivals {
                    self.mark_at(b, input_side, port).receive = true;
                }
                // Duplicate: forward over free output links, backward over
                // registered input links.
                for (port, link) in self.net.box_outputs(b).iter().enumerate() {
                    let Some(link) = link else { continue };
                    if self.link_state[link.index()] == LinkState::Free
                        && !self.ns[b].output[port].receive
                    {
                        self.ns[b].output[port].send = true;
                        next.push((*link, false));
                    }
                }
                for (port, link) in self.net.box_inputs(b).iter().enumerate() {
                    let Some(link) = link else { continue };
                    if self.link_state[link.index()] == LinkState::Registered
                        && !self.ns[b].input[port].receive
                    {
                        self.ns[b].input[port].send = true;
                        next.push((*link, true));
                    }
                }
            }
            if self.iterations == 1 && !layer.is_empty() {
                self.first_iteration_box_layers.push(layer);
            }
            if !hits.is_empty() {
                // "This phase comes to an end when one or more RS's has
                // received a token."
                self.record("stopping");
                break;
            }
            frontier = next;
        }
        hits
    }

    /// Resource-token propagation: distributed DFS from each hit RS back to
    /// an RQ. Returns the surviving token paths (stacks of hops, in travel
    /// order RS → RQ) with the bonded processor.
    fn resource_phase(&mut self, hits: &[usize]) -> Vec<(usize, Vec<Hop>)> {
        self.record("resource");
        struct RToken {
            stack: Vec<Hop>,
            alive: bool,
        }
        let mut tokens: Vec<RToken> = hits
            .iter()
            .filter_map(|&r| {
                let l = self.net.resource_link(r)?;
                Some(RToken {
                    stack: vec![(l, true)],
                    alive: true,
                })
            })
            .collect();
        let mut winners = Vec::new();
        while tokens.iter().any(|t| t.alive) {
            self.clocks += 1;
            for tok in tokens.iter_mut().filter(|t| t.alive) {
                let &(link, reverse) = tok.stack.last().expect("alive token has a position");
                let l = self.net.link(link);
                let here = if reverse { l.src } else { l.dst };
                match here {
                    NodeRef::Processor(p) => {
                        // Success: the RQ is bonded; the path is committed.
                        self.rq_bonded[p] = true;
                        tok.alive = false;
                        winners.push((p, tok.stack.clone()));
                    }
                    NodeRef::Box(b) => {
                        // Choose a receivable port: inputs exit reverse
                        // (toward the request's origin), outputs exit
                        // forward (confirming a cancellation).
                        let exit = self.ns[b]
                            .input
                            .iter()
                            .enumerate()
                            .filter(|(_, m)| m.receivable())
                            .filter_map(|(port, _)| {
                                self.net.box_inputs(b)[port].map(|l| (true, port, l, true))
                            })
                            .chain(
                                self.ns[b]
                                    .output
                                    .iter()
                                    .enumerate()
                                    .filter(|(_, m)| m.receivable())
                                    .filter_map(|(port, _)| {
                                        self.net.box_outputs(b)[port]
                                            .map(|l| (false, port, l, false))
                                    }),
                            )
                            .next();
                        match exit {
                            Some((input_side, port, out_link, rev)) => {
                                self.mark_at(b, input_side, port).used = true;
                                tok.stack.push((out_link, rev));
                            }
                            None => {
                                // Dead end: backtrack, clearing markings on
                                // both ports of the retraced link.
                                let (back, brev) = tok.stack.pop().unwrap();
                                let bl = self.net.link(back);
                                if let NodeRef::Box(bb) = if brev { bl.src } else { bl.dst } {
                                    let (side, port) = if brev {
                                        (false, bl.src_port)
                                    } else {
                                        (true, bl.dst_port)
                                    };
                                    *self.mark_at(bb, side, port) = PortMark {
                                        cleared: true,
                                        ..Default::default()
                                    };
                                }
                                if let NodeRef::Box(bb) = if brev { bl.dst } else { bl.src } {
                                    let (side, port) = if brev {
                                        (true, bl.dst_port)
                                    } else {
                                        (false, bl.src_port)
                                    };
                                    *self.mark_at(bb, side, port) = PortMark {
                                        cleared: true,
                                        ..Default::default()
                                    };
                                }
                                if tok.stack.is_empty() {
                                    // Returned to its originating RS.
                                    tok.alive = false;
                                }
                            }
                        }
                    }
                    NodeRef::Resource(_) => unreachable!("resource tokens never re-enter RSs"),
                }
            }
        }
        winners
    }

    /// Path registration: toggle link states along each winner path and
    /// rewire switchbox settings (flow augmentation).
    fn register(&mut self, winners: &[(usize, Vec<Hop>)]) {
        for (p, stack) in winners {
            let _ = p;
            // Augmenting path in RQ → RS order: reverse the travel stack.
            // A hop travelled in reverse by the resource token is a *new
            // flow* link (traversed forward by the augmenting path); a hop
            // travelled forward is a *cancellation*.
            let path: Vec<(LinkId, bool)> = stack.iter().rev().map(|&(l, rev)| (l, rev)).collect();
            // `forward` below = augmenting path goes along the link.
            // Rewire each intermediate box.
            for w in path.windows(2) {
                let (l_in, in_new) = w[0]; // arriving hop (new flow iff in_new)
                let (l_out, out_new) = w[1];
                let li = self.net.link(l_in);
                let lo = self.net.link(l_out);
                let b = match (in_new, li.dst, li.src) {
                    (true, NodeRef::Box(b), _) => b,
                    (false, _, NodeRef::Box(b)) => b,
                    _ => unreachable!("interior path nodes are boxes"),
                };
                match (in_new, out_new) {
                    (true, true) => {
                        // New flow in at input X, out at output Z.
                        self.boxes[b]
                            .connect(li.dst_port, lo.src_port)
                            .expect("ports free");
                    }
                    (true, false) => {
                        // New flow in at X; cancel old flow that entered at Y.
                        let y = lo.dst_port;
                        let z_old = self.boxes[b]
                            .output_of(y)
                            .expect("cancelled input was connected");
                        self.boxes[b].disconnect_input(y);
                        self.boxes[b].connect(li.dst_port, z_old).expect("rewire");
                    }
                    (false, true) => {
                        // Cancel old flow that left at output A; new out at Z.
                        let a = li.src_port;
                        let w_in = self.boxes[b]
                            .input_of(a)
                            .expect("cancelled output was connected");
                        self.boxes[b].disconnect_input(w_in);
                        self.boxes[b].connect(w_in, lo.src_port).expect("rewire");
                    }
                    (false, false) => {
                        // Two cancellations meet at this box. If they cut a
                        // single straight-through connection (the old flow
                        // entered at Y and left at A), the box simply drops
                        // it; otherwise two *different* old paths lose one
                        // side each and their stranded halves join up.
                        let a = li.src_port;
                        let y = lo.dst_port;
                        let w_in = self.boxes[b].input_of(a).expect("connected");
                        let z_old = self.boxes[b].output_of(y).expect("connected");
                        if w_in == y {
                            debug_assert_eq!(z_old, a);
                            self.boxes[b].disconnect_input(y);
                        } else {
                            self.boxes[b].disconnect_input(w_in);
                            self.boxes[b].disconnect_input(y);
                            self.boxes[b].connect(w_in, z_old).expect("rewire");
                        }
                    }
                }
            }
            // Toggle link states: new-flow links register, cancelled free.
            for &(l, is_new) in &path {
                let st = &mut self.link_state[l.index()];
                *st = match (*st, is_new) {
                    (LinkState::Free, true) => LinkState::Registered,
                    (LinkState::Registered, false) => LinkState::Free,
                    other => unreachable!("inconsistent toggle {other:?}"),
                };
            }
            // The origin RS of this token sits at the path's end.
            if let (link, true) = *stack.first().expect("nonempty") {
                if let NodeRef::Resource(r) = self.net.link(link).dst {
                    self.rs_bonded[r] = true;
                }
            }
        }
    }

    /// Trace registered paths from each bonded RQ to its resource and
    /// assemble the outcome.
    fn report(&mut self, problem: &ScheduleProblem) -> CycleReport {
        let mut assignments = Vec::new();
        for p in 0..self.net.num_processors() {
            if !self.rq_bonded[p] {
                continue;
            }
            let mut links = Vec::new();
            let mut link = self.net.processor_link(p).expect("bonded RQ is wired");
            debug_assert_eq!(self.link_state[link.index()], LinkState::Registered);
            loop {
                links.push(link);
                match self.net.link(link).dst {
                    NodeRef::Resource(r) => {
                        assignments.push(Assignment {
                            processor: p,
                            resource: r,
                            path: links,
                        });
                        break;
                    }
                    NodeRef::Box(b) => {
                        let in_port = self.net.link(link).dst_port;
                        let out_port = self.boxes[b]
                            .output_of(in_port)
                            .expect("registered path continues through the box");
                        link = self.net.box_outputs(b)[out_port]
                            .expect("registered output port is wired");
                    }
                    NodeRef::Processor(_) => unreachable!(),
                }
            }
        }
        let blocked = problem
            .requests
            .iter()
            .map(|r| r.processor)
            .filter(|&p| !self.rq_bonded[p])
            .collect();
        CycleReport {
            outcome: ScheduleOutcome {
                assignments,
                blocked,
                total_cost: 0,
                estimated_instructions: 0,
            },
            clocks: self.clocks,
            iterations: self.iterations,
            trace: std::mem::take(&mut self.trace),
            first_iteration_box_layers: std::mem::take(&mut self.first_iteration_box_layers),
        }
    }
}

/// [`Scheduler`] adapter so the distributed engine can be compared head to
/// head with the software schedulers in experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct DistributedScheduler;

impl Scheduler for DistributedScheduler {
    fn name(&self) -> &'static str {
        "distributed(token)"
    }

    fn try_schedule(&self, problem: &ScheduleProblem) -> Result<ScheduleOutcome, ScheduleError> {
        check_ids(problem)?;
        Ok(TokenEngine::run(problem).outcome)
    }

    /// Observed cycle that exports the engine's clock-period and per-phase
    /// accounting alongside the generic cycle span.
    fn try_schedule_observed(
        &self,
        problem: &ScheduleProblem,
        _scratch: &mut rsin_core::scheduler::ScheduleScratch,
        probe: &dyn rsin_obs::Probe,
    ) -> Result<ScheduleOutcome, ScheduleError> {
        check_ids(problem)?;
        let span = probe.start();
        let out = TokenEngine::run_probed(problem, probe).outcome;
        probe.finish(span, rsin_obs::Hist::CycleLatencyNs);
        probe.add(rsin_obs::Counter::Cycles, 1);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsin_core::mapping::verify;
    use rsin_core::scheduler::MaxFlowScheduler;
    use rsin_topology::builders::{baseline, generalized_cube, omega};
    use rsin_topology::CircuitState;

    #[test]
    fn free_network_identity_requests() {
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let all: Vec<usize> = (0..8).collect();
        let problem = ScheduleProblem::homogeneous(&cs, &all, &all);
        let report = TokenEngine::run(&problem);
        assert_eq!(report.outcome.assignments.len(), 8);
        verify(&report.outcome.assignments, &problem).unwrap();
    }

    #[test]
    fn fig2_instance_matches_max_flow() {
        let net = omega(8).unwrap();
        let mut cs = CircuitState::new(&net);
        cs.connect(1, 5).unwrap();
        cs.connect(3, 3).unwrap();
        let problem = ScheduleProblem::homogeneous(&cs, &[0, 2, 4, 6, 7], &[0, 2, 4, 6, 7]);
        let report = TokenEngine::run(&problem);
        assert_eq!(report.outcome.assignments.len(), 5);
        verify(&report.outcome.assignments, &problem).unwrap();
        assert!(report.iterations >= 1);
        assert!(report.clocks > 4);
    }

    #[test]
    fn cancellation_rearranges_earlier_allocation() {
        // Build a situation where the first iteration's tentative path must
        // be rerouted (the engine's own Fig. 3/4 moment): two requests
        // contending through a shared box.
        let net = generalized_cube(8).unwrap();
        let mut cs = CircuitState::new(&net);
        // Occupy some links to force contention.
        cs.connect(0, 1).unwrap();
        let problem = ScheduleProblem::homogeneous(&cs, &[1, 2, 3, 4], &[0, 3, 5, 7]);
        let report = TokenEngine::run(&problem);
        let sw = MaxFlowScheduler::default().schedule(&problem);
        assert_eq!(report.outcome.assignments.len(), sw.allocated());
        verify(&report.outcome.assignments, &problem).unwrap();
    }

    #[test]
    fn matches_software_dinic_on_many_instances() {
        // Deterministic sweep over request/resource subsets on several
        // topologies with one pre-established circuit.
        let nets = vec![
            omega(8).unwrap(),
            baseline(8).unwrap(),
            generalized_cube(8).unwrap(),
        ];
        for net in &nets {
            for seed in 0..30u64 {
                let mut cs = CircuitState::new(net);
                let a = (seed % 8) as usize;
                let b = ((seed / 8) % 8) as usize;
                let _ = cs.connect(a, b);
                let req: Vec<usize> = (0..8).filter(|i| (seed >> i) & 1 == 0 && *i != a).collect();
                let free: Vec<usize> = (0..8)
                    .filter(|i| (seed >> (i + 3)) & 1 == 0 && *i != b)
                    .collect();
                let problem = ScheduleProblem::homogeneous(&cs, &req, &free);
                let report = TokenEngine::run(&problem);
                let sw = MaxFlowScheduler::default().schedule(&problem);
                assert_eq!(
                    report.outcome.assignments.len(),
                    sw.allocated(),
                    "{} seed {}",
                    net.name(),
                    seed
                );
                verify(&report.outcome.assignments, &problem).unwrap();
            }
        }
    }

    #[test]
    fn trace_follows_fig10_vectors() {
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let problem = ScheduleProblem::homogeneous(&cs, &[0, 1], &[2, 3]);
        let report = TokenEngine::run(&problem);
        let vectors: Vec<&str> = report.trace.iter().map(|t| t.vector.as_str()).collect();
        // First iteration: request phase, stop, resource phase, registration.
        assert!(vectors.contains(&"111000x"), "{vectors:?}");
        assert!(vectors.contains(&"111001x"), "{vectors:?}");
        assert!(vectors.contains(&"110100x"), "{vectors:?}");
        assert!(vectors.contains(&"110110x"), "{vectors:?}");
    }

    #[test]
    fn no_free_resources_blocks_everything() {
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let problem = ScheduleProblem::homogeneous(&cs, &[0, 1, 2], &[]);
        let report = TokenEngine::run(&problem);
        assert!(report.outcome.assignments.is_empty());
        assert_eq!(report.outcome.blocked.len(), 3);
        assert_eq!(report.iterations, 1, "one empty layered network");
    }

    #[test]
    fn clock_count_scales_with_stages() {
        // A deeper network needs more clocks per iteration.
        let small = omega(4).unwrap();
        let big = omega(16).unwrap();
        let cs_s = CircuitState::new(&small);
        let cs_b = CircuitState::new(&big);
        let ps = ScheduleProblem::homogeneous(&cs_s, &[0, 1], &[0, 1]);
        let pb = ScheduleProblem::homogeneous(&cs_b, &[0, 1], &[0, 1]);
        let rs = TokenEngine::run(&ps);
        let rb = TokenEngine::run(&pb);
        assert!(rb.clocks > rs.clocks);
    }

    #[test]
    fn out_of_range_ids_are_errors_at_both_entry_points() {
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let bad_processor = ScheduleProblem::homogeneous(&cs, &[0, 8], &[0, 1]);
        let bad_resource = ScheduleProblem::homogeneous(&cs, &[0, 1], &[1, 8]);
        let s = DistributedScheduler;
        let mut scratch = rsin_core::scheduler::ScheduleScratch::new();
        let probe = rsin_obs::NoopProbe;
        assert_eq!(
            s.try_schedule(&bad_processor).unwrap_err(),
            ScheduleError::UnknownProcessor(8)
        );
        assert_eq!(
            s.try_schedule_observed(&bad_processor, &mut scratch, &probe)
                .unwrap_err(),
            ScheduleError::UnknownProcessor(8)
        );
        assert!(s.try_schedule(&bad_resource).is_err());
        assert!(s
            .try_schedule_observed(&bad_resource, &mut scratch, &probe)
            .is_err());
    }
}
