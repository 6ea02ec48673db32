//! One multi-cycle shell for both of the paper's architectures.
//!
//! The monitor architecture (Fig. 6): "A dedicated monitor is responsible
//! for resource scheduling … It maintains the status of the
//! interconnection network and resources. The monitor enters a scheduling
//! cycle when there are pending requests. Requests received or resources
//! released during a scheduling cycle will not be processed until the next
//! cycle."
//!
//! [`Monitor`] keeps that status (pending requests, free resources, live
//! circuits) and runs each cycle as snapshot → solve → commit. The solve
//! is either architecture's: [`Monitor::cycle`] runs any [`Scheduler`]
//! and counts the instructions it reports (Fig. 6), and
//! [`Monitor::token_cycle`] runs the distributed token engine
//! ([`TokenEngine`], Fig. 9) and counts its clock periods. The deferral
//! holds by construction for both: a cycle borrows the shell mutably, so
//! no request or release can land while it runs, and whatever arrives
//! after it is seen by the next snapshot. The totals are priced once with
//! the [`CostModel`] ([`Monitor::scheduling_us`]), so experiments can
//! compare the two architectures on one workload.

use crate::cost::CostModel;
use rsin_core::model::{FreeResource, ScheduleOutcome, ScheduleProblem, ScheduleRequest};
use rsin_core::scheduler::{check_ids, ScheduleError, Scheduler};
use rsin_distrib::TokenEngine;
use rsin_topology::{CircuitId, CircuitState, Network};

/// When the monitor chooses to enter a scheduling cycle.
///
/// "To avoid repeated attempts of allocating blocked resources (i.e., the
/// case of cycling between states 4 and 5 in Fig. 10) and to improve the
/// scheduling efficiency, the MRSIN may choose to wait for more requests to
/// arrive and more resources to become available before entering a
/// scheduling cycle."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchingPolicy {
    /// Cycle as soon as any request and any free resource coexist.
    #[default]
    Immediate,
    /// Wait until at least this many requests are pending.
    WaitForRequests(usize),
    /// Wait until at least this many resources are free.
    WaitForResources(usize),
}

/// A scheduling shell over one homogeneous network, for either
/// architecture.
pub struct Monitor<'n> {
    circuits: CircuitState<'n>,
    /// Requests visible to the next cycle.
    pending: Vec<ScheduleRequest>,
    /// Resource availability visible to the next cycle.
    free: Vec<bool>,
    /// Live circuit per processor (so task completion can release it).
    live: Vec<Option<CircuitId>>,
    policy: BatchingPolicy,
    cost: CostModel,
    /// Monitor instructions summed over all [`Monitor::cycle`]s.
    pub instructions: u64,
    /// Clock periods summed over all [`Monitor::token_cycle`]s.
    pub clocks: u64,
    /// Cycles executed.
    pub cycles: u64,
}

/// What one cycle did.
#[derive(Debug, Clone)]
pub struct CycleOutcome {
    /// The mapping committed this cycle.
    pub outcome: ScheduleOutcome,
    /// Scheduling latency charged for this cycle, in microseconds.
    pub latency_us: f64,
}

impl<'n> Monitor<'n> {
    /// A shell over a free homogeneous network; all resources available.
    pub fn new(net: &'n Network, cost: CostModel) -> Self {
        Monitor {
            circuits: CircuitState::new(net),
            pending: Vec::new(),
            free: vec![true; net.num_resources()],
            live: vec![None; net.num_processors()],
            policy: BatchingPolicy::Immediate,
            cost,
            instructions: 0,
            clocks: 0,
            cycles: 0,
        }
    }

    /// Current circuit state (for inspection).
    pub fn circuits(&self) -> &CircuitState<'n> {
        &self.circuits
    }

    /// Set the cycle-entry batching policy (default: immediate).
    pub fn set_policy(&mut self, policy: BatchingPolicy) {
        self.policy = policy;
    }

    /// Total scheduling time so far, in microseconds: the instructions of
    /// every Fig. 6 cycle and the clock periods of every token cycle, each
    /// total priced once.
    pub fn scheduling_us(&self) -> f64 {
        self.cost.monitor_us(self.instructions) + self.cost.distributed_us(self.clocks)
    }

    /// A processor submits a request; the next cycle sees it. Like the
    /// request server's RQ pending bit, a processor holds at most one
    /// pending request: a second submit before a cycle serves the first is
    /// ignored, and the first keeps its place. A processor the network
    /// lacks is rejected with [`ScheduleError::UnknownProcessor`] and
    /// nothing is queued, so one bad id cannot fail every later cycle.
    pub fn submit(&mut self, request: ScheduleRequest) -> Result<(), ScheduleError> {
        if request.processor >= self.circuits.network().num_processors() {
            return Err(ScheduleError::UnknownProcessor(request.processor));
        }
        if !self
            .pending
            .iter()
            .any(|r| r.processor == request.processor)
        {
            self.pending.push(request);
        }
        Ok(())
    }

    /// A resource finishes its task; the next cycle sees it free. A
    /// resource the network lacks is [`ScheduleError::UnknownResource`],
    /// the error [`check_ids`] gives a free resource out of range.
    pub fn release_resource(&mut self, resource: usize) -> Result<(), ScheduleError> {
        let free = self
            .free
            .get_mut(resource)
            .ok_or(ScheduleError::UnknownResource(resource))?;
        *free = true;
        Ok(())
    }

    /// A processor finishes transmitting: its circuit is torn down (the
    /// resource stays busy until [`Monitor::release_resource`]). A
    /// processor the network lacks is [`ScheduleError::UnknownProcessor`].
    pub fn transmission_done(&mut self, processor: usize) -> Result<(), ScheduleError> {
        let live = self
            .live
            .get_mut(processor)
            .ok_or(ScheduleError::UnknownProcessor(processor))?;
        if let Some(c) = live.take() {
            self.circuits.release(c)?;
        }
        Ok(())
    }

    /// Number of requests the next cycle will see.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Run one Fig. 6 cycle with `scheduler`, charged the instructions its
    /// outcome reports. Returns `Ok(None)` if there was nothing to do (no
    /// pending requests or no free resources — the idle states of Fig.
    /// 10 — or the batching threshold is not met), and the scheduler's
    /// error when it rejects the snapshot or maps a circuit that cannot be
    /// established.
    pub fn cycle(
        &mut self,
        scheduler: &dyn Scheduler,
    ) -> Result<Option<CycleOutcome>, ScheduleError> {
        self.run_cycle(|problem| Ok((scheduler.try_schedule(problem)?, 0)))
    }

    /// Run one Fig. 9 cycle on the distributed token engine, charged its
    /// clock periods; otherwise as [`Monitor::cycle`].
    pub fn token_cycle(&mut self) -> Result<Option<CycleOutcome>, ScheduleError> {
        self.run_cycle(|problem| {
            check_ids(problem)?;
            let report = TokenEngine::run(problem);
            Ok((report.outcome, report.clocks))
        })
    }

    /// The cycle both architectures share: snapshot → `solve` → commit.
    /// `solve` returns the outcome and the clock periods it took; the
    /// outcome's `estimated_instructions` are the monitor's work.
    fn run_cycle(
        &mut self,
        solve: impl FnOnce(&ScheduleProblem) -> Result<(ScheduleOutcome, u64), ScheduleError>,
    ) -> Result<Option<CycleOutcome>, ScheduleError> {
        let free_now: Vec<usize> = (0..self.free.len()).filter(|&r| self.free[r]).collect();
        if self.pending.is_empty() || free_now.is_empty() {
            return Ok(None);
        }
        // Batching: hold off the cycle until the policy's threshold is met
        // (Fig. 10's deliberate waiting states).
        match self.policy {
            BatchingPolicy::Immediate => {}
            BatchingPolicy::WaitForRequests(k) => {
                if self.pending.len() < k {
                    return Ok(None);
                }
            }
            BatchingPolicy::WaitForResources(k) => {
                if free_now.len() < k {
                    return Ok(None);
                }
            }
        }
        let problem = ScheduleProblem {
            circuits: &self.circuits,
            requests: self.pending.clone(),
            free: free_now
                .iter()
                .map(|&r| FreeResource {
                    resource: r,
                    preference: 1,
                    resource_type: 0,
                })
                .collect(),
        };
        let (outcome, clocks) = solve(&problem)?;
        drop(problem);
        // Commit: establish circuits, claim resources, drop served requests.
        for a in &outcome.assignments {
            let c = self.circuits.establish(&a.path)?;
            self.free[a.resource] = false;
            self.live[a.processor] = Some(c);
            self.pending.retain(|r| r.processor != a.processor);
        }
        let instructions = outcome.estimated_instructions;
        self.instructions += instructions;
        self.clocks += clocks;
        self.cycles += 1;
        Ok(Some(CycleOutcome {
            outcome,
            latency_us: self.cost.monitor_us(instructions) + self.cost.distributed_us(clocks),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsin_core::scheduler::MaxFlowScheduler;
    use rsin_topology::builders::omega;

    /// One max-flow cycle of `m`, which must not fail.
    fn cycle(m: &mut Monitor) -> Option<CycleOutcome> {
        m.cycle(&MaxFlowScheduler::default()).unwrap()
    }

    fn req(p: usize) -> ScheduleRequest {
        ScheduleRequest {
            processor: p,
            priority: 1,
            resource_type: 0,
        }
    }

    #[test]
    fn idle_monitor_runs_no_cycle() {
        let net = omega(8).unwrap();
        let mut m = Monitor::new(&net, CostModel::default());
        assert!(cycle(&mut m).is_none());
        assert_eq!(m.cycles, 0);
    }

    #[test]
    fn basic_cycle_allocates_and_prices() {
        let net = omega(8).unwrap();
        let mut m = Monitor::new(&net, CostModel::default());
        m.submit(req(0)).unwrap();
        m.submit(req(3)).unwrap();
        let c = cycle(&mut m).unwrap();
        assert_eq!(c.outcome.allocated(), 2);
        assert!(c.latency_us > 0.0);
        assert_eq!(m.pending_count(), 0);
        assert_eq!(m.circuits().occupied_count(), 8);
    }

    #[test]
    fn resources_stay_busy_until_released() {
        let net = omega(8).unwrap();
        let mut m = Monitor::new(&net, CostModel::default());
        for p in 0..8 {
            m.submit(req(p)).unwrap();
        }
        let c1 = cycle(&mut m).unwrap();
        let served = c1.outcome.allocated();
        assert!(served >= 1);
        // All resources claimed (8 served) or all requests queued; submit
        // another request: nothing schedulable if all resources busy.
        if served == 8 {
            m.submit(req(0)).unwrap(); // p0 again (its circuit may still be up)
            assert!(cycle(&mut m).is_none());
        }
        // Release one resource and tear down its processor's circuit.
        let a = &c1.outcome.assignments[0];
        m.transmission_done(a.processor).unwrap();
        m.release_resource(a.resource).unwrap();
        m.submit(req(a.processor)).unwrap();
        let c2 = cycle(&mut m).unwrap();
        assert_eq!(c2.outcome.allocated(), 1);
    }

    #[test]
    fn batching_policy_defers_cycles() {
        let net = omega(8).unwrap();
        let mut m = Monitor::new(&net, CostModel::default());
        m.set_policy(BatchingPolicy::WaitForRequests(3));
        m.submit(req(0)).unwrap();
        m.submit(req(1)).unwrap();
        assert!(cycle(&mut m).is_none(), "below threshold");
        m.submit(req(2)).unwrap();
        let c = cycle(&mut m).unwrap();
        assert_eq!(
            c.outcome.allocated(),
            3,
            "one batched cycle serves all three"
        );
        assert_eq!(m.cycles, 1);
    }

    #[test]
    fn resource_batching_waits_for_pool() {
        let net = omega(8).unwrap();
        let mut m = Monitor::new(&net, CostModel::default());
        // Claim 7 of 8 resources.
        for p in 0..7 {
            m.submit(req(p)).unwrap();
        }
        cycle(&mut m).unwrap();
        m.set_policy(BatchingPolicy::WaitForResources(2));
        m.submit(req(7)).unwrap();
        assert!(cycle(&mut m).is_none(), "only 1 resource free");
        // A release brings the pool to the threshold.
        m.transmission_done(0).unwrap();
        m.release_resource(find_resource_of(&m)).unwrap();
        let c = cycle(&mut m);
        assert!(c.is_some());
    }

    /// Helper: index of some busy resource (the first).
    fn find_resource_of(m: &Monitor) -> usize {
        (0..8).find(|&r| !m.free[r]).expect("some resource busy")
    }

    #[test]
    fn accumulates_scheduling_time() {
        let net = omega(8).unwrap();
        let mut m = Monitor::new(&net, CostModel::default());
        m.submit(req(0)).unwrap();
        cycle(&mut m).unwrap();
        let t1 = m.scheduling_us();
        m.transmission_done(0).unwrap();
        m.release_resource(0).unwrap();
        m.submit(req(1)).unwrap();
        cycle(&mut m).unwrap();
        assert!(m.scheduling_us() > t1);
        assert_eq!(m.cycles, 2);
    }

    #[test]
    fn unknown_processor_is_a_typed_error() {
        let net = omega(8).unwrap();
        let mut m = Monitor::new(&net, CostModel::default());
        assert_eq!(m.submit(req(99)), Err(ScheduleError::UnknownProcessor(99)));
        assert_eq!(m.pending_count(), 0);
        assert!(cycle(&mut m).is_none(), "nothing was queued");
        // A valid request after the rejected one is scheduled.
        m.submit(req(3)).unwrap();
        let c = cycle(&mut m).unwrap();
        assert_eq!(c.outcome.assignments[0].processor, 3);
        assert_eq!(m.cycles, 1);
    }

    #[test]
    fn unknown_ids_at_teardown_are_typed_errors() {
        let net = omega(8).unwrap();
        let mut m = Monitor::new(&net, CostModel::default());
        assert_eq!(
            m.transmission_done(8),
            Err(ScheduleError::UnknownProcessor(8))
        );
        // The same error the schedulers' id check gives a resource past
        // the last port.
        let out_of_range = ScheduleProblem::homogeneous(m.circuits(), &[], &[8]);
        assert_eq!(
            check_ids(&out_of_range),
            Err(ScheduleError::UnknownResource(8))
        );
        assert_eq!(
            m.release_resource(8),
            Err(ScheduleError::UnknownResource(8))
        );
        // Nothing changed: a cycle still serves a valid request.
        m.submit(req(1)).unwrap();
        assert_eq!(token_cycle(&mut m).unwrap().outcome.allocated(), 1);
    }

    #[test]
    fn duplicate_submission_costs_nothing_extra() {
        let net = omega(8).unwrap();
        let run = |duplicate: bool| {
            let mut m = Monitor::new(&net, CostModel::default());
            for p in [1, 4, 6] {
                m.submit(req(p)).unwrap();
            }
            if duplicate {
                m.submit(req(4)).unwrap();
            }
            let pending = m.pending_count();
            let outcome = cycle(&mut m).unwrap().outcome;
            (pending, outcome)
        };
        let (once_pending, once) = run(false);
        let (twice_pending, twice) = run(true);
        assert_eq!(twice_pending, once_pending);
        assert_eq!(twice.assignments, once.assignments);
        assert_eq!(twice.blocked, once.blocked);
        assert_eq!(twice.estimated_instructions, once.estimated_instructions);
    }

    // The token cycle (Fig. 9) through the same shell.

    /// One token-engine cycle of `m`, which must not fail.
    fn token_cycle(m: &mut Monitor) -> Option<CycleOutcome> {
        m.token_cycle().unwrap()
    }

    #[test]
    fn lifecycle_submit_cycle_release() {
        let net = omega(8).unwrap();
        let mut m = Monitor::new(&net, CostModel::default());
        assert!(token_cycle(&mut m).is_none());
        m.submit(req(0)).unwrap();
        m.submit(req(3)).unwrap();
        let out = token_cycle(&mut m).unwrap().outcome;
        assert_eq!(out.allocated(), 2);
        assert_eq!(m.pending_count(), 0);
        assert_eq!(m.circuits().occupied_count(), 8);
        assert!(m.clocks > 0);
        // Release one and reuse.
        let a = &out.assignments[0];
        m.transmission_done(a.processor).unwrap();
        m.release_resource(a.resource).unwrap();
        m.submit(req(a.processor)).unwrap();
        let out2 = token_cycle(&mut m).unwrap().outcome;
        assert_eq!(out2.allocated(), 1);
        assert_eq!(m.cycles, 2);
    }

    #[test]
    fn saturation_blocks_further_cycles() {
        let net = omega(8).unwrap();
        let mut m = Monitor::new(&net, CostModel::default());
        for p in 0..8 {
            m.submit(req(p)).unwrap();
        }
        let served = token_cycle(&mut m).unwrap().outcome.allocated();
        assert!(served > 0);
        if served == 8 {
            m.submit(req(0)).unwrap();
            // Everything busy: no cycle can run.
            assert!(token_cycle(&mut m).is_none());
        }
    }

    #[test]
    fn duplicate_submissions_are_idempotent() {
        let net = omega(8).unwrap();
        // The RQ pending bit: under either architecture's cycle.
        let runs: [fn(&mut Monitor) -> Option<CycleOutcome>; 2] = [cycle, token_cycle];
        for run in runs {
            let mut m = Monitor::new(&net, CostModel::default());
            m.submit(req(2)).unwrap();
            m.submit(req(2)).unwrap();
            assert_eq!(m.pending_count(), 1);
            let out = run(&mut m).unwrap().outcome;
            assert_eq!(out.allocated(), 1);
            assert!(out.blocked.is_empty());
            assert_eq!(m.pending_count(), 0);
        }
    }

    #[test]
    fn clocks_accumulate_across_cycles() {
        let net = omega(8).unwrap();
        let mut m = Monitor::new(&net, CostModel::default());
        m.submit(req(0)).unwrap();
        let out = token_cycle(&mut m).unwrap().outcome;
        let c1 = m.clocks;
        let r = out.assignments[0].resource;
        m.transmission_done(0).unwrap();
        m.release_resource(r).unwrap();
        m.submit(req(1)).unwrap();
        token_cycle(&mut m).unwrap();
        assert!(m.clocks > c1);
        assert_eq!(m.instructions, 0, "token cycles execute no instructions");
        assert_eq!(
            m.scheduling_us(),
            CostModel::default().distributed_us(m.clocks)
        );
    }
}
