//! The monitor architecture (Fig. 6 of the paper), made explicit.
//!
//! "A dedicated monitor is responsible for resource scheduling … It
//! maintains the status of the interconnection network and resources. The
//! monitor enters a scheduling cycle when there are pending requests.
//! Requests received or resources released during a scheduling cycle will
//! not be processed until the next cycle."
//!
//! [`Monitor`] wraps any [`Scheduler`] with exactly those semantics, and
//! the Fig. 6 deferral holds by construction: [`Monitor::cycle`] borrows
//! the monitor mutably, so no request or release can land while a cycle
//! runs, and whatever arrives after it is seen by the next snapshot. It also prices each cycle with the
//! [`CostModel`] so experiments can compare the monitor's scheduling
//! latency against the distributed engine's.

use crate::cost::CostModel;
use rsin_core::model::{ScheduleOutcome, ScheduleProblem, ScheduleRequest};
use rsin_core::scheduler::{ScheduleError, Scheduler};
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

/// A centralized scheduling monitor over one network.
pub struct Monitor<'n> {
    circuits: CircuitState<'n>,
    /// Requests visible to the next cycle.
    pending: Vec<ScheduleRequest>,
    /// Resource availability visible to the next cycle.
    free: Vec<bool>,
    /// Resource type per resource (0 everywhere in homogeneous systems).
    resource_types: Vec<usize>,
    /// Live circuits per processor (so task completion can release them).
    live: Vec<Option<(CircuitId, usize)>>,
    policy: BatchingPolicy,
    cost: CostModel,
    /// Total microseconds spent scheduling (monitor latency).
    pub scheduling_us: f64,
    /// Cycles executed.
    pub cycles: u64,
}

/// What one monitor cycle did.
#[derive(Debug, Clone)]
pub struct CycleOutcome {
    /// The mapping committed this cycle.
    pub outcome: ScheduleOutcome,
    /// Monitor latency charged for this cycle, in microseconds.
    pub latency_us: f64,
}

impl<'n> Monitor<'n> {
    /// A monitor over a free homogeneous network; all resources available.
    pub fn new(net: &'n Network, cost: CostModel) -> Self {
        let types = vec![0; net.num_resources()];
        Monitor::with_types(net, cost, types)
    }

    /// A monitor over a heterogeneous pool: `resource_types[r]` is the type
    /// of resource `r`.
    pub fn with_types(net: &'n Network, cost: CostModel, resource_types: Vec<usize>) -> Self {
        assert_eq!(resource_types.len(), net.num_resources());
        Monitor {
            circuits: CircuitState::new(net),
            pending: Vec::new(),
            free: vec![true; net.num_resources()],
            resource_types,
            live: vec![None; net.num_processors()],
            policy: BatchingPolicy::Immediate,
            cost,
            scheduling_us: 0.0,
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

    /// A processor submits a request; the next cycle sees it. A processor
    /// the network lacks is rejected with
    /// [`ScheduleError::UnknownProcessor`] and nothing is queued, so one bad
    /// id cannot fail every later cycle.
    pub fn submit(&mut self, request: ScheduleRequest) -> Result<(), ScheduleError> {
        if request.processor >= self.circuits.network().num_processors() {
            return Err(ScheduleError::UnknownProcessor(request.processor));
        }
        self.pending.push(request);
        Ok(())
    }

    /// A resource finishes its task; the next cycle sees it free.
    pub fn release_resource(&mut self, resource: usize) {
        self.free[resource] = true;
    }

    /// A processor finishes transmitting: its circuit is torn down (the
    /// resource stays busy until [`Monitor::release_resource`]).
    pub fn transmission_done(&mut self, processor: usize) {
        if let Some((c, _)) = self.live[processor].take() {
            let _ = self.circuits.release(c);
        }
    }

    /// Number of requests the next cycle will see.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Run one scheduling cycle: snapshot → schedule → commit. Returns
    /// `Ok(None)` if there was nothing to do (no pending requests or no free
    /// resources — the idle states of Fig. 10), and the scheduler's error
    /// when it rejects the snapshot or maps a circuit that cannot be
    /// established.
    pub fn cycle(
        &mut self,
        scheduler: &dyn Scheduler,
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
                .map(|&r| rsin_core::model::FreeResource {
                    resource: r,
                    preference: 1,
                    resource_type: self.resource_types[r],
                })
                .collect(),
        };
        let outcome = scheduler.try_schedule(&problem)?;
        drop(problem);
        // Commit: establish circuits, claim resources, drop served requests.
        for a in &outcome.assignments {
            let c = self.circuits.establish(&a.path)?;
            self.free[a.resource] = false;
            self.live[a.processor] = Some((c, a.resource));
            self.pending.retain(|r| r.processor != a.processor);
        }
        let latency_us = self.cost.monitor_us(outcome.estimated_instructions);
        self.scheduling_us += latency_us;
        self.cycles += 1;
        Ok(Some(CycleOutcome {
            outcome,
            latency_us,
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
        m.transmission_done(a.processor);
        m.release_resource(a.resource);
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
        let freed = 0; // resource allocated to p1 in the first cycle? find one:
        let _ = freed;
        // Release any allocated resource: p0's.
        m.transmission_done(0);
        m.release_resource(find_resource_of(&m));
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
        let t1 = m.scheduling_us;
        m.transmission_done(0);
        m.release_resource(0);
        m.submit(req(1)).unwrap();
        cycle(&mut m).unwrap();
        assert!(m.scheduling_us > t1);
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
}
