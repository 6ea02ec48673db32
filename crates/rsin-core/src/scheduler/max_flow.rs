//! The optimal homogeneous scheduler: Transformation 1 + maximum flow.

use super::cycle::Shape;
use super::{DegradedOutcome, ScheduleError, ScheduleScratch, Scheduler};
use crate::model::{ScheduleOutcome, ScheduleProblem};
use rsin_flow::max_flow::Algorithm;

/// Optimal scheduler for homogeneous MRSINs with equal priorities
/// (Section III-B). Maximizes the number of allocated resources; by
/// Theorem 2 no mapping allocates more.
#[derive(Debug, Clone, Copy)]
pub struct MaxFlowScheduler {
    /// Which maximum-flow algorithm to run (ablation knob; the result is
    /// identical, only the work differs).
    pub algorithm: Algorithm,
}

impl Default for MaxFlowScheduler {
    fn default() -> Self {
        MaxFlowScheduler {
            algorithm: Algorithm::Dinic,
        }
    }
}

impl MaxFlowScheduler {
    /// Scheduler running a specific max-flow algorithm.
    pub fn new(algorithm: Algorithm) -> Self {
        MaxFlowScheduler { algorithm }
    }
}

impl Scheduler for MaxFlowScheduler {
    fn name(&self) -> &'static str {
        match self.algorithm {
            Algorithm::Dinic => "max-flow(dinic)",
            Algorithm::EdmondsKarp => "max-flow(edmonds-karp)",
            Algorithm::FordFulkerson => "max-flow(ford-fulkerson)",
        }
    }

    fn try_schedule(&self, problem: &ScheduleProblem) -> Result<ScheduleOutcome, ScheduleError> {
        Shape::MaxFlow(self.algorithm).fresh_cycle(problem)
    }

    fn try_schedule_reusing(
        &self,
        problem: &ScheduleProblem,
        scratch: &mut ScheduleScratch,
    ) -> Result<ScheduleOutcome, ScheduleError> {
        Shape::MaxFlow(self.algorithm).cycle(problem, scratch, &rsin_obs::NoopProbe)
    }

    fn try_schedule_observed(
        &self,
        problem: &ScheduleProblem,
        scratch: &mut ScheduleScratch,
        probe: &dyn rsin_obs::Probe,
    ) -> Result<ScheduleOutcome, ScheduleError> {
        Shape::MaxFlow(self.algorithm).cycle(problem, scratch, probe)
    }

    /// Skip the residual solve: the primary mapping is already *maximum*
    /// (Theorem 2), so a recovered request would be a link-disjoint
    /// extension of a maximum mapping — a contradiction. Blocked requests
    /// are therefore shed directly, nothing else could have been recovered
    /// at any price, and this scratch never builds the min-cost
    /// transformation shape: rebuilds stay at exactly 1 under the priced
    /// policy too.
    fn priced_retry(
        &self,
        _problem: &ScheduleProblem,
        primary: ScheduleOutcome,
        _scratch: &mut ScheduleScratch,
        _probe: &dyn rsin_obs::Probe,
    ) -> Result<DegradedOutcome, ScheduleError> {
        Ok(DegradedOutcome::shed_all(primary))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::verify;
    use rsin_topology::builders::{generalized_cube, omega};
    use rsin_topology::CircuitState;

    #[test]
    fn fig2_allocates_all_five() {
        let net = omega(8).unwrap();
        let mut cs = CircuitState::new(&net);
        cs.connect(1, 5).unwrap();
        cs.connect(3, 3).unwrap();
        let problem = ScheduleProblem::homogeneous(&cs, &[0, 2, 4, 6, 7], &[0, 2, 4, 6, 7]);
        let out = MaxFlowScheduler::default().schedule(&problem);
        assert_eq!(out.allocated(), 5);
        assert!(out.blocked.is_empty());
        verify(&out.assignments, &problem).unwrap();
    }

    #[test]
    fn all_algorithms_reach_the_same_value() {
        let net = generalized_cube(8).unwrap();
        let mut cs = CircuitState::new(&net);
        cs.connect(0, 2).unwrap();
        let problem = ScheduleProblem::homogeneous(&cs, &[1, 3, 5, 7], &[0, 3, 5, 7]);
        let values: Vec<usize> = Algorithm::ALL
            .iter()
            .map(|&a| MaxFlowScheduler::new(a).schedule(&problem).allocated())
            .collect();
        assert!(values.windows(2).all(|w| w[0] == w[1]), "{values:?}");
    }

    #[test]
    fn instructions_accounted() {
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let problem = ScheduleProblem::homogeneous(&cs, &[0, 1], &[0, 1]);
        let out = MaxFlowScheduler::default().schedule(&problem);
        assert!(out.estimated_instructions > 0);
    }

    #[test]
    fn empty_problem() {
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let problem = ScheduleProblem::homogeneous(&cs, &[], &[]);
        let out = MaxFlowScheduler::default().schedule(&problem);
        assert_eq!(out.allocated(), 0);
        assert!(out.blocked.is_empty());
    }
}
