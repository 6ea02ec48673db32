//! The optimal priority/preference scheduler: Transformation 2 + min-cost
//! flow.

use super::cycle::Shape;
use super::{priced_retry_blocked, DegradedOutcome, ScheduleError, ScheduleScratch, Scheduler};
use crate::model::{ScheduleOutcome, ScheduleProblem};
use rsin_flow::min_cost::Algorithm;

/// Optimal scheduler for homogeneous MRSINs with request priorities and
/// resource preferences (Section III-C, Theorem 3). Maximizes the number of
/// allocations and, among maximal mappings, minimizes the total cost
/// `Σ (γ_max − γ_p) + (q_max − q_w)`.
#[derive(Debug, Clone, Copy)]
pub struct MinCostScheduler {
    /// Which min-cost-flow algorithm to run (SSP or the paper's
    /// out-of-kilter; identical optima, different work profiles).
    pub algorithm: Algorithm,
}

impl Default for MinCostScheduler {
    fn default() -> Self {
        MinCostScheduler {
            algorithm: Algorithm::SuccessiveShortestPaths,
        }
    }
}

impl MinCostScheduler {
    /// Scheduler running a specific min-cost-flow algorithm.
    pub fn new(algorithm: Algorithm) -> Self {
        MinCostScheduler { algorithm }
    }
}

impl Scheduler for MinCostScheduler {
    fn name(&self) -> &'static str {
        match self.algorithm {
            Algorithm::SuccessiveShortestPaths => "min-cost(ssp)",
            Algorithm::OutOfKilter => "min-cost(out-of-kilter)",
        }
    }

    fn try_schedule(&self, problem: &ScheduleProblem) -> Result<ScheduleOutcome, ScheduleError> {
        Shape::MinCost(self.algorithm).fresh_cycle(problem)
    }

    fn try_schedule_reusing(
        &self,
        problem: &ScheduleProblem,
        scratch: &mut ScheduleScratch,
    ) -> Result<ScheduleOutcome, ScheduleError> {
        Shape::MinCost(self.algorithm).cycle(problem, scratch, &rsin_obs::NoopProbe)
    }

    fn try_schedule_observed(
        &self,
        problem: &ScheduleProblem,
        scratch: &mut ScheduleScratch,
        probe: &dyn rsin_obs::Probe,
    ) -> Result<ScheduleOutcome, ScheduleError> {
        Shape::MinCost(self.algorithm).cycle(problem, scratch, probe)
    }

    /// Shed directly when the snapshot has one resource type: the primary
    /// mapping is then a maximum mapping (Transformation 2's bypass routes
    /// all `F₀` units, and the min-cost flow takes a real allocation over
    /// every bypass it can, Theorem 3), so a recovered request would be a
    /// link-disjoint extension of a maximum mapping — a contradiction.
    /// Debug builds still run the residual as an oracle and assert it
    /// recovers nothing. Transformation 2 is type-blind, so a snapshot with
    /// several types keeps the residual retry, solved with this scheduler's
    /// own algorithm on the same Transformation-2 graph the primary solve
    /// configured (rebuilds stay at 1).
    fn priced_retry(
        &self,
        problem: &ScheduleProblem,
        primary: ScheduleOutcome,
        scratch: &mut ScheduleScratch,
        probe: &dyn rsin_obs::Probe,
    ) -> Result<DegradedOutcome, ScheduleError> {
        if problem.resource_types().len() > 1 {
            return priced_retry_blocked(problem, primary, scratch, self.algorithm, probe);
        }
        if cfg!(debug_assertions) {
            let oracle = priced_retry_blocked(
                problem,
                primary.clone(),
                scratch,
                self.algorithm,
                &rsin_obs::NoopProbe,
            )?;
            assert_eq!(
                oracle.recovered, 0,
                "Theorem 3: the residual of a maximum primary recovers nothing"
            );
        }
        Ok(DegradedOutcome::shed_all(primary))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::verify;
    use crate::scheduler::MaxFlowScheduler;
    use rsin_topology::builders::omega;
    use rsin_topology::CircuitState;

    #[test]
    fn allocates_same_cardinality_as_max_flow() {
        // Theorem 3: priority scheduling never sacrifices cardinality.
        let net = omega(8).unwrap();
        let mut cs = CircuitState::new(&net);
        cs.connect(2, 6).unwrap();
        let problem = ScheduleProblem::with_priorities(
            &cs,
            &[(0, 5), (1, 2), (4, 9), (7, 1)],
            &[(0, 3), (3, 7), (5, 1), (7, 9)],
        );
        let maxout = MaxFlowScheduler::default().schedule(&ScheduleProblem::homogeneous(
            &cs,
            &[0, 1, 4, 7],
            &[0, 3, 5, 7],
        ));
        for algo in Algorithm::ALL {
            let out = MinCostScheduler::new(algo).schedule(&problem);
            assert_eq!(out.allocated(), maxout.allocated(), "{algo:?}");
            verify(&out.assignments, &problem).unwrap();
        }
    }

    #[test]
    fn both_algorithms_reach_equal_cost() {
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let problem = ScheduleProblem::with_priorities(
            &cs,
            &[(0, 1), (2, 5), (5, 10)],
            &[(1, 4), (4, 8), (6, 2), (7, 6)],
        );
        let c1 = MinCostScheduler::new(Algorithm::SuccessiveShortestPaths)
            .schedule(&problem)
            .total_cost;
        let c2 = MinCostScheduler::new(Algorithm::OutOfKilter)
            .schedule(&problem)
            .total_cost;
        assert_eq!(c1, c2);
    }

    #[test]
    fn prefers_high_priority_and_preference() {
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        // Two requests, one resource slot reachable by both: p3 has higher
        // priority. Free network: both can reach anything, but only one
        // resource is free.
        let problem = ScheduleProblem::with_priorities(&cs, &[(0, 1), (2, 9)], &[(4, 1)]);
        let out = MinCostScheduler::default().schedule(&problem);
        assert_eq!(out.allocated(), 1);
        assert_eq!(out.assignments[0].processor, 2);
        assert_eq!(out.blocked, vec![0]);
    }

    #[test]
    fn equal_priorities_reduce_to_max_flow_cost_zero() {
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let problem = ScheduleProblem::homogeneous(&cs, &[0, 1, 2], &[3, 4, 5]);
        let out = MinCostScheduler::default().schedule(&problem);
        assert_eq!(out.allocated(), 3);
        assert_eq!(out.total_cost, 0);
    }
}
