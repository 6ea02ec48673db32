//! The heterogeneous scheduler: multicommodity LP with integral fallback.

use super::cycle::{self, Graph, Shape};
use super::{check_ids, finish_outcome, OutcomeTables, Residual, ScheduleError, Scheduler};
use crate::mapping::{extract_hetero, Assignment};
use crate::model::{ScheduleOutcome, ScheduleProblem};
use crate::transform::hetero;
use rsin_flow::max_flow;
use rsin_flow::multicommodity;
use rsin_obs::NoopProbe;

/// Optimal scheduler for heterogeneous MRSINs (Section III-D): one
/// commodity per resource type, optimized jointly by the simplex method.
///
/// On the restricted topologies of interconnection networks the LP vertex
/// is integral (Evans–Jarvis); when it is not — possible on arbitrary
/// loop-free configurations, where integral multicommodity flow is NP-hard
/// — the scheduler falls back to sequential per-type maximum flows, an
/// integral heuristic whose loss is reported honestly by comparing against
/// the (fractional) LP bound.
#[derive(Debug, Clone, Copy, Default)]
pub struct MultiCommodityScheduler {
    /// Honour priorities/preferences via the min-cost formulation.
    pub use_priorities: bool,
}

impl MultiCommodityScheduler {
    /// Priority-aware variant.
    pub fn with_priorities() -> Self {
        MultiCommodityScheduler {
            use_priorities: true,
        }
    }

    /// Sequential per-type fallback (also used when the LP is fractional):
    /// one Theorem-2 round per type over the residual links, so later
    /// types see the links consumed by earlier ones.
    fn sequential(&self, problem: &ScheduleProblem) -> Result<Vec<Assignment>, ScheduleError> {
        let mut residual = Residual::pin(problem, Vec::new())?;
        let shape = Shape::MaxFlow(max_flow::Algorithm::Dinic);
        residual.rounds(
            problem,
            |_| true,
            |sub| cycle::solve(shape, sub, Graph::Fresh, &NoopProbe, &NoopProbe),
        )?;
        Ok(residual.assignments)
    }
}

impl Scheduler for MultiCommodityScheduler {
    fn name(&self) -> &'static str {
        if self.use_priorities {
            "multicommodity(min-cost)"
        } else {
            "multicommodity(max-flow)"
        }
    }

    fn try_schedule(&self, problem: &ScheduleProblem) -> Result<ScheduleOutcome, ScheduleError> {
        check_ids(problem)?;
        // LP errors (infeasible demand, non-fixed commodities) are not fatal:
        // the sequential fallback below always produces an integral mapping.
        let (t, sol) = if self.use_priorities {
            let t = hetero::transform_min_cost(problem);
            let sol = multicommodity::min_cost(&t.flow, &t.commodities).ok();
            (t, sol)
        } else {
            let t = hetero::transform_max(problem);
            let sol = multicommodity::max_flow(&t.flow, &t.commodities).ok();
            (t, sol)
        };
        let (assignments, work) = match sol {
            // Simplex pivots stand in for instruction count here.
            Some(sol) if sol.integral => (extract_hetero(&t, &sol)?, 100 * sol.pivots as u64),
            // Fractional vertex or infeasible demand formulation: integral
            // sequential fallback.
            _ => (self.sequential(problem)?, 0),
        };
        Ok(finish_outcome(
            problem,
            assignments,
            work,
            &mut OutcomeTables::default(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::verify;
    use crate::model::{FreeResource, ScheduleRequest};
    use rsin_topology::builders::omega;
    use rsin_topology::CircuitState;

    fn hetero_problem<'a, 'n>(cs: &'a CircuitState<'n>) -> ScheduleProblem<'a, 'n> {
        ScheduleProblem {
            circuits: cs,
            requests: vec![
                ScheduleRequest {
                    processor: 0,
                    priority: 2,
                    resource_type: 0,
                },
                ScheduleRequest {
                    processor: 1,
                    priority: 8,
                    resource_type: 1,
                },
                ScheduleRequest {
                    processor: 4,
                    priority: 5,
                    resource_type: 0,
                },
                ScheduleRequest {
                    processor: 6,
                    priority: 1,
                    resource_type: 2,
                },
            ],
            free: vec![
                FreeResource {
                    resource: 0,
                    preference: 3,
                    resource_type: 0,
                },
                FreeResource {
                    resource: 2,
                    preference: 6,
                    resource_type: 1,
                },
                FreeResource {
                    resource: 3,
                    preference: 1,
                    resource_type: 0,
                },
                FreeResource {
                    resource: 5,
                    preference: 9,
                    resource_type: 2,
                },
            ],
        }
    }

    /// Ground-truth optimum for the instance (exhaustive search).
    fn optimum(problem: &ScheduleProblem) -> usize {
        crate::scheduler::ExhaustiveScheduler::default()
            .schedule(problem)
            .allocated()
    }

    #[test]
    fn allocates_across_types() {
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let problem = hetero_problem(&cs);
        let out = MultiCommodityScheduler::default().schedule(&problem);
        assert_eq!(out.allocated(), optimum(&problem));
        verify(&out.assignments, &problem).unwrap();
        // The type-2 request can only ever bind the type-2 resource.
        if let Some(a) = out.assignments.iter().find(|a| a.processor == 6) {
            assert_eq!(a.resource, 5);
        }
    }

    #[test]
    fn priority_variant_allocates_same_count() {
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let problem = hetero_problem(&cs);
        let out = MultiCommodityScheduler::with_priorities().schedule(&problem);
        assert_eq!(out.allocated(), optimum(&problem));
        verify(&out.assignments, &problem).unwrap();
    }

    #[test]
    fn sequential_fallback_is_valid() {
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let problem = hetero_problem(&cs);
        let s = MultiCommodityScheduler::default();
        let assignments = s.sequential(&problem).unwrap();
        verify(&assignments, &problem).unwrap();
        // Sequential is a heuristic: never better than the optimum.
        assert!(assignments.len() <= optimum(&problem));
        assert!(!assignments.is_empty());
    }

    #[test]
    fn contention_within_type_respects_network() {
        // Two type-0 requests, one type-0 resource: one blocked.
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let problem = ScheduleProblem {
            circuits: &cs,
            requests: vec![
                ScheduleRequest {
                    processor: 0,
                    priority: 1,
                    resource_type: 0,
                },
                ScheduleRequest {
                    processor: 3,
                    priority: 1,
                    resource_type: 0,
                },
            ],
            free: vec![FreeResource {
                resource: 7,
                preference: 1,
                resource_type: 0,
            }],
        };
        let out = MultiCommodityScheduler::default().schedule(&problem);
        assert_eq!(out.allocated(), 1);
        assert_eq!(out.blocked.len(), 1);
    }

    #[test]
    fn homogeneous_degenerates_to_single_commodity() {
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let problem = ScheduleProblem::homogeneous(&cs, &[0, 1, 2], &[0, 1, 2]);
        let out = MultiCommodityScheduler::default().schedule(&problem);
        assert_eq!(out.allocated(), 3);
    }
}
