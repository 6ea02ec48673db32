//! Single-stage (crossbar) fast path: maximum bipartite matching.
//!
//! On a one-stage RSIN every processor→resource circuit is a two-link path
//! through the single switchbox, and circuits never contend for interior
//! links — the optimal mapping is a maximum matching of the accessibility
//! graph, for which Hopcroft–Karp's `O(E√V)` beats the generic flow
//! reduction. This scheduler refuses deeper networks (where pairwise
//! accessibility ignores interior link sharing and would overcount).

use super::{check_ids, finish_outcome, OutcomeTables, ScheduleError, Scheduler};
use crate::mapping::Assignment;
use crate::model::{ScheduleOutcome, ScheduleProblem};
use rsin_flow::bipartite::Bipartite;

/// Optimal scheduler for single-stage networks via Hopcroft–Karp.
#[derive(Debug, Clone, Copy, Default)]
pub struct MatchingScheduler;

impl Scheduler for MatchingScheduler {
    fn name(&self) -> &'static str {
        "matching(hopcroft-karp)"
    }

    /// Returns [`ScheduleError::MultiStageNetwork`] if the network has more
    /// than one stage: interior links of deeper MINs are shared between
    /// circuits, which matching cannot see.
    fn try_schedule(&self, problem: &ScheduleProblem) -> Result<ScheduleOutcome, ScheduleError> {
        check_ids(problem)?;
        let stages = problem.circuits.network().num_stages();
        if stages > 1 {
            return Err(ScheduleError::MultiStageNetwork(stages));
        }
        // Accessibility graph: request i ~ free resource j iff a free path
        // exists and the types agree.
        let mut g = Bipartite::new(problem.requests.len(), problem.free.len());
        let mut paths = vec![vec![None; problem.free.len()]; problem.requests.len()];
        for (i, req) in problem.requests.iter().enumerate() {
            for (j, res) in problem.free.iter().enumerate() {
                if req.resource_type != res.resource_type {
                    continue;
                }
                if let Some(path) = problem.circuits.find_path(req.processor, res.resource) {
                    g.add_edge(i, j);
                    paths[i][j] = Some(path);
                }
            }
        }
        let m = g.hopcroft_karp();
        let mut assignments = Vec::with_capacity(m.size);
        for (i, pr) in m.pair_left.iter().enumerate() {
            if let Some(j) = pr {
                assignments.push(Assignment {
                    processor: problem.requests[i].processor,
                    resource: problem.free[*j].resource,
                    path: paths[i][*j].take().expect("edge implies path"),
                });
            }
        }
        // Work model: ~10 instructions per BFS/DFS phase edge touch.
        let instructions = (m.phases as u64) * 10 * (problem.requests.len() as u64 + 1);
        Ok(finish_outcome(
            problem,
            assignments,
            instructions,
            &mut OutcomeTables::default(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::verify;
    use crate::scheduler::MaxFlowScheduler;
    use rsin_topology::builders::crossbar;
    use rsin_topology::CircuitState;

    #[test]
    fn matches_max_flow_on_crossbar() {
        let net = crossbar(8, 8).unwrap();
        for trial in 0..20u64 {
            let mut cs = CircuitState::new(&net);
            let _ = cs.connect((trial % 8) as usize, ((trial * 3) % 8) as usize);
            let req: Vec<usize> = (0..8).filter(|i| (trial >> (i % 5)) & 1 == 0).collect();
            let free: Vec<usize> = (0..8)
                .filter(|i| (trial >> ((i + 1) % 5)) & 1 == 1)
                .collect();
            let problem = ScheduleProblem::homogeneous(&cs, &req, &free);
            let hk = MatchingScheduler.schedule(&problem);
            let mf = MaxFlowScheduler::default().schedule(&problem);
            assert_eq!(hk.allocated(), mf.allocated(), "trial {trial}");
            verify(&hk.assignments, &problem).unwrap();
        }
    }

    #[test]
    fn respects_types() {
        use crate::model::{FreeResource, ScheduleRequest};
        let net = crossbar(4, 4).unwrap();
        let cs = CircuitState::new(&net);
        let problem = ScheduleProblem {
            circuits: &cs,
            requests: vec![ScheduleRequest {
                processor: 0,
                priority: 1,
                resource_type: 1,
            }],
            free: vec![
                FreeResource {
                    resource: 0,
                    preference: 1,
                    resource_type: 0,
                },
                FreeResource {
                    resource: 1,
                    preference: 1,
                    resource_type: 1,
                },
            ],
        };
        let out = MatchingScheduler.schedule(&problem);
        assert_eq!(out.allocated(), 1);
        assert_eq!(out.assignments[0].resource, 1);
    }

    #[test]
    fn refuses_multistage_networks() {
        use rsin_topology::builders::omega;
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let problem = ScheduleProblem::homogeneous(&cs, &[0], &[0]);
        let err = MatchingScheduler.try_schedule(&problem).unwrap_err();
        assert_eq!(err, ScheduleError::MultiStageNetwork(3));
        assert!(err.to_string().contains("single-stage"), "{err}");
    }
}
