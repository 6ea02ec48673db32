//! Exhaustive optimal scheduler for cross-checking (tiny instances only).
//!
//! Section III opens by dismissing exhaustive search: "the scheduler has to
//! try a maximum of `C(x,y)·y!` mappings to find the best one … suboptimal
//! heuristics can be used but it is only practical when x and y are small".
//! This module *is* that impractical scheduler — a backtracking search over
//! every request→resource pairing **and** every simple path realizing each
//! pairing — kept because it provides ground truth: property tests assert
//! the flow-based schedulers match its allocation count and cost on small
//! random instances.

use super::{check_ids, finish_outcome, OutcomeTables, ScheduleError, Scheduler};
use crate::mapping::Assignment;
use crate::model::{ScheduleOutcome, ScheduleProblem};
use rsin_topology::{CircuitState, LinkId, NodeRef};

/// Backtracking exhaustive search. Exponential; intended for instances with
/// at most ~6 requests on 8×8 networks.
#[derive(Debug, Clone, Copy)]
pub struct ExhaustiveScheduler {
    /// Safety valve: abandon branches beyond this many search steps
    /// (the best solution found so far is still returned).
    pub step_limit: u64,
}

impl Default for ExhaustiveScheduler {
    fn default() -> Self {
        ExhaustiveScheduler {
            step_limit: 2_000_000,
        }
    }
}

/// Enumerate all simple free paths from processor `p` to resource `r`.
fn enumerate_paths(cs: &CircuitState, p: usize, r: usize) -> Vec<Vec<LinkId>> {
    let net = cs.network();
    let Some(start) = net.processor_link(p) else {
        return Vec::new();
    };
    if !cs.is_free(start) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut stack = vec![start];
    // Iterative DFS with an explicit path; networks are DAGs so no cycle
    // bookkeeping is needed.
    fn recurse(cs: &CircuitState, r: usize, path: &mut Vec<LinkId>, out: &mut Vec<Vec<LinkId>>) {
        let net = cs.network();
        let last = *path.last().unwrap();
        match net.link(last).dst {
            NodeRef::Resource(dst) => {
                if dst == r {
                    out.push(path.clone());
                }
            }
            NodeRef::Box(b) => {
                for next in net.out_links(NodeRef::Box(b)) {
                    if cs.is_free(next) {
                        path.push(next);
                        recurse(cs, r, path, out);
                        path.pop();
                    }
                }
            }
            NodeRef::Processor(_) => unreachable!(),
        }
    }
    recurse(cs, r, &mut stack, &mut out);
    out
}

struct Search<'p, 'a, 'n> {
    problem: &'p ScheduleProblem<'a, 'n>,
    gamma_max: i64,
    q_max: i64,
    steps: u64,
    limit: u64,
    best: Vec<Assignment>,
    best_cost: i64,
}

impl Search<'_, '_, '_> {
    fn pair_cost(&self, req_idx: usize, free_idx: usize) -> i64 {
        (self.gamma_max - self.problem.requests[req_idx].priority as i64)
            + (self.q_max - self.problem.free[free_idx].preference as i64)
    }

    fn go(
        &mut self,
        req_idx: usize,
        scratch: &mut CircuitState,
        taken: &mut Vec<bool>,
        current: &mut Vec<(Assignment, i64)>,
    ) {
        self.steps += 1;
        if self.steps > self.limit {
            return;
        }
        if req_idx == self.problem.requests.len() {
            let cost: i64 = current.iter().map(|(_, c)| c).sum();
            if current.len() > self.best.len()
                || (current.len() == self.best.len() && cost < self.best_cost)
            {
                self.best = current.iter().map(|(a, _)| a.clone()).collect();
                self.best_cost = cost;
            }
            return;
        }
        // Upper-bound prune: even allocating every remaining request cannot
        // beat the current best cardinality.
        let remaining = self.problem.requests.len() - req_idx;
        if current.len() + remaining < self.best.len() {
            return;
        }
        let req = self.problem.requests[req_idx];
        // Try every compatible resource and every path realizing the pair.
        for free_idx in 0..self.problem.free.len() {
            if taken[free_idx] || self.problem.free[free_idx].resource_type != req.resource_type {
                continue;
            }
            let r = self.problem.free[free_idx].resource;
            for path in enumerate_paths(scratch, req.processor, r) {
                let c = scratch.establish(&path).expect("enumerated path is free");
                taken[free_idx] = true;
                current.push((
                    Assignment {
                        processor: req.processor,
                        resource: r,
                        path,
                    },
                    self.pair_cost(req_idx, free_idx),
                ));
                self.go(req_idx + 1, scratch, taken, current);
                current.pop();
                taken[free_idx] = false;
                scratch.release(c).unwrap();
            }
        }
        // Or leave this request blocked.
        self.go(req_idx + 1, scratch, taken, current);
    }
}

impl Scheduler for ExhaustiveScheduler {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    fn try_schedule(&self, problem: &ScheduleProblem) -> Result<ScheduleOutcome, ScheduleError> {
        check_ids(problem)?;
        let mut scratch: CircuitState = problem.circuits.clone_link_state();
        let mut search = Search {
            problem,
            gamma_max: problem.max_priority() as i64,
            q_max: problem.max_preference() as i64,
            steps: 0,
            limit: self.step_limit,
            best: Vec::new(),
            best_cost: i64::MAX,
        };
        let mut taken = vec![false; problem.free.len()];
        let mut current = Vec::new();
        search.go(0, &mut scratch, &mut taken, &mut current);
        let best = search.best;
        Ok(finish_outcome(
            problem,
            best,
            search.steps,
            &mut OutcomeTables::default(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::verify;
    use crate::scheduler::{MaxFlowScheduler, MinCostScheduler};
    use rsin_topology::builders::{baseline, omega};
    use rsin_topology::CircuitState;

    #[test]
    fn matches_max_flow_on_small_instances() {
        let net = omega(8).unwrap();
        let mut cs = CircuitState::new(&net);
        cs.connect(1, 5).unwrap();
        cs.connect(3, 3).unwrap();
        let problem = ScheduleProblem::homogeneous(&cs, &[0, 2, 4], &[0, 2, 7]);
        let ex = ExhaustiveScheduler::default().schedule(&problem);
        let mf = MaxFlowScheduler::default().schedule(&problem);
        assert_eq!(ex.allocated(), mf.allocated());
        verify(&ex.assignments, &problem).unwrap();
    }

    #[test]
    fn matches_min_cost_on_priority_instance() {
        let net = baseline(8).unwrap();
        let cs = CircuitState::new(&net);
        let problem =
            ScheduleProblem::with_priorities(&cs, &[(0, 3), (2, 7), (5, 1)], &[(1, 5), (4, 2)]);
        let ex = ExhaustiveScheduler::default().schedule(&problem);
        let mc = MinCostScheduler::default().schedule(&problem);
        assert_eq!(ex.allocated(), mc.allocated());
        assert_eq!(ex.total_cost, mc.total_cost);
    }

    #[test]
    fn enumerates_multiple_paths_in_benes() {
        use rsin_topology::builders::benes;
        let net = benes(4).unwrap();
        let cs = CircuitState::new(&net);
        let paths = enumerate_paths(&cs, 0, 3);
        assert!(
            paths.len() >= 2,
            "Benes has redundant paths, got {}",
            paths.len()
        );
    }

    #[test]
    fn unique_path_in_omega() {
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        for p in 0..8 {
            for r in 0..8 {
                assert_eq!(enumerate_paths(&cs, p, r).len(), 1, "p{p} -> r{r}");
            }
        }
    }

    #[test]
    fn step_limit_caps_work_but_returns_something() {
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let all: Vec<usize> = (0..8).collect();
        let problem = ScheduleProblem::homogeneous(&cs, &all, &all);
        let out = ExhaustiveScheduler { step_limit: 50 }.schedule(&problem);
        verify(&out.assignments, &problem).unwrap();
    }
}
