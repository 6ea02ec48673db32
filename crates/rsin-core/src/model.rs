//! The scheduling problem model (Section II of the paper).
//!
//! A scheduling cycle begins with a snapshot: which processors have pending
//! requests (with priority levels and requested resource types), which
//! resources are free (with preference values and types), and which network
//! links are already occupied by earlier circuits. The goal is a
//! request→resource mapping minimizing total cost; with equal priorities and
//! preferences this reduces to maximizing the number of allocations.

use rsin_topology::CircuitState;

/// A pending request from one processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleRequest {
    /// Requesting processor index.
    pub processor: usize,
    /// Priority level `γ_p ≥ 1`; higher is more urgent. Allocation cost is
    /// `γ_max − γ_p`, i.e. inversely related to priority (step T4).
    pub priority: u32,
    /// Index of the resource type this request needs (0 in homogeneous
    /// systems). Each request needs exactly one resource (model point 4).
    pub resource_type: usize,
}

impl ScheduleRequest {
    /// Processor `processor`'s request in a homogeneous, equal-priority
    /// snapshot: priority 1, type 0.
    pub(crate) fn homogeneous(processor: usize) -> Self {
        ScheduleRequest {
            processor,
            priority: 1,
            resource_type: 0,
        }
    }
}

/// A free resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FreeResource {
    /// Resource index (output port).
    pub resource: usize,
    /// Preference value `q_w ≥ 1`; higher is more desirable. Allocation
    /// cost is `q_max − q_w`.
    pub preference: u32,
    /// Resource type (0 in homogeneous systems).
    pub resource_type: usize,
}

impl FreeResource {
    /// Resource `resource` in a homogeneous, equal-preference snapshot:
    /// preference 1, type 0.
    pub(crate) fn homogeneous(resource: usize) -> Self {
        FreeResource {
            resource,
            preference: 1,
            resource_type: 0,
        }
    }
}

/// Snapshot handed to a [`Scheduler`](crate::scheduler::Scheduler) at the
/// start of a scheduling cycle.
#[derive(Debug, Clone)]
pub struct ScheduleProblem<'a, 'n> {
    /// Current link occupancy (earlier circuits stay up during the cycle).
    pub circuits: &'a CircuitState<'n>,
    /// Pending requests, one per requesting processor.
    pub requests: Vec<ScheduleRequest>,
    /// Currently free resources.
    pub free: Vec<FreeResource>,
}

impl<'a, 'n> ScheduleProblem<'a, 'n> {
    /// Homogeneous, equal-priority problem: the pure maximum-mapping case.
    pub fn homogeneous(
        circuits: &'a CircuitState<'n>,
        requesting: &[usize],
        free: &[usize],
    ) -> Self {
        ScheduleProblem {
            circuits,
            requests: requesting
                .iter()
                .map(|&p| ScheduleRequest::homogeneous(p))
                .collect(),
            free: free.iter().map(|&r| FreeResource::homogeneous(r)).collect(),
        }
    }

    /// Homogeneous problem with priorities and preferences
    /// (`(processor, priority)` and `(resource, preference)` pairs).
    pub fn with_priorities(
        circuits: &'a CircuitState<'n>,
        requesting: &[(usize, u32)],
        free: &[(usize, u32)],
    ) -> Self {
        ScheduleProblem {
            circuits,
            requests: requesting
                .iter()
                .map(|&(p, pr)| ScheduleRequest {
                    processor: p,
                    priority: pr,
                    resource_type: 0,
                })
                .collect(),
            free: free
                .iter()
                .map(|&(r, q)| FreeResource {
                    resource: r,
                    preference: q,
                    resource_type: 0,
                })
                .collect(),
        }
    }

    /// Highest priority among the requests (`γ_max`), default 1.
    pub fn max_priority(&self) -> u32 {
        self.requests.iter().map(|r| r.priority).max().unwrap_or(1)
    }

    /// Highest preference among the free resources (`q_max`), default 1.
    pub fn max_preference(&self) -> u32 {
        self.free.iter().map(|r| r.preference).max().unwrap_or(1)
    }

    /// Distinct resource types present in requests or resources.
    pub fn resource_types(&self) -> Vec<usize> {
        let mut types: Vec<usize> = self
            .requests
            .iter()
            .map(|r| r.resource_type)
            .chain(self.free.iter().map(|f| f.resource_type))
            .collect();
        types.sort_unstable();
        types.dedup();
        types
    }

    /// True when every request and resource has type 0.
    pub fn is_homogeneous(&self) -> bool {
        self.requests.iter().all(|r| r.resource_type == 0)
            && self.free.iter().all(|f| f.resource_type == 0)
    }

    /// The best possible number of allocations ignoring the network:
    /// per type, `min(requests of that type, free resources of that type)`.
    pub fn demand_bound(&self) -> usize {
        self.resource_types()
            .into_iter()
            .map(|ty| {
                let reqs = self
                    .requests
                    .iter()
                    .filter(|r| r.resource_type == ty)
                    .count();
                let res = self.free.iter().filter(|f| f.resource_type == ty).count();
                reqs.min(res)
            })
            .sum()
    }
}

/// What a scheduler produced for one cycle.
#[derive(Debug, Clone, Default)]
pub struct ScheduleOutcome {
    /// Allocated (processor, resource, circuit path) triples.
    pub assignments: Vec<crate::mapping::Assignment>,
    /// Processors whose requests could not be allocated this cycle.
    pub blocked: Vec<usize>,
    /// Total allocation cost under the Transformation-2 cost model
    /// (0 for equal priorities/preferences). Excludes bypass-arc costs.
    pub total_cost: i64,
    /// Work measure reported by the underlying algorithm (instructions for
    /// the monitor model; see `rsin_flow::stats`).
    pub estimated_instructions: u64,
}

impl ScheduleOutcome {
    /// Number of resources allocated.
    pub fn allocated(&self) -> usize {
        self.assignments.len()
    }

    /// Fraction of requests blocked (the paper's headline metric), in
    /// `0.0..=1.0`; `denominator` is `min(x, y)` — the best achievable
    /// number of allocations.
    pub fn blocking_fraction(&self, denominator: usize) -> f64 {
        if denominator == 0 {
            return 0.0;
        }
        1.0 - self.assignments.len() as f64 / denominator as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsin_topology::builders::omega;
    use rsin_topology::CircuitState;

    #[test]
    fn homogeneous_constructor() {
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let p = ScheduleProblem::homogeneous(&cs, &[0, 2], &[1, 3, 5]);
        assert_eq!(p.requests.len(), 2);
        assert_eq!(p.free.len(), 3);
        assert!(p.is_homogeneous());
        assert_eq!(p.max_priority(), 1);
        assert_eq!(p.demand_bound(), 2);
    }

    #[test]
    fn priorities_tracked() {
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let p = ScheduleProblem::with_priorities(&cs, &[(0, 7), (1, 3)], &[(2, 10), (3, 1)]);
        assert_eq!(p.max_priority(), 7);
        assert_eq!(p.max_preference(), 10);
    }

    #[test]
    fn demand_bound_respects_types() {
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let mut p = ScheduleProblem::homogeneous(&cs, &[0, 1, 2], &[0]);
        assert_eq!(p.demand_bound(), 1);
        p.requests[2].resource_type = 1;
        p.free.push(FreeResource {
            resource: 5,
            preference: 1,
            resource_type: 1,
        });
        assert!(!p.is_homogeneous());
        assert_eq!(p.demand_bound(), 2);
        assert_eq!(p.resource_types(), vec![0, 1]);
    }

    #[test]
    fn blocking_fraction_math() {
        let o = ScheduleOutcome::default();
        assert_eq!(o.blocking_fraction(0), 0.0);
        assert_eq!(o.blocking_fraction(4), 1.0);
    }
}
