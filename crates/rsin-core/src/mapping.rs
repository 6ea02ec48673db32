//! From optimal flows back to request→resource circuits.
//!
//! Theorem 2's constructive direction: "every legal integral flow defines a
//! set of F nonoverlapping paths from s to t", and each such path, with its
//! source and sink legs stripped, is a circuit from a requesting processor
//! to a free resource. [`extract`] performs that decomposition and
//! [`apply`] establishes the circuits in the network;
//! [`verify`] independently checks that a claimed mapping is valid
//! (injective both ways, link-disjoint, every path free and contiguous) —
//! used by tests to certify *any* scheduler's output, optimal or heuristic.

use crate::model::ScheduleProblem;
use crate::transform::hetero::HeteroTransformed;
use crate::transform::Transformed;
use rsin_flow::multicommodity::MultiSolution;
use rsin_flow::path::{for_each_unit_path, PathWalk};
use rsin_flow::{ArcId, Flow};
use rsin_topology::{CircuitId, CircuitState, LinkId, NodeRef};
use std::collections::HashSet;

/// One allocated request: the circuit from `processor` to `resource`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// Requesting processor.
    pub processor: usize,
    /// Allocated resource.
    pub resource: usize,
    /// The network links of the circuit, processor → resource.
    pub path: Vec<LinkId>,
}

/// Errors translating flows to circuits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MappingError {
    /// A decomposed path did not start with a request arc.
    MalformedPath,
    /// An arc on a path had no network-link image.
    MissingLink,
}

/// Decompose the flow in a transformed network into assignments.
///
/// The flow must already be computed (and legal); bypass flow is ignored.
/// Paths are walked with the reusable buffers of `walk`
/// ([`for_each_unit_path`]); each assignment gets one exact-size link list.
pub fn extract(t: &Transformed, walk: &mut PathWalk) -> Result<Vec<Assignment>, MappingError> {
    let mut out = Vec::new();
    for_each_circuit(
        t,
        walk,
        |f, l| t.path_ends(f, l),
        |c| {
            out.push(c.assignment()?);
            Ok::<_, MappingError>(())
        },
    )?;
    Ok(out)
}

/// One circuit of a decomposed flow: the two ends of its unit path and the
/// flow arcs between them.
pub(crate) struct Circuit<'a> {
    /// Requesting processor (the head of the path's request arc).
    pub(crate) processor: usize,
    /// Allocated resource (the tail of the path's resource arc).
    pub(crate) resource: usize,
    middle: &'a [ArcId],
    t: &'a Transformed,
}

impl Circuit<'_> {
    /// The circuit as an [`Assignment`], its network links listed
    /// processor → resource.
    pub(crate) fn assignment(&self) -> Result<Assignment, MappingError> {
        let mut path = Vec::with_capacity(self.middle.len());
        for &a in self.middle {
            path.push(self.t.link_of_arc(a).ok_or(MappingError::MissingLink)?);
        }
        Ok(Assignment {
            processor: self.processor,
            resource: self.resource,
            path,
        })
    }
}

/// Walk the unit paths of `t`'s flow with `walk`'s buffers
/// ([`for_each_unit_path`], bypass flow skipped) and hand each one to
/// `visit` as a [`Circuit`]. `ends` names the processor of a path's first
/// arc and the resource of its last; a path it cannot name is
/// [`MappingError::MalformedPath`]. The first error stops the walk.
pub(crate) fn for_each_circuit<E: From<MappingError>>(
    t: &Transformed,
    walk: &mut PathWalk,
    ends: impl Fn(ArcId, ArcId) -> Option<(usize, usize)>,
    mut visit: impl FnMut(Circuit<'_>) -> Result<(), E>,
) -> Result<(), E> {
    for_each_unit_path(&t.flow, t.source, t.sink, t.bypass, walk, |arcs| {
        visit(circuit(t, arcs, &ends)?)
    })
}

/// [`for_each_circuit`] for a flow whose unit paths are already known:
/// `paths` lists them one after another, each ending with its arc into the
/// sink, as [`SolveScratch::one_pass_paths`] does after a one-pass Dinic
/// solve from zero flow. The circuits are split off at the arcs into the
/// sink and nothing is walked. Transformation 1 only: it has no bypass.
///
/// Debug builds walk the flow too and assert that its paths, in its order,
/// are `paths`.
///
/// [`SolveScratch::one_pass_paths`]: rsin_flow::SolveScratch::one_pass_paths
pub(crate) fn for_each_recorded_circuit<E: From<MappingError>>(
    t: &Transformed,
    paths: &[ArcId],
    ends: impl Fn(ArcId, ArcId) -> Option<(usize, usize)>,
    mut visit: impl FnMut(Circuit<'_>) -> Result<(), E>,
) -> Result<(), E> {
    debug_assert!(t.bypass.is_none(), "a recorded flow has no bypass paths");
    #[cfg(debug_assertions)]
    {
        let mut walked = Vec::new();
        for_each_unit_path(
            &t.flow,
            t.source,
            t.sink,
            None,
            &mut PathWalk::default(),
            |arcs| {
                walked.extend_from_slice(arcs);
                Ok::<(), std::convert::Infallible>(())
            },
        )
        .unwrap_or_else(|never| match never {});
        debug_assert_eq!(walked, paths, "the recorded paths are not the walk's");
    }
    let mut rest = paths;
    while !rest.is_empty() {
        let len = rest
            .iter()
            .position(|&a| t.flow.head(a) == t.sink)
            .ok_or(MappingError::MalformedPath)?;
        let (arcs, tail) = rest.split_at(len + 1);
        rest = tail;
        visit(circuit(t, arcs, &ends)?)?;
    }
    Ok(())
}

/// The circuit of one unit path `s` to `t`, its ends named by `ends`.
fn circuit<'a>(
    t: &'a Transformed,
    arcs: &'a [ArcId],
    ends: impl Fn(ArcId, ArcId) -> Option<(usize, usize)>,
) -> Result<Circuit<'a>, MappingError> {
    let (&first, rest) = arcs.split_first().ok_or(MappingError::MalformedPath)?;
    let (&last, middle) = rest.split_last().ok_or(MappingError::MalformedPath)?;
    let (processor, resource) = ends(first, last).ok_or(MappingError::MalformedPath)?;
    Ok(Circuit {
        processor,
        resource,
        middle,
        t,
    })
}

/// Decompose an integral multicommodity solution into assignments.
///
/// `sol` must be integral ([`MultiSolution::integral`]); fractional
/// solutions cannot be turned into circuits.
pub fn extract_hetero(
    t: &HeteroTransformed,
    sol: &MultiSolution,
) -> Result<Vec<Assignment>, MappingError> {
    let mut out = Vec::new();
    for (ci, com) in t.commodities.iter().enumerate() {
        // Remaining integral flow per forward arc for this commodity.
        let mut remaining: Vec<Flow> = (0..t.flow.num_arcs())
            .map(|k| sol.int_flow(ci, ArcId(2 * k as u32)))
            .collect();
        let bypass = t.bypass[ci];
        // Trace one path per unit of this commodity's request-arc flow.
        while let Some(&(processor, _, first)) = t
            .request_arcs
            .iter()
            .find(|&&(_, _, a)| remaining[a.index() / 2] > 0 && t.flow.arc(a).from == com.source)
        {
            remaining[first.index() / 2] -= 1;
            let mut node = t.flow.arc(first).to;
            let mut links = Vec::new();
            let mut resource = None;
            let mut bypassed = false;
            while node != com.sink {
                let Some(&next) = t
                    .flow
                    .out_arcs(node)
                    .iter()
                    .find(|a| a.is_forward() && remaining[a.index() / 2] > 0)
                else {
                    return Err(MappingError::MalformedPath);
                };
                remaining[next.index() / 2] -= 1;
                if Some(t.flow.arc(next).to) == bypass {
                    bypassed = true;
                }
                if let Some(l) = t.arc_link.get(next.index() / 2).copied().flatten() {
                    links.push(l);
                }
                if let Some(&(r, _, _)) = t.resource_arcs.iter().find(|&&(_, _, a)| a == next) {
                    resource = Some(r);
                }
                node = t.flow.arc(next).to;
            }
            if bypassed {
                continue; // unallocated request
            }
            let resource = resource.ok_or(MappingError::MalformedPath)?;
            out.push(Assignment {
                processor,
                resource,
                path: links,
            });
        }
    }
    Ok(out)
}

/// Establish every assignment's circuit; returns the circuit handles.
///
/// Fails atomically: on error, previously established circuits from this
/// call are rolled back.
pub fn apply(
    assignments: &[Assignment],
    cs: &mut CircuitState<'_>,
) -> Result<Vec<CircuitId>, rsin_topology::circuit::CircuitError> {
    let mut done = Vec::with_capacity(assignments.len());
    for a in assignments {
        match cs.establish(&a.path) {
            Ok(c) => done.push(c),
            Err(e) => {
                for c in done {
                    let _ = cs.release(c);
                }
                return Err(e);
            }
        }
    }
    Ok(done)
}

/// Independently certify a mapping against its problem: processors and
/// resources used at most once and drawn from the problem; resource types
/// match; paths contiguous `processor → resource`, over free links only,
/// and mutually link-disjoint.
pub fn verify(assignments: &[Assignment], problem: &ScheduleProblem) -> Result<(), String> {
    let net = problem.circuits.network();
    let mut procs = HashSet::new();
    let mut ress = HashSet::new();
    let mut links = HashSet::new();
    for a in assignments {
        let req = problem
            .requests
            .iter()
            .find(|r| r.processor == a.processor)
            .ok_or(format!("p{} did not request", a.processor + 1))?;
        let res = problem
            .free
            .iter()
            .find(|f| f.resource == a.resource)
            .ok_or(format!("r{} is not free", a.resource + 1))?;
        if req.resource_type != res.resource_type {
            return Err(format!(
                "type mismatch: p{} wants {}, r{} is {}",
                a.processor + 1,
                req.resource_type,
                a.resource + 1,
                res.resource_type
            ));
        }
        if !procs.insert(a.processor) {
            return Err(format!("p{} allocated twice", a.processor + 1));
        }
        if !ress.insert(a.resource) {
            return Err(format!("r{} allocated twice", a.resource + 1));
        }
        // Path shape.
        if a.path.is_empty() {
            return Err("empty path".into());
        }
        if net.link(a.path[0]).src != NodeRef::Processor(a.processor) {
            return Err(format!("path does not start at p{}", a.processor + 1));
        }
        if net.link(*a.path.last().unwrap()).dst != NodeRef::Resource(a.resource) {
            return Err(format!("path does not end at r{}", a.resource + 1));
        }
        for w in a.path.windows(2) {
            if net.link(w[0]).dst != net.link(w[1]).src {
                return Err("path not contiguous".into());
            }
        }
        for &l in &a.path {
            if !problem.circuits.is_free(l) {
                return Err(format!("link {} occupied", l.0));
            }
            if !links.insert(l) {
                return Err(format!("link {} used by two circuits", l.0));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ScheduleProblem;
    use crate::transform::homogeneous;
    use rsin_flow::max_flow::{solve, Algorithm};
    use rsin_topology::builders::omega;
    use rsin_topology::CircuitState;

    fn fig2<'n>(cs: &mut CircuitState<'n>) {
        cs.connect(1, 5).unwrap();
        cs.connect(3, 3).unwrap();
    }

    #[test]
    fn extract_produces_verified_mapping() {
        let net = omega(8).unwrap();
        let mut cs = CircuitState::new(&net);
        fig2(&mut cs);
        let problem = ScheduleProblem::homogeneous(&cs, &[0, 2, 4, 6, 7], &[0, 2, 4, 6, 7]);
        let mut t = homogeneous::transform(&problem);
        let r = solve(&mut t.flow, t.source, t.sink, Algorithm::Dinic);
        assert_eq!(r.value, 5);
        let assignments = extract(&t, &mut PathWalk::default()).unwrap();
        assert_eq!(assignments.len(), 5);
        verify(&assignments, &problem).unwrap();
        // Each path crosses the 3-stage Omega: 4 links.
        for a in &assignments {
            assert_eq!(a.path.len(), 4);
        }
    }

    #[test]
    fn apply_establishes_circuits() {
        let net = omega(8).unwrap();
        let mut cs = CircuitState::new(&net);
        let problem = ScheduleProblem::homogeneous(&cs, &[0, 1], &[0, 1]);
        let mut t = homogeneous::transform(&problem);
        solve(&mut t.flow, t.source, t.sink, Algorithm::Dinic);
        let assignments = extract(&t, &mut PathWalk::default()).unwrap();
        let circuits = apply(&assignments, &mut cs).unwrap();
        assert_eq!(circuits.len(), 2);
        assert_eq!(cs.occupied_count(), 8);
    }

    #[test]
    fn apply_rolls_back_on_conflict() {
        let net = omega(8).unwrap();
        let mut cs = CircuitState::new(&net);
        let problem = ScheduleProblem::homogeneous(&cs, &[0], &[0]);
        let mut t = homogeneous::transform(&problem);
        solve(&mut t.flow, t.source, t.sink, Algorithm::Dinic);
        let assignments = extract(&t, &mut PathWalk::default()).unwrap();
        // Occupy one of the links first, so apply must fail and roll back.
        let before = {
            let mut doubled = assignments.clone();
            doubled.extend(assignments.iter().cloned());
            cs.occupied_count();
            doubled
        };
        assert!(apply(&before, &mut cs).is_err());
        assert_eq!(cs.occupied_count(), 0, "rollback freed everything");
    }

    #[test]
    fn verify_rejects_double_allocation() {
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let problem = ScheduleProblem::homogeneous(&cs, &[0], &[0, 1]);
        let path = cs.find_path(0, 0).unwrap();
        let a1 = Assignment {
            processor: 0,
            resource: 0,
            path: path.clone(),
        };
        let a2 = Assignment {
            processor: 0,
            resource: 1,
            path,
        };
        assert!(verify(std::slice::from_ref(&a1), &problem).is_ok());
        assert!(verify(&[a1, a2], &problem).is_err());
    }

    #[test]
    fn verify_rejects_occupied_links() {
        let net = omega(8).unwrap();
        let mut cs = CircuitState::new(&net);
        let path = cs.find_path(0, 0).unwrap();
        cs.establish(&path).unwrap();
        let problem = ScheduleProblem::homogeneous(&cs, &[0], &[0]);
        let a = Assignment {
            processor: 0,
            resource: 0,
            path,
        };
        assert!(verify(&[a], &problem).is_err());
    }

    #[test]
    fn verify_rejects_wrong_endpoints() {
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let problem = ScheduleProblem::homogeneous(&cs, &[0, 1], &[0, 1]);
        let path = cs.find_path(0, 0).unwrap();
        // Claim it connects p2 (it starts at p1).
        let a = Assignment {
            processor: 1,
            resource: 0,
            path,
        };
        assert!(verify(&[a], &problem).is_err());
    }

    #[test]
    fn verify_rejects_nonrequesting_processor() {
        let net = omega(8).unwrap();
        let cs = CircuitState::new(&net);
        let problem = ScheduleProblem::homogeneous(&cs, &[1], &[0]);
        let path = cs.find_path(0, 0).unwrap();
        let a = Assignment {
            processor: 0,
            resource: 0,
            path,
        };
        assert_eq!(
            verify(&[a], &problem),
            Err("p1 did not request".to_string())
        );
    }
}
