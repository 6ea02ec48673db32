//! Differential conformance detection for Byzantine misrouting (DESIGN §15).
//!
//! A misrouting switchbox is invisible to every capacity-based scheduler:
//! its links stay free, so Transformation 1 keeps routing circuits across it
//! — and those circuits silently fail to deliver. What *does* see the lie is
//! the gap between what an optimal oracle says the believed-healthy topology
//! supports and what actually arrived. The [`ConformanceDetector`] closes
//! the loop each scheduling cycle:
//!
//! 1. **Oracle.** Re-solve the realized assignment set as a fresh Dinic
//!    maximum flow on the believed topology, restricted to exactly the
//!    assigned (processor, resource) pairs. Because the scheduler just
//!    established these circuits simultaneously, the oracle certifies the
//!    full set as routable — `expected == assignments.len()`.
//! 2. **Deficit.** Any delivery shortfall against that certificate
//!    (`deficit = expected − delivered`) is therefore *not* explainable by
//!    fail-stop faults: an established circuit over honest boxes always
//!    delivers. A nonzero deficit proves at least one box on a failed path
//!    is lying.
//! 3. **Fingerprint by refinement.** Each failed delivery is retained as a
//!    *pending failure* whose suspect set is the boxes on its believed
//!    path. Whenever a box carries a circuit that delivers, it is dropped
//!    from every pending failure at or before that cycle — a deterministic
//!    misrouter fails every circuit through it, so delivering is proof of
//!    honesty for the whole lying interval. A suspect set that narrows to
//!    a singleton *attributes* its failure; [`FLAG_THRESHOLD`] attributed
//!    failures from distinct cycles flag the box.
//!
//! The refinement rule makes false accusation structurally impossible, not
//! just unlikely: every failed path contains at least one box that was
//! lying when the circuit was established, that box cannot deliver anything
//! while it keeps lying, so it is never dropped from the suspect set — a
//! set can only narrow *onto* a liar, never past one onto an honest box.
//! (Evidence involving a box whose fault is repaired mid-run is voided by
//! [`reset_box`](ConformanceDetector::reset_box).) Detection *latency*, on
//! the other hand, is workload-dependent: a failure is attributed only once
//! the honest boxes that shared its path have delivered something later,
//! so flagging needs enough traffic diversity to exonerate the bystanders.
//!
//! On fail-stop-only histories no circuit ever fails to deliver, so no
//! pending failure is ever created: the detector is structurally
//! false-positive-free there too.

use crate::mapping::Assignment;
use crate::model::ScheduleProblem;
use crate::scheduler::{MaxFlowScheduler, ScheduleError, Scheduler};
use rsin_flow::max_flow::Algorithm;
use rsin_topology::NodeRef;

/// Number of attributed failures (from distinct cycles) after which a box
/// is flagged as misrouting. One attributed failure already names a liar
/// with certainty under the deterministic-misrouter model; the threshold
/// asks for repeat evidence so a flag always rests on more than one
/// observation.
pub const FLAG_THRESHOLD: u32 = 2;

/// Pending failures retained at most; oldest evidence is discarded first.
const MAX_PENDING: usize = 1024;

/// What one cycle's differential check concluded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleConformance {
    /// Allocations the Dinic oracle certifies on the believed topology.
    pub expected: usize,
    /// Allocations that actually delivered.
    pub delivered: usize,
    /// `expected − delivered`; nonzero proves a lying box on a failed path.
    pub deficit: usize,
    /// Boxes that crossed the flagging threshold this cycle.
    pub newly_flagged: Vec<usize>,
}

/// One unexplained delivery failure and the boxes still suspect for it.
#[derive(Debug, Clone)]
struct PendingFailure {
    /// Detector cycle the failure was observed in.
    cycle: u64,
    /// Believed-path boxes not yet exonerated by a later delivery.
    suspects: Vec<usize>,
}

/// Cross-cycle attribution state for one network's switchboxes.
#[derive(Debug, Clone)]
pub struct ConformanceDetector {
    /// Cycles observed so far (one per [`observe`](Self::observe) call).
    cycle: u64,
    /// Last cycle each box carried a circuit that delivered.
    last_delivered: Vec<Option<u64>>,
    /// Failures whose suspect sets have not yet narrowed to a liar.
    pending: Vec<PendingFailure>,
    /// Singleton-attributed failures per box.
    attributed: Vec<u32>,
    /// Failure cycle of each box's most recent attribution (attributions
    /// from the same cycle count once toward the threshold).
    last_attributed_cycle: Vec<Option<u64>>,
    flagged: Vec<bool>,
    oracle: MaxFlowScheduler,
}

impl ConformanceDetector {
    /// A detector for a network with `num_boxes` switchboxes.
    pub fn new(num_boxes: usize) -> Self {
        ConformanceDetector {
            cycle: 0,
            last_delivered: vec![None; num_boxes],
            pending: Vec::new(),
            attributed: vec![0; num_boxes],
            last_attributed_cycle: vec![None; num_boxes],
            flagged: vec![false; num_boxes],
            oracle: MaxFlowScheduler::new(Algorithm::Dinic),
        }
    }

    /// Run one cycle's differential check.
    ///
    /// `problem` must be the snapshot the scheduler solved (circuit state
    /// *before* this cycle's establishments), `assignments` the realized
    /// allocation, and `delivered[i]` whether `assignments[i]` actually
    /// arrived at its resource. Returns the cycle verdict; newly flagged
    /// boxes are also remembered in [`is_flagged`](Self::is_flagged). The
    /// oracle's error (a snapshot id the network lacks) is returned instead.
    pub fn observe(
        &mut self,
        problem: &ScheduleProblem<'_, '_>,
        assignments: &[Assignment],
        delivered: &[bool],
    ) -> Result<CycleConformance, ScheduleError> {
        assert_eq!(assignments.len(), delivered.len());
        let mut out = CycleConformance {
            expected: self.oracle_expected(problem, assignments)?,
            delivered: delivered.iter().filter(|d| **d).count(),
            ..CycleConformance::default()
        };
        out.deficit = out.expected.saturating_sub(out.delivered);
        let net = problem.circuits.network();
        let now = self.cycle;
        // Deliveries first: a delivery this cycle already exonerates its
        // boxes for this cycle's failures (a deterministic misrouter cannot
        // deliver one circuit while failing another).
        for (a, &ok) in assignments.iter().zip(delivered) {
            if !ok {
                continue;
            }
            for l in &a.path {
                if let NodeRef::Box(b) = net.link(*l).dst {
                    self.last_delivered[b] = Some(now);
                }
            }
        }
        for (a, &ok) in assignments.iter().zip(delivered) {
            if ok {
                continue;
            }
            let mut suspects: Vec<usize> = a
                .path
                .iter()
                .filter_map(|l| match net.link(*l).dst {
                    NodeRef::Box(b) => Some(b),
                    _ => None,
                })
                .collect();
            suspects.sort_unstable();
            suspects.dedup();
            self.pending.push(PendingFailure {
                cycle: now,
                suspects,
            });
        }
        if self.pending.len() > MAX_PENDING {
            let excess = self.pending.len() - MAX_PENDING;
            self.pending.drain(..excess);
        }
        // Refine every pending failure against the delivery history and
        // attribute the ones that narrow to a single remaining suspect.
        let last_delivered = &self.last_delivered;
        let mut attributed_now: Vec<(usize, u64)> = Vec::new();
        self.pending.retain_mut(|p| {
            let failed_at = p.cycle;
            p.suspects
                .retain(|&b| !matches!(last_delivered[b], Some(d) if d >= failed_at));
            match p.suspects.len() {
                0 => false, // evidence fully voided (e.g. by repairs)
                1 => {
                    attributed_now.push((p.suspects[0], failed_at));
                    false
                }
                _ => true,
            }
        });
        for (b, failed_at) in attributed_now {
            if self.last_attributed_cycle[b] == Some(failed_at) {
                continue; // repeat evidence must come from distinct cycles
            }
            self.last_attributed_cycle[b] = Some(failed_at);
            self.attributed[b] = self.attributed[b].saturating_add(1);
            if self.attributed[b] >= FLAG_THRESHOLD && !self.flagged[b] {
                self.flagged[b] = true;
                out.newly_flagged.push(b);
            }
        }
        out.newly_flagged.sort_unstable();
        out.newly_flagged.dedup();
        self.cycle += 1;
        Ok(out)
    }

    /// The oracle half of the differential: a fresh Dinic solve of the
    /// realized assignment set on the believed-healthy snapshot. The
    /// assignments themselves witness full routability, so this certifies
    /// `assignments.len()` — the contract a delivery deficit is judged
    /// against.
    fn oracle_expected(
        &self,
        problem: &ScheduleProblem<'_, '_>,
        assignments: &[Assignment],
    ) -> Result<usize, ScheduleError> {
        if assignments.is_empty() {
            return Ok(0);
        }
        let sub = ScheduleProblem {
            circuits: problem.circuits,
            requests: problem
                .requests
                .iter()
                .filter(|r| assignments.iter().any(|a| a.processor == r.processor))
                .copied()
                .collect(),
            free: problem
                .free
                .iter()
                .filter(|f| assignments.iter().any(|a| a.resource == f.resource))
                .copied()
                .collect(),
        };
        Ok(self.oracle.try_schedule(&sub)?.assignments.len())
    }

    /// Has `b` been flagged as misrouting?
    pub fn is_flagged(&self, b: usize) -> bool {
        self.flagged[b]
    }

    /// All currently-flagged boxes, ascending.
    pub fn flagged_boxes(&self) -> Vec<usize> {
        (0..self.flagged.len())
            .filter(|&b| self.flagged[b])
            .collect()
    }

    /// Forget everything about box `b` (its fault was repaired): counters,
    /// flag, delivery history, and every pending failure it is suspect in —
    /// evidence gathered against a box whose fault episode ended is void.
    pub fn reset_box(&mut self, b: usize) {
        self.attributed[b] = 0;
        self.last_attributed_cycle[b] = None;
        self.flagged[b] = false;
        self.last_delivered[b] = None;
        self.pending.retain(|p| !p.suspects.contains(&b));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsin_topology::builders::omega;
    use rsin_topology::CircuitState;

    /// Drive one scheduling cycle on a fresh omega-8 with the given liars,
    /// returning the detector verdict.
    fn cycle(det: &mut ConformanceDetector, liars: &[usize]) -> CycleConformance {
        let net = omega(8).unwrap();
        let mut cs = CircuitState::new(&net);
        for &b in liars {
            cs.set_byzantine_box(b, true);
        }
        let all: Vec<usize> = (0..8).collect();
        let problem = ScheduleProblem::homogeneous(&cs, &all, &all);
        let out = MaxFlowScheduler::default().schedule(&problem);
        assert_eq!(out.assignments.len(), 8);
        let delivered: Vec<bool> = out
            .assignments
            .iter()
            .map(|a| cs.first_byzantine_on(&a.path).is_none())
            .collect();
        det.observe(&problem, &out.assignments, &delivered).unwrap()
    }

    #[test]
    fn healthy_cycles_have_zero_deficit_and_no_flags() {
        let net = omega(8).unwrap();
        let mut det = ConformanceDetector::new(net.num_boxes());
        for _ in 0..4 {
            let v = cycle(&mut det, &[]);
            assert_eq!(v.expected, 8);
            assert_eq!(v.delivered, 8);
            assert_eq!(v.deficit, 0);
            assert!(v.newly_flagged.is_empty());
        }
        assert!(det.flagged_boxes().is_empty());
    }

    #[test]
    fn a_deterministic_liar_is_flagged_and_bystanders_are_not() {
        let net = omega(8).unwrap();
        let mut det = ConformanceDetector::new(net.num_boxes());
        for c in 0..4 {
            let v = cycle(&mut det, &[5]);
            assert!(v.deficit > 0, "the liar carries traffic every cycle");
            if det.is_flagged(5) {
                assert!(c + 1 >= FLAG_THRESHOLD as usize, "needs repeat evidence");
                break;
            }
        }
        assert!(det.is_flagged(5), "liar never flagged");
        // Suspect-set refinement only ever narrows onto a liar: the honest
        // boxes that shared the liar's failed paths delivered other circuits
        // in the same cycles, so none of them can be flagged.
        assert_eq!(det.flagged_boxes(), vec![5]);
        det.reset_box(5);
        assert!(!det.is_flagged(5));
    }

    #[test]
    fn attribution_waits_until_bystanders_deliver() {
        // One circuit through the liar and nothing else: the whole path
        // stays suspect, nobody is flagged. Once the bystanders deliver on
        // liar-free circuits, the old failures narrow onto the liar.
        fn schedule_pair<'a, 'n>(
            cs: &'a CircuitState<'n>,
            p: usize,
            r: usize,
        ) -> (ScheduleProblem<'a, 'n>, crate::model::ScheduleOutcome) {
            let problem = ScheduleProblem::homogeneous(cs, &[p], &[r]);
            let out = MaxFlowScheduler::default().schedule(&problem);
            assert_eq!(out.assignments.len(), 1, "pair ({p},{r}) unroutable");
            (problem, out)
        }
        let net = omega(8).unwrap();
        let mut det = ConformanceDetector::new(net.num_boxes());
        let mut cs = CircuitState::new(&net);
        cs.set_byzantine_box(5, true);
        // Find a pair routed through the liar.
        let (p, r, path) = (0..8)
            .flat_map(|p| (0..8).map(move |r| (p, r)))
            .find_map(|(p, r)| {
                let (_, out) = schedule_pair(&cs, p, r);
                let a = &out.assignments[0];
                cs.first_byzantine_on(&a.path)
                    .map(|_| (p, r, a.path.clone()))
            })
            .expect("some pair routes through box 5");
        for _ in 0..FLAG_THRESHOLD {
            let (problem, out) = schedule_pair(&cs, p, r);
            det.observe(&problem, &out.assignments, &[false]).unwrap();
        }
        assert!(
            !det.is_flagged(5),
            "bystanders not yet exonerated — no singleton, no flag"
        );
        // Deliver liar-free circuits over every honest box on that path.
        for (q, s) in (0..8).flat_map(|q| (0..8).map(move |s| (q, s))) {
            let (problem, out) = schedule_pair(&cs, q, s);
            if cs.first_byzantine_on(&out.assignments[0].path).is_none() {
                det.observe(&problem, &out.assignments, &[true]).unwrap();
            }
        }
        assert!(det.is_flagged(5), "old failures now narrow onto the liar");
        assert_eq!(det.flagged_boxes(), vec![5]);
        let _ = path;
    }
}
