//! Property tests for the Byzantine misrouting detector (DESIGN §15).
//!
//! The detector's contract, exercised over random liar placements:
//!
//! 1. **Completeness** — every deterministic misrouting box is flagged
//!    within a bounded number of cycles (two full round-robin sweeps of
//!    the pair space, asserted with a third for margin), provided the
//!    workload can identify it: each honest box needs a liar-free path
//!    to deliver on (exoneration), and each liar needs at least
//!    [`FLAG_THRESHOLD`] pairs that cross it and no other liar.
//! 2. **Soundness** — the flagged set is a subset of the liar set after
//!    *every* cycle, not just at the end (zero false positives).
//! 3. **Fail-stop blindness** — plans that only fail-stop boxes/links
//!    never produce a flag: visible faults shrink the believed topology,
//!    so the oracle and the realized schedule agree and no failed
//!    deliveries are ever reported.

use proptest::prelude::*;
use rsin_core::conformance::{ConformanceDetector, FLAG_THRESHOLD};
use rsin_core::model::ScheduleProblem;
use rsin_core::scheduler::{MaxFlowScheduler, Scheduler};
use rsin_topology::builders::omega;
use rsin_topology::{CircuitState, LinkId, Network, NodeRef};
use std::collections::BTreeSet;

/// Switchboxes traversed by a path, in stage order (every box on a
/// proc->resource path is the `dst` of exactly one path link).
fn boxes_on(net: &Network, path: &[LinkId]) -> Vec<usize> {
    path.iter()
        .filter_map(|l| match net.link(*l).dst {
            NodeRef::Box(b) => Some(b),
            _ => None,
        })
        .collect()
}

/// The unique Omega path for every (processor, resource) pair, as the
/// set of boxes it traverses.
fn all_pair_boxes(net: &Network) -> Vec<(usize, usize, Vec<usize>)> {
    let cs = CircuitState::new(net);
    let mut out = Vec::new();
    for p in 0..net.num_processors() {
        for r in 0..net.num_resources() {
            let path = cs.find_path(p, r).expect("omega is full-access");
            out.push((p, r, boxes_on(net, &path)));
        }
    }
    out
}

/// A liar set is identifiable under the round-robin workload iff every
/// honest box can deliver on some liar-free pair (so it gets exonerated)
/// and every liar is the *sole* liar on at least `FLAG_THRESHOLD` pairs
/// (so attribution reaches the flag threshold on distinct cycles).
fn identifiable(
    pairs: &[(usize, usize, Vec<usize>)],
    num_boxes: usize,
    liars: &BTreeSet<usize>,
) -> bool {
    for b in 0..num_boxes {
        if liars.contains(&b) {
            continue;
        }
        let exonerable = pairs
            .iter()
            .any(|(_, _, bx)| bx.contains(&b) && bx.iter().all(|x| !liars.contains(x)));
        if !exonerable {
            return false;
        }
    }
    liars.iter().all(|l| {
        pairs
            .iter()
            .filter(|(_, _, bx)| bx.contains(l) && bx.iter().all(|x| x == l || !liars.contains(x)))
            .count()
            >= FLAG_THRESHOLD as usize
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every injected misrouting box is flagged within three round-robin
    /// sweeps, and the flagged set never strays outside the liar set.
    #[test]
    fn every_misrouting_box_is_flagged_with_zero_false_positives(
        liar_vec in proptest::collection::vec(0usize..12, 1..=2),
    ) {
        let liar_set: BTreeSet<usize> = liar_vec.into_iter().collect();
        let net = omega(8).unwrap();
        let pairs = all_pair_boxes(&net);
        prop_assume!(identifiable(&pairs, net.num_boxes(), &liar_set));

        let mut cs = CircuitState::new(&net);
        for &l in &liar_set {
            cs.set_byzantine_box(l, true);
        }
        let mut det = ConformanceDetector::new(net.num_boxes());
        let sched = MaxFlowScheduler::default();
        for round in 0..3 {
            for &(p, r, _) in &pairs {
                let problem = ScheduleProblem::homogeneous(&cs, &[p], &[r]);
                let out = sched.schedule(&problem);
                prop_assert_eq!(out.assignments.len(), 1, "pair ({},{}) unroutable", p, r);
                let delivered: Vec<bool> = out
                    .assignments
                    .iter()
                    .map(|a| cs.first_byzantine_on(&a.path).is_none())
                    .collect();
                det.observe(&problem, &out.assignments, &delivered).unwrap();
                // Soundness after every single cycle.
                for b in det.flagged_boxes() {
                    prop_assert!(
                        liar_set.contains(&b),
                        "round {}: honest box {} falsely flagged",
                        round, b
                    );
                }
            }
        }
        let flagged: BTreeSet<usize> = det.flagged_boxes().into_iter().collect();
        prop_assert_eq!(&flagged, &liar_set, "liars not all flagged within 3 sweeps");
    }

    /// Fail-stop-only plans never trip the detector: random box kills are
    /// visible to the scheduler, so whatever it allocates is delivered and
    /// no evidence of lying ever accumulates.
    #[test]
    fn fail_stop_only_plans_produce_no_flags(
        dead_vec in proptest::collection::vec(0usize..12, 0..=3),
    ) {
        let dead: BTreeSet<usize> = dead_vec.into_iter().collect();
        let net = omega(8).unwrap();
        let mut cs = CircuitState::new(&net);
        for &b in &dead {
            cs.fail_box(b);
        }
        let mut det = ConformanceDetector::new(net.num_boxes());
        let sched = MaxFlowScheduler::default();
        for p in 0..net.num_processors() {
            for r in 0..net.num_resources() {
                let problem = ScheduleProblem::homogeneous(&cs, &[p], &[r]);
                let out = sched.schedule(&problem);
                // Fail-stop faults are in the believed topology: every
                // realized assignment arrives.
                let delivered = vec![true; out.assignments.len()];
                let verdict = det.observe(&problem, &out.assignments, &delivered).unwrap();
                prop_assert_eq!(verdict.deficit, 0, "oracle disagrees on visible faults");
                prop_assert!(verdict.newly_flagged.is_empty());
            }
        }
        prop_assert!(det.flagged_boxes().is_empty());
    }
}

/// Detection latency is bounded and small on the canonical single-liar
/// case: with round-robin traffic, a lone liar is flagged during the
/// second sweep (first sweep's failures are attributed once bystanders
/// deliver again; the second distinct failure cycle trips the threshold).
#[test]
fn single_liar_detection_latency_is_bounded() {
    let net = omega(8).unwrap();
    let pairs = all_pair_boxes(&net);
    for liar in 0..net.num_boxes() {
        let mut cs = CircuitState::new(&net);
        cs.set_byzantine_box(liar, true);
        let mut det = ConformanceDetector::new(net.num_boxes());
        let sched = MaxFlowScheduler::default();
        let mut flagged_at = None;
        'outer: for round in 0..2 {
            for (i, &(p, r, _)) in pairs.iter().enumerate() {
                let problem = ScheduleProblem::homogeneous(&cs, &[p], &[r]);
                let out = sched.schedule(&problem);
                let delivered: Vec<bool> = out
                    .assignments
                    .iter()
                    .map(|a| cs.first_byzantine_on(&a.path).is_none())
                    .collect();
                det.observe(&problem, &out.assignments, &delivered).unwrap();
                if det.is_flagged(liar) {
                    flagged_at = Some(round * pairs.len() + i);
                    break 'outer;
                }
            }
        }
        let cycle = flagged_at.unwrap_or_else(|| panic!("liar {liar} never flagged"));
        assert!(
            cycle < 2 * pairs.len(),
            "liar {liar} took {cycle} cycles (> two sweeps)"
        );
        assert_eq!(det.flagged_boxes(), vec![liar]);
    }
}
