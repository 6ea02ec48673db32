//! Property tests for the zero-rebuild scheduling path: a `ScheduleScratch`
//! reconfigured across a random sequence of snapshots must always agree
//! with a fresh build-transform-solve on allocation count, total cost, and
//! mapping validity. (Assignment vectors may legitimately differ: the
//! superset graph enumerates arcs in a different order, so the solver may
//! pick a different — equally optimal — mapping.)

use proptest::prelude::*;
use rsin_core::mapping::verify;
use rsin_core::model::ScheduleProblem;
use rsin_core::scheduler::{MaxFlowScheduler, MinCostScheduler, ScheduleScratch, Scheduler};
use rsin_topology::builders::{baseline, generalized_cube, omega};
use rsin_topology::{CircuitState, Network};

fn network(which: usize) -> Network {
    match which % 3 {
        0 => omega(8).unwrap(),
        1 => generalized_cube(8).unwrap(),
        _ => baseline(8).unwrap(),
    }
}

/// One random snapshot: pre-established circuits plus requester/free masks.
#[derive(Debug, Clone)]
struct Snapshot {
    circuits: Vec<(usize, usize)>,
    requesting: Vec<usize>,
    free: Vec<usize>,
}

fn snapshot_strategy() -> impl Strategy<Value = Snapshot> {
    (
        proptest::collection::vec((0usize..8, 0usize..8), 0..4),
        0u8..255,
        0u8..255,
    )
        .prop_map(|(circuits, req_mask, free_mask)| Snapshot {
            circuits,
            requesting: (0..8).filter(|p| (req_mask >> p) & 1 == 1).collect(),
            free: (0..8).filter(|r| (free_mask >> r) & 1 == 1).collect(),
        })
}

/// Establish the snapshot's circuits (skipping any that no longer fit) and
/// return the circuit state the scheduling cycle sees.
fn circuit_state<'n>(net: &'n Network, snap: &Snapshot) -> CircuitState<'n> {
    let mut cs = CircuitState::new(net);
    for &(p, r) in &snap.circuits {
        let _ = cs.connect(p, r);
    }
    cs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Max-flow scheduling: scratch reuse across a random snapshot sequence
    /// preserves the optimum of every individual Dinic solve. Sharing one
    /// `SolveScratch` across solvers is covered by rsin-flow's
    /// `scratch_grows_and_is_reused_across_networks` (Dinic then SSP).
    #[test]
    fn reusable_max_flow_matches_fresh_solve(
        which in 0usize..3,
        snaps in proptest::collection::vec(snapshot_strategy(), 1..5),
    ) {
        let net = network(which);
        let scheduler = MaxFlowScheduler::new(rsin_flow::max_flow::Algorithm::Dinic);
        let mut scratch = ScheduleScratch::new();
        for snap in &snaps {
            let cs = circuit_state(&net, snap);
            let problem = ScheduleProblem::homogeneous(&cs, &snap.requesting, &snap.free);
            let fresh = scheduler.try_schedule(&problem).unwrap();
            let reused = scheduler.try_schedule_reusing(&problem, &mut scratch).unwrap();
            prop_assert_eq!(reused.allocated(), fresh.allocated());
            prop_assert_eq!(
                reused.assignments.len() + reused.blocked.len(),
                problem.requests.len()
            );
            prop_assert!(verify(&reused.assignments, &problem).is_ok());
        }
    }

    /// Min-cost scheduling with random priorities/preferences: scratch reuse
    /// preserves both the cardinality and the optimal total cost.
    #[test]
    fn reusable_min_cost_matches_fresh_solve(
        which in 0usize..3,
        snaps in proptest::collection::vec(
            (
                snapshot_strategy(),
                proptest::collection::vec(1u32..10, 8),
                proptest::collection::vec(1u32..10, 8),
            ),
            1..4,
        ),
    ) {
        let net = network(which);
        let scheduler = MinCostScheduler::default();
        let mut scratch = ScheduleScratch::new();
        for (snap, prios, prefs) in &snaps {
            let cs = circuit_state(&net, snap);
            let requesting: Vec<(usize, u32)> =
                snap.requesting.iter().map(|&p| (p, prios[p])).collect();
            let free: Vec<(usize, u32)> =
                snap.free.iter().map(|&r| (r, prefs[r])).collect();
            let problem = ScheduleProblem::with_priorities(&cs, &requesting, &free);
            let fresh = scheduler.try_schedule(&problem).unwrap();
            let reused = scheduler.try_schedule_reusing(&problem, &mut scratch).unwrap();
            prop_assert_eq!(reused.allocated(), fresh.allocated());
            prop_assert_eq!(reused.total_cost, fresh.total_cost);
            prop_assert!(verify(&reused.assignments, &problem).is_ok());
        }
    }

    /// Fault/repair toggles are incremental capacity patches: driving one
    /// scratch through an arbitrary link/box toggle sequence on a fixed
    /// topology yields the same allocation count and optimal cost as a
    /// fresh build-transform-solve of each faulted topology — and after the
    /// initial build, no toggle ever triggers a rebuild.
    #[test]
    fn fault_toggles_match_fresh_rebuild(
        which in 0usize..3,
        snap in snapshot_strategy(),
        toggles in proptest::collection::vec(
            (0u32..1_000_000, any::<bool>(), any::<bool>()),
            1..10,
        ),
    ) {
        let net = network(which);
        let mf = MaxFlowScheduler::default();
        let mc = MinCostScheduler::default();
        let mut scratch = ScheduleScratch::new();
        let mut cs = circuit_state(&net, &snap);
        // Warm the scratch on the fault-free topology.
        {
            let problem = ScheduleProblem::homogeneous(&cs, &snap.requesting, &snap.free);
            mf.try_schedule_reusing(&problem, &mut scratch).unwrap();
            mc.try_schedule_reusing(&problem, &mut scratch).unwrap();
        }
        let builds = scratch.rebuilds();
        prop_assert_eq!(builds, 2); // one per transformation shape
        for &(raw, is_box, fail) in &toggles {
            match (is_box, fail) {
                (false, true) => cs.fail_link(rsin_topology::LinkId(raw % net.num_links() as u32)),
                (false, false) => cs.repair_link(rsin_topology::LinkId(raw % net.num_links() as u32)),
                (true, true) => cs.fail_box(raw as usize % net.num_boxes()),
                (true, false) => cs.repair_box(raw as usize % net.num_boxes()),
            }
            let problem = ScheduleProblem::homogeneous(&cs, &snap.requesting, &snap.free);
            let fresh = mf.try_schedule(&problem).unwrap();
            let reused = mf.try_schedule_reusing(&problem, &mut scratch).unwrap();
            prop_assert_eq!(reused.allocated(), fresh.allocated());
            prop_assert!(verify(&reused.assignments, &problem).is_ok());
            let fresh = mc.try_schedule(&problem).unwrap();
            let reused = mc.try_schedule_reusing(&problem, &mut scratch).unwrap();
            prop_assert_eq!(reused.allocated(), fresh.allocated());
            prop_assert_eq!(reused.total_cost, fresh.total_cost);
            prop_assert!(verify(&reused.assignments, &problem).is_ok());
            prop_assert_eq!(
                scratch.rebuilds(), builds,
                "fault toggles must patch capacities, never rebuild"
            );
        }
    }

    /// Correlated-domain events ride the same incremental patch path:
    /// driving one scratch through an arbitrary *interleaved* sequence of
    /// whole-domain and individual link/box fail/repair events (via
    /// `FaultPlan::apply_event`, the production path) matches a fresh
    /// build-transform-solve after every event, with the rebuild count
    /// pinned at the warm-up value — each transformation shape is built
    /// exactly once and no domain toggle ever adds one.
    #[test]
    fn correlated_domain_toggles_match_fresh_rebuild(
        which in 0usize..3,
        snap in snapshot_strategy(),
        toggles in proptest::collection::vec(
            (0u32..1_000_000, 0u8..3, any::<bool>()),
            1..10,
        ),
    ) {
        use rsin_topology::fault::{FaultAction, FaultDomain, FaultEvent, FaultPlan, FaultTarget};
        let net = network(which);
        let domains = FaultDomain::stage_power_domains(&net, 2);
        prop_assume!(!domains.is_empty());
        let events: Vec<FaultEvent> = toggles
            .iter()
            .enumerate()
            .map(|(i, &(raw, kind, fail))| FaultEvent {
                time: i as f64,
                target: match kind {
                    0 => FaultTarget::Domain(raw as usize % domains.len()),
                    1 => FaultTarget::Link(rsin_topology::LinkId(raw % net.num_links() as u32)),
                    _ => FaultTarget::Box(raw as usize % net.num_boxes()),
                },
                action: if fail { FaultAction::Fail } else { FaultAction::Repair },
            })
            .collect();
        let plan = FaultPlan::with_domains(&net, domains, events).unwrap();
        let mf = MaxFlowScheduler::default();
        let mc = MinCostScheduler::default();
        let mut scratch = ScheduleScratch::new();
        let mut cs = circuit_state(&net, &snap);
        // Warm the scratch on the fault-free topology.
        {
            let problem = ScheduleProblem::homogeneous(&cs, &snap.requesting, &snap.free);
            mf.try_schedule_reusing(&problem, &mut scratch).unwrap();
            mc.try_schedule_reusing(&problem, &mut scratch).unwrap();
        }
        let builds = scratch.rebuilds();
        prop_assert_eq!(builds, 2); // one per transformation shape
        for i in 0..plan.len() {
            plan.apply_event(i, &mut cs);
            let problem = ScheduleProblem::homogeneous(&cs, &snap.requesting, &snap.free);
            let fresh = mf.try_schedule(&problem).unwrap();
            let reused = mf.try_schedule_reusing(&problem, &mut scratch).unwrap();
            prop_assert_eq!(reused.allocated(), fresh.allocated());
            prop_assert!(verify(&reused.assignments, &problem).is_ok());
            let fresh = mc.try_schedule(&problem).unwrap();
            let reused = mc.try_schedule_reusing(&problem, &mut scratch).unwrap();
            prop_assert_eq!(reused.allocated(), fresh.allocated());
            prop_assert_eq!(reused.total_cost, fresh.total_cost);
            prop_assert!(verify(&reused.assignments, &problem).is_ok());
            prop_assert_eq!(
                scratch.rebuilds(), builds,
                "domain toggles must patch capacities, never rebuild"
            );
        }
    }

    /// A plan's domain events are *semantically equal* to their expansion:
    /// applying a random mixed plan (domain, link, box, and Byzantine
    /// events) and applying `plan.expanded()` — the same history rewritten
    /// as plain member toggles — leave bit-identical circuit states: the
    /// same per-link fault flags and the same per-box Byzantine flags.
    #[test]
    fn domain_events_equal_expanded_member_toggles(
        which in 0usize..3,
        toggles in proptest::collection::vec(
            (0u32..1_000_000, 0u8..4, any::<bool>()),
            1..12,
        ),
    ) {
        use rsin_topology::fault::{FaultAction, FaultDomain, FaultEvent, FaultPlan, FaultTarget};
        let net = network(which);
        let domains = FaultDomain::stage_power_domains(&net, 2);
        prop_assume!(!domains.is_empty());
        let events: Vec<FaultEvent> = toggles
            .iter()
            .enumerate()
            .map(|(i, &(raw, kind, fail))| FaultEvent {
                time: i as f64,
                target: match kind {
                    0 => FaultTarget::Domain(raw as usize % domains.len()),
                    1 => FaultTarget::Link(rsin_topology::LinkId(raw % net.num_links() as u32)),
                    2 => FaultTarget::Box(raw as usize % net.num_boxes()),
                    _ => FaultTarget::ByzantineBox(raw as usize % net.num_boxes()),
                },
                action: if fail { FaultAction::Fail } else { FaultAction::Repair },
            })
            .collect();
        let plan = FaultPlan::with_domains(&net, domains, events).unwrap();
        let expanded = plan.expanded();
        prop_assert!(expanded.domains().is_empty());
        let mut via_domains = CircuitState::new(&net);
        let mut via_members = CircuitState::new(&net);
        prop_assert_eq!(plan.apply_until(f64::INFINITY, &mut via_domains), plan.len());
        expanded.apply_until(f64::INFINITY, &mut via_members);
        for l in 0..net.num_links() {
            let l = rsin_topology::LinkId(l as u32);
            prop_assert_eq!(
                via_domains.is_faulty(l), via_members.is_faulty(l),
                "link {:?} fault state diverges", l
            );
        }
        for b in 0..net.num_boxes() {
            prop_assert_eq!(
                via_domains.is_byzantine_box(b), via_members.is_byzantine_box(b),
                "box {} byzantine state diverges", b
            );
        }
        prop_assert_eq!(via_domains.faulty_count(), via_members.faulty_count());
    }

    /// The priced degraded-mode optimality oracle: for min-cost schedulers,
    /// the merged outcome of `try_schedule_degraded_priced` on a faulted
    /// topology is *bit-identical in total cost* (and allocation count) to a
    /// fresh Transformation-2 solve on that same faulted topology — the
    /// incremental primary-plus-residual recovery loses no optimality — for
    /// both min-cost algorithms, across random topologies, random
    /// priorities/preferences, and random fault toggle sequences, with the
    /// transform rebuilt exactly once per scratch for the whole sequence.
    #[test]
    fn priced_degraded_matches_fresh_min_cost_solve(
        which in 0usize..3,
        snap in snapshot_strategy(),
        prios in proptest::collection::vec(1u32..10, 8),
        prefs in proptest::collection::vec(1u32..10, 8),
        toggles in proptest::collection::vec(
            (0u32..1_000_000, any::<bool>(), any::<bool>()),
            1..8,
        ),
    ) {
        let net = network(which);
        let requesting: Vec<(usize, u32)> =
            snap.requesting.iter().map(|&p| (p, prios[p])).collect();
        let free: Vec<(usize, u32)> = snap.free.iter().map(|&r| (r, prefs[r])).collect();
        for algo in rsin_flow::min_cost::Algorithm::ALL {
            let scheduler = MinCostScheduler::new(algo);
            let mut scratch = ScheduleScratch::new();
            let mut cs = circuit_state(&net, &snap);
            // Warm the scratch on the fault-free topology.
            {
                let problem = ScheduleProblem::with_priorities(&cs, &requesting, &free);
                scheduler.try_schedule_reusing(&problem, &mut scratch).unwrap();
            }
            prop_assert_eq!(scratch.rebuilds(), 1, "{:?}", algo);
            for &(raw, is_box, fail) in &toggles {
                match (is_box, fail) {
                    (false, true) =>
                        cs.fail_link(rsin_topology::LinkId(raw % net.num_links() as u32)),
                    (false, false) =>
                        cs.repair_link(rsin_topology::LinkId(raw % net.num_links() as u32)),
                    (true, true) => cs.fail_box(raw as usize % net.num_boxes()),
                    (true, false) => cs.repair_box(raw as usize % net.num_boxes()),
                }
                let problem = ScheduleProblem::with_priorities(&cs, &requesting, &free);
                let fresh = scheduler.try_schedule(&problem).unwrap();
                let priced = scheduler
                    .try_schedule_degraded_priced(&problem, &mut scratch)
                    .unwrap();
                prop_assert_eq!(
                    priced.outcome.total_cost, fresh.total_cost,
                    "{:?}: priced-degraded cost must equal the fresh solve", algo
                );
                prop_assert_eq!(priced.outcome.allocated(), fresh.allocated(), "{:?}", algo);
                prop_assert!(verify(&priced.outcome.assignments, &problem).is_ok());
                prop_assert_eq!(
                    priced.outcome.allocated() + priced.shed,
                    problem.requests.len(),
                    "{:?}: every request allocated or shed", algo
                );
                prop_assert!(priced.recovery_cost >= 0, "{:?}", algo);
                prop_assert_eq!(
                    scratch.rebuilds(), 1,
                    "{:?}: fault toggles and residual solves must never rebuild", algo
                );
            }
        }
    }

    /// Probe equivalence: attaching any probe — the no-op ZST, a live
    /// `Telemetry` sink, or a live `FlightRecorder` — to the observed
    /// scheduling path never changes the outcome. Probes only watch;
    /// allocation count, total cost, and mapping validity are identical to
    /// the plain reusable solve on the same scratch-warming sequence.
    #[test]
    fn probes_never_change_schedule_outcomes(
        which in 0usize..3,
        snaps in proptest::collection::vec(snapshot_strategy(), 1..5),
    ) {
        let net = network(which);
        let telemetry = rsin_obs::Telemetry::new();
        let recorder = rsin_obs::FlightRecorder::new(1 << 10);
        let mf = MaxFlowScheduler::default();
        let mc = MinCostScheduler::default();
        let schedulers: [&dyn Scheduler; 2] = [&mf, &mc];
        for scheduler in schedulers {
            let mut plain = ScheduleScratch::new();
            let mut noop = ScheduleScratch::new();
            let mut live = ScheduleScratch::new();
            let mut recorded = ScheduleScratch::new();
            for snap in &snaps {
                let cs = circuit_state(&net, snap);
                let problem = ScheduleProblem::homogeneous(&cs, &snap.requesting, &snap.free);
                let base = scheduler.try_schedule_reusing(&problem, &mut plain).unwrap();
                let with_noop = scheduler
                    .try_schedule_observed(&problem, &mut noop, &rsin_obs::NoopProbe)
                    .unwrap();
                let with_live = scheduler
                    .try_schedule_observed(&problem, &mut live, &telemetry)
                    .unwrap();
                let with_recorder = scheduler
                    .try_schedule_observed(&problem, &mut recorded, &recorder)
                    .unwrap();
                for observed in [&with_noop, &with_live, &with_recorder] {
                    prop_assert_eq!(observed.allocated(), base.allocated());
                    prop_assert_eq!(observed.total_cost, base.total_cost);
                    prop_assert!(verify(&observed.assignments, &problem).is_ok());
                }
            }
        }
    }

    /// One scratch driven across *different topologies* mid-sequence must
    /// transparently rebuild and still match fresh solves.
    #[test]
    fn scratch_survives_topology_changes(
        snaps in proptest::collection::vec((0usize..3, snapshot_strategy()), 2..6),
    ) {
        let nets: Vec<Network> = (0..3).map(network).collect();
        let scheduler = MaxFlowScheduler::default();
        let mut scratch = ScheduleScratch::new();
        for (which, snap) in &snaps {
            let net = &nets[*which];
            let cs = circuit_state(net, snap);
            let problem = ScheduleProblem::homogeneous(&cs, &snap.requesting, &snap.free);
            let fresh = scheduler.try_schedule(&problem).unwrap();
            let reused = scheduler.try_schedule_reusing(&problem, &mut scratch).unwrap();
            prop_assert_eq!(reused.allocated(), fresh.allocated());
            prop_assert!(verify(&reused.assignments, &problem).is_ok());
        }
    }
}
