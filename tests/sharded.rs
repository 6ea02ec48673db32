//! Sharded hierarchical conformance (proptest).
//!
//! Two contracts over the MRSIN-of-MRSINs composition (DESIGN.md §12):
//!
//! * **Oracle conformance** — on any small composable topology and any
//!   request/free snapshot, the two-stage hierarchical cycle never
//!   allocates more than the flat Theorem-2 fresh solve on the flattened
//!   fabric, every shard's transformation graph builds exactly once, and in
//!   aggregate the hierarchical allocation count stays above a configurable
//!   fraction of the flat oracle's (`RSIN_SHARD_CONFORMANCE_FRAC`,
//!   default 0.75).
//! * **Placement consistency** — in a streaming [`ShardedSession`], every
//!   admission (home or cross-shard) lands on a shard with genuinely free
//!   capacity, no two origins ever share a seat, and the shard-local
//!   occupancy view never disagrees with the session's global accounting,
//!   for arbitrary arrival/release interleavings.

use proptest::prelude::*;
use rsin_core::model::ScheduleProblem;
use rsin_core::scheduler::{
    HierarchicalScheduler, InterShardPolicy, MaxFlowScheduler, ScheduleScratch, Scheduler,
    StreamDecision,
};
use rsin_sim::sharded::{run_paired_trials, ShardedSession, ShardedTrialConfig};
use rsin_topology::{CircuitState, GlobalTopology, ShardedNetwork, ShardedSpec};
use std::collections::HashSet;

/// The aggregate conformance floor: hierarchical allocations must reach at
/// least this fraction of the flat oracle's. Overridable so CI can tighten
/// (or a bisection can loosen) the pin without a code change.
fn conformance_fraction() -> f64 {
    std::env::var("RSIN_SHARD_CONFORMANCE_FRAC")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.75)
}

/// Small composable topologies: 2–4 shards of omega-4/omega-8 locals. The
/// omega global needs a power-of-two port count, so it only pairs with
/// shard counts whose uplink total stays a power of two.
const SPECS: [(usize, usize, GlobalTopology); 8] = [
    (2, 4, GlobalTopology::Crossbar),
    (3, 4, GlobalTopology::Crossbar),
    (4, 4, GlobalTopology::Crossbar),
    (2, 8, GlobalTopology::Crossbar),
    (3, 8, GlobalTopology::Crossbar),
    (4, 8, GlobalTopology::Crossbar),
    (2, 8, GlobalTopology::Omega),
    (4, 8, GlobalTopology::Omega),
];

fn arb_spec() -> impl Strategy<Value = ShardedSpec> {
    (0usize..SPECS.len()).prop_map(|i| {
        let (shards, local, global) = SPECS[i];
        ShardedSpec::new(shards, local, global)
    })
}

/// A sorted, deduplicated set of global ports drawn from `0..total`.
fn arb_ports(total: usize) -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0..total, 0..=total).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

/// A spec plus arbitrary request and free sets over its global ports.
fn arb_case() -> impl Strategy<Value = (ShardedSpec, Vec<usize>, Vec<usize>)> {
    arb_spec().prop_flat_map(|spec| {
        let total = spec.total_ports();
        (Just(spec), arb_ports(total), arb_ports(total))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Per-snapshot oracle conformance: the hierarchical outcome is a valid
    /// partial matching of the snapshot, never beats the flat fresh solve,
    /// and solves every shard on exactly one transformation-graph build.
    #[test]
    fn hierarchical_stays_within_the_flat_oracle(
        (spec, requests, free) in arb_case(),
    ) {
        let net = ShardedNetwork::new(spec).expect("arb specs are well-formed");
        let flat = net.flatten().expect("compositions flatten");
        let h = HierarchicalScheduler::new(&net, InterShardPolicy::TokenRing);
        let out = h.schedule(&requests, &free).expect("cycle solves");
        prop_assert_eq!(h.rebuilds_per_shard(), vec![1; net.shards()]);
        // The outcome is a matching: each processor from the request set,
        // each resource from the free set, nothing doubly assigned.
        let mut procs = HashSet::new();
        let mut ress = HashSet::new();
        for a in &out.assignments {
            prop_assert!(requests.contains(&a.processor));
            prop_assert!(free.contains(&a.resource));
            prop_assert!(procs.insert(a.processor), "processor assigned twice");
            prop_assert!(ress.insert(a.resource), "resource assigned twice");
        }
        prop_assert_eq!(out.allocated() + out.blocked, requests.len());
        // Flat Theorem-2 oracle on the same snapshot over the flattened
        // fabric: the hierarchical cycle can never allocate more, because
        // every hierarchical allocation set is simultaneously realizable in
        // the flat network (home circuits through the local fabric, remote
        // ones through splitter → uplink → global → downlink → merger).
        let cs = CircuitState::new(&flat);
        let problem = ScheduleProblem::homogeneous(&cs, &requests, &free);
        let mut scratch = ScheduleScratch::new();
        let flat_out = MaxFlowScheduler::default().schedule_reusing(&problem, &mut scratch);
        prop_assert!(
            out.allocated() <= flat_out.allocated(),
            "hierarchical allocated {} on {}, above the flat oracle's {}",
            out.allocated(), net.name(), flat_out.allocated()
        );
    }
}

/// Aggregate conformance floor: across a deterministic trial batch on each
/// small composition, hierarchical allocations reach at least
/// [`conformance_fraction`] of the flat oracle's total (and never exceed it
/// per trial).
#[test]
fn hierarchical_keeps_the_aggregate_conformance_fraction() {
    let frac = conformance_fraction();
    for (shards, local, global) in [
        (2, 8, GlobalTopology::Crossbar),
        (3, 4, GlobalTopology::Crossbar),
        (4, 8, GlobalTopology::Omega),
    ] {
        let net = ShardedNetwork::new(ShardedSpec::new(shards, local, global)).unwrap();
        let flat = net.flatten().unwrap();
        let half = net.num_ports() / 2;
        let cfg = ShardedTrialConfig {
            trials: 64,
            requests: half,
            free: half,
            seed: 23,
        };
        for policy in [InterShardPolicy::TokenRing, InterShardPolicy::MinCost] {
            let pairs = run_paired_trials(&net, &flat, policy, &cfg, 2).unwrap();
            let (hier, flat_sum) = pairs
                .iter()
                .fold((0usize, 0usize), |(h, f), &(ph, pf)| (h + ph, f + pf));
            assert!(
                pairs.iter().all(|&(ph, pf)| ph <= pf),
                "{}: a trial beat the flat oracle",
                net.name()
            );
            assert!(
                hier as f64 >= frac * flat_sum as f64,
                "{} ({}): hierarchical total {hier} below {frac} of flat total {flat_sum}",
                net.name(),
                policy.name(),
            );
        }
    }
}

/// Flattened-fabric scale across the sweep's shard counts (the numbers
/// documented in EXPERIMENTS.md): box-port totals grow linearly with the
/// shard count, into the thousands at the 16-shard acceptance scale.
#[test]
fn flattened_scale_grows_with_shards() {
    for shards in [2usize, 4, 8, 16] {
        let net = ShardedNetwork::new(ShardedSpec::new(shards, 16, GlobalTopology::Omega)).unwrap();
        let flat = net.flatten().unwrap();
        assert_eq!(flat.num_processors(), shards * 16);
        let box_ports: usize = (0..flat.num_boxes())
            .map(|b| {
                let s = flat.box_spec(b);
                s.inputs + s.outputs
            })
            .sum();
        println!(
            "shards {shards}: processors {}, box ports {box_ports}",
            flat.num_processors()
        );
        // Each shard contributes a fixed complement (splitters, uplink,
        // local omega-16, downlink, mergers); the global omega adds the
        // rest.
        assert!(box_ports >= shards * 264, "only {box_ports} box ports");
    }
}

/// Replay a toggle script through a [`ShardedSession`], checking the
/// placement-consistency contract after every event.
fn check_session(
    net: &ShardedNetwork,
    policy: InterShardPolicy,
    script: &[usize],
) -> Result<(), TestCaseError> {
    let total = net.num_ports();
    let local = net.spec().local_ports;
    let mut session = ShardedSession::new(
        net,
        policy,
        rsin_core::scheduler::IncrementalBackend::MaxFlow,
    );
    let mut active = vec![false; total];
    for &origin in script {
        let origin = origin % total;
        // Occupancy before the event, per shard, from the session's own
        // seat map — the admission contract is judged against this view.
        let occupancy_before = |s: usize| -> usize {
            (0..total)
                .filter(|&o| session.origin_seat(o).is_some_and(|(sh, _, _)| sh == s))
                .count()
        };
        let before: Vec<usize> = (0..net.shards()).map(occupancy_before).collect();
        if active[origin] {
            active[origin] = false;
            session.release(origin).expect("valid release");
        } else {
            active[origin] = true;
            let decision = session.request(origin).expect("valid request");
            if let StreamDecision::Allocated { processor, .. } = decision {
                prop_assert_eq!(processor, origin);
                let (shard, _, remote) = session.origin_seat(origin).expect("seated");
                // Stage-1 contract: the admission landed on a shard that
                // genuinely had free capacity, and went remote only
                // because the home shard genuinely had none.
                prop_assert!(
                    before[shard] < local,
                    "origin {} seated on full shard {}",
                    origin,
                    shard
                );
                if remote {
                    prop_assert_eq!(
                        before[origin / local],
                        local,
                        "origin {} went remote although its home shard had capacity",
                        origin
                    );
                }
            }
        }
        // Global/local consistency after every event: seats are unique,
        // within bounds, counted identically by the per-shard schedulers
        // and the session accounting, and only active origins hold them.
        let seats: Vec<(usize, usize, usize, bool)> = (0..total)
            .filter_map(|o| session.origin_seat(o).map(|(s, p, r)| (o, s, p, r)))
            .collect();
        let mut used = HashSet::new();
        for &(o, s, p, _) in &seats {
            prop_assert!(p < local);
            prop_assert!(used.insert((s, p)), "seat ({s}, {p}) double-booked");
            prop_assert!(active[o], "idle origin {o} holds a seat");
        }
        for s in 0..net.shards() {
            prop_assert!(seats.iter().filter(|t| t.1 == s).count() <= local);
        }
        prop_assert_eq!(seats.len(), session.allocated_count());
        prop_assert_eq!(
            seats.iter().filter(|t| t.3).count(),
            session.remote_active()
        );
        prop_assert_eq!(session.remote_active(), session.global_circuits());
        prop_assert_eq!(
            session.allocated_count() + session.queued_count(),
            active.iter().filter(|&&a| a).count()
        );
    }
    prop_assert_eq!(session.rebuilds_per_shard(), vec![1; net.shards()]);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// 4 shards under a global crossbar, both inter-shard policies.
    #[test]
    fn session_occupancy_stays_consistent_on_crossbar(
        script in proptest::collection::vec(0usize..32, 1..120)
    ) {
        let net = ShardedNetwork::new(ShardedSpec::new(4, 8, GlobalTopology::Crossbar)).unwrap();
        check_session(&net, InterShardPolicy::TokenRing, &script)?;
        check_session(&net, InterShardPolicy::MinCost, &script)?;
    }

    /// 2 shards under a global omega, both inter-shard policies.
    #[test]
    fn session_occupancy_stays_consistent_on_omega(
        script in proptest::collection::vec(0usize..16, 1..120)
    ) {
        let net = ShardedNetwork::new(ShardedSpec::new(2, 8, GlobalTopology::Omega)).unwrap();
        check_session(&net, InterShardPolicy::TokenRing, &script)?;
        check_session(&net, InterShardPolicy::MinCost, &script)?;
    }
}
