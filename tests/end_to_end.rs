//! End-to-end pipelines across all crates: build a topology, take a
//! snapshot, schedule, establish the circuits, release them, and repeat —
//! the life of an RSIN, exercised through the public API only.

use rsin_core::mapping::{apply, verify};
use rsin_core::model::ScheduleProblem;
use rsin_core::scheduler::{
    GreedyScheduler, MaxFlowScheduler, MinCostScheduler, MultiCommodityScheduler, Scheduler,
};
use rsin_distrib::engine::DistributedScheduler;
use rsin_integration::snapshot;
use rsin_sim::system::{DynamicConfig, SystemSim};
use rsin_topology::builders::{benes, clos, delta, gamma, omega};
use rsin_topology::CircuitState;

#[test]
fn schedule_apply_release_repeat() {
    let net = omega(8).unwrap();
    let mut cs = CircuitState::new(&net);
    // Cycle 1: four requests.
    let problem = ScheduleProblem::homogeneous(&cs, &[0, 1, 2, 3], &[4, 5, 6, 7]);
    let out = MaxFlowScheduler::default().schedule(&problem);
    assert_eq!(out.allocated(), 4);
    let assignments = out.assignments.clone();
    drop(problem);
    let circuits = apply(&assignments, &mut cs).unwrap();
    assert_eq!(cs.occupied_count(), 16);
    // Cycle 2: the other processors request the now-busy side's complements.
    let problem2 = ScheduleProblem::homogeneous(&cs, &[4, 5, 6, 7], &[0, 1, 2, 3]);
    let out2 = MaxFlowScheduler::default().schedule(&problem2);
    verify(&out2.assignments, &problem2).unwrap();
    drop(problem2);
    // Release cycle 1; everything frees up.
    for c in circuits {
        cs.release(c).unwrap();
    }
    assert_eq!(cs.occupied_count(), 0);
}

#[test]
fn every_scheduler_survives_every_topology() {
    let nets = vec![
        omega(8).unwrap(),
        benes(8).unwrap(),
        gamma(8).unwrap(),
        delta(3, 2).unwrap(),
        clos(3, 2, 3).unwrap(),
    ];
    let schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(MaxFlowScheduler::default()),
        Box::new(MinCostScheduler::default()),
        Box::new(MultiCommodityScheduler::default()),
        Box::new(GreedyScheduler::default()),
        Box::new(DistributedScheduler),
    ];
    for net in &nets {
        for trial in 0..5 {
            let snap = snapshot(net, 99, trial, 4, 1);
            let problem =
                ScheduleProblem::homogeneous(&snap.circuits, &snap.requesting, &snap.free);
            for s in &schedulers {
                let out = s.schedule(&problem);
                verify(&out.assignments, &problem)
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", s.name(), net.name()));
            }
        }
    }
}

#[test]
fn optimal_dominates_greedy_on_allocation_count() {
    let net = omega(8).unwrap();
    for trial in 0..60 {
        let snap = snapshot(&net, 7, trial, 5, 1);
        let problem = ScheduleProblem::homogeneous(&snap.circuits, &snap.requesting, &snap.free);
        let opt = MaxFlowScheduler::default().schedule(&problem).allocated();
        let heu = GreedyScheduler::default().schedule(&problem).allocated();
        assert!(opt >= heu, "trial {trial}: optimal {opt} < greedy {heu}");
    }
}

#[test]
fn dynamic_simulation_full_stack() {
    let net = benes(8).unwrap();
    let cfg = DynamicConfig {
        arrival_rate: 0.4,
        mean_transmission: 0.1,
        mean_service: 0.8,
        sim_time: 400.0,
        warmup: 40.0,
        seed: 3,
        types: 1,
        priority_levels: 1,
        ..DynamicConfig::default()
    };
    let stats = SystemSim::new(&net, cfg)
        .run(&MaxFlowScheduler::default())
        .unwrap();
    assert!(stats.completed > 200);
    assert!(stats.utilization > 0.1 && stats.utilization <= 1.0);
    assert!(
        stats.mean_response >= 0.8 * 0.5,
        "response at least ~service time scale"
    );
    // On a rearrangeable Benes with optimal scheduling, per-cycle blocking
    // should be negligible.
    assert!(
        stats.mean_blocking < 0.05,
        "blocking {}",
        stats.mean_blocking
    );
}

#[test]
fn distributed_engine_in_dynamic_loop() {
    // The token engine can drive the dynamic simulation end to end.
    let net = omega(8).unwrap();
    let cfg = DynamicConfig {
        sim_time: 200.0,
        warmup: 20.0,
        ..DynamicConfig::default()
    };
    let stats = SystemSim::new(&net, cfg)
        .run(&DistributedScheduler)
        .unwrap();
    let reference = SystemSim::new(&net, cfg)
        .run(&MaxFlowScheduler::default())
        .unwrap();
    // Both are optimal per cycle with the same arrival stream; identical
    // allocation *counts* per cycle, possibly different pairings, so allow
    // small drift in downstream statistics.
    assert_eq!(stats.cycles, reference.cycles);
    assert!((stats.utilization - reference.utilization).abs() < 0.05);
}
