//! Bench: the simulation hot path — per-cycle transformation rebuild vs
//! superset reset, and single- vs multi-threaded Monte-Carlo batches.
//!
//! Two claims are measured on an Omega-16 blocking sweep:
//!
//! 1. `reset_per_trial` (a `ScheduleScratch` retuned per snapshot) beats
//!    `rebuild_per_trial` (a fresh transformation graph per snapshot) for
//!    both the max-flow and the min-cost scheduler;
//! 2. `run_blocking_threads` with N workers beats 1 worker on the same
//!    batch while producing bit-identical statistics (asserted here, not
//!    just in the unit tests).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rsin_core::model::ScheduleProblem;
use rsin_core::scheduler::{MaxFlowScheduler, MinCostScheduler, ScheduleScratch, Scheduler};
use rsin_sim::blocking::{run_blocking_threads, BlockingConfig};
use rsin_sim::workload::{random_snapshot, trial_rng};
use rsin_topology::builders::omega;
use rsin_topology::Network;
use std::hint::black_box;

const TRIALS: u64 = 64;

/// Sum of allocations over a fixed trial batch, scheduling each snapshot
/// through `schedule` (rebuild) or `schedule_reusing` (reset).
fn batch(net: &Network, scheduler: &dyn Scheduler, scratch: Option<&mut ScheduleScratch>) -> usize {
    let mut total = 0;
    let mut scratch = scratch;
    for trial in 0..TRIALS {
        let mut rng = trial_rng(41, trial);
        let snap = random_snapshot(net, 8, 8, 2, &mut rng);
        let problem = ScheduleProblem::homogeneous(&snap.circuits, &snap.requesting, &snap.free);
        total += match scratch.as_deref_mut() {
            Some(s) => scheduler.schedule_reusing(&problem, s).allocated(),
            None => scheduler.schedule(&problem).allocated(),
        };
    }
    total
}

fn bench_rebuild_vs_reset(c: &mut Criterion) {
    let net = omega(16).unwrap();
    let mut group = c.benchmark_group("transform_hot_path_omega16");
    let schedulers: Vec<(&str, &dyn Scheduler)> = vec![
        (
            "max_flow",
            &MaxFlowScheduler {
                algorithm: rsin_flow::max_flow::Algorithm::Dinic,
            },
        ),
        (
            "min_cost",
            &MinCostScheduler {
                algorithm: rsin_flow::min_cost::Algorithm::SuccessiveShortestPaths,
            },
        ),
    ];
    for (name, s) in &schedulers {
        group.bench_with_input(BenchmarkId::new("rebuild_per_trial", name), s, |b, s| {
            b.iter(|| black_box(batch(&net, *s, None)))
        });
        group.bench_with_input(BenchmarkId::new("reset_per_trial", name), s, |b, s| {
            let mut scratch = ScheduleScratch::new();
            b.iter(|| black_box(batch(&net, *s, Some(&mut scratch))))
        });
    }
    group.finish();
}

fn bench_threaded_blocking(c: &mut Criterion) {
    let net = omega(16).unwrap();
    let cfg = BlockingConfig {
        trials: 1024,
        requests: 8,
        resources: 8,
        occupied_circuits: 2,
        seed: 41,
    };
    let scheduler = MaxFlowScheduler::default();
    // The determinism contract, checked on the bench workload itself.
    let one = run_blocking_threads(&net, &scheduler, &cfg, 1).expect("blocking batch");
    let many = run_blocking_threads(&net, &scheduler, &cfg, 4).expect("blocking batch");
    assert_eq!(one.blocking.mean.to_bits(), many.blocking.mean.to_bits());
    assert_eq!(one.allocated.mean.to_bits(), many.allocated.mean.to_bits());

    // Bench 1 worker against the host's actual parallelism: scaling past
    // the physical core count only measures spawn overhead.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut counts = vec![1usize];
    for t in [2, 4, 8] {
        if t <= cores {
            counts.push(t);
        }
    }
    let mut group = c.benchmark_group("blocking_batch_omega16");
    for threads in counts {
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, &t| {
            b.iter(|| {
                black_box(
                    run_blocking_threads(&net, &scheduler, &cfg, t)
                        .expect("blocking batch")
                        .blocking
                        .mean,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_rebuild_vs_reset, bench_threaded_blocking);
criterion_main!(benches);
