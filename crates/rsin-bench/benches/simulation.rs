//! Bench: Monte-Carlo blocking batches and the dynamic discrete-event
//! simulation (the measurement machinery itself).

use criterion::{criterion_group, criterion_main, Criterion};
use rsin_core::scheduler::MaxFlowScheduler;
use rsin_sim::blocking::{run_blocking, BlockingConfig};
use rsin_sim::system::{DynamicConfig, SystemSim};
use rsin_topology::builders::omega;
use std::hint::black_box;

fn bench_blocking_batch(c: &mut Criterion) {
    let net = omega(8).unwrap();
    let cfg = BlockingConfig {
        trials: 100,
        requests: 5,
        resources: 5,
        occupied_circuits: 1,
        seed: 6,
    };
    c.bench_function("blocking_100_trials_omega8", |b| {
        b.iter(|| {
            black_box(
                run_blocking(&net, &MaxFlowScheduler::default(), &cfg)
                    .expect("blocking trials")
                    .blocking
                    .mean,
            )
        })
    });
}

fn bench_dynamic(c: &mut Criterion) {
    let net = omega(8).unwrap();
    let cfg = DynamicConfig {
        arrival_rate: 0.4,
        mean_transmission: 0.1,
        mean_service: 1.0,
        sim_time: 200.0,
        warmup: 20.0,
        seed: 6,
        ..DynamicConfig::default()
    };
    c.bench_function("dynamic_200tu_omega8", |b| {
        b.iter(|| {
            black_box(
                SystemSim::new(&net, cfg)
                    .run(&MaxFlowScheduler::default())
                    .unwrap()
                    .completed,
            )
        })
    });
}

criterion_group!(benches, bench_blocking_batch, bench_dynamic);
criterion_main!(benches);
