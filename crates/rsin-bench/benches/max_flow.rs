//! Ablation bench: the three maximum-flow algorithms on MRSIN-shaped
//! unit-capacity networks (COMPLEX experiment — Dinic's `O(|V|^{2/3}|E|)`
//! unit-network advantage vs Edmonds–Karp and DFS Ford–Fulkerson), plus the
//! two Theorem-2 kernels of a batch cycle timed apart on the graphs the
//! benchmark workloads solve.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rsin_core::model::ScheduleProblem;
use rsin_core::scheduler::{HierarchicalScheduler, InterShardPolicy};
use rsin_core::transform::homogeneous;
use rsin_core::transform::reusable::ReusableTransform;
use rsin_flow::max_flow::{solve, solve_with, Algorithm};
use rsin_flow::path::{for_each_unit_path, PathWalk};
use rsin_flow::scratch::SolveScratch;
use rsin_sim::sharded::sharded_snapshot;
use rsin_sim::workload::{random_snapshot, trial_rng};
use rsin_topology::builders::omega;
use rsin_topology::{CircuitState, GlobalTopology, ShardedNetwork, ShardedSpec};
use std::hint::black_box;

fn bench_max_flow(c: &mut Criterion) {
    let mut group = c.benchmark_group("max_flow_mrsin");
    for n in [8usize, 16, 32, 64] {
        let net = omega(n).unwrap();
        let mut rng = trial_rng(1, n as u64);
        let snap = random_snapshot(&net, n / 2, n / 2, n / 8, &mut rng);
        let problem = ScheduleProblem::homogeneous(&snap.circuits, &snap.requesting, &snap.free);
        let transformed = homogeneous::transform(&problem);
        for algo in Algorithm::ALL {
            group.bench_with_input(
                BenchmarkId::new(format!("{algo:?}"), n),
                &transformed,
                |b, t| {
                    b.iter(|| {
                        let mut g = t.flow.clone();
                        black_box(solve(&mut g, t.source, t.sink, algo).value)
                    })
                },
            );
        }
    }
    group.finish();
}

/// `sharded_cycle`'s shard graphs: 8 shards of omega-16 under a global
/// omega, the token-ring placement of its seed-7 cycle-0 snapshot at load
/// 0.9. One [`ReusableTransform`] per shard, configured from the shard's
/// plan and then reused, as the shard step reuses its shard's transform.
fn sharded_shard_graphs() -> Vec<ReusableTransform> {
    let net = ShardedNetwork::new(ShardedSpec::new(8, 16, GlobalTopology::Omega)).unwrap();
    let h = HierarchicalScheduler::new(&net, InterShardPolicy::TokenRing);
    let local = CircuitState::new(net.local());
    let k = (net.num_ports() as f64 * 0.9).round() as usize;
    let (req, free) = sharded_snapshot(net.num_ports(), k, k, &mut trial_rng(7, 0));
    let placement = h.place(&req, &free).unwrap();
    placement
        .shards
        .iter()
        .map(|plan| {
            let requests: Vec<usize> = plan.requests.iter().map(|&(p, _)| p).collect();
            let problem = ScheduleProblem::homogeneous(&local, &requests, &plan.free);
            let mut rt = ReusableTransform::new();
            rt.configure_max_flow(&problem);
            rt
        })
        .collect()
}

/// One omega-64 snapshot under heavy load, like a `dynamic_heavy` cycle:
/// circuits held on most ports, a queue of requests, two free resources.
fn held_omega64_graph() -> Vec<ReusableTransform> {
    let net = omega(64).unwrap();
    let snap = random_snapshot(&net, 24, 2, 40, &mut trial_rng(7, 0));
    let problem = ScheduleProblem::homogeneous(&snap.circuits, &snap.requesting, &snap.free);
    let mut rt = ReusableTransform::new();
    rt.configure_max_flow(&problem);
    vec![rt]
}

/// The Theorem-2 Dinic solve and the unit-path walk after it, timed apart,
/// and the two as a cycle runs them. An iteration covers every graph of
/// the set: `dinic` zeroes each graph's flow (one sequential sweep) and
/// solves it, `walk` decomposes the solved flow with a reused
/// [`PathWalk`], and `extract` solves and then decomposes as the cycle
/// does ([`ReusableTransform::extract_solved`]: a one-pass solve's
/// augmenting paths, else the walk). On the sharded graphs an iteration is
/// one cycle's 8 shard solves, walks or both.
fn bench_theorem2_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("theorem2_kernels");
    for (name, mut graphs) in [
        ("sharded_8x16", sharded_shard_graphs()),
        ("omega64_held", held_omega64_graph()),
    ] {
        let mut scratch = SolveScratch::new();
        let mut solve_all = |graphs: &mut [ReusableTransform]| {
            let mut value = 0;
            for rt in graphs {
                let t = rt.transformed_mut().unwrap();
                t.flow.reset();
                value += solve_with(
                    &mut t.flow,
                    t.source,
                    t.sink,
                    Algorithm::Dinic,
                    &mut scratch,
                )
                .value;
            }
            value
        };
        group.bench_function(format!("dinic/{name}"), |b| {
            b.iter(|| black_box(solve_all(&mut graphs)))
        });
        // Solved whatever the dinic row ran (nothing, under `cargo test`).
        solve_all(&mut graphs);
        let mut walk = PathWalk::default();
        group.bench_function(format!("walk/{name}"), |b| {
            b.iter(|| {
                let mut paths = 0;
                for rt in &graphs {
                    let t = rt.transformed().unwrap();
                    for_each_unit_path(&t.flow, t.source, t.sink, t.bypass, &mut walk, |_| {
                        paths += 1;
                        Ok::<(), ()>(())
                    })
                    .unwrap();
                }
                black_box(paths)
            })
        });
        group.bench_function(format!("extract/{name}"), |b| {
            b.iter(|| {
                let mut circuits = 0;
                for rt in graphs.iter_mut() {
                    let t = rt.transformed_mut().unwrap();
                    t.flow.reset();
                    solve_with(
                        &mut t.flow,
                        t.source,
                        t.sink,
                        Algorithm::Dinic,
                        &mut scratch,
                    );
                    circuits += rt.extract_solved(&scratch).unwrap().len();
                }
                black_box(circuits)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_max_flow, bench_theorem2_kernels);
criterion_main!(benches);
