//! Property test pinning the replicated-run determinism contract: the
//! merged statistics of a replicated `run_trials` row are **bit-identical**
//! for any worker-thread count, across random configurations and replica
//! counts.
//!
//! This is the in-process half of the determinism gate; the CI
//! `determinism` job byte-compares the exported JSON of the `dynamic` and
//! `faults` binaries at 1 and 8 threads on top of it.

use proptest::prelude::*;
use rsin_core::scheduler::MaxFlowScheduler;
use rsin_sim::metrics::Summary;
use rsin_sim::replicate::{merge_faulted, run_trials, TrialGrid};
use rsin_sim::system::{DegradedPolicy, DynamicConfig};
use rsin_topology::builders::omega;

fn assert_summary_bits(a: &Summary, b: &Summary, what: &str) {
    assert_eq!(a.mean.to_bits(), b.mean.to_bits(), "{what}.mean");
    assert_eq!(a.ci95.to_bits(), b.ci95.to_bits(), "{what}.ci95");
    assert_eq!(a.p99.to_bits(), b.p99.to_bits(), "{what}.p99");
    assert_eq!(a.n, b.n, "{what}.n");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Replicated dynamic stats do not depend on the thread count: each
    /// replica is a pure function of `(seed, replica)` and the merge runs
    /// sequentially in replica order, so 1, 2, 3, and 8 workers must
    /// produce the same bits.
    #[test]
    fn replicated_dynamic_stats_are_thread_count_invariant(
        seed in 0u64..1000,
        rate_milli in 100u64..900,
        replicas in 1usize..6,
    ) {
        let net = omega(8).unwrap();
        let cfg = DynamicConfig {
            arrival_rate: rate_milli as f64 / 1000.0,
            sim_time: 80.0,
            warmup: 10.0,
            seed,
            ..DynamicConfig::default()
        };
        let scheduler = MaxFlowScheduler::default();
        let grid = TrialGrid {
            configs: &[cfg],
            trials: replicas,
            faults: None,
            policy: DegradedPolicy::Bfs,
        };
        let replicated = |threads| {
            merge_faulted(&run_trials(&net, &scheduler, &grid, threads).unwrap()[0]).stats
        };
        let serial = replicated(1);
        for threads in [2usize, 3, 8] {
            let parallel = replicated(threads);
            prop_assert_eq!(serial.replicas, parallel.replicas);
            prop_assert_eq!(serial.completed, parallel.completed);
            prop_assert_eq!(serial.cycles, parallel.cycles);
            assert_summary_bits(&serial.response, &parallel.response, "response");
            assert_summary_bits(&serial.utilization, &parallel.utilization, "utilization");
            assert_summary_bits(&serial.mean_queue, &parallel.mean_queue, "mean_queue");
            assert_summary_bits(&serial.mean_blocking, &parallel.mean_blocking, "mean_blocking");
        }
    }
}
