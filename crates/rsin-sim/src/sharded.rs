//! Sharded-system experiments: hierarchical and flat-oracle conformance
//! trials.
//!
//! The scheduling logic lives in
//! [`rsin_core::scheduler::hierarchical`]; this module supplies the
//! execution and measurement shell around it:
//!
//! * [`run_sharded_trials`] — Monte-Carlo blocking trials of the
//!   hierarchical scheduler on seeded `(seed, trial)` snapshots;
//! * [`run_paired_trials`] — per-trial `(hierarchical, flat)` allocation
//!   pairs, the raw material of the `hier ≤ flat` conformance gates.
//!
//! Streaming over a sharded system runs on the flattened composition:
//! `serve --net shardedSxN` serves `ShardedNetwork::flatten`'s network with
//! one incremental scheduler.

use crate::metrics::{Sample, Summary};
use crate::workload::trial_rng;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rsin_core::model::ScheduleProblem;
use rsin_core::scheduler::hierarchical::{HierarchicalScheduler, InterShardPolicy};
use rsin_core::scheduler::{MaxFlowScheduler, ScheduleError, ScheduleScratch, Scheduler};
use rsin_topology::{CircuitState, Network, ShardedNetwork};

/// Parameters of a sharded Monte-Carlo experiment.
#[derive(Debug, Clone, Copy)]
pub struct ShardedTrialConfig {
    /// Monte-Carlo trials.
    pub trials: u64,
    /// Requesting processors per trial (global ports, drawn uniformly).
    pub requests: usize,
    /// Free resources per trial (global ports, drawn uniformly).
    pub free: usize,
    /// Base RNG seed.
    pub seed: u64,
}

/// Aggregated results of a sharded experiment.
#[derive(Debug, Clone, Copy)]
pub struct ShardedStats {
    /// Blocking fraction `1 − allocated / min(requests, free)`.
    pub blocking: Summary,
    /// Resources allocated per trial.
    pub allocated: Summary,
    /// Requests placed on a non-home shard per trial (always 0 for the
    /// flat oracle).
    pub remote: Summary,
    /// Requests the inter-shard stage could not place per trial (always 0
    /// for the flat oracle).
    pub stage1_blocked: Summary,
    /// True iff every observed per-shard transformation-graph build count
    /// was exactly 1 (vacuously true for the flat oracle, whose scratch is
    /// one graph with the same invariant).
    pub rebuilds_ok: bool,
}

/// Per-trial record; kept so trials can be farmed out and reduced in trial
/// order (see [`crate::pool`]).
#[derive(Debug, Clone, Copy)]
struct ShardedTrialResult {
    blocking: f64,
    allocated: f64,
    remote: f64,
    stage1_blocked: f64,
    rebuilds_ok: bool,
}

/// Draw one trial's request and free sets: uniform global ports, sorted
/// ascending. A pure function of the RNG stream.
pub fn sharded_snapshot(
    total_ports: usize,
    requests: usize,
    free: usize,
    rng: &mut StdRng,
) -> (Vec<usize>, Vec<usize>) {
    let mut draw = |k: usize| -> Vec<usize> {
        let mut ports: Vec<usize> = (0..total_ports).collect();
        ports.shuffle(rng);
        ports.truncate(k.min(total_ports));
        ports.sort_unstable();
        ports
    };
    let requesting = draw(requests);
    let free = draw(free);
    (requesting, free)
}

fn reduce_trials(results: &[ShardedTrialResult]) -> ShardedStats {
    // Sequential reduction in trial order (Welford is not associative).
    let mut blocking = Sample::new();
    let mut allocated = Sample::new();
    let mut remote = Sample::new();
    let mut stage1 = Sample::new();
    let mut rebuilds_ok = true;
    for r in results {
        blocking.push(r.blocking);
        allocated.push(r.allocated);
        remote.push(r.remote);
        stage1.push(r.stage1_blocked);
        rebuilds_ok &= r.rebuilds_ok;
    }
    ShardedStats {
        blocking: Summary::from(&blocking),
        allocated: Summary::from(&allocated),
        remote: Summary::from(&remote),
        stage1_blocked: Summary::from(&stage1),
        rebuilds_ok,
    }
}

/// Monte-Carlo trials of the hierarchical scheduler: `threads` workers pull
/// trials from a shared cursor, each owning one [`HierarchicalScheduler`]
/// (so each worker's per-shard scratches are built once and reused), and
/// each trial runs one [`HierarchicalScheduler::schedule`] cycle.
///
/// Determinism contract: trial `i` is a pure function of `(cfg.seed, i)`
/// and results reduce sequentially in trial order — the returned
/// [`ShardedStats`] is bit-identical for any `threads`. The first failing
/// trial's error, in trial order, is returned instead.
pub fn run_sharded_trials(
    net: &ShardedNetwork,
    policy: InterShardPolicy,
    cfg: &ShardedTrialConfig,
    threads: usize,
) -> Result<ShardedStats, ScheduleError> {
    let results = crate::pool::run_indexed_with(
        cfg.trials as usize,
        threads,
        || HierarchicalScheduler::new(net, policy),
        |h, trial| {
            let mut rng = trial_rng(cfg.seed, trial as u64);
            let (requests, free) =
                sharded_snapshot(net.num_ports(), cfg.requests, cfg.free, &mut rng);
            let denom = requests.len().min(free.len());
            let out = h.schedule(&requests, &free)?;
            // Every cycle solves every shard (even empty ones), so after any
            // trial each shard of this worker has built exactly once — the
            // flag is a pure function of the trial, not of worker history.
            let rebuilds_ok = h.rebuilds_per_shard().iter().all(|&r| r == 1);
            Ok(ShardedTrialResult {
                blocking: if denom == 0 {
                    0.0
                } else {
                    1.0 - out.allocated() as f64 / denom as f64
                },
                allocated: out.allocated() as f64,
                remote: out.remote_placed as f64,
                stage1_blocked: out.stage1_blocked as f64,
                rebuilds_ok,
            })
        },
    );
    let results = results
        .into_iter()
        .collect::<Result<Vec<_>, ScheduleError>>()?;
    Ok(reduce_trials(&results))
}

/// Per-trial `(hierarchical allocated, flat allocated)` pairs on shared
/// snapshots — the conformance raw data: hierarchical must never exceed
/// flat, and stays above a configured fraction of it in aggregate. The
/// first failing trial's error, in trial order, is returned instead.
pub fn run_paired_trials(
    net: &ShardedNetwork,
    flat: &Network,
    policy: InterShardPolicy,
    cfg: &ShardedTrialConfig,
    threads: usize,
) -> Result<Vec<(usize, usize)>, ScheduleError> {
    crate::pool::run_indexed_with(
        cfg.trials as usize,
        threads,
        || {
            (
                HierarchicalScheduler::new(net, policy),
                ScheduleScratch::new(),
            )
        },
        |(h, scratch), trial| {
            let mut rng = trial_rng(cfg.seed, trial as u64);
            let (requests, free) =
                sharded_snapshot(net.num_ports(), cfg.requests, cfg.free, &mut rng);
            let hier = h.schedule(&requests, &free)?;
            let cs = CircuitState::new(flat);
            let problem = ScheduleProblem::homogeneous(&cs, &requests, &free);
            let flat_out = MaxFlowScheduler::default().try_schedule_reusing(&problem, scratch)?;
            Ok((hier.allocated(), flat_out.allocated()))
        },
    )
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsin_topology::{GlobalTopology, ShardedSpec};

    fn sharded(shards: usize, local: usize, uplink: usize) -> ShardedNetwork {
        ShardedNetwork::new(ShardedSpec {
            shards,
            local_ports: local,
            uplink,
            global: GlobalTopology::Crossbar,
        })
        .unwrap()
    }

    #[test]
    fn trials_are_thread_and_pool_invariant() {
        let net = sharded(2, 8, 2);
        let cfg = ShardedTrialConfig {
            trials: 23,
            requests: 10,
            free: 10,
            seed: 41,
        };
        let one = run_sharded_trials(&net, InterShardPolicy::TokenRing, &cfg, 1).unwrap();
        assert!(one.rebuilds_ok);
        for threads in [2, 3, 8] {
            let other =
                run_sharded_trials(&net, InterShardPolicy::TokenRing, &cfg, threads).unwrap();
            assert_eq!(one.blocking.mean.to_bits(), other.blocking.mean.to_bits());
            assert_eq!(one.blocking.ci95.to_bits(), other.blocking.ci95.to_bits());
            assert_eq!(one.allocated.mean.to_bits(), other.allocated.mean.to_bits());
            assert_eq!(one.remote.mean.to_bits(), other.remote.mean.to_bits());
            assert_eq!(
                one.stage1_blocked.mean.to_bits(),
                other.stage1_blocked.mean.to_bits()
            );
            assert!(other.rebuilds_ok);
        }
    }

    #[test]
    fn hierarchical_never_beats_the_flat_oracle() {
        let net = sharded(2, 8, 2);
        let flat = net.flatten().unwrap();
        let cfg = ShardedTrialConfig {
            trials: 40,
            requests: 12,
            free: 12,
            seed: 43,
        };
        for policy in [InterShardPolicy::TokenRing, InterShardPolicy::MinCost] {
            let pairs = run_paired_trials(&net, &flat, policy, &cfg, 2).unwrap();
            assert_eq!(pairs.len(), 40);
            for (i, &(hier, flat_alloc)) in pairs.iter().enumerate() {
                assert!(
                    hier <= flat_alloc,
                    "{policy:?} trial {i}: hier {hier} > flat {flat_alloc}"
                );
            }
        }
    }

    #[test]
    fn sharded_dynamic_runs_on_the_flat_composition() {
        let net = sharded(2, 4, 1);
        let cfg = crate::system::DynamicConfig {
            sim_time: 60.0,
            warmup: 10.0,
            ..Default::default()
        };
        let flat = net.flatten().unwrap();
        let stats = crate::system::SystemSim::new(&flat, cfg)
            .run(&MaxFlowScheduler::default())
            .unwrap();
        assert!(stats.completed > 0);
    }
}
