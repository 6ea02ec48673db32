//! Trial grids: the one batch path for dynamic simulations. A
//! [`TrialGrid`] names configurations × trials plus a fault process and a
//! degraded policy; [`run_trials`] (and [`run_trials_observed`], which adds
//! telemetry) runs every cell on one worker pool. A row's trials are
//! independent replicas — trial `t` draws the `(cfg.seed, t)` stream, the
//! convention every other experiment here uses — and merge through
//! [`merge_dynamic`] / [`merge_faulted`].
//!
//! Determinism contract: cells land in an index-addressed slot table and
//! the merge runs **sequentially in replica order** after every replica
//! finishes. [`Sample::merge`] keeps counts, extremes, histogram buckets —
//! hence p99 — exactly equal to the single-stream computation, and fixes
//! the floating-point evaluation order of the pooled mean/CI, so the
//! returned statistics are bit-identical for any thread count. A property
//! test in `tests/replication.rs` pins that, and the CI `determinism` job
//! byte-compares the exported JSON across thread counts.

use crate::metrics::{Sample, Summary};
use crate::system::{
    fault_plan_seed, plan_for_model, DegradedPolicy, DynamicConfig, DynamicStats, FaultModel,
    FaultedStats, SimError, SystemSim,
};
use rsin_core::scheduler::Scheduler;
use rsin_obs::{NoopProbe, Probe, Telemetry, TelemetryReport};
use rsin_topology::{FaultPlan, FaultPlanConfig, Network};

/// Pooled statistics of `replicas` independent dynamic runs.
#[derive(Debug, Clone, Copy)]
pub struct ReplicatedStats {
    /// How many replicas were merged.
    pub replicas: u64,
    /// Task-level response time pooled across replicas: per-replica
    /// [`DynamicStats::response`] samples merged in replica order, so the
    /// mean/CI weight every completed task equally and the p99 reads the
    /// combined histogram.
    pub response: Summary,
    /// Across-replica distribution of per-replica utilization (each replica
    /// contributes one observation; the CI measures replica-to-replica
    /// variability, the classic replication/deletion estimate).
    pub utilization: Summary,
    /// Across-replica distribution of per-replica mean queue length.
    pub mean_queue: Summary,
    /// Across-replica distribution of per-replica mean cycle blocking.
    pub mean_blocking: Summary,
    /// Tasks completed after warm-up, summed over replicas.
    pub completed: u64,
    /// Scheduling cycles executed, summed over replicas.
    pub cycles: u64,
    /// Arrivals dropped at a full bounded queue, summed over replicas
    /// (always 0 with [`DynamicConfig::queue_capacity`] 0).
    pub shed_arrivals: u64,
    /// Across-replica distribution of the horizon-end queue backlog
    /// ([`DynamicStats::final_queue`]) — the heavy-traffic queue-growth
    /// signal.
    pub final_queue: Summary,
}

/// Pooled survival metrics of `replicas` independent faulted runs.
#[derive(Debug, Clone, Copy)]
pub struct ReplicatedFaultedStats {
    /// The pooled ordinary statistics.
    pub stats: ReplicatedStats,
    /// Circuits established, summed over replicas.
    pub allocations: u64,
    /// Requests shed by degraded cycles, summed over replicas.
    pub shed_total: u64,
    /// Blocked requests rescued by the alternate-path retry, summed.
    pub recovered_total: u64,
    /// `Fail` events applied, summed over replicas.
    pub failures: u64,
    /// `Repair` events applied, summed over replicas.
    pub repairs: u64,
    /// Mean repair→recovery interval, weighted by each replica's
    /// `recoveries_observed` (0 if none observed anywhere).
    pub mean_recovery: f64,
    /// Total repair→zero-shed intervals observed across replicas.
    pub recoveries_observed: u64,
    /// Transformation-graph rebuilds, summed over replicas (one per replica
    /// per transformation shape used; faults never add to it).
    pub transform_rebuilds: u64,
    /// Transformation-2 cost added by degraded-mode recoveries, summed over
    /// replicas (the cost of degradation; see
    /// [`FaultedStats::recovery_cost`]).
    pub recovery_cost: i64,
    /// Circuits misrouted by Byzantine boxes, summed over replicas.
    pub misrouted: u64,
    /// Boxes flagged by the conformance detector, summed over replicas.
    pub byz_flagged: u64,
    /// Honest boxes flagged (expected 0), summed over replicas.
    pub byz_false_positives: u64,
    /// Mean onset→flag latency in scheduling cycles, weighted by each
    /// replica's `detections_observed` (0 if none observed anywhere).
    pub mean_detection_cycles: f64,
    /// Total true detections across replicas.
    pub detections_observed: u64,
}

/// Merge per-replica [`DynamicStats`] in slice (= replica) order.
///
/// Pure and deterministic: same slice, same bits out. Runs after the
/// parallel phase, so thread count cannot influence it.
pub fn merge_dynamic(per_replica: &[DynamicStats]) -> ReplicatedStats {
    let mut response = Sample::new();
    let mut utilization = Sample::new();
    let mut mean_queue = Sample::new();
    let mut mean_blocking = Sample::new();
    let mut final_queue = Sample::new();
    let mut completed = 0u64;
    let mut cycles = 0u64;
    let mut shed_arrivals = 0u64;
    for s in per_replica {
        response.merge(&s.response);
        utilization.push(s.utilization);
        mean_queue.push(s.mean_queue);
        mean_blocking.push(s.mean_blocking);
        final_queue.push(s.final_queue as f64);
        completed += s.completed;
        cycles += s.cycles;
        shed_arrivals += s.shed_arrivals;
    }
    ReplicatedStats {
        replicas: per_replica.len() as u64,
        response: Summary::from(&response),
        utilization: Summary::from(&utilization),
        mean_queue: Summary::from(&mean_queue),
        mean_blocking: Summary::from(&mean_blocking),
        completed,
        cycles,
        shed_arrivals,
        final_queue: Summary::from(&final_queue),
    }
}

/// Merge per-replica [`FaultedStats`] in slice (= replica) order.
pub fn merge_faulted(per_replica: &[FaultedStats]) -> ReplicatedFaultedStats {
    let stats: Vec<DynamicStats> = per_replica.iter().map(|f| f.stats).collect();
    let mut recoveries_observed = 0u64;
    let mut recovery_sum = 0.0f64;
    for f in per_replica {
        // A replica with no observed recoveries contributes nothing, and its
        // mean_recovery may be NaN (0/0); weighting by zero would still
        // poison the sum (NaN * 0 = NaN), so skip it outright.
        if f.recoveries_observed == 0 {
            continue;
        }
        recoveries_observed += f.recoveries_observed;
        recovery_sum += f.mean_recovery * f.recoveries_observed as f64;
    }
    // Detection latency pools the same way as recovery: weight by each
    // replica's observation count, skipping idle replicas outright.
    let mut detections_observed = 0u64;
    let mut detection_sum = 0.0f64;
    for f in per_replica {
        if f.detections_observed == 0 {
            continue;
        }
        detections_observed += f.detections_observed;
        detection_sum += f.mean_detection_cycles * f.detections_observed as f64;
    }
    ReplicatedFaultedStats {
        stats: merge_dynamic(&stats),
        allocations: per_replica.iter().map(|f| f.allocations).sum(),
        shed_total: per_replica.iter().map(|f| f.shed_total).sum(),
        recovered_total: per_replica.iter().map(|f| f.recovered_total).sum(),
        failures: per_replica.iter().map(|f| f.failures).sum(),
        repairs: per_replica.iter().map(|f| f.repairs).sum(),
        mean_recovery: if recoveries_observed > 0 {
            recovery_sum / recoveries_observed as f64
        } else {
            0.0
        },
        recoveries_observed,
        transform_rebuilds: per_replica.iter().map(|f| f.transform_rebuilds).sum(),
        recovery_cost: per_replica.iter().map(|f| f.recovery_cost).sum(),
        misrouted: per_replica.iter().map(|f| f.misrouted).sum(),
        byz_flagged: per_replica.iter().map(|f| f.byz_flagged).sum(),
        byz_false_positives: per_replica.iter().map(|f| f.byz_false_positives).sum(),
        mean_detection_cycles: if detections_observed > 0 {
            detection_sum / detections_observed as f64
        } else {
            0.0
        },
        detections_observed,
    }
}

/// One batch of dynamic trials: every configuration in `configs` runs
/// `trials` independent trials under the same fault process and degraded
/// policy.
#[derive(Debug, Clone, Copy)]
pub struct TrialGrid<'a> {
    /// The configurations, one result row each.
    pub configs: &'a [DynamicConfig],
    /// Trials per configuration (the replicas of one row).
    pub trials: usize,
    /// Fault process of every trial; `None` runs each trial under
    /// [`FaultPlan::empty`].
    pub faults: Option<(&'a FaultPlanConfig, FaultModel)>,
    /// How blocked requests are handled while something is faulty.
    pub policy: DegradedPolicy,
}

/// Run every cell of `grid`, cell `k` reporting to `probe(k)`, and reshape
/// the results into one row per configuration.
fn run_grid<'p, P>(
    net: &Network,
    scheduler: &dyn Scheduler,
    grid: &TrialGrid,
    threads: usize,
    probe: P,
) -> Result<Vec<Vec<FaultedStats>>, SimError>
where
    P: Sync + Fn(usize) -> &'p dyn Probe,
{
    let trials = grid.trials;
    if grid.configs.is_empty() || trials == 0 {
        return Err(SimError::EmptyGrid {
            configs: grid.configs.len(),
            trials,
        });
    }
    // Cell k = (config k / trials, trial k % trials): the (cfg.seed, t)
    // stream under the plan drawn from fault_plan_seed(cfg.seed, t).
    let cells = crate::pool::run_indexed(grid.configs.len() * trials, threads, |k| {
        let cfg = grid.configs[k / trials];
        let trial = (k % trials) as u64;
        let plan = match grid.faults {
            None => FaultPlan::empty(),
            Some((fault_cfg, model)) => {
                plan_for_model(net, fault_cfg, model, fault_plan_seed(cfg.seed, trial))
            }
        };
        SystemSim::new(net, cfg).try_run_faulted_trial_policy_probed(
            scheduler,
            &plan,
            trial,
            grid.policy,
            probe(k),
        )
    });
    let cells = cells.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(cells.chunks(trials).map(<[_]>::to_vec).collect())
}

/// Run every `(config, trial)` cell of `grid` on one `threads`-worker pool,
/// so a sweep with few configurations still saturates the pool. Returns one
/// row of trials per configuration, in input order; cell `(c, t)` draws the
/// `(cfg.seed, t)` stream and the fault plan of
/// [`fault_plan_seed`]`(cfg.seed, t)`, so trial 0 of a fault-free row
/// reproduces [`SystemSim::run`] exactly and the rows are bit-identical for
/// any thread count. An empty grid is a [`SimError::EmptyGrid`].
pub fn run_trials(
    net: &Network,
    scheduler: &dyn Scheduler,
    grid: &TrialGrid,
    threads: usize,
) -> Result<Vec<Vec<FaultedStats>>, SimError> {
    run_grid(net, scheduler, grid, threads, |_| &NoopProbe)
}

/// [`run_trials`] under telemetry: each cell records into its **own**
/// [`Telemetry`] sink and the reports merge in cell order
/// ([`TelemetryReport::merge`]), so counters and solver totals are
/// independent of the thread count (span latencies stay wall-clock). Probes
/// only observe, so the rows are bit-identical to [`run_trials`].
pub fn run_trials_observed(
    net: &Network,
    scheduler: &dyn Scheduler,
    grid: &TrialGrid,
    threads: usize,
) -> Result<(Vec<Vec<FaultedStats>>, TelemetryReport), SimError> {
    let sinks: Vec<Telemetry> = (0..grid.configs.len() * grid.trials)
        .map(|_| Telemetry::new())
        .collect();
    let rows = run_grid(net, scheduler, grid, threads, |k| &sinks[k])?;
    let mut report = sinks[0].report();
    for sink in &sinks[1..] {
        report.merge(&sink.report());
    }
    Ok((rows, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::tests::stat_bits;
    use rsin_core::scheduler::MaxFlowScheduler;
    use rsin_topology::builders::omega;

    fn small_cfg() -> DynamicConfig {
        DynamicConfig {
            arrival_rate: 0.4,
            sim_time: 120.0,
            warmup: 20.0,
            ..DynamicConfig::default()
        }
    }

    /// A one-configuration grid of `trials` trials under the BFS policy.
    fn grid<'a>(
        cfg: &'a DynamicConfig,
        trials: usize,
        faults: Option<&'a FaultPlanConfig>,
    ) -> TrialGrid<'a> {
        TrialGrid {
            configs: std::slice::from_ref(cfg),
            trials,
            faults: faults.map(|f| (f, FaultModel::Independent)),
            policy: DegradedPolicy::Bfs,
        }
    }

    /// `replicas` fault-free trials of `cfg`, merged.
    fn replicated(cfg: &DynamicConfig, replicas: usize, threads: usize) -> ReplicatedStats {
        let net = omega(8).unwrap();
        let rows = run_trials(
            &net,
            &MaxFlowScheduler::default(),
            &grid(cfg, replicas, None),
            threads,
        )
        .unwrap();
        merge_faulted(&rows[0]).stats
    }

    #[test]
    fn one_replica_reproduces_the_single_run() {
        let net = omega(8).unwrap();
        let cfg = small_cfg();
        let single = SystemSim::new(&net, cfg)
            .run(&MaxFlowScheduler::default())
            .unwrap();
        let rep = replicated(&cfg, 1, 1);
        assert_eq!(rep.replicas, 1);
        assert_eq!(rep.completed, single.completed);
        assert_eq!(rep.cycles, single.cycles);
        assert_eq!(rep.response.mean.to_bits(), single.mean_response.to_bits());
        assert_eq!(rep.response.p99.to_bits(), single.response_p99.to_bits());
        assert_eq!(rep.utilization.mean.to_bits(), single.utilization.to_bits());
    }

    #[test]
    fn replicas_are_independent_streams() {
        let net = omega(8).unwrap();
        let cfg = small_cfg();
        let rep = replicated(&cfg, 4, 1);
        assert_eq!(rep.replicas, 4);
        // Four replicas pool four times the tasks of one (roughly), and the
        // across-replica utilization CI must be non-degenerate.
        let single = SystemSim::new(&net, cfg)
            .run(&MaxFlowScheduler::default())
            .unwrap();
        assert!(rep.completed > 2 * single.completed);
        assert!(rep.utilization.ci95 > 0.0);
        assert_eq!(rep.response.n, rep.completed);
    }

    #[test]
    fn replicated_stats_bit_identical_across_thread_counts() {
        let cfg = small_cfg();
        let serial = replicated(&cfg, 5, 1);
        for threads in [2, 3, 8] {
            let parallel = replicated(&cfg, 5, threads);
            assert_eq!(serial.completed, parallel.completed, "threads={threads}");
            assert_eq!(serial.cycles, parallel.cycles, "threads={threads}");
            for (a, b) in [
                (serial.response, parallel.response),
                (serial.utilization, parallel.utilization),
                (serial.mean_queue, parallel.mean_queue),
                (serial.mean_blocking, parallel.mean_blocking),
            ] {
                assert_eq!(a.mean.to_bits(), b.mean.to_bits(), "threads={threads}");
                assert_eq!(a.ci95.to_bits(), b.ci95.to_bits(), "threads={threads}");
                assert_eq!(a.p99.to_bits(), b.p99.to_bits(), "threads={threads}");
                assert_eq!(a.n, b.n, "threads={threads}");
            }
        }
    }

    #[test]
    fn faulted_replication_sums_survival_metrics() {
        let net = omega(8).unwrap();
        let cfg = small_cfg();
        let scheduler = MaxFlowScheduler::default();
        let fcfg = FaultPlanConfig::links(0.004, 15.0, cfg.sim_time);
        let faulted = grid(&cfg, 3, Some(&fcfg));
        let per = run_trials(&net, &scheduler, &faulted, 1).unwrap().remove(0);
        let merged = merge_faulted(&per);
        assert_eq!(merged.stats.replicas, 3);
        assert_eq!(merged.failures, per.iter().map(|f| f.failures).sum::<u64>());
        assert_eq!(
            merged.transform_rebuilds,
            per.iter().map(|f| f.transform_rebuilds).sum::<u64>()
        );
        let direct = merge_faulted(&run_trials(&net, &scheduler, &faulted, 2).unwrap()[0]);
        assert_eq!(direct.failures, merged.failures);
        assert_eq!(
            direct.stats.response.mean.to_bits(),
            merged.stats.response.mean.to_bits()
        );
        assert_eq!(
            direct.mean_recovery.to_bits(),
            merged.mean_recovery.to_bits()
        );
    }

    #[test]
    fn zero_recovery_replicas_cannot_poison_the_merged_mean() {
        // Regression: a replica that never observed a recovery carries
        // `recoveries_observed == 0`, and an upstream 0/0 can leave its
        // `mean_recovery` as NaN. Weighting it by zero still produced
        // NaN * 0 = NaN and poisoned the pooled mean.
        let net = omega(8).unwrap();
        let cfg = small_cfg();
        let scheduler = MaxFlowScheduler::default();
        let fcfg = FaultPlanConfig::links(0.01, 2.0, cfg.sim_time);
        let per = run_trials(&net, &scheduler, &grid(&cfg, 2, Some(&fcfg)), 1)
            .unwrap()
            .remove(0);
        let baseline = merge_faulted(&per);
        let mut poisoned = per[0];
        poisoned.mean_recovery = f64::NAN;
        poisoned.recoveries_observed = 0;
        let merged = merge_faulted(&[poisoned, per[0], per[1]]);
        assert!(
            merged.mean_recovery.is_finite(),
            "NaN leaked into the pooled mean"
        );
        // The idle replica contributes nothing: same pooled value as without it.
        assert_eq!(
            merged.mean_recovery.to_bits(),
            baseline.mean_recovery.to_bits()
        );
        assert_eq!(merged.recoveries_observed, baseline.recoveries_observed);
        // All replicas idle: defined zero, not NaN.
        let idle = merge_faulted(&[poisoned]);
        assert_eq!(idle.mean_recovery, 0.0);
        assert_eq!(idle.recoveries_observed, 0);
    }

    #[test]
    fn replicated_sweep_matches_per_config_replication() {
        // Row c of a multi-config grid merges to config c's own replication.
        let net = omega(8).unwrap();
        let configs = [0.2, 0.5].map(|arrival_rate| DynamicConfig {
            arrival_rate,
            ..small_cfg()
        });
        let sweep = TrialGrid {
            configs: &configs,
            ..grid(&configs[0], 3, None)
        };
        let swept = run_trials(&net, &MaxFlowScheduler::default(), &sweep, 4).unwrap();
        assert_eq!(swept.len(), 2);
        for (cfg, row) in configs.iter().zip(&swept) {
            let (s, direct) = (merge_faulted(row).stats, replicated(cfg, 3, 1));
            assert_eq!(s.completed, direct.completed);
            assert_eq!(s.response.mean.to_bits(), direct.response.mean.to_bits());
            let (a, b) = (s.utilization.ci95, direct.utilization.ci95);
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn every_grid_cell_is_its_own_single_trial() {
        // Cell (c, t) of a multi-config faulted grid is exactly the single
        // trial t of config c under the plan the grid draws for it.
        let net = omega(8).unwrap();
        let scheduler = MaxFlowScheduler::default();
        let configs: Vec<DynamicConfig> = [(0.2, 3), (0.5, 9)]
            .iter()
            .map(|&(rate, seed)| DynamicConfig {
                arrival_rate: rate,
                seed,
                priority_levels: 3,
                ..small_cfg()
            })
            .collect();
        let fcfg = FaultPlanConfig::links(0.004, 15.0, small_cfg().sim_time);
        for (faults, policy) in [
            (None, DegradedPolicy::Bfs),
            (Some((&fcfg, FaultModel::Independent)), DegradedPolicy::Bfs),
            (
                Some((&fcfg, FaultModel::Correlated { domain_boxes: 2 })),
                DegradedPolicy::Priced,
            ),
        ] {
            let grid = TrialGrid {
                configs: &configs,
                trials: 3,
                faults,
                policy,
            };
            let rows = run_trials(&net, &scheduler, &grid, 4).unwrap();
            assert_eq!(rows.len(), configs.len());
            for (cfg, row) in configs.iter().zip(&rows) {
                assert_eq!(row.len(), 3);
                for (t, cell) in row.iter().enumerate() {
                    let t = t as u64;
                    let plan = match faults {
                        None => FaultPlan::empty(),
                        Some((f, model)) => {
                            plan_for_model(&net, f, model, fault_plan_seed(cfg.seed, t))
                        }
                    };
                    let single = SystemSim::new(&net, *cfg)
                        .try_run_faulted_trial_policy_probed(
                            &scheduler, &plan, t, policy, &NoopProbe,
                        )
                        .unwrap();
                    assert_eq!(stat_bits(cell), stat_bits(&single), "{policy:?} t={t}");
                }
            }
        }
    }

    #[test]
    fn empty_grids_are_rejected() {
        let net = omega(8).unwrap();
        let scheduler = MaxFlowScheduler::default();
        let cfg = small_cfg();
        let no_trials = grid(&cfg, 0, None);
        assert_eq!(
            run_trials(&net, &scheduler, &no_trials, 2).unwrap_err(),
            SimError::EmptyGrid {
                configs: 1,
                trials: 0
            }
        );
        let no_configs = TrialGrid {
            configs: &[],
            ..grid(&cfg, 3, None)
        };
        assert_eq!(
            run_trials_observed(&net, &scheduler, &no_configs, 2).unwrap_err(),
            SimError::EmptyGrid {
                configs: 0,
                trials: 3
            }
        );
    }

    #[test]
    fn probed_replication_observes_without_disturbing() {
        let net = omega(8).unwrap();
        let cfg = small_cfg();
        let scheduler = MaxFlowScheduler::default();
        let plain = replicated(&cfg, 3, 2);
        let (rows, report) =
            run_trials_observed(&net, &scheduler, &grid(&cfg, 3, None), 2).unwrap();
        let probed = merge_faulted(&rows[0]).stats;
        assert_eq!(plain.completed, probed.completed);
        assert_eq!(
            plain.response.mean.to_bits(),
            probed.response.mean.to_bits()
        );
        // Every replica's cycles land in the merged counters.
        let cycles = report.counters[rsin_obs::Counter::Cycles.index()];
        assert_eq!(cycles, plain.cycles);
        // Per-cell sinks merged in cell order: counters and solver totals
        // do not depend on the thread count.
        let (_, serial) = run_trials_observed(&net, &scheduler, &grid(&cfg, 3, None), 1).unwrap();
        assert_eq!(serial.counters, report.counters);
        let solves = |r: &TelemetryReport| r.solvers.map(|s| (s.solves, s.counts));
        assert!(serial.solvers.iter().any(|s| s.solves > 0));
        assert_eq!(solves(&serial), solves(&report));
    }
}
