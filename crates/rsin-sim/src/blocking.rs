//! Monte-Carlo blocking-probability experiments (the paper's headline
//! numbers).
//!
//! A trial draws a random snapshot (requesting processors, free resources,
//! optional pre-occupied circuits), runs one scheduler for one scheduling
//! cycle, and records the *blocking fraction* `1 − allocated / min(x, y)`.
//! Averaging over many trials reproduces the comparison of Section II:
//! optimal flow-based mapping ≈ 2 % blocking vs heuristic routing ≈ 20 %
//! on an 8×8 cube MRSIN with a free network, and < 5 % on the Omega.

use crate::metrics::{Sample, Summary};
use crate::workload::{random_snapshot, trial_rng};
use rsin_core::model::ScheduleProblem;
use rsin_core::scheduler::{ScheduleError, ScheduleScratch, Scheduler};
use rsin_topology::Network;

/// Parameters of a blocking experiment.
#[derive(Debug, Clone, Copy)]
pub struct BlockingConfig {
    /// Monte-Carlo trials.
    pub trials: u64,
    /// Requesting processors per trial (capped by availability).
    pub requests: usize,
    /// Free resources per trial.
    pub resources: usize,
    /// Pre-established circuits per trial (network load).
    pub occupied_circuits: usize,
    /// Base RNG seed.
    pub seed: u64,
}

/// Aggregated results of a blocking experiment.
#[derive(Debug, Clone, Copy)]
pub struct BlockingStats {
    /// Blocking fraction (mean ± CI over trials).
    pub blocking: Summary,
    /// Mean resources allocated per trial.
    pub allocated: Summary,
    /// Trials in which at least one request was blocked.
    pub trials_with_blocking: u64,
}

/// What one trial contributes to the aggregate, kept per-trial so trials can
/// be farmed out to worker threads and reduced afterwards in trial order.
#[derive(Debug, Clone, Copy, Default)]
struct TrialResult {
    blocking: f64,
    allocated: f64,
}

/// Whether a run of `trials` trials can hold its per-trial results: the
/// pool keeps one slot per trial until the reduction. A caller checks this
/// before starting work, so an oversized count is an error it can report
/// rather than an allocation failure mid-run.
pub fn trials_fit(trials: u64) -> bool {
    usize::try_from(trials).is_ok_and(crate::pool::table_fits::<Result<TrialResult, ScheduleError>>)
}

/// One Monte-Carlo trial. A pure function of `(net, scheduler, cfg, trial)`:
/// the RNG stream is derived from `(seed, trial)` alone and the scratch only
/// caches topology-dependent structures, so the result is independent of
/// which worker runs the trial and of whatever the scratch solved before.
fn run_trial(
    net: &Network,
    scheduler: &dyn Scheduler,
    cfg: &BlockingConfig,
    trial: u64,
    scratch: &mut ScheduleScratch,
) -> Result<TrialResult, ScheduleError> {
    let mut rng = trial_rng(cfg.seed, trial);
    let snap = random_snapshot(
        net,
        cfg.requests,
        cfg.resources,
        cfg.occupied_circuits,
        &mut rng,
    );
    let problem = ScheduleProblem::homogeneous(&snap.circuits, &snap.requesting, &snap.free);
    let denom = snap.requesting.len().min(snap.free.len());
    let out = scheduler.try_schedule_reusing(&problem, scratch)?;
    debug_assert!(
        rsin_core::mapping::verify(&out.assignments, &problem).is_ok(),
        "scheduler produced an invalid mapping"
    );
    Ok(TrialResult {
        blocking: out.blocking_fraction(denom),
        allocated: out.allocated() as f64,
    })
}

/// Run the experiment for one scheduler on one topology (single-threaded;
/// see [`run_blocking_threads`] for the parallel variant — both produce
/// bit-identical statistics).
pub fn run_blocking(
    net: &Network,
    scheduler: &dyn Scheduler,
    cfg: &BlockingConfig,
) -> Result<BlockingStats, ScheduleError> {
    run_blocking_threads(net, scheduler, cfg, 1)
}

/// [`run_blocking`] with the trials pulled from a shared cursor by
/// `threads` scoped workers (see [`crate::pool`]).
///
/// Determinism contract: every trial seeds its own RNG stream from
/// `(cfg.seed, trial)` and writes its result into a slot indexed by trial
/// number; the Welford reduction then runs sequentially in trial order.
/// Because the reduction — not the trial execution order — fixes the
/// floating-point evaluation order, the returned [`BlockingStats`] is
/// bit-identical for any thread count, including 1. The first failing
/// trial's error, in trial order, is returned instead.
pub fn run_blocking_threads(
    net: &Network,
    scheduler: &dyn Scheduler,
    cfg: &BlockingConfig,
    threads: usize,
) -> Result<BlockingStats, ScheduleError> {
    let results = crate::pool::run_indexed_with(
        cfg.trials as usize,
        threads,
        ScheduleScratch::new,
        |scratch, trial| run_trial(net, scheduler, cfg, trial as u64, scratch),
    );
    // Sequential reduction in trial order: Welford accumulation is not
    // associative, so folding per-worker partials would make the statistics
    // depend on the partition. Folding the per-trial records here does not.
    let mut blocking = Sample::new();
    let mut allocated = Sample::new();
    let mut trials_with_blocking = 0;
    for r in results {
        let r = r?;
        blocking.push(r.blocking);
        allocated.push(r.allocated);
        if r.blocking > 0.0 {
            trials_with_blocking += 1;
        }
    }
    Ok(BlockingStats {
        blocking: Summary::from(&blocking),
        allocated: Summary::from(&allocated),
        trials_with_blocking,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsin_core::scheduler::{GreedyScheduler, MaxFlowScheduler, RequestOrder};
    use rsin_topology::builders::{generalized_cube, omega};

    #[test]
    fn optimal_beats_or_ties_heuristic_everywhere() {
        let net = generalized_cube(8).unwrap();
        let cfg = BlockingConfig {
            trials: 300,
            requests: 6,
            resources: 6,
            occupied_circuits: 0,
            seed: 11,
        };
        let opt = run_blocking(&net, &MaxFlowScheduler::default(), &cfg).unwrap();
        let heu =
            run_blocking(&net, &GreedyScheduler::new(RequestOrder::Shuffled(5)), &cfg).unwrap();
        assert!(
            opt.blocking.mean <= heu.blocking.mean + 1e-12,
            "optimal {} vs heuristic {}",
            opt.blocking.mean,
            heu.blocking.mean
        );
    }

    #[test]
    fn optimal_blocking_is_small_on_free_omega() {
        // The paper: < 5 % blockages on a typical Omega with optimal
        // scheduling (free network).
        let net = omega(8).unwrap();
        let cfg = BlockingConfig {
            trials: 400,
            requests: 5,
            resources: 5,
            occupied_circuits: 0,
            seed: 13,
        };
        let opt = run_blocking(&net, &MaxFlowScheduler::default(), &cfg).unwrap();
        assert!(opt.blocking.mean < 0.10, "blocking {}", opt.blocking.mean);
    }

    #[test]
    fn occupancy_increases_blocking() {
        let net = omega(8).unwrap();
        let base = BlockingConfig {
            trials: 200,
            requests: 4,
            resources: 4,
            occupied_circuits: 0,
            seed: 17,
        };
        let loaded = BlockingConfig {
            occupied_circuits: 3,
            ..base
        };
        let free = run_blocking(&net, &MaxFlowScheduler::default(), &base).unwrap();
        let busy = run_blocking(&net, &MaxFlowScheduler::default(), &loaded).unwrap();
        assert!(busy.blocking.mean >= free.blocking.mean);
    }

    #[test]
    fn thread_count_does_not_change_statistics() {
        // The determinism contract: identical BlockingStats — bit for bit —
        // for 1, 2, and 8 workers, for an optimal and a heuristic scheduler.
        let net = omega(8).unwrap();
        let cfg = BlockingConfig {
            trials: 97, // deliberately not a multiple of the thread counts
            requests: 5,
            resources: 5,
            occupied_circuits: 2,
            seed: 23,
        };
        let schedulers: [&dyn rsin_core::scheduler::Scheduler; 2] =
            [&MaxFlowScheduler::default(), &GreedyScheduler::default()];
        for s in schedulers {
            let one = run_blocking_threads(&net, s, &cfg, 1).unwrap();
            for threads in [2, 3, 8] {
                let many = run_blocking_threads(&net, s, &cfg, threads).unwrap();
                assert_eq!(one.blocking.mean.to_bits(), many.blocking.mean.to_bits());
                assert_eq!(one.blocking.ci95.to_bits(), many.blocking.ci95.to_bits());
                assert_eq!(one.allocated.mean.to_bits(), many.allocated.mean.to_bits());
                assert_eq!(one.allocated.ci95.to_bits(), many.allocated.ci95.to_bits());
                assert_eq!(one.blocking.n, many.blocking.n);
                assert_eq!(one.trials_with_blocking, many.trials_with_blocking);
            }
        }
    }

    #[test]
    fn more_threads_than_trials_is_fine() {
        let net = omega(8).unwrap();
        let cfg = BlockingConfig {
            trials: 3,
            requests: 4,
            resources: 4,
            occupied_circuits: 0,
            seed: 29,
        };
        let a = run_blocking_threads(&net, &MaxFlowScheduler::default(), &cfg, 16).unwrap();
        let b = run_blocking(&net, &MaxFlowScheduler::default(), &cfg).unwrap();
        assert_eq!(a.blocking.mean.to_bits(), b.blocking.mean.to_bits());
        assert_eq!(a.blocking.n, 3);
    }
}
