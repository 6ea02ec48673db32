//! The two `SystemSim` workloads, one `(seed, trial)` stream per trial:
//!
//! * `dynamic_heavy` — fault-free omega-64 trials at ρ = 0.99 with
//!   bounded (32) queues under the Dinic max-flow scheduler: batch solves
//!   and the event loop dominate near saturation.
//! * `faulted_correlated` — 3dp-omega-16 trials at ρ = 0.9 with four
//!   priority levels under the correlated stage-power-domain fault plan at
//!   the top of the `faults` bin's correlated rate ladder, the SSP min-cost
//!   scheduler, and the priced degraded retry: fault patches, the residual
//!   retry and SSP do the work, and Dinic is bypassed.
//!
//! A run repeats one pool of trials (`0..pool`) as passes, each on a fresh
//! set-up; every pass must reproduce the first pass's stats bit for bit.
//! Each trial's scheduler is wrapped in [`TimedScheduler`], which times
//! every scheduling cycle.

use crate::cli::{Args, Workload};
use crate::report::{best, mean_u64, ratio, rss_peak_mb, FastestPass, LatencyHist, Tally};
use crate::spans::SpanLog;
use crate::timed::{CycleTimes, TimedScheduler};
use crate::{alloc, Budget, Run, MIN_PASSES};
use rsin_core::scheduler::{MaxFlowScheduler, MinCostScheduler, Scheduler};
use rsin_obs::{Counter, Hist, NoopProbe, Probe, Telemetry, TelemetryReport};
use rsin_sim::system::{
    fault_plan_seed, plan_for_model, DegradedPolicy, DynamicConfig, FaultModel, FaultedStats,
    SimError, SystemSim,
};
use rsin_topology::{builders, FaultPlan, FaultPlanConfig, Network};
use std::time::Instant;

// A pass is 80-90k cycles (1-2 s): near saturation consecutive cycles are
// strongly correlated, so a pool this large is what keeps the pool's mean
// work per cycle within ~5 % from seed to seed.
const HEAVY_TIME: f64 = 30.0;
const HEAVY_POOL: u64 = 48;
const FAULT_TIME: f64 = 200.0;
const FAULT_POOL: u64 = 32;
/// Top of the `faults` bin's correlated rate ladder.
const CORRELATED_RATE: f64 = 0.0005;
const MEAN_REPAIR: f64 = 25.0;
const DOMAIN_BOXES: usize = 2;

pub struct Spec {
    pub net: Network,
    pub scheduler: Box<dyn Scheduler>,
    pub cfg: DynamicConfig,
    pub faults: Option<FaultPlanConfig>,
}

impl Spec {
    pub fn plan(&self, trial: u64) -> FaultPlan {
        match &self.faults {
            None => FaultPlan::empty(),
            Some(fcfg) => plan_for_model(
                &self.net,
                fcfg,
                FaultModel::Correlated {
                    domain_boxes: DOMAIN_BOXES,
                },
                fault_plan_seed(self.cfg.seed, trial),
            ),
        }
    }

    pub fn trial(
        &self,
        scheduler: &dyn Scheduler,
        plan: &FaultPlan,
        trial: u64,
        probe: &dyn Probe,
    ) -> Result<FaultedStats, SimError> {
        SystemSim::new(&self.net, self.cfg).try_run_faulted_trial_policy_probed(
            scheduler,
            plan,
            trial,
            DegradedPolicy::Priced,
            probe,
        )
    }
}

/// The workload's network, scheduler, and trial configuration; `sim_time`
/// is the simulated horizon of one trial.
pub fn spec(workload: Workload, seed: u64, sim_time: f64) -> Result<Spec, String> {
    let net = match workload {
        Workload::DynamicHeavy => builders::omega(64),
        _ => builders::omega_3dp(16),
    }
    .map_err(|e| format!("network: {e}"))?;
    let base = DynamicConfig {
        sim_time,
        warmup: sim_time / 10.0,
        seed,
        ..DynamicConfig::default()
    };
    Ok(match workload {
        Workload::DynamicHeavy => Spec {
            net,
            scheduler: Box::new(MaxFlowScheduler::default()),
            cfg: DynamicConfig {
                rho: 0.99,
                queue_capacity: 32,
                ..base
            },
            faults: None,
        },
        _ => Spec {
            net,
            scheduler: Box::new(MinCostScheduler::default()),
            cfg: DynamicConfig {
                rho: 0.9,
                priority_levels: 4,
                ..base
            },
            faults: Some(FaultPlanConfig::links(
                CORRELATED_RATE,
                MEAN_REPAIR,
                sim_time,
            )),
        },
    })
}

/// `(horizon, trials per pass)` of the workload.
fn shape(workload: Workload) -> (f64, u64) {
    match workload {
        Workload::DynamicHeavy => (HEAVY_TIME, HEAVY_POOL),
        _ => (FAULT_TIME, FAULT_POOL),
    }
}

/// One trial through the timing adapter: stats, host time, cycle times.
struct Trial {
    stats: FaultedStats,
    ns: u64,
    cycles: CycleTimes,
}

fn timed_trial(
    spec: &Spec,
    sched: &TimedScheduler<'_>,
    plan: &FaultPlan,
    trial: u64,
    probe: &dyn Probe,
) -> Result<Trial, String> {
    let t0 = Instant::now();
    let stats = spec
        .trial(sched, plan, trial, probe)
        .map_err(|e| format!("trial {trial}: {e}"))?;
    let ns = t0.elapsed().as_nanos() as u64;
    Ok(Trial {
        stats,
        ns,
        cycles: sched.take(),
    })
}

/// One pass's set-up: network build + scheduler + the pool's fault plans.
struct SetUp {
    spec: Spec,
    plans: Vec<FaultPlan>,
    total_s: f64,
    network_s: f64,
    plan_s: f64,
}

fn set_up(args: &Args) -> Result<SetUp, String> {
    let (horizon, pool) = shape(args.workload);
    let t0 = Instant::now();
    let spec = spec(args.workload, args.seed, horizon)?;
    let network_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let plans = (0..pool).map(|trial| spec.plan(trial)).collect();
    let plan_s = t1.elapsed().as_secs_f64();
    Ok(SetUp {
        spec,
        plans,
        total_s: t0.elapsed().as_secs_f64(),
        network_s,
        plan_s,
    })
}

/// Bit-level equality (the stats carry floats and no `PartialEq`).
fn same(a: &FaultedStats, b: &FaultedStats) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// Record a pass's trials against the first pass's: a trial passes its
/// output check when its transform was built once and it reproduces the
/// reference exactly (`aligned` is false when the pass's cycle count
/// already differed).
fn check_pass(
    tally: &mut Tally,
    reference: &mut Option<Vec<FaultedStats>>,
    stats: Vec<FaultedStats>,
    aligned: bool,
) {
    let first = reference.get_or_insert_with(|| stats.clone());
    for (s, r) in stats.iter().zip(first.iter()) {
        tally.record(
            s.stats.cycles,
            aligned && s.transform_rebuilds == 1 && same(s, r),
        );
    }
}

fn mean_of(stats: &[FaultedStats], f: fn(&FaultedStats) -> f64) -> f64 {
    ratio(stats.iter().map(f).sum(), stats.len() as f64)
}

pub fn run(args: &Args) -> Result<Run, String> {
    if args.trace {
        traced(args)
    } else {
        timed(args)
    }
}

fn timed(args: &Args) -> Result<Run, String> {
    let mut tally = Tally::default();
    let window = Budget::new(args.seconds as f64);
    let (mut trials, mut cycles) = (FastestPass::default(), FastestPass::default());
    let mut setups = Vec::new();
    let mut reference = None;
    while setups.len() < MIN_PASSES || window.left() {
        let su = set_up(args)?;
        setups.push(su.total_s);
        let sched = TimedScheduler::new(&*su.spec.scheduler);
        let (mut trial_ns, mut cycle_ns) = (Vec::new(), Vec::new());
        let mut stats = Vec::with_capacity(su.plans.len());
        for (trial, plan) in su.plans.iter().enumerate() {
            let t = timed_trial(&su.spec, &sched, plan, trial as u64, &NoopProbe)?;
            trial_ns.push(t.ns);
            cycle_ns.extend_from_slice(&t.cycles.all_ns);
            stats.push(t.stats);
        }
        let aligned = trials.push(&trial_ns) && cycles.push(&cycle_ns);
        check_pass(&mut tally, &mut reference, stats, aligned);
    }
    let pool = reference.unwrap_or_default();
    let pool_cycles: u64 = pool.iter().map(|s| s.stats.cycles).sum();
    Ok(Run {
        tally,
        values: vec![
            ("setup_s", best(&setups, false)),
            ("rss_peak_mb", rss_peak_mb().ok_or("no /proc/self/status")?),
            (
                "ops_per_s",
                ratio(pool_cycles as f64 * 1e9, trials.total_ns() as f64),
            ),
            ("op_mean_us", cycles.mean_us()),
            ("op_p99_us", cycles.p99_us()),
            ("model_quality", mean_of(&pool, |s| s.stats.utilization)),
        ],
    })
}

/// The `flow.*` metrics from a telemetry report, per scheduling cycle.
pub fn flow_metrics(report: &TelemetryReport, cycles: u64) -> Vec<(&'static str, f64)> {
    let per = |x: u64| ratio(x as f64, cycles as f64);
    let sum = |f: fn(&rsin_obs::telemetry::SolverReport) -> u64| -> u64 {
        report.solvers.iter().map(f).sum()
    };
    vec![
        ("flow.solves_per_cycle", per(sum(|s| s.solves))),
        (
            "flow.solve_ns_mean",
            report.hists[Hist::SolveLatencyNs.index()].mean(),
        ),
        ("flow.arc_scans_per_cycle", per(sum(|s| s.counts.arc_scans))),
        (
            "flow.augmentations_per_cycle",
            per(sum(|s| s.counts.augmentations)),
        ),
        ("flow.phases_per_cycle", per(sum(|s| s.counts.phases))),
        (
            "flow.dinic_level_arc_scans_per_cycle",
            per(report.counters[Counter::DinicLevelArcScans.index()]),
        ),
        (
            "flow.dinic_blocking_arc_scans_per_cycle",
            per(report.counters[Counter::DinicBlockingArcScans.index()]),
        ),
    ]
}

fn traced(args: &Args) -> Result<Run, String> {
    let mut tally = Tally::default();
    let spans = SpanLog::new();
    let telemetry = Telemetry::new();
    let (mut network_s, mut plan_s) = (Vec::new(), Vec::new());
    let window = Budget::new(args.seconds as f64);
    let mut rates = Vec::new();
    let mut cycle_hist = LatencyHist::default();
    let (mut plain_trial_ns, mut plain_cycle_ns, mut plain_cycles) = (0u64, 0u64, 0u64);
    let mut degraded_ns = Vec::new();
    let (mut traced_trial_ns, mut traced_cycle_ns, mut traced_cycles) = (0u64, 0u64, 0u64);
    let (mut allocs, mut bytes) = (0u64, 0u64);
    let mut reference = None;
    let mut op = 0;
    while network_s.len() < MIN_PASSES || window.left() {
        let su = set_up(args)?;
        network_s.push(su.network_s);
        plan_s.push(su.plan_s);
        let spec = &su.spec;
        let (mut pass_cycles, mut pass_ns) = (0, 0);
        let mut stats = Vec::with_capacity(su.plans.len());
        for (trial, plan) in su.plans.iter().enumerate() {
            let trial = trial as u64;
            let plain = TimedScheduler::new(&*spec.scheduler);
            let p = timed_trial(spec, &plain, plan, trial, &NoopProbe)?;
            pass_cycles += p.stats.stats.cycles;
            pass_ns += p.ns;
            plain_cycles += p.stats.stats.cycles;
            plain_cycle_ns += p.cycles.all_ns.iter().sum::<u64>();
            for &ns in &p.cycles.all_ns {
                cycle_hist.record(ns);
            }
            degraded_ns.extend_from_slice(&p.cycles.degraded_ns);

            // The same trial again, traced: spans per cycle, live
            // telemetry, counted allocations. Observation must not change
            // a single stat.
            let t = {
                let _s = spans.enter("rsin-sim::system.trial", op);
                let sched = TimedScheduler::traced(&*spec.scheduler, &spans, op);
                let before = alloc::snapshot();
                alloc::enable(true);
                let t = timed_trial(spec, &sched, plan, trial, &telemetry);
                alloc::enable(false);
                let after = alloc::snapshot();
                allocs += after.0 - before.0;
                bytes += after.1 - before.1;
                t?
            };
            op += 1;
            traced_trial_ns += t.ns;
            traced_cycles += t.stats.stats.cycles;
            traced_cycle_ns += t.cycles.all_ns.iter().sum::<u64>();
            tally.record(t.stats.stats.cycles, same(&p.stats, &t.stats));
            stats.push(p.stats);
        }
        plain_trial_ns += pass_ns;
        rates.push(pass_cycles as f64 * 1e9 / pass_ns as f64);
        check_pass(&mut tally, &mut reference, stats, true);
    }
    spans
        .write_json(
            &std::path::Path::new(crate::TRACE_DIR)
                .join(format!("trace-{}.json", args.workload.name())),
            args.workload.name(),
        )
        .map_err(|e| format!("writing spans: {e}"))?;
    let pool = reference.unwrap_or_default();
    let report = telemetry.report();
    let counter = |c: Counter| report.counters[c.index()];
    let solve_ns = report.hists[Hist::SolveLatencyNs.index()].sum;
    let mut values = vec![
        ("failed_frac", tally.failed_frac()),
        ("sim.cycles_per_s", best(&rates, true)),
        ("sim.utilization", mean_of(&pool, |s| s.stats.utilization)),
        (
            "sim.mean_blocking",
            mean_of(&pool, |s| s.stats.mean_blocking),
        ),
        ("sim.response_p99", mean_of(&pool, |s| s.stats.response_p99)),
        ("scheduler.cycle_ns_mean", cycle_hist.mean()),
        ("scheduler.cycle_ns_p99", cycle_hist.quantile(0.99)),
        (
            "scheduler.share_of_trial",
            ratio(plain_cycle_ns as f64, plain_trial_ns as f64),
        ),
        (
            "scheduler.self_ns_per_cycle",
            ratio(
                traced_cycle_ns as f64 - solve_ns as f64,
                traced_cycles as f64,
            ),
        ),
        (
            "transform.rebuilds",
            pool.iter().map(|s| s.transform_rebuilds).max().unwrap_or(0) as f64,
        ),
        (
            "degraded.cycle_frac",
            ratio(
                counter(Counter::DegradedCycles) as f64,
                counter(Counter::Cycles) as f64,
            ),
        ),
        ("degraded.cycle_ns_mean", mean_u64(&degraded_ns)),
        (
            "degraded.recovered",
            mean_of(&pool, |s| s.recovered_total as f64),
        ),
        ("degraded.shed", mean_of(&pool, |s| s.shed_total as f64)),
        (
            "sim.loop_ns_per_cycle",
            ratio(
                plain_trial_ns as f64 - plain_cycle_ns as f64,
                plain_cycles as f64,
            ),
        ),
        ("sim.mean_queue", mean_of(&pool, |s| s.stats.mean_queue)),
        (
            "fault.events_per_trial",
            mean_of(&pool, |s| (s.failures + s.repairs) as f64),
        ),
        ("setup.fault_plan_s", best(&plan_s, false)),
        ("setup.network_build_s", best(&network_s, false)),
        (
            "alloc.count_per_op",
            ratio(allocs as f64, traced_cycles as f64),
        ),
        (
            "alloc.bytes_per_op",
            ratio(bytes as f64, traced_cycles as f64),
        ),
        (
            "trace.overhead_ratio",
            ratio(traced_trial_ns as f64, plain_trial_ns as f64),
        ),
    ];
    values.extend(flow_metrics(&report, traced_cycles));
    Ok(Run { tally, values })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The timing adapter measures the same program: a wrapped trial's
    /// `FaultedStats` are bit-identical to a bare trial's on both sim
    /// workloads (short horizons keep the test fast).
    #[test]
    fn wrapped_trials_are_bit_identical_to_bare_trials() {
        for (workload, horizon) in [
            (Workload::DynamicHeavy, 8.0),
            (Workload::FaultedCorrelated, 120.0),
        ] {
            for seed in [1, 2] {
                let spec = spec(workload, seed, horizon).unwrap();
                let plan = spec.plan(0);
                let bare = spec.trial(&*spec.scheduler, &plan, 0, &NoopProbe).unwrap();
                let timed = TimedScheduler::new(&*spec.scheduler);
                let wrapped = spec.trial(&timed, &plan, 0, &NoopProbe).unwrap();
                assert!(same(&bare, &wrapped), "{workload:?}");
                let s = (&bare.stats, &wrapped.stats);
                assert_eq!(s.0.utilization.to_bits(), s.1.utilization.to_bits());
                assert_eq!(s.0.mean_blocking.to_bits(), s.1.mean_blocking.to_bits());
                assert_eq!(s.0.response_p99.to_bits(), s.1.response_p99.to_bits());
                let times = timed.take();
                assert_eq!(times.all_ns.len() as u64, wrapped.stats.cycles);
                assert!(bare.stats.cycles > 0, "{workload:?}: trial ran no cycles");
                if workload == Workload::FaultedCorrelated {
                    assert!(bare.failures > 0, "seed {seed}: plan injected no faults");
                    assert!(!times.degraded_ns.is_empty(), "no degraded cycle timed");
                }
            }
        }
    }
}
