//! Layered benchmark for the RSIN scheduler.
//!
//! `rsin-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! builds the workload's inputs from the seed, measures for the given
//! number of seconds, checks every output, and prints one JSON result line
//! last on stdout. With `--trace 0` it reports the end-to-end metrics of
//! `BENCHMARK.json`; with `--trace 1` the per-layer metrics, from a run
//! that also records spans around every layer call (written to
//! `perfbench/out/trace-<workload>.json`), counts allocations, and passes a
//! live `rsin_obs::Telemetry` sink to the libraries' observed entry points.
//! `LAYERS.md` maps each layer to the workloads that load it.

mod alloc;
mod cli;
mod report;
mod serve;
mod sharded;
mod sim;
mod spans;
mod timed;

use report::{result_json, Metrics, Tally};
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_mean_us", "us"),
    ("op_p99_us", "us"),
    ("model_quality", "ratio"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a layer
/// the workload leaves idle reports 0.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("failed_frac", "ratio"),
    ("serve.decisions_per_s", "1/s"),
    ("decide.p50_ns", "ns"),
    ("decide.p99_ns", "ns"),
    ("sim.cycles_per_s", "1/s"),
    ("sim.utilization", "ratio"),
    ("sim.mean_blocking", "ratio"),
    ("sim.response_p99", "time_units"),
    ("shard.cycles_per_s", "1/s"),
    ("shard.cycle_p50_us", "us"),
    ("shard.cycle_p99_us", "us"),
    ("shard.alloc_vs_flat", "ratio"),
    ("serve.pipeline_ns_per_decision", "ns"),
    ("stream.format_ns_per_line", "ns"),
    ("incremental.request_ns_mean", "ns"),
    ("incremental.release_ns_mean", "ns"),
    ("incremental.allocs_per_1k", "count"),
    ("incremental.queues_per_1k", "count"),
    ("incremental.promotes_per_1k", "count"),
    ("flow.solves_per_cycle", "count"),
    ("flow.solve_ns_mean", "ns"),
    ("flow.arc_scans_per_cycle", "count"),
    ("flow.augmentations_per_cycle", "count"),
    ("flow.phases_per_cycle", "count"),
    ("flow.dinic_level_arc_scans_per_cycle", "count"),
    ("flow.dinic_blocking_arc_scans_per_cycle", "count"),
    ("scheduler.cycle_ns_mean", "ns"),
    ("scheduler.cycle_ns_p99", "ns"),
    ("scheduler.share_of_trial", "ratio"),
    ("scheduler.self_ns_per_cycle", "ns"),
    ("transform.rebuilds", "count"),
    ("degraded.cycle_frac", "ratio"),
    ("degraded.cycle_ns_mean", "ns"),
    ("degraded.recovered", "count"),
    ("degraded.shed", "count"),
    ("sim.loop_ns_per_cycle", "ns"),
    ("sim.mean_queue", "count"),
    ("fault.events_per_trial", "count"),
    ("setup.fault_plan_s", "s"),
    ("setup.network_build_s", "s"),
    ("hier.place_ns_mean", "ns"),
    ("hier.solve_shards_ns_mean", "ns"),
    ("hier.solve_shard_ns_p99", "ns"),
    ("hier.reduce_ns_mean", "ns"),
    ("hier.remote_per_cycle", "count"),
    ("hier.stage1_blocked_per_cycle", "count"),
    ("hier.flat_oracle_ns_mean", "ns"),
    ("alloc.count_per_op", "count"),
    ("alloc.bytes_per_op", "B"),
    ("trace.overhead_ratio", "ratio"),
];

/// Where the traced run writes its spans, relative to the checkout root.
pub const TRACE_DIR: &str = "perfbench/out";

/// Passes over the workload's pool that every run completes, however short
/// its window, so the per-pass statistics always have samples.
pub const MIN_PASSES: usize = 5;

/// What one workload run hands back: the output-check tally and its
/// metrics (by the names above; units are attached here).
pub struct Run {
    pub tally: Tally,
    pub values: Vec<(&'static str, f64)>,
}

/// A measurement window of fixed length.
pub struct Budget {
    end: Instant,
}

impl Budget {
    pub fn new(seconds: f64) -> Self {
        Budget {
            end: Instant::now() + Duration::from_secs_f64(seconds),
        }
    }

    pub fn left(&self) -> bool {
        Instant::now() < self.end
    }
}

/// Order the workload's values by the declared metric list, attach units,
/// and fill idle layers with 0. A value under an undeclared name, or a
/// missing end-to-end value, is a bug in this benchmark.
fn assemble(run: &Run, trace: bool) -> Result<Metrics, String> {
    let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    if let Some((name, _)) = run
        .values
        .iter()
        .find(|(n, _)| !declared.iter().any(|(d, _)| d == n))
    {
        return Err(format!("workload reported undeclared metric {name:?}"));
    }
    let mut metrics = Metrics::default();
    for &(name, unit) in declared {
        let value = run.values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
        match value {
            Some(v) => metrics.put(name, v, unit),
            None if trace => metrics.put(name, 0.0, unit),
            None => return Err(format!("workload did not report {name:?}")),
        }
    }
    Ok(metrics)
}

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload {
        cli::Workload::ServeStream => serve::run(&args),
        cli::Workload::DynamicHeavy | cli::Workload::FaultedCorrelated => sim::run(&args),
        cli::Workload::ShardedCycle => sharded::run(&args),
    };
    let metrics = match run.and_then(|r| assemble(&r, args.trace).map(|m| (r.tally, m))) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let (tally, metrics) = metrics;
    let bad = metrics.non_finite();
    if !bad.is_empty() {
        eprintln!("error: non-finite metric values: {bad:?}");
        return ExitCode::FAILURE;
    }
    let correct = tally.failed == 0 && tally.attempted > 0;
    println!("{}", result_json(correct, tally, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "error: {} of {} operations failed an output check",
            tally.failed, tally.attempted
        );
        ExitCode::FAILURE
    }
}
