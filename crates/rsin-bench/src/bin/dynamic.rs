//! DYNAMIC — the Section II system model under load.
//!
//! A discrete-event simulation of the full resource-sharing system (Poisson
//! arrivals, one task per processor at a time, circuit released after
//! transmission, resource busy until completion), sweeping the offered load
//! and comparing the optimal scheduler against greedy routing on resource
//! utilization and response time (mean and tail p99).
//!
//! Usage: `dynamic [--telemetry <path>] [--json <path>] [--replicas <n>]
//! [--threads <n>] [--heavy] [horizon]`
//!
//! `horizon` is the simulated time per trial (default 3000); `--threads`
//! defaults to the host's parallelism. Any other argument exits with code 2.
//!
//! With `--heavy`, a second table runs the heavy-traffic regime: the
//! utilization-targeting ρ knob sweeps {0.9, 0.95, 0.99, 1.05} with bursty
//! batch-4 arrivals and a 64-deep bounded per-processor queue, reporting
//! queue growth (horizon-end backlog), shed rate, and response-time p99 per
//! scheduler. Heavy rows ride the same replication machinery, so they are
//! bit-identical for any `--threads` value and join the `--json` report.
//!
//! Every sweep point runs `--replicas` independent `(seed, replica)`
//! replications (default 1, which reproduces the single-run sweep
//! bit-for-bit), flattened with the load axis onto one worker pool and
//! merged in replica order — so the table and the `--json` report are
//! **bit-identical for any `--threads` value**. The JSON deliberately omits
//! the thread count; the CI determinism job byte-compares the file across
//! thread counts.
//!
//! With `--telemetry <path>`, a replicated probed run (omega-8, max-flow,
//! load 0.5) re-executes after the sweep, each replica recording into its
//! own `rsin_obs::Telemetry` sink; the reports are merged in replica order,
//! their stage table (flow cycle and sim loop) is printed, and the merged
//! report is written as JSON to the given path.

use rsin_bench::{
    emit_stage_table, emit_table, json_report, json_row, json_str, network_by_name, parse_or_exit,
    reject_stray, take_flag, write_report,
};
use rsin_core::scheduler::{GreedyScheduler, MaxFlowScheduler, RequestOrder, Scheduler};
use rsin_sim::replicate::{
    merge_faulted, run_trials, run_trials_observed, ReplicatedStats, TrialGrid,
};
use rsin_sim::system::{DegradedPolicy, DynamicConfig};

const LOADS: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];

/// Heavy-traffic utilization targets: near-critical to past saturation.
const RHOS: [f64; 4] = [0.9, 0.95, 0.99, 1.05];

/// Pop a bare `--flag` out of `args`; returns whether it was present.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    let i = args.iter().position(|a| a == flag);
    i.map(|i| args.remove(i)).is_some()
}

/// Fault-free replicated sweep: one merged row per configuration.
fn sweep(
    net: &rsin_topology::Network,
    scheduler: &dyn Scheduler,
    configs: &[DynamicConfig],
    replicas: usize,
    threads: usize,
) -> Vec<ReplicatedStats> {
    let grid = TrialGrid {
        configs,
        trials: replicas,
        faults: None,
        policy: DegradedPolicy::Bfs,
    };
    run_trials(net, scheduler, &grid, threads)
        .expect("dynamic sweep")
        .iter()
        .map(|row| merge_faulted(row).stats)
        .collect()
}

fn sweep_row(load: f64, scheduler: &str, s: &ReplicatedStats) -> String {
    json_row(&[
        ("arrival_rate", &load),
        ("scheduler", &json_str(scheduler)),
        ("utilization", &s.utilization.mean),
        ("utilization_ci95", &s.utilization.ci95),
        ("response", &s.response.mean),
        ("response_ci95", &s.response.ci95),
        ("response_p99", &s.response.p99),
        ("mean_queue", &s.mean_queue.mean),
        ("mean_blocking", &s.mean_blocking.mean),
        ("completed", &s.completed),
        ("cycles", &s.cycles),
    ])
}

/// Fraction of offered tasks dropped at a full bounded queue. The
/// denominator counts every task that reached a verdict by the horizon:
/// completed, still queued, or shed.
fn shed_rate(s: &ReplicatedStats) -> f64 {
    let offered = s.completed + s.final_queue.mean as u64 * s.replicas + s.shed_arrivals;
    if offered == 0 {
        0.0
    } else {
        s.shed_arrivals as f64 / offered as f64
    }
}

fn heavy_row(rho: f64, scheduler: &str, s: &ReplicatedStats) -> String {
    json_row(&[
        ("rho", &rho),
        ("scheduler", &json_str(scheduler)),
        ("utilization", &s.utilization.mean),
        ("response_p99", &s.response.p99),
        ("mean_queue", &s.mean_queue.mean),
        ("final_queue", &s.final_queue.mean),
        ("shed_arrivals", &s.shed_arrivals),
        ("shed_rate", &shed_rate(s)),
        ("completed", &s.completed),
    ])
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let telemetry_path = take_flag(&mut args, "--telemetry");
    let json_path = take_flag(&mut args, "--json");
    let heavy = take_switch(&mut args, "--heavy");
    let replicas: usize = take_flag(&mut args, "--replicas")
        .map_or(1, |v| parse_or_exit("--replicas", &v))
        .max(1);
    let threads: usize = take_flag(&mut args, "--threads").map_or_else(
        || std::thread::available_parallelism().map_or(1, |n| n.get()),
        |v| parse_or_exit("--threads", &v),
    );
    reject_stray(&args, 1);
    let horizon: f64 = args.first().map_or(3000.0, |a| parse_or_exit("horizon", a));
    let net = network_by_name("omega-8").unwrap();
    let optimal = MaxFlowScheduler::default();
    let greedy = GreedyScheduler::new(RequestOrder::Shuffled(5));
    let schedulers: Vec<&dyn Scheduler> = vec![&optimal, &greedy];
    println!(
        "DYNAMIC — omega-8, horizon {horizon}, mean service 1.0, mean transmission 0.2, \
         {replicas} replica(s), {threads} worker thread(s)\n"
    );
    let configs: Vec<DynamicConfig> = LOADS
        .iter()
        .map(|&load| DynamicConfig {
            arrival_rate: load,
            mean_transmission: 0.2,
            mean_service: 1.0,
            sim_time: horizon,
            warmup: horizon * 0.1,
            seed: 42,
            ..DynamicConfig::default()
        })
        .collect();
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    // The (load × replica) grid runs in parallel per scheduler; row order
    // (and every statistic) is independent of the thread count because each
    // replica is a pure function of (seed, replica) and the merges run
    // sequentially in replica order.
    for s in &schedulers {
        let merged = sweep(&net, *s, &configs, replicas, threads);
        for (load, stats) in LOADS.iter().zip(&merged) {
            rows.push(vec![
                format!("{load:.1}"),
                s.name().to_string(),
                format!("{:.3}", stats.utilization.mean),
                format!("{:.3}", stats.response.mean),
                format!("{:.3}", stats.response.ci95),
                format!("{:.3}", stats.response.p99),
                format!("{:.2}", stats.mean_queue.mean),
                format!("{:.3}", stats.mean_blocking.mean),
                stats.completed.to_string(),
            ]);
            json_rows.push(sweep_row(*load, s.name(), stats));
        }
    }
    emit_table(
        "dynamic",
        &[
            "arrival rate",
            "scheduler",
            "utilization",
            "response",
            "resp ci95",
            "resp p99",
            "queue",
            "cycle blocking",
            "completed",
        ],
        &rows,
    );
    let mut heavy_json_rows = Vec::new();
    if heavy {
        // Heavy-traffic regime: utilization-targeted ρ from near-critical
        // to past saturation, bursty batch-4 arrivals, 64-deep bounded
        // queues. Same replication machinery as the main sweep, so every
        // number is thread-count independent.
        let heavy_configs: Vec<DynamicConfig> = RHOS
            .iter()
            .map(|&rho| DynamicConfig {
                rho,
                batch_size: 4,
                queue_capacity: 64,
                mean_transmission: 0.2,
                mean_service: 1.0,
                sim_time: horizon,
                warmup: horizon * 0.1,
                seed: 42,
                ..DynamicConfig::default()
            })
            .collect();
        let mut heavy_rows = Vec::new();
        for s in &schedulers {
            let merged = sweep(&net, *s, &heavy_configs, replicas, threads);
            for (rho, stats) in RHOS.iter().zip(&merged) {
                heavy_rows.push(vec![
                    format!("{rho:.2}"),
                    s.name().to_string(),
                    format!("{:.3}", stats.utilization.mean),
                    format!("{:.3}", stats.response.p99),
                    format!("{:.2}", stats.mean_queue.mean),
                    format!("{:.1}", stats.final_queue.mean),
                    stats.shed_arrivals.to_string(),
                    format!("{:.4}", shed_rate(stats)),
                    stats.completed.to_string(),
                ]);
                heavy_json_rows.push(heavy_row(*rho, s.name(), stats));
            }
        }
        println!();
        emit_table(
            "dynamic-heavy",
            &[
                "rho",
                "scheduler",
                "utilization",
                "resp p99",
                "queue",
                "final queue",
                "shed",
                "shed rate",
                "completed",
            ],
            &heavy_rows,
        );
    }
    if let Some(jpath) = json_path {
        // No thread count in here: the report must be byte-identical
        // however many workers produced it (the CI determinism job diffs
        // it across --threads values).
        let json = json_report(
            &[
                ("source", &json_str("dynamic")),
                ("network", &json_str("omega-8")),
                ("horizon", &horizon),
                ("replicas", &replicas),
                ("seed", &42),
            ],
            &[("rows", &json_rows), ("heavy_rows", &heavy_json_rows)],
        );
        write_report(&jpath, "report", &json);
    }
    if let Some(tpath) = telemetry_path {
        // A replicated probed run at the middle of the sweep; probes only
        // observe, so the table above is unaffected, and per-replica sinks
        // merged in replica order keep counters/events thread-count
        // independent (span latencies stay wall-clock).
        let cfg = DynamicConfig {
            arrival_rate: 0.5,
            mean_transmission: 0.2,
            mean_service: 1.0,
            sim_time: horizon,
            warmup: horizon * 0.1,
            seed: 42,
            ..DynamicConfig::default()
        };
        let grid = TrialGrid {
            configs: &[cfg],
            trials: replicas,
            faults: None,
            policy: DegradedPolicy::Bfs,
        };
        let (_, report) =
            run_trials_observed(&net, &optimal, &grid, threads).expect("telemetry capture");
        println!("\ntelemetry stages — omega-8 / max-flow / load 0.5 ({replicas} replica(s))");
        emit_stage_table("telemetry-stages", &report);
        write_report(
            &tpath,
            &format!("telemetry (omega-8 / max-flow / load 0.5, {replicas} replica(s))"),
            &report.to_json("dynamic"),
        );
    }
    println!(
        "\nshape: utilization rises with load toward saturation; the optimal \
         scheduler sustains it with equal or lower response time than greedy."
    );
}
