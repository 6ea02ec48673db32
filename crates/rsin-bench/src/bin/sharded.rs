//! SHARDED — hierarchical two-level scheduling over an MRSIN-of-MRSINs.
//!
//! Sweeps shard count × global topology × offered load over the sharded
//! composition, running the two-stage
//! [`rsin_core::scheduler::HierarchicalScheduler`] (inter-shard
//! placement, then per-shard zero-rebuild solves in shard order) and
//! reporting blocking, allocation, and cross-shard traffic. At the
//! top of the sweep (16 shards × omega-16 locals) the flattened fabric has
//! thousands of box ports, and across a sweep the scheduler decides on the
//! order of 10⁵ concurrent requests.
//!
//! Usage: `sharded [--shards CSV] [--local N] [--global crossbar|omega|both]
//! [--policy token|mincost|both] [--trials N] [--threads N]
//! [--seed S] [--json FILE] [--breakdown FILE]`
//!
//! With `--breakdown <path>`, one bounded observed capture re-runs after the
//! sweep at the largest shard count (first global/policy, load 0.9) with a
//! per-shard [`rsin_obs::Telemetry`] sink attached to every shard
//! ([`HierarchicalScheduler::observed`]); the merged
//! [`rsin_core::ShardBreakdown`] report — home/remote placement counters,
//! per-shard solve-latency histograms, and the occupancy-imbalance ratio —
//! is written to the given path and summarised on stdout: one row per
//! shard, then one row per stage of the shard solves (solve, configure,
//! extract, and finish where it fires) with its sample count, mean and
//! p99 from the merged report. Sinks only observe, so the sweep's numbers
//! are unaffected.
//!
//! Determinism contract: every statistic in the table and in the `--json`
//! report is a pure function of `(seed, trial)` with sequential trial-order
//! and shard-order reductions, so the JSON file is **byte-identical for any
//! `--threads` value** (the CI `shard-determinism` job byte-compares it
//! across thread counts). Wall-clock throughput
//! (decisions/sec) goes to stdout only and never into the JSON.
//!
//! Every sweep point asserts the per-shard rebuild invariant: each worker's
//! per-shard transformation graph is built exactly once, however many
//! trials it ran.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use rsin_bench::{
    emit_stage_table, emit_table, json_report, json_row, json_str, parse_or_exit, take_flag,
    usage_error, write_report,
};
use rsin_core::scheduler::{HierarchicalScheduler, InterShardPolicy};
use rsin_obs::Counter;
use rsin_sim::sharded::{run_sharded_trials, sharded_snapshot, ShardedStats, ShardedTrialConfig};
use rsin_sim::workload::trial_rng;
use rsin_topology::{GlobalTopology, ShardedNetwork, ShardedSpec};
use std::time::Instant;

const LOADS: [f64; 3] = [0.25, 0.5, 0.9];

struct SweepPoint {
    shards: usize,
    local: usize,
    global: GlobalTopology,
    policy: InterShardPolicy,
    load: f64,
    requests: usize,
    stats: ShardedStats,
}

fn point_row(p: &SweepPoint) -> String {
    // No wall-clock numbers in here: the report must be byte-identical
    // however many worker threads produced it.
    json_row(&[
        ("shards", &p.shards),
        ("local", &p.local),
        ("global", &json_str(p.global.name())),
        ("policy", &json_str(p.policy.name())),
        ("load", &p.load),
        ("requests", &p.requests),
        ("blocking", &p.stats.blocking.mean),
        ("blocking_ci95", &p.stats.blocking.ci95),
        ("allocated", &p.stats.allocated.mean),
        ("remote", &p.stats.remote.mean),
        ("stage1_blocked", &p.stats.stage1_blocked.mean),
        ("rebuilds_ok", &p.stats.rebuilds_ok),
    ])
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let shard_counts: Vec<usize> = take_flag(&mut args, "--shards")
        .unwrap_or_else(|| "2,4,8,16".into())
        .split(',')
        .map(|s| parse_or_exit("--shards", s.trim()))
        .collect();
    let local: usize = take_flag(&mut args, "--local").map_or(16, |v| parse_or_exit("--local", &v));
    let globals: Vec<GlobalTopology> = match take_flag(&mut args, "--global").as_deref() {
        None | Some("both") => vec![GlobalTopology::Crossbar, GlobalTopology::Omega],
        Some("crossbar") => vec![GlobalTopology::Crossbar],
        Some("omega") => vec![GlobalTopology::Omega],
        Some(other) => {
            eprintln!("error: --global wants crossbar|omega|both, got {other:?}");
            std::process::exit(2);
        }
    };
    let policies: Vec<InterShardPolicy> = match take_flag(&mut args, "--policy").as_deref() {
        None | Some("token") => vec![InterShardPolicy::TokenRing],
        Some("mincost") => vec![InterShardPolicy::MinCost],
        Some("both") => vec![InterShardPolicy::TokenRing, InterShardPolicy::MinCost],
        Some(other) => {
            eprintln!("error: --policy wants token|mincost|both, got {other:?}");
            std::process::exit(2);
        }
    };
    let trials: u64 =
        take_flag(&mut args, "--trials").map_or(16, |v| parse_or_exit("--trials", &v));
    if trials == 0 {
        // A zero-trial sweep would report 0 blocking everywhere.
        usage_error("--trials 0: every sweep point needs at least 1 trial");
    }
    let threads: usize = take_flag(&mut args, "--threads").map_or_else(
        || std::thread::available_parallelism().map_or(1, |n| n.get()),
        |v| parse_or_exit("--threads", &v),
    );
    let seed: u64 = take_flag(&mut args, "--seed").map_or(23, |v| parse_or_exit("--seed", &v));
    let json_path = take_flag(&mut args, "--json");
    let breakdown_path = take_flag(&mut args, "--breakdown");
    let heavy = match args.iter().position(|a| a == "--heavy") {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    };
    if let Some(stray) = args.first() {
        eprintln!("error: unknown argument {stray:?}");
        std::process::exit(2);
    }
    // Build every composition before any work starts, so an unusable
    // shard count or local size is a usage error with the builder's reason.
    let mut nets = Vec::new();
    for &shards in &shard_counts {
        for &global in &globals {
            match ShardedNetwork::new(ShardedSpec::new(shards, local, global)) {
                Ok(net) => nets.push((shards, global, net)),
                Err(e) => usage_error(&format!(
                    "{shards} shard(s) of omega-{local} under a global {}: {e}",
                    global.name()
                )),
            }
        }
    }

    println!("SHARDED — {trials} trial(s)/point, {threads} worker thread(s), seed {seed}\n");

    let mut points: Vec<SweepPoint> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut decided: u64 = 0;
    for &(shards, global, ref net) in &nets {
        let total = net.num_ports();
        for &policy in &policies {
            for &load in &LOADS {
                let k = ((total as f64 * load).round() as usize).max(1);
                let cfg = ShardedTrialConfig {
                    trials,
                    requests: k,
                    free: k,
                    seed,
                };
                let t0 = Instant::now();
                let stats = run_sharded_trials(net, policy, &cfg, threads).expect("sharded trials");
                let secs = t0.elapsed().as_secs_f64();
                assert!(
                    stats.rebuilds_ok,
                    "{}: a shard rebuilt its transformation graph mid-run",
                    net.name()
                );
                decided += trials * k as u64;
                let dps = (trials * k as u64) as f64 / secs.max(1e-9);
                rows.push(vec![
                    net.name(),
                    policy.name().to_string(),
                    format!("{load:.2}"),
                    k.to_string(),
                    format!("{:.4}", stats.blocking.mean),
                    format!("{:.1}", stats.allocated.mean),
                    format!("{:.1}", stats.remote.mean),
                    format!("{:.1}", stats.stage1_blocked.mean),
                    format!("{dps:.0}"),
                ]);
                points.push(SweepPoint {
                    shards,
                    local,
                    global,
                    policy,
                    load,
                    requests: k,
                    stats,
                });
            }
        }
    }
    emit_table(
        "sharded",
        &[
            "network",
            "policy",
            "load",
            "requests",
            "blocking",
            "allocated",
            "remote",
            "stage1 blocked",
            "decisions/s",
        ],
        &rows,
    );
    println!("\ntotal scheduling decisions across the sweep: {decided}");
    println!(
        "shape: blocking stays near the flat oracle at low load; cross-shard \
         traffic appears once home shards saturate and is capped by the \
         uplink width."
    );

    if heavy {
        // Heavy-traffic regime on the flattened composition: the dynamic
        // discrete-event model at utilization targets up to past
        // saturation (bursty batch-4 arrivals, 64-deep bounded queues),
        // on the flattened smallest sweep composition.
        use rsin_core::scheduler::MaxFlowScheduler;
        use rsin_sim::system::{DynamicConfig, SystemSim};
        let shards = *shard_counts.first().expect("--shards is nonempty");
        let net = ShardedNetwork::new(ShardedSpec::new(shards, local, globals[0]))
            .expect("sweep composition is well-formed")
            .flatten()
            .expect("flattenable composition");
        let mut hrows = Vec::new();
        for &rho in &[0.9, 0.95, 0.99, 1.05] {
            let cfg = DynamicConfig {
                rho,
                batch_size: 4,
                queue_capacity: 64,
                sim_time: 400.0,
                warmup: 40.0,
                seed,
                ..DynamicConfig::default()
            };
            let stats = SystemSim::new(&net, cfg)
                .run(&MaxFlowScheduler::default())
                .expect("dynamic sharded run");
            let offered = stats.completed + stats.final_queue + stats.shed_arrivals;
            hrows.push(vec![
                format!("{rho:.2}"),
                format!("{:.3}", stats.utilization),
                format!("{:.3}", stats.response_p99),
                format!("{:.2}", stats.mean_queue),
                stats.final_queue.to_string(),
                stats.shed_arrivals.to_string(),
                format!(
                    "{:.4}",
                    stats.shed_arrivals as f64 / (offered.max(1)) as f64
                ),
                stats.completed.to_string(),
            ]);
        }
        println!();
        emit_table(
            "sharded-heavy",
            &[
                "rho",
                "utilization",
                "resp p99",
                "queue",
                "final queue",
                "shed",
                "shed rate",
                "completed",
            ],
            &hrows,
        );
    }

    if let Some(jpath) = json_path {
        let rows: Vec<String> = points.iter().map(point_row).collect();
        let json = json_report(
            &[
                ("source", &json_str("sharded")),
                ("local", &local),
                ("trials", &trials),
                ("seed", &seed),
            ],
            &[("rows", &rows)],
        );
        write_report(&jpath, "report", &json);
    }

    if let Some(bpath) = breakdown_path {
        // One bounded observed capture: per-shard telemetry sinks on the
        // sweep's largest composition, re-running its trial snapshots (same
        // `(seed, trial)` streams) through an observed scheduler.
        let shards = shard_counts.iter().copied().max().unwrap_or(2);
        let global = globals[0];
        let policy = policies[0];
        let net = ShardedNetwork::new(ShardedSpec::new(shards, local, global))
            .expect("capture composition is well-formed");
        let total = net.num_ports();
        let k = ((total as f64 * 0.9).round() as usize).max(1);
        let h = HierarchicalScheduler::observed(&net, policy);
        for trial in 0..trials {
            let mut rng = trial_rng(seed, trial);
            let (requests, free) = sharded_snapshot(total, k, k, &mut rng);
            h.schedule(&requests, &free)
                .expect("observed cycle failed on a well-formed snapshot");
        }
        let report = h.shard_report().expect("observed scheduler carries sinks");
        println!(
            "\nshard breakdown — {} / {} / load 0.90 ({trials} cycle(s)), \
             occupancy imbalance {:.4}",
            net.name(),
            policy.name(),
            report.imbalance
        );
        let brows: Vec<Vec<String>> = (0..shards)
            .map(|s| {
                vec![
                    s.to_string(),
                    report.counter(s, Counter::ShardHomePlaced).to_string(),
                    report.counter(s, Counter::ShardRemoteIn).to_string(),
                    report.counter(s, Counter::ShardAllocated).to_string(),
                    report.counter(s, Counter::Cycles).to_string(),
                ]
            })
            .collect();
        emit_table(
            "breakdown",
            &["shard", "home placed", "remote in", "allocated", "cycles"],
            &brows,
        );
        // Where the shard solves spent their time, over every shard.
        println!();
        emit_stage_table("breakdown-stages", &report.merged);
        let json = report.to_json(&format!("sharded/{}", net.name()));
        write_report(&bpath, "breakdown", &json);
    }
}
