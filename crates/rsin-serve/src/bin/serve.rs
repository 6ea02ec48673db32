//! SERVE — the streaming scheduler service CLI.
//!
//! Drives the long-lived [`rsin_serve::Server`] from the command line, on
//! one thread (each command is decided inside `submit`): generate or replay
//! `R <p>` / `F <p>` command logs, write the canonical seq-ordered decision
//! log, or sweep offered load and compare incremental (warm-start) decision
//! throughput against per-event batch re-solves.
//!
//! Usage:
//!
//! ```text
//! serve [--net <name>]
//!       [--seed S] [--events N] [--load F] [--trial T]
//!       [--record FILE] [--replay FILE] [--decisions FILE] [--sweep]
//!       [--heavy] [--json] [--stats-every N] [--stats-latency] [--trace FILE]
//! ```
//!
//! Every decision is one warm-start BFS augmentation on the retained
//! Transformation-1 flow; there is no backend choice.
//!
//! Modes (in precedence order):
//!   --record FILE   generate a deterministic command log and write it; no
//!                   scheduling happens (CI records once, replays twice).
//!   --replay FILE   read a command log and serve it.
//!   --sweep         saturation sweep: decisions/sec vs offered load,
//!                   incremental vs batch, plus decision-latency
//!                   p50/p90/p99 (feeds EXPERIMENTS.md). `--json` emits the
//!                   sweep as JSON rows instead of the text table. With
//!                   `--heavy` the load axis becomes the heavy-traffic
//!                   ladder rho = {0.9, 0.95, 0.99, 1.05} (request bias at
//!                   and past saturation) and each row also reports the
//!                   end-of-stream queue backlog.
//!   (default)       generate a stream in-process and serve it.
//!
//! Observability:
//!   --stats-every N interleave an in-band `S` stats probe after every N
//!                   commands (applies to --record, --replay, and the
//!                   generated default stream; the probes ride the recorded
//!                   log, so replays reproduce them byte-for-byte).
//!   --stats-latency append wall-clock p50/p90/p99 decision-latency fields
//!                   to each stats line (nondeterministic; off for CI).
//!   --trace FILE    run with a flight recorder and export the request
//!                   lifecycle as Chrome trace-event JSON (load in
//!                   Perfetto / chrome://tracing).
//!
//! Networks: `omegaN`, `cubeN`, `benesN`, `baselineN`, `flipN` (N a power
//! of two), e.g. `omega16` (the default) or `cube8`; plus the sharded
//! composition `shardedSxN` / `shardedSxNomega` (S omega-N shards under a
//! global crossbar or omega network, flattened), e.g. `sharded4x16`.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use rsin_core::scheduler::IncrementalBackend;
use rsin_obs::{FlightRecorder, Hist, NoopProbe, Probe, Telemetry};
use rsin_serve::{serve_commands_probed, ServeReport, ServerConfig};
use rsin_sim::stream::{
    encode_commands, generate_commands, parse_commands, replay_batch, replay_incremental,
    with_stats_every, StreamCommand,
};
use rsin_topology::builders::{baseline, benes, flip, generalized_cube, omega};
use rsin_topology::{GlobalTopology, Network, ShardedNetwork, ShardedSpec};
use std::sync::Arc;
use std::time::Instant;

/// The one incremental discipline, named in the sweep header, its JSON rows
/// and the trace source.
const BACKEND: IncrementalBackend = IncrementalBackend::MaxFlow;

struct Args {
    net: String,
    seed: u64,
    trial: u64,
    events: usize,
    load: f64,
    record: Option<String>,
    replay: Option<String>,
    decisions: Option<String>,
    sweep: bool,
    heavy: bool,
    json: bool,
    stats_every: usize,
    stats_latency: bool,
    trace: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        net: "omega16".to_string(),
        seed: 7,
        trial: 0,
        events: 512,
        load: 0.7,
        record: None,
        replay: None,
        decisions: None,
        sweep: false,
        heavy: false,
        json: false,
        stats_every: 0,
        stats_latency: false,
        trace: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{} needs a value", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--net" => args.net = value(&mut i)?,
            "--seed" => args.seed = number("--seed", &value(&mut i)?)?,
            "--trial" => args.trial = number("--trial", &value(&mut i)?)?,
            "--events" => args.events = number("--events", &value(&mut i)?)?,
            "--load" => {
                let v = value(&mut i)?;
                args.load = number("--load", &v)?;
                if !(args.load.is_finite() && args.load >= 0.0) {
                    return Err(format!("--load {v:?}: must be a finite value >= 0"));
                }
            }
            "--record" => args.record = Some(value(&mut i)?),
            "--replay" => args.replay = Some(value(&mut i)?),
            "--decisions" => args.decisions = Some(value(&mut i)?),
            "--sweep" => args.sweep = true,
            "--heavy" => args.heavy = true,
            "--json" => args.json = true,
            "--stats-every" => args.stats_every = number("--stats-every", &value(&mut i)?)?,
            "--stats-latency" => args.stats_latency = true,
            "--trace" => args.trace = Some(value(&mut i)?),
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    check_stream_fits(args.events, args.stats_every)?;
    Ok(args)
}

/// `flag`'s value `v` as a number; the error names both.
fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e| format!("{flag} {v:?}: {e}"))
}

/// A generated stream holds every command in memory, stats probes included,
/// so an event count whose stream cannot be allocated is a usage error
/// before any work starts.
fn check_stream_fits(events: usize, stats_every: usize) -> Result<(), String> {
    let probes = events.checked_div(stats_every).map_or(0, |n| n + 1);
    events
        .checked_add(probes)
        .filter(|&n| Vec::<StreamCommand>::new().try_reserve_exact(n).is_ok())
        .map(|_| ())
        .ok_or_else(|| format!("--events {events}: the command stream does not fit in memory"))
}

fn build_network(spec: &str) -> Result<Network, String> {
    if let Some(rest) = spec.strip_prefix("sharded") {
        let (s_str, tail) = rest
            .split_once('x')
            .ok_or_else(|| format!("sharded spec {spec:?} wants shardedSxN or shardedSxNomega"))?;
        let shards: usize = s_str
            .parse()
            .map_err(|e| format!("bad shard count in {spec:?}: {e}"))?;
        let (n_str, global) = match tail.strip_suffix("omega") {
            Some(n) => (n, GlobalTopology::Omega),
            None => (tail, GlobalTopology::Crossbar),
        };
        let local: usize = n_str
            .parse()
            .map_err(|e| format!("bad local size in {spec:?}: {e}"))?;
        let sn = ShardedNetwork::new(ShardedSpec::new(shards, local, global))
            .map_err(|e| format!("cannot build {spec}: {e:?}"))?;
        return sn
            .flatten()
            .map_err(|e| format!("cannot flatten {spec}: {e:?}"));
    }
    let split = spec
        .find(|c: char| c.is_ascii_digit())
        .ok_or_else(|| format!("network spec {spec:?} has no size"))?;
    let (family, size) = spec.split_at(split);
    let n: usize = size
        .parse()
        .map_err(|e| format!("bad size in {spec:?}: {e}"))?;
    let built = match family {
        "omega" => omega(n),
        "cube" => generalized_cube(n),
        "benes" => benes(n),
        "baseline" => baseline(n),
        "flip" => flip(n),
        other => return Err(format!("unknown network family {other:?}")),
    };
    built.map_err(|e| format!("cannot build {spec}: {e:?}"))
}

fn summarize(report: &ServeReport, secs: f64) {
    println!(
        "served {} decisions ({} errors) in {:.3}s — {:.0} decisions/sec",
        report.decisions,
        report.errors,
        secs,
        report.decisions as f64 / secs.max(1e-9)
    );
    println!(
        "final state: {} allocated, {} queued, {} rebuild(s)",
        report.allocated, report.queued, report.rebuilds
    );
}

/// Saturation sweep: decisions/sec of the warm-start service vs per-event
/// batch re-solves, across offered load, plus the service's per-decision
/// latency quantiles (from `decision_latency_ns`, recorded by a probed
/// serve run at each point).
fn sweep(net: &Network, args: &Args) {
    if args.json {
        println!("[");
    } else {
        println!(
            "SERVE SWEEP{} — {} {} events per point, backend {}",
            if args.heavy { " (heavy)" } else { "" },
            args.net,
            args.events,
            BACKEND.name()
        );
        println!(
            "{:>6} {:>14} {:>14} {:>9} {:>9} {:>9} {:>9} {:>7}",
            "load", "inc dec/s", "batch dec/s", "speedup", "p50 ns", "p90 ns", "p99 ns", "queued"
        );
    }
    // The heavy ladder biases the generator toward requests at and past the
    // point where releases can keep up: rho > 1 clamps to "always prefer a
    // request", the stream analogue of an overloaded arrival process.
    let loads: &[f64] = if args.heavy {
        &[0.9, 0.95, 0.99, 1.05]
    } else {
        &[0.2, 0.35, 0.5, 0.65, 0.8, 0.9]
    };
    for (i, &load) in loads.iter().enumerate() {
        let cmds = generate_commands(
            net.num_processors(),
            args.events,
            load,
            args.seed,
            args.trial,
        );
        let t0 = Instant::now();
        let inc = replay_incremental(net, BACKEND, &cmds).expect("valid stream");
        let inc_secs = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let batch = replay_batch(net, &cmds).expect("valid stream");
        let batch_secs = t1.elapsed().as_secs_f64();
        assert_eq!(inc.len(), batch.len());
        let telemetry = Arc::new(Telemetry::new());
        let report = serve_commands_probed(
            net,
            ServerConfig::default(),
            &cmds,
            Arc::clone(&telemetry) as Arc<dyn Probe + Send + Sync>,
        );
        let lat = telemetry.histogram(Hist::DecisionLatencyNs);
        let per = cmds.len() as f64;
        let (inc_rate, batch_rate) = (per / inc_secs.max(1e-9), per / batch_secs.max(1e-9));
        let speedup = batch_secs / inc_secs.max(1e-9);
        if args.json {
            println!(
                "  {{\"net\": \"{}\", \"backend\": \"{}\", \"load\": {load:.2}, \
                 \"events\": {}, \"inc_dec_per_sec\": {inc_rate:.0}, \
                 \"batch_dec_per_sec\": {batch_rate:.0}, \"speedup\": {speedup:.3}, \
                 \"decision_latency_ns\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}}}, \
                 \"queued\": {}}}{}",
                args.net,
                BACKEND.name(),
                cmds.len(),
                lat.p50(),
                lat.p90(),
                lat.p99(),
                report.queued,
                if i + 1 < loads.len() { "," } else { "" }
            );
        } else {
            println!(
                "{:>6.2} {:>14.0} {:>14.0} {:>8.2}x {:>9} {:>9} {:>9} {:>7}",
                load,
                inc_rate,
                batch_rate,
                speedup,
                lat.p50(),
                lat.p90(),
                lat.p99(),
                report.queued
            );
        }
    }
    if args.json {
        println!("]");
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let net = build_network(&args.net)?;

    if let Some(path) = &args.record {
        let cmds = with_stats_every(
            &generate_commands(
                net.num_processors(),
                args.events,
                args.load,
                args.seed,
                args.trial,
            ),
            args.stats_every,
        );
        std::fs::write(path, encode_commands(&cmds)).map_err(|e| format!("write {path}: {e}"))?;
        println!("recorded {} commands to {path}", cmds.len());
        return Ok(());
    }

    if args.sweep {
        sweep(&net, &args);
        return Ok(());
    }

    let cmds: Vec<StreamCommand> = match &args.replay {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            parse_commands(&text).map_err(|e| format!("{path}: {e}"))?
        }
        None => with_stats_every(
            &generate_commands(
                net.num_processors(),
                args.events,
                args.load,
                args.seed,
                args.trial,
            ),
            args.stats_every,
        ),
    };

    let config = ServerConfig {
        stats_latency: args.stats_latency,
    };
    let recorder = args
        .trace
        .as_ref()
        .map(|_| Arc::new(FlightRecorder::new(rsin_obs::trace::DEFAULT_TRACE_CAPACITY)));
    let probe: Arc<dyn Probe + Send + Sync> = match &recorder {
        Some(r) => Arc::clone(r) as Arc<dyn Probe + Send + Sync>,
        None => Arc::new(NoopProbe),
    };
    let t0 = Instant::now();
    let report = serve_commands_probed(&net, config, &cmds, probe);
    let secs = t0.elapsed().as_secs_f64();

    match &args.decisions {
        Some(path) => {
            std::fs::write(path, report.log()).map_err(|e| format!("write {path}: {e}"))?;
            println!("wrote {} decision lines to {path}", report.lines.len());
        }
        None => print!("{}", report.log()),
    }
    if let (Some(path), Some(recorder)) = (&args.trace, &recorder) {
        let snap = recorder.snapshot();
        let source = format!("serve/{}/{}", args.net, BACKEND.name());
        std::fs::write(path, snap.to_chrome_json(&source))
            .map_err(|e| format!("write {path}: {e}"))?;
        println!(
            "traced {} spans ({} dropped) to {path}",
            snap.events.len(),
            snap.dropped
        );
    }
    summarize(&report, secs);
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("serve: {e}");
        std::process::exit(2);
    }
}
