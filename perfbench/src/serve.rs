//! `serve_stream`: a pre-generated omega-64 command stream at load 0.8,
//! pushed by one submitter through `rsin_serve::Server` (default config: one
//! format worker, no stats probes) as fast as the submit channel accepts,
//! plus the same stream replayed in-process with every
//! `IncrementalScheduler::{request,release}` call timed on its own (the
//! server exposes no per-command completion).

use crate::cli::Args;
use crate::report::{best, ratio, rss_peak_mb, FastestPass, LatencyHist, Tally};
use crate::spans::SpanLog;
use crate::{alloc, Budget, Run, MIN_PASSES};
use rsin_core::model::ScheduleProblem;
use rsin_core::scheduler::{
    IncrementalBackend, IncrementalScheduler, MaxFlowScheduler, Scheduler, StreamDecision,
};
use rsin_obs::{Counter, Telemetry};
use rsin_serve::{ServeReport, Server, ServerConfig};
use rsin_sim::stream::{format_decision, generate_commands, replay_incremental, StreamCommand};
use rsin_topology::{builders, CircuitState, Network};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PROCESSORS: usize = 64;
const EVENTS: usize = 200_000;
const LOAD: f64 = 0.8;

/// The generated stream and everything a correct run must reproduce.
struct Fixture {
    net: Network,
    cmds: Vec<StreamCommand>,
    decisions: Vec<StreamDecision>,
    lines: Vec<String>,
    /// Allocations of a fresh Theorem-2 Dinic solve on the final active set.
    fresh_allocated: usize,
}

fn build_net() -> Result<Network, String> {
    builders::omega(PROCESSORS).map_err(|e| format!("omega-{PROCESSORS}: {e}"))
}

fn fixture(seed: u64) -> Result<Fixture, String> {
    let net = build_net()?;
    let cmds = generate_commands(PROCESSORS, EVENTS, LOAD, seed, 0);
    let decisions = replay_incremental(&net, IncrementalBackend::MaxFlow, &cmds)
        .map_err(|e| format!("reference replay: {e}"))?;
    let lines = decisions
        .iter()
        .enumerate()
        .map(|(i, d)| format_decision(i as u64, d))
        .collect();
    let mut active = [false; PROCESSORS];
    for c in &cmds {
        match *c {
            StreamCommand::Request { processor } => active[processor] = true,
            StreamCommand::Release { processor } => active[processor] = false,
            StreamCommand::Stats => {}
        }
    }
    let active: Vec<usize> = (0..PROCESSORS).filter(|&p| active[p]).collect();
    let all: Vec<usize> = (0..net.num_resources()).collect();
    let cs = CircuitState::new(&net);
    let fresh_allocated = MaxFlowScheduler::default()
        .try_schedule(&ScheduleProblem::homogeneous(&cs, &active, &all))
        .map_err(|e| format!("fresh Dinic solve: {e}"))?
        .allocated();
    Ok(Fixture {
        net,
        cmds,
        decisions,
        lines,
        fresh_allocated,
    })
}

fn report_ok(fx: &Fixture, r: &ServeReport) -> bool {
    r.errors == 0
        && r.rebuilds == 1
        && r.decisions == fx.cmds.len() as u64
        && r.allocated == fx.fresh_allocated
        && r.lines == fx.lines
}

/// Submit the whole stream to a started server and wait for the full log;
/// the clock runs from the first submit until `finish` returns.
fn serve(server: Server, cmds: &[StreamCommand]) -> Result<(ServeReport, Duration), String> {
    let t0 = Instant::now();
    for &c in cmds {
        server.submit(c).map_err(|e| e.to_string())?;
    }
    let report = server.finish();
    Ok((report, t0.elapsed()))
}

fn decide(inc: &mut IncrementalScheduler, c: StreamCommand) -> Option<StreamDecision> {
    match c {
        StreamCommand::Request { processor } => inc.request(processor).ok(),
        StreamCommand::Release { processor } => inc.release(processor).ok(),
        StreamCommand::Stats => None,
    }
}

/// Replay with every decision timed on its own, in stream order.
fn replay_timed(fx: &Fixture, call_ns: &mut Vec<u64>) -> bool {
    let mut inc = IncrementalScheduler::new(&fx.net, IncrementalBackend::MaxFlow);
    call_ns.clear();
    let mut ok = true;
    for (c, want) in fx.cmds.iter().zip(&fx.decisions) {
        let t0 = Instant::now();
        let d = decide(&mut inc, *c);
        call_ns.push(t0.elapsed().as_nanos() as u64);
        ok &= d.as_ref() == Some(want);
    }
    ok
}

/// Set-up of one server: network build + `Server::start`. Every serve
/// repetition sets up its own, so set-up is sampled across the whole run.
struct SetUp {
    server: Server,
    total_s: f64,
    network_s: f64,
}

fn set_up(probe: Option<&Arc<Telemetry>>) -> Result<SetUp, String> {
    let t0 = Instant::now();
    let net = build_net()?;
    let network_s = t0.elapsed().as_secs_f64();
    let server = match probe {
        None => Server::start(&net, ServerConfig::default()),
        Some(t) => Server::start_probed(&net, ServerConfig::default(), t.clone()),
    };
    Ok(SetUp {
        server,
        total_s: t0.elapsed().as_secs_f64(),
        network_s,
    })
}

pub fn run(args: &Args) -> Result<Run, String> {
    let fx = fixture(args.seed)?;
    if args.trace {
        traced(&fx, args)
    } else {
        timed(&fx, args)
    }
}

fn timed(fx: &Fixture, args: &Args) -> Result<Run, String> {
    let mut tally = Tally::default();
    let n = fx.cmds.len() as u64;
    let mut setups = Vec::new();
    let window = Budget::new(args.seconds as f64);
    let mut rates = Vec::new();
    let (mut calls, mut call_ns) = (FastestPass::default(), Vec::new());
    // Server and in-process replay alternate, so both sample the whole
    // window. The server pipeline exposes no per-command completion, so
    // its throughput is taken from its fastest whole-stream pass.
    while setups.len() < MIN_PASSES || window.left() {
        let s = set_up(None)?;
        setups.push(s.total_s);
        let (report, dt) = serve(s.server, &fx.cmds)?;
        tally.record(n, report_ok(fx, &report));
        rates.push(n as f64 / dt.as_secs_f64());
        let ok = replay_timed(fx, &mut call_ns);
        tally.record(n, ok && calls.push(&call_ns));
    }
    let requests = fx
        .cmds
        .iter()
        .filter(|c| matches!(c, StreamCommand::Request { .. }))
        .count();
    let allocated = fx
        .decisions
        .iter()
        .filter(|d| matches!(d, StreamDecision::Allocated { .. }))
        .count();
    Ok(Run {
        tally,
        values: vec![
            ("setup_s", best(&setups, false)),
            ("rss_peak_mb", rss_peak_mb().ok_or("no /proc/self/status")?),
            ("ops_per_s", best(&rates, true)),
            ("op_mean_us", calls.mean_us()),
            ("op_p99_us", calls.p99_us()),
            ("model_quality", ratio(allocated as f64, requests as f64)),
        ],
    })
}

fn traced(fx: &Fixture, args: &Args) -> Result<Run, String> {
    let mut tally = Tally::default();
    let n = fx.cmds.len() as u64;
    let spans = SpanLog::new();
    let telemetry = Arc::new(Telemetry::new());
    let window = Budget::new(args.seconds as f64);
    let (mut serve_ns, mut traced_serve_ns, mut replay_ns, mut format_ns) =
        (0u64, 0u64, 0u64, 0u64);
    let (mut allocs, mut bytes) = (0u64, 0u64);
    let mut rates = Vec::new();
    let mut hist = LatencyHist::default();
    let (mut kinds, mut call_ns) = ([(0, 0); 2], Vec::new());
    let mut rebuilds = 0u64;
    let mut network_s = Vec::new();
    let mut rep = 0u64;
    while rep < MIN_PASSES as u64 || window.left() {
        // Untraced server and untimed direct replay: the pipeline's cost is
        // their difference.
        {
            let _s = spans.enter("rsin-serve.serve", rep);
            let s = set_up(None)?;
            network_s.push(s.network_s);
            let (report, dt) = serve(s.server, &fx.cmds)?;
            tally.record(n, report_ok(fx, &report));
            rebuilds = rebuilds.max(report.rebuilds);
            serve_ns += dt.as_nanos() as u64;
            rates.push(n as f64 / dt.as_secs_f64());
        }
        {
            let _s = spans.enter("rsin-core::scheduler::incremental.replay", rep);
            let mut inc = IncrementalScheduler::new(&fx.net, IncrementalBackend::MaxFlow);
            let t0 = Instant::now();
            let mut ok = true;
            for (c, want) in fx.cmds.iter().zip(&fx.decisions) {
                ok &= decide(&mut inc, *c).as_ref() == Some(want);
            }
            replay_ns += t0.elapsed().as_nanos() as u64;
            tally.record(n, ok);
        }
        {
            let _s = spans.enter("rsin-core::scheduler::incremental.replay_timed", rep);
            let ok = replay_timed(fx, &mut call_ns);
            tally.record(n, ok);
            for (c, &ns) in fx.cmds.iter().zip(&call_ns) {
                hist.record(ns);
                let k = usize::from(matches!(c, StreamCommand::Release { .. }));
                kinds[k].0 += ns;
                kinds[k].1 += 1;
            }
        }
        // Traced server: live telemetry sink and counted allocations.
        {
            let _s = spans.enter("rsin-serve.serve_traced", rep);
            let server = set_up(Some(&telemetry))?.server;
            let before = alloc::snapshot();
            alloc::enable(true);
            let served = serve(server, &fx.cmds);
            alloc::enable(false);
            let (report, dt) = served?;
            let after = alloc::snapshot();
            allocs += after.0 - before.0;
            bytes += after.1 - before.1;
            tally.record(n, report_ok(fx, &report));
            traced_serve_ns += dt.as_nanos() as u64;
        }
        // One span per decision call: the per-op trace of the stream.
        {
            let _s = spans.enter("rsin-core::scheduler::incremental.replay_spanned", rep);
            let mut inc = IncrementalScheduler::new(&fx.net, IncrementalBackend::MaxFlow);
            let mut ok = true;
            for (seq, (c, want)) in fx.cmds.iter().zip(&fx.decisions).enumerate() {
                let d = match *c {
                    StreamCommand::Request { processor } => {
                        let _c =
                            spans.enter("rsin-core::scheduler::incremental.request", seq as u64);
                        inc.request(processor).ok()
                    }
                    StreamCommand::Release { processor } => {
                        let _c =
                            spans.enter("rsin-core::scheduler::incremental.release", seq as u64);
                        inc.release(processor).ok()
                    }
                    StreamCommand::Stats => None,
                };
                ok &= d.as_ref() == Some(want);
            }
            tally.record(n, ok);
        }
        {
            let _s = spans.enter("rsin-sim::stream.format", rep);
            let t0 = Instant::now();
            let lines: Vec<String> = fx
                .decisions
                .iter()
                .enumerate()
                .map(|(i, d)| format_decision(i as u64, d))
                .collect();
            format_ns += t0.elapsed().as_nanos() as u64;
            tally.record(n, lines == fx.lines);
        }
        rep += 1;
    }
    spans
        .write_json(
            &std::path::Path::new(crate::TRACE_DIR).join("trace-serve_stream.json"),
            "serve_stream",
        )
        .map_err(|e| format!("writing spans: {e}"))?;
    let decisions = (rep * n) as f64;
    let per_1k = |c: Counter| {
        // The telemetry sink saw the traced server's decisions only.
        ratio(telemetry.counter(c) as f64 * 1e3, decisions)
    };
    Ok(Run {
        values: vec![
            ("failed_frac", tally.failed_frac()),
            ("serve.decisions_per_s", best(&rates, true)),
            ("decide.p50_ns", hist.quantile(0.5)),
            ("decide.p99_ns", hist.quantile(0.99)),
            (
                "serve.pipeline_ns_per_decision",
                (serve_ns as f64 - replay_ns as f64) / decisions,
            ),
            ("stream.format_ns_per_line", format_ns as f64 / decisions),
            (
                "incremental.request_ns_mean",
                ratio(kinds[0].0 as f64, kinds[0].1 as f64),
            ),
            (
                "incremental.release_ns_mean",
                ratio(kinds[1].0 as f64, kinds[1].1 as f64),
            ),
            (
                "incremental.allocs_per_1k",
                per_1k(Counter::StreamAllocated),
            ),
            ("incremental.queues_per_1k", per_1k(Counter::StreamQueued)),
            (
                "incremental.promotes_per_1k",
                per_1k(Counter::StreamPromoted),
            ),
            ("transform.rebuilds", rebuilds as f64),
            ("setup.network_build_s", best(&network_s, false)),
            ("alloc.count_per_op", allocs as f64 / decisions),
            ("alloc.bytes_per_op", bytes as f64 / decisions),
            (
                "trace.overhead_ratio",
                ratio(traced_serve_ns as f64, serve_ns as f64),
            ),
        ],
        tally,
    })
}
