//! # rsin-serve — streaming scheduler service
//!
//! A long-lived service over the warm-start [`IncrementalScheduler`]: each
//! submitted command is decided **incrementally** on the retained residual
//! flow (the transformation graph is built exactly once — `rebuilds` stays
//! 1 for the lifetime of the service), and its canonical decision-log line
//! is rendered, inside [`Server::submit`], on the caller's thread.
//!
//! ## Determinism contract
//!
//! Commands are decided and rendered one at a time, in submission order.
//! Every command is stamped with its position in the submitted stream, and
//! its decision, error, or in-band `S` stats line (a stats line quotes live
//! occupancy at the probe's exact position in the stream) is appended to
//! the log before `submit` returns, so the log is in sequence order by
//! construction. The emitted log — decision, error, and stats lines alike —
//! is therefore a pure function of the command stream; the CI
//! `determinism` job replays a recorded command log (with interleaved `S`
//! probes) and `cmp`s it against the log of the same stream generated
//! in-process. Wall-clock latency quantiles are the one nondeterministic
//! readout, so they only appear under [`ServerConfig::stats_latency`],
//! which CI leaves off.
//!
//! ## Error handling
//!
//! A malformed command (unknown processor, duplicate request, release of an
//! idle processor) yields a typed [`ScheduleError`]; the service renders it
//! as an `error` log line and keeps serving — a bad client command must not
//! take the service down. See DESIGN.md §11 for the architecture and the
//! cancel/augment invariants the scheduler relies on.

use rsin_core::scheduler::{IncrementalBackend, IncrementalScheduler, ScheduleError};
use rsin_obs::{NoopProbe, Probe, WindowedHistogram};
use rsin_sim::stream::{format_decision, StreamCommand};
use rsin_topology::Network;
use std::cell::RefCell;
use std::convert::Infallible;
use std::sync::Arc;

/// How a [`Server`] is run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerConfig {
    /// Append wall-clock decision-latency quantiles (`p50_ns=`/`p90_ns=`/
    /// `p99_ns=`, over the window since the previous `S` probe) to every
    /// stats line. Off by default: latency values vary run to run, so the
    /// determinism contract covers only the event-count fields.
    pub stats_latency: bool,
}

/// Final accounting of a served stream.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Log lines in sequence order (one per submitted command — decisions,
    /// errors, and `stats` lines alike).
    pub lines: Vec<String>,
    /// Commands that produced a decision.
    pub decisions: u64,
    /// Commands rejected with a typed error (rendered as `error` lines).
    pub errors: u64,
    /// In-band `S` probes served (rendered as `stats` lines).
    pub stats_probes: u64,
    /// Processors still holding an allocation at shutdown.
    pub allocated: usize,
    /// Processors still queued at shutdown.
    pub queued: usize,
    /// Transformation-graph builds over the service lifetime (always 1).
    pub rebuilds: u64,
}

impl ServeReport {
    /// The full decision log as one newline-terminated string (empty for an
    /// empty stream). This is the byte sequence the determinism job
    /// compares.
    pub fn log(&self) -> String {
        let mut s = String::new();
        for line in &self.lines {
            s.push_str(line);
            s.push('\n');
        }
        s
    }
}

/// The canonical rendering of a rejected command (kept next to
/// [`format_decision`] semantics: sequence number first, then the verdict).
pub fn format_error(seq: u64, e: &ScheduleError) -> String {
    format!("{seq} error {e}")
}

/// What one in-band `S` probe sees: cumulative event counts plus the live
/// occupancy, all snapshotted at the probe's position in the stream. Every
/// field is a deterministic function of the command prefix, so the rendered
/// line is part of the byte-identical determinism contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Commands decided so far (excluding errors and probes).
    pub decisions: u64,
    /// Commands rejected so far.
    pub errors: u64,
    /// Processors currently holding an allocation.
    pub allocated: usize,
    /// Processors currently queued.
    pub queued: usize,
    /// `alloc` decisions so far.
    pub allocs: u64,
    /// `queue` decisions so far.
    pub queues: u64,
    /// `release` decisions so far.
    pub releases: u64,
    /// Promotions riding on those releases.
    pub promotes: u64,
    /// `withdraw` decisions so far.
    pub withdraws: u64,
}

/// The canonical stats line for probe `seq` (newline not included). Only
/// deterministic event-count fields — wall-clock quantiles are appended
/// separately (and only under [`ServerConfig::stats_latency`]) so this
/// rendering is a pure function of the command prefix.
pub fn format_stats(seq: u64, s: &StatsSnapshot) -> String {
    format!(
        "{seq} stats decisions={} errors={} allocated={} queued={} allocs={} \
         queues={} releases={} promotes={} withdraws={}",
        s.decisions,
        s.errors,
        s.allocated,
        s.queued,
        s.allocs,
        s.queues,
        s.releases,
        s.promotes,
        s.withdraws
    )
}

/// A running streaming scheduler service.
///
/// Built by [`Server::start`]; fed with [`Server::submit`], which decides
/// and renders each command before it returns; torn down with
/// [`Server::finish`], which returns the [`ServeReport`].
pub struct Server {
    /// Behind a `RefCell` only so `submit` can take `&self`: the benchmark
    /// submits through a binding that is not `mut`.
    state: RefCell<ServeState>,
}

/// Everything one served stream decides and renders.
struct ServeState {
    inc: IncrementalScheduler,
    probe: Arc<dyn Probe + Send + Sync>,
    stats_latency: bool,
    /// One line per submitted command, so its length is the next `seq`.
    lines: Vec<String>,
    snap: StatsSnapshot,
    stats_probes: u64,
    latency: WindowedHistogram,
}

impl Server {
    /// Start the service for `net` (unobserved).
    pub fn start(net: &Network, config: ServerConfig) -> Server {
        Self::start_probed(net, config, Arc::new(NoopProbe))
    }

    /// Start the service with per-decision probe reporting. A
    /// [`Telemetry`](rsin_obs::Telemetry) probe gets the `stream_*`
    /// counters and each decision's latency in `decision_latency_ns`; a
    /// [`FlightRecorder`](rsin_obs::FlightRecorder) gets every decision's
    /// submit/allocate/queue/promote/release span, for export after
    /// [`finish`](Self::finish). Probes never change decisions or log
    /// bytes. The probe stays an `Arc` because the benchmark passes one.
    pub fn start_probed(
        net: &Network,
        config: ServerConfig,
        probe: Arc<dyn Probe + Send + Sync>,
    ) -> Server {
        Server {
            state: RefCell::new(ServeState {
                inc: IncrementalScheduler::new(net, IncrementalBackend::MaxFlow),
                probe,
                stats_latency: config.stats_latency,
                lines: Vec::new(),
                snap: StatsSnapshot::default(),
                stats_probes: 0,
                latency: WindowedHistogram::new(),
            }),
        }
    }

    /// Decide and render one command on the caller's thread. Never fails;
    /// the `Result` stays only because the benchmark maps its error.
    pub fn submit(&self, cmd: StreamCommand) -> Result<(), Infallible> {
        self.state.borrow_mut().step(cmd);
        Ok(())
    }

    /// The report of everything submitted so far.
    pub fn finish(self) -> ServeReport {
        let st = self.state.into_inner();
        ServeReport {
            decisions: st.snap.decisions,
            errors: st.snap.errors,
            stats_probes: st.stats_probes,
            allocated: st.inc.allocated_count(),
            queued: st.inc.queued_count(),
            rebuilds: st.inc.rebuilds(),
            lines: st.lines,
        }
    }
}

impl ServeState {
    /// Decide `cmd` (or snapshot the stats, for an `S` probe) and append its
    /// log line.
    fn step(&mut self, cmd: StreamCommand) {
        let seq = self.lines.len() as u64;
        let snap = &mut self.snap;
        if matches!(cmd, StreamCommand::Stats) {
            self.stats_probes += 1;
            snap.allocated = self.inc.allocated_count();
            snap.queued = self.inc.queued_count();
            let mut line = format_stats(seq, snap);
            if self.stats_latency {
                // Close the window that accumulated since the last probe and
                // quote it. Wall-clock values: never part of the
                // deterministic byte contract, hence behind the flag.
                self.latency.rotate();
                let w = self.latency.previous();
                line.push_str(&format!(
                    " p50_ns={} p90_ns={} p99_ns={}",
                    w.p50(),
                    w.p90(),
                    w.p99()
                ));
            }
            self.lines.push(line);
            return;
        }
        let started = self.stats_latency.then(std::time::Instant::now);
        let probe = &*self.probe;
        let result = match cmd {
            StreamCommand::Request { processor } => self.inc.request_observed(processor, probe),
            StreamCommand::Release { processor } => self.inc.release_observed(processor, probe),
            StreamCommand::Stats => unreachable!("handled above"),
        };
        if let Some(t) = started {
            self.latency.record(t.elapsed().as_nanos() as u64);
        }
        let line = match &result {
            Ok(d) => {
                snap.decisions += 1;
                use rsin_core::scheduler::StreamDecision as D;
                match d {
                    D::Allocated { .. } => snap.allocs += 1,
                    D::Queued { .. } => snap.queues += 1,
                    D::Released { promoted, .. } => {
                        snap.releases += 1;
                        snap.promotes += u64::from(promoted.is_some());
                    }
                    D::Withdrawn { .. } => snap.withdraws += 1,
                }
                format_decision(seq, d)
            }
            Err(e) => {
                snap.errors += 1;
                format_error(seq, e)
            }
        };
        self.lines.push(line);
    }
}

/// Run a whole command slice through a fresh server and return the report.
pub fn serve_commands(
    net: &Network,
    config: ServerConfig,
    commands: &[StreamCommand],
) -> ServeReport {
    serve_commands_probed(net, config, commands, Arc::new(NoopProbe))
}

/// [`serve_commands`] with probe reporting (see [`Server::start_probed`]).
pub fn serve_commands_probed(
    net: &Network,
    config: ServerConfig,
    commands: &[StreamCommand],
    probe: Arc<dyn Probe + Send + Sync>,
) -> ServeReport {
    let server = Server::start_probed(net, config, probe);
    for &cmd in commands {
        let Ok(()) = server.submit(cmd);
    }
    server.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsin_core::scheduler::StreamDecision;
    use rsin_obs::{Counter, Telemetry};
    use rsin_sim::stream::{generate_commands, replay_incremental, with_stats_every};
    use rsin_topology::builders::omega;

    /// The server-free reference log: `replay_incremental` decisions
    /// rendered with `format_decision`, and every `S` probe rendered with
    /// `format_stats` from counts and occupancy derived from the decisions
    /// before it.
    fn reference_log(net: &Network, cmds: &[StreamCommand]) -> Vec<String> {
        let mut decisions = replay_incremental(net, IncrementalBackend::MaxFlow, cmds)
            .unwrap()
            .into_iter();
        let mut snap = StatsSnapshot::default();
        let mut lines = Vec::with_capacity(cmds.len());
        for (seq, cmd) in cmds.iter().enumerate() {
            let seq = seq as u64;
            if matches!(cmd, StreamCommand::Stats) {
                lines.push(format_stats(seq, &snap));
                continue;
            }
            let d = decisions.next().expect("one decision per command");
            snap.decisions += 1;
            match d {
                StreamDecision::Allocated { .. } => {
                    snap.allocs += 1;
                    snap.allocated += 1;
                }
                StreamDecision::Queued { .. } => {
                    snap.queues += 1;
                    snap.queued += 1;
                }
                StreamDecision::Released { promoted, .. } => {
                    snap.releases += 1;
                    if promoted.is_some() {
                        snap.promotes += 1;
                        snap.queued -= 1;
                    } else {
                        snap.allocated -= 1;
                    }
                }
                StreamDecision::Withdrawn { .. } => {
                    snap.withdraws += 1;
                    snap.queued -= 1;
                }
            }
            lines.push(format_decision(seq, &d));
        }
        lines
    }

    #[test]
    fn decision_log_is_byte_identical_across_worker_counts() {
        // Commands are decided and rendered in submission order, so the log
        // equals the server-free reference line for line, in seq order.
        let net = omega(8).unwrap();
        let cmds = with_stats_every(&generate_commands(8, 400, 0.7, 21, 0), 64);
        let report = serve_commands(&net, ServerConfig::default(), &cmds);
        assert_eq!(report.lines, reference_log(&net, &cmds));
        assert_eq!(report.rebuilds, 1);
        assert_eq!(report.decisions, 400);
        assert_eq!(report.stats_probes, 7);
        assert_eq!(report.errors, 0);
    }

    #[test]
    fn server_log_matches_direct_replay() {
        let net = omega(8).unwrap();
        let cmds = generate_commands(8, 200, 0.6, 9, 0);
        let report = serve_commands(&net, ServerConfig::default(), &cmds);
        let direct = replay_incremental(&net, IncrementalBackend::MaxFlow, &cmds).unwrap();
        let want: Vec<String> = direct
            .iter()
            .enumerate()
            .map(|(i, d)| format_decision(i as u64, d))
            .collect();
        assert_eq!(report.lines, want);
    }

    #[test]
    fn malformed_commands_become_error_lines_and_service_survives() {
        let net = omega(8).unwrap();
        let server = Server::start(&net, ServerConfig::default());
        server
            .submit(StreamCommand::Request { processor: 0 })
            .unwrap();
        // Duplicate request and out-of-range processor are both rejected.
        server
            .submit(StreamCommand::Request { processor: 0 })
            .unwrap();
        server
            .submit(StreamCommand::Request { processor: 99 })
            .unwrap();
        server
            .submit(StreamCommand::Release { processor: 0 })
            .unwrap();
        let report = server.finish();
        assert_eq!(report.decisions, 2);
        assert_eq!(report.errors, 2);
        assert_eq!(report.lines.len(), 4);
        assert!(
            report.lines[1].starts_with("1 error "),
            "{}",
            report.lines[1]
        );
        assert!(
            report.lines[2].starts_with("2 error "),
            "{}",
            report.lines[2]
        );
        assert!(
            report.lines[3].starts_with("3 release "),
            "{}",
            report.lines[3]
        );
        assert_eq!(report.allocated, 0);
    }

    #[test]
    fn probes_see_per_decision_counters() {
        let net = omega(8).unwrap();
        let cmds = generate_commands(8, 100, 0.7, 33, 0);
        let telemetry = Arc::new(Telemetry::new());
        let report = serve_commands_probed(
            &net,
            ServerConfig::default(),
            &cmds,
            Arc::clone(&telemetry) as Arc<dyn Probe + Send + Sync>,
        );
        assert_eq!(
            telemetry.counter(Counter::StreamDecisions),
            report.decisions
        );
        let allocs = report
            .lines
            .iter()
            .filter(|l| l.contains(" alloc "))
            .count() as u64;
        assert_eq!(telemetry.counter(Counter::StreamAllocated), allocs);
        let hist = telemetry.histogram(rsin_obs::Hist::DecisionLatencyNs);
        assert_eq!(hist.count, report.decisions);
    }

    #[test]
    fn submit_decides_before_it_returns() {
        // Three processors share two resources through one crossbar: p2
        // queues, and the release of p1 promotes it.
        let net = rsin_topology::builders::crossbar(3, 2).unwrap();
        let telemetry = Arc::new(Telemetry::new());
        let server = Server::start_probed(
            &net,
            ServerConfig::default(),
            Arc::clone(&telemetry) as Arc<dyn Probe + Send + Sync>,
        );
        let (request, release) = (
            |processor| StreamCommand::Request { processor },
            |processor| StreamCommand::Release { processor },
        );
        let cmds = [
            request(0),
            request(1),
            request(2),
            StreamCommand::Stats,
            release(1),
            release(0),
        ];
        let mut scheduling = 0u64;
        for cmd in cmds {
            server.submit(cmd).unwrap();
            scheduling += u64::from(!matches!(cmd, StreamCommand::Stats));
            assert_eq!(
                telemetry.counter(Counter::StreamDecisions),
                scheduling,
                "{cmd:?} was not decided when submit returned"
            );
        }
        assert_eq!(telemetry.counter(Counter::StreamQueued), 1);
        assert_eq!(telemetry.counter(Counter::StreamPromoted), 1);
        let report = server.finish();
        assert_eq!(report.decisions, scheduling);
        assert_eq!(report.lines[2], "2 queue p2");
    }

    #[test]
    fn stats_lines_snapshot_the_stream_position_at_any_worker_count() {
        let net = omega(8).unwrap();
        let cmds = with_stats_every(&generate_commands(8, 300, 0.7, 21, 0), 50);
        let one = serve_commands(&net, ServerConfig::default(), &cmds);
        assert_eq!(
            one.lines,
            reference_log(&net, &cmds),
            "stats lines left their stream position"
        );
        assert_eq!(one.stats_probes, 6, "one probe per 50-command chunk");
        assert_eq!(one.decisions, 300);
        let stats: Vec<&String> = one.lines.iter().filter(|l| l.contains(" stats ")).collect();
        assert_eq!(stats.len(), 6);
        // The first probe sits at seq 50 and has seen exactly 50 decisions.
        assert!(
            stats[0].starts_with("50 stats decisions=50 errors=0 "),
            "{}",
            stats[0]
        );
        // The last probe's cumulative per-kind counts add up to the final
        // report, and its occupancy matches shutdown occupancy (no
        // commands follow it).
        let last = stats.last().unwrap();
        assert!(
            last.contains(&format!(
                "allocated={} queued={}",
                one.allocated, one.queued
            )),
            "{last}"
        );
        assert!(last.contains("decisions=300"), "{last}");
        // No wall-clock fields without the flag.
        assert!(!last.contains("p50_ns="), "{last}");
    }

    #[test]
    fn stats_latency_fields_appear_only_behind_the_flag() {
        let net = omega(8).unwrap();
        let mut cmds = generate_commands(8, 40, 0.7, 3, 0);
        cmds.push(StreamCommand::Stats);
        let config = ServerConfig {
            stats_latency: true,
        };
        let report = serve_commands(&net, config, &cmds);
        let stats_line = report
            .lines
            .iter()
            .find(|l| l.contains(" stats "))
            .expect("one probe submitted");
        for field in ["p50_ns=", "p90_ns=", "p99_ns="] {
            assert!(stats_line.contains(field), "{stats_line}");
        }
        // The deterministic prefix is unchanged by the flag.
        let plain = serve_commands(&net, ServerConfig::default(), &cmds);
        let plain_line = plain.lines.iter().find(|l| l.contains(" stats ")).unwrap();
        assert!(stats_line.starts_with(plain_line.as_str()), "{stats_line}");
    }

    #[test]
    fn traced_serve_keeps_log_bytes_and_emits_well_formed_spans() {
        use rsin_obs::{validate_spans, FlightRecorder, SpanPhase};
        let net = omega(8).unwrap();
        let cmds = generate_commands(8, 200, 0.8, 17, 0);
        let plain = serve_commands(&net, ServerConfig::default(), &cmds);
        let recorder = Arc::new(FlightRecorder::new(rsin_obs::trace::DEFAULT_TRACE_CAPACITY));
        let traced = serve_commands_probed(
            &net,
            ServerConfig::default(),
            &cmds,
            Arc::clone(&recorder) as Arc<dyn Probe + Send + Sync>,
        );
        assert_eq!(plain.log(), traced.log(), "tracing must not change the log");
        let snap = recorder.snapshot();
        assert_eq!(snap.dropped, 0);
        validate_spans(&snap.events).expect("span chains well-formed");
        let submits = snap
            .events
            .iter()
            .filter(|e| e.phase == SpanPhase::Submit)
            .count() as u64;
        let requests = cmds
            .iter()
            .filter(|c| matches!(c, StreamCommand::Request { .. }))
            .count() as u64;
        assert_eq!(submits, requests);
        // The chrome export is loadable-shaped: one async begin per submit.
        let json = snap.to_chrome_json("serve-test");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\": \"b\""));
    }

    #[test]
    fn queued_requests_promote_on_release_through_the_service() {
        // Saturate a tiny crossbar-free scenario: more requests than
        // resources forces queueing, then a release must promote.
        let net = omega(4).unwrap();
        let server = Server::start(&net, ServerConfig::default());
        for p in 0..4 {
            server
                .submit(StreamCommand::Request { processor: p })
                .unwrap();
        }
        let report = server.finish();
        let allocated = report
            .lines
            .iter()
            .filter(|l| l.contains(" alloc "))
            .count();
        assert_eq!(allocated, report.allocated);
        assert_eq!(report.allocated + report.queued, 4);
    }

    #[test]
    fn drop_without_finish_does_not_hang() {
        let net = omega(8).unwrap();
        let server = Server::start(&net, ServerConfig::default());
        server
            .submit(StreamCommand::Request { processor: 1 })
            .unwrap();
        drop(server);
    }

    #[test]
    fn empty_stream_yields_empty_log() {
        let net = omega(8).unwrap();
        let report = serve_commands(&net, ServerConfig::default(), &[]);
        assert!(report.lines.is_empty());
        assert_eq!(report.log(), "");
        assert_eq!(report.rebuilds, 1);
    }

    #[test]
    fn decisions_match_decision_enum_shape() {
        let net = omega(8).unwrap();
        let direct = replay_incremental(
            &net,
            IncrementalBackend::MaxFlow,
            &[StreamCommand::Request { processor: 3 }],
        )
        .unwrap();
        assert!(matches!(
            direct[0],
            StreamDecision::Allocated { processor: 3, .. }
        ));
    }
}
