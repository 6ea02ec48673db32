//! Streaming command logs for the incremental scheduler.
//!
//! A streaming service (`rsin-serve`) consumes a continuous sequence of
//! [`StreamCommand`]s — one request or one release per line — instead of the
//! batch snapshots the static experiments use. This module is the single
//! source of truth for everything every consumer of such a stream shares:
//!
//! * [`generate_commands`] — a deterministic workload generator on the
//!   `(seed, trial)` RNG-stream convention, with a `load` knob steering the
//!   request/release mix (saturation sweeps vary only the knob);
//! * [`encode_commands`] / [`parse_commands`] — the `R <p>` / `F <p>` / `S`
//!   text codec the CI determinism job records and replays (`S` is the
//!   in-band stats probe; [`with_stats_every`] interleaves them);
//! * [`format_decision`] — the canonical decision-log line. The service's
//!   scheduler thread, the replay helpers, and the CI byte-comparison all
//!   format through this one function, so "same decisions" and "same log
//!   bytes" are the same statement;
//! * [`replay_incremental`] / [`replay_batch`] — drive a command slice
//!   through the warm-start scheduler, or re-solve every prefix from zero
//!   flow (the Theorem 2 oracle and the benchmark's comparison baseline).

use crate::system::SimError;
use crate::workload::trial_rng;
use rand::rngs::StdRng;
use rand::Rng;
use rsin_core::model::ScheduleProblem;
use rsin_core::scheduler::{
    IncrementalBackend, IncrementalScheduler, MaxFlowScheduler, ScheduleScratch, Scheduler,
    StreamDecision,
};
use rsin_topology::{CircuitState, Network};

/// One line of a streaming command log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamCommand {
    /// Processor `processor` requests a resource (`R <p>`).
    Request {
        /// Requesting processor.
        processor: usize,
    },
    /// Processor `processor` frees its resource or withdraws (`F <p>`).
    Release {
        /// Releasing processor.
        processor: usize,
    },
    /// In-band introspection (`S`): the service emits one canonical stats
    /// line at this point in the stream. Not a scheduling command — the
    /// replay helpers skip it, and it consumes no generator randomness.
    Stats,
}

impl StreamCommand {
    /// The processor the command concerns (`None` for [`Stats`]).
    ///
    /// [`Stats`]: StreamCommand::Stats
    pub fn processor(self) -> Option<usize> {
        match self {
            StreamCommand::Request { processor } | StreamCommand::Release { processor } => {
                Some(processor)
            }
            StreamCommand::Stats => None,
        }
    }
}

/// Generate a deterministic command stream for `processors` processors.
///
/// Every processor is either *idle* or *active* (has an outstanding
/// request); the generator only ever emits a `Request` for an idle processor
/// and a `Release` for an active one, so any prefix of the stream is a valid
/// interleaving. Each event flips a biased coin with `load` = probability of
/// *preferring* a request: higher load keeps more processors active and
/// pushes the scheduler toward saturation. When the preferred side has no
/// eligible processor the other side is used, so exactly `events` commands
/// are always produced (except `processors == 0`, which yields none).
///
/// Determinism: draws come from [`trial_rng`]`(seed, trial)` only — same
/// arguments, same stream, byte-identical encoded log.
pub fn generate_commands(
    processors: usize,
    events: usize,
    load: f64,
    seed: u64,
    trial: u64,
) -> Vec<StreamCommand> {
    if processors == 0 {
        return Vec::new();
    }
    let mut rng: StdRng = trial_rng(seed, trial);
    let mut active = vec![false; processors];
    let mut active_count = 0usize;
    let mut out = Vec::with_capacity(events);
    for _ in 0..events {
        let idle_count = processors - active_count;
        let want_request = if idle_count == 0 {
            false
        } else if active_count == 0 {
            true
        } else {
            rng.random_range(0.0..1.0) < load
        };
        // Pick uniformly among the eligible side (k-th idle or k-th active;
        // a linear scan keeps the generator obviously correct — streams are
        // thousands of events over tens of processors).
        let (target_state, k) = if want_request {
            (false, rng.random_range(0..idle_count))
        } else {
            (true, rng.random_range(0..active_count))
        };
        let p = active
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a == target_state)
            .nth(k)
            .map(|(p, _)| p)
            .expect("eligible side is nonempty");
        if want_request {
            active[p] = true;
            active_count += 1;
            out.push(StreamCommand::Request { processor: p });
        } else {
            active[p] = false;
            active_count -= 1;
            out.push(StreamCommand::Release { processor: p });
        }
    }
    out
}

/// Interleave a [`StreamCommand::Stats`] probe after every `every`
/// commands of `commands` (and one final probe if the stream is nonempty
/// and does not already end on a boundary). `every == 0` returns the
/// stream unchanged.
pub fn with_stats_every(commands: &[StreamCommand], every: usize) -> Vec<StreamCommand> {
    if every == 0 {
        return commands.to_vec();
    }
    let mut out = Vec::with_capacity(commands.len() + commands.len() / every + 1);
    for chunk in commands.chunks(every) {
        out.extend_from_slice(chunk);
        out.push(StreamCommand::Stats);
    }
    out
}

/// Encode commands as the `R <p>` / `F <p>` / `S` line format.
pub fn encode_commands(commands: &[StreamCommand]) -> String {
    let mut s = String::new();
    for c in commands {
        match *c {
            StreamCommand::Request { processor } => {
                s.push_str(&format!("R {processor}\n"));
            }
            StreamCommand::Release { processor } => {
                s.push_str(&format!("F {processor}\n"));
            }
            StreamCommand::Stats => s.push_str("S\n"),
        }
    }
    s
}

/// Why a command-log line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecErrorKind {
    /// The op had no processor token (`R` alone on a line).
    MissingProcessor,
    /// The processor token is not a plain decimal number. Strict: only
    /// ASCII digits are accepted, so sign prefixes (`+3`), separators, and
    /// overflow all land here with the offending token.
    BadProcessor(String),
    /// Extra tokens followed the processor (`R 3 4`).
    TrailingTokens,
    /// The op is neither `R` nor `F`.
    UnknownOp(String),
}

/// A typed command-log parse error: which 1-based line, and what is wrong
/// with it. Replaces the earlier stringly-typed errors so the service can
/// reject malformed replays with a precise diagnostic instead of skipping
/// or misreading lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// 1-based line number in the input text.
    pub line: usize,
    /// What is wrong with the line.
    pub kind: CodecErrorKind,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: ", self.line)?;
        match &self.kind {
            CodecErrorKind::MissingProcessor => write!(f, "missing processor"),
            CodecErrorKind::BadProcessor(tok) => write!(f, "bad processor {tok:?}"),
            CodecErrorKind::TrailingTokens => write!(f, "trailing tokens"),
            CodecErrorKind::UnknownOp(op) => write!(f, "unknown op {op:?}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Parse the `R <p>` / `F <p>` / `S` line format (blank lines and `#`
/// comment lines are skipped). Malformed lines — unknown ops, missing or
/// non-decimal processor tokens, trailing tokens — are typed
/// [`CodecError`]s naming the offending 1-based line; nothing is silently
/// skipped or coerced.
pub fn parse_commands(text: &str) -> Result<Vec<StreamCommand>, CodecError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let fail = |kind| CodecError { line: i + 1, kind };
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let op = parts.next().unwrap_or("");
        if op == "S" {
            if parts.next().is_some() {
                return Err(fail(CodecErrorKind::TrailingTokens));
            }
            out.push(StreamCommand::Stats);
            continue;
        }
        let tok = parts
            .next()
            .ok_or_else(|| fail(CodecErrorKind::MissingProcessor))?;
        // Strict decimal: `usize::from_str` would accept a `+` prefix,
        // silently normalizing a malformed log.
        if tok.is_empty() || !tok.bytes().all(|b| b.is_ascii_digit()) {
            return Err(fail(CodecErrorKind::BadProcessor(tok.to_string())));
        }
        let p: usize = tok
            .parse()
            .map_err(|_| fail(CodecErrorKind::BadProcessor(tok.to_string())))?;
        if parts.next().is_some() {
            return Err(fail(CodecErrorKind::TrailingTokens));
        }
        match op {
            "R" => out.push(StreamCommand::Request { processor: p }),
            "F" => out.push(StreamCommand::Release { processor: p }),
            other => return Err(fail(CodecErrorKind::UnknownOp(other.to_string()))),
        }
    }
    Ok(out)
}

/// The canonical decision-log line for decision `seq` (newline not
/// included). Everything that writes or compares decision logs goes through
/// this function.
///
/// The line is rendered into a stack buffer and copied out once, so the
/// returned `String` is one allocation of exactly the line's length
/// (DESIGN.md §11.3).
pub fn format_decision(seq: u64, decision: &StreamDecision) -> String {
    let mut line = LineBuf::new();
    line.num(seq);
    match *decision {
        StreamDecision::Allocated {
            processor,
            resource,
        } => {
            line.text(b" alloc p")
                .id(processor)
                .text(b" r")
                .id(resource);
        }
        StreamDecision::Queued { processor } => {
            line.text(b" queue p").id(processor);
        }
        StreamDecision::Released {
            processor,
            resource,
            promoted,
        } => {
            line.text(b" release p")
                .id(processor)
                .text(b" r")
                .id(resource);
            if let Some(pr) = promoted {
                line.text(b" promote p")
                    .id(pr.processor)
                    .text(b" r")
                    .id(pr.resource);
            }
        }
        StreamDecision::Withdrawn { processor } => {
            line.text(b" withdraw p").id(processor);
        }
    }
    line.into_string()
}

/// Digits of the largest `u64`.
const MAX_DIGITS: usize = 20;

/// The longest decision line: `release … promote …` with all five numbers
/// at [`MAX_DIGITS`], plus its literal bytes.
const MAX_LINE: usize = 5 * MAX_DIGITS + " release p r promote p r".len();

// `LineBuf::id` widens `usize` to `u64` losslessly.
const _: () = assert!(usize::BITS <= u64::BITS);

/// A decision line under construction: ASCII bytes on the stack.
struct LineBuf {
    bytes: [u8; MAX_LINE],
    len: usize,
}

impl LineBuf {
    fn new() -> Self {
        LineBuf {
            bytes: [0; MAX_LINE],
            len: 0,
        }
    }

    fn text(&mut self, text: &[u8]) -> &mut Self {
        let end = self.len + text.len();
        self.bytes[self.len..end].copy_from_slice(text);
        self.len = end;
        self
    }

    /// Append `n` in decimal.
    fn num(&mut self, mut n: u64) -> &mut Self {
        let mut digits = [0u8; MAX_DIGITS];
        let mut start = MAX_DIGITS;
        loop {
            start -= 1;
            digits[start] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.text(&digits[start..])
    }

    /// Append a processor or resource id in decimal.
    fn id(&mut self, id: usize) -> &mut Self {
        self.num(id as u64)
    }

    /// The line as one allocation of exactly its length.
    fn into_string(self) -> String {
        String::from_utf8(self.bytes[..self.len].to_vec()).expect("decision lines are ASCII")
    }
}

/// Drive `commands` through a fresh warm-start [`IncrementalScheduler`] and
/// return the decision per scheduling command ([`StreamCommand::Stats`]
/// probes are introspection, not scheduling — they are skipped and produce
/// no decision). The transformation graph is built once; every decision is
/// a single cancel and/or augmentation on the retained flow. `backend` has
/// one value and is kept only because the benchmark package passes it.
pub fn replay_incremental(
    net: &Network,
    backend: IncrementalBackend,
    commands: &[StreamCommand],
) -> Result<Vec<StreamDecision>, SimError> {
    let mut inc = IncrementalScheduler::new(net, backend);
    let mut out = Vec::with_capacity(commands.len());
    for c in commands {
        let d = match *c {
            StreamCommand::Request { processor } => inc.request(processor),
            StreamCommand::Release { processor } => inc.release(processor),
            StreamCommand::Stats => continue,
        }
        .map_err(|error| SimError::Schedule {
            scheduler: backend.name(),
            error,
        })?;
        out.push(d);
    }
    Ok(out)
}

/// The batch baseline: after every command, re-solve the active set from
/// zero flow with the Theorem 2 max-flow scheduler (all resources offered on
/// the free network) and record the allocation count. This is both the
/// correctness oracle for the streaming invariant — the retained flow's
/// allocated count must match every prefix — and the "no warm start"
/// comparison the streaming benchmark row measures against.
pub fn replay_batch(net: &Network, commands: &[StreamCommand]) -> Result<Vec<usize>, SimError> {
    let scheduler = MaxFlowScheduler::default();
    let mut scratch = ScheduleScratch::new();
    let cs = CircuitState::new(net);
    let all: Vec<usize> = (0..net.num_resources()).collect();
    let mut active = vec![false; net.num_processors()];
    let mut out = Vec::with_capacity(commands.len());
    for c in commands {
        match *c {
            StreamCommand::Request { processor } => active[processor] = true,
            StreamCommand::Release { processor } => active[processor] = false,
            StreamCommand::Stats => continue,
        }
        let requests: Vec<usize> = (0..active.len()).filter(|&p| active[p]).collect();
        let problem = ScheduleProblem::homogeneous(&cs, &requests, &all);
        let solved = scheduler
            .try_schedule_reusing(&problem, &mut scratch)
            .map_err(|error| SimError::Schedule {
                scheduler: scheduler.name(),
                error,
            })?;
        out.push(solved.assignments.len());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{ProptestConfig, Strategy};
    use rsin_topology::builders::omega;

    #[test]
    fn generator_only_emits_valid_interleavings() {
        let cmds = generate_commands(8, 300, 0.7, 11, 3);
        assert_eq!(cmds.len(), 300);
        let mut active = [false; 8];
        for c in &cmds {
            match *c {
                StreamCommand::Request { processor } => {
                    assert!(!active[processor], "request while active");
                    active[processor] = true;
                }
                StreamCommand::Release { processor } => {
                    assert!(active[processor], "release while idle");
                    active[processor] = false;
                }
                StreamCommand::Stats => panic!("generator never emits probes"),
            }
        }
    }

    #[test]
    fn generator_is_deterministic_and_trial_split() {
        let a = generate_commands(8, 100, 0.5, 42, 0);
        let b = generate_commands(8, 100, 0.5, 42, 0);
        assert_eq!(a, b);
        let other_trial = generate_commands(8, 100, 0.5, 42, 1);
        assert_ne!(a, other_trial, "trials must draw independent streams");
    }

    #[test]
    fn load_knob_steers_the_mix() {
        let count_requests = |load: f64| {
            generate_commands(16, 400, load, 7, 0)
                .iter()
                .filter(|c| matches!(c, StreamCommand::Request { .. }))
                .count()
        };
        assert!(count_requests(0.9) > count_requests(0.1));
    }

    #[test]
    fn codec_round_trips() {
        let cmds = generate_commands(8, 64, 0.6, 5, 0);
        let text = encode_commands(&cmds);
        assert_eq!(parse_commands(&text).unwrap(), cmds);
        // Comments and blank lines are transparent.
        let commented = format!("# recorded stream\n\n{text}");
        assert_eq!(parse_commands(&commented).unwrap(), cmds);
        // Stats probes round-trip as bare `S` lines.
        let probed = with_stats_every(&cmds, 16);
        let text = encode_commands(&probed);
        assert!(text.contains("\nS\n"));
        assert_eq!(parse_commands(&text).unwrap(), probed);
    }

    #[test]
    fn stats_interleaving_is_periodic_and_replay_transparent() {
        let cmds = generate_commands(8, 100, 0.7, 5, 0);
        let probed = with_stats_every(&cmds, 25);
        assert_eq!(probed.len(), 104, "one probe per 25 commands");
        assert_eq!(probed[25], StreamCommand::Stats);
        assert_eq!(*probed.last().unwrap(), StreamCommand::Stats);
        assert_eq!(with_stats_every(&cmds, 0), cmds, "0 disables probing");
        assert_eq!(StreamCommand::Stats.processor(), None);
        // Replays make the same decisions with and without probes.
        let net = omega(8).unwrap();
        let plain = replay_incremental(&net, IncrementalBackend::MaxFlow, &cmds).unwrap();
        let with_probes = replay_incremental(&net, IncrementalBackend::MaxFlow, &probed).unwrap();
        assert_eq!(plain, with_probes);
        assert_eq!(
            replay_batch(&net, &cmds).unwrap(),
            replay_batch(&net, &probed).unwrap()
        );
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert_eq!(
            parse_commands("R").unwrap_err(),
            CodecError {
                line: 1,
                kind: CodecErrorKind::MissingProcessor
            }
        );
        assert_eq!(
            parse_commands("R x").unwrap_err(),
            CodecError {
                line: 1,
                kind: CodecErrorKind::BadProcessor("x".to_string())
            }
        );
        assert_eq!(
            parse_commands("Q 3").unwrap_err(),
            CodecError {
                line: 1,
                kind: CodecErrorKind::UnknownOp("Q".to_string())
            }
        );
        assert_eq!(
            parse_commands("R 3 4").unwrap_err(),
            CodecError {
                line: 1,
                kind: CodecErrorKind::TrailingTokens
            }
        );
        // `S` takes no operand.
        assert_eq!(
            parse_commands("S 3").unwrap_err(),
            CodecError {
                line: 1,
                kind: CodecErrorKind::TrailingTokens
            }
        );
        // `usize::from_str` accepts a sign prefix; the codec must not.
        assert_eq!(
            parse_commands("R 0\nF +3").unwrap_err(),
            CodecError {
                line: 2,
                kind: CodecErrorKind::BadProcessor("+3".to_string())
            }
        );
        // Display keeps the `line N: ...` diagnostic contract.
        let e = parse_commands("# ok\nR 1\nbogus 2").unwrap_err();
        assert_eq!(e.to_string(), "line 3: unknown op \"bogus\"");
    }

    #[test]
    fn incremental_replay_matches_batch_counts_on_every_prefix() {
        let net = omega(8).unwrap();
        let cmds = generate_commands(8, 200, 0.8, 13, 0);
        let decisions = replay_incremental(&net, IncrementalBackend::MaxFlow, &cmds).unwrap();
        let batch = replay_batch(&net, &cmds).unwrap();
        let mut allocated = 0usize;
        for (d, &want) in decisions.iter().zip(&batch) {
            match d {
                StreamDecision::Allocated { .. } => allocated += 1,
                StreamDecision::Released { promoted, .. } => {
                    allocated -= 1;
                    if promoted.is_some() {
                        allocated += 1;
                    }
                }
                StreamDecision::Queued { .. } | StreamDecision::Withdrawn { .. } => {}
            }
            assert_eq!(allocated, want, "diverged from batch");
        }
    }

    /// The `format!` renderer the line writer replaced, kept as its oracle.
    fn format_decision_fmt(seq: u64, decision: &StreamDecision) -> String {
        match *decision {
            StreamDecision::Allocated {
                processor,
                resource,
            } => format!("{seq} alloc p{processor} r{resource}"),
            StreamDecision::Queued { processor } => format!("{seq} queue p{processor}"),
            StreamDecision::Released {
                processor,
                resource,
                promoted,
            } => match promoted {
                Some(pr) => format!(
                    "{seq} release p{processor} r{resource} promote p{} r{}",
                    pr.processor, pr.resource
                ),
                None => format!("{seq} release p{processor} r{resource}"),
            },
            StreamDecision::Withdrawn { processor } => format!("{seq} withdraw p{processor}"),
        }
    }

    /// Numbers from the whole `u64` range: 0, `u64::MAX`, and every digit
    /// count from 1 to 20 equally often.
    fn arb_u64() -> impl Strategy<Value = u64> {
        (0u32..=21, 0..=u64::MAX).prop_map(|(digits, raw)| match digits {
            0 => 0,
            21 => u64::MAX,
            d => {
                let lo = 10u64.pow(d - 1);
                let hi = 10u64.checked_pow(d).map_or(u64::MAX, |p| p - 1);
                lo + raw % (hi - lo + 1)
            }
        })
    }

    /// All five line shapes (alloc, queue, release, release + promote,
    /// withdraw), every id drawn like [`arb_u64`] over the `usize` range.
    fn arb_decision() -> impl Strategy<Value = StreamDecision> {
        use rsin_core::scheduler::PromotedRequest;
        let id = || arb_u64().prop_map(|n| n as usize);
        (0u8..5, id(), id(), id(), id()).prop_map(|(shape, a, b, c, d)| match shape {
            0 => StreamDecision::Allocated {
                processor: a,
                resource: b,
            },
            1 => StreamDecision::Queued { processor: a },
            2 => StreamDecision::Released {
                processor: a,
                resource: b,
                promoted: None,
            },
            3 => StreamDecision::Released {
                processor: a,
                resource: b,
                promoted: Some(PromotedRequest {
                    processor: c,
                    resource: d,
                }),
            },
            _ => StreamDecision::Withdrawn { processor: a },
        })
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The line writer renders exactly what `format!` did, into a
        /// `String` with no spare capacity.
        #[test]
        fn line_writer_matches_the_format_renderer(seq in arb_u64(), d in arb_decision()) {
            let line = format_decision(seq, &d);
            proptest::prop_assert_eq!(&line, &format_decision_fmt(seq, &d));
            proptest::prop_assert_eq!(line.capacity(), line.len());
        }
    }

    #[test]
    fn longest_line_fits_the_buffer() {
        use rsin_core::scheduler::PromotedRequest;
        let d = StreamDecision::Released {
            processor: usize::MAX,
            resource: usize::MAX,
            promoted: Some(PromotedRequest {
                processor: usize::MAX,
                resource: usize::MAX,
            }),
        };
        let line = format_decision(u64::MAX, &d);
        assert_eq!(line, format_decision_fmt(u64::MAX, &d));
        assert_eq!(line.len(), MAX_LINE);
    }

    #[test]
    fn decision_lines_are_stable() {
        use rsin_core::scheduler::PromotedRequest;
        assert_eq!(
            format_decision(
                3,
                &StreamDecision::Allocated {
                    processor: 1,
                    resource: 4
                }
            ),
            "3 alloc p1 r4"
        );
        assert_eq!(
            format_decision(9, &StreamDecision::Queued { processor: 2 }),
            "9 queue p2"
        );
        assert_eq!(
            format_decision(
                10,
                &StreamDecision::Released {
                    processor: 2,
                    resource: 0,
                    promoted: Some(PromotedRequest {
                        processor: 5,
                        resource: 0
                    })
                }
            ),
            "10 release p2 r0 promote p5 r0"
        );
        assert_eq!(
            format_decision(11, &StreamDecision::Withdrawn { processor: 7 }),
            "11 withdraw p7"
        );
    }
}
