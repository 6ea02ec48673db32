//! Streaming ≡ batch equivalence (proptest).
//!
//! The warm-start invariant (DESIGN.md §11): after every accepted command,
//! the incremental scheduler's retained flow is a maximum flow over the
//! active request arcs and the full resource set, so its allocated count
//! equals a Theorem 2 batch fresh-solve on the same active set — for
//! arbitrary interleaved arrival/release sequences, with the transformation
//! graph built exactly once. The retained *mapping*
//! is only allocation-count-equivalent (arrivals may re-route existing units
//! through cancellation arcs), so the mapping itself is checked for
//! validity, not pointwise equality.

use proptest::prelude::*;
use rsin_core::mapping::verify;
use rsin_core::model::ScheduleProblem;
use rsin_core::scheduler::{
    IncrementalBackend, IncrementalScheduler, MaxFlowScheduler, ScheduleScratch, Scheduler,
    StreamDecision,
};
use rsin_topology::builders::{generalized_cube, omega};
use rsin_topology::{CircuitState, Network};

/// A raw interleaving script: processor picks in 0..8. Whether each pick is
/// an arrival or a release is decided by the live state (idle → request,
/// active → release), so every generated sequence is a valid stream.
fn arb_script() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..8, 1..150)
}

fn check_stream(net: &Network, script: &[usize]) -> Result<(), TestCaseError> {
    let mut inc = IncrementalScheduler::new(net, IncrementalBackend::MaxFlow);
    let mut active = vec![false; net.num_processors()];
    let oracle = MaxFlowScheduler::default();
    let mut scratch = ScheduleScratch::new();
    let cs = CircuitState::new(net);
    let all: Vec<usize> = (0..net.num_resources()).collect();
    for &p in script {
        let decision = if active[p] {
            active[p] = false;
            inc.release(p)
        } else {
            active[p] = true;
            inc.request(p)
        };
        let decision = decision.expect("valid interleavings never error");
        // The decision must concern the commanded processor.
        match decision {
            StreamDecision::Allocated { processor, .. }
            | StreamDecision::Queued { processor }
            | StreamDecision::Released { processor, .. }
            | StreamDecision::Withdrawn { processor } => prop_assert_eq!(processor, p),
        }
        // Oracle: fresh batch solve over the active set on the free network.
        let requests: Vec<usize> = (0..active.len()).filter(|&q| active[q]).collect();
        let problem = ScheduleProblem::homogeneous(&cs, &requests, &all);
        let batch = oracle
            .try_schedule_reusing(&problem, &mut scratch)
            .expect("oracle solves");
        prop_assert_eq!(
            inc.allocated_count(),
            batch.assignments.len(),
            "diverged from batch after touching p{}",
            p
        );
        prop_assert_eq!(inc.allocated_count() + inc.queued_count(), requests.len());
        // The retained mapping decomposes into a valid, link-disjoint
        // assignment of exactly the allocated processors.
        let assignments = inc.assignments().expect("retained flow decomposes");
        prop_assert_eq!(assignments.len(), inc.allocated_count());
        if let Err(e) = verify(&assignments, &problem) {
            prop_assert!(false, "invalid retained mapping: {}", e);
        }
    }
    // The whole stream ran on one superset graph build.
    prop_assert_eq!(inc.rebuilds(), 1);
    Ok(())
}

mod codec_regression {
    //! The `R`/`F` command-log codec must reject malformed replays with a
    //! typed [`CodecError`] naming the offending line — the serve binary
    //! used to skip bad lines silently, desynchronizing replayed decision
    //! logs from the recorded stream.

    use rsin_sim::stream::{
        encode_commands, generate_commands, parse_commands, CodecError, CodecErrorKind,
    };

    #[test]
    fn malformed_lines_are_typed_errors_with_line_numbers() {
        for (text, line, kind) in [
            ("R\n", 1, CodecErrorKind::MissingProcessor),
            ("R 0\nF\n", 2, CodecErrorKind::MissingProcessor),
            (
                "R zero\n",
                1,
                CodecErrorKind::BadProcessor("zero".to_string()),
            ),
            // usize::from_str would accept the sign prefix; the codec
            // insists on plain ASCII decimals.
            (
                "R 0\nF +3\n",
                2,
                CodecErrorKind::BadProcessor("+3".to_string()),
            ),
            ("R 3 4\n", 1, CodecErrorKind::TrailingTokens),
            (
                "R 0\n\n# note\nF 0 trailing\n",
                4,
                CodecErrorKind::TrailingTokens,
            ),
            ("Q 3\n", 1, CodecErrorKind::UnknownOp("Q".to_string())),
        ] {
            assert_eq!(parse_commands(text), Err(CodecError { line, kind }));
        }
    }

    /// The rendered diagnostic keeps the `line N: ...` contract the serve
    /// CLI surfaces to operators.
    #[test]
    fn codec_errors_render_the_line_number() {
        let err = parse_commands("R 0\nbogus 1\n").unwrap_err();
        assert_eq!(err.to_string(), "line 2: unknown op \"bogus\"");
    }

    /// Well-formed logs — including generated ones with comments and blank
    /// lines — still parse, and encode/parse round-trips exactly.
    #[test]
    fn well_formed_logs_round_trip() {
        let cmds = generate_commands(8, 64, 0.7, 7, 0);
        let parsed = parse_commands(&encode_commands(&cmds)).expect("round trip");
        assert_eq!(parsed, cmds);
        assert_eq!(
            parse_commands("# header\n\n  R 5\nF 5\n").expect("comments and blanks skip"),
            parse_commands("R 5\nF 5").expect("bare log parses"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Omega-8.
    #[test]
    fn streaming_matches_batch_on_omega(script in arb_script()) {
        check_stream(&omega(8).unwrap(), &script)?;
    }

    /// Generalized cube-8.
    #[test]
    fn streaming_matches_batch_on_cube(script in arb_script()) {
        check_stream(&generalized_cube(8).unwrap(), &script)?;
    }
}

mod fuzz {
    //! No panic from outside: arbitrary text into the command-log codec and
    //! arbitrary command sequences, malformed ones included, into the serve
    //! loop.

    use super::*;
    use rsin_serve::{serve_commands, ServerConfig};
    use rsin_sim::stream::{encode_commands, parse_commands, StreamCommand};

    /// The codec's tokens, separators and junk the fuzzer builds text from.
    const ALPHABET: [&str; 24] = [
        "R",
        "F",
        "S",
        "0",
        "1",
        "7",
        "9",
        "42",
        "-",
        "+",
        " ",
        " ",
        "\t",
        "\n",
        "\n",
        "\r\n",
        "#",
        "x",
        "é",
        "\0",
        "R 3",
        "F 12",
        "\n\n",
        "184467440737095516160",
    ];

    fn arb_text() -> impl Strategy<Value = String> {
        prop::collection::vec(0usize..ALPHABET.len(), 0..120)
            .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
    }

    /// Requests, releases and stats probes naming processors in `0..2·np`:
    /// unknown ids, duplicate requests and releases of idle processors
    /// come up often.
    fn arb_commands(np: usize) -> impl Strategy<Value = Vec<StreamCommand>> {
        prop::collection::vec((0usize..5, 0..2 * np), 0..80).prop_map(|picks| {
            picks
                .into_iter()
                .map(|(op, processor)| match op {
                    0 | 1 => StreamCommand::Request { processor },
                    2 | 3 => StreamCommand::Release { processor },
                    _ => StreamCommand::Stats,
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A parse error names a line that exists and fails on its own; a
        /// parsed log encodes and parses back to the same commands.
        #[test]
        fn codec_never_panics_and_reports_real_lines(text in arb_text()) {
            match parse_commands(&text) {
                Err(e) => {
                    let line = text.lines().nth(e.line - 1);
                    prop_assert!(line.is_some(), "line {} of {:?} does not exist", e.line, text);
                    prop_assert!(parse_commands(line.unwrap_or_default()).is_err());
                }
                Ok(cmds) => {
                    prop_assert_eq!(parse_commands(&encode_commands(&cmds)), Ok(cmds));
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every command gets exactly one log line and one verdict, and the
        /// allocation at shutdown is a fresh Theorem-2 solve on the
        /// processors the well-formed commands left active.
        #[test]
        fn serve_loop_answers_every_command(cmds in arb_commands(8)) {
            let net = omega(8).unwrap();
            let mut active = vec![false; net.num_processors()];
            for c in &cmds {
                match *c {
                    StreamCommand::Request { processor: p } if p < active.len() => active[p] = true,
                    StreamCommand::Release { processor: p } if p < active.len() => active[p] = false,
                    _ => {}
                }
            }
            let requests: Vec<usize> = (0..active.len()).filter(|&p| active[p]).collect();
            let all: Vec<usize> = (0..net.num_resources()).collect();
            let cs = CircuitState::new(&net);
            let fresh = MaxFlowScheduler::default()
                .try_schedule(&ScheduleProblem::homogeneous(&cs, &requests, &all))
                .expect("oracle solves");
            let report = serve_commands(&net, ServerConfig::default(), &cmds);
            prop_assert_eq!(report.lines.len(), cmds.len());
            prop_assert_eq!(
                (report.decisions + report.errors + report.stats_probes) as usize,
                cmds.len()
            );
            prop_assert_eq!(report.allocated, fresh.allocated());
        }
    }
}
