//! Tracing transparency (proptest).
//!
//! The probe contract (DESIGN.md §13): a probe *observes* the request
//! lifecycle, it never steers it. For arbitrary interleaved
//! arrival/release scripts, running the same stream plain, under the [`NoopProbe`], and under a live
//! [`FlightRecorder`] must produce identical decision sequences and
//! identical retained allocation counts — and the recorded spans must form
//! well-chained request lifecycles (`Submit → {Allocate | Queue →
//! {Promote → …, Withdraw}} → Release`, open chains allowed at stream
//! end). The serve pipeline inherits the same guarantee byte-for-byte on
//! its decision log, including interleaved in-band `S` stats lines.

use proptest::prelude::*;
use rsin_core::scheduler::{IncrementalBackend, IncrementalScheduler, StreamDecision};
use rsin_obs::{validate_spans, FlightRecorder, NoopProbe, SpanPhase};
use rsin_serve::{serve_commands, serve_commands_probed, ServerConfig};
use rsin_sim::stream::{generate_commands, with_stats_every};
use rsin_topology::builders::omega;
use std::sync::Arc;

/// A raw interleaving script over 8 processors: the live state decides
/// whether each pick arrives or releases, so every script is valid.
fn arb_script() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..8, 1..120)
}

/// Lockstep triple run of one script: plain vs noop-traced vs
/// live-traced. Returns the live recorder for span checks.
fn run_lockstep(script: &[usize]) -> Result<(FlightRecorder, usize, usize), TestCaseError> {
    let net = omega(8).unwrap();
    let recorder = FlightRecorder::new(rsin_obs::trace::DEFAULT_TRACE_CAPACITY);
    let new = || IncrementalScheduler::new(&net, IncrementalBackend::MaxFlow);
    let (mut plain, mut noop, mut live) = (new(), new(), new());
    let mut active = vec![false; net.num_processors()];
    let mut submits = 0usize;
    for &p in script {
        let (d0, d1, d2) = if active[p] {
            active[p] = false;
            (
                plain.release(p),
                noop.release_observed(p, &NoopProbe),
                live.release_observed(p, &recorder),
            )
        } else {
            active[p] = true;
            submits += 1;
            (
                plain.request(p),
                noop.request_observed(p, &NoopProbe),
                live.request_observed(p, &recorder),
            )
        };
        let d0 = d0.expect("valid interleavings never error");
        prop_assert_eq!(d0, d1.expect("noop-traced run errored"));
        prop_assert_eq!(d0, d2.expect("live-traced run errored"));
        prop_assert_eq!(plain.allocated_count(), live.allocated_count());
        prop_assert_eq!(plain.queued_count(), live.queued_count());
    }
    Ok((recorder, submits, plain.allocated_count()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Tracing is outcome-transparent: every decision,
    /// and the retained allocated/queued counts after every command, are
    /// identical whether the stream runs plain, noop-traced, or under a
    /// live flight recorder.
    #[test]
    fn tracing_never_changes_outcomes(script in arb_script()) {
        run_lockstep(&script)?;
    }

    /// The recorded spans chain correctly: the lifecycle state machine
    /// accepts the whole stream, one `Submit` per arrival, and the open
    /// `Allocate` chains at stream end equal the retained allocations.
    #[test]
    fn recorded_spans_are_well_formed(script in arb_script()) {
        let (recorder, submits, allocated) = run_lockstep(&script)?;
        let snap = recorder.snapshot();
        prop_assert_eq!(snap.dropped, 0, "capacity covers every script");
        if let Err(e) = validate_spans(&snap.events) {
            prop_assert!(false, "ill-formed span stream: {}", e);
        }
        let count = |ph: SpanPhase| snap.events.iter().filter(|e| e.phase == ph).count();
        prop_assert_eq!(count(SpanPhase::Submit), submits);
        // Every chain ends in Release or Withdraw or is still open;
        // open Allocate/Promote chains are exactly the live circuits.
        let closed = count(SpanPhase::Release) + count(SpanPhase::Withdraw);
        let opened = count(SpanPhase::Allocate) + count(SpanPhase::Queue);
        prop_assert!(closed <= submits);
        prop_assert!(opened >= allocated);
    }

    /// The serve pipeline inherits transparency byte-for-byte: the decision
    /// log (with interleaved `S` stats lines) is identical plain vs traced.
    #[test]
    fn traced_serve_log_is_byte_identical(seed in 0u64..64) {
        let net = omega(8).unwrap();
        let commands = with_stats_every(&generate_commands(8, 96, 0.6, seed, 0), 24);
        let cfg = ServerConfig::default();
        let baseline = serve_commands(&net, cfg, &commands).log();
        let recorder = Arc::new(FlightRecorder::new(
            rsin_obs::trace::DEFAULT_TRACE_CAPACITY,
        ));
        let report = serve_commands_probed(&net, cfg, &commands, recorder.clone());
        prop_assert_eq!(&report.log(), &baseline);
        let snap = recorder.snapshot();
        if let Err(e) = validate_spans(&snap.events) {
            prop_assert!(false, "ill-formed serve span stream: {}", e);
        }
    }
}

/// Decisions must concern the commanded processor even when traced (guards
/// against the spans' request-id bookkeeping leaking into routing).
#[test]
fn traced_decisions_name_the_commanded_processor() {
    let net = omega(8).unwrap();
    let recorder = FlightRecorder::new(1 << 12);
    let mut inc = IncrementalScheduler::new(&net, IncrementalBackend::MaxFlow);
    let mut active = [false; 8];
    for p in [0usize, 3, 0, 3, 5, 5, 1, 2, 1, 2] {
        let d = if active[p] {
            active[p] = false;
            inc.release_observed(p, &recorder).unwrap()
        } else {
            active[p] = true;
            inc.request_observed(p, &recorder).unwrap()
        };
        let named = match d {
            StreamDecision::Allocated { processor, .. }
            | StreamDecision::Queued { processor }
            | StreamDecision::Released { processor, .. }
            | StreamDecision::Withdrawn { processor } => processor,
        };
        assert_eq!(named, p);
    }
    validate_spans(&recorder.snapshot().events).unwrap();
}
