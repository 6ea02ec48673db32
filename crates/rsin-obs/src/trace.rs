//! Request-lifecycle tracing: per-request causal spans recorded into a
//! bounded flight recorder.
//!
//! Cumulative counters ([`Telemetry`](crate::Telemetry)) answer "how many";
//! this module answers "what happened to request 4711 between submit and
//! allocate". Each request the streaming scheduler accepts is assigned a
//! fresh monotonically increasing id, and its lifecycle emits a causal span
//! chain:
//!
//! ```text
//! Submit → Allocate → Release            (allocated on arrival)
//! Submit → Queue → Promote → Release     (queued, later promoted)
//! Submit → Queue → Withdraw              (queued, released before service)
//! ```
//!
//! plus free-floating per-cycle markers that carry no request id: a
//! simulated run's [`SpanPhase::Fault`] / [`SpanPhase::Repair`] toggles and
//! its degraded cycles' [`SpanPhase::Shed`] / [`SpanPhase::Recovered`]
//! counts. [`validate_spans`] checks the chain grammar: every `Release`
//! matches a prior `Allocate`/`Promote`, every `Withdraw` a prior `Queue`,
//! and no id is reused while open.
//!
//! Spans go through the one observation seam,
//! [`Probe::span`]/[`Probe::span_pair`], under the [`Probe`] contract:
//! inlined empty defaults (so [`NoopProbe`](crate::NoopProbe) compiles to
//! nothing), no influence on control flow, no simulation randomness,
//! bounded memory. The live implementation, [`FlightRecorder`], timestamps
//! each span against its construction anchor and records into a lock-free
//! fixed-capacity slot ring with exact drop accounting.
//!
//! A [`TraceSnapshot`] exports two ways: [`TraceSnapshot::to_chrome_json`]
//! emits Chrome trace-event JSON (loadable in `chrome://tracing` or
//! Perfetto, one async track per request id), and
//! [`TraceSnapshot::to_canonical_text`] emits a timestamp-free compact form
//! whose bytes depend only on the span sequence — the form determinism
//! tests compare.

use crate::probe::Probe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Default flight-recorder capacity: one span chain is 2–4 events, so this
/// holds the full lifecycle of the most recent ~16k requests.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// One step of a request's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanPhase {
    /// The request entered the scheduler (`a` = processor).
    Submit,
    /// Decision: allocated on arrival (`a` = processor, `b` = resource).
    Allocate,
    /// Decision: no augmenting path, left queued (`a` = processor).
    Queue,
    /// A release re-augmentation promoted this queued request
    /// (`a` = processor, `b` = resource).
    Promote,
    /// The request's circuit was released (`a` = processor,
    /// `b` = resource).
    Release,
    /// The request was withdrawn while still queued (`a` = processor).
    Withdraw,
    /// A degraded cycle shed requests (`a` = count; no request id).
    Shed,
    /// A degraded cycle recovered blocked requests (`a` = count; no
    /// request id).
    Recovered,
    /// A fault-plan `Fail` event was applied (`a` = component index, `b` =
    /// target kind: 0 link, 1 box, 2 correlated domain, 3 Byzantine box;
    /// no request id).
    Fault,
    /// A fault-plan `Repair` event was applied (operands as for
    /// [`SpanPhase::Fault`]; no request id).
    Repair,
}

impl SpanPhase {
    /// Canonical lower-case name (used by both export forms).
    pub const fn name(self) -> &'static str {
        match self {
            SpanPhase::Submit => "submit",
            SpanPhase::Allocate => "allocate",
            SpanPhase::Queue => "queue",
            SpanPhase::Promote => "promote",
            SpanPhase::Release => "release",
            SpanPhase::Withdraw => "withdraw",
            SpanPhase::Shed => "shed",
            SpanPhase::Recovered => "recovered",
            SpanPhase::Fault => "fault",
            SpanPhase::Repair => "repair",
        }
    }

    /// Whether this phase carries a request id (lifecycle phases do;
    /// `Shed`/`Recovered`/`Fault`/`Repair` are per-cycle markers).
    pub const fn has_request_id(self) -> bool {
        !matches!(
            self,
            SpanPhase::Shed | SpanPhase::Recovered | SpanPhase::Fault | SpanPhase::Repair
        )
    }

    /// All phases, indexed by [`SpanPhase::index`] — the wire encoding of
    /// the recorder's atomic slots.
    pub const ALL: [SpanPhase; 10] = [
        SpanPhase::Submit,
        SpanPhase::Allocate,
        SpanPhase::Queue,
        SpanPhase::Promote,
        SpanPhase::Release,
        SpanPhase::Withdraw,
        SpanPhase::Shed,
        SpanPhase::Recovered,
        SpanPhase::Fault,
        SpanPhase::Repair,
    ];

    /// Position in [`SpanPhase::ALL`] (declaration order).
    pub const fn index(self) -> usize {
        self as usize
    }
}

/// One recorded span: a lifecycle step of request `req` at monotonic time
/// `ts_ns` (nanoseconds since the recorder's anchor), with phase-specific
/// operands `a`/`b` (see [`SpanPhase`] docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Request id (fresh per accepted request; a per-cycle count has
    /// `req == 0` and a phase with `has_request_id() == false`).
    pub req: u64,
    /// Lifecycle step.
    pub phase: SpanPhase,
    /// Monotonic nanoseconds since the recorder was created.
    pub ts_ns: u64,
    /// First phase-specific operand (usually the processor).
    pub a: u64,
    /// Second phase-specific operand (usually the resource).
    pub b: u64,
}

/// One lock-free ring slot: the five [`SpanEvent`] fields as relaxed
/// atomics, so writers never serialize on a lock.
#[derive(Debug, Default)]
struct SpanSlot {
    req: AtomicU64,
    phase: AtomicU64,
    ts: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

/// The live span sink: a bounded in-memory flight recorder. Spans are
/// timestamped against the construction anchor and written into a
/// lock-free slot ring, so memory stays fixed and the most recent history
/// survives; [`FlightRecorder::snapshot`] freezes it for export.
///
/// Two hot-path choices keep the traced streaming scheduler inside
/// `bench_smoke`'s `trace_overhead` gate (≤ 1.25× the untraced replay,
/// whose decisions are only ~200 ns each):
///
/// * spans store *raw timebase ticks* (the TSC on x86-64, where one
///   `clock_gettime` per span would dominate; monotonic clock nanoseconds
///   elsewhere), and [`FlightRecorder::snapshot`] rescales them to
///   nanoseconds against the anchor — exported [`SpanEvent::ts_ns`] values
///   are always nanoseconds;
/// * a writer claims its slot with one `fetch_add` and fills it with
///   relaxed stores — no mutex. The ring therefore rounds its capacity up
///   to a power of two (index = sequence & mask), and a snapshot racing
///   live writers may observe a slot mid-overwrite; snapshots taken after
///   writers quiesce (every in-tree caller joins its workers first) are
///   exact, with exact push/drop accounting either way.
#[derive(Debug)]
pub struct FlightRecorder {
    anchor: Instant,
    anchor_ticks: u64,
    /// Power-of-two slot array (empty at capacity 0).
    slots: Box<[SpanSlot]>,
    /// `slots.len() - 1`, the index mask (0 when empty — guarded before
    /// use).
    mask: usize,
    pushed: AtomicU64,
}

/// Raw timebase read. On x86-64 this is the invariant TSC — a register
/// read, about an order of magnitude cheaper than `Instant::now()` on
/// hosts without a fast vDSO clock path. Other targets fall back to 0 and
/// the recorder uses the monotonic clock directly. Under miri the TSC
/// path is cfg'd off (the intrinsic is unsupported there), so the CI miri
/// job exercises the monotonic-clock fallback.
#[inline]
fn raw_ticks() -> u64 {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        // SAFETY: RDTSC has no preconditions — it only reads the
        // time-stamp counter.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
    #[cfg(any(not(target_arch = "x86_64"), miri))]
    {
        0
    }
}

/// Whether [`raw_ticks`] is the live TSC (`true`) or the zero fallback
/// that routes timestamps through the monotonic clock.
const TSC_TIMEBASE: bool = cfg!(all(target_arch = "x86_64", not(miri)));

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_TRACE_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder holding at least `capacity` spans (rounded up to the
    /// next power of two for the lock-free index mask; capacity 0 counts
    /// but keeps nothing).
    pub fn new(capacity: usize) -> Self {
        let len = if capacity == 0 {
            0
        } else {
            capacity.next_power_of_two()
        };
        let mut slots = Vec::with_capacity(len);
        slots.resize_with(len, SpanSlot::default);
        FlightRecorder {
            anchor: Instant::now(),
            anchor_ticks: raw_ticks(),
            slots: slots.into_boxed_slice(),
            mask: len.saturating_sub(1),
            pushed: AtomicU64::new(0),
        }
    }

    /// Current raw-timebase reading relative to the anchor.
    #[inline]
    fn now_raw(&self) -> u64 {
        if TSC_TIMEBASE {
            raw_ticks().wrapping_sub(self.anchor_ticks)
        } else {
            u64::try_from(self.anchor.elapsed().as_nanos()).unwrap_or(u64::MAX)
        }
    }

    /// Fill the slot claimed by sequence number `seq`.
    #[inline]
    fn fill(&self, seq: u64, req: u64, phase: SpanPhase, ts: u64, a: u64, b: u64) {
        let slot = &self.slots[(seq as usize) & self.mask];
        slot.req.store(req, Ordering::Relaxed);
        slot.phase.store(phase.index() as u64, Ordering::Relaxed);
        slot.ts.store(ts, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
    }

    /// Nanoseconds per raw tick, calibrated over the anchor→now interval.
    /// 1.0 on targets where raw ticks already are nanoseconds.
    fn ns_per_tick(&self) -> f64 {
        if TSC_TIMEBASE {
            let elapsed_ns = self.anchor.elapsed().as_nanos() as f64;
            let elapsed_ticks = raw_ticks().wrapping_sub(self.anchor_ticks);
            if elapsed_ticks == 0 {
                0.0
            } else {
                elapsed_ns / elapsed_ticks as f64
            }
        } else {
            1.0
        }
    }

    /// Freeze the recorded spans for export, rescaling raw timebase ticks
    /// to monotonic nanoseconds since the anchor. Exact once writers have
    /// quiesced (see the type docs for the racing-writer caveat).
    pub fn snapshot(&self) -> TraceSnapshot {
        let scale = self.ns_per_tick();
        let pushed = self.pushed.load(Ordering::Acquire);
        let kept = (self.slots.len() as u64).min(pushed);
        let mut events = Vec::with_capacity(kept as usize);
        for seq in pushed - kept..pushed {
            let slot = &self.slots[(seq as usize) & self.mask];
            events.push(SpanEvent {
                req: slot.req.load(Ordering::Relaxed),
                phase: SpanPhase::ALL
                    [(slot.phase.load(Ordering::Relaxed) as usize).min(SpanPhase::ALL.len() - 1)],
                ts_ns: (slot.ts.load(Ordering::Relaxed) as f64 * scale) as u64,
                a: slot.a.load(Ordering::Relaxed),
                b: slot.b.load(Ordering::Relaxed),
            });
        }
        TraceSnapshot {
            events,
            pushed,
            dropped: pushed - kept,
        }
    }
}

impl Probe for FlightRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    fn span(&self, req: u64, phase: SpanPhase, a: u64, b: u64) {
        // Count first so drop accounting stays exact even at capacity 0.
        // Relaxed suffices: exact snapshots are only promised after writers
        // quiesce, where thread-join ordering already synchronizes.
        let seq = self.pushed.fetch_add(1, Ordering::Relaxed);
        if self.slots.is_empty() {
            return;
        }
        self.fill(seq, req, phase, self.now_raw(), a, b);
    }

    fn span_pair(&self, first: (u64, SpanPhase, u64, u64), second: (u64, SpanPhase, u64, u64)) {
        // One timebase read and one slot claim for both spans: the pair is
        // causally simultaneous (a decision and the submit it answers), so
        // a shared timestamp is exact, not an approximation.
        let seq = self.pushed.fetch_add(2, Ordering::Relaxed);
        if self.slots.is_empty() {
            return;
        }
        let ts = self.now_raw();
        let (req, phase, a, b) = first;
        self.fill(seq, req, phase, ts, a, b);
        let (req, phase, a, b) = second;
        self.fill(seq + 1, req, phase, ts, a, b);
    }
}

/// A frozen flight-recorder trace: surviving spans oldest-first, plus exact
/// push/drop accounting.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// Surviving spans, oldest first.
    pub events: Vec<SpanEvent>,
    /// Spans ever recorded (survivors + dropped).
    pub pushed: u64,
    /// Spans evicted by the bounded ring.
    pub dropped: u64,
}

impl TraceSnapshot {
    /// Chrome trace-event JSON (the `chrome://tracing` / Perfetto format).
    ///
    /// Each request id becomes one async track (`ph: "b"`/`"n"`/`"e"` with
    /// a shared `id`), so the viewer shows a lane per in-flight request
    /// with its submit→decision→release chain; per-cycle markers become
    /// instant events (`ph: "i"`): `Shed`/`Recovered` with their count,
    /// `Fault`/`Repair` with their component and target kind. Timestamps
    /// are the recorded monotonic nanoseconds converted to microseconds
    /// (the format's unit).
    pub fn to_chrome_json(&self, process_name: &str) -> String {
        let mut s = String::with_capacity(128 + 160 * self.events.len());
        s.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        s.push_str(&format!(
            "  {{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0, \
             \"args\": {{\"name\": \"{process_name}\"}}}}",
        ));
        for e in &self.events {
            let ts_us = e.ts_ns as f64 / 1000.0;
            s.push_str(",\n");
            if e.phase.has_request_id() {
                let ph = match e.phase {
                    SpanPhase::Submit => "b",
                    SpanPhase::Release | SpanPhase::Withdraw => "e",
                    _ => "n",
                };
                s.push_str(&format!(
                    "  {{\"name\": \"request\", \"cat\": \"lifecycle\", \"ph\": \"{ph}\", \
                     \"id\": {}, \"pid\": 0, \"tid\": {}, \"ts\": {ts_us:.3}, \
                     \"args\": {{\"phase\": \"{}\", \"a\": {}, \"b\": {}}}}}",
                    e.req,
                    e.a,
                    e.phase.name(),
                    e.a,
                    e.b,
                ));
            } else {
                let (cat, args) = match e.phase {
                    SpanPhase::Fault | SpanPhase::Repair => (
                        "fault",
                        format!("\"component\": {}, \"target_kind\": {}", e.a, e.b),
                    ),
                    _ => ("degraded", format!("\"count\": {}", e.a)),
                };
                s.push_str(&format!(
                    "  {{\"name\": \"{}\", \"cat\": \"{cat}\", \"ph\": \"i\", \"s\": \"g\", \
                     \"pid\": 0, \"tid\": 0, \"ts\": {ts_us:.3}, \"args\": {{{args}}}}}",
                    e.phase.name(),
                ));
            }
        }
        s.push_str(&format!(
            "\n], \"otherData\": {{\"spans_recorded\": {}, \"spans_dropped\": {}}}}}\n",
            self.pushed, self.dropped,
        ));
        s
    }

    /// Canonical compact text: one `phase r<req> <a> <b>` line per span, no
    /// timestamps — byte-for-byte reproducible whenever the span *sequence*
    /// is, which is what determinism tests compare.
    pub fn to_canonical_text(&self) -> String {
        let mut s = String::with_capacity(24 * self.events.len());
        for e in &self.events {
            s.push_str(&format!("{} r{} {} {}\n", e.phase.name(), e.req, e.a, e.b));
        }
        s
    }
}

/// Lifecycle state of an open request id during validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpenState {
    Submitted,
    Allocated,
    Queued,
}

/// A span-grammar violation found by [`validate_spans`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanError {
    /// Index of the offending span in the validated slice.
    pub index: usize,
    /// The request id involved.
    pub req: u64,
    /// What rule broke.
    pub reason: &'static str,
}

impl std::fmt::Display for SpanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "span {} (request {}): {}",
            self.index, self.req, self.reason
        )
    }
}

impl std::error::Error for SpanError {}

/// Check the span chain grammar over a *complete* trace (no ring drops):
///
/// * `Submit` opens a fresh id — an id is never reused while open;
/// * `Allocate`/`Queue` require a submitted id; `Promote` a queued one;
/// * `Release` closes only allocated/promoted ids, `Withdraw` only queued
///   ones;
/// * `Shed`/`Recovered`/`Fault`/`Repair` markers are free-floating and
///   always legal.
///
/// Requests still open at the end of the slice are fine (a live system
/// always has requests in flight).
pub fn validate_spans(events: &[SpanEvent]) -> Result<(), SpanError> {
    use std::collections::HashMap;
    let mut open: HashMap<u64, OpenState> = HashMap::new();
    for (index, e) in events.iter().enumerate() {
        let fail = |reason| SpanError {
            index,
            req: e.req,
            reason,
        };
        match e.phase {
            SpanPhase::Shed | SpanPhase::Recovered | SpanPhase::Fault | SpanPhase::Repair => {}
            SpanPhase::Submit => {
                if open.insert(e.req, OpenState::Submitted).is_some() {
                    return Err(fail("id reused while open"));
                }
            }
            SpanPhase::Allocate => match open.get_mut(&e.req) {
                Some(st @ OpenState::Submitted) => *st = OpenState::Allocated,
                Some(_) => return Err(fail("allocate of a decided request")),
                None => return Err(fail("allocate without submit")),
            },
            SpanPhase::Queue => match open.get_mut(&e.req) {
                Some(st @ OpenState::Submitted) => *st = OpenState::Queued,
                Some(_) => return Err(fail("queue of a decided request")),
                None => return Err(fail("queue without submit")),
            },
            SpanPhase::Promote => match open.get_mut(&e.req) {
                Some(st @ OpenState::Queued) => *st = OpenState::Allocated,
                Some(_) => return Err(fail("promote of a non-queued request")),
                None => return Err(fail("promote without submit")),
            },
            SpanPhase::Release => match open.remove(&e.req) {
                Some(OpenState::Allocated) => {}
                Some(_) => return Err(fail("release without a prior allocate/promote")),
                None => return Err(fail("release of an unknown id")),
            },
            SpanPhase::Withdraw => match open.remove(&e.req) {
                Some(OpenState::Queued) => {}
                Some(_) => return Err(fail("withdraw of a non-queued request")),
                None => return Err(fail("withdraw of an unknown id")),
            },
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(req: u64, phase: SpanPhase) -> SpanEvent {
        SpanEvent {
            req,
            phase,
            ts_ns: req * 10,
            a: req,
            b: 0,
        }
    }

    /// A per-cycle marker (no request id).
    fn marker(phase: SpanPhase) -> SpanEvent {
        SpanEvent {
            req: 0,
            phase,
            ts_ns: 0,
            a: 2,
            b: 1,
        }
    }

    /// The no-op tracer is [`NoopProbe`](crate::NoopProbe): the inlined
    /// empty span defaults cost no state and record nothing.
    #[test]
    fn noop_tracer_is_zero_sized_and_silent() {
        assert_eq!(std::mem::size_of::<crate::NoopProbe>(), 0);
        let t = crate::NoopProbe;
        assert!(!t.enabled());
        t.span(1, SpanPhase::Submit, 0, 0);
        t.span_pair((1, SpanPhase::Submit, 0, 0), (1, SpanPhase::Allocate, 0, 1));
    }

    #[test]
    fn flight_recorder_keeps_spans_in_order_with_monotonic_stamps() {
        let fr = FlightRecorder::new(16);
        assert!(fr.enabled());
        fr.span(1, SpanPhase::Submit, 3, 0);
        fr.span(1, SpanPhase::Allocate, 3, 7);
        fr.span(1, SpanPhase::Release, 3, 7);
        let snap = fr.snapshot();
        assert_eq!(snap.pushed, 3);
        assert_eq!(snap.dropped, 0);
        let phases: Vec<SpanPhase> = snap.events.iter().map(|e| e.phase).collect();
        assert_eq!(
            phases,
            vec![SpanPhase::Submit, SpanPhase::Allocate, SpanPhase::Release]
        );
        assert!(snap.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        validate_spans(&snap.events).expect("well-formed chain");
    }

    #[test]
    fn bounded_recorder_accounts_drops_exactly() {
        let fr = FlightRecorder::new(2);
        for i in 0..5 {
            fr.span(i, SpanPhase::Submit, i, 0);
        }
        let snap = fr.snapshot();
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.pushed, 5);
        assert_eq!(snap.dropped, 3);
        assert_eq!(snap.events[0].req, 3, "oldest survivor first");
    }

    #[test]
    fn zero_capacity_recorder_retains_nothing_and_accounts_every_drop() {
        let fr = FlightRecorder::new(0);
        for i in 0..5 {
            fr.span(i, SpanPhase::Submit, i, 0);
        }
        fr.span_pair((5, SpanPhase::Submit, 5, 0), (5, SpanPhase::Queue, 5, 0));
        let snap = fr.snapshot();
        assert!(snap.events.is_empty());
        assert_eq!((snap.pushed, snap.dropped), (7, 7));
    }

    #[test]
    fn capacity_one_recorder_holds_exactly_the_latest() {
        let fr = FlightRecorder::new(1);
        fr.span(1, SpanPhase::Submit, 1, 0);
        assert_eq!(fr.snapshot().dropped, 0);
        fr.span(2, SpanPhase::Submit, 2, 0);
        fr.span(3, SpanPhase::Submit, 3, 0);
        let snap = fr.snapshot();
        assert_eq!((snap.events.len(), snap.pushed, snap.dropped), (1, 3, 2));
        assert_eq!(snap.events[0].req, 3);
    }

    #[test]
    fn recorder_exact_capacity_boundary() {
        // Capacity rounds up to a power of two: 4 slots hold 4 spans, and
        // the fifth (a pair straddling the boundary) evicts the oldest.
        let fr = FlightRecorder::new(4);
        for i in 0..3 {
            fr.span(i, SpanPhase::Submit, i, 0);
        }
        assert_eq!(fr.snapshot().dropped, 0);
        fr.span_pair((3, SpanPhase::Submit, 3, 0), (3, SpanPhase::Queue, 3, 0));
        let snap = fr.snapshot();
        assert_eq!((snap.pushed, snap.dropped), (5, 1));
        let kept: Vec<(u64, SpanPhase)> = snap.events.iter().map(|e| (e.req, e.phase)).collect();
        assert_eq!(
            kept,
            vec![
                (1, SpanPhase::Submit),
                (2, SpanPhase::Submit),
                (3, SpanPhase::Submit),
                (3, SpanPhase::Queue)
            ]
        );
    }

    #[test]
    fn canonical_text_has_no_timestamps() {
        let snap = TraceSnapshot {
            events: vec![
                SpanEvent {
                    req: 4,
                    phase: SpanPhase::Submit,
                    ts_ns: 123,
                    a: 2,
                    b: 0,
                },
                SpanEvent {
                    req: 4,
                    phase: SpanPhase::Allocate,
                    ts_ns: 456,
                    a: 2,
                    b: 5,
                },
            ],
            pushed: 2,
            dropped: 0,
        };
        assert_eq!(snap.to_canonical_text(), "submit r4 2 0\nallocate r4 2 5\n");
    }

    #[test]
    fn chrome_json_shapes_async_tracks_and_markers() {
        let snap = TraceSnapshot {
            events: vec![
                sp(1, SpanPhase::Submit),
                sp(1, SpanPhase::Queue),
                SpanEvent {
                    req: 0,
                    phase: SpanPhase::Shed,
                    ts_ns: 40,
                    a: 3,
                    b: 0,
                },
                sp(1, SpanPhase::Promote),
                SpanEvent {
                    req: 0,
                    phase: SpanPhase::Fault,
                    ts_ns: 50,
                    a: 9,
                    b: 2,
                },
                sp(1, SpanPhase::Release),
            ],
            pushed: 7,
            dropped: 1,
        };
        let json = snap.to_chrome_json("unit-test");
        for key in [
            "\"traceEvents\"",
            "\"ph\": \"b\"",
            "\"ph\": \"n\"",
            "\"ph\": \"e\"",
            "\"ph\": \"i\"",
            "\"phase\": \"promote\"",
            "\"name\": \"shed\"",
            "\"count\": 3",
            "\"name\": \"fault\", \"cat\": \"fault\"",
            "\"component\": 9, \"target_kind\": 2",
            "\"spans_dropped\": 1",
            "\"name\": \"unit-test\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        // Loadable = at least structurally balanced.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
    }

    #[test]
    fn validator_accepts_the_three_legal_chains() {
        let events = vec![
            // Chain A: allocate → release.
            sp(1, SpanPhase::Submit),
            sp(1, SpanPhase::Allocate),
            // Chain B: queue → promote → release, interleaved with A.
            sp(2, SpanPhase::Submit),
            sp(2, SpanPhase::Queue),
            sp(1, SpanPhase::Release),
            sp(2, SpanPhase::Promote),
            sp(2, SpanPhase::Release),
            // Chain C: queue → withdraw, left open id 4 is fine.
            sp(3, SpanPhase::Submit),
            sp(3, SpanPhase::Queue),
            sp(3, SpanPhase::Withdraw),
            sp(4, SpanPhase::Submit),
            // Free-floating per-cycle markers.
            marker(SpanPhase::Recovered),
            marker(SpanPhase::Fault),
            marker(SpanPhase::Repair),
            marker(SpanPhase::Shed),
        ];
        validate_spans(&events).expect("legal chains validate");
    }

    #[test]
    fn validator_rejects_bad_chains() {
        for (events, reason) in [
            (
                vec![sp(1, SpanPhase::Submit), sp(1, SpanPhase::Submit)],
                "id reused while open",
            ),
            (vec![sp(1, SpanPhase::Allocate)], "allocate without submit"),
            (
                // Markers neither open nor close a request.
                vec![
                    sp(1, SpanPhase::Submit),
                    marker(SpanPhase::Fault),
                    marker(SpanPhase::Repair),
                    sp(1, SpanPhase::Submit),
                ],
                "id reused while open",
            ),
            (
                vec![marker(SpanPhase::Repair), sp(0, SpanPhase::Release)],
                "release of an unknown id",
            ),
            (
                vec![
                    sp(1, SpanPhase::Submit),
                    sp(1, SpanPhase::Queue),
                    sp(1, SpanPhase::Release),
                ],
                "release without a prior allocate/promote",
            ),
            (
                vec![
                    sp(1, SpanPhase::Submit),
                    sp(1, SpanPhase::Allocate),
                    sp(1, SpanPhase::Promote),
                ],
                "promote of a non-queued request",
            ),
            (
                vec![
                    sp(1, SpanPhase::Submit),
                    sp(1, SpanPhase::Allocate),
                    sp(1, SpanPhase::Withdraw),
                ],
                "withdraw of a non-queued request",
            ),
        ] {
            let err = validate_spans(&events).expect_err(reason);
            assert_eq!(err.reason, reason);
        }
    }

    #[test]
    fn span_error_renders_index_and_request() {
        let err = validate_spans(&[sp(7, SpanPhase::Release)]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "span 0 (request 7): release of an unknown id"
        );
    }
}
