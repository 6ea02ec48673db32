//! # rsin-obs — zero-overhead-when-off telemetry
//!
//! The paper's central quantitative claims are *work counts*: Dinic phases
//! and augmenting paths behind Theorems 1–2, out-of-kilter iterations behind
//! Theorem 3, and the clock-period accounting that lets the Section IV-B
//! token-propagation engine claim a speedup over the instruction-counted
//! monitor. This crate makes those internal metrics first-class without
//! taxing the hot paths that produce them:
//!
//! * [`Probe`] — the one observation seam. Every method has an inlined
//!   empty default, so the [`NoopProbe`] ZST compiles to nothing; hot code
//!   takes `&dyn Probe` and pays one predictable virtual call per *solve,
//!   cycle or lifecycle step* (never per inner-loop operation — solver work
//!   counts arrive pre-aggregated as [`SolveCounts`]). Two live sinks
//!   implement it, one per half of the seam; a caller attaches whichever
//!   it wants to read.
//! * [`Telemetry`] — the metrics half: atomic counters, per-solver
//!   accumulators, and histograms, snapshot-exported as a
//!   [`TelemetryReport`] with a hand-rolled JSON encoder (the workspace is
//!   offline; no serde).
//! * [`trace`] — the lifecycle half: per-request causal spans
//!   ([`trace::SpanPhase`]) plus per-cycle fault/repair and shed/recovered
//!   markers, recorded by a bounded lock-free [`FlightRecorder`] and
//!   exportable as Chrome trace-event JSON or a canonical timestamp-free
//!   text form.
//! * [`hist`] — log2-bucketed histograms ([`hist::AtomicHistogram`]) with
//!   p50/p90/p99 quantiles, shared-nothing atomic recording.
//! * [`window`] — a current/previous-window histogram for "what happened
//!   recently" readouts.
//!
//! ## The probe contract
//!
//! Instrumented code must behave identically under *any* probe (DESIGN.md
//! §8 pins this with a property test):
//!
//! 1. a probe never influences control flow — implementations only record;
//! 2. a probe never consumes simulation randomness;
//! 3. a probe uses bounded memory — counters and histograms are fixed
//!    arrays, the flight recorder is a fixed-capacity slot ring;
//! 4. with [`NoopProbe`], the observed entry points must be within noise of
//!    the unobserved ones (asserted by `bench_smoke`'s `noop_probe_overhead`
//!    paired-ratio gate in CI).

pub mod hist;
pub mod probe;
pub mod telemetry;
pub mod trace;
pub mod window;

pub use hist::{bucket_ceil, bucket_floor, bucket_of, AtomicHistogram, HistogramSnapshot, BUCKETS};
pub use probe::{Counter, Hist, NoopProbe, Probe, SolveCounts, SolverId, Span};
pub use telemetry::{Telemetry, TelemetryReport};
pub use trace::{validate_spans, FlightRecorder, SpanEvent, SpanPhase, TraceSnapshot};
pub use window::WindowedHistogram;
