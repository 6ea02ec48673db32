//! The standard live probe: atomic counters, per-solver accumulators, and
//! histograms behind one [`Probe`] implementation, exportable as a JSON
//! [`TelemetryReport`]. Lifecycle spans are the
//! [`FlightRecorder`](crate::FlightRecorder)'s half of the seam.

use crate::hist::{AtomicHistogram, HistogramSnapshot};
use crate::probe::{Counter, Hist, Probe, SolveCounts, SolverId, Span};
use std::sync::atomic::{AtomicU64, Ordering};

#[derive(Debug)]
struct SolverAccum {
    solves: AtomicU64,
    node_visits: AtomicU64,
    arc_scans: AtomicU64,
    augmentations: AtomicU64,
    phases: AtomicU64,
}

impl SolverAccum {
    fn new() -> Self {
        SolverAccum {
            solves: AtomicU64::new(0),
            node_visits: AtomicU64::new(0),
            arc_scans: AtomicU64::new(0),
            augmentations: AtomicU64::new(0),
            phases: AtomicU64::new(0),
        }
    }
}

/// A live telemetry sink. All recording is wait-free (relaxed atomics) and
/// its memory is fixed at construction.
#[derive(Debug)]
pub struct Telemetry {
    counters: [AtomicU64; Counter::ALL.len()],
    solvers: [SolverAccum; SolverId::ALL.len()],
    hists: [AtomicHistogram; Hist::ALL.len()],
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// An empty sink.
    pub fn new() -> Self {
        Telemetry {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            solvers: std::array::from_fn(|_| SolverAccum::new()),
            hists: std::array::from_fn(|_| AtomicHistogram::new()),
        }
    }

    /// Current value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()].load(Ordering::Relaxed)
    }

    /// Snapshot of one histogram.
    pub fn histogram(&self, h: Hist) -> HistogramSnapshot {
        self.hists[h.index()].snapshot()
    }

    /// Point-in-time report of everything recorded so far.
    pub fn report(&self) -> TelemetryReport {
        TelemetryReport {
            counters: Counter::ALL.map(|c| self.counter(c)),
            solvers: SolverId::ALL.map(|s| {
                let a = &self.solvers[s.index()];
                SolverReport {
                    solves: a.solves.load(Ordering::Relaxed),
                    counts: SolveCounts {
                        node_visits: a.node_visits.load(Ordering::Relaxed),
                        arc_scans: a.arc_scans.load(Ordering::Relaxed),
                        augmentations: a.augmentations.load(Ordering::Relaxed),
                        phases: a.phases.load(Ordering::Relaxed),
                    },
                }
            }),
            hists: Hist::ALL.map(|h| self.histogram(h)),
        }
    }
}

impl Probe for Telemetry {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn add(&self, counter: Counter, n: u64) {
        self.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
    }

    fn solver(&self, id: SolverId, counts: SolveCounts) {
        let a = &self.solvers[id.index()];
        a.solves.fetch_add(1, Ordering::Relaxed);
        a.node_visits
            .fetch_add(counts.node_visits, Ordering::Relaxed);
        a.arc_scans.fetch_add(counts.arc_scans, Ordering::Relaxed);
        a.augmentations
            .fetch_add(counts.augmentations, Ordering::Relaxed);
        a.phases.fetch_add(counts.phases, Ordering::Relaxed);
    }

    #[inline]
    fn record(&self, hist: Hist, value: u64) {
        self.hists[hist.index()].record(value);
    }

    #[inline]
    fn start(&self) -> Span {
        Span::started()
    }

    #[inline]
    fn finish(&self, span: Span, hist: Hist) {
        if let Some(ns) = span.elapsed_ns() {
            self.record(hist, ns);
        }
    }
}

/// Aggregated per-solver statistics in a report.
#[derive(Debug, Clone, Copy)]
pub struct SolverReport {
    /// Solves reported for this algorithm.
    pub solves: u64,
    /// Summed operation counts across those solves.
    pub counts: SolveCounts,
}

/// A frozen snapshot of a [`Telemetry`] sink, with a hand-rolled JSON
/// encoder (schema documented in DESIGN.md §8).
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// Counter values, indexed like [`Counter::ALL`].
    pub counters: [u64; Counter::ALL.len()],
    /// Per-solver accumulations, indexed like [`SolverId::ALL`].
    pub solvers: [SolverReport; SolverId::ALL.len()],
    /// Histogram snapshots, indexed like [`Hist::ALL`].
    pub hists: [HistogramSnapshot; Hist::ALL.len()],
}

impl TelemetryReport {
    /// Fold `other` into this report: counters, solver totals, and
    /// histogram buckets add exactly.
    ///
    /// This is how replicated runs (`rsin-sim`) aggregate telemetry: each
    /// replica records into its own sink and the reports merge afterwards
    /// **in replica order**, so the merged counters and solver totals are
    /// independent of how many worker threads ran the replicas. The span-latency histograms merge exactly too, but their
    /// *contents* are wall-clock nanoseconds and therefore vary run to run
    /// regardless of merging.
    pub fn merge(&mut self, other: &TelemetryReport) {
        for (c, oc) in self.counters.iter_mut().zip(&other.counters) {
            *c += oc;
        }
        for (s, os) in self.solvers.iter_mut().zip(&other.solvers) {
            s.solves += os.solves;
            s.counts.node_visits += os.counts.node_visits;
            s.counts.arc_scans += os.counts.arc_scans;
            s.counts.augmentations += os.counts.augmentations;
            s.counts.phases += os.counts.phases;
        }
        for (h, oh) in self.hists.iter_mut().zip(&other.hists) {
            h.merge(oh);
        }
    }

    /// Encode the report as JSON. `source` names the producing experiment.
    pub fn to_json(&self, source: &str) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        s.push_str(&format!("  \"source\": \"{source}\",\n"));
        s.push_str("  \"counters\": {");
        for (i, c) in Counter::ALL.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{}\": {}", c.name(), self.counters[i]));
        }
        s.push_str("},\n");
        s.push_str("  \"solvers\": [\n");
        let active: Vec<(SolverId, &SolverReport)> = SolverId::ALL
            .iter()
            .zip(&self.solvers)
            .filter(|(_, r)| r.solves > 0)
            .map(|(s, r)| (*s, r))
            .collect();
        for (i, (id, r)) in active.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"solver\": \"{}\", \"solves\": {}, \"node_visits\": {}, \
                 \"arc_scans\": {}, \"augmentations\": {}, \"phases\": {}}}{}\n",
                id.name(),
                r.solves,
                r.counts.node_visits,
                r.counts.arc_scans,
                r.counts.augmentations,
                r.counts.phases,
                if i + 1 < active.len() { "," } else { "" },
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"histograms\": [\n");
        for (i, h) in Hist::ALL.iter().enumerate() {
            let snap = &self.hists[i];
            s.push_str(&format!(
                "    {{\"hist\": \"{}\", \"count\": {}, \"sum\": {}, \"mean\": {:.3}, \
                 \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [",
                h.name(),
                snap.count,
                snap.sum,
                snap.mean(),
                snap.p50(),
                snap.p90(),
                snap.p99(),
            ));
            let mut first = true;
            for (b, &c) in snap.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                if !first {
                    s.push_str(", ");
                }
                first = false;
                s.push_str(&format!("[{b}, {c}]"));
            }
            s.push_str(&format!(
                "]}}{}\n",
                if i + 1 < Hist::ALL.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let t = Telemetry::new();
        t.add(Counter::Cycles, 2);
        t.add(Counter::Cycles, 3);
        t.add(Counter::Faults, 1);
        assert_eq!(t.counter(Counter::Cycles), 5);
        assert_eq!(t.counter(Counter::Faults), 1);
        assert_eq!(t.counter(Counter::Repairs), 0);
    }

    #[test]
    fn solver_counts_accumulate_across_solves() {
        let t = Telemetry::new();
        t.solver(
            SolverId::MaxFlowDinic,
            SolveCounts {
                node_visits: 10,
                arc_scans: 20,
                augmentations: 3,
                phases: 2,
            },
        );
        t.solver(
            SolverId::MaxFlowDinic,
            SolveCounts {
                node_visits: 1,
                arc_scans: 2,
                augmentations: 1,
                phases: 1,
            },
        );
        let r = t.report();
        let dinic = &r.solvers[SolverId::MaxFlowDinic.index()];
        assert_eq!(dinic.solves, 2);
        assert_eq!(dinic.counts.node_visits, 11);
        assert_eq!(dinic.counts.phases, 3);
    }

    #[test]
    fn spans_record_into_histograms() {
        let t = Telemetry::new();
        let span = t.start();
        t.finish(span, Hist::CycleLatencyNs);
        let h = t.histogram(Hist::CycleLatencyNs);
        assert_eq!(h.count, 1);
    }

    #[test]
    fn json_contains_expected_keys() {
        let t = Telemetry::new();
        t.add(Counter::Cycles, 1);
        t.solver(SolverId::MinCostSsp, SolveCounts::default());
        t.record(Hist::QueueDepth, 4);
        let json = t.report().to_json("unit-test");
        for key in [
            "\"source\": \"unit-test\"",
            "\"cycles\": 1",
            "\"min_cost_ssp\"",
            "\"queue_depth\"",
            "\"p99\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        assert!(!json.contains("\"events"), "no event trace in:\n{json}");
    }

    #[test]
    fn merge_equals_recording_into_one_sink() {
        // Two sinks fed disjoint streams, merged, must equal one sink fed
        // both streams.
        let a = Telemetry::new();
        let b = Telemetry::new();
        let both = Telemetry::new();
        for (t, time) in [(&a, 1.0), (&both, 1.0), (&b, 2.0), (&both, 2.0)] {
            t.add(Counter::Cycles, 3);
            t.add(Counter::Requests, 1);
            t.solver(
                SolverId::MaxFlowDinic,
                SolveCounts {
                    node_visits: 5,
                    arc_scans: 9,
                    augmentations: 2,
                    phases: 1,
                },
            );
            t.record(Hist::QueueDepth, time as u64 + 3);
        }
        let mut merged = a.report();
        merged.merge(&b.report());
        let expect = both.report();
        assert_eq!(merged.counters, expect.counters);
        let (m, e) = (
            &merged.solvers[SolverId::MaxFlowDinic.index()],
            &expect.solvers[SolverId::MaxFlowDinic.index()],
        );
        assert_eq!(m.solves, e.solves);
        assert_eq!(m.counts.arc_scans, e.counts.arc_scans);
        for (mh, eh) in merged.hists.iter().zip(&expect.hists) {
            assert_eq!(mh.buckets, eh.buckets);
            assert_eq!(mh.count, eh.count);
            assert_eq!(mh.sum, eh.sum);
            assert_eq!(mh.p99(), eh.p99());
        }
    }

    #[test]
    fn merge_with_empty_report_is_identity() {
        let a = Telemetry::new();
        a.add(Counter::Cycles, 7);
        a.record(Hist::QueueDepth, 2);
        let mut merged = a.report();
        merged.merge(&Telemetry::new().report());
        let expect = a.report();
        assert_eq!(merged.counters, expect.counters);
        assert_eq!(merged.hists[Hist::QueueDepth.index()].count, 1);
    }

    #[test]
    fn telemetry_is_shareable_across_threads() {
        let t = Telemetry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = &t;
                s.spawn(move || {
                    for _ in 0..1000 {
                        t.add(Counter::Requests, 1);
                        t.record(Hist::QueueDepth, 3);
                    }
                });
            }
        });
        assert_eq!(t.counter(Counter::Requests), 4000);
        assert_eq!(t.histogram(Hist::QueueDepth).count, 4000);
    }
}
