//! Epoch-rotated windowed statistics: "what happened recently", not "what
//! happened ever".
//!
//! Lifetime histograms ([`Telemetry`](crate::Telemetry)) cannot answer
//! "what is p99 decision latency over the last window" — after an hour of
//! traffic, one slow minute disappears into the lifetime tail.
//! [`WindowedHistogram`] keeps a **current** and a **previous** window and
//! rotates them on an externally driven tick (the owner decides the
//! cadence: every `S` introspection command in `rsin-serve`). The previous
//! window is the completed one — readers quote it, because the current
//! window is still filling. Rotation is cooperative and deterministic:
//! nothing here reads a clock.

use crate::hist::{bucket_of, HistogramSnapshot, BUCKETS};

fn empty_snapshot() -> HistogramSnapshot {
    HistogramSnapshot {
        buckets: [0; BUCKETS],
        count: 0,
        sum: 0,
    }
}

/// A log2 histogram with a current and a previous window, quantile readout
/// on both (via [`HistogramSnapshot`]'s interpolated p50/p90/p99).
///
/// Single-writer by design (`&mut self` recording): the owner is one
/// writer — e.g. the serve step that decides each submitted command.
#[derive(Debug, Clone)]
pub struct WindowedHistogram {
    cur: HistogramSnapshot,
    prev: HistogramSnapshot,
}

impl Default for WindowedHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl WindowedHistogram {
    /// A histogram with both windows empty.
    pub fn new() -> Self {
        WindowedHistogram {
            cur: empty_snapshot(),
            prev: empty_snapshot(),
        }
    }

    /// Record one observation into the current window.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.cur.buckets[bucket_of(v)] += 1;
        self.cur.count += 1;
        self.cur.sum += v;
    }

    /// Close the current window: it becomes the previous one and a fresh
    /// current window opens.
    pub fn rotate(&mut self) {
        self.prev = std::mem::replace(&mut self.cur, empty_snapshot());
    }

    /// The still-filling current window.
    pub fn current(&self) -> &HistogramSnapshot {
        &self.cur
    }

    /// The last completed window (empty before the first rotation).
    pub fn previous(&self) -> &HistogramSnapshot {
        &self.prev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_windows_are_independent() {
        let mut h = WindowedHistogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        h.rotate();
        for v in [1000u64, 2000] {
            h.record(v);
        }
        assert_eq!(h.previous().count, 3);
        assert_eq!(h.previous().sum, 60);
        assert_eq!(h.current().count, 2);
        // One slow window is visible in its own p99, not diluted by the
        // other window's mass.
        assert!(h.current().p99() >= 1024);
        assert!(h.previous().p99() <= 63);
        h.rotate();
        assert_eq!(h.previous().count, 2);
        assert_eq!(h.current().count, 0);
    }
}
