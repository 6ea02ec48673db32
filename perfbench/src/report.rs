//! Summary statistics and the result line.

/// Latency histogram in nanoseconds: exact below 1024 ns, then 128
/// sub-buckets per power of two (under 0.8 % relative error), so millions
/// of per-call samples fit in a few kilobytes.
#[derive(Debug, Clone)]
pub struct LatencyHist {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

const EXACT: u64 = 1024;
const SUB_BITS: u32 = 7;

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            buckets: vec![0; Self::index(u64::MAX) + 1],
            count: 0,
            sum: 0,
        }
    }
}

impl LatencyHist {
    fn index(ns: u64) -> usize {
        if ns < EXACT {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros();
        let sub = (ns >> (exp - SUB_BITS)) & ((1 << SUB_BITS) - 1);
        (EXACT + (u64::from(exp) - 10) * (1 << SUB_BITS) + sub) as usize
    }

    /// Midpoint of bucket `i`.
    fn value(i: usize) -> f64 {
        let i = i as u64;
        if i < EXACT {
            return i as f64;
        }
        let exp = (i - EXACT) / (1 << SUB_BITS) + 10;
        let sub = (i - EXACT) % (1 << SUB_BITS);
        let width = 1u64 << (exp - u64::from(SUB_BITS));
        ((1u64 << exp) + sub * width) as f64 + width as f64 / 2.0
    }

    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::index(ns)] += 1;
        self.count += 1;
        self.sum += ns;
    }

    pub fn mean(&self) -> f64 {
        ratio(self.sum as f64, self.count as f64)
    }

    /// Nearest-rank `q`-quantile; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(i);
            }
        }
        unreachable!("rank never exceeds the total count")
    }
}

/// The best of a run's per-pass values: the highest rate, the lowest time.
pub fn best(passes: &[f64], higher_is_better: bool) -> f64 {
    let pick = if higher_is_better { f64::max } else { f64::min };
    passes.iter().copied().reduce(pick).unwrap_or(0.0)
}

/// Per-operation times of a pool of work that every pass runs in the same
/// order, each reduced to its fastest pass.
///
/// On a shared 2-vCPU Xeon VM, neighbours slow the same code by up to 1.7x
/// for seconds at a time. Each run therefore repeats one
/// fixed pool of work, and every operation keeps the time of its fastest
/// pass: host noise is filtered one operation at a time, so the result
/// moves with the code, not with how much of the run a slow phase covered.
#[derive(Debug, Default)]
pub struct FastestPass {
    ns: Vec<u64>,
}

impl FastestPass {
    /// Fold in one pass; `false` if it ran a different number of
    /// operations than the passes before it.
    pub fn push(&mut self, pass: &[u64]) -> bool {
        if self.ns.is_empty() {
            self.ns = pass.to_vec();
            return true;
        }
        if self.ns.len() != pass.len() {
            return false;
        }
        for (fastest, &ns) in self.ns.iter_mut().zip(pass) {
            *fastest = (*fastest).min(ns);
        }
        true
    }

    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    pub fn mean_us(&self) -> f64 {
        ratio(self.total_ns() as f64, self.ns.len() as f64) / 1e3
    }

    pub fn p99_us(&self) -> f64 {
        let mut hist = LatencyHist::default();
        for &ns in &self.ns {
            hist.record(ns);
        }
        hist.quantile(0.99) / 1e3
    }
}

pub fn mean_u64(xs: &[u64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<u64>() as f64 / xs.len() as f64
    }
}

/// `num / den`, or 0 when there is nothing to divide by (an idle layer).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process, from `/proc/self/status`.
pub fn rss_peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Metric values in output order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// Names of metrics whose value is not a finite number (JSON cannot
    /// carry them, and they indicate a broken measurement).
    pub fn non_finite(&self) -> Vec<&'static str> {
        self.0
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|&(n, _, _)| n)
            .collect()
    }
}

/// Operations attempted and those that failed an output check.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ops: u64, ok: bool) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
        }
    }

    pub fn failed_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// The result line: one JSON object, printed last on stdout.
pub fn result_json(correct: bool, tally: Tally, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_exact_below_1024_and_close_above() {
        let mut h = LatencyHist::default();
        for ns in 1..=100 {
            h.record(ns);
        }
        assert_eq!(h.quantile(0.5), 50.0);
        assert_eq!(h.quantile(0.99), 99.0);
        assert_eq!(h.quantile(1.0), 100.0);
        assert_eq!(LatencyHist::default().quantile(0.5), 0.0);
        for ns in [1024u64, 5000, 123_456, 9_876_543_210] {
            let mut h = LatencyHist::default();
            h.record(ns);
            let got = h.quantile(0.5);
            assert!((got - ns as f64).abs() / (ns as f64) < 0.008, "{ns}: {got}");
        }
    }

    #[test]
    fn fastest_pass_keeps_each_operations_minimum() {
        assert_eq!(best(&[5.0, 1.0, 3.0], false), 1.0);
        assert_eq!(best(&[5.0, 1.0, 3.0], true), 5.0);
        assert_eq!(best(&[], true), 0.0);
        let mut fastest = FastestPass::default();
        assert!(fastest.push(&[4000, 1000, 9000]));
        assert!(fastest.push(&[2000, 3000, 9000]));
        assert!(!fastest.push(&[1, 1]), "a pass of another length");
        assert_eq!(fastest.total_ns(), 12_000);
        assert_eq!(fastest.mean_us(), 4.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.5, "s");
        m.put("op_mean_us", 3.0, "us");
        let line = result_json(
            true,
            Tally {
                attempted: 4,
                failed: 0,
            },
            &m,
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"op_mean_us\": {\"value\": 3.0, \"unit\": \"us\"}}}"
        );
    }
}
