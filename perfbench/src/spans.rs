//! In-memory span log for the traced run.
//!
//! Spans are opened around each call into a library layer (name, start,
//! end, parent, per-op id). Self time — a span's duration minus the part of
//! it that its child spans cover — is folded into per-name totals as each
//! span closes, so the aggregates stay exact however many spans there are;
//! only the first [`SpanLog::CAPACITY`] raw spans are kept for the dump.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct SpanRecord {
    name: &'static str,
    op: u64,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

#[derive(Debug)]
struct Frame {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    stored: Option<usize>,
}

/// Per-name totals over every closed span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug, Default)]
struct Inner {
    stack: Vec<Frame>,
    spans: Vec<SpanRecord>,
    dropped: u64,
    totals: BTreeMap<&'static str, Totals>,
}

#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    inner: Mutex<Inner>,
}

/// Closes its span when dropped. Spans must nest: a guard is dropped before
/// the guard of its parent.
pub struct Guard<'a> {
    log: &'a SpanLog,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        self.log.close();
    }
}

impl SpanLog {
    /// Raw spans kept for the dump (about 40 bytes each).
    pub const CAPACITY: usize = 1 << 16;

    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("span log is only used from one thread at a time")
    }

    /// Open a span named `name` for operation `op`, as a child of the
    /// innermost open span.
    pub fn enter(&self, name: &'static str, op: u64) -> Guard<'_> {
        let mut inner = self.lock();
        let parent = inner.stack.last().and_then(|f| f.stored);
        let start_ns = self.now_ns();
        let stored = if inner.spans.len() < Self::CAPACITY {
            inner.spans.push(SpanRecord {
                name,
                op,
                start_ns,
                end_ns: start_ns,
                parent,
            });
            Some(inner.spans.len() - 1)
        } else {
            inner.dropped += 1;
            None
        };
        inner.stack.push(Frame {
            name,
            start_ns,
            child_ns: 0,
            stored,
        });
        Guard { log: self }
    }

    fn close(&self) {
        let end_ns = self.now_ns();
        let mut inner = self.lock();
        let Some(frame) = inner.stack.pop() else {
            return;
        };
        let dur = end_ns.saturating_sub(frame.start_ns);
        let t = inner.totals.entry(frame.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(frame.child_ns);
        if let Some(parent) = inner.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(i) = frame.stored {
            inner.spans[i].end_ns = end_ns;
        }
    }

    /// Write the per-name totals and the kept raw spans as JSON.
    pub fn write_json(&self, path: &std::path::Path, source: &str) -> std::io::Result<()> {
        let inner = self.lock();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            f,
            "{{\"source\": \"{source}\", \"dropped\": {},",
            inner.dropped
        )?;
        writeln!(f, "\"totals\": {{")?;
        let n = inner.totals.len();
        for (i, (name, t)) in inner.totals.iter().enumerate() {
            writeln!(
                f,
                "  \"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}{}",
                t.count,
                t.total_ns,
                t.self_ns,
                if i + 1 < n { "," } else { "" }
            )?;
        }
        writeln!(f, "}},\n\"spans\": [")?;
        for (i, s) in inner.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                f,
                "  {{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}{}",
                s.name,
                s.op,
                s.start_ns,
                s.end_ns,
                if i + 1 < inner.spans.len() { "," } else { "" }
            )?;
        }
        writeln!(f, "]}}")?;
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_covered_children() {
        let log = SpanLog::new();
        {
            let _outer = log.enter("outer", 1);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = log.enter("inner", 1);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let outer = log.lock().totals["outer"];
        let inner = log.lock().totals["inner"];
        assert_eq!((outer.count, inner.count), (1, 1));
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        let inner_rec = log.lock().spans[1];
        assert_eq!(inner_rec.parent, Some(0));
    }
}
