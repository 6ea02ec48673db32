//! A forwarding timing adapter for [`Scheduler`]: every trait method is
//! forwarded unchanged to the wrapped scheduler, and each top-level
//! `try_schedule*` call is timed. `SystemSim` takes it in place of the bare
//! scheduler, so the benchmark sees per-cycle latency without any library
//! change (a test pins that wrapped and bare trials are bit-identical).

use crate::spans::SpanLog;
use rsin_core::model::{ScheduleOutcome, ScheduleProblem};
use rsin_core::scheduler::{
    DegradedOutcome, PricedDegradedOutcome, ScheduleError, ScheduleScratch, Scheduler,
};
use rsin_obs::Probe;
use std::sync::Mutex;
use std::time::Instant;

/// Nanoseconds of every timed call since the last [`TimedScheduler::take`].
#[derive(Debug, Default)]
pub struct CycleTimes {
    /// Every cycle, primary and degraded.
    pub all_ns: Vec<u64>,
    /// The degraded-mode cycles only (a subset of `all_ns`).
    pub degraded_ns: Vec<u64>,
}

pub struct TimedScheduler<'a> {
    inner: &'a dyn Scheduler,
    times: Mutex<CycleTimes>,
    spans: Option<(&'a SpanLog, u64)>,
}

impl<'a> TimedScheduler<'a> {
    pub fn new(inner: &'a dyn Scheduler) -> Self {
        TimedScheduler {
            inner,
            times: Mutex::new(CycleTimes::default()),
            spans: None,
        }
    }

    /// Also open a span per timed call in `log`, tagged with operation `op`.
    pub fn traced(inner: &'a dyn Scheduler, log: &'a SpanLog, op: u64) -> Self {
        TimedScheduler {
            spans: Some((log, op)),
            ..Self::new(inner)
        }
    }

    /// Drain the recorded times.
    pub fn take(&self) -> CycleTimes {
        std::mem::take(&mut *self.times.lock().expect("timing log poisoned"))
    }

    fn time<T>(&self, degraded: bool, call: impl FnOnce() -> T) -> T {
        let name = if degraded {
            "rsin-core::scheduler.degraded_cycle"
        } else {
            "rsin-core::scheduler.cycle"
        };
        let guard = self.spans.map(|(log, op)| log.enter(name, op));
        let t0 = Instant::now();
        let out = call();
        let ns = t0.elapsed().as_nanos() as u64;
        drop(guard);
        let mut times = self.times.lock().expect("timing log poisoned");
        times.all_ns.push(ns);
        if degraded {
            times.degraded_ns.push(ns);
        }
        out
    }
}

impl Scheduler for TimedScheduler<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn try_schedule(&self, problem: &ScheduleProblem) -> Result<ScheduleOutcome, ScheduleError> {
        self.time(false, || self.inner.try_schedule(problem))
    }

    fn schedule(&self, problem: &ScheduleProblem) -> ScheduleOutcome {
        self.inner.schedule(problem)
    }

    fn try_schedule_reusing(
        &self,
        problem: &ScheduleProblem,
        scratch: &mut ScheduleScratch,
    ) -> Result<ScheduleOutcome, ScheduleError> {
        self.time(false, || self.inner.try_schedule_reusing(problem, scratch))
    }

    fn try_schedule_degraded(
        &self,
        problem: &ScheduleProblem,
        scratch: &mut ScheduleScratch,
    ) -> Result<DegradedOutcome, ScheduleError> {
        self.time(true, || self.inner.try_schedule_degraded(problem, scratch))
    }

    fn priced_retry(
        &self,
        problem: &ScheduleProblem,
        primary: ScheduleOutcome,
        scratch: &mut ScheduleScratch,
        probe: &dyn Probe,
    ) -> Result<PricedDegradedOutcome, ScheduleError> {
        self.inner.priced_retry(problem, primary, scratch, probe)
    }

    fn try_schedule_degraded_priced(
        &self,
        problem: &ScheduleProblem,
        scratch: &mut ScheduleScratch,
    ) -> Result<PricedDegradedOutcome, ScheduleError> {
        self.time(true, || {
            self.inner.try_schedule_degraded_priced(problem, scratch)
        })
    }

    fn try_schedule_observed(
        &self,
        problem: &ScheduleProblem,
        scratch: &mut ScheduleScratch,
        probe: &dyn Probe,
    ) -> Result<ScheduleOutcome, ScheduleError> {
        self.time(false, || {
            self.inner.try_schedule_observed(problem, scratch, probe)
        })
    }

    fn try_schedule_degraded_observed(
        &self,
        problem: &ScheduleProblem,
        scratch: &mut ScheduleScratch,
        probe: &dyn Probe,
    ) -> Result<DegradedOutcome, ScheduleError> {
        self.time(true, || {
            self.inner
                .try_schedule_degraded_observed(problem, scratch, probe)
        })
    }

    fn try_schedule_degraded_priced_observed(
        &self,
        problem: &ScheduleProblem,
        scratch: &mut ScheduleScratch,
        probe: &dyn Probe,
    ) -> Result<PricedDegradedOutcome, ScheduleError> {
        self.time(true, || {
            self.inner
                .try_schedule_degraded_priced_observed(problem, scratch, probe)
        })
    }

    fn schedule_reusing(
        &self,
        problem: &ScheduleProblem,
        scratch: &mut ScheduleScratch,
    ) -> ScheduleOutcome {
        self.inner.schedule_reusing(problem, scratch)
    }
}
