//! Dynamic discrete-event simulation of the full resource-sharing system
//! (Section II model, points 1–5).
//!
//! * Tasks arrive at each processor as a Poisson process and queue there;
//!   a processor transmits **one task at a time** (model point 5).
//! * When pending requests and free resources coexist, a scheduling cycle
//!   runs (any [`Scheduler`]), establishing circuits for the allocated
//!   requests; blocked requests stay queued for the next cycle.
//! * The circuit is **released once the task has been transmitted**; the
//!   resource stays busy until the task completes (point 5), modelling why
//!   circuit switching beats packet switching here (point 1: "a task cannot
//!   be processed until it is completely received").
//!
//! Outputs: resource utilization, task response time, queue lengths, and
//! per-cycle blocking — the performance indexes the paper's scheduling
//! objective optimizes.

use crate::metrics::Sample;
use crate::workload::{exponential, trial_rng};
use rand::rngs::StdRng;
use rand::Rng;
use rsin_core::conformance::ConformanceDetector;
use rsin_core::mapping::Assignment;
use rsin_core::model::{FreeResource, ScheduleProblem, ScheduleRequest};
use rsin_core::scheduler::{DegradedOutcome, ScheduleError, ScheduleScratch, Scheduler};
use rsin_obs::{Counter, Hist, NoopProbe, Probe, Span, SpanPhase};
use rsin_topology::{
    CircuitError, CircuitId, CircuitState, FaultAction, FaultDomain, FaultPlan, FaultPlanConfig,
    FaultTarget, Network,
};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Salt separating the fault-plan RNG stream from the arrival/service
/// stream of the same `(seed, trial)` pair: both follow the `trial_rng`
/// stream-splitting convention, but a plan must never replay (or perturb)
/// the simulation's own draws.
const FAULT_STREAM_SALT: u64 = 0xFA17_57A7_0000_D001;

/// Seed for the [`FaultPlan`] of a `(seed, trial)` pair, mirroring
/// [`trial_rng`]'s convention with an extra stream salt.
pub fn fault_plan_seed(seed: u64, trial: u64) -> u64 {
    (seed ^ trial.wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ FAULT_STREAM_SALT
}

/// Parameters of a dynamic simulation.
#[derive(Debug, Clone, Copy)]
pub struct DynamicConfig {
    /// Task arrival rate per processor (Poisson).
    pub arrival_rate: f64,
    /// Mean task transmission time (exponential; circuit held this long).
    pub mean_transmission: f64,
    /// Mean resource service time (exponential; resource busy this long
    /// after transmission completes).
    pub mean_service: f64,
    /// Simulated time horizon.
    pub sim_time: f64,
    /// Statistics ignore events before this time (warm-up).
    pub warmup: f64,
    /// RNG seed.
    pub seed: u64,
    /// Number of resource types (1 = homogeneous). Resource `r` has type
    /// `r % types`; each arriving task draws a uniform type, so the offered
    /// load is balanced across types.
    pub types: usize,
    /// Number of priority/preference levels (1 = the classic unpriced
    /// model). Processor `p` requests at priority `1 + p % levels` and
    /// resource `r` offers preference `1 + r % levels` — deterministic, no
    /// RNG draws — so with `levels == 1` every run is bit-identical to the
    /// unpriced simulator, while `levels > 1` gives degraded-mode recovery
    /// a non-trivial Transformation-2 cost surface to optimize over.
    pub priority_levels: u32,
    /// Target resource utilization ρ (heavy-traffic knob). `0.0` disables
    /// the knob and `arrival_rate` is used verbatim — bit-identical to the
    /// pre-knob simulator. When `rho > 0.0` the per-processor arrival rate
    /// is derived at run time from the network shape as
    /// `ρ · nr / (np · (mean_transmission + mean_service))`, so offered
    /// load scales with the resource pool and `ρ ≥ 1` puts the system past
    /// its saturation point (queues grow without bound; see
    /// [`DynamicStats::final_queue`]).
    pub rho: f64,
    /// Tasks enqueued per arrival event (bursty/batch arrivals). The
    /// inter-arrival gap stretches by the same factor, so the *offered*
    /// load is unchanged while arrivals come in bursts. `1` (and `0`,
    /// normalized to `1`) reproduces the Poisson-per-task stream
    /// bit-identically.
    pub batch_size: usize,
    /// Per-processor queue bound. `0` = unbounded (the classic model,
    /// bit-identical). With a bound, an arrival finding its processor's
    /// queue full is **shed** — dropped, never scheduled — and counted in
    /// [`DynamicStats::shed_arrivals`]; sub-saturation runs with a generous
    /// bound shed nothing.
    pub queue_capacity: usize,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        DynamicConfig {
            arrival_rate: 0.1,
            mean_transmission: 0.2,
            mean_service: 1.0,
            sim_time: 1000.0,
            warmup: 100.0,
            seed: 1,
            types: 1,
            priority_levels: 1,
            rho: 0.0,
            batch_size: 1,
            queue_capacity: 0,
        }
    }
}

impl DynamicConfig {
    /// The per-processor arrival rate this config actually runs at on a
    /// network with `np` processors and `nr` resources: `arrival_rate`
    /// unless the utilization-targeting `rho` knob is set, in which case
    /// the rate that makes the *offered* resource utilization equal ρ
    /// (each task holds a resource for `mean_transmission + mean_service`
    /// on average).
    pub fn effective_arrival_rate(&self, np: usize, nr: usize) -> f64 {
        if self.rho > 0.0 {
            let hold = self.mean_transmission + self.mean_service;
            self.rho * nr as f64 / (np.max(1) as f64 * hold.max(f64::MIN_POSITIVE))
        } else {
            self.arrival_rate
        }
    }
}

/// How a scheduling cycle handles blocked requests while the topology is
/// degraded (at least one component faulty).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedPolicy {
    /// No retry: blocked requests are shed (stay queued) immediately.
    None,
    /// Unpriced alternate-path retry: each blocked request BFSes to *any*
    /// still-untaken type-compatible free resource
    /// ([`Scheduler::try_schedule_degraded`]).
    Bfs,
    /// Priced retry: a residual Transformation-2 min-cost solve over the
    /// blocked requests and still-free resources picks the minimum-cost
    /// maximal recovery ([`Scheduler::try_schedule_degraded_priced`]).
    Priced,
}

impl DegradedPolicy {
    /// Short identifier used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            DegradedPolicy::None => "none",
            DegradedPolicy::Bfs => "bfs",
            DegradedPolicy::Priced => "priced",
        }
    }
}

/// Typed failure of a dynamic simulation run.
///
/// Every failure is either a scheduler error bubbling up, a simulator
/// bookkeeping invariant, or an empty trial grid; every entry point returns
/// them as values instead of tearing a worker thread down mid-experiment,
/// and callers unwrap at the edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The scheduler returned an error mid-cycle.
    Schedule {
        /// [`Scheduler::name`] of the failing scheduler, or `conformance
        /// oracle` for the Byzantine detector's Dinic re-solve.
        scheduler: &'static str,
        /// The underlying scheduling error.
        error: ScheduleError,
    },
    /// A circuit operation the event loop believed safe was rejected.
    Circuit {
        /// What the event loop was doing when it failed.
        context: &'static str,
        /// The underlying circuit error.
        error: CircuitError,
    },
    /// A simulator bookkeeping invariant broke (queue/assignment mismatch).
    State(&'static str),
    /// The configuration cannot run to the horizon; the message says why.
    InvalidConfig(&'static str),
    /// A [`TrialGrid`](crate::replicate::TrialGrid) with no configuration
    /// or no trial per configuration: there is nothing to run or merge.
    EmptyGrid {
        /// Configurations in the grid.
        configs: usize,
        /// Trials per configuration.
        trials: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Schedule { scheduler, error } => {
                write!(f, "{scheduler} failed to schedule: {error}")
            }
            SimError::Circuit { context, error } => write!(f, "{context}: {error}"),
            SimError::State(m) => write!(f, "simulator invariant violated: {m}"),
            SimError::InvalidConfig(m) => write!(f, "invalid simulation config: {m}"),
            SimError::EmptyGrid { configs, trials } => write!(
                f,
                "empty trial grid: {configs} config(s) x {trials} trial(s)"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Aggregate results of a dynamic run.
#[derive(Debug, Clone, Copy, Default)]
pub struct DynamicStats {
    /// Mean fraction of resources busy (post-warmup time average).
    pub utilization: f64,
    /// Mean task response time (arrival → service completion).
    pub mean_response: f64,
    /// 95 % confidence half-width of the response-time mean.
    pub response_ci95: f64,
    /// 99th-percentile task response time (log2-histogram estimate; see
    /// [`Sample::p99`]).
    pub response_p99: f64,
    /// Tasks completed after warm-up.
    pub completed: u64,
    /// Time-averaged number of queued (unallocated) tasks.
    pub mean_queue: f64,
    /// Scheduling cycles executed.
    pub cycles: u64,
    /// Mean per-cycle blocking fraction (cycles with contention only).
    pub mean_blocking: f64,
    /// Arrivals dropped because their processor's bounded queue was full
    /// (see [`DynamicConfig::queue_capacity`]); always 0 with an unbounded
    /// queue. Distinct from degraded-mode shedding, which defers requests
    /// without losing them.
    pub shed_arrivals: u64,
    /// Tasks still queued (unallocated) when the horizon was reached — the
    /// queue-growth signal of the heavy-traffic regime: bounded and small
    /// below saturation, growing roughly linearly in the horizon at ρ ≥ 1.
    pub final_queue: u64,
    /// The full post-warmup response-time accumulator (Welford state plus
    /// log2 histogram) that `mean_response`/`response_ci95`/`response_p99`
    /// are read from. Exposed so replicated runs can pool the response
    /// *distributions* across replicas via [`Sample::merge`] instead of
    /// averaging pre-digested scalars.
    pub response: Sample,
}

/// Survival metrics of a faulted dynamic run, wrapping the ordinary
/// [`DynamicStats`]. Compare `stats.completed` against a fault-free
/// baseline run (same config, [`FaultPlan::empty`]) for the "allocations
/// achieved vs. fault-free" survival ratio.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultedStats {
    /// The ordinary dynamic statistics (post-warmup, as in [`SystemSim::run`]).
    pub stats: DynamicStats,
    /// Circuits established over the whole run (fault plans are
    /// absolute-time schedules, so fault metrics are not warm-up filtered).
    pub allocations: u64,
    /// Requests left unallocated by degraded-mode cycles (summed
    /// [`DegradedOutcome::shed`](rsin_core::DegradedOutcome)); blocked
    /// requests stay queued, so this counts deferrals, not losses.
    pub shed_total: u64,
    /// Blocked requests rescued by the alternate-path retry.
    pub recovered_total: u64,
    /// `Fail` events applied before the horizon.
    pub failures: u64,
    /// `Repair` events applied before the horizon.
    pub repairs: u64,
    /// Mean time from a repair event to the next scheduling cycle that
    /// sheds nothing (service fully restored); 0 if never observed.
    pub mean_recovery: f64,
    /// How many repair→zero-shed intervals the mean is over.
    pub recoveries_observed: u64,
    /// Transformation-graph rebuilds over the whole run. Stays at its
    /// fault-free value (1 per transformation shape used) because fault
    /// toggles are incremental capacity patches.
    pub transform_rebuilds: u64,
    /// Total Transformation-2 cost added by degraded-mode recoveries over
    /// the whole run (summed per-cycle `recovery_cost`; the cost of
    /// degradation). 0 when nothing is recovered, when
    /// `priority_levels == 1` (all costs collapse to 0), or under
    /// [`DegradedPolicy::None`].
    pub recovery_cost: i64,
    /// Circuits that established but failed to deliver because a Byzantine
    /// box misrouted them; the task re-queues and retries. Always 0 on
    /// plans without [`FaultTarget::ByzantineBox`] events.
    pub misrouted: u64,
    /// Boxes flagged by the differential conformance detector over the run.
    pub byz_flagged: u64,
    /// Flagged boxes that were *not* misrouting when flagged (honest boxes
    /// condemned by co-location). Expected 0: deterministic misrouters fail
    /// every path through them while honest boxes are exonerated by their
    /// own deliveries.
    pub byz_false_positives: u64,
    /// Mean scheduling cycles from Byzantine onset to the detector flagging
    /// the box; 0 if no true detection was observed.
    pub mean_detection_cycles: f64,
    /// How many true detections the mean is over.
    pub detections_observed: u64,
}

/// What a heap event does. Each payload is an index into the trial's state,
/// so an [`Event`] is 24 bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum EventType {
    /// Tasks arrive at this processor.
    Arrival(u32),
    /// This processor's in-flight transmission ends.
    TransmissionDone(u32),
    /// This resource finishes its task.
    ServiceDone(u32),
    /// The `index`-th event of the run's [`FaultPlan`] takes effect.
    Fault(u32),
}

/// A queued task; `req` is its lifecycle-trace request id.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Task {
    arrived: f64,
    ty: usize,
    req: u64,
}

/// A task on its circuit, from establishment to the end of transmission;
/// [`Trial`] keeps it at its processor's index.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Transmission {
    task: Task,
    resource: usize,
    circuit: CircuitId,
    /// False when a Byzantine box on the circuit misrouted it: the task
    /// then re-queues instead of being serviced.
    delivered: bool,
}

/// A heap entry; `seq` is unique, so equality is identity.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Event {
    time: f64,
    seq: u64,
    kind: EventType,
}

const _: () = assert!(std::mem::size_of::<Event>() == 24);

impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap via reversed comparison on (time, seq).
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Byzantine bookkeeping, present only for plans with misrouting events:
/// the conformance detector runs a Dinic oracle every cycle, so fail-stop
/// runs skip it and stay draw-for-draw identical to the pre-Byzantine sim.
#[derive(Clone)]
struct Byzantine {
    detector: ConformanceDetector,
    /// Cycle count at each box's misrouting onset (None = honest).
    onset_cycle: Vec<Option<u64>>,
    quarantined: Vec<bool>,
    /// Per assignment of the current cycle: does its circuit deliver?
    delivered: Vec<bool>,
    /// Boxes flagged this cycle, quarantined after its establishments.
    flagged: Vec<usize>,
    /// Cycles from misrouting onset to a true detection.
    detection: Sample,
}

impl Byzantine {
    /// Differential conformance check: the Dinic oracle certifies the
    /// cycle's allocation, and failed deliveries accuse their paths' boxes.
    fn observe(&mut self, p: &ScheduleProblem, a: &[Assignment]) -> Result<(), SimError> {
        let cs = p.circuits;
        self.delivered.clear();
        self.delivered
            .extend(a.iter().map(|a| cs.first_byzantine_on(&a.path).is_none()));
        let scheduler = "conformance oracle";
        let verdict = self.detector.observe(p, a, &self.delivered);
        let verdict = verdict.map_err(|error| SimError::Schedule { scheduler, error })?;
        self.flagged = verdict.newly_flagged;
        Ok(())
    }
}

/// Set (`on`) or clear bit `i` of a bit-word set.
fn set_bit(words: &mut [u64], i: usize, on: bool) {
    let (w, mask) = (i / 64, 1u64 << (i % 64));
    if on {
        words[w] |= mask;
    } else {
        words[w] &= !mask;
    }
}

/// The set bits of a bit-word set, in ascending order.
fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(i, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                i * 64 + bit
            })
        })
    })
}

/// One trial's state. [`step`](Trial::step) pops an event, runs its
/// [`EventType`]'s handler, then a scheduling [`cycle`](Trial::cycle). The
/// solver cache ([`ScheduleScratch`]) is passed in, not owned, so a clone
/// is an independent copy of the run that resumes where the original is.
///
/// The `ready` and `idle` words are the cycle's snapshot kept current: each
/// handler and each establishment updates the bits its change touches, so
/// a cycle reads its requests and free resources off the set bits instead
/// of scanning every processor and resource.
#[derive(Clone)]
struct Trial<'a> {
    cfg: DynamicConfig,
    scheduler: &'a dyn Scheduler,
    plan: &'a FaultPlan,
    policy: DegradedPolicy,
    probe: &'a dyn Probe,
    /// `probe.enabled()`, read once: only an observed trial reads the clock
    /// for the stage timers.
    observed: bool,
    /// Rate of arrival events.
    gap_rate: f64,
    rng: StdRng,
    heap: BinaryHeap<Event>,
    /// Last pushed event's number: equal times pop in push order.
    seq: u64,
    cs: CircuitState<'a>,
    queue: Vec<VecDeque<Task>>,
    next_req: u64,
    /// Each processor's transmission in flight; one at most (model point 5).
    inflight: Vec<Option<Transmission>>,
    /// Arrival time of the task each busy resource serves (None = free).
    serving: Vec<Option<f64>>,
    /// Bit `p`: processor `p` transmits nothing and has a task queued.
    ready: Vec<u64>,
    /// Bit `r`: resource `r` is free (`serving[r]` is None).
    idle: Vec<u64>,
    /// Queued tasks, so the queue integral costs O(1) per event (the busy
    /// count is the `idle` words' complement).
    queued: usize,
    // Snapshot buffers, lent to each cycle's `ScheduleProblem`.
    requests: Vec<ScheduleRequest>,
    free: Vec<FreeResource>,
    last_t: f64,
    blocking: Sample,
    recovery: Sample,
    /// Time of the last repair still awaiting a zero-shed cycle.
    pending_recovery: Option<f64>,
    byzantine: Option<Byzantine>,
    /// Counters accumulate in place; so do the busy and queue time
    /// integrals, in `utilization` and `mean_queue` until [`Trial::finish`].
    out: FaultedStats,
}

impl<'a> Trial<'a> {
    /// Draw each processor's first arrival and schedule every plan event.
    fn new(
        sim: &SystemSim<'a>,
        scheduler: &'a dyn Scheduler,
        plan: &'a FaultPlan,
        trial: u64,
        policy: DegradedPolicy,
        probe: &'a dyn Probe,
    ) -> Self {
        let (cfg, net) = (sim.cfg, sim.net);
        let (np, nr, nb) = (net.num_processors(), net.num_resources(), net.num_boxes());
        let mut idle = vec![0; nr.div_ceil(64)];
        (0..nr).for_each(|r| set_bit(&mut idle, r, true));
        let mut t = Trial {
            cfg,
            scheduler,
            plan,
            policy,
            probe,
            observed: probe.enabled(),
            // ρ overrides the arrival rate, and a batch stretches the gap by
            // its size so the offered load is unchanged.
            gap_rate: cfg.effective_arrival_rate(np, nr) / cfg.batch_size.max(1) as f64,
            rng: trial_rng(cfg.seed, trial),
            heap: BinaryHeap::new(),
            seq: 0,
            cs: CircuitState::new(net),
            queue: vec![VecDeque::new(); np],
            next_req: 0,
            inflight: vec![None; np],
            serving: vec![None; nr],
            ready: vec![0; np.div_ceil(64)],
            idle,
            queued: 0,
            requests: Vec::with_capacity(np),
            free: Vec::with_capacity(nr),
            last_t: cfg.warmup,
            blocking: Sample::new(),
            recovery: Sample::new(),
            pending_recovery: None,
            byzantine: plan.has_byzantine().then(|| Byzantine {
                detector: ConformanceDetector::new(nb),
                onset_cycle: vec![None; nb],
                quarantined: vec![false; nb],
                delivered: Vec::new(),
                flagged: Vec::new(),
                detection: Sample::new(),
            }),
            out: FaultedStats::default(),
        };
        for p in 0..np as u32 {
            let gap = exponential(&mut t.rng, t.gap_rate);
            t.push(gap, EventType::Arrival(p));
        }
        for (index, fe) in (0..).zip(plan.events()) {
            t.push(fe.time, EventType::Fault(index));
        }
        t
    }

    fn push(&mut self, time: f64, kind: EventType) {
        self.seq += 1;
        let seq = self.seq;
        self.heap.push(Event { time, seq, kind });
    }

    /// Start a stage timer; it reads the clock only on an observed trial.
    fn stage_start(&self) -> Span {
        if self.observed {
            self.probe.start()
        } else {
            Span::disabled()
        }
    }

    /// Record a stage timer into `hist` on an observed trial.
    fn stage_end(&self, span: Span, hist: Hist) {
        if self.observed {
            self.probe.finish(span, hist);
        }
    }

    /// Recompute processor `p`'s ready bit after its queue or its
    /// transmission changed.
    fn refresh_ready(&mut self, p: usize) {
        let ready = self.inflight[p].is_none() && !self.queue[p].is_empty();
        set_bit(&mut self.ready, p, ready);
    }

    /// Handle the next event and run a scheduling cycle after it; `false`
    /// once the next event lies past the horizon.
    fn step(&mut self, scratch: &mut ScheduleScratch) -> Result<bool, SimError> {
        let span = self.stage_start();
        let Some(ev) = self.heap.pop().filter(|ev| ev.time <= self.cfg.sim_time) else {
            return Ok(false);
        };
        let now = ev.time;
        if now > self.cfg.warmup {
            let dt = now - self.last_t;
            let idle: u32 = self.idle.iter().map(|w| w.count_ones()).sum();
            let busy = self.serving.len() - idle as usize;
            self.out.stats.utilization += dt * busy as f64;
            self.out.stats.mean_queue += dt * self.queued as f64;
            self.last_t = now;
        }
        match ev.kind {
            EventType::Arrival(p) => self.arrive(now, p as usize),
            EventType::TransmissionDone(p) => self.transmission_done(now, p as usize)?,
            EventType::ServiceDone(r) => self.service_done(now, r as usize)?,
            EventType::Fault(index) => self.fault(now, index as usize),
        }
        self.stage_end(span, Hist::EventNs);
        self.cycle(now, scratch)?;
        Ok(true)
    }

    /// A burst of `batch_size` tasks (1 = the classic Poisson stream). A
    /// task arriving at a full bounded queue is shed: it still draws its
    /// type, so the stream behind it is unperturbed, but is never queued.
    fn arrive(&mut self, arrived: f64, processor: usize) {
        let batch = self.cfg.batch_size.max(1);
        self.probe.add(Counter::Requests, batch as u64);
        for _ in 0..batch {
            let ty = if self.cfg.types > 1 {
                self.rng.random_range(0..self.cfg.types)
            } else {
                0
            };
            self.next_req += 1;
            let (req, queue) = (self.next_req, &mut self.queue[processor]);
            if self.cfg.queue_capacity > 0 && queue.len() >= self.cfg.queue_capacity {
                self.out.stats.shed_arrivals += 1;
                continue;
            }
            self.probe
                .span(req, SpanPhase::Submit, processor as u64, ty as u64);
            queue.push_back(Task { arrived, ty, req });
            self.queued += 1;
        }
        self.refresh_ready(processor);
        let next = arrived + exponential(&mut self.rng, self.gap_rate);
        self.push(next, EventType::Arrival(processor as u32));
    }

    fn transmission_done(&mut self, now: f64, p: usize) -> Result<(), SimError> {
        let tx = self.inflight[p].take().ok_or(SimError::State(
            "transmission done at a processor with nothing in flight",
        ))?;
        let context = "releasing a transmitted task's circuit";
        let err = |error| SimError::Circuit { context, error };
        self.cs.release(tx.circuit).map_err(err)?;
        self.probe.add(Counter::Releases, 1);
        self.probe.span(
            tx.task.req,
            SpanPhase::Release,
            p as u64,
            tx.resource as u64,
        );
        if tx.delivered {
            let done = now + exponential(&mut self.rng, 1.0 / self.cfg.mean_service);
            self.push(done, EventType::ServiceDone(tx.resource as u32));
        } else {
            // A Byzantine box misrouted the circuit: nothing reached the
            // resource, and the task is retried from the front of its queue.
            self.queue[p].push_front(tx.task);
            self.queued += 1;
        }
        self.refresh_ready(p);
        Ok(())
    }

    fn service_done(&mut self, now: f64, r: usize) -> Result<(), SimError> {
        let arrived = self.serving[r].take().ok_or(SimError::State(
            "service done at a resource that serves nothing",
        ))?;
        set_bit(&mut self.idle, r, true);
        if now > self.cfg.warmup {
            self.out.stats.response.push(now - arrived);
            self.out.stats.completed += 1;
        }
        Ok(())
    }

    fn fault(&mut self, now: f64, index: usize) {
        let fe = &self.plan.events()[index];
        self.plan.apply_event(index, &mut self.cs);
        let phase = match fe.action {
            FaultAction::Fail => {
                self.out.failures += 1;
                self.probe.add(Counter::Faults, 1);
                SpanPhase::Fault
            }
            FaultAction::Repair => {
                self.out.repairs += 1;
                self.probe.add(Counter::Repairs, 1);
                // Measure recovery from the *latest* repair.
                self.pending_recovery = Some(now);
                SpanPhase::Repair
            }
        };
        if let (FaultTarget::ByzantineBox(b), Some(byz)) = (fe.target, self.byzantine.as_mut()) {
            match fe.action {
                // Onset stamps the cycle count so detection latency is
                // measured in scheduling cycles.
                FaultAction::Fail => byz.onset_cycle[b] = Some(self.out.stats.cycles),
                FaultAction::Repair => {
                    byz.onset_cycle[b] = None;
                    byz.detector.reset_box(b);
                    // The box is honest again: lift any quarantine.
                    if std::mem::replace(&mut byz.quarantined[b], false) {
                        self.cs.repair_box(b);
                    }
                }
            }
        }
        // Operands: component index and kind (link, box, domain, Byzantine).
        let (component, target_kind) = match fe.target {
            FaultTarget::Link(l) => (l.index() as u64, 0),
            FaultTarget::Box(b) => (b as u64, 1),
            FaultTarget::Domain(d) => (d as u64, 2),
            FaultTarget::ByzantineBox(b) => (b as u64, 3),
        };
        self.probe.span(0, phase, component, target_kind);
    }

    /// The request and free-resource lists found by scanning every
    /// processor and resource: the oracle the `ready` and `idle` words must
    /// reproduce (debug builds check it every cycle).
    fn scan(&self) -> (Vec<ScheduleRequest>, Vec<FreeResource>) {
        let (levels, types) = (self.cfg.priority_levels.max(1), self.cfg.types);
        let requests = (0..self.queue.len())
            .filter(|&p| self.inflight[p].is_none())
            .filter_map(|p| {
                self.queue[p].front().map(|task| ScheduleRequest {
                    processor: p,
                    priority: 1 + (p as u32) % levels,
                    resource_type: task.ty,
                })
            })
            .collect();
        let free = (0..self.serving.len())
            .filter(|&r| self.serving[r].is_none())
            .map(|r| FreeResource {
                resource: r,
                preference: 1 + (r as u32) % levels,
                resource_type: if types > 1 { r % types } else { 0 },
            })
            .collect();
        (requests, free)
    }

    /// Scheduling cycle whenever requests and free resources coexist.
    fn cycle(&mut self, now: f64, scratch: &mut ScheduleScratch) -> Result<(), SimError> {
        if self.ready.iter().all(|&w| w == 0) || self.idle.iter().all(|&w| w == 0) {
            debug_assert!({
                let (requests, free) = self.scan();
                requests.is_empty() || free.is_empty()
            });
            return Ok(());
        }
        let span = self.stage_start();
        let (levels, types) = (self.cfg.priority_levels.max(1), self.cfg.types);
        let queue = &self.queue;
        self.requests.clear();
        self.requests
            .extend(ones(&self.ready).map(|p| ScheduleRequest {
                processor: p,
                priority: 1 + (p as u32) % levels,
                // A ready processor has a task queued.
                resource_type: queue[p].front().map_or(0, |task| task.ty),
            }));
        self.free.clear();
        self.free.extend(ones(&self.idle).map(|r| FreeResource {
            resource: r,
            preference: 1 + (r as u32) % levels,
            resource_type: if types > 1 { r % types } else { 0 },
        }));
        self.stage_end(span, Hist::SnapshotNs);
        debug_assert_eq!(self.scan(), (self.requests.clone(), self.free.clone()));
        let (scheduler, probe) = (self.scheduler, self.probe);
        if self.observed {
            probe.record(Hist::QueueDepth, self.queued as u64);
        }
        let denom = self.requests.len().min(self.free.len());
        let problem = ScheduleProblem {
            circuits: &self.cs,
            requests: std::mem::take(&mut self.requests),
            free: std::mem::take(&mut self.free),
        };
        // Degraded-mode scheduling only while something is faulty: fault-free
        // cycles take the ordinary path, so `run()` (empty plan) stays
        // bit-identical to the pre-fault simulator under every policy.
        let faulty = self.cs.faulty_count() > 0;
        let d = match self.policy {
            DegradedPolicy::Bfs if faulty => {
                scheduler.try_schedule_degraded_observed(&problem, scratch, probe)
            }
            DegradedPolicy::Priced if faulty => {
                scheduler.try_schedule_degraded_priced_observed(&problem, scratch, probe)
            }
            // No retry: under faults every blocked request is shed; a
            // fault-free cycle sheds nothing.
            _ => scheduler
                .try_schedule_observed(&problem, scratch, probe)
                .map(|outcome| DegradedOutcome {
                    shed: if faulty { outcome.blocked.len() } else { 0 },
                    recovered: 0,
                    recovery_cost: 0,
                    outcome,
                }),
        }
        .map_err(|error| SimError::Schedule {
            scheduler: scheduler.name(),
            error,
        })?;
        let (out, recovered, shed) = (d.outcome, d.recovered as u64, d.shed as u64);
        debug_assert!(rsin_core::mapping::verify(&out.assignments, &problem).is_ok());
        if let Some(byz) = self.byzantine.as_mut() {
            byz.observe(&problem, &out.assignments)?;
        }
        (self.requests, self.free) = (problem.requests, problem.free);
        self.out.stats.cycles += 1;
        self.out.shed_total += shed;
        self.out.recovered_total += recovered;
        self.out.recovery_cost += d.recovery_cost;
        if recovered > 0 {
            probe.span(0, SpanPhase::Recovered, recovered, 0);
        }
        if shed > 0 {
            probe.span(0, SpanPhase::Shed, shed, 0);
        } else if let Some(t0) = self.pending_recovery.take() {
            self.recovery.push(now - t0);
        }
        if now > self.cfg.warmup && denom > 0 {
            self.blocking.push(out.blocking_fraction(denom));
        }
        self.out.allocations += out.assignments.len() as u64;
        let span = self.stage_start();
        let context = "establishing a scheduled circuit";
        let err = |error| SimError::Circuit { context, error };
        for (i, a) in out.assignments.iter().enumerate() {
            let circuit = self.cs.establish(&a.path).map_err(err)?;
            let task = self.queue[a.processor].pop_front().ok_or(SimError::State(
                "assignment for a processor with an empty queue",
            ))?;
            self.queued -= 1;
            let (processor, resource) = (a.processor, a.resource);
            probe.span(
                task.req,
                SpanPhase::Allocate,
                processor as u64,
                resource as u64,
            );
            set_bit(&mut self.ready, processor, false);
            // A misrouted circuit holds its links until the transmission
            // times out, but nothing reaches the resource: it stays free.
            let delivered = self.byzantine.as_ref().is_none_or(|b| b.delivered[i]);
            if delivered {
                let prev = self.serving[resource].replace(task.arrived);
                debug_assert!(prev.is_none(), "resource {resource} serves one task");
                set_bit(&mut self.idle, resource, false);
            } else {
                self.out.misrouted += 1;
            }
            let tx_done = now + exponential(&mut self.rng, 1.0 / self.cfg.mean_transmission);
            let tx = Transmission {
                task,
                resource,
                circuit,
                delivered,
            };
            let prev = self.inflight[processor].replace(tx);
            debug_assert!(prev.is_none(), "processor {processor} sends one task");
            self.push(tx_done, EventType::TransmissionDone(processor as u32));
        }
        self.stage_end(span, Hist::CommitNs);
        if let Some(byz) = self.byzantine.as_mut() {
            for &b in &byz.flagged {
                self.out.byz_flagged += 1;
                match byz.onset_cycle[b] {
                    // Onset stamped the cycle count before the lie began.
                    Some(c0) => byz.detection.push((self.out.stats.cycles - c0) as f64),
                    None => self.out.byz_false_positives += 1,
                }
                if !std::mem::replace(&mut byz.quarantined[b], true) {
                    self.cs.fail_box(b);
                }
            }
        }
        Ok(())
    }

    /// The run's statistics: the accumulated counters plus the time
    /// averages and sample means. `transform_rebuilds` counts the solver
    /// cache's work, not the trial's, so its owner fills it in.
    fn finish(self) -> FaultedStats {
        let horizon = (self.cfg.sim_time - self.cfg.warmup).max(f64::MIN_POSITIVE);
        let mut out = self.out;
        let s = &mut out.stats;
        s.utilization = s.utilization / horizon / self.serving.len() as f64;
        s.mean_response = s.response.mean();
        s.response_ci95 = s.response.ci95_half_width();
        s.response_p99 = s.response.p99();
        s.mean_queue /= horizon;
        s.mean_blocking = self.blocking.mean();
        s.final_queue = self.queued as u64;
        out.mean_recovery = self.recovery.mean();
        out.recoveries_observed = self.recovery.count();
        if let Some(byz) = &self.byzantine {
            out.mean_detection_cycles = byz.detection.mean();
            out.detections_observed = byz.detection.count();
        }
        out
    }
}

/// The dynamic simulator. One instance per (network, config) pair.
pub struct SystemSim<'n> {
    net: &'n Network,
    cfg: DynamicConfig,
}

impl<'n> SystemSim<'n> {
    /// Create a simulator.
    pub fn new(net: &'n Network, cfg: DynamicConfig) -> Self {
        SystemSim { net, cfg }
    }

    /// Run the fault-free trial 0 to the horizon under the given scheduler.
    pub fn run(&self, scheduler: &dyn Scheduler) -> Result<DynamicStats, SimError> {
        self.try_run_faulted_trial_policy_probed(
            scheduler,
            &FaultPlan::empty(),
            0,
            DegradedPolicy::Bfs,
            &NoopProbe,
        )
        .map(|f| f.stats)
    }

    /// Run one trial to the horizon: arrivals and service times come from
    /// the `(cfg.seed, trial)` RNG stream, and `plan`'s fault events, which
    /// draw no randomness, are interleaved into the event stream, so
    /// [`FaultPlan::empty`] reproduces [`SystemSim::run`] exactly. While
    /// something is faulty, blocked requests are handled by `policy` (all
    /// policies agree under an empty plan), and the shed/recovered counts
    /// feed the survival metrics. Faults and repairs never rebuild the
    /// transformation graph (see `FaultedStats::transform_rebuilds`).
    ///
    /// `probe` receives the arrival, release, fault and repair counters,
    /// per-cycle queue depths ([`rsin_obs::Hist::QueueDepth`]), every
    /// cycle's observed scheduler calls, and the lifecycle spans: `submit`,
    /// `allocate` and `release` per task (request ids are unique within the
    /// run), `fault`/`repair` per plan event and `shed`/`recovered` per
    /// degraded cycle. An observed probe also gets the sim's stage timers:
    /// [`Hist::EventNs`] per event, [`Hist::SnapshotNs`] and
    /// [`Hist::CommitNs`] per cycle. Probes only observe: the statistics are
    /// bit-identical to the [`NoopProbe`] run. Scheduler failures and
    /// bookkeeping-invariant violations come back as [`SimError`], and a
    /// Byzantine plan without a positive `mean_transmission` is
    /// [`SimError::InvalidConfig`] before the first event.
    pub fn try_run_faulted_trial_policy_probed(
        &self,
        scheduler: &dyn Scheduler,
        plan: &FaultPlan,
        trial: u64,
        policy: DegradedPolicy,
        probe: &dyn Probe,
    ) -> Result<FaultedStats, SimError> {
        // A misrouted task re-queues and is re-sent at once; with instant
        // transmissions no other delivery ever exonerates the suspects, so
        // simulated time would stop. `!(x > 0)` also rejects NaN.
        let timed = self.cfg.mean_transmission > 0.0;
        if plan.has_byzantine() && !timed {
            return Err(SimError::InvalidConfig(
                "a Byzantine plan needs a positive mean_transmission",
            ));
        }
        // One solver cache for every cycle of the run.
        let mut scratch = ScheduleScratch::new();
        let mut t = Trial::new(self, scheduler, plan, trial, policy, probe);
        while t.step(&mut scratch)? {}
        let mut stats = t.finish();
        stats.transform_rebuilds = scratch.rebuilds();
        Ok(stats)
    }
}

/// Which fault process drives a faulted trial (DESIGN §15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultModel {
    /// Independent per-link/per-box fail-stop renewal streams — the
    /// classic [`FaultPlan::generate`] model.
    Independent,
    /// Correlated fail-stop: per-stage power/packaging domains of
    /// switchboxes ([`FaultDomain::stage_power_domains`]) fail and repair
    /// as single events, with each domain's hazard scaled by the number of
    /// links it covers so the marginal per-link hazard matches
    /// [`FaultModel::Independent`] at the same configured rate.
    Correlated {
        /// Adjacent switching boxes per package, handed to
        /// [`FaultDomain::stage_power_domains`].
        domain_boxes: usize,
    },
    /// Byzantine misrouting: boxes lie instead of dying
    /// ([`FaultPlan::generate_byzantine`]; the config's box failure rate is
    /// the misrouting onset rate). Runs engage the differential
    /// conformance detector.
    Byzantine,
}

impl FaultModel {
    /// Stable lowercase name for CLI flags and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            FaultModel::Independent => "independent",
            FaultModel::Correlated { .. } => "correlated",
            FaultModel::Byzantine => "byzantine",
        }
    }
}

/// Build trial `trial`'s fault plan for `model` — the single plan-selection
/// point shared by [`run_trials`](crate::replicate::run_trials) and the
/// experiment binaries, so a CLI sweep and a test replaying one trial agree
/// event-for-event.
pub fn plan_for_model(
    net: &Network,
    fault_cfg: &FaultPlanConfig,
    model: FaultModel,
    plan_seed: u64,
) -> FaultPlan {
    match model {
        FaultModel::Independent => FaultPlan::generate(net, fault_cfg, plan_seed),
        FaultModel::Correlated { domain_boxes } => {
            let domains = FaultDomain::stage_power_domains(net, domain_boxes);
            FaultPlan::generate_correlated(net, domains, fault_cfg, plan_seed)
                .expect("stage power domains reference only in-range components")
        }
        FaultModel::Byzantine => FaultPlan::generate_byzantine(net, fault_cfg, plan_seed),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rsin_core::scheduler::{GreedyScheduler, MaxFlowScheduler};
    use rsin_topology::builders::omega;

    /// One max-flow trial of `cfg` under `plan`.
    fn trial(
        net: &Network,
        cfg: DynamicConfig,
        plan: &FaultPlan,
        trial: u64,
        policy: DegradedPolicy,
    ) -> FaultedStats {
        SystemSim::new(net, cfg)
            .try_run_faulted_trial_policy_probed(
                &MaxFlowScheduler::default(),
                plan,
                trial,
                policy,
                &NoopProbe,
            )
            .unwrap()
    }

    /// Every statistic of a trial as raw bits, for bit-for-bit comparisons.
    pub(crate) fn stat_bits(f: &FaultedStats) -> Vec<u64> {
        let s = &f.stats;
        vec![
            s.utilization.to_bits(),
            s.mean_response.to_bits(),
            s.response_ci95.to_bits(),
            s.response_p99.to_bits(),
            s.completed,
            s.mean_queue.to_bits(),
            s.cycles,
            s.mean_blocking.to_bits(),
            s.shed_arrivals,
            s.final_queue,
            f.allocations,
            f.shed_total,
            f.recovered_total,
            f.failures,
            f.repairs,
            f.mean_recovery.to_bits(),
            f.recoveries_observed,
            f.transform_rebuilds,
            f.recovery_cost as u64,
            f.misrouted,
            f.byz_flagged,
            f.byz_false_positives,
            f.mean_detection_cycles.to_bits(),
            f.detections_observed,
        ]
    }

    #[test]
    fn light_load_completes_tasks() {
        let net = omega(8).unwrap();
        let cfg = DynamicConfig {
            arrival_rate: 0.05,
            sim_time: 2000.0,
            ..DynamicConfig::default()
        };
        let stats = SystemSim::new(&net, cfg)
            .run(&MaxFlowScheduler::default())
            .unwrap();
        assert!(stats.completed > 100, "completed {}", stats.completed);
        assert!(stats.utilization > 0.0 && stats.utilization < 0.5);
        assert!(stats.mean_response > 0.0);
        assert!(stats.response_ci95 > 0.0 && stats.response_ci95 < stats.mean_response);
    }

    #[test]
    fn heavier_load_raises_utilization() {
        let net = omega(8).unwrap();
        let light = DynamicConfig {
            arrival_rate: 0.05,
            ..DynamicConfig::default()
        };
        let heavy = DynamicConfig {
            arrival_rate: 0.5,
            ..DynamicConfig::default()
        };
        let sim = SystemSim::new(&net, light);
        let u_light = sim.run(&MaxFlowScheduler::default()).unwrap().utilization;
        let sim = SystemSim::new(&net, heavy);
        let u_heavy = sim.run(&MaxFlowScheduler::default()).unwrap().utilization;
        assert!(u_heavy > u_light, "{u_heavy} vs {u_light}");
    }

    #[test]
    fn deterministic_given_seed() {
        let net = omega(8).unwrap();
        let cfg = DynamicConfig::default();
        let a = SystemSim::new(&net, cfg)
            .run(&MaxFlowScheduler::default())
            .unwrap();
        let b = SystemSim::new(&net, cfg)
            .run(&MaxFlowScheduler::default())
            .unwrap();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.cycles, b.cycles);
        assert!((a.mean_response - b.mean_response).abs() < 1e-12);
    }

    #[test]
    fn traced_faulted_run_is_bit_identical_and_spans_are_well_formed() {
        use rsin_obs::{validate_spans, FlightRecorder};
        let net = omega(8).unwrap();
        let cfg = DynamicConfig {
            arrival_rate: 0.4,
            sim_time: 300.0,
            ..DynamicConfig::default()
        };
        let sim = SystemSim::new(&net, cfg);
        let fcfg = FaultPlanConfig::links(0.002, 30.0, cfg.sim_time);
        let plan = FaultPlan::generate(&net, &fcfg, fault_plan_seed(cfg.seed, 0));
        let scheduler = MaxFlowScheduler::default();
        let plain = sim
            .try_run_faulted_trial_policy_probed(
                &scheduler,
                &plan,
                0,
                DegradedPolicy::Bfs,
                &NoopProbe,
            )
            .unwrap();
        let recorder = FlightRecorder::new(1 << 20);
        let traced = sim
            .try_run_faulted_trial_policy_probed(
                &scheduler,
                &plan,
                0,
                DegradedPolicy::Bfs,
                &recorder,
            )
            .unwrap();
        assert_eq!(plain.stats.completed, traced.stats.completed);
        assert_eq!(plain.stats.cycles, traced.stats.cycles);
        assert_eq!(plain.allocations, traced.allocations);
        assert_eq!(plain.shed_total, traced.shed_total);
        assert!((plain.stats.mean_response - traced.stats.mean_response).abs() < 1e-12);

        let snap = recorder.snapshot();
        assert_eq!(snap.dropped, 0, "ring sized for the whole run");
        validate_spans(&snap.events).expect("span chains well-formed");
        let count = |phase| snap.events.iter().filter(|e| e.phase == phase).count() as u64;
        assert!(count(SpanPhase::Submit) > 100, "arrivals traced");
        assert_eq!(
            count(SpanPhase::Allocate),
            traced.allocations,
            "one allocate span per established circuit"
        );
        // Every release span closes an allocated task; transmissions still
        // in flight at the horizon stay open.
        assert!(count(SpanPhase::Release) <= traced.allocations);
        if traced.shed_total > 0 {
            assert!(count(SpanPhase::Shed) > 0, "degraded cycles marked");
        }
        // Every applied plan event is one marker on the same timeline.
        assert!(traced.failures > 0 && traced.repairs > 0, "plan toggles");
        assert_eq!(count(SpanPhase::Fault), traced.failures);
        assert_eq!(count(SpanPhase::Repair), traced.repairs);
    }

    #[test]
    fn optimal_scheduler_never_worse_throughput_than_greedy() {
        let net = omega(8).unwrap();
        let cfg = DynamicConfig {
            arrival_rate: 0.6,
            mean_service: 2.0,
            sim_time: 500.0,
            ..DynamicConfig::default()
        };
        let opt = SystemSim::new(&net, cfg)
            .run(&MaxFlowScheduler::default())
            .unwrap();
        let heu = SystemSim::new(&net, cfg)
            .run(&GreedyScheduler::default())
            .unwrap();
        // Same arrival stream (same seed): the optimal mapping can only
        // help utilization; allow small stochastic slack since decisions
        // diverge after the first cycle.
        assert!(opt.utilization >= heu.utilization * 0.9);
    }

    #[test]
    fn typed_workload_schedules_with_multicommodity() {
        use rsin_core::scheduler::MultiCommodityScheduler;
        let net = omega(8).unwrap();
        let cfg = DynamicConfig {
            arrival_rate: 0.3,
            sim_time: 80.0,
            warmup: 10.0,
            types: 2,
            ..DynamicConfig::default()
        };
        let stats = SystemSim::new(&net, cfg)
            .run(&MultiCommodityScheduler::default())
            .unwrap();
        assert!(stats.completed > 30, "completed {}", stats.completed);
        assert!(stats.utilization > 0.05);
    }

    #[test]
    fn typed_load_is_harder_than_homogeneous() {
        // With k types, each request can only use 1/k of the pool, so
        // utilization at the same offered load must not be higher.
        let net = omega(8).unwrap();
        let base = DynamicConfig {
            arrival_rate: 0.6,
            sim_time: 120.0,
            warmup: 20.0,
            ..DynamicConfig::default()
        };
        let homo = SystemSim::new(&net, base)
            .run(&MaxFlowScheduler::default())
            .unwrap();
        let typed_cfg = DynamicConfig { types: 4, ..base };
        let typed = SystemSim::new(&net, typed_cfg)
            .run(&rsin_core::scheduler::MultiCommodityScheduler::default())
            .unwrap();
        assert!(
            typed.mean_response >= homo.mean_response * 0.8,
            "typed {} vs homo {}",
            typed.mean_response,
            homo.mean_response
        );
    }

    #[test]
    fn empty_plan_reports_fault_free_metrics() {
        let net = omega(8).unwrap();
        let cfg = DynamicConfig::default();
        let base = SystemSim::new(&net, cfg)
            .run(&MaxFlowScheduler::default())
            .unwrap();
        let faulted = trial(&net, cfg, &FaultPlan::empty(), 0, DegradedPolicy::Bfs);
        assert_eq!(base.completed, faulted.stats.completed);
        assert_eq!(base.cycles, faulted.stats.cycles);
        assert_eq!(
            base.mean_response.to_bits(),
            faulted.stats.mean_response.to_bits()
        );
        assert_eq!(faulted.failures, 0);
        assert_eq!(faulted.repairs, 0);
        assert_eq!(faulted.shed_total, 0);
        assert_eq!(faulted.recovered_total, 0);
        assert!(faulted.allocations >= faulted.stats.completed);
        assert_eq!(
            faulted.transform_rebuilds, 1,
            "one topology, one scheduler: exactly one transform build"
        );
    }

    #[test]
    fn mid_run_faults_patch_but_never_rebuild() {
        use rsin_topology::FaultPlanConfig;
        let net = omega(8).unwrap();
        let cfg = DynamicConfig {
            arrival_rate: 0.5,
            sim_time: 600.0,
            warmup: 50.0,
            ..DynamicConfig::default()
        };
        let fcfg = FaultPlanConfig::links(0.002, 30.0, cfg.sim_time);
        let plan = FaultPlan::generate(&net, &fcfg, fault_plan_seed(cfg.seed, 0));
        assert!(plan.failure_count() > 0, "plan must inject faults mid-run");
        let baseline = SystemSim::new(&net, cfg)
            .run(&MaxFlowScheduler::default())
            .unwrap();
        let faulted = trial(&net, cfg, &plan, 0, DegradedPolicy::Bfs);
        assert!(faulted.failures > 0);
        assert!(faulted.stats.completed > 0);
        // Survival: the faulted run still completes close to the baseline
        // count. (Not monotone: losing a link can reshuffle the queueing
        // dynamics enough to finish a handful *more* tasks, so bound the
        // ratio from both sides instead of asserting faulted <= baseline.)
        let survival = faulted.stats.completed as f64 / baseline.completed as f64;
        assert!(
            (0.5..=1.1).contains(&survival),
            "survival {survival}: faulted {} vs baseline {}",
            faulted.stats.completed,
            baseline.completed
        );
        // The acceptance bar of this subsystem: mid-run link failures are
        // capacity patches on the reusable transform, never rebuilds.
        assert_eq!(faulted.transform_rebuilds, 1);
    }

    #[test]
    fn repairs_are_followed_by_recovery() {
        use rsin_topology::FaultPlanConfig;
        let net = omega(8).unwrap();
        let cfg = DynamicConfig {
            arrival_rate: 0.6,
            sim_time: 800.0,
            warmup: 50.0,
            ..DynamicConfig::default()
        };
        // Heavy faulting with quick repairs so recovery intervals occur.
        let fcfg = FaultPlanConfig::links(0.004, 10.0, cfg.sim_time);
        let plan = FaultPlan::generate(&net, &fcfg, fault_plan_seed(cfg.seed, 1));
        let faulted = trial(&net, cfg, &plan, 1, DegradedPolicy::Bfs);
        assert!(faulted.repairs > 0, "plan must include repairs");
        assert!(
            faulted.recoveries_observed > 0,
            "quick repairs under load must yield measurable recoveries"
        );
        assert!(faulted.mean_recovery >= 0.0);
        assert!(faulted.mean_recovery < cfg.sim_time);
    }

    #[test]
    fn degraded_policies_agree_on_empty_plan() {
        // The policy knob only takes effect while something is faulty, so
        // under an empty plan all three policies are bit-identical.
        let net = omega(8).unwrap();
        let cfg = DynamicConfig {
            arrival_rate: 0.4,
            sim_time: 200.0,
            warmup: 20.0,
            priority_levels: 3,
            ..DynamicConfig::default()
        };
        let runs: Vec<FaultedStats> = [
            DegradedPolicy::None,
            DegradedPolicy::Bfs,
            DegradedPolicy::Priced,
        ]
        .iter()
        .map(|&p| trial(&net, cfg, &FaultPlan::empty(), 0, p))
        .collect();
        for w in runs.windows(2) {
            assert_eq!(w[0].stats.completed, w[1].stats.completed);
            assert_eq!(w[0].stats.cycles, w[1].stats.cycles);
            assert_eq!(
                w[0].stats.mean_response.to_bits(),
                w[1].stats.mean_response.to_bits()
            );
        }
        assert!(runs.iter().all(|r| r.recovery_cost == 0));
    }

    #[test]
    fn priority_levels_one_matches_unpriced_run() {
        // levels == 1 must be bit-identical to the pre-knob simulator
        // (priority/preference all collapse to 1 with no extra RNG draws).
        let net = omega(8).unwrap();
        let cfg = DynamicConfig {
            arrival_rate: 0.4,
            sim_time: 150.0,
            warmup: 20.0,
            ..DynamicConfig::default()
        };
        assert_eq!(cfg.priority_levels, 1);
        let a = SystemSim::new(&net, cfg)
            .run(&MaxFlowScheduler::default())
            .unwrap();
        let leveled = DynamicConfig {
            priority_levels: 5,
            ..cfg
        };
        let b = SystemSim::new(&net, leveled)
            .run(&MaxFlowScheduler::default())
            .unwrap();
        // Max-flow ignores prices entirely, so even with levels > 1 the
        // decision sequence (and hence all dynamics) is unchanged.
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.mean_response.to_bits(), b.mean_response.to_bits());
    }

    #[test]
    fn rho_knob_reproduces_explicit_rate_bit_identically() {
        // ρ targeting is only a different way of *stating* the arrival
        // rate: on omega-8 with a 1.0 mean hold time, ρ = 0.25 derives the
        // rate 0.25 exactly, so the run must be bit-identical to spelling
        // the rate out (same draws, same events, same statistics).
        let net = omega(8).unwrap();
        let explicit = DynamicConfig {
            arrival_rate: 0.25,
            mean_transmission: 0.5,
            mean_service: 0.5,
            sim_time: 400.0,
            warmup: 40.0,
            ..DynamicConfig::default()
        };
        let targeted = DynamicConfig {
            arrival_rate: 999.0, // must be ignored once rho is set
            rho: 0.25,
            ..explicit
        };
        assert_eq!(targeted.effective_arrival_rate(8, 8), 0.25);
        let a = SystemSim::new(&net, explicit)
            .run(&MaxFlowScheduler::default())
            .unwrap();
        let b = SystemSim::new(&net, targeted)
            .run(&MaxFlowScheduler::default())
            .unwrap();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.mean_response.to_bits(), b.mean_response.to_bits());
        assert_eq!(a.utilization.to_bits(), b.utilization.to_bits());
        assert_eq!(a.shed_arrivals, 0);
        assert_eq!(b.shed_arrivals, 0);
    }

    #[test]
    fn heavy_traffic_queue_grows_with_rho() {
        // The heavy-traffic acceptance signal: mean queue depth is monotone
        // in ρ across the near/past-saturation ladder, and past saturation
        // the horizon-end backlog dwarfs the sub-critical one.
        let net = omega(8).unwrap();
        let rhos = [0.9, 0.95, 0.99, 1.05];
        let runs: Vec<DynamicStats> = rhos
            .iter()
            .map(|&rho| {
                let cfg = DynamicConfig {
                    rho,
                    sim_time: 2000.0,
                    warmup: 100.0,
                    ..DynamicConfig::default()
                };
                SystemSim::new(&net, cfg)
                    .run(&MaxFlowScheduler::default())
                    .unwrap()
            })
            .collect();
        for (w, pair) in runs.windows(2).enumerate() {
            assert!(
                pair[1].mean_queue >= pair[0].mean_queue,
                "queue not monotone: rho {} gave {}, rho {} gave {}",
                rhos[w],
                pair[0].mean_queue,
                rhos[w + 1],
                pair[1].mean_queue
            );
        }
        assert!(
            runs[3].final_queue > runs[0].final_queue.saturating_mul(2),
            "past saturation the backlog must blow up: {} vs {}",
            runs[3].final_queue,
            runs[0].final_queue
        );
    }

    #[test]
    fn bounded_queue_sheds_only_past_saturation() {
        let net = omega(8).unwrap();
        let base = DynamicConfig {
            queue_capacity: 32,
            sim_time: 2000.0,
            warmup: 100.0,
            ..DynamicConfig::default()
        };
        let calm = SystemSim::new(&net, DynamicConfig { rho: 0.7, ..base })
            .run(&MaxFlowScheduler::default())
            .unwrap();
        assert_eq!(
            calm.shed_arrivals, 0,
            "a 32-deep bound must never fill at rho 0.7"
        );
        let hot = SystemSim::new(&net, DynamicConfig { rho: 1.05, ..base })
            .run(&MaxFlowScheduler::default())
            .unwrap();
        assert!(
            hot.shed_arrivals > 0,
            "past saturation the bounded queue must overflow"
        );
        assert!(hot.completed > 0, "shedding must not stall the system");
        // The bound caps the backlog the unbounded run would accumulate.
        assert!(hot.final_queue <= 32 * 8);
    }

    #[test]
    fn batch_arrivals_hold_offered_load() {
        // Batching changes the arrival *pattern*, not the offered load: the
        // burst size stretches the inter-burst gap by the same factor, so
        // long-run throughput stays in the same band.
        let net = omega(8).unwrap();
        let base = DynamicConfig {
            rho: 0.6,
            sim_time: 3000.0,
            warmup: 200.0,
            ..DynamicConfig::default()
        };
        let smooth = SystemSim::new(&net, base)
            .run(&MaxFlowScheduler::default())
            .unwrap();
        let bursty = SystemSim::new(
            &net,
            DynamicConfig {
                batch_size: 4,
                ..base
            },
        )
        .run(&MaxFlowScheduler::default())
        .unwrap();
        let ratio = bursty.completed as f64 / smooth.completed as f64;
        assert!(
            (0.75..=1.25).contains(&ratio),
            "throughput drifted under batching: {} vs {}",
            bursty.completed,
            smooth.completed
        );
        // Bursts queue behind one-at-a-time transmission, so waiting can
        // only get worse.
        assert!(bursty.mean_queue >= smooth.mean_queue);
    }

    #[test]
    fn conservation_no_tasks_lost() {
        // Completed tasks never exceed arrivals (sanity on bookkeeping).
        let net = omega(4).unwrap();
        let cfg = DynamicConfig {
            arrival_rate: 0.3,
            sim_time: 300.0,
            warmup: 0.0,
            ..DynamicConfig::default()
        };
        let stats = SystemSim::new(&net, cfg)
            .run(&MaxFlowScheduler::default())
            .unwrap();
        let arrivals_upper = (0.3 * 4.0 * 300.0 * 2.0) as u64;
        assert!(stats.completed < arrivals_upper);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn byzantine_boxes_misroute_until_detected_and_quarantined() {
        use rsin_topology::FaultPlanConfig;
        let net = omega(8).unwrap();
        let cfg = DynamicConfig {
            arrival_rate: 0.5,
            sim_time: 400.0,
            warmup: 40.0,
            ..DynamicConfig::default()
        };
        let fcfg = FaultPlanConfig {
            link_failure_rate: 0.0,
            box_failure_rate: 0.002,
            mean_repair: 80.0,
            horizon: cfg.sim_time,
        };
        let plan = plan_for_model(
            &net,
            &fcfg,
            FaultModel::Byzantine,
            fault_plan_seed(cfg.seed, 0),
        );
        assert!(plan.has_byzantine() && plan.failure_count() > 0);
        let run = trial(&net, cfg, &plan, 0, DegradedPolicy::Bfs);
        // The lie manifests: circuits establish but fail to deliver…
        assert!(run.misrouted > 0, "no circuit was ever misrouted");
        // …and the differential detector catches the liar with repeat
        // evidence, never before the flagging threshold allows.
        assert!(run.byz_flagged > 0, "no box was ever flagged");
        assert!(run.detections_observed > 0);
        assert!(
            run.mean_detection_cycles >= rsin_core::conformance::FLAG_THRESHOLD as f64,
            "detection latency {} under threshold",
            run.mean_detection_cycles
        );
        // Tasks survive: misrouted transmissions re-queue and retry once the
        // liar is quarantined, so the run still completes work.
        assert!(run.stats.completed > 0);
    }

    #[test]
    fn sweep_matches_individual_runs_for_any_thread_count() {
        trial_grid_bit_identical_across_thread_counts("fault-free sweep");
    }

    #[test]
    fn faulted_trials_bit_identical_across_thread_counts() {
        trial_grid_bit_identical_across_thread_counts("independent/bfs");
    }

    #[test]
    fn priced_policy_bit_identical_across_thread_counts() {
        trial_grid_bit_identical_across_thread_counts("independent/priced");
    }

    #[test]
    fn correlated_domain_trials_patch_only_and_bit_identical_across_threads() {
        trial_grid_bit_identical_across_thread_counts("correlated");
    }

    #[test]
    fn byzantine_trials_bit_identical_across_thread_counts() {
        trial_grid_bit_identical_across_thread_counts("byzantine");
    }

    #[test]
    fn independent_model_reproduces_legacy_entry_point_bit_for_bit() {
        // The independent model draws the classic `FaultPlan::generate` plan.
        use crate::replicate::{run_trials, TrialGrid};
        let net = omega(8).unwrap();
        let cfg = DynamicConfig {
            arrival_rate: 0.4,
            sim_time: 200.0,
            warmup: 20.0,
            ..DynamicConfig::default()
        };
        let fcfg = FaultPlanConfig::links(0.003, 20.0, cfg.sim_time);
        let grid = TrialGrid {
            configs: std::slice::from_ref(&cfg),
            trials: 3,
            faults: Some((&fcfg, FaultModel::Independent)),
            policy: DegradedPolicy::Bfs,
        };
        let model = run_trials(&net, &MaxFlowScheduler::default(), &grid, 2).unwrap();
        for (t, cell) in (0..).zip(&model[0]) {
            let plan = FaultPlan::generate(&net, &fcfg, fault_plan_seed(cfg.seed, t));
            let legacy = trial(&net, cfg, &plan, t, DegradedPolicy::Bfs);
            assert_eq!(stat_bits(&legacy), stat_bits(cell), "t={t}");
            assert_eq!(cell.misrouted, 0);
        }
    }

    /// Runs the named row of the trial-grid table at 1 and 4 threads,
    /// compares every cell bit for bit, then applies the row's own checks.
    fn trial_grid_bit_identical_across_thread_counts(only: &str) {
        use crate::replicate::{run_trials, TrialGrid};
        use rsin_core::scheduler::AddressMappedScheduler;
        let net = omega(8).unwrap();
        let cfg = |arrival_rate, sim_time, warmup| DynamicConfig {
            arrival_rate,
            sim_time,
            warmup,
            ..DynamicConfig::default()
        };
        let sweep: Vec<DynamicConfig> = [0.05, 0.2, 0.4, 0.6, 0.8]
            .iter()
            .map(|&rate| cfg(rate, 150.0, 20.0))
            .collect();
        let independent = [cfg(0.4, 200.0, 20.0)];
        let independent_faults = FaultPlanConfig::links(0.003, 20.0, 200.0);
        // Address mapping binds blind, so faulty cycles actually exercise
        // the residual min-cost recovery.
        let priced = [DynamicConfig {
            priority_levels: 4,
            ..cfg(0.5, 200.0, 20.0)
        }];
        let priced_faults = FaultPlanConfig::links(0.004, 15.0, 200.0);
        let correlated = [cfg(0.5, 400.0, 40.0)];
        let correlated_faults = FaultPlanConfig::links(0.01, 25.0, 400.0);
        let byzantine = [cfg(0.4, 300.0, 30.0)];
        let byzantine_faults = FaultPlanConfig {
            link_failure_rate: 0.0,
            box_failure_rate: 0.002,
            mean_repair: 60.0,
            horizon: 300.0,
        };
        let max_flow = MaxFlowScheduler::default();
        let addr = AddressMappedScheduler::new(7);
        let grid = |configs, trials, faults, policy| TrialGrid {
            configs,
            trials,
            faults,
            policy,
        };
        // (case, scheduler, grid, what the serial rows must also show)
        type Case<'a> = (
            &'a str,
            &'a dyn Scheduler,
            TrialGrid<'a>,
            fn(&[FaultedStats]),
        );
        let cases: [Case; 5] = [
            (
                "fault-free sweep",
                &max_flow,
                grid(&sweep, 1, None, DegradedPolicy::Bfs),
                |_| {},
            ),
            (
                "independent/bfs",
                &max_flow,
                grid(
                    &independent,
                    5,
                    Some((&independent_faults, FaultModel::Independent)),
                    DegradedPolicy::Bfs,
                ),
                |runs| {
                    assert!(
                        runs.windows(2)
                            .any(|w| w[0].stats.completed != w[1].stats.completed),
                        "independent trials should diverge"
                    );
                    assert!(runs.iter().all(|r| r.misrouted == 0));
                },
            ),
            (
                "independent/priced",
                &addr,
                grid(
                    &priced,
                    5,
                    Some((&priced_faults, FaultModel::Independent)),
                    DegradedPolicy::Priced,
                ),
                |runs| {
                    assert!(
                        runs.iter().all(|r| r.recovery_cost >= 0),
                        "recovery cost is a sum of nonnegative per-cycle costs"
                    );
                },
            ),
            (
                "correlated",
                &max_flow,
                grid(
                    &correlated,
                    4,
                    Some((
                        &correlated_faults,
                        FaultModel::Correlated { domain_boxes: 2 },
                    )),
                    DegradedPolicy::Bfs,
                ),
                |runs| {
                    assert!(
                        runs.iter().any(|s| s.failures > 0),
                        "correlated plans must inject domain failures"
                    );
                    for s in runs {
                        // Domain events flow through the incremental patch
                        // path: one rebuild for the transformation shape,
                        // none for the faults.
                        assert_eq!(s.transform_rebuilds, 1);
                        assert_eq!(s.misrouted, 0, "correlated faults are fail-stop");
                        assert_eq!(s.byz_flagged, 0, "detector must stay disengaged");
                    }
                },
            ),
            (
                "byzantine",
                &max_flow,
                grid(
                    &byzantine,
                    4,
                    Some((&byzantine_faults, FaultModel::Byzantine)),
                    DegradedPolicy::Bfs,
                ),
                |runs| assert!(runs.iter().any(|s| s.misrouted > 0)),
            ),
        ];
        let (case, scheduler, grid, check) = cases.iter().find(|c| c.0 == only).unwrap();
        let serial = run_trials(&net, *scheduler, grid, 1).unwrap();
        let parallel = run_trials(&net, *scheduler, grid, 4).unwrap();
        assert_eq!(serial.len(), grid.configs.len(), "{case}");
        for (a, b) in serial.concat().iter().zip(&parallel.concat()) {
            assert_eq!(stat_bits(a), stat_bits(b), "{case}");
        }
        check(&serial.concat());
    }

    #[test]
    fn byzantine_plan_with_instant_transmissions_is_an_invalid_config() {
        use rsin_core::scheduler::AddressMappedScheduler;
        let net = omega(8).unwrap();
        let fcfg = FaultPlanConfig {
            link_failure_rate: 0.0,
            box_failure_rate: 0.004,
            mean_repair: 40.0,
            horizon: 150.0,
        };
        let scheduler = AddressMappedScheduler::new(7);
        for mean_transmission in [0.0, -1.0, f64::NAN] {
            let cfg = DynamicConfig {
                arrival_rate: 0.5,
                mean_transmission,
                sim_time: 150.0,
                warmup: 15.0,
                priority_levels: 3,
                ..DynamicConfig::default()
            };
            let sim = SystemSim::new(&net, cfg);
            // Trial 1 once spun at t = 16.66 with no detection in sight.
            for t in 0..4 {
                let seed = fault_plan_seed(cfg.seed, t);
                let plan = plan_for_model(&net, &fcfg, FaultModel::Byzantine, seed);
                assert!(plan.has_byzantine());
                let run = sim.try_run_faulted_trial_policy_probed(
                    &scheduler,
                    &plan,
                    t,
                    DegradedPolicy::Bfs,
                    &NoopProbe,
                );
                assert!(
                    matches!(run, Err(SimError::InvalidConfig(_))),
                    "mean_transmission {mean_transmission}, trial {t}: {run:?}"
                );
            }
        }
        // Fail-stop plans keep instant transmissions.
        let cfg = DynamicConfig {
            mean_transmission: 0.0,
            sim_time: 150.0,
            warmup: 15.0,
            ..DynamicConfig::default()
        };
        let plan = FaultPlan::generate(&net, &FaultPlanConfig::links(0.01, 20.0, 150.0), 3);
        let run = trial(&net, cfg, &plan, 0, DegradedPolicy::Bfs);
        assert!(run.stats.completed > 0);
    }

    #[test]
    fn observed_trial_times_every_event_and_cycle() {
        use rsin_obs::Telemetry;
        use std::sync::atomic::{AtomicU64, Ordering};
        /// Off, but counts the sim stage timers a trial records anyway.
        #[derive(Default)]
        struct Unobserved(AtomicU64);
        impl Probe for Unobserved {
            fn finish(&self, _: Span, hist: Hist) {
                if matches!(hist, Hist::EventNs | Hist::SnapshotNs | Hist::CommitNs) {
                    self.0.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let net = omega(8).unwrap();
        let cfg = DynamicConfig {
            arrival_rate: 0.5,
            sim_time: 200.0,
            warmup: 20.0,
            ..DynamicConfig::default()
        };
        let fcfg = FaultPlanConfig::links(0.005, 20.0, cfg.sim_time);
        let plan = FaultPlan::generate(&net, &fcfg, fault_plan_seed(cfg.seed, 0));
        let (sim, scheduler) = (SystemSim::new(&net, cfg), GreedyScheduler::default());
        let telemetry = Telemetry::new();
        let policy = DegradedPolicy::Bfs;
        let mut observed = Trial::new(&sim, &scheduler, &plan, 0, policy, &telemetry);
        let mut scratch = ScheduleScratch::new();
        let mut events = 0;
        while observed.step(&mut scratch).unwrap() {
            events += 1;
        }
        let report = telemetry.report();
        let count = |h: Hist| report.hists[h.index()].count;
        assert!(events > 0 && observed.out.stats.cycles > 0);
        assert_eq!(count(Hist::EventNs), events);
        assert_eq!(count(Hist::SnapshotNs), observed.out.stats.cycles);
        assert_eq!(count(Hist::CommitNs), observed.out.stats.cycles);
        let off = Unobserved::default();
        let mut plain = Trial::new(&sim, &scheduler, &plan, 0, policy, &off);
        while plain.step(&mut scratch).unwrap() {}
        assert_eq!(off.0.load(Ordering::Relaxed), 0, "no timer call while off");
        let (want, got) = (observed.finish(), plain.finish());
        assert_eq!(format!("{want:?}"), format!("{got:?}"));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(36))]

        /// After every step the maintained `ready` and `idle` words name
        /// exactly the processors and resources a full scan finds, over
        /// batches, bounded queues, types, priority levels and every fault
        /// model.
        #[test]
        fn snapshot_words_match_the_scan(
            batch_size in 1usize..5,
            bounded in 0usize..2,
            types in 1usize..4,
            priority_levels in 1u32..5,
            model in 0usize..4,
            trial_no in 0u64..4,
        ) {
            let net = omega(8).unwrap();
            let cfg = DynamicConfig {
                arrival_rate: 0.5,
                sim_time: 100.0,
                warmup: 10.0,
                types,
                priority_levels,
                batch_size,
                queue_capacity: 3 * bounded,
                ..DynamicConfig::default()
            };
            let byzantine = FaultPlanConfig {
                link_failure_rate: 0.0,
                box_failure_rate: 0.004,
                mean_repair: 40.0,
                horizon: 100.0,
            };
            let links = FaultPlanConfig::links(0.01, 20.0, 100.0);
            let seed = fault_plan_seed(cfg.seed, trial_no);
            let plan = match model {
                0 => FaultPlan::empty(),
                1 => plan_for_model(&net, &links, FaultModel::Independent, seed),
                2 => plan_for_model(&net, &links, FaultModel::Correlated { domain_boxes: 2 }, seed),
                _ => plan_for_model(&net, &byzantine, FaultModel::Byzantine, seed),
            };
            // Greedy routing honours resource types.
            let scheduler = GreedyScheduler::default();
            let sim = SystemSim::new(&net, cfg);
            let policy = DegradedPolicy::Bfs;
            let mut t = Trial::new(&sim, &scheduler, &plan, trial_no, policy, &NoopProbe);
            let mut scratch = ScheduleScratch::new();
            while t.step(&mut scratch).unwrap() {
                let (requests, free) = t.scan();
                let ready: Vec<usize> = requests.iter().map(|r| r.processor).collect();
                let idle: Vec<usize> = free.iter().map(|f| f.resource).collect();
                proptest::prop_assert_eq!(ones(&t.ready).collect::<Vec<_>>(), ready);
                proptest::prop_assert_eq!(ones(&t.idle).collect::<Vec<_>>(), idle);
            }
            proptest::prop_assert!(t.out.stats.cycles > 0);
        }

        /// A trial cloned after `k` events (before its last cycle) and run
        /// to the horizon on a fresh scratch finishes with exactly the
        /// statistics of the original, which kept its own scratch.
        #[test]
        fn cloned_trial_resumes_to_identical_stats(
            model in 0usize..3,
            policy in 0usize..3,
            trial_no in 0u64..4,
            frac in 0.0f64..1.0,
            instant in 0usize..2,
            pick_delicate in 0usize..2,
        ) {
            use rsin_core::scheduler::AddressMappedScheduler;
            let net = omega(8).unwrap();
            // Instant transmissions put a cycle's completions at one time,
            // so the heap's push-order tie-break decides their order. Not
            // under Byzantine plans, which reject them (a misrouted task
            // would be re-sent at the same instant forever).
            let instant = instant == 1 && model < 2;
            let cfg = DynamicConfig {
                arrival_rate: 0.5,
                mean_transmission: if instant { 0.0 } else { 0.2 },
                sim_time: 150.0,
                warmup: 15.0,
                priority_levels: 3,
                ..DynamicConfig::default()
            };
            let (fcfg, model) = match model {
                0 => (FaultPlanConfig::links(0.01, 20.0, 150.0), FaultModel::Independent),
                1 => (
                    FaultPlanConfig::links(0.01, 20.0, 150.0),
                    FaultModel::Correlated { domain_boxes: 2 },
                ),
                _ => (
                    FaultPlanConfig {
                        link_failure_rate: 0.0,
                        box_failure_rate: 0.004,
                        mean_repair: 40.0,
                        horizon: 150.0,
                    },
                    FaultModel::Byzantine,
                ),
            };
            let plan = plan_for_model(&net, &fcfg, model, fault_plan_seed(cfg.seed, trial_no));
            let policy = [DegradedPolicy::None, DegradedPolicy::Bfs, DegradedPolicy::Priced][policy];
            // Address mapping binds blind, so degraded cycles have requests
            // to recover.
            let scheduler = AddressMappedScheduler::new(7);
            let sim = SystemSim::new(&net, cfg);
            let mut original = Trial::new(&sim, &scheduler, &plan, trial_no, policy, &NoopProbe);
            // Dry run: `last` counts the steps up to the last cycle, and
            // `delicate` collects the step counts after which a clone is
            // easiest to get wrong: two events wait at one time (push order
            // decides), or a repair awaits the cycle that observes its
            // recovery.
            let mut dry_run = original.clone();
            let mut scratch = ScheduleScratch::new();
            let (mut steps, mut last, mut cycles, mut recoveries) = (0, 0, 0, 0);
            let (mut delicate, mut awaiting) = (Vec::new(), Vec::new());
            while dry_run.step(&mut scratch).unwrap() {
                steps += 1;
                if dry_run.out.stats.cycles > cycles {
                    (cycles, last) = (dry_run.out.stats.cycles, steps);
                }
                if dry_run.recovery.count() > recoveries {
                    recoveries = dry_run.recovery.count();
                    delicate.append(&mut awaiting);
                }
                match dry_run.pending_recovery {
                    Some(_) => awaiting.push(steps),
                    None => awaiting.clear(),
                }
                let mut times: Vec<f64> = dry_run.heap.iter().map(|e| e.time).collect();
                times.sort_by(f64::total_cmp);
                if times.windows(2).any(|w| w[0] == w[1]) {
                    delicate.push(steps);
                }
            }
            delicate.retain(|&k| k < last);
            let k = match delicate.len() {
                n if n > 0 && pick_delicate == 1 => delicate[(frac * n as f64) as usize],
                _ => (frac * last as f64) as usize,
            };
            let mut scratch = ScheduleScratch::new();
            for _ in 0..k {
                proptest::prop_assert!(original.step(&mut scratch).unwrap());
            }
            let mut resumed = original.clone();
            let mut fresh = ScheduleScratch::new();
            while original.step(&mut scratch).unwrap() {}
            while resumed.step(&mut fresh).unwrap() {}
            let (want, got) = (original.finish(), resumed.finish());
            proptest::prop_assert!(want.stats.cycles > 0);
            proptest::prop_assert_eq!(format!("{want:?}"), format!("{got:?}"));
        }
    }
}
