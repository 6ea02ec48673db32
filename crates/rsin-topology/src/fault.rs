//! Deterministic, seed-driven fault-injection plans.
//!
//! The paper's Section V argues that a distributed MRSIN degrades gracefully
//! when links or switchboxes fail; the stability literature on Omega-class
//! MINs (arXiv:1202.1062, arXiv:1202.0612) quantifies exactly how much
//! routing capacity survives k faults. A [`FaultPlan`] is the reproducible
//! half of such an experiment: a pre-drawn, time-sorted schedule of
//! failure/repair events for links and switchboxes, generated from a seed so
//! that every simulation trial — on any thread count — observes an identical
//! fault history.
//!
//! Beyond independent fail-stop toggles, a plan can carry two richer fault
//! models (DESIGN §15):
//!
//! * **Correlated domains** — a [`FaultDomain`] names a group of links and
//!   boxes that share a power/stage domain and fail or repair together as
//!   *one* schedule event ([`FaultTarget::Domain`]). Domain events expand to
//!   plain member toggles at apply time, so they ride the same incremental
//!   capacity-patch path as independent faults.
//! * **Byzantine misrouting** — [`FaultTarget::ByzantineBox`] marks a
//!   switchbox that routes requests to the *wrong* output instead of dying.
//!   A lying box leaves every link available, so capacity-based solvers
//!   cannot see it; only delivery conformance can.
//!
//! Plans are *pure data*: generating one consumes only its own RNG stream,
//! never the simulation's, so injecting a plan into a run cannot perturb
//! arrival or service draws.

use crate::circuit::CircuitState;
use crate::network::{LinkId, Network, NodeRef};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashSet;
use std::fmt;

/// Which component an event touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultTarget {
    /// A single directed link.
    Link(LinkId),
    /// A whole switchbox: every link entering or leaving it.
    Box(usize),
    /// A correlated fault domain, by index into the plan's domain table.
    /// Every member link and box toggles together as one schedule event.
    Domain(usize),
    /// A switchbox that starts (Fail) or stops (Repair) misrouting. The
    /// box's links stay available — only delivery is affected.
    ByzantineBox(usize),
}

/// Whether the component goes down or comes back up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultAction {
    /// Component becomes unusable for new circuits (fail-stop), or — for
    /// [`FaultTarget::ByzantineBox`] — starts misrouting.
    Fail,
    /// Component returns to service for new circuits, or stops misrouting.
    Repair,
}

/// One timed fault event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Simulation time at which the event takes effect.
    pub time: f64,
    /// The component affected.
    pub target: FaultTarget,
    /// Fail or repair.
    pub action: FaultAction,
}

/// A named group of links and switchboxes that fail and repair together
/// (a shared power supply, a board, a stage enclosure).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultDomain {
    /// Human-readable label, carried into reports.
    pub name: String,
    /// Member links.
    pub links: Vec<LinkId>,
    /// Member boxes (each expands to all links touching the box).
    pub boxes: Vec<usize>,
}

impl FaultDomain {
    /// Per-stage power domains of the *interior switch fabric*: the boxes of
    /// every stage with at least two wired inputs and two wired outputs
    /// (1×k fan-out taps and k×1 merge taps are excluded) and no link wired
    /// directly to a processor or resource, chunked into packages of
    /// `domain_boxes` adjacent boxes by index. This is the correlated model
    /// the `faults` bin sweeps: one event takes down a whole package at
    /// once.
    ///
    /// Excluding attachment-wired boxes follows the standard assumption of
    /// fault-tolerant MIN analysis (e.g. the Extra Stage Cube's bypass
    /// mux/demux): the network interface a port depends on is engineered
    /// fault-free, because no amount of internal path diversity can route
    /// around a dead single attachment. What the correlated model stresses
    /// is the shared power/packaging slabs of the fabric itself — exactly
    /// where extra stages and disjoint planes can (or cannot) help.
    ///
    /// Domains are fixed-*size*, not fixed-count, so topologies of different
    /// widths get comparable packages: an omega-8 fabric (its middle stage)
    /// splits into two 2-box packages, while a 3dp-omega-8 stage of three
    /// 4-box planes splits into six — and because plane widths are multiples
    /// of the package size, every package sits inside a single plane, which
    /// is exactly the redundancy the 3-disjoint-path construction buys.
    pub fn stage_power_domains(net: &Network, domain_boxes: usize) -> Vec<FaultDomain> {
        assert!(domain_boxes >= 1, "domains need at least one box");
        let wired = |links: &[Option<LinkId>]| links.iter().flatten().count();
        let attached = |net: &Network, b: usize| {
            net.box_inputs(b)
                .iter()
                .flatten()
                .any(|&l| matches!(net.link(l).src, NodeRef::Processor(_)))
                || net
                    .box_outputs(b)
                    .iter()
                    .flatten()
                    .any(|&l| matches!(net.link(l).dst, NodeRef::Resource(_)))
        };
        let mut domains = Vec::new();
        for stage in 0..net.num_stages() {
            let boxes: Vec<usize> = net
                .boxes_in_stage(stage)
                .into_iter()
                .filter(|&b| wired(net.box_inputs(b)) >= 2 && wired(net.box_outputs(b)) >= 2)
                .filter(|&b| !attached(net, b))
                .collect();
            for (g, chunk) in boxes.chunks(domain_boxes).enumerate() {
                domains.push(FaultDomain {
                    name: format!("s{stage}g{g}"),
                    links: Vec::new(),
                    boxes: chunk.to_vec(),
                });
            }
        }
        domains
    }

    /// Number of distinct links this domain covers (member links plus every
    /// link touching a member box) — the blast radius of one domain event,
    /// useful for reports and for sizing expectations in tests.
    pub fn link_weight(&self, net: &Network) -> usize {
        let mut seen: HashSet<LinkId> = self.links.iter().copied().collect();
        for &b in &self.boxes {
            for l in net.box_inputs(b).iter().flatten() {
                seen.insert(*l);
            }
            for l in net.box_outputs(b).iter().flatten() {
                seen.insert(*l);
            }
        }
        seen.len()
    }
}

/// Typed construction errors: a plan that references components its network
/// does not have is rejected up front instead of panicking deep inside
/// [`FaultPlan::apply_until`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPlanError {
    /// An event time was NaN, infinite, or negative.
    NonFiniteTime {
        /// Index of the offending event in the input order.
        index: usize,
    },
    /// An event referenced a link id `>= num_links`.
    LinkOutOfRange {
        /// Index of the offending event in the input order.
        index: usize,
        /// The out-of-range link id.
        link: u32,
        /// The network's link count.
        num_links: usize,
    },
    /// An event referenced a box index `>= num_boxes`.
    BoxOutOfRange {
        /// Index of the offending event in the input order.
        index: usize,
        /// The out-of-range box index.
        box_index: usize,
        /// The network's box count.
        num_boxes: usize,
    },
    /// An event referenced a domain index outside the plan's domain table.
    DomainOutOfRange {
        /// Index of the offending event in the input order.
        index: usize,
        /// The out-of-range domain index.
        domain: usize,
        /// Number of domains the plan carries.
        num_domains: usize,
    },
    /// A domain listed a member link id `>= num_links`.
    DomainLinkOutOfRange {
        /// Index of the offending domain.
        domain: usize,
        /// The out-of-range link id.
        link: u32,
        /// The network's link count.
        num_links: usize,
    },
    /// A domain listed a member box index `>= num_boxes`.
    DomainBoxOutOfRange {
        /// Index of the offending domain.
        domain: usize,
        /// The out-of-range box index.
        box_index: usize,
        /// The network's box count.
        num_boxes: usize,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultPlanError::NonFiniteTime { index } => {
                write!(f, "event {index}: time must be finite and non-negative")
            }
            FaultPlanError::LinkOutOfRange {
                index,
                link,
                num_links,
            } => write!(
                f,
                "event {index}: link {link} out of range (network has {num_links} links)"
            ),
            FaultPlanError::BoxOutOfRange {
                index,
                box_index,
                num_boxes,
            } => write!(
                f,
                "event {index}: box {box_index} out of range (network has {num_boxes} boxes)"
            ),
            FaultPlanError::DomainOutOfRange {
                index,
                domain,
                num_domains,
            } => write!(
                f,
                "event {index}: domain {domain} out of range (plan has {num_domains} domains)"
            ),
            FaultPlanError::DomainLinkOutOfRange {
                domain,
                link,
                num_links,
            } => write!(
                f,
                "domain {domain}: member link {link} out of range (network has {num_links} links)"
            ),
            FaultPlanError::DomainBoxOutOfRange {
                domain,
                box_index,
                num_boxes,
            } => write!(
                f,
                "domain {domain}: member box {box_index} out of range (network has {num_boxes} boxes)"
            ),
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// Parameters of the renewal fail/repair process a plan is drawn from.
///
/// Each link (and each box) independently alternates between an
/// exponentially distributed up-time with the given failure rate and, when
/// `mean_repair > 0`, an exponentially distributed down-time with mean
/// `mean_repair`. With `mean_repair <= 0` every failure is permanent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlanConfig {
    /// Failures per unit time, per link.
    pub link_failure_rate: f64,
    /// Failures per unit time, per switchbox.
    pub box_failure_rate: f64,
    /// Mean time-to-repair; `<= 0` makes faults permanent.
    pub mean_repair: f64,
    /// Events are only generated strictly before this time.
    pub horizon: f64,
}

impl FaultPlanConfig {
    /// A link-only plan configuration with repairs.
    pub fn links(rate: f64, mean_repair: f64, horizon: f64) -> Self {
        FaultPlanConfig {
            link_failure_rate: rate,
            box_failure_rate: 0.0,
            mean_repair,
            horizon,
        }
    }
}

/// A time-sorted schedule of [`FaultEvent`]s, with an optional table of
/// correlated [`FaultDomain`]s that `Domain` events index into.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    domains: Vec<FaultDomain>,
}

/// Exponential draw; matches the inverse-CDF convention used by
/// `rsin-sim`'s workload generator (separate stream, identical math).
fn exp_sample<R: RngCore>(rng: &mut R, rate: f64) -> f64 {
    let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    -u.ln() / rate
}

impl FaultPlan {
    /// An empty plan (the fault-free baseline).
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// Stable time-sort; same-time events keep their given order. Callers
    /// must have validated the events (internal constructor).
    fn sorted(mut events: Vec<FaultEvent>, domains: Vec<FaultDomain>) -> Self {
        events.sort_by(|a, b| a.time.total_cmp(&b.time));
        FaultPlan { events, domains }
    }

    /// Build a plan from explicit events, validated against `net`: event
    /// times must be finite and non-negative, and every link/box id must be
    /// in range — a bad id is a typed error here instead of an index panic
    /// deep inside [`FaultPlan::apply_until`]. Events are stably sorted by
    /// time, so same-time events keep their given order.
    pub fn from_events(net: &Network, events: Vec<FaultEvent>) -> Result<Self, FaultPlanError> {
        FaultPlan::with_domains(net, Vec::new(), events)
    }

    /// Like [`FaultPlan::from_events`], but carrying a correlated-domain
    /// table. Domain members are range-checked too, and `Domain` events must
    /// index into the table.
    pub fn with_domains(
        net: &Network,
        domains: Vec<FaultDomain>,
        events: Vec<FaultEvent>,
    ) -> Result<Self, FaultPlanError> {
        for (d, dom) in domains.iter().enumerate() {
            for &l in &dom.links {
                if l.index() >= net.num_links() {
                    return Err(FaultPlanError::DomainLinkOutOfRange {
                        domain: d,
                        link: l.0,
                        num_links: net.num_links(),
                    });
                }
            }
            for &b in &dom.boxes {
                if b >= net.num_boxes() {
                    return Err(FaultPlanError::DomainBoxOutOfRange {
                        domain: d,
                        box_index: b,
                        num_boxes: net.num_boxes(),
                    });
                }
            }
        }
        for (index, e) in events.iter().enumerate() {
            if !e.time.is_finite() || e.time < 0.0 {
                return Err(FaultPlanError::NonFiniteTime { index });
            }
            match e.target {
                FaultTarget::Link(l) => {
                    if l.index() >= net.num_links() {
                        return Err(FaultPlanError::LinkOutOfRange {
                            index,
                            link: l.0,
                            num_links: net.num_links(),
                        });
                    }
                }
                FaultTarget::Box(b) | FaultTarget::ByzantineBox(b) => {
                    if b >= net.num_boxes() {
                        return Err(FaultPlanError::BoxOutOfRange {
                            index,
                            box_index: b,
                            num_boxes: net.num_boxes(),
                        });
                    }
                }
                FaultTarget::Domain(d) => {
                    if d >= domains.len() {
                        return Err(FaultPlanError::DomainOutOfRange {
                            index,
                            domain: d,
                            num_domains: domains.len(),
                        });
                    }
                }
            }
        }
        Ok(FaultPlan::sorted(events, domains))
    }

    /// Draw a plan for `net` from the renewal process described by `cfg`.
    ///
    /// Deterministic: the same `(net, cfg, seed)` triple always yields the
    /// same plan. Components are visited in a fixed order (links by id,
    /// then boxes by index), each consuming draws from one shared
    /// seed-derived stream.
    pub fn generate(net: &Network, cfg: &FaultPlanConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        for l in 0..net.num_links() as u32 {
            renewal(
                &mut rng,
                FaultTarget::Link(LinkId(l)),
                cfg.link_failure_rate,
                cfg,
                &mut events,
            );
        }
        for b in 0..net.num_boxes() {
            renewal(
                &mut rng,
                FaultTarget::Box(b),
                cfg.box_failure_rate,
                cfg,
                &mut events,
            );
        }
        FaultPlan::sorted(events, Vec::new())
    }

    /// Draw a correlated plan: the network suffers outage *events* at the
    /// same aggregate rate as under [`FaultPlan::generate`] with the same
    /// config — `link_failure_rate × num_links` — but each event takes out
    /// a whole power domain instead of a single link. The aggregate hazard
    /// is spread uniformly: every domain runs its own renewal process at
    /// `rate × num_links / num_domains`. Comparing topologies at one rate
    /// therefore compares *blast-radius masking*, not event frequency: a
    /// network with more hardware draws proportionally more events, and a
    /// network whose domains are survivable sheds less per event. Domains
    /// are visited in table order on one seed-derived stream.
    pub fn generate_correlated(
        net: &Network,
        domains: Vec<FaultDomain>,
        cfg: &FaultPlanConfig,
        seed: u64,
    ) -> Result<Self, FaultPlanError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        let per_domain = if domains.is_empty() {
            0.0
        } else {
            cfg.link_failure_rate * net.num_links() as f64 / domains.len() as f64
        };
        for d in 0..domains.len() {
            renewal(
                &mut rng,
                FaultTarget::Domain(d),
                per_domain,
                cfg,
                &mut events,
            );
        }
        FaultPlan::with_domains(net, domains, events)
    }

    /// Draw a Byzantine plan: every switchbox with at least two wired
    /// outputs (a box with one output has no wrong output to take) runs a
    /// renewal process at `cfg.box_failure_rate`, toggling
    /// [`FaultTarget::ByzantineBox`] — lying, not dying. Link rates are
    /// ignored: a Byzantine plan keeps every link available.
    pub fn generate_byzantine(net: &Network, cfg: &FaultPlanConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        for b in 0..net.num_boxes() {
            if net.box_outputs(b).iter().flatten().count() < 2 {
                continue;
            }
            renewal(
                &mut rng,
                FaultTarget::ByzantineBox(b),
                cfg.box_failure_rate,
                cfg,
                &mut events,
            );
        }
        FaultPlan::sorted(events, Vec::new())
    }

    /// The events, sorted by time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The correlated-domain table that `Domain` events index into.
    pub fn domains(&self) -> &[FaultDomain] {
        &self.domains
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of `Fail` events.
    pub fn failure_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.action == FaultAction::Fail)
            .count()
    }

    /// Whether any event toggles a [`FaultTarget::ByzantineBox`].
    pub fn has_byzantine(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e.target, FaultTarget::ByzantineBox(_)))
    }

    /// Apply the event at `index` to a circuit state. Fail-stop semantics:
    /// live circuits are untouched; only future allocations see the change.
    /// `Domain` targets expand through the plan's domain table: every
    /// member link fails/repairs, then every member box.
    pub fn apply_event(&self, index: usize, cs: &mut CircuitState<'_>) {
        let e = &self.events[index];
        match (e.target, e.action) {
            (FaultTarget::Link(l), FaultAction::Fail) => cs.fail_link(l),
            (FaultTarget::Link(l), FaultAction::Repair) => cs.repair_link(l),
            (FaultTarget::Box(b), FaultAction::Fail) => cs.fail_box(b),
            (FaultTarget::Box(b), FaultAction::Repair) => cs.repair_box(b),
            (FaultTarget::ByzantineBox(b), FaultAction::Fail) => cs.set_byzantine_box(b, true),
            (FaultTarget::ByzantineBox(b), FaultAction::Repair) => cs.set_byzantine_box(b, false),
            (FaultTarget::Domain(d), FaultAction::Fail) => {
                let dom = &self.domains[d];
                for &l in &dom.links {
                    cs.fail_link(l);
                }
                for &b in &dom.boxes {
                    cs.fail_box(b);
                }
            }
            (FaultTarget::Domain(d), FaultAction::Repair) => {
                let dom = &self.domains[d];
                for &l in &dom.links {
                    cs.repair_link(l);
                }
                for &b in &dom.boxes {
                    cs.repair_box(b);
                }
            }
        }
    }

    /// The plan with every `Domain` event expanded into its member
    /// link/box toggles (same time, links then boxes, stable order). The
    /// result has an empty domain table and is event-for-event equivalent
    /// under [`FaultPlan::apply_until`].
    pub fn expanded(&self) -> FaultPlan {
        let mut events = Vec::new();
        for e in &self.events {
            match e.target {
                FaultTarget::Domain(d) => {
                    let dom = &self.domains[d];
                    for &l in &dom.links {
                        events.push(FaultEvent {
                            time: e.time,
                            target: FaultTarget::Link(l),
                            action: e.action,
                        });
                    }
                    for &b in &dom.boxes {
                        events.push(FaultEvent {
                            time: e.time,
                            target: FaultTarget::Box(b),
                            action: e.action,
                        });
                    }
                }
                _ => events.push(*e),
            }
        }
        FaultPlan::sorted(events, Vec::new())
    }

    /// Apply every event with `time < until` to `cs`, in order. Returns how
    /// many events were applied. Useful for static snapshots ("the network
    /// after its first k faults").
    pub fn apply_until(&self, until: f64, cs: &mut CircuitState<'_>) -> usize {
        let mut n = 0;
        for (i, e) in self.events.iter().enumerate() {
            if e.time >= until {
                break;
            }
            self.apply_event(i, cs);
            n += 1;
        }
        n
    }
}

/// One component's alternating up/down renewal walk over `[0, horizon)`.
fn renewal<R: RngCore>(
    rng: &mut R,
    target: FaultTarget,
    rate: f64,
    cfg: &FaultPlanConfig,
    events: &mut Vec<FaultEvent>,
) {
    if rate <= 0.0 {
        return;
    }
    let mut t = 0.0;
    loop {
        t += exp_sample(rng, rate);
        if t >= cfg.horizon {
            return;
        }
        events.push(FaultEvent {
            time: t,
            target,
            action: FaultAction::Fail,
        });
        if cfg.mean_repair <= 0.0 {
            return; // permanent fault
        }
        t += exp_sample(rng, 1.0 / cfg.mean_repair);
        if t >= cfg.horizon {
            return; // still down at the horizon
        }
        events.push(FaultEvent {
            time: t,
            target,
            action: FaultAction::Repair,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::omega;

    fn cfg(rate: f64, repair: f64) -> FaultPlanConfig {
        FaultPlanConfig {
            link_failure_rate: rate,
            box_failure_rate: 0.0,
            mean_repair: repair,
            horizon: 100.0,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let net = omega(8).unwrap();
        let a = FaultPlan::generate(&net, &cfg(0.01, 5.0), 42);
        let b = FaultPlan::generate(&net, &cfg(0.01, 5.0), 42);
        assert_eq!(a, b);
        let c = FaultPlan::generate(&net, &cfg(0.01, 5.0), 43);
        assert_ne!(a, c, "different seeds should give different plans");
        assert!(!a.is_empty(), "rate 0.01 over 100t on 48 links → events");
    }

    #[test]
    fn events_are_time_sorted_and_alternate_per_target() {
        let net = omega(8).unwrap();
        let plan = FaultPlan::generate(&net, &cfg(0.02, 3.0), 7);
        for w in plan.events().windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        // Per link, the sequence must strictly alternate Fail, Repair, ...
        for l in 0..net.num_links() as u32 {
            let mine: Vec<_> = plan
                .events()
                .iter()
                .filter(|e| e.target == FaultTarget::Link(LinkId(l)))
                .collect();
            for (i, e) in mine.iter().enumerate() {
                let want = if i % 2 == 0 {
                    FaultAction::Fail
                } else {
                    FaultAction::Repair
                };
                assert_eq!(e.action, want);
            }
        }
    }

    #[test]
    fn permanent_faults_have_no_repairs() {
        let net = omega(8).unwrap();
        let plan = FaultPlan::generate(&net, &cfg(0.05, 0.0), 9);
        assert!(plan.events().iter().all(|e| e.action == FaultAction::Fail));
        // At most one failure per link when faults are permanent.
        assert!(plan.failure_count() <= net.num_links());
    }

    #[test]
    fn apply_until_replays_prefix() {
        let net = omega(8).unwrap();
        let plan = FaultPlan::generate(&net, &cfg(0.05, 0.0), 11);
        assert!(plan.len() >= 2, "expected a few permanent faults");
        let mid = plan.events()[plan.len() / 2].time;
        let mut cs = CircuitState::new(&net);
        let applied = plan.apply_until(mid, &mut cs);
        assert!(applied > 0 && applied < plan.len());
        assert_eq!(cs.faulty_count(), applied);
        // Full replay then repair-all via explicit events restores health.
        let mut cs = CircuitState::new(&net);
        plan.apply_until(f64::INFINITY, &mut cs);
        assert_eq!(cs.faulty_count(), plan.len());
        let repairs = plan
            .events()
            .iter()
            .map(|e| FaultEvent {
                action: FaultAction::Repair,
                ..*e
            })
            .collect();
        let repairs = FaultPlan::from_events(&net, repairs).unwrap();
        assert_eq!(repairs.apply_until(f64::INFINITY, &mut cs), plan.len());
        assert_eq!(cs.faulty_count(), 0);
    }

    #[test]
    fn apply_until_idempotent_at_repeated_horizons() {
        // Replaying the same prefix — once more on the same state, or on a
        // fresh state — always lands on the same fault set: fail/repair are
        // idempotent set operations and the prefix is a fixed event list.
        let net = omega(8).unwrap();
        let plan = FaultPlan::generate(&net, &cfg(0.03, 4.0), 21);
        assert!(plan.len() >= 4, "want a mix of failures and repairs");
        let mut last_applied = 0;
        for horizon in [0.0, 25.0, 50.0, 100.0, f64::INFINITY] {
            let mut cs = CircuitState::new(&net);
            let applied = plan.apply_until(horizon, &mut cs);
            assert!(applied >= last_applied, "prefix grows with the horizon");
            last_applied = applied;
            let faulty: Vec<bool> = (0..net.num_links() as u32)
                .map(|l| !cs.is_free(LinkId(l)))
                .collect();
            // Same horizon again, same state: nothing changes.
            assert_eq!(plan.apply_until(horizon, &mut cs), applied);
            let replayed: Vec<bool> = (0..net.num_links() as u32)
                .map(|l| !cs.is_free(LinkId(l)))
                .collect();
            assert_eq!(faulty, replayed, "horizon {horizon}");
            // Same horizon on a fresh state: identical fault set.
            let mut fresh = CircuitState::new(&net);
            assert_eq!(plan.apply_until(horizon, &mut fresh), applied);
            let fresh_faulty: Vec<bool> = (0..net.num_links() as u32)
                .map(|l| !fresh.is_free(LinkId(l)))
                .collect();
            assert_eq!(faulty, fresh_faulty, "horizon {horizon}");
        }
        assert_eq!(last_applied, plan.len(), "infinite horizon replays all");
    }

    #[test]
    fn from_events_sorts_by_time_and_keeps_tie_order() {
        let net = omega(8).unwrap();
        let l = |i: u32| FaultTarget::Link(LinkId(i));
        let ev = |time, target, action| FaultEvent {
            time,
            target,
            action,
        };
        let plan = FaultPlan::from_events(
            &net,
            vec![
                ev(5.0, l(3), FaultAction::Fail),
                ev(1.0, l(0), FaultAction::Fail),
                ev(5.0, l(1), FaultAction::Fail), // same time as l(3): stays after it
                ev(0.0, l(2), FaultAction::Fail),
            ],
        )
        .unwrap();
        let times: Vec<f64> = plan.events().iter().map(|e| e.time).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(plan.events()[0].target, l(2));
        assert_eq!(plan.events()[1].target, l(0));
        // Stable sort: the 5.0 tie keeps insertion order.
        assert_eq!(plan.events()[2].target, l(3));
        assert_eq!(plan.events()[3].target, l(1));
    }

    #[test]
    fn from_events_rejects_non_finite_times() {
        let net = omega(8).unwrap();
        let err = FaultPlan::from_events(
            &net,
            vec![FaultEvent {
                time: f64::NAN,
                target: FaultTarget::Link(LinkId(0)),
                action: FaultAction::Fail,
            }],
        )
        .unwrap_err();
        assert_eq!(err, FaultPlanError::NonFiniteTime { index: 0 });
    }

    #[test]
    fn from_events_rejects_out_of_range_ids() {
        // The satellite fix: a dangling id is a typed error at construction,
        // not an index panic when the plan is later applied.
        let net = omega(8).unwrap(); // 32 links, 12 boxes
        let ev = |target| FaultEvent {
            time: 1.0,
            target,
            action: FaultAction::Fail,
        };
        let err =
            FaultPlan::from_events(&net, vec![ev(FaultTarget::Link(LinkId(32)))]).unwrap_err();
        assert_eq!(
            err,
            FaultPlanError::LinkOutOfRange {
                index: 0,
                link: 32,
                num_links: 32
            }
        );
        let err = FaultPlan::from_events(
            &net,
            vec![ev(FaultTarget::Link(LinkId(0))), ev(FaultTarget::Box(12))],
        )
        .unwrap_err();
        assert_eq!(
            err,
            FaultPlanError::BoxOutOfRange {
                index: 1,
                box_index: 12,
                num_boxes: 12
            }
        );
        let err =
            FaultPlan::from_events(&net, vec![ev(FaultTarget::ByzantineBox(99))]).unwrap_err();
        assert_eq!(
            err,
            FaultPlanError::BoxOutOfRange {
                index: 0,
                box_index: 99,
                num_boxes: 12
            }
        );
        // A Domain event with no domain table is dangling by definition.
        let err = FaultPlan::from_events(&net, vec![ev(FaultTarget::Domain(0))]).unwrap_err();
        assert_eq!(
            err,
            FaultPlanError::DomainOutOfRange {
                index: 0,
                domain: 0,
                num_domains: 0
            }
        );
        assert!(!err.to_string().is_empty(), "errors render a message");
    }

    #[test]
    fn with_domains_rejects_bad_members() {
        let net = omega(8).unwrap();
        let err = FaultPlan::with_domains(
            &net,
            vec![FaultDomain {
                name: "bad".into(),
                links: vec![LinkId(999)],
                boxes: vec![],
            }],
            vec![],
        )
        .unwrap_err();
        assert_eq!(
            err,
            FaultPlanError::DomainLinkOutOfRange {
                domain: 0,
                link: 999,
                num_links: 32
            }
        );
        let err = FaultPlan::with_domains(
            &net,
            vec![FaultDomain {
                name: "bad".into(),
                links: vec![],
                boxes: vec![40],
            }],
            vec![],
        )
        .unwrap_err();
        assert_eq!(
            err,
            FaultPlanError::DomainBoxOutOfRange {
                domain: 0,
                box_index: 40,
                num_boxes: 12
            }
        );
    }

    #[test]
    fn failure_count_consistent_under_interleaved_fail_repair() {
        // One link failing and repairing repeatedly: failure_count counts
        // Fail *events* (3 here), while the applied state at any horizon
        // reflects only the last action before it.
        let net = omega(8).unwrap();
        let target = FaultTarget::Link(LinkId(0));
        let ev = |time, action| FaultEvent {
            time,
            target,
            action,
        };
        let plan = FaultPlan::from_events(
            &net,
            vec![
                ev(1.0, FaultAction::Fail),
                ev(2.0, FaultAction::Repair),
                ev(3.0, FaultAction::Fail),
                ev(4.0, FaultAction::Repair),
                ev(5.0, FaultAction::Fail),
            ],
        )
        .unwrap();
        assert_eq!(plan.failure_count(), 3);
        assert_eq!(plan.len(), 5);
        for (horizon, want_faulty) in [(0.5, 0), (1.5, 1), (2.5, 0), (3.5, 1), (4.5, 0), (5.5, 1)] {
            let mut cs = CircuitState::new(&net);
            plan.apply_until(horizon, &mut cs);
            assert_eq!(cs.faulty_count(), want_faulty, "horizon {horizon}");
        }
        // Event-time boundary is exclusive: `time < until`.
        let mut cs = CircuitState::new(&net);
        assert_eq!(plan.apply_until(1.0, &mut cs), 0);
        assert_eq!(cs.faulty_count(), 0);
    }

    #[test]
    fn box_faults_expand_to_links() {
        let net = omega(8).unwrap();
        let mut cs = CircuitState::new(&net);
        let e = FaultEvent {
            time: 1.0,
            target: FaultTarget::Box(0),
            action: FaultAction::Fail,
        };
        let repair = FaultEvent {
            action: FaultAction::Repair,
            ..e
        };
        let plan = FaultPlan::from_events(&net, vec![e, repair]).unwrap();
        plan.apply_event(0, &mut cs);
        assert!(cs.faulty_count() >= 4, "a 2x2 box touches >= 4 links");
        plan.apply_event(1, &mut cs);
        assert_eq!(cs.faulty_count(), 0);
    }

    #[test]
    fn stage_power_domains_cover_the_interior_fabric() {
        let net = omega(8).unwrap();
        let domains = FaultDomain::stage_power_domains(&net, 2);
        // omega-8: stages 0 and 2 are attachment-wired (processor inputs,
        // resource outputs) and excluded; the middle stage's 4 boxes split
        // into 2 packages of 2.
        assert_eq!(domains.len(), 2);
        let mut covered: Vec<usize> = domains.iter().flat_map(|d| d.boxes.clone()).collect();
        covered.sort_unstable();
        assert_eq!(covered, vec![4, 5, 6, 7]);
        for d in &domains {
            assert!(d.link_weight(&net) >= 8, "2 boxes × 4 links, disjoint");
        }
        // 3dp-omega-8: entry/exit taps fail the 2×2 filter and every plane
        // box is interior, so all 3 plane stages × 3 planes × 4 boxes are
        // covered in 2-box packages that never straddle a plane.
        let tdp = crate::builders::omega_3dp(8).unwrap();
        let domains = FaultDomain::stage_power_domains(&tdp, 2);
        assert_eq!(domains.len(), 18);
        let plane_of = |b: usize| (b - 8) / 4 % 3;
        for d in &domains {
            assert_eq!(d.boxes.len(), 2);
            assert_eq!(plane_of(d.boxes[0]), plane_of(d.boxes[1]), "{:?}", d.boxes);
        }
    }

    #[test]
    fn domain_events_apply_and_expand_equivalently() {
        let net = omega(8).unwrap();
        let domains = FaultDomain::stage_power_domains(&net, 2);
        let ev = |time, domain, action| FaultEvent {
            time,
            target: FaultTarget::Domain(domain),
            action,
        };
        let plan = FaultPlan::with_domains(
            &net,
            domains.clone(),
            vec![
                ev(1.0, 0, FaultAction::Fail),
                ev(2.0, 1, FaultAction::Fail),
                ev(3.0, 0, FaultAction::Repair),
            ],
        )
        .unwrap();
        // One domain event fails every link touching its member boxes.
        let mut cs = CircuitState::new(&net);
        plan.apply_event(0, &mut cs);
        assert_eq!(cs.faulty_count(), domains[0].link_weight(&net));
        // The expanded plan replays to the identical fault set at any time.
        let expanded = plan.expanded();
        assert!(expanded.domains().is_empty());
        for horizon in [0.5, 1.5, 2.5, 3.5] {
            let mut a = CircuitState::new(&net);
            let mut b = CircuitState::new(&net);
            plan.apply_until(horizon, &mut a);
            expanded.apply_until(horizon, &mut b);
            let fa: Vec<bool> = (0..net.num_links() as u32)
                .map(|l| a.is_faulty(LinkId(l)))
                .collect();
            let fb: Vec<bool> = (0..net.num_links() as u32)
                .map(|l| b.is_faulty(LinkId(l)))
                .collect();
            assert_eq!(fa, fb, "horizon {horizon}");
        }
    }

    #[test]
    fn generate_correlated_is_deterministic_and_alternates() {
        let net = omega(8).unwrap();
        let domains = FaultDomain::stage_power_domains(&net, 2);
        let c = FaultPlanConfig::links(0.05, 10.0, 100.0);
        let a = FaultPlan::generate_correlated(&net, domains.clone(), &c, 5).unwrap();
        let b = FaultPlan::generate_correlated(&net, domains.clone(), &c, 5).unwrap();
        assert_eq!(a, b);
        // Aggregate calibration: 0.05 × 32 links spread over 2 domains is a
        // per-domain hazard of 0.8 — dozens of events inside 100t.
        assert!(!a.is_empty(), "per-domain hazard 0.8 × 100t → many events");
        for d in 0..domains.len() {
            let mine: Vec<_> = a
                .events()
                .iter()
                .filter(|e| e.target == FaultTarget::Domain(d))
                .collect();
            for (i, e) in mine.iter().enumerate() {
                let want = if i % 2 == 0 {
                    FaultAction::Fail
                } else {
                    FaultAction::Repair
                };
                assert_eq!(e.action, want);
            }
        }
    }

    #[test]
    fn generate_byzantine_toggles_lying_not_links() {
        let net = omega(8).unwrap();
        let c = FaultPlanConfig {
            link_failure_rate: 0.0,
            box_failure_rate: 0.01,
            mean_repair: 10.0,
            horizon: 100.0,
        };
        let plan = FaultPlan::generate_byzantine(&net, &c, 3);
        assert!(plan.has_byzantine());
        assert!(plan
            .events()
            .iter()
            .all(|e| matches!(e.target, FaultTarget::ByzantineBox(_))));
        let mut cs = CircuitState::new(&net);
        plan.apply_until(f64::INFINITY, &mut cs);
        // Lying boxes never take links down.
        assert_eq!(cs.faulty_count(), 0);
        assert!(
            cs.byzantine_count() > 0 || plan.failure_count() == plan.len() - plan.failure_count()
        );
        // Replaying fail+repair pairs nets out; apply a single Fail directly.
        let mut cs = CircuitState::new(&net);
        plan.apply_event(0, &mut cs);
        assert_eq!(cs.byzantine_count(), 1);
        assert_eq!(cs.faulty_count(), 0);
    }
}
