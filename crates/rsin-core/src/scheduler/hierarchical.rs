//! Hierarchical two-stage scheduling over a sharded MRSIN-of-MRSINs.
//!
//! A [`ShardedNetwork`] is too large for one Theorem-2 solve per cycle at
//! production scale, and it does not need one: intra-shard traffic dominates
//! by construction. [`HierarchicalScheduler`] therefore places every request
//! in **two stages**:
//!
//! 1. **Inter-shard stage** — requests are bucketed by home shard; each
//!    shard keeps as many as its free capacity covers, and the surplus is
//!    routed to other shards over the *global* network. The target shard is
//!    chosen by an [`InterShardPolicy`] — a rotating token over the shard
//!    ring or a min-cost pick over the global circuit graph — from aggregate
//!    free capacity, and an actual global circuit is reserved per remote
//!    placement, so the stage never over-commits a shard's uplinks.
//! 2. **Per-shard solve** — each shard solves an ordinary homogeneous
//!    [`ScheduleProblem`] on the *local prototype* network with the paper's
//!    Transformation-1 max-flow scheduler (Theorem 2), reusing one
//!    [`ScheduleScratch`] per shard so the transformation graph is built
//!    exactly once per shard for the scheduler's lifetime
//!    ([`HierarchicalScheduler::rebuilds_per_shard`] stays all-ones).
//!
//! The per-shard solves are independent: [`HierarchicalScheduler::place`]
//! partitions, [`HierarchicalScheduler::solve_shard`] runs one shard, and
//! [`HierarchicalScheduler::reduce`] merges outcomes **in sequential shard
//! order**; a caller that drives the stages itself may solve the shards in
//! any order, or from several threads (each shard's scratch sits behind its
//! own mutex), and reduces to the same outcome.
//! [`HierarchicalScheduler::schedule`] solves the shards in order on the
//! calling thread and skips the per-shard outcomes: Theorem 2 turns each
//! unit of flow into one processor→resource path, but a
//! [`GlobalAssignment`] needs only the path's two ends, so each shard's
//! decomposition writes its allocations straight into the merged outcome
//! in global numbering, the request's origin read from a table indexed by
//! local port. Both run one step per shard (configure → Dinic →
//! decomposition through the flow schedulers' shared solve), so they agree
//! exactly, telemetry counters included; `solve_shard` additionally keeps each
//! circuit's local path, which the merge drops.
//!
//! Every step reuses per-scheduler buffers: stage 1 keeps its buckets, port
//! table, global circuit state, free-link BFS (`RemoteSearch`) and the
//! [`Placement`] itself across cycles, each shard keeps its problem's
//! request and free lists, and every shard solves on one shared all-free
//! local circuit state, so a warm `schedule` cycle allocates only the
//! outcome it returns (DESIGN.md §12.6).
//!
//! ## Conformance
//!
//! Hierarchical placement is deliberately conservative: every allocation it
//! makes is simultaneously realizable on the flat composed network (home
//! allocations replay the local-fabric path; remote allocations take the
//! reserved splitter→uplink→global→downlink→merger path), so its allocation
//! count never exceeds the flat Theorem-2 fresh solve. The property suite
//! additionally pins it to a configurable fraction of the flat optimum from
//! below.

use super::cycle::{self, Graph, Shape};
use super::{check_ids, ScheduleError, ScheduleScratch};
use crate::mapping::Circuit;
use crate::model::{FreeResource, ScheduleOutcome, ScheduleProblem, ScheduleRequest};
use rsin_flow::max_flow::Algorithm;
use rsin_obs::{Counter, Hist, NoopProbe, Probe, Telemetry, TelemetryReport};
use rsin_topology::{CircuitState, LinkId, PathSearch, ShardedNetwork};
use std::sync::Mutex;

/// How the inter-shard stage picks a target shard for a surplus request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterShardPolicy {
    /// Rotate over the shard ring starting after the home shard and take
    /// the first shard with spare capacity and a routable global circuit —
    /// the token-engine discipline: O(S) per placement, naturally spreads
    /// overflow.
    TokenRing,
    /// Among shards with spare capacity, take the one reachable by the
    /// shortest free path over the global circuit graph (ties broken by
    /// lowest shard index) — fewer global links per remote circuit, at the
    /// price of scanning every candidate shard.
    MinCost,
}

impl InterShardPolicy {
    /// Stable lowercase name (used in CLI flags and report rows).
    pub const fn name(self) -> &'static str {
        match self {
            InterShardPolicy::TokenRing => "token",
            InterShardPolicy::MinCost => "mincost",
        }
    }
}

/// One shard's slice of a [`Placement`]: the requests it will solve (as
/// `(local_port, origin)` pairs — the local port the solve runs on, and the
/// *global* port of the request's true origin) plus its free resources as
/// local ports. For a home request `local_port` is the origin's own local
/// port; for a borrowed (remote) request it is an idle local port standing
/// in for the cross-shard entry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardPlan {
    /// Requests assigned to this shard, sorted by local port.
    pub requests: Vec<(usize, usize)>,
    /// Free resources of this shard, as local ports, ascending.
    pub free: Vec<usize>,
}

/// Output of the inter-shard stage: one [`ShardPlan`] per shard plus the
/// stage-1 accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Per-shard plans, indexed by shard.
    pub shards: Vec<ShardPlan>,
    /// Surplus requests no shard could take (no spare capacity anywhere, or
    /// every capable shard unreachable over the global network).
    pub stage1_blocked: usize,
    /// Surplus requests placed on a non-home shard (each holds a reserved
    /// global circuit).
    pub remote_placed: usize,
}

/// One allocation of a hierarchical cycle, in global port numbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalAssignment {
    /// Requesting processor (global port of the true origin).
    pub processor: usize,
    /// Allocated resource (global port).
    pub resource: usize,
    /// True when the resource lives on a different shard than the
    /// processor (the allocation crosses the global network).
    pub remote: bool,
}

/// Merged outcome of one hierarchical scheduling cycle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HierarchicalOutcome {
    /// Allocations in global numbering, in shard order then local solve
    /// order — deterministic for fixed inputs at any thread count.
    pub assignments: Vec<GlobalAssignment>,
    /// Requests left unallocated: stage-1 blocked plus per-shard solve
    /// blocked.
    pub blocked: usize,
    /// Requests placed (not necessarily allocated) on a non-home shard.
    pub remote_placed: usize,
    /// Requests the inter-shard stage could not place anywhere.
    pub stage1_blocked: usize,
}

impl HierarchicalOutcome {
    /// Number of resources allocated.
    pub fn allocated(&self) -> usize {
        self.assignments.len()
    }
}

/// Per-shard telemetry breakdown of an observed [`HierarchicalScheduler`]
/// (see [`HierarchicalScheduler::shard_report`]): one [`TelemetryReport`]
/// per shard, their exact merge, and the shard-occupancy imbalance.
#[derive(Debug, Clone)]
pub struct ShardBreakdown {
    /// One report per shard, indexed by shard.
    pub per_shard: Vec<TelemetryReport>,
    /// Exact fold of every per-shard report, in shard order
    /// ([`TelemetryReport::merge`]).
    pub merged: TelemetryReport,
    /// Occupancy imbalance across shards: `(max - min) / mean` of the
    /// per-shard [`Counter::ShardAllocated`] totals. 0 when allocations are
    /// spread evenly (or nothing has been allocated at all); grows as hot
    /// shards pull ahead of cold ones.
    pub imbalance: f64,
}

impl ShardBreakdown {
    /// Shorthand for one shard's value of one counter.
    pub fn counter(&self, shard: usize, c: Counter) -> u64 {
        self.per_shard[shard].counters[c.index()]
    }

    /// Encode the breakdown as JSON: the summary triple (shards, imbalance,
    /// cross-shard intake totals) plus one full [`TelemetryReport`] per
    /// shard and the merged report, all via the reports' own encoder.
    pub fn to_json(&self, source: &str) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("\"source\": \"{source}\",\n"));
        s.push_str(&format!("\"shards\": {},\n", self.per_shard.len()));
        s.push_str(&format!("\"imbalance\": {:.6},\n", self.imbalance));
        s.push_str("\"per_shard\": [\n");
        for (i, r) in self.per_shard.iter().enumerate() {
            s.push_str(&r.to_json(&format!("{source}/shard{i}")));
            s.push_str(if i + 1 < self.per_shard.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("],\n\"merged\": ");
        s.push_str(&self.merged.to_json(&format!("{source}/merged")));
        s.push_str("}\n");
        s
    }
}

/// Reusable buffers for [`RemoteSearch::pick_target`]: the free-link BFS,
/// the target's downlink slots and the best path so far.
#[derive(Debug, Default)]
struct RemoteSearch {
    bfs: PathSearch,
    down: Vec<usize>,
    best: Vec<LinkId>,
}

impl RemoteSearch {
    /// Pick a target shard for one surplus request of shard `home`: not
    /// `home`, `viable` (spare capacity, in the caller's terms), and
    /// routable over free `global` links from `home`'s uplink slots, in
    /// order, to any of its downlink slots. Returns the shard and the path
    /// to reserve. [`InterShardPolicy::TokenRing`] takes the first such
    /// shard on the ring after `home`, [`InterShardPolicy::MinCost`] the
    /// shortest path (lowest shard on ties).
    fn pick_target(
        &mut self,
        net: &ShardedNetwork,
        policy: InterShardPolicy,
        home: usize,
        global: &CircuitState<'_>,
        viable: impl Fn(usize) -> bool,
    ) -> Option<(usize, &[LinkId])> {
        let s_count = net.shards();
        match policy {
            InterShardPolicy::TokenRing => {
                let t = (1..s_count)
                    .map(|d| (home + d) % s_count)
                    .find(|&t| viable(t) && self.route(net, home, t, global).is_some())?;
                Some((t, self.bfs.path()))
            }
            InterShardPolicy::MinCost => {
                let mut pick = None;
                for t in (0..s_count).filter(|&t| t != home && viable(t)) {
                    match self.route(net, home, t, global) {
                        Some(len) if pick.is_none() || len < self.best.len() => {
                            self.best.clear();
                            self.best.extend_from_slice(self.bfs.path());
                            pick = Some(t);
                        }
                        _ => {}
                    }
                }
                pick.map(|t| (t, self.best.as_slice()))
            }
        }
    }

    /// Length of the route `home → t`; the path is left in `self.bfs`.
    fn route(
        &mut self,
        net: &ShardedNetwork,
        home: usize,
        t: usize,
        global: &CircuitState<'_>,
    ) -> Option<usize> {
        self.down.clear();
        self.down.extend(net.uplink_slots(t));
        net.uplink_slots(home).find_map(|up| {
            global
                .find_path_to_any_in(up, &self.down, &mut self.bfs)
                .map(|(_, path)| path.len())
        })
    }
}

/// Stage-1 buffers of a [`HierarchicalScheduler`], reset and reused by
/// every [`place`](HierarchicalScheduler::place).
#[derive(Debug)]
struct PlaceScratch<'n> {
    /// Per shard: the local ports of its requests.
    reqs: Vec<Vec<usize>>,
    /// Flat `shards × local_ports`: `used[t * n + port]` marks a local port
    /// already standing in for a request (home or borrowed), so borrows
    /// never collide.
    used: Vec<bool>,
    /// `(origin global port, home shard)` of every request its home could
    /// not keep.
    surplus: Vec<(usize, usize)>,
    /// Per shard: free capacity not yet claimed by a request.
    spare: Vec<usize>,
    /// The global circuits reserved this cycle.
    global: CircuitState<'n>,
    search: RemoteSearch,
    /// The placement the last cycle wrote, its plans' lists reused.
    placement: Placement,
}

impl<'n> PlaceScratch<'n> {
    fn new(net: &'n ShardedNetwork) -> Self {
        PlaceScratch {
            reqs: vec![Vec::new(); net.shards()],
            used: vec![false; net.shards() * net.spec().local_ports],
            surplus: Vec::new(),
            spare: Vec::new(),
            global: CircuitState::new(net.global()),
            search: RemoteSearch::default(),
            placement: Placement {
                shards: vec![ShardPlan::default(); net.shards()],
                stage1_blocked: 0,
                remote_placed: 0,
            },
        }
    }
}

/// Marks a local port with no request planned on it in
/// [`ShardSolver::origin`].
const UNPLANNED: usize = usize::MAX;

/// One shard's stage-2 state, reused by every solve of that shard.
#[derive(Debug)]
struct ShardSolver {
    /// The shard's reusable transformation graph and solver buffers.
    scratch: ScheduleScratch,
    /// The solve's request list, refilled from the plan each cycle.
    requests: Vec<ScheduleRequest>,
    /// The solve's free list, refilled from the plan each cycle.
    free: Vec<FreeResource>,
    /// Per local port: the global origin of the request planned on it,
    /// [`UNPLANNED`] elsewhere (reset after every solve).
    origin: Vec<usize>,
}

impl ShardSolver {
    fn new(local_ports: usize) -> Self {
        ShardSolver {
            scratch: ScheduleScratch::new(),
            requests: Vec::new(),
            free: Vec::new(),
            origin: vec![UNPLANNED; local_ports],
        }
    }
}

/// Two-stage scheduler over a [`ShardedNetwork`]: inter-shard placement
/// followed by independent per-shard Theorem-2 solves.
///
/// Holds one [`ScheduleScratch`] per shard, with the shard's problem
/// buffers, behind a mutex, so [`solve_shard`](Self::solve_shard) takes
/// `&self` and may be called for distinct shards from several threads,
/// while every shard still reuses its own transformation graph (exactly one
/// build per shard, ever). Stage 1's buffers sit behind one more mutex, so
/// [`place`](Self::place) takes `&self` too; [`schedule`](Self::schedule)
/// holds that one for its whole cycle, since it reads the placement where
/// stage 1 wrote it.
#[derive(Debug)]
pub struct HierarchicalScheduler<'n> {
    net: &'n ShardedNetwork,
    policy: InterShardPolicy,
    solvers: Vec<Mutex<ShardSolver>>,
    /// The all-free local prototype every shard solves on: shards hold no
    /// circuits between cycles.
    local: CircuitState<'n>,
    place_scratch: Mutex<PlaceScratch<'n>>,
    /// Optional per-shard telemetry sinks (one [`Telemetry`] per shard,
    /// index-aligned with `solvers`). `None` keeps scheduling on the
    /// unobserved path; see [`HierarchicalScheduler::observed`].
    sinks: Option<Vec<Telemetry>>,
}

impl<'n> HierarchicalScheduler<'n> {
    /// Scheduler over `net` with the given inter-shard policy. Per-shard
    /// scratches start empty; each is built on its shard's first solve.
    pub fn new(net: &'n ShardedNetwork, policy: InterShardPolicy) -> Self {
        HierarchicalScheduler {
            net,
            policy,
            solvers: (0..net.shards())
                .map(|_| Mutex::new(ShardSolver::new(net.spec().local_ports)))
                .collect(),
            local: CircuitState::new(net.local()),
            place_scratch: Mutex::new(PlaceScratch::new(net)),
            sinks: None,
        }
    }

    /// [`new`](Self::new) with one [`Telemetry`] sink per shard: stage-1
    /// placement ticks each shard's intake counters
    /// ([`Counter::ShardHomePlaced`] / [`Counter::ShardRemoteIn`]), every
    /// per-shard solve runs observed (cycle/solve latency histograms,
    /// per-solver operation counts) and ticks
    /// [`Counter::ShardAllocated`]. Sinks only record — scheduling results
    /// are bit-identical to the unobserved scheduler.
    pub fn observed(net: &'n ShardedNetwork, policy: InterShardPolicy) -> Self {
        let mut h = Self::new(net, policy);
        h.sinks = Some((0..net.shards()).map(|_| Telemetry::new()).collect());
        h
    }

    /// The sharded network this scheduler places onto.
    pub fn network(&self) -> &'n ShardedNetwork {
        self.net
    }

    /// The inter-shard policy.
    pub fn policy(&self) -> InterShardPolicy {
        self.policy
    }

    /// Number of shards (= number of independent per-shard solvers).
    pub fn shards(&self) -> usize {
        self.solvers.len()
    }

    /// Report name, e.g. `hier-token/sharded-4xomega-16-crossbar`.
    pub fn name(&self) -> String {
        format!("hier-{}/{}", self.policy.name(), self.net.name())
    }

    /// Per-shard telemetry breakdown, or `None` for a scheduler built
    /// without sinks ([`new`](Self::new)). Snapshots every shard's sink in
    /// shard order, folds them with [`TelemetryReport::merge`] (exact — the
    /// merged counters and solver totals are independent of the order or
    /// threads the solves ran on), and computes the occupancy imbalance from the
    /// per-shard [`Counter::ShardAllocated`] totals.
    pub fn shard_report(&self) -> Option<ShardBreakdown> {
        let sinks = self.sinks.as_ref()?;
        let per_shard: Vec<TelemetryReport> = sinks.iter().map(|t| t.report()).collect();
        let mut merged = per_shard[0].clone();
        for r in &per_shard[1..] {
            merged.merge(r);
        }
        let occ: Vec<u64> = per_shard
            .iter()
            .map(|r| r.counters[Counter::ShardAllocated.index()])
            .collect();
        let (min, max) = (occ.iter().min().copied(), occ.iter().max().copied());
        let total: u64 = occ.iter().sum();
        let imbalance = if total == 0 {
            0.0
        } else {
            let mean = total as f64 / occ.len() as f64;
            (max.unwrap_or(0) - min.unwrap_or(0)) as f64 / mean
        };
        Some(ShardBreakdown {
            per_shard,
            merged,
            imbalance,
        })
    }

    /// Transformation-graph build count per shard. Every shard that has
    /// solved at least once reports exactly 1 for the scheduler's lifetime
    /// — per-shard solves reconfigure by capacity patching, never rebuild.
    pub fn rebuilds_per_shard(&self) -> Vec<u64> {
        self.solvers
            .iter()
            .map(|m| {
                let solver = m.lock().expect("shard solver mutex poisoned");
                solver.scratch.rebuilds()
            })
            .collect()
    }

    /// **Stage 1** — partition `requests` (global ports with a pending
    /// request) and `free` (global ports of free resources) into per-shard
    /// plans.
    ///
    /// Each shard first keeps its own requests up to its free capacity
    /// (lowest ports first). Surplus requests are then offered, in
    /// ascending global-port order, to other shards with spare capacity
    /// under the [`InterShardPolicy`]; a placement is committed only after
    /// a global circuit from the home shard's uplinks to the target shard's
    /// downlinks is actually reserved, and the target lends its lowest idle
    /// local port as the solve-stage stand-in. Requests that fit nowhere
    /// are counted in [`Placement::stage1_blocked`].
    pub fn place(&self, requests: &[usize], free: &[usize]) -> Result<Placement, ScheduleError> {
        let mut scratch = self.lock_place();
        self.place_into(&mut scratch, requests, free)?;
        Ok(scratch.placement.clone())
    }

    fn lock_place(&self) -> std::sync::MutexGuard<'_, PlaceScratch<'n>> {
        self.place_scratch
            .lock()
            .expect("placement scratch mutex poisoned")
    }

    /// [`place`](Self::place) into `scratch.placement`, reusing its plans'
    /// lists.
    fn place_into(
        &self,
        scratch: &mut PlaceScratch<'n>,
        requests: &[usize],
        free: &[usize],
    ) -> Result<(), ScheduleError> {
        let n = self.net.spec().local_ports;
        let total = self.net.num_ports();
        let PlaceScratch {
            reqs,
            used,
            surplus,
            spare,
            global,
            search,
            placement,
        } = scratch;
        let plans = &mut placement.shards;
        for (bucket, plan) in reqs.iter_mut().zip(plans.iter_mut()) {
            bucket.clear();
            plan.requests.clear();
            plan.free.clear();
        }
        for &p in requests {
            if p >= total {
                return Err(ScheduleError::UnknownProcessor(p));
            }
            reqs[p / n].push(p % n);
        }
        for &r in free {
            if r >= total {
                return Err(ScheduleError::UnknownResource(r));
            }
            plans[r / n].free.push(r % n);
        }

        // Home placement: shard s keeps its first min(|reqs|, |free|)
        // requests.
        used.fill(false);
        surplus.clear();
        for (s, (reqs, plan)) in reqs.iter_mut().zip(plans.iter_mut()).enumerate() {
            reqs.sort_unstable();
            plan.free.sort_unstable();
            let keep = reqs.len().min(plan.free.len());
            for (k, &p) in reqs.iter().enumerate() {
                if k < keep {
                    plan.requests.push((p, s * n + p));
                    used[s * n + p] = true;
                } else {
                    surplus.push((s * n + p, s));
                }
            }
            if let Some(sinks) = &self.sinks {
                sinks[s].add(Counter::ShardHomePlaced, keep as u64);
            }
        }

        // Remote placement over the global network. Reserving an actual
        // global circuit per placement keeps the stage honest about uplink
        // width.
        spare.clear();
        spare.extend(plans.iter().map(|p| p.free.len() - p.requests.len()));
        global.release_all();
        let mut stage1_blocked = 0;
        let mut remote_placed = 0;
        for &(origin, s) in surplus.iter() {
            let Some((t, path)) =
                search.pick_target(self.net, self.policy, s, global, |t| spare[t] > 0)
            else {
                stage1_blocked += 1;
                continue;
            };
            global.establish(path)?;
            let ports = &mut used[t * n..(t + 1) * n];
            let port = ports
                .iter()
                .position(|&u| !u)
                .ok_or(ScheduleError::Internal(
                    "spare capacity implies an idle local port",
                ))?;
            ports[port] = true;
            spare[t] -= 1;
            plans[t].requests.push((port, origin));
            remote_placed += 1;
            if let Some(sinks) = &self.sinks {
                sinks[t].add(Counter::ShardRemoteIn, 1);
            }
        }
        for plan in plans.iter_mut() {
            plan.requests.sort_unstable();
        }
        placement.stage1_blocked = stage1_blocked;
        placement.remote_placed = remote_placed;
        Ok(())
    }

    /// **Stage 2** — solve one shard of a placement: a homogeneous
    /// Theorem-2 problem on the local prototype with this shard's reusable
    /// scratch. Runs even when the shard has no requests, so every shard's
    /// transformation graph is configured (and its rebuild counted) on the
    /// first cycle. Safe to call concurrently for distinct shards.
    ///
    /// The same solve [`schedule`](Self::schedule) runs, collected into a
    /// [`ScheduleOutcome`] in the shard's local numbering: each assignment
    /// with its local path, the unallocated requests' local ports, and the
    /// solve's work. Total cost is 0, as on every equal-priority problem.
    pub fn solve_shard(
        &self,
        placement: &Placement,
        shard: usize,
    ) -> Result<ScheduleOutcome, ScheduleError> {
        let plan = &placement.shards[shard];
        let mut assignments = Vec::new();
        let (_, work) = self.solve_plan(shard, plan, |_, c| {
            assignments.push(c.assignment()?);
            Ok(())
        })?;
        let mut served: Vec<usize> = assignments.iter().map(|a| a.processor).collect();
        served.sort_unstable();
        let blocked = plan
            .requests
            .iter()
            .map(|&(p, _)| p)
            .filter(|p| served.binary_search(p).is_err())
            .collect();
        Ok(ScheduleOutcome {
            assignments,
            blocked,
            total_cost: 0,
            estimated_instructions: work,
        })
    }

    /// Solve shard `shard` of a placement under its telemetry sink, if
    /// any: [`shard_step`](Self::shard_step) with the shard's solver
    /// locked.
    fn solve_plan(
        &self,
        shard: usize,
        plan: &ShardPlan,
        visit: impl FnMut(usize, Circuit<'_>) -> Result<(), ScheduleError>,
    ) -> Result<(usize, u64), ScheduleError> {
        let mut solver = self.solvers[shard]
            .lock()
            .expect("shard solver mutex poisoned");
        match &self.sinks {
            // Observed solves share the flow cycle's `dyn Probe` solver code.
            Some(sinks) => {
                let probe: &dyn Probe = &sinks[shard];
                self.shard_step(plan, &mut solver, probe, visit)
            }
            None => self.shard_step(plan, &mut solver, &NoopProbe, visit),
        }
    }

    /// The one stage-2 step: fill the shard's reused problem buffers from
    /// `plan`, run configure → Dinic → decomposition through the flow
    /// schedulers' shared solve step, and hand `visit` each circuit with
    /// the global origin of its request. Returns the circuits found and the
    /// solve's work. `probe` gets the cycle's latency and stage spans, the
    /// solve's counts, a [`Counter::Cycles`] tick and the allocations
    /// ([`Counter::ShardAllocated`]).
    fn shard_step<P: Probe + ?Sized>(
        &self,
        plan: &ShardPlan,
        solver: &mut ShardSolver,
        probe: &P,
        mut visit: impl FnMut(usize, Circuit<'_>) -> Result<(), ScheduleError>,
    ) -> Result<(usize, u64), ScheduleError> {
        let ShardSolver {
            scratch,
            requests,
            free,
            origin,
        } = solver;
        requests.clear();
        requests.extend(
            plan.requests
                .iter()
                .map(|&(p, _)| ScheduleRequest::homogeneous(p)),
        );
        free.clear();
        free.extend(plan.free.iter().map(|&r| FreeResource::homogeneous(r)));
        let problem = ScheduleProblem {
            circuits: &self.local,
            requests: std::mem::take(requests),
            free: std::mem::take(free),
        };
        let mut found = 0;
        let solved = check_ids(&problem).and_then(|()| {
            for &(p, o) in &plan.requests {
                origin[p] = o;
            }
            let span = probe.start();
            let graph = Graph::Reusing(&mut scratch.max_flow, &mut scratch.solve);
            let work = cycle::solve_each(SHAPE, &problem, graph, probe, probe, &mut |c| {
                let o = origin[c.processor];
                if o == UNPLANNED {
                    return Err(ScheduleError::Internal(
                        "shard solve allocated an unplanned local port",
                    ));
                }
                found += 1;
                visit(o, c)
            });
            for &(p, _) in &plan.requests {
                origin[p] = UNPLANNED;
            }
            probe.finish(span, Hist::CycleLatencyNs);
            work
        });
        (*requests, *free) = (problem.requests, problem.free);
        let work = solved?;
        probe.add(Counter::Cycles, 1);
        probe.add(Counter::ShardAllocated, found as u64);
        Ok((found, work))
    }

    /// **Reduction** — merge per-shard outcomes into global numbering, in
    /// sequential shard order. `outcomes[s]` must be the result of
    /// [`solve_shard`](Self::solve_shard) for shard `s` of this placement;
    /// the merge itself is pure, so the order the shards were solved in
    /// cannot change the reduced result. Each origin is found by binary
    /// search over the plan's requests, which [`place`](Self::place) sorts
    /// by local port.
    pub fn reduce(
        &self,
        placement: &Placement,
        outcomes: &[ScheduleOutcome],
    ) -> Result<HierarchicalOutcome, ScheduleError> {
        let mut merged =
            HierarchicalOutcome::open(placement, outcomes.iter().map(|o| o.allocated()).sum());
        for (s, out) in outcomes.iter().enumerate() {
            let plan = &placement.shards[s];
            for a in &out.assignments {
                let origin = plan
                    .requests
                    .binary_search_by_key(&a.processor, |&(p, _)| p)
                    .map(|i| plan.requests[i].1)
                    .map_err(|_| {
                        ScheduleError::Internal("shard outcome names an unplanned local port")
                    })?;
                merged.push(self.net, s, origin, a.resource);
            }
            merged.blocked += out.blocked.len();
        }
        Ok(merged)
    }

    /// One full cycle on the calling thread: [`place`](Self::place), then
    /// every shard's solve in shard order, each circuit written straight
    /// into the merged outcome in global numbering, as
    /// [`solve_shard`](Self::solve_shard) followed by
    /// [`reduce`](Self::reduce) would merge it. Once every buffer has
    /// grown, the cycle allocates only the outcome it returns.
    pub fn schedule(
        &self,
        requests: &[usize],
        free: &[usize],
    ) -> Result<HierarchicalOutcome, ScheduleError> {
        let mut scratch = self.lock_place();
        self.place_into(&mut scratch, requests, free)?;
        let placement = &scratch.placement;
        let planned = placement.shards.iter().map(|p| p.requests.len()).sum();
        let mut merged = HierarchicalOutcome::open(placement, planned);
        for (s, plan) in placement.shards.iter().enumerate() {
            let (found, _) = self.solve_plan(s, plan, |origin, c| {
                merged.push(self.net, s, origin, c.resource);
                Ok(())
            })?;
            merged.blocked += plan.requests.len() - found;
        }
        Ok(merged)
    }
}

/// The shards' solve: Transformation 1 by Dinic (Theorem 2).
const SHAPE: Shape = Shape::MaxFlow(Algorithm::Dinic);

impl HierarchicalOutcome {
    /// A cycle's outcome before its shards are solved: stage 1's counts,
    /// room for `capacity` assignments.
    fn open(placement: &Placement, capacity: usize) -> Self {
        HierarchicalOutcome {
            assignments: Vec::with_capacity(capacity),
            stage1_blocked: placement.stage1_blocked,
            remote_placed: placement.remote_placed,
            blocked: placement.stage1_blocked,
        }
    }

    /// Add the allocation of local `resource` on `shard` to the request
    /// from global port `origin`.
    fn push(&mut self, net: &ShardedNetwork, shard: usize, origin: usize, resource: usize) {
        let n = net.spec().local_ports;
        self.assignments.push(GlobalAssignment {
            processor: origin,
            resource: shard * n + resource,
            remote: origin / n != shard,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rsin_obs::SolverId;
    use rsin_topology::{GlobalTopology, ShardedSpec};

    /// The allocating stage 1 this module used before its buffers became
    /// reusable, kept as the exact-order oracle for
    /// [`HierarchicalScheduler::place`]: fresh buckets, port tables and
    /// global circuit state per call, a fresh BFS per route attempt, and
    /// its own copy of the policy pick. Sinks are not ticked.
    fn reference_place(
        h: &HierarchicalScheduler<'_>,
        requests: &[usize],
        free: &[usize],
    ) -> Result<Placement, ScheduleError> {
        let s_count = h.net.shards();
        let n = h.net.spec().local_ports;
        let total = h.net.num_ports();
        let mut reqs: Vec<Vec<usize>> = vec![Vec::new(); s_count];
        for &p in requests {
            if p >= total {
                return Err(ScheduleError::UnknownProcessor(p));
            }
            reqs[p / n].push(p % n);
        }
        let mut plans: Vec<ShardPlan> = vec![ShardPlan::default(); s_count];
        for &r in free {
            if r >= total {
                return Err(ScheduleError::UnknownResource(r));
            }
            plans[r / n].free.push(r % n);
        }
        for s in 0..s_count {
            reqs[s].sort_unstable();
            plans[s].free.sort_unstable();
        }
        let mut used: Vec<Vec<bool>> = vec![vec![false; n]; s_count];
        let mut surplus: Vec<(usize, usize)> = Vec::new();
        for s in 0..s_count {
            let keep = reqs[s].len().min(plans[s].free.len());
            for (k, &p) in reqs[s].iter().enumerate() {
                if k < keep {
                    plans[s].requests.push((p, s * n + p));
                    used[s][p] = true;
                } else {
                    surplus.push((s * n + p, s));
                }
            }
        }
        let mut spare: Vec<usize> = (0..s_count)
            .map(|t| plans[t].free.len() - plans[t].requests.len())
            .collect();
        let mut global = CircuitState::new(h.net.global());
        let mut stage1_blocked = 0;
        let mut remote_placed = 0;
        for &(origin, s) in &surplus {
            match reference_pick_target(h, s, &spare, &global) {
                Some((t, path)) => {
                    global.establish(&path)?;
                    let port = used[t].iter().position(|&u| !u).unwrap();
                    used[t][port] = true;
                    spare[t] -= 1;
                    plans[t].requests.push((port, origin));
                    remote_placed += 1;
                }
                None => stage1_blocked += 1,
            }
        }
        for plan in &mut plans {
            plan.requests.sort_unstable();
        }
        Ok(Placement {
            shards: plans,
            stage1_blocked,
            remote_placed,
        })
    }

    fn reference_pick_target(
        h: &HierarchicalScheduler<'_>,
        s: usize,
        spare: &[usize],
        global: &CircuitState<'_>,
    ) -> Option<(usize, Vec<LinkId>)> {
        let s_count = spare.len();
        let route = |t: usize| -> Option<Vec<LinkId>> {
            let down: Vec<usize> = h.net.uplink_slots(t).collect();
            h.net
                .uplink_slots(s)
                .find_map(|up| global.find_path_to_any(up, &down).map(|(_, path)| path))
        };
        match h.policy {
            InterShardPolicy::TokenRing => (1..s_count).find_map(|d| {
                let t = (s + d) % s_count;
                if spare[t] == 0 {
                    return None;
                }
                route(t).map(|path| (t, path))
            }),
            InterShardPolicy::MinCost => {
                let mut best: Option<(usize, Vec<LinkId>)> = None;
                for (t, &free) in spare.iter().enumerate() {
                    if t == s || free == 0 {
                        continue;
                    }
                    if let Some(path) = route(t) {
                        if best.as_ref().is_none_or(|(_, b)| path.len() < b.len()) {
                            best = Some((t, path));
                        }
                    }
                }
                best
            }
        }
    }

    /// The linear-search reduction, kept as the oracle for
    /// [`HierarchicalScheduler::reduce`].
    fn reference_reduce(
        h: &HierarchicalScheduler<'_>,
        placement: &Placement,
        outcomes: &[ScheduleOutcome],
    ) -> Result<HierarchicalOutcome, ScheduleError> {
        let n = h.net.spec().local_ports;
        let mut merged = HierarchicalOutcome {
            stage1_blocked: placement.stage1_blocked,
            remote_placed: placement.remote_placed,
            blocked: placement.stage1_blocked,
            ..Default::default()
        };
        for (s, out) in outcomes.iter().enumerate() {
            let plan = &placement.shards[s];
            for a in &out.assignments {
                let origin = plan
                    .requests
                    .iter()
                    .find(|&&(p, _)| p == a.processor)
                    .map(|&(_, o)| o)
                    .ok_or(ScheduleError::Internal("unplanned local port"))?;
                merged.assignments.push(GlobalAssignment {
                    processor: origin,
                    resource: s * n + a.resource,
                    remote: origin / n != s,
                });
            }
            merged.blocked += out.blocked.len();
        }
        Ok(merged)
    }

    /// `(shards, local ports, uplink, global)`: crossbar and omega globals,
    /// uplinks from 1 to a quarter of the shard, omega slot counts powers
    /// of two.
    const ORACLE_SPECS: [(usize, usize, usize, GlobalTopology); 7] = [
        (2, 4, 1, GlobalTopology::Crossbar),
        (3, 8, 2, GlobalTopology::Crossbar),
        (5, 4, 2, GlobalTopology::Crossbar),
        (4, 8, 2, GlobalTopology::Omega),
        (8, 8, 1, GlobalTopology::Omega),
        (2, 16, 4, GlobalTopology::Omega),
        (8, 4, 2, GlobalTopology::Omega),
    ];

    /// Distinct ports `< total`, in draw order (unsorted on purpose).
    fn distinct(draw: &[usize], total: usize) -> Vec<usize> {
        let mut seen = vec![false; total];
        draw.iter()
            .map(|&p| p % total)
            .filter(|&p| !std::mem::replace(&mut seen[p], true))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Over 20+ consecutive cycles on one scheduler per policy, the
        /// reused stage-1 buffers and the binary-search reduction give
        /// exactly the reference's `Placement` and `HierarchicalOutcome`,
        /// and `schedule` agrees. Some cycles carry an out-of-range port:
        /// both sides fail alike and the next cycle still matches, so a
        /// half-reset scratch would show.
        #[test]
        fn reused_stages_match_the_reference(
            spec in 0usize..ORACLE_SPECS.len(),
            cycles in proptest::collection::vec(
                (
                    proptest::collection::vec(0usize..128, 0..96),
                    proptest::collection::vec(0usize..128, 0..96),
                    0u8..12,
                ),
                20..28,
            ),
        ) {
            let (shards, local, uplink, global) = ORACLE_SPECS[spec];
            let net = ShardedNetwork::new(ShardedSpec { shards, local_ports: local, uplink, global })
                .unwrap();
            let total = net.num_ports();
            for policy in [InterShardPolicy::TokenRing, InterShardPolicy::MinCost] {
                let h = HierarchicalScheduler::new(&net, policy);
                for (req, free, bad) in &cycles {
                    let (mut req, mut free) = (distinct(req, total), distinct(free, total));
                    match bad {
                        0 => req.push(total),
                        1 => free.push(total + 3),
                        _ => {}
                    }
                    let want = reference_place(&h, &req, &free);
                    let got = h.place(&req, &free);
                    prop_assert_eq!(&got, &want, "{:?}", policy);
                    let Ok(placement) = got else { continue };
                    let outcomes: Vec<ScheduleOutcome> = (0..shards)
                        .map(|s| h.solve_shard(&placement, s).unwrap())
                        .collect();
                    let want = reference_reduce(&h, &placement, &outcomes).unwrap();
                    prop_assert_eq!(&h.reduce(&placement, &outcomes).unwrap(), &want);
                    prop_assert_eq!(&h.schedule(&req, &free).unwrap(), &want);
                }
            }
        }

        /// The one stage-2 step behind three drivers: a plain scheduler's
        /// `schedule`, an observed one's `schedule`, and an observed one
        /// driven stage by stage (`place`, every `solve_shard`, `reduce`).
        /// Over 20+ cycles with out-of-range ports mixed in, all three
        /// return the same outcome or the same error, the two observed
        /// schedulers end with equal per-shard counters and Dinic totals,
        /// and no shard rebuilds its graph.
        #[test]
        fn schedule_and_staged_drivers_agree(
            spec in 0usize..ORACLE_SPECS.len(),
            cycles in proptest::collection::vec(
                (
                    proptest::collection::vec(0usize..128, 0..96),
                    proptest::collection::vec(0usize..128, 0..96),
                    0u8..12,
                ),
                20..28,
            ),
        ) {
            let (shards, local, uplink, global) = ORACLE_SPECS[spec];
            let net = ShardedNetwork::new(ShardedSpec { shards, local_ports: local, uplink, global })
                .unwrap();
            let total = net.num_ports();
            for policy in [InterShardPolicy::TokenRing, InterShardPolicy::MinCost] {
                let plain = HierarchicalScheduler::new(&net, policy);
                let observed = HierarchicalScheduler::observed(&net, policy);
                let staged = HierarchicalScheduler::observed(&net, policy);
                for (req, free, bad) in &cycles {
                    let (mut req, mut free) = (distinct(req, total), distinct(free, total));
                    match bad {
                        0 => req.push(total),
                        1 => free.push(total + 3),
                        _ => {}
                    }
                    let by_stage = staged.place(&req, &free).and_then(|placement| {
                        let outcomes = (0..shards)
                            .map(|s| staged.solve_shard(&placement, s))
                            .collect::<Result<Vec<_>, _>>()?;
                        staged.reduce(&placement, &outcomes)
                    });
                    let want = plain.schedule(&req, &free);
                    prop_assert_eq!(&observed.schedule(&req, &free), &want, "{:?}", policy);
                    prop_assert_eq!(&by_stage, &want, "{:?}", policy);
                }
                let (a, b) = (observed.shard_report().unwrap(), staged.shard_report().unwrap());
                let dinic = SolverId::MaxFlowDinic.index();
                for s in 0..shards {
                    for c in [
                        Counter::Cycles,
                        Counter::ShardAllocated,
                        Counter::ShardHomePlaced,
                        Counter::ShardRemoteIn,
                        Counter::DinicLevelArcScans,
                        Counter::DinicBlockingArcScans,
                    ] {
                        prop_assert_eq!(a.counter(s, c), b.counter(s, c), "shard {} {:?}", s, c);
                    }
                    let (x, y) = (&a.per_shard[s].solvers[dinic], &b.per_shard[s].solvers[dinic]);
                    prop_assert_eq!((x.solves, x.counts), (y.solves, y.counts), "shard {}", s);
                }
                for h in [&plain, &observed, &staged] {
                    prop_assert_eq!(h.rebuilds_per_shard(), vec![1; shards]);
                }
            }
        }
    }

    fn sharded(shards: usize, local: usize, uplink: usize) -> ShardedNetwork {
        ShardedNetwork::new(ShardedSpec {
            shards,
            local_ports: local,
            uplink,
            global: GlobalTopology::Crossbar,
        })
        .unwrap()
    }

    #[test]
    fn all_local_traffic_never_crosses_shards() {
        let net = sharded(2, 4, 1);
        let h = HierarchicalScheduler::new(&net, InterShardPolicy::TokenRing);
        // Each shard has 2 requests and 2 free resources of its own.
        let out = h.schedule(&[0, 1, 4, 5], &[2, 3, 6, 7]).unwrap();
        assert_eq!(out.allocated(), 4);
        assert_eq!(out.remote_placed, 0);
        assert_eq!(out.stage1_blocked, 0);
        assert!(out.assignments.iter().all(|a| !a.remote));
        // Allocations stay on the home shard.
        for a in &out.assignments {
            assert_eq!(a.processor / 4, a.resource / 4);
        }
    }

    #[test]
    fn surplus_overflows_to_the_spare_shard_up_to_uplink_width() {
        for policy in [InterShardPolicy::TokenRing, InterShardPolicy::MinCost] {
            // All 4 requests on shard 0, all 4 free resources on shard 1,
            // uplink width 2: exactly 2 remote placements fit.
            let net = sharded(2, 4, 2);
            let h = HierarchicalScheduler::new(&net, policy);
            let out = h.schedule(&[0, 1, 2, 3], &[4, 5, 6, 7]).unwrap();
            assert_eq!(out.remote_placed, 2, "{policy:?}");
            assert_eq!(out.stage1_blocked, 2, "{policy:?}");
            assert_eq!(out.allocated(), 2, "{policy:?}");
            assert!(out.assignments.iter().all(|a| a.remote), "{policy:?}");
            assert_eq!(out.allocated() + out.blocked, 4, "{policy:?}");
        }
    }

    #[test]
    fn placement_reserves_real_capacity() {
        // Shard 1 has one free resource but two surplus requests arrive
        // from shard 0: only one may be placed there.
        let net = sharded(2, 4, 4);
        let h = HierarchicalScheduler::new(&net, InterShardPolicy::TokenRing);
        let placement = h.place(&[0, 1], &[6]).unwrap();
        assert_eq!(placement.remote_placed, 1);
        assert_eq!(placement.stage1_blocked, 1);
        assert_eq!(placement.shards[1].requests.len(), 1);
        let (port, origin) = placement.shards[1].requests[0];
        assert_eq!(origin, 0, "lowest surplus request goes first");
        assert!(port < 4);
    }

    #[test]
    fn pooled_order_is_irrelevant_to_the_reduction() {
        let net = sharded(4, 4, 1);
        let h = HierarchicalScheduler::new(&net, InterShardPolicy::TokenRing);
        let requests: Vec<usize> = (0..8).collect(); // shards 0 and 1 saturated
        let free: Vec<usize> = (8..16).collect(); // shards 2 and 3 all free
        let placement = h.place(&requests, &free).unwrap();
        // Solve in reverse shard order (as a pool might), reduce in shard
        // order: identical to the serial schedule.
        let mut outcomes = vec![ScheduleOutcome::default(); 4];
        for s in (0..4).rev() {
            outcomes[s] = h.solve_shard(&placement, s).unwrap();
        }
        let pooled = h.reduce(&placement, &outcomes).unwrap();
        let serial = h.schedule(&requests, &free).unwrap();
        assert_eq!(pooled.assignments, serial.assignments);
        assert_eq!(pooled.blocked, serial.blocked);
    }

    #[test]
    fn every_shard_rebuilds_exactly_once() {
        let net = sharded(3, 4, 1);
        let h = HierarchicalScheduler::new(&net, InterShardPolicy::MinCost);
        assert_eq!(h.rebuilds_per_shard(), vec![0, 0, 0]);
        for _ in 0..5 {
            h.schedule(&[0, 4, 8], &[1, 2, 5, 9]).unwrap();
        }
        assert_eq!(
            h.rebuilds_per_shard(),
            vec![1, 1, 1],
            "repeat cycles must patch, never rebuild"
        );
    }

    #[test]
    fn bad_ports_are_typed_errors() {
        let net = sharded(2, 4, 1);
        let h = HierarchicalScheduler::new(&net, InterShardPolicy::TokenRing);
        assert_eq!(
            h.schedule(&[8], &[]),
            Err(ScheduleError::UnknownProcessor(8))
        );
        assert_eq!(
            h.schedule(&[], &[99]),
            Err(ScheduleError::UnknownResource(99))
        );
    }

    #[test]
    fn observed_scheduler_matches_plain_and_accounts_placement() {
        let net = sharded(2, 4, 2);
        for policy in [InterShardPolicy::TokenRing, InterShardPolicy::MinCost] {
            let plain = HierarchicalScheduler::new(&net, policy);
            let obs = HierarchicalScheduler::observed(&net, policy);
            assert!(plain.shard_report().is_none());
            // Shard 0 saturated (4 requests, 1 free), shard 1 idle with 3
            // free: home keeps 1, remotes flow to shard 1 up to uplinks.
            let requests = [0, 1, 2, 3];
            let free = [3usize, 5, 6, 7];
            for _ in 0..3 {
                let a = plain.schedule(&requests, &free).unwrap();
                let b = obs.schedule(&requests, &free).unwrap();
                assert_eq!(a, b, "{policy:?}: sinks must not change outcomes");
            }
            let report = obs.shard_report().unwrap();
            assert_eq!(report.per_shard.len(), 2);
            // 3 cycles: shard 0 kept 1 home request each, shard 1 took 2
            // remote requests each (uplink width 2).
            assert_eq!(report.counter(0, Counter::ShardHomePlaced), 3);
            assert_eq!(report.counter(0, Counter::ShardRemoteIn), 0);
            assert_eq!(report.counter(1, Counter::ShardHomePlaced), 0);
            assert_eq!(report.counter(1, Counter::ShardRemoteIn), 6);
            // Merged allocations equal the scheduled outcome across cycles.
            let out = plain.schedule(&requests, &free).unwrap();
            let merged_alloc = report.merged.counters[Counter::ShardAllocated.index()];
            assert_eq!(merged_alloc as usize, 3 * out.allocated(), "{policy:?}");
            // Each shard solved once per cycle, and solve latencies landed
            // in each shard's own histogram.
            for s in 0..2 {
                assert_eq!(
                    report.per_shard[s].counters[Counter::Cycles.index()],
                    3,
                    "{policy:?} shard {s}"
                );
                assert!(
                    report.per_shard[s].hists[rsin_obs::Hist::CycleLatencyNs.index()].count >= 3,
                    "{policy:?} shard {s} missing solve-latency samples"
                );
            }
            let json = report.to_json("unit");
            for key in [
                "\"shards\": 2",
                "\"imbalance\"",
                "shard_remote_in",
                "/merged",
            ] {
                assert!(json.contains(key), "missing {key}");
            }
        }
    }

    #[test]
    fn imbalance_is_zero_when_even_and_positive_when_skewed() {
        let net = sharded(2, 4, 2);
        let even = HierarchicalScheduler::observed(&net, InterShardPolicy::TokenRing);
        even.schedule(&[0, 1, 4, 5], &[2, 3, 6, 7]).unwrap();
        let r = even.shard_report().unwrap();
        assert_eq!(r.imbalance, 0.0, "2 allocations per shard");
        assert_eq!(r.counter(0, Counter::ShardAllocated), 2);

        let skew = HierarchicalScheduler::observed(&net, InterShardPolicy::TokenRing);
        skew.schedule(&[0, 1], &[2, 3]).unwrap(); // everything on shard 0
        let r = skew.shard_report().unwrap();
        assert!(r.imbalance > 1.9, "max=2 min=0 mean=1 -> imbalance 2");

        let idle = HierarchicalScheduler::observed(&net, InterShardPolicy::TokenRing);
        assert_eq!(idle.shard_report().unwrap().imbalance, 0.0, "no traffic");
    }

    #[test]
    fn schedule_is_deterministic() {
        let net = sharded(4, 8, 2);
        let requests: Vec<usize> = (0..16).collect();
        let free: Vec<usize> = (12..32).collect();
        for policy in [InterShardPolicy::TokenRing, InterShardPolicy::MinCost] {
            let h1 = HierarchicalScheduler::new(&net, policy);
            let h2 = HierarchicalScheduler::new(&net, policy);
            let a = h1.schedule(&requests, &free).unwrap();
            let b = h2.schedule(&requests, &free).unwrap();
            assert_eq!(a, b, "{policy:?}");
        }
    }
}
