//! Sharded-system experiments: hierarchical and flat-oracle conformance
//! trials, and a streaming session over a sharded MRSIN.
//!
//! The scheduling logic lives in
//! [`rsin_core::scheduler::hierarchical`]; this module supplies the
//! execution and measurement shell around it:
//!
//! * [`run_sharded_trials`] — Monte-Carlo blocking trials of the
//!   hierarchical scheduler on seeded `(seed, trial)` snapshots;
//! * [`run_paired_trials`] — per-trial `(hierarchical, flat)` allocation
//!   pairs, the raw material of the `hier ≤ flat` conformance gates;
//! * [`ShardedSession`] — a long-lived streaming session: one warm
//!   [`IncrementalScheduler`] per shard plus a persistent global circuit
//!   state, admitting each arrival to its home shard when capacity remains
//!   and borrowing a port on a spare shard (over a reserved global circuit)
//!   otherwise.

use crate::metrics::{Sample, Summary};
use crate::workload::trial_rng;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rsin_core::model::ScheduleProblem;
use rsin_core::scheduler::hierarchical::{HierarchicalScheduler, InterShardPolicy, RemoteSearch};
use rsin_core::scheduler::{
    IncrementalBackend, IncrementalScheduler, MaxFlowScheduler, PromotedRequest, ScheduleError,
    ScheduleScratch, Scheduler, StreamDecision,
};
use rsin_topology::{CircuitId, CircuitState, Network, ShardedNetwork};
use std::collections::VecDeque;

/// Parameters of a sharded Monte-Carlo experiment.
#[derive(Debug, Clone, Copy)]
pub struct ShardedTrialConfig {
    /// Monte-Carlo trials.
    pub trials: u64,
    /// Requesting processors per trial (global ports, drawn uniformly).
    pub requests: usize,
    /// Free resources per trial (global ports, drawn uniformly).
    pub free: usize,
    /// Base RNG seed.
    pub seed: u64,
}

/// Aggregated results of a sharded experiment.
#[derive(Debug, Clone, Copy)]
pub struct ShardedStats {
    /// Blocking fraction `1 − allocated / min(requests, free)`.
    pub blocking: Summary,
    /// Resources allocated per trial.
    pub allocated: Summary,
    /// Requests placed on a non-home shard per trial (always 0 for the
    /// flat oracle).
    pub remote: Summary,
    /// Requests the inter-shard stage could not place per trial (always 0
    /// for the flat oracle).
    pub stage1_blocked: Summary,
    /// True iff every observed per-shard transformation-graph build count
    /// was exactly 1 (vacuously true for the flat oracle, whose scratch is
    /// one graph with the same invariant).
    pub rebuilds_ok: bool,
}

/// Per-trial record; kept so trials can be farmed out and reduced in trial
/// order (see [`crate::pool`]).
#[derive(Debug, Clone, Copy)]
struct ShardedTrialResult {
    blocking: f64,
    allocated: f64,
    remote: f64,
    stage1_blocked: f64,
    rebuilds_ok: bool,
}

/// Draw one trial's request and free sets: uniform global ports, sorted
/// ascending. A pure function of the RNG stream.
pub fn sharded_snapshot(
    total_ports: usize,
    requests: usize,
    free: usize,
    rng: &mut StdRng,
) -> (Vec<usize>, Vec<usize>) {
    let mut draw = |k: usize| -> Vec<usize> {
        let mut ports: Vec<usize> = (0..total_ports).collect();
        ports.shuffle(rng);
        ports.truncate(k.min(total_ports));
        ports.sort_unstable();
        ports
    };
    let requesting = draw(requests);
    let free = draw(free);
    (requesting, free)
}

fn reduce_trials(results: &[ShardedTrialResult]) -> ShardedStats {
    // Sequential reduction in trial order (Welford is not associative).
    let mut blocking = Sample::new();
    let mut allocated = Sample::new();
    let mut remote = Sample::new();
    let mut stage1 = Sample::new();
    let mut rebuilds_ok = true;
    for r in results {
        blocking.push(r.blocking);
        allocated.push(r.allocated);
        remote.push(r.remote);
        stage1.push(r.stage1_blocked);
        rebuilds_ok &= r.rebuilds_ok;
    }
    ShardedStats {
        blocking: Summary::from(&blocking),
        allocated: Summary::from(&allocated),
        remote: Summary::from(&remote),
        stage1_blocked: Summary::from(&stage1),
        rebuilds_ok,
    }
}

/// Monte-Carlo trials of the hierarchical scheduler: `threads` workers pull
/// trials from a shared cursor, each owning one [`HierarchicalScheduler`]
/// (so each worker's per-shard scratches are built once and reused), and
/// each trial runs one [`HierarchicalScheduler::schedule`] cycle.
///
/// Determinism contract: trial `i` is a pure function of `(cfg.seed, i)`
/// and results reduce sequentially in trial order — the returned
/// [`ShardedStats`] is bit-identical for any `threads`. The first failing
/// trial's error, in trial order, is returned instead.
pub fn run_sharded_trials(
    net: &ShardedNetwork,
    policy: InterShardPolicy,
    cfg: &ShardedTrialConfig,
    threads: usize,
) -> Result<ShardedStats, ScheduleError> {
    let results = crate::pool::run_indexed_with(
        cfg.trials as usize,
        threads,
        || HierarchicalScheduler::new(net, policy),
        |h, trial| {
            let mut rng = trial_rng(cfg.seed, trial as u64);
            let (requests, free) =
                sharded_snapshot(net.num_ports(), cfg.requests, cfg.free, &mut rng);
            let denom = requests.len().min(free.len());
            let out = h.schedule(&requests, &free)?;
            // Every cycle solves every shard (even empty ones), so after any
            // trial each shard of this worker has built exactly once — the
            // flag is a pure function of the trial, not of worker history.
            let rebuilds_ok = h.rebuilds_per_shard().iter().all(|&r| r == 1);
            Ok(ShardedTrialResult {
                blocking: if denom == 0 {
                    0.0
                } else {
                    1.0 - out.allocated() as f64 / denom as f64
                },
                allocated: out.allocated() as f64,
                remote: out.remote_placed as f64,
                stage1_blocked: out.stage1_blocked as f64,
                rebuilds_ok,
            })
        },
    );
    let results = results
        .into_iter()
        .collect::<Result<Vec<_>, ScheduleError>>()?;
    Ok(reduce_trials(&results))
}

/// Per-trial `(hierarchical allocated, flat allocated)` pairs on shared
/// snapshots — the conformance raw data: hierarchical must never exceed
/// flat, and stays above a configured fraction of it in aggregate. The
/// first failing trial's error, in trial order, is returned instead.
pub fn run_paired_trials(
    net: &ShardedNetwork,
    flat: &Network,
    policy: InterShardPolicy,
    cfg: &ShardedTrialConfig,
    threads: usize,
) -> Result<Vec<(usize, usize)>, ScheduleError> {
    crate::pool::run_indexed_with(
        cfg.trials as usize,
        threads,
        || {
            (
                HierarchicalScheduler::new(net, policy),
                ScheduleScratch::new(),
            )
        },
        |(h, scratch), trial| {
            let mut rng = trial_rng(cfg.seed, trial as u64);
            let (requests, free) =
                sharded_snapshot(net.num_ports(), cfg.requests, cfg.free, &mut rng);
            let hier = h.schedule(&requests, &free)?;
            let cs = CircuitState::new(flat);
            let problem = ScheduleProblem::homogeneous(&cs, &requests, &free);
            let flat_out = MaxFlowScheduler::default().try_schedule_reusing(&problem, scratch)?;
            Ok((hier.allocated(), flat_out.allocated()))
        },
    )
    .into_iter()
    .collect()
}

/// Where an active origin currently sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OriginState {
    /// No active request.
    Idle,
    /// Waiting in the session-level overflow queue (no port anywhere).
    Overflow,
    /// Admitted to `shard` at local `port`; `circuit` holds the reserved
    /// global circuit for remote admissions.
    Active {
        shard: usize,
        port: usize,
        circuit: Option<CircuitId>,
    },
}

/// A long-lived streaming session over a sharded system: the two-stage
/// discipline applied per event instead of per batch cycle.
///
/// Each shard runs its own warm-start [`IncrementalScheduler`] over the
/// local prototype (so per-shard `rebuilds()` stays 1 for the session's
/// lifetime), and cross-shard admissions reserve real circuits on a
/// persistent global [`CircuitState`]. An arrival is admitted to its home
/// shard while the shard has free resource capacity; otherwise a target
/// shard with genuine spare capacity is chosen under the
/// [`InterShardPolicy`] and the arrival borrows that shard's lowest idle
/// local port. Arrivals no shard can seat wait in a session-level FIFO and
/// are retried on every release.
///
/// All decisions are reported in **global** port numbering.
#[derive(Debug)]
pub struct ShardedSession<'n> {
    net: &'n ShardedNetwork,
    policy: InterShardPolicy,
    shards: Vec<IncrementalScheduler>,
    global: CircuitState<'n>,
    search: RemoteSearch,
    origin: Vec<OriginState>,
    /// `port_origin[shard][port]` — which origin occupies the local port.
    port_origin: Vec<Vec<Option<usize>>>,
    overflow: VecDeque<usize>,
    remote_active: usize,
}

impl<'n> ShardedSession<'n> {
    /// Fresh session: every shard empty, every global link free.
    pub fn new(
        net: &'n ShardedNetwork,
        policy: InterShardPolicy,
        backend: IncrementalBackend,
    ) -> Self {
        let n = net.spec().local_ports;
        ShardedSession {
            net,
            policy,
            shards: (0..net.shards())
                .map(|_| IncrementalScheduler::new(net.local(), backend))
                .collect(),
            global: CircuitState::new(net.global()),
            search: RemoteSearch::default(),
            origin: vec![OriginState::Idle; net.num_ports()],
            port_origin: vec![vec![None; n]; net.shards()],
            overflow: VecDeque::new(),
            remote_active: 0,
        }
    }

    /// Origins currently holding an allocation, across all shards.
    pub fn allocated_count(&self) -> usize {
        self.shards.iter().map(|s| s.allocated_count()).sum()
    }

    /// Origins with an active but unallocated request: queued inside a
    /// shard or waiting in the session overflow FIFO.
    pub fn queued_count(&self) -> usize {
        self.shards.iter().map(|s| s.queued_count()).sum::<usize>() + self.overflow.len()
    }

    /// Origins currently seated on a non-home shard (each holds one
    /// reserved global circuit).
    pub fn remote_active(&self) -> usize {
        self.remote_active
    }

    /// Where an origin is currently seated: `(shard, local port, remote)`.
    /// `None` when idle or in the overflow FIFO.
    pub fn origin_seat(&self, origin: usize) -> Option<(usize, usize, bool)> {
        match self.origin.get(origin)? {
            OriginState::Active {
                shard,
                port,
                circuit,
            } => Some((*shard, *port, circuit.is_some())),
            _ => None,
        }
    }

    /// Per-shard transformation-graph build counts; all ones for the
    /// session's lifetime.
    pub fn rebuilds_per_shard(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.rebuilds()).collect()
    }

    /// Global circuits currently reserved for remote admissions.
    pub fn global_circuits(&self) -> usize {
        self.global.occupied_count()
    }

    /// Handle an arrival for global port `origin`. Returns the globalized
    /// decision — [`StreamDecision::Allocated`] or
    /// [`StreamDecision::Queued`] (the latter also when the arrival landed
    /// in the overflow FIFO). Malformed commands (unknown port, duplicate
    /// request) return a typed error and change nothing.
    pub fn request(&mut self, origin: usize) -> Result<StreamDecision, ScheduleError> {
        match self.origin.get(origin) {
            None => return Err(ScheduleError::UnknownProcessor(origin)),
            Some(OriginState::Idle) => {}
            Some(_) => return Err(ScheduleError::DuplicateRequest(origin)),
        }
        match self.admit(origin)? {
            Some(decision) => Ok(decision),
            None => {
                self.origin[origin] = OriginState::Overflow;
                self.overflow.push_back(origin);
                Ok(StreamDecision::Queued { processor: origin })
            }
        }
    }

    /// Handle a release for global port `origin`. Returns the globalized
    /// decisions: first the release itself ([`StreamDecision::Released`] or
    /// [`StreamDecision::Withdrawn`]), then one decision per overflow
    /// arrival the freed capacity admitted. A release for an idle origin
    /// returns a typed error and changes nothing.
    pub fn release(&mut self, origin: usize) -> Result<Vec<StreamDecision>, ScheduleError> {
        let state = *self
            .origin
            .get(origin)
            .ok_or(ScheduleError::UnknownProcessor(origin))?;
        match state {
            OriginState::Idle => Err(ScheduleError::ReleaseIdle(origin)),
            OriginState::Overflow => {
                self.overflow.retain(|&o| o != origin);
                self.origin[origin] = OriginState::Idle;
                Ok(vec![StreamDecision::Withdrawn { processor: origin }])
            }
            OriginState::Active {
                shard,
                port,
                circuit,
            } => {
                let n = self.net.spec().local_ports;
                let local = self.shards[shard].release(port)?;
                self.port_origin[shard][port] = None;
                self.origin[origin] = OriginState::Idle;
                if let Some(cid) = circuit {
                    self.global
                        .release(cid)
                        .map_err(|_| ScheduleError::Internal("global circuit already released"))?;
                    self.remote_active -= 1;
                }
                let first = match local {
                    StreamDecision::Withdrawn { .. } => {
                        StreamDecision::Withdrawn { processor: origin }
                    }
                    StreamDecision::Released {
                        resource, promoted, ..
                    } => StreamDecision::Released {
                        processor: origin,
                        resource: shard * n + resource,
                        promoted: match promoted {
                            None => None,
                            Some(PromotedRequest {
                                processor,
                                resource,
                            }) => Some(PromotedRequest {
                                processor: self.port_origin[shard][processor].ok_or(
                                    ScheduleError::Internal("promoted port has no origin"),
                                )?,
                                resource: shard * n + resource,
                            }),
                        },
                    },
                    _ => return Err(ScheduleError::Internal("release produced a non-release")),
                };
                let mut decisions = vec![first];
                // Retry the overflow FIFO once, in arrival order.
                let waiting: Vec<usize> = self.overflow.iter().copied().collect();
                for o in waiting {
                    if let Some(d) = self.admit(o)? {
                        self.overflow.retain(|&q| q != o);
                        decisions.push(d);
                    }
                }
                Ok(decisions)
            }
        }
    }

    /// Try to seat `origin`: home shard while it has free resource
    /// capacity, then a remote shard with spare capacity under the policy,
    /// then the home shard without capacity (local queueing). `None` when
    /// no shard has an idle port for it.
    fn admit(&mut self, origin: usize) -> Result<Option<StreamDecision>, ScheduleError> {
        let n = self.net.spec().local_ports;
        let home = origin / n;
        let own = origin % n;
        let home_port = if self.port_origin[home][own].is_none() {
            Some(own)
        } else {
            self.idle_port(home)
        };
        if let Some(port) = home_port {
            if self.has_capacity(home) {
                return self.seat(origin, home, port, None).map(Some);
            }
        }
        // A remote target needs resource capacity and an idle port.
        let (shards, port_origin) = (&self.shards, &self.port_origin);
        let picked = self
            .search
            .pick_target(self.net, self.policy, home, &self.global, |t| {
                shards[t].allocated_count() < n && port_origin[t].iter().any(Option::is_none)
            });
        if let Some((t, path)) = picked {
            let cid = self.global.establish(path)?;
            let port = self
                .idle_port(t)
                .ok_or(ScheduleError::Internal("picked shard has no idle port"))?;
            self.remote_active += 1;
            return self.seat(origin, t, port, Some(cid)).map(Some);
        }
        match home_port {
            Some(port) => self.seat(origin, home, port, None).map(Some),
            None => Ok(None),
        }
    }

    fn has_capacity(&self, shard: usize) -> bool {
        self.shards[shard].allocated_count() < self.net.spec().local_ports
    }

    fn idle_port(&self, shard: usize) -> Option<usize> {
        self.port_origin[shard].iter().position(|o| o.is_none())
    }

    /// Submit `origin`'s request to `shard` at local `port` and globalize
    /// the decision.
    fn seat(
        &mut self,
        origin: usize,
        shard: usize,
        port: usize,
        circuit: Option<CircuitId>,
    ) -> Result<StreamDecision, ScheduleError> {
        let n = self.net.spec().local_ports;
        let decision = self.shards[shard].request(port)?;
        self.port_origin[shard][port] = Some(origin);
        self.origin[origin] = OriginState::Active {
            shard,
            port,
            circuit,
        };
        Ok(match decision {
            StreamDecision::Allocated { resource, .. } => StreamDecision::Allocated {
                processor: origin,
                resource: shard * n + resource,
            },
            StreamDecision::Queued { .. } => StreamDecision::Queued { processor: origin },
            _ => return Err(ScheduleError::Internal("request produced a non-arrival")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsin_topology::{GlobalTopology, ShardedSpec};

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
    fn trials_are_thread_and_pool_invariant() {
        let net = sharded(2, 8, 2);
        let cfg = ShardedTrialConfig {
            trials: 23,
            requests: 10,
            free: 10,
            seed: 41,
        };
        let one = run_sharded_trials(&net, InterShardPolicy::TokenRing, &cfg, 1).unwrap();
        assert!(one.rebuilds_ok);
        for threads in [2, 3, 8] {
            let other =
                run_sharded_trials(&net, InterShardPolicy::TokenRing, &cfg, threads).unwrap();
            assert_eq!(one.blocking.mean.to_bits(), other.blocking.mean.to_bits());
            assert_eq!(one.blocking.ci95.to_bits(), other.blocking.ci95.to_bits());
            assert_eq!(one.allocated.mean.to_bits(), other.allocated.mean.to_bits());
            assert_eq!(one.remote.mean.to_bits(), other.remote.mean.to_bits());
            assert_eq!(
                one.stage1_blocked.mean.to_bits(),
                other.stage1_blocked.mean.to_bits()
            );
            assert!(other.rebuilds_ok);
        }
    }

    #[test]
    fn hierarchical_never_beats_the_flat_oracle() {
        let net = sharded(2, 8, 2);
        let flat = net.flatten().unwrap();
        let cfg = ShardedTrialConfig {
            trials: 40,
            requests: 12,
            free: 12,
            seed: 43,
        };
        for policy in [InterShardPolicy::TokenRing, InterShardPolicy::MinCost] {
            let pairs = run_paired_trials(&net, &flat, policy, &cfg, 2).unwrap();
            assert_eq!(pairs.len(), 40);
            for (i, &(hier, flat_alloc)) in pairs.iter().enumerate() {
                assert!(
                    hier <= flat_alloc,
                    "{policy:?} trial {i}: hier {hier} > flat {flat_alloc}"
                );
            }
        }
    }

    #[test]
    fn sharded_dynamic_runs_on_the_flat_composition() {
        let net = sharded(2, 4, 1);
        let cfg = crate::system::DynamicConfig {
            sim_time: 60.0,
            warmup: 10.0,
            ..Default::default()
        };
        let flat = net.flatten().unwrap();
        let stats = crate::system::SystemSim::new(&flat, cfg)
            .run(&MaxFlowScheduler::default())
            .unwrap();
        assert!(stats.completed > 0);
    }

    #[test]
    fn session_keeps_traffic_home_while_capacity_lasts() {
        let net = sharded(2, 4, 2);
        let mut s = ShardedSession::new(
            &net,
            InterShardPolicy::TokenRing,
            IncrementalBackend::MaxFlow,
        );
        for origin in [0, 1, 4, 5] {
            let d = s.request(origin).unwrap();
            assert!(matches!(d, StreamDecision::Allocated { .. }), "{origin}");
        }
        assert_eq!(s.allocated_count(), 4);
        assert_eq!(s.remote_active(), 0);
        assert_eq!(s.global_circuits(), 0);
        // Releases return everything to idle.
        for origin in [0, 1, 4, 5] {
            let d = s.release(origin).unwrap();
            assert!(matches!(d[0], StreamDecision::Released { .. }));
        }
        assert_eq!(s.allocated_count(), 0);
        assert_eq!(s.rebuilds_per_shard(), vec![1, 1]);
    }

    #[test]
    fn full_load_stays_home_and_allocates_everything() {
        // Every origin requesting at once is exactly home capacity
        // everywhere: nothing goes remote, nothing queues.
        let net = sharded(2, 4, 2);
        let mut s = ShardedSession::new(
            &net,
            InterShardPolicy::TokenRing,
            IncrementalBackend::MaxFlow,
        );
        for origin in 0..8 {
            let d = s.request(origin).unwrap();
            assert!(matches!(d, StreamDecision::Allocated { .. }), "{origin}");
        }
        assert_eq!(s.allocated_count(), 8);
        assert_eq!(s.remote_active(), 0);
    }

    #[test]
    fn session_release_and_rerequest_round_trips() {
        // Ports and resources are 1:1, so a release frees both and the
        // re-request stays home; bookkeeping must agree with the shard
        // schedulers throughout. (The remote-borrow path needs a foreign
        // borrow holding the home port — exercised by the session
        // proptest's interleavings.)
        let net = sharded(2, 2, 1);
        let mut s = ShardedSession::new(
            &net,
            InterShardPolicy::TokenRing,
            IncrementalBackend::MaxFlow,
        );
        // Shard 0: both origins allocate.
        assert!(matches!(
            s.request(0).unwrap(),
            StreamDecision::Allocated { .. }
        ));
        assert!(matches!(
            s.request(1).unwrap(),
            StreamDecision::Allocated { .. }
        ));
        // Release origin 1: its port and resource free up. Now origin 1
        // re-requests — home has capacity, stays home.
        s.release(1).unwrap();
        let d = s.request(1).unwrap();
        assert!(matches!(d, StreamDecision::Allocated { .. }));
        assert_eq!(s.remote_active(), 0);
        assert_eq!(s.queued_count(), 0);
        // Occupancy bookkeeping agrees with the shard schedulers.
        assert_eq!(s.origin_seat(0), Some((0, 0, false)));
        assert_eq!(s.origin_seat(1), Some((0, 1, false)));
    }

    #[test]
    fn session_rejects_malformed_commands() {
        let net = sharded(2, 4, 1);
        let mut s = ShardedSession::new(
            &net,
            InterShardPolicy::TokenRing,
            IncrementalBackend::MaxFlow,
        );
        assert_eq!(s.request(8), Err(ScheduleError::UnknownProcessor(8)));
        assert_eq!(s.release(3), Err(ScheduleError::ReleaseIdle(3)));
        s.request(3).unwrap();
        assert_eq!(s.request(3), Err(ScheduleError::DuplicateRequest(3)));
    }
}
