//! # rsin-sim — simulation of resource-sharing multiprocessors
//!
//! The measurement substrate that regenerates the paper's quantitative
//! claims (the original simulators, \[22\] and \[44\], are unavailable; this
//! crate rebuilds them from the Section II system model):
//!
//! * [`workload`] — random scheduling snapshots (who requests, what is
//!   free, which circuits pre-occupy links) and arrival processes;
//! * [`blocking`] — Monte-Carlo *static* experiments: average blocking
//!   probability of a scheduler on a topology, the metric behind "the
//!   average blocking probability can be as low as 2 percent … if a
//!   heuristic routing algorithm is used, then the average blocking
//!   probability increases to around 20 percent";
//! * [`system`] — a *dynamic* discrete-event simulation of the full model:
//!   Poisson task arrivals, one task transmitted at a time per processor,
//!   circuits released after transmission, resources busy until completion
//!   (model points 1–5), yielding utilization and response times;
//! * [`pool`] — the work-stealing-free worker pool every parallel
//!   experiment axis (trials, sweep points, fault trials, replicas, and
//!   per-scheduler comparison rows) runs on;
//! * [`replicate`] — the one batch path for dynamic runs: a
//!   [`TrialGrid`] of configurations × independent `(seed, trial)` streams
//!   on one worker pool, with replicas merged deterministically;
//! * [`sharded`] — sharded-system experiments: hierarchical and
//!   flat-oracle conformance trials over an MRSIN-of-MRSINs;
//! * [`stream`] — streaming command logs for the incremental scheduler:
//!   deterministic request/release generators, the `R`/`F` text codec, the
//!   canonical decision-log line, and warm-start vs batch replay helpers;
//! * [`metrics`] — sample statistics with confidence intervals;
//! * [`monitor`] — the centralized monitor architecture of Fig. 6, with
//!   its exact cycle semantics (mid-cycle arrivals and releases deferred);
//! * [`analytic`] — Patel's closed-form banyan acceptance model, for
//!   theory-vs-simulation calibration;
//! * [`packet`] — the circuit-vs-packet-switching model-choice ablation
//!   backing Section II's first modelling decision;
//! * [`cost`] — the architecture cost model comparing the monitor
//!   (instruction-counted software) against the distributed engine
//!   (clock-period-counted token propagation).
//!
//! ```
//! use rsin_sim::blocking::{BlockingConfig, run_blocking};
//! use rsin_core::scheduler::MaxFlowScheduler;
//! use rsin_topology::builders::omega;
//!
//! let net = omega(8).unwrap();
//! let cfg = BlockingConfig { trials: 200, requests: 5, resources: 5, occupied_circuits: 0, seed: 7 };
//! let stats = run_blocking(&net, &MaxFlowScheduler::default(), &cfg).unwrap();
//! assert!(stats.blocking.mean < 0.2, "optimal scheduling blocks rarely on a free Omega");
//! ```

pub mod analytic;
pub mod blocking;
pub mod cost;
pub mod metrics;
pub mod monitor;
pub mod packet;
pub mod pool;
pub mod replicate;
pub mod sharded;
pub mod stream;
pub mod system;
pub mod workload;

pub use blocking::{run_blocking, run_blocking_threads, BlockingConfig, BlockingStats};
pub use stream::{
    encode_commands, format_decision, generate_commands, parse_commands, replay_batch,
    replay_incremental, CodecError, CodecErrorKind, StreamCommand,
};

pub use replicate::{
    merge_dynamic, merge_faulted, run_trials, run_trials_observed, ReplicatedFaultedStats,
    ReplicatedStats, TrialGrid,
};
pub use sharded::{
    run_paired_trials, run_sharded_trials, sharded_snapshot, ShardedStats, ShardedTrialConfig,
};
pub use system::{
    fault_plan_seed, plan_for_model, DegradedPolicy, DynamicConfig, DynamicStats, FaultModel,
    FaultedStats, SimError, SystemSim,
};
