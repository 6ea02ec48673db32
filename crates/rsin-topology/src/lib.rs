//! # rsin-topology — multistage interconnection networks
//!
//! The interconnection-network substrate of the RSIN workspace: the
//! circuit-switched multistage networks (MINs) on which the paper's resource
//! scheduling operates, as classified by Feng and enumerated in the paper's
//! introduction.
//!
//! * [`network`] — a general loop-free network of processors, switchboxes
//!   and resources, connected by directed unit-capacity links, with a
//!   validating builder. This is the "any general loop-free network
//!   configuration in which the requesting processors and free resources can
//!   be partitioned into two disjoint subsets" the paper's method applies
//!   to.
//! * [`switchbox`] — `n×m` crossbar switchboxes **without broadcast**
//!   (Section III-B: each request needs one resource, so a nonbroadcast
//!   setting connects each input to at most one output and vice versa).
//! * [`builders`] — constructors for the classic topologies: **Omega**
//!   (Lawrie), **baseline** (Wu–Feng), **indirect binary n-cube** (Pease),
//!   **generalized cube** (Siegel), **Benes**, **Clos**, **delta**, a plain
//!   **crossbar**, a **gamma-like** multipath network, extra-stage
//!   augmentation of any 2×2-box MIN, and a **3-disjoint-paths Omega**
//!   (three parallel Omega planes behind 1×3/3×1 taps).
//! * [`circuit`] — link-occupancy state: establishing and releasing
//!   circuits, and breadth-first free-path search (the primitive behind the
//!   heuristic schedulers the paper compares against).
//! * [`fault`] — deterministic, seed-driven fault-injection plans:
//!   time-sorted link/switchbox failure and repair events drawn from a
//!   renewal process, reproducible across threads and trials; beyond
//!   independent fail-stop toggles, plans carry correlated
//!   [`fault::FaultDomain`]s (whole groups toggling as one event) and
//!   Byzantine misrouting boxes (lying, not dying);
//! * [`routing`] — path enumeration and exact permutation routing
//!   (admissibility checks for MINs);
//! * [`analysis`] — survey metrics per topology (crosspoints, control
//!   bits, path multiplicity, blocking classification);
//! * [`perm`] — the wiring permutations (perfect shuffle, bit moves, bit
//!   reversal) used by the builders;
//! * [`sharded`] — MRSIN-of-MRSINs composition: N identical shard networks
//!   under a global crossbar or omega inter-shard network, with typed
//!   shard-local vs. global port addressing and a flattening that produces
//!   the equivalent single [`network::Network`].
//!
//! ```
//! use rsin_topology::builders::omega;
//! use rsin_topology::circuit::CircuitState;
//!
//! let net = omega(8).unwrap();
//! assert_eq!(net.num_processors(), 8);
//! assert_eq!(net.num_stages(), 3);
//! let mut cs = CircuitState::new(&net);
//! // Any processor can reach any resource in an unloaded Omega network.
//! let path = cs.find_path(0, 7).unwrap();
//! cs.establish(&path).unwrap();
//! assert!(cs.find_path(4, 3).is_some());
//! ```

pub mod analysis;
pub mod builders;
pub mod circuit;
pub mod fault;
pub mod network;
pub mod perm;
pub mod routing;
pub mod sharded;
pub mod switchbox;

pub use circuit::{CircuitError, CircuitId, CircuitState, PathSearch};
pub use fault::{
    FaultAction, FaultDomain, FaultEvent, FaultPlan, FaultPlanConfig, FaultPlanError, FaultTarget,
};
pub use network::{LinkId, Network, NetworkBuilder, NetworkError, NodeRef};
pub use sharded::{GlobalTopology, ShardPort, ShardedNetwork, ShardedSpec};
pub use switchbox::Switchbox;
