//! # rsin-distrib — distributed token-propagation scheduling
//!
//! A cycle-accurate model of the paper's Section IV architecture: Dinic's
//! maximum-flow algorithm realized *in the switchboxes themselves* by
//! propagating identityless tokens, synchronized over a 7-bit wire-OR
//! status bus.
//!
//! Each processor attaches through a **request server** (RQ), each resource
//! through a **resource server** (RS), and every switchbox hosts an
//! autonomous finite-state process (NS). A scheduling cycle iterates three
//! phases until no augmenting path remains:
//!
//! 1. **Request-token propagation** — pending RQs inject tokens; an NS
//!    receiving its first batch marks the ports and duplicates the token to
//!    every free output port (forward) and registered input port
//!    (backward = flow cancellation). This builds the layered network of
//!    Dinic's algorithm (Theorem 4).
//! 2. **Resource-token propagation** — each RS hit sends one token back
//!    along marked ports; tokens are never duplicated, contend for receive
//!    ports, and backtrack (clearing markings) at dead ends. The surviving
//!    token paths are a *maximal* flow of the layered network.
//! 3. **Path registration** — links along survivor paths toggle
//!    free ↔ registered (registering new segments, cancelling rerouted
//!    ones) and the switchbox settings are rewired accordingly.
//!
//! At the end of the cycle every registered path becomes a bonded circuit.
//! Because tokens carry no identity, a processor learns *that* it is bonded
//! (its binding status bit), not *which* resource it got — the circuit
//! itself is the binding, exactly the RSIN philosophy of scheduling without
//! destination addresses.
//!
//! The engine's allocation count provably equals the software max-flow
//! (`rsin_flow::max_flow::dinic`) — the integration tests assert this on
//! thousands of random instances — while its cost is measured in **clock
//! periods** (gate delays) instead of instructions, which is the paper's
//! claimed speedup.
//!
//! This crate runs *one* cycle. Multi-cycle operation — requests arriving,
//! circuits torn down, resources released — lives in one shell for both
//! architectures, `rsin_sim::monitor::Monitor`: its `cycle` runs a software
//! scheduler priced in instructions (Fig. 6), its `token_cycle` runs
//! [`TokenEngine`] priced in clock periods (Fig. 9).
//!
//! ```
//! use rsin_topology::{builders::omega, CircuitState};
//! use rsin_core::model::ScheduleProblem;
//! use rsin_distrib::TokenEngine;
//!
//! let net = omega(8).unwrap();
//! let mut cs = CircuitState::new(&net);
//! cs.connect(1, 5).unwrap();
//! cs.connect(3, 3).unwrap();
//! let problem = ScheduleProblem::homogeneous(&cs, &[0, 2, 4, 6, 7], &[0, 2, 4, 6, 7]);
//! let report = TokenEngine::run(&problem);
//! assert_eq!(report.outcome.assignments.len(), 5);
//! assert!(report.clocks > 0);
//! ```

pub mod engine;
pub mod gates;
pub mod status;

pub use engine::{CycleReport, TokenEngine};
pub use gates::Netlist;
pub use status::{Event, StatusBus};
