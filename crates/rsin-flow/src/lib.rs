//! # rsin-flow — network-flow algorithms for resource scheduling
//!
//! Flow-network substrate for the RSIN workspace, implementing every flow
//! problem the paper (Juang & Wah, *Resource Sharing Interconnection
//! Networks in Multiprocessors*) reduces resource scheduling to:
//!
//! * **Maximum flow** (Section III-B, Theorems 1–2): [`max_flow`] provides
//!   Ford–Fulkerson with DFS augmentation and Edmonds–Karp (BFS), one
//!   augmenting-path search read as a stack or a queue, and **Dinic's
//!   algorithm with an explicit layered network** — the algorithm the paper's
//!   distributed token-propagation architecture realizes (Fig. 7). The unit-
//!   capacity specialization achieves the `O(|V|^{2/3} |E|)` bound cited for
//!   MRSIN-derived networks.
//! * **Minimum-cost flow** (Section III-C, Theorem 3): [`min_cost`] provides
//!   successive shortest paths with Johnson potentials, the classic
//!   **out-of-kilter** method named by the paper (\[18\] Fulkerson 1961,
//!   \[13\] Edmonds–Karp 1972), which cross-checks SSP; the
//!   [`transshipment`] problem (also named in Section III-A) reduces to it.
//! * **Multicommodity flow** (Section III-D): [`multicommodity`] formulates
//!   the multicommodity maximum-flow / minimum-cost-flow linear programs of
//!   the paper verbatim and solves them with the from-scratch simplex solver
//!   in `rsin-lp`, checking integrality of the optimal vertex (Evans–Jarvis
//!   restricted-topology property).
//! * **Bipartite matching** ([`bipartite`]): Hopcroft–Karp, the degenerate
//!   crossbar case of the reduction where max-flow collapses to matching.
//! * Supporting machinery: an arena [`graph::FlowNetwork`] with paired
//!   residual arcs, whose [`graph::FlowNetworkBuilder`] lays its CSR
//!   adjacency out once at build (a [`graph::HotArc`] scan lane of
//!   residual, head, and arc id per slot), [`cut`] (min-cut extraction and max-flow = min-cut
//!   verification), [`path`] (flow decomposition into arc-disjoint s–t paths,
//!   which *are* the request→resource circuits), [`incremental`] (warm-start
//!   single augmentations and one-unit flow cancellation for streaming
//!   schedulers), and [`stats`] (operation counting used by the
//!   monitor-architecture cost model).
//!
//! Each problem has one way to run a solve:
//! [`max_flow::solve_observed`] and [`min_cost::solve_observed`] take the
//! algorithm, a reusable [`SolveScratch`] and a telemetry probe, and
//! [`max_flow::solve`] / [`min_cost::solve`] are those with a fresh scratch
//! and no probe. Every solver fills the scratch buffers it reads, so a
//! reused scratch gives a fresh one's flow and operation counts.
//!
//! ```
//! use rsin_flow::graph::FlowNetworkBuilder;
//! use rsin_flow::max_flow::{solve, Algorithm};
//!
//! // The diamond network: s -> a,b -> t, all unit capacity.
//! let mut net = FlowNetworkBuilder::new();
//! let s = net.add_node("s");
//! let a = net.add_node("a");
//! let b = net.add_node("b");
//! let t = net.add_node("t");
//! net.add_arc(s, a, 1, 0);
//! net.add_arc(s, b, 1, 0);
//! net.add_arc(a, t, 1, 0);
//! net.add_arc(b, t, 1, 0);
//! let mut g = net.build();
//! let r = solve(&mut g, s, t, Algorithm::Dinic);
//! assert_eq!(r.value, 2);
//! ```

pub mod bipartite;
pub mod cut;
pub mod graph;
pub mod incremental;
pub mod max_flow;
pub mod min_cost;
pub mod multicommodity;
pub mod path;
pub mod scratch;
pub mod stats;
pub mod transshipment;

pub use graph::{ArcId, FlowNetwork, FlowNetworkBuilder, NodeId};
pub use max_flow::{Algorithm, MaxFlowResult};
pub use min_cost::MinCostResult;
pub use scratch::SolveScratch;

/// Capacity / flow quantity. The paper's networks are unit-capacity, but
/// transformations may introduce larger capacities (e.g. the bypass arc of
/// Transformation 2 has capacity = number of requests).
pub type Flow = i64;

/// Per-unit arc cost (Transformation 2 encodes priorities/preferences here).
pub type Cost = i64;
