#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! # empower-routing
//!
//! The multipath-routing algorithm of EMPoWER (§3 of the paper).
//!
//! The algorithm has two layers:
//!
//! 1. A **single-path procedure** (§3.1): Dijkstra on the *virtual graph of
//!    network interfaces* with link metric `W(l) = d_l = 1/c_l` (ETT up to a
//!    constant) and a channel-switching cost (CSC) that favours paths whose
//!    consecutive links use different technologies — mitigating intra-path
//!    interference. At every node `u` the paper picks
//!    `w_ns(u) = min_{l∈L(u)} d_l` (cost for *not* switching) and
//!    `w_s(u) = 0` (cost for switching), which keeps the metric isotone so
//!    Dijkstra stays exact.
//! 2. A **multipath procedure** (§3.2): an exploration tree whose root is
//!    the initial multigraph. Each tree edge is one of the `n` shortest
//!    paths of the current multigraph; each child is the multigraph with
//!    capacities discounted by `update(P, G)` — the view of the network if
//!    `P` were fully loaded at its self-interference-aware capacity `R(P)`.
//!    The returned combination is the root-to-leaf path set with the largest
//!    total capacity `Σ R(P)`.
//!
//! The number of returned routes is data-dependent: extra routes appear only
//! when they add capacity. Limiting the tree to one level does *not* reduce
//! to the single-path procedure — the multipath criterion can pick a
//! different (better) single route.

pub mod baselines;
pub mod dijkstra;
pub mod ksp;
pub mod metrics;
pub mod multipath;
pub mod query;
pub mod update;

pub use baselines::{mp_2bp, single_path_route};
pub use dijkstra::{
    path_weight, shortest_path, CscMode, DijkstraOutcome, DijkstraScratch, MAX_ROUTE_HOPS,
};
pub use ksp::{k_shortest_paths, k_shortest_paths_into, KspWorkspace};
pub use metrics::{LinkMetric, MetricKind};
pub use multipath::{
    best_combination, best_combination_reference, best_combination_reference_counted, Explorer,
    MultipathConfig, RouteAllocation, RouteSet, SearchStats,
};
pub use query::RouteQuery;
pub use update::{update_multigraph, update_multigraph_logged, UndoLog, UpdateScratch};
