//! Graph substrate for the Service Overlay Forest (SOF) workspace.
//!
//! This crate provides everything the SOF algorithms need from a graph
//! library, implemented from scratch:
//!
//! * [`Graph`] — undirected weighted adjacency-list graph with typed
//!   [`NodeId`] / [`EdgeId`] handles and non-NaN [`Cost`] weights,
//! * [`ShortestPaths`] — single- and multi-source Dijkstra with path
//!   reconstruction and Voronoi sites (for Mehlhorn's Steiner algorithm),
//! * [`DijkstraWorkspace`] — a reusable, epoch-stamped Dijkstra scratchpad:
//!   O(1) reset between runs, zero O(n) allocation once warm, full runs
//!   that label the tree they return in place (a miss allocates the tree
//!   itself and copies nothing), and one monotone radix queue under every
//!   run and search that pops in exact `(dist, node)` order without a
//!   comparison heap,
//! * [`PathEngine`] — a memoizing shortest-path service holding one tree
//!   per sorted source set, stamped with the cost epoch it is exact at and
//!   recomputed, replacing the stored one, once the graph's epoch moves;
//!   hands out shared `Arc<ShortestPaths>` trees; a zero-cost leaf (a VM on its
//!   data centre's stub) is answered from its host's tree
//!   ([`PathEngine::rooted_at`]); plus one uncached *bounded
//!   search* ([`PathEngine::nearest_target`]) for "which of these vertices
//!   is closest", which stops at the answer instead of labelling the graph,
//! * [`steiner_arborescence`] — the Dreyfus–Wagner dynamic program, written
//!   once for both exact Steiner oracles: a minimum arborescence from a
//!   root to at most [`MAX_DW_TERMINALS`] terminals over a view that lists
//!   the arcs into a vertex, relaxed on the same monotone queue
//!   (`sof_steiner::dreyfus_wagner` is its bidirected view, `sof_exact`'s
//!   relaxation its layered view),
//! * [`generators`] — deterministic connected random topologies (Erdős–Rényi,
//!   ring, grid, Inet-style power law),
//! * [`Rng64`] — a seedable xoshiro256** generator so every experiment in the
//!   workspace reproduces bit-for-bit.
//!
//! # Examples
//!
//! Build a small network and query a shortest path:
//!
//! ```
//! use sof_graph::{Graph, Cost, NodeId, ShortestPaths};
//!
//! let mut g = Graph::with_nodes(4);
//! g.add_edge(NodeId::new(0), NodeId::new(1), Cost::new(1.0));
//! g.add_edge(NodeId::new(1), NodeId::new(2), Cost::new(1.0));
//! g.add_edge(NodeId::new(0), NodeId::new(3), Cost::new(10.0));
//! g.add_edge(NodeId::new(3), NodeId::new(2), Cost::new(1.0));
//!
//! let sp = ShortestPaths::from_source(&g, NodeId::new(0));
//! assert_eq!(sp.dist(NodeId::new(2)), Cost::new(2.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod dijkstra;
mod dreyfus_wagner;
mod engine;
pub mod generators;
mod graph;
mod ids;
mod queue;
mod rng;
mod unionfind;

pub use cost::Cost;
pub use dijkstra::{DijkstraWorkspace, NearestTarget, ShortestPaths};
pub use dreyfus_wagner::{
    steiner_arborescence, SteinerArborescence, SteinerDpError, MAX_DW_TERMINALS,
};
pub use engine::{BoundedWork, PathEngine, PathEngineStats, RootedTree};
pub use generators::CostRange;
pub use graph::{Edge, Graph};
pub use ids::{EdgeId, NodeId};
pub use rng::Rng64;
pub use unionfind::UnionFind;
