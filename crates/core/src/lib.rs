//! # sof-core — Service Overlay Forest embedding
//!
//! Reproduction of the core contribution of *"Service Overlay Forest
//! Embedding for Software-Defined Cloud Networks"* (ICDCS 2017): given a
//! cloud network with VMs and switches, a set of candidate sources, a set of
//! multicast destinations and a demanded VNF chain, construct a minimum-cost
//! **service overlay forest** — one service tree per used source, where the
//! path to every destination traverses the chain's VNFs in order on selected
//! VMs.
//!
//! The crate provides:
//!
//! * the instance model ([`Network`], [`ServiceChain`], [`Request`],
//!   [`SofInstance`]),
//! * the forest representation with the paper's IP-faithful cost accounting
//!   and a strict feasibility validator ([`ServiceForest`], [`DestWalk`]),
//! * [`solve_sofda_ss`] — Algorithm 1, the `(2+ρST)`-approximation for a
//!   single source,
//! * [`solve_sofda`] — Algorithm 2, the `3ρST`-approximation for the general
//!   case, including Procedure 3's auxiliary graph and Procedure 4's VNF
//!   conflict resolution ([`WalkSet`]),
//! * the Procedure 1 graph transformation ([`ChainMetric`], Lemma 1),
//! * the convex load-cost model of §VII-B ([`fortz_thorup`], [`LoadTracker`])
//!   and the dynamic-membership operations of §VII-C ([`dynamics`]),
//! * the object-safe [`Solver`] trait unifying every embedding algorithm
//!   (implemented here for [`Sofda`] and [`SofdaSs`]; baselines, the exact
//!   solver and distributed SOFDA implement it in their own crates — the
//!   `sof_solvers` registry collects them all),
//! * the incremental [`OnlineSession`] engine powering the online
//!   deployment scenario (Fig. 12): standing forest, congestion-aware
//!   costs, §VII-C incremental re-embedding with a drift-bounded rebuild
//!   fallback, stepped by one [`SessionEvent`] at a time through
//!   [`OnlineSession::apply`],
//! * [`SessionPool`] — many independent online sessions stepped
//!   concurrently on `sof_par` workers with bit-identical,
//!   thread-count-independent results.
//!
//! # Examples
//!
//! ```
//! use sof_core::{Network, Request, ServiceChain, SofInstance, SofdaConfig, solve_sofda};
//! use sof_graph::{Graph, Cost, NodeId};
//!
//! // A small ring with two VMs, two sources and two destinations.
//! let mut g = Graph::with_nodes(8);
//! for i in 0..8 {
//!     g.add_edge(NodeId::new(i), NodeId::new((i + 1) % 8), Cost::new(1.0));
//! }
//! let mut net = Network::all_switches(g);
//! net.make_vm(NodeId::new(2), Cost::new(1.0));
//! net.make_vm(NodeId::new(6), Cost::new(1.0));
//! let inst = SofInstance::new(
//!     net,
//!     Request::new(
//!         vec![NodeId::new(0), NodeId::new(4)],
//!         vec![NodeId::new(3), NodeId::new(7)],
//!         ServiceChain::from_names(["transcode"]),
//!     ),
//! )?;
//! let out = solve_sofda(&inst, &SofdaConfig::default())?;
//! out.forest.validate(&inst)?;
//! println!("forest cost: {}", out.cost);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod conflict;
mod cost_model;
pub mod dynamics;
pub mod faults;
mod forest;
mod instance;
mod online;
mod pool;
mod sofda;
mod sofda_ss;
mod solver;
mod transform;

pub use config::{SofdaConfig, SolveError, SolveOutcome, SolveStats};
pub use conflict::{ChainWalk, ConflictError, ConflictStats, WalkSet};
pub use cost_model::{fortz_thorup, LoadTracker, LINK_CAPACITY_MBPS, VM_CAPACITY_VNFS};
pub use dynamics::JoinStrategy;
pub use faults::{Element, Faults, FAILED_COST};
pub use forest::{DestWalk, ForestCost, ForestError, ForestStats, ServiceForest};
pub use instance::{InstanceError, Network, NodeKind, Request, ServiceChain, SofInstance};
pub use online::{
    Applied, ArrivalReport, EmbedMode, OnlineConfig, OnlineSession, OnlineStats, SessionEvent,
};
pub use pool::SessionPool;
pub use sof_kstroll::SearchContext;
pub use sofda::solve_sofda;
pub use sofda_ss::solve_sofda_ss;
pub use solver::{Sofda, SofdaSs, Solver};
pub use transform::{ChainMetric, VmBlock};
