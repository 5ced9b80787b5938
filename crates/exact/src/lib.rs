//! # sof-exact — exact SOF solver (the paper's "CPLEX" column)
//!
//! The evaluation of the ICDCS'17 SOF paper compares SOFDA against optimal
//! solutions from CPLEX on its IP formulation. This crate reproduces that
//! reference point without a commercial solver:
//!
//! * the layered graph — the network expanded into `|C|+1` layers where a
//!   minimum directed Steiner arborescence equals an optimal forest relaxed
//!   of the one-VNF-per-VM constraint,
//! * its relaxation — `sof_graph`'s Dreyfus–Wagner DP
//!   ([`sof_graph::steiner_arborescence`]) over destination subsets, with
//!   the layered graph's incoming arcs as its view and the
//!   branch-and-bound's restrictions as its arc filter, memoized per
//!   canonical restriction set,
//! * [`solve_exact`] — branch-and-bound on violated VMs, restoring IP
//!   constraint (6) and yielding the true optimum (plus a lower bound);
//!   it branches on the VM processing the most layers, ties going to the
//!   highest VM index; child branches fork across `sof_par` workers
//!   sharing an atomic incumbent bound, with bit-identical results for any
//!   thread count and run ([`solve_exact_with`] takes the count
//!   explicitly),
//! * [`IpFormulation`] — the paper's IP built explicitly: variable /
//!   constraint counting and full constraint checking of any
//!   [`sof_core::ServiceForest`],
//! * [`ExactSolver`] — the [`sof_core::Solver`]-trait adapter used by the
//!   solver registry and the evaluation's "CPLEX" column, on the
//!   destination-count budget schedule [`ExactSolver::auto_budget`].
//!
//! # Examples
//!
//! ```
//! use sof_core::{Network, Request, ServiceChain, SofInstance};
//! use sof_exact::solve_exact;
//! use sof_graph::{Graph, Cost, NodeId};
//!
//! let mut g = Graph::with_nodes(4);
//! for i in 0..3 {
//!     g.add_edge(NodeId::new(i), NodeId::new(i + 1), Cost::new(1.0));
//! }
//! let mut net = Network::all_switches(g);
//! net.make_vm(NodeId::new(1), Cost::new(5.0));
//! net.make_vm(NodeId::new(2), Cost::new(1.0));
//! let inst = SofInstance::new(
//!     net,
//!     Request::new(vec![NodeId::new(0)], vec![NodeId::new(3)], ServiceChain::with_len(2)),
//! )?;
//! let out = solve_exact(&inst, 200)?;
//! assert!(out.optimal);
//! assert_eq!(out.cost, Cost::new(9.0));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bb;
mod budget;
mod dw;
mod ip;
mod layered;

pub use bb::{solve_exact, solve_exact_with, ExactError, ExactOutcome};
pub use budget::ExactSolver;
pub use ip::{IpFormulation, IpSize};
