//! # sof-sdn — SDN control plane for service overlay forests
//!
//! Two pieces of the paper's system story:
//!
//! * [`RuleTable`] — compiles a [`sof_core::ServiceForest`] into
//!   OpenFlow-style per-switch multicast rules with segment tags and VNF
//!   processing actions, plus TCAM accounting and a data-plane delivery
//!   check (the packets really reach every destination fully processed).
//! * [`distributed_sofda`] — §VI's multi-controller deployment: controllers
//!   own domains and send the leader their border distance matrices, the
//!   leader solves SOFDA on the assembled abstract graph, and selected
//!   virtual links are expanded back by their owning controllers. The
//!   controllers are plain values the leader calls in process, and every
//!   call is counted as the east-west messages it stands for.
//!
//! # Examples
//!
//! ```
//! use sof_core::{Network, Request, ServiceChain, SofInstance, SofdaConfig, solve_sofda};
//! use sof_graph::{Graph, Cost, NodeId};
//! use sof_sdn::RuleTable;
//!
//! let mut g = Graph::with_nodes(4);
//! for i in 0..3 {
//!     g.add_edge(NodeId::new(i), NodeId::new(i + 1), Cost::new(1.0));
//! }
//! let mut net = Network::all_switches(g);
//! net.make_vm(NodeId::new(1), Cost::new(1.0));
//! let inst = SofInstance::new(
//!     net,
//!     Request::new(vec![NodeId::new(0)], vec![NodeId::new(3)], ServiceChain::with_len(1)),
//! )?;
//! let out = solve_sofda(&inst, &SofdaConfig::default())?;
//! let table = RuleTable::compile(&out.forest);
//! assert!(table.delivers(&inst.network, &out.forest));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod distributed;
mod rules;

pub use distributed::{distributed_sofda, DistributedOutcome, DistributedSofda};
pub use rules::{FlowRule, RuleTable};
