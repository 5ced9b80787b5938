//! # sof-sim — flow-level network simulation for the SOF reproduction
//!
//! The paper's Table II measures video QoE (startup latency, rebuffering)
//! on an HP OpenFlow testbed and on Emulab. This crate substitutes those
//! testbeds with a deterministic simulator (DESIGN.md §5.5):
//!
//! * [`max_min_rates`] — progressive-filling max-min fair bandwidth sharing
//!   across flows on capacitated links,
//! * [`simulate_sessions`] — concurrent video downloads over an embedded
//!   forest's paths, replayed against a player-buffer model
//!   ([`PlayerConfig`]) to produce [`Qoe`] per viewer, with
//!   [`EnvironmentProfile`] capturing the "Ours" vs "Emulab" overhead split,
//! * [`RequestStream`] — the online-deployment workload of Fig. 12,
//! * [`ChurnStream`] — viewer-churn snapshots of one long-lived group, the
//!   workload driving the incremental `OnlineSession` engine.
//!
//! # Examples
//!
//! ```
//! use sof_sim::{simulate_sessions, Session, PlayerConfig, EnvironmentProfile};
//! use sof_graph::EdgeId;
//! use std::collections::HashMap;
//!
//! let mut caps = HashMap::new();
//! caps.insert(EdgeId::new(0), 9.0); // Mbps
//! let sessions = vec![Session { links: vec![EdgeId::new(0)] }];
//! let qoe = simulate_sessions(
//!     &sessions,
//!     &caps,
//!     &PlayerConfig::default(),
//!     &EnvironmentProfile::emulab(),
//!     1.25,
//! );
//! assert!(qoe[0].startup_latency_s > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod flow;
mod video;
mod workload;

pub use flow::{max_min_rates, Flow};
pub use video::{simulate_sessions, EnvironmentProfile, PlayerConfig, Qoe, Session};
pub use workload::{ChurnParams, ChurnStream, RequestStream, WorkloadParams};
