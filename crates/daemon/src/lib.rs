//! # sofd — the long-running embedding daemon
//!
//! The paper casts the SOF controller as a long-lived SDN service that
//! admits multicast groups online; this crate is that service. It wraps
//! the deterministic library — [`sof_core::OnlineSession`] driving any
//! registered solver over a warm `PathEngine` — in a JSON control plane
//! served over a hand-rolled, dependency-free HTTP/1.1 layer on
//! [`std::net::TcpListener`] (the same vendored-stand-in discipline that
//! made `sof_spec` hand-roll TOML/JSON).
//!
//! ## Wire API
//!
//! | Method & path                   | Does |
//! |---------------------------------|------|
//! | `POST /v1/topologies`           | register a named or multi-region topology |
//! | `POST /v1/sessions`             | embed a new group (first [`sof_core::ArrivalReport`]) |
//! | `GET /v1/sessions/{id}`         | session state + lifetime counters |
//! | `POST /v1/sessions/{id}/join`   | incremental §VII-C destination join |
//! | `POST /v1/sessions/{id}/leave`  | incremental destination leave |
//! | `POST /v1/sessions/{id}/fail`   | fail a VM, link, node or domain (optionally scheduling its repair); a disrupted forest is dropped and the next join rebuilds it |
//! | `POST /v1/sessions/{id}/repair` | repair a failed element now |
//! | `DELETE /v1/sessions/{id}`      | tear the session down |
//! | `GET /healthz`                  | liveness |
//! | `GET /v1/stats`                 | request/error totals, engine counters, per-session costs |
//! | `POST /v1/shutdown`             | request a graceful stop |
//!
//! See `docs/DAEMON.md` for JSON shapes and error semantics. Robustness
//! is first-class: bounded request bodies, per-request socket timeouts,
//! 4xx with actionable messages for every malformed request (handler
//! panics become 500s, never a dead connection thread), a janitor thread
//! expiring sessions past their TTL, and graceful shutdown that drains
//! in-flight connections before returning.
//!
//! # Examples
//!
//! ```
//! use sof_daemon::{Client, Server, ServerConfig};
//!
//! let handle = Server::start(ServerConfig::default())?; // 127.0.0.1:0
//! let mut client = Client::new(handle.addr());
//! let (status, body) = client.request("GET", "/healthz", "")?;
//! assert_eq!(status, 200);
//! assert!(body.contains("\"ok\":true"));
//! handle.stop(); // graceful: drains in-flight connections
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod registry;
pub mod router;
pub mod server;
pub mod wire;

pub use client::Client;
pub use registry::Registry;
pub use server::{Server, ServerConfig, ServerHandle};
pub use wire::{ApiError, Body};
