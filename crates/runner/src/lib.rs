//! Streaming churn-at-scale simulation: 10k+ concurrent multicast groups,
//! millions of viewer events, bounded memory.
//!
//! The paper's §VII-C dynamics (fig12) step a handful of
//! [`sof_core::OnlineSession`]s over a few hundred pre-drawn events. This
//! crate is the production-scale counterpart: a [`Runner`] drives a
//! [`sof_core::SessionPool`] over a **lazily generated** event timeline —
//! the event list is never materialized, and no end-of-run report is
//! accumulated. Three pieces compose:
//!
//! * **Lazy per-group event streams** ([`GroupProcess`]): every group's
//!   history (home region, roamed viewer pool, initial snapshot, churn
//!   snapshots, lifetime) is a pure function of `(run_seed, group_id)`,
//!   drawn on demand from [`sof_sim::ChurnStream`] over a region-local
//!   node pool. Retired groups are replaced in their pool slot by fresh
//!   ones, so concurrency stays constant forever.
//! * **One stop rule**, checked between lockstep rounds: the run ends on
//!   its deterministic event budget ([`RunnerConfig::events`]), on the
//!   windowed mean forest cost settling ([`Converge`]), or on a wall-clock
//!   safety net ([`RunnerConfig::max_seconds`]), whichever comes first
//!   ([`StopReason`]).
//! * **One sink** ([`Sink`]): a subscriber that receives every [`Record`]
//!   (meta, per-event samples, windowed aggregates, summary) the moment
//!   it is produced. Records are typed — this crate knows no output
//!   format (`sof_spec::sink` renders them as the golden JSON lines);
//!   [`CollectSink`] buffers them. [`Runner::run`] returns the
//!   [`SummaryRecord`] it emitted last, whose `recovery` is the run's
//!   [`sof_survive::RecoveryMetrics`] as they stand.
//!
//! [`RunnerConfig`] is the one declaration of a run: `sof_spec` reads a
//! churn-at-scale `[workload]` table straight into it, and
//! [`RunnerConfig::validate`] holds every rule such a table is held to.
//!
//! Stepping is lockstep: each round, every live slot pulls one event from
//! its group's stream and the pool arrives them via order-preserving
//! `sof_par` workers — results and record streams are bit-identical for
//! any `SOF_THREADS`. Memory is O(groups + open window), independent of
//! the event count.
//!
//! # Examples
//!
//! ```
//! use sof_runner::{CollectSink, Record, Runner, RunnerConfig};
//!
//! let cfg = RunnerConfig {
//!     name: "doc".into(),
//!     groups: 4,
//!     window: 8,
//!     events: 16,
//!     ..RunnerConfig::default()
//! };
//! let (sink, records) = CollectSink::new();
//! let runner = Runner::new(cfg, Box::new(sink)).unwrap();
//! let summary = runner.run().unwrap();
//! assert_eq!(summary.events, 16);
//! let records = records.lock().unwrap();
//! assert!(matches!(records.first(), Some(Record::Meta { .. })));
//! assert_eq!(records.last(), Some(&Record::Summary(summary)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod events;
mod runner;
mod sink;
mod ward;

pub use events::{GroupChurnConfig, GroupEvent, GroupProcess};
pub use runner::{Runner, RunnerConfig};
pub use sink::{
    CollectSink, EventRecord, FailureRecord, FailureTotals, Record, RecoveryRecord, Sink,
    SummaryRecord, WindowRecord,
};
pub use ward::{Converge, StopReason};
