//! # sof-survive — the survivability subsystem
//!
//! Failure as a first-class, deterministic citizen of the stack: seeded
//! **failure processes** produce timed link/node/VM/domain failure events
//! with repair times; **protection policies** decide how a standing
//! [`sof_core::OnlineSession`] recovers; **recovery metrics** price each
//! recovery and summarize availability. [`FailureRounds`] ties them
//! together: it steps a whole [`sof_core::SessionPool`] through one round
//! at a time — repairs, prewarm, failures, one recovery per disrupted slot
//! — and is the one failure path of every driver (`sof_runner`'s
//! churn-at-scale rounds, `sof_spec`'s online arrivals).
//!
//! The design invariants:
//!
//! * **Determinism.** A failure trace is a pure function of
//!   `(seed, plan, universe)`. The [`FailureDriver`] consumes its RNG
//!   stream in a fixed order regardless of simulation state, and repair
//!   times are drawn by the process — never by the policy — so comparing
//!   policies on "the same failure trace" is exact, not approximate.
//! * **Symbolic elements.** An [`ElementRef`] names base-topology
//!   elements (`link:3-7`, `domain:us-east`), so one trace applies
//!   identically to every group instance built from that base.
//! * **Honest pricing.** Recovery cost counts the reconfiguration a
//!   policy installs *at recovery time*: a full rebuild for
//!   [`ProtectionPolicy::Reactive`], the attachment walks for
//!   [`ProtectionPolicy::BackupPaths`], and zero for a
//!   [`ProtectionPolicy::StandbyForest`] pointer swap — whose solve cost
//!   is paid in advance as maintenance, which is the whole point of
//!   pre-provisioned protection.
//!
//! ```
//! use sof_survive::{ElementRef, FailureDriver, FailurePlan, ProcessKind, ProtectionPolicy};
//!
//! let plan = FailurePlan {
//!     process: ProcessKind::Poisson { rate: 0.05 },
//!     scope: vec!["link".into()],
//!     repair: (2, 6),
//!     policy: ProtectionPolicy::StandbyForest,
//!     seed: 97,
//! };
//! plan.validate()?;
//! let universe: Vec<ElementRef> = (0..10).map(|i| ElementRef::link(i, i + 1)).collect();
//! let mut driver = FailureDriver::new(&plan, universe);
//! for round in 0..50 {
//!     let events = driver.advance(round);
//!     for (element, repair_at) in &events.failures {
//!         println!("round {round}: {element} fails (repair {repair_at:?})");
//!     }
//! }
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod element;
mod metrics;
mod policy;
mod process;
mod round;

pub use element::ElementRef;
pub use metrics::RecoveryMetrics;
pub use policy::{universe_for_scopes, ProtectionPolicy, Protector, RecoveryOutcome};
pub use process::{
    FailureDriver, FailurePlan, FailureSpec, ProcessKind, RoundEvents, ScriptedEvent,
};
pub use round::{FailureRounds, RoundReport};
