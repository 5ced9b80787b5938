//! Subscriber/sink metric layer: incremental typed records instead of one
//! end-of-run report.
//!
//! The runner pushes every [`Record`] to its [`Sink`] the moment it is
//! produced, so a churn-at-scale run emits its metrics while
//! it executes and retains only the open window's accumulators — O(1) in
//! the event count. Records are typed and this crate knows no output
//! format: [`CollectSink`] buffers them for tests and report building,
//! and `sof_spec::sink::JsonlSink` writes the JSON lines the golden tests
//! diff.
//!
//! Wall-clock fields (`millis`) are `None` unless the runner was built
//! with timings enabled, so the default record stream is deterministic for
//! a fixed seed at any thread count.

use crate::ward::StopReason;
use sof_graph::PathEngineStats;
use std::io;
use std::sync::{Arc, Mutex};

/// Cumulative failure-subsystem counters carried by window records (only
/// present when the run has a failure plan).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FailureTotals {
    /// Element failures applied so far.
    pub fail_events: u64,
    /// Element repairs applied so far.
    pub repair_events: u64,
    /// Session disruptions (a failure that broke ≥ 1 standing walk) so far.
    pub disruptions: u64,
    /// Slots currently dark, waiting on a deferred (reactive) rebuild.
    pub pending: u64,
}

/// One element failing or being repaired (only emitted when the run has a
/// failure plan).
#[derive(Clone, Debug, PartialEq)]
pub struct FailureRecord {
    /// Global event sequence number at emission time (failure records sit
    /// between rounds, so consecutive records may share a `seq`).
    pub seq: u64,
    /// Failure-process round the event belongs to.
    pub round: u64,
    /// `"fail"` or `"repair"`.
    pub action: &'static str,
    /// The element, in `ElementRef` display form (`link:3-7`, `vm:12`,
    /// `node:5`, `domain:us-east`).
    pub element: String,
    /// Destinations across all live groups whose walks this element's
    /// failure broke (0 for repairs).
    pub disrupted: u64,
    /// Round the element's repair is scheduled for (`None` = never, and
    /// for repair records).
    pub repair_at: Option<u64>,
}

/// One per-round recovery outcome, emitted after a round's failures were
/// applied and every affected session answered (only when ≥ 1 session was
/// disrupted).
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryRecord {
    /// Global event sequence number at emission time.
    pub seq: u64,
    /// Failure-process round.
    pub round: u64,
    /// The protection policy that answered (spec name).
    pub policy: &'static str,
    /// Destinations disrupted this round, across all sessions.
    pub disrupted: u64,
    /// Destinations reattached within the round (backup/standby).
    pub recovered: u64,
    /// Cost of the reconfigurations installed now (0 for standby swaps
    /// and for deferred reactive rebuilds).
    pub cost: f64,
    /// Sessions left dark for a deferred (reactive) rebuild.
    pub pending: u64,
}

/// End-of-run recovery/availability totals (only present when the run has
/// a failure plan).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RecoverySummary {
    /// Element failures applied.
    pub fail_events: u64,
    /// Element repairs applied.
    pub repair_events: u64,
    /// Session disruptions.
    pub disruptions: u64,
    /// Disruptions recovered within their failure round.
    pub immediate: u64,
    /// Disruptions whose recovery completed (immediate or deferred).
    pub recoveries: u64,
    /// Mean cost per completed recovery.
    pub mean_recovery_cost: f64,
    /// Mean group events until service was restored.
    pub mean_events_to_restore: f64,
    /// Fraction of destination×round samples spent connected.
    pub availability: f64,
}

/// One windowed aggregate over `events` consecutive events.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowRecord {
    /// Zero-based window index.
    pub index: u64,
    /// Events aggregated in this window.
    pub events: u64,
    /// Cumulative events at window close.
    pub total_events: u64,
    /// Live groups (slots) at window close.
    pub active: usize,
    /// Cumulative groups retired at window close.
    pub retired: u64,
    /// Cumulative failed embeds at window close.
    pub errors: u64,
    /// Full solver runs in this window (initial embeds + drift rebuilds).
    pub full_solves: u64,
    /// Events served purely incrementally in this window.
    pub incremental: u64,
    /// Viewers joined in this window.
    pub joins: u64,
    /// Viewers removed in this window.
    pub leaves: u64,
    /// Mean standing-forest cost over this window's events.
    pub mean_cost: f64,
    /// Total accumulated embedding cost (retired groups included).
    pub accumulated_cost: f64,
    /// Cumulative `PathEngine` cache counters at window close, summed over
    /// every session the run has stepped (retired sessions included).
    pub engine: PathEngineStats,
    /// Cumulative failure-subsystem counters at window close (failure
    /// plans only).
    pub failures: Option<FailureTotals>,
    /// Wall-clock milliseconds spent embedding this window's events
    /// (timings mode only).
    pub millis: Option<f64>,
}

/// One per-event record (only emitted when the runner is configured with
/// `emit_events`).
#[derive(Clone, Debug, PartialEq)]
pub struct EventRecord {
    /// Zero-based global event sequence number.
    pub seq: u64,
    /// Pool slot that processed the event.
    pub slot: usize,
    /// Global id of the group living in that slot.
    pub group: u64,
    /// Whether this was the group's initial embed.
    pub initial: bool,
    /// Viewer count after the event.
    pub viewers: usize,
    /// Viewers joined incrementally.
    pub joined: usize,
    /// Viewers removed incrementally.
    pub left: usize,
    /// Whether the solver ran from scratch.
    pub rebuilt: bool,
    /// Standing forest cost after the event.
    pub cost: f64,
    /// Wall-clock milliseconds spent embedding (timings mode only).
    pub millis: Option<f64>,
}

/// End-of-run totals.
#[derive(Clone, Debug, PartialEq)]
pub struct SummaryRecord {
    /// Total events processed.
    pub events: u64,
    /// Windows emitted.
    pub windows: u64,
    /// Distinct groups created over the run.
    pub groups_seen: u64,
    /// Groups retired over the run.
    pub retired: u64,
    /// Failed embeds over the run.
    pub errors: u64,
    /// Total accumulated embedding cost.
    pub accumulated_cost: f64,
    /// Which stop condition ended the run.
    pub stop: StopReason,
    /// Recovery/availability totals (failure plans only).
    pub recovery: Option<RecoverySummary>,
    /// Total wall-clock milliseconds (timings mode only).
    pub millis: Option<f64>,
}

/// A record pushed to the sink, in emission order: one `Meta`, then
/// interleaved `Event`/`Window` records, then one `Summary`.
#[derive(Clone, Debug, PartialEq)]
pub enum Record {
    /// Run header.
    Meta {
        /// Run (preset) name.
        name: String,
        /// Concurrent groups (pool slots).
        groups: usize,
        /// Region names, in region-index order.
        regions: Vec<String>,
        /// Run seed.
        seed: u64,
        /// Solver registry name.
        solver: String,
        /// Events per window.
        window: u64,
        /// The event budget (a [`crate::Runner`] always sets it).
        events_target: Option<u64>,
        /// The protection policy, when the run has a failure plan.
        policy: Option<String>,
    },
    /// Windowed aggregate.
    Window(WindowRecord),
    /// Per-event sample.
    Event(EventRecord),
    /// One element failing or being repaired.
    Failure(FailureRecord),
    /// One round's recovery outcome.
    Recovery(RecoveryRecord),
    /// End-of-run totals.
    Summary(SummaryRecord),
}

/// Receives the runner's record stream incrementally.
pub trait Sink: Send {
    /// Handles one record. Errors abort the run.
    fn record(&mut self, record: &Record) -> io::Result<()>;

    /// Flushes any buffering (called at window boundaries and at the end
    /// of the run).
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Buffers every record behind a shared handle (tests, report building).
pub struct CollectSink {
    records: Arc<Mutex<Vec<Record>>>,
}

impl CollectSink {
    /// Creates the sink and the handle its records can be read through
    /// after (or during) the run.
    pub fn new() -> (CollectSink, Arc<Mutex<Vec<Record>>>) {
        let records = Arc::new(Mutex::new(Vec::new()));
        (
            CollectSink {
                records: Arc::clone(&records),
            },
            records,
        )
    }
}

impl Sink for CollectSink {
    fn record(&mut self, record: &Record) -> io::Result<()> {
        self.records
            .lock()
            .expect("collect sink poisoned")
            .push(record.clone());
        Ok(())
    }
}
