//! Subscriber/sink metric layer: incremental JSONL records instead of one
//! end-of-run report.
//!
//! The runner pushes every [`Record`] to each attached [`Sink`] the
//! moment it is produced, so a churn-at-scale run emits its metrics while
//! it executes and retains only the open window's accumulators — O(1) in
//! the event count. [`JsonlSink`] writes the stable line format the
//! golden tests diff; [`CollectSink`] buffers records for tests; channel
//! subscribers (see [`Runner::subscribe`](crate::Runner::subscribe))
//! receive clones of the same stream.
//!
//! Wall-clock fields (`millis`) are `None` unless the runner was built
//! with timings enabled, so the default record stream — and therefore the
//! JSONL bytes — is deterministic for a fixed seed at any thread count.

use crate::ward::StopReason;
use sof_graph::PathEngineStats;
use std::io::{self, Write};
use std::sync::mpsc::Sender;
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
    /// Which ward (or stop request) ended the run.
    pub stop: StopReason,
    /// Recovery/availability totals (failure plans only).
    pub recovery: Option<RecoverySummary>,
    /// Total wall-clock milliseconds (timings mode only).
    pub millis: Option<f64>,
}

/// A record pushed to every sink, in emission order: one `Meta`, then
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
        /// The `MaxEvents` ward budget, if one is set.
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

impl Record {
    /// Renders the record as one JSON line (no trailing newline). Key
    /// order is fixed; `millis` fields are omitted when `None`, so
    /// default-mode output is byte-stable.
    pub fn to_json(&self) -> String {
        match self {
            Record::Meta {
                name,
                groups,
                regions,
                seed,
                solver,
                window,
                events_target,
                policy,
            } => {
                let regions = regions
                    .iter()
                    .map(|r| quote(r))
                    .collect::<Vec<_>>()
                    .join(",");
                let target = match events_target {
                    Some(t) => t.to_string(),
                    None => "null".into(),
                };
                let mut line = format!(
                    "{{\"type\":\"meta\",\"subsystem\":\"churn-at-scale\",\"name\":{},\
                     \"groups\":{groups},\"regions\":[{regions}],\"seed\":{seed},\
                     \"solver\":{},\"window\":{window},\"events_target\":{target}",
                    quote(name),
                    quote(solver),
                );
                if let Some(p) = policy {
                    line.push_str(&format!(",\"policy\":{}", quote(p)));
                }
                line.push('}');
                line
            }
            Record::Window(w) => {
                let mut line = format!(
                    "{{\"type\":\"window\",\"index\":{},\"events\":{},\"total_events\":{},\
                     \"active\":{},\"retired\":{},\"errors\":{},\"full_solves\":{},\
                     \"incremental\":{},\"joins\":{},\"leaves\":{},\"mean_cost\":{},\
                     \"accumulated_cost\":{},\"engine_hits\":{},\"engine_misses\":{},\
                     \"engine_stale\":{},\"engine_repairs\":{}",
                    w.index,
                    w.events,
                    w.total_events,
                    w.active,
                    w.retired,
                    w.errors,
                    w.full_solves,
                    w.incremental,
                    w.joins,
                    w.leaves,
                    float(w.mean_cost),
                    float(w.accumulated_cost),
                    w.engine.hits,
                    w.engine.misses,
                    w.engine.stale,
                    w.engine.repairs,
                );
                if let Some(f) = &w.failures {
                    line.push_str(&format!(
                        ",\"fail_events\":{},\"repair_events\":{},\"disruptions\":{},\
                         \"pending\":{}",
                        f.fail_events, f.repair_events, f.disruptions, f.pending,
                    ));
                }
                push_millis(&mut line, w.millis);
                line.push('}');
                line
            }
            Record::Event(e) => {
                let mut line = format!(
                    "{{\"type\":\"event\",\"seq\":{},\"slot\":{},\"group\":{},\"kind\":{},\
                     \"viewers\":{},\"joined\":{},\"left\":{},\"rebuilt\":{},\"cost\":{}",
                    e.seq,
                    e.slot,
                    e.group,
                    if e.initial {
                        "\"initial\""
                    } else {
                        "\"churn\""
                    },
                    e.viewers,
                    e.joined,
                    e.left,
                    e.rebuilt,
                    float(e.cost),
                );
                push_millis(&mut line, e.millis);
                line.push('}');
                line
            }
            Record::Failure(f) => {
                let repair = match f.repair_at {
                    Some(r) => r.to_string(),
                    None => "null".into(),
                };
                format!(
                    "{{\"type\":\"failure\",\"seq\":{},\"round\":{},\"action\":\"{}\",\
                     \"element\":{},\"disrupted\":{},\"repair_at\":{repair}}}",
                    f.seq,
                    f.round,
                    f.action,
                    quote(&f.element),
                    f.disrupted,
                )
            }
            Record::Recovery(r) => {
                format!(
                    "{{\"type\":\"recovery\",\"seq\":{},\"round\":{},\"policy\":\"{}\",\
                     \"disrupted\":{},\"recovered\":{},\"cost\":{},\"pending\":{}}}",
                    r.seq,
                    r.round,
                    r.policy,
                    r.disrupted,
                    r.recovered,
                    float(r.cost),
                    r.pending,
                )
            }
            Record::Summary(s) => {
                let mut line = format!(
                    "{{\"type\":\"summary\",\"events\":{},\"windows\":{},\"groups_seen\":{},\
                     \"retired\":{},\"errors\":{},\"accumulated_cost\":{},\"stop\":\"{}\"",
                    s.events,
                    s.windows,
                    s.groups_seen,
                    s.retired,
                    s.errors,
                    float(s.accumulated_cost),
                    s.stop.as_str(),
                );
                if let Some(r) = &s.recovery {
                    line.push_str(&format!(
                        ",\"fail_events\":{},\"repair_events\":{},\"disruptions\":{},\
                         \"immediate\":{},\"recoveries\":{},\"mean_recovery_cost\":{},\
                         \"mean_events_to_restore\":{},\"availability\":{}",
                        r.fail_events,
                        r.repair_events,
                        r.disruptions,
                        r.immediate,
                        r.recoveries,
                        float(r.mean_recovery_cost),
                        float(r.mean_events_to_restore),
                        float(r.availability),
                    ));
                }
                push_millis(&mut line, s.millis);
                line.push('}');
                line
            }
        }
    }
}

fn push_millis(line: &mut String, millis: Option<f64>) {
    if let Some(ms) = millis {
        line.push_str(&format!(",\"millis\":{}", float(ms)));
    }
}

/// Shortest round-trip float, valid JSON (mirrors `sof_spec`'s format so
/// the two JSONL dialects agree byte-for-byte on numbers).
fn float(f: f64) -> String {
    if f.is_finite() {
        format!("{f:?}")
    } else {
        "null".into()
    }
}

/// JSON string quoting (mirrors `sof_spec::quote_string`).
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
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

/// Writes each record as one JSON line the moment it arrives.
pub struct JsonlSink<W: Write + Send> {
    out: W,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps a writer (pair with `BufWriter` for event-mode runs).
    pub fn new(out: W) -> JsonlSink<W> {
        JsonlSink { out }
    }
}

impl<W: Write + Send> Sink for JsonlSink<W> {
    fn record(&mut self, record: &Record) -> io::Result<()> {
        self.out.write_all(record.to_json().as_bytes())?;
        self.out.write_all(b"\n")
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
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

/// Forwards records to an `mpsc` channel; a dropped receiver is ignored
/// so an abandoned subscriber never aborts the run.
pub(crate) struct ChannelSink {
    pub(crate) tx: Sender<Record>,
}

impl Sink for ChannelSink {
    fn record(&mut self, record: &Record) -> io::Result<()> {
        let _ = self.tx.send(record.clone());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_lines_are_stable() {
        let meta = Record::Meta {
            name: "t".into(),
            groups: 4,
            regions: vec!["a".into(), "b".into()],
            seed: 7,
            solver: "SOFDA".into(),
            window: 8,
            events_target: Some(40),
            policy: None,
        };
        assert_eq!(
            meta.to_json(),
            "{\"type\":\"meta\",\"subsystem\":\"churn-at-scale\",\"name\":\"t\",\"groups\":4,\
             \"regions\":[\"a\",\"b\"],\"seed\":7,\"solver\":\"SOFDA\",\"window\":8,\
             \"events_target\":40}"
        );
        let win = Record::Window(WindowRecord {
            index: 0,
            events: 8,
            total_events: 8,
            active: 4,
            retired: 1,
            errors: 0,
            full_solves: 4,
            incremental: 4,
            joins: 5,
            leaves: 3,
            mean_cost: 12.5,
            accumulated_cost: 100.0,
            engine: PathEngineStats {
                hits: 9,
                misses: 2,
                stale: 1,
                repairs: 1,
                ..PathEngineStats::default()
            },
            failures: None,
            millis: None,
        });
        assert_eq!(
            win.to_json(),
            "{\"type\":\"window\",\"index\":0,\"events\":8,\"total_events\":8,\"active\":4,\
             \"retired\":1,\"errors\":0,\"full_solves\":4,\"incremental\":4,\"joins\":5,\
             \"leaves\":3,\"mean_cost\":12.5,\"accumulated_cost\":100.0,\"engine_hits\":9,\
             \"engine_misses\":2,\"engine_stale\":1,\"engine_repairs\":1}"
        );
        let ev = Record::Event(EventRecord {
            seq: 3,
            slot: 1,
            group: 9,
            initial: true,
            viewers: 5,
            joined: 0,
            left: 0,
            rebuilt: true,
            cost: 4.0,
            millis: Some(1.25),
        });
        assert_eq!(
            ev.to_json(),
            "{\"type\":\"event\",\"seq\":3,\"slot\":1,\"group\":9,\"kind\":\"initial\",\
             \"viewers\":5,\"joined\":0,\"left\":0,\"rebuilt\":true,\"cost\":4.0,\
             \"millis\":1.25}"
        );
        let sum = Record::Summary(SummaryRecord {
            events: 40,
            windows: 5,
            groups_seen: 6,
            retired: 2,
            errors: 0,
            accumulated_cost: 321.0,
            stop: StopReason::MaxEvents,
            recovery: None,
            millis: None,
        });
        assert_eq!(
            sum.to_json(),
            "{\"type\":\"summary\",\"events\":40,\"windows\":5,\"groups_seen\":6,\"retired\":2,\
             \"errors\":0,\"accumulated_cost\":321.0,\"stop\":\"max-events\"}"
        );
    }

    #[test]
    fn failure_subsystem_record_lines_are_stable() {
        let meta = Record::Meta {
            name: "t".into(),
            groups: 4,
            regions: vec!["a".into()],
            seed: 7,
            solver: "SOFDA".into(),
            window: 8,
            events_target: Some(40),
            policy: Some("standby-forest".into()),
        };
        assert!(
            meta.to_json()
                .ends_with("\"events_target\":40,\"policy\":\"standby-forest\"}"),
            "{}",
            meta.to_json()
        );
        let fail = Record::Failure(FailureRecord {
            seq: 12,
            round: 3,
            action: "fail",
            element: "link:3-7".into(),
            disrupted: 2,
            repair_at: Some(9),
        });
        assert_eq!(
            fail.to_json(),
            "{\"type\":\"failure\",\"seq\":12,\"round\":3,\"action\":\"fail\",\
             \"element\":\"link:3-7\",\"disrupted\":2,\"repair_at\":9}"
        );
        let rec = Record::Recovery(RecoveryRecord {
            seq: 12,
            round: 3,
            policy: "backup-paths",
            disrupted: 2,
            recovered: 2,
            cost: 6.5,
            pending: 0,
        });
        assert_eq!(
            rec.to_json(),
            "{\"type\":\"recovery\",\"seq\":12,\"round\":3,\"policy\":\"backup-paths\",\
             \"disrupted\":2,\"recovered\":2,\"cost\":6.5,\"pending\":0}"
        );
        let sum = Record::Summary(SummaryRecord {
            events: 40,
            windows: 5,
            groups_seen: 6,
            retired: 2,
            errors: 0,
            accumulated_cost: 321.0,
            stop: StopReason::MaxEvents,
            recovery: Some(RecoverySummary {
                fail_events: 4,
                repair_events: 2,
                disruptions: 3,
                immediate: 2,
                recoveries: 3,
                mean_recovery_cost: 10.5,
                mean_events_to_restore: 0.5,
                availability: 0.975,
            }),
            millis: None,
        });
        assert_eq!(
            sum.to_json(),
            "{\"type\":\"summary\",\"events\":40,\"windows\":5,\"groups_seen\":6,\"retired\":2,\
             \"errors\":0,\"accumulated_cost\":321.0,\"stop\":\"max-events\",\"fail_events\":4,\
             \"repair_events\":2,\"disruptions\":3,\"immediate\":2,\"recoveries\":3,\
             \"mean_recovery_cost\":10.5,\"mean_events_to_restore\":0.5,\"availability\":0.975}"
        );
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_record() {
        let mut buf = Vec::new();
        {
            let mut sink = JsonlSink::new(&mut buf);
            sink.record(&Record::Summary(SummaryRecord {
                events: 1,
                windows: 1,
                groups_seen: 1,
                retired: 0,
                errors: 0,
                accumulated_cost: 1.0,
                stop: StopReason::Stopped,
                recovery: None,
                millis: None,
            }))
            .unwrap();
            sink.flush().unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.ends_with('\n'));
        assert!(text.contains("\"stop\":\"stopped\""));
    }
}
