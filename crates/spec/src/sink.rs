//! The runner's record stream as JSON lines: the `churn-at-scale` line
//! format CI's goldens diff.
//!
//! [`sof_runner`] produces typed [`Record`]s and knows no format; this
//! module says what each one looks like on a line. [`record_value`] builds
//! the table — one [`put`] per key, in the order the line prints them —
//! and [`JsonlSink`] sends it through [`write_json`] the moment the record
//! arrives. `millis`, the meta line's `policy` and the failure totals are
//! left out when absent (so default-mode output is byte-stable);
//! `repair_at` prints `null`.

use crate::field::{put, put_or_null};
use crate::report::line;
use crate::value::{write_json, Value};
use sof_runner::{Record, Sink};
use std::io::{self, Write};

/// One [`put`] per named field of `$from`, each under its own name, in
/// the order listed.
macro_rules! put_fields {
    ($t:ident, $from:expr; $($field:ident),+ $(,)?) => {
        $( put(&mut $t, stringify!($field), &$from.$field); )+
    };
}

/// The table one record prints as.
pub fn record_value(record: &Record) -> Value {
    let mut t;
    match record {
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
            t = line("meta");
            put(&mut t, "subsystem", &"churn-at-scale".to_string());
            put(&mut t, "name", name);
            put(&mut t, "groups", groups);
            put(&mut t, "regions", regions);
            put(&mut t, "seed", seed);
            put(&mut t, "solver", solver);
            put(&mut t, "window", window);
            put(&mut t, "events_target", events_target);
            put(&mut t, "policy", policy);
        }
        Record::Window(w) => {
            t = line("window");
            put_fields!(
                t, w; index, events, total_events, active, retired, errors, full_solves,
                incremental, joins, leaves, mean_cost, accumulated_cost
            );
            put(&mut t, "engine_hits", &w.engine.hits);
            put(&mut t, "engine_misses", &w.engine.misses);
            put(&mut t, "engine_stale", &w.engine.stale);
            put(&mut t, "engine_repairs", &w.engine.repairs);
            if let Some(f) = &w.failures {
                put_fields!(t, f; fail_events, repair_events, disruptions, pending);
            }
            put_fields!(t, w; millis);
        }
        Record::Event(e) => {
            t = line("event");
            put_fields!(t, e; seq, slot, group);
            let arrival = if e.initial { "initial" } else { "churn" };
            put(&mut t, "kind", &arrival.to_string());
            put_fields!(t, e; viewers, joined, left, rebuilt, cost, millis);
        }
        Record::Failure(f) => {
            t = line("failure");
            put_fields!(t, f; seq, round);
            put(&mut t, "action", &f.action.to_string());
            put_fields!(t, f; element, disrupted);
            put_or_null(&mut t, "repair_at", &f.repair_at);
        }
        Record::Recovery(r) => {
            t = line("recovery");
            put_fields!(t, r; seq, round);
            put(&mut t, "policy", &r.policy.to_string());
            put_fields!(t, r; disrupted, recovered, cost, pending);
        }
        Record::Summary(s) => {
            t = line("summary");
            put_fields!(t, s; events, windows, groups_seen, retired, errors, accumulated_cost);
            put(&mut t, "stop", &s.stop.as_str().to_string());
            if let Some(r) = &s.recovery {
                put_fields!(t, r; fail_events, repair_events, disruptions, immediate, recoveries);
                for (key, mean) in [
                    ("mean_recovery_cost", r.mean_recovery_cost()),
                    ("mean_events_to_restore", r.mean_events_to_restore()),
                    ("availability", r.availability()),
                ] {
                    put(&mut t, key, &mean);
                }
            }
            put_fields!(t, s; millis);
        }
    }
    t
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
        let mut line = write_json(&record_value(record));
        line.push('\n');
        self.out.write_all(line.as_bytes())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sof_graph::PathEngineStats;
    use sof_runner::{
        EventRecord, FailureRecord, RecoveryRecord, StopReason, SummaryRecord, WindowRecord,
    };
    use sof_survive::RecoveryMetrics;

    fn line(record: &Record) -> String {
        write_json(&record_value(record))
    }

    #[test]
    fn record_lines_are_stable() {
        let meta = Record::Meta {
            name: "t".into(),
            groups: 4,
            regions: vec!["a".into(), "b".into()],
            seed: 7,
            solver: "SOFDA".into(),
            window: 8,
            events_target: 40,
            policy: None,
        };
        assert_eq!(
            line(&meta),
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
            line(&win),
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
            line(&ev),
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
            line(&sum),
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
            events_target: 40,
            policy: Some("standby-forest".into()),
        };
        assert!(
            line(&meta).ends_with("\"events_target\":40,\"policy\":\"standby-forest\"}"),
            "{}",
            line(&meta)
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
            line(&fail),
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
            line(&rec),
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
            // The means are derived: 31.5 / 3, 1 / 3 and 1 − 1 / 40.
            recovery: Some(RecoveryMetrics {
                fail_events: 4,
                repair_events: 2,
                disruptions: 3,
                immediate: 2,
                recoveries: 3,
                recovery_cost_sum: 31.5,
                events_to_restore_sum: 1,
                disconnected_dest_rounds: 1,
                dest_rounds: 40,
            }),
            millis: None,
        });
        assert_eq!(
            line(&sum),
            "{\"type\":\"summary\",\"events\":40,\"windows\":5,\"groups_seen\":6,\"retired\":2,\
             \"errors\":0,\"accumulated_cost\":321.0,\"stop\":\"max-events\",\"fail_events\":4,\
             \"repair_events\":2,\"disruptions\":3,\"immediate\":2,\"recoveries\":3,\
             \"mean_recovery_cost\":10.5,\"mean_events_to_restore\":0.3333333333333333,\
             \"availability\":0.975}"
        );
    }

    /// What no golden holds: a failure that is never repaired, and names
    /// the quoter has to escape.
    #[test]
    fn absent_fields_print_null_and_labels_are_escaped() {
        let meta = Record::Meta {
            name: "q\"b\\c\u{1}".into(),
            groups: 1,
            regions: vec!["tab\there".into()],
            seed: 0,
            solver: "SOFDA".into(),
            window: 1,
            events_target: 1,
            policy: None,
        };
        assert_eq!(
            line(&meta),
            "{\"type\":\"meta\",\"subsystem\":\"churn-at-scale\",\"name\":\"q\\\"b\\\\c\\u0001\",\
             \"groups\":1,\"regions\":[\"tab\\there\"],\"seed\":0,\"solver\":\"SOFDA\",\
             \"window\":1,\"events_target\":1}"
        );
        let parsed = crate::value::parse_json(&line(&meta)).unwrap();
        assert_eq!(parsed.get("name"), Some(&Value::Str("q\"b\\c\u{1}".into())));
        let fail = Record::Failure(FailureRecord {
            seq: 1,
            round: 0,
            action: "fail",
            element: "domain:us-east".into(),
            disrupted: 0,
            repair_at: None,
        });
        assert_eq!(
            line(&fail),
            "{\"type\":\"failure\",\"seq\":1,\"round\":0,\"action\":\"fail\",\
             \"element\":\"domain:us-east\",\"disrupted\":0,\"repair_at\":null}"
        );
        // A mean over nothing is not a number; the line stays valid JSON.
        let rec = Record::Recovery(RecoveryRecord {
            seq: 1,
            round: 0,
            policy: "reactive",
            disrupted: 0,
            recovered: 0,
            cost: f64::NAN,
            pending: 0,
        });
        assert!(line(&rec).contains("\"cost\":null"), "{}", line(&rec));
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
                stop: StopReason::MaxWallclock,
                recovery: None,
                millis: None,
            }))
            .unwrap();
            sink.flush().unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.ends_with('\n'));
        assert!(text.contains("\"stop\":\"max-wallclock\""));
    }
}
