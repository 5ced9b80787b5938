//! Acceptance tests for the streaming churn-at-scale subsystem: the JSONL
//! record stream is byte-identical across worker-thread counts and across
//! repeated runs, the committed miniature golden stays in lockstep with
//! the engine, record streams are ordered and bounded by the live pool,
//! runs stop for the stated reasons, and a configuration built in code is
//! held to the rules a spec file is.

use sof::runner::{CollectSink, Converge, Record, Runner, RunnerConfig, StopReason};
use sof::spec::{presets, run_churn_stream, RunOptions, ScenarioSpec, Workload};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// A `Write` that can be handed to [`run_churn_stream`] (which takes the
/// writer by value) while the test keeps a handle to the bytes.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn into_string(self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The bundled full-scale preset, scaled down for the test suite.
fn mini_spec(groups: usize, events: u64, window: u64, emit_events: bool) -> ScenarioSpec {
    let mut spec = presets::preset("churn-at-scale").unwrap().unwrap();
    let Workload::ChurnAtScale(s) = &mut spec.workload else {
        panic!("churn-at-scale preset lost its workload kind");
    };
    s.groups = groups;
    s.events = events;
    s.window = window;
    s.emit_events = emit_events;
    spec
}

fn stream(spec: &ScenarioSpec, threads: usize) -> String {
    let buf = SharedBuf::default();
    let opts = RunOptions {
        threads,
        ..RunOptions::default()
    };
    run_churn_stream(spec, &opts, buf.clone()).unwrap();
    buf.into_string()
}

/// Event-mode JSONL is byte-identical for 1 and 4 worker threads, and for
/// repeated runs of the same spec (lockstep rounds + order-preserving
/// `sof_par` workers + per-`(seed, group)` lazy streams).
#[test]
fn jsonl_stream_is_thread_count_independent() {
    let spec = mini_spec(24, 240, 48, true);
    let one = stream(&spec, 1);
    let four = stream(&spec, 4);
    assert!(one.contains("\"type\":\"event\""), "emit=events honoured");
    assert_eq!(one, four, "thread count changed the record bytes");
    assert_eq!(one, stream(&spec, 1), "rerun changed the record bytes");
}

/// The committed miniature golden (the exact bytes CI diffs against
/// `sof run churn-at-scale --groups 40 --events 400 --window 80`) stays in
/// lockstep with the library path.
#[test]
fn churn_at_scale_matches_its_committed_golden_stream() {
    let spec = mini_spec(40, 400, 80, false);
    let golden = std::fs::read_to_string("crates/spec/specs/golden/churn-at-scale.jsonl")
        .expect("committed golden file");
    assert_eq!(stream(&spec, 0), golden);
}

/// The record stream is ordered (one `Meta`, then events/windows, then one
/// `Summary`), complete (every budgeted event sampled, `ceil(events /
/// window)` windows), and bounded: no window ever reports more live groups
/// than the pool has slots — the run's memory is the pool plus the open
/// window, independent of the event count.
#[test]
fn record_stream_is_ordered_and_bounded() {
    let (groups, events, window) = (10usize, 130u64, 40u64);
    let spec = mini_spec(groups, events, window, true);
    let cfg = sof::spec::runner_config(&spec, &RunOptions::default()).unwrap();
    let (sink, records) = CollectSink::new();
    let summary = Runner::new(cfg, Box::new(sink)).unwrap().run().unwrap();
    assert_eq!(summary.events, events);
    assert_eq!(summary.stop, StopReason::MaxEvents);

    let records = records.lock().unwrap();
    assert!(matches!(records.first(), Some(Record::Meta { .. })));
    // The returned totals are the line the run emitted last.
    assert_eq!(records.last(), Some(&Record::Summary(summary)));
    let n_events = records
        .iter()
        .filter(|r| matches!(r, Record::Event(_)))
        .count() as u64;
    assert_eq!(n_events, events, "one event record per budgeted event");
    let windows: Vec<_> = records
        .iter()
        .filter_map(|r| match r {
            Record::Window(w) => Some(w),
            _ => None,
        })
        .collect();
    assert_eq!(windows.len() as u64, events.div_ceil(window));
    for w in &windows {
        assert!(w.active <= groups, "window {} overflows the pool", w.index);
    }
    assert_eq!(windows.last().unwrap().total_events, events);
}

/// A huge convergence epsilon stops the run after `patience` windows,
/// well before the event budget.
#[test]
fn converged_cost_ward_stops_early() {
    let spec = mini_spec(8, 10_000, 16, false);
    let mut cfg = sof::spec::runner_config(&spec, &RunOptions::default()).unwrap();
    cfg.converge = Some(Converge {
        epsilon: 1e12,
        patience: 2,
    });
    let (sink, _) = CollectSink::new();
    let summary = Runner::new(cfg, Box::new(sink)).unwrap().run().unwrap();
    assert_eq!(summary.stop, StopReason::Converged);
    assert!(
        summary.events < 10_000,
        "convergence should stop the run before the budget ({} events)",
        summary.events
    );
}

/// `Runner::new` on `cfg`: its refusal, or a panic naming `what` when it
/// builds a runner instead.
fn refusal(cfg: RunnerConfig, what: &str) -> String {
    let (sink, _) = CollectSink::new();
    Runner::new(cfg, Box::new(sink))
        .err()
        .unwrap_or_else(|| panic!("{what} must be refused"))
}

/// Regression: the spec layer has always rejected `converge.patience = 0`,
/// but the library path through `Runner::new` accepted it — and the old
/// stop list then stopped the run on its very first window, before two
/// windows had ever been compared. The library refuses it, and every
/// epsilon that is not a positive number, with the spec's message.
#[test]
fn runner_config_rejects_zero_patience_convergence_ward() {
    for (epsilon, patience, want) in [
        (0.01, 0, "'converge.patience' must be at least 1"),
        (0.0, 2, "'converge.epsilon' must be positive"),
        (-1.0, 2, "'converge.epsilon' must be positive"),
        (f64::NAN, 2, "'converge.epsilon' must be positive"),
    ] {
        let cfg = RunnerConfig {
            converge: Some(Converge { epsilon, patience }),
            ..RunnerConfig::default()
        };
        let what = format!("epsilon {epsilon}, patience {patience}");
        assert_eq!(refusal(cfg, &what), want, "{what}");
    }
}

/// One validator: a configuration built in code gets a message from
/// `Runner::new` — never a panic, never a run — for each thing a spec file
/// is refused for, and the spec's message is the same one under its
/// `workload` table.
#[test]
fn runner_new_refuses_what_a_spec_is_refused() {
    type Edit = fn(&mut RunnerConfig);
    let cases: [(&str, Edit, &str); 4] = [
        (
            "events = 0",
            |c| c.events = 0,
            "'events' must be at least 1",
        ),
        (
            "max_seconds = -1",
            |c| c.max_seconds = Some(-1.0),
            "'max_seconds' must be positive",
        ),
        (
            "max_seconds = NaN",
            |c| c.max_seconds = Some(f64::NAN),
            "'max_seconds' must be positive",
        ),
        (
            "one region, gateway_links = 0",
            |c| {
                c.regions.truncate(1);
                c.gateway_links = 0;
            },
            "'gateway_links' must be at least 1",
        ),
    ];
    for (what, edit, want) in cases {
        let mut cfg = RunnerConfig::default();
        edit(&mut cfg);
        assert_eq!(refusal(cfg, what), want, "{what}");

        let mut spec = mini_spec(4, 40, 8, false);
        let Workload::ChurnAtScale(s) = &mut spec.workload else {
            unreachable!("mini_spec is churn-at-scale");
        };
        edit(s);
        let err = spec.validate().expect_err(what).to_string();
        assert_eq!(
            err,
            want.replacen('\'', "'workload.", 1),
            "{what} in a spec"
        );
    }
}

/// `sof run <churn spec> --format markdown` prints the `RunReport` that
/// `run_spec` shapes from a collected run; `sof run` without it streams
/// the records. Both must tell the same run: every window row is the
/// stream's window record of the same index, every summary row the first
/// leg's summary record, and every policy-comparison row the summary of
/// its own leg and its entry on the closing `policy-comparison` line —
/// counts exactly, costs and ratios bit for bit.
#[test]
fn the_markdown_report_tells_the_streamed_run() {
    use sof::spec::run_spec;
    use sof::spec::value::{parse_json, Value};

    let spec = presets::preset("churn-failures-protected")
        .unwrap()
        .unwrap();
    let opts = RunOptions::default();
    let report = run_spec(&spec, &opts).unwrap();
    let lines: Vec<Value> = stream(&spec, 0)
        .lines()
        .map(|line| parse_json(line).unwrap())
        .collect();
    let kind = |v: &Value| match v.get("type") {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("a record without a type: {other:?}"),
    };
    let num = |v: &Value, key: &str| -> f64 {
        v.get(key)
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("no number '{key}' in {v:?}"))
    };
    let same = |what: &str, report: Option<f64>, stream: f64| {
        let report = report.unwrap_or_else(|| panic!("{what}: an empty report cell"));
        assert_eq!(
            report.to_bits(),
            stream.to_bits(),
            "{what}: {report} vs {stream}"
        );
    };

    // One leg per policy, each opened by a meta line, then the comparison.
    let mut legs: Vec<Vec<&Value>> = Vec::new();
    for line in &lines[..lines.len() - 1] {
        if kind(line) == "meta" {
            legs.push(Vec::new());
        }
        legs.last_mut().expect("a leg opens with meta").push(line);
    }
    let comparison = lines.last().unwrap();
    assert_eq!(kind(comparison), "policy-comparison");
    assert_eq!(legs.len(), 3, "three policy legs");
    let summaries: Vec<&Value> = legs
        .iter()
        .map(|leg| *leg.iter().rfind(|l| kind(l) == "summary").unwrap())
        .collect();

    let windows_section = &report.sections[0];
    let table = windows_section.table.as_ref().unwrap();
    let streamed: Vec<&&Value> = legs[0].iter().filter(|l| kind(l) == "window").collect();
    assert_eq!(
        table.rows.len(),
        streamed.len(),
        "one row per window record"
    );
    let window_keys = [
        "events",
        "active",
        "retired",
        "errors",
        "full_solves",
        "incremental",
        "mean_cost",
        "accumulated_cost",
    ];
    for (row, record) in table.rows.iter().zip(&streamed) {
        assert_eq!(row.label, format!("{}", num(record, "index")));
        assert_eq!(row.cells.len(), window_keys.len());
        for (cell, key) in row.cells.iter().zip(window_keys) {
            same(
                &format!("window {} {key}", row.label),
                cell.value,
                num(record, key),
            );
        }
    }

    let summary_rows: Vec<_> = windows_section
        .extra_rows
        .iter()
        .filter(|r| !r.timing)
        .collect();
    assert_eq!(
        summary_rows.len(),
        12,
        "six run totals and six recovery totals"
    );
    for row in summary_rows {
        let what = format!("summary {}", row.metric);
        same(&what, row.value, num(summaries[0], &row.metric));
    }

    let policies = report.sections[1].table.as_ref().unwrap();
    let Some(Value::Array(entries)) = comparison.get("legs") else {
        panic!("a comparison line without legs: {comparison:?}");
    };
    assert_eq!(policies.rows.len(), 3);
    assert_eq!(entries.len(), 3);
    let leg_keys = [
        "disruptions",
        "immediate",
        "mean_recovery_cost",
        "mean_events_to_restore",
        "availability",
    ];
    for ((row, summary), entry) in policies.rows.iter().zip(&summaries).zip(entries) {
        assert_eq!(entry.get("policy"), Some(&Value::Str(row.label.clone())));
        for (cell, key) in row.cells.iter().zip(leg_keys) {
            let what = format!("{} {key}", row.label);
            same(&what, cell.value, num(summary, key));
            if entry.get(key).is_some() {
                same(
                    &format!("{what} (comparison line)"),
                    cell.value,
                    num(entry, key),
                );
            }
        }
    }
}
