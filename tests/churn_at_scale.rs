//! Acceptance tests for the streaming churn-at-scale subsystem: the JSONL
//! record stream is byte-identical across worker-thread counts and across
//! repeated runs, the committed miniature golden stays in lockstep with
//! the engine, record streams are ordered and bounded by the live pool,
//! and wards end runs for the stated reasons.

use sof::runner::{CollectSink, Record, Runner, RunnerConfig, StopReason, Ward};
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
    let mut runner = Runner::new(cfg).unwrap();
    let (sink, records) = CollectSink::new();
    runner.add_sink(Box::new(sink));
    let summary = runner.run().unwrap();
    assert_eq!(summary.events, events);
    assert_eq!(summary.stop, StopReason::MaxEvents);

    let records = records.lock().unwrap();
    assert!(matches!(records.first(), Some(Record::Meta { .. })));
    assert!(matches!(records.last(), Some(Record::Summary(_))));
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

/// A huge convergence epsilon trips the `ConvergedCost` ward after
/// `patience` windows, well before the event budget.
#[test]
fn converged_cost_ward_stops_early() {
    let spec = mini_spec(8, 10_000, 16, false);
    let mut cfg = sof::spec::runner_config(&spec, &RunOptions::default()).unwrap();
    cfg.wards.push(Ward::ConvergedCost {
        epsilon: 1e12,
        patience: 2,
    });
    let runner = Runner::new(cfg).unwrap();
    let summary = runner.run().unwrap();
    assert_eq!(summary.stop, StopReason::Converged);
    assert!(
        summary.events < 10_000,
        "ward should fire before the budget ({} events)",
        summary.events
    );
}

/// Regression: the spec layer has always rejected `converge.patience = 0`,
/// but the library path through `Runner::new` accepted it — and the old
/// `WardSet` then stopped the run on its very first window, before two
/// windows had ever been compared. The library now rejects it too.
#[test]
fn runner_config_rejects_zero_patience_convergence_ward() {
    let mut cfg = RunnerConfig::new("patience-zero");
    cfg.wards.push(Ward::ConvergedCost {
        epsilon: 0.01,
        patience: 0,
    });
    let err = Runner::new(cfg).err().expect("patience 0 must be rejected");
    assert!(err.contains("patience"), "{err}");

    let mut cfg = RunnerConfig::new("bad-epsilon");
    cfg.wards.push(Ward::ConvergedCost {
        epsilon: 0.0,
        patience: 2,
    });
    let err = Runner::new(cfg).err().expect("epsilon 0 must be rejected");
    assert!(err.contains("epsilon"), "{err}");
}

/// Nothing but a ward ends a run, so a config without one is refused
/// before anything is built.
#[test]
fn runner_config_rejects_an_empty_ward_list() {
    let mut cfg = RunnerConfig::new("wardless");
    cfg.wards = Vec::new();
    let err = Runner::new(cfg).err().expect("no wards must be rejected");
    assert!(err.contains("wards"), "{err}");
}
