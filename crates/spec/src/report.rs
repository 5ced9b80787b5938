//! The structured result of running a [`crate::ScenarioSpec`]: a
//! [`RunReport`] of per-point rows plus solver metadata, emitted either as
//! deterministic JSON lines ([`write_jsonl`]) or as the legacy markdown
//! the original fig/table binaries printed ([`render_markdown`]).
//!
//! Determinism contract: with `timings = false` (the default), the JSON
//! lines are identical for a fixed spec + seed across runs, machines and
//! thread counts — wall-clock measurements are tagged
//! [`Cell::timing`]/[`ExtraRow::timing`] and only emitted when explicitly
//! requested. Work counts are not wall-clock: they repeat exactly, and
//! the default stream carries them.

use crate::field::{put, put_or_null};
use crate::value::{write_json, Value};
use sof_core::OnlineStats;
use sof_graph::{BoundedWork, PathEngineStats};
use sof_survive::RecoveryMetrics;

/// Run-level metadata (the JSONL header line).
#[derive(Clone, Debug, PartialEq)]
pub struct ReportMeta {
    /// The spec's name.
    pub spec: String,
    /// The markdown H1 text (no `# ` prefix).
    pub heading: String,
    /// Base RNG seed in effect.
    pub seed: u64,
    /// Averaging width in effect.
    pub seeds: u64,
    /// Solver display names involved, in run order.
    pub solvers: Vec<String>,
}

/// One table/figure cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Cell {
    /// The measured value (`None` renders as `-` / JSON `null`).
    pub value: Option<f64>,
    /// Decimal places in markdown.
    pub prec: usize,
    /// Unit suffix in markdown (e.g. `" s"`).
    pub suffix: &'static str,
    /// Wall-clock measurement: excluded from JSONL unless requested.
    pub timing: bool,
}

impl Cell {
    /// A deterministic numeric cell.
    pub fn num(value: Option<f64>, prec: usize) -> Cell {
        Cell {
            value,
            prec,
            suffix: "",
            timing: false,
        }
    }

    /// A wall-clock cell (markdown only, unless timings are requested).
    pub fn timing(value: f64, prec: usize) -> Cell {
        Cell {
            value: Some(value),
            prec,
            suffix: "",
            timing: true,
        }
    }

    fn markdown(&self) -> String {
        match self.value {
            None => "-".into(),
            Some(v) => format!("{v:.prec$}{}", self.suffix, prec = self.prec),
        }
    }
}

/// One table row.
#[derive(Clone, Debug, PartialEq)]
pub struct TableRow {
    /// First-column label, preformatted (`"2"`, `"1x"`, `"0.05"`, a solver
    /// name, …).
    pub label: String,
    /// Numeric form of the row position, when one exists (JSONL `x`).
    pub x: Option<f64>,
    /// One cell per column.
    pub cells: Vec<Cell>,
}

/// A rendered table: header plus rows.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    /// First header cell (the axis label).
    pub col0: String,
    /// Remaining header cells.
    pub columns: Vec<String>,
    /// Rows, in output order.
    pub rows: Vec<TableRow>,
}

/// A structured record that has no cell in the markdown table but belongs
/// in the JSONL stream (e.g. Table I's deterministic costs next to its
/// wall-clock seconds).
#[derive(Clone, Debug, PartialEq)]
pub struct ExtraRow {
    /// Row position label.
    pub x: String,
    /// Column/series label.
    pub col: String,
    /// Metric name (e.g. `"cost"`).
    pub metric: String,
    /// The value.
    pub value: Option<f64>,
    /// Wall-clock measurement: excluded from JSONL unless requested.
    pub timing: bool,
}

/// Per-session statistics of one online run (Fig. 12's epilogue).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OnlineSolverStats {
    /// Session label (solver name, possibly `"SOFDA (scratch)"`).
    pub label: String,
    /// Milliseconds spent in full solves.
    pub solve_ms: f64,
    /// Arrivals served by a full solve.
    pub solve_n: usize,
    /// Milliseconds spent in incremental events.
    pub inc_ms: f64,
    /// Arrivals served incrementally.
    pub inc_n: usize,
    /// The session's lifetime counters.
    pub session: OnlineStats,
    /// The session's `PathEngine` cache counters.
    pub engine: PathEngineStats,
    /// The session's bounded `PathEngine` searches.
    pub bounded: BoundedWork,
}

impl OnlineSolverStats {
    /// Total embedding milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.solve_ms + self.inc_ms
    }
}

/// Epilogue data of an online group.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OnlineDetail {
    /// Whether a from-scratch baseline ran first.
    pub scratch: bool,
    /// Arrivals that failed (any session).
    pub failures: usize,
    /// Injected VM failures across all sessions.
    pub vm_failures: usize,
    /// Per-session statistics, in session order.
    pub sessions: Vec<OnlineSolverStats>,
    /// The failure process's recovery metrics, when the group has one.
    pub recovery: Option<RecoveryMetrics>,
    /// Failure warnings collected during the run (stderr material).
    pub warnings: Vec<String>,
}

/// Kind-specific epilogue attached to a section.
#[derive(Clone, Debug, PartialEq)]
pub enum Detail {
    /// Nothing beyond the table.
    None,
    /// Online epilogue (timing summary, speedup lines).
    Online(OnlineDetail),
}

/// One report section: an optional H2 heading, an optional table, and an
/// optional kind-specific epilogue.
#[derive(Clone, Debug, PartialEq)]
pub struct Section {
    /// Stable identifier for JSONL rows (thread-count independent).
    pub id: String,
    /// Markdown H2 text (no `## ` prefix); `None` puts the table directly
    /// under the H1.
    pub heading: Option<String>,
    /// The data table, if the section has one.
    pub table: Option<Table>,
    /// JSONL-only records.
    pub extra_rows: Vec<ExtraRow>,
    /// Epilogue.
    pub detail: Detail,
}

/// The structured result of one spec run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Run-level metadata.
    pub meta: ReportMeta,
    /// Sections, in output order.
    pub sections: Vec<Section>,
}

impl RunReport {
    /// All failure warnings collected across sections (print these to
    /// stderr — the legacy binaries did).
    pub fn warnings(&self) -> Vec<&str> {
        self.sections
            .iter()
            .filter_map(|s| match &s.detail {
                Detail::Online(d) => Some(d.warnings.iter().map(String::as_str)),
                _ => None,
            })
            .flatten()
            .collect()
    }
}

/// Renders the report exactly as the pre-spec fig/table binaries printed
/// it (markdown headings + tables + the online epilogues); CI diffs
/// `specs/golden/fig8.md`, captured from the last of them, against it.
pub fn render_markdown(report: &RunReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {}\n", report.meta.heading));
    for section in &report.sections {
        match &section.heading {
            Some(h) => {
                out.push_str(&format!("\n## {h}\n"));
                if section.table.is_some() {
                    out.push('\n');
                }
            }
            None => out.push('\n'),
        }
        if let Some(table) = &section.table {
            let mut hdr = vec![table.col0.clone()];
            hdr.extend(table.columns.iter().cloned());
            out.push_str(&format!("| {} |\n", hdr.join(" | ")));
            out.push_str(&format!(
                "|{}|\n",
                hdr.iter().map(|_| "---").collect::<Vec<_>>().join("|")
            ));
            for row in &table.rows {
                let mut cells = vec![row.label.clone()];
                cells.extend(row.cells.iter().map(Cell::markdown));
                out.push_str(&format!("| {} |\n", cells.join(" | ")));
            }
        }
        match &section.detail {
            Detail::None => {}
            Detail::Online(d) => render_online_detail(d, &mut out),
        }
    }
    out
}

fn render_online_detail(d: &OnlineDetail, out: &mut String) {
    if d.sessions.is_empty() {
        return;
    }
    out.push_str("\nEmbedding time per session:\n");
    for s in &d.sessions {
        out.push_str(&format!(
            "- {}: {:.2} s ({} full solves, {} incremental events, {} joins, {} leaves, \
             {} fallbacks)\n",
            s.label,
            s.total_ms() / 1e3,
            s.session.full_solves,
            s.session.incremental_events,
            s.session.joins,
            s.session.leaves,
            s.session.fallbacks
        ));
    }
    // The incremental session right after the optional scratch baseline.
    if let Some(inc) = d.sessions.get(usize::from(d.scratch)) {
        if inc.solve_n > 0 && inc.inc_n > 0 {
            let per_solve = inc.solve_ms / inc.solve_n as f64;
            let per_inc = inc.inc_ms / inc.inc_n as f64;
            out.push_str(&format!(
                "\nPer-event embedding ({}): full solve ≈ {per_solve:.0} ms vs incremental \
                 ≈ {per_inc:.2} ms ({:.0}× per event)\n",
                inc.label,
                per_solve / per_inc.max(1e-9)
            ));
        }
    }
    if d.scratch {
        if d.failures == 0 && d.sessions.len() >= 2 {
            let speedup = d.sessions[0].total_ms() / d.sessions[1].total_ms().max(1e-9);
            out.push_str(&format!(
                "End-to-end incremental speedup (SOFDA, embedding time): {speedup:.1}×\n"
            ));
        } else {
            out.push_str(&format!(
                "End-to-end speedup not reported: {} arrival(s) failed (see warnings)\n",
                d.failures
            ));
        }
    }
    if d.vm_failures > 0 {
        out.push_str(&format!("\n{} VM failure(s) injected.\n", d.vm_failures));
    }
}

/// Emits the report as JSON lines: one `meta` line, then one `row` line
/// per table cell (and per [`ExtraRow`]), then one `stat` line per online
/// count. With `timings = false` every wall-clock value is omitted and
/// the stream is deterministic for a fixed spec + seed, independent of
/// thread count.
pub fn write_jsonl(report: &RunReport, timings: bool) -> String {
    let mut out = String::new();
    let mut emit = |line: Value| {
        out.push_str(&write_json(&line));
        out.push('\n');
    };
    let m = &report.meta;
    let mut meta = line("meta");
    put(&mut meta, "spec", &m.spec);
    put(&mut meta, "seed", &m.seed);
    put(&mut meta, "seeds", &m.seeds);
    put(&mut meta, "solvers", &m.solvers);
    emit(meta);
    for section in &report.sections {
        // `row` and `stat` lines open alike: type, then section.
        let in_section = |kind: &str| {
            let mut t = line(kind);
            put(&mut t, "section", &section.id);
            t
        };
        if let Some(table) = &section.table {
            for row in &table.rows {
                for (col, cell) in table.columns.iter().zip(&row.cells) {
                    if cell.timing && !timings {
                        continue;
                    }
                    let mut t = in_section("row");
                    match row.x {
                        Some(x) => put(&mut t, "x", &x),
                        None => put(&mut t, "x", &row.label),
                    }
                    put(&mut t, "col", col);
                    put_or_null(&mut t, "value", &cell.value);
                    emit(t);
                }
            }
        }
        for extra in &section.extra_rows {
            if extra.timing && !timings {
                continue;
            }
            let mut t = in_section("row");
            put(&mut t, "x", &extra.x);
            put(&mut t, "col", &extra.col);
            put(&mut t, "metric", &extra.metric);
            put_or_null(&mut t, "value", &extra.value);
            emit(t);
        }
        // A stat's value is a float whatever it counts (`"value":4.0`).
        let mut stat = |solver: Option<&String>, name: &str, value: f64| {
            let mut t = in_section("stat");
            if let Some(solver) = solver {
                put(&mut t, "solver", solver);
            }
            put(&mut t, "name", &name.to_string());
            put(&mut t, "value", &value);
            emit(t);
        };
        match &section.detail {
            Detail::None => {}
            Detail::Online(d) => {
                for s in &d.sessions {
                    // The destructurings make a new counter a compile error
                    // here, not a line that is silently missing.
                    let OnlineStats {
                        arrivals: _, // solve_n + inc_n + the refused ones
                        full_solves,
                        stroll_nodes,
                        stroll_handovers,
                        chains_expanded,
                        incremental_events,
                        joins,
                        leaves,
                        reroutes,
                        fallbacks,
                        vm_failures: _, // summed into the section's line
                        repriced_links,
                    } = s.session;
                    let PathEngineStats {
                        hits,
                        misses,
                        stale,
                        evictions,
                        repairs,
                        partial_repairs,
                    } = s.engine;
                    let BoundedWork { searches, settled } = s.bounded;
                    let counts = [
                        ("full_solves", full_solves as f64),
                        ("incremental_events", incremental_events as f64),
                        ("joins", joins as f64),
                        ("leaves", leaves as f64),
                        ("fallbacks", fallbacks as f64),
                        ("solve_n", s.solve_n as f64),
                        ("inc_n", s.inc_n as f64),
                        ("reroutes", reroutes as f64),
                        ("stroll_nodes", stroll_nodes as f64),
                        ("stroll_handovers", stroll_handovers as f64),
                        ("chains_expanded", chains_expanded as f64),
                        ("repriced_links", repriced_links as f64),
                        ("bounded_searches", searches as f64),
                        ("bounded_settled", settled as f64),
                        ("engine_hits", hits as f64),
                        ("engine_misses", misses as f64),
                        ("engine_stale", stale as f64),
                        ("engine_evictions", evictions as f64),
                        ("engine_repairs", repairs as f64),
                        ("engine_partial_repairs", partial_repairs as f64),
                    ];
                    let times = [("solve_ms", s.solve_ms), ("inc_ms", s.inc_ms)];
                    let times = if timings { &times[..] } else { &[] };
                    for &(name, value) in counts.iter().chain(times) {
                        stat(Some(&s.label), name, value);
                    }
                }
                stat(None, "failures", d.failures as f64);
                stat(None, "vm_failures", d.vm_failures as f64);
                if let Some(m) = &d.recovery {
                    let recovery = [
                        ("fail_events", m.fail_events as f64),
                        ("repair_events", m.repair_events as f64),
                        ("disruptions", m.disruptions as f64),
                        ("immediate", m.immediate as f64),
                        ("recoveries", m.recoveries as f64),
                        ("mean_recovery_cost", m.mean_recovery_cost()),
                        ("mean_events_to_restore", m.mean_events_to_restore()),
                        ("availability", m.availability()),
                    ];
                    for (name, value) in recovery {
                        stat(None, name, value);
                    }
                }
            }
        }
    }
    out
}

/// A line's table, opened with its `type`.
pub(crate) fn line(kind: &str) -> Value {
    Value::Table(vec![("type".into(), Value::Str(kind.into()))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> RunReport {
        RunReport {
            meta: ReportMeta {
                spec: "t".into(),
                heading: "Fig. T — tiny (seeds = 1)".into(),
                seed: 1,
                seeds: 1,
                solvers: vec!["SOFDA".into()],
            },
            sections: vec![Section {
                id: "cost vs #destinations".into(),
                heading: Some("Fig. T — cost vs #destinations (SoftLayer)".into()),
                table: Some(Table {
                    col0: "#destinations".into(),
                    columns: vec!["SOFDA".into(), "CPLEX*".into()],
                    rows: vec![TableRow {
                        label: "2".into(),
                        x: Some(2.0),
                        cells: vec![Cell::num(Some(12.345), 1), Cell::num(None, 1)],
                    }],
                }),
                extra_rows: vec![ExtraRow {
                    x: "2".into(),
                    col: "SOFDA".into(),
                    metric: "millis".into(),
                    value: Some(3.25),
                    timing: true,
                }],
                detail: Detail::None,
            }],
        }
    }

    #[test]
    fn markdown_matches_the_legacy_shape() {
        let md = render_markdown(&tiny_report());
        assert_eq!(
            md,
            "# Fig. T — tiny (seeds = 1)\n\
             \n## Fig. T — cost vs #destinations (SoftLayer)\n\
             \n| #destinations | SOFDA | CPLEX* |\n\
             |---|---|---|\n\
             | 2 | 12.3 | - |\n"
        );

        // Fig. 12's epilogue: a scratch baseline, then the incremental
        // session the per-event line and the speedup read.
        let session = |label: &str, solve: (f64, usize), inc: (f64, usize), moves| {
            let (joins, leaves, fallbacks) = moves;
            OnlineSolverStats {
                label: label.into(),
                solve_ms: solve.0,
                solve_n: solve.1,
                inc_ms: inc.0,
                inc_n: inc.1,
                session: OnlineStats {
                    full_solves: solve.1,
                    incremental_events: inc.1,
                    joins,
                    leaves,
                    fallbacks,
                    ..OnlineStats::default()
                },
                engine: PathEngineStats::default(),
                bounded: BoundedWork::default(),
            }
        };
        let mut online = tiny_report();
        online.sections[0].detail = Detail::Online(OnlineDetail {
            scratch: true,
            failures: 0,
            vm_failures: 2,
            sessions: vec![
                session("SOFDA (scratch)", (1200.0, 3), (300.0, 2), (4, 1, 0)),
                session("SOFDA", (400.0, 1), (3.0, 4), (5, 2, 1)),
            ],
            ..OnlineDetail::default()
        });
        assert_eq!(
            render_markdown(&online),
            "# Fig. T — tiny (seeds = 1)\n\
             \n## Fig. T — cost vs #destinations (SoftLayer)\n\
             \n| #destinations | SOFDA | CPLEX* |\n\
             |---|---|---|\n\
             | 2 | 12.3 | - |\n\
             \nEmbedding time per session:\n\
             - SOFDA (scratch): 1.50 s (3 full solves, 2 incremental events, 4 joins, \
             1 leaves, 0 fallbacks)\n\
             - SOFDA: 0.40 s (1 full solves, 4 incremental events, 5 joins, 2 leaves, \
             1 fallbacks)\n\
             \nPer-event embedding (SOFDA): full solve ≈ 400 ms vs incremental ≈ 0.75 ms \
             (533× per event)\n\
             End-to-end incremental speedup (SOFDA, embedding time): 3.7×\n\
             \n2 VM failure(s) injected.\n"
        );
    }

    #[test]
    fn jsonl_is_valid_json_and_hides_timings_by_default() {
        let mut report = tiny_report();
        report.sections[0].detail = Detail::Online(OnlineDetail {
            failures: 1,
            vm_failures: 2,
            sessions: vec![OnlineSolverStats {
                label: "SOFDA".into(),
                solve_ms: 2.5,
                solve_n: 1,
                inc_ms: 0.5,
                inc_n: 3,
                session: OnlineStats {
                    full_solves: 1,
                    incremental_events: 3,
                    stroll_nodes: 70,
                    chains_expanded: 2,
                    repriced_links: 40,
                    ..OnlineStats::default()
                },
                engine: PathEngineStats {
                    hits: 9,
                    ..PathEngineStats::default()
                },
                bounded: BoundedWork {
                    searches: 1,
                    settled: 5,
                },
            }],
            recovery: Some(RecoveryMetrics {
                fail_events: 2,
                disruptions: 1,
                recoveries: 1,
                recovery_cost_sum: 7.5,
                dest_rounds: 4,
                disconnected_dest_rounds: 1,
                ..RecoveryMetrics::default()
            }),
            ..OnlineDetail::default()
        });
        let jsonl = write_jsonl(&report, false);
        for line in jsonl.lines() {
            crate::value::parse_json(line).expect("every line parses as JSON");
        }
        let row = "{\"type\":\"row\",\"section\":\"cost vs #destinations\",\"x\":2.0,";
        assert!(
            jsonl.contains(&format!("{row}\"col\":\"CPLEX*\",\"value\":null}}\n")),
            "an empty cell is null: {jsonl}"
        );
        assert!(!jsonl.contains("millis"), "timings hidden: {jsonl}");
        let with = write_jsonl(&report, true);
        assert!(with.contains("\"metric\":\"millis\""), "{with}");
        // Two runs of the same report serialize identically.
        assert_eq!(jsonl, write_jsonl(&report, false));

        // The stat rows: names, order and float-typed counts. Every count is
        // in the default stream; only the two times wait for `--timings`.
        let stats = |jsonl: &str| -> Vec<String> {
            let prefix = "{\"type\":\"stat\",\"section\":\"cost vs #destinations\",";
            let stat = |line: &str| line.strip_prefix(prefix).map(String::from);
            jsonl.lines().filter_map(stat).collect()
        };
        let of = |name: &str, value: &str| {
            format!("\"solver\":\"SOFDA\",\"name\":\"{name}\",\"value\":{value}}}")
        };
        let section = |name: &str, value: &str| format!("\"name\":\"{name}\",\"value\":{value}}}");
        let closing = [
            section("failures", "1.0"),
            section("vm_failures", "2.0"),
            section("fail_events", "2.0"),
            section("repair_events", "0.0"),
            section("disruptions", "1.0"),
            section("immediate", "0.0"),
            section("recoveries", "1.0"),
            section("mean_recovery_cost", "7.5"),
            section("mean_events_to_restore", "0.0"),
            section("availability", "0.75"),
        ];
        let counts = [
            of("full_solves", "1.0"),
            of("incremental_events", "3.0"),
            of("joins", "0.0"),
            of("leaves", "0.0"),
            of("fallbacks", "0.0"),
            of("solve_n", "1.0"),
            of("inc_n", "3.0"),
            of("reroutes", "0.0"),
            of("stroll_nodes", "70.0"),
            of("stroll_handovers", "0.0"),
            of("chains_expanded", "2.0"),
            of("repriced_links", "40.0"),
            of("bounded_searches", "1.0"),
            of("bounded_settled", "5.0"),
            of("engine_hits", "9.0"),
            of("engine_misses", "0.0"),
            of("engine_stale", "0.0"),
            of("engine_evictions", "0.0"),
            of("engine_repairs", "0.0"),
            of("engine_partial_repairs", "0.0"),
        ];
        assert_eq!(stats(&jsonl), [&counts[..], &closing[..]].concat());
        let times = [of("solve_ms", "2.5"), of("inc_ms", "0.5")];
        assert_eq!(stats(&with), [&counts[..], &times, &closing[..]].concat());
    }
}
