//! The spec-to-engine compiler: [`run_spec`] turns a validated
//! [`ScenarioSpec`] into a [`RunReport`] by driving the existing
//! machinery — [`crate::oneshot::sweep_tables`] /
//! [`crate::oneshot::average_with`] for one-shot workloads, [`sof_core::OnlineSession`] /
//! [`sof_core::SessionPool`] for online ones, and the flow-level QoE
//! simulator for the testbed table.
//!
//! Every numeric result is deterministic for a fixed spec + seed and any
//! thread count; only fields tagged as timings vary.

use crate::field::put;
use crate::oneshot::{self, ParamField, SweepAxis};
use crate::report::{
    self, Cell, Detail, ExtraRow, OnlineDetail, OnlineSolverStats, ReportMeta, RunReport, Section,
    Table, TableRow,
};
use crate::sink::JsonlSink;
use crate::spec::{GridMetric, OnlineGroup, ScenarioSpec, SpecError, Workload};
use crate::value::{write_json, Value};
use sof_core::{
    fortz_thorup, EmbedMode, OnlineConfig, OnlineSession, Request, ServiceChain, SessionEvent,
    SessionPool, SofInstance, Solver,
};
use sof_graph::{Cost, NodeId, Rng64};
use sof_runner::{CollectSink, Record, Runner, RunnerConfig, Sink, Summary};
use sof_sim::{simulate_sessions, ChurnStream, EnvironmentProfile, PlayerConfig, Session};
use sof_survive::{
    universe_for_scopes, ElementRef, FailurePlan, FailureRounds, FailureSpec, Protector,
};
use sof_topo::{build_instance, build_named, display_label, Topology};
use std::time::Instant;

/// Execution knobs that are not part of the scenario itself.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunOptions {
    /// Worker threads for parallel stages (`0` = the configured default,
    /// [`sof_par::current_threads`]). Never changes numeric results.
    pub threads: usize,
    /// Include wall-clock measurements in the JSONL output.
    pub timings: bool,
}

fn solver_by_name(name: &str) -> Result<Box<dyn Solver>, SpecError> {
    sof_solvers::by_name(name)
        .ok_or_else(|| SpecError(format!("solver '{name}' vanished from the registry")))
}

fn resolve_solvers(names: &[String]) -> Result<Vec<Box<dyn Solver>>, SpecError> {
    names.iter().map(|n| solver_by_name(n)).collect()
}

/// Runs a validated spec and returns the structured report.
///
/// # Errors
///
/// [`SpecError`] when the spec references something the engine cannot
/// resolve (a solver dropped from the registry, an unbuildable topology).
/// Per-point solver failures are **not** errors: they surface as missing
/// cells and warnings, exactly as the legacy binaries handled them.
pub fn run_spec(spec: &ScenarioSpec, opts: &RunOptions) -> Result<RunReport, SpecError> {
    spec.validate()?;
    match &spec.workload {
        Workload::CostCurve {
            points,
            step,
            capacity,
        } => run_cost_curve(spec, *points, *step, *capacity),
        Workload::Sweep {
            solvers,
            seeds,
            seed,
            axes,
        } => run_sweep(spec, solvers, *seeds, *seed, axes, opts),
        Workload::Grid {
            solver,
            seeds,
            seed,
            rows,
            cols,
            metrics,
        } => run_grid(spec, solver, *seeds, *seed, rows, cols, metrics, opts),
        Workload::Runtime {
            solver,
            seed,
            sizes,
            sources,
        } => run_runtime(spec, solver, *seed, sizes, sources),
        Workload::Qoe {
            solvers,
            seeds,
            seed,
        } => run_qoe(spec, solvers, *seeds, *seed),
        Workload::Online {
            seed,
            solvers,
            groups,
            failures,
        } => run_online(spec, *seed, solvers, groups, failures.as_deref(), opts),
        Workload::ChurnAtScale(s) => run_churn_at_scale(spec, s, opts),
    }
}

/// A churn-at-scale spec's runner configuration: its `[workload]` table
/// with the fields the table does not name set from the rest of the spec
/// and from `opts`.
///
/// # Errors
///
/// [`SpecError`] if the spec fails validation or its workload is not
/// `churn-at-scale`.
pub fn runner_config(spec: &ScenarioSpec, opts: &RunOptions) -> Result<RunnerConfig, SpecError> {
    spec.validate()?;
    let Workload::ChurnAtScale(s) = &spec.workload else {
        return Err(SpecError(format!(
            "runner_config needs a churn-at-scale workload, got '{}'",
            spec.workload.kind()
        )));
    };
    Ok(RunnerConfig {
        name: spec.name.clone(),
        setup_scale: spec.params.setup_scale,
        sofda: spec.sofda.with_seed(s.seed),
        online: spec.online,
        timings: opts.timings,
        threads: opts.threads,
        ..(**s).clone()
    })
}

/// Runs a churn-at-scale spec, streaming every runner record to `out` as
/// JSON lines the moment it is produced — memory stays O(groups + open
/// window) no matter how many events the budget allows. Returns the
/// end-of-run totals (the same numbers as the final `summary` line).
///
/// # Errors
///
/// [`SpecError`] for invalid specs, non-`churn-at-scale` workloads, and
/// runner or sink failures.
pub fn run_churn_stream<W: std::io::Write + Send + 'static>(
    spec: &ScenarioSpec,
    opts: &RunOptions,
    out: W,
) -> Result<Summary, SpecError> {
    let mut configs = policy_legs(spec, opts)?;
    if configs.len() == 1 {
        let sink = Box::new(JsonlSink::new(out));
        let runner = Runner::new(configs.remove(0).1, sink).map_err(SpecError)?;
        return runner.run().map_err(SpecError);
    }
    // Policy-comparison run: one streamed leg per policy over the identical
    // failure trace, then a closing comparison line.
    let shared = SharedOut(std::sync::Arc::new(std::sync::Mutex::new(out)));
    let mut legs: Vec<(String, Summary)> = Vec::new();
    for (policy, cfg) in configs {
        let sink = Box::new(JsonlSink::new(shared.clone()));
        let summary = Runner::new(cfg, sink)
            .and_then(Runner::run)
            .map_err(SpecError)?;
        legs.push((policy, summary));
    }
    let mut line = report::line("policy-comparison");
    let legs_value = legs.iter().map(|(policy, summary)| {
        let r = summary.recovery.unwrap_or_default();
        let mut leg = Value::table();
        put(&mut leg, "policy", policy);
        put(&mut leg, "disruptions", &r.disruptions);
        put(&mut leg, "mean_recovery_cost", &r.mean_recovery_cost);
        put(&mut leg, "availability", &r.availability);
        leg
    });
    line.set("legs", Value::Array(legs_value.collect()));
    writeln!(
        shared.0.lock().expect("comparison stream"),
        "{}",
        write_json(&line)
    )
    .map_err(|e| SpecError(format!("stream write failed: {e}")))?;
    Ok(legs.remove(0).1)
}

/// One runner configuration per protection policy a churn-at-scale spec's
/// failure axis lists, each narrowed to its own policy and replaying the
/// identical failure trace; a spec without the axis runs one leg.
fn policy_legs(
    spec: &ScenarioSpec,
    opts: &RunOptions,
) -> Result<Vec<(String, RunnerConfig)>, SpecError> {
    let cfg = runner_config(spec, opts)?;
    let Some(f) = &cfg.failures else {
        return Ok(vec![(String::new(), cfg)]);
    };
    let leg = |policy: &String| {
        let mut leg = cfg.clone();
        let failures = leg.failures.as_mut().expect("the axis is set");
        failures.policies = vec![policy.clone()];
        (policy.clone(), leg)
    };
    Ok(f.policies.iter().map(leg).collect())
}

/// `f` compiled under `policy`, its error named after the spec table.
fn failure_plan(f: &FailureSpec, policy: &str) -> Result<FailurePlan, SpecError> {
    f.to_plan(policy)
        .map_err(|e| SpecError(format!("'workload.failures': {e}")))
}

/// A sink for a leg whose records nobody reads: a report's comparison leg
/// needs only the run's summary.
struct Discard;

impl Sink for Discard {
    fn record(&mut self, _: &Record) -> std::io::Result<()> {
        Ok(())
    }
}

/// Clonable writer handle letting several sequential runner legs share one
/// output stream.
struct SharedOut<W>(std::sync::Arc<std::sync::Mutex<W>>);

impl<W> Clone for SharedOut<W> {
    fn clone(&self) -> SharedOut<W> {
        SharedOut(self.0.clone())
    }
}

impl<W: std::io::Write> std::io::Write for SharedOut<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("shared stream").write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.lock().expect("shared stream").flush()
    }
}

/// The `run_spec` path for churn-at-scale: collect the window records and
/// shape them into a [`RunReport`] (markdown tables, the JSONL report
/// dialect). The full-scale streaming path is [`run_churn_stream`].
fn run_churn_at_scale(
    spec: &ScenarioSpec,
    s: &RunnerConfig,
    opts: &RunOptions,
) -> Result<RunReport, SpecError> {
    let mut legs = policy_legs(spec, opts)?;
    let (first, cfg) = legs.remove(0);
    // Comparison legs beyond the first rerun the identical trace under the
    // other policies; only their recovery summaries feed the report.
    let mut comparison: Vec<(String, sof_runner::RecoverySummary)> = Vec::new();
    for (policy, leg) in legs {
        let leg_summary = Runner::new(leg, Box::new(Discard))
            .and_then(Runner::run)
            .map_err(SpecError)?;
        comparison.push((policy, leg_summary.recovery.unwrap_or_default()));
    }
    let (sink, records) = CollectSink::new();
    let runner = Runner::new(cfg, Box::new(sink)).map_err(SpecError)?;
    let started = Instant::now();
    let summary = runner.run().map_err(SpecError)?;
    let secs = started.elapsed().as_secs_f64();
    if let Some(r) = summary.recovery {
        comparison.insert(0, (first, r));
    }
    let records = records.lock().expect("collect sink");
    let columns: Vec<String> = [
        "events",
        "active",
        "retired",
        "errors",
        "full solves",
        "incremental",
        "mean cost",
        "Σ cost",
    ]
    .map(String::from)
    .to_vec();
    let mut rows = Vec::new();
    for record in records.iter() {
        let Record::Window(w) = record else { continue };
        rows.push(TableRow {
            label: w.index.to_string(),
            x: Some(w.index as f64),
            cells: vec![
                Cell::num(Some(w.events as f64), 0),
                Cell::num(Some(w.active as f64), 0),
                Cell::num(Some(w.retired as f64), 0),
                Cell::num(Some(w.errors as f64), 0),
                Cell::num(Some(w.full_solves as f64), 0),
                Cell::num(Some(w.incremental as f64), 0),
                Cell::num(Some(w.mean_cost), 2),
                Cell::num(Some(w.accumulated_cost), 1),
            ],
        });
    }
    let mut extra_rows = vec![
        summary_row("events", summary.events as f64, false),
        summary_row("windows", summary.windows as f64, false),
        summary_row("groups_seen", summary.groups_seen as f64, false),
        summary_row("retired", summary.retired as f64, false),
        summary_row("errors", summary.errors as f64, false),
        summary_row("accumulated_cost", summary.accumulated_cost, false),
        summary_row("secs", secs, true),
    ];
    if let Some(r) = summary.recovery {
        extra_rows.push(summary_row("fail_events", r.fail_events as f64, false));
        extra_rows.push(summary_row("disruptions", r.disruptions as f64, false));
        extra_rows.push(summary_row("recoveries", r.recoveries as f64, false));
        extra_rows.push(summary_row(
            "mean_recovery_cost",
            r.mean_recovery_cost,
            false,
        ));
        extra_rows.push(summary_row(
            "mean_events_to_restore",
            r.mean_events_to_restore,
            false,
        ));
        extra_rows.push(summary_row("availability", r.availability, false));
    }
    let mut sections = Vec::new();
    if comparison.len() > 1 {
        sections.push(Section {
            id: "policy-comparison".into(),
            heading: Some("Protection-policy comparison (identical failure trace)".into()),
            table: Some(Table {
                col0: "policy".into(),
                columns: [
                    "disruptions",
                    "immediate",
                    "mean recovery cost",
                    "mean events to restore",
                    "availability",
                ]
                .map(String::from)
                .to_vec(),
                rows: comparison
                    .iter()
                    .map(|(policy, r)| TableRow {
                        label: policy.clone(),
                        x: None,
                        cells: vec![
                            Cell::num(Some(r.disruptions as f64), 0),
                            Cell::num(Some(r.immediate as f64), 0),
                            Cell::num(Some(r.mean_recovery_cost), 2),
                            Cell::num(Some(r.mean_events_to_restore), 2),
                            Cell::num(Some(r.availability), 4),
                        ],
                    })
                    .collect(),
            }),
            extra_rows: Vec::new(),
            detail: Detail::None,
        });
    }
    Ok(RunReport {
        meta: meta(
            spec,
            format!(
                "{} — {} ({} concurrent groups, {} regions, stop: {})",
                spec.label,
                spec.title,
                s.groups,
                s.regions.len(),
                summary.stop.as_str()
            ),
            s.seed,
            1,
            vec![s.solver.clone()],
        ),
        sections: {
            let mut all = vec![Section {
                id: "windows".into(),
                heading: None,
                table: Some(Table {
                    col0: "window".into(),
                    columns,
                    rows,
                }),
                extra_rows,
                detail: Detail::None,
            }];
            all.extend(sections);
            all
        },
    })
}

fn summary_row(metric: &str, value: f64, timing: bool) -> ExtraRow {
    ExtraRow {
        x: "summary".into(),
        col: "run".into(),
        metric: metric.into(),
        value: Some(value),
        timing,
    }
}

fn meta(
    spec: &ScenarioSpec,
    heading: String,
    seed: u64,
    seeds: u64,
    solvers: Vec<String>,
) -> ReportMeta {
    ReportMeta {
        spec: spec.name.clone(),
        heading,
        seed,
        seeds,
        solvers,
    }
}

// ---------------------------------------------------------------------------
// cost-curve (Fig. 7)
// ---------------------------------------------------------------------------

fn run_cost_curve(
    spec: &ScenarioSpec,
    points: usize,
    step: f64,
    capacity: f64,
) -> Result<RunReport, SpecError> {
    let rows = (0..=points)
        .map(|i| {
            let l = i as f64 * step;
            TableRow {
                label: format!("{l:.2}"),
                x: Some(l),
                cells: vec![Cell::num(Some(fortz_thorup(l, capacity).value()), 3)],
            }
        })
        .collect();
    Ok(RunReport {
        meta: meta(
            spec,
            format!("{} — {}", spec.label, spec.title),
            0,
            1,
            Vec::new(),
        ),
        sections: vec![Section {
            id: "curve".into(),
            heading: None,
            table: Some(Table {
                col0: "load".into(),
                columns: vec!["cost".into()],
                rows,
            }),
            extra_rows: Vec::new(),
            detail: Detail::None,
        }],
    })
}

// ---------------------------------------------------------------------------
// sweep (Figs. 8–10)
// ---------------------------------------------------------------------------

fn sweep_heading(spec: &ScenarioSpec, seeds: u64) -> String {
    if spec.topology.name == "inet" {
        let nodes = spec.topology.nodes.unwrap_or(5000);
        format!(
            "{} — {} ({nodes} nodes, seeds = {seeds})",
            spec.label, spec.title
        )
    } else {
        format!("{} — {} (seeds = {seeds})", spec.label, spec.title)
    }
}

fn run_sweep(
    spec: &ScenarioSpec,
    solver_names: &[String],
    seeds: u64,
    seed: u64,
    axes: &[SweepAxis],
    opts: &RunOptions,
) -> Result<RunReport, SpecError> {
    let topo = build_named(&spec.topology, seed).map_err(SpecError)?;
    let algos = resolve_solvers(solver_names)?;
    let topo_label = display_label(&spec.topology.name).to_string();
    let tables = oneshot::sweep_tables(
        &topo,
        &spec.params,
        &spec.sofda,
        &algos,
        axes,
        seeds,
        seed,
        opts.threads,
    );
    // Section ids must be unique for JSONL consumers even when two axes
    // share a label (e.g. the same field swept over two value sets).
    let mut seen_ids: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    let sections = tables
        .into_iter()
        .map(|t| {
            let base = format!("cost vs {}", t.axis);
            let n = seen_ids.entry(base.clone()).or_insert(0);
            *n += 1;
            let id = if *n == 1 {
                base
            } else {
                format!("{base} #{n}")
            };
            Section {
                id,
                heading: Some(format!(
                    "{} — cost vs {} ({topo_label})",
                    spec.label, t.axis
                )),
                table: Some(Table {
                    col0: t.axis.clone(),
                    columns: solver_names.to_vec(),
                    rows: t
                        .values
                        .iter()
                        .zip(&t.rows)
                        .map(|(&v, row)| TableRow {
                            label: v.to_string(),
                            x: Some(v as f64),
                            cells: row.iter().map(|&c| Cell::num(c, 1)).collect(),
                        })
                        .collect(),
                }),
                extra_rows: Vec::new(),
                detail: Detail::None,
            }
        })
        .collect();
    Ok(RunReport {
        meta: meta(
            spec,
            sweep_heading(spec, seeds),
            seed,
            seeds,
            solver_names.to_vec(),
        ),
        sections,
    })
}

// ---------------------------------------------------------------------------
// grid (Fig. 11)
// ---------------------------------------------------------------------------

fn grid_row_label(field: ParamField, v: usize) -> String {
    match field {
        ParamField::SetupScale => format!("{v}x"),
        _ => v.to_string(),
    }
}

fn grid_col_label(field: ParamField, v: usize) -> String {
    match field {
        ParamField::ChainLen => format!("|C|={v}"),
        ParamField::Sources => format!("|S|={v}"),
        ParamField::Destinations => format!("|D|={v}"),
        ParamField::VmCount => format!("VMs={v}"),
        ParamField::SetupScale => format!("{v}x"),
    }
}

#[allow(clippy::too_many_arguments)]
fn run_grid(
    spec: &ScenarioSpec,
    solver_name: &str,
    seeds: u64,
    seed: u64,
    rows: &SweepAxis,
    cols: &SweepAxis,
    metrics: &[GridMetric],
    opts: &RunOptions,
) -> Result<RunReport, SpecError> {
    let topo = build_named(&spec.topology, seed).map_err(SpecError)?;
    let solver = solver_by_name(solver_name)?;
    let topo_label = display_label(&spec.topology.name);
    // One measurement per grid cell, shared by every metric (the legacy
    // binary re-ran the averaging per metric; results are deterministic,
    // so one pass is bit-identical and twice as fast).
    let mut measured: Vec<Vec<Option<(f64, f64, f64)>>> = Vec::with_capacity(rows.values.len());
    for &rv in &rows.values {
        let mut row = Vec::with_capacity(cols.values.len());
        for &cv in &cols.values {
            let make = |s: u64| {
                let mut p = spec.params.with_seed(s);
                rows.field.apply(&mut p, rv);
                cols.field.apply(&mut p, cv);
                build_instance(&topo, &p)
            };
            row.push(oneshot::average_with(
                solver.as_ref(),
                seeds,
                seed,
                &spec.sofda,
                make,
                opts.threads,
            ));
        }
        measured.push(row);
    }
    let sections = metrics
        .iter()
        .map(|metric| Section {
            id: metric.display().to_string(),
            heading: Some(format!("{} — {}", spec.label, metric.display())),
            table: Some(Table {
                col0: rows.label.clone(),
                columns: cols
                    .values
                    .iter()
                    .map(|&v| grid_col_label(cols.field, v))
                    .collect(),
                rows: rows
                    .values
                    .iter()
                    .zip(&measured)
                    .map(|(&rv, row)| TableRow {
                        label: grid_row_label(rows.field, rv),
                        x: Some(rv as f64),
                        cells: row
                            .iter()
                            .map(|m| match metric {
                                GridMetric::Cost => Cell::num(m.map(|(c, _, _)| c), 1),
                                GridMetric::UsedVms => Cell::num(m.map(|(_, v, _)| v), 2),
                            })
                            .collect(),
                    })
                    .collect(),
            }),
            extra_rows: Vec::new(),
            detail: Detail::None,
        })
        .collect();
    Ok(RunReport {
        meta: meta(
            spec,
            format!(
                "{} — {} ({solver_name}, {topo_label}, seeds = {seeds})",
                spec.label, spec.title
            ),
            seed,
            seeds,
            vec![solver_name.to_string()],
        ),
        sections,
    })
}

// ---------------------------------------------------------------------------
// runtime (Table I)
// ---------------------------------------------------------------------------

fn run_runtime(
    spec: &ScenarioSpec,
    solver_name: &str,
    seed: u64,
    sizes: &[usize],
    sources: &[usize],
) -> Result<RunReport, SpecError> {
    let solver = solver_by_name(solver_name)?;
    let mut rows = Vec::with_capacity(sizes.len());
    let mut extra_rows = Vec::new();
    for &nodes in sizes {
        let links = nodes * 2;
        let dcs = (nodes * 2) / 5;
        let topo = sof_topo::inet_sized(nodes, links, dcs, seed);
        let mut cells = Vec::with_capacity(sources.len());
        for &s in sources {
            let mut p = spec.params.with_seed(seed + s as u64);
            p.sources = s;
            let inst = build_instance(&topo, &p);
            match oneshot::run(solver.as_ref(), &inst, &spec.sofda) {
                Some(r) => {
                    cells.push(Cell::timing(r.millis / 1e3, 2));
                    extra_rows.push(ExtraRow {
                        x: nodes.to_string(),
                        col: format!("|S|={s}"),
                        metric: "cost".into(),
                        value: Some(r.cost),
                        timing: false,
                    });
                }
                None => cells.push(Cell::num(None, 2)),
            }
        }
        rows.push(TableRow {
            label: nodes.to_string(),
            x: Some(nodes as f64),
            cells,
        });
    }
    Ok(RunReport {
        meta: meta(
            spec,
            format!("{} — {}", spec.label, spec.title),
            seed,
            1,
            vec![solver_name.to_string()],
        ),
        sections: vec![Section {
            id: "runtime".into(),
            heading: None,
            table: Some(Table {
                col0: "|V|".into(),
                columns: sources.iter().map(|s| format!("|S|={s}")).collect(),
                rows,
            }),
            extra_rows,
            detail: Detail::None,
        }],
    })
}

// ---------------------------------------------------------------------------
// qoe (Table II)
// ---------------------------------------------------------------------------

fn run_qoe(
    spec: &ScenarioSpec,
    solver_names: &[String],
    seeds: u64,
    base: u64,
) -> Result<RunReport, SpecError> {
    let algos = resolve_solvers(solver_names)?;
    let player = PlayerConfig::default();
    let mut rows = Vec::with_capacity(algos.len());
    for algo in &algos {
        let mut sums = [0.0f64; 4];
        let mut n = 0.0;
        for i in 0..seeds {
            let seed = base + i;
            let mut rng = Rng64::seed_from(seed);
            let topo = sof_topo::testbed();
            // Build the instance: every node may host one VNF (paper
            // §VIII-D), costs uniform; two random sources, four random
            // destinations.
            let mut net = sof_core::Network::all_switches(topo.graph.clone());
            for v in 0..14 {
                let vm = net.add_node(sof_core::NodeKind::Vm, Cost::new(1.0));
                net.graph_mut().add_edge(vm, NodeId::new(v), Cost::ZERO);
            }
            let picks = rng.sample_indices(14, 6);
            let inst = SofInstance::new(
                net,
                Request::new(
                    vec![NodeId::new(picks[0]), NodeId::new(picks[1])],
                    picks[2..6].iter().map(|&i| NodeId::new(i)).collect(),
                    ServiceChain::from_names(["transcoder", "watermark"]),
                ),
            )
            .expect("valid instance");
            let Some(r) = oneshot::run(algo.as_ref(), &inst, &spec.sofda.with_seed(seed)) else {
                continue;
            };
            let forest = r.outcome.expect("present").forest;
            // Available bandwidth 4.5–9 Mbps per link (congestion
            // emulation); VM stub links are uncongested.
            let mut caps: std::collections::HashMap<sof_graph::EdgeId, f64> =
                std::collections::HashMap::new();
            for (e, edge) in inst.network.graph().edges() {
                let stub = edge.u.index() >= 14 || edge.v.index() >= 14;
                caps.insert(
                    e,
                    if stub {
                        1000.0
                    } else {
                        rng.range_f64(4.5, 9.0)
                    },
                );
            }
            // Multicast: one download session per service tree (walks from
            // the same source share link bandwidth as a single stream copy).
            let mut by_tree: std::collections::BTreeMap<
                NodeId,
                std::collections::BTreeSet<sof_graph::EdgeId>,
            > = Default::default();
            for w in &forest.walks {
                let entry = by_tree.entry(w.source).or_default();
                for p in w.nodes.windows(2) {
                    if let Some(e) = inst.network.graph().edge_between(p[0], p[1]) {
                        entry.insert(e);
                    }
                }
            }
            let sessions: Vec<Session> = by_tree
                .values()
                .map(|links| Session {
                    links: links.iter().copied().collect(),
                })
                .collect();
            for (ei, env) in [
                EnvironmentProfile::hardware_testbed(),
                EnvironmentProfile::emulab(),
            ]
            .iter()
            .enumerate()
            {
                let qoe = simulate_sessions(&sessions, &caps, &player, env, 1.25);
                let fin: Vec<_> = qoe
                    .iter()
                    .filter(|q| q.startup_latency_s.is_finite())
                    .collect();
                if fin.is_empty() {
                    continue;
                }
                let su: f64 =
                    fin.iter().map(|q| q.startup_latency_s).sum::<f64>() / fin.len() as f64;
                let rb: f64 = fin.iter().map(|q| q.rebuffering_s).sum::<f64>() / fin.len() as f64;
                sums[ei] += su;
                sums[2 + ei] += rb;
            }
            n += 1.0;
        }
        rows.push(TableRow {
            label: algo.name().to_string(),
            x: None,
            cells: sums
                .iter()
                .map(|&s| Cell {
                    value: Some(s / n),
                    prec: 1,
                    suffix: " s",
                    timing: false,
                })
                .collect(),
        });
    }
    Ok(RunReport {
        meta: meta(
            spec,
            format!("{} — {}", spec.label, spec.title),
            base,
            seeds,
            solver_names.to_vec(),
        ),
        sections: vec![Section {
            id: "qoe".into(),
            heading: None,
            table: Some(Table {
                col0: "Algorithm".into(),
                columns: vec![
                    "Startup (ours)".into(),
                    "Startup (emulab)".into(),
                    "Rebuffer (ours)".into(),
                    "Rebuffer (emulab)".into(),
                ],
                rows,
            }),
            extra_rows: Vec::new(),
            detail: Detail::None,
        }],
    })
}

// ---------------------------------------------------------------------------
// online (Fig. 12)
// ---------------------------------------------------------------------------

fn group_topology(
    spec: &ScenarioSpec,
    group: &OnlineGroup,
    seed: u64,
) -> Result<Topology, SpecError> {
    let t = group.topology.as_ref().unwrap_or(&spec.topology);
    build_named(t, seed).map_err(SpecError)
}

fn group_instance(
    spec: &ScenarioSpec,
    group: &OnlineGroup,
    topo: &Topology,
    seed: u64,
) -> SofInstance {
    let mut p = spec.params.with_seed(seed);
    p.vm_count = topo.dc_nodes.len() * group.vms_per_dc;
    p.chain_len = group.churn.chain_len;
    build_instance(topo, &p)
}

fn run_online(
    spec: &ScenarioSpec,
    seed: u64,
    solver_names: &[String],
    groups: &[OnlineGroup],
    failures: Option<&FailureSpec>,
    opts: &RunOptions,
) -> Result<RunReport, SpecError> {
    let heading = format!(
        "{} — {} (accumulative cost, viewer churn)",
        spec.label, spec.title
    );
    let mut report_solvers: Vec<String> = solver_names.to_vec();
    if groups.iter().any(|g| g.scratch) {
        report_solvers.insert(0, "SOFDA (scratch)".into());
    }
    let mut sections = Vec::with_capacity(groups.len());
    for (gi, group) in groups.iter().enumerate() {
        let topo = group_topology(spec, group, seed)?;
        let id = format!("group{gi}:{}", topo.name);
        if group.requests == 0 {
            sections.push(Section {
                id,
                heading: Some(format!(
                    "{} — {} (0 arrivals requested — skipped)",
                    spec.label, topo.name
                )),
                table: None,
                extra_rows: Vec::new(),
                detail: Detail::None,
            });
            continue;
        }
        let run = drive_group(spec, group, &topo, seed, solver_names, failures, opts)?;
        sections.push(group_section(spec, id, group, &topo, run));
    }
    Ok(RunReport {
        meta: meta(spec, heading, seed, 1, report_solvers),
        sections,
    })
}

/// What stepping one online group leaves behind.
struct GroupRun {
    /// Every slot's session, in slot order.
    pool: SessionPool,
    /// Per slot: its label and arrival timings (the session and engine
    /// counters are read from the pool when the section is built).
    stats: Vec<OnlineSolverStats>,
    /// Per checkpoint arrival, every slot's accumulated cost.
    checkpoints: Vec<(usize, Vec<f64>)>,
    /// Arrivals refused, over every slot.
    arrival_failures: usize,
    warnings: Vec<String>,
    /// The spec's failure process, when it has one.
    rounds: Option<FailureRounds>,
}

/// Steps one online group through its arrivals over one [`SessionPool`]
/// with one slot per solver (after the optional scratch baseline), every
/// slot arriving the same request from one stream, and runs the failure
/// round after each arrival.
fn drive_group(
    spec: &ScenarioSpec,
    group: &OnlineGroup,
    topo: &Topology,
    seed: u64,
    solver_names: &[String],
    failures: Option<&FailureSpec>,
    opts: &RunOptions,
) -> Result<GroupRun, SpecError> {
    let churn = group.churn.to_params();
    let online = OnlineConfig {
        demand_mbps: churn.base.demand_mbps,
        ..spec.online
    };
    // Per slot: solver, and whether it is the from-scratch baseline.
    let scratch = group.scratch.then_some(("SOFDA", true));
    let solvers = solver_names.iter().map(|n| (n.as_str(), false));
    let slots: Vec<(&str, bool)> = scratch.into_iter().chain(solvers).collect();
    let mut stream = ChurnStream::new(churn, topo.graph.node_count(), seed);
    let mut stats = Vec::with_capacity(slots.len());
    let mut engines = Vec::with_capacity(slots.len());
    for &(name, scratch) in &slots {
        let solver = solver_by_name(name)?;
        let (label, config) = if scratch {
            ("SOFDA (scratch)", online.with_mode(EmbedMode::FromScratch))
        } else {
            (solver.name(), online)
        };
        stats.push(OnlineSolverStats {
            label: label.into(),
            ..OnlineSolverStats::default()
        });
        engines.push(OnlineSession::new(
            group_instance(spec, group, topo, seed),
            solver,
            spec.sofda.with_seed(seed),
            config,
        ));
    }
    let mut pool = SessionPool::new(engines).with_threads(opts.threads);
    let mut rounds = failures
        .map(|f| -> Result<FailureRounds, SpecError> {
            let plan = failure_plan(f, &f.policies[0])?;
            let first_vm = topo.graph.node_count();
            let vms = first_vm..first_vm + topo.dc_nodes.len() * group.vms_per_dc;
            let universe = universe_for_scopes(&plan.scope, &topo.graph, vms, &[]);
            let protectors = slots
                .iter()
                .map(|&(name, ..)| Protector::new(plan.policy, sof_solvers::by_name(name)))
                .collect();
            Ok(FailureRounds::new(&plan, universe, protectors))
        })
        .transpose()?;
    // Online topologies have no regions, so no element names a domain.
    let resolve = |e: &ElementRef| e.resolve(|_| Err(())).unwrap_or_default();

    let mut checkpoints = Vec::new();
    let mut arrival_failures = 0;
    let mut warnings = Vec::new();
    for step in 0..group.requests {
        let request = if step == 0 {
            stream.current().clone()
        } else {
            stream.next_request()
        };
        let arrivals = vec![Some(SessionEvent::Arrive(request)); pool.len()];
        let arrival = step + 1;
        for (slot, answer) in pool.apply(&arrivals).into_iter().enumerate() {
            match answer.expect("every slot arrives") {
                Ok(applied) => {
                    let report = applied.report().expect("an arrival reports");
                    let t = &mut stats[slot];
                    if report.rebuilt {
                        t.solve_ms += report.millis;
                        t.solve_n += 1;
                        if let Some(rounds) = rounds.as_mut() {
                            rounds.rebuilt(slot, report.forest_cost);
                        }
                    } else {
                        t.inc_ms += report.millis;
                        t.inc_n += 1;
                    }
                }
                Err(e) => {
                    arrival_failures += 1;
                    warnings.push(format!(
                        "{} failed on {} arrival {arrival}: {e}",
                        stats[slot].label, topo.name
                    ));
                }
            }
        }
        if let Some(rounds) = rounds.as_mut() {
            rounds.step(&mut pool, resolve);
        }
        if arrival % 5 == 0 || arrival == group.requests {
            let costs = pool.sessions().iter().map(OnlineSession::accumulated_cost);
            checkpoints.push((arrival, costs.collect()));
        }
    }
    Ok(GroupRun {
        pool,
        stats,
        checkpoints,
        arrival_failures,
        warnings,
        rounds,
    })
}

/// A stepped group's report section: every slot's accumulated cost at each
/// checkpoint, then the per-session epilogue.
fn group_section(
    spec: &ScenarioSpec,
    id: String,
    group: &OnlineGroup,
    topo: &Topology,
    run: GroupRun,
) -> Section {
    let GroupRun {
        pool,
        mut stats,
        checkpoints,
        arrival_failures,
        warnings,
        rounds,
    } = run;
    let vm_failures = pool.sessions().iter().map(|s| s.stats().vm_failures).sum();
    for (session, t) in pool.sessions().iter().zip(&mut stats) {
        let paths = session.instance().network.paths();
        t.session = *session.stats();
        t.engine = paths.stats();
        t.bounded = paths.bounded_work();
    }
    let suffix = if group.scratch {
        ""
    } else {
        "; from-scratch baseline skipped (set scratch = true in the spec to run it)"
    };
    Section {
        id,
        heading: Some(format!(
            "{} — {} ({} arrivals, viewer churn{suffix})",
            spec.label, topo.name, group.requests
        )),
        table: Some(Table {
            col0: "#arrivals".into(),
            columns: stats.iter().map(|t| t.label.clone()).collect(),
            rows: checkpoints
                .into_iter()
                .map(|(arrival, costs)| TableRow {
                    label: arrival.to_string(),
                    x: Some(arrival as f64),
                    cells: costs.into_iter().map(|c| Cell::num(Some(c), 0)).collect(),
                })
                .collect(),
        }),
        extra_rows: Vec::new(),
        detail: Detail::Online(OnlineDetail {
            scratch: group.scratch,
            failures: arrival_failures,
            vm_failures,
            sessions: stats,
            recovery: rounds.map(|r| *r.metrics()),
            warnings,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::report::write_jsonl;
    use sof_survive::FailureEventSpec;

    /// The stepped group of an online spec's first group.
    fn drive(spec: &ScenarioSpec) -> GroupRun {
        let Workload::Online {
            seed,
            solvers,
            groups,
            failures,
        } = &spec.workload
        else {
            panic!("an online spec");
        };
        let topo = group_topology(spec, &groups[0], *seed).unwrap();
        let opts = RunOptions::default();
        let failures = failures.as_deref();
        drive_group(spec, &groups[0], &topo, *seed, solvers, failures, &opts).unwrap()
    }

    fn online_parts(spec: &mut ScenarioSpec) -> (&mut OnlineGroup, &mut Option<Box<FailureSpec>>) {
        let Workload::Online {
            groups, failures, ..
        } = &mut spec.workload
        else {
            panic!("an online spec");
        };
        (&mut groups[0], failures)
    }

    /// What `sof run inet-churn-failures --requests 8` printed while online
    /// specs failed VMs by their own rule: at every `every`-th arrival but
    /// the last, fail the `count` lowest-id VMs carrying a VNF in each
    /// session, and drop the forest. Re-recorded without the re-route
    /// every 6th arrival the old rule ran under, which moves only the `x`
    /// 8 row.
    const OLD_RULE_JSONL: &str = concat!(
        "{\"type\":\"meta\",\"spec\":\"inet-churn-failures\",\"seed\":9000,\"seeds\":1,\"solvers\":[\"SOFDA\"]}\n",
        "{\"type\":\"row\",\"section\":\"group0:inet-sized\",\"x\":5.0,\"col\":\"SOFDA\",\"value\":1859.6732999813348}\n",
        "{\"type\":\"row\",\"section\":\"group0:inet-sized\",\"x\":8.0,\"col\":\"SOFDA\",\"value\":3111.1659867648777}\n",
        "{\"type\":\"stat\",\"section\":\"group0:inet-sized\",\"solver\":\"SOFDA\",\"name\":\"full_solves\",\"value\":2.0}\n",
        "{\"type\":\"stat\",\"section\":\"group0:inet-sized\",\"solver\":\"SOFDA\",\"name\":\"incremental_events\",\"value\":6.0}\n",
        "{\"type\":\"stat\",\"section\":\"group0:inet-sized\",\"solver\":\"SOFDA\",\"name\":\"joins\",\"value\":10.0}\n",
        "{\"type\":\"stat\",\"section\":\"group0:inet-sized\",\"solver\":\"SOFDA\",\"name\":\"leaves\",\"value\":11.0}\n",
        "{\"type\":\"stat\",\"section\":\"group0:inet-sized\",\"solver\":\"SOFDA\",\"name\":\"fallbacks\",\"value\":0.0}\n",
        "{\"type\":\"stat\",\"section\":\"group0:inet-sized\",\"solver\":\"SOFDA\",\"name\":\"solve_n\",\"value\":2.0}\n",
        "{\"type\":\"stat\",\"section\":\"group0:inet-sized\",\"solver\":\"SOFDA\",\"name\":\"inc_n\",\"value\":6.0}\n",
        "{\"type\":\"stat\",\"section\":\"group0:inet-sized\",\"name\":\"failures\",\"value\":0.0}\n",
        "{\"type\":\"stat\",\"section\":\"group0:inet-sized\",\"name\":\"vm_failures\",\"value\":1.0}\n",
    );

    /// The lines of `jsonl` the old rule's stream had: every line but the
    /// `stat` lines it did not print yet.
    fn old_rule_lines(jsonl: &str) -> String {
        let names = [
            "full_solves",
            "incremental_events",
            "joins",
            "leaves",
            "fallbacks",
            "solve_n",
            "inc_n",
            "failures",
            "vm_failures",
        ];
        let printed = |line: &&str| {
            !line.starts_with("{\"type\":\"stat\"")
                || names
                    .iter()
                    .any(|n| line.contains(&format!("\"name\":\"{n}\",")))
        };
        jsonl
            .lines()
            .filter(printed)
            .map(|l| format!("{l}\n"))
            .collect()
    }

    /// The old rule is one trace of the shared failure round: a scripted
    /// plan that fails, at round 6, the VM the old rule picked there, under
    /// the reactive policy (which drops the disrupted forest), reproduces
    /// the bytes the old rule printed — at one thread and at four — and
    /// the counts it did not print repeat across those thread counts.
    #[test]
    fn a_scripted_failure_reproduces_the_old_online_rule() {
        let mut spec = presets::preset("inet-churn-failures").unwrap().unwrap();
        let (group, failures) = online_parts(&mut spec);
        group.requests = 8;
        // The old rule's pick: the lowest-id VM the standing forest used
        // after arrival 6, which no failure had touched yet.
        let taken = failures.take();
        group.requests = 6;
        let twin = drive(&spec);
        let forest = twin.pool.sessions()[0].forest().unwrap();
        let vm = *forest.enabled_vms().unwrap().keys().next().unwrap();
        let (group, failures) = online_parts(&mut spec);
        group.requests = 8;
        let mut f = taken.unwrap();
        assert_eq!(
            (f.every, f.count, f.policies.as_slice()),
            (6, 1, ["reactive".to_string()].as_slice())
        );
        f.process = "scripted".into();
        f.events = vec![FailureEventSpec {
            at: 6,
            element: format!("vm:{}", vm.index()),
            repair: 0,
        }];
        *failures = Some(f);
        let streams: Vec<String> = [1, 4]
            .into_iter()
            .map(|threads| {
                let opts = RunOptions {
                    threads,
                    timings: false,
                };
                write_jsonl(&run_spec(&spec, &opts).unwrap(), false)
            })
            .collect();
        for (jsonl, threads) in streams.iter().zip([1, 4]) {
            assert_eq!(old_rule_lines(jsonl), OLD_RULE_JSONL, "{threads} threads");
        }
        assert_eq!(streams[0], streams[1]);
        // The recovery lines the old rule could not print: its one failure
        // disrupted the forest, and the next arrival's rebuild restored it.
        let section = "{\"type\":\"stat\",\"section\":\"group0:inet-sized\",";
        for (name, value) in [
            ("fail_events", "1.0"),
            ("disruptions", "1.0"),
            ("recoveries", "1.0"),
            ("mean_events_to_restore", "1.0"),
        ] {
            let line = format!("{section}\"name\":\"{name}\",\"value\":{value}}}\n");
            assert!(streams[0].contains(&line), "{line}");
        }
    }

    /// The online failure axis in full, through the round churn-at-scale
    /// runs: links fail (never VMs), each failure is repaired one round
    /// later, and a standby forest answers every disruption at once and at
    /// zero cost — no rebuild, no backup walk. Once the last repair is in,
    /// nothing is failed and every link and VM is priced bit for bit as in
    /// a session that never failed anything and stands on the same forest.
    /// Fails when the round skips its recovery pass: no disruption is ever
    /// recorded.
    #[test]
    fn online_links_fail_protect_and_repair_back_to_the_never_failed_prices() {
        let spec = ScenarioSpec::from_toml(
            r#"
name = "online-links"
[topology]
name = "cogent"
[workload]
kind = "online"
seed = 5
solvers = ["SOFDA"]
[[workload.groups]]
requests = 10
vms_per_dc = 2
churn = { sources = [2, 3], destinations = [4, 6], leaves = [1, 2], joins = [1, 2] }
[workload.failures]
every = 3
count = 8
scope = ["link"]
repair = [1, 1]
policies = ["standby-forest"]
"#,
        )
        .unwrap();
        let run = drive(&spec);
        let metrics = *run.rounds.as_ref().unwrap().metrics();
        // Rounds 3, 6 and 9 fail eight links each; rounds 4, 7 and 10
        // repair them.
        assert_eq!((metrics.fail_events, metrics.repair_events), (24, 24));
        assert!(metrics.disruptions > 0, "no failure hit the forest");
        assert_eq!(
            metrics.immediate, metrics.disruptions,
            "a rebuild recovered"
        );
        assert_eq!(metrics.recovery_cost_sum, 0.0, "a backup walk recovered");
        let session = &run.pool.sessions()[0];
        assert_eq!(session.stats().vm_failures, 0, "the scope is links");
        assert!(session.faults().is_empty(), "a repair never came due");
        let forest = session.forest().unwrap();

        let Workload::Online { seed, groups, .. } = &spec.workload else {
            unreachable!()
        };
        let topo = group_topology(&spec, &groups[0], *seed).unwrap();
        let mut twin = OnlineSession::new(
            group_instance(&spec, &groups[0], &topo, *seed),
            solver_by_name("SOFDA").unwrap(),
            spec.sofda.with_seed(*seed),
            OnlineConfig {
                demand_mbps: groups[0].churn.demand_mbps,
                ..spec.online
            },
        );
        let request = session.instance().request.clone();
        twin.apply(SessionEvent::Arrive(request)).unwrap();
        twin.replace_forest(forest.clone()).unwrap();
        let (net, expect) = (&session.instance().network, &twin.instance().network);
        for (e, _) in net.graph().edges() {
            let (got, want) = (net.graph().edge_cost(e), expect.graph().edge_cost(e));
            assert_eq!(got.value().to_bits(), want.value().to_bits(), "{e:?}");
        }
        for vm in net.vms() {
            let (got, want) = (net.node_cost(vm), expect.node_cost(vm));
            assert_eq!(got.value().to_bits(), want.value().to_bits(), "{vm}");
        }
    }
}
