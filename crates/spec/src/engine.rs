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
    self, Cell, Detail, ExtraRow, OnlineDetail, OnlineSolverStats, PoolDetail, ReportMeta,
    RunReport, Section, Table, TableRow,
};
use crate::sink::JsonlSink;
use crate::spec::{
    ChurnSpec, FailureSpec, GridMetric, OnlineGroup, ScaleSpec, ScenarioSpec, SpecError, Workload,
};
use crate::value::{write_json, Value};
use sof_core::{
    fortz_thorup, Element, EmbedMode, OnlineSession, Request, ServiceChain, SessionEvent,
    SessionPool, SofInstance, Solver,
};
use sof_graph::{Cost, NodeId, Rng64};
use sof_runner::{CollectSink, Record, Runner, RunnerConfig, Summary, Ward};
use sof_sim::{simulate_sessions, ChurnStream, EnvironmentProfile, PlayerConfig, Session};
use sof_topo::{build_instance, build_named, display_label, RegionsParams, Topology};
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
            sessions,
            groups,
            failures,
        } => run_online(
            spec,
            *seed,
            solvers,
            *sessions,
            groups,
            failures.as_deref(),
            opts,
        ),
        Workload::ChurnAtScale(s) => run_churn_at_scale(spec, s, opts),
    }
}

/// Compiles a churn-at-scale spec into the runner's configuration.
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
    let mut cfg = RunnerConfig::new(spec.name.clone());
    cfg.regions = RegionsParams {
        regions: s.regions.clone(),
        gateway_links: s.gateway_links,
        pair_cost: s.pair_cost.clone(),
    };
    cfg.groups = s.groups;
    cfg.vms_per_dc = s.vms_per_dc;
    cfg.setup_scale = spec.params.setup_scale;
    cfg.churn = s.churn;
    cfg.solver = s.solver.clone();
    cfg.sofda = spec.sofda.with_seed(s.seed);
    cfg.online = spec.online.to_config(s.churn.demand_mbps);
    cfg.seed = s.seed;
    cfg.window = s.window;
    cfg.emit_events = s.emit_events;
    cfg.timings = opts.timings;
    cfg.threads = opts.threads;
    if let Some(f) = &s.failures {
        // The first listed policy; multi-policy comparison legs swap it.
        let plan = f
            .to_plan(&f.policies[0])
            .map_err(|e| SpecError(format!("'workload.failures': {e}")))?;
        cfg.failures = Some(plan);
    }
    cfg.wards = vec![Ward::MaxEvents(s.events)];
    if let Some(c) = &s.converge {
        cfg.wards.push(Ward::ConvergedCost {
            epsilon: c.epsilon,
            patience: c.patience,
        });
    }
    if let Some(secs) = s.max_seconds {
        cfg.wards
            .push(Ward::MaxWallclock(std::time::Duration::from_secs_f64(secs)));
    }
    Ok(cfg)
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
    let cfg = runner_config(spec, opts)?;
    let policies = churn_policies(spec);
    if policies.len() <= 1 {
        let mut runner = Runner::new(cfg).map_err(SpecError)?;
        runner.add_sink(Box::new(JsonlSink::new(out)));
        return runner.run().map_err(SpecError);
    }
    // Policy-comparison run: one streamed leg per policy over the identical
    // failure trace, then a closing comparison line.
    let shared = SharedOut(std::sync::Arc::new(std::sync::Mutex::new(out)));
    let mut legs: Vec<(String, Summary)> = Vec::new();
    for policy in &policies {
        let mut leg = cfg.clone();
        if let Some(plan) = leg.failures.as_mut() {
            plan.policy = sof_survive::ProtectionPolicy::from_name(policy)
                .map_err(|e| SpecError(format!("'workload.failures.policies': {e}")))?;
        }
        let mut runner = Runner::new(leg).map_err(SpecError)?;
        runner.add_sink(Box::new(JsonlSink::new(shared.clone())));
        let summary = runner.run().map_err(SpecError)?;
        legs.push((policy.clone(), summary));
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

/// The protection policies a churn-at-scale spec's failure axis lists
/// (empty when the spec has no failure axis).
fn churn_policies(spec: &ScenarioSpec) -> Vec<String> {
    match &spec.workload {
        Workload::ChurnAtScale(s) => s
            .failures
            .as_ref()
            .map(|f| f.policies.clone())
            .unwrap_or_default(),
        _ => Vec::new(),
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
    s: &ScaleSpec,
    opts: &RunOptions,
) -> Result<RunReport, SpecError> {
    let cfg = runner_config(spec, opts)?;
    let policies = churn_policies(spec);
    // Comparison legs beyond the first rerun the identical trace under the
    // other policies; only their recovery summaries feed the report.
    let mut comparison: Vec<(String, sof_runner::RecoverySummary)> = Vec::new();
    for policy in policies.iter().skip(1) {
        let mut leg = cfg.clone();
        if let Some(plan) = leg.failures.as_mut() {
            plan.policy = sof_survive::ProtectionPolicy::from_name(policy)
                .map_err(|e| SpecError(format!("'workload.failures.policies': {e}")))?;
        }
        let leg_summary = Runner::new(leg)
            .map_err(SpecError)?
            .run()
            .map_err(SpecError)?;
        comparison.push((policy.clone(), leg_summary.recovery.unwrap_or_default()));
    }
    let mut runner = Runner::new(cfg).map_err(SpecError)?;
    let (sink, records) = CollectSink::new();
    runner.add_sink(Box::new(sink));
    let started = Instant::now();
    let summary = runner.run().map_err(SpecError)?;
    let secs = started.elapsed().as_secs_f64();
    if let (Some(first), Some(r)) = (policies.first(), summary.recovery) {
        comparison.insert(0, (first.clone(), r));
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

/// When `arrival` (1-based, of `arrivals`) is due under `failures`: in
/// every session, fails up to `count` VMs currently carrying VNFs
/// (deterministically: the lowest-id enabled VMs) as one
/// [`SessionEvent::Fail`] and drops the forest they disrupted, so the next
/// arrival rebuilds around them. Returns how many VMs were failed.
fn inject_vm_failures<'a>(
    sessions: impl IntoIterator<Item = &'a mut OnlineSession>,
    failures: Option<&FailureSpec>,
    arrival: usize,
    arrivals: usize,
) -> usize {
    let Some(f) = failures.filter(|f| arrival.is_multiple_of(f.every) && arrival < arrivals) else {
        return 0;
    };
    let mut injected = 0;
    for session in sessions {
        let Some(used) = session.forest().and_then(|f| f.enabled_vms().ok()) else {
            continue;
        };
        let victims: Vec<Element> = used
            .keys()
            .take(f.count)
            .map(|&vm| Element::Vm(vm))
            .collect();
        // Every enabled VM is a VM, so the session accepts them all.
        if !victims.is_empty() && session.apply(SessionEvent::Fail(victims.clone())).is_ok() {
            injected += victims.len();
            session.clear_forest();
        }
    }
    injected
}

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
    sessions: usize,
    groups: &[OnlineGroup],
    failures: Option<&FailureSpec>,
    opts: &RunOptions,
) -> Result<RunReport, SpecError> {
    let heading = if sessions > 1 {
        format!(
            "{} — {} ({sessions} concurrent sessions per topology)",
            spec.label, spec.title
        )
    } else {
        format!(
            "{} — {} (accumulative cost, viewer churn)",
            spec.label, spec.title
        )
    };
    let mut report_solvers: Vec<String> = solver_names.to_vec();
    if sessions == 1 && groups.iter().any(|g| g.scratch) {
        report_solvers.insert(0, "SOFDA (scratch)".into());
    }
    let mut sections = Vec::with_capacity(groups.len());
    for (gi, group) in groups.iter().enumerate() {
        let section = if sessions > 1 {
            run_pool_group(
                spec,
                gi,
                group,
                seed,
                solver_names,
                sessions,
                failures,
                opts,
            )?
        } else {
            run_single_group(spec, gi, group, seed, solver_names, failures)?
        };
        sections.push(section);
    }
    Ok(RunReport {
        meta: meta(spec, heading, seed, 1, report_solvers),
        sections,
    })
}

fn section_id(gi: usize, topo_name: &str) -> String {
    format!("group{gi}:{topo_name}")
}

fn run_single_group(
    spec: &ScenarioSpec,
    gi: usize,
    group: &OnlineGroup,
    seed: u64,
    solver_names: &[String],
    failures: Option<&FailureSpec>,
) -> Result<Section, SpecError> {
    let topo = group_topology(spec, group, seed)?;
    if group.requests == 0 {
        return Ok(Section {
            id: section_id(gi, topo.name),
            heading: Some(format!(
                "{} — {} (0 arrivals requested — skipped)",
                spec.label, topo.name
            )),
            table: None,
            extra_rows: Vec::new(),
            detail: Detail::None,
        });
    }
    let churn: ChurnSpec = group.churn.clone();
    let mut stream = ChurnStream::new(churn.to_params(), topo.graph.node_count(), seed);
    let mut events = vec![stream.current().clone()];
    while events.len() < group.requests {
        events.push(stream.next_request());
    }
    let online_config = spec.online.to_config(stream.demand());

    let mut labels: Vec<String> = Vec::new();
    let mut engines: Vec<OnlineSession> = Vec::new();
    if group.scratch {
        labels.push("SOFDA (scratch)".into());
        engines.push(OnlineSession::new(
            group_instance(spec, group, &topo, seed),
            solver_by_name("SOFDA")?,
            spec.sofda.with_seed(seed),
            online_config.with_mode(EmbedMode::FromScratch),
        ));
    }
    for name in solver_names {
        let solver = solver_by_name(name)?;
        labels.push(solver.name().into());
        engines.push(OnlineSession::new(
            group_instance(spec, group, &topo, seed),
            solver,
            spec.sofda.with_seed(seed),
            online_config,
        ));
    }

    let mut stats: Vec<OnlineSolverStats> = labels
        .iter()
        .map(|l| OnlineSolverStats {
            label: l.clone(),
            ..OnlineSolverStats::default()
        })
        .collect();
    let mut rows = Vec::new();
    let mut warnings = Vec::new();
    let mut arrival_failures = 0usize;
    let mut vm_failures = 0usize;
    for (ai, request) in events.iter().enumerate() {
        let arrival = ai + 1;
        for (si, session) in engines.iter_mut().enumerate() {
            match session.apply(SessionEvent::Arrive(request.clone())) {
                Ok(applied) => {
                    let report = applied.report().expect("an arrival reports");
                    let t = &mut stats[si];
                    if report.rebuilt {
                        t.solve_ms += report.millis;
                        t.solve_n += 1;
                    } else {
                        t.inc_ms += report.millis;
                        t.inc_n += 1;
                    }
                }
                Err(e) => {
                    arrival_failures += 1;
                    warnings.push(format!(
                        "{} failed on {} arrival {arrival}: {e}",
                        labels[si], topo.name
                    ));
                }
            }
        }
        vm_failures += inject_vm_failures(&mut engines, failures, arrival, events.len());
        if arrival % 5 == 0 || arrival == events.len() {
            rows.push(TableRow {
                label: arrival.to_string(),
                x: Some(arrival as f64),
                cells: engines
                    .iter()
                    .map(|s| Cell::num(Some(s.accumulated_cost()), 0))
                    .collect(),
            });
        }
    }
    for (session, t) in engines.iter().zip(&mut stats) {
        t.session = *session.stats();
        t.engine = session.instance().network.paths().stats();
    }
    let suffix = if group.scratch {
        ""
    } else {
        "; from-scratch baseline skipped (set scratch = true in the spec to run it)"
    };
    Ok(Section {
        id: section_id(gi, topo.name),
        heading: Some(format!(
            "{} — {} ({} arrivals, viewer churn{suffix})",
            spec.label, topo.name, group.requests
        )),
        table: Some(Table {
            col0: "#arrivals".into(),
            columns: labels,
            rows,
        }),
        extra_rows: Vec::new(),
        detail: Detail::Online(OnlineDetail {
            scratch: group.scratch,
            failures: arrival_failures,
            vm_failures,
            sessions: stats,
            warnings,
        }),
    })
}

#[allow(clippy::too_many_arguments)]
fn run_pool_group(
    spec: &ScenarioSpec,
    gi: usize,
    group: &OnlineGroup,
    seed: u64,
    solver_names: &[String],
    sessions: usize,
    failures: Option<&FailureSpec>,
    opts: &RunOptions,
) -> Result<Section, SpecError> {
    let topo = group_topology(spec, group, seed)?;
    if group.requests == 0 {
        return Ok(Section {
            id: section_id(gi, topo.name),
            heading: Some(format!(
                "{} — {} (0 arrivals requested — skipped)",
                spec.label, topo.name
            )),
            table: None,
            extra_rows: Vec::new(),
            detail: Detail::None,
        });
    }
    let solver_name = solver_names.first().map(String::as_str).unwrap_or("SOFDA");
    let churn = group.churn.to_params();
    let mut streams: Vec<ChurnStream> = (0..sessions)
        .map(|g| ChurnStream::new(churn, topo.graph.node_count(), seed + g as u64))
        .collect();
    let engines: Vec<OnlineSession> = (0..sessions)
        .map(|g| -> Result<OnlineSession, SpecError> {
            let group_seed = seed + g as u64;
            Ok(OnlineSession::new(
                group_instance(spec, group, &topo, group_seed),
                solver_by_name(solver_name)?,
                spec.sofda.with_seed(group_seed),
                spec.online.to_config(churn.base.demand_mbps),
            ))
        })
        .collect::<Result<_, _>>()?;
    let mut pool = SessionPool::new(engines).with_threads(opts.threads);
    let mut rows = Vec::new();
    let t0 = Instant::now();
    let mut arrival_failures = 0usize;
    let mut vm_failures = 0usize;
    for step in 0..group.requests {
        let arrivals: Vec<Option<SessionEvent>> = streams
            .iter_mut()
            .map(|s| {
                let request = if step == 0 {
                    s.current().clone()
                } else {
                    s.next_request()
                };
                Some(SessionEvent::Arrive(request))
            })
            .collect();
        arrival_failures += pool
            .apply(&arrivals)
            .iter()
            .filter(|r| matches!(r, Some(Err(_))))
            .count();
        let arrival = step + 1;
        vm_failures += inject_vm_failures(pool.sessions_mut(), failures, arrival, group.requests);
        if arrival % 5 == 0 || arrival == group.requests {
            let total = pool.total_accumulated_cost();
            rows.push(TableRow {
                label: arrival.to_string(),
                x: Some(arrival as f64),
                cells: vec![
                    Cell::num(Some(total), 0),
                    Cell::num(Some(total / sessions as f64), 0),
                ],
            });
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    let solves: usize = pool.sessions().iter().map(|s| s.stats().full_solves).sum();
    let incremental: usize = pool
        .sessions()
        .iter()
        .map(|s| s.stats().incremental_events)
        .sum();
    // Report the worker count the pool actually ran with: the explicit
    // override when given, the configured default otherwise.
    let worker_count = if opts.threads == 0 {
        sof_par::current_threads()
    } else {
        sof_par::resolve_threads(opts.threads)
    };
    Ok(Section {
        id: section_id(gi, topo.name),
        heading: Some(format!(
            "{} — {} ({sessions} concurrent sessions × {} arrivals, {worker_count} threads)",
            spec.label, topo.name, group.requests,
        )),
        table: Some(Table {
            col0: "#arrivals".into(),
            columns: vec!["Σ accumulated cost".into(), "mean cost/session".into()],
            rows,
        }),
        extra_rows: Vec::new(),
        detail: Detail::Pool(PoolDetail {
            groups: sessions,
            requests: group.requests,
            secs,
            solves,
            incremental,
            failures: arrival_failures,
            vm_failures,
        }),
    })
}
