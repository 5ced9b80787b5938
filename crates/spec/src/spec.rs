//! The declarative [`ScenarioSpec`] model: what an experiment *is*, as
//! data — topology, scenario parameters, cost/solver configuration and a
//! workload — plus semantic validation with actionable messages and, at the
//! bottom, the codec: one field list per table type, from which strict
//! parsing (unknown keys are errors), defaults and lossless serialization
//! back to TOML or JSON all come (see [`crate::field`]).

use crate::field::{fits_int, keys, named_field, put, read_table, table_field, Field, Reader};
use crate::oneshot::{standard_axes, ParamField, SweepAxis};
use crate::value::{parse_json, parse_toml, write_json, write_toml, ParseError, Value};
use sof_core::{OnlineConfig, SofdaConfig};
use sof_graph::Cost;
use sof_kstroll::StrollSolver;
use sof_runner::{Converge, GroupChurnConfig, RunnerConfig};
use sof_sim::{ChurnParams, WorkloadParams};
use sof_steiner::SteinerSolver;
use sof_survive::{ElementRef, FailureSpec, ScriptedEvent};
use sof_topo::{RegionDef, ScenarioParams, TopologySpec};
use std::fmt;
use std::str::FromStr;

/// A spec-layer error (parse, unknown key, or semantic validation).
#[derive(Clone, Debug, PartialEq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for SpecError {}

impl From<ParseError> for SpecError {
    fn from(e: ParseError) -> SpecError {
        SpecError(e.to_string())
    }
}

fn fail<T>(msg: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError(msg.into()))
}

// ---------------------------------------------------------------------------
// The model
// ---------------------------------------------------------------------------

/// Which measurement a grid workload reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GridMetric {
    /// Mean forest cost.
    Cost,
    /// Mean enabled-VM count.
    UsedVms,
}

impl GridMetric {
    /// The spec-file name.
    pub fn as_str(&self) -> &'static str {
        match self {
            GridMetric::Cost => "cost",
            GridMetric::UsedVms => "used_vms",
        }
    }

    /// The display name the figures use.
    pub fn display(&self) -> &'static str {
        match self {
            GridMetric::Cost => "cost",
            GridMetric::UsedVms => "used VMs",
        }
    }

    fn from_name(name: &str) -> Result<GridMetric, String> {
        match name {
            "cost" => Ok(GridMetric::Cost),
            "used_vms" => Ok(GridMetric::UsedVms),
            other => Err(format!(
                "unknown metric '{other}' (expected 'cost' or 'used_vms')"
            )),
        }
    }
}

/// One churning multicast group in an online workload.
#[derive(Clone, Debug, PartialEq)]
pub struct OnlineGroup {
    /// Topology override (default: the spec's top-level topology).
    pub topology: Option<TopologySpec>,
    /// Arrivals to process (0 = the group is skipped).
    pub requests: usize,
    /// Run a from-scratch SOFDA baseline next to the incremental sessions.
    pub scratch: bool,
    /// VMs attached per data center when building the instance.
    pub vms_per_dc: usize,
    /// The churn process.
    pub churn: ChurnParams,
}

/// The workload half of a spec: what actually runs.
#[derive(Clone, Debug, PartialEq)]
pub enum Workload {
    /// Fig. 7: tabulate the convex Fortz–Thorup cost function.
    CostCurve {
        /// Points beyond load 0 (the curve is sampled at `0..=points`).
        points: usize,
        /// Load step between points.
        step: f64,
        /// Link capacity handed to the cost function.
        capacity: f64,
    },
    /// Figs. 8–10: per-axis solver-comparison sweeps (mean cost).
    Sweep {
        /// Solver display names (registry lookup).
        solvers: Vec<String>,
        /// Averaging width.
        seeds: u64,
        /// Base RNG seed.
        seed: u64,
        /// The swept axes, each its own table.
        axes: Vec<SweepAxis>,
    },
    /// Fig. 11: a row × column parameter grid for one solver.
    Grid {
        /// Solver display name.
        solver: String,
        /// Averaging width.
        seeds: u64,
        /// Base RNG seed.
        seed: u64,
        /// Row axis (one table row per value).
        rows: SweepAxis,
        /// Column axis (one table column per value).
        cols: SweepAxis,
        /// One output table per metric.
        metrics: Vec<GridMetric>,
    },
    /// Table I: solver running time vs `inet` network size × source count.
    Runtime {
        /// Solver display name.
        solver: String,
        /// Base RNG seed.
        seed: u64,
        /// Network sizes (nodes; links = 2×, DCs = 2/5×).
        sizes: Vec<usize>,
        /// Source counts (columns).
        sources: Vec<usize>,
    },
    /// Table II: testbed QoE (startup latency / rebuffering) per solver.
    Qoe {
        /// Solver display names.
        solvers: Vec<String>,
        /// Averaging width.
        seeds: u64,
        /// Base RNG seed.
        seed: u64,
    },
    /// Fig. 12: online deployment under viewer churn, every solver side by
    /// side on one request stream per group (optionally with failure
    /// injection). Many concurrent groups are `churn-at-scale`'s job.
    Online {
        /// Base RNG seed.
        seed: u64,
        /// Solver display names served incrementally, one session each.
        solvers: Vec<String>,
        /// The churning groups, run in order.
        groups: Vec<OnlineGroup>,
        /// Optional failure injection (boxed: large and usually absent).
        failures: Option<Box<FailureSpec>>,
    },
    /// Streaming churn at scale: a `sof_runner` run over lazily generated
    /// group timelines (10k+ groups, 1M+ events, bounded memory). The
    /// table reads straight into the runner's configuration; the fields
    /// its keys do not name keep their defaults here and are set by
    /// [`crate::runner_config`]. Boxed: the configuration is large.
    ChurnAtScale(Box<RunnerConfig>),
}

impl Workload {
    /// The spec-file name of this workload kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Workload::CostCurve { .. } => "cost-curve",
            Workload::Sweep { .. } => "sweep",
            Workload::Grid { .. } => "grid",
            Workload::Runtime { .. } => "runtime",
            Workload::Qoe { .. } => "qoe",
            Workload::Online { .. } => "online",
            Workload::ChurnAtScale(_) => "churn-at-scale",
        }
    }

    /// The base RNG seed driving this workload.
    pub fn seed(&self) -> u64 {
        match self {
            Workload::CostCurve { .. } => 0,
            Workload::Sweep { seed, .. }
            | Workload::Grid { seed, .. }
            | Workload::Runtime { seed, .. }
            | Workload::Qoe { seed, .. }
            | Workload::Online { seed, .. } => *seed,
            Workload::ChurnAtScale(s) => s.seed,
        }
    }

    /// The averaging width, where the kind has one.
    pub fn seeds(&self) -> u64 {
        match self {
            Workload::Sweep { seeds, .. }
            | Workload::Grid { seeds, .. }
            | Workload::Qoe { seeds, .. } => *seeds,
            _ => 1,
        }
    }
}

/// A complete declarative scenario: metadata + topology + parameters +
/// solver configuration + workload. See `SPEC_FORMAT.md` at the repo root
/// for the file-format reference.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Identifier (preset name / output file stem).
    pub name: String,
    /// Display label used in headings (e.g. `"Fig. 8"`).
    pub label: String,
    /// Heading text (e.g. `"SoftLayer one-time deployment"`).
    pub title: String,
    /// Free-form description (shown by `sof list`).
    pub description: String,
    /// The network (online groups may override per group).
    pub topology: TopologySpec,
    /// Scenario parameters around which sweeps vary (the seed field is
    /// ignored — the workload seed governs).
    pub params: ScenarioParams,
    /// Solver configuration (the seed field is ignored — the workload
    /// seed governs).
    pub sofda: SofdaConfig,
    /// Online-session tuning (used by `online` and churn-at-scale
    /// workloads): the `[online]` keys; `demand_mbps` comes from the
    /// group's churn spec, `mode` from the engine.
    pub online: OnlineConfig,
    /// What runs.
    pub workload: Workload,
}

impl ScenarioSpec {
    /// Parses a TOML spec (strict: unknown keys are errors) and validates
    /// it.
    ///
    /// # Errors
    ///
    /// [`SpecError`] describing the first syntactic, structural, or
    /// semantic problem.
    pub fn from_toml(src: &str) -> Result<ScenarioSpec, SpecError> {
        let v = parse_toml(src)?;
        ScenarioSpec::from_value(&v)
    }

    /// Parses a JSON spec (same schema as the TOML form).
    ///
    /// # Errors
    ///
    /// [`SpecError`] describing the first syntactic, structural, or
    /// semantic problem.
    pub fn from_json(src: &str) -> Result<ScenarioSpec, SpecError> {
        let v = parse_json(src)?;
        ScenarioSpec::from_value(&v)
    }

    /// Parses a spec from a file path, dispatching on the `.json`
    /// extension (anything else parses as TOML).
    ///
    /// # Errors
    ///
    /// [`SpecError`] for unreadable files and everything
    /// [`ScenarioSpec::from_toml`] rejects.
    pub fn from_path(path: &std::path::Path) -> Result<ScenarioSpec, SpecError> {
        let src = std::fs::read_to_string(path)
            .map_err(|e| SpecError(format!("cannot read {}: {e}", path.display())))?;
        let parsed = if path.extension().is_some_and(|e| e == "json") {
            ScenarioSpec::from_json(&src)
        } else {
            ScenarioSpec::from_toml(&src)
        };
        parsed.map_err(|e| SpecError(format!("{}: {e}", path.display())))
    }

    /// Builds the spec from a parsed [`Value`] tree and validates it.
    ///
    /// # Errors
    ///
    /// [`SpecError`] naming the offending key for structural problems
    /// (wrong types, unknown keys) or the violated constraint.
    pub fn from_value(v: &Value) -> Result<ScenarioSpec, SpecError> {
        let spec = ScenarioSpec::read(v, "").map_err(SpecError)?;
        spec.validate()?;
        Ok(spec)
    }

    /// Semantic validation: registry lookups and range checks beyond what
    /// the structural reader enforces.
    ///
    /// # Errors
    ///
    /// [`SpecError`] naming the violated constraint.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.name.is_empty() {
            return fail("'name' must not be empty");
        }
        sof_topo::validate_named(&self.topology).map_err(SpecError)?;
        // A document's integers are `i64`: a seed a file cannot say is not
        // one `--seed` may set, or the spec would not read back.
        let (seed, seeds) = (self.workload.seed(), self.workload.seeds());
        let mut ints = vec![("workload.seed", seed), ("workload.seeds", seeds)];
        let failures = match &self.workload {
            Workload::Online { failures, .. } => failures.as_deref(),
            _ => None,
        };
        ints.extend(failures.map(|f| ("workload.failures.seed", f.seed)));
        for (at, n) in ints {
            fits_int(at, n).map_err(SpecError)?;
        }
        if let Some(f) = failures {
            // Compiling per policy also runs FailurePlan::validate, so
            // the spec layer and the survivability layer can never
            // disagree on what a legal failure axis is.
            f.validate("workload.failures").map_err(SpecError)?;
        }
        let p = &self.params;
        if p.chain_len == 0 {
            return fail("'params.chain_len' must be at least 1");
        }
        if p.sources == 0 || p.destinations == 0 {
            return fail("'params.sources' and 'params.destinations' must be at least 1");
        }
        // `positive`/`non_negative` are NaN-rejecting (NaN fails both).
        let positive = |x: f64| x.is_finite() && x > 0.0;
        let non_negative = |x: f64| x.is_finite() && x >= 0.0;
        if !positive(p.setup_scale) {
            return fail("'params.setup_scale' must be positive");
        }
        if !non_negative(self.online.drift) {
            return fail("'online.drift' must be non-negative");
        }
        let check_solver = |ctx: &str, name: &str| -> Result<(), SpecError> {
            if sof_solvers::by_name(name).is_none() {
                let known: Vec<&str> = sof_solvers::all().iter().map(|s| s.name()).collect();
                return fail(format!(
                    "{ctx}: unknown solver '{name}' (registered: {})",
                    known.join(", ")
                ));
            }
            Ok(())
        };
        let check_axis = |at: &str, axis: &SweepAxis| -> Result<(), SpecError> {
            if axis.values.is_empty() {
                return fail(format!("'{at}.values' must not be empty"));
            }
            if matches!(axis.field, ParamField::ChainLen | ParamField::SetupScale)
                && axis.values.contains(&0)
            {
                return fail(format!(
                    "'{at}.values' must be at least 1 for '{}'",
                    axis.field.as_str()
                ));
            }
            Ok(())
        };
        match &self.workload {
            Workload::CostCurve {
                points,
                step,
                capacity,
            } => {
                if *points == 0 {
                    return fail("'workload.points' must be at least 1");
                }
                if !positive(*step) || !positive(*capacity) {
                    return fail("'workload.step' and 'workload.capacity' must be positive");
                }
            }
            Workload::Sweep {
                solvers,
                seeds,
                axes,
                ..
            } => {
                if solvers.is_empty() {
                    return fail("'workload.solvers' must name at least one solver");
                }
                for s in solvers {
                    check_solver("'workload.solvers'", s)?;
                }
                if *seeds == 0 {
                    return fail("'workload.seeds' must be at least 1");
                }
                if axes.is_empty() {
                    return fail("'workload.axes' must define at least one axis");
                }
                for (i, axis) in axes.iter().enumerate() {
                    check_axis(&format!("workload.axes[{i}]"), axis)?;
                }
            }
            Workload::Grid {
                solver,
                seeds,
                rows,
                cols,
                metrics,
                ..
            } => {
                check_solver("'workload.solver'", solver)?;
                if *seeds == 0 {
                    return fail("'workload.seeds' must be at least 1");
                }
                check_axis("workload.rows", rows)?;
                check_axis("workload.cols", cols)?;
                if metrics.is_empty() {
                    return fail("'workload.metrics' must name at least one metric");
                }
            }
            Workload::Runtime {
                solver,
                sizes,
                sources,
                ..
            } => {
                check_solver("'workload.solver'", solver)?;
                if sizes.is_empty() || sources.is_empty() {
                    return fail("'workload.sizes' and 'workload.sources' must not be empty");
                }
                if let Some(bad) = sizes.iter().find(|&&n| n < 10) {
                    return fail(format!(
                        "'workload.sizes' entries must be at least 10 nodes, got {bad}"
                    ));
                }
                if sources.contains(&0) {
                    return fail("'workload.sources' entries must be at least 1");
                }
            }
            Workload::Qoe { solvers, seeds, .. } => {
                if solvers.is_empty() {
                    return fail("'workload.solvers' must name at least one solver");
                }
                for s in solvers {
                    check_solver("'workload.solvers'", s)?;
                }
                if *seeds == 0 {
                    return fail("'workload.seeds' must be at least 1");
                }
            }
            Workload::Online {
                solvers,
                groups,
                failures,
                ..
            } => {
                if solvers.is_empty() {
                    return fail("'workload.solvers' must name at least one solver");
                }
                for s in solvers {
                    check_solver("'workload.solvers'", s)?;
                }
                if groups.is_empty() {
                    return fail("'workload.groups' must define at least one group");
                }
                for (i, g) in groups.iter().enumerate() {
                    let at = format!("workload.groups[{i}]");
                    if let Some(t) = &g.topology {
                        sof_topo::validate_named(t)
                            .map_err(|e| SpecError(format!("'{at}.topology': {e}")))?;
                    }
                    if g.vms_per_dc == 0 {
                        return fail(format!("'{at}.vms_per_dc' must be at least 1"));
                    }
                    let (c, churn) = (&g.churn.base, format!("{at}.churn"));
                    if c.chain_len == 0 {
                        return fail(format!("'{churn}.chain_len' must be at least 1"));
                    }
                    if !positive(c.demand_mbps) {
                        return fail(format!("'{churn}.demand_mbps' must be positive"));
                    }
                    if c.sources.0 == 0 {
                        return fail(format!("'{churn}.sources' must start at 1 or more"));
                    }
                    if c.destinations.0 == 0 {
                        return fail(format!("'{churn}.destinations' must start at 1 or more"));
                    }
                }
                if let Some(f) = failures {
                    let domains = f.scope.iter().any(|s| s == "domain")
                        || f.events
                            .iter()
                            .any(|e| matches!(e.element, ElementRef::Domain(_)));
                    if domains {
                        return fail(
                            "'workload.failures': online topologies have no domains to fail",
                        );
                    }
                    if f.policies.len() > 1 {
                        return fail(
                            "'workload.failures.policies': online runs one policy; \
                             comparison legs belong to churn-at-scale",
                        );
                    }
                }
            }
            // The runner holds every rule of its own table.
            Workload::ChurnAtScale(s) => s.validate("workload").map_err(SpecError)?,
        }
        Ok(())
    }

    /// Serializes the spec as a fully explicit [`Value`] tree: every field
    /// appears, defaults included, so a round trip through
    /// [`ScenarioSpec::from_value`] is the identity.
    pub fn to_value(&self) -> Value {
        self.write().expect("a table type always writes")
    }

    /// Serializes the spec as TOML (see [`ScenarioSpec::to_value`]).
    pub fn to_toml(&self) -> String {
        write_toml(&self.to_value())
    }

    /// Serializes the spec as compact JSON (see [`ScenarioSpec::to_value`]).
    pub fn to_json(&self) -> String {
        write_json(&self.to_value())
    }
}

// ---------------------------------------------------------------------------
// The codec: one field list per table type. Parsing, defaults, emitting and
// unknown-key rejection all come from these declarations (`crate::field`
// has the grammar); `validate` above holds the semantic checks, which are
// not a copy of any list. The hand-written impls are the irregular spots.
// ---------------------------------------------------------------------------

fn steiner_name(s: &SteinerSolver) -> &'static str {
    match s {
        SteinerSolver::Mehlhorn => "mehlhorn",
        SteinerSolver::TakahashiMatsuyama => "takahashi",
        SteinerSolver::DreyfusWagner => "dreyfus-wagner",
        SteinerSolver::Auto => "auto",
    }
}

fn parse_steiner(name: &str) -> Result<SteinerSolver, String> {
    match name.to_ascii_lowercase().as_str() {
        "mehlhorn" => Ok(SteinerSolver::Mehlhorn),
        "takahashi" | "takahashi-matsuyama" => Ok(SteinerSolver::TakahashiMatsuyama),
        "dreyfus-wagner" | "exact" => Ok(SteinerSolver::DreyfusWagner),
        "auto" => Ok(SteinerSolver::Auto),
        other => Err(format!(
            "unknown steiner solver '{other}' (expected mehlhorn, takahashi, dreyfus-wagner, \
             or auto)"
        )),
    }
}

fn stroll_name(s: &StrollSolver) -> &'static str {
    match s {
        StrollSolver::Exact => "exact",
        StrollSolver::Greedy => "greedy",
        StrollSolver::Auto => "auto",
    }
}

fn parse_stroll(name: &str) -> Result<StrollSolver, String> {
    match name.to_ascii_lowercase().as_str() {
        "exact" => Ok(StrollSolver::Exact),
        "greedy" => Ok(StrollSolver::Greedy),
        "auto" => Ok(StrollSolver::Auto),
        other => Err(format!(
            "unknown stroll solver '{other}' (expected exact, greedy, or auto)"
        )),
    }
}

named_field!(SteinerSolver, parse_steiner, steiner_name);
named_field!(StrollSolver, parse_stroll, stroll_name);
named_field!(ParamField, ParamField::from_name, ParamField::as_str);
named_field!(GridMetric, GridMetric::from_name, GridMetric::as_str);
named_field!(ElementRef, ElementRef::from_str, ElementRef::to_string);

impl Field for Cost {
    fn read(v: &Value, at: &str) -> Result<Cost, String> {
        let c = f64::read(v, at)?;
        if c >= 0.0 {
            Ok(Cost::new(c))
        } else {
            Err(format!("'{at}' must be ≥ 0, got {c}"))
        }
    }

    fn write(&self) -> Option<Value> {
        Some(Value::Float(self.value()))
    }
}

table_field!(ScenarioParams {
    ..ScenarioParams::paper_defaults();
    vm_count, sources, destinations, chain_len, setup_scale
});
table_field!(SofdaConfig {
    ..SofdaConfig::default();
    steiner, stroll, shorten, source_setup_cost
});
table_field!(OnlineConfig {
    ..OnlineConfig::default();
    drift
});
table_field!(GroupChurnConfig {
    ..GroupChurnConfig::default();
    viewers, sources, chain_len, demand_mbps, leaves, joins, lifetime, roam
});
table_field!(SweepAxis {
    field,
    values,
    label = ParamField::default_label(&field).to_string()
});
keys!(churn_base: WorkloadParams = WorkloadParams {
    sources,
    destinations,
    chain_len = 3,
    demand_mbps = 5.0
});

/// An online group's `churn` table is [`ChurnParams`] with its `base`
/// request shape spelt flat beside `leaves` and `joins`.
impl Field for ChurnParams {
    fn read(v: &Value, at: &str) -> Result<ChurnParams, String> {
        read_table(v, at, |r| {
            Ok(ChurnParams {
                base: churn_base::read(r)?,
                leaves: r.req("leaves")?,
                joins: r.req("joins")?,
            })
        })
    }

    fn write(&self) -> Option<Value> {
        let mut t = Value::table();
        churn_base::write(&self.base, &mut t);
        put(&mut t, "leaves", &self.leaves);
        put(&mut t, "joins", &self.joins);
        Some(t)
    }
}

table_field!(OnlineGroup {
    topology = None,
    requests,
    scratch = false,
    vms_per_dc = 5,
    churn
});
table_field!(RegionDef { name, nodes, dcs = 1 });
table_field!(Converge { epsilon = 1e-3, patience = 3 });
table_field!(ScriptedEvent { at, element, repair = 0 });
table_field!(FailureSpec {
    every = 10,
    count = 1,
    process = "periodic".to_string(),
    rate = 0.0,
    scope = vec!["vm".to_string()],
    repair = (0, 0),
    policies = vec!["reactive".to_string()],
    seed = 0,
    events = Vec::new()
});

keys!(topology: TopologySpec = TopologySpec {
    name,
    nodes = None,
    links = None,
    dcs = None,
    seed = None
});

impl Field for TopologySpec {
    fn read(v: &Value, at: &str) -> Result<TopologySpec, String> {
        // A bare string is shorthand for { name = "..." }.
        match v {
            Value::Str(name) => Ok(TopologySpec::named(name.clone())),
            table => read_table(table, at, topology::read),
        }
    }

    fn write(&self) -> Option<Value> {
        let mut t = Value::table();
        topology::write(self, &mut t);
        Some(t)
    }
}

fn names(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

keys!(cost_curve: Workload = Workload::CostCurve {
    points = 24,
    step = 0.05,
    capacity = 1.0
});
keys!(sweep: Workload = Workload::Sweep {
    solvers = Vec::new(),
    seeds = 1,
    seed = 1000,
    axes = standard_axes(0)
});
keys!(grid: Workload = Workload::Grid {
    solver = "SOFDA".to_string(),
    seeds = 1,
    seed = 1000,
    rows,
    cols,
    metrics = vec![GridMetric::Cost]
});
keys!(runtime: Workload = Workload::Runtime {
    solver = "SOFDA".to_string(),
    seed = 1000,
    sizes = vec![1000, 2000, 3000, 4000, 5000],
    sources = vec![2, 8, 14, 20, 26]
});
keys!(qoe: Workload = Workload::Qoe {
    solvers = names(&["SOFDA", "eNEMP", "eST"]),
    seeds = 1,
    seed = 1000
});
keys!(online: Workload = Workload::Online {
    seed = 1000,
    solvers = names(&["SOFDA", "eNEMP", "eST", "ST"]),
    groups,
    failures = None
});
keys!(scale: RunnerConfig = RunnerConfig {
    ..RunnerConfig::default();
    seed, solver, groups, events, window, vms_per_dc, gateway_links, regions, pair_cost, churn,
    failures, converge, max_seconds
});

/// The one renamed key: `emit = "windows" | "events"` is
/// [`RunnerConfig::emit_events`].
fn read_scale(r: &mut Reader<'_>) -> Result<Workload, String> {
    let mut s = scale::read(r)?;
    s.emit_events = match r.or("emit", "windows".to_string())?.as_str() {
        "windows" => false,
        "events" => true,
        other => {
            let at = r.path("emit");
            return Err(format!(
                "'{at}' must be \"windows\" or \"events\", got \"{other}\""
            ));
        }
    };
    Ok(Workload::ChurnAtScale(Box::new(s)))
}

impl Field for Workload {
    fn read(v: &Value, at: &str) -> Result<Workload, String> {
        read_table(v, at, |r| match r.req::<String>("kind")?.as_str() {
            "cost-curve" => cost_curve::read(r),
            "sweep" => sweep::read(r),
            "grid" => grid::read(r),
            "runtime" => runtime::read(r),
            "qoe" => qoe::read(r),
            "online" => online::read(r),
            "churn-at-scale" => read_scale(r),
            other => Err(format!(
                "unknown workload kind '{other}' (expected cost-curve, sweep, grid, runtime, \
                 qoe, online, or churn-at-scale)"
            )),
        })
    }

    fn write(&self) -> Option<Value> {
        let mut t = Value::table();
        t.set("kind", Value::Str(self.kind().into()));
        match self {
            Workload::CostCurve { .. } => cost_curve::write(self, &mut t),
            Workload::Sweep { .. } => sweep::write(self, &mut t),
            Workload::Grid { .. } => grid::write(self, &mut t),
            Workload::Runtime { .. } => runtime::write(self, &mut t),
            Workload::Qoe { .. } => qoe::write(self, &mut t),
            Workload::Online { .. } => online::write(self, &mut t),
            Workload::ChurnAtScale(s) => {
                scale::write(s, &mut t);
                let emit = if s.emit_events { "events" } else { "windows" };
                t.set("emit", Value::Str(emit.into()));
            }
        }
        Some(t)
    }
}

table_field!(ScenarioSpec {
    name,
    label = String::clone(&name),
    title = String::new(),
    description = String::new(),
    topology = TopologySpec::named("softlayer"),
    params = ScenarioParams::paper_defaults(),
    sofda = SofdaConfig::default(),
    online = OnlineConfig::default(),
    workload
});

#[cfg(test)]
mod tests {
    use super::*;

    const MINI: &str = r#"
name = "mini"
label = "Fig. X"
title = "a miniature sweep"

[topology]
name = "softlayer"

[workload]
kind = "sweep"
solvers = ["SOFDA", "eST"]
seeds = 2
seed = 42

[[workload.axes]]
field = "destinations"
values = [2, 4]
"#;

    #[test]
    fn parses_and_round_trips() {
        let spec = ScenarioSpec::from_toml(MINI).unwrap();
        assert_eq!(spec.name, "mini");
        assert_eq!(spec.label, "Fig. X");
        assert_eq!(spec.topology.name, "softlayer");
        let Workload::Sweep {
            ref solvers,
            seeds,
            seed,
            ref axes,
        } = spec.workload
        else {
            panic!("expected a sweep");
        };
        assert_eq!(solvers, &["SOFDA", "eST"]);
        assert_eq!((seeds, seed), (2, 42));
        assert_eq!(axes.len(), 1);
        assert_eq!(axes[0].label, "#destinations");

        // TOML round trip is the identity.
        let rewritten = spec.to_toml();
        let again = ScenarioSpec::from_toml(&rewritten).unwrap();
        assert_eq!(spec, again, "\n{rewritten}");
        // And so is the JSON round trip.
        let json = spec.to_json();
        assert_eq!(ScenarioSpec::from_json(&json).unwrap(), spec, "\n{json}");
    }

    /// SPEC_FORMAT.md's key rows under `[params]`, `[sofda]`, `[online]`,
    /// online's `[workload]`, a group and its `churn`, churn-at-scale's
    /// `[workload]`, a region, `[workload.churn]` and
    /// `[workload.converge]`, and `[workload.failures]` and a scripted
    /// event are those tables' field lists, in order: the keys are read
    /// off the strict parser's own "valid keys here: …" message, and the
    /// rows are the `` | `key` | `` lines of the first table under the
    /// table's heading (a `` `[workload.churn]` `` or
    /// `` `[[workload.regions]]` `` row names the key `churn` or
    /// `regions`). `kind` has its own row in the table of kinds.
    #[test]
    fn spec_format_md_rows_are_the_field_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../SPEC_FORMAT.md");
        let doc = std::fs::read_to_string(path).expect("SPEC_FORMAT.md at the repo root");
        let scale =
            |keys: &str| format!("name = \"m\"\n[workload]\nkind = \"churn-at-scale\"\n{keys}\n");
        // An online spec with one group: `workload` keys, then the group's,
        // then its churn's.
        let online = |keys: &str, group: &str, churn: &str| {
            format!(
                "name = \"m\"\n[workload]\nkind = \"online\"\n{keys}\n[[workload.groups]]\n\
                 requests = 1\n{group}\nchurn = {{ sources = [1, 1], destinations = [1, 1], \
                 leaves = [0, 0], joins = [0, 0]{churn} }}\n"
            )
        };
        let mut tables: Vec<(String, String, String)> = ["params", "sofda", "online"]
            .into_iter()
            .map(|table| {
                let src = MINI.replace("[topology]", &format!("[{table}]\nzzz = 1\n[topology]"));
                (table.to_string(), src, format!("## `[{table}]`"))
            })
            .collect();
        let scripted = "failures = { events = [{ at = 1, element = \"vm:1\", zzz = 1 }] }";
        tables.extend(
            [
                (
                    "workload",
                    online("zzz = 1", "", ""),
                    "### `kind = \"online\"`",
                ),
                ("workload.groups[0]", online("", "zzz = 1", ""), "A group:"),
                (
                    "workload.groups[0].churn",
                    online("", "", ", zzz = 1"),
                    "A group's `churn`:",
                ),
                (
                    "workload",
                    scale("zzz = 1"),
                    "### `kind = \"churn-at-scale\"`",
                ),
                (
                    "workload.regions[0]",
                    scale("regions = [{ name = \"a\", nodes = 3, zzz = 1 }]"),
                    "A region:",
                ),
                (
                    "workload.churn",
                    scale("churn = { zzz = 1 }"),
                    "`[workload.churn]`:",
                ),
                (
                    "workload.converge",
                    scale("converge = { zzz = 1 }"),
                    "`[workload.converge]`:",
                ),
                (
                    "workload.failures",
                    scale("failures = { zzz = 1 }"),
                    "### `[workload.failures]`",
                ),
                (
                    "workload.failures.events[0]",
                    scale(scripted),
                    "A scripted event:",
                ),
            ]
            .map(|(table, src, heading)| (table.to_string(), src, heading.to_string())),
        );
        for (table, src, heading) in &tables {
            let err = ScenarioSpec::from_toml(src).unwrap_err().to_string();
            let prefix = format!("unknown key '{table}.zzz' (valid keys here: ");
            let declared: Vec<&str> = err
                .strip_prefix(&prefix)
                .and_then(|rest| rest.strip_suffix(')'))
                .unwrap_or_else(|| panic!("{table}: {err}"))
                .split(", ")
                .filter(|key| *key != "kind")
                .collect();
            let documented: Vec<&str> = doc
                .lines()
                .skip_while(|line| !line.starts_with(heading.as_str()))
                .skip(1)
                .skip_while(|line| !line.starts_with('|'))
                .take_while(|line| line.starts_with('|'))
                .filter_map(|line| line.strip_prefix("| `")?.split('`').next())
                .filter_map(|span| span.trim_matches(['[', ']']).rsplit('.').next())
                .collect();
            assert_eq!(documented, declared, "SPEC_FORMAT.md's [{table}] rows");
        }
    }

    #[test]
    fn unknown_keys_are_rejected_with_context() {
        let src = MINI.replace("seeds = 2", "seeds = 2\nsede = 3");
        let err = ScenarioSpec::from_toml(&src).unwrap_err();
        assert!(
            err.to_string().contains("unknown key 'workload.sede'"),
            "{err}"
        );
        assert!(err.to_string().contains("valid keys here"), "{err}");

        let src = MINI.replace("[topology]", "[topology]\ncolour = \"blue\"");
        let err = ScenarioSpec::from_toml(&src).unwrap_err();
        assert!(
            err.to_string().contains("unknown key 'topology.colour'"),
            "{err}"
        );

        // An online spec has no `sessions` key: many groups are churn-at-scale's.
        let src = "name = \"o\"\n[workload]\nkind = \"online\"\nsessions = 2\n\
                   [[workload.groups]]\nrequests = 1\nchurn = { sources = [1, 1], \
                   destinations = [1, 1], leaves = [0, 0], joins = [0, 0] }\n";
        let err = ScenarioSpec::from_toml(src).unwrap_err();
        assert!(
            err.to_string().contains(
                "unknown key 'workload.sessions' (valid keys here: kind, seed, solvers, \
                 groups, failures)"
            ),
            "{err}"
        );
    }

    #[test]
    fn out_of_range_values_are_rejected_actionably() {
        let err = ScenarioSpec::from_toml(&MINI.replace("seeds = 2", "seeds = 0")).unwrap_err();
        assert!(err.to_string().contains("'workload.seeds'"), "{err}");
        let err = ScenarioSpec::from_toml(&MINI.replace("seeds = 2", "seeds = -3")).unwrap_err();
        assert!(err.to_string().contains("non-negative"), "{err}");
        let err =
            ScenarioSpec::from_toml(&MINI.replace("values = [2, 4]", "values = []")).unwrap_err();
        assert_eq!(
            err.to_string(),
            "'workload.axes[0].values' must not be empty"
        );
        let err = ScenarioSpec::from_toml(
            &MINI
                .replace("field = \"destinations\"", "field = \"chain_len\"")
                .replace("values = [2, 4]", "values = [0, 4]"),
        )
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            "'workload.axes[0].values' must be at least 1 for 'chain_len'"
        );
        let err =
            ScenarioSpec::from_toml(&MINI.replace("\"SOFDA\", ", "\"SOFDDA\", ")).unwrap_err();
        assert!(
            err.to_string().contains("unknown solver 'SOFDDA'")
                && err.to_string().contains("SOFDA"),
            "{err}"
        );
        let err = ScenarioSpec::from_toml(&MINI.replace("name = \"softlayer\"", "name = \"sl\""))
            .unwrap_err();
        assert!(err.to_string().contains("unknown topology 'sl'"), "{err}");
        let err = ScenarioSpec::from_toml(
            &MINI.replace("field = \"destinations\"", "field = \"colour\""),
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown sweep field"), "{err}");
    }

    #[test]
    fn online_spec_parses_groups_and_failures() {
        let src = r#"
name = "online-mini"

[online]
drift = 2.5

[workload]
kind = "online"
seed = 7

[[workload.groups]]
topology = "testbed"
requests = 4
scratch = true
churn = { sources = [1, 2], destinations = [2, 3], leaves = [0, 1], joins = [0, 1] }

[workload.failures]
every = 2
"#;
        let spec = ScenarioSpec::from_toml(src).unwrap();
        // Away from the default (1.5).
        assert_eq!(spec.online.drift, 2.5);
        // The retired join selector is an unknown key like any other.
        let err = ScenarioSpec::from_toml(&src.replace("drift = 2.5", "join = \"full-search\""));
        assert_eq!(
            err.unwrap_err().to_string(),
            "unknown key 'online.join' (valid keys here: drift)"
        );
        // So are the two capacities, which are the cost model's constants.
        for (key, value) in [("link_capacity", "80.0"), ("vm_capacity", "4.0")] {
            let err =
                ScenarioSpec::from_toml(&src.replace("drift = 2.5", &format!("{key} = {value}")));
            assert_eq!(
                err.unwrap_err().to_string(),
                format!("unknown key 'online.{key}' (valid keys here: drift)")
            );
        }
        let Workload::Online {
            ref groups,
            ref failures,
            ..
        } = spec.workload
        else {
            panic!("expected online");
        };
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].topology.as_ref().unwrap().name, "testbed");
        assert_eq!(groups[0].churn.base.chain_len, 3, "default chain length");
        let f = failures.as_ref().unwrap();
        assert_eq!((f.every, f.count), (2, 1));
        assert_eq!(f.scope, ["vm"], "default scope");
        let again = ScenarioSpec::from_toml(&spec.to_toml()).unwrap();
        assert_eq!(spec, again);
        // A churn key's refusal names it under its group.
        let err = ScenarioSpec::from_toml(
            &src.replace("joins = [0, 1] }", "joins = [0, 1], demand_mbps = 0.0 }"),
        );
        assert_eq!(
            err.unwrap_err().to_string(),
            "'workload.groups[0].churn.demand_mbps' must be positive"
        );
        // So does a refusal of the group's own keys.
        let err = ScenarioSpec::from_toml(&src.replace("scratch = true", "vms_per_dc = 0"));
        assert_eq!(
            err.unwrap_err().to_string(),
            "'workload.groups[0].vms_per_dc' must be at least 1"
        );
        let err = ScenarioSpec::from_toml(&src.replace("\"testbed\"", "\"x\""));
        let err = err.unwrap_err().to_string();
        assert!(
            err.starts_with("'workload.groups[0].topology': unknown topology 'x' ("),
            "{err}"
        );

        // Online takes the whole axis except what it cannot run: regions to
        // fail, and comparison legs. The rest is the survivability layer's
        // own check, as for churn-at-scale.
        let with = |failures: &str| ScenarioSpec::from_toml(&src.replace("every = 2", failures));
        let full = "scope = [\"link\", \"node\", \"vm\"]\nrepair = [1, 1]\n\
                    policies = [\"standby-forest\"]";
        with(full).unwrap();
        for (failures, refusal) in [
            ("scope = [\"domain\"]", "no domains"),
            (
                "process = \"scripted\"\nevents = [{ at = 1, element = \"domain:x\" }]",
                "no domains",
            ),
            ("policies = [\"reactive\", \"backup-paths\"]", "one policy"),
            ("policies = []", "at least one policy"),
            ("every = 0", "period must be at least 1"),
            ("process = \"poisson\"\nrate = 1.5", "finite probability"),
        ] {
            let err = with(failures).unwrap_err().to_string();
            assert!(err.contains(refusal), "{failures}: {err}");
        }
    }

    #[test]
    fn defaults_match_engine_defaults() {
        let spec = ScenarioSpec::from_toml(
            "name = \"d\"\n[workload]\nkind = \"sweep\"\nsolvers = [\"SOFDA\"]\n",
        )
        .unwrap();
        assert_eq!(spec.params, {
            let mut p = ScenarioParams::paper_defaults();
            p.seed = spec.params.seed;
            p
        });
        assert_eq!(spec.sofda, SofdaConfig::default());
        assert_eq!(spec.online, OnlineConfig::default());
        // Default axes are the standard figure grid.
        let Workload::Sweep { ref axes, .. } = spec.workload else {
            panic!()
        };
        assert_eq!(axes.len(), 4);
        assert_eq!(axes[2].label, "#VMs");
    }

    const SCALE: &str = r#"
name = "scale-mini"
label = "Scale"
title = "churn at scale"

[workload]
kind = "churn-at-scale"
seed = 7
solver = "SOFDA"
groups = 12
events = 120
window = 24
emit = "events"
vms_per_dc = 2
gateway_links = 3

[[workload.regions]]
name = "us-east"
nodes = 6
dcs = 2

[[workload.regions]]
name = "eu-west"
nodes = 5
dcs = 1

[workload.churn]
viewers = [2, 4]
sources = [1, 1]
chain_len = 2
demand_mbps = 5.0
leaves = [0, 1]
joins = [0, 2]
lifetime = [5, 9]
roam = 0.5

[workload.converge]
epsilon = 0.001
patience = 4
"#;

    #[test]
    fn churn_at_scale_parses_and_round_trips() {
        let spec = ScenarioSpec::from_toml(SCALE).unwrap();
        let Workload::ChurnAtScale(ref s) = spec.workload else {
            panic!("expected churn-at-scale");
        };
        assert_eq!((s.seed, s.groups, s.events, s.window), (7, 12, 120, 24));
        assert!(s.emit_events);
        assert_eq!((s.vms_per_dc, s.gateway_links), (2, 3));
        assert_eq!(s.regions.len(), 2);
        assert_eq!(s.regions[1], RegionDef::new("eu-west", 5, 1));
        assert_eq!(s.churn.viewers, (2, 4));
        assert_eq!(s.churn.lifetime, (5, 9));
        assert_eq!(
            s.converge,
            Some(Converge {
                epsilon: 0.001,
                patience: 4
            })
        );
        assert_eq!(s.max_seconds, None);
        assert_eq!(spec.workload.kind(), "churn-at-scale");
        assert_eq!(spec.workload.seed(), 7);

        let rewritten = spec.to_toml();
        let again = ScenarioSpec::from_toml(&rewritten).unwrap();
        assert_eq!(spec, again, "\n{rewritten}");
        let json = spec.to_json();
        assert_eq!(ScenarioSpec::from_json(&json).unwrap(), spec, "\n{json}");
    }

    #[test]
    fn churn_at_scale_defaults_and_validation() {
        // A bare table gets the library defaults: the runner's one set.
        let spec = ScenarioSpec::from_toml("name = \"d\"\n[workload]\nkind = \"churn-at-scale\"\n")
            .unwrap();
        let Workload::ChurnAtScale(ref s) = spec.workload else {
            panic!()
        };
        assert_eq!(
            (s.seed, s.groups, s.events, s.window),
            (1000, 100, 100_000, 1000)
        );
        assert!(!s.emit_events);
        assert_eq!(s.regions.len(), 3);
        assert_eq!(s.churn, GroupChurnConfig::default());
        assert_eq!(**s, RunnerConfig::default());

        let err =
            ScenarioSpec::from_toml(&SCALE.replace("events = 120", "events = 0")).unwrap_err();
        assert!(err.to_string().contains("'workload.events'"), "{err}");
        let err = ScenarioSpec::from_toml(&SCALE.replace("emit = \"events\"", "emit = \"all\""))
            .unwrap_err();
        assert!(err.to_string().contains("'workload.emit'"), "{err}");
        let err = ScenarioSpec::from_toml(&SCALE.replace("nodes = 5", "nodes = 2")).unwrap_err();
        assert!(err.to_string().contains("at least 3 nodes"), "{err}");
        let err = ScenarioSpec::from_toml(&SCALE.replace("lifetime = [5, 9]", "lifetime = [9, 5]"))
            .unwrap_err();
        assert!(err.to_string().contains("lifetime"), "{err}");
        let err = ScenarioSpec::from_toml(&SCALE.replace("epsilon = 0.001", "epsilon = -1.0"))
            .unwrap_err();
        assert!(err.to_string().contains("converge.epsilon"), "{err}");
        let err = ScenarioSpec::from_toml(&SCALE.replace("roam = 0.5", "roam = 1.5")).unwrap_err();
        assert!(err.to_string().contains("roam"), "{err}");
    }

    /// `pair_cost` was a dead config path: implemented and validated in
    /// `sof_topo::RegionsParams` but unreachable from any spec. It now
    /// parses strictly, surfaces the library validators verbatim, and
    /// round-trips losslessly.
    #[test]
    fn churn_at_scale_pair_cost_parses_validates_and_round_trips() {
        let with = |matrix: &str| {
            SCALE.replace(
                "gateway_links = 3",
                &format!("gateway_links = 3\npair_cost = {matrix}"),
            )
        };

        // Default: absent means the line-distance fallback.
        let spec = ScenarioSpec::from_toml(SCALE).unwrap();
        let Workload::ChurnAtScale(ref s) = spec.workload else {
            panic!()
        };
        assert_eq!(s.pair_cost, None);

        // An explicit symmetric matrix (ints coerce to floats) parses and
        // survives both wire formats byte-for-value.
        let spec = ScenarioSpec::from_toml(&with("[[1, 2.5], [2.5, 1]]")).unwrap();
        let Workload::ChurnAtScale(ref s) = spec.workload else {
            panic!()
        };
        assert_eq!(s.pair_cost, Some(vec![vec![1.0, 2.5], vec![2.5, 1.0]]));
        let rewritten = spec.to_toml();
        assert_eq!(
            ScenarioSpec::from_toml(&rewritten).unwrap(),
            spec,
            "\n{rewritten}"
        );
        let json = spec.to_json();
        assert_eq!(ScenarioSpec::from_json(&json).unwrap(), spec, "\n{json}");

        // Malformed values are rejected with the exact offending path.
        let err = ScenarioSpec::from_toml(&with("3")).unwrap_err();
        assert!(err.to_string().contains("'workload.pair_cost'"), "{err}");
        let err = ScenarioSpec::from_toml(&with("[[1.0, 2.0], 7]")).unwrap_err();
        assert!(err.to_string().contains("'workload.pair_cost[1]'"), "{err}");
        let err = ScenarioSpec::from_toml(&with("[[1.0, \"x\"], [2.0, 1.0]]")).unwrap_err();
        assert!(
            err.to_string().contains("'workload.pair_cost[0][1]'"),
            "{err}"
        );

        // Shape and symmetry violations surface the `RegionsParams`
        // validator messages verbatim under the workload.regions prefix.
        let err = ScenarioSpec::from_toml(&with("[[1.0, 2.0]]")).unwrap_err();
        assert!(
            err.to_string().contains("pair_cost must be a 2×2 matrix"),
            "{err}"
        );
        let err = ScenarioSpec::from_toml(&with("[[1.0, 2.0], [3.0, 1.0]]")).unwrap_err();
        assert!(
            err.to_string().contains("pair_cost must be symmetric"),
            "{err}"
        );
        let err = ScenarioSpec::from_toml(&with("[[1.0, -2.0], [-2.0, 1.0]]")).unwrap_err();
        assert!(
            err.to_string().contains("pair_cost[0][1] must be positive"),
            "{err}"
        );
    }
}
