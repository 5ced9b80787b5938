//! The one-shot engine under the sweep, grid, runtime and QoE workloads:
//! single solver runs with validation ([`run`]), seed-averaged
//! measurements ([`average_with`]) and declarative parameter sweeps
//! ([`sweep_tables`] over [`SweepAxis`] / [`ParamField`]).
//!
//! Algorithms come from the [`sof_solvers`] registry (the [`Solver`]
//! trait), so adding a solver to the registry adds it to every workload.
//!
//! Per-seed averaging fans out over `sof_par` workers; `--threads N`
//! (`0` = all cores) and the `SOF_THREADS` environment variable pick the
//! worker count. Results are deterministic and **identical for every
//! thread count**: each seed's run lands in a fixed slot and means are
//! folded in seed order.

use sof_core::{SofInstance, SofdaConfig, Solver};
use std::time::Instant;

/// A sweepable field of [`sof_topo::ScenarioParams`] — the data form of
/// what used to be per-binary setter closures, so declarative scenario
/// specs can name axes in files.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParamField {
    /// `sources` (candidate source count).
    Sources,
    /// `destinations` (group size).
    Destinations,
    /// `vm_count` (VMs attached to data centers).
    VmCount,
    /// `chain_len` (demanded service-chain length).
    ChainLen,
    /// `setup_scale` (VM setup-cost multiple; swept values are the integer
    /// multiples of Fig. 11).
    SetupScale,
}

impl ParamField {
    /// Applies a swept value to the params.
    pub fn apply(&self, p: &mut sof_topo::ScenarioParams, v: usize) {
        match self {
            ParamField::Sources => p.sources = v,
            ParamField::Destinations => p.destinations = v,
            ParamField::VmCount => p.vm_count = v,
            ParamField::ChainLen => p.chain_len = v,
            ParamField::SetupScale => p.setup_scale = v as f64,
        }
    }

    /// The spec-file name of this field.
    pub fn as_str(&self) -> &'static str {
        match self {
            ParamField::Sources => "sources",
            ParamField::Destinations => "destinations",
            ParamField::VmCount => "vm_count",
            ParamField::ChainLen => "chain_len",
            ParamField::SetupScale => "setup_scale",
        }
    }

    /// The axis label the figures use (`"#sources"`, `"chain length"`, …).
    pub fn default_label(&self) -> &'static str {
        match self {
            ParamField::Sources => "#sources",
            ParamField::Destinations => "#destinations",
            ParamField::VmCount => "#VMs",
            ParamField::ChainLen => "chain length",
            ParamField::SetupScale => "setup multiple",
        }
    }

    /// Parses a spec-file name (case-insensitive; `-` and `_` are
    /// interchangeable).
    ///
    /// # Errors
    ///
    /// A message naming the unknown field and the valid names.
    pub fn from_name(name: &str) -> Result<ParamField, String> {
        match name.to_ascii_lowercase().replace('-', "_").as_str() {
            "sources" => Ok(ParamField::Sources),
            "destinations" => Ok(ParamField::Destinations),
            "vm_count" | "vms" => Ok(ParamField::VmCount),
            "chain_len" | "chain_length" => Ok(ParamField::ChainLen),
            "setup_scale" => Ok(ParamField::SetupScale),
            other => Err(format!(
                "unknown sweep field '{other}' (expected one of sources, destinations, \
                 vm_count, chain_len, setup_scale)"
            )),
        }
    }
}

/// One declarative sweep axis: which parameter varies, over which values,
/// under which display label.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepAxis {
    /// Display label (figure column header; defaults per field).
    pub label: String,
    /// The varied parameter.
    pub field: ParamField,
    /// Swept values, in sweep order.
    pub values: Vec<usize>,
}

impl SweepAxis {
    /// An axis over `field` with its default label.
    pub fn new(field: ParamField, values: Vec<usize>) -> SweepAxis {
        SweepAxis {
            label: field.default_label().to_string(),
            field,
            values,
        }
    }

    /// Truncates the axis to its first `limit` values (`0` = keep all).
    pub fn truncate(&mut self, limit: usize) {
        if limit > 0 {
            self.values.truncate(limit);
        }
    }
}

/// The standard one-time-deployment sweep grid shared by Figs. 8-10:
/// #sources / #destinations / #VMs / chain length over the paper's ranges.
/// `limit` truncates every axis to its first `limit` values (`0` = all) —
/// the knob CI smoke runs use.
pub fn standard_axes(limit: usize) -> Vec<SweepAxis> {
    let mut axes = vec![
        SweepAxis::new(ParamField::Sources, vec![2, 8, 14, 20, 26]),
        SweepAxis::new(ParamField::Destinations, vec![2, 4, 6, 8, 10]),
        SweepAxis::new(ParamField::VmCount, vec![5, 15, 25, 35, 45]),
        SweepAxis::new(ParamField::ChainLen, vec![3, 4, 5, 6, 7]),
    ];
    for a in &mut axes {
        a.truncate(limit);
    }
    axes
}

/// One axis of a comparison sweep, as data: the axis label, the swept
/// values, and `rows[vi][ai]` = mean cost of `algos[ai]` at `values[vi]`
/// (`None` when the solver skipped or failed every seed).
#[derive(Clone, Debug, PartialEq)]
pub struct SweepTable {
    /// Axis label (e.g. `"#destinations"`).
    pub axis: String,
    /// Swept values, in sweep order.
    pub values: Vec<usize>,
    /// `rows[vi][ai]`: mean cost per value per solver.
    pub rows: Vec<Vec<Option<f64>>>,
}

/// Computes comparison sweeps over arbitrary declarative axes on one
/// topology: every solver in `algos`, averaged over `seeds` instance draws
/// from `base` around the `base_params` scenario, per-seed runs fanned out
/// over `threads` workers (`0` = the configured default,
/// [`sof_par::current_threads`]). Results are bit-identical for every
/// thread count.
#[allow(clippy::too_many_arguments)]
pub fn sweep_tables(
    topo: &sof_topo::Topology,
    base_params: &sof_topo::ScenarioParams,
    config: &SofdaConfig,
    algos: &[Box<dyn Solver>],
    axes: &[SweepAxis],
    seeds: u64,
    base: u64,
    threads: usize,
) -> Vec<SweepTable> {
    axes.iter()
        .map(|axis| {
            let values = &axis.values;
            // Flatten the whole (value × algo × seed) grid into one fan-out
            // so wide machines aren't capped at the seed count. Instances
            // depend only on (value, seed), so they are built once and
            // shared across solvers. Slots stay index-addressed and means
            // fold in seed order, so the result is bit-identical to nested
            // serial loops.
            let cells: Vec<(usize, u64)> = values
                .iter()
                .enumerate()
                .flat_map(|(vi, _)| (0..seeds).map(move |i| (vi, base + i)))
                .collect();
            let instances = sof_par::par_map_indexed(&cells, threads, |_, &(vi, seed)| {
                let mut p = base_params.with_seed(seed);
                axis.field.apply(&mut p, values[vi]);
                sof_topo::build_instance(topo, &p)
            })
            .unwrap_or_else(|e| panic!("comparison sweep: {e}"));
            let tasks: Vec<(usize, usize)> = (0..cells.len())
                .flat_map(|ci| (0..algos.len()).map(move |ai| (ci, ai)))
                .collect();
            let runs = sof_par::par_map_indexed(&tasks, threads, |_, &(ci, ai)| {
                run(
                    algos[ai].as_ref(),
                    &instances[ci],
                    &config.with_seed(cells[ci].1),
                )
                .map(|r| r.cost)
            })
            .unwrap_or_else(|e| panic!("comparison sweep: {e}"));
            // Fold per (value, algo) cell; tasks iterate seeds in order for
            // every fixed (value, algo), keeping the means bit-stable.
            let mut sums = vec![vec![(0.0f64, 0u64); algos.len()]; values.len()];
            for (&(ci, ai), cost) in tasks.iter().zip(&runs) {
                if let Some(c) = cost {
                    let vi = cells[ci].0;
                    sums[vi][ai].0 += c;
                    sums[vi][ai].1 += 1;
                }
            }
            let rows = sums
                .into_iter()
                .map(|row| {
                    row.into_iter()
                        .map(|(sum, n)| (n > 0).then(|| sum / n as f64))
                        .collect()
                })
                .collect();
            SweepTable {
                axis: axis.label.clone(),
                values: values.clone(),
                rows,
            }
        })
        .collect()
}

/// One algorithm run's outcome.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Total forest cost.
    pub cost: f64,
    /// Enabled VMs.
    pub used_vms: usize,
    /// Wall-clock milliseconds.
    pub millis: f64,
    /// The full outcome (for QoE / rule compilation downstream).
    pub outcome: Option<sof_core::SolveOutcome>,
}

/// Runs one solver on an instance, validating the result.
///
/// Returns `None` when the instance exceeds the solver's capability hints
/// (e.g. the exact solver on an oversized group) or the solver reports
/// infeasibility.
pub fn run(solver: &dyn Solver, instance: &SofInstance, config: &SofdaConfig) -> Option<RunResult> {
    if !solver.supports(instance) {
        return None;
    }
    let t0 = Instant::now();
    let outcome = solver.solve(instance, config).ok()?;
    let millis = t0.elapsed().as_secs_f64() * 1e3;
    outcome.forest.validate(instance).expect("validated output");
    Some(RunResult {
        cost: outcome.cost.total().value(),
        used_vms: outcome.forest.stats().used_vms,
        millis,
        outcome: Some(outcome),
    })
}

/// Averages a solver over `seeds` instance draws produced by `make`,
/// fanning the independent per-seed runs out over `threads` workers (`0` =
/// the configured default, [`sof_par::current_threads`]).
///
/// Returns `(mean cost, mean used VMs, mean milliseconds)`. Costs and VM
/// counts are bit-identical for every thread count (runs land in per-seed
/// slots and the means fold in seed order); only the measured wall-clock
/// means vary.
pub fn average_with<F>(
    solver: &dyn Solver,
    seeds: u64,
    base_seed: u64,
    config: &SofdaConfig,
    make: F,
    threads: usize,
) -> Option<(f64, f64, f64)>
where
    F: Fn(u64) -> SofInstance + Sync,
{
    let seed_list: Vec<u64> = (0..seeds).map(|i| base_seed + i).collect();
    let runs = sof_par::par_map_indexed(&seed_list, threads, |_, &seed| {
        let inst = make(seed);
        run(solver, &inst, &config.with_seed(seed)).map(|r| (r.cost, r.used_vms as f64, r.millis))
    })
    .unwrap_or_else(|e| panic!("averaging sweep: {e}"));
    let mut cost = 0.0;
    let mut vms = 0.0;
    let mut ms = 0.0;
    let mut n = 0.0;
    for (c, v, m) in runs.into_iter().flatten() {
        cost += c;
        vms += v;
        ms += m;
        n += 1.0;
    }
    (n > 0.0).then(|| (cost / n, vms / n, ms / n))
}
