//! Run-time overrides of a loaded spec: what `sof run`'s `--seeds`,
//! `--limit`, `--solvers`, … flags change before the spec is validated and
//! run.

use crate::spec::{ScenarioSpec, Workload};

/// Generic spec overrides (the `sof run` flags).
#[derive(Clone, Debug, Default)]
pub struct Overrides {
    /// Replace the averaging width (sweep/grid/qoe workloads).
    pub seeds: Option<u64>,
    /// Replace the base RNG seed.
    pub seed: Option<u64>,
    /// Truncate every sweep/grid axis to its first N values (`0` = all);
    /// for runtime workloads, truncate the size list.
    pub limit: Option<usize>,
    /// Replace the solver set (first entry only for single-solver kinds).
    pub solvers: Option<Vec<String>>,
    /// Resize the spec's topology (`inet` family only).
    pub nodes: Option<usize>,
    /// Replace every online group's arrival count.
    pub requests: Option<usize>,
    /// Replace the concurrent-group count (churn-at-scale workloads).
    pub groups: Option<usize>,
    /// Replace the event budget (churn-at-scale workloads).
    pub events: Option<u64>,
    /// Replace the window size (churn-at-scale workloads).
    pub window: Option<u64>,
}

/// Applies generic overrides to a spec (validate afterwards — an override
/// can introduce an unknown solver or an invalid size).
///
/// Returns the names of overrides that do not apply to this spec's
/// workload kind (e.g. `--seeds` on an online workload) so callers can
/// warn instead of silently running the unmodified scenario.
pub fn apply_overrides(spec: &mut ScenarioSpec, o: &Overrides) -> Vec<&'static str> {
    let mut ignored = Vec::new();
    if let Some(nodes) = o.nodes {
        // Churn-at-scale builds its network from [workload.regions]; the
        // spec topology is unused there, so resizing it would be a no-op.
        if matches!(spec.workload, Workload::ChurnAtScale(_)) {
            ignored.push("nodes");
        } else {
            spec.topology.nodes = Some(nodes);
        }
    }
    if o.requests.is_some() && !matches!(spec.workload, Workload::Online { .. }) {
        ignored.push("requests");
    }
    if !matches!(spec.workload, Workload::ChurnAtScale(_)) {
        for (name, set) in [
            ("groups", o.groups.is_some()),
            ("events", o.events.is_some()),
            ("window", o.window.is_some()),
        ] {
            if set {
                ignored.push(name);
            }
        }
    }
    let inapplicable: &[&'static str] = match &spec.workload {
        Workload::CostCurve { .. } => &["seeds", "seed", "limit", "solvers"],
        Workload::Online { .. } => &["seeds", "limit"],
        Workload::Runtime { .. } => &["seeds"],
        Workload::Qoe { .. } => &["limit"],
        Workload::ChurnAtScale(_) => &["seeds", "limit"],
        Workload::Sweep { .. } | Workload::Grid { .. } => &[],
    };
    for &name in inapplicable {
        let set = match name {
            "seeds" => o.seeds.is_some(),
            "seed" => o.seed.is_some(),
            "limit" => o.limit.is_some(),
            _ => o.solvers.is_some(),
        };
        if set {
            ignored.push(name);
        }
    }
    match &mut spec.workload {
        Workload::CostCurve { .. } => {}
        Workload::Sweep {
            solvers,
            seeds,
            seed,
            axes,
        } => {
            if let Some(s) = o.seeds {
                *seeds = s.max(1);
            }
            if let Some(s) = o.seed {
                *seed = s;
            }
            if let Some(limit) = o.limit {
                for axis in axes.iter_mut() {
                    axis.truncate(limit);
                }
            }
            if let Some(list) = &o.solvers {
                *solvers = list.clone();
            }
        }
        Workload::Grid {
            solver,
            seeds,
            seed,
            rows,
            cols,
            ..
        } => {
            if let Some(s) = o.seeds {
                *seeds = s.max(1);
            }
            if let Some(s) = o.seed {
                *seed = s;
            }
            if let Some(limit) = o.limit {
                rows.truncate(limit);
                cols.truncate(limit);
            }
            if let Some(list) = &o.solvers {
                if let Some(first) = list.first() {
                    *solver = first.clone();
                }
            }
        }
        Workload::Runtime {
            solver,
            seed,
            sizes,
            ..
        } => {
            if let Some(s) = o.seed {
                *seed = s;
            }
            if let Some(limit) = o.limit {
                if limit > 0 {
                    sizes.truncate(limit);
                }
            }
            if let Some(list) = &o.solvers {
                if let Some(first) = list.first() {
                    *solver = first.clone();
                }
            }
        }
        Workload::Qoe {
            solvers,
            seeds,
            seed,
        } => {
            if let Some(s) = o.seeds {
                *seeds = s.max(1);
            }
            if let Some(s) = o.seed {
                *seed = s;
            }
            if let Some(list) = &o.solvers {
                *solvers = list.clone();
            }
        }
        Workload::Online {
            solvers,
            seed,
            groups,
            ..
        } => {
            if let Some(s) = o.seed {
                *seed = s;
            }
            if let Some(list) = &o.solvers {
                *solvers = list.clone();
            }
            if let Some(r) = o.requests {
                for g in groups.iter_mut() {
                    g.requests = r;
                }
            }
        }
        Workload::ChurnAtScale(s) => {
            if let Some(seed) = o.seed {
                s.seed = seed;
            }
            if let Some(list) = &o.solvers {
                if let Some(first) = list.first() {
                    s.solver = first.clone();
                }
            }
            if let Some(g) = o.groups {
                s.groups = g;
            }
            if let Some(e) = o.events {
                s.events = e;
            }
            if let Some(w) = o.window {
                s.window = w;
            }
        }
    }
    ignored
}
