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
    // Only sweeps, grids and online groups build `[topology]`: a runtime
    // workload sizes its own Inet graphs, qoe runs on the testbed, a cost
    // curve has no network, and churn-at-scale builds one from
    // [workload.regions] — resizing the spec topology there is a no-op.
    let inapplicable: &[&'static str] = match &spec.workload {
        Workload::CostCurve { .. } => &["nodes", "seeds", "seed", "limit", "solvers"],
        Workload::Online { .. } => &["seeds", "limit"],
        Workload::Runtime { .. } => &["nodes", "seeds"],
        Workload::Qoe { .. } => &["nodes", "limit"],
        Workload::ChurnAtScale(_) => &["nodes", "seeds", "limit"],
        Workload::Sweep { .. } | Workload::Grid { .. } => &[],
    };
    for &name in inapplicable {
        let set = match name {
            "nodes" => o.nodes.is_some(),
            "seeds" => o.seeds.is_some(),
            "seed" => o.seed.is_some(),
            "limit" => o.limit.is_some(),
            _ => o.solvers.is_some(),
        };
        if set {
            ignored.push(name);
        }
    }
    if !inapplicable.contains(&"nodes") {
        if let Some(nodes) = o.nodes {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn nodes_is_ignored_where_the_spec_topology_is_never_built() {
        let o = Overrides {
            nodes: Some(300),
            ..Overrides::default()
        };
        for name in ["table1", "fig7", "table2", "churn-at-scale"] {
            let mut spec = presets::preset(name).unwrap().unwrap();
            let before = spec.topology.nodes;
            assert_eq!(apply_overrides(&mut spec, &o), ["nodes"], "{name}");
            assert_eq!(spec.topology.nodes, before, "{name}");
            spec.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        for name in ["fig10", "fig8", "fig11", "fig12"] {
            let mut spec = presets::preset(name).unwrap().unwrap();
            assert!(apply_overrides(&mut spec, &o).is_empty(), "{name}");
            assert_eq!(spec.topology.nodes, Some(300), "{name}");
        }
    }
}
