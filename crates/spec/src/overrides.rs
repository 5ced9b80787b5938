//! Run-time overrides of a loaded spec: what `sof run`'s `--seeds`,
//! `--limit`, `--solvers`, … flags change before the spec is validated and
//! run.

use crate::spec::{ScenarioSpec, Workload};
use sof_topo::TopologySpec;

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
    /// Resize the topologies a spec builds (`inet` family only; ignored
    /// where none is sizable).
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

impl Overrides {
    /// The names of the overrides that are set, in declaration order.
    fn set(&self) -> Vec<&'static str> {
        [
            ("seeds", self.seeds.is_some()),
            ("seed", self.seed.is_some()),
            ("limit", self.limit.is_some()),
            ("solvers", self.solvers.is_some()),
            ("nodes", self.nodes.is_some()),
            ("requests", self.requests.is_some()),
            ("groups", self.groups.is_some()),
            ("events", self.events.is_some()),
            ("window", self.window.is_some()),
        ]
        .into_iter()
        .filter_map(|(name, set)| set.then_some(name))
        .collect()
    }
}

/// Applies generic overrides to a spec (validate afterwards — an override
/// can introduce an unknown solver or an invalid size).
///
/// Returns the names of overrides that do not apply to this spec (e.g.
/// `--seeds` on an online workload, or `--nodes` where no topology the
/// spec builds is sizable), in declaration order, so callers can warn
/// instead of silently running the unmodified scenario.
pub fn apply_overrides(spec: &mut ScenarioSpec, o: &Overrides) -> Vec<&'static str> {
    // Each arm takes the overrides its kind applies; what is left set does
    // not apply. Only sweeps, grids and online groups build `[topology]`: a
    // runtime workload sizes its own Inet graphs, qoe runs on the testbed,
    // a cost curve has no network, and churn-at-scale builds one from
    // [workload.regions] — resizing the spec topology there is a no-op.
    // `--nodes` resizes only the `inet` topologies among those built.
    let mut o = o.clone();
    let topology = &mut spec.topology;
    match &mut spec.workload {
        Workload::CostCurve { .. } => {}
        Workload::Sweep {
            solvers,
            seeds,
            seed,
            axes,
        } => {
            put(seeds, o.seeds.take().map(|s| s.max(1)));
            put(seed, o.seed.take());
            if let Some(limit) = o.limit.take() {
                for axis in axes.iter_mut() {
                    axis.truncate(limit);
                }
            }
            put(solvers, o.solvers.take());
            resize(&mut o.nodes, [topology]);
        }
        Workload::Grid {
            solver,
            seeds,
            seed,
            rows,
            cols,
            ..
        } => {
            put(seeds, o.seeds.take().map(|s| s.max(1)));
            put(seed, o.seed.take());
            if let Some(limit) = o.limit.take() {
                rows.truncate(limit);
                cols.truncate(limit);
            }
            put(solver, first(o.solvers.take()));
            resize(&mut o.nodes, [topology]);
        }
        Workload::Runtime {
            solver,
            seed,
            sizes,
            ..
        } => {
            put(seed, o.seed.take());
            if let Some(limit) = o.limit.take().filter(|&limit| limit > 0) {
                sizes.truncate(limit);
            }
            put(solver, first(o.solvers.take()));
        }
        Workload::Qoe {
            solvers,
            seeds,
            seed,
        } => {
            put(seeds, o.seeds.take().map(|s| s.max(1)));
            put(seed, o.seed.take());
            put(solvers, o.solvers.take());
        }
        Workload::Online {
            solvers,
            seed,
            groups,
            ..
        } => {
            put(seed, o.seed.take());
            put(solvers, o.solvers.take());
            if let Some(r) = o.requests.take() {
                for g in groups.iter_mut() {
                    g.requests = r;
                }
            }
            // A group without a topology of its own builds the spec's.
            let inherited = groups.iter().any(|g| g.topology.is_none());
            let own = groups.iter_mut().filter_map(|g| g.topology.as_mut());
            resize(&mut o.nodes, own.chain(inherited.then_some(topology)));
        }
        Workload::ChurnAtScale(s) => {
            put(&mut s.seed, o.seed.take());
            put(&mut s.solver, first(o.solvers.take()));
            put(&mut s.groups, o.groups.take());
            put(&mut s.events, o.events.take());
            put(&mut s.window, o.window.take());
        }
    }
    o.set()
}

/// Writes `value` into `slot` when there is one.
fn put<T>(slot: &mut T, value: Option<T>) {
    if let Some(value) = value {
        *slot = value;
    }
}

/// Sets `nodes` on each sizable topology of `built`, and takes the
/// override if there was one.
fn resize<'a>(nodes: &mut Option<usize>, built: impl IntoIterator<Item = &'a mut TopologySpec>) {
    let Some(n) = *nodes else { return };
    for t in built.into_iter().filter(|t| t.is_sizable()) {
        t.nodes = Some(n);
        *nodes = None;
    }
}

/// The first entry of a solver list, for the kinds that run one solver.
fn first(list: Option<Vec<String>>) -> Option<String> {
    list.and_then(|list| list.into_iter().next())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    /// `--nodes` resizes the `inet` topologies a spec builds and is
    /// reported ignored where it builds none: a runtime, cost-curve, qoe or
    /// churn-at-scale workload never builds `[topology]`, and SoftLayer,
    /// Cogent and the testbed have a fixed size. An online group with a
    /// topology of its own is resized in place of the spec's.
    #[test]
    fn nodes_is_ignored_where_no_built_topology_is_sizable() {
        let o = Overrides {
            nodes: Some(300),
            ..Overrides::default()
        };
        let ignored = [
            "table1",
            "fig7",
            "table2",
            "churn-at-scale",
            "fig8",
            "fig9",
            "fig11",
            "fig12",
        ];
        for name in ignored {
            let mut spec = presets::preset(name).unwrap().unwrap();
            let before = spec.clone();
            assert_eq!(apply_overrides(&mut spec, &o), ["nodes"], "{name}");
            assert_eq!(spec, before, "{name}");
            spec.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        for name in ["fig10", "inet-churn-failures"] {
            let mut spec = presets::preset(name).unwrap().unwrap();
            assert!(apply_overrides(&mut spec, &o).is_empty(), "{name}");
            assert_eq!(spec.topology.nodes, Some(300), "{name}");
        }
        let mut spec = presets::preset("fig12").unwrap().unwrap();
        let Workload::Online { groups, .. } = &mut spec.workload else {
            panic!("fig12 is an online workload");
        };
        groups[1].topology = Some(TopologySpec::named("inet"));
        assert!(apply_overrides(&mut spec, &o).is_empty());
        let Workload::Online { groups, .. } = &spec.workload else {
            unreachable!()
        };
        let sizes: Vec<_> = groups
            .iter()
            .map(|g| g.topology.as_ref().unwrap().nodes)
            .collect();
        assert_eq!(sizes, [None, Some(300)]);
        assert_eq!(spec.topology.nodes, None, "no group builds the spec's");
        spec.validate().unwrap();
    }

    /// The lines of `after` that `before` does not have (as a multiset).
    fn changed_lines(before: &str, after: &str) -> Vec<String> {
        let mut old: Vec<&str> = before.lines().collect();
        let mut changed = Vec::new();
        for line in after.lines() {
            match old.iter().position(|l| *l == line) {
                Some(i) => drop(old.remove(i)),
                None => changed.push(line.to_string()),
            }
        }
        changed
    }

    /// Every override alone, then all of them at once, on one bundled
    /// preset of each workload kind: the names `apply_overrides` reports
    /// ignored and the spec lines (TOML) it changed.
    #[test]
    fn every_override_on_every_preset_kind() {
        type Set = fn(&mut Overrides);
        let each: [(&str, Set); 9] = [
            ("seeds", |o| o.seeds = Some(7)),
            ("seed", |o| o.seed = Some(4242)),
            ("limit", |o| o.limit = Some(1)),
            ("solvers", |o| o.solvers = Some(vec!["eST".into()])),
            ("nodes", |o| o.nodes = Some(300)),
            ("requests", |o| o.requests = Some(2)),
            ("groups", |o| o.groups = Some(3)),
            ("events", |o| o.events = Some(50)),
            ("window", |o| o.window = Some(10)),
        ];
        let mut cases: Vec<(&str, Overrides)> = Vec::new();
        let mut all = Overrides::default();
        for (flag, set) in each {
            let mut o = Overrides::default();
            set(&mut o);
            set(&mut all);
            cases.push((flag, o));
        }
        cases.push(("all", all));
        let mut got = String::new();
        // One preset of each workload kind.
        let kinds = [
            "fig7",
            "fig8",
            "fig11",
            "table1",
            "table2",
            "fig12",
            "churn-at-scale",
        ];
        for name in kinds {
            let original = presets::preset(name).unwrap().unwrap();
            let before = original.to_toml();
            for (flag, o) in &cases {
                let mut spec = original.clone();
                let ignored = apply_overrides(&mut spec, o);
                let changed = changed_lines(&before, &spec.to_toml());
                got.push_str(&format!(
                    "{name} --{flag}: ignored [{}] changed [{}]\n",
                    ignored.join(", "),
                    changed.join(" | ")
                ));
            }
        }
        assert_eq!(got, PINNED);
    }

    const PINNED: &str = "\
fig7 --seeds: ignored [seeds] changed []
fig7 --seed: ignored [seed] changed []
fig7 --limit: ignored [limit] changed []
fig7 --solvers: ignored [solvers] changed []
fig7 --nodes: ignored [nodes] changed []
fig7 --requests: ignored [requests] changed []
fig7 --groups: ignored [groups] changed []
fig7 --events: ignored [events] changed []
fig7 --window: ignored [window] changed []
fig7 --all: ignored [seeds, seed, limit, solvers, nodes, requests, groups, events, window] changed []
fig8 --seeds: ignored [] changed [seeds = 7]
fig8 --seed: ignored [] changed [seed = 4242]
fig8 --limit: ignored [] changed [values = [2] | values = [2] | values = [5] | values = [3]]
fig8 --solvers: ignored [] changed [solvers = [\"eST\"]]
fig8 --nodes: ignored [nodes] changed []
fig8 --requests: ignored [requests] changed []
fig8 --groups: ignored [groups] changed []
fig8 --events: ignored [events] changed []
fig8 --window: ignored [window] changed []
fig8 --all: ignored [nodes, requests, groups, events, window] changed [solvers = [\"eST\"] | seeds = 7 | seed = 4242 | values = [2] | values = [2] | values = [5] | values = [3]]
fig11 --seeds: ignored [] changed [seeds = 7]
fig11 --seed: ignored [] changed [seed = 4242]
fig11 --limit: ignored [] changed [values = [1] | values = [3]]
fig11 --solvers: ignored [] changed [solver = \"eST\"]
fig11 --nodes: ignored [nodes] changed []
fig11 --requests: ignored [requests] changed []
fig11 --groups: ignored [groups] changed []
fig11 --events: ignored [events] changed []
fig11 --window: ignored [window] changed []
fig11 --all: ignored [nodes, requests, groups, events, window] changed [solver = \"eST\" | seeds = 7 | seed = 4242 | values = [1] | values = [3]]
table1 --seeds: ignored [seeds] changed []
table1 --seed: ignored [] changed [seed = 4242]
table1 --limit: ignored [] changed [sizes = [1000]]
table1 --solvers: ignored [] changed [solver = \"eST\"]
table1 --nodes: ignored [nodes] changed []
table1 --requests: ignored [requests] changed []
table1 --groups: ignored [groups] changed []
table1 --events: ignored [events] changed []
table1 --window: ignored [window] changed []
table1 --all: ignored [seeds, nodes, requests, groups, events, window] changed [solver = \"eST\" | seed = 4242 | sizes = [1000]]
table2 --seeds: ignored [] changed [seeds = 7]
table2 --seed: ignored [] changed [seed = 4242]
table2 --limit: ignored [limit] changed []
table2 --solvers: ignored [] changed [solvers = [\"eST\"]]
table2 --nodes: ignored [nodes] changed []
table2 --requests: ignored [requests] changed []
table2 --groups: ignored [groups] changed []
table2 --events: ignored [events] changed []
table2 --window: ignored [window] changed []
table2 --all: ignored [limit, nodes, requests, groups, events, window] changed [solvers = [\"eST\"] | seeds = 7 | seed = 4242]
fig12 --seeds: ignored [seeds] changed []
fig12 --seed: ignored [] changed [seed = 4242]
fig12 --limit: ignored [limit] changed []
fig12 --solvers: ignored [] changed [solvers = [\"eST\"]]
fig12 --nodes: ignored [nodes] changed []
fig12 --requests: ignored [] changed [requests = 2 | requests = 2]
fig12 --groups: ignored [groups] changed []
fig12 --events: ignored [events] changed []
fig12 --window: ignored [window] changed []
fig12 --all: ignored [seeds, limit, nodes, groups, events, window] changed [seed = 4242 | solvers = [\"eST\"] | requests = 2 | requests = 2]
churn-at-scale --seeds: ignored [seeds] changed []
churn-at-scale --seed: ignored [] changed [seed = 4242]
churn-at-scale --limit: ignored [limit] changed []
churn-at-scale --solvers: ignored [] changed [solver = \"eST\"]
churn-at-scale --nodes: ignored [nodes] changed []
churn-at-scale --requests: ignored [requests] changed []
churn-at-scale --groups: ignored [] changed [groups = 3]
churn-at-scale --events: ignored [] changed [events = 50]
churn-at-scale --window: ignored [] changed [window = 10]
churn-at-scale --all: ignored [seeds, limit, nodes, requests] changed [seed = 4242 | solver = \"eST\" | groups = 3 | events = 50 | window = 10]
";
}
