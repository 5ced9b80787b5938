//! The metric tables. `BENCHMARK.json` at the repository root lists the
//! same names, units, directions and bounds; a unit test keeps the two in
//! step. Which layer metric should move which end-to-end metric, and on
//! which workload, is written down in `README.md`.

/// Direction in which a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name, identical on every workload.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Direction in which it improves.
    pub better: Better,
    /// Share of the baseline by which it may get worse before a change
    /// counts as a regression.
    pub bound: f64,
}

/// A metric of one layer, from the traced run. Informational: no bound.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    /// `<layer>.<metric>`; layers are the crate names.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Direction in which it improves.
    pub better: Better,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// The end-to-end metrics, printed by every untraced run.
pub const END_TO_END: [EndToEnd; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("op_ms_p50", "ms", Lower, 0.25),
    e2e("op_ms_p95", "ms", Lower, 0.25),
    e2e("cost_mean", "cost", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

/// The nine daemon routes the `daemon-mixed` script exercises, in the
/// order their metrics are listed.
pub const ROUTES: [&str; 9] = [
    "join", "leave", "get", "stats", "healthz", "create", "delete", "fail", "repair",
];

/// The per-layer metrics, printed by every traced run. A metric that does
/// not apply to a workload (a `daemon.*` metric on a solver workload) reads
/// 0 there.
pub const PER_LAYER: [PerLayer; 55] = [
    layer("topo.build_instance_ms", "ms", Lower),
    layer("graph.cold_tree_ms", "ms", Lower),
    layer("graph.hits_per_op", "count", Higher),
    layer("graph.misses_per_op", "count", Lower),
    layer("graph.stale_per_op", "count", Lower),
    layer("graph.revalidated_per_op", "count", Higher),
    layer("graph.partial_repairs_per_op", "count", Higher),
    layer("graph.evictions", "count", Lower),
    layer("graph.hit_ratio", "ratio", Higher),
    layer("graph.repair_ratio", "ratio", Higher),
    layer("graph.miss_ms_est", "ms", Lower),
    layer("core.chain_metric_ms", "ms", Lower),
    layer("kstroll.all_targets_ms", "ms", Lower),
    layer("kstroll.candidate_chains", "count", Lower),
    layer("kstroll.dense_share", "ratio", Higher),
    layer("steiner.solve_ms", "ms", Lower),
    layer("steiner.tree_cost", "cost", Lower),
    layer("core.rest_ms", "ms", Lower),
    layer("core.conflicts_per_op", "count", Lower),
    layer("replay.coverage", "ratio", Higher),
    layer("online.incremental_ms", "ms", Lower),
    layer("online.rebuild_ms", "ms", Lower),
    layer("online.rebuild_share", "ratio", Lower),
    layer("online.joins_per_op", "count", Higher),
    layer("online.leaves_per_op", "count", Higher),
    layer("online.reroutes", "count", Lower),
    layer("online.fallbacks", "count", Lower),
    layer("daemon.join_ms_p50", "ms", Lower),
    layer("daemon.leave_ms_p50", "ms", Lower),
    layer("daemon.get_ms_p50", "ms", Lower),
    layer("daemon.stats_ms_p50", "ms", Lower),
    layer("daemon.healthz_ms_p50", "ms", Lower),
    layer("daemon.create_ms_p50", "ms", Lower),
    layer("daemon.delete_ms_p50", "ms", Lower),
    layer("daemon.fail_ms_p50", "ms", Lower),
    layer("daemon.repair_ms_p50", "ms", Lower),
    layer("daemon.route_us.join", "us", Lower),
    layer("daemon.route_us.leave", "us", Lower),
    layer("daemon.route_us.get", "us", Lower),
    layer("daemon.route_us.stats", "us", Lower),
    layer("daemon.route_us.healthz", "us", Lower),
    layer("daemon.route_us.create", "us", Lower),
    layer("daemon.route_us.delete", "us", Lower),
    layer("daemon.route_us.fail", "us", Lower),
    layer("daemon.route_us.repair", "us", Lower),
    layer("daemon.parse_us", "us", Lower),
    layer("daemon.transport_us", "us", Lower),
    layer("daemon.bytes_in_per_op", "B", Lower),
    layer("daemon.bytes_out_per_op", "B", Lower),
    layer("daemon.scaling_2c", "ratio", Higher),
    layer("daemon.wall_ops_per_s", "1/s", Higher),
    layer("daemon.server_requests", "count", Lower),
    layer("daemon.server_errors", "count", Lower),
    layer("trace.op_ms", "ms", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
];

/// The table's own copy of a per-layer metric's name, for names put
/// together at run time (`daemon.<route>_ms_p50`).
///
/// # Panics
///
/// Panics when the table has no such metric: a bug in the caller.
pub fn layer_name(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("layer metric {name} is not in the table"))
        .name
}

/// Direction in which the metric called `name` improves.
///
/// # Panics
///
/// Panics when neither table has such a metric: a bug in the caller.
pub fn better_of(name: &str) -> Better {
    END_TO_END
        .iter()
        .map(|d| (d.name, d.better))
        .chain(PER_LAYER.iter().map(|d| (d.name, d.better)))
        .find(|d| d.0 == name)
        .unwrap_or_else(|| panic!("metric {name} is in neither table"))
        .1
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "oneshot-kstroll",
    "oneshot-inet5k",
    "online-inet10k",
    "daemon-mixed",
];

#[cfg(test)]
mod tests {
    use super::*;
    use sof_spec::value::{parse_json, Value};

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        parse_json(&text).expect("BENCHMARK.json parses")
    }

    fn rows<'a>(m: &'a Value, key: &str) -> &'a [Value] {
        match m.get(key) {
            Some(Value::Array(rows)) => rows,
            other => panic!("'{key}' must be an array, got {other:?}"),
        }
    }

    fn text<'a>(row: &'a Value, key: &str) -> &'a str {
        match row.get(key) {
            Some(Value::Str(s)) => s,
            other => panic!("'{key}' must be a string, got {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let m = manifest();
        let e2e: Vec<_> = rows(&m, "end_to_end")
            .iter()
            .map(|r| {
                let bound = r.get("bound").and_then(Value::as_f64).expect("bound");
                (
                    text(r, "name").to_string(),
                    text(r, "unit").to_string(),
                    text(r, "better").to_string(),
                    bound,
                )
            })
            .collect();
        let ours: Vec<_> = END_TO_END
            .iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.as_str().to_string(),
                    d.bound,
                )
            })
            .collect();
        assert_eq!(e2e, ours);

        let layers: Vec<_> = rows(&m, "per_layer")
            .iter()
            .map(|r| (text(r, "name"), text(r, "unit"), text(r, "better")))
            .collect();
        let ours: Vec<_> = PER_LAYER
            .iter()
            .map(|d| (d.name, d.unit, d.better.as_str()))
            .collect();
        assert_eq!(layers, ours);

        let workloads: Vec<_> = rows(&m, "workloads")
            .iter()
            .map(|r| text(r, "name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn every_route_has_both_of_its_metrics() {
        for route in ROUTES {
            let ms = format!("daemon.{route}_ms_p50");
            let us = format!("daemon.route_us.{route}");
            assert_eq!(layer_name(&ms), ms);
            assert_eq!(layer_name(&us), us);
            assert_eq!(better_of(&us), Better::Lower);
        }
    }
}
