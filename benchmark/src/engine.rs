//! The path engine's tier counters, as exact counts of a round and as the
//! `graph.*` layer metrics every workload derives from them.

use crate::workload::Round;
use sof_graph::PathEngineStats;

/// Adds what the engine did between two readings to the round's counts.
pub fn count(round: &mut Round, before: PathEngineStats, after: PathEngineStats) {
    round.count("engine.hits", after.hits - before.hits);
    round.count("engine.misses", after.misses - before.misses);
    round.count("engine.stale", after.stale - before.stale);
    round.count("engine.revalidated", after.repairs - before.repairs);
    round.count(
        "engine.partial_repairs",
        after.partial_repairs - before.partial_repairs,
    );
    round.count("engine.evictions", after.evictions - before.evictions);
}

/// `num ÷ den`, 0 when the denominator is (a fresh engine never goes stale,
/// so `graph.repair_ratio` is 0/0 on the oneshot workloads).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The `graph.*` metrics of a round. `cold_tree_ms` is one cold
/// single-source tree on the workload's network; `graph.miss_ms_est` is
/// computed from it, not measured.
pub fn layers(r: &Round, cold_tree_ms: f64) -> Vec<(&'static str, f64)> {
    let (hits, misses) = (r.per_op("engine.hits"), r.per_op("engine.misses"));
    let stale = r.per_op("engine.stale");
    let revalidated = r.per_op("engine.revalidated");
    let partial = r.per_op("engine.partial_repairs");
    [
        ("graph.cold_tree_ms", cold_tree_ms),
        ("graph.hits_per_op", hits),
        ("graph.misses_per_op", misses),
        ("graph.stale_per_op", stale),
        ("graph.revalidated_per_op", revalidated),
        ("graph.partial_repairs_per_op", partial),
        ("graph.evictions", r.counted("engine.evictions") as f64),
        ("graph.hit_ratio", ratio(hits, hits + misses)),
        ("graph.repair_ratio", ratio(revalidated + partial, stale)),
        ("graph.miss_ms_est", misses * cold_tree_ms),
    ]
    .to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_are_per_op_and_zero_over_zero_reads_zero() {
        let mut r = Round {
            op_ms: vec![1.0; 4],
            ..Round::default()
        };
        let after = PathEngineStats {
            hits: 30,
            misses: 10,
            stale: 8,
            repairs: 2,
            partial_repairs: 4,
            evictions: 1,
        };
        count(&mut r, PathEngineStats::default(), after);
        let m: std::collections::BTreeMap<_, _> = layers(&r, 2.0).into_iter().collect();
        assert_eq!(m["graph.hits_per_op"], 7.5);
        assert_eq!(m["graph.hit_ratio"], 0.75);
        assert_eq!(m["graph.repair_ratio"], 0.75);
        assert_eq!(m["graph.miss_ms_est"], 5.0);
        assert_eq!(m["graph.evictions"], 1.0);
        assert_eq!(ratio(0.0, 0.0), 0.0);
    }
}
