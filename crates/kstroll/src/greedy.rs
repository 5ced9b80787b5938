//! Greedy insertion heuristic with local-search polishing.

use crate::{DenseMetric, Stroll};
use sof_graph::Cost;

/// Maximum improvement passes of the local search.
const MAX_PASSES: usize = 32;

/// Builds a k-stroll by cheapest insertion, then polishes it with
/// node-swap, relocation and 2-opt moves until a local optimum.
///
/// Deterministic; returns `None` on infeasible parameters (same contract as
/// [`crate::exact_stroll`]).
///
/// # Examples
///
/// ```
/// use sof_kstroll::{greedy_stroll, DenseMetric};
/// use sof_graph::Cost;
///
/// let m = DenseMetric::from_fn(5, |i, j| Cost::new((i as f64 - j as f64).abs()));
/// let s = greedy_stroll(&m, 0, 4, 5).unwrap();
/// assert_eq!(s.cost, Cost::new(4.0));
/// ```
pub fn greedy_stroll(
    metric: &DenseMetric,
    source: usize,
    target: usize,
    k: usize,
) -> Option<Stroll> {
    let n = metric.len();
    if source >= n || target >= n || k > n {
        return None;
    }
    if source == target {
        return (k == 1).then(|| Stroll::from_nodes(metric, vec![source]));
    }
    if k < 2 {
        return None;
    }
    let mut path = vec![source, target];
    let mut used = vec![false; n];
    used[source] = true;
    used[target] = true;

    // Cheapest-insertion construction.
    while path.len() < k {
        let mut best: Option<(Cost, usize, usize)> = None; // (delta, node, pos)
        for (v, &taken) in used.iter().enumerate() {
            if taken {
                continue;
            }
            let vrow = metric.row(v);
            for pos in 1..path.len() {
                let (a, b) = (path[pos - 1], path[pos]);
                let arow = metric.row(a);
                let delta = arow[v] + vrow[b] - arow[b];
                if best.is_none_or(|(d, _, _)| delta < d) {
                    best = Some((delta, v, pos));
                }
            }
        }
        let (_, v, pos) = best?;
        path.insert(pos, v);
        used[v] = true;
    }

    // Local search.
    for _ in 0..MAX_PASSES {
        let mut improved = false;

        // Swap an interior node for an unused node.
        for i in 1..path.len() - 1 {
            let (a, b) = (path[i - 1], path[i + 1]);
            let arow = metric.row(a);
            let old = arow[path[i]] + metric.cost(path[i], b);
            let mut best_v = None;
            let mut best_new = old;
            for (v, &taken) in used.iter().enumerate() {
                if taken {
                    continue;
                }
                let new = arow[v] + metric.cost(v, b);
                if new < best_new {
                    best_new = new;
                    best_v = Some(v);
                }
            }
            if let Some(v) = best_v {
                used[path[i]] = false;
                used[v] = true;
                path[i] = v;
                improved = true;
            }
        }

        // 2-opt: reverse an interior segment.
        for i in 1..path.len() - 1 {
            for j in i + 1..path.len() - 1 {
                let (a, b) = (path[i - 1], path[j + 1]);
                let old = metric.cost(a, path[i]) + metric.cost(path[j], b);
                let new = metric.cost(a, path[j]) + metric.cost(path[i], b);
                if new < old {
                    path[i..=j].reverse();
                    improved = true;
                }
            }
        }

        // Relocate: move one interior node elsewhere if that is cheaper.
        for i in 1..path.len() - 1 {
            let v = path[i];
            let removed_gain = metric.cost(path[i - 1], v) + metric.cost(v, path[i + 1])
                - metric.cost(path[i - 1], path[i + 1]);
            let mut best_pos = None;
            let mut best_delta = Cost::INFINITY;
            for pos in 1..path.len() {
                if pos == i || pos == i + 1 {
                    continue;
                }
                let (a, b) = (path[pos - 1], path[pos]);
                let insert_cost = metric.cost(a, v) + metric.cost(v, b) - metric.cost(a, b);
                if insert_cost + Cost::new(1e-12) < removed_gain && insert_cost < best_delta {
                    best_pos = Some(pos);
                    best_delta = insert_cost;
                }
            }
            if let Some(pos) = best_pos {
                path.remove(i);
                let pos = if pos > i { pos - 1 } else { pos };
                path.insert(pos, v);
                improved = true;
            }
        }

        if !improved {
            break;
        }
    }
    Some(Stroll::from_nodes(metric, path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact_stroll;
    use sof_graph::Rng64;

    fn random_metric(n: usize, rng: &mut Rng64) -> DenseMetric {
        // Random points on a plane -> guaranteed metric.
        let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.next_f64(), rng.next_f64())).collect();
        DenseMetric::symmetric_from_fn(n, |i, j| {
            let dx = pts[i].0 - pts[j].0;
            let dy = pts[i].1 - pts[j].1;
            Cost::new((dx * dx + dy * dy).sqrt())
        })
    }

    #[test]
    fn greedy_close_to_exact_on_random_euclidean() {
        let mut rng = Rng64::seed_from(77);
        let mut worst: f64 = 1.0;
        for _ in 0..30 {
            let m = random_metric(12, &mut rng);
            let k = 4 + rng.below(4); // 4..=7
            let g = greedy_stroll(&m, 0, 1, k).unwrap();
            g.validate(&m, 0, 1, k).unwrap();
            let e = exact_stroll(&m, 0, 1, k).unwrap();
            assert!(g.cost >= e.cost - Cost::new(1e-9));
            worst = worst.max(g.cost.value() / e.cost.value().max(1e-12));
        }
        assert!(worst < 1.3, "greedy ratio too large: {worst}");
    }

    #[test]
    fn feasibility_edge_cases() {
        let m = random_metric(5, &mut Rng64::seed_from(1));
        assert!(greedy_stroll(&m, 0, 4, 6).is_none());
        assert_eq!(greedy_stroll(&m, 2, 2, 1).unwrap().nodes, vec![2]);
        let direct = greedy_stroll(&m, 0, 4, 2).unwrap();
        assert_eq!(direct.nodes, vec![0, 4]);
    }

    #[test]
    fn visits_exactly_k_distinct() {
        let m = random_metric(10, &mut Rng64::seed_from(3));
        for k in 2..=10 {
            let s = greedy_stroll(&m, 0, 9, k).unwrap();
            s.validate(&m, 0, 9, k).unwrap();
        }
    }
}
