//! Exact k-stroll via branch-and-bound depth-first search.

use crate::{DenseMetric, Stroll};
use sof_graph::Cost;

/// Upper bound on the DFS search-space estimate accepted by
/// [`estimated_work`]-guarded callers (the `Auto` solver).
pub const AUTO_EXACT_WORK_LIMIT: f64 = 5e6;

/// Estimates the unpruned DFS node count for an instance.
pub fn estimated_work(n: usize, k: usize) -> f64 {
    if k < 2 {
        return 1.0;
    }
    let interior = k - 2;
    let mut work = 1.0f64;
    for i in 0..interior {
        work *= (n.saturating_sub(2 + i)) as f64;
    }
    work
}

/// Finds the **minimum-cost** simple path from `source` to `target` visiting
/// exactly `k` distinct nodes, by exhaustive search with cost pruning.
///
/// Returns `None` when no such path exists (`k > n`, or `k != 1` with
/// `source == target`, or `k < 2` with distinct endpoints).
///
/// # Examples
///
/// ```
/// use sof_kstroll::{exact_stroll, DenseMetric};
/// use sof_graph::Cost;
///
/// let m = DenseMetric::from_fn(4, |i, j| Cost::new((i as f64 - j as f64).abs()));
/// let s = exact_stroll(&m, 0, 3, 4).unwrap();
/// assert_eq!(s.nodes, vec![0, 1, 2, 3]);
/// assert_eq!(s.cost, Cost::new(3.0));
/// ```
pub fn exact_stroll(
    metric: &DenseMetric,
    source: usize,
    target: usize,
    k: usize,
) -> Option<Stroll> {
    let mut ws = ExactWorkspace::new(metric.len());
    exact_stroll_with(metric, source, target, k, &mut ws)
}

/// Exact k-strolls from `source` to **every** target on one shared
/// workspace: the nearest-first candidate orderings (one stable row sort
/// per visited node) and the search buffers are computed once and reused
/// across all `n` targets, instead of re-allocated and re-sorted inside
/// every DFS node of every per-target call. Entry `t` equals
/// `exact_stroll(metric, source, t, k)` bit-for-bit — stably sorting the
/// full row and skipping used nodes visits candidates in exactly the order
/// the per-call filtered sort did.
pub fn exact_all_targets(metric: &DenseMetric, source: usize, k: usize) -> Vec<Option<Stroll>> {
    let n = metric.len();
    let mut out: Vec<Option<Stroll>> = vec![None; n];
    if source >= n {
        return out;
    }
    let mut ws = ExactWorkspace::new(n);
    for (t, slot) in out.iter_mut().enumerate() {
        *slot = exact_stroll_with(metric, source, t, k, &mut ws);
    }
    out
}

/// Reusable state shared by every target of one `(metric, source)` search:
/// per-node candidate orderings plus the DFS scratch buffers.
struct ExactWorkspace {
    /// `rows[v]` = all nodes stably sorted by `cost(v, ·)` ascending
    /// (computed lazily, once per `v`). Skipping `used` nodes while
    /// scanning such a row reproduces the nearest-first order the search
    /// previously obtained by filtering and re-sorting per DFS node.
    rows: Vec<Vec<usize>>,
    used: Vec<bool>,
    path: Vec<usize>,
    /// `cheap[r]` = sum of the `r` globally smallest hop costs — an
    /// admissible lower bound on any `r` distinct remaining hops. Built
    /// once per workspace for `k >= 4` searches (empty otherwise); any
    /// admissible bound prunes only branches that cannot *strictly* beat
    /// the incumbent, so strengthening it never changes which stroll is
    /// returned, tie-breaks included.
    cheap: Vec<Cost>,
    /// Cheapest incoming hop per node: `min_in[t]` bounds the closing hop
    /// into target `t`. Built together with `cheap`.
    min_in: Vec<Cost>,
}

impl ExactWorkspace {
    fn new(n: usize) -> ExactWorkspace {
        ExactWorkspace {
            rows: vec![Vec::new(); n],
            used: vec![false; n],
            path: Vec::with_capacity(8),
            cheap: Vec::new(),
            min_in: Vec::new(),
        }
    }

    fn ensure_row(&mut self, metric: &DenseMetric, v: usize) {
        if self.rows[v].is_empty() {
            let mut row: Vec<usize> = (0..metric.len()).collect();
            let costs = metric.row(v);
            row.sort_by_key(|&w| costs[w]);
            self.rows[v] = row;
        }
    }

    /// Builds the pruning tables (`cheap` prefix sums up to `k - 1` hops
    /// plus per-node cheapest incoming hop) from one O(n²) scan. Only
    /// worthwhile when the DFS has at least two interior levels to prune
    /// (`k >= 4`); the scan amortizes over the `n × n^(k-2)` search nodes
    /// it guards.
    fn ensure_bounds(&mut self, metric: &DenseMetric, k: usize) {
        if self.cheap.len() >= k {
            return;
        }
        let n = metric.len();
        let mut all: Vec<Cost> = Vec::with_capacity(n * n.saturating_sub(1));
        self.min_in.clear();
        self.min_in.resize(n, Cost::INFINITY);
        for i in 0..n {
            for (j, &c) in metric.row(i).iter().enumerate() {
                if i == j {
                    continue;
                }
                all.push(c);
                if c < self.min_in[j] {
                    self.min_in[j] = c;
                }
            }
        }
        all.sort_unstable();
        self.cheap.clear();
        self.cheap.push(Cost::ZERO);
        for r in 1..k {
            let prev = self.cheap[r - 1];
            self.cheap.push(match all.get(r - 1) {
                Some(&c) => prev + c,
                None => Cost::INFINITY,
            });
        }
    }
}

fn exact_stroll_with(
    metric: &DenseMetric,
    source: usize,
    target: usize,
    k: usize,
    ws: &mut ExactWorkspace,
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
    if k == 2 {
        return Some(Stroll::from_nodes(metric, vec![source, target]));
    }

    // Admissible per-hop lower bound: the cheapest off-diagonal hop.
    let min_edge = metric.min_hop();

    // With two or more interior levels the search is deep enough that the
    // stronger distinct-hops + closing-hop tables pay for their O(n²)
    // build; below that the flat `min_edge` bound stays.
    if k >= 4 {
        ws.ensure_bounds(metric, k);
    }

    let interior = k - 2;
    ws.used[source] = true;
    ws.used[target] = true;
    ws.path.clear();
    ws.path.push(source);
    let mut best: Option<(Cost, Vec<usize>)> = None;

    fn dfs(
        metric: &DenseMetric,
        ws: &mut ExactWorkspace,
        target: usize,
        remaining: usize,
        min_edge: Cost,
        cur_cost: Cost,
        best: &mut Option<(Cost, Vec<usize>)>,
    ) {
        let cur = *ws.path.last().expect("path never empty");
        if remaining == 0 {
            let total = cur_cost + metric.cost(cur, target);
            if best.as_ref().is_none_or(|(b, _)| total < *b) {
                let mut nodes = ws.path.clone();
                nodes.push(target);
                *best = Some((total, nodes));
            }
            return;
        }
        // Lower bound on the remaining hops. With the pruning tables
        // built: the `remaining` interior hops are distinct, so they sum
        // to at least `cheap[remaining]`, and the closing hop into the
        // target costs at least its cheapest incoming edge — take the
        // best of that and `cheap[remaining + 1]` (all hops counted as
        // distinct). Without them: every hop costs at least `min_edge`.
        // Both are admissible, and the incumbent is only ever replaced on
        // a *strict* improvement, so the choice affects how many branches
        // are explored but never which stroll is returned.
        if let Some((b, _)) = best {
            let bound = if ws.cheap.is_empty() {
                cur_cost + min_edge * (remaining as f64 + 1.0)
            } else {
                let with_close = ws.cheap[remaining] + ws.min_in[target];
                cur_cost + with_close.max(ws.cheap[remaining + 1])
            };
            if bound >= *b {
                return;
            }
        }
        // Visit nearest-first for stronger pruning, scanning the memoized
        // stable ordering and skipping nodes already on the path (plus the
        // endpoints, marked used for the whole search).
        ws.ensure_row(metric, cur);
        let hop = metric.row(cur);
        for i in 0..ws.rows[cur].len() {
            let v = ws.rows[cur][i];
            if ws.used[v] {
                continue;
            }
            ws.used[v] = true;
            ws.path.push(v);
            dfs(
                metric,
                ws,
                target,
                remaining - 1,
                min_edge,
                cur_cost + hop[v],
                best,
            );
            ws.path.pop();
            ws.used[v] = false;
        }
    }

    dfs(
        metric,
        ws,
        target,
        interior,
        min_edge,
        Cost::ZERO,
        &mut best,
    );
    ws.used[source] = false;
    ws.used[target] = false;
    best.map(|(_, nodes)| Stroll::from_nodes(metric, nodes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DenseMetric;

    fn line(n: usize) -> DenseMetric {
        DenseMetric::from_fn(n, |i, j| Cost::new((i as f64 - j as f64).abs()))
    }

    #[test]
    fn shortest_with_all_nodes_is_monotone_line() {
        let m = line(5);
        let s = exact_stroll(&m, 0, 4, 5).unwrap();
        assert_eq!(s.nodes, vec![0, 1, 2, 3, 4]);
        assert_eq!(s.cost, Cost::new(4.0));
    }

    #[test]
    fn k_two_is_direct_edge() {
        let m = line(5);
        let s = exact_stroll(&m, 1, 3, 2).unwrap();
        assert_eq!(s.nodes, vec![1, 3]);
        assert_eq!(s.cost, Cost::new(2.0));
    }

    #[test]
    fn detour_forced_by_k() {
        // Visiting 4 distinct nodes on the line from 0 to 1 forces a detour.
        let m = line(4);
        let s = exact_stroll(&m, 0, 1, 4).unwrap();
        s.validate(&m, 0, 1, 4).unwrap();
        // Best: 0,3,2,1 -> 3 + 1 + 1 = 5 or 0,2,3,1: 2+1+2=5.
        assert_eq!(s.cost, Cost::new(5.0));
    }

    #[test]
    fn infeasible_cases() {
        let m = line(3);
        assert!(exact_stroll(&m, 0, 2, 4).is_none()); // k > n
        assert!(exact_stroll(&m, 0, 0, 2).is_none()); // s == t, k != 1
        assert!(exact_stroll(&m, 0, 2, 1).is_none()); // k < 2, s != t
        assert_eq!(exact_stroll(&m, 1, 1, 1).unwrap().nodes, vec![1]);
    }

    #[test]
    fn work_estimate_grows() {
        assert_eq!(estimated_work(10, 2), 1.0);
        assert_eq!(estimated_work(10, 3), 8.0);
        assert_eq!(estimated_work(10, 4), 8.0 * 7.0);
    }

    #[test]
    fn all_targets_bit_identical_to_per_target_calls() {
        // Unit-ish integer costs maximize tie-break stress: the shared
        // workspace must reproduce not just the optimal cost but the exact
        // node sequence the standalone search picks among equal optima.
        // 120 points is larger than any Fig. 8–10 sweep builds.
        for (n, max_k) in [(12, 5), (120, 4)] {
            let m = DenseMetric::symmetric_from_fn(n, |i, j| {
                Cost::new(1.0 + ((i * 7 + j * 3) % 4) as f64)
            });
            for k in 1..=max_k {
                let all = exact_all_targets(&m, 2, k);
                for (t, entry) in all.iter().enumerate() {
                    let single = exact_stroll(&m, 2, t, k);
                    assert_eq!(
                        entry.as_ref().map(|s| (&s.nodes, s.cost)),
                        single.as_ref().map(|s| (&s.nodes, s.cost)),
                        "n={n} k={k} t={t}"
                    );
                }
            }
        }
    }

    #[test]
    fn min_hop_is_memoized_correctly() {
        let m = DenseMetric::from_fn(5, |i, j| Cost::new((i * 5 + j) as f64 + 1.0));
        let mut expect = Cost::INFINITY;
        for i in 0..5 {
            for j in 0..5 {
                if i != j {
                    expect = expect.min(m.cost(i, j));
                }
            }
        }
        assert_eq!(m.min_hop(), expect);
    }
}
