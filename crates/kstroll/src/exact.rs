//! Exact k-stroll via branch-and-bound depth-first search, pruned by one
//! lower bound: the cost-to-go table of [`SearchContext`].

use crate::{DenseMetric, Stroll};
use sof_graph::Cost;

/// Upper bound on the DFS search-space estimate accepted by
/// [`estimated_work`]-guarded callers (the `Auto` solver).
pub const AUTO_EXACT_WORK_LIMIT: f64 = 5e6;

/// Relative slack `δ` of the prune test, see [`SearchContext`]: the table
/// sums a completion right to left, the search sums the same hops left to
/// right, and over at most `k` non-negative terms the two roundings are
/// under `2k` ulps apart (`k · 2.3e-16`). `1e-12` covers any chain this
/// crate can search and is far below any difference the cost model makes.
const DELTA: f64 = 1e-12;

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
    SearchContext::new().stroll(metric, source, target, k)
}

/// Exact k-strolls from `source` to **every** target on a private
/// [`SearchContext`]. Entry `t` equals `exact_stroll(metric, source, t, k)`
/// bit-for-bit.
pub fn exact_all_targets(metric: &DenseMetric, source: usize, k: usize) -> Vec<Option<Stroll>> {
    SearchContext::new().all_targets(metric, source, k)
}

/// What the exact searches of one solve share. Whoever runs the solve owns
/// it and hands it to each search; nothing outlives the solve.
///
/// **The bound.** `togo[t][r·n + v]` is the cheapest walk `v → t` on exactly
/// `r + 1` hops that never stands still, never enters the source and keeps
/// `t` out of its interior: `togo[t][v] = m(v, t)` and
/// `togo[t][r·n + v] = min over w ∉ {v, t, source} of m(v, w) +
/// togo[t][(r−1)·n + w]`, built per target column, level by level, the
/// first time a search needs it — `O(k·n²)` a column. A DFS node at `cur`
/// with `r` interior nodes still to place is cut when
/// `(cost so far + togo[t][r·n + cur]) · (1 − δ) ≥ incumbent`. Every simple
/// completion the DFS could still enumerate is one of the walks the
/// recursion minimises over (dropping "simple" and "avoids the prefix" only
/// admits more walks), so the bound exceeds no leaf total below the node by
/// more than the rounding `δ` absorbs; the incumbent is only replaced on a
/// strict improvement, so a cut removes no leaf that could have replaced
/// it, and the stroll returned — tie-breaks and cost bits included — is the
/// one an unpruned search in the same order returns.
///
/// **What is shared.** Below the root the DFS never stands on the source
/// and the recursion never steps onto it, so no table entry that is read
/// and no candidate ordering of a non-source node depends on the source's
/// row or column: they stay valid for every metric that agrees with the
/// first one off that row and column — in SOFDA, every source's
/// Procedure-1 metric over one VM set. The context checks that agreement
/// itself (one `n²` comparison per call) and starts over when it fails: a
/// foreign metric costs a rebuild, never a wrong answer.
#[derive(Debug)]
pub struct SearchContext {
    /// Size, source index and entries of the metric the tables below were
    /// built on (its source row and column are never compared or read).
    n: usize,
    source: usize,
    seen: Vec<Cost>,
    /// Cost-to-go columns, one per target; empty until first needed.
    togo: Vec<Vec<Cost>>,
    /// `rows[v]` = every node but the source, stably sorted by
    /// `cost(v, ·)` ascending (lazily, once per `v`). Scanning it and
    /// skipping `used` nodes is the nearest-first order of the search.
    rows: Vec<Vec<usize>>,
    used: Vec<bool>,
    path: Vec<usize>,
    /// DFS nodes expanded since construction.
    nodes: u64,
    /// `1 − DELTA`; a field so a test can show what its sign protects.
    slack: f64,
}

impl Default for SearchContext {
    fn default() -> SearchContext {
        SearchContext::new()
    }
}

impl SearchContext {
    /// An empty context; the first search sizes it.
    pub fn new() -> SearchContext {
        SearchContext {
            n: 0,
            source: 0,
            seen: Vec::new(),
            togo: Vec::new(),
            rows: Vec::new(),
            used: Vec::new(),
            path: Vec::with_capacity(8),
            nodes: 0,
            slack: 1.0 - DELTA,
        }
    }

    /// DFS nodes expanded by every search run on this context so far: a
    /// pure function of the metrics, sources and `k`s searched, in order,
    /// so it repeats exactly where wall-clock does not.
    pub fn nodes(&self) -> u64 {
        self.nodes
    }

    /// [`exact_stroll`] on this context.
    pub fn stroll(
        &mut self,
        metric: &DenseMetric,
        source: usize,
        target: usize,
        k: usize,
    ) -> Option<Stroll> {
        without_search(metric, source, target, k).unwrap_or_else(|| {
            self.adopt(metric, source);
            self.search(metric, target, k)
        })
    }

    /// [`exact_all_targets`] on this context.
    pub fn all_targets(
        &mut self,
        metric: &DenseMetric,
        source: usize,
        k: usize,
    ) -> Vec<Option<Stroll>> {
        let n = metric.len();
        // Exactly the `k`s for which some target needs a search.
        if source < n && (3..=n).contains(&k) {
            self.adopt(metric, source);
        }
        (0..n)
            .map(|t| {
                without_search(metric, source, t, k).unwrap_or_else(|| self.search(metric, t, k))
            })
            .collect()
    }

    /// Points the context at `(metric, source)`: keeps the cached columns
    /// and orderings when the metric agrees with the one they were built
    /// on everywhere off the source's row and column, drops them otherwise.
    fn adopt(&mut self, metric: &DenseMetric, source: usize) {
        let n = metric.len();
        let agrees = self.n == n
            && self.source == source
            && (0..n).filter(|&i| i != source).all(|i| {
                let (row, seen) = (metric.row(i), &self.seen[i * n..(i + 1) * n]);
                row[..source] == seen[..source] && row[source + 1..] == seen[source + 1..]
            });
        if agrees {
            // The source's own ordering is the one thing read from its row.
            self.rows[source].clear();
            return;
        }
        self.n = n;
        self.source = source;
        self.seen.clear();
        for i in 0..n {
            self.seen.extend_from_slice(metric.row(i));
        }
        self.togo.iter_mut().for_each(Vec::clear);
        self.togo.resize(n, Vec::new());
        self.rows.iter_mut().for_each(Vec::clear);
        self.rows.resize(n, Vec::new());
        self.used.clear();
        self.used.resize(n, false);
    }

    fn ensure_row(&mut self, metric: &DenseMetric, v: usize) {
        if self.rows[v].is_empty() {
            let costs = metric.row(v);
            let source = self.source;
            let row = &mut self.rows[v];
            row.extend((0..costs.len()).filter(|&w| w != source));
            row.sort_by_key(|&w| costs[w]);
        }
    }

    /// Grows `target`'s cost-to-go column to `levels` levels.
    fn ensure_togo(&mut self, metric: &DenseMetric, target: usize, levels: usize) {
        let (n, source) = (self.n, self.source);
        let col = &mut self.togo[target];
        if col.is_empty() {
            col.extend((0..n).map(|v| metric.cost(v, target)));
        }
        while col.len() < levels * n {
            // The level below, closed to walks through the target or the
            // source; standing still (`w == v`) is skipped in the scan.
            let mut below: Vec<f64> = col[col.len() - n..].iter().map(|c| c.value()).collect();
            below[target] = f64::INFINITY;
            below[source] = f64::INFINITY;
            for v in 0..n {
                let hop = metric.row(v);
                let cheapest = (0..v)
                    .chain(v + 1..n)
                    .map(|w| hop[w].value() + below[w])
                    .fold(f64::INFINITY, |a, b| if b < a { b } else { a });
                col.push(Cost::new(cheapest));
            }
        }
    }

    /// One `(target, k)` search on the adopted metric, `k ≥ 3`.
    fn search(&mut self, metric: &DenseMetric, target: usize, k: usize) -> Option<Stroll> {
        let source = self.source;
        // The deepest node that can be cut has `k - 3` interior nodes still
        // to place (the root has no incumbent to be cut against).
        let interior = k - 2;
        self.ensure_togo(metric, target, interior);
        let togo = std::mem::take(&mut self.togo[target]);
        self.used[source] = true;
        self.used[target] = true;
        self.path.clear();
        self.path.push(source);
        let mut best: Option<(Cost, Vec<usize>)> = None;
        self.dfs(metric, &togo, target, interior, Cost::ZERO, &mut best);
        self.used[source] = false;
        self.used[target] = false;
        self.togo[target] = togo;
        best.map(|(_, nodes)| Stroll::from_nodes(metric, nodes))
    }

    fn dfs(
        &mut self,
        metric: &DenseMetric,
        togo: &[Cost],
        target: usize,
        remaining: usize,
        cur_cost: Cost,
        best: &mut Option<(Cost, Vec<usize>)>,
    ) {
        self.nodes += 1;
        let cur = *self.path.last().expect("path never empty");
        if remaining == 0 {
            let total = cur_cost + metric.cost(cur, target);
            if best.as_ref().is_none_or(|(b, _)| total < *b) {
                let mut nodes = self.path.clone();
                nodes.push(target);
                *best = Some((total, nodes));
            }
            return;
        }
        // The one prune test; see `SearchContext` for why it cuts no leaf
        // that could strictly beat the incumbent.
        if let Some((b, _)) = best {
            let bound = cur_cost + togo[remaining * self.n + cur];
            if bound.value() * self.slack >= b.value() {
                return;
            }
        }
        // Visit nearest-first for stronger pruning, scanning the memoized
        // stable ordering and skipping nodes already on the path (plus the
        // target, marked used for the whole search).
        self.ensure_row(metric, cur);
        let hop = metric.row(cur);
        for i in 0..self.rows[cur].len() {
            let v = self.rows[cur][i];
            if self.used[v] {
                continue;
            }
            self.used[v] = true;
            self.path.push(v);
            self.dfs(metric, togo, target, remaining - 1, cur_cost + hop[v], best);
            self.path.pop();
            self.used[v] = false;
        }
    }
}

/// The answers that need no search: `Some(answer)` for an infeasible or
/// degenerate `(source, target, k)`, `None` when the DFS has to run.
fn without_search(
    metric: &DenseMetric,
    source: usize,
    target: usize,
    k: usize,
) -> Option<Option<Stroll>> {
    let n = metric.len();
    if source >= n || target >= n || k > n {
        return Some(None);
    }
    if source == target {
        return Some((k == 1).then(|| Stroll::from_nodes(metric, vec![source])));
    }
    match k {
        0 | 1 => Some(None),
        2 => Some(Some(Stroll::from_nodes(metric, vec![source, target]))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DenseMetric;
    use sof_graph::Rng64;

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

    /// A small metric with every trap the bound has to survive: integer
    /// costs (exact ties), then entries moved up an ulp or two on one side
    /// only, so totals that tie on paper differ in their last bits and the
    /// matrix is asymmetric.
    fn tie_stress(rng: &mut Rng64, n: usize) -> DenseMetric {
        let ties = DenseMetric::symmetric_from_fn(n, |_, _| Cost::new((1 + rng.below(4)) as f64));
        let mut ulps = vec![0u64; n * n];
        for _ in 0..n * n {
            ulps[rng.below(n) * n + rng.below(n)] += 1;
        }
        DenseMetric::from_fn(n, |i, j| {
            Cost::new(f64::from_bits(
                ties.cost(i, j).value().to_bits() + ulps[i * n + j],
            ))
        })
    }

    /// Calls `visit(path, cost)` for every simple path from `path[0]` that
    /// places `remaining` more nodes (never `target`), `cost` summed left
    /// to right as the search sums it.
    fn simple_paths(
        m: &DenseMetric,
        target: usize,
        remaining: usize,
        path: &mut Vec<usize>,
        cost: Cost,
        visit: &mut impl FnMut(&[usize], Cost),
    ) {
        visit(path, cost);
        if remaining == 0 {
            return;
        }
        let cur = *path.last().unwrap();
        for v in (0..m.len()).filter(|&v| v != target) {
            if !path.contains(&v) {
                path.push(v);
                simple_paths(m, target, remaining - 1, path, cost + m.cost(cur, v), visit);
                path.pop();
            }
        }
    }

    #[test]
    fn cost_to_go_underestimates_every_simple_completion() {
        // Admissibility, entry by entry: for every simple path p from a
        // non-source v that places r more nodes and then closes into t,
        // togo[t][r·n + v] · (1 − δ) ≤ p's left-to-right cost. Fails when
        // the recursion skips a w it must admit (say `w < v` only) or adds
        // anything to an entry.
        let mut rng = Rng64::seed_from(0xC0570);
        for case in 0..40 {
            let n = 4 + case % 5;
            let m = tie_stress(&mut rng, n);
            let (source, k) = (rng.below(n), 6.min(n));
            let mut ctx = SearchContext::new();
            ctx.all_targets(&m, source, k);
            for t in (0..n).filter(|&t| t != source) {
                let togo = &ctx.togo[t];
                assert_eq!(togo.len(), (k - 2) * n);
                for v in (0..n).filter(|&v| v != source && v != t) {
                    // The one-hop entry *is* the matrix entry.
                    assert_eq!(togo[v], m.cost(v, t));
                    simple_paths(&m, t, k - 3, &mut vec![v], Cost::ZERO, &mut |p, c| {
                        if p.contains(&source) {
                            return;
                        }
                        let r = p.len() - 1;
                        let closed = c + m.cost(*p.last().unwrap(), t);
                        let bound = togo[r * n + v].value() * (1.0 - DELTA);
                        assert!(
                            bound <= closed.value(),
                            "case {case}: togo[{t}][{r}][{v}] = {bound} > {closed} via {p:?}"
                        );
                    });
                }
            }
        }
    }

    #[test]
    fn slack_sign_decides_ulp_ties() {
        // What δ's sign protects: on metrics whose optimal totals differ
        // only in their last bits, a search cutting at `bound·(1 + δ) ≥
        // best` drops the strictly cheaper stroll that the search cutting
        // at `bound·(1 − δ)` finds. (`tests/proptests.rs` holds the latter
        // to an unpruned enumeration.)
        let mut rng = Rng64::seed_from(0x51ACC);
        let mut differed = 0;
        for case in 0..200 {
            let n = 5 + case % 5;
            let m = tie_stress(&mut rng, n);
            let k = 4 + case % 3;
            let good = SearchContext::new().all_targets(&m, 0, k.min(n));
            let mut flipped = SearchContext::new();
            flipped.slack = 1.0 + DELTA;
            if flipped.all_targets(&m, 0, k.min(n)) != good {
                differed += 1;
            }
        }
        // 96 of the 200 when this was written.
        assert!(
            differed > 20,
            "only {differed} metrics told the signs apart"
        );
    }

    #[test]
    fn reused_context_matches_fresh_ones() {
        // One context across sources, ks and unrelated metrics answers as
        // a fresh one does: columns deepen on demand, and a metric that
        // disagrees off the source's row and column starts over. Fails
        // when `adopt` stops comparing the source index or the entries.
        let mut rng = Rng64::seed_from(0x5A4ED);
        let mut ctx = SearchContext::new();
        for case in 0..60 {
            let n = 5 + case % 4;
            let m = tie_stress(&mut rng, n);
            for (source, k) in [(0, 4), (0, 6), (1, 5), (0, 3)] {
                let k = k.min(n);
                assert_eq!(
                    ctx.all_targets(&m, source, k),
                    exact_all_targets(&m, source, k),
                    "case {case} source {source} k {k}"
                );
            }
            // Same block, different source row and column: the cached
            // columns are kept and must still be right.
            let other = DenseMetric::from_fn(n, |i, j| {
                if i == 0 || j == 0 {
                    m.cost(i, j) + Cost::new(0.5)
                } else {
                    m.cost(i, j)
                }
            });
            assert_eq!(
                ctx.all_targets(&other, 0, 4),
                exact_all_targets(&other, 0, 4)
            );
            assert_eq!(
                ctx.seen[1],
                m.cost(0, 1),
                "case {case}: columns were rebuilt"
            );
        }
    }

    #[test]
    fn node_count_is_deterministic_and_sharing_does_not_move_it() {
        let mut rng = Rng64::seed_from(7);
        let m = tie_stress(&mut rng, 9);
        let run = |ctx: &mut SearchContext| {
            let before = ctx.nodes();
            ctx.all_targets(&m, 0, 5);
            ctx.nodes() - before
        };
        let mut shared = SearchContext::new();
        let first = run(&mut shared);
        assert!(first > 0);
        assert_eq!(run(&mut shared), first);
        assert_eq!(run(&mut SearchContext::new()), first);
    }
}
