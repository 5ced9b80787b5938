//! Exact k-stroll via branch-and-bound depth-first search, pruned by one
//! lower bound: the cost-to-go table of [`SearchContext`].

use crate::{greedy_stroll, DenseMetric, Stroll};
use sof_graph::Cost;

/// DFS nodes the [`crate::StrollSolver::Auto`] searches of one
/// [`SearchContext`] — one solve with its conflict fallbacks, or one
/// full-search join — may expand before the rest are answered by
/// [`greedy_stroll`]. Measured, not estimated (`docs/METRICS.md`, "Which
/// search runs"): the worst solve over the full axes of the paper's
/// Figs. 8–11 expands 9.3 M nodes, and with every axis at its far end at
/// once (26 sources, 10 destinations, 45 VMs, chain of 7) 41.6 M (eNEMP;
/// SOFDA 26.9 M), so the paper's whole parameter range is searched exactly
/// with 4× to spare, and an operation far outside it costs 0.9–2.7 s in a
/// release build before greedy takes over.
pub const AUTO_NODE_BUDGET: u64 = 180_000_000;

/// Relative slack `δ` of the prune test, see [`SearchContext`]: the table
/// sums a completion right to left, the search sums the same hops left to
/// right, and over at most `k` non-negative terms the two roundings are
/// under `2k` ulps apart (`k · 2.3e-16`). `1e-12` covers any chain this
/// crate can search and is far below any difference the cost model makes.
const DELTA: f64 = 1e-12;

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
/// **The stop at every level.** A parent counts and tests each child in
/// its own loop and recurses only into one that survives, so a cut child
/// costs no call. Its row is sorted by hop, f64 addition and
/// multiplication are monotone, and `floor[t][r]` — the cheapest entry of
/// level `r` of `t`'s column over `w ∉ {t, source}` — bounds every entry
/// the prune test could read there. So a node with `r ≥ 2` interior nodes
/// left stops its scan at the first unused child `v` with
/// `((cost so far + m(cur, v)) + floor[t][r−1]) · (1 − δ) ≥ incumbent`:
/// the prune test would cut `v` and every later child. It counts them all
/// at once, clamped to the budget the per-child loop would have stopped
/// at, so `nodes` is the count the loop would have reached. A node with
/// one interior node left scans its leaves in place — each total is
/// `(cost so far + m(cur, v)) + togo[t][v]`, and level 0 of the column is
/// `m(v, t)` — and stops at the first `v` with
/// `(cost so far + m(cur, v)) + floor[t][0] ≥ incumbent`: a leaf's total
/// is what the incumbent is compared with, so that stop needs no `δ`. The
/// node counts all its leaves, scanned or not, so `nodes` stays one per
/// DFS node.
///
/// **What is shared.** Below the root the DFS never stands on the source
/// and the recursion never steps onto it, so no table entry that is read
/// and no candidate ordering of a non-source node depends on the source's
/// row or column: they stay valid for every metric that agrees with the
/// first one off that row and column — in SOFDA, every source's
/// Procedure-1 metric over one VM set. The context checks that agreement
/// itself (one `n²` comparison per call) and starts over when it fails: a
/// foreign metric costs a rebuild, never a wrong answer.
///
/// **The budget.** [`SearchContext::stroll`] and
/// [`SearchContext::all_targets`] search to the end whatever it costs: they
/// are the reference. [`crate::StrollSolver::Auto`] runs the same search —
/// same order, same bound, same strict-`<` rule, so the same stroll bit for
/// bit — while [`SearchContext::nodes`] is below [`AUTO_NODE_BUDGET`]. The
/// search that reaches it stops expanding (the count can pass the budget by
/// the leaves of one expansion, fewer than `n`) and answers with the
/// cheaper of its incumbent and [`greedy_stroll`]; every later budgeted
/// search on the context answers with `greedy_stroll` and builds no column.
/// The counter is never reset — not by a foreign metric either — so one
/// context is one operation's allowance.
#[derive(Debug)]
pub struct SearchContext {
    /// Size, source index and entries of the metric the tables below were
    /// built on (its source row and column are never compared or read).
    n: usize,
    source: usize,
    seen: Vec<Cost>,
    /// Cost-to-go columns, one per target; empty until first needed.
    togo: Vec<Vec<Cost>>,
    /// `floor[t][r]` = min of `togo[t][r·n + w]` over `w ∉ {t, source}`,
    /// the least the prune test can read at level `r` (level 0: the
    /// cheapest closing hop of any leaf); built with `t`'s column.
    floor: Vec<Vec<Cost>>,
    /// The level below the one `ensure_togo` is building, as `f64`s.
    below: Vec<f64>,
    /// `rows[v]` = every node but the source, stably sorted by
    /// `cost(v, ·)` ascending (lazily, once per `v`). Scanning it and
    /// skipping `used` nodes is the nearest-first order of the search.
    rows: Vec<Vec<usize>>,
    used: Vec<bool>,
    path: Vec<usize>,
    /// The nodes of the search's incumbent, the cheapest leaf so far.
    incumbent: Vec<usize>,
    /// DFS nodes expanded since construction.
    nodes: u64,
    /// Row entries read against an incumbent since construction: the
    /// children a scan tested before it recursed, cut or stopped.
    tested: u64,
    /// The `nodes` count at which the call in flight stops expanding:
    /// [`AUTO_NODE_BUDGET`] under `Auto`, `u64::MAX` for a reference search.
    limit: u64,
    /// Searches answered by greedy because `nodes` had reached their limit.
    handovers: u64,
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
            floor: Vec::new(),
            below: Vec::new(),
            rows: Vec::new(),
            used: Vec::new(),
            path: Vec::with_capacity(8),
            incumbent: Vec::with_capacity(8),
            nodes: 0,
            tested: 0,
            limit: u64::MAX,
            handovers: 0,
            slack: 1.0 - DELTA,
        }
    }

    /// DFS nodes expanded by every search run on this context so far: a
    /// pure function of the metrics, sources and `k`s searched, in order,
    /// so it repeats exactly where wall-clock does not.
    pub fn nodes(&self) -> u64 {
        self.nodes
    }

    /// Budgeted searches this context answered with [`greedy_stroll`]
    /// because its node budget was spent: 0 means every stroll it returned
    /// is optimal.
    pub fn handovers(&self) -> u64 {
        self.handovers
    }

    /// [`exact_stroll`] on this context.
    pub fn stroll(
        &mut self,
        metric: &DenseMetric,
        source: usize,
        target: usize,
        k: usize,
    ) -> Option<Stroll> {
        self.stroll_until(u64::MAX, metric, source, target, k)
    }

    /// [`exact_all_targets`] on this context.
    pub fn all_targets(
        &mut self,
        metric: &DenseMetric,
        source: usize,
        k: usize,
    ) -> Vec<Option<Stroll>> {
        self.all_targets_until(u64::MAX, metric, source, k)
    }

    /// [`Self::stroll`] while `nodes() < limit`, [`greedy_stroll`] from
    /// there on (see the type's docs, "The budget").
    pub(crate) fn stroll_until(
        &mut self,
        limit: u64,
        metric: &DenseMetric,
        source: usize,
        target: usize,
        k: usize,
    ) -> Option<Stroll> {
        without_search(metric, source, target, k).unwrap_or_else(|| {
            self.adopt(metric, source);
            self.limit = limit;
            self.search(metric, target, k)
        })
    }

    /// [`Self::all_targets`] while `nodes() < limit`, [`greedy_stroll`]
    /// from there on.
    pub(crate) fn all_targets_until(
        &mut self,
        limit: u64,
        metric: &DenseMetric,
        source: usize,
        k: usize,
    ) -> Vec<Option<Stroll>> {
        let n = metric.len();
        // Exactly the `k`s for which some target needs a search.
        if source < n && (3..=n).contains(&k) {
            self.adopt(metric, source);
        }
        self.limit = limit;
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
        self.floor.iter_mut().for_each(Vec::clear);
        self.floor.resize(n, Vec::new());
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

    /// Grows `target`'s cost-to-go column and its floors to `levels`
    /// levels.
    fn ensure_togo(&mut self, metric: &DenseMetric, target: usize, levels: usize) {
        let (n, source) = (self.n, self.source);
        let (col, floor, below) = (
            &mut self.togo[target],
            &mut self.floor[target],
            &mut self.below,
        );
        if col.is_empty() {
            col.extend((0..n).map(|v| metric.cost(v, target)));
        }
        while col.len() < levels * n {
            // The level below, closed to walks through the target or the
            // source, and for row `v` alone to standing still (`w == v`).
            below.clear();
            below.extend(col[col.len() - n..].iter().map(|c| c.value()));
            below[target] = f64::INFINITY;
            below[source] = f64::INFINITY;
            for v in 0..n {
                let kept = std::mem::replace(&mut below[v], f64::INFINITY);
                col.push(Cost::new(cheapest(metric.row(v), below)));
                below[v] = kept;
            }
        }
        while floor.len() < col.len() / n {
            let level = &col[floor.len() * n..][..n];
            floor.push(
                (0..n)
                    .filter(|&w| w != target && w != source)
                    .map(|w| level[w])
                    .min()
                    .unwrap_or(Cost::INFINITY),
            );
        }
    }

    /// One `(target, k)` answer on the adopted metric, `k ≥ 3`: the optimum
    /// when the search ends with `nodes < limit`, else the cheaper of what
    /// it found and [`greedy_stroll`].
    fn search(&mut self, metric: &DenseMetric, target: usize, k: usize) -> Option<Stroll> {
        // Nothing is built for a search that may not expand its root.
        let mut found = None;
        if self.nodes < self.limit {
            found = self.exhaust(metric, target, k);
            if self.nodes < self.limit {
                return found;
            }
        }
        // Spent before this search or under it: what it found, if anything,
        // is a stroll but not known to be the cheapest.
        self.handovers += 1;
        let greedy = greedy_stroll(metric, self.source, target, k);
        match (found, greedy) {
            (Some(f), Some(g)) => Some(if g.cost < f.cost { g } else { f }),
            (f, g) => f.or(g),
        }
    }

    /// The DFS for one `(target, k)`, from the root until it is exhausted
    /// or `nodes` reaches `limit`; returns its incumbent.
    fn exhaust(&mut self, metric: &DenseMetric, target: usize, k: usize) -> Option<Stroll> {
        let source = self.source;
        // The deepest node that can be cut has `k - 3` interior nodes still
        // to place (the root has no incumbent to be cut against).
        let interior = k - 2;
        self.ensure_togo(metric, target, interior);
        let togo = std::mem::take(&mut self.togo[target]);
        let floor = std::mem::take(&mut self.floor[target]);
        self.used[source] = true;
        self.used[target] = true;
        self.path.clear();
        self.path.push(source);
        // The root: `search` tested the budget, and there is no incumbent
        // to cut it against.
        self.nodes += 1;
        let mut best = None;
        let bounds = Bounds {
            togo: &togo,
            floor: &floor,
            target,
        };
        self.dfs(metric, &bounds, interior, Cost::ZERO, &mut best);
        self.used[source] = false;
        self.used[target] = false;
        self.togo[target] = togo;
        self.floor[target] = floor;
        best.map(|_| Stroll::from_nodes(metric, self.incumbent.clone()))
    }

    /// Expands a DFS node the caller has already counted and let past the
    /// budget and the prune test: `path` ends at it, `remaining ≥ 1`
    /// interior nodes are still to place, `cur_cost` is the cost so far and
    /// `best` the incumbent's cost (its nodes are `incumbent`).
    fn dfs(
        &mut self,
        metric: &DenseMetric,
        bounds: &Bounds,
        remaining: usize,
        cur_cost: Cost,
        best: &mut Option<Cost>,
    ) {
        let Bounds {
            togo,
            floor,
            target,
        } = *bounds;
        let cur = *self.path.last().expect("path never empty");
        // Visit nearest-first for stronger pruning, scanning the memoized
        // stable ordering and skipping nodes already on the path (plus the
        // target, marked used for the whole search).
        self.ensure_row(metric, cur);
        let hop = metric.row(cur);
        // Every unused node of the row is a child, each one DFS node: the
        // row holds all nodes but the source, the path all used ones but
        // the target.
        let mut unscanned = (self.rows[cur].len() - self.path.len()) as u64;
        if remaining == 1 {
            // Leaves are counted scanned or not.
            self.nodes += unscanned;
            let SearchContext {
                rows,
                used,
                path,
                incumbent,
                tested,
                ..
            } = self;
            for &v in &rows[cur] {
                if used[v] {
                    continue;
                }
                let reach = cur_cost + hop[v];
                if let Some(b) = *best {
                    *tested += 1;
                    // Later leaves in the row are no nearer and close on
                    // no less than `floor[0]`, so none can strictly beat `b`.
                    if reach + floor[0] >= b {
                        return;
                    }
                }
                // Level 0 of the column is `m(v, target)`.
                let total = reach + togo[v];
                if best.is_none_or(|b| total < b) {
                    incumbent.clear();
                    incumbent.extend_from_slice(path);
                    incumbent.extend([v, target]);
                    *best = Some(total);
                }
            }
            return;
        }
        let below = (remaining - 1) * self.n;
        let deeper = floor[remaining - 1];
        for i in 0..self.rows[cur].len() {
            let v = self.rows[cur][i];
            if self.used[v] {
                continue;
            }
            // The budget is tested before a node with children to place is
            // counted, never at the leaves: once it is spent no interior
            // node is counted, so `nodes` passes `limit` by at most the
            // leaves of the one expansion in flight.
            if self.nodes >= self.limit {
                return;
            }
            self.nodes += 1;
            unscanned -= 1;
            let reach = cur_cost + hop[v];
            if let Some(b) = *best {
                self.tested += 1;
                // Later children are no nearer and go on from a level whose
                // entries are no less than `deeper`, so the prune test below
                // would cut this one and all of them: count them as the
                // loop would have, up to the budget, and stop.
                if (reach + deeper).value() * self.slack >= b.value() {
                    self.nodes += unscanned.min(self.limit - self.nodes);
                    return;
                }
                // The one prune test; see `SearchContext` for why it cuts
                // no leaf that could strictly beat the incumbent.
                if (reach + togo[below + v]).value() * self.slack >= b.value() {
                    continue;
                }
            }
            self.used[v] = true;
            self.path.push(v);
            self.dfs(metric, bounds, remaining - 1, reach, best);
            self.path.pop();
            self.used[v] = false;
        }
    }
}

/// What one `(target, k)` search prunes with: `target`'s cost-to-go column
/// and its floors, taken out of the context while the DFS borrows it.
#[derive(Clone, Copy)]
struct Bounds<'a> {
    togo: &'a [Cost],
    floor: &'a [Cost],
    target: usize,
}

/// `min over w of hop[w] + below[w]` in four independent lanes: a min of
/// non-NaN values with no −0 among them (`Cost::new` turns −0 into +0) is
/// the same whatever order it is taken in, so this is the left-to-right
/// fold's bits.
fn cheapest(hop: &[Cost], below: &[f64]) -> f64 {
    let (hops, belows) = (hop.chunks_exact(4), below.chunks_exact(4));
    let tail = hops.remainder().iter().zip(belows.remainder());
    let mut lanes = [f64::INFINITY; 4];
    for (h, b) in hops.zip(belows) {
        for lane in 0..4 {
            let sum = h[lane].value() + b[lane];
            if sum < lanes[lane] {
                lanes[lane] = sum;
            }
        }
    }
    tail.map(|(h, b)| h.value() + b)
        .chain(lanes)
        .fold(f64::INFINITY, |a, b| if b < a { b } else { a })
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

    /// Integer costs 2…4 on even cases, points in the unit square on odd
    /// ones: both respect the triangle inequality, which `greedy_stroll`'s
    /// insertion deltas assume (`tie_stress` does not).
    fn metric_for(case: usize, rng: &mut Rng64, n: usize) -> DenseMetric {
        if case.is_multiple_of(2) {
            return DenseMetric::symmetric_from_fn(n, |_, _| Cost::new((2 + rng.below(3)) as f64));
        }
        let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.next_f64(), rng.next_f64())).collect();
        DenseMetric::symmetric_from_fn(n, |i, j| {
            Cost::new((pts[i].0 - pts[j].0).hypot(pts[i].1 - pts[j].1))
        })
    }

    /// What every budgeted answer must hold; returns the answers and how
    /// many of them beat greedy outright.
    fn check_budgeted(
        ctx: &mut SearchContext,
        budget: u64,
        m: &DenseMetric,
        source: usize,
        k: usize,
    ) -> (Vec<Option<Stroll>>, usize) {
        let all = ctx.all_targets_until(budget, m, source, k);
        // Past the budget by the leaves of one expansion at most.
        assert!(ctx.nodes() < budget + m.len() as u64, "{}", ctx.nodes());
        let mut beat_greedy = 0;
        for (t, got) in all.iter().enumerate() {
            let greedy = greedy_stroll(m, source, t, k);
            assert_eq!(got.is_some(), greedy.is_some(), "target {t}");
            if let (Some(got), Some(greedy)) = (got, greedy) {
                got.validate(m, source, t, k).unwrap();
                assert!(got.cost <= greedy.cost, "target {t}: {got:?} vs {greedy:?}");
                beat_greedy += usize::from(got.cost < greedy.cost);
            }
        }
        (all, beat_greedy)
    }

    #[test]
    fn a_spent_budget_hands_over_to_greedy_and_stays_spent() {
        // Small budgets on metrics an exact search needs thousands of nodes
        // for. Fails when `dfs` never tests the budget (`nodes()` runs past
        // it and nothing is handed over), and when a search the budget cut
        // short returns its incumbent without comparing greedy (the
        // incumbent after a few nodes is the nearest-neighbour path, which
        // greedy's local search beats).
        let mut rng = Rng64::seed_from(0xB0D6E7);
        let (mut spent, mut beat_greedy) = (0, 0);
        for case in 0..120 {
            let n = 9 + case % 6;
            let m = metric_for(case, &mut rng, n);
            let (source, k) = (rng.below(n), 5 + case % 3);
            let budget = [0, 1, 6, 60, 2_000, 200_000][case % 6];
            let mut ctx = SearchContext::new();
            let (all, beat) = check_budgeted(&mut ctx, budget, &m, source, k);
            beat_greedy += beat;

            // The same calls in the same order spend it at the same node.
            let mut again = SearchContext::new();
            assert_eq!(again.all_targets_until(budget, &m, source, k), all);
            assert_eq!(
                (again.nodes(), again.handovers()),
                (ctx.nodes(), ctx.handovers())
            );

            if ctx.nodes() < budget {
                assert_eq!(ctx.handovers(), 0, "case {case}");
                assert_eq!(all, exact_all_targets(&m, source, k));
                continue;
            }
            spent += 1;
            assert!(ctx.handovers() > 0, "case {case}");

            // Spent is sticky: a foreign metric restarts the tables, not
            // the count, and every budgeted search on it is greedy's.
            let other = metric_for(case + 1, &mut rng, n + 1);
            let (spent_at, before) = (ctx.nodes(), ctx.handovers());
            let (got, _) = check_budgeted(&mut ctx, budget, &other, 0, k);
            for (t, got) in got.iter().enumerate() {
                assert_eq!(
                    *got,
                    greedy_stroll(&other, 0, t, k),
                    "case {case} target {t}"
                );
            }
            assert_eq!(ctx.handovers() - before, n as u64, "case {case}");
            assert_eq!(ctx.nodes(), spent_at);
            assert!(
                ctx.togo.iter().all(Vec::is_empty),
                "a spent budget built a column"
            );
            // The reference search on the same context is not budgeted.
            assert_eq!(
                ctx.all_targets(&other, 0, k),
                exact_all_targets(&other, 0, k)
            );
            assert!(ctx.nodes() > spent_at);
        }
        // 100 of the 120 cases and 127 answers when this was written.
        assert!(spent >= 60, "only {spent} cases spent their budget");
        assert!(beat_greedy > 50, "only {beat_greedy} answers beat greedy");
    }

    /// One FNV-1a step.
    fn eat(hash: u64, x: u64) -> u64 {
        (hash ^ x).wrapping_mul(0x0100_0000_01b3)
    }

    /// FNV-1a over every answer's nodes and cost bits, `None` included.
    fn digest(answers: &[Option<Stroll>], mut hash: u64) -> u64 {
        for answer in answers {
            match answer {
                None => hash = eat(hash, u64::MAX),
                Some(s) => {
                    s.nodes.iter().for_each(|&v| hash = eat(hash, v as u64));
                    hash = eat(hash, s.cost.value().to_bits());
                }
            }
        }
        hash
    }

    /// Thirty-six points shaped like a Fig. 9 chain metric: a source and
    /// 35 VMs on 24 data centres in the unit square, entry `(a, b)` the
    /// centres' distance plus half of each end's setup cost. VMs that share
    /// a centre and a setup cost tie exactly.
    fn fig9_like(rng: &mut Rng64) -> DenseMetric {
        let centres: Vec<(f64, f64)> = (0..24).map(|_| (rng.next_f64(), rng.next_f64())).collect();
        let at: Vec<usize> = (0..36).map(|_| rng.below(24)).collect();
        let mut half: Vec<f64> = (0..36).map(|_| (1 + rng.below(3)) as f64 / 20.0).collect();
        half[0] = 0.0;
        DenseMetric::symmetric_from_fn(36, |i, j| {
            let (a, b) = (centres[at[i]], centres[at[j]]);
            Cost::new((a.0 - b.0).hypot(a.1 - b.1) + half[i] + half[j])
        })
    }

    #[test]
    fn answers_and_columns_are_bit_identical_on_generated_metrics() {
        // Every all-targets answer (nodes and cost bits) and every
        // cost-to-go column a context built, pinned at the values of the
        // search whose interior levels tested every child: 60 tie-stress
        // metrics, each searched at three `k`s on one context so its
        // columns deepen, and eight Fig. 9-shaped ones at `k = 5`.
        let mut rng = Rng64::seed_from(0xF1_7E_D1);
        let (mut answers, mut columns) = (0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325);
        for case in 0..68 {
            let (m, source, ks) = if case < 60 {
                let n = 6 + case % 7;
                (tie_stress(&mut rng, n), rng.below(n), vec![4, 6.min(n), 3])
            } else {
                (fig9_like(&mut rng), 0, vec![5])
            };
            let mut ctx = SearchContext::new();
            for k in ks {
                answers = digest(&ctx.all_targets(&m, source, k), answers);
            }
            for col in &ctx.togo {
                columns = eat(columns, col.len() as u64);
                for c in col {
                    columns = eat(columns, c.value().to_bits());
                }
            }
        }
        assert_eq!(answers, 0xc40f_2fef_d8ae_7fa5, "answers moved");
        assert_eq!(columns, 0x5e17_2751_63f5_76e4, "cost-to-go columns moved");
    }

    #[test]
    fn a_budget_is_spent_at_the_same_node() {
        // The node at which a budget runs out, how many searches it hands
        // to greedy and every answer, pinned at values an unflattened
        // recursion produced: six metrics, each under six budgets from "no
        // root" to "enough". Fails when the leaves of a node are counted
        // one short, when the budget is tested after `nodes += 1` instead
        // of before, and when the leaf scan stops at the first leaf whose
        // own total reaches the incumbent (not exact: a later leaf on a
        // cheaper closing hop can still beat it).
        let mut rng = Rng64::seed_from(0x5E7_B0D6E7);
        let mut hash = 0xcbf2_9ce4_8422_2325;
        let spent: Vec<[(u64, u64); 6]> = (0..6)
            .map(|case| {
                let n = 9 + case;
                let m = metric_for(case, &mut rng, n);
                let (source, k) = (rng.below(n), 5 + case % 3);
                [0, 1, 6, 60, 2_000, 200_000].map(|budget| {
                    let mut ctx = SearchContext::new();
                    hash = digest(&ctx.all_targets_until(budget, &m, source, k), hash);
                    (ctx.nodes(), ctx.handovers())
                })
            })
            .collect();
        let pinned = [
            [(0, 8), (1, 8), (8, 8), (60, 8), (437, 0), (437, 0)],
            [(0, 9), (1, 9), (9, 9), (63, 8), (429, 0), (429, 0)],
            [(0, 10), (1, 10), (10, 10), (60, 10), (2000, 3), (2978, 0)],
            [(0, 11), (1, 11), (11, 11), (60, 10), (383, 0), (383, 0)],
            [(0, 12), (1, 12), (12, 12), (67, 12), (2005, 2), (2381, 0)],
            [(0, 13), (1, 13), (13, 13), (68, 13), (2000, 5), (2520, 0)],
        ];
        assert_eq!(spent, pinned, "(nodes, handovers) per metric and budget");
        assert_eq!(hash, 0xfb77_ae65_6b3a_e310, "answers moved");
    }

    #[test]
    fn rows_are_tested_only_up_to_the_sorted_bound() {
        // Row entries read against an incumbent, unbudgeted, on the six
        // metrics of `a_budget_is_spent_at_the_same_node` and one Fig.
        // 9-shaped metric, pinned beside the nodes they expand. Every stop
        // is exact, so none of them moves an answer or a node count; this
        // is the one test that fails when an interior level scans past its
        // bound again (the stop deleted, or `floor[t][0]` used at every
        // level).
        let mut rng = Rng64::seed_from(0x5E7_B0D6E7);
        let mut work: Vec<(u64, u64)> = (0..6)
            .map(|case| {
                let n = 9 + case;
                let m = metric_for(case, &mut rng, n);
                let (source, k) = (rng.below(n), 5 + case % 3);
                let mut ctx = SearchContext::new();
                ctx.all_targets(&m, source, k);
                (ctx.nodes(), ctx.tested)
            })
            .collect();
        let m = fig9_like(&mut Rng64::seed_from(0xF1_7E_D1));
        let mut ctx = SearchContext::new();
        ctx.all_targets(&m, 0, 5);
        work.push((ctx.nodes(), ctx.tested));
        let pinned = [
            (437, 158),
            (429, 160),
            (2978, 1141),
            (383, 105),
            (2381, 597),
            (2520, 809),
            (10962, 2974),
        ];
        assert_eq!(work, pinned, "(nodes, tested) per metric");
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
