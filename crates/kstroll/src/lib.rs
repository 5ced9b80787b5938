//! k-stroll solvers for the Service Overlay Forest workspace.
//!
//! The *k-stroll* problem (Definition 2 of the ICDCS'17 SOF paper, after
//! Chaudhuri et al. FOCS'03): given a metric graph and two nodes `s`, `u`,
//! find the shortest walk from `s` to `u` visiting at least `k` distinct
//! nodes. In a metric instance the optimum can be taken as a **simple path
//! on exactly `k` nodes**, which is the form SOFDA consumes (the `k` nodes
//! become the source plus the `|C|` VMs of a service chain).
//!
//! The paper invokes the FOCS'03 2-approximation. That algorithm's machinery
//! (min-excess paths over dense junction trees) is impractical to reproduce,
//! and here `k = |C|+1 ≤ 8`, so this crate instead offers (see docs/METRICS.md):
//!
//! * [`exact_stroll`] — branch-and-bound enumeration, exact for small `k`,
//!   pruned by one cost-to-go bound. The bound's table and the candidate
//!   orderings live in a [`SearchContext`] that the caller running a solve
//!   owns and passes to every search of that solve — the hot path of
//!   SOFDA's Procedure 3 is `|S|` calls of [`SearchContext::all_targets`]
//!   on one context; `exact_stroll` and [`exact_all_targets`] build a
//!   private one,
//! * [`greedy_stroll`] — deterministic cheapest-insertion + local search.
//!
//! [`StrollSolver`] picks: `Auto` is the exact search under a budget of
//! DFS nodes per context ([`AUTO_NODE_BUDGET`]), greedy once it is spent.
//! Exact ≤ the paper's 2-approx, so while the budget holds — on every
//! instance in the paper's parameter range — all approximation bounds are
//! preserved.
//!
//! Every solver reads one concrete instance type, [`DenseMetric`]: the
//! `n × n` matrix Procedure 1 builds over `M ∪ {s}`.
//!
//! # Examples
//!
//! ```
//! use sof_kstroll::{DenseMetric, SearchContext, StrollSolver};
//! use sof_graph::Cost;
//!
//! let m = DenseMetric::from_fn(6, |i, j| Cost::new((i as f64 - j as f64).abs()));
//! let mut search = SearchContext::new();
//! let s = StrollSolver::Auto.solve(&m, 0, 5, 4, &mut search).unwrap();
//! assert_eq!(s.cost, Cost::new(5.0)); // monotone along the line
//! assert_eq!(search.handovers(), 0); // searched to the end: optimal
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exact;
mod greedy;
mod metric;
mod stroll;

pub use exact::{exact_all_targets, exact_stroll, SearchContext, AUTO_NODE_BUDGET};
pub use greedy::greedy_stroll;
pub use metric::DenseMetric;
pub use stroll::Stroll;

/// Front-end over the k-stroll solvers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StrollSolver {
    /// Exhaustive branch-and-bound (exact; exponential in `k`), however
    /// many nodes it takes.
    Exact,
    /// Deterministic cheapest insertion + local search.
    Greedy,
    /// The exact search while the context's node budget lasts
    /// ([`AUTO_NODE_BUDGET`]), greedy for what is left once it is spent.
    #[default]
    Auto,
}

impl StrollSolver {
    /// Solves a single `(source, target, k)` instance on `search`, the
    /// caller's context for the operation this call belongs to (`Greedy`
    /// leaves it untouched).
    ///
    /// Returns `None` when the instance is infeasible (`k > n`, or a
    /// degenerate endpoint combination).
    pub fn solve(
        self,
        metric: &DenseMetric,
        source: usize,
        target: usize,
        k: usize,
        search: &mut SearchContext,
    ) -> Option<Stroll> {
        match self {
            StrollSolver::Exact => search.stroll(metric, source, target, k),
            StrollSolver::Greedy => greedy_stroll(metric, source, target, k),
            StrollSolver::Auto => search.stroll_until(AUTO_NODE_BUDGET, metric, source, target, k),
        }
    }

    /// Solves for **every** target at once (used by Procedure 3, which needs
    /// a candidate chain from each source to each VM).
    ///
    /// `best[t]` is the cheapest stroll from `source` to `t` on `k` distinct
    /// nodes, or `None` if infeasible.
    pub fn solve_all_targets(
        self,
        metric: &DenseMetric,
        source: usize,
        k: usize,
        search: &mut SearchContext,
    ) -> Vec<Option<Stroll>> {
        match self {
            StrollSolver::Exact => search.all_targets(metric, source, k),
            StrollSolver::Greedy => (0..metric.len())
                .map(|t| greedy_stroll(metric, source, t, k))
                .collect(),
            StrollSolver::Auto => search.all_targets_until(AUTO_NODE_BUDGET, metric, source, k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sof_graph::{Cost, Rng64};

    fn euclid(n: usize, seed: u64) -> DenseMetric {
        let mut rng = Rng64::seed_from(seed);
        let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.next_f64(), rng.next_f64())).collect();
        DenseMetric::symmetric_from_fn(n, |i, j| {
            let dx = pts[i].0 - pts[j].0;
            let dy = pts[i].1 - pts[j].1;
            Cost::new((dx * dx + dy * dy).sqrt())
        })
    }

    /// Integer costs 1…4: many equal optima, so the tie-breaks show.
    fn integer_ties(n: usize, seed: u64) -> DenseMetric {
        let mut rng = Rng64::seed_from(seed);
        DenseMetric::symmetric_from_fn(n, |_, _| Cost::new((1 + rng.below(4)) as f64))
    }

    #[test]
    fn auto_matches_exact_when_small() {
        // Small is "inside the node budget": there `Auto` is `Exact` bit
        // for bit — same strolls, same cost bits, same node counts — all
        // targets and single target, on one context across sources and on
        // private ones. Fails when `Auto` searches in another order, cuts
        // on another rule, or hands over before `AUTO_NODE_BUDGET`.
        let (mut auto, mut exact) = (SearchContext::new(), SearchContext::new());
        for case in 0..24u64 {
            let n = 6 + (case as usize * 5) % 9; // 6..=14
            let m = if case.is_multiple_of(2) {
                euclid(n, case)
            } else {
                integer_ties(n, case)
            };
            for k in 1..=7.min(n) {
                let source = (case as usize + k) % n;
                let all = StrollSolver::Auto.solve_all_targets(&m, source, k, &mut auto);
                assert_eq!(
                    all,
                    StrollSolver::Exact.solve_all_targets(&m, source, k, &mut exact),
                    "case {case} k {k}"
                );
                assert_eq!(auto.nodes(), exact.nodes(), "case {case} k {k}");
                assert_eq!(all, exact_all_targets(&m, source, k));
                let target = (source + 1 + case as usize) % n;
                let mut private = SearchContext::new();
                let single = StrollSolver::Auto.solve(&m, source, target, k, &mut private);
                assert_eq!(single, all[target], "case {case} k {k}");
                assert_eq!(single, exact_stroll(&m, source, target, k));
                let mut reference = SearchContext::new();
                reference.stroll(&m, source, target, k);
                assert_eq!(private.nodes(), reference.nodes(), "case {case} k {k}");
            }
        }
        assert!(auto.nodes() > 0);
        assert_eq!(auto.handovers(), 0);
    }

    #[test]
    fn all_targets_consistent_with_single_target() {
        let m = euclid(9, 11);
        let mut search = SearchContext::new();
        let all = StrollSolver::Exact.solve_all_targets(&m, 0, 4, &mut search);
        for (t, entry) in all.iter().enumerate().skip(1) {
            let single = StrollSolver::Exact.solve(&m, 0, t, 4, &mut search).unwrap();
            assert_eq!(entry.as_ref().unwrap().cost, single.cost);
        }
        assert!(all[0].is_none()); // k=4 from 0 to itself is infeasible
    }

    #[test]
    fn every_solver_validates_output() {
        let m = euclid(10, 23);
        for solver in [
            StrollSolver::Exact,
            StrollSolver::Greedy,
            StrollSolver::Auto,
        ] {
            let mut search = SearchContext::new();
            let s = solver.solve(&m, 2, 7, 5, &mut search).unwrap();
            s.validate(&m, 2, 7, 5).unwrap();
            let all = solver.solve_all_targets(&m, 2, 5, &mut search);
            assert!(all[2].is_none());
            for (t, s) in all.iter().enumerate().filter(|&(t, _)| t != 2) {
                s.as_ref().unwrap().validate(&m, 2, t, 5).unwrap();
            }
        }
    }

    #[test]
    fn line_metric_smoke() {
        let m = DenseMetric::from_fn(6, |i, j| Cost::new((i as f64 - j as f64).abs()));
        let s = StrollSolver::Auto
            .solve(&m, 0, 5, 6, &mut SearchContext::new())
            .unwrap();
        assert_eq!(s.nodes, vec![0, 1, 2, 3, 4, 5]);
    }
}
