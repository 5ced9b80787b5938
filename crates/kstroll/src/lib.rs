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
//! and here `k = |C|+1 ≤ 8`, so this crate instead offers (see DESIGN.md §5):
//!
//! * [`exact_stroll`] — branch-and-bound enumeration, exact for small `k`,
//!   pruned by one cost-to-go bound. The bound's table and the candidate
//!   orderings live in a [`SearchContext`] that the caller running a solve
//!   owns and passes to every search of that solve — the hot path of
//!   SOFDA's Procedure 3 is `|S|` calls of [`SearchContext::all_targets`]
//!   on one context; `exact_stroll` and [`exact_all_targets`] build a
//!   private one,
//! * [`color_coding_stroll`] — randomized color-coding DP, near-exact with
//!   high probability, solving **all targets per source at once**,
//! * [`greedy_stroll`] — deterministic cheapest-insertion + local search.
//!
//! [`StrollSolver`] picks automatically. Exact ≤ the paper's 2-approx, so
//! all approximation bounds are preserved.
//!
//! Every solver reads one concrete instance type, [`DenseMetric`]: the
//! `n × n` matrix Procedure 1 builds over `M ∪ {s}`.
//!
//! # Examples
//!
//! ```
//! use sof_kstroll::{StrollSolver, DenseMetric};
//! use sof_graph::{Cost, Rng64};
//!
//! let m = DenseMetric::from_fn(6, |i, j| Cost::new((i as f64 - j as f64).abs()));
//! let mut rng = Rng64::seed_from(1);
//! let s = StrollSolver::Auto.solve(&m, 0, 5, 4, &mut rng).unwrap();
//! assert_eq!(s.cost, Cost::new(5.0)); // monotone along the line
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod color;
mod exact;
mod greedy;
mod metric;
mod stroll;

pub use color::{color_coding_all_targets, color_coding_stroll, default_trials, ColorCodingResult};
pub use exact::{
    estimated_work, exact_all_targets, exact_stroll, SearchContext, AUTO_EXACT_WORK_LIMIT,
};
pub use greedy::greedy_stroll;
pub use metric::DenseMetric;
pub use stroll::Stroll;

use sof_graph::Rng64;

/// Front-end over the k-stroll solvers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StrollSolver {
    /// Exhaustive branch-and-bound (exact; exponential in `k`).
    Exact,
    /// Randomized color coding with this many trials.
    ColorCoding {
        /// Number of random colorings to attempt.
        trials: usize,
    },
    /// Deterministic cheapest insertion + local search.
    Greedy,
    /// Exact when the estimated search space is small, otherwise the best
    /// of greedy and a modest color-coding budget.
    #[default]
    Auto,
}

impl StrollSolver {
    /// Color-coding budget used by `Auto` alongside greedy.
    const AUTO_CC_TRIALS: usize = 160;

    /// Solves a single `(source, target, k)` instance.
    ///
    /// Returns `None` when the instance is infeasible (`k > n`, or a
    /// degenerate endpoint combination).
    pub fn solve(
        self,
        metric: &DenseMetric,
        source: usize,
        target: usize,
        k: usize,
        rng: &mut Rng64,
    ) -> Option<Stroll> {
        match self {
            StrollSolver::Exact => exact_stroll(metric, source, target, k),
            StrollSolver::ColorCoding { trials } => {
                color_coding_stroll(metric, source, target, k, trials, rng)
            }
            StrollSolver::Greedy => greedy_stroll(metric, source, target, k),
            StrollSolver::Auto => {
                if estimated_work(metric.len(), k) <= AUTO_EXACT_WORK_LIMIT {
                    return exact_stroll(metric, source, target, k);
                }
                let g = greedy_stroll(metric, source, target, k);
                let c = color_coding_stroll(metric, source, target, k, Self::AUTO_CC_TRIALS, rng);
                match (g, c) {
                    (Some(a), Some(b)) => Some(if a.cost <= b.cost { a } else { b }),
                    (a, b) => a.or(b),
                }
            }
        }
    }

    /// Solves for **every** target at once (used by Procedure 3, which needs
    /// a candidate chain from each source to each VM).
    ///
    /// `best[t]` is the cheapest stroll from `source` to `t` on `k` distinct
    /// nodes, or `None` if infeasible. The exact search runs on `search`,
    /// the caller's context for the solve this call belongs to; the other
    /// solvers leave it untouched.
    pub fn solve_all_targets(
        self,
        metric: &DenseMetric,
        source: usize,
        k: usize,
        rng: &mut Rng64,
        search: &mut SearchContext,
    ) -> Vec<Option<Stroll>> {
        let n = metric.len();
        match self {
            StrollSolver::ColorCoding { trials } => {
                let mut res = color_coding_all_targets(metric, source, k, trials, rng).best;
                if k == 1 && source < n {
                    res[source] = Some(Stroll::from_nodes(metric, vec![source]));
                }
                res
            }
            StrollSolver::Exact => search.all_targets(metric, source, k),
            StrollSolver::Greedy => (0..n)
                .map(|t| {
                    if t == source {
                        return (k == 1).then(|| Stroll::from_nodes(metric, vec![source]));
                    }
                    self.solve(metric, source, t, k, rng)
                })
                .collect(),
            StrollSolver::Auto => {
                if estimated_work(n, k) <= AUTO_EXACT_WORK_LIMIT {
                    return search.all_targets(metric, source, k);
                }
                let cc = color_coding_all_targets(metric, source, k, Self::AUTO_CC_TRIALS, rng);
                (0..n)
                    .map(|t| {
                        if t == source {
                            return (k == 1).then(|| Stroll::from_nodes(metric, vec![source]));
                        }
                        let g = greedy_stroll(metric, source, t, k);
                        match (g, cc.best[t].clone()) {
                            (Some(a), Some(b)) => Some(if a.cost <= b.cost { a } else { b }),
                            (a, b) => a.or(b),
                        }
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sof_graph::Cost;

    fn euclid(n: usize, seed: u64) -> DenseMetric {
        let mut rng = Rng64::seed_from(seed);
        let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.next_f64(), rng.next_f64())).collect();
        DenseMetric::symmetric_from_fn(n, |i, j| {
            let dx = pts[i].0 - pts[j].0;
            let dy = pts[i].1 - pts[j].1;
            Cost::new((dx * dx + dy * dy).sqrt())
        })
    }

    #[test]
    fn auto_matches_exact_when_small() {
        let m = euclid(12, 5);
        let mut rng = Rng64::seed_from(9);
        for k in 2..=6 {
            let a = StrollSolver::Auto.solve(&m, 0, 11, k, &mut rng).unwrap();
            let e = StrollSolver::Exact.solve(&m, 0, 11, k, &mut rng).unwrap();
            assert_eq!(a.cost, e.cost, "k={k}");
        }
    }

    #[test]
    fn all_targets_consistent_with_single_target() {
        let m = euclid(9, 11);
        let mut rng = Rng64::seed_from(13);
        let mut search = SearchContext::new();
        let all = StrollSolver::Exact.solve_all_targets(&m, 0, 4, &mut rng, &mut search);
        for (t, entry) in all.iter().enumerate().skip(1) {
            let single = StrollSolver::Exact.solve(&m, 0, t, 4, &mut rng).unwrap();
            assert_eq!(entry.as_ref().unwrap().cost, single.cost);
        }
        assert!(all[0].is_none()); // k=4 from 0 to itself is infeasible
    }

    #[test]
    fn every_solver_validates_output() {
        let m = euclid(10, 23);
        let mut rng = Rng64::seed_from(3);
        for solver in [
            StrollSolver::Exact,
            StrollSolver::Greedy,
            StrollSolver::ColorCoding { trials: 300 },
            StrollSolver::Auto,
        ] {
            let s = solver.solve(&m, 2, 7, 5, &mut rng).unwrap();
            s.validate(&m, 2, 7, 5).unwrap();
        }
    }

    #[test]
    fn line_metric_smoke() {
        let m = DenseMetric::from_fn(6, |i, j| Cost::new((i as f64 - j as f64).abs()));
        let mut rng = Rng64::seed_from(1);
        let s = StrollSolver::Auto.solve(&m, 0, 5, 6, &mut rng).unwrap();
        assert_eq!(s.nodes, vec![0, 1, 2, 3, 4, 5]);
    }
}
