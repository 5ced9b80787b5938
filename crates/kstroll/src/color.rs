//! Color-coding DP for k-stroll (Alon–Yuster–Zwick style).
//!
//! Each trial randomly k-colors the nodes and finds the cheapest *colorful*
//! path (distinct colors ⇒ distinct nodes) from the source to every node via
//! a subset DP. A fixed optimal k-node path survives a trial with
//! probability `k!/k^k`, so enough trials find it with high probability.
//! One DP run covers **all** targets simultaneously, which is what makes it
//! attractive inside SOFDA (Procedure 3 needs a stroll from every source to
//! every candidate last VM).

use crate::{DenseMetric, Stroll};
use sof_graph::{Cost, Rng64};

/// Cheapest colorful-path table for one source: per target the best stroll
/// found across trials.
#[derive(Clone, Debug)]
pub struct ColorCodingResult {
    /// Best stroll per target node index (`None` = none found / infeasible).
    pub best: Vec<Option<Stroll>>,
    /// Trials actually executed.
    pub trials_run: usize,
}

/// Early-stop window: after this many consecutive non-improving trials
/// (once every reachable target has a solution) the search stops. Scaled to
/// `~3 / (k!/k^k)` so the expected number of missed optimal colorings is
/// negligible.
fn stall_window(k: usize) -> usize {
    let mut p = 1.0f64;
    for i in 1..=k {
        p *= i as f64 / k as f64;
    }
    ((3.0 / p).ceil() as usize).clamp(32, 2000)
}

/// Runs color-coding from `source` for paths on exactly `k` distinct nodes,
/// returning the best stroll to **every** target.
///
/// `trials` bounds the number of random colorings; the search stops early
/// after a `k`-dependent window of consecutive non-improving trials once
/// every reachable target has a solution.
///
/// # Panics
///
/// Panics if `k == 0` or `k > 63`.
pub fn color_coding_all_targets(
    metric: &DenseMetric,
    source: usize,
    k: usize,
    trials: usize,
    rng: &mut Rng64,
) -> ColorCodingResult {
    assert!((1..=63).contains(&k), "k out of range: {k}");
    let n = metric.len();
    let mut best: Vec<Option<Stroll>> = vec![None; n];
    if source >= n || k > n {
        return ColorCodingResult {
            best,
            trials_run: 0,
        };
    }
    if k == 1 {
        best[source] = Some(Stroll::from_nodes(metric, vec![source]));
        return ColorCodingResult {
            best,
            trials_run: 0,
        };
    }

    let full: u64 = (1u64 << k) - 1;
    let masks = 1usize << k;
    let mut color = vec![0u8; n];
    // dp[mask][v] plus predecessor for reconstruction.
    let mut dp = vec![Cost::INFINITY; masks * n];
    let mut pred = vec![usize::MAX; masks * n];
    let mut found_all = false;
    let mut stall = 0usize;
    let mut trials_run = 0usize;

    for _ in 0..trials {
        trials_run += 1;
        for c in color.iter_mut() {
            *c = rng.below(k) as u8;
        }
        dp.iter_mut().for_each(|d| *d = Cost::INFINITY);
        let smask = 1usize << color[source];
        dp[smask * n + source] = Cost::ZERO;

        // Iterate masks in increasing popcount order implicitly: a mask is
        // always larger than its submask, so plain increasing order works.
        for mask in 1..masks {
            if mask & smask == 0 {
                continue; // every path contains the source's color
            }
            if (mask as u64).count_ones() as usize == k {
                continue; // complete; no extension needed
            }
            for v in 0..n {
                let cur = dp[mask * n + v];
                if !cur.is_finite() {
                    continue;
                }
                // The DP relaxation below is by far the hottest metric
                // reader in the crate: one row fetch per extended state.
                let vrow = metric.row(v);
                for w in 0..n {
                    let cbit = 1usize << color[w];
                    if mask & cbit != 0 {
                        continue;
                    }
                    let nm = mask | cbit;
                    let nc = cur + vrow[w];
                    if nc < dp[nm * n + w] {
                        dp[nm * n + w] = nc;
                        pred[nm * n + w] = mask * n + v;
                    }
                }
            }
        }

        // Harvest all targets whose full-mask entry improved.
        let mut improved = false;
        for t in 0..n {
            if t == source {
                continue;
            }
            // Any mask with k colors ending at t is a candidate; the only
            // k-color mask is `full` when all k colors are used.
            let cand = dp[(full as usize) * n + t];
            if cand.is_finite() && best[t].as_ref().is_none_or(|b| cand < b.cost) {
                // Reconstruct.
                let mut nodes = vec![t];
                let mut cell = (full as usize) * n + t;
                while pred[cell] != usize::MAX {
                    cell = pred[cell];
                    nodes.push(cell % n);
                }
                nodes.reverse();
                debug_assert_eq!(nodes.len(), k);
                best[t] = Some(Stroll::from_nodes(metric, nodes));
                improved = true;
            }
        }
        if !found_all {
            found_all = (0..n).all(|t| t == source || best[t].is_some() || k > n);
        }
        if improved {
            stall = 0;
        } else {
            stall += 1;
            if found_all && stall >= stall_window(k) {
                break;
            }
        }
    }
    ColorCodingResult { best, trials_run }
}

/// Single-target convenience wrapper around [`color_coding_all_targets`].
pub fn color_coding_stroll(
    metric: &DenseMetric,
    source: usize,
    target: usize,
    k: usize,
    trials: usize,
    rng: &mut Rng64,
) -> Option<Stroll> {
    if source == target {
        return (k == 1).then(|| Stroll::from_nodes(metric, vec![source]));
    }
    if k < 2 {
        return None;
    }
    let res = color_coding_all_targets(metric, source, k, trials, rng);
    res.best.into_iter().nth(target).flatten()
}

/// A sensible default trial budget for a given `k` (covers ≥99% success for
/// the worst target in expectation, capped to stay fast for large `k`).
pub fn default_trials(k: usize) -> usize {
    // ~ ln(100) / (k!/k^k), capped.
    let mut p = 1.0f64;
    for i in 1..=k {
        p *= i as f64 / k as f64;
    }
    let t = (4.7 / p).ceil() as usize;
    t.clamp(16, 2500)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact_stroll;

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
    fn matches_exact_with_enough_trials() {
        let m = euclid(10, 42);
        let mut rng = Rng64::seed_from(1);
        for k in 2..=6 {
            let cc = color_coding_stroll(&m, 0, 9, k, default_trials(k), &mut rng).unwrap();
            cc.validate(&m, 0, 9, k).unwrap();
            let ex = exact_stroll(&m, 0, 9, k).unwrap();
            assert!(
                cc.cost.value() <= ex.cost.value() * 1.02 + 1e-9,
                "k={k}: cc {} vs exact {}",
                cc.cost,
                ex.cost
            );
        }
    }

    #[test]
    fn all_targets_covered() {
        let m = euclid(8, 7);
        let mut rng = Rng64::seed_from(2);
        let res = color_coding_all_targets(&m, 0, 4, default_trials(4), &mut rng);
        for t in 1..8 {
            let s = res.best[t].as_ref().expect("target must be reachable");
            s.validate(&m, 0, t, 4).unwrap();
        }
        assert!(res.best[0].is_none());
    }

    #[test]
    fn degenerate_k() {
        let m = euclid(5, 3);
        let mut rng = Rng64::seed_from(4);
        assert_eq!(
            color_coding_stroll(&m, 2, 2, 1, 10, &mut rng)
                .unwrap()
                .nodes,
            vec![2]
        );
        assert!(color_coding_stroll(&m, 0, 1, 1, 10, &mut rng).is_none());
        // k > n: no solution possible.
        assert!(color_coding_stroll(&m, 0, 1, 6, 10, &mut rng).is_none());
    }

    #[test]
    fn default_trials_reasonable() {
        assert!(default_trials(2) >= 16);
        assert!(default_trials(8) <= 2500);
        assert!(default_trials(4) < default_trials(6));
    }
}
