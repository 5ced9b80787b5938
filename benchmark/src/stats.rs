//! Order statistics and the best-of-R estimator.
//!
//! Interference on a shared machine only ever adds time, so for a fixed op
//! replayed in R rounds the minimum is the least-disturbed observation of
//! the same work. Every timing the benchmark reports is built from these
//! per-op minima (see `README.md`, "Estimator").

/// The `pct` quantile (0 ≤ `pct` ≤ 1) by nearest rank on a sorted copy.
///
/// # Panics
///
/// Panics on an empty sample: every script has at least one op.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 - 1.0) * pct).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// The median (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The arithmetic mean; 0 for an empty sample (a layer with no calls).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Element-wise minimum over rounds: `best[i] = min over r of rounds[r][i]`.
///
/// # Panics
///
/// Panics when there are no rounds or the rounds differ in length — a
/// script is fixed-length, so that is a bug in the workload.
pub fn best_of<'a>(rounds: impl IntoIterator<Item = &'a [f64]>) -> Vec<f64> {
    let mut rounds = rounds.into_iter();
    let mut best = rounds.next().expect("at least one round").to_vec();
    for round in rounds {
        assert_eq!(round.len(), best.len(), "rounds replay one fixed script");
        for (b, &v) in best.iter_mut().zip(round) {
            *b = b.min(v);
        }
    }
    best
}

/// `(max − min) ÷ median`: how far one quantity moved across rounds.
pub fn spread(values: &[f64]) -> f64 {
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let mid = median(values);
    if mid == 0.0 {
        0.0
    } else {
        (hi - lo) / mid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 200.0);
        // rank = round(199 × 0.95) = 189 → the 190th value; ten lie beyond.
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert_eq!(v.iter().filter(|&&x| x > 190.0).count(), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn best_of_takes_the_per_op_minimum() {
        let rounds = [
            vec![5.0, 2.0, 9.0],
            vec![4.0, 3.0, 9.5],
            vec![6.0, 2.5, 8.0],
        ];
        let best = best_of(rounds.iter().map(Vec::as_slice));
        assert_eq!(best, vec![4.0, 2.0, 8.0]);
        // A burst that doubles one whole round leaves the estimate alone.
        let loud: Vec<f64> = rounds[0].iter().map(|v| v * 2.0).collect();
        let with_burst = best_of(rounds.iter().map(Vec::as_slice).chain([loud.as_slice()]));
        assert_eq!(with_burst, best);
    }

    #[test]
    fn spread_and_mean() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(spread(&[10.0, 11.0, 12.0]), 2.0 / 11.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }
}
