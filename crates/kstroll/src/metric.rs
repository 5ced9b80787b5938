//! The metric instance every k-stroll solver consumes: [`DenseMetric`].

use sof_graph::Cost;

/// A complete weighted graph stored as a dense symmetric matrix.
///
/// Procedure 1 of the SOF paper builds exactly such an instance: nodes are
/// the source plus all VMs, and edge costs blend shortest-path distances
/// with shared VM setup costs. The k-stroll solvers operate on this type.
///
/// # Examples
///
/// ```
/// use sof_kstroll::DenseMetric;
/// use sof_graph::Cost;
///
/// let m = DenseMetric::from_fn(3, |i, j| Cost::new((i as f64 - j as f64).abs()));
/// assert_eq!(m.cost(0, 2), Cost::new(2.0));
/// assert!(m.respects_triangle_inequality(1e-9));
/// ```
#[derive(Clone, Debug)]
pub struct DenseMetric {
    n: usize,
    d: Vec<Cost>,
}

impl DenseMetric {
    /// Builds an `n × n` metric from a cost function (diagonal forced to 0).
    pub fn from_fn<F>(n: usize, mut f: F) -> DenseMetric
    where
        F: FnMut(usize, usize) -> Cost,
    {
        let mut d = vec![Cost::ZERO; n * n];
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    d[i * n + j] = f(i, j);
                }
            }
        }
        DenseMetric { n, d }
    }

    /// Wraps `n × n` costs given row by row.
    ///
    /// # Panics
    ///
    /// Panics unless `d` holds `n²` costs with a zero diagonal.
    pub fn from_rows(n: usize, d: Vec<Cost>) -> DenseMetric {
        assert_eq!(d.len(), n * n, "an n × n metric holds n² costs");
        assert!(
            (0..n).all(|i| d[i * n + i] == Cost::ZERO),
            "the diagonal is zero"
        );
        DenseMetric { n, d }
    }

    /// Builds a symmetric metric from an upper-triangle function.
    pub fn symmetric_from_fn<F>(n: usize, mut f: F) -> DenseMetric
    where
        F: FnMut(usize, usize) -> Cost,
    {
        let mut d = vec![Cost::ZERO; n * n];
        for i in 0..n {
            for j in i + 1..n {
                let c = f(i, j);
                d[i * n + j] = c;
                d[j * n + i] = c;
            }
        }
        DenseMetric { n, d }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` for the empty instance.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Cost between nodes `i` and `j`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    #[inline]
    pub fn cost(&self, i: usize, j: usize) -> Cost {
        assert!(i < self.n && j < self.n, "index out of range");
        self.d[i * self.n + j]
    }

    /// Row `i` as a slice: `row(i)[j] == cost(i, j)`. The search loops read
    /// hops through this — one bounds check per row instead of per hop.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn row(&self, i: usize) -> &[Cost] {
        &self.d[i * self.n..(i + 1) * self.n]
    }

    // Only caller: `benchmark/src/oneshot.rs`, for its `kstroll.dense_share`
    // row. The benchmark PR that retires that row deletes this method.
    #[doc(hidden)]
    pub fn is_dense(&self) -> bool {
        true
    }

    /// Total cost of a node sequence.
    pub fn path_cost(&self, path: &[usize]) -> Cost {
        path.windows(2).map(|w| self.cost(w[0], w[1])).sum()
    }

    /// Checks the triangle inequality up to an additive tolerance.
    ///
    /// Lemma 1 of the paper proves the Procedure 1 instance satisfies it;
    /// property tests call this on every constructed instance.
    pub fn respects_triangle_inequality(&self, tol: f64) -> bool {
        for a in 0..self.n {
            for b in 0..self.n {
                for c in 0..self.n {
                    if a == b || b == c || a == c {
                        continue;
                    }
                    let direct = self.cost(a, c).value();
                    let via = self.cost(a, b).value() + self.cost(b, c).value();
                    if direct > via + tol {
                        return false;
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_zero_diagonal() {
        let m = DenseMetric::from_fn(4, |_, _| Cost::new(5.0));
        for i in 0..4 {
            assert_eq!(m.cost(i, i), Cost::ZERO);
        }
        assert_eq!(m.cost(1, 2), Cost::new(5.0));
    }

    #[test]
    fn symmetric_builder() {
        let m = DenseMetric::symmetric_from_fn(3, |i, j| Cost::new((i + j) as f64));
        assert_eq!(m.cost(0, 2), m.cost(2, 0));
        assert_eq!(m.cost(1, 2), Cost::new(3.0));
    }

    #[test]
    fn path_cost_sums_hops() {
        let m = DenseMetric::from_fn(4, |i, j| Cost::new((i as f64 - j as f64).abs()));
        assert_eq!(m.path_cost(&[0, 2, 1, 3]), Cost::new(5.0));
        assert_eq!(m.path_cost(&[2]), Cost::ZERO);
    }

    #[test]
    fn rows_read_what_cost_reads() {
        // The search loops and the cost-to-go recursion read hops through
        // `row`; an asymmetric fill keeps the two index orders apart.
        let m = DenseMetric::from_fn(3, |i, j| Cost::new((i * 3 + j) as f64));
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m.row(i)[j], m.cost(i, j));
            }
        }
        assert_eq!(m.row(1), [Cost::new(3.0), Cost::ZERO, Cost::new(5.0)]);
    }

    #[test]
    fn triangle_violation_detected() {
        let mut d = DenseMetric::from_fn(3, |_, _| Cost::new(1.0));
        // Force a violation: 0-2 much longer than 0-1-2 (entries (0,2), (2,0)).
        d.d[2] = Cost::new(10.0);
        d.d[6] = Cost::new(10.0);
        assert!(!d.respects_triangle_inequality(1e-9));
    }
}
