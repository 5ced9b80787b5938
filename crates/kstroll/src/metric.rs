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
    /// Cheapest off-diagonal hop, computed once at construction. The exact
    /// k-stroll search uses it as an admissible lower bound on every
    /// remaining hop; memoizing it here saves an O(n²) rescan per call.
    min_hop: Cost,
}

impl DenseMetric {
    /// Builds an `n × n` metric from a cost function (diagonal forced to 0).
    pub fn from_fn<F>(n: usize, mut f: F) -> DenseMetric
    where
        F: FnMut(usize, usize) -> Cost,
    {
        let mut d = vec![Cost::ZERO; n * n];
        let mut min_hop = Cost::INFINITY;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    let c = f(i, j);
                    d[i * n + j] = c;
                    min_hop = min_hop.min(c);
                }
            }
        }
        DenseMetric { n, d, min_hop }
    }

    /// Builds a symmetric metric from an upper-triangle function.
    pub fn symmetric_from_fn<F>(n: usize, mut f: F) -> DenseMetric
    where
        F: FnMut(usize, usize) -> Cost,
    {
        let mut d = vec![Cost::ZERO; n * n];
        let mut min_hop = Cost::INFINITY;
        for i in 0..n {
            for j in i + 1..n {
                let c = f(i, j);
                d[i * n + j] = c;
                d[j * n + i] = c;
                min_hop = min_hop.min(c);
            }
        }
        DenseMetric { n, d, min_hop }
    }

    /// The cheapest hop between two distinct nodes
    /// ([`Cost::INFINITY`] for `n < 2`).
    #[inline]
    pub fn min_hop(&self) -> Cost {
        self.min_hop
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
    fn dense_trait_bound_is_min_hop() {
        // The bound the exact search prunes with is the cheapest entry of
        // the rows it reads.
        let m = DenseMetric::from_fn(3, |i, j| Cost::new((i + j) as f64));
        let mut cheapest = Cost::INFINITY;
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m.row(i)[j], m.cost(i, j));
                if i != j {
                    cheapest = cheapest.min(m.row(i)[j]);
                }
            }
        }
        assert_eq!(m.min_hop(), cheapest);
        assert_eq!(m.min_hop(), Cost::new(1.0));
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
