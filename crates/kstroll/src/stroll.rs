//! The k-stroll result type.

use crate::DenseMetric;
use sof_graph::Cost;

/// A solution of the k-stroll problem: a simple path in the metric instance
/// visiting exactly `k` distinct nodes from the source to the target.
///
/// (In a metric graph the shortest walk visiting at least `k` distinct nodes
/// can always be shortcut into a simple path on exactly `k` nodes, which is
/// how Procedure 2 of the paper consumes it.)
#[derive(Clone, Debug, PartialEq)]
pub struct Stroll {
    /// Visited nodes in order; `nodes[0]` is the source, last is the target.
    pub nodes: Vec<usize>,
    /// Total metric cost of the path.
    pub cost: Cost,
}

impl Stroll {
    /// Builds a stroll from a node sequence, computing its cost.
    pub fn from_nodes(metric: &DenseMetric, nodes: Vec<usize>) -> Stroll {
        let cost = metric.path_cost(&nodes);
        Stroll { nodes, cost }
    }

    /// Number of visited nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` for an empty stroll.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Validates the structural invariants of a k-stroll solution.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated invariant.
    pub fn validate(
        &self,
        metric: &DenseMetric,
        source: usize,
        target: usize,
        k: usize,
    ) -> Result<(), String> {
        if self.nodes.len() != k {
            return Err(format!("expected {k} nodes, found {}", self.nodes.len()));
        }
        if self.nodes.first() != Some(&source) {
            return Err(format!("stroll must start at {source}"));
        }
        if self.nodes.last() != Some(&target) {
            return Err(format!("stroll must end at {target}"));
        }
        let mut sorted = self.nodes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != self.nodes.len() {
            return Err("stroll revisits a node".into());
        }
        if let Some(&bad) = self.nodes.iter().find(|&&v| v >= metric.len()) {
            return Err(format!("node {bad} out of range"));
        }
        let recomputed = metric.path_cost(&self.nodes);
        if !recomputed.approx_eq(self.cost) {
            return Err(format!("cost mismatch: {} vs {}", self.cost, recomputed));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_metric(n: usize) -> DenseMetric {
        DenseMetric::from_fn(n, |i, j| Cost::new((i as f64 - j as f64).abs()))
    }

    #[test]
    fn from_nodes_computes_cost() {
        let m = line_metric(5);
        let s = Stroll::from_nodes(&m, vec![0, 2, 4]);
        assert_eq!(s.cost, Cost::new(4.0));
        s.validate(&m, 0, 4, 3).unwrap();
    }

    #[test]
    fn validation_catches_errors() {
        let m = line_metric(5);
        let dup = Stroll::from_nodes(&m, vec![0, 2, 2, 4]);
        assert!(dup.validate(&m, 0, 4, 4).is_err());
        let wrong_end = Stroll::from_nodes(&m, vec![0, 2, 3]);
        assert!(wrong_end.validate(&m, 0, 4, 3).is_err());
        let wrong_k = Stroll::from_nodes(&m, vec![0, 4]);
        assert!(wrong_k.validate(&m, 0, 4, 3).is_err());
    }
}
