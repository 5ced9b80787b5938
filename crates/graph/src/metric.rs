//! Metric closure over a set of terminal nodes.

use crate::{Cost, Graph, NodeId, PathEngine, ShortestPaths};
use std::sync::Arc;

/// The metric closure of a graph restricted to a terminal set.
///
/// For `k` terminals this runs `k` Dijkstras and stores the shortest-path
/// trees, so pairwise distances *and* realizing paths are available. It backs
/// the k-stroll instance of a §VII-C `FullSearch` join (`sof_core::dynamics`:
/// shortest paths between a forest node, the free VMs and the joining
/// destination). Procedure 1's own instance (`sof_core::ChainMetric`) holds
/// its VM trees directly and roots none at the source.
///
/// # Examples
///
/// ```
/// use sof_graph::{Graph, Cost, NodeId, MetricClosure};
///
/// let mut g = Graph::with_nodes(3);
/// g.add_edge(NodeId::new(0), NodeId::new(1), Cost::new(1.0));
/// g.add_edge(NodeId::new(1), NodeId::new(2), Cost::new(2.0));
/// let mc = MetricClosure::new(&g, vec![NodeId::new(0), NodeId::new(2)]);
/// assert_eq!(mc.dist_between(NodeId::new(0), NodeId::new(2)), Cost::new(3.0));
/// let path = mc.path_between(NodeId::new(0), NodeId::new(2)).unwrap();
/// assert_eq!(path.len(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct MetricClosure {
    terminals: Vec<NodeId>,
    index_of: Vec<Option<u32>>,
    /// Shared so an engine-backed closure costs one `Arc` clone per cached
    /// terminal instead of one Dijkstra (or one deep copy) per terminal.
    trees: Vec<Arc<ShortestPaths>>,
}

impl MetricClosure {
    /// Builds the closure for `terminals` in `graph`.
    ///
    /// Duplicate terminals are collapsed.
    pub fn new(graph: &Graph, terminals: Vec<NodeId>) -> MetricClosure {
        MetricClosure::build(terminals, graph, |g, t| {
            Arc::new(ShortestPaths::from_source(g, t))
        })
    }

    /// Builds the closure through a [`PathEngine`]: terminal trees already
    /// cached for the graph's current [cost epoch](Graph::cost_epoch) are
    /// reused (an `Arc` clone), fresh ones are computed once and cached for
    /// the next caller. Results are bit-identical to [`MetricClosure::new`].
    pub fn with_engine(
        graph: &Graph,
        terminals: Vec<NodeId>,
        engine: &PathEngine,
    ) -> MetricClosure {
        MetricClosure::build(terminals, graph, |g, t| engine.from_source(g, t))
    }

    fn build(
        mut terminals: Vec<NodeId>,
        graph: &Graph,
        tree_of: impl Fn(&Graph, NodeId) -> Arc<ShortestPaths>,
    ) -> MetricClosure {
        terminals.sort();
        terminals.dedup();
        let mut index_of = vec![None; graph.node_count()];
        for (i, &t) in terminals.iter().enumerate() {
            index_of[t.index()] = Some(i as u32);
        }
        let trees = terminals.iter().map(|&t| tree_of(graph, t)).collect();
        MetricClosure {
            terminals,
            index_of,
            trees,
        }
    }

    /// The terminal set, sorted and deduplicated.
    pub fn terminals(&self) -> &[NodeId] {
        &self.terminals
    }

    /// Number of terminals.
    pub fn len(&self) -> usize {
        self.terminals.len()
    }

    /// Returns `true` when there are no terminals.
    pub fn is_empty(&self) -> bool {
        self.terminals.is_empty()
    }

    /// Index of terminal `t` in [`Self::terminals`], if `t` is a terminal.
    pub fn terminal_index(&self, t: NodeId) -> Option<usize> {
        self.index_of
            .get(t.index())
            .copied()
            .flatten()
            .map(|i| i as usize)
    }

    /// Shortest-path tree rooted at terminal `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not a terminal.
    pub fn tree(&self, t: NodeId) -> &ShortestPaths {
        let i = self
            .terminal_index(t)
            .unwrap_or_else(|| panic!("{t} is not a terminal of this closure"));
        &self.trees[i]
    }

    /// Distance from terminal `a` to arbitrary node `b`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not a terminal.
    pub fn dist_between(&self, a: NodeId, b: NodeId) -> Cost {
        self.tree(a).dist(b)
    }

    /// Shortest path from terminal `a` to arbitrary node `b`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not a terminal.
    pub fn path_between(&self, a: NodeId, b: NodeId) -> Option<Vec<NodeId>> {
        self.tree(a).path_to(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        let mut g = Graph::with_nodes(n);
        for i in 0..n - 1 {
            g.add_edge(NodeId::new(i), NodeId::new(i + 1), Cost::new(1.0));
        }
        g
    }

    #[test]
    fn distances_match_dijkstra() {
        let g = path_graph(5);
        let mc = MetricClosure::new(&g, vec![NodeId::new(0), NodeId::new(4), NodeId::new(2)]);
        assert_eq!(mc.len(), 3);
        assert_eq!(
            mc.dist_between(NodeId::new(0), NodeId::new(4)),
            Cost::new(4.0)
        );
        assert_eq!(
            mc.dist_between(NodeId::new(2), NodeId::new(4)),
            Cost::new(2.0)
        );
    }

    #[test]
    fn duplicates_collapse() {
        let g = path_graph(3);
        let mc = MetricClosure::new(&g, vec![NodeId::new(0), NodeId::new(0), NodeId::new(2)]);
        assert_eq!(mc.len(), 2);
        assert_eq!(mc.terminal_index(NodeId::new(2)), Some(1));
        assert_eq!(mc.terminal_index(NodeId::new(1)), None);
    }

    #[test]
    fn engine_backed_closure_matches_plain() {
        let g = path_graph(6);
        let engine = PathEngine::new();
        let ts = vec![NodeId::new(0), NodeId::new(3), NodeId::new(5)];
        let plain = MetricClosure::new(&g, ts.clone());
        let cached = MetricClosure::with_engine(&g, ts.clone(), &engine);
        for &a in &ts {
            for &b in &ts {
                assert_eq!(plain.dist_between(a, b), cached.dist_between(a, b));
                assert_eq!(plain.path_between(a, b), cached.path_between(a, b));
            }
        }
        // A second engine-backed build is pure cache hits.
        let misses = engine.stats().misses;
        let _again = MetricClosure::with_engine(&g, ts, &engine);
        assert_eq!(engine.stats().misses, misses);
        assert_eq!(engine.stats().hits, 3);
    }

    #[test]
    fn closure_satisfies_triangle_inequality() {
        // Random-ish fixed graph; closure distances must be metric.
        let mut g = Graph::with_nodes(6);
        let costs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let ends = [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 0),
            (1, 4),
            (2, 5),
        ];
        for (&(u, v), &c) in ends.iter().zip(costs.iter()) {
            g.add_edge(NodeId::new(u), NodeId::new(v), Cost::new(c));
        }
        let ts: Vec<NodeId> = (0..6).map(NodeId::new).collect();
        let mc = MetricClosure::new(&g, ts.clone());
        for &a in &ts {
            for &b in &ts {
                for &c in &ts {
                    let ab = mc.dist_between(a, b);
                    let bc = mc.dist_between(b, c);
                    let ac = mc.dist_between(a, c);
                    assert!(ac <= ab + bc + Cost::new(1e-9));
                }
            }
        }
    }
}
