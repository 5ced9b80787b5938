//! Undirected weighted graph with adjacency lists.

use crate::{Cost, EdgeId, NodeId};

/// An undirected edge with a non-negative cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Edge {
    /// First endpoint.
    pub u: NodeId,
    /// Second endpoint.
    pub v: NodeId,
    /// Connection cost of the link.
    pub cost: Cost,
}

impl Edge {
    /// Returns the endpoint opposite to `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not an endpoint of this edge.
    #[inline]
    pub fn other(&self, n: NodeId) -> NodeId {
        if n == self.u {
            self.v
        } else if n == self.v {
            self.u
        } else {
            panic!("{n} is not an endpoint of edge {:?}-{:?}", self.u, self.v)
        }
    }

    /// Returns both endpoints as a tuple.
    #[inline]
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        (self.u, self.v)
    }
}

/// An undirected weighted graph.
///
/// Nodes are dense indices `0..node_count`. Parallel edges are allowed
/// (useful when VMs are replicated); self-loops are not.
///
/// Every mutation (adding nodes or edges, changing an edge cost) stamps the
/// graph with a fresh process-wide *cost epoch* (see [`Graph::cost_epoch`]);
/// the [`crate::PathEngine`] keys its shortest-path cache on it, so stale
/// entries are never served and unchanged graphs keep their warm cache.
/// A cached tree at another epoch is recomputed. Setting an edge cost to
/// its current value is a no-op: no epoch churn.
///
/// # Examples
///
/// ```
/// use sof_graph::{Graph, Cost, NodeId};
///
/// let mut g = Graph::with_nodes(3);
/// g.add_edge(NodeId::new(0), NodeId::new(1), Cost::new(2.0));
/// g.add_edge(NodeId::new(1), NodeId::new(2), Cost::new(3.0));
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// assert!(g.is_connected());
/// ```
#[derive(Clone, Debug, Default)]
pub struct Graph {
    adj: Vec<Vec<(NodeId, EdgeId)>>,
    edges: Vec<Edge>,
    /// Process-unique stamp of this graph's current topology + costs.
    ///
    /// Freshly drawn from a global counter on every mutation, so two graphs
    /// share an epoch only when one is an unmutated clone of the other —
    /// i.e. equal epochs imply equal contents.
    epoch: u64,
}

/// Draws the next process-wide cost epoch (never zero).
fn next_cost_epoch() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Graph {
        Graph::default()
    }

    /// Creates a graph with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> Graph {
        Graph {
            adj: vec![Vec::new(); n],
            edges: Vec::new(),
            epoch: next_cost_epoch(),
        }
    }

    /// The graph's current cost epoch: a process-unique stamp renewed on
    /// every mutation. Equal epochs imply identical topology and edge
    /// costs, which is what lets [`crate::PathEngine`] reuse cached
    /// shortest-path trees without ever serving stale distances.
    #[inline]
    pub fn cost_epoch(&self) -> u64 {
        self.epoch
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.adj.push(Vec::new());
        self.epoch = next_cost_epoch();
        NodeId::new(self.adj.len() - 1)
    }

    /// Adds an undirected edge and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range or if `u == v`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, cost: Cost) -> EdgeId {
        assert!(u.index() < self.adj.len(), "node {u} out of range");
        assert!(v.index() < self.adj.len(), "node {v} out of range");
        assert_ne!(u, v, "self-loops are not allowed");
        let id = EdgeId::new(self.edges.len());
        self.edges.push(Edge { u, v, cost });
        self.adj[u.index()].push((v, id));
        self.adj[v.index()].push((u, id));
        self.epoch = next_cost_epoch();
        id
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterates over all node ids in increasing order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.adj.len()).map(NodeId::new)
    }

    /// Iterates over all edges with their ids.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId::new(i), e))
    }

    /// Returns the edge record for `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.index()]
    }

    /// Returns the cost of edge `e`.
    #[inline]
    pub fn edge_cost(&self, e: EdgeId) -> Cost {
        self.edges[e.index()].cost
    }

    /// Updates the cost of edge `e` (used by the online cost model).
    ///
    /// Renews the [cost epoch](Self::cost_epoch), so the
    /// [`crate::PathEngine`] recomputes a cached tree at its next query.
    /// Writing the current cost back is a **no-op**: the epoch stays put
    /// and every cached tree stays warm (the common case for a congestion
    /// refresh over idle links).
    pub fn set_edge_cost(&mut self, e: EdgeId, cost: Cost) {
        if self.edges[e.index()].cost == cost {
            return;
        }
        self.edges[e.index()].cost = cost;
        self.epoch = next_cost_epoch();
    }

    /// Neighbors of `u` as `(neighbor, edge)` pairs, in insertion order.
    pub fn neighbors(&self, u: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        self.adj[u.index()].iter().copied()
    }

    /// Degree of `u` (counting parallel edges).
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.adj[u.index()].len()
    }

    /// Returns the cheapest edge between `u` and `v`, if any.
    pub fn edge_between(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        self.adj[u.index()]
            .iter()
            .filter(|(n, _)| *n == v)
            .min_by_key(|(_, e)| self.edge_cost(*e))
            .map(|&(_, e)| e)
    }

    /// Returns `true` when every node is reachable from node 0.
    ///
    /// The empty graph is considered connected.
    pub fn is_connected(&self) -> bool {
        if self.adj.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.adj.len()];
        let mut stack = vec![NodeId::new(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for (v, _) in self.neighbors(u) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == self.adj.len()
    }

    /// Total cost of a walk given as a node sequence, following the cheapest
    /// parallel edge at each hop.
    ///
    /// Returns `None` if two consecutive nodes are not adjacent.
    pub fn walk_cost(&self, walk: &[NodeId]) -> Option<Cost> {
        let mut total = Cost::ZERO;
        for w in walk.windows(2) {
            let e = self.edge_between(w[0], w[1])?;
            total += self.edge_cost(e);
        }
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId::new(0), NodeId::new(1), Cost::new(1.0));
        g.add_edge(NodeId::new(1), NodeId::new(2), Cost::new(2.0));
        g.add_edge(NodeId::new(2), NodeId::new(0), Cost::new(4.0));
        g
    }

    #[test]
    fn construction_and_counts() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(NodeId::new(0)), 2);
    }

    #[test]
    fn neighbors_are_symmetric() {
        let g = triangle();
        let n0: Vec<_> = g.neighbors(NodeId::new(0)).map(|(n, _)| n).collect();
        assert_eq!(n0, vec![NodeId::new(1), NodeId::new(2)]);
        let e = g.edge_between(NodeId::new(0), NodeId::new(2)).unwrap();
        assert_eq!(g.edge_cost(e), Cost::new(4.0));
        assert_eq!(g.edge(e).other(NodeId::new(0)), NodeId::new(2));
    }

    #[test]
    fn parallel_edges_pick_cheapest() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(NodeId::new(0), NodeId::new(1), Cost::new(5.0));
        let cheap = g.add_edge(NodeId::new(0), NodeId::new(1), Cost::new(1.0));
        assert_eq!(g.edge_between(NodeId::new(0), NodeId::new(1)), Some(cheap));
    }

    #[test]
    fn connectivity() {
        let mut g = triangle();
        assert!(g.is_connected());
        g.add_node();
        assert!(!g.is_connected());
        assert!(Graph::new().is_connected());
    }

    #[test]
    fn walk_cost_follows_edges() {
        let g = triangle();
        let walk = [
            NodeId::new(0),
            NodeId::new(1),
            NodeId::new(2),
            NodeId::new(1),
        ];
        assert_eq!(g.walk_cost(&walk), Some(Cost::new(5.0)));
        let broken = [NodeId::new(0), NodeId::new(0)];
        assert_eq!(g.walk_cost(&broken), None);
    }

    #[test]
    fn set_edge_cost_updates() {
        let mut g = triangle();
        let e = g.edge_between(NodeId::new(0), NodeId::new(1)).unwrap();
        g.set_edge_cost(e, Cost::new(10.0));
        assert_eq!(g.edge_cost(e), Cost::new(10.0));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let mut g = Graph::with_nodes(1);
        g.add_edge(NodeId::new(0), NodeId::new(0), Cost::ZERO);
    }

    #[test]
    fn cost_epoch_tracks_mutations() {
        let mut g = triangle();
        let e0 = g.cost_epoch();
        let clone = g.clone();
        // An unmutated clone shares the epoch (identical contents).
        assert_eq!(clone.cost_epoch(), e0);
        let e = g.edge_between(NodeId::new(0), NodeId::new(1)).unwrap();
        g.set_edge_cost(e, Cost::new(9.0));
        assert_ne!(g.cost_epoch(), e0, "cost change renews the epoch");
        assert_eq!(clone.cost_epoch(), e0, "the clone is untouched");
        let before = g.cost_epoch();
        g.add_node();
        assert_ne!(g.cost_epoch(), before, "topology change renews the epoch");
        // Distinct graphs never share an epoch, even with equal contents.
        assert_ne!(triangle().cost_epoch(), triangle().cost_epoch());
    }

    #[test]
    fn unchanged_cost_write_is_a_no_op() {
        let mut g = triangle();
        let epoch = g.cost_epoch();
        let e = g.edge_between(NodeId::new(0), NodeId::new(1)).unwrap();
        g.set_edge_cost(e, g.edge_cost(e));
        assert_eq!(g.cost_epoch(), epoch, "same-value write must not churn");
    }
}
