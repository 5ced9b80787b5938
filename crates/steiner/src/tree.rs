//! Steiner tree result type and shared post-processing.

use sof_graph::{Cost, EdgeId, Graph, NodeId, UnionFind};
use std::collections::{BTreeSet, HashMap};

/// Errors produced by the Steiner solvers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SteinerError {
    /// Two terminals lie in different connected components.
    Unreachable {
        /// A terminal that could not be connected.
        terminal: NodeId,
    },
    /// A terminal id is outside the graph.
    InvalidTerminal {
        /// The offending id.
        terminal: NodeId,
    },
}

impl std::fmt::Display for SteinerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SteinerError::Unreachable { terminal } => {
                write!(f, "terminal {terminal} is unreachable from the others")
            }
            SteinerError::InvalidTerminal { terminal } => {
                write!(f, "terminal {terminal} is not a node of the graph")
            }
        }
    }
}

impl std::error::Error for SteinerError {}

/// A tree (edge set) spanning a terminal set.
///
/// Produced by every algorithm in this crate; [`SteinerTree::validate`]
/// checks the structural invariants (acyclic, connected, spans terminals).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SteinerTree {
    /// The selected edges.
    pub edges: Vec<EdgeId>,
    /// Total edge cost.
    pub cost: Cost,
}

impl SteinerTree {
    /// Builds a tree record from an edge set, computing the cost.
    pub fn from_edges(graph: &Graph, mut edges: Vec<EdgeId>) -> SteinerTree {
        edges.sort();
        edges.dedup();
        let cost = edges.iter().map(|&e| graph.edge_cost(e)).sum();
        SteinerTree { edges, cost }
    }

    /// All nodes incident to a tree edge.
    pub fn nodes(&self, graph: &Graph) -> BTreeSet<NodeId> {
        let mut out = BTreeSet::new();
        for &e in &self.edges {
            let edge = graph.edge(e);
            out.insert(edge.u);
            out.insert(edge.v);
        }
        out
    }

    /// Checks that the edge set is a tree spanning all `terminals`.
    ///
    /// A single-terminal (or empty) instance is spanned by the empty tree.
    pub fn validate(&self, graph: &Graph, terminals: &[NodeId]) -> Result<(), String> {
        let mut distinct: Vec<NodeId> = terminals.to_vec();
        distinct.sort();
        distinct.dedup();
        if distinct.len() <= 1 && self.edges.is_empty() {
            return Ok(());
        }
        // Acyclicity + connectivity over the touched nodes.
        let mut uf = UnionFind::new(graph.node_count());
        for &e in &self.edges {
            let edge = graph.edge(e);
            if !uf.union(edge.u.index(), edge.v.index()) {
                return Err(format!("edge {e} closes a cycle"));
            }
        }
        let Some(&first) = distinct.first() else {
            return Ok(());
        };
        for &t in &distinct {
            if !uf.connected(first.index(), t.index()) {
                return Err(format!("terminal {t} not connected to {first}"));
            }
        }
        let recomputed: Cost = self.edges.iter().map(|&e| graph.edge_cost(e)).sum();
        if !recomputed.approx_eq(self.cost) {
            return Err(format!(
                "cost mismatch: stored {} vs {}",
                self.cost, recomputed
            ));
        }
        Ok(())
    }

    /// Walks from `from` to `to` along tree edges; `None` if not connected
    /// within the tree.
    pub fn path_between(&self, graph: &Graph, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        let mut adj: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        for &e in &self.edges {
            let edge = graph.edge(e);
            adj.entry(edge.u).or_default().push(edge.v);
            adj.entry(edge.v).or_default().push(edge.u);
        }
        if from == to {
            return Some(vec![from]);
        }
        let mut parent: HashMap<NodeId, NodeId> = HashMap::new();
        let mut stack = vec![from];
        parent.insert(from, from);
        while let Some(u) = stack.pop() {
            if u == to {
                break;
            }
            for &v in adj.get(&u).into_iter().flatten() {
                if let std::collections::hash_map::Entry::Vacant(slot) = parent.entry(v) {
                    slot.insert(u);
                    stack.push(v);
                }
            }
        }
        if !parent.contains_key(&to) {
            return None;
        }
        let mut path = vec![to];
        let mut cur = to;
        while cur != from {
            cur = parent[&cur];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }
}

/// Removes cycles (via MST restricted to `edges`) and then repeatedly strips
/// non-terminal leaves. Shared post-processing for the approximation
/// algorithms.
pub(crate) fn mst_and_prune(
    graph: &Graph,
    edges: Vec<EdgeId>,
    terminals: &[NodeId],
) -> Vec<EdgeId> {
    // MST restricted to the candidate edge set (Kruskal).
    let mut cand = edges;
    cand.sort();
    cand.dedup();
    cand.sort_by_key(|&e| (graph.edge_cost(e), e));
    let mut uf = UnionFind::new(graph.node_count());
    let mut picked = Vec::new();
    for e in cand {
        let edge = graph.edge(e);
        if uf.union(edge.u.index(), edge.v.index()) {
            picked.push(e);
        }
    }
    prune_non_terminal_leaves(graph, picked, terminals)
}

/// Repeatedly removes leaf edges whose leaf endpoint is not a terminal.
pub(crate) fn prune_non_terminal_leaves(
    graph: &Graph,
    mut edges: Vec<EdgeId>,
    terminals: &[NodeId],
) -> Vec<EdgeId> {
    let is_terminal: BTreeSet<NodeId> = terminals.iter().copied().collect();
    loop {
        let mut degree: HashMap<NodeId, usize> = HashMap::new();
        for &e in &edges {
            let edge = graph.edge(e);
            *degree.entry(edge.u).or_insert(0) += 1;
            *degree.entry(edge.v).or_insert(0) += 1;
        }
        let before = edges.len();
        edges.retain(|&e| {
            let edge = graph.edge(e);
            let u_leaf = degree[&edge.u] == 1 && !is_terminal.contains(&edge.u);
            let v_leaf = degree[&edge.v] == 1 && !is_terminal.contains(&edge.v);
            !(u_leaf || v_leaf)
        });
        if edges.len() == before {
            return edges;
        }
    }
}

/// Validates terminal ids against the graph.
pub(crate) fn check_terminals(graph: &Graph, terminals: &[NodeId]) -> Result<(), SteinerError> {
    for &t in terminals {
        if t.index() >= graph.node_count() {
            return Err(SteinerError::InvalidTerminal { terminal: t });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sof_graph::Cost;

    fn line(n: usize) -> Graph {
        let mut g = Graph::with_nodes(n);
        for i in 0..n - 1 {
            g.add_edge(NodeId::new(i), NodeId::new(i + 1), Cost::new(1.0));
        }
        g
    }

    #[test]
    fn prune_strips_dangling_branches() {
        // 0-1-2 with a dangle 1-3; terminals {0, 2}.
        let mut g = line(3);
        let d = g.add_node();
        let dangle = g.add_edge(NodeId::new(1), d, Cost::new(1.0));
        let all: Vec<EdgeId> = g.edges().map(|(e, _)| e).collect();
        let pruned = prune_non_terminal_leaves(&g, all, &[NodeId::new(0), NodeId::new(2)]);
        assert!(!pruned.contains(&dangle));
        assert_eq!(pruned.len(), 2);
    }

    #[test]
    fn mst_and_prune_breaks_cycles() {
        let mut g = line(3);
        let back = g.add_edge(NodeId::new(2), NodeId::new(0), Cost::new(10.0));
        let all: Vec<EdgeId> = g.edges().map(|(e, _)| e).collect();
        let kept = mst_and_prune(&g, all, &[NodeId::new(0), NodeId::new(2)]);
        assert!(!kept.contains(&back));
        let tree = SteinerTree::from_edges(&g, kept);
        tree.validate(&g, &[NodeId::new(0), NodeId::new(2)])
            .unwrap();
    }

    #[test]
    fn validate_rejects_cycle_and_disconnection() {
        let mut g = line(4);
        let extra = g.add_edge(NodeId::new(0), NodeId::new(2), Cost::new(1.0));
        let cyclic = SteinerTree::from_edges(&g, vec![EdgeId::new(0), EdgeId::new(1), extra]);
        assert!(cyclic.validate(&g, &[NodeId::new(0)]).is_err());

        let partial = SteinerTree::from_edges(&g, vec![EdgeId::new(0)]);
        assert!(partial
            .validate(&g, &[NodeId::new(0), NodeId::new(3)])
            .is_err());
    }

    #[test]
    fn path_between_follows_tree() {
        let g = line(5);
        let tree = SteinerTree::from_edges(&g, g.edges().map(|(e, _)| e).collect());
        let p = tree
            .path_between(&g, NodeId::new(0), NodeId::new(4))
            .unwrap();
        assert_eq!(p.len(), 5);
        assert_eq!(
            tree.path_between(&g, NodeId::new(2), NodeId::new(2)),
            Some(vec![NodeId::new(2)])
        );
    }

    #[test]
    fn empty_tree_spans_single_terminal() {
        let g = line(2);
        let t = SteinerTree::default();
        t.validate(&g, &[NodeId::new(1)]).unwrap();
        t.validate(&g, &[]).unwrap();
    }
}
