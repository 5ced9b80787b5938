//! Exact Steiner trees via the Dreyfus–Wagner dynamic program.
//!
//! Exponential in the number of terminals (`O(3^k·n + 2^k·m log n)`), so it
//! is reserved for small terminal sets — exactly the regime of the paper's
//! CPLEX comparison. Used as the ground truth in approximation-ratio tests
//! and optionally inside SOFDA for small instances.

use crate::tree::{check_terminals, SteinerError, SteinerTree};
use sof_graph::{Cost, EdgeId, Graph, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Hard cap on distinct terminals accepted by [`dreyfus_wagner`].
pub const MAX_DW_TERMINALS: usize = 16;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Choice {
    /// This node is the terminal that seeds the singleton subset.
    Root,
    /// Reached by relaxing from a neighbor.
    Hop(NodeId, EdgeId),
    /// Two sub-solutions merged at this node (stores one half's mask).
    Merge(u32),
    /// Not yet computed / unreachable.
    None,
}

/// Computes a **minimum-cost** Steiner tree spanning `terminals`.
///
/// # Errors
///
/// Returns [`SteinerError::InvalidTerminal`] for out-of-range ids and
/// [`SteinerError::Unreachable`] when no spanning tree exists.
///
/// # Panics
///
/// Panics if there are more than [`MAX_DW_TERMINALS`] distinct terminals.
///
/// # Examples
///
/// ```
/// use sof_graph::{Graph, Cost, NodeId};
/// use sof_steiner::dreyfus_wagner;
///
/// // Square 0-1-2-3 with unit edges and a diagonal hub 4.
/// let mut g = Graph::with_nodes(5);
/// g.add_edge(NodeId::new(0), NodeId::new(1), Cost::new(2.0));
/// g.add_edge(NodeId::new(1), NodeId::new(2), Cost::new(2.0));
/// g.add_edge(NodeId::new(2), NodeId::new(3), Cost::new(2.0));
/// g.add_edge(NodeId::new(3), NodeId::new(0), Cost::new(2.0));
/// for i in 0..4 {
///     g.add_edge(NodeId::new(i), NodeId::new(4), Cost::new(1.1));
/// }
/// let ts: Vec<NodeId> = (0..4).map(NodeId::new).collect();
/// let tree = dreyfus_wagner(&g, &ts)?;
/// assert_eq!(tree.cost, Cost::new(4.4)); // star through the hub
/// # Ok::<(), sof_steiner::SteinerError>(())
/// ```
pub fn dreyfus_wagner(graph: &Graph, terminals: &[NodeId]) -> Result<SteinerTree, SteinerError> {
    check_terminals(graph, terminals)?;
    let mut ts: Vec<NodeId> = terminals.to_vec();
    ts.sort();
    ts.dedup();
    if ts.len() <= 1 {
        return Ok(SteinerTree::default());
    }
    assert!(
        ts.len() <= MAX_DW_TERMINALS,
        "Dreyfus-Wagner limited to {MAX_DW_TERMINALS} terminals, got {}",
        ts.len()
    );
    let n = graph.node_count();
    let root = ts[ts.len() - 1];
    let q = &ts[..ts.len() - 1]; // base terminals, one bit each
    let full: u32 = (1u32 << q.len()) - 1;

    // dp[mask][v], choice[mask][v]
    let masks = 1usize << q.len();
    let mut dp = vec![vec![Cost::INFINITY; n]; masks];
    let mut choice = vec![vec![Choice::None; n]; masks];

    // Dijkstra relaxation: takes initial labels, relaxes over the graph.
    let relax = |dist: &mut Vec<Cost>, ch: &mut Vec<Choice>| {
        let mut heap: BinaryHeap<Reverse<(Cost, NodeId)>> = dist
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_finite())
            .map(|(i, &d)| Reverse((d, NodeId::new(i))))
            .collect();
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u.index()] {
                continue;
            }
            for (v, e) in graph.neighbors(u) {
                let nd = d + graph.edge_cost(e);
                if nd < dist[v.index()] {
                    dist[v.index()] = nd;
                    ch[v.index()] = Choice::Hop(u, e);
                    heap.push(Reverse((nd, v)));
                }
            }
        }
    };

    // Singletons.
    for (i, &t) in q.iter().enumerate() {
        let mask = 1usize << i;
        dp[mask][t.index()] = Cost::ZERO;
        choice[mask][t.index()] = Choice::Root;
        let (d, c) = (&mut dp[mask], &mut choice[mask]);
        relax(d, c);
    }

    // Increasing subset size.
    for mask in 1..masks {
        if mask.count_ones() < 2 {
            continue;
        }
        // Merge step: combine complementary sub-solutions at each node.
        let mut merged = vec![Cost::INFINITY; n];
        let mut mch = vec![Choice::None; n];
        let m32 = mask as u32;
        // Iterate proper non-empty submasks; visit each split once.
        let mut sub = (mask - 1) & mask;
        while sub > 0 {
            let other = mask & !sub;
            if sub < other {
                sub = (sub - 1) & mask;
                continue;
            }
            for v in 0..n {
                let a = dp[sub][v];
                let b = dp[other][v];
                if a.is_finite() && b.is_finite() {
                    let c = a + b;
                    if c < merged[v] {
                        merged[v] = c;
                        mch[v] = Choice::Merge(sub as u32);
                    }
                }
            }
            sub = (sub - 1) & mask;
        }
        debug_assert!(m32 <= full);
        dp[mask] = merged;
        choice[mask] = mch;
        let (d, c) = (&mut dp[mask], &mut choice[mask]);
        relax(d, c);
    }

    let best = dp[full as usize][root.index()];
    if !best.is_finite() {
        return Err(SteinerError::Unreachable { terminal: root });
    }

    // Reconstruction.
    let mut edges: Vec<EdgeId> = Vec::new();
    let mut stack: Vec<(usize, NodeId)> = vec![(full as usize, root)];
    while let Some((mask, v)) = stack.pop() {
        match choice[mask][v.index()] {
            Choice::Root => {}
            Choice::Hop(u, e) => {
                edges.push(e);
                stack.push((mask, u));
            }
            Choice::Merge(sub) => {
                let other = mask & !(sub as usize);
                stack.push((sub as usize, v));
                stack.push((other, v));
            }
            Choice::None => unreachable!("finite dp entry must have a choice"),
        }
    }
    edges.sort();
    edges.dedup();
    let tree = SteinerTree::from_edges(graph, edges);
    debug_assert!(
        tree.cost.approx_eq(best) || tree.cost < best,
        "reconstructed cost {} exceeds dp value {}",
        tree.cost,
        best
    );
    Ok(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mehlhorn, takahashi_matsuyama};
    use sof_graph::{generators, CostRange, Rng64};

    #[test]
    fn exact_beats_or_matches_heuristics_on_random_graphs() {
        let mut rng = Rng64::seed_from(21);
        for trial in 0..20 {
            let g = generators::gnp_connected(16, 0.25, CostRange::new(1.0, 10.0), &mut rng);
            let k = 2 + (trial % 5);
            let ts: Vec<NodeId> = rng
                .sample_indices(g.node_count(), k)
                .into_iter()
                .map(NodeId::new)
                .collect();
            let exact = dreyfus_wagner(&g, &ts).unwrap();
            exact.validate(&g, &ts).unwrap();
            for (name, tree) in [
                ("mehlhorn", mehlhorn(&g, &ts).unwrap()),
                ("tm", takahashi_matsuyama(&g, &ts).unwrap()),
            ] {
                tree.validate(&g, &ts).unwrap();
                assert!(
                    exact.cost <= tree.cost + Cost::new(1e-9),
                    "{name} beat exact on trial {trial}: {} < {}",
                    tree.cost,
                    exact.cost
                );
                assert!(
                    tree.cost <= exact.cost * 2.0 + Cost::new(1e-9),
                    "{name} violated 2-approx on trial {trial}"
                );
            }
        }
    }

    #[test]
    fn classic_steiner_point_example() {
        // Triangle of terminals with a cheap center (Fermat point analogue).
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId::new(0), NodeId::new(1), Cost::new(2.0));
        g.add_edge(NodeId::new(1), NodeId::new(2), Cost::new(2.0));
        g.add_edge(NodeId::new(2), NodeId::new(0), Cost::new(2.0));
        for i in 0..3 {
            g.add_edge(NodeId::new(i), NodeId::new(3), Cost::new(1.2));
        }
        let ts = vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)];
        let tree = dreyfus_wagner(&g, &ts).unwrap();
        assert_eq!(tree.cost, Cost::new(3.5999999999999996));
        assert_eq!(tree.edges.len(), 3);
    }

    #[test]
    fn two_terminals_is_shortest_path() {
        let mut rng = Rng64::seed_from(5);
        let g = generators::gnp_connected(20, 0.2, CostRange::new(1.0, 4.0), &mut rng);
        let sp = sof_graph::ShortestPaths::from_source(&g, NodeId::new(0));
        let tree = dreyfus_wagner(&g, &[NodeId::new(0), NodeId::new(15)]).unwrap();
        assert!(tree.cost.approx_eq(sp.dist(NodeId::new(15))));
    }

    #[test]
    fn unreachable_errors() {
        let g = Graph::with_nodes(2);
        let err = dreyfus_wagner(&g, &[NodeId::new(0), NodeId::new(1)]).unwrap_err();
        assert!(matches!(err, SteinerError::Unreachable { .. }));
    }
}
