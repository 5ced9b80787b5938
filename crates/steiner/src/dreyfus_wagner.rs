//! Exact Steiner trees via the Dreyfus–Wagner dynamic program.
//!
//! Exponential in the number of terminals (`O(3^k·n + 2^k·m)` queue work),
//! so it is reserved for small terminal sets — exactly the regime of the
//! paper's CPLEX comparison. Used as the ground truth in
//! approximation-ratio tests and optionally inside SOFDA for small
//! instances. The DP is [`sof_graph::steiner_arborescence`]; this is its
//! bidirected view.

use crate::tree::{check_terminals, SteinerError, SteinerTree};
use sof_graph::{steiner_arborescence, EdgeId, Graph, NodeId, SteinerArborescence, SteinerDpError};

/// Computes a **minimum-cost** Steiner tree spanning `terminals`: the
/// minimum arborescence of the bidirected graph, rooted at the largest
/// terminal id.
///
/// # Errors
///
/// Returns [`SteinerError::InvalidTerminal`] for out-of-range ids,
/// [`SteinerError::TooManyTerminals`] past one more distinct terminal than
/// [`sof_graph::MAX_DW_TERMINALS`] (the root is one of them), and
/// [`SteinerError::Unreachable`] when no spanning tree exists.
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
    let arb = bidirected(graph, terminals)?;
    Ok(SteinerTree {
        edges: arb.arcs.into_iter().map(EdgeId::new).collect(),
        cost: arb.cost,
    })
}

/// [`dreyfus_wagner`]'s arborescence: arcs into `y` are `y`'s edges, and
/// the root is the largest terminal id.
fn bidirected(graph: &Graph, terminals: &[NodeId]) -> Result<SteinerArborescence, SteinerError> {
    check_terminals(graph, terminals)?;
    let mut ts: Vec<usize> = terminals.iter().map(|t| t.index()).collect();
    ts.sort_unstable();
    ts.dedup();
    let Some((&root, rest)) = ts.split_last() else {
        return Ok(SteinerArborescence::default());
    };
    steiner_arborescence(graph.node_count(), root, rest, |y| {
        graph
            .neighbors(NodeId::new(y))
            .map(|(x, e)| (x.index(), graph.edge_cost(e), e.index()))
    })
    .map_err(|e| match e {
        SteinerDpError::TooManyTerminals => SteinerError::TooManyTerminals {
            terminals: ts.len(),
        },
        SteinerDpError::Unreachable => SteinerError::Unreachable {
            terminal: NodeId::new(root),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mehlhorn, takahashi_matsuyama};
    use sof_graph::{generators, Cost, CostRange, Rng64};

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

    /// Case `seed` of the bit-identity fixture: a connected random graph
    /// on 4–22 nodes, with real costs in `[1, 10)` on even seeds and
    /// integer costs of 0–3 on odd ones (equal-cost trees are common
    /// there), 2–8 terminals, a repeated terminal one time in five, and an
    /// isolated terminal one time in 25.
    fn fixture_case(seed: u64) -> (Graph, Vec<NodeId>) {
        let mut rng = Rng64::seed_from(seed);
        let n = rng.range(4, 23);
        let p = [0.1, 0.25, 0.5][rng.below(3)];
        let mut g = generators::gnp_connected(n, p, CostRange::new(1.0, 10.0), &mut rng);
        if seed % 2 == 1 {
            for e in 0..g.edge_count() {
                g.set_edge_cost(EdgeId::new(e), Cost::new(rng.below(4) as f64));
            }
        }
        let k = rng.range(2, n.min(8) + 1);
        let mut ts: Vec<NodeId> = rng
            .sample_indices(n, k)
            .into_iter()
            .map(NodeId::new)
            .collect();
        if rng.chance(0.2) {
            ts.push(ts[0]);
        }
        if seed.is_multiple_of(25) {
            ts.push(g.add_node());
        }
        (g, ts)
    }

    /// FNV-1a over the little-endian bytes of `word`.
    fn fold(hash: &mut u64, word: u64) {
        for byte in word.to_le_bytes() {
            *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Bit identity over 600 generated cases, 300 of them with integer
    /// costs: every answer's cost bits and sorted edge ids (or the
    /// unreachable terminal) fold into one digest. The constant is what the
    /// undirected DP gave before it became a view of the shared
    /// arborescence DP; an equal-cost tie reconstructed another way moves
    /// it as surely as a wrong cost does.
    #[test]
    fn answers_are_bit_identical_on_600_generated_cases() {
        let mut hash = 0xcbf2_9ce4_8422_2325;
        for seed in 0..600 {
            let (g, ts) = fixture_case(seed);
            match dreyfus_wagner(&g, &ts) {
                Ok(tree) => {
                    fold(&mut hash, tree.cost.value().to_bits());
                    fold(&mut hash, tree.edges.len() as u64);
                    for e in tree.edges {
                        fold(&mut hash, e.index() as u64);
                    }
                }
                Err(SteinerError::Unreachable { terminal }) => {
                    fold(&mut hash, u64::MAX);
                    fold(&mut hash, terminal.index() as u64);
                }
                Err(e) => panic!("case {seed}: {e}"),
            }
        }
        assert_eq!(hash, 0x189b_a89c_cb54_6c5d, "digest {hash:#018x}");
    }

    /// The DP's work witness on the bidirected view: arcs scanned by its
    /// relaxation passes on one fixed 60-node graph with 10 terminals,
    /// pinned exactly. No tree can see a pass that scans more than it must;
    /// this count can. Sunk by dropping the DP's stale-entry skip, so that
    /// a superseded queue entry scans its arcs again.
    #[test]
    fn arcs_scanned_are_pinned_on_a_fixed_graph() {
        let mut rng = Rng64::seed_from(37);
        let g = generators::gnp_connected(60, 0.1, CostRange::new(1.0, 10.0), &mut rng);
        let ts: Vec<NodeId> = rng
            .sample_indices(60, 10)
            .into_iter()
            .map(NodeId::new)
            .collect();
        let arb = bidirected(&g, &ts).unwrap();
        assert_eq!(arb.scanned, 242_214);
    }

    #[test]
    fn unreachable_errors() {
        let g = Graph::with_nodes(2);
        let err = dreyfus_wagner(&g, &[NodeId::new(0), NodeId::new(1)]).unwrap_err();
        assert!(matches!(err, SteinerError::Unreachable { .. }));
    }
}
