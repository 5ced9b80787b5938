//! Steiner tree algorithms for the Service Overlay Forest workspace.
//!
//! The ICDCS'17 SOF paper parameterizes its bounds by `ρST`, the best
//! Steiner-tree approximation ratio. This crate supplies the solvers used
//! throughout the reproduction:
//!
//! * [`mehlhorn`] — the default 2-approximation (one multi-source Dijkstra),
//! * [`takahashi_matsuyama`] — the shortest-path-attachment heuristic whose
//!   incremental structure the distributed controller (§VI) mirrors,
//! * [`dreyfus_wagner`] — exact dynamic programming for small terminal sets
//!   (ground truth for tests and the CPLEX-scale comparison): the
//!   bidirected view of `sof_graph`'s one Dreyfus–Wagner DP,
//!   [`sof_graph::steiner_arborescence`]; past its terminal cap it answers
//!   [`SteinerError::TooManyTerminals`].
//!
//! [`SteinerSolver`] selects among them uniformly:
//!
//! ```
//! use sof_graph::{Graph, Cost, NodeId};
//! use sof_steiner::SteinerSolver;
//!
//! let mut g = Graph::with_nodes(4);
//! g.add_edge(NodeId::new(0), NodeId::new(1), Cost::new(1.0));
//! g.add_edge(NodeId::new(1), NodeId::new(2), Cost::new(1.0));
//! g.add_edge(NodeId::new(1), NodeId::new(3), Cost::new(1.0));
//! let ts = [NodeId::new(0), NodeId::new(2), NodeId::new(3)];
//! let tree = SteinerSolver::Auto.solve(&g, &ts)?;
//! assert_eq!(tree.cost, Cost::new(3.0));
//! # Ok::<(), sof_steiner::SteinerError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dreyfus_wagner;
mod mehlhorn;
mod takahashi;
mod tree;

pub use dreyfus_wagner::dreyfus_wagner;
pub use mehlhorn::{mehlhorn, mehlhorn_with_engine};
pub use takahashi::takahashi_matsuyama;
pub use tree::{SteinerError, SteinerTree};

use sof_graph::{Graph, NodeId, PathEngine};

/// Uniform front-end over the Steiner solvers.
///
/// `Auto` uses exact [`dreyfus_wagner`] on small instances and otherwise the
/// better of [`mehlhorn`] and [`takahashi_matsuyama`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SteinerSolver {
    /// Mehlhorn's 2-approximation (fastest).
    Mehlhorn,
    /// Takahashi–Matsuyama attachment heuristic.
    TakahashiMatsuyama,
    /// Exact Dreyfus–Wagner (small terminal sets only).
    DreyfusWagner,
    /// Exact when cheap, otherwise best-of-two heuristics.
    Auto,
}

impl SteinerSolver {
    /// Terminal-count threshold under which `Auto` goes exact.
    const AUTO_EXACT_TERMINALS: usize = 8;
    /// Node-count threshold under which `Auto` goes exact.
    const AUTO_EXACT_NODES: usize = 300;

    /// Solves the Steiner tree instance with the selected algorithm.
    ///
    /// # Errors
    ///
    /// Propagates [`SteinerError`] from the underlying solver.
    pub fn solve(self, graph: &Graph, terminals: &[NodeId]) -> Result<SteinerTree, SteinerError> {
        self.solve_with(graph, terminals, None)
    }

    /// [`SteinerSolver::solve`] with shortest-path queries optionally served
    /// by a shared [`PathEngine`] (bit-identical results; the exact
    /// Dreyfus–Wagner path ignores the engine). Pass the engine of the
    /// graph's standing network when solving on it repeatedly; pass `None`
    /// for throwaway graphs (e.g. per-solve auxiliary graphs), whose
    /// entries could never be reused.
    ///
    /// # Errors
    ///
    /// Propagates [`SteinerError`] from the underlying solver.
    pub fn solve_with(
        self,
        graph: &Graph,
        terminals: &[NodeId],
        engine: Option<&PathEngine>,
    ) -> Result<SteinerTree, SteinerError> {
        let mehlhorn_of = |ts: &[NodeId]| match engine {
            Some(e) => mehlhorn_with_engine(graph, ts, e),
            None => mehlhorn(graph, ts),
        };
        match self {
            SteinerSolver::Mehlhorn => mehlhorn_of(terminals),
            SteinerSolver::TakahashiMatsuyama => takahashi_matsuyama(graph, terminals),
            SteinerSolver::DreyfusWagner => dreyfus_wagner(graph, terminals),
            SteinerSolver::Auto => {
                let mut distinct: Vec<NodeId> = terminals.to_vec();
                distinct.sort();
                distinct.dedup();
                if distinct.len() <= Self::AUTO_EXACT_TERMINALS
                    && graph.node_count() <= Self::AUTO_EXACT_NODES
                {
                    return dreyfus_wagner(graph, &distinct);
                }
                let a = mehlhorn_of(&distinct)?;
                let b = takahashi_matsuyama(graph, &distinct)?;
                Ok(if a.cost <= b.cost { a } else { b })
            }
        }
    }

    /// The proven approximation ratio of this solver (`ρST` in the paper);
    /// 1 for the exact solver, 2 for the combinatorial approximations.
    pub fn ratio(self) -> f64 {
        match self {
            SteinerSolver::DreyfusWagner => 1.0,
            _ => 2.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sof_graph::{generators, Cost, CostRange, Rng64};

    #[test]
    fn auto_uses_exact_on_small_instances() {
        let mut rng = Rng64::seed_from(2);
        let g = generators::gnp_connected(30, 0.2, CostRange::new(1.0, 9.0), &mut rng);
        let ts: Vec<NodeId> = rng
            .sample_indices(30, 5)
            .into_iter()
            .map(NodeId::new)
            .collect();
        let auto = SteinerSolver::Auto.solve(&g, &ts).unwrap();
        let exact = SteinerSolver::DreyfusWagner.solve(&g, &ts).unwrap();
        assert_eq!(auto.cost, exact.cost);
    }

    #[test]
    fn all_solvers_agree_on_trivial_instances() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(NodeId::new(0), NodeId::new(1), Cost::new(3.0));
        for solver in [
            SteinerSolver::Mehlhorn,
            SteinerSolver::TakahashiMatsuyama,
            SteinerSolver::DreyfusWagner,
            SteinerSolver::Auto,
        ] {
            let tree = solver.solve(&g, &[NodeId::new(0), NodeId::new(1)]).unwrap();
            assert_eq!(tree.cost, Cost::new(3.0), "{solver:?}");
        }
    }

    #[test]
    fn ratios() {
        assert_eq!(SteinerSolver::DreyfusWagner.ratio(), 1.0);
        assert_eq!(SteinerSolver::Mehlhorn.ratio(), 2.0);
    }
}
