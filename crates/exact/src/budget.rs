//! Branch-and-bound budget policy and the [`Solver`]-trait adapter for the
//! exact solver.
//!
//! The Dreyfus–Wagner relaxation inside [`solve_exact`](crate::solve_exact)
//! is `O(3^|D|)`, so the sustainable node budget shrinks as the destination
//! count grows. This policy used to be hard-coded in the benchmark harness;
//! it now lives next to the solver it throttles.

use crate::solve_exact;
use sof_core::{SofInstance, SofdaConfig, SolveError, SolveOutcome, SolveStats, Solver};

/// The exact solver behind the [`Solver`] trait (the paper's "CPLEX"
/// column), on the per-instance [`ExactSolver::auto_budget`] schedule. A
/// caller who wants another node budget calls
/// [`solve_exact`](crate::solve_exact) directly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExactSolver;

impl ExactSolver {
    /// Destination counts past this are infeasible at paper-scale cost
    /// ([`ExactSolver::auto_budget`] returns `None`).
    pub const MAX_DESTINATIONS: usize = 10;

    /// The evaluation's node-budget schedule: scale the branch-and-bound
    /// budget down as `|D|` grows to keep the "CPLEX" substitute at
    /// paper-scale cost (the incumbent is SOFDA-seeded, so `cost ≤ SOFDA`
    /// holds at any budget).
    ///
    /// # Examples
    ///
    /// ```
    /// use sof_exact::ExactSolver;
    /// assert_eq!(ExactSolver::auto_budget(4), Some(400));
    /// assert_eq!(ExactSolver::auto_budget(11), None);
    /// ```
    pub fn auto_budget(destinations: usize) -> Option<usize> {
        match destinations {
            0..=6 => Some(400),
            7..=8 => Some(120),
            9..=Self::MAX_DESTINATIONS => Some(30),
            _ => None,
        }
    }
}

impl Solver for ExactSolver {
    fn name(&self) -> &'static str {
        "CPLEX*"
    }

    fn solve(
        &self,
        instance: &SofInstance,
        _config: &SofdaConfig,
    ) -> Result<SolveOutcome, SolveError> {
        let d = instance.request.destinations.len();
        let budget = Self::auto_budget(d).ok_or_else(|| {
            SolveError::Infeasible(format!(
                "{d} destinations exceed the exact solver's envelope of {}",
                Self::MAX_DESTINATIONS
            ))
        })?;
        let out =
            solve_exact(instance, budget).map_err(|e| SolveError::Infeasible(e.to_string()))?;
        let cost = out.forest.cost(&instance.network);
        Ok(SolveOutcome {
            forest: out.forest,
            cost,
            stats: SolveStats::default(),
        })
    }

    fn max_destinations(&self) -> Option<usize> {
        Some(Self::MAX_DESTINATIONS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sof_core::{Network, Request, ServiceChain};
    use sof_graph::{Cost, Graph, NodeId};

    #[test]
    fn auto_schedule_pins_the_thresholds() {
        for d in 0..=6 {
            assert_eq!(ExactSolver::auto_budget(d), Some(400), "d={d}");
        }
        for d in 7..=8 {
            assert_eq!(ExactSolver::auto_budget(d), Some(120), "d={d}");
        }
        for d in 9..=10 {
            assert_eq!(ExactSolver::auto_budget(d), Some(30), "d={d}");
        }
        for d in 11..16 {
            assert_eq!(ExactSolver::auto_budget(d), None, "d={d}");
        }
    }

    fn line_instance(dests: usize) -> SofInstance {
        let n = 4 + dests;
        let mut g = Graph::with_nodes(n);
        for i in 0..n - 1 {
            g.add_edge(NodeId::new(i), NodeId::new(i + 1), Cost::new(1.0));
        }
        let mut net = Network::all_switches(g);
        net.make_vm(NodeId::new(1), Cost::new(5.0));
        net.make_vm(NodeId::new(2), Cost::new(1.0));
        SofInstance::new(
            net,
            Request::new(
                vec![NodeId::new(0)],
                (4..4 + dests).map(NodeId::new).collect(),
                ServiceChain::with_len(2),
            ),
        )
        .unwrap()
    }

    #[test]
    fn solver_trait_adapter_matches_direct_call() {
        let inst = line_instance(1);
        let via_trait = ExactSolver.solve(&inst, &SofdaConfig::default()).unwrap();
        let direct = solve_exact(&inst, 400).unwrap();
        assert_eq!(via_trait.cost.total(), direct.cost);
        via_trait.forest.validate(&inst).unwrap();
    }

    #[test]
    fn auto_mode_declines_oversized_groups() {
        let inst = line_instance(11);
        assert_eq!(ExactSolver.max_destinations(), Some(10));
        assert!(!ExactSolver.supports(&inst));
        assert!(ExactSolver.solve(&inst, &SofdaConfig::default()).is_err());
    }
}
