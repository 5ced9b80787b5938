//! Branch-and-bound budget policy and the [`Solver`]-trait adapter for the
//! exact solver.
//!
//! The Dreyfus–Wagner relaxation inside [`solve_exact`](crate::solve_exact)
//! is `O(3^|D|)`, so the sustainable node budget shrinks as the destination
//! count grows. This policy used to be hard-coded in the benchmark harness;
//! it now lives next to the solver it throttles.

use crate::solve_exact;
use sof_core::{SofInstance, SofdaConfig, SolveError, SolveOutcome, SolveStats, Solver};

/// A branch-and-bound node budget for [`solve_exact`](crate::solve_exact).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExactBudget {
    /// Maximum branch-and-bound nodes to expand.
    pub node_budget: usize,
}

impl ExactBudget {
    /// Destination counts past this are infeasible at paper-scale cost
    /// ([`ExactBudget::auto`] returns `None`).
    pub const MAX_DESTINATIONS: usize = 10;

    /// Creates an explicit budget.
    pub fn new(node_budget: usize) -> ExactBudget {
        ExactBudget { node_budget }
    }

    /// The evaluation's budget schedule: scale the node budget down as
    /// `|D|` grows to keep the "CPLEX" substitute at paper-scale cost (the
    /// incumbent is SOFDA-seeded, so `cost ≤ SOFDA` holds at any budget).
    ///
    /// # Examples
    ///
    /// ```
    /// use sof_exact::ExactBudget;
    /// assert_eq!(ExactBudget::auto(4), Some(ExactBudget::new(400)));
    /// assert_eq!(ExactBudget::auto(11), None);
    /// ```
    pub fn auto(destinations: usize) -> Option<ExactBudget> {
        if destinations > Self::MAX_DESTINATIONS {
            return None;
        }
        let node_budget = match destinations {
            0..=6 => 400,
            7..=8 => 120,
            _ => 30,
        };
        Some(ExactBudget { node_budget })
    }
}

/// The exact solver behind the [`Solver`] trait (the paper's "CPLEX"
/// column). With `budget: None` (the default) the per-instance
/// [`ExactBudget::auto`] schedule applies; a fixed budget overrides it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExactSolver {
    /// Fixed node budget, or `None` for [`ExactBudget::auto`].
    pub budget: Option<ExactBudget>,
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
        let budget = match self.budget {
            Some(b) => b,
            None => ExactBudget::auto(d).ok_or_else(|| {
                SolveError::Infeasible(format!(
                    "{d} destinations exceed the exact solver's envelope of {}",
                    ExactBudget::MAX_DESTINATIONS
                ))
            })?,
        };
        let out = solve_exact(instance, budget.node_budget)
            .map_err(|e| SolveError::Infeasible(e.to_string()))?;
        let cost = out.forest.cost(&instance.network);
        Ok(SolveOutcome {
            forest: out.forest,
            cost,
            stats: SolveStats::default(),
        })
    }

    fn max_destinations(&self) -> Option<usize> {
        match self.budget {
            Some(_) => None,
            None => Some(ExactBudget::MAX_DESTINATIONS),
        }
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
            assert_eq!(ExactBudget::auto(d), Some(ExactBudget::new(400)), "d={d}");
        }
        for d in 7..=8 {
            assert_eq!(ExactBudget::auto(d), Some(ExactBudget::new(120)), "d={d}");
        }
        for d in 9..=10 {
            assert_eq!(ExactBudget::auto(d), Some(ExactBudget::new(30)), "d={d}");
        }
        for d in 11..16 {
            assert_eq!(ExactBudget::auto(d), None, "d={d}");
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
        let via_trait = ExactSolver::default()
            .solve(&inst, &SofdaConfig::default())
            .unwrap();
        let direct = solve_exact(&inst, 400).unwrap();
        assert_eq!(via_trait.cost.total(), direct.cost);
        via_trait.forest.validate(&inst).unwrap();
    }

    #[test]
    fn auto_mode_declines_oversized_groups() {
        let inst = line_instance(11);
        let solver = ExactSolver::default();
        assert!(!solver.supports(&inst));
        assert!(solver.solve(&inst, &SofdaConfig::default()).is_err());
        // A fixed budget lifts the envelope cap.
        let fixed = ExactSolver {
            budget: Some(ExactBudget::new(5)),
        };
        assert_eq!(fixed.max_destinations(), None);
        assert!(fixed.supports(&inst));
    }
}
