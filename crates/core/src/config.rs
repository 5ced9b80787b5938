//! Solver configuration and outcome types shared by SOFDA / SOFDA-SS.

use crate::{ConflictStats, ForestCost, ForestError, ServiceForest};
use sof_graph::Cost;
use sof_kstroll::StrollSolver;
use sof_steiner::{SteinerError, SteinerSolver};
use std::fmt;

/// Configuration for the SOF solvers.
///
/// # Examples
///
/// ```
/// use sof_core::SofdaConfig;
/// use sof_steiner::SteinerSolver;
///
/// let config = SofdaConfig::default().with_seed(7);
/// assert_eq!(config.seed, 7);
/// assert_eq!(config.steiner, SteinerSolver::Mehlhorn);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SofdaConfig {
    /// Steiner solver used for the distribution trees / auxiliary graph
    /// (`ρST = 2` for the approximations).
    pub steiner: SteinerSolver,
    /// k-stroll solver used for service chains.
    pub stroll: StrollSolver,
    /// Seed for randomized components: `sof_sdn`'s distributed SOFDA draws
    /// its domain partition from it. The centralized solvers and the
    /// baselines are deterministic and never read it.
    pub seed: u64,
    /// Appendix D: per-source setup cost (`None` = §III's free sources).
    pub source_setup_cost: Option<Cost>,
    /// Run the final walk-shortening pass (Example 7's optimization).
    pub shorten: bool,
}

impl Default for SofdaConfig {
    fn default() -> SofdaConfig {
        SofdaConfig {
            steiner: SteinerSolver::Mehlhorn,
            stroll: StrollSolver::Auto,
            seed: 0x50FDA,
            source_setup_cost: None,
            shorten: true,
        }
    }
}

impl SofdaConfig {
    /// Replaces the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> SofdaConfig {
        self.seed = seed;
        self
    }

    /// The source setup cost in effect (zero by default).
    pub fn source_cost(&self) -> Cost {
        self.source_setup_cost.unwrap_or(Cost::ZERO)
    }
}

/// Statistics gathered during a solve.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SolveStats {
    /// Candidate service chains priced (k-stroll costs; SOFDA expands only
    /// the ones its Steiner tree keeps).
    pub candidate_chains: usize,
    /// [`crate::ChainMetric::expand`] calls the solve made: the chains it
    /// turned into real walks, fallback rebuilds included.
    pub chains_expanded: usize,
    /// DFS nodes the exact k-stroll searches expanded pricing them — a
    /// work count that repeats exactly at any thread count (0 when no
    /// exact search ran).
    pub stroll_nodes: u64,
    /// k-stroll searches answered by greedy insertion because the solve's
    /// node budget was spent ([`sof_kstroll::AUTO_NODE_BUDGET`]): while it
    /// is 0, every chain `StrollSolver::Auto` priced is optimal.
    pub stroll_handovers: u64,
    /// Conflict-resolution counters (SOFDA only).
    pub conflicts: ConflictStats,
    /// Cost of the intermediate Steiner tree (auxiliary graph for SOFDA,
    /// best distribution tree for SOFDA-SS).
    pub steiner_cost: Cost,
}

/// Result of a successful solve.
#[derive(Clone, Debug)]
pub struct SolveOutcome {
    /// The feasible forest.
    pub forest: ServiceForest,
    /// Its cost (consistent with `forest.cost(&network)`).
    pub cost: ForestCost,
    /// Solve statistics.
    pub stats: SolveStats,
}

/// Errors produced by the solvers.
#[derive(Clone, Debug)]
pub enum SolveError {
    /// The instance has no feasible forest with the given VM set (e.g. not
    /// enough VMs for the chain).
    Infeasible(String),
    /// SOFDA-SS was invoked with more than one source.
    SingleSourceOnly {
        /// Number of sources supplied.
        sources: usize,
    },
    /// The Steiner stage failed (disconnected terminals).
    Steiner(SteinerError),
    /// Internal invariant violated; carries the validator's complaint.
    Internal(ForestError),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Infeasible(why) => write!(f, "infeasible instance: {why}"),
            SolveError::SingleSourceOnly { sources } => {
                write!(f, "SOFDA-SS requires exactly one source, got {sources}")
            }
            SolveError::Steiner(e) => write!(f, "steiner stage failed: {e}"),
            SolveError::Internal(e) => write!(f, "internal invariant violated: {e}"),
        }
    }
}

impl std::error::Error for SolveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SolveError::Steiner(e) => Some(e),
            SolveError::Internal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SteinerError> for SolveError {
    fn from(e: SteinerError) -> SolveError {
        SolveError::Steiner(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let c = SofdaConfig {
            source_setup_cost: Some(Cost::new(3.0)),
            ..SofdaConfig::default().with_seed(1)
        };
        assert_eq!(c.seed, 1);
        assert_eq!(c.source_cost(), Cost::new(3.0));
        assert_eq!(SofdaConfig::default().source_cost(), Cost::ZERO);
    }

    #[test]
    fn error_display() {
        let e = SolveError::SingleSourceOnly { sources: 3 };
        assert!(e.to_string().contains("exactly one source"));
    }
}
