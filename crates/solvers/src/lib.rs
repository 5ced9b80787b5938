//! # sof-solvers — the registry of SOF embedding algorithms
//!
//! Every algorithm in the workspace implements the object-safe
//! [`Solver`] trait; this crate collects them behind one roof so harnesses,
//! binaries and examples pick solvers by name instead of hard-wiring entry
//! points:
//!
//! | name       | algorithm                                             |
//! |------------|-------------------------------------------------------|
//! | `SOFDA`    | Algorithm 2, the paper's contribution                 |
//! | `SOFDA-SS` | Algorithm 1, single-source                            |
//! | `eNEMP`    | NEMP-style baseline with multi-source extension       |
//! | `eST`      | Steiner-tree baseline with multi-source extension     |
//! | `ST`       | single Steiner tree + bolted-on chain                 |
//! | `CPLEX*`   | exact branch-and-bound (auto budget, `\|D\|` ≤ 10)    |
//! | `D-SOFDA`  | §VI multi-controller SOFDA (3 domains)                |
//!
//! # Examples
//!
//! ```
//! use sof_solvers as solvers;
//!
//! let names: Vec<&str> = solvers::all().iter().map(|s| s.name()).collect();
//! assert!(names.contains(&"SOFDA") && names.contains(&"CPLEX*"));
//! let est = solvers::by_name("est").expect("case-insensitive lookup");
//! assert_eq!(est.name(), "eST");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sof_baselines::{Enemp, Est, St};
pub use sof_core::{Sofda, SofdaSs, Solver};
pub use sof_exact::ExactSolver;
pub use sof_sdn::DistributedSofda;

/// Every registered solver, in the evaluation's canonical order.
pub fn all() -> Vec<Box<dyn Solver>> {
    vec![
        Box::new(Sofda),
        Box::new(Enemp),
        Box::new(Est),
        Box::new(St),
        Box::new(ExactSolver),
        Box::new(SofdaSs),
        Box::new(DistributedSofda::default()),
    ]
}

/// Looks a solver up by display name (case-insensitive; the `*` in
/// `CPLEX*` is optional).
pub fn by_name(name: &str) -> Option<Box<dyn Solver>> {
    let wanted = name.trim_end_matches('*');
    all()
        .into_iter()
        .find(|s| s.name().trim_end_matches('*').eq_ignore_ascii_case(wanted))
}

/// The standard comparison set of Figs. 8–10 and 12: SOFDA and the three
/// baselines, plus the exact "CPLEX" column when `with_exact`.
pub fn comparison_set(with_exact: bool) -> Vec<Box<dyn Solver>> {
    let mut v: Vec<Box<dyn Solver>> = vec![
        Box::new(Sofda),
        Box::new(Enemp),
        Box::new(Est),
        Box::new(St),
    ];
    if with_exact {
        v.push(Box::new(ExactSolver));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_lookup_roundtrips() {
        let solvers = all();
        let mut names: Vec<&str> = solvers.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), solvers.len(), "duplicate solver names");
        for s in &solvers {
            assert_eq!(by_name(s.name()).unwrap().name(), s.name());
            assert_eq!(
                by_name(&s.name().to_lowercase()).unwrap().name(),
                s.name(),
                "lookup should be case-insensitive"
            );
        }
        assert!(by_name("no-such-solver").is_none());
        assert_eq!(by_name("cplex").unwrap().name(), "CPLEX*");
    }

    #[test]
    fn comparison_set_matches_the_figures() {
        let names: Vec<&str> = comparison_set(false).iter().map(|s| s.name()).collect();
        assert_eq!(names, ["SOFDA", "eNEMP", "eST", "ST"]);
        let with_exact: Vec<&str> = comparison_set(true).iter().map(|s| s.name()).collect();
        assert_eq!(with_exact, ["SOFDA", "eNEMP", "eST", "ST", "CPLEX*"]);
    }

    #[test]
    fn every_registered_solver_embeds_a_tiny_instance() {
        use sof_core::{Network, Request, ServiceChain, SofInstance, SofdaConfig};
        use sof_graph::{Cost, Graph, NodeId};
        let mut g = Graph::with_nodes(5);
        for i in 0..4 {
            g.add_edge(NodeId::new(i), NodeId::new(i + 1), Cost::new(1.0));
        }
        let mut net = Network::all_switches(g);
        net.make_vm(NodeId::new(1), Cost::new(1.0));
        net.make_vm(NodeId::new(2), Cost::new(1.0));
        let inst = SofInstance::new(
            net,
            Request::new(
                vec![NodeId::new(0)],
                vec![NodeId::new(4)],
                ServiceChain::with_len(1),
            ),
        )
        .unwrap();
        for solver in all() {
            assert!(solver.supports(&inst), "{}", solver.name());
            let out = solver
                .solve(&inst, &SofdaConfig::default())
                .unwrap_or_else(|e| panic!("{} failed: {e}", solver.name()));
            out.forest
                .validate(&inst)
                .unwrap_or_else(|e| panic!("{} invalid: {e}", solver.name()));
        }
    }
}
