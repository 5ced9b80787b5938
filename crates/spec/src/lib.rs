//! # sof-spec — declarative scenarios for the SOF evaluation
//!
//! Experiments are **data** here, not binaries: a [`ScenarioSpec`]
//! (TOML or JSON) names a topology, scenario parameters, a cost/solver
//! configuration and a workload; [`run_spec`] compiles it onto the
//! existing `Solver` / `OnlineSession` / `SessionPool` machinery and the
//! crate's own one-shot engine ([`oneshot`]) and returns a structured
//! [`RunReport`], which serializes as deterministic JSON lines
//! ([`write_jsonl`]) or as the legacy markdown tables
//! ([`render_markdown`]).
//!
//! The paper's eight figures/tables ship as bundled presets
//! ([`presets::PRESETS`], checked in under `crates/spec/specs/`), and the
//! `sof` CLI (`sof run fig8`, `sof list`, `sof validate`) drives
//! everything. New scenarios — e.g. an Inet topology under viewer churn
//! with VM failure injection — are a spec file, not code (see the
//! `inet-churn-failures` preset).
//!
//! # Examples
//!
//! ```
//! use sof_spec::{run_spec, RunOptions, ScenarioSpec};
//!
//! let spec = ScenarioSpec::from_toml(r#"
//! name = "tiny"
//! label = "Demo"
//! title = "one tiny sweep"
//!
//! [workload]
//! kind = "sweep"
//! solvers = ["SOFDA"]
//! seeds = 1
//! seed = 7
//!
//! [[workload.axes]]
//! field = "destinations"
//! values = [2]
//! "#)?;
//! let report = run_spec(&spec, &RunOptions::default())?;
//! let jsonl = sof_spec::write_jsonl(&report, false);
//! assert!(jsonl.lines().count() >= 2); // meta line + one row per point
//! let markdown = sof_spec::render_markdown(&report);
//! assert!(markdown.starts_with("# Demo — one tiny sweep (seeds = 1)"));
//! # Ok::<(), sof_spec::SpecError>(())
//! ```
//!
//! The unknown-key and range validation is strict and actionable:
//!
//! ```
//! use sof_spec::ScenarioSpec;
//!
//! let err = ScenarioSpec::from_toml(
//!     "name = \"x\"\n[workload]\nkind = \"sweep\"\nsolvers = [\"SOFDA\"]\nseedz = 1\n",
//! )
//! .unwrap_err();
//! assert!(err.to_string().contains("unknown key 'workload.seedz'"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod field;
pub mod oneshot;
pub mod overrides;
pub mod presets;
pub mod report;
pub mod sink;
mod spec;
pub mod value;

pub use engine::{run_churn_stream, run_spec, runner_config, RunOptions};
pub use report::{render_markdown, write_jsonl, Detail, ReportMeta, RunReport, Section};
pub use sof_survive::{FailureEventSpec, FailureSpec};
pub use spec::{ChurnSpec, GridMetric, OnlineGroup, ScenarioSpec, SpecError, Workload};

#[cfg(test)]
mod tests {
    use crate::oneshot::{average_with, run};
    use sof_core::SofdaConfig;
    use sof_topo::{build_instance, softlayer, ScenarioParams};

    #[test]
    fn run_all_registered_comparison_solvers_once() {
        let topo = softlayer();
        let mut p = ScenarioParams::paper_defaults().with_seed(5);
        p.destinations = 4;
        p.sources = 6;
        p.vm_count = 12;
        let inst = build_instance(&topo, &p);
        for solver in sof_solvers::comparison_set(true) {
            let r = run(solver.as_ref(), &inst, &SofdaConfig::default()).expect("feasible");
            assert!(r.cost > 0.0, "{}", solver.name());
        }
    }

    #[test]
    fn capability_hints_skip_oversized_instances() {
        let topo = softlayer();
        let mut p = ScenarioParams::paper_defaults().with_seed(6);
        p.destinations = 12; // beyond the exact solver's |D| ≤ 10 envelope
        let inst = build_instance(&topo, &p);
        let exact = sof_solvers::by_name("CPLEX*").unwrap();
        assert!(run(exact.as_ref(), &inst, &SofdaConfig::default()).is_none());
    }

    #[test]
    fn averaging_is_deterministic() {
        let topo = softlayer();
        let make = |seed: u64| {
            let mut p = ScenarioParams::paper_defaults().with_seed(seed);
            p.destinations = 3;
            p.sources = 4;
            p.vm_count = 10;
            build_instance(&topo, &p)
        };
        let sofda = sof_core::Sofda;
        let a = average_with(&sofda, 3, 100, &SofdaConfig::default(), make, 0).unwrap();
        let b = average_with(&sofda, 3, 100, &SofdaConfig::default(), make, 0).unwrap();
        assert_eq!(a.0, b.0);
    }
}
