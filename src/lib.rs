//! # sof — Service Overlay Forest embedding for software-defined cloud networks
//!
//! A full reproduction of *"Service Overlay Forest Embedding for
//! Software-Defined Cloud Networks"* (ICDCS 2017) as a Rust workspace. This
//! facade crate re-exports the member crates:
//!
//! * [`graph`] — weighted-graph substrate (Dijkstra, MST, shortest-path engine,
//!   deterministic topology generators, seedable RNG),
//! * [`steiner`] — Steiner tree portfolio (Mehlhorn/Takahashi 2-approx,
//!   exact Dreyfus–Wagner),
//! * [`kstroll`] — k-stroll solvers (exact, greedy, budgeted `Auto`),
//! * [`core`] — the SOF problem model, SOFDA / SOFDA-SS approximation
//!   algorithms, VNF conflict resolution, cost model, dynamic operations,
//! * [`par`] — deterministic scoped worker pool (`par_map_indexed`,
//!   `SOF_THREADS`) behind the parallel sweeps, `core::SessionPool`, and
//!   the exact solver's branch forking,
//! * [`baselines`] — the paper's comparison algorithms (ST, eST, eNEMP),
//! * [`exact`] — the optimal "CPLEX-column" solver and the IP formulation,
//! * [`solvers`] — the registry of every algorithm behind the object-safe
//!   [`core::Solver`] trait (`solvers::all()`, `solvers::by_name`),
//! * [`topo`] — SoftLayer / Cogent / Inet / testbed topologies and the
//!   named-topology registry specs resolve through,
//! * [`sim`] — flow-level simulation with max-min fairness, video QoE, and the
//!   online request / viewer-churn workloads,
//! * [`runner`] — streaming churn-at-scale simulation: a [`runner::Runner`]
//!   drives a `core::SessionPool` over lazily generated event timelines
//!   (10k+ groups, millions of events) with one stop rule and an
//!   incremental record sink, in memory bounded by the live pool,
//! * [`survive`] — the survivability subsystem: deterministic link/node/
//!   VM/domain failure processes with repair times, protection policies
//!   (reactive / backup paths / standby forest) over `core::OnlineSession`,
//!   and recovery/availability metrics; a session itself knows only the
//!   set of failed elements ([`core::faults`], edited by the
//!   `core::SessionEvent::Fail` / `Repair` events and read by
//!   `OnlineSession::faults`),
//! * [`sdn`] — flow-rule compilation and distributed multi-controller SOFDA,
//! * [`daemon`] — `sofd`, the long-running embedding service: a
//!   dependency-free HTTP/1.1 control plane (`sof serve`) over
//!   [`core::OnlineSession`] with TTL'd sessions, a janitor thread, and
//!   `/v1/stats` observability,
//! * [`spec`] — the declarative [`spec::ScenarioSpec`] layer: experiments
//!   as TOML/JSON files, compiled onto the machinery above, reported as
//!   structured [`spec::RunReport`] JSON lines (the `sof` CLI front end).
//!
//! # Quick start
//!
//! Experiments are **spec files**. The paper's whole evaluation ships as
//! bundled presets, and new scenarios are data, not code:
//!
//! ```text
//! sof list                 # bundled presets (fig7…table2 + demos)
//! sof run fig8             # structured RunReport JSON lines on stdout
//! sof run fig8 --format markdown --seeds 1 --limit 2
//! sof validate my-spec.toml
//! ```
//!
//! The same layer is a library:
//!
//! ```
//! use sof::spec::{run_spec, RunOptions, ScenarioSpec};
//!
//! let spec = ScenarioSpec::from_toml(r#"
//! name = "tiny"
//!
//! [workload]
//! kind = "sweep"
//! solvers = ["SOFDA", "eST"]
//! seeds = 1
//! seed = 7
//!
//! [[workload.axes]]
//! field = "destinations"
//! values = [2, 4]
//! "#)?;
//! let report = run_spec(&spec, &RunOptions::default())?;
//! println!("{}", sof::spec::write_jsonl(&report, false));
//! # Ok::<(), sof::spec::SpecError>(())
//! ```
//!
//! Below the spec layer, solvers remain directly drivable:
//!
//! ```
//! use sof::core::SofdaConfig;
//! use sof::topo::{build_instance, softlayer, ScenarioParams};
//!
//! let inst = build_instance(&softlayer(), &ScenarioParams::paper_defaults());
//! for solver in sof::solvers::comparison_set(false) {
//!     let out = solver.solve(&inst, &SofdaConfig::default())?;
//!     out.forest.validate(&inst)?;
//!     println!("{:>5}: {}", solver.name(), out.cost);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Online embedding
//!
//! For arrival/departure workloads, drive any registered solver through the
//! incremental [`core::OnlineSession`] engine instead of re-solving from
//! scratch. Everything that happens to a session is one
//! [`core::SessionEvent`] — an arrival, a join, a leave, a fail, a repair —
//! stepped through [`core::OnlineSession::apply`]:
//!
//! ```
//! use sof::core::{OnlineConfig, OnlineSession, SessionEvent, SofdaConfig};
//! use sof::sim::{ChurnParams, ChurnStream};
//! use sof::topo::{build_instance, softlayer, ScenarioParams};
//!
//! let topo = softlayer();
//! let mut p = ScenarioParams::paper_defaults().with_seed(7);
//! p.destinations = 4;
//! let inst = build_instance(&topo, &p);
//! let mut session = OnlineSession::new(
//!     inst,
//!     sof::solvers::by_name("SOFDA").expect("registered"),
//!     SofdaConfig::default(),
//!     OnlineConfig::default(),
//! );
//! let mut churn = ChurnStream::new(ChurnParams::softlayer(), 27, 7);
//! let first = session.apply(SessionEvent::Arrive(churn.current().clone()))?;
//! assert!(first.report().is_some_and(|r| r.rebuilt)); // initial embed runs the solver…
//! let next = session.apply(SessionEvent::Arrive(churn.next_request()))?;
//! // …after which viewer churn is handled by §VII-C join/leave dynamics.
//! println!("{:?}", next.report());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sof_baselines as baselines;
pub use sof_core as core;
pub use sof_daemon as daemon;
pub use sof_exact as exact;
pub use sof_graph as graph;
pub use sof_kstroll as kstroll;
pub use sof_par as par;
pub use sof_runner as runner;
pub use sof_sdn as sdn;
pub use sof_sim as sim;
pub use sof_solvers as solvers;
pub use sof_spec as spec;
pub use sof_steiner as steiner;
pub use sof_survive as survive;
pub use sof_topo as topo;
