//! Online deployment (Fig. 12) through the spec layer: one long-lived
//! multicast group churns as viewers come and go, served by the
//! incremental `OnlineSession` engine with the **cost-divergence** rebuild
//! policy — the session re-runs the solver only when the standing
//! forest's congestion-aware cost drifts past `drift ×` the cost measured
//! at the last full solve. Every 8 arrivals the next VM of the element
//! universe fails (the `sof_survive` failure round churn-at-scale runs
//! too); a session whose forest used it drops the forest and rebuilds
//! around the failure on the next arrival. Every knob below is spec data,
//! so the identical scenario runs from a file via `sof run <spec.toml>`.
//!
//! Run with `cargo run --release --example online_deployment`.

use sof::spec::{run_spec, Detail, RunOptions, ScenarioSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = ScenarioSpec::from_toml(
        r#"
name = "online-demo"
label = "Demo"
title = "online deployment"
description = "SoftLayer viewer churn, cost-drift rebuilds, VM failure injection"

[topology]
name = "softlayer"

[online]
drift = 1.8

[workload]
kind = "online"
seed = 7
solvers = ["SOFDA"]

[[workload.groups]]
requests = 20
vms_per_dc = 5
churn = { sources = [8, 12], destinations = [13, 17], chain_len = 3, demand_mbps = 5.0, leaves = [1, 3], joins = [1, 3] }

[workload.failures]
every = 8
count = 1
"#,
    )?;
    let report = run_spec(&spec, &RunOptions::default())?;
    println!("{}", sof::spec::render_markdown(&report));

    // The structured report exposes what the session engine did.
    for section in &report.sections {
        if let Detail::Online(d) = &section.detail {
            for session in &d.sessions {
                let s = &session.session;
                println!(
                    "{}: {} arrivals → {} full solves, {} incremental events \
                     ({} joins, {} leaves), {} injected VM failure(s)",
                    session.label,
                    s.full_solves + s.incremental_events,
                    s.full_solves,
                    s.incremental_events,
                    s.joins,
                    s.leaves,
                    d.vm_failures,
                );
                assert!(
                    s.incremental_events > s.full_solves,
                    "churn should mostly be served incrementally"
                );
            }
        }
    }
    Ok(())
}
