//! Distributed SOFDA (§VI): controllers own network domains and send the
//! leader their border distance matrices, and the leader embeds the forest
//! on the assembled abstract topology. The controllers run in process; the
//! message count is what a deployment would send east-west.
//!
//! Run with `cargo run --release --example multi_controller`.

use sof::core::SofdaConfig;
use sof::sdn::distributed_sofda;
use sof::topo::{build_instance, cogent, ScenarioParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let topo = cogent();
    let mut p = ScenarioParams::paper_defaults().with_seed(11);
    p.sources = 6;
    p.destinations = 8;
    let inst = build_instance(&topo, &p);

    let central = sof::core::solve_sofda(&inst, &SofdaConfig::default())?;
    println!("centralized : cost {}", central.cost);

    for k in [2, 4, 8] {
        let out = distributed_sofda(&inst, k, &SofdaConfig::default())?;
        out.outcome.forest.validate(&inst)?;
        println!(
            "{k:>2} domains  : cost {}  ({} east-west messages)",
            out.outcome.cost, out.message_count
        );
    }
    Ok(())
}
