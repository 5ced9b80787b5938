//! Measures the `sof_par` wall-clock speedup on the two heaviest parallel
//! layers — per-seed sweep averaging and the exact solver's forked branch
//! evaluation — and verifies the determinism guarantee on the way: the
//! parallel results must be bit-identical to the 1-thread run.
//!
//! ```sh
//! cargo run --release --example par_speedup            # all cores vs 1 thread
//! SOF_THREADS=4 cargo run --release --example par_speedup
//! ```

use sof::core::{Network, Request, ServiceChain, SofInstance, Sofda, SofdaConfig};
use sof::exact::solve_exact_with;
use sof::graph::{generators, Cost, CostRange, NodeId, Rng64};
use sof::spec::oneshot::average_with;
use sof::topo::{build_instance, softlayer, ScenarioParams};
use std::time::Instant;

/// A 5-destination instance with scarce VMs on a larger substrate, so the
/// branch-and-bound has real work per child relaxation (chain 3 ⇒ 4 child
/// branches forked per expansion).
fn exact_instance(seed: u64) -> SofInstance {
    let mut rng = Rng64::seed_from(seed);
    let g = generators::gnp_connected(60, 0.08, CostRange::new(1.0, 6.0), &mut rng);
    let mut net = Network::all_switches(g);
    let picks = rng.sample_indices(60, 5 + 2 + 5);
    for &v in &picks[..5] {
        net.make_vm(NodeId::new(v), Cost::new(rng.range_f64(0.5, 4.0)));
    }
    SofInstance::new(
        net,
        Request::new(
            vec![NodeId::new(picks[5]), NodeId::new(picks[6])],
            picks[7..12].iter().map(|&i| NodeId::new(i)).collect(),
            ServiceChain::with_len(3),
        ),
    )
    .unwrap()
}

fn main() {
    let threads = sof::par::current_threads();
    println!("# sof_par speedup ({threads} threads vs 1)\n");

    // Layer 1: per-seed sweep averaging (what every fig binary does).
    let topo = softlayer();
    let make = |seed: u64| {
        let mut p = ScenarioParams::paper_defaults().with_seed(seed);
        p.destinations = 10;
        p.sources = 26;
        build_instance(&topo, &p)
    };
    let sofda = Sofda;
    let time_avg = |t: usize| {
        let t0 = Instant::now();
        let out = average_with(&sofda, 48, 9000, &SofdaConfig::default(), make, t).unwrap();
        (t0.elapsed().as_secs_f64(), out)
    };
    let (serial_s, serial_avg) = time_avg(1);
    let (par_s, par_avg) = time_avg(threads);
    assert_eq!(
        serial_avg.0.to_bits(),
        par_avg.0.to_bits(),
        "averaging diverged across thread counts"
    );
    println!(
        "SOFDA averaging, 48 seeds (SoftLayer, |S|=26, |D|=10): {serial_s:.2} s → {par_s:.2} s \
         ({:.1}×, mean cost {:.1})",
        serial_s / par_s.max(1e-9),
        par_avg.0
    );

    // Layer 2: exact branch-and-bound at 5 destinations.
    let inst = exact_instance(42);
    let time_exact = |t: usize| {
        let t0 = Instant::now();
        let out = solve_exact_with(&inst, 300, t).unwrap();
        (t0.elapsed().as_secs_f64(), out)
    };
    let (serial_s, serial_out) = time_exact(1);
    let (par_s, par_out) = time_exact(threads);
    assert_eq!(
        serial_out.cost.value().to_bits(),
        par_out.cost.value().to_bits(),
        "exact search diverged across thread counts"
    );
    assert_eq!(serial_out.nodes_explored, par_out.nodes_explored);
    println!(
        "solve_exact, 5 destinations, chain 3 ({} B&B nodes, optimal={}): \
         {serial_s:.2} s → {par_s:.2} s ({:.1}×, cost {})",
        par_out.nodes_explored,
        par_out.optimal,
        serial_s / par_s.max(1e-9),
        par_out.cost
    );
}
