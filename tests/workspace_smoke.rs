//! Workspace-wiring smoke test: drive the full pipeline through the `sof::`
//! facade re-exports only, and pin down determinism of the seeded path.

use sof::core::{solve_sofda, SofdaConfig};
use sof::topo::{build_instance, softlayer, ScenarioParams};

fn small_params(seed: u64) -> ScenarioParams {
    let mut p = ScenarioParams::paper_defaults().with_seed(seed);
    p.destinations = 4;
    p.sources = 5;
    p.vm_count = 12;
    p
}

/// `topo::build_instance` → `core::solve_sofda` → `forest.validate`, all via
/// the facade, twice with the same `Rng64` seed: byte-identical outcomes.
#[test]
fn facade_pipeline_is_deterministic() {
    let topo = softlayer();
    let run = |seed: u64| {
        let inst = build_instance(&topo, &small_params(seed));
        let out = solve_sofda(&inst, &SofdaConfig::default().with_seed(seed)).unwrap();
        out.forest.validate(&inst).unwrap();
        (inst, out)
    };
    let (inst_a, out_a) = run(42);
    let (inst_b, out_b) = run(42);
    // Same seed → same generated instance…
    assert_eq!(inst_a.request.sources, inst_b.request.sources);
    assert_eq!(inst_a.request.destinations, inst_b.request.destinations);
    assert_eq!(inst_a.network.vms(), inst_b.network.vms());
    // …and the same embedded forest at the same cost.
    assert_eq!(out_a.forest, out_b.forest);
    assert!(out_a.cost.total().approx_eq(out_b.cost.total()));

    // A different seed exercises a genuinely different instance (guards
    // against the generator ignoring its seed).
    let (inst_c, _) = run(43);
    assert!(
        inst_a.request.sources != inst_c.request.sources
            || inst_a.request.destinations != inst_c.request.destinations
            || inst_a.network.vms() != inst_c.network.vms(),
        "seed 43 reproduced seed 42's instance exactly"
    );
}

/// The distributed solver is also deterministic for a fixed seed: the
/// partition is drawn from it, and the leader assembles the controllers'
/// matrices in domain order.
#[test]
fn distributed_pipeline_is_deterministic() {
    let topo = softlayer();
    let inst = build_instance(&topo, &small_params(7));
    let run = || {
        sof::sdn::distributed_sofda(&inst, 3, &SofdaConfig::default().with_seed(7))
            .unwrap()
            .outcome
    };
    let (a, b) = (run(), run());
    assert_eq!(a.forest, b.forest);
    assert!(a.cost.total().approx_eq(b.cost.total()));
}

/// Every re-exported member crate is reachable through the facade.
#[test]
fn facade_reexports_are_wired() {
    use sof::graph::{Cost, Graph, NodeId};

    // graph
    let mut g = Graph::with_nodes(3);
    g.add_edge(NodeId::new(0), NodeId::new(1), Cost::new(1.0));
    g.add_edge(NodeId::new(1), NodeId::new(2), Cost::new(1.0));
    // steiner
    let tree = sof::steiner::mehlhorn(&g, &[NodeId::new(0), NodeId::new(2)]).unwrap();
    assert_eq!(tree.cost, Cost::new(2.0));
    // kstroll
    let m = sof::kstroll::DenseMetric::from_fn(3, |i, j| Cost::new((i as f64 - j as f64).abs()));
    assert_eq!(
        sof::kstroll::greedy_stroll(&m, 0, 2, 3).unwrap().cost,
        Cost::new(2.0)
    );
    // core + exact + baselines + sdn on one tiny shared instance
    let mut net = sof::core::Network::all_switches(g);
    net.make_vm(NodeId::new(1), Cost::new(1.0));
    let inst = sof::core::SofInstance::new(
        net,
        sof::core::Request::new(
            vec![NodeId::new(0)],
            vec![NodeId::new(2)],
            sof::core::ServiceChain::with_len(1),
        ),
    )
    .unwrap();
    let out = solve_sofda(&inst, &SofdaConfig::default()).unwrap();
    let exact = sof::exact::solve_exact(&inst, 100).unwrap();
    assert!(out.cost.total().value() >= exact.cost.value() - 1e-9);
    let st = sof::baselines::solve_st(&inst, &SofdaConfig::default()).unwrap();
    assert!(st.cost.total().value() >= exact.cost.value() - 1e-9);
    let rules = sof::sdn::RuleTable::compile(&out.forest);
    assert!(rules.delivers(&inst.network, &out.forest));
}
