//! Cross-crate integration tests: the full pipeline from topology through
//! embedding, exactness checks, rule compilation, distribution and QoE.

use sof::core::{solve_sofda, solve_sofda_ss, SofdaConfig};
use sof::exact::{solve_exact, IpFormulation};
use sof::graph::{Cost, NodeId, Rng64};
use sof::sdn::{distributed_sofda, RuleTable};
use sof::topo::{build_instance, cogent, softlayer, testbed, ScenarioParams};

fn small_params(seed: u64) -> ScenarioParams {
    let mut p = ScenarioParams::paper_defaults().with_seed(seed);
    p.destinations = 4;
    p.sources = 5;
    p.vm_count = 12;
    p
}

#[test]
fn sofda_within_theorem3_bound_of_exact() {
    // Theorem 3 with ρST = 2: SOFDA ≤ 6·OPT. Empirically it is far closer
    // (the paper reports near-optimal); we assert both the hard bound and a
    // loose practical envelope.
    let topo = softlayer();
    let mut worst: f64 = 0.0;
    for seed in 0..6 {
        let inst = build_instance(&topo, &small_params(seed));
        let sofda = solve_sofda(&inst, &SofdaConfig::default()).unwrap();
        let exact = solve_exact(&inst, 600).unwrap();
        // `exact.cost` is OPT when proven, otherwise an upper bound on OPT;
        // either way OPT ≥ lower_bound and SOFDA ≤ 6·OPT ⇒ SOFDA ≤ 6·cost.
        let sofda_cost = sofda.cost.total().value();
        assert!(
            sofda_cost >= exact.lower_bound.value() - 1e-9,
            "seed {seed}: SOFDA beat the relaxation bound"
        );
        assert!(
            sofda_cost <= 6.0 * exact.cost.value() + 1e-9,
            "seed {seed}: 3ρST bound violated"
        );
        if exact.optimal {
            assert!(sofda_cost >= exact.cost.value() - 1e-9);
            worst = worst.max(sofda_cost / exact.cost.value());
        }
    }
    assert!(worst < 2.0, "empirical ratio unexpectedly bad: {worst}");
}

#[test]
fn sofda_ss_within_theorem2_bound() {
    let topo = softlayer();
    for seed in 10..14 {
        let mut p = small_params(seed);
        p.sources = 1;
        let inst = build_instance(&topo, &p);
        let ss = solve_sofda_ss(&inst, &SofdaConfig::default()).unwrap();
        let exact = solve_exact(&inst, 600).unwrap();
        let ratio = ss.cost.total().value() / exact.cost.value();
        // Theorem 2: (2 + ρST) = 4 with ρST = 2. When optimality is not
        // proven, `exact.cost` still upper-bounds OPT, so the ≤ 4 check is
        // valid; the ≥ 1 check only applies to proven optima.
        assert!(ratio <= 4.0 + 1e-9, "seed {seed}: {ratio}");
        if exact.optimal {
            assert!(ratio >= 1.0 - 1e-9, "seed {seed}: {ratio}");
        }
    }
}

#[test]
fn every_solver_satisfies_the_paper_ip() {
    let topo = softlayer();
    for seed in 20..24 {
        let inst = build_instance(&topo, &small_params(seed));
        let ip = IpFormulation::build(&inst);
        for (name, forest, cost) in [
            {
                let o = solve_sofda(&inst, &SofdaConfig::default()).unwrap();
                ("sofda", o.forest, o.cost.total())
            },
            {
                let o = sof::baselines::solve_est(&inst, &SofdaConfig::default()).unwrap();
                ("est", o.forest, o.cost.total())
            },
            {
                let o = sof::baselines::solve_enemp(&inst, &SofdaConfig::default()).unwrap();
                ("enemp", o.forest, o.cost.total())
            },
            {
                let o = sof::baselines::solve_st(&inst, &SofdaConfig::default()).unwrap();
                ("st", o.forest, o.cost.total())
            },
        ] {
            let obj = ip
                .check_forest(&forest)
                .unwrap_or_else(|e| panic!("{name} violates IP on seed {seed}: {e}"));
            assert!(obj.approx_eq(cost), "{name} objective mismatch on {seed}");
        }
    }
}

#[test]
fn compiled_rules_deliver_on_real_topologies() {
    for (topo, seeds) in [(softlayer(), 30..33u64), (cogent(), 33..35)] {
        for seed in seeds {
            let inst = build_instance(&topo, &small_params(seed));
            let out = solve_sofda(&inst, &SofdaConfig::default()).unwrap();
            let rules = RuleTable::compile(&out.forest);
            assert!(
                rules.delivers(&inst.network, &out.forest),
                "{} seed {seed}",
                topo.name
            );
        }
    }
}

#[test]
fn distributed_controllers_agree_with_centralized() {
    let topo = cogent();
    let mut p = small_params(40);
    p.destinations = 5;
    let inst = build_instance(&topo, &p);
    let central = solve_sofda(&inst, &SofdaConfig::default()).unwrap();
    let dist = distributed_sofda(&inst, 4, &SofdaConfig::default()).unwrap();
    dist.outcome.forest.validate(&inst).unwrap();
    let (c, d) = (
        central.cost.total().value(),
        dist.outcome.cost.total().value(),
    );
    // The gap measured on SoftLayer and Cogent (docs/DISTRIBUTED.md): at
    // most 7.4 % costlier and 2.9 % cheaper.
    assert!(
        d <= c * 1.08 && d >= c * 0.97,
        "centralized {c} vs distributed {d}"
    );
}

#[test]
fn qoe_pipeline_prefers_better_embeddings() {
    // Aggregate over seeds: SOFDA's rebuffering must not exceed eST's
    // (Table II's ordering), because it picks less congested paths.
    use sof::sim::{simulate_sessions, EnvironmentProfile, PlayerConfig, Session};
    use std::collections::HashMap;
    let mut totals = [0.0f64; 2]; // [sofda, est]
    for seed in 0..8u64 {
        let mut rng = Rng64::seed_from(9000 + seed);
        let topo = testbed();
        let mut net = sof::core::Network::all_switches(topo.graph.clone());
        for v in 0..14 {
            let vm = net.add_node(sof::core::NodeKind::Vm, Cost::new(1.0));
            net.graph_mut().add_edge(vm, NodeId::new(v), Cost::ZERO);
        }
        let picks = rng.sample_indices(14, 6);
        let inst = sof::core::SofInstance::new(
            net,
            sof::core::Request::new(
                vec![NodeId::new(picks[0]), NodeId::new(picks[1])],
                picks[2..6].iter().map(|&i| NodeId::new(i)).collect(),
                sof::core::ServiceChain::from_names(["transcoder", "watermark"]),
            ),
        )
        .unwrap();
        let mut caps: HashMap<sof::graph::EdgeId, f64> = HashMap::new();
        for (e, edge) in inst.network.graph().edges() {
            let stub = edge.u.index() >= 14 || edge.v.index() >= 14;
            caps.insert(
                e,
                if stub {
                    1000.0
                } else {
                    rng.range_f64(4.5, 9.0)
                },
            );
        }
        for (slot, out) in [
            solve_sofda(&inst, &SofdaConfig::default()).unwrap(),
            sof::baselines::solve_est(&inst, &SofdaConfig::default()).unwrap(),
        ]
        .into_iter()
        .enumerate()
        {
            // Multicast: one session per service tree.
            let mut by_tree: std::collections::BTreeMap<
                NodeId,
                std::collections::BTreeSet<sof::graph::EdgeId>,
            > = Default::default();
            for w in &out.forest.walks {
                let entry = by_tree.entry(w.source).or_default();
                for p in w.nodes.windows(2) {
                    if let Some(e) = inst.network.graph().edge_between(p[0], p[1]) {
                        entry.insert(e);
                    }
                }
            }
            let sessions: Vec<Session> = by_tree
                .values()
                .map(|links| Session {
                    links: links.iter().copied().collect(),
                })
                .collect();
            let qoe = simulate_sessions(
                &sessions,
                &caps,
                &PlayerConfig::default(),
                &EnvironmentProfile::hardware_testbed(),
                1.25,
            );
            totals[slot] += qoe
                .iter()
                .filter(|q| q.rebuffering_s.is_finite())
                .map(|q| q.rebuffering_s)
                .sum::<f64>();
        }
    }
    assert!(
        totals[0] <= totals[1] * 1.1,
        "SOFDA rebuffering {} vs eST {}",
        totals[0],
        totals[1]
    );
}

#[test]
fn replicated_vms_support_repeated_functions() {
    // One physical VM hosting two VNFs via replication (§III's device).
    let mut g = sof::graph::Graph::with_nodes(3);
    g.add_edge(NodeId::new(0), NodeId::new(1), Cost::new(1.0));
    g.add_edge(NodeId::new(1), NodeId::new(2), Cost::new(1.0));
    let mut net = sof::core::Network::all_switches(g);
    net.make_vm(NodeId::new(1), Cost::new(2.0));
    net.replicate_vm(NodeId::new(1), 1);
    let inst = sof::core::SofInstance::new(
        net,
        sof::core::Request::new(
            vec![NodeId::new(0)],
            vec![NodeId::new(2)],
            sof::core::ServiceChain::with_len(2),
        ),
    )
    .unwrap();
    let out = solve_sofda(&inst, &SofdaConfig::default()).unwrap();
    out.forest.validate(&inst).unwrap();
    assert_eq!(out.forest.stats().used_vms, 2);
}
