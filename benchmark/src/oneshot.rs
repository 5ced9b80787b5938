//! `oneshot-kstroll` and `oneshot-inet5k`: one op is one
//! `sof_core::solve_sofda` on a fresh instance.
//!
//! The two share every line of code and differ only in sizes, which put
//! the time in opposite layers: on Cogent with 35 VMs and a chain of 4 the
//! k-stroll search is nearly all of a solve, on a 5 000-node Inet graph
//! with the paper's defaults the cold shortest-path trees behind the chain
//! metric are.
//!
//! A traced round follows each solve with a *layer replay*: the pipeline
//! `solve_sofda` runs up to its Steiner tree (Procedure 3), rebuilt here
//! from the crates' public functions on a fresh copy of the instance, with
//! a span around each call. The replayed tree must cost exactly what the
//! solve reported, so the replay measures the pipeline the solver ran.

use crate::engine::{self, ratio};
use crate::stats::mean;
use crate::trace::Tracer;
use crate::workload::{Round, Scale, SetupClock, Workload};
use sof_core::{solve_sofda, ChainMetric, SofInstance, SofdaConfig, SolveOutcome};
use sof_graph::{Cost, Graph, NodeId, PathEngineStats, Rng64, ShortestPaths};
use sof_topo::{build_instance, cogent, inet_sized, ScenarioParams, Topology};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Which network the instances are drawn on.
#[derive(Clone, Copy, Debug)]
pub enum Net {
    /// The 190-node Cogent backbone (fixed adjacency; the seed draws costs,
    /// VMs and endpoints).
    Cogent,
    /// `inet_sized(nodes, 2 × nodes, dcs, seed)`.
    Inet {
        /// Access nodes.
        nodes: usize,
        /// Data-center nodes.
        dcs: usize,
    },
}

/// Sizes of one oneshot workload.
#[derive(Clone, Copy, Debug)]
pub struct Oneshot {
    net: Net,
    vm_count: usize,
    chain_len: usize,
    ops: usize,
    seed: u64,
}

impl Oneshot {
    /// `oneshot-kstroll`: Fig. 9's regime, chain of 4 over 35 VMs on Cogent.
    pub fn kstroll(seed: u64, scale: Scale) -> Oneshot {
        Oneshot {
            net: Net::Cogent,
            vm_count: scale.pick(35, 35, 20),
            chain_len: 4,
            ops: scale.pick(100, 40, 12),
            seed,
        }
    }

    /// `oneshot-inet5k`: Table I's regime, paper defaults on 5 000 nodes.
    pub fn inet5k(seed: u64, scale: Scale) -> Oneshot {
        let (nodes, dcs) = scale.pick((5000, 2000), (5000, 2000), (600, 240));
        Oneshot {
            net: Net::Inet { nodes, dcs },
            vm_count: 25,
            chain_len: 3,
            ops: scale.pick(48, 20, 12),
            seed,
        }
    }

    fn topology(&self) -> Topology {
        match self.net {
            Net::Cogent => cogent(),
            Net::Inet { nodes, dcs } => inet_sized(nodes, nodes * 2, dcs, self.seed),
        }
    }

    /// The `i`-th instance of the script: a pure function of the seed.
    fn params(&self, i: usize) -> ScenarioParams {
        ScenarioParams {
            vm_count: self.vm_count,
            sources: 14,
            destinations: 6,
            chain_len: self.chain_len,
            setup_scale: 1.0,
            seed: self.seed.wrapping_mul(1_000_003).wrapping_add(i as u64),
        }
    }
}

/// Checks one solve the way a user would: the forest validates against the
/// instance and costs what the outcome says it costs.
fn valid(instance: &SofInstance, out: &SolveOutcome) -> bool {
    out.forest.validate(instance).is_ok()
        && out.forest.cost(&instance.network).total() == out.cost.total()
}

/// Procedure 3 up to the Steiner tree, from public functions, on an
/// instance whose path engine is cold. Returns the tree's cost.
fn replay(
    tracer: &mut Tracer,
    op: u32,
    instance: &SofInstance,
    config: &SofdaConfig,
    round: &mut Round,
) -> Result<Cost, String> {
    let network = &instance.network;
    let sources = &instance.request.sources;
    let vms = network.vms();
    let op = Some(op);

    let vm = *vms.first().ok_or("instance without VMs")?;
    tracer.span("graph.cold_tree", op, |_| {
        black_box(ShortestPaths::from_source(network.graph(), vm));
    });

    let mut aux = Graph::with_nodes(network.node_count());
    for (_, e) in network.graph().edges() {
        aux.add_edge(e.u, e.v, e.cost);
    }
    let shat = aux.add_node();
    let src_dup: Vec<NodeId> = sources.iter().map(|_| aux.add_node()).collect();
    for &d in &src_dup {
        aux.add_edge(shat, d, Cost::ZERO);
    }
    let mut vm_dup: BTreeMap<NodeId, NodeId> = BTreeMap::new();
    for &v in &vms {
        let d = aux.add_node();
        aux.add_edge(d, v, Cost::ZERO);
        vm_dup.insert(v, d);
    }

    let mut rng = Rng64::seed_from(config.seed);
    for (si, &s) in sources.iter().enumerate() {
        let built = tracer.span("core.chain_metric", op, |_| {
            ChainMetric::build(network, s, &vms, config.source_cost())
        });
        let Some(cm) = built else { continue };
        round.fact("metrics", 1.0);
        round.fact("dense_metrics", f64::from(u8::from(cm.metric().is_dense())));
        let chains = tracer.span("kstroll.all_targets", op, |_| {
            cm.chains_to_all_vms(instance.chain_len(), config.stroll, &mut rng)
        });
        for (target, _, chain_cost) in chains {
            aux.add_edge(src_dup[si], vm_dup[&cm.node(target)], chain_cost);
        }
    }

    let mut terminals = vec![shat];
    terminals.extend_from_slice(&instance.request.destinations);
    let tree = tracer
        .span("steiner.solve", op, |_| {
            config.steiner.solve(&aux, &terminals)
        })
        .map_err(|e| format!("replayed Steiner stage failed: {e}"))?;
    Ok(tree.cost)
}

impl Workload for Oneshot {
    fn round(&mut self, tracer: &mut Tracer) -> Result<Round, String> {
        sof_par::set_threads(1);
        let config = SofdaConfig::default();
        let mut round = Round::default();

        // Set-up steps: the topology, then each instance.
        let mut setup = SetupClock::start();
        let topo = self.topology();
        setup.step();
        let instances: Vec<SofInstance> = (0..self.ops)
            .map(|i| {
                let instance = tracer.span("topo.build_instance", Some(i as u32), |_| {
                    build_instance(&topo, &self.params(i))
                });
                setup.step();
                instance
            })
            .collect();
        round.setup_steps = setup.steps;

        // Each instance is dropped after its op: a solved instance keeps
        // its shortest-path trees, which on 5 000 nodes is megabytes each.
        for (i, instance) in instances.into_iter().enumerate() {
            let op = i as u32;
            let t = Instant::now();
            let solved = tracer.span("core.solve_sofda", Some(op), |_| {
                solve_sofda(&instance, &config)
            });
            round.op_ms.push(t.elapsed().as_secs_f64() * 1e3);

            let out = match solved {
                Ok(out) if valid(&instance, &out) => out,
                _ => {
                    round.failed += 1;
                    continue;
                }
            };
            round.cost_sum += out.cost.total().value();
            round.embeds += 1;
            round.count("candidate_chains", out.stats.candidate_chains as u64);
            round.count("conflicts", out.stats.conflicts.total() as u64);
            engine::count(
                &mut round,
                PathEngineStats::default(),
                instance.network.paths().stats(),
            );

            if tracer.is_on() {
                let fresh = build_instance(&topo, &self.params(i));
                let tree_cost = tracer.span("replay", Some(op), |t| {
                    replay(t, op, &fresh, &config, &mut round)
                })?;
                if tree_cost != out.stats.steiner_cost {
                    eprintln!(
                        "op {i}: replayed Steiner tree costs {tree_cost}, the solve reported {}",
                        out.stats.steiner_cost
                    );
                    round.failed += 1;
                }
                round.fact("steiner_cost", out.stats.steiner_cost.value());
            }
        }
        round.wall_s = round.op_ms.iter().sum::<f64>() / 1e3;
        Ok(round)
    }

    fn layers(&self, r: &Round, best_ms: &[f64], tracer: &Tracer) -> Vec<(&'static str, f64)> {
        let ops = best_ms.len();
        let span_mean = |name: &str| mean(&tracer.op_ms(name, ops));
        let op_ms = mean(best_ms);
        let cold_tree = span_mean("graph.cold_tree");
        let chain_metric = span_mean("core.chain_metric");
        let all_targets = span_mean("kstroll.all_targets");
        let steiner = span_mean("steiner.solve");
        let replayed = chain_metric + all_targets + steiner;
        let mut out = engine::layers(r, cold_tree);
        out.extend([
            ("topo.build_instance_ms", span_mean("topo.build_instance")),
            ("core.chain_metric_ms", chain_metric),
            ("kstroll.all_targets_ms", all_targets),
            ("kstroll.candidate_chains", r.per_op("candidate_chains")),
            (
                "kstroll.dense_share",
                ratio(r.noted("dense_metrics"), r.noted("metrics")),
            ),
            ("steiner.solve_ms", steiner),
            ("steiner.tree_cost", r.noted("steiner_cost") / ops as f64),
            ("core.rest_ms", op_ms - replayed),
            ("core.conflicts_per_op", r.per_op("conflicts")),
            ("replay.coverage", ratio(replayed, op_ms)),
        ]);
        out
    }
}
