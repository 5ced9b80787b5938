//! Algorithm 1: SOFDA-SS, the `(2+ρST)`-approximation for a single source.
//!
//! For every candidate last VM `u`: find the cheapest service chain from the
//! source to `u` through `|C|` distinct VMs (k-stroll on the Procedure 1
//! instance), then span `u` and all destinations with a Steiner tree; keep
//! the cheapest combination. Theorem 2 bounds the result by
//! `(2+ρST)·OPT`.

use crate::{
    ChainMetric, DestWalk, SearchContext, ServiceForest, SofInstance, SofdaConfig, SolveError,
    SolveOutcome, SolveStats,
};
use sof_graph::Cost;

/// Solves the single-source SOF problem (Algorithm 1).
///
/// # Errors
///
/// * [`SolveError::SingleSourceOnly`] if the request has multiple sources.
/// * [`SolveError::Infeasible`] when fewer than `|C|` VMs exist.
/// * [`SolveError::Steiner`] if destinations are unreachable.
///
/// # Examples
///
/// ```
/// use sof_core::{Network, Request, ServiceChain, SofInstance, SofdaConfig, solve_sofda_ss};
/// use sof_graph::{Graph, Cost, NodeId};
///
/// // 0 —1→ 1(VM,2) —1→ 2(VM,3) —1→ 3
/// let mut g = Graph::with_nodes(4);
/// for i in 0..3 {
///     g.add_edge(NodeId::new(i), NodeId::new(i + 1), Cost::new(1.0));
/// }
/// let mut net = Network::all_switches(g);
/// net.make_vm(NodeId::new(1), Cost::new(2.0));
/// net.make_vm(NodeId::new(2), Cost::new(3.0));
/// let inst = SofInstance::new(
///     net,
///     Request::new(vec![NodeId::new(0)], vec![NodeId::new(3)], ServiceChain::with_len(2)),
/// )?;
/// let out = solve_sofda_ss(&inst, &SofdaConfig::default())?;
/// assert_eq!(out.cost.total(), Cost::new(8.0)); // 3 links + VMs 2+3
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn solve_sofda_ss(
    instance: &SofInstance,
    config: &SofdaConfig,
) -> Result<SolveOutcome, SolveError> {
    if instance.request.sources.len() != 1 {
        return Err(SolveError::SingleSourceOnly {
            sources: instance.request.sources.len(),
        });
    }
    let source = instance.request.sources[0];
    let network = &instance.network;
    let dests = &instance.request.destinations;
    let chain_len = instance.chain_len();
    let mut stats = SolveStats::default();

    // |C| = 0: the forest is a plain Steiner tree rooted at the source.
    if chain_len == 0 {
        let mut terminals = vec![source];
        terminals.extend_from_slice(dests);
        let tree = config.steiner.solve(network.graph(), &terminals)?;
        stats.steiner_cost = tree.cost;
        let walks = dests
            .iter()
            .map(|&d| {
                let nodes = tree
                    .path_between(network.graph(), source, d)
                    .expect("steiner tree spans all terminals");
                DestWalk {
                    destination: d,
                    source,
                    nodes,
                    vnf_positions: vec![],
                }
            })
            .collect();
        return finish(instance, config, ServiceForest::new(0, walks), stats);
    }

    let vms = network.vms();
    if vms.len() < chain_len {
        return Err(SolveError::Infeasible(format!(
            "chain needs {chain_len} VMs, network has {}",
            vms.len()
        )));
    }
    let cm = ChainMetric::build(network, source, &vms, config.source_cost())
        .ok_or_else(|| SolveError::Infeasible("some VM unreachable from the source".into()))?;

    // One multi-target k-stroll run covers every candidate last VM.
    let mut search = SearchContext::new();
    let chains = cm.chains_to_all_vms_in(chain_len, config.stroll, &mut search);
    stats.stroll_nodes = search.nodes();
    stats.stroll_handovers = search.handovers();
    if chains.is_empty() {
        return Err(SolveError::Infeasible(
            "no service chain with the demanded length exists".into(),
        ));
    }

    let mut best: Option<(Cost, ServiceForest, Cost)> = None;
    for (target, stroll, _chain_cost) in &chains {
        stats.candidate_chains += 1;
        let u = cm.node(*target);
        stats.chains_expanded += 1;
        let (walk, positions) = cm.expand(stroll);
        // Steiner tree spanning the last VM and all destinations.
        let mut terminals = vec![u];
        terminals.extend_from_slice(dests);
        let Ok(tree) = config.steiner.solve(network.graph(), &terminals) else {
            continue;
        };
        let walks: Vec<DestWalk> = dests
            .iter()
            .map(|&d| {
                let tail = tree
                    .path_between(network.graph(), u, d)
                    .expect("steiner tree spans terminals");
                let mut nodes = walk.clone();
                nodes.extend_from_slice(&tail[1..]);
                DestWalk {
                    destination: d,
                    source,
                    nodes,
                    vnf_positions: positions.clone(),
                }
            })
            .collect();
        let forest = ServiceForest::new(chain_len, walks);
        let total = forest.cost(network).total() + config.source_cost();
        if best.as_ref().is_none_or(|(b, _, _)| total < *b) {
            best = Some((total, forest, tree.cost));
        }
    }

    let (_, forest, steiner_cost) =
        best.ok_or_else(|| SolveError::Infeasible("no feasible last VM".into()))?;
    stats.steiner_cost = steiner_cost;
    finish(instance, config, forest, stats)
}

/// Shared epilogue: optional shortening, validation, cost extraction.
pub(crate) fn finish(
    instance: &SofInstance,
    config: &SofdaConfig,
    mut forest: ServiceForest,
    stats: SolveStats,
) -> Result<SolveOutcome, SolveError> {
    if config.shorten {
        forest.shorten(&instance.network);
    }
    forest.validate(instance).map_err(SolveError::Internal)?;
    let cost = forest.cost(&instance.network);
    Ok(SolveOutcome {
        forest,
        cost,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Network, Request, ServiceChain};
    use sof_graph::{Graph, NodeId};

    /// Fig. 3-like fixture: a source, a pool of VMs, two destinations.
    fn fixture(chain_len: usize) -> SofInstance {
        let mut g = Graph::with_nodes(10);
        let edges = [
            (0, 1, 1.0),
            (1, 2, 1.0),
            (2, 3, 1.0),
            (3, 4, 1.0),
            (4, 5, 1.0),
            (5, 6, 1.0),
            (6, 7, 1.0),
            (2, 8, 2.0),
            (5, 9, 2.0),
            (0, 3, 3.0),
            (1, 6, 4.0),
        ];
        for (u, v, c) in edges {
            g.add_edge(NodeId::new(u), NodeId::new(v), Cost::new(c));
        }
        let mut net = Network::all_switches(g);
        for (vm, cost) in [(1, 1.0), (2, 2.0), (3, 1.0), (4, 2.0), (5, 1.0), (6, 3.0)] {
            net.make_vm(NodeId::new(vm), Cost::new(cost));
        }
        SofInstance::new(
            net,
            Request::new(
                vec![NodeId::new(0)],
                vec![NodeId::new(8), NodeId::new(9)],
                ServiceChain::with_len(chain_len),
            ),
        )
        .unwrap()
    }

    #[test]
    fn produces_valid_forest_for_various_chain_lengths() {
        for len in 0..=4 {
            let inst = fixture(len);
            let out = solve_sofda_ss(&inst, &SofdaConfig::default()).unwrap();
            out.forest.validate(&inst).unwrap();
            assert_eq!(out.forest.walks.len(), 2);
            assert_eq!(out.forest.chain_len, len);
            let stats = out.forest.stats();
            assert_eq!(stats.used_vms, len);
            // Every candidate is a whole forest, expanded once.
            let s = out.stats;
            assert_eq!(s.chains_expanded, s.candidate_chains, "len {len}");
        }
    }

    #[test]
    fn rejects_multi_source() {
        let mut inst = fixture(1);
        inst.request.sources.push(NodeId::new(7));
        let err = solve_sofda_ss(&inst, &SofdaConfig::default()).unwrap_err();
        assert!(matches!(err, SolveError::SingleSourceOnly { sources: 2 }));
    }

    #[test]
    fn infeasible_when_chain_longer_than_vm_pool() {
        let inst = fixture(7); // only 6 VMs
        let err = solve_sofda_ss(&inst, &SofdaConfig::default()).unwrap_err();
        assert!(matches!(err, SolveError::Infeasible(_)));
    }

    #[test]
    fn doc_example_cost() {
        let mut g = Graph::with_nodes(4);
        for i in 0..3 {
            g.add_edge(NodeId::new(i), NodeId::new(i + 1), Cost::new(1.0));
        }
        let mut net = Network::all_switches(g);
        net.make_vm(NodeId::new(1), Cost::new(2.0));
        net.make_vm(NodeId::new(2), Cost::new(3.0));
        let inst = SofInstance::new(
            net,
            Request::new(
                vec![NodeId::new(0)],
                vec![NodeId::new(3)],
                ServiceChain::with_len(2),
            ),
        )
        .unwrap();
        let out = solve_sofda_ss(&inst, &SofdaConfig::default()).unwrap();
        assert_eq!(out.cost.total(), Cost::new(8.0));
        assert_eq!(out.cost.setup, Cost::new(5.0));
    }

    #[test]
    fn appendix_d_source_cost_added() {
        let inst = fixture(2);
        let base = solve_sofda_ss(&inst, &SofdaConfig::default()).unwrap();
        let with_cost = solve_sofda_ss(
            &inst,
            &SofdaConfig {
                source_setup_cost: Some(Cost::new(5.0)),
                ..SofdaConfig::default()
            },
        )
        .unwrap();
        // The reported forest cost excludes the source fee, but the chosen
        // forest can only be weakly worse under the fee's influence.
        assert!(with_cost.cost.total() + Cost::new(5.0) >= base.cost.total());
    }
}
