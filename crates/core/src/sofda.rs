//! Algorithm 2: SOFDA, the `3ρST`-approximation for the general SOF problem.
//!
//! Procedure 3 builds an auxiliary graph `𝐆`: the real network, plus a
//! virtual super-source `ŝ`, a duplicate `v̂` per source, a duplicate `û`
//! per VM, zero-cost edges `ŝ–v̂` and `û–u`, and a *virtual edge* `v̂–û`
//! per candidate service chain (cost = cheapest `|C|`-VM walk from `v` to
//! `u`, via k-stroll). A Steiner tree spanning `ŝ` and all destinations in
//! `𝐆` then simultaneously selects sources, chains and distribution trees;
//! Lemma 2 bounds its cost by `3·OPT`. The selected chains are deployed
//! through [`WalkSet`] (Procedure 4), which resolves VNF conflicts without
//! adding links or VMs, preserving Theorem 3's `3ρST` bound.
//!
//! Every candidate is priced as a stroll; only the chains the Steiner tree
//! keeps — at most `|D|` of the `|S|·|M|` candidates — are expanded into
//! walks (Procedure 2), at deployment. Expanding later changes no bit:
//! [`ChainMetric::expand`] reads only the stroll and the shortest-path
//! trees its metric holds, and nothing between pricing and deployment
//! touches either, so each deployed walk is the one an eager expansion
//! would have stored, and no `PathEngine` call is added or moved.

use crate::{
    ChainMetric, ChainWalk, DestWalk, SearchContext, ServiceForest, SofInstance, SofdaConfig,
    SolveError, SolveOutcome, SolveStats, VmBlock, WalkSet,
};
use sof_graph::{Cost, Graph, NodeId};
use sof_kstroll::Stroll;
use sof_steiner::SteinerTree;
use std::collections::{BTreeMap, HashMap};

/// Chain tails grouped by `(source index, anchor VM)`: each entry lists the
/// destinations anchored there with the real anchor-to-destination path.
type ChainTails = BTreeMap<(usize, NodeId), Vec<(NodeId, Vec<NodeId>)>>;

/// Solves the general multi-source SOF problem (Algorithm 2).
///
/// # Errors
///
/// * [`SolveError::Infeasible`] when the chain cannot be realized.
/// * [`SolveError::Steiner`] when destinations are unreachable.
///
/// # Examples
///
/// ```
/// use sof_core::{Network, Request, ServiceChain, SofInstance, SofdaConfig, solve_sofda};
/// use sof_graph::{Graph, Cost, NodeId};
///
/// let mut g = Graph::with_nodes(6);
/// for i in 0..5 {
///     g.add_edge(NodeId::new(i), NodeId::new(i + 1), Cost::new(1.0));
/// }
/// let mut net = Network::all_switches(g);
/// net.make_vm(NodeId::new(2), Cost::new(1.0));
/// net.make_vm(NodeId::new(3), Cost::new(1.0));
/// let inst = SofInstance::new(
///     net,
///     Request::new(
///         vec![NodeId::new(0), NodeId::new(5)],
///         vec![NodeId::new(4)],
///         ServiceChain::with_len(1),
///     ),
/// )?;
/// let out = solve_sofda(&inst, &SofdaConfig::default())?;
/// assert!(out.forest.walks.len() == 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn solve_sofda(
    instance: &SofInstance,
    config: &SofdaConfig,
) -> Result<SolveOutcome, SolveError> {
    let network = &instance.network;
    let sources = &instance.request.sources;
    let dests = &instance.request.destinations;
    let chain_len = instance.chain_len();
    let mut stats = SolveStats::default();

    let n = network.node_count();
    let vms = network.vms();
    if vms.len() < chain_len {
        return Err(SolveError::Infeasible(format!(
            "chain needs {chain_len} VMs, network has {}",
            vms.len()
        )));
    }

    // --- Build the auxiliary graph (Procedure 3). -------------------------
    let mut aux = Graph::with_nodes(n);
    for (_, e) in network.graph().edges() {
        aux.add_edge(e.u, e.v, e.cost);
    }
    let shat = aux.add_node();
    let src_dup: Vec<NodeId> = sources.iter().map(|_| aux.add_node()).collect();
    for &d in &src_dup {
        aux.add_edge(shat, d, Cost::ZERO);
    }

    if chain_len == 0 {
        // Degenerate: no VNFs — connect ŝ straight to the sources and let a
        // plain Steiner tree pick the forest.
        for (si, &s) in sources.iter().enumerate() {
            aux.add_edge(src_dup[si], s, Cost::ZERO);
        }
        let tree = steiner_over(&aux, shat, dests, config)?;
        stats.steiner_cost = tree.cost;
        let parent = root_tree(&aux, &tree, shat);
        let mut walks = Vec::with_capacity(dests.len());
        for &d in dests {
            let mut nodes = vec![d];
            let mut cur = d;
            loop {
                let p = *parent
                    .get(&cur)
                    .ok_or_else(|| SolveError::Infeasible(format!("{d} not in tree")))?;
                if p.index() > n {
                    // Reached a source duplicate: the walk starts at `cur`,
                    // which must be the duplicated source itself.
                    break;
                }
                if p == shat {
                    return Err(SolveError::Infeasible(format!(
                        "{d} attached to ŝ directly"
                    )));
                }
                nodes.push(p);
                cur = p;
            }
            nodes.reverse();
            walks.push(DestWalk {
                destination: d,
                source: nodes[0],
                nodes,
                vnf_positions: vec![],
            });
        }
        return crate::sofda_ss::finish(instance, config, ServiceForest::new(0, walks), stats);
    }

    let vm_dup_base = aux.node_count();
    let mut vm_dup: BTreeMap<NodeId, NodeId> = BTreeMap::new();
    for &v in &vms {
        let d = aux.add_node();
        aux.add_edge(d, v, Cost::ZERO);
        vm_dup.insert(v, d);
    }

    // Candidate chains: one virtual edge per (source, last VM), priced by
    // the k-stroll. The VM block is read from the VM trees once; each
    // source adds its row. `priced[si]` keeps source `si`'s metric and its
    // strolls by target index until deployment expands the ones the tree
    // kept.
    let block = VmBlock::new(network, &vms);
    let mut search = SearchContext::new();
    let mut priced: Vec<Option<(ChainMetric, Vec<Option<Stroll>>)>> =
        Vec::with_capacity(sources.len());
    for (si, &s) in sources.iter().enumerate() {
        let Some(cm) = ChainMetric::from_block(&block, s, config.source_cost()) else {
            priced.push(None);
            continue;
        };
        let mut strolls = vec![None; cm.len()];
        for (target, stroll, chain_cost) in
            cm.chains_to_all_vms_in(chain_len, config.stroll, &mut search)
        {
            aux.add_edge(src_dup[si], vm_dup[&cm.node(target)], chain_cost);
            strolls[target] = Some(stroll);
            stats.candidate_chains += 1;
        }
        priced.push(Some((cm, strolls)));
    }
    if stats.candidate_chains == 0 {
        return Err(SolveError::Infeasible(
            "no candidate service chain exists".into(),
        ));
    }

    // --- Steiner tree spanning ŝ ∪ D (Lemma 2 bounds its cost). ----------
    let tree = steiner_over(&aux, shat, dests, config)?;
    stats.steiner_cost = tree.cost;
    let parent = root_tree(&aux, &tree, shat);

    // --- Per destination: find the first virtual edge above it. ----------
    // tails[d] = (source index, anchor VM, real path anchor→d).
    let mut needed_chains: ChainTails = BTreeMap::new();
    for &d in dests {
        let mut tail_rev = vec![d];
        let mut cur = d;
        let (si, anchor) = loop {
            let p = *parent
                .get(&cur)
                .ok_or_else(|| SolveError::Infeasible(format!("{d} not spanned by tree")))?;
            if p.index() >= vm_dup_base {
                // `cur` is the anchor VM; p is its duplicate. One more hop
                // up is the source duplicate of the chain's virtual edge.
                let q = *parent
                    .get(&p)
                    .ok_or_else(|| SolveError::Infeasible("dangling VM duplicate".into()))?;
                let si = q.index().checked_sub(n + 1).filter(|&i| i < src_dup.len());
                let si = si.ok_or_else(|| {
                    SolveError::Infeasible("VM duplicate not fed by a chain".into())
                })?;
                break (si, cur);
            }
            if p == shat || p.index() > n {
                return Err(SolveError::Infeasible(format!(
                    "{d} reached ŝ without passing a service chain"
                )));
            }
            tail_rev.push(p);
            cur = p;
        };
        let tail: Vec<NodeId> = tail_rev.into_iter().rev().collect();
        needed_chains
            .entry((si, anchor))
            .or_default()
            .push((d, tail));
    }

    // --- Deploy chains with conflict resolution (Procedure 4). -----------
    let mut set = WalkSet::new(chain_len);
    let mut slot_of: BTreeMap<(usize, NodeId), usize> = BTreeMap::new();
    for &(si, anchor) in needed_chains.keys() {
        stats.chains_expanded += 1;
        let (nodes, vnf_positions) = priced[si]
            .as_ref()
            .and_then(|(cm, strolls)| Some(cm.expand(strolls[cm.index_of(anchor)?].as_ref()?)))
            .ok_or_else(|| SolveError::Infeasible("tree used a non-candidate chain".into()))?;
        let cw = ChainWalk {
            source: sources[si],
            nodes,
            vnf_positions,
        };
        let slot = set
            .add_walk(cw, network, &mut search)
            .map_err(|e| SolveError::Infeasible(e.to_string()))?;
        slot_of.insert((si, anchor), slot);
    }
    // Note: walk shortening happens at forest level inside `finish`, where
    // it is only kept if the *total* cost improves — per-walk shortening
    // here could break cross-walk sharing and regress the union cost.
    stats.conflicts = set.stats;
    // Each fallback rebuilds one chain on free VMs and expands it.
    stats.chains_expanded += set.stats.fallbacks;
    stats.stroll_nodes = search.nodes();
    stats.stroll_handovers = search.handovers();

    // --- Assemble per-destination walks. ----------------------------------
    // Each chain is taken out of the walk set once; all but the last tail
    // borrow it (single exact-sized allocation per walk), the last one
    // takes ownership of its buffers.
    let mut by_slot: BTreeMap<usize, ChainWalk> = set.into_walks().into_iter().collect();
    let mut walks = Vec::with_capacity(dests.len());
    for (key, tails) in &needed_chains {
        let chain = by_slot
            .remove(&slot_of[key])
            .ok_or_else(|| SolveError::Infeasible("deployed chain lost its slot".into()))?;
        let (last_tail, rest) = tails.split_last().expect("every needed chain has a tail");
        for (d, tail) in rest {
            let mut nodes = Vec::with_capacity(chain.nodes.len() + tail.len() - 1);
            nodes.extend_from_slice(&chain.nodes);
            nodes.extend_from_slice(&tail[1..]);
            walks.push(DestWalk {
                destination: *d,
                source: chain.source,
                nodes,
                vnf_positions: chain.vnf_positions.clone(),
            });
        }
        let (d, tail) = last_tail;
        let source = chain.source;
        let mut nodes = chain.nodes;
        nodes.extend_from_slice(&tail[1..]);
        walks.push(DestWalk {
            destination: *d,
            source,
            nodes,
            vnf_positions: chain.vnf_positions,
        });
    }
    crate::sofda_ss::finish(
        instance,
        config,
        ServiceForest::new(chain_len, walks),
        stats,
    )
}

/// Runs the configured Steiner solver over `ŝ ∪ D`.
fn steiner_over(
    aux: &Graph,
    shat: NodeId,
    dests: &[NodeId],
    config: &SofdaConfig,
) -> Result<SteinerTree, SolveError> {
    let mut terminals = vec![shat];
    terminals.extend_from_slice(dests);
    Ok(config.steiner.solve(aux, &terminals)?)
}

/// Parent map of the tree rooted at `root`.
fn root_tree(aux: &Graph, tree: &SteinerTree, root: NodeId) -> HashMap<NodeId, NodeId> {
    let mut adj: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    for &e in &tree.edges {
        let edge = aux.edge(e);
        adj.entry(edge.u).or_default().push(edge.v);
        adj.entry(edge.v).or_default().push(edge.u);
    }
    let mut parent = HashMap::new();
    let mut stack = vec![root];
    parent.insert(root, root);
    while let Some(u) = stack.pop() {
        for &v in adj.get(&u).into_iter().flatten() {
            if let std::collections::hash_map::Entry::Vacant(slot) = parent.entry(v) {
                slot.insert(u);
                stack.push(v);
            }
        }
    }
    parent.remove(&root);
    parent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve_sofda_ss, Network, Request, ServiceChain};
    use sof_graph::{generators, CostRange, Rng64};

    fn random_instance(
        seed: u64,
        nodes: usize,
        vm_count: usize,
        sources: usize,
        dests: usize,
        chain: usize,
    ) -> SofInstance {
        let mut rng = Rng64::seed_from(seed);
        let g = generators::gnp_connected(nodes, 0.15, CostRange::new(1.0, 8.0), &mut rng);
        place_request(g, &mut rng, vm_count, sources, dests, chain)
    }

    /// [`random_instance`] on a ring, where far-apart sources each feed
    /// chains of their own.
    fn ring_instance(
        seed: u64,
        nodes: usize,
        vm_count: usize,
        sources: usize,
        dests: usize,
        chain: usize,
    ) -> SofInstance {
        let mut rng = Rng64::seed_from(seed);
        let g = generators::ring(nodes, CostRange::new(1.0, 8.0), &mut rng);
        place_request(g, &mut rng, vm_count, sources, dests, chain)
    }

    /// Draws distinct VMs, sources and destinations on `g`, in that order.
    fn place_request(
        g: Graph,
        rng: &mut Rng64,
        vm_count: usize,
        sources: usize,
        dests: usize,
        chain: usize,
    ) -> SofInstance {
        let nodes = g.node_count();
        let mut net = Network::all_switches(g);
        let picks = rng.sample_indices(nodes, vm_count + sources + dests);
        let (vm_ids, rest) = picks.split_at(vm_count);
        let (src_ids, dst_ids) = rest.split_at(sources);
        for &v in vm_ids {
            net.make_vm(NodeId::new(v), Cost::new(rng.range_f64(0.5, 4.0)));
        }
        SofInstance::new(
            net,
            Request::new(
                src_ids.iter().map(|&i| NodeId::new(i)).collect(),
                dst_ids.iter().map(|&i| NodeId::new(i)).collect(),
                ServiceChain::with_len(chain),
            ),
        )
        .unwrap()
    }

    #[test]
    fn random_instances_solve_and_validate() {
        for seed in 0..15 {
            let inst = random_instance(seed, 24, 6, 3, 4, 2);
            let out = solve_sofda(&inst, &SofdaConfig::default().with_seed(seed)).unwrap();
            out.forest.validate(&inst).unwrap();
            assert_eq!(out.forest.walks.len(), 4);
        }
    }

    #[test]
    fn multi_source_no_worse_than_single_source_often() {
        // With one source, SOFDA and SOFDA-SS attack the same problem.
        let mut wins = 0;
        let mut total = 0;
        for seed in 0..10 {
            let inst = random_instance(seed + 100, 20, 5, 1, 3, 2);
            let general = solve_sofda(&inst, &SofdaConfig::default()).unwrap();
            let single = solve_sofda_ss(&inst, &SofdaConfig::default()).unwrap();
            general.forest.validate(&inst).unwrap();
            single.forest.validate(&inst).unwrap();
            total += 1;
            if general.cost.total() <= single.cost.total() * 1.5 {
                wins += 1;
            }
        }
        assert!(
            wins * 2 >= total,
            "SOFDA wildly worse than SOFDA-SS: {wins}/{total}"
        );
    }

    #[test]
    fn zero_chain_reduces_to_steiner_forest() {
        let inst = random_instance(7, 18, 3, 2, 4, 0);
        let out = solve_sofda(&inst, &SofdaConfig::default()).unwrap();
        out.forest.validate(&inst).unwrap();
        assert_eq!(out.cost.setup, Cost::ZERO);
    }

    #[test]
    fn longer_chains_cost_more() {
        let mut last = Cost::ZERO;
        for chain in 1..=3 {
            let inst = random_instance(42, 26, 8, 3, 4, chain);
            let out = solve_sofda(&inst, &SofdaConfig::default()).unwrap();
            assert!(out.cost.total() >= last);
            last = out.cost.total();
        }
    }

    #[test]
    fn conflict_stats_are_exposed() {
        // Dense demand on a tiny VM pool provokes conflicts.
        let inst = random_instance(3, 22, 4, 4, 6, 3);
        let out = solve_sofda(&inst, &SofdaConfig::default()).unwrap();
        out.forest.validate(&inst).unwrap();
        // No assertion on counts (instance-dependent) — just consistency.
        let _ = out.stats.conflicts.total();
    }

    #[test]
    fn only_the_chains_the_tree_keeps_are_expanded() {
        // (instance, candidate chains priced, chains expanded). Each
        // instance is solved once and its destinations share the chains
        // its tree kept: one chain for four and six destinations on the
        // dense graphs, three for thirty on the ring, two for ten on the
        // smaller ring, where a case-2 conflict rewrites one of them.
        let cases = [
            (random_instance(0, 24, 6, 3, 4, 2), 18, 1),
            (random_instance(3, 22, 4, 4, 6, 3), 16, 1),
            (ring_instance(0, 100, 20, 8, 30, 2), 160, 3),
            (ring_instance(0, 49, 8, 4, 10, 3), 32, 2),
        ];
        // Unshortened, a walk's source and last VNF are its chain's key.
        let config = SofdaConfig {
            shorten: false,
            ..SofdaConfig::default()
        };
        for (i, (inst, candidates, expansions)) in cases.into_iter().enumerate() {
            let out = solve_sofda(&inst, &config).unwrap();
            let expanded = out.stats.chains_expanded;
            assert_eq!(
                (out.stats.candidate_chains, expanded),
                (candidates, expansions),
                "case {i}"
            );
            // One expansion per chain the tree kept, one per fallback. A
            // conflict can splice a walk onto another chain's source, so
            // the keys are counted only where none occurred.
            let conflicts = out.stats.conflicts;
            let dests = inst.request.destinations.len();
            assert!(expanded <= dests + conflicts.fallbacks, "case {i}");
            if conflicts.total() == 0 {
                let keys: std::collections::BTreeSet<_> = out
                    .forest
                    .walks
                    .iter()
                    .map(|w| (w.source, w.vnf_node(inst.chain_len() - 1)))
                    .collect();
                assert_eq!(expanded, keys.len(), "case {i}");
            }
            assert_eq!(conflicts.case2, usize::from(i == 3), "case {i}");
        }
    }
}
