//! Shared machinery for the baseline algorithms.

use sof_core::{
    ChainMetric, DestWalk, SearchContext, ServiceForest, SofInstance, SofdaConfig, SolveError,
    VmBlock,
};
use sof_graph::{Cost, NodeId};
use sof_steiner::SteinerTree;

/// A grown forest: total priced cost, the kept candidate trees, and the
/// destination buckets assigned to each tree.
pub(crate) type GrownForest = (Cost, Vec<CandidateTree>, Vec<Vec<NodeId>>);

/// A service tree candidate: a chain from a source plus a distribution tree
/// hanging off the chain's attachment node.
#[derive(Clone, Debug)]
pub(crate) struct CandidateTree {
    /// Source feeding the tree.
    pub source: NodeId,
    /// Chain walk (source → last VM), possibly with an extra pass-through
    /// stretch to the attachment node.
    pub chain_nodes: Vec<NodeId>,
    /// VNF positions within `chain_nodes`.
    pub chain_positions: Vec<usize>,
    /// Cost of links + VMs on the chain (incl. attachment stretch).
    pub chain_cost: Cost,
    /// Node where processed data enters the distribution structure.
    pub attach: NodeId,
}

impl CandidateTree {
    /// A chain-less tree (|C| = 0) rooted at `source`.
    pub fn bare(source: NodeId) -> CandidateTree {
        CandidateTree {
            source,
            chain_nodes: vec![source],
            chain_positions: vec![],
            chain_cost: Cost::ZERO,
            attach: source,
        }
    }
}

/// The VM block every source proposed for on `vms` prices its chains on
/// (one per solve, or per pass of [`grow_forest`]), or `None` when no
/// chain is priced on `vms` — the chain is empty or does not fit — so a
/// pass that prices nothing reads no tree.
pub(crate) fn vm_block(instance: &SofInstance, vms: &[NodeId]) -> Option<VmBlock> {
    let chain_len = instance.chain_len();
    (chain_len > 0 && vms.len() >= chain_len).then(|| VmBlock::new(&instance.network, vms))
}

/// Builds the cheapest service chain from `source` over the VMs of `block`
/// ([`vm_block`]), attached to the cheapest node of `tree_nodes` (ST/eST
/// style: the tree is fixed first, the chain is bolted on afterwards).
/// Counts each chain it expands in `expanded`.
pub(crate) fn cheapest_chain_to_tree(
    instance: &SofInstance,
    source: NodeId,
    block: Option<&VmBlock>,
    tree_nodes: &[NodeId],
    config: &SofdaConfig,
    search: &mut SearchContext,
    expanded: &mut usize,
) -> Option<CandidateTree> {
    let chain_len = instance.chain_len();
    if chain_len == 0 {
        return Some(CandidateTree::bare(source));
    }
    let cm = ChainMetric::from_block(block?, source, config.source_cost())?;
    let chains = cm.chains_to_all_vms_in(chain_len, config.stroll, search);
    let mut best: Option<CandidateTree> = None;
    for (target, stroll, chain_cost) in chains {
        let u = cm.node(target);
        let sp = cm.vm_tree(target);
        let Some(&attach) = tree_nodes
            .iter()
            .min_by_key(|&&x| (sp.dist(x), x))
            .filter(|&&x| sp.dist(x).is_finite())
        else {
            continue;
        };
        let total = chain_cost + sp.dist(attach);
        if best.as_ref().is_none_or(|b| total < b.chain_cost) {
            *expanded += 1;
            let (mut nodes, positions) = cm.expand(&stroll);
            if attach != u {
                let path = sp.path_to(attach).expect("finite distance");
                nodes.extend_from_slice(&path[1..]);
            }
            best = Some(CandidateTree {
                source,
                chain_nodes: nodes,
                chain_positions: positions,
                chain_cost: total,
                attach,
            });
        }
    }
    best
}

/// Assigns every destination to its closest tree attach point and prices the
/// resulting forest: `Σ chain costs (used trees) + Σ Steiner(attach ∪ D_t)`.
///
/// Returns `(total cost, per-tree destination lists)`. Trees serving no
/// destination are dropped (their chain cost is not charged).
pub(crate) fn assign_and_price(
    instance: &SofInstance,
    trees: &[CandidateTree],
    config: &SofdaConfig,
) -> Result<(Cost, Vec<Vec<NodeId>>), SolveError> {
    let network = &instance.network;
    let dests = &instance.request.destinations;
    let sps: Vec<_> = trees
        .iter()
        .map(|t| network.paths().rooted_at(network.graph(), t.attach))
        .collect();
    let mut buckets: Vec<Vec<NodeId>> = vec![Vec::new(); trees.len()];
    for &d in dests {
        let ti = (0..trees.len())
            .filter(|&i| sps[i].dist(d).is_finite())
            .min_by_key(|&i| (sps[i].dist(d), i))
            .ok_or_else(|| SolveError::Infeasible(format!("{d} unreachable from any tree")))?;
        buckets[ti].push(d);
    }
    let mut total = Cost::ZERO;
    for (t, bucket) in trees.iter().zip(buckets.iter()) {
        if bucket.is_empty() {
            continue;
        }
        let mut terminals = vec![t.attach];
        terminals.extend_from_slice(bucket);
        let tree = config
            .steiner
            .solve_with(network.graph(), &terminals, Some(network.paths()))?;
        total += t.chain_cost + tree.cost;
    }
    Ok((total, buckets))
}

/// Materializes a forest from trees and their destination buckets.
pub(crate) fn assemble(
    instance: &SofInstance,
    trees: &[CandidateTree],
    buckets: &[Vec<NodeId>],
    config: &SofdaConfig,
) -> Result<ServiceForest, SolveError> {
    let network = &instance.network;
    let mut walks = Vec::new();
    for (t, bucket) in trees.iter().zip(buckets.iter()) {
        if bucket.is_empty() {
            continue;
        }
        let mut terminals = vec![t.attach];
        terminals.extend_from_slice(bucket);
        let tree: SteinerTree =
            config
                .steiner
                .solve_with(network.graph(), &terminals, Some(network.paths()))?;
        for &d in bucket {
            let tail = tree
                .path_between(network.graph(), t.attach, d)
                .expect("tree spans its terminals");
            let mut nodes = t.chain_nodes.clone();
            nodes.extend_from_slice(&tail[1..]);
            walks.push(DestWalk {
                destination: d,
                source: t.source,
                nodes,
                vnf_positions: t.chain_positions.clone(),
            });
        }
    }
    Ok(ServiceForest::new(instance.chain_len(), walks))
}

/// The used-VM set of a collection of candidate trees.
pub(crate) fn used_vms(trees: &[CandidateTree]) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = trees
        .iter()
        .flat_map(|t| t.chain_positions.iter().map(|&p| t.chain_nodes[p]))
        .collect();
    out.sort();
    out.dedup();
    out
}

/// Iterative multi-source extension shared by eST and eNEMP: starting from
/// one tree, repeatedly propose a tree from an unused source (chain on
/// unused VMs via `propose`) and keep it while the priced total decreases.
/// Every source proposed for in one pass sees the same free VMs, so they
/// share one VM block and, in `search`, the solve's k-stroll context, one
/// table.
pub(crate) fn grow_forest<F>(
    instance: &SofInstance,
    mut trees: Vec<CandidateTree>,
    config: &SofdaConfig,
    search: &mut SearchContext,
    mut propose: F,
) -> Result<GrownForest, SolveError>
where
    F: FnMut(&SofInstance, NodeId, Option<&VmBlock>, &mut SearchContext) -> Option<CandidateTree>,
{
    let (mut best_cost, mut best_buckets) = assign_and_price(instance, &trees, config)?;
    loop {
        let unused_sources: Vec<NodeId> = instance
            .request
            .sources
            .iter()
            .copied()
            .filter(|s| trees.iter().all(|t| t.source != *s))
            .collect();
        if unused_sources.is_empty() {
            break;
        }
        let free_vms: Vec<NodeId> = {
            let used = used_vms(&trees);
            instance
                .network
                .vms()
                .into_iter()
                .filter(|v| !used.contains(v))
                .collect()
        };
        let block = vm_block(instance, &free_vms);
        let mut improved = false;
        let mut best_addition: Option<(Cost, CandidateTree, Vec<Vec<NodeId>>)> = None;
        for &s in &unused_sources {
            let Some(cand) = propose(instance, s, block.as_ref(), search) else {
                continue;
            };
            let mut tentative = trees.clone();
            tentative.push(cand.clone());
            let (cost, buckets) = assign_and_price(instance, &tentative, config)?;
            if cost < best_cost && best_addition.as_ref().is_none_or(|(c, _, _)| cost < *c) {
                best_addition = Some((cost, cand, buckets));
            }
        }
        if let Some((cost, cand, buckets)) = best_addition {
            trees.push(cand);
            best_cost = cost;
            best_buckets = buckets;
            improved = true;
        }
        if !improved {
            break;
        }
    }
    Ok((best_cost, trees, best_buckets))
}
