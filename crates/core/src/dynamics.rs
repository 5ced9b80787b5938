//! Dynamic adjustments of a deployed forest (§VII-C of the paper):
//! destination join/leave, VNF insertion/deletion, congestion rerouting and
//! VM-overload migration — all without re-running SOFDA from scratch.
//!
//! Every operation's shortest-path queries go through the network's shared
//! [`sof_graph::PathEngine`] ([`crate::Network::paths`]): repeated trees —
//! within one operation, across operations, and across arrivals of a
//! standing [`crate::OnlineSession`] — are cache hits instead of fresh
//! Dijkstras, and the former per-call `BTreeMap<NodeId, ShortestPaths>`
//! caches (with their per-entry deep clones) are gone.

use crate::faults::Faults;
use crate::{DestWalk, ServiceForest, SofInstance};
use sof_graph::{Cost, NodeId};
use std::collections::BTreeMap;
use std::fmt;

/// Errors from dynamic operations.
#[derive(Clone, Debug, PartialEq)]
pub enum DynamicsError {
    /// The destination is not currently served.
    NotServed(NodeId),
    /// The destination is already served.
    AlreadyServed(NodeId),
    /// No VM is available for the operation.
    NoFreeVm,
    /// VNF index out of range.
    BadVnfIndex(usize),
    /// The operation cannot produce a feasible walk.
    Infeasible(String),
}

impl fmt::Display for DynamicsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DynamicsError::NotServed(d) => write!(f, "destination {d} is not served"),
            DynamicsError::AlreadyServed(d) => write!(f, "destination {d} already served"),
            DynamicsError::NoFreeVm => write!(f, "no free VM available"),
            DynamicsError::BadVnfIndex(i) => write!(f, "VNF index {i} out of range"),
            DynamicsError::Infeasible(why) => write!(f, "infeasible adjustment: {why}"),
        }
    }
}

impl std::error::Error for DynamicsError {}

/// §VII-C (1) — removes a destination and its walk. Links and VMs used only
/// by that walk stop being charged automatically (union-based accounting),
/// which is exactly the paper's "remove the path up to the closest branch
/// node".
pub fn destination_leave(
    instance: &mut SofInstance,
    forest: &mut ServiceForest,
    d: NodeId,
) -> Result<(), DynamicsError> {
    let before = forest.walks.len();
    forest.walks.retain(|w| w.destination != d);
    if forest.walks.len() == before {
        return Err(DynamicsError::NotServed(d));
    }
    instance.request.destinations.retain(|&x| x != d);
    Ok(())
}

/// How [`destination_join_with`] searches for an attach point.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Consider every forest node, including ones mid-chain (the remaining
    /// VNFs are completed by a fresh k-stroll over free VMs). Finds the
    /// cheapest extension but costs a metric-closure build per candidate.
    #[default]
    FullSearch,
    /// Only attach where the chain is already complete (`f(x) = |C|`), via
    /// one bounded search from the new destination that stops at the
    /// nearest such point ([`sof_graph::PathEngine::nearest_target`]) — no
    /// tree is built or cached. Orders of magnitude faster — the hot path
    /// of the online engine — and always feasible on connected networks
    /// with a non-empty forest.
    TailAttach,
}

impl JoinStrategy {
    /// The spec-file name of this strategy.
    pub fn as_str(&self) -> &'static str {
        match self {
            JoinStrategy::FullSearch => "full-search",
            JoinStrategy::TailAttach => "tail-attach",
        }
    }

    /// Parses a spec-file name (case-insensitive).
    ///
    /// # Errors
    ///
    /// A message naming the unknown strategy and the valid names.
    pub fn from_name(name: &str) -> Result<JoinStrategy, String> {
        match name.to_ascii_lowercase().as_str() {
            "full-search" | "full_search" | "full" => Ok(JoinStrategy::FullSearch),
            "tail-attach" | "tail_attach" | "tail" => Ok(JoinStrategy::TailAttach),
            other => Err(format!(
                "unknown join strategy '{other}' (expected 'tail-attach' or 'full-search')"
            )),
        }
    }
}

/// §VII-C (2) — connects a new destination to the forest with the cheapest
/// extension: for every node `x` already in the forest, `f(x)` VNFs are
/// done, so a walk from `x` to `d` through the remaining `|C| − f(x)` VNFs
/// (on currently free VMs) completes the chain; the cheapest `(x, walk)` is
/// chosen. Returns the cost increase.
///
/// Equivalent to [`destination_join_with`] under
/// [`JoinStrategy::FullSearch`].
pub fn destination_join(
    instance: &mut SofInstance,
    forest: &mut ServiceForest,
    d: NodeId,
) -> Result<Cost, DynamicsError> {
    destination_join_with(instance, forest, d, JoinStrategy::FullSearch)
}

/// [`destination_join`] with an explicit attach-point search strategy.
pub fn destination_join_with(
    instance: &mut SofInstance,
    forest: &mut ServiceForest,
    d: NodeId,
    strategy: JoinStrategy,
) -> Result<Cost, DynamicsError> {
    if forest.walks.iter().any(|w| w.destination == d) {
        return Err(DynamicsError::AlreadyServed(d));
    }
    if d.index() >= instance.network.node_count() {
        return Err(DynamicsError::Infeasible(format!("{d} out of range")));
    }
    let network = &instance.network;
    let chain_len = forest.chain_len;
    let enabled = forest
        .enabled_vms()
        .map_err(|e| DynamicsError::Infeasible(e.to_string()))?;
    let free: Vec<NodeId> = network
        .vms()
        .into_iter()
        .filter(|v| !enabled.contains_key(v))
        .collect();

    // Candidate attach points: (walk index, position) with progress f(x) =
    // number of VNFs completed at/before that position; keep the best
    // (largest f) occurrence per node. BTreeMap: equal-cost attach points
    // must tie-break by node order, not hash order, to keep runs
    // deterministic.
    let mut best_at: BTreeMap<NodeId, (usize, usize, usize)> = BTreeMap::new(); // node -> (f, walk, pos)
    for (wi, w) in forest.walks.iter().enumerate() {
        let mut f = 0usize;
        for (pos, &node) in w.nodes.iter().enumerate() {
            while f < w.vnf_positions.len() && w.vnf_positions[f] <= pos {
                f += 1;
            }
            let entry = best_at.entry(node).or_insert((f, wi, pos));
            if f > entry.0 {
                *entry = (f, wi, pos);
            }
        }
    }

    // (cost, walk, pos, extension nodes, extension VNF offsets)
    type Extension = (Cost, usize, usize, Vec<NodeId>, Vec<usize>);
    let mut best: Option<Extension> = None;
    if strategy == JoinStrategy::TailAttach {
        // The nearest complete-chain attach point, lowest node id among
        // equals — what scanning `d`'s full tree in `best_at` order picks —
        // from a search that stops at that attach point's distance.
        best = network
            .paths()
            .nearest_target(
                network.graph(),
                d,
                |_, _, _| true,
                |x| best_at.get(&x).is_some_and(|&(f, ..)| f == chain_len),
            )
            .map(|hit| {
                let (_, wi, pos) = best_at[&hit.target];
                let mut path = hit.path;
                path.reverse(); // now x → d
                (hit.cost, wi, pos, path, vec![])
            });
    } else {
        // One pass over every forest node; the k-stroll closures below
        // read `d`'s whole tree, so it is computed (and cached) once. Every
        // attach point's search runs on one context: the join has one node
        // budget, not one per forest node.
        let sp_from_d = network.paths().from_source(network.graph(), d);
        let mut search = sof_kstroll::SearchContext::new();
        for (&x, &(f, wi, pos)) in &best_at {
            let remaining = chain_len - f;
            if remaining == 0 {
                // Plain shortest path x → d.
                let cost = sp_from_d.dist(x);
                if !cost.is_finite() {
                    continue;
                }
                if best.as_ref().is_none_or(|(b, ..)| cost < *b) {
                    let mut path = sp_from_d.path_to(x).expect("finite distance");
                    path.reverse(); // now x → d
                    best = Some((cost, wi, pos, path, vec![]));
                }
            } else {
                if free.len() < remaining {
                    continue;
                }
                // k-stroll from x through `remaining` free VMs to d, on a metric
                // over {x} ∪ free ∪ {d} with halved VM potentials.
                let mut nodes = vec![x];
                nodes.extend(free.iter().copied().filter(|&v| v != x && v != d));
                if d != x {
                    nodes.push(d);
                } else {
                    continue;
                }
                let closure =
                    sof_graph::MetricClosure::with_engine(network.graph(), nodes, network.paths());
                let nodes = closure.terminals().to_vec();
                let Some(xi) = nodes.iter().position(|&n| n == x) else {
                    continue;
                };
                let Some(di) = nodes.iter().position(|&n| n == d) else {
                    continue;
                };
                let pot: Vec<Cost> = nodes
                    .iter()
                    .map(|&n| {
                        if n == x || n == d {
                            Cost::ZERO
                        } else {
                            network.node_cost(n) / 2.0
                        }
                    })
                    .collect();
                let metric = sof_kstroll::DenseMetric::from_fn(nodes.len(), |i, j| {
                    closure.dist_between(nodes[i], nodes[j]) + pot[i] + pot[j]
                });
                let Some(stroll) = sof_kstroll::StrollSolver::Auto.solve(
                    &metric,
                    xi,
                    di,
                    remaining + 2,
                    &mut search,
                ) else {
                    continue;
                };
                let cost = stroll.cost; // potentials of x, d are zero → true cost
                if best.as_ref().is_none_or(|(b, ..)| cost < *b) {
                    // Expand through shortest paths.
                    let mut ext = vec![x];
                    let mut offsets = Vec::new();
                    for pair in stroll.nodes.windows(2) {
                        let (a, b) = (nodes[pair[0]], nodes[pair[1]]);
                        let path = closure.path_between(a, b).expect("finite");
                        ext.extend_from_slice(&path[1..]);
                        offsets.push(ext.len() - 1);
                    }
                    offsets.pop(); // last stroll node is d, not a VM
                    best = Some((cost, wi, pos, ext, offsets));
                }
            }
        }
    }

    let (added, wi, pos, ext, offsets) = best.ok_or_else(|| {
        DynamicsError::Infeasible("no attach point reaches the new destination".into())
    })?;
    let host = &forest.walks[wi];
    let mut nodes = host.nodes[..=pos].to_vec();
    let base = nodes.len() - 1;
    nodes.extend_from_slice(&ext[1..]);
    let mut vnf_positions: Vec<usize> = host
        .vnf_positions
        .iter()
        .copied()
        .filter(|&p| p <= pos)
        .collect();
    vnf_positions.extend(offsets.iter().map(|&o| base + o));
    forest.walks.push(DestWalk {
        destination: d,
        source: host.source,
        nodes,
        vnf_positions,
    });
    if !instance.request.destinations.contains(&d) {
        instance.request.destinations.push(d);
    }
    Ok(added)
}

/// Survivability variant of a tail-attach join: plans (without applying) a
/// replacement walk for destination `d` that attaches where the chain is
/// already complete and traverses **nothing** `avoid` covers — not in the
/// host-walk prefix it inherits and not in the fresh extension, which is
/// the answer of a bounded search from `d` that takes only hops
/// [`Faults::hop_allowed`] admits
/// ([`sof_graph::PathEngine::nearest_target`]) — a filter, not a
/// cost-mutated graph, so the shared [`sof_graph::PathEngine`] stays warm,
/// and a search that stops at the nearest surviving attach point.
///
/// Returns the planned walk and its attachment cost. The caller applies it
/// (e.g. [`crate::OnlineSession::switch_walk`]) or discards it — planning
/// mutates nothing.
pub fn plan_attach_avoiding(
    instance: &SofInstance,
    forest: &ServiceForest,
    d: NodeId,
    avoid: &Faults,
) -> Result<(DestWalk, Cost), DynamicsError> {
    if d.index() >= instance.network.node_count() {
        return Err(DynamicsError::Infeasible(format!("{d} out of range")));
    }
    if avoid.vm_down(d) {
        return Err(DynamicsError::Infeasible(format!("{d} is a failed node")));
    }
    let network = &instance.network;
    let chain_len = forest.chain_len;

    // Complete-chain attach points on *surviving* walk prefixes: a prefix
    // that itself crosses a failed element can't host the reattachment.
    let mut best_at: BTreeMap<NodeId, (usize, usize)> = BTreeMap::new(); // node -> (walk, pos)
    for (wi, w) in forest.walks.iter().enumerate() {
        if w.destination == d {
            continue; // the broken walk being replaced is not a host
        }
        let mut f = 0usize;
        for (pos, &node) in w.nodes.iter().enumerate() {
            let clean = match pos {
                0 => !avoid.vm_down(node),
                _ => avoid.hop_allowed(w.nodes[pos - 1], node),
            };
            if !clean {
                break;
            }
            while f < w.vnf_positions.len() && w.vnf_positions[f] <= pos {
                f += 1;
            }
            if f == chain_len {
                best_at.entry(node).or_insert((wi, pos));
            }
        }
    }
    if best_at.is_empty() {
        return Err(DynamicsError::Infeasible(
            "no surviving complete-chain attach point".into(),
        ));
    }

    let hit = network
        .paths()
        .nearest_target(
            network.graph(),
            d,
            |from, _edge, to| avoid.hop_allowed(from, to),
            |x| best_at.contains_key(&x),
        )
        .ok_or_else(|| {
            DynamicsError::Infeasible("every surviving attach point is cut off by failures".into())
        })?;
    let (wi, pos) = best_at[&hit.target];
    let host = &forest.walks[wi];
    let mut path = hit.path;
    path.reverse(); // now x → d
    let mut nodes = host.nodes[..=pos].to_vec();
    nodes.extend_from_slice(&path[1..]);
    let vnf_positions: Vec<usize> = host
        .vnf_positions
        .iter()
        .copied()
        .filter(|&p| p <= pos)
        .collect();
    Ok((
        DestWalk {
            destination: d,
            source: host.source,
            nodes,
            vnf_positions,
        },
        hit.cost,
    ))
}

/// §VII-C (3) — removes VNF `idx` from the chain: every walk reconnects the
/// VM of `f_{idx-1}` (or the source) directly to the VM of `f_{idx+1}` (or
/// the walk's end) along a shortest path.
pub fn vnf_delete(
    instance: &mut SofInstance,
    forest: &mut ServiceForest,
    idx: usize,
) -> Result<(), DynamicsError> {
    if idx >= forest.chain_len {
        return Err(DynamicsError::BadVnfIndex(idx));
    }
    let network = instance.network.clone();
    let names: Vec<String> = instance
        .request
        .chain
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != idx)
        .map(|(_, n)| n.to_string())
        .collect();
    instance.request.chain = crate::ServiceChain::from_names(names);
    for w in &mut forest.walks {
        let p_del = w.vnf_positions[idx];
        let p_prev = if idx == 0 {
            0
        } else {
            w.vnf_positions[idx - 1]
        };
        let p_next = if idx + 1 < w.vnf_positions.len() {
            w.vnf_positions[idx + 1]
        } else {
            w.nodes.len() - 1
        };
        let _ = p_del;
        let (a, b) = (w.nodes[p_prev], w.nodes[p_next]);
        let sp = network.paths().from_source(network.graph(), a);
        let path = sp
            .path_to(b)
            .ok_or_else(|| DynamicsError::Infeasible(format!("{a} cut off from {b}")))?;
        let mut nodes = w.nodes[..=p_prev].to_vec();
        nodes.extend_from_slice(&path[1..]);
        let bridge_end = nodes.len() - 1;
        nodes.extend_from_slice(&w.nodes[p_next + 1..]);
        let mut positions = Vec::with_capacity(w.vnf_positions.len() - 1);
        for (i, &p) in w.vnf_positions.iter().enumerate() {
            match i.cmp(&idx) {
                std::cmp::Ordering::Less => positions.push(p),
                std::cmp::Ordering::Equal => {}
                std::cmp::Ordering::Greater => positions.push(bridge_end + (p - p_next)),
            }
        }
        w.nodes = nodes;
        w.vnf_positions = positions;
    }
    forest.chain_len -= 1;
    Ok(())
}

/// §VII-C (4) — inserts a new VNF at chain position `idx` (0-based; `idx ==
/// |C|` appends). Every walk routes through a VM chosen to minimize
/// `dist(a, v) + c(v) + dist(v, b)`; walks may share the VM (the paper's
/// pair-dedup), others pick the next-best free one only if the shared VM
/// is not free.
pub fn vnf_insert(
    instance: &mut SofInstance,
    forest: &mut ServiceForest,
    idx: usize,
    name: &str,
) -> Result<(), DynamicsError> {
    if idx > forest.chain_len {
        return Err(DynamicsError::BadVnfIndex(idx));
    }
    let network = instance.network.clone();
    let enabled = forest
        .enabled_vms()
        .map_err(|e| DynamicsError::Infeasible(e.to_string()))?;
    // VMs that may host the new VNF: currently unused ones.
    let free: Vec<NodeId> = network
        .vms()
        .into_iter()
        .filter(|v| !enabled.contains_key(v))
        .collect();
    if free.is_empty() {
        return Err(DynamicsError::NoFreeVm);
    }
    let mut chosen: BTreeMap<(NodeId, NodeId), NodeId> = BTreeMap::new(); // (a,b) -> shared v
    let mut new_walks = forest.walks.clone();
    for w in &mut new_walks {
        let p_a = if idx == 0 {
            0
        } else {
            w.vnf_positions[idx - 1]
        };
        let p_b = if idx < w.vnf_positions.len() {
            w.vnf_positions[idx]
        } else {
            w.nodes.len() - 1
        };
        let (a, b) = (w.nodes[p_a], w.nodes[p_b]);
        let v = match chosen.get(&(a, b)) {
            Some(&v) => v,
            None => {
                let sp_a = network.paths().from_source(network.graph(), a);
                let sp_b = network.paths().from_source(network.graph(), b);
                let v = free
                    .iter()
                    .copied()
                    .filter(|&v| v != a && v != b)
                    .filter(|&v| sp_a.dist(v).is_finite() && sp_b.dist(v).is_finite())
                    .min_by_key(|&v| (sp_a.dist(v) + network.node_cost(v) + sp_b.dist(v), v))
                    .ok_or(DynamicsError::NoFreeVm)?;
                chosen.insert((a, b), v);
                v
            }
        };
        let sp_a = network.paths().from_source(network.graph(), a);
        let sp_v = network.paths().from_source(network.graph(), v);
        let path_av = sp_a.path_to(v).ok_or(DynamicsError::NoFreeVm)?;
        let path_vb = sp_v.path_to(b).ok_or(DynamicsError::NoFreeVm)?;
        let mut nodes = w.nodes[..=p_a].to_vec();
        nodes.extend_from_slice(&path_av[1..]);
        let v_pos = nodes.len() - 1;
        nodes.extend_from_slice(&path_vb[1..]);
        let b_pos = nodes.len() - 1;
        nodes.extend_from_slice(&w.nodes[p_b + 1..]);
        let mut positions = Vec::with_capacity(w.vnf_positions.len() + 1);
        for (i, &p) in w.vnf_positions.iter().enumerate() {
            if i < idx {
                positions.push(p);
            } else if i == idx {
                positions.push(v_pos);
                positions.push(b_pos);
            } else {
                positions.push(b_pos + (p - p_b));
            }
        }
        if idx == w.vnf_positions.len() {
            positions.push(v_pos);
        } else if idx < w.vnf_positions.len() {
            // handled above: v_pos then the old idx-placement at b_pos.
        }
        w.nodes = nodes;
        w.vnf_positions = positions;
    }
    // Update chain naming.
    let mut names: Vec<String> = instance.request.chain.iter().map(str::to_string).collect();
    names.insert(idx, name.to_string());
    instance.request.chain = crate::ServiceChain::from_names(names);
    forest.walks = new_walks;
    forest.chain_len += 1;
    Ok(())
}

/// §VII-C (5) — after link costs changed (congestion), re-route every
/// pass-through stretch along current shortest paths. Equivalent to
/// [`ServiceForest::shorten`] but unconditional, since stale routes may now
/// sit on expensive links.
pub fn reroute_all(instance: &SofInstance, forest: &mut ServiceForest) {
    let network = &instance.network;
    for w in &mut forest.walks {
        let mut anchors = vec![0usize];
        anchors.extend_from_slice(&w.vnf_positions);
        if *anchors.last().expect("non-empty") != w.nodes.len() - 1 {
            anchors.push(w.nodes.len() - 1);
        }
        let mut nodes = vec![w.nodes[0]];
        let mut positions = Vec::with_capacity(w.vnf_positions.len());
        for pair in anchors.windows(2) {
            let (a, b) = (w.nodes[pair[0]], w.nodes[pair[1]]);
            let sp = network.paths().from_source(network.graph(), a);
            let path = sp.path_to(b).expect("network is connected");
            nodes.extend_from_slice(&path[1..]);
            if positions.len() < w.vnf_positions.len() {
                positions.push(nodes.len() - 1);
            }
        }
        w.nodes = nodes;
        w.vnf_positions = positions;
    }
}

/// §VII-C (6) — migrates an overloaded VM: every walk using `v` re-routes
/// through the substitute VM minimizing `dist(prev, v') + c(v') +
/// dist(v', next)`.
pub fn migrate_vm(
    instance: &SofInstance,
    forest: &mut ServiceForest,
    v: NodeId,
) -> Result<NodeId, DynamicsError> {
    let network = &instance.network;
    let enabled = forest
        .enabled_vms()
        .map_err(|e| DynamicsError::Infeasible(e.to_string()))?;
    if !enabled.contains_key(&v) {
        return Err(DynamicsError::Infeasible(format!("{v} hosts no VNF")));
    }
    let free: Vec<NodeId> = network
        .vms()
        .into_iter()
        .filter(|x| !enabled.contains_key(x) && *x != v)
        .collect();
    if free.is_empty() {
        return Err(DynamicsError::NoFreeVm);
    }
    // Choose the replacement using the first affected walk's neighborhood.
    let mut replacement: Option<NodeId> = None;
    let mut new_walks = forest.walks.clone();
    for w in &mut new_walks {
        let Some(i) = (0..w.vnf_positions.len()).find(|&i| w.vnf_node(i) == v) else {
            continue;
        };
        let p = w.vnf_positions[i];
        let p_a = if i == 0 { 0 } else { w.vnf_positions[i - 1] };
        let p_b = if i + 1 < w.vnf_positions.len() {
            w.vnf_positions[i + 1]
        } else {
            w.nodes.len() - 1
        };
        let (a, b) = (w.nodes[p_a], w.nodes[p_b]);
        let _ = p;
        let vv = match replacement {
            Some(vv) => vv,
            None => {
                let sp_a = network.paths().from_source(network.graph(), a);
                let sp_b = network.paths().from_source(network.graph(), b);
                let vv = free
                    .iter()
                    .copied()
                    .filter(|&x| x != a && x != b)
                    .filter(|&x| sp_a.dist(x).is_finite() && sp_b.dist(x).is_finite())
                    .min_by_key(|&x| (sp_a.dist(x) + network.node_cost(x) + sp_b.dist(x), x))
                    .ok_or(DynamicsError::NoFreeVm)?;
                replacement = Some(vv);
                vv
            }
        };
        let sp_a = network.paths().from_source(network.graph(), a);
        let sp_v = network.paths().from_source(network.graph(), vv);
        let path_av = sp_a.path_to(vv).ok_or(DynamicsError::NoFreeVm)?;
        let path_vb = sp_v.path_to(b).ok_or(DynamicsError::NoFreeVm)?;
        let mut nodes = w.nodes[..=p_a].to_vec();
        nodes.extend_from_slice(&path_av[1..]);
        let v_pos = nodes.len() - 1;
        nodes.extend_from_slice(&path_vb[1..]);
        let b_pos = nodes.len() - 1;
        nodes.extend_from_slice(&w.nodes[p_b + 1..]);
        let mut positions = Vec::with_capacity(w.vnf_positions.len());
        for (j, &q) in w.vnf_positions.iter().enumerate() {
            match j.cmp(&i) {
                std::cmp::Ordering::Less => positions.push(q),
                std::cmp::Ordering::Equal => positions.push(v_pos),
                std::cmp::Ordering::Greater => positions.push(b_pos + (q - p_b)),
            }
        }
        w.nodes = nodes;
        w.vnf_positions = positions;
    }
    forest.walks = new_walks;
    replacement.ok_or_else(|| DynamicsError::Infeasible(format!("no walk routes through {v}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve_sofda, Network, Request, ServiceChain, SofdaConfig};
    use sof_graph::{generators, CostRange, Graph, Rng64};

    fn instance(seed: u64) -> SofInstance {
        let mut rng = Rng64::seed_from(seed);
        let g = generators::gnp_connected(24, 0.18, CostRange::new(1.0, 6.0), &mut rng);
        let mut net = Network::all_switches(g);
        let picks = rng.sample_indices(24, 14);
        for &v in &picks[..8] {
            net.make_vm(
                sof_graph::NodeId::new(v),
                Cost::new(rng.range_f64(0.5, 3.0)),
            );
        }
        SofInstance::new(
            net,
            Request::new(
                vec![
                    sof_graph::NodeId::new(picks[8]),
                    sof_graph::NodeId::new(picks[9]),
                ],
                picks[10..13]
                    .iter()
                    .map(|&i| sof_graph::NodeId::new(i))
                    .collect(),
                ServiceChain::with_len(2),
            ),
        )
        .unwrap()
    }

    fn solved(seed: u64) -> (SofInstance, ServiceForest) {
        let inst = instance(seed);
        let out = solve_sofda(&inst, &SofdaConfig::default()).unwrap();
        (inst, out.forest)
    }

    #[test]
    fn leave_then_validate() {
        let (mut inst, mut forest) = solved(1);
        let d = inst.request.destinations[0];
        let before = forest.cost(&inst.network).total();
        destination_leave(&mut inst, &mut forest, d).unwrap();
        forest.validate(&inst).unwrap();
        assert!(forest.cost(&inst.network).total() <= before);
        assert_eq!(
            destination_leave(&mut inst, &mut forest, d).unwrap_err(),
            DynamicsError::NotServed(d)
        );
    }

    #[test]
    fn join_new_destination() {
        let (mut inst, mut forest) = solved(2);
        // Find an unserved node.
        let served: Vec<_> = inst.request.destinations.clone();
        let d = {
            let sources = inst.request.sources.clone();
            inst.network
                .graph()
                .nodes()
                .find(|n| !served.contains(n) && !sources.contains(n))
                .unwrap()
        };
        let before = forest.cost(&inst.network).total();
        let added = destination_join(&mut inst, &mut forest, d).unwrap();
        forest.validate(&inst).unwrap();
        let after = forest.cost(&inst.network).total();
        assert!(after <= before + added + Cost::new(1e-6));
        assert!(forest.walks.iter().any(|w| w.destination == d));
    }

    #[test]
    fn join_is_cheaper_than_resolve() {
        // The incremental join must not exceed re-running SOFDA... in cost
        // terms it may, but it must remain feasible and bounded by adding a
        // fresh chain. Here we just check feasibility across several seeds.
        for seed in 3..8 {
            let (mut inst, mut forest) = solved(seed);
            let served: Vec<_> = inst.request.destinations.clone();
            let candidate = inst
                .network
                .graph()
                .nodes()
                .find(|n| !served.contains(n) && !inst.request.sources.contains(n));
            if let Some(d) = candidate {
                destination_join(&mut inst, &mut forest, d).unwrap();
                forest.validate(&inst).unwrap();
            }
        }
    }

    #[test]
    fn vnf_delete_shrinks_chain() {
        let (mut inst, mut forest) = solved(4);
        let before_vms = forest.stats().used_vms;
        vnf_delete(&mut inst, &mut forest, 0).unwrap();
        forest.validate(&inst).unwrap();
        assert_eq!(forest.chain_len, 1);
        assert!(forest.stats().used_vms <= before_vms);
        // Deleting the remaining VNF leaves a pure multicast forest.
        vnf_delete(&mut inst, &mut forest, 0).unwrap();
        forest.validate(&inst).unwrap();
        assert_eq!(forest.cost(&inst.network).setup, Cost::ZERO);
    }

    #[test]
    fn vnf_insert_grows_chain() {
        let (mut inst, mut forest) = solved(5);
        vnf_insert(&mut inst, &mut forest, 1, "firewall").unwrap();
        forest.validate(&inst).unwrap();
        assert_eq!(forest.chain_len, 3);
        assert_eq!(inst.request.chain.name(1), "firewall");
        // Append at the end too.
        vnf_insert(&mut inst, &mut forest, 3, "logger").unwrap();
        forest.validate(&inst).unwrap();
        assert_eq!(forest.chain_len, 4);
    }

    #[test]
    fn reroute_after_cost_change() {
        let (mut inst, mut forest) = solved(6);
        // Inflate every link cost 10x: routes stay valid, reroute keeps
        // feasibility.
        let ids: Vec<_> = inst.network.graph().edges().map(|(e, _)| e).collect();
        for e in ids {
            let c = inst.network.graph().edge_cost(e);
            inst.network.graph_mut().set_edge_cost(e, c * 10.0);
        }
        reroute_all(&inst, &mut forest);
        forest.validate(&inst).unwrap();
    }

    #[test]
    fn migrate_overloaded_vm() {
        let (inst, mut forest) = solved(7);
        let enabled = forest.enabled_vms().unwrap();
        let v = *enabled.keys().next().unwrap();
        match migrate_vm(&inst, &mut forest, v) {
            Ok(vv) => {
                assert_ne!(vv, v);
                forest.validate(&inst).unwrap();
                assert!(!forest.enabled_vms().unwrap().contains_key(&v));
            }
            Err(DynamicsError::NoFreeVm) => {} // acceptable on tight pools
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    #[test]
    fn bad_indices_rejected() {
        let (mut inst, mut forest) = solved(8);
        assert_eq!(
            vnf_delete(&mut inst, &mut forest, 9).unwrap_err(),
            DynamicsError::BadVnfIndex(9)
        );
        assert_eq!(
            vnf_insert(&mut inst, &mut forest, 9, "x").unwrap_err(),
            DynamicsError::BadVnfIndex(9)
        );
    }

    #[test]
    fn tail_attach_join_is_feasible_and_no_cheaper_than_full() {
        for seed in 20..26 {
            let (inst, forest) = solved(seed);
            let served = inst.request.destinations.clone();
            let Some(d) = inst
                .network
                .graph()
                .nodes()
                .find(|n| !served.contains(n) && !inst.request.sources.contains(n))
            else {
                continue;
            };
            let (mut inst_tail, mut tail) = (inst.clone(), forest.clone());
            let added_tail =
                destination_join_with(&mut inst_tail, &mut tail, d, JoinStrategy::TailAttach)
                    .unwrap();
            tail.validate(&inst_tail).unwrap();
            let (mut inst_full, mut full) = (inst, forest);
            let added_full =
                destination_join_with(&mut inst_full, &mut full, d, JoinStrategy::FullSearch)
                    .unwrap();
            full.validate(&inst_full).unwrap();
            // FullSearch considers a superset of TailAttach's candidates.
            assert!(added_full <= added_tail + Cost::new(1e-9), "seed {seed}");
        }
    }

    #[test]
    fn plan_attach_avoiding_routes_around_banned_elements() {
        use crate::faults::Element;
        for seed in 30..36 {
            let (inst, forest) = solved(seed);
            if forest.walks.len() < 2 {
                continue;
            }
            let d = forest.walks[0].destination;
            // With nothing banned the plan matches a plain tail-attach.
            let (walk, _cost) =
                plan_attach_avoiding(&inst, &forest, d, &Faults::default()).unwrap();
            assert_eq!(walk.destination, d);
            assert_eq!(walk.vnf_positions.len(), forest.chain_len);
            // Ban the last hop of d's current walk; the plan must avoid it.
            let old = &forest.walks[0].nodes;
            let (u, v) = (old[old.len() - 2], old[old.len() - 1]);
            let mut banned = Faults::default();
            banned.insert(Element::Link(u, v));
            match plan_attach_avoiding(&inst, &forest, d, &banned) {
                Ok((walk, _)) => {
                    assert!(walk
                        .nodes
                        .windows(2)
                        .all(|p| { (p[0].min(p[1]), p[0].max(p[1])) != (u.min(v), u.max(v)) }));
                    assert_eq!(*walk.nodes.last().unwrap(), d);
                }
                Err(DynamicsError::Infeasible(_)) => {} // d genuinely cut off
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
    }

    #[test]
    fn join_with_zero_remaining_uses_tail_attach() {
        // Chain length 0: joins are plain shortest-path attachments.
        let mut g = Graph::with_nodes(5);
        for i in 0..4 {
            g.add_edge(
                sof_graph::NodeId::new(i),
                sof_graph::NodeId::new(i + 1),
                Cost::new(1.0),
            );
        }
        let net = Network::all_switches(g);
        let mut inst = SofInstance::new(
            net,
            Request::new(
                vec![sof_graph::NodeId::new(0)],
                vec![sof_graph::NodeId::new(2)],
                ServiceChain::default(),
            ),
        )
        .unwrap();
        let out = solve_sofda(&inst, &SofdaConfig::default()).unwrap();
        let mut forest = out.forest;
        destination_join(&mut inst, &mut forest, sof_graph::NodeId::new(4)).unwrap();
        forest.validate(&inst).unwrap();
        assert_eq!(forest.walks.len(), 2);
    }
}
