//! Distributed SOFDA over multiple SDN controllers (§VI of the paper).
//!
//! The network is split into domains, one controller per domain. As in the
//! paper's ODL-SDNi design, each controller only sees its own domain's
//! topology and exchanges **border-router distance matrices** east-west; the
//! leader (the controller receiving the request) assembles an *abstract
//! graph* — border routers, sources, VMs and destinations connected by
//! intra-domain distance edges plus the physical inter-domain links — and
//! runs SOFDA on it. Hierarchical-routing exactness: any path decomposes at
//! domain boundaries, so abstract distances equal real distances. Selected
//! abstract links are finally expanded back into real paths by their owning
//! controllers (a message round-trip per link), and VNF conflicts are
//! resolved on the assembled walks exactly as in the centralized algorithm.
//!
//! Controllers run as real threads communicating over `std::sync::mpsc` channels;
//! [`DistributedOutcome::message_count`] reports the east-west traffic.

use sof_core::{
    DestWalk, Network, Request, ServiceForest, SofInstance, SofdaConfig, SolveError, SolveOutcome,
};
use sof_graph::{Cost, Graph, NodeId, PathEngine, PathEngineStats, Rng64, ShortestPaths};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};

/// A partition of the network into controller domains.
#[derive(Clone, Debug)]
pub struct DomainPartition {
    /// `domain_of[v]` = controller index of node `v`.
    pub domain_of: Vec<usize>,
    /// Node lists per domain.
    pub domains: Vec<Vec<NodeId>>,
}

impl DomainPartition {
    /// Splits `graph` into `k` connected-ish domains by multi-seed BFS.
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or exceeds the node count.
    pub fn new(graph: &Graph, k: usize, seed: u64) -> DomainPartition {
        let n = graph.node_count();
        assert!(k >= 1 && k <= n, "bad domain count {k} for {n} nodes");
        let mut rng = Rng64::seed_from(seed);
        let seeds = rng.sample_indices(n, k);
        let mut domain_of = vec![usize::MAX; n];
        let mut frontier: std::collections::VecDeque<(NodeId, usize)> = seeds
            .iter()
            .enumerate()
            .map(|(d, &s)| (NodeId::new(s), d))
            .collect();
        for &(s, d) in frontier.iter() {
            domain_of[s.index()] = d;
        }
        while let Some((u, d)) = frontier.pop_front() {
            for (v, _) in graph.neighbors(u) {
                if domain_of[v.index()] == usize::MAX {
                    domain_of[v.index()] = d;
                    frontier.push_back((v, d));
                }
            }
        }
        // Unreached nodes (disconnected graphs are rejected upstream, but be
        // safe): assign to domain 0.
        for d in domain_of.iter_mut() {
            if *d == usize::MAX {
                *d = 0;
            }
        }
        let mut domains = vec![Vec::new(); k];
        for (i, &d) in domain_of.iter().enumerate() {
            domains[d].push(NodeId::new(i));
        }
        DomainPartition { domain_of, domains }
    }

    /// Border nodes of a domain (incident to an inter-domain link).
    pub fn borders(&self, graph: &Graph, d: usize) -> Vec<NodeId> {
        self.domains[d]
            .iter()
            .copied()
            .filter(|&v| {
                graph
                    .neighbors(v)
                    .any(|(w, _)| self.domain_of[w.index()] != d)
            })
            .collect()
    }
}

/// East-west / controller messages.
#[derive(Clone, Debug)]
enum Message {
    /// Distance matrix among a domain's anchor nodes.
    AnchorMatrix {
        entries: Vec<(NodeId, NodeId, Cost)>,
    },
    /// Request: expand the abstract link `(a, b)` into a real path.
    Expand {
        a: NodeId,
        b: NodeId,
        reply: Sender<Vec<NodeId>>,
    },
    /// Terminate the controller thread.
    Shutdown,
}

/// Result of a distributed solve.
#[derive(Debug)]
pub struct DistributedOutcome {
    /// The assembled (real-network) solve outcome.
    pub outcome: SolveOutcome,
    /// Number of controller domains.
    pub domains: usize,
    /// Total east-west messages exchanged.
    pub message_count: usize,
    /// Aggregated per-domain shortest-path engine counters (cumulative over
    /// the process: domain state persists across rounds, so repeat solves on
    /// an unchanged network show growing `hits`).
    pub engine_stats: PathEngineStats,
}

/// Persistent controller state for one domain: the local subgraph plus a
/// memoized shortest-path engine serving the anchor trees.
///
/// Cached process-wide keyed by `(partition seed, domain count, domain)`
/// and validated against the parent graph's cost epoch — equal epochs
/// guarantee identical graph contents, so the state (and every warm tree
/// in its engine) carries over to the next solve round; a repriced or
/// restructured network rebuilds it. This is what lets domains keep warm
/// trees across rounds instead of running cold Dijkstras per solve.
struct DomainState {
    local: LocalSubgraph,
    engine: PathEngine,
}

fn domain_state(
    graph: &Graph,
    part: &DomainPartition,
    seed: u64,
    k: usize,
    d: usize,
) -> Arc<DomainState> {
    type Cache = Mutex<HashMap<(u64, usize, usize), (u64, Arc<DomainState>)>>;
    static CACHE: OnceLock<Cache> = OnceLock::new();
    // Entries are whole or absent at every step, so a lock poisoned by a
    // panicking solve still guards a valid map: recover it.
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let epoch = graph.cost_epoch();
    let key = (seed, k, d);
    if let Some((e, state)) = cache.lock().unwrap_or_else(|e| e.into_inner()).get(&key) {
        if *e == epoch {
            return Arc::clone(state);
        }
    }
    let state = Arc::new(DomainState {
        local: local_subgraph(graph, part, d),
        engine: PathEngine::new(),
    });
    let mut guard = cache.lock().unwrap_or_else(|e| e.into_inner());
    if guard.len() >= 64 {
        guard.clear();
    }
    guard.insert(key, (epoch, Arc::clone(&state)));
    state
}

/// §VI's multi-controller SOFDA behind the [`sof_core::Solver`] trait: a
/// fixed domain count, message accounting discarded (use
/// [`distributed_sofda`] directly when you need it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DistributedSofda {
    /// Number of controller domains.
    pub domains: usize,
}

impl Default for DistributedSofda {
    fn default() -> DistributedSofda {
        DistributedSofda { domains: 3 }
    }
}

impl sof_core::Solver for DistributedSofda {
    fn name(&self) -> &'static str {
        "D-SOFDA"
    }

    fn solve(
        &self,
        instance: &SofInstance,
        config: &SofdaConfig,
    ) -> Result<SolveOutcome, SolveError> {
        distributed_sofda(instance, self.domains, config).map(|d| d.outcome)
    }
}

/// Runs SOFDA across `k` controller domains.
///
/// # Errors
///
/// Returns [`SolveError::Infeasible`] when `k` is zero or exceeds the node
/// count, and otherwise propagates [`SolveError`] from the underlying
/// stages.
///
/// # Panics
///
/// Panics if a controller thread panics.
pub fn distributed_sofda(
    instance: &SofInstance,
    k: usize,
    config: &SofdaConfig,
) -> Result<DistributedOutcome, SolveError> {
    let n = instance.network.node_count();
    if k == 0 || k > n {
        return Err(SolveError::Infeasible(format!(
            "bad domain count {k} for a {n}-node network"
        )));
    }
    let network = Arc::new(instance.network.clone());
    let part = Arc::new(DomainPartition::new(network.graph(), k, config.seed));
    let msg_count = Arc::new(AtomicUsize::new(0));

    // Anchor set per domain: borders + local sources/VMs/destinations.
    let mut anchors_of: Vec<BTreeSet<NodeId>> = vec![BTreeSet::new(); k];
    for (d, anchors) in anchors_of.iter_mut().enumerate() {
        anchors.extend(part.borders(network.graph(), d));
    }
    let interesting: Vec<NodeId> = instance
        .request
        .sources
        .iter()
        .chain(instance.request.destinations.iter())
        .copied()
        .chain(instance.network.vms())
        .collect();
    for v in interesting {
        anchors_of[part.domain_of[v.index()]].insert(v);
    }

    // Spawn controllers.
    let (to_leader, from_controllers) = channel::<(usize, Message)>();
    let mut to_controllers: Vec<Sender<Message>> = Vec::with_capacity(k);
    let mut handles = Vec::with_capacity(k);
    for (d, domain_anchors) in anchors_of.iter().enumerate() {
        let (tx, rx): (Sender<Message>, Receiver<Message>) = channel();
        to_controllers.push(tx);
        let state = domain_state(network.graph(), &part, config.seed, k, d);
        let anchors: Vec<NodeId> = domain_anchors.iter().copied().collect();
        let leader = to_leader.clone();
        let msg_count = Arc::clone(&msg_count);
        handles.push(std::thread::spawn(move || {
            // Local subgraph: nodes of this domain only, with its engine
            // serving anchor trees warm across solve rounds.
            let local = &state.local;
            // Anchor-to-anchor distances within the local subgraph.
            let mut entries = Vec::new();
            let mut trees: HashMap<NodeId, Arc<ShortestPaths>> = HashMap::new();
            for &a in &anchors {
                let sp = state.engine.from_source(&local.graph, local.index_of[&a]);
                for &b in &anchors {
                    let dist = sp.dist(local.index_of[&b]);
                    if dist.is_finite() && a != b {
                        entries.push((a, b, dist));
                    }
                }
                trees.insert(a, sp);
            }
            msg_count.fetch_add(1, Ordering::Relaxed);
            leader
                .send((d, Message::AnchorMatrix { entries }))
                .expect("leader alive");
            // Serve expansion requests until shutdown.
            while let Ok(msg) = rx.recv() {
                match msg {
                    Message::Expand { a, b, reply } => {
                        msg_count.fetch_add(2, Ordering::Relaxed); // request + response
                        let sp = trees.get(&a).expect("expansion endpoints are anchors");
                        let path = sp
                            .path_to(local.index_of[&b])
                            .expect("anchors connected locally");
                        let real: Vec<NodeId> = path
                            .into_iter()
                            .map(|i| local.original[i.index()])
                            .collect();
                        reply.send(real).expect("leader alive");
                    }
                    Message::Shutdown => break,
                    Message::AnchorMatrix { .. } => {}
                }
            }
        }));
    }

    // Leader: assemble the abstract network.
    let mut abstract_graph = Graph::new();
    let mut abs_of: BTreeMap<NodeId, NodeId> = BTreeMap::new();
    let mut real_of: Vec<NodeId> = Vec::new();
    let abs_node = |v: NodeId,
                    abstract_graph: &mut Graph,
                    abs_of: &mut BTreeMap<NodeId, NodeId>,
                    real_of: &mut Vec<NodeId>| {
        *abs_of.entry(v).or_insert_with(|| {
            let id = abstract_graph.add_node();
            real_of.push(v);
            id
        })
    };
    // Distance edges (received matrices), tagged with their owning domain.
    // Matrices arrive in thread-completion order; buffer them and apply in
    // domain order so abstract node ids (and thus the whole solve) are
    // deterministic for a fixed seed.
    let mut matrices: Vec<Vec<(NodeId, NodeId, Cost)>> = vec![Vec::new(); k];
    for _ in 0..k {
        let (d, msg) = from_controllers.recv().expect("controllers report");
        if let Message::AnchorMatrix { entries } = msg {
            matrices[d] = entries;
        }
    }
    let mut intra_edges: HashMap<(NodeId, NodeId), usize> = HashMap::new();
    for (d, entries) in matrices.into_iter().enumerate() {
        for (a, b, dist) in entries {
            let ia = abs_node(a, &mut abstract_graph, &mut abs_of, &mut real_of);
            let ib = abs_node(b, &mut abstract_graph, &mut abs_of, &mut real_of);
            if ia < ib {
                abstract_graph.add_edge(ia, ib, dist);
                intra_edges.insert((ia, ib), d);
            }
        }
    }
    // Physical inter-domain links.
    for (_, e) in network.graph().edges() {
        if part.domain_of[e.u.index()] != part.domain_of[e.v.index()] {
            let ia = abs_node(e.u, &mut abstract_graph, &mut abs_of, &mut real_of);
            let ib = abs_node(e.v, &mut abstract_graph, &mut abs_of, &mut real_of);
            abstract_graph.add_edge(ia, ib, e.cost);
        }
    }
    // Anchors that appeared in no distance entry and no inter-domain link
    // (e.g. the lone anchor of a degenerate single-node domain) still need
    // an abstract image, or role projection below would miss them.
    for anchors in &anchors_of {
        for &v in anchors {
            abs_node(v, &mut abstract_graph, &mut abs_of, &mut real_of);
        }
    }

    // Abstract instance: same roles projected onto abstract ids.
    let mut abs_net = Network::all_switches(abstract_graph);
    for v in instance.network.vms() {
        let a = abs_of[&v];
        abs_net.make_vm(a, instance.network.node_cost(v));
    }
    let abs_request = Request::new(
        instance.request.sources.iter().map(|s| abs_of[s]).collect(),
        instance
            .request
            .destinations
            .iter()
            .map(|d| abs_of[d])
            .collect(),
        instance.request.chain.clone(),
    );
    let abs_instance = SofInstance::new(abs_net, abs_request)
        .map_err(|e| SolveError::Infeasible(format!("abstract instance invalid: {e}")))?;
    let abs_out = sof_core::solve_sofda(&abs_instance, config)?;

    // Expand abstract walks back to real paths via the owning controllers.
    let mut forest_walks = Vec::with_capacity(abs_out.forest.walks.len());
    for w in &abs_out.forest.walks {
        let mut real_nodes: Vec<NodeId> = vec![real_of[w.nodes[0].index()]];
        let mut positions = Vec::with_capacity(w.vnf_positions.len());
        let mut pos_iter = w.vnf_positions.iter().peekable();
        // A VNF placed directly at the walk's first node (source-as-VM).
        while pos_iter.peek() == Some(&&0) {
            positions.push(0);
            pos_iter.next();
        }
        for (hop, pair) in w.nodes.windows(2).enumerate() {
            let (ia, ib) = (pair[0], pair[1]);
            let (a, b) = (real_of[ia.index()], real_of[ib.index()]);
            let key = if ia < ib { (ia, ib) } else { (ib, ia) };
            if let Some(&d) = intra_edges.get(&key) {
                // Ask controller d to expand.
                let (reply_tx, reply_rx) = channel();
                to_controllers[d]
                    .send(Message::Expand {
                        a,
                        b,
                        reply: reply_tx,
                    })
                    .expect("controller alive");
                let path = reply_rx.recv().expect("controller replies");
                real_nodes.extend_from_slice(&path[1..]);
            } else {
                // Physical inter-domain link.
                real_nodes.push(b);
            }
            while pos_iter.peek() == Some(&&(hop + 1)) {
                positions.push(real_nodes.len() - 1);
                pos_iter.next();
            }
        }
        forest_walks.push(DestWalk {
            destination: real_of[w.destination.index()],
            source: real_of[w.source.index()],
            nodes: real_nodes,
            vnf_positions: positions,
        });
    }
    for tx in &to_controllers {
        let _ = tx.send(Message::Shutdown);
    }
    for h in handles {
        h.join().expect("controller thread panicked");
    }

    let mut forest = ServiceForest::new(instance.chain_len(), forest_walks);
    if config.shorten {
        forest.shorten(&instance.network);
    }
    forest.validate(instance).map_err(SolveError::Internal)?;
    let cost = forest.cost(&instance.network);
    let messages = msg_count.load(Ordering::Relaxed);
    let mut engine_stats = PathEngineStats::default();
    for d in 0..k {
        let s = domain_state(network.graph(), &part, config.seed, k, d)
            .engine
            .stats();
        engine_stats.hits += s.hits;
        engine_stats.misses += s.misses;
        engine_stats.stale += s.stale;
        engine_stats.evictions += s.evictions;
        engine_stats.repairs += s.repairs;
        engine_stats.partial_repairs += s.partial_repairs;
    }
    Ok(DistributedOutcome {
        outcome: SolveOutcome {
            forest,
            cost,
            stats: abs_out.stats,
        },
        domains: k,
        message_count: messages,
        engine_stats,
    })
}

/// A domain's local subgraph with id mappings.
struct LocalSubgraph {
    graph: Graph,
    index_of: HashMap<NodeId, NodeId>,
    original: Vec<NodeId>,
}

fn local_subgraph(graph: &Graph, part: &DomainPartition, d: usize) -> LocalSubgraph {
    let mut g = Graph::new();
    let mut index_of = HashMap::new();
    let mut original = Vec::new();
    for &v in &part.domains[d] {
        let id = g.add_node();
        index_of.insert(v, id);
        original.push(v);
    }
    for (_, e) in graph.edges() {
        if part.domain_of[e.u.index()] == d && part.domain_of[e.v.index()] == d {
            g.add_edge(index_of[&e.u], index_of[&e.v], e.cost);
        }
    }
    LocalSubgraph {
        graph: g,
        index_of,
        original,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sof_core::ServiceChain;
    use sof_graph::{generators, CostRange};

    fn instance(seed: u64) -> SofInstance {
        let mut rng = Rng64::seed_from(seed);
        let g = generators::gnp_connected(30, 0.15, CostRange::new(1.0, 7.0), &mut rng);
        let mut net = Network::all_switches(g);
        let picks = rng.sample_indices(30, 16);
        for &v in &picks[..7] {
            net.make_vm(NodeId::new(v), Cost::new(rng.range_f64(0.5, 3.0)));
        }
        SofInstance::new(
            net,
            Request::new(
                picks[7..10].iter().map(|&i| NodeId::new(i)).collect(),
                picks[10..14].iter().map(|&i| NodeId::new(i)).collect(),
                ServiceChain::with_len(2),
            ),
        )
        .unwrap()
    }

    #[test]
    fn partition_covers_all_nodes() {
        let inst = instance(1);
        for k in [1, 2, 3, 5] {
            let part = DomainPartition::new(inst.network.graph(), k, 7);
            let total: usize = part.domains.iter().map(Vec::len).sum();
            assert_eq!(total, 30);
            for d in 0..k {
                for &v in &part.domains[d] {
                    assert_eq!(part.domain_of[v.index()], d);
                }
            }
        }
    }

    #[test]
    fn distributed_matches_centralized_closely() {
        for seed in 0..6 {
            let inst = instance(seed);
            let central = sof_core::solve_sofda(&inst, &SofdaConfig::default()).unwrap();
            let dist = distributed_sofda(&inst, 3, &SofdaConfig::default()).unwrap();
            dist.outcome.forest.validate(&inst).unwrap();
            let (c, d) = (
                central.cost.total().value(),
                dist.outcome.cost.total().value(),
            );
            assert!(
                d <= c * 1.6 + 1e-9 && c <= d * 1.6 + 1e-9,
                "seed {seed}: centralized {c} vs distributed {d}"
            );
            assert!(dist.message_count >= 3, "matrices must be exchanged");
        }
    }

    #[test]
    fn domains_keep_warm_trees_across_rounds() {
        let inst = instance(17);
        let first = distributed_sofda(&inst, 4, &SofdaConfig::default()).unwrap();
        let second = distributed_sofda(&inst, 4, &SofdaConfig::default()).unwrap();
        // Identical network, seed and domain count: round two re-serves
        // every anchor tree from the persistent domain engines.
        assert!(
            second.engine_stats.hits >= first.engine_stats.hits + first.engine_stats.misses,
            "expected warm trees on round two: {:?} then {:?}",
            first.engine_stats,
            second.engine_stats
        );
        assert_eq!(second.engine_stats.misses, first.engine_stats.misses);
        assert_eq!(
            first.outcome.cost.total().value().to_bits(),
            second.outcome.cost.total().value().to_bits()
        );
    }

    #[test]
    fn single_domain_degenerates_gracefully() {
        let inst = instance(11);
        let out = distributed_sofda(&inst, 1, &SofdaConfig::default()).unwrap();
        out.outcome.forest.validate(&inst).unwrap();
    }

    #[test]
    fn many_domains_still_feasible() {
        let inst = instance(13);
        let out = distributed_sofda(&inst, 6, &SofdaConfig::default()).unwrap();
        out.outcome.forest.validate(&inst).unwrap();
        assert_eq!(out.domains, 6);
    }
}
