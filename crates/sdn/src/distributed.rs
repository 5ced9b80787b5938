//! Distributed SOFDA over multiple SDN controllers (§VI of the paper).
//!
//! The network is split into domains, one controller per domain. As in the
//! paper's ODL-SDNi design, each controller only sees its own domain's
//! topology and exchanges **border-router distance matrices** east-west; the
//! leader (the controller receiving the request) assembles an *abstract
//! graph* — border routers, sources, VMs and destinations connected by
//! intra-domain distance edges plus the physical inter-domain links — and
//! runs SOFDA on it. Hierarchical-routing exactness: any path decomposes at
//! domain boundaries, so abstract distances equal real distances up to
//! rounding (the abstract graph sums a path in a different order). The
//! forest can still differ from the centralized one: the abstract graph
//! lets Steiner trees branch only at anchors, and the heuristic Steiner
//! stage runs on a different graph (docs/DISTRIBUTED.md). Selected
//! abstract links are finally expanded back into real paths by their owning
//! controllers, and VNF conflicts are resolved on the assembled walks
//! exactly as in the centralized algorithm.
//!
//! Controllers are plain per-domain values the leader calls in process;
//! [`DistributedOutcome::message_count`] counts the east-west messages a
//! deployment would send: one matrix per domain, and a request and a reply
//! per expanded link.

use sof_core::{
    DestWalk, Network, Request, ServiceForest, SofInstance, SofdaConfig, SolveError, SolveOutcome,
};
use sof_graph::{Cost, Graph, NodeId, Rng64, ShortestPaths};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// A partition of the network into controller domains.
#[derive(Debug)]
struct DomainPartition {
    /// `domain_of[v]` = controller index of node `v`.
    domain_of: Vec<usize>,
    /// Node lists per domain, in ascending id order.
    domains: Vec<Vec<NodeId>>,
}

impl DomainPartition {
    /// Splits `graph` into `k` connected-ish domains by multi-seed BFS.
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or exceeds the node count.
    fn new(graph: &Graph, k: usize, seed: u64) -> DomainPartition {
        let n = graph.node_count();
        assert!(k >= 1 && k <= n, "bad domain count {k} for {n} nodes");
        let mut rng = Rng64::seed_from(seed);
        let seeds = rng.sample_indices(n, k);
        let mut domain_of = vec![usize::MAX; n];
        let mut frontier: VecDeque<(NodeId, usize)> = seeds
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
    fn borders(&self, graph: &Graph, d: usize) -> Vec<NodeId> {
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

/// Result of a distributed solve.
#[derive(Debug)]
pub struct DistributedOutcome {
    /// The assembled (real-network) solve outcome.
    pub outcome: SolveOutcome,
    /// Total east-west messages exchanged.
    pub message_count: usize,
}

/// One domain's controller: a shortest-path tree from each of its anchors
/// over the domain's local subgraph.
struct Controller {
    /// The domain's nodes in local-id order.
    nodes: Vec<NodeId>,
    /// A local tree per anchor, by real id.
    trees: BTreeMap<NodeId, ShortestPaths>,
}

impl Controller {
    /// Builds domain `d`'s local subgraph and its anchor trees.
    fn new(
        graph: &Graph,
        part: &DomainPartition,
        d: usize,
        anchors: &BTreeSet<NodeId>,
    ) -> Controller {
        let mut controller = Controller {
            nodes: part.domains[d].clone(),
            trees: BTreeMap::new(),
        };
        let mut local = Graph::with_nodes(controller.nodes.len());
        for (_, e) in graph.edges() {
            if part.domain_of[e.u.index()] == d && part.domain_of[e.v.index()] == d {
                local.add_edge(controller.local(e.u), controller.local(e.v), e.cost);
            }
        }
        controller.trees = anchors
            .iter()
            .map(|&a| (a, ShortestPaths::from_source(&local, controller.local(a))))
            .collect();
        controller
    }

    /// Id of `v` in the local subgraph: its rank among the domain's nodes.
    fn local(&self, v: NodeId) -> NodeId {
        let rank = self.nodes.binary_search(&v);
        NodeId::new(rank.expect("a node of this domain"))
    }

    /// Anchor-to-anchor distances within the domain: its one message to
    /// the leader. Each connected pair is sent once, smaller real id first,
    /// at the distance read from that anchor's tree.
    fn anchor_matrix(&self) -> Vec<(NodeId, NodeId, Cost)> {
        let mut entries = Vec::new();
        for (&a, sp) in &self.trees {
            for &b in self.trees.keys().filter(|&&b| b > a) {
                let dist = sp.dist(self.local(b));
                if dist.is_finite() {
                    entries.push((a, b, dist));
                }
            }
        }
        entries
    }

    /// Expands the abstract link from anchor `a` to anchor `b` into the
    /// real path it stands for: a request and a reply.
    fn expand(&self, a: NodeId, b: NodeId) -> Vec<NodeId> {
        let sp = &self.trees[&a];
        let path = sp
            .path_to(self.local(b))
            .expect("anchors connected locally");
        path.into_iter().map(|i| self.nodes[i.index()]).collect()
    }
}

/// The leader's abstract graph and its id mappings.
struct AbstractGraph {
    graph: Graph,
    /// Abstract id of each anchor, by real id.
    abs_of: BTreeMap<NodeId, NodeId>,
    /// Real id of each abstract node.
    real_of: Vec<NodeId>,
    /// Owning domain of each distance edge, keyed by its abstract ends in
    /// ascending order.
    intra: HashMap<(NodeId, NodeId), usize>,
}

impl AbstractGraph {
    /// The abstract image of `v`, added on first sight.
    fn node(&mut self, v: NodeId) -> NodeId {
        *self.abs_of.entry(v).or_insert_with(|| {
            self.real_of.push(v);
            self.graph.add_node()
        })
    }
}

/// Assembles the abstract graph from the controllers' matrices, in domain
/// order so that abstract ids (and the whole solve) are deterministic, and
/// the physical inter-domain links.
fn abstract_graph(
    graph: &Graph,
    part: &DomainPartition,
    controllers: &[Controller],
) -> AbstractGraph {
    let mut abs = AbstractGraph {
        graph: Graph::new(),
        abs_of: BTreeMap::new(),
        real_of: Vec::new(),
        intra: HashMap::new(),
    };
    for (d, controller) in controllers.iter().enumerate() {
        for (a, b, dist) in controller.anchor_matrix() {
            let (ia, ib) = (abs.node(a), abs.node(b));
            abs.graph.add_edge(ia, ib, dist);
            abs.intra.insert((ia.min(ib), ia.max(ib)), d);
        }
    }
    for (_, e) in graph.edges() {
        if part.domain_of[e.u.index()] != part.domain_of[e.v.index()] {
            let (ia, ib) = (abs.node(e.u), abs.node(e.v));
            abs.graph.add_edge(ia, ib, e.cost);
        }
    }
    // Anchors that appeared in no distance entry and no inter-domain link
    // (e.g. the lone anchor of a degenerate single-node domain) still need
    // an abstract image, or role projection would miss them.
    for controller in controllers {
        for &v in controller.trees.keys() {
            abs.node(v);
        }
    }
    abs
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
pub fn distributed_sofda(
    instance: &SofInstance,
    k: usize,
    config: &SofdaConfig,
) -> Result<DistributedOutcome, SolveError> {
    let graph = instance.network.graph();
    let n = graph.node_count();
    if k == 0 || k > n {
        return Err(SolveError::Infeasible(format!(
            "bad domain count {k} for a {n}-node network"
        )));
    }
    let part = DomainPartition::new(graph, k, config.seed);

    // Anchor set per domain: borders + local sources/VMs/destinations.
    let mut anchors_of: Vec<BTreeSet<NodeId>> = (0..k)
        .map(|d| part.borders(graph, d).into_iter().collect())
        .collect();
    let request = &instance.request;
    for v in request
        .sources
        .iter()
        .chain(&request.destinations)
        .copied()
        .chain(instance.network.vms())
    {
        anchors_of[part.domain_of[v.index()]].insert(v);
    }
    let controllers: Vec<Controller> = anchors_of
        .iter()
        .enumerate()
        .map(|(d, anchors)| Controller::new(graph, &part, d, anchors))
        .collect();
    let AbstractGraph {
        graph: abs_graph,
        abs_of,
        real_of,
        intra,
    } = abstract_graph(graph, &part, &controllers);
    let mut messages = k;

    // Abstract instance: same roles projected onto abstract ids.
    let mut abs_net = Network::all_switches(abs_graph);
    for v in instance.network.vms() {
        abs_net.make_vm(abs_of[&v], instance.network.node_cost(v));
    }
    let abs_request = Request::new(
        request.sources.iter().map(|s| abs_of[s]).collect(),
        request.destinations.iter().map(|d| abs_of[d]).collect(),
        request.chain.clone(),
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
            if let Some(&d) = intra.get(&(ia.min(ib), ia.max(ib))) {
                messages += 2;
                real_nodes.extend_from_slice(&controllers[d].expand(a, b)[1..]);
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

    let mut forest = ServiceForest::new(instance.chain_len(), forest_walks);
    if config.shorten {
        forest.shorten(&instance.network);
    }
    forest.validate(instance).map_err(SolveError::Internal)?;
    let cost = forest.cost(&instance.network);
    Ok(DistributedOutcome {
        outcome: SolveOutcome {
            forest,
            cost,
            stats: abs_out.stats,
        },
        message_count: messages,
    })
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
        // The gap measured on SoftLayer and Cogent (docs/DISTRIBUTED.md):
        // at most 7.4 % costlier and 2.9 % cheaper. The six generated
        // instances (k = 3) sit at d/c = 1; the probe's extremes — Cogent
        // seed 32 at k = 2 and 4 (0.97075) and Cogent seed 8 at k = 4
        // (1.0738) — put each bound within a few thousandths of a run.
        let config = SofdaConfig::default();
        let cogent = sof_topo::cogent();
        let probe = |seed| {
            let mut p = sof_topo::ScenarioParams::paper_defaults().with_seed(seed);
            (p.sources, p.destinations, p.vm_count, p.chain_len) = (5, 5, 12, 3);
            sof_topo::build_instance(&cogent, &p)
        };
        let cases = (0..6)
            .map(|seed| (format!("generated seed {seed}"), instance(seed), 3))
            .chain(
                [(32, 2), (32, 4), (8, 4)]
                    .map(|(seed, k)| (format!("Cogent seed {seed}, k = {k}"), probe(seed), k)),
            );
        let (mut lowest, mut highest) = (f64::INFINITY, 0.0f64);
        for (name, inst, k) in cases {
            let central = sof_core::solve_sofda(&inst, &config).unwrap();
            let dist = distributed_sofda(&inst, k, &config).unwrap();
            dist.outcome.forest.validate(&inst).unwrap();
            let (c, d) = (
                central.cost.total().value(),
                dist.outcome.cost.total().value(),
            );
            assert!(
                d <= c * 1.08 && d >= c * 0.97,
                "{name}: centralized {c} vs distributed {d}"
            );
            assert!(dist.message_count >= 3, "matrices must be exchanged");
            (lowest, highest) = (lowest.min(d / c), highest.max(d / c));
        }
        assert!(
            lowest < 0.975 && highest > 1.07,
            "the fixtures no longer reach the bounds: d/c {lowest}–{highest}"
        );
    }

    #[test]
    fn abstract_distances_equal_real_ones_up_to_rounding() {
        // Every anchor-to-anchor distance on the leader's abstract graph
        // against a Dijkstra on the full graph: 200 generated graphs, each
        // split into k = 1..=6 domains with a random anchor set on top of
        // the borders. The abstract graph sums a path in another order
        // (each domain's leg first, then the legs), so the two agree to
        // rounding, not to the bit.
        let mut rng = Rng64::seed_from(0x0AB5_7AC7);
        let mut checked = 0;
        for case in 0..200u32 {
            let n = 12 + rng.below(30);
            let costs = CostRange::new(0.5, 9.5);
            let graph = if case.is_multiple_of(2) {
                generators::gnp_connected(n, 0.15, costs, &mut rng)
            } else {
                generators::inet_like(n, n + n / 2, costs, &mut rng)
            };
            for k in 1..=6 {
                let part = DomainPartition::new(&graph, k, rng.next_u64());
                let mut anchors_of: Vec<BTreeSet<NodeId>> = (0..k)
                    .map(|d| part.borders(&graph, d).into_iter().collect())
                    .collect();
                let extra = rng.below(n / 2) + 1;
                for v in rng.sample_indices(n, extra) {
                    anchors_of[part.domain_of[v]].insert(NodeId::new(v));
                }
                let controllers: Vec<Controller> = anchors_of
                    .iter()
                    .enumerate()
                    .map(|(d, anchors)| Controller::new(&graph, &part, d, anchors))
                    .collect();
                let abs = abstract_graph(&graph, &part, &controllers);
                let anchors: BTreeSet<NodeId> = anchors_of.into_iter().flatten().collect();
                assert!(abs.abs_of.keys().eq(&anchors), "case {case}, k {k}");
                for (&a, &ia) in &abs.abs_of {
                    let real = ShortestPaths::from_source(&graph, a);
                    let seen = ShortestPaths::from_source(&abs.graph, ia);
                    for (&b, &ib) in &abs.abs_of {
                        let (r, s) = (real.dist(b).value(), seen.dist(ib).value());
                        assert!(
                            (r - s).abs() <= 1e-12 * r,
                            "case {case}, k {k}: {a:?} to {b:?} is {r}, abstract {s}"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 100_000, "only {checked} pairs checked");
    }

    #[test]
    fn single_domain_degenerates_gracefully() {
        let inst = instance(11);
        let out = distributed_sofda(&inst, 1, &SofdaConfig::default()).unwrap();
        out.outcome.forest.validate(&inst).unwrap();
    }

    fn eat(hash: u64, x: u64) -> u64 {
        (hash ^ x).wrapping_mul(0x0100_0000_01b3)
    }

    /// FNV-1a over an outcome: every walk's nodes and VNF positions, the
    /// cost bits, `message_count` and every field of `SolveOutcome::stats`.
    /// An error hashes as one marker.
    fn digest(out: &Result<DistributedOutcome, SolveError>, mut hash: u64) -> u64 {
        let Ok(out) = out else {
            return eat(hash, u64::MAX);
        };
        let o = &out.outcome;
        for w in &o.forest.walks {
            hash = eat(hash, w.source.index() as u64);
            hash = eat(hash, w.destination.index() as u64);
            w.nodes
                .iter()
                .for_each(|v| hash = eat(hash, v.index() as u64));
            w.vnf_positions
                .iter()
                .for_each(|&p| hash = eat(hash, p as u64));
        }
        hash = eat(hash, o.cost.setup.value().to_bits());
        hash = eat(hash, o.cost.connection.value().to_bits());
        hash = eat(hash, out.message_count as u64);
        let s = &o.stats;
        let c = &s.conflicts;
        for x in [s.candidate_chains, c.case1, c.case2, c.case3, c.fallbacks] {
            hash = eat(hash, x as u64);
        }
        hash = eat(hash, s.stroll_nodes);
        hash = eat(hash, s.stroll_handovers);
        eat(hash, s.steiner_cost.value().to_bits())
    }

    /// A generated instance: `gnp` on even cases, `inet_like` on odd ones,
    /// 24–41 nodes, a chain of 1–3.
    fn generated(case: u64) -> SofInstance {
        let mut rng = Rng64::seed_from(0xD157 + case);
        let n = 24 + rng.below(18);
        let costs = CostRange::new(1.0, 9.0);
        let g = if case.is_multiple_of(2) {
            generators::gnp_connected(n, 0.12, costs, &mut rng)
        } else {
            generators::inet_like(n, n + n / 2, costs, &mut rng)
        };
        let mut net = Network::all_switches(g);
        let picks = rng.sample_indices(n, 15);
        for &v in &picks[..7] {
            net.make_vm(NodeId::new(v), Cost::new(rng.range_f64(0.5, 4.0)));
        }
        SofInstance::new(
            net,
            Request::new(
                picks[7..10].iter().map(|&i| NodeId::new(i)).collect(),
                picks[10..15].iter().map(|&i| NodeId::new(i)).collect(),
                ServiceChain::with_len(1 + rng.below(3)),
            ),
        )
        .unwrap()
    }

    #[test]
    fn outcomes_are_bit_identical_on_generated_and_paper_instances() {
        // Every outcome pinned at the values of the threaded controllers:
        // 24 generated graphs at k = 1..=6, and SoftLayer and Cogent with
        // 5 sources, 4 destinations and 12 VMs at k = 2 and 4.
        let config = SofdaConfig::default();
        let mut generated_hash = 0xcbf2_9ce4_8422_2325;
        for case in 0..24 {
            let inst = generated(case);
            for k in 1..=6 {
                generated_hash = digest(&distributed_sofda(&inst, k, &config), generated_hash);
            }
        }
        let mut paper_hash = 0xcbf2_9ce4_8422_2325;
        for topo in [sof_topo::softlayer(), sof_topo::cogent()] {
            for seed in 0..6 {
                let mut p = sof_topo::ScenarioParams::paper_defaults().with_seed(seed);
                (p.sources, p.destinations, p.vm_count) = (5, 4, 12);
                let inst = sof_topo::build_instance(&topo, &p);
                for k in [2, 4] {
                    paper_hash = digest(&distributed_sofda(&inst, k, &config), paper_hash);
                }
            }
        }
        assert_eq!(
            generated_hash, 0x5057_7094_bedf_1cc9,
            "generated outcomes moved"
        );
        assert_eq!(
            paper_hash, 0x5965_ef19_ece6_7d18,
            "SoftLayer / Cogent outcomes moved"
        );
    }

    #[test]
    fn many_domains_still_feasible() {
        let inst = instance(13);
        let out = distributed_sofda(&inst, 6, &SofdaConfig::default()).unwrap();
        out.outcome.forest.validate(&inst).unwrap();
    }
}
