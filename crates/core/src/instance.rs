//! Problem instance model: network, service chain, request.

use sof_graph::{Cost, Graph, NodeId, PathEngine};
use std::fmt;

/// Role of a network node (§III of the paper: `V = M ∪ U`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A switch / router; setup cost is always 0.
    #[default]
    Switch,
    /// A virtual machine that can host exactly one VNF.
    Vm,
}

/// Errors raised when assembling an instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InstanceError {
    /// A node id referenced by the request is out of range.
    NodeOutOfRange(NodeId),
    /// A switch was given a non-zero setup cost.
    SwitchWithCost(NodeId),
    /// The request has no sources.
    NoSources,
    /// The request has no destinations.
    NoDestinations,
    /// The network graph is not connected.
    Disconnected,
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::NodeOutOfRange(n) => write!(f, "node {n} out of range"),
            InstanceError::SwitchWithCost(n) => write!(f, "switch {n} has non-zero setup cost"),
            InstanceError::NoSources => write!(f, "request needs at least one source"),
            InstanceError::NoDestinations => write!(f, "request needs at least one destination"),
            InstanceError::Disconnected => write!(f, "network graph must be connected"),
        }
    }
}

impl std::error::Error for InstanceError {}

/// The physical network: a weighted graph plus per-node kind and setup cost.
///
/// # Examples
///
/// ```
/// use sof_core::{Network, NodeKind};
/// use sof_graph::{Graph, Cost, NodeId};
///
/// let mut g = Graph::with_nodes(3);
/// g.add_edge(NodeId::new(0), NodeId::new(1), Cost::new(1.0));
/// g.add_edge(NodeId::new(1), NodeId::new(2), Cost::new(1.0));
/// let mut net = Network::all_switches(g);
/// net.make_vm(NodeId::new(1), Cost::new(5.0));
/// assert_eq!(net.vms(), vec![NodeId::new(1)]);
/// assert_eq!(net.node_cost(NodeId::new(1)), Cost::new(5.0));
/// ```
#[derive(Clone, Debug)]
pub struct Network {
    graph: Graph,
    kinds: Vec<NodeKind>,
    costs: Vec<Cost>,
    /// Memoizing shortest-path service for this network's graph. Shared by
    /// clones (an `Arc` handle). Every shortest-path consumer in the
    /// workspace — the §VII-C dynamics, walk shortening, conflict resolution,
    /// the chain metric and the baselines — queries it instead of throwaway
    /// Dijkstras, so a standing network (e.g. an `OnlineSession`) keeps its
    /// trees warm across operations. Graph mutations invalidate lazily via
    /// [`Graph::cost_epoch`].
    paths: PathEngine,
}

impl Network {
    /// Wraps a graph with every node marked as a zero-cost switch.
    pub fn all_switches(graph: Graph) -> Network {
        let n = graph.node_count();
        Network {
            graph,
            kinds: vec![NodeKind::Switch; n],
            costs: vec![Cost::ZERO; n],
            paths: PathEngine::new(),
        }
    }

    /// Builds a network from explicit kinds and costs.
    ///
    /// # Errors
    ///
    /// Returns [`InstanceError::SwitchWithCost`] when a switch carries a
    /// non-zero cost and panics if the vector lengths disagree.
    pub fn new(
        graph: Graph,
        kinds: Vec<NodeKind>,
        costs: Vec<Cost>,
    ) -> Result<Network, InstanceError> {
        assert_eq!(graph.node_count(), kinds.len(), "kinds length mismatch");
        assert_eq!(graph.node_count(), costs.len(), "costs length mismatch");
        for (i, (&k, &c)) in kinds.iter().zip(costs.iter()).enumerate() {
            if k == NodeKind::Switch && c != Cost::ZERO {
                return Err(InstanceError::SwitchWithCost(NodeId::new(i)));
            }
        }
        Ok(Network {
            graph,
            kinds,
            costs,
            paths: PathEngine::new(),
        })
    }

    /// Marks `v` as a VM with the given setup cost.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn make_vm(&mut self, v: NodeId, setup_cost: Cost) {
        self.kinds[v.index()] = NodeKind::Vm;
        self.costs[v.index()] = setup_cost;
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Mutable access to the graph (used by the online cost model to update
    /// link costs). Mutations renew the graph's cost epoch, which lazily
    /// invalidates the [`Network::paths`] cache — no eager clearing needed.
    pub fn graph_mut(&mut self) -> &mut Graph {
        &mut self.graph
    }

    /// The network's shared shortest-path engine (see [`PathEngine`]).
    ///
    /// It holds one tree per sorted source set, stamped with the cost epoch
    /// the tree is exact at, and replaces that tree when it recomputes it
    /// at another epoch; results are bit-identical to running
    /// [`sof_graph::ShortestPaths`] directly.
    pub fn paths(&self) -> &PathEngine {
        &self.paths
    }

    /// Gives this network a [fork](PathEngine::fork) of its engine: it
    /// reads the shared trees and counts into the shared counters, but the
    /// trees it recomputes stay its own. For a clone that is repriced and
    /// then dropped, so the original keeps its trees.
    pub fn fork_paths(&mut self) {
        self.paths = self.paths.fork();
    }

    /// Kind of node `v`.
    pub fn kind(&self, v: NodeId) -> NodeKind {
        self.kinds[v.index()]
    }

    /// Returns `true` when `v` is a VM.
    pub fn is_vm(&self, v: NodeId) -> bool {
        self.kinds[v.index()] == NodeKind::Vm
    }

    /// Setup cost of node `v` (0 for switches).
    pub fn node_cost(&self, v: NodeId) -> Cost {
        self.costs[v.index()]
    }

    /// Updates the setup cost of VM `v` (used by the online cost model).
    /// Writing the cost the VM already has is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `v` is a switch.
    pub fn set_node_cost(&mut self, v: NodeId, cost: Cost) {
        assert!(self.is_vm(v), "cannot assign a setup cost to switch {v}");
        if self.costs[v.index()] != cost {
            self.costs[v.index()] = cost;
        }
    }

    /// All VM nodes, in id order.
    pub fn vms(&self) -> Vec<NodeId> {
        (0..self.graph.node_count())
            .map(NodeId::new)
            .filter(|&v| self.is_vm(v))
            .collect()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Adds a fresh, isolated node of the given kind; link it afterwards
    /// with [`Graph::add_edge`] via [`Self::graph_mut`].
    ///
    /// # Panics
    ///
    /// Panics if a switch is given a non-zero setup cost.
    pub fn add_node(&mut self, kind: NodeKind, setup_cost: Cost) -> NodeId {
        assert!(
            kind == NodeKind::Vm || setup_cost == Cost::ZERO,
            "switches carry no setup cost"
        );
        let v = self.graph.add_node();
        self.kinds.push(kind);
        self.costs.push(setup_cost);
        v
    }

    /// Clones VM `v` into `copies` additional VM nodes with identical
    /// incident links and setup cost.
    ///
    /// This is the paper's device for letting one physical machine host
    /// several VNFs: "the scenario that requires a VM to support multiple
    /// VNFs can be addressed by first replicating the VM multiple times in
    /// the input graph".
    ///
    /// Returns the new node ids.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a VM.
    pub fn replicate_vm(&mut self, v: NodeId, copies: usize) -> Vec<NodeId> {
        assert!(self.is_vm(v), "{v} is not a VM");
        let neighbors: Vec<(NodeId, Cost)> = self
            .graph
            .neighbors(v)
            .map(|(n, e)| (n, self.graph.edge_cost(e)))
            .collect();
        let cost = self.node_cost(v);
        let mut out = Vec::with_capacity(copies);
        for _ in 0..copies {
            let c = self.graph.add_node();
            self.kinds.push(NodeKind::Vm);
            self.costs.push(cost);
            for &(n, w) in &neighbors {
                self.graph.add_edge(c, n, w);
            }
            out.push(c);
        }
        out
    }
}

/// An ordered chain of VNFs `C = (f1, …, f|C|)`.
///
/// # Examples
///
/// ```
/// use sof_core::ServiceChain;
/// let chain = ServiceChain::from_names(["transcoder", "watermark"]);
/// assert_eq!(chain.len(), 2);
/// assert_eq!(chain.name(1), "watermark");
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceChain {
    names: Vec<String>,
}

impl ServiceChain {
    /// A chain of `len` generically named VNFs `f1 … f_len`.
    pub fn with_len(len: usize) -> ServiceChain {
        ServiceChain {
            names: (1..=len).map(|i| format!("f{i}")).collect(),
        }
    }

    /// A chain from explicit VNF names.
    pub fn from_names<I, S>(names: I) -> ServiceChain
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        ServiceChain {
            names: names.into_iter().map(Into::into).collect(),
        }
    }

    /// Chain length `|C|`.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` for the empty chain (plain multicast).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Name of the VNF at 0-based position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn name(&self, i: usize) -> &str {
        &self.names[i]
    }

    /// Iterates over the VNF names in order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(String::as_str)
    }
}

/// A multicast request: sources holding the content, destinations demanding
/// it, and the VNF chain each destination's copy must traverse.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Request {
    /// Candidate sources `S`.
    pub sources: Vec<NodeId>,
    /// Destinations `D`.
    pub destinations: Vec<NodeId>,
    /// The demanded chain `C`.
    pub chain: ServiceChain,
}

impl Request {
    /// Creates a request.
    pub fn new(sources: Vec<NodeId>, destinations: Vec<NodeId>, chain: ServiceChain) -> Request {
        Request {
            sources,
            destinations,
            chain,
        }
    }
}

/// A complete, validated SOF problem instance.
#[derive(Clone, Debug)]
pub struct SofInstance {
    /// The physical network.
    pub network: Network,
    /// The multicast request.
    pub request: Request,
}

impl SofInstance {
    /// Assembles and validates an instance.
    ///
    /// Sources and destinations are deduplicated (order preserved).
    ///
    /// # Errors
    ///
    /// Returns an [`InstanceError`] for out-of-range ids, empty source or
    /// destination sets, or a disconnected network.
    pub fn new(network: Network, mut request: Request) -> Result<SofInstance, InstanceError> {
        let n = network.node_count();
        dedup_preserving_order(&mut request.sources);
        dedup_preserving_order(&mut request.destinations);
        if request.sources.is_empty() {
            return Err(InstanceError::NoSources);
        }
        if request.destinations.is_empty() {
            return Err(InstanceError::NoDestinations);
        }
        for &v in request.sources.iter().chain(request.destinations.iter()) {
            if v.index() >= n {
                return Err(InstanceError::NodeOutOfRange(v));
            }
        }
        if !network.graph().is_connected() {
            return Err(InstanceError::Disconnected);
        }
        Ok(SofInstance { network, request })
    }

    /// Chain length `|C|`.
    pub fn chain_len(&self) -> usize {
        self.request.chain.len()
    }
}

fn dedup_preserving_order(v: &mut Vec<NodeId>) {
    let mut seen = std::collections::HashSet::new();
    v.retain(|x| seen.insert(*x));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Graph {
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId::new(0), NodeId::new(1), Cost::new(1.0));
        g.add_edge(NodeId::new(1), NodeId::new(2), Cost::new(1.0));
        g.add_edge(NodeId::new(2), NodeId::new(3), Cost::new(1.0));
        g
    }

    #[test]
    fn network_roles() {
        let mut net = Network::all_switches(tiny());
        assert!(!net.is_vm(NodeId::new(1)));
        net.make_vm(NodeId::new(1), Cost::new(2.0));
        net.make_vm(NodeId::new(2), Cost::new(3.0));
        assert_eq!(net.vms(), vec![NodeId::new(1), NodeId::new(2)]);
        assert_eq!(net.node_cost(NodeId::new(0)), Cost::ZERO);
    }

    #[test]
    fn switch_with_cost_rejected() {
        let g = tiny();
        let err = Network::new(
            g,
            vec![NodeKind::Switch; 4],
            vec![Cost::new(1.0), Cost::ZERO, Cost::ZERO, Cost::ZERO],
        )
        .unwrap_err();
        assert_eq!(err, InstanceError::SwitchWithCost(NodeId::new(0)));
    }

    #[test]
    fn replicate_vm_copies_links_and_cost() {
        let mut net = Network::all_switches(tiny());
        net.make_vm(NodeId::new(1), Cost::new(7.0));
        let clones = net.replicate_vm(NodeId::new(1), 2);
        assert_eq!(clones.len(), 2);
        for &c in &clones {
            assert!(net.is_vm(c));
            assert_eq!(net.node_cost(c), Cost::new(7.0));
            assert_eq!(net.graph().degree(c), 2); // mirrors node 1's links
        }
    }

    #[test]
    fn instance_validation() {
        let net = Network::all_switches(tiny());
        let req = Request::new(
            vec![NodeId::new(0)],
            vec![NodeId::new(3)],
            ServiceChain::with_len(1),
        );
        let inst = SofInstance::new(net.clone(), req).unwrap();
        assert_eq!(inst.chain_len(), 1);

        let bad = Request::new(vec![], vec![NodeId::new(3)], ServiceChain::default());
        assert_eq!(
            SofInstance::new(net.clone(), bad).unwrap_err(),
            InstanceError::NoSources
        );
        let oob = Request::new(
            vec![NodeId::new(9)],
            vec![NodeId::new(3)],
            ServiceChain::default(),
        );
        assert_eq!(
            SofInstance::new(net, oob).unwrap_err(),
            InstanceError::NodeOutOfRange(NodeId::new(9))
        );
    }

    #[test]
    fn request_dedup() {
        let net = Network::all_switches(tiny());
        let req = Request::new(
            vec![NodeId::new(0), NodeId::new(0), NodeId::new(1)],
            vec![NodeId::new(3), NodeId::new(3)],
            ServiceChain::with_len(1),
        );
        let inst = SofInstance::new(net, req).unwrap();
        assert_eq!(inst.request.sources.len(), 2);
        assert_eq!(inst.request.destinations.len(), 1);
    }

    #[test]
    fn chain_names() {
        let c = ServiceChain::with_len(3);
        assert_eq!(c.name(0), "f1");
        assert_eq!(c.iter().count(), 3);
        assert!(ServiceChain::default().is_empty());
    }
}
