//! Service overlay forest representation, cost accounting and validation.

use crate::{Network, SofInstance};
use sof_graph::{Cost, NodeId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::RangeInclusive;

/// One destination's full service walk: source → (f1 VM) → … → (f|C| VM) → destination.
///
/// `vnf_positions[i]` is the index into `nodes` of the VM running the
/// `i`-th VNF (0-based). A walk may revisit nodes — the paper's node-cloning
/// semantics — but each VNF position is distinct.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DestWalk {
    /// The destination served by this walk.
    pub destination: NodeId,
    /// The source chosen for this destination.
    pub source: NodeId,
    /// The node sequence of the walk (source first, destination last).
    pub nodes: Vec<NodeId>,
    /// Positions in `nodes` of the VMs running `f1 … f|C|` in order.
    pub vnf_positions: Vec<usize>,
}

impl DestWalk {
    /// The VM node assigned to VNF `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ |C|`.
    pub fn vnf_node(&self, i: usize) -> NodeId {
        self.nodes[self.vnf_positions[i]]
    }

    /// Segment boundaries: position 0, each VNF position, then the last
    /// position. Segment `i` spans `bounds[i]..=bounds[i+1]`.
    fn bounds(&self) -> Vec<usize> {
        let mut b = Vec::with_capacity(self.vnf_positions.len() + 2);
        b.push(0);
        b.extend_from_slice(&self.vnf_positions);
        b.push(self.nodes.len() - 1);
        b
    }

    /// Anchor `j` of the walk: the source (`j = 0`), the VM of VNF `j − 1`,
    /// or the destination (`j = |C| + 1`). Segment `s` runs from anchor `s`
    /// to anchor `s + 1`.
    pub(crate) fn anchor(&self, j: usize) -> NodeId {
        self.nodes[self.bounds()[j]]
    }

    /// Replaces segments `segments` with current shortest paths through the
    /// anchors `via`, which take the place of the anchors strictly inside
    /// the range; the walk outside it is kept. Every §VII-C edit is one
    /// call: re-routing the whole walk keeps its VNF VMs, deleting VNF `i`
    /// merges segments `i..=i + 1` through nothing, inserting one at `i`
    /// splits segment `i` at its VM, migrating VNF `i` re-routes segments
    /// `i..=i + 1` through the new VM. Each new segment is read from the
    /// tree of a VM at one of its ends ([`segment_path`]).
    ///
    /// Returns `None`, leaving the walk as it was, when an anchor is cut
    /// off from the next.
    pub(crate) fn reroute(
        &mut self,
        network: &Network,
        segments: RangeInclusive<usize>,
        via: &[NodeId],
    ) -> Option<()> {
        let (lo, hi) = segments.into_inner();
        let bounds = self.bounds();
        let vnfs = self.vnf_positions.len() + lo + via.len() - hi;
        let mut anchors = vec![self.nodes[bounds[lo]]];
        anchors.extend_from_slice(via);
        anchors.push(self.nodes[bounds[hi + 1]]);
        let mut nodes = self.nodes[..=bounds[lo]].to_vec();
        let mut positions = self.vnf_positions[..lo].to_vec();
        for (j, pair) in anchors.windows(2).enumerate() {
            if j > 0 {
                positions.push(nodes.len() - 1);
            }
            let path = segment_path(network, pair[0], pair[1], lo + j, vnfs)?;
            nodes.extend_from_slice(&path[1..]);
        }
        let (end, old_end) = (nodes.len() - 1, bounds[hi + 1]);
        positions.extend(
            self.vnf_positions[hi..]
                .iter()
                .map(|&p| end + (p - old_end)),
        );
        nodes.extend_from_slice(&self.nodes[old_end + 1..]);
        self.nodes = nodes;
        self.vnf_positions = positions;
        Some(())
    }
}

/// A shortest path `a → b` for segment `s` of a walk placing `vnfs` VNFs,
/// read from the tree of the VM at one of its ends — a tree the solve that
/// made the walk already rooted (docs/METRICS.md, "Which roots a solve asks
/// for"). Segment 0 (source → first VNF VM) is read from that VM's tree
/// backwards, since the network is undirected; every later segment from the
/// VM it starts at. Only a chainless walk has no VM and reads from its
/// source.
fn segment_path(
    network: &Network,
    a: NodeId,
    b: NodeId,
    s: usize,
    vnfs: usize,
) -> Option<Vec<NodeId>> {
    let from_far_end = s == 0 && vnfs > 0;
    let (root, far) = if from_far_end { (b, a) } else { (a, b) };
    let mut path = network
        .paths()
        .rooted_at(network.graph(), root)
        .path_to(far)?;
    if from_far_end {
        path.reverse();
    }
    Some(path)
}

/// Why a forest failed validation.
#[derive(Clone, Debug, PartialEq)]
pub enum ForestError {
    /// A destination of the request is not served.
    MissingDestination(NodeId),
    /// A destination is served by more than one walk.
    DuplicateDestination(NodeId),
    /// A walk does not start at a requested source.
    BadSource(NodeId),
    /// A walk does not end at its destination.
    BadEndpoint(NodeId),
    /// Two consecutive walk nodes are not adjacent in the network.
    NotAdjacent(NodeId, NodeId),
    /// Wrong number of VNF placements on a walk.
    WrongPlacementCount {
        /// The walk's destination.
        destination: NodeId,
        /// Placements found.
        found: usize,
        /// Placements expected (`|C|`).
        expected: usize,
    },
    /// VNF positions are not strictly increasing / in range.
    BadPlacementOrder(NodeId),
    /// A VNF is placed on a non-VM node.
    PlacementOnSwitch(NodeId),
    /// One VM is asked to run two different VNFs (constraint (6) of the IP).
    VnfConflict {
        /// The overloaded VM.
        vm: NodeId,
        /// First VNF index.
        a: usize,
        /// Second VNF index.
        b: usize,
    },
    /// Stored cost does not match the recomputed cost.
    CostMismatch {
        /// Stored value.
        stored: Cost,
        /// Recomputed value.
        recomputed: Cost,
    },
}

impl fmt::Display for ForestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForestError::MissingDestination(d) => write!(f, "destination {d} not served"),
            ForestError::DuplicateDestination(d) => write!(f, "destination {d} served twice"),
            ForestError::BadSource(s) => write!(f, "walk starts at non-source {s}"),
            ForestError::BadEndpoint(d) => write!(f, "walk does not end at destination {d}"),
            ForestError::NotAdjacent(a, b) => write!(f, "walk hop {a}→{b} is not a network link"),
            ForestError::WrongPlacementCount {
                destination,
                found,
                expected,
            } => write!(
                f,
                "walk to {destination} places {found} VNFs, expected {expected}"
            ),
            ForestError::BadPlacementOrder(d) => {
                write!(f, "walk to {d} has out-of-order VNF positions")
            }
            ForestError::PlacementOnSwitch(v) => write!(f, "VNF placed on switch {v}"),
            ForestError::VnfConflict { vm, a, b } => {
                write!(f, "VM {vm} asked to run both f{} and f{}", a + 1, b + 1)
            }
            ForestError::CostMismatch { stored, recomputed } => {
                write!(f, "cost mismatch: stored {stored}, recomputed {recomputed}")
            }
        }
    }
}

impl std::error::Error for ForestError {}

/// Setup + connection cost of a forest (the paper's objective).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ForestCost {
    /// Total setup cost of enabled VMs.
    pub setup: Cost,
    /// Total connection cost over all chain segments.
    pub connection: Cost,
}

impl ForestCost {
    /// The objective value `setup + connection`.
    pub fn total(&self) -> Cost {
        self.setup + self.connection
    }
}

impl fmt::Display for ForestCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (setup {} + connection {})",
            self.total(),
            self.setup,
            self.connection
        )
    }
}

/// Aggregate statistics of a forest.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ForestStats {
    /// Number of distinct sources used (= number of service trees).
    pub trees: usize,
    /// Number of enabled VMs.
    pub used_vms: usize,
    /// Number of destinations served.
    pub destinations: usize,
    /// Total node visits across walks (walk length proxy).
    pub walk_nodes: usize,
}

/// A service overlay forest: one walk per destination plus the chain length.
///
/// Cost accounting follows the paper's IP exactly: for each chain *segment*
/// `i ∈ 0..=|C|` (segment 0 runs source→f1, segment `|C|` runs
/// f|C|→destinations) the **union** of directed links used by any walk in
/// that segment is charged once (`τ_{f,u,v}`); enabled VMs are charged their
/// setup cost once (`σ_{f,u}`). Revisiting a link in another segment pays
/// again — the "cloned node" semantics of §III.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServiceForest {
    /// Chain length `|C|`.
    pub chain_len: usize,
    /// One walk per destination.
    pub walks: Vec<DestWalk>,
}

impl ServiceForest {
    /// Creates a forest from per-destination walks.
    pub fn new(chain_len: usize, walks: Vec<DestWalk>) -> ServiceForest {
        ServiceForest { chain_len, walks }
    }

    /// The global VM → VNF-index assignment (union over walks).
    ///
    /// # Errors
    ///
    /// Returns [`ForestError::VnfConflict`] if two walks disagree.
    pub fn enabled_vms(&self) -> Result<BTreeMap<NodeId, usize>, ForestError> {
        let mut enabled = BTreeMap::new();
        for w in &self.walks {
            for (i, &pos) in w.vnf_positions.iter().enumerate() {
                let vm = w.nodes[pos];
                match enabled.get(&vm) {
                    None => {
                        enabled.insert(vm, i);
                    }
                    Some(&j) if j == i => {}
                    Some(&j) => {
                        return Err(ForestError::VnfConflict { vm, a: j, b: i });
                    }
                }
            }
        }
        Ok(enabled)
    }

    /// Directed link set per segment (`τ` in the IP).
    pub fn segment_edges(&self) -> Vec<BTreeSet<(NodeId, NodeId)>> {
        let mut segs = vec![BTreeSet::new(); self.chain_len + 1];
        for w in &self.walks {
            let bounds = w.bounds();
            for s in 0..=self.chain_len {
                let (lo, hi) = (bounds[s], bounds[s + 1]);
                for t in lo..hi {
                    segs[s].insert((w.nodes[t], w.nodes[t + 1]));
                }
            }
        }
        segs
    }

    /// Computes the forest cost on `network`.
    pub fn cost(&self, network: &Network) -> ForestCost {
        let enabled = self
            .enabled_vms()
            .expect("cost() requires a conflict-free forest");
        let setup: Cost = enabled.keys().map(|&v| network.node_cost(v)).sum();
        let mut connection = Cost::ZERO;
        for seg in self.segment_edges() {
            for (a, b) in seg {
                let e = network
                    .graph()
                    .edge_between(a, b)
                    .expect("forest uses only network links");
                connection += network.graph().edge_cost(e);
            }
        }
        ForestCost { setup, connection }
    }

    /// Destinations whose walks traverse the undirected link `u`–`v`
    /// (either direction), in walk order. The survivability layer's
    /// disruption test for a link failure.
    pub fn destinations_via_edge(&self, u: NodeId, v: NodeId) -> Vec<NodeId> {
        let key = (u.min(v), u.max(v));
        self.walks
            .iter()
            .filter(|w| {
                w.nodes
                    .windows(2)
                    .any(|p| (p[0].min(p[1]), p[0].max(p[1])) == key)
            })
            .map(|w| w.destination)
            .collect()
    }

    /// Destinations whose walks run a VNF on `vm`, in walk order. The
    /// disruption test for a VM failure.
    pub fn destinations_on_vm(&self, vm: NodeId) -> Vec<NodeId> {
        self.walks
            .iter()
            .filter(|w| w.vnf_positions.iter().any(|&p| w.nodes[p] == vm))
            .map(|w| w.destination)
            .collect()
    }

    /// Destinations whose walks visit `n` anywhere (endpoint, transit hop,
    /// or VNF placement), in walk order. The disruption test for a node or
    /// domain failure.
    pub fn destinations_via_node(&self, n: NodeId) -> Vec<NodeId> {
        self.walks
            .iter()
            .filter(|w| w.nodes.contains(&n))
            .map(|w| w.destination)
            .collect()
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> ForestStats {
        let sources: BTreeSet<NodeId> = self.walks.iter().map(|w| w.source).collect();
        let used_vms = self.enabled_vms().map(|m| m.len()).unwrap_or(0);
        ForestStats {
            trees: sources.len(),
            used_vms,
            destinations: self.walks.len(),
            walk_nodes: self.walks.iter().map(|w| w.nodes.len()).sum(),
        }
    }

    /// Full feasibility check against an instance (§III's definition):
    /// every destination served once by a walk that starts at a candidate
    /// source, traverses network links, visits `|C|` VMs in chain order, and
    /// no VM runs two VNFs.
    ///
    /// # Errors
    ///
    /// The first violated invariant, as a [`ForestError`].
    pub fn validate(&self, instance: &SofInstance) -> Result<(), ForestError> {
        let net = &instance.network;
        let req = &instance.request;
        if self.chain_len != req.chain.len() {
            return Err(ForestError::WrongPlacementCount {
                destination: NodeId::new(0),
                found: self.chain_len,
                expected: req.chain.len(),
            });
        }
        // Destination coverage.
        let mut served = BTreeSet::new();
        for w in &self.walks {
            if !served.insert(w.destination) {
                return Err(ForestError::DuplicateDestination(w.destination));
            }
        }
        for &d in &req.destinations {
            if !served.contains(&d) {
                return Err(ForestError::MissingDestination(d));
            }
        }
        let sources: BTreeSet<NodeId> = req.sources.iter().copied().collect();
        for w in &self.walks {
            if w.nodes.is_empty() || w.nodes[0] != w.source || !sources.contains(&w.source) {
                return Err(ForestError::BadSource(w.source));
            }
            if *w.nodes.last().expect("non-empty") != w.destination {
                return Err(ForestError::BadEndpoint(w.destination));
            }
            for hop in w.nodes.windows(2) {
                if net.graph().edge_between(hop[0], hop[1]).is_none() {
                    return Err(ForestError::NotAdjacent(hop[0], hop[1]));
                }
            }
            if w.vnf_positions.len() != self.chain_len {
                return Err(ForestError::WrongPlacementCount {
                    destination: w.destination,
                    found: w.vnf_positions.len(),
                    expected: self.chain_len,
                });
            }
            let mut prev: Option<usize> = None;
            for &pos in &w.vnf_positions {
                // Position 0 is legal when the source node itself is a VM
                // (the IP permits processing right at the source).
                if pos >= w.nodes.len() || prev.is_some_and(|p| pos <= p) {
                    return Err(ForestError::BadPlacementOrder(w.destination));
                }
                if !net.is_vm(w.nodes[pos]) {
                    return Err(ForestError::PlacementOnSwitch(w.nodes[pos]));
                }
                prev = Some(pos);
            }
        }
        // Global single-VNF-per-VM (also errors on conflicts).
        self.enabled_vms()?;
        Ok(())
    }

    /// Replaces every segment between consecutive anchors (source, VNF VMs,
    /// destination) of every walk with the current shortest path, keeping
    /// each walk's VMs (§VII-C (5)).
    ///
    /// # Panics
    ///
    /// Panics if two anchors of a walk are disconnected.
    pub(crate) fn reroute(&mut self, network: &Network) {
        for w in &mut self.walks {
            let vms: Vec<NodeId> = w.vnf_positions.iter().map(|&p| w.nodes[p]).collect();
            w.reroute(network, 0..=vms.len(), &vms)
                .expect("forest nodes are connected");
        }
    }

    /// [`Self::reroute`], kept only if the total forest cost goes down
    /// (per-walk shortening can break cross-walk sharing).
    ///
    /// Returns `true` if the forest was changed.
    pub fn shorten(&mut self, network: &Network) -> bool {
        let before = self.cost(network).total();
        let mut candidate = self.clone();
        candidate.reroute(network);
        let after = candidate.cost(network).total();
        if after < before {
            *self = candidate;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Request, ServiceChain};
    use sof_graph::Graph;

    /// Path 0-1-2-3-4 with VMs at 1 (cost 2) and 2 (cost 3), unit links.
    fn fixture() -> SofInstance {
        let mut g = Graph::with_nodes(5);
        for i in 0..4 {
            g.add_edge(NodeId::new(i), NodeId::new(i + 1), Cost::new(1.0));
        }
        let mut net = Network::all_switches(g);
        net.make_vm(NodeId::new(1), Cost::new(2.0));
        net.make_vm(NodeId::new(2), Cost::new(3.0));
        SofInstance::new(
            net,
            Request::new(
                vec![NodeId::new(0)],
                vec![NodeId::new(4)],
                ServiceChain::with_len(2),
            ),
        )
        .unwrap()
    }

    fn walk(nodes: &[usize], pos: &[usize]) -> DestWalk {
        DestWalk {
            destination: NodeId::new(*nodes.last().unwrap()),
            source: NodeId::new(nodes[0]),
            nodes: nodes.iter().map(|&i| NodeId::new(i)).collect(),
            vnf_positions: pos.to_vec(),
        }
    }

    #[test]
    fn valid_forest_costs_add_up() {
        let inst = fixture();
        let f = ServiceForest::new(2, vec![walk(&[0, 1, 2, 3, 4], &[1, 2])]);
        f.validate(&inst).unwrap();
        let c = f.cost(&inst.network);
        assert_eq!(c.setup, Cost::new(5.0));
        assert_eq!(c.connection, Cost::new(4.0));
        assert_eq!(c.total(), Cost::new(9.0));
        let stats = f.stats();
        assert_eq!(stats.trees, 1);
        assert_eq!(stats.used_vms, 2);
    }

    #[test]
    fn revisited_link_across_segments_paid_twice() {
        // Walk 0,1,2,1,2,3,4 — f1 at first 2 (pos 2), f2 at second 2? Not
        // allowed (same node); instead place f1 at 1 (pos 1) and f2 at 2
        // after a detour: 0,1,2,1,2,3,4 with f1@1(pos 1), f2@2(pos 4).
        let inst = fixture();
        let f = ServiceForest::new(2, vec![walk(&[0, 1, 2, 1, 2, 3, 4], &[1, 4])]);
        f.validate(&inst).unwrap();
        let c = f.cost(&inst.network);
        // Segment 1 (f1→f2) = 1→2→1→2 uses (1,2),(2,1),(1,2)-dedup = 2 links;
        // segment 0 = (0,1); segment 2 = (2,3),(3,4). Total 5 link-uses.
        assert_eq!(c.connection, Cost::new(5.0));
    }

    #[test]
    fn shared_segment_links_paid_once() {
        let mut g = Graph::with_nodes(6);
        for i in 0..4 {
            g.add_edge(NodeId::new(i), NodeId::new(i + 1), Cost::new(1.0));
        }
        g.add_edge(NodeId::new(3), NodeId::new(5), Cost::new(1.0)); // second leaf
        let mut net = Network::all_switches(g);
        net.make_vm(NodeId::new(1), Cost::new(2.0));
        net.make_vm(NodeId::new(2), Cost::new(3.0));
        let inst = SofInstance::new(
            net,
            Request::new(
                vec![NodeId::new(0)],
                vec![NodeId::new(4), NodeId::new(5)],
                ServiceChain::with_len(2),
            ),
        )
        .unwrap();
        let f = ServiceForest::new(
            2,
            vec![
                walk(&[0, 1, 2, 3, 4], &[1, 2]),
                walk(&[0, 1, 2, 3, 5], &[1, 2]),
            ],
        );
        f.validate(&inst).unwrap();
        let c = f.cost(&inst.network);
        // Shared: (0,1),(1,2),(2,3); leaves (3,4),(3,5). VMs 2+3.
        assert_eq!(c.connection, Cost::new(5.0));
        assert_eq!(c.total(), Cost::new(10.0));
    }

    #[test]
    fn conflict_detected() {
        let inst = fixture();
        let f = ServiceForest::new(
            2,
            vec![
                walk(&[0, 1, 2, 3, 4], &[1, 2]),
                // Second walk swaps the VNF roles of VMs 1 and 2 — conflict.
                walk(&[0, 1, 2, 3, 4], &[2, 1]),
            ],
        );
        assert!(matches!(
            f.enabled_vms(),
            Err(ForestError::VnfConflict { .. })
        ));
        // (validate also trips on placement order for the second walk).
        assert!(f.validate(&inst).is_err());
    }

    #[test]
    fn validation_failures() {
        let inst = fixture();
        // Missing destination.
        let empty = ServiceForest::new(2, vec![]);
        assert!(matches!(
            empty.validate(&inst),
            Err(ForestError::MissingDestination(_))
        ));
        // Non-adjacent hop.
        let broken = ServiceForest::new(2, vec![walk(&[0, 2, 3, 4], &[1, 2])]);
        assert!(matches!(
            broken.validate(&inst),
            Err(ForestError::NotAdjacent(..))
        ));
        // VNF on a switch.
        let on_switch = ServiceForest::new(2, vec![walk(&[0, 1, 2, 3, 4], &[1, 3])]);
        assert!(matches!(
            on_switch.validate(&inst),
            Err(ForestError::PlacementOnSwitch(_))
        ));
        // Wrong placement count.
        let short = ServiceForest::new(2, vec![walk(&[0, 1, 2, 3, 4], &[1])]);
        assert!(matches!(
            short.validate(&inst),
            Err(ForestError::WrongPlacementCount { .. })
        ));
    }

    #[test]
    fn shorten_removes_detours() {
        let inst = fixture();
        let mut f = ServiceForest::new(2, vec![walk(&[0, 1, 2, 3, 2, 3, 4], &[1, 2])]);
        f.validate(&inst).unwrap();
        let before = f.cost(&inst.network).total();
        assert!(f.shorten(&inst.network));
        f.validate(&inst).unwrap();
        let after = f.cost(&inst.network).total();
        assert!(after < before);
        assert_eq!(f.walks[0].nodes.len(), 5);
    }
}
