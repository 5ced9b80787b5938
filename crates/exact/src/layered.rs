//! The layered expansion of a SOF instance.
//!
//! Layer `i` holds a copy of every network node meaning "the demand has been
//! processed by `f1 … fi`". Intra-layer arcs are network links (both
//! directions, link cost); the arc `(v,i) → (v,i+1)` processes `f_{i+1}` on
//! VM `v` (setup cost). A virtual root feeds every source at layer 0. A
//! minimum directed Steiner arborescence from the root to all `(d, |C|)` is
//! exactly an optimal service overlay forest *relaxed* of the one-VNF-per-VM
//! constraint — the relaxation the branch-and-bound of [`crate::solve_exact`]
//! closes.

use sof_core::SofInstance;
use sof_graph::{Cost, NodeId};

/// A directed arc in the layered graph.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Arc {
    /// Tail node (layered index).
    pub(crate) from: usize,
    /// Head node (layered index).
    pub(crate) to: usize,
    /// Arc cost.
    pub(crate) cost: Cost,
    /// `Some((vm, vnf))` for processing arcs.
    pub(crate) process: Option<(NodeId, usize)>,
}

/// The layered directed graph.
#[derive(Clone, Debug)]
pub(crate) struct LayeredGraph {
    /// Number of network nodes `n`.
    pub(crate) base_nodes: usize,
    /// Chain length `L` (layers `0..=L`).
    pub(crate) chain_len: usize,
    /// All arcs.
    pub(crate) arcs: Vec<Arc>,
    /// Incoming arc indices per node.
    pub(crate) into: Vec<Vec<usize>>,
    /// The virtual root index.
    pub(crate) root: usize,
    /// Terminal indices `(d, L)` in destination order.
    pub(crate) terminals: Vec<usize>,
}

impl LayeredGraph {
    /// The network node and layer of layered index `idx` (`layer · n + v`);
    /// `None` for the root.
    pub(crate) fn decode(&self, idx: usize) -> Option<(NodeId, usize)> {
        (idx != self.root).then(|| (NodeId::new(idx % self.base_nodes), idx / self.base_nodes))
    }

    /// Total node count (including the root).
    pub(crate) fn len(&self) -> usize {
        self.base_nodes * (self.chain_len + 1) + 1
    }

    /// Builds the layered graph for an instance.
    ///
    /// `source_cost` is charged on the root arcs (Appendix D); pass
    /// [`Cost::ZERO`] for the base model.
    pub(crate) fn build(instance: &SofInstance, source_cost: Cost) -> LayeredGraph {
        let network = &instance.network;
        let n = network.node_count();
        let chain_len = instance.chain_len();
        let node_count = n * (chain_len + 1) + 1;
        let root = node_count - 1;
        let mut lg = LayeredGraph {
            base_nodes: n,
            chain_len,
            arcs: Vec::new(),
            into: vec![Vec::new(); node_count],
            root,
            terminals: Vec::new(),
        };
        let push = |lg: &mut LayeredGraph, from: usize, to: usize, cost: Cost, process| {
            let id = lg.arcs.len();
            lg.arcs.push(Arc {
                from,
                to,
                cost,
                process,
            });
            lg.into[to].push(id);
        };
        // Transport arcs per layer (cheapest parallel edge wins; both dirs).
        for layer in 0..=chain_len {
            for (_, e) in network.graph().edges() {
                let (u, v) = (e.u, e.v);
                let iu = layer * n + u.index();
                let iv = layer * n + v.index();
                push(&mut lg, iu, iv, e.cost, None);
                push(&mut lg, iv, iu, e.cost, None);
            }
        }
        // Processing arcs.
        for layer in 0..chain_len {
            for v in network.vms() {
                let from = layer * n + v.index();
                let to = (layer + 1) * n + v.index();
                push(&mut lg, from, to, network.node_cost(v), Some((v, layer)));
            }
        }
        // Root arcs.
        for &s in &instance.request.sources {
            push(&mut lg, root, s.index(), source_cost, None);
        }
        lg.terminals = instance
            .request
            .destinations
            .iter()
            .map(|d| chain_len * n + d.index())
            .collect();
        lg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sof_core::{Network, Request, ServiceChain};
    use sof_graph::Graph;

    fn instance() -> SofInstance {
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId::new(0), NodeId::new(1), Cost::new(1.0));
        g.add_edge(NodeId::new(1), NodeId::new(2), Cost::new(2.0));
        let mut net = Network::all_switches(g);
        net.make_vm(NodeId::new(1), Cost::new(5.0));
        SofInstance::new(
            net,
            Request::new(
                vec![NodeId::new(0)],
                vec![NodeId::new(2)],
                ServiceChain::with_len(2),
            ),
        )
        .unwrap()
    }

    #[test]
    fn arc_counts() {
        let lg = LayeredGraph::build(&instance(), Cost::ZERO);
        // 3 layers × 2 undirected links × 2 directions = 12 transport arcs,
        // 2 processing arcs (VM 1, layers 0→1, 1→2), 1 root arc.
        assert_eq!(lg.arcs.len(), 12 + 2 + 1);
        assert_eq!(lg.len(), 3 * 3 + 1);
        assert_eq!(lg.terminals, vec![2 * 3 + 2]);
    }

    #[test]
    fn index_round_trip() {
        let lg = LayeredGraph::build(&instance(), Cost::ZERO);
        // Node 2 at layer 1 of a three-node network.
        assert_eq!(lg.decode(3 + 2), Some((NodeId::new(2), 1)));
        assert_eq!(lg.decode(lg.root), None);
    }

    #[test]
    fn processing_arcs_identified() {
        let lg = LayeredGraph::build(&instance(), Cost::ZERO);
        let procs: Vec<_> = lg.arcs.iter().filter_map(|a| a.process).collect();
        assert_eq!(procs, vec![(NodeId::new(1), 0), (NodeId::new(1), 1)]);
    }
}
