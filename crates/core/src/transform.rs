//! Procedure 1/2 of the paper: the k-stroll instance `𝒢` and walk expansion.
//!
//! Procedure 1 builds, for a source `s` and candidate last VM `u`, a complete
//! graph over `M ∪ {s}` whose edge costs blend shortest-path distances with
//! *halved* VM setup costs, such that a shortest `(|C|+1)`-node path in `𝒢`
//! equals the cheapest service chain in `G` (Lemma 1: `𝒢` is metric).
//!
//! Key implementation observation: the only dependence on the chosen last VM
//! `u` is an additive `c(u)/2` on edges incident to `s` (plus `c(s)/2` terms
//! in the Appendix D variant). Therefore **one** generic metric with node
//! potentials `c(x)/2` serves *all* candidate last VMs: for a fixed target
//! `u`, true chain cost = generic path cost + `(c(s) + c(u))/2`, and the
//! optimal path is the same. This lets SOFDA solve one multi-target k-stroll
//! per source instead of `|M|` separate instances.
//!
//! Second observation: off the source's row and column the metric is the
//! same for every source — `tree(a).dist(b) + c(a)/2 + c(b)/2` reads VM
//! `a`'s tree and two setup costs, none of which know the source
//! (Appendix D's `source_cost` only enters row and column 0). So that
//! block is built once per solve, as a [`VmBlock`] over the VMs every
//! source prices chains on — the VM list, each VM's tree, the setup costs
//! and the `|M| × |M|` block with its potentials — and each source's
//! [`ChainMetric::from_block`] reads only its own row and column from the
//! trees: `solve_sofda` builds one block for all its sources, a
//! full-search join one for all its attach points, and each
//! `sof_baselines` solve one per set of free VMs. Likewise the exact
//! search's cost-to-go table: the solver owns one [`SearchContext`] and
//! hands it to every source's [`ChainMetric::chains_to_all_vms_in`]; a
//! stand-alone [`ChainMetric::build`] builds a private block, and
//! [`ChainMetric::chains_to_all_vms`] a private context.
//!
//! Third observation: the network is undirected, so the source's row is
//! its column read backwards — `tree(u).dist(s)` is the distance `s → u`
//! and `tree(u).path_to(s)` reversed is a shortest path `s → u`. No tree
//! is rooted at the source: a block asks the engine for the VM trees only,
//! the ones every source of the solve shares, and `ChainMetric`'s private
//! `tree_and_far_end` is the one place that knows a hop out of index 0 is
//! read from the tree at its other end. Row 0 therefore equals column 0
//! bit for bit, which is the symmetry Lemma 1 states. A VM's tree is
//! whatever [`sof_graph::PathEngine::rooted_at`] answers: in the paper's
//! setup every VM hangs off a data centre by a zero-cost stub, and its
//! tree is read from the data centre's, so a solve roots one tree per data
//! centre that hosts a VM, not one per VM. That tree holds every distance
//! and path of the VM's own to the bit, so no entry of the metric moves;
//! a stub that costs anything (an online session loads the VMs it uses)
//! gets the VM's own tree.

use crate::Network;
use sof_graph::{Cost, NodeId, RootedTree};
use sof_kstroll::{DenseMetric, SearchContext, Stroll, StrollSolver};

/// The part of Procedure 1's metric that no source changes (module docs,
/// second observation): the VMs in order, the tree each one is read from,
/// their setup costs, and the VM × VM block `tree(a).dist(b) + c(a)/2 +
/// c(b)/2`. A solve builds it once over the VMs its sources price chains
/// on, and [`ChainMetric::from_block`] adds one source's row and column.
#[derive(Debug)]
pub struct VmBlock {
    vms: Vec<NodeId>,
    /// `trees[a]` is rooted at `vms[a]` ([`sof_graph::PathEngine::rooted_at`]).
    trees: Vec<RootedTree>,
    /// Setup costs of `vms`.
    setup: Vec<Cost>,
    /// The block, with the halved setup costs as potentials.
    metric: DenseMetric,
}

impl VmBlock {
    /// Reads the tree of every VM of `vms` from the network's engine and
    /// fills the block.
    pub fn new(network: &Network, vms: &[NodeId]) -> VmBlock {
        let trees: Vec<RootedTree> = vms
            .iter()
            .map(|&v| network.paths().rooted_at(network.graph(), v))
            .collect();
        let setup: Vec<Cost> = vms.iter().map(|&v| network.node_cost(v)).collect();
        let metric = DenseMetric::from_fn(vms.len(), |a, b| {
            trees[a].dist(vms[b]) + setup[a] / 2.0 + setup[b] / 2.0
        });
        VmBlock {
            vms: vms.to_vec(),
            trees,
            setup,
            metric,
        }
    }

    /// Number of VMs.
    pub fn len(&self) -> usize {
        self.vms.len()
    }

    /// Returns `true` when the block holds no VM.
    pub fn is_empty(&self) -> bool {
        self.vms.is_empty()
    }
}

/// The transformed k-stroll instance for one source (all last VMs at once).
#[derive(Debug)]
pub struct ChainMetric {
    /// Generic metric with halved node-cost potentials.
    metric: DenseMetric,
    /// Index → network node; index 0 is the source.
    nodes: Vec<NodeId>,
    /// `trees[i - 1]` is the tree of VM `nodes[i]`, as the block holds it;
    /// the source has none.
    trees: Vec<RootedTree>,
    /// Setup cost charged for the source (0 unless Appendix D).
    source_cost: Cost,
    /// Setup costs of `nodes` (index-aligned; 0 for the source slot).
    setup: Vec<Cost>,
}

impl ChainMetric {
    /// Builds the transformed instance for `source` over the VM set `vms`.
    ///
    /// `source_cost` enables the Appendix D variant where enabling a source
    /// carries a setup cost; pass [`Cost::ZERO`] for the base model (§III
    /// assumes source setup cost is negligible).
    ///
    /// Returns `None` if some VM is unreachable from `source` (the SOF
    /// instance requires a connected network, so this is defensive).
    pub fn build(
        network: &Network,
        source: NodeId,
        vms: &[NodeId],
        source_cost: Cost,
    ) -> Option<ChainMetric> {
        let vms: Vec<NodeId> = vms.iter().copied().filter(|&v| v != source).collect();
        ChainMetric::from_block(&VmBlock::new(network, &vms), source, source_cost)
    }

    /// The instance for `source` on a block built for the whole solve:
    /// only row and column 0 are read from trees here, at the far end of
    /// each VM's (module docs, third observation). A source that is one of
    /// the block's VMs leaves that VM out, as [`Self::build`] does.
    ///
    /// Returns `None` if some distance of the metric is infinite.
    pub fn from_block(block: &VmBlock, source: NodeId, source_cost: Cost) -> Option<ChainMetric> {
        let skip = block.vms.iter().position(|&v| v == source);
        // Metric index `i ≥ 1` is block index `at[i - 1]`.
        let at: Vec<usize> = (0..block.len()).filter(|&b| Some(b) != skip).collect();
        // Column 0 is each VM's tree read at the source, summed as the
        // block is (distance, the VM's potential, the source's), and row 0
        // is column 0: the two hold the same bits.
        let pot0 = source_cost / 2.0;
        let column: Vec<Cost> = std::iter::once(Cost::ZERO)
            .chain(
                at.iter()
                    .map(|&b| block.trees[b].dist(source) + block.setup[b] / 2.0 + pot0),
            )
            .collect();
        // Row `i ≥ 1` is column 0's entry, then the block's row for its VM
        // less the source's entry.
        let mut rows = Vec::with_capacity(column.len() * column.len());
        rows.extend_from_slice(&column);
        for (&b, &c) in at.iter().zip(&column[1..]) {
            let row = block.metric.row(b);
            rows.push(c);
            match skip {
                Some(p) => {
                    rows.extend_from_slice(&row[..p]);
                    rows.extend_from_slice(&row[p + 1..]);
                }
                None => rows.extend_from_slice(row),
            }
        }
        let finite = rows.iter().all(|c| c.is_finite());
        let metric = DenseMetric::from_rows(column.len(), rows);
        finite.then(|| ChainMetric {
            metric,
            nodes: std::iter::once(source)
                .chain(at.iter().map(|&b| block.vms[b]))
                .collect(),
            trees: at.iter().map(|&b| block.trees[b].clone()).collect(),
            source_cost,
            setup: std::iter::once(Cost::ZERO)
                .chain(at.iter().map(|&b| block.setup[b]))
                .collect(),
        })
    }

    /// The tree a hop between metric indices `i ≠ j` is read from and the
    /// node to look up in it: the tree rooted at `i` — or, out of the source
    /// (index 0, which has no tree), the one at `j`. The graph is undirected,
    /// so that tree holds the same distance and the same path backwards.
    fn tree_and_far_end(&self, i: usize, j: usize) -> (&RootedTree, NodeId) {
        let (root, far) = if i == 0 { (j, i) } else { (i, j) };
        (&self.trees[root - 1], self.nodes[far])
    }

    /// A shortest path from metric index `i` to `j ≠ i` (`i`'s node first),
    /// or `None` when there is none.
    fn path(&self, i: usize, j: usize) -> Option<Vec<NodeId>> {
        let (tree, far) = self.tree_and_far_end(i, j);
        let mut path = tree.path_to(far)?;
        if i == 0 {
            path.reverse();
        }
        Some(path)
    }

    /// The generic metric (node potentials included).
    pub fn metric(&self) -> &DenseMetric {
        &self.metric
    }

    /// Number of metric nodes (`|M| + 1`, or `|M|` if the source is a VM).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when only the source is present (no VMs).
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Metric index of a network node, if present.
    pub fn index_of(&self, v: NodeId) -> Option<usize> {
        self.nodes.iter().position(|&n| n == v)
    }

    /// Network node of metric index `i`.
    pub fn node(&self, i: usize) -> NodeId {
        self.nodes[i]
    }

    /// The shortest-path tree rooted at the VM of metric index `i ≥ 1`: a
    /// chain that ends there reads its next leg from it.
    ///
    /// # Panics
    ///
    /// Panics if `i` is 0 (the source has no tree) or out of range.
    pub fn vm_tree(&self, i: usize) -> &RootedTree {
        &self.trees[i - 1]
    }

    /// Converts a generic-metric stroll cost for target index `t` into the
    /// true Procedure-1 chain cost (distances + full setup of chain VMs,
    /// plus the source cost in the Appendix D variant).
    fn true_chain_cost(&self, generic_cost: Cost, target: usize) -> Cost {
        generic_cost + self.setup[target] / 2.0 + self.source_cost / 2.0
    }

    /// Solves the k-stroll for every candidate last VM at once and returns
    /// `(target index, stroll, true chain cost)` triples. `_rng` is never
    /// read — no k-stroll solver is randomized; the parameter stays because
    /// `benchmark/` links this signature.
    pub fn chains_to_all_vms(
        &self,
        chain_len: usize,
        solver: StrollSolver,
        _rng: &mut sof_graph::Rng64,
    ) -> Vec<(usize, Stroll, Cost)> {
        self.chains_to_all_vms_in(chain_len, solver, &mut SearchContext::new())
    }

    /// [`Self::chains_to_all_vms`] on the caller's search context — the one
    /// it passes for every source of the solve it is running. The result
    /// does not depend on what the context has seen while its node budget
    /// lasts; past it `StrollSolver::Auto` answers with greedy chains.
    pub fn chains_to_all_vms_in(
        &self,
        chain_len: usize,
        solver: StrollSolver,
        search: &mut SearchContext,
    ) -> Vec<(usize, Stroll, Cost)> {
        let k = chain_len + 1;
        let best = solver.solve_all_targets(&self.metric, 0, k, search);
        best.into_iter()
            .enumerate()
            .skip(1) // index 0 is the source itself
            .filter_map(|(t, s)| {
                s.map(|s| {
                    let cost = self.true_chain_cost(s.cost, t);
                    (t, s, cost)
                })
            })
            .collect()
    }

    /// Expands a stroll in the metric into a real walk in `G` (Procedure 2,
    /// final step): concatenates the shortest paths between consecutive
    /// stroll nodes. Returns the walk and the positions of the stroll's VM
    /// nodes (the chain placements `f1 … f|C|`).
    ///
    /// A pure function of `stroll` and the trees this metric holds, so it
    /// may run any time after pricing. `solve_sofda` calls it once per
    /// chain its Steiner tree keeps, at deployment; a conflict fallback
    /// once per rebuilt chain; `solve_sofda_ss` once per candidate (each
    /// one is a whole forest there); a full-search join and the
    /// `sof_baselines` solvers once per better candidate they find. A
    /// solve counts its calls in [`crate::SolveStats::chains_expanded`].
    pub fn expand(&self, stroll: &Stroll) -> (Vec<NodeId>, Vec<usize>) {
        let mut walk: Vec<NodeId> = vec![self.node(stroll.nodes[0])];
        let mut positions = Vec::with_capacity(stroll.nodes.len().saturating_sub(1));
        for pair in stroll.nodes.windows(2) {
            let path = self
                .path(pair[0], pair[1])
                .expect("metric distances are finite");
            walk.extend_from_slice(&path[1..]);
            positions.push(walk.len() - 1);
        }
        (walk, positions)
    }

    /// True cost (distances + chain VM setups) of an expanded walk; equals
    /// the true chain cost of the originating stroll.
    pub fn walk_cost(&self, network: &Network, walk: &[NodeId], positions: &[usize]) -> Cost {
        let mut c = network
            .graph()
            .walk_cost(walk)
            .expect("expanded walks follow network links");
        for &p in positions {
            c += network.node_cost(walk[p]);
        }
        c + self.source_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sof_graph::{Graph, Rng64};

    /// Exact Procedure-1 edge cost between metric indices `i` and `j` for
    /// last VM index `last`: pins the construction to the paper's formula.
    fn procedure1_edge_cost(cm: &ChainMetric, i: usize, j: usize, last: usize) -> Cost {
        let (tree, far) = cm.tree_and_far_end(i, j);
        let dist = tree.dist(far);
        let share = if cm.source_cost == Cost::ZERO {
            if i == 0 {
                (cm.setup[last] + cm.setup[j]) / 2.0
            } else if j == 0 {
                (cm.setup[i] + cm.setup[last]) / 2.0
            } else {
                (cm.setup[i] + cm.setup[j]) / 2.0
            }
        } else {
            // Appendix D: both s and u carry (c(s)+c(u))/2.
            let su = cm.source_cost + cm.setup[last];
            if (i == 0 && j == last) || (j == 0 && i == last) {
                su
            } else if i == 0 || i == last {
                (su + cm.setup[j]) / 2.0
            } else if j == 0 || j == last {
                (cm.setup[i] + su) / 2.0
            } else {
                (cm.setup[i] + cm.setup[j]) / 2.0
            }
        };
        dist + share
    }

    /// Line 0-1-2-3 (unit links) with VMs 1 (cost 2), 2 (cost 4), 3 (cost 6).
    fn net() -> Network {
        let mut g = Graph::with_nodes(4);
        for i in 0..3 {
            g.add_edge(NodeId::new(i), NodeId::new(i + 1), Cost::new(1.0));
        }
        let mut net = Network::all_switches(g);
        net.make_vm(NodeId::new(1), Cost::new(2.0));
        net.make_vm(NodeId::new(2), Cost::new(4.0));
        net.make_vm(NodeId::new(3), Cost::new(6.0));
        net
    }

    fn vms() -> Vec<NodeId> {
        vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)]
    }

    #[test]
    fn generic_metric_matches_procedure1_up_to_target_constant() {
        let net = net();
        let cm = ChainMetric::build(&net, NodeId::new(0), &vms(), Cost::ZERO).unwrap();
        // Path s(0) -> 1 -> 2 in metric indices = [0, 1, 2]; last VM = 2.
        let generic = cm.metric().path_cost(&[0, 1, 2]);
        let true_cost = cm.true_chain_cost(generic, 2);
        // Procedure 1 with last=2: edges (s,1): dist 1 + (c(2)+c(1))/2 = 1+3;
        // (1,2): dist 1 + (c(1)+c(2))/2 = 1+3. Total 8.
        let p1 = procedure1_edge_cost(&cm, 0, 1, 2) + procedure1_edge_cost(&cm, 1, 2, 2);
        assert!(true_cost.approx_eq(p1), "{true_cost} vs {p1}");
        // And equals hand-computed: dist 2 + setups c(1)+c(2) = 2 + 6 = 8.
        assert!(true_cost.approx_eq(Cost::new(8.0)));
    }

    #[test]
    fn metric_satisfies_triangle_inequality() {
        let net = net();
        let cm = ChainMetric::build(&net, NodeId::new(0), &vms(), Cost::ZERO).unwrap();
        assert!(cm.metric().respects_triangle_inequality(1e-9));
    }

    #[test]
    fn appendix_d_source_cost() {
        let net = net();
        let cm = ChainMetric::build(&net, NodeId::new(0), &vms(), Cost::new(10.0)).unwrap();
        let generic = cm.metric().path_cost(&[0, 1, 2]);
        let true_cost = cm.true_chain_cost(generic, 2);
        // Base 8 plus source setup 10.
        assert!(true_cost.approx_eq(Cost::new(18.0)));
        // Procedure-1 (Appendix D) edge sum agrees.
        let p1 = procedure1_edge_cost(&cm, 0, 1, 2) + procedure1_edge_cost(&cm, 1, 2, 2);
        assert!(true_cost.approx_eq(p1));
        assert!(cm.metric().respects_triangle_inequality(1e-9));
    }

    #[test]
    fn expansion_concatenates_shortest_paths() {
        let net = net();
        let cm = ChainMetric::build(&net, NodeId::new(0), &vms(), Cost::ZERO).unwrap();
        // Stroll 0 -> 3 (index 3 = node 3) -> 1 (node 1): forces a detour.
        let stroll = sof_kstroll::Stroll::from_nodes(cm.metric(), vec![0, 3, 1]);
        let (walk, pos) = cm.expand(&stroll);
        let expect: Vec<NodeId> = [0, 1, 2, 3, 2, 1].iter().map(|&i| NodeId::new(i)).collect();
        assert_eq!(walk, expect);
        assert_eq!(pos, vec![3, 5]);
        let wc = cm.walk_cost(&net, &walk, &pos);
        assert!(wc.approx_eq(cm.true_chain_cost(stroll.cost, 1)));
    }

    #[test]
    fn chains_to_all_vms_covers_every_target() {
        let net = net();
        let cm = ChainMetric::build(&net, NodeId::new(0), &vms(), Cost::ZERO).unwrap();
        let mut rng = Rng64::seed_from(1);
        let chains = cm.chains_to_all_vms(2, StrollSolver::Exact, &mut rng);
        assert_eq!(chains.len(), 3); // all three VMs reachable with k=3
        for (t, stroll, cost) in &chains {
            assert_eq!(stroll.nodes.len(), 3);
            assert!(*cost >= stroll.cost);
            assert!(*t >= 1);
        }
    }

    #[test]
    fn vm_block_is_bit_identical_across_sources() {
        // What lets one cost-to-go table serve a whole solve: off row and
        // column 0 every source's metric holds the same bits, Appendix D's
        // source cost included. (Node 0 and node 3 see the VMs from
        // opposite ends of the line.) The block is read from the VM trees
        // alone, so the second source's build roots nothing new.
        let net = net();
        let vms = vec![NodeId::new(1), NodeId::new(2)];
        let a = ChainMetric::build(&net, NodeId::new(0), &vms, Cost::ZERO).unwrap();
        assert_eq!(net.paths().stats().misses, 2);
        let b = ChainMetric::build(&net, NodeId::new(3), &vms, Cost::new(10.0)).unwrap();
        assert_eq!(net.paths().stats().misses, 2);
        assert_ne!(a.metric().row(0), b.metric().row(0));
        for i in 1..a.len() {
            assert_eq!(a.node(i), b.node(i));
            assert_eq!(a.metric().row(i)[1..], b.metric().row(i)[1..]);
        }
    }

    #[test]
    fn a_shared_block_gives_every_source_the_metric_build_gives() {
        // One block over every VM serves each source — a switch, or a VM
        // the block then leaves out — with the metric a private build
        // gives, bit for bit, and the same nodes, indices and trees.
        let mut net = net();
        net.make_vm(NodeId::new(0), Cost::new(9.0));
        let s = net.add_node(crate::NodeKind::Switch, Cost::ZERO);
        net.graph_mut().add_edge(s, NodeId::new(2), Cost::new(0.7));
        let vms = net.vms();
        let block = VmBlock::new(&net, &vms);
        for source in net.graph().nodes() {
            for source_cost in [Cost::ZERO, Cost::new(10.0)] {
                let shared = ChainMetric::from_block(&block, source, source_cost).unwrap();
                let own = ChainMetric::build(&net, source, &vms, source_cost).unwrap();
                assert_eq!(shared.len(), own.len());
                for i in 0..own.len() {
                    assert_eq!(shared.node(i), own.node(i));
                    assert_eq!(shared.index_of(own.node(i)), Some(i));
                    assert_eq!(shared.metric().row(i), own.metric().row(i), "{source}");
                    if i > 0 {
                        assert_eq!(shared.vm_tree(i).root(), own.node(i));
                    }
                }
            }
        }
    }

    #[test]
    fn shared_search_context_changes_no_chain() {
        // One context across sources 4 and 5 (switches: same VM block, the
        // table is kept) and 0 and 3 (VMs themselves: their metric is one
        // node short, the context starts over), with an Appendix D source
        // cost: every source's chains equal the ones a private context
        // finds and the per-target `exact_stroll`s. Fails when the context
        // keeps a table across metrics that differ off row and column 0.
        let mut net = net();
        net.make_vm(NodeId::new(0), Cost::new(9.0));
        for (at, cost) in [(1, 1.5), (2, 0.7)] {
            let s = net.add_node(crate::NodeKind::Switch, Cost::ZERO);
            net.graph_mut()
                .add_edge(s, NodeId::new(at), Cost::new(cost));
        }
        let vms = net.vms();
        let mut shared = SearchContext::new();
        let mut rng = Rng64::seed_from(1);
        for chain_len in [2, 3] {
            for s in [4, 0, 5, 4, 3] {
                let cm = ChainMetric::build(&net, NodeId::new(s), &vms, Cost::new(10.0)).unwrap();
                let got = cm.chains_to_all_vms_in(chain_len, StrollSolver::Exact, &mut shared);
                assert_eq!(
                    got,
                    cm.chains_to_all_vms(chain_len, StrollSolver::Exact, &mut rng)
                );
                assert!(!got.is_empty());
                for (t, stroll, _) in &got {
                    let single = sof_kstroll::exact_stroll(cm.metric(), 0, *t, chain_len + 1);
                    assert_eq!(single.as_ref(), Some(stroll), "source {s} target {t}");
                }
            }
        }
        assert!(shared.nodes() > 0);
    }

    #[test]
    fn source_in_vm_set_is_deduplicated() {
        let mut net = net();
        net.make_vm(NodeId::new(0), Cost::new(9.0));
        let all = vec![
            NodeId::new(0),
            NodeId::new(1),
            NodeId::new(2),
            NodeId::new(3),
        ];
        let cm = ChainMetric::build(&net, NodeId::new(0), &all, Cost::ZERO).unwrap();
        assert_eq!(cm.len(), 4); // source occupies slot 0 once
        assert_eq!(cm.index_of(NodeId::new(0)), Some(0));
    }
}
