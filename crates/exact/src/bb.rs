//! Branch-and-bound closing the one-VNF-per-VM constraint (IP constraint
//! (6)) over the exact relaxation of the layered graph (`dw.rs`).

use crate::dw::{Restrictions, SteinerRelaxation};
use crate::layered::LayeredGraph;
use sof_core::{DestWalk, ServiceForest, SofInstance};
use sof_graph::{Cost, NodeId, SteinerArborescence, SteinerDpError};
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared upper bound on the optimum: the incumbent's cost as `f64` bits
/// (`f64::INFINITY` before any incumbent exists). Workers evaluating
/// sibling branches read it to drop children that cannot improve on the
/// best known forest. It is re-synced from the incumbent **once per branch
/// batch** (the search loop itself is sequential) and never written
/// elsewhere, so every sibling in a batch observes the same bound and the
/// search stays bit-deterministic for any thread count.
struct IncumbentBound(AtomicU64);

impl IncumbentBound {
    fn new() -> IncumbentBound {
        IncumbentBound(AtomicU64::new(f64::INFINITY.to_bits()))
    }

    /// Mirrors the current incumbent (`None` = no bound yet).
    fn sync<T>(&self, incumbent: &Option<(Cost, T)>) {
        let cost = incumbent.as_ref().map_or(f64::INFINITY, |(c, _)| c.value());
        self.0.store(cost.to_bits(), Ordering::SeqCst);
    }

    fn beats(&self, cost: Cost) -> bool {
        cost.value() < f64::from_bits(self.0.load(Ordering::SeqCst))
    }
}

/// Exact solver outcome.
#[derive(Clone, Debug)]
pub struct ExactOutcome {
    /// The optimal (or best found, see `optimal`) feasible forest.
    pub forest: ServiceForest,
    /// Its total cost.
    pub cost: Cost,
    /// Valid lower bound on the optimum (root relaxation).
    pub lower_bound: Cost,
    /// `true` when the search proved optimality within the node budget.
    pub optimal: bool,
    /// Branch-and-bound nodes explored.
    pub nodes_explored: usize,
}

/// Errors from the exact solver.
#[derive(Clone, Debug, PartialEq)]
pub enum ExactError {
    /// No feasible forest exists (unreachable destinations or VM shortage).
    Infeasible,
    /// The search exhausted its node budget without any incumbent.
    BudgetExhausted,
    /// More destinations than the exact relaxation spans
    /// ([`sof_graph::MAX_DW_TERMINALS`]).
    TooManyDestinations,
}

impl std::fmt::Display for ExactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExactError::Infeasible => write!(f, "no feasible service overlay forest exists"),
            ExactError::BudgetExhausted => {
                write!(f, "node budget exhausted before finding a feasible forest")
            }
            ExactError::TooManyDestinations => write!(
                f,
                "the exact relaxation spans at most {} destinations",
                sof_graph::MAX_DW_TERMINALS
            ),
        }
    }
}

impl std::error::Error for ExactError {}

/// VMs processing more than one VNF in a relaxed solution, with the layers
/// they process.
fn violations(lg: &LayeredGraph, arb: &SteinerArborescence) -> BTreeMap<usize, Vec<usize>> {
    let mut used: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for &aid in &arb.arcs {
        if let Some((vm, layer)) = lg.arcs[aid].process {
            used.entry(vm.index()).or_default().push(layer);
        }
    }
    used.retain(|_, layers| layers.len() > 1);
    used
}

/// The VM to branch on: the one processing the most layers, and of those
/// the highest VM index — a fixed order, so the search and its answer are
/// the same on every run.
fn branch_vm(viol: &BTreeMap<usize, Vec<usize>>) -> Option<(usize, &[usize])> {
    viol.iter()
        .max_by_key(|&(&vm, layers)| (layers.len(), vm))
        .map(|(&vm, layers)| (vm, layers.as_slice()))
}

/// Solves SOF **exactly** via best-first branch-and-bound on the layered
/// relaxation; `node_budget` bounds the number of relaxations solved.
/// Branches are evaluated on [`sof_par::current_threads`] workers — see
/// [`solve_exact_with`] for an explicit thread count and the determinism
/// contract.
///
/// # Errors
///
/// [`ExactError::Infeasible`] when the instance has no feasible forest;
/// [`ExactError::BudgetExhausted`] when the budget ends before a feasible
/// incumbent exists (the bound is still reported through the error path in
/// practice — budget ≥ a few hundred suffices for the paper's instances);
/// [`ExactError::TooManyDestinations`] past
/// [`sof_graph::MAX_DW_TERMINALS`] destinations.
pub fn solve_exact(instance: &SofInstance, node_budget: usize) -> Result<ExactOutcome, ExactError> {
    solve_exact_with(instance, node_budget, 0)
}

/// [`solve_exact`] with an explicit worker count (`0` = the configured
/// default, [`sof_par::current_threads`]).
///
/// When a branch-and-bound node is expanded, its child branches (one
/// Dreyfus–Wagner relaxation per VNF-placement restriction) are forked
/// across `threads` workers sharing an atomic incumbent bound that prunes
/// children which cannot beat the best known forest. The bound only moves
/// between batches, so the node expansion order, explored-node count, and
/// the returned forest/cost are **bit-identical for every thread count** —
/// `tests/parallel_determinism.rs` pins this.
///
/// # Errors
///
/// As for [`solve_exact`].
pub fn solve_exact_with(
    instance: &SofInstance,
    node_budget: usize,
    threads: usize,
) -> Result<ExactOutcome, ExactError> {
    let lg = LayeredGraph::build(instance, Cost::ZERO);
    let memo = SteinerRelaxation::default();
    let root_rel = memo
        .solve(&lg, &Restrictions::default())
        .map_err(|e| match e {
            SteinerDpError::TooManyTerminals => ExactError::TooManyDestinations,
            SteinerDpError::Unreachable => ExactError::Infeasible,
        })?;
    let lower_bound = root_rel.cost;

    // Best-first queue ordered by relaxation cost.
    struct Node {
        bound: Cost,
        restrictions: Restrictions,
        arb: SteinerArborescence,
    }
    impl PartialEq for Node {
        fn eq(&self, other: &Self) -> bool {
            self.bound == other.bound
        }
    }
    impl Eq for Node {}
    impl PartialOrd for Node {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Node {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other.bound.cmp(&self.bound) // min-heap
        }
    }

    let mut heap = BinaryHeap::new();
    heap.push(Node {
        bound: root_rel.cost,
        restrictions: Restrictions::default(),
        arb: root_rel.clone(),
    });
    // Incumbent sources: the B&B may terminate on budget with the best
    // found so far, which we seed from (a) a diving heuristic and (b) the
    // SOFDA approximation — making `cost ≤ SOFDA` structural.
    enum Incumbent {
        Arb(SteinerArborescence),
        Forest(ServiceForest),
    }
    let mut incumbent: Option<(Cost, Incumbent)> = None;
    let bound = IncumbentBound::new();
    if let Ok(sofda) = sof_core::solve_sofda(instance, &sof_core::SofdaConfig::default()) {
        incumbent = Some((sofda.cost.total(), Incumbent::Forest(sofda.forest)));
    }
    {
        let mut r = Restrictions::default();
        let mut arb = root_rel;
        for _ in 0..instance.network.vms().len() + 1 {
            let viol = violations(&lg, &arb);
            let Some((vm, layers)) = branch_vm(&viol) else {
                if incumbent.as_ref().is_none_or(|(c, _)| arb.cost < *c) {
                    incumbent = Some((arb.cost, Incumbent::Arb(arb)));
                }
                break;
            };
            let keep = *layers.iter().min().expect("non-empty");
            r.restrict(vm, 1u32 << keep);
            match memo.solve(&lg, &r) {
                Ok(next) => arb = next,
                Err(_) => break,
            }
        }
    }
    let mut explored = 0usize;
    let mut budget_cut = false;
    let chain_len = lg.chain_len;

    while let Some(node) = heap.pop() {
        if explored >= node_budget {
            budget_cut = true;
            break;
        }
        explored += 1;
        if let Some((inc, _)) = &incumbent {
            if node.bound >= *inc {
                continue; // pruned; heap is ordered so all the rest prune too
            }
        }
        // Branch on the most-violated VM: one child per single allowed
        // layer, plus a "banned entirely" child. The children's relaxations
        // are independent, so they fork across the worker pool; each worker
        // checks the shared incumbent bound before handing its child back.
        let Some((vm, _)) = branch_vm(&violations(&lg, &node.arb)) else {
            // Feasible — candidate incumbent.
            if incumbent
                .as_ref()
                .is_none_or(|(inc, _)| node.arb.cost < *inc)
            {
                incumbent = Some((node.arb.cost, Incumbent::Arb(node.arb)));
            }
            continue;
        };
        let mut masks: Vec<u32> = (0..chain_len).map(|i| 1u32 << i).collect();
        masks.push(0);
        bound.sync(&incumbent);
        let children = sof_par::par_map_indexed(&masks, threads, |_, &mask| {
            let mut r = node.restrictions.clone();
            r.restrict(vm, mask);
            memo.solve(&lg, &r)
                .ok()
                .and_then(|arb| bound.beats(arb.cost).then_some((r, arb)))
        })
        .unwrap_or_else(|e| panic!("exact branch evaluation: {e}"));
        for (r, arb) in children.into_iter().flatten() {
            heap.push(Node {
                bound: arb.cost,
                restrictions: r,
                arb,
            });
        }
    }

    let optimal = heap.is_empty()
        || incumbent
            .as_ref()
            .is_some_and(|(inc, _)| heap.peek().is_none_or(|n| n.bound >= *inc));
    // Exhausting the whole tree without an incumbent is a proof of
    // infeasibility; running out of budget is not.
    let (cost, winner) = incumbent.ok_or(if budget_cut {
        ExactError::BudgetExhausted
    } else {
        ExactError::Infeasible
    })?;
    let forest = match winner {
        Incumbent::Arb(arb) => extract_forest(instance, &lg, &arb)?,
        Incumbent::Forest(f) => f,
    };
    debug_assert!(forest.cost(&instance.network).total().approx_eq(cost));
    Ok(ExactOutcome {
        forest,
        cost,
        lower_bound,
        optimal,
        nodes_explored: explored,
    })
}

/// Converts a feasible arborescence into per-destination walks.
fn extract_forest(
    instance: &SofInstance,
    lg: &LayeredGraph,
    arb: &SteinerArborescence,
) -> Result<ServiceForest, ExactError> {
    // Child adjacency over chosen arcs.
    let mut out: HashMap<usize, Vec<usize>> = HashMap::new();
    for &aid in &arb.arcs {
        out.entry(lg.arcs[aid].from).or_default().push(aid);
    }
    // Parent pointers via DFS from the root (the arc set is an arborescence,
    // but dedup may have merged branches — a DFS tree is still well-defined).
    let mut parent_arc: HashMap<usize, usize> = HashMap::new();
    let mut stack = vec![lg.root];
    let mut seen: HashSet<usize> = HashSet::from([lg.root]);
    while let Some(x) = stack.pop() {
        for &aid in out.get(&x).into_iter().flatten() {
            let to = lg.arcs[aid].to;
            if seen.insert(to) {
                parent_arc.insert(to, aid);
                stack.push(to);
            }
        }
    }
    let mut walks = Vec::with_capacity(lg.terminals.len());
    for (di, &t) in lg.terminals.iter().enumerate() {
        let dest = instance.request.destinations[di];
        if !seen.contains(&t) {
            return Err(ExactError::Infeasible);
        }
        // Climb to the root collecting arcs.
        let mut arcs_rev = Vec::new();
        let mut cur = t;
        while cur != lg.root {
            let aid = parent_arc[&cur];
            arcs_rev.push(aid);
            cur = lg.arcs[aid].from;
        }
        arcs_rev.reverse();
        // First arc is root→(s,0).
        let mut nodes: Vec<NodeId> = Vec::new();
        let mut vnf_positions = Vec::new();
        for (i, &aid) in arcs_rev.iter().enumerate() {
            let arc = &lg.arcs[aid];
            if i == 0 {
                let (s, layer) = lg.decode(arc.to).expect("root arc targets a source");
                debug_assert_eq!(layer, 0);
                nodes.push(s);
                continue;
            }
            match arc.process {
                None => {
                    let (v, _) = lg.decode(arc.to).expect("transport target");
                    nodes.push(v);
                }
                Some((_vm, _layer)) => {
                    vnf_positions.push(nodes.len() - 1);
                }
            }
        }
        walks.push(DestWalk {
            destination: dest,
            source: nodes[0],
            nodes,
            vnf_positions,
        });
    }
    Ok(ServiceForest::new(lg.chain_len, walks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sof_core::{solve_sofda, Network, Request, ServiceChain, SofdaConfig};
    use sof_graph::{generators, CostRange, Graph, Rng64};

    fn random_instance(seed: u64, chain: usize, dests: usize) -> SofInstance {
        let mut rng = Rng64::seed_from(seed);
        let g = generators::gnp_connected(14, 0.25, CostRange::new(1.0, 6.0), &mut rng);
        let mut net = Network::all_switches(g);
        let picks = rng.sample_indices(14, 6 + 2 + dests);
        for &v in &picks[..6] {
            net.make_vm(NodeId::new(v), Cost::new(rng.range_f64(0.5, 4.0)));
        }
        SofInstance::new(
            net,
            Request::new(
                vec![NodeId::new(picks[6]), NodeId::new(picks[7])],
                picks[8..8 + dests]
                    .iter()
                    .map(|&i| NodeId::new(i))
                    .collect(),
                ServiceChain::with_len(chain),
            ),
        )
        .unwrap()
    }

    #[test]
    fn exact_is_feasible_and_below_sofda() {
        for seed in 0..10 {
            let inst = random_instance(seed, 2, 3);
            let exact = solve_exact(&inst, 500).unwrap();
            exact.forest.validate(&inst).unwrap();
            assert!(exact.optimal, "seed {seed} did not prove optimality");
            let sofda = solve_sofda(&inst, &SofdaConfig::default()).unwrap();
            assert!(
                exact.cost <= sofda.cost.total() + Cost::new(1e-9),
                "seed {seed}: exact {} > SOFDA {}",
                exact.cost,
                sofda.cost.total()
            );
            // ρST = 2 ⇒ SOFDA ≤ 6·OPT (Theorem 3); in practice much closer.
            assert!(
                sofda.cost.total() <= exact.cost * 6.0 + Cost::new(1e-9),
                "seed {seed}: SOFDA violated the 3ρST bound"
            );
            assert!(exact.lower_bound <= exact.cost + Cost::new(1e-9));
        }
    }

    #[test]
    fn uniqueness_enforced() {
        // Line where reusing one cheap VM for both VNFs would be optimal in
        // the relaxation; the exact solver must separate them.
        let mut g = Graph::with_nodes(4);
        for i in 0..3 {
            g.add_edge(NodeId::new(i), NodeId::new(i + 1), Cost::new(1.0));
        }
        let mut net = Network::all_switches(g);
        net.make_vm(NodeId::new(1), Cost::new(5.0));
        net.make_vm(NodeId::new(2), Cost::new(1.0));
        let inst = SofInstance::new(
            net,
            Request::new(
                vec![NodeId::new(0)],
                vec![NodeId::new(3)],
                ServiceChain::with_len(2),
            ),
        )
        .unwrap();
        let out = solve_exact(&inst, 200).unwrap();
        out.forest.validate(&inst).unwrap();
        // Relaxation: 5 (VM 2 twice); feasible optimum: 3 links + 5 + 1 = 9.
        assert_eq!(out.lower_bound, Cost::new(5.0));
        assert_eq!(out.cost, Cost::new(9.0));
        assert!(out.optimal);
    }

    #[test]
    fn infeasible_when_no_vms() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(NodeId::new(0), NodeId::new(1), Cost::new(1.0));
        let inst = SofInstance::new(
            Network::all_switches(g),
            Request::new(
                vec![NodeId::new(0)],
                vec![NodeId::new(1)],
                ServiceChain::with_len(1),
            ),
        )
        .unwrap();
        assert_eq!(solve_exact(&inst, 10).unwrap_err(), ExactError::Infeasible);
    }

    /// Two VMs each process both layers of a chain of two, so they tie on
    /// layer count: the branch goes to the higher VM index on every call,
    /// each on a fresh map. Keyed by a `HashMap`, whose iteration order
    /// differs from map to map, the tie went whichever way the hash fell,
    /// and the exact column read differently from run to run.
    #[test]
    fn ties_on_layer_count_branch_on_the_highest_vm() {
        let mut g = Graph::with_nodes(4);
        for i in 0..3 {
            g.add_edge(NodeId::new(i), NodeId::new(i + 1), Cost::new(1.0));
        }
        let mut net = Network::all_switches(g);
        net.make_vm(NodeId::new(1), Cost::new(1.0));
        net.make_vm(NodeId::new(2), Cost::new(1.0));
        let inst = SofInstance::new(
            net,
            Request::new(
                vec![NodeId::new(0)],
                vec![NodeId::new(3)],
                ServiceChain::with_len(2),
            ),
        )
        .unwrap();
        let lg = LayeredGraph::build(&inst, Cost::ZERO);
        let arcs: Vec<usize> = (0..lg.arcs.len())
            .filter(|&a| lg.arcs[a].process.is_some())
            .collect();
        assert_eq!(arcs.len(), 4, "two VMs, two layers each");
        let arb = SteinerArborescence {
            cost: Cost::ZERO,
            arcs,
            scanned: 0,
        };
        for _ in 0..64 {
            let viol = violations(&lg, &arb);
            assert_eq!(viol.len(), 2);
            assert_eq!(branch_vm(&viol), Some((2, &[0, 1][..])));
        }
    }

    #[test]
    fn memoized_relaxations_are_reproducible() {
        // The restriction memo must not leak state across calls or alter
        // the search: two full solves of the same instance agree exactly,
        // including the explored-node count and the forest structure.
        let inst = random_instance(11, 2, 3);
        let a = solve_exact(&inst, 500).unwrap();
        let b = solve_exact(&inst, 500).unwrap();
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.nodes_explored, b.nodes_explored);
        assert_eq!(a.optimal, b.optimal);
        assert_eq!(a.forest, b.forest);
    }

    #[test]
    fn zero_chain_is_pure_steiner() {
        let inst = random_instance(3, 0, 3);
        let out = solve_exact(&inst, 100).unwrap();
        out.forest.validate(&inst).unwrap();
        assert_eq!(out.forest.cost(&inst.network).setup, Cost::ZERO);
        assert!(out.optimal);
    }
}
