//! The exact relaxation: the Dreyfus–Wagner DP
//! ([`sof_graph::steiner_arborescence`]) over the layered graph's incoming
//! arcs, a minimum-cost arborescence from the root spanning all destination
//! terminals, with the branch-and-bound's restrictions as its arc filter.

use crate::layered::LayeredGraph;
use sof_graph::{steiner_arborescence, SteinerArborescence, SteinerDpError};
use std::collections::HashMap;
use std::sync::Mutex;

/// Per-VM restriction used by the branch-and-bound: which VNF indices a VM
/// may process (`u32` bitmask over chain positions).
#[derive(Clone, Debug, Default)]
pub(crate) struct Restrictions {
    /// `allowed[v] = bitmask` (absent = all allowed).
    allowed: HashMap<usize, u32>,
}

impl Restrictions {
    /// Returns `true` if VM (node index) `v` may process chain position `i`.
    fn permits(&self, v: usize, i: usize) -> bool {
        self.allowed.get(&v).is_none_or(|m| m & (1 << i) != 0)
    }

    /// Restricts `v` to a single position (or none with an empty mask).
    pub(crate) fn restrict(&mut self, v: usize, mask: u32) {
        self.allowed.insert(v, mask);
    }
}

/// A relaxed solve: the arborescence, or why there is none.
pub(crate) type Relaxed = Result<SteinerArborescence, SteinerDpError>;

/// Memoizing front-end over [`directed_steiner`]: the relaxation engine.
///
/// Branch-and-bound paths frequently converge on identical restriction
/// maps (restricting VM `a` then `b` meets `b` then `a`; the diving
/// heuristic walks the same keep-smallest-layer restrictions the first
/// child branches re-derive), and `directed_steiner` is a pure function of
/// `(layered graph, restrictions)` — so each distinct restriction set is
/// solved exactly once per engine. Shared across forked child relaxations
/// behind a mutex; hits return the identical answer, so results stay
/// bit-identical for any thread count.
#[derive(Default)]
pub(crate) struct SteinerRelaxation {
    memo: Mutex<HashMap<RestrictionKey, Relaxed>>,
}

/// Canonical form of a [`Restrictions`] map: sorted `(vm, mask)` pairs.
type RestrictionKey = Vec<(usize, u32)>;

impl SteinerRelaxation {
    /// Solves the relaxation, answering repeated restriction sets from the
    /// memo.
    pub(crate) fn solve(&self, lg: &LayeredGraph, r: &Restrictions) -> Relaxed {
        let mut key: RestrictionKey = r.allowed.iter().map(|(&v, &m)| (v, m)).collect();
        key.sort_unstable();
        if let Some(hit) = self.memo.lock().expect("relax memo lock").get(&key) {
            return hit.clone();
        }
        // Computed outside the lock: sibling branches with distinct
        // restriction sets must relax in parallel, and a duplicate
        // computation of the same key is deterministic anyway.
        let result = directed_steiner(lg, r);
        self.memo
            .lock()
            .expect("relax memo lock")
            .insert(key, result.clone());
        result
    }
}

/// Solves the relaxed problem exactly (no VM-uniqueness): minimum directed
/// Steiner arborescence from `lg.root` spanning all terminals, honoring
/// `restrictions` on processing arcs. Arc ids index [`LayeredGraph::arcs`].
///
/// # Errors
///
/// [`SteinerDpError::Unreachable`] when some terminal is unreachable under
/// the restrictions, and [`SteinerDpError::TooManyTerminals`] past
/// [`sof_graph::MAX_DW_TERMINALS`] destinations.
pub(crate) fn directed_steiner(lg: &LayeredGraph, restrictions: &Restrictions) -> Relaxed {
    steiner_arborescence(lg.len(), lg.root, &lg.terminals, |y| {
        lg.into[y].iter().filter_map(|&aid| {
            let arc = &lg.arcs[aid];
            arc.process
                .is_none_or(|(vm, i)| restrictions.permits(vm.index(), i))
                .then_some((arc.from, arc.cost, aid))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sof_core::{Network, Request, ServiceChain, SofInstance};
    use sof_graph::{generators, Cost, CostRange, EdgeId, Graph, NodeId, Rng64};

    /// Path 0-1-2-3 with VM at 1 (cost 5) and 2 (cost 1); source 0; dest 3.
    fn instance(chain: usize) -> SofInstance {
        let mut g = Graph::with_nodes(4);
        for i in 0..3 {
            g.add_edge(NodeId::new(i), NodeId::new(i + 1), Cost::new(1.0));
        }
        let mut net = Network::all_switches(g);
        net.make_vm(NodeId::new(1), Cost::new(5.0));
        net.make_vm(NodeId::new(2), Cost::new(1.0));
        SofInstance::new(
            net,
            Request::new(
                vec![NodeId::new(0)],
                vec![NodeId::new(3)],
                ServiceChain::with_len(chain),
            ),
        )
        .unwrap()
    }

    /// Case `seed` of the bit-identity fixture: a connected random network
    /// on 5–12 nodes with 1–4 VMs, 1–2 sources, 1–6 destinations and a
    /// chain of 0–3; real link and VM costs on even seeds, integer ones of
    /// 0–3 on odd seeds (equal-cost trees are common there). Two cases in
    /// three restrict one or two VMs to one position or to none.
    fn fixture_case(seed: u64) -> (LayeredGraph, Restrictions) {
        let mut rng = Rng64::seed_from(seed);
        let n = rng.range(5, 13);
        let integer = seed % 2 == 1;
        let cost = |rng: &mut Rng64, lo: f64, hi: f64| {
            Cost::new(if integer {
                rng.below(4) as f64
            } else {
                rng.range_f64(lo, hi)
            })
        };
        let mut g = generators::gnp_connected(n, 0.3, CostRange::new(1.0, 6.0), &mut rng);
        for e in 0..g.edge_count() {
            let c = cost(&mut rng, 1.0, 6.0);
            g.set_edge_cost(EdgeId::new(e), c);
        }
        let mut net = Network::all_switches(g);
        let k = rng.range(1, 5);
        let vms = rng.sample_indices(n, k);
        for &v in &vms {
            let c = cost(&mut rng, 0.5, 4.0);
            net.make_vm(NodeId::new(v), c);
        }
        let k = rng.range(1, 3);
        let sources = rng.sample_indices(n, k);
        let k = rng.range(1, 7).min(n);
        let destinations = rng.sample_indices(n, k);
        let chain = rng.range(0, 4);
        let inst = SofInstance::new(
            net,
            Request::new(
                sources.into_iter().map(NodeId::new).collect(),
                destinations.into_iter().map(NodeId::new).collect(),
                ServiceChain::with_len(chain),
            ),
        )
        .unwrap();
        let mut r = Restrictions::default();
        if !seed.is_multiple_of(3) {
            for _ in 0..rng.range(1, 3) {
                let vm = *rng.pick(&vms);
                let mask = match rng.below(chain + 1) {
                    0 => 0,
                    i => 1 << (i - 1),
                };
                r.restrict(vm, mask);
            }
        }
        (LayeredGraph::build(&inst, Cost::ZERO), r)
    }

    /// FNV-1a over the little-endian bytes of `word`.
    fn fold(hash: &mut u64, word: u64) {
        for byte in word.to_le_bytes() {
            *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Bit identity over 400 generated layered cases, half of them with
    /// integer costs and two thirds under a restriction: every answer's
    /// cost bits and sorted arc ids (or its absence) fold into one digest.
    /// The constant is what the layered DP gave before it became a view of
    /// the shared arborescence DP; an equal-cost tie reconstructed another
    /// way moves it as surely as a wrong cost does.
    #[test]
    fn answers_are_bit_identical_on_400_generated_cases() {
        let mut hash = 0xcbf2_9ce4_8422_2325;
        for seed in 0..400 {
            let (lg, r) = fixture_case(seed);
            match directed_steiner(&lg, &r) {
                Ok(arb) => {
                    fold(&mut hash, arb.cost.value().to_bits());
                    fold(&mut hash, arb.arcs.len() as u64);
                    for a in arb.arcs {
                        fold(&mut hash, a as u64);
                    }
                }
                Err(e) => {
                    assert_eq!(e, SteinerDpError::Unreachable, "case {seed}");
                    fold(&mut hash, u64::MAX);
                }
            }
        }
        assert_eq!(hash, 0x6592_7173_6bdd_6fcb, "digest {hash:#018x}");
    }

    /// The DP's work witness on the layered view: arcs scanned by its
    /// relaxation passes on one fixed instance (a 20-node network with 6
    /// VMs, 2 sources, 6 destinations and a chain of 3), unrestricted and
    /// with one VM banned, pinned exactly. No arborescence can see a pass
    /// that scans more than it must; this count can. Sunk by dropping the
    /// DP's stale-entry skip, so that a superseded queue entry scans its
    /// arcs again.
    #[test]
    fn arcs_scanned_are_pinned_on_a_fixed_instance() {
        let mut rng = Rng64::seed_from(41);
        let g = generators::gnp_connected(20, 0.2, CostRange::new(1.0, 6.0), &mut rng);
        let mut net = Network::all_switches(g);
        let picks = rng.sample_indices(20, 6 + 2 + 6);
        for &v in &picks[..6] {
            net.make_vm(NodeId::new(v), Cost::new(rng.range_f64(0.5, 4.0)));
        }
        let inst = SofInstance::new(
            net,
            Request::new(
                picks[6..8].iter().map(|&v| NodeId::new(v)).collect(),
                picks[8..].iter().map(|&v| NodeId::new(v)).collect(),
                ServiceChain::with_len(3),
            ),
        )
        .unwrap();
        let lg = LayeredGraph::build(&inst, Cost::ZERO);
        let free = directed_steiner(&lg, &Restrictions::default()).unwrap();
        let mut r = Restrictions::default();
        r.restrict(picks[0], 0);
        let banned = directed_steiner(&lg, &r).unwrap();
        assert_eq!((free.scanned, banned.scanned), (29_484, 29_295));
    }

    #[test]
    fn single_vnf_picks_cheap_vm() {
        let inst = instance(1);
        let lg = LayeredGraph::build(&inst, Cost::ZERO);
        let arb = directed_steiner(&lg, &Restrictions::default()).unwrap();
        // Route 0→1→2 (process at 2, cost 1) →3: links 3 + VM 1 = 4.
        assert_eq!(arb.cost, Cost::new(4.0));
    }

    #[test]
    fn relaxation_engine_memoizes_by_canonical_restrictions() {
        let inst = instance(1);
        let lg = LayeredGraph::build(&inst, Cost::ZERO);
        let engine = SteinerRelaxation::default();
        let a = engine.solve(&lg, &Restrictions::default()).unwrap();
        let b = engine.solve(&lg, &Restrictions::default()).unwrap();
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.arcs, b.arcs);
        let mut r = Restrictions::default();
        r.restrict(2, 0);
        r.restrict(1, 1);
        let c = engine.solve(&lg, &r).unwrap();
        assert!(c.cost > a.cost);
        // Insertion order into the map must not matter: the same
        // restrictions reached along a different path still hit.
        let mut r2 = Restrictions::default();
        r2.restrict(1, 1);
        r2.restrict(2, 0);
        assert_eq!(engine.solve(&lg, &r2), Ok(c));
        assert_eq!(engine.memo.lock().unwrap().len(), 2, "two distinct sets");
    }

    #[test]
    fn restriction_forces_expensive_vm() {
        let inst = instance(1);
        let lg = LayeredGraph::build(&inst, Cost::ZERO);
        let mut r = Restrictions::default();
        r.restrict(2, 0); // forbid VM 2 entirely
        let arb = directed_steiner(&lg, &r).unwrap();
        // Must process at VM 1: links 3 + VM 5 = 8.
        assert_eq!(arb.cost, Cost::new(8.0));
        r.restrict(1, 0);
        assert_eq!(directed_steiner(&lg, &r), Err(SteinerDpError::Unreachable));
    }

    #[test]
    fn chain_of_two_uses_both_vms() {
        let inst = instance(2);
        let lg = LayeredGraph::build(&inst, Cost::ZERO);
        let arb = directed_steiner(&lg, &Restrictions::default()).unwrap();
        // Both VMs must process (relaxation may reuse one: VM2 twice = links
        // 3 + 2·1 = 5; distinct would cost links 3 + 5 + 1 = 9).
        assert_eq!(arb.cost, Cost::new(5.0));
        let procs: Vec<_> = arb
            .arcs
            .iter()
            .filter_map(|&a| lg.arcs[a].process)
            .collect();
        assert_eq!(procs.len(), 2);
    }

    #[test]
    fn multi_destination_shares_layers() {
        let mut g = Graph::with_nodes(5);
        for i in 0..4 {
            g.add_edge(NodeId::new(i), NodeId::new(i + 1), Cost::new(1.0));
        }
        g.add_edge(NodeId::new(1), NodeId::new(4), Cost::new(1.0));
        let mut net = Network::all_switches(g);
        net.make_vm(NodeId::new(1), Cost::new(1.0));
        let inst = SofInstance::new(
            net,
            Request::new(
                vec![NodeId::new(0)],
                vec![NodeId::new(3), NodeId::new(4)],
                ServiceChain::with_len(1),
            ),
        )
        .unwrap();
        let lg = LayeredGraph::build(&inst, Cost::ZERO);
        let arb = directed_steiner(&lg, &Restrictions::default()).unwrap();
        // 0→1 (1), process at 1 (1), then 1→4 (1) and 4→3 (1): total 4.
        assert_eq!(arb.cost, Cost::new(4.0));
    }
}
