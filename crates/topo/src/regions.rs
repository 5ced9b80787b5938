//! Region-aware topology generation for churn-at-scale workloads.
//!
//! The paper's networks are flat access graphs; production overlays span
//! named geographic regions whose *pairwise* link behaviour differs — an
//! intra-region hop is cheap, a transatlantic one is not. This module
//! synthesizes such networks deterministically:
//!
//! * every [`RegionDef`] becomes a ring-plus-chords subgraph with its own
//!   data-center nodes,
//! * every region pair is joined by a configurable number of gateway
//!   links,
//! * every edge cost is scaled by the region-pair factor (see
//!   [`RegionsParams::pair_factor`]), so inter-region paths are priced by
//!   "distance" between the regions,
//! * [`build_region_instance`] places VMs per region DC and prices links
//!   from random utilization **times** the pair factor — the region-aware
//!   analogue of [`crate::build_instance`].
//!
//! # Examples
//!
//! ```
//! use sof_topo::{RegionDef, RegionsParams, build_regions};
//!
//! let params = RegionsParams::new(vec![
//!     RegionDef::new("us-east", 8, 2),
//!     RegionDef::new("eu-west", 8, 2),
//! ]);
//! let rt = build_regions(&params, 7).unwrap();
//! assert_eq!(rt.topo.graph.node_count(), 16);
//! assert_eq!(rt.region_of(sof_graph::NodeId::new(0)), 0);
//! assert_eq!(rt.region_of(sof_graph::NodeId::new(9)), 1);
//! assert!(rt.topo.graph.is_connected());
//! ```

use crate::Topology;
use sof_core::{fortz_thorup, Network, NodeKind, Request, ServiceChain, SofInstance};
use sof_graph::{Cost, Graph, NodeId, Rng64};

/// One named region: a contiguous block of access nodes, some hosting DCs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionDef {
    /// Human-readable region name (e.g. `"us-east"`).
    pub name: String,
    /// Access nodes in the region (≥ 3 — each region is a ring).
    pub nodes: usize,
    /// Data-center nodes among them (≤ `nodes`).
    pub dcs: usize,
}

impl RegionDef {
    /// A region definition.
    pub fn new(name: impl Into<String>, nodes: usize, dcs: usize) -> RegionDef {
        RegionDef {
            name: name.into(),
            nodes,
            dcs,
        }
    }
}

/// Parameters of a multi-region network.
#[derive(Clone, Debug, PartialEq)]
pub struct RegionsParams {
    /// The regions, in id order.
    pub regions: Vec<RegionDef>,
    /// Gateway links joining every region pair (≥ 1 keeps the network
    /// connected).
    pub gateway_links: usize,
    /// Explicit symmetric cost factors per region pair
    /// (`pair_cost[i][j]`); `None` uses `1 + |i − j|`, i.e. the regions
    /// sit on a line and farther pairs are proportionally costlier.
    pub pair_cost: Option<Vec<Vec<f64>>>,
}

impl RegionsParams {
    /// Parameters with default gateway count (2) and line-distance costs.
    pub fn new(regions: Vec<RegionDef>) -> RegionsParams {
        RegionsParams {
            regions,
            gateway_links: 2,
            pair_cost: None,
        }
    }

    /// The cost factor applied to edges between regions `i` and `j`
    /// (`i == j` for intra-region edges).
    pub fn pair_factor(&self, i: usize, j: usize) -> f64 {
        match &self.pair_cost {
            Some(m) => m[i][j],
            None => 1.0 + i.abs_diff(j) as f64,
        }
    }

    /// Checks the parameters without building anything.
    ///
    /// # Errors
    ///
    /// A message naming the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.regions.is_empty() {
            return Err("regions list must not be empty".into());
        }
        for (i, r) in self.regions.iter().enumerate() {
            if r.name.is_empty() {
                return Err(format!("regions[{i}] has an empty name"));
            }
            if r.nodes < 3 {
                return Err(format!(
                    "region '{}' needs at least 3 nodes, got {}",
                    r.name, r.nodes
                ));
            }
            if r.dcs == 0 || r.dcs > r.nodes {
                return Err(format!(
                    "region '{}' needs 1 ≤ dcs ≤ nodes, got dcs = {} for {} nodes",
                    r.name, r.dcs, r.nodes
                ));
            }
        }
        if self.regions.len() > 1 && self.gateway_links == 0 {
            return Err("gateway_links must be at least 1 to connect multiple regions".into());
        }
        if let Some(m) = &self.pair_cost {
            let n = self.regions.len();
            if m.len() != n || m.iter().any(|row| row.len() != n) {
                return Err(format!("pair_cost must be a {n}×{n} matrix"));
            }
            for (i, row) in m.iter().enumerate() {
                for (j, &f) in row.iter().enumerate() {
                    if !f.is_finite() || f <= 0.0 {
                        return Err(format!("pair_cost[{i}][{j}] must be positive, got {f}"));
                    }
                    if (f - m[j][i]).abs() > 1e-12 {
                        return Err(format!(
                            "pair_cost must be symmetric (pair_cost[{i}][{j}] ≠ pair_cost[{j}][{i}])"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// A built multi-region topology: the flat [`Topology`] plus the region
/// labelling the flat graph loses.
#[derive(Clone, Debug)]
pub struct RegionTopology {
    /// The flat access topology (all regions + gateways; `dc_nodes` spans
    /// every region).
    pub topo: Topology,
    /// The generating parameters (for pair factors and names).
    pub params: RegionsParams,
    /// Access node → region index.
    region_of: Vec<usize>,
    /// Per-region access nodes, in id order.
    region_nodes: Vec<Vec<NodeId>>,
    /// Per-region DC nodes, in id order.
    region_dcs: Vec<Vec<NodeId>>,
}

impl RegionTopology {
    /// The region index of an access node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not an access node of this topology.
    pub fn region_of(&self, node: NodeId) -> usize {
        self.region_of[node.index()]
    }

    /// Number of regions.
    pub fn region_count(&self) -> usize {
        self.region_nodes.len()
    }

    /// The access nodes of region `r`.
    pub fn region_nodes(&self, r: usize) -> &[NodeId] {
        &self.region_nodes[r]
    }

    /// The DC nodes of region `r`.
    pub fn region_dcs(&self, r: usize) -> &[NodeId] {
        &self.region_dcs[r]
    }

    /// The name of region `r`.
    pub fn region_name(&self, r: usize) -> &str {
        &self.params.regions[r].name
    }

    /// The index of the region called `name`, if there is one.
    pub fn region_named(&self, name: &str) -> Option<usize> {
        (0..self.region_count()).find(|&r| self.region_name(r) == name)
    }
}

/// Builds a multi-region topology deterministically from `seed`.
///
/// Each region is a ring over its nodes plus `nodes / 4` random chords;
/// every region pair gets [`RegionsParams::gateway_links`] gateway edges
/// between randomly chosen endpoints. Edge costs carry the pair factor
/// (intra-region edges: `pair_factor(r, r)`), so even the un-recosted
/// graph prices inter-region hops by region distance.
///
/// # Errors
///
/// Everything [`RegionsParams::validate`] rejects.
pub fn build_regions(params: &RegionsParams, seed: u64) -> Result<RegionTopology, String> {
    params.validate()?;
    let mut rng = Rng64::seed_from(seed ^ 0x5E61_0175);
    let total: usize = params.regions.iter().map(|r| r.nodes).sum();
    let mut graph = Graph::with_nodes(total);
    let mut region_of = Vec::with_capacity(total);
    let mut region_nodes = Vec::with_capacity(params.regions.len());
    let mut region_dcs = Vec::with_capacity(params.regions.len());
    let mut base = 0usize;
    for (ri, region) in params.regions.iter().enumerate() {
        let intra = Cost::new(params.pair_factor(ri, ri));
        let nodes: Vec<NodeId> = (base..base + region.nodes).map(NodeId::new).collect();
        for i in 0..region.nodes {
            graph.add_edge(nodes[i], nodes[(i + 1) % region.nodes], intra);
        }
        // Deterministic chords thicken the ring (skip duplicates).
        for _ in 0..region.nodes / 4 {
            let a = rng.below(region.nodes);
            let b = rng.below(region.nodes);
            if a != b && graph.edge_between(nodes[a], nodes[b]).is_none() {
                graph.add_edge(nodes[a], nodes[b], intra);
            }
        }
        // DCs: evenly spread over the region's nodes.
        let stride = (region.nodes / region.dcs).max(1);
        let dcs: Vec<NodeId> = (0..region.dcs)
            .map(|k| nodes[(k * stride) % region.nodes])
            .collect();
        region_of.extend(std::iter::repeat_n(ri, region.nodes));
        region_nodes.push(nodes);
        region_dcs.push(dcs);
        base += region.nodes;
    }
    // Gateways join every region pair.
    for i in 0..params.regions.len() {
        for j in i + 1..params.regions.len() {
            let cost = Cost::new(params.pair_factor(i, j));
            for _ in 0..params.gateway_links {
                let a = *rng.pick(&region_nodes[i]);
                let b = *rng.pick(&region_nodes[j]);
                if graph.edge_between(a, b).is_none() {
                    graph.add_edge(a, b, cost);
                }
            }
        }
    }
    let dc_nodes: Vec<NodeId> = region_dcs.iter().flatten().copied().collect();
    Ok(RegionTopology {
        topo: Topology {
            name: "regions",
            graph,
            dc_nodes,
        },
        params: params.clone(),
        region_of,
        region_nodes,
        region_dcs,
    })
}

/// Scenario knobs for one region-aware instance (the per-group network a
/// churn-at-scale runner builds).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RegionScenario {
    /// VMs attached to every DC node.
    pub vms_per_dc: usize,
    /// Multiplier on VM setup costs.
    pub setup_scale: f64,
    /// RNG seed (controls utilization draws and VM costs).
    pub seed: u64,
}

impl RegionScenario {
    /// Defaults: 1 VM per DC, unscaled setup costs.
    pub fn new(seed: u64) -> RegionScenario {
        RegionScenario {
            vms_per_dc: 1,
            setup_scale: 1.0,
            seed,
        }
    }
}

/// Builds a full SOF instance on a region topology:
///
/// * every access link gets cost `fortz_thorup(u, 1) × pair_factor` for
///   utilization `u ~ U(0,1)` — the paper's pricing with the region-pair
///   behaviour layered on top, so inter-region links stay systematically
///   costlier than intra-region ones no matter the utilization draw,
/// * `vms_per_dc` VMs attach to **every** DC node with setup cost
///   `fortz_thorup(h, 1) × setup_scale`,
/// * the placeholder request uses `sources`/`destinations` (callers
///   normally overwrite it with the group's first churn snapshot).
pub fn build_region_instance(
    rt: &RegionTopology,
    scenario: &RegionScenario,
    sources: Vec<NodeId>,
    destinations: Vec<NodeId>,
    chain_len: usize,
) -> SofInstance {
    let mut rng = Rng64::seed_from(scenario.seed);
    let mut graph = rt.topo.graph.clone();
    let edges: Vec<_> = graph.edges().map(|(e, edge)| (e, edge.u, edge.v)).collect();
    for (e, u, v) in edges {
        let util = rng.next_f64().max(1e-6);
        let factor = rt.params.pair_factor(rt.region_of(u), rt.region_of(v));
        graph.set_edge_cost(e, fortz_thorup(util, 1.0) * factor);
    }
    let mut net = Network::all_switches(graph);
    for &dc in &rt.topo.dc_nodes {
        for _ in 0..scenario.vms_per_dc {
            let h = rng.next_f64().max(1e-6);
            let vm = net.add_node(NodeKind::Vm, fortz_thorup(h, 1.0) * scenario.setup_scale);
            net.graph_mut().add_edge(vm, dc, Cost::ZERO);
        }
    }
    SofInstance::new(
        net,
        Request::new(sources, destinations, ServiceChain::with_len(chain_len)),
    )
    .expect("constructed region instance is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_regions() -> RegionsParams {
        RegionsParams::new(vec![
            RegionDef::new("us-east", 8, 2),
            RegionDef::new("eu-west", 6, 2),
            RegionDef::new("ap-south", 5, 1),
        ])
    }

    #[test]
    fn builds_connected_labelled_topology() {
        let rt = build_regions(&three_regions(), 3).unwrap();
        assert_eq!(rt.topo.graph.node_count(), 19);
        assert!(rt.topo.graph.is_connected());
        assert_eq!(rt.region_count(), 3);
        assert_eq!(rt.topo.dc_nodes.len(), 5);
        // Region labelling is contiguous and complete.
        assert_eq!(rt.region_of(NodeId::new(0)), 0);
        assert_eq!(rt.region_of(NodeId::new(8)), 1);
        assert_eq!(rt.region_of(NodeId::new(14)), 2);
        for r in 0..3 {
            for &n in rt.region_nodes(r) {
                assert_eq!(rt.region_of(n), r);
            }
            for &d in rt.region_dcs(r) {
                assert!(rt.region_nodes(r).contains(&d));
            }
        }
        assert_eq!(rt.region_name(1), "eu-west");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = build_regions(&three_regions(), 9).unwrap();
        let b = build_regions(&three_regions(), 9).unwrap();
        assert!(a.topo.graph.edges().eq(b.topo.graph.edges()));
        let c = build_regions(&three_regions(), 10).unwrap();
        assert!(
            !a.topo.graph.edges().eq(c.topo.graph.edges()),
            "different seeds should draw different chords/gateways"
        );
    }

    #[test]
    fn inter_region_edges_carry_pair_factors() {
        let rt = build_regions(&three_regions(), 5).unwrap();
        for (_, edge) in rt.topo.graph.edges() {
            let (ru, rv) = (rt.region_of(edge.u), rt.region_of(edge.v));
            let expect = rt.params.pair_factor(ru, rv);
            assert_eq!(edge.cost.value(), expect, "edge {:?}", edge);
        }
        // Default factors: line distance + 1.
        assert_eq!(rt.params.pair_factor(0, 2), 3.0);
        assert_eq!(rt.params.pair_factor(1, 1), 1.0);
    }

    #[test]
    fn validation_rejects_bad_params() {
        let err = RegionsParams::new(vec![]).validate().unwrap_err();
        assert!(err.contains("empty"), "{err}");
        let err = RegionsParams::new(vec![RegionDef::new("x", 2, 1)])
            .validate()
            .unwrap_err();
        assert!(err.contains("at least 3 nodes"), "{err}");
        let err = RegionsParams::new(vec![RegionDef::new("x", 4, 0)])
            .validate()
            .unwrap_err();
        assert!(err.contains("dcs"), "{err}");
        let mut p = three_regions();
        p.gateway_links = 0;
        assert!(p.validate().unwrap_err().contains("gateway_links"));
        let mut p = three_regions();
        p.pair_cost = Some(vec![vec![1.0; 2]; 2]);
        assert!(p.validate().unwrap_err().contains("matrix"));
        let mut m = vec![vec![1.0; 3]; 3];
        m[0][2] = 4.0;
        let mut p = three_regions();
        p.pair_cost = Some(m);
        assert!(p.validate().unwrap_err().contains("symmetric"));
    }

    #[test]
    fn region_instance_prices_pairs_and_places_vms() {
        let rt = build_regions(&three_regions(), 11).unwrap();
        let scen = RegionScenario {
            vms_per_dc: 2,
            setup_scale: 1.0,
            seed: 4,
        };
        let src = vec![rt.region_nodes(0)[0]];
        let dst = vec![rt.region_nodes(0)[2], rt.region_nodes(1)[1]];
        let inst = build_region_instance(&rt, &scen, src, dst, 2);
        assert_eq!(inst.network.vms().len(), 10, "2 VMs × 5 DCs");
        // Re-costed edges keep the pair-factor ordering in aggregate: the
        // mean inter-region (0,2) edge cost exceeds the mean intra cost.
        let mut intra = (0.0, 0usize);
        let mut far = (0.0, 0usize);
        for (_, edge) in inst.network.graph().edges() {
            if edge.u.index() >= rt.topo.graph.node_count()
                || edge.v.index() >= rt.topo.graph.node_count()
            {
                continue; // VM stub
            }
            let (ru, rv) = (rt.region_of(edge.u), rt.region_of(edge.v));
            if ru == rv {
                intra = (intra.0 + edge.cost.value(), intra.1 + 1);
            } else if ru.abs_diff(rv) == 2 {
                far = (far.0 + edge.cost.value(), far.1 + 1);
            }
        }
        assert!(far.1 > 0 && intra.1 > 0);
        assert!(
            far.0 / far.1 as f64 > intra.0 / intra.1 as f64,
            "inter-region mean cost should dominate"
        );
        // End-to-end solvable.
        let out = sof_core::solve_sofda(&inst, &sof_core::SofdaConfig::default()).unwrap();
        out.forest.validate(&inst).unwrap();
    }

    #[test]
    fn instance_is_deterministic() {
        let rt = build_regions(&three_regions(), 11).unwrap();
        let scen = RegionScenario::new(8);
        let src = vec![rt.region_nodes(0)[0]];
        let dst = vec![rt.region_nodes(1)[0]];
        let a = build_region_instance(&rt, &scen, src.clone(), dst.clone(), 1);
        let b = build_region_instance(&rt, &scen, src, dst, 1);
        assert!(a.network.graph().edges().eq(b.network.graph().edges()));
    }
}
