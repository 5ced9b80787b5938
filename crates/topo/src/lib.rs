//! # sof-topo — evaluation topologies for the SOF reproduction
//!
//! The paper evaluates on two inter-datacenter networks and one synthetic
//! topology (§VIII-A), plus a 14-node SDN testbed (Fig. 13):
//!
//! | name | access nodes | links | data centers |
//! |------|--------------|-------|--------------|
//! | IBM SoftLayer | 27 | 49 | 17 |
//! | Cogent        | 190 | 260 | 40 |
//! | Inet synthetic| 5000 | 10000 | 2000 |
//! | testbed (Fig. 13) | 14 | 20 | — |
//!
//! The public maps referenced by the paper are not machine-readable, so the
//! adjacency here is **synthesized deterministically with the paper's exact
//! node/link/DC counts** (DESIGN.md §5.4): a backbone-flavoured construction
//! for SoftLayer/testbed, power-law growth for Cogent/Inet.
//!
//! [`ScenarioParams`] + [`build_instance`] reproduce the experiment setup:
//! VMs attached to random data centers, link costs drawn from utilization
//! `U(0,1)` through the Fortz–Thorup function, VM setup costs from host
//! utilization, uniformly random sources/destinations.
//!
//! # Examples
//!
//! ```
//! use sof_topo::{softlayer, ScenarioParams, build_instance};
//!
//! let topo = softlayer();
//! assert_eq!(topo.graph.node_count(), 27);
//! assert_eq!(topo.graph.edge_count(), 49);
//! assert_eq!(topo.dc_nodes.len(), 17);
//! let inst = build_instance(&topo, &ScenarioParams::paper_defaults().with_seed(1));
//! assert_eq!(inst.network.vms().len(), 25);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod regions;

pub use regions::{
    build_region_instance, build_regions, RegionDef, RegionScenario, RegionTopology, RegionsParams,
};

use sof_core::{fortz_thorup, Network, NodeKind, Request, ServiceChain, SofInstance};
use sof_graph::{Cost, Graph, NodeId, Rng64};

/// A base topology: access-level graph plus its data-center nodes.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Human-readable name.
    pub name: &'static str,
    /// The access-level graph (unit link costs; scenarios re-cost).
    pub graph: Graph,
    /// Access nodes hosting a data center (VM attachment points).
    pub dc_nodes: Vec<NodeId>,
}

fn ring_with_chords(n: usize, chords: &[(usize, usize)]) -> Graph {
    let mut g = Graph::with_nodes(n);
    for i in 0..n {
        g.add_edge(NodeId::new(i), NodeId::new((i + 1) % n), Cost::new(1.0));
    }
    for &(a, b) in chords {
        g.add_edge(NodeId::new(a), NodeId::new(b), Cost::new(1.0));
    }
    g
}

/// IBM SoftLayer inter-DC network: 27 access nodes, 49 links, 17 DCs.
///
/// Deterministic ring-plus-chords construction matching the paper's counts.
pub fn softlayer() -> Topology {
    // 27 ring links + 22 chords = 49 links.
    let chords = [
        (0, 7),
        (0, 13),
        (1, 9),
        (2, 15),
        (3, 11),
        (3, 20),
        (4, 17),
        (5, 12),
        (5, 23),
        (6, 19),
        (8, 16),
        (8, 25),
        (9, 22),
        (10, 18),
        (11, 26),
        (12, 21),
        (14, 24),
        (15, 23),
        (16, 26),
        (17, 25),
        (2, 10),
        (7, 20),
    ];
    let graph = ring_with_chords(27, &chords);
    debug_assert_eq!(graph.edge_count(), 49);
    let dc_nodes = (0..27)
        .filter(|i| i % 3 != 2)
        .take(17)
        .map(NodeId::new)
        .collect();
    Topology {
        name: "softlayer",
        graph,
        dc_nodes,
    }
}

/// Cogent backbone: 190 access nodes, 260 links, 40 DCs.
///
/// Power-law synthesized with a fixed seed (the real map is a web page).
pub fn cogent() -> Topology {
    let mut rng = Rng64::seed_from(0xC0_6E07);
    let graph = sof_graph::generators::inet_like(190, 260, sof_graph::CostRange::UNIT, &mut rng);
    let mut dc_nodes: Vec<NodeId> = rng
        .sample_indices(190, 40)
        .into_iter()
        .map(NodeId::new)
        .collect();
    dc_nodes.sort();
    Topology {
        name: "cogent",
        graph,
        dc_nodes,
    }
}

/// The paper's Inet-generated synthetic network: 5000 access nodes, 10000
/// links, 2000 data centers.
pub fn inet_synthetic(seed: u64) -> Topology {
    let mut rng = Rng64::seed_from(seed ^ 0x17E7);
    let graph = sof_graph::generators::inet_like(5000, 10000, sof_graph::CostRange::UNIT, &mut rng);
    let mut dc_nodes: Vec<NodeId> = rng
        .sample_indices(5000, 2000)
        .into_iter()
        .map(NodeId::new)
        .collect();
    dc_nodes.sort();
    Topology {
        name: "inet",
        graph,
        dc_nodes,
    }
}

/// A scaled-down Inet-style topology (for Table I's |V| sweep).
pub fn inet_sized(nodes: usize, links: usize, dcs: usize, seed: u64) -> Topology {
    let mut rng = Rng64::seed_from(seed.wrapping_mul(0x9E3779B97F4A7C15));
    let graph =
        sof_graph::generators::inet_like(nodes, links, sof_graph::CostRange::UNIT, &mut rng);
    let mut dc_nodes: Vec<NodeId> = rng
        .sample_indices(nodes, dcs)
        .into_iter()
        .map(NodeId::new)
        .collect();
    dc_nodes.sort();
    Topology {
        name: "inet-sized",
        graph,
        dc_nodes,
    }
}

/// The experimental SDN of Fig. 13: 14 nodes, 20 links.
pub fn testbed() -> Topology {
    // 14 ring links + 6 chords = 20.
    let chords = [(0, 5), (1, 8), (2, 11), (4, 10), (6, 13), (3, 9)];
    let graph = ring_with_chords(14, &chords);
    debug_assert_eq!(graph.edge_count(), 20);
    Topology {
        name: "testbed",
        graph,
        dc_nodes: (0..14).map(NodeId::new).collect(),
    }
}

/// Registered topology names, resolvable by [`build_named`]. The `inet`
/// entry covers both the paper's full 5000-node network and arbitrary
/// scaled-down instances via [`TopologySpec::nodes`].
pub const TOPOLOGY_NAMES: [&str; 4] = ["softlayer", "cogent", "inet", "testbed"];

/// The display label a topology name carries in figure headings
/// (`"softlayer"` → `"SoftLayer"`). Unknown names echo back unchanged.
pub fn display_label(name: &str) -> &str {
    match name {
        "softlayer" => "SoftLayer",
        "cogent" => "Cogent",
        "inet" | "inet-sized" => "Inet",
        "testbed" => "testbed",
        other => other,
    }
}

/// A declarative reference to a registered topology: the name plus the
/// optional sizing knobs the `inet` family accepts. This is the lookup key
/// scenario specs use, so experiments can name networks as data.
#[derive(Clone, Debug, PartialEq)]
pub struct TopologySpec {
    /// Registry name (see [`TOPOLOGY_NAMES`]).
    pub name: String,
    /// Access-node count (`inet` only; default 5000, the paper's size).
    pub nodes: Option<usize>,
    /// Link count (`inet` only; default `2 × nodes`).
    pub links: Option<usize>,
    /// Data-center count (`inet` only; default `2/5 × nodes`).
    pub dcs: Option<usize>,
    /// Growth seed (`cogent`/`inet`; default: the caller's scenario seed).
    pub seed: Option<u64>,
}

impl TopologySpec {
    /// A spec naming a topology with every knob defaulted.
    pub fn named(name: impl Into<String>) -> TopologySpec {
        TopologySpec {
            name: name.into(),
            nodes: None,
            links: None,
            dcs: None,
            seed: None,
        }
    }

    /// Whether the topology takes the sizing knobs (`nodes`, `links`,
    /// `dcs`): only the `inet` family does.
    pub fn is_sizable(&self) -> bool {
        self.name == "inet"
    }
}

/// Checks a [`TopologySpec`] without building anything — the cheap half of
/// [`build_named`], so spec files can be validated without synthesizing a
/// 5000-node network.
///
/// # Errors
///
/// A message naming the unknown topology and the valid names, or the
/// rejected sizing knob.
pub fn validate_named(spec: &TopologySpec) -> Result<(), String> {
    let sized = |what: &str| -> Result<(), String> {
        Err(format!(
            "topology '{}' does not accept '{what}' (only 'inet' is sizable)",
            spec.name
        ))
    };
    match spec.name.as_str() {
        "softlayer" | "cogent" | "testbed" => {
            if spec.nodes.is_some() {
                sized("nodes")?;
            }
            if spec.links.is_some() {
                sized("links")?;
            }
            if spec.dcs.is_some() {
                sized("dcs")?;
            }
            Ok(())
        }
        "inet" => {
            let nodes = spec.nodes.unwrap_or(5000);
            if nodes < 10 {
                return Err(format!(
                    "topology 'inet' needs at least 10 nodes, got {nodes}"
                ));
            }
            let links = spec.links.unwrap_or(nodes * 2);
            let dcs = spec.dcs.unwrap_or((nodes * 2) / 5);
            if dcs == 0 || dcs > nodes {
                return Err(format!(
                    "topology 'inet' needs 1 ≤ dcs ≤ nodes, got dcs = {dcs} for {nodes} nodes"
                ));
            }
            if links < nodes - 1 {
                return Err(format!(
                    "topology 'inet' needs at least nodes - 1 links to connect, \
                     got {links} for {nodes} nodes"
                ));
            }
            Ok(())
        }
        other => Err(format!(
            "unknown topology '{other}' (expected one of {})",
            TOPOLOGY_NAMES.join(", ")
        )),
    }
}

/// Builds a registered topology from its declarative spec. `default_seed`
/// feeds the synthesized families (`inet`) when the spec pins no seed;
/// `softlayer`/`testbed`/`cogent` are fully deterministic and ignore it.
///
/// `inet` with the paper's exact 5000-node size (and no custom
/// links/dcs) resolves to [`inet_synthetic`]; any other size resolves to
/// [`inet_sized`] with `links = 2 × nodes` and `dcs = 2/5 × nodes` unless
/// overridden — exactly the sizing rule Fig. 10 and Table I use.
///
/// # Errors
///
/// Everything [`validate_named`] rejects.
pub fn build_named(spec: &TopologySpec, default_seed: u64) -> Result<Topology, String> {
    validate_named(spec)?;
    let seed = spec.seed.unwrap_or(default_seed);
    Ok(match spec.name.as_str() {
        "softlayer" => softlayer(),
        "cogent" => cogent(),
        "testbed" => testbed(),
        _ => {
            let nodes = spec.nodes.unwrap_or(5000);
            if nodes == 5000 && spec.links.is_none() && spec.dcs.is_none() {
                inet_synthetic(seed)
            } else {
                let links = spec.links.unwrap_or(nodes * 2);
                let dcs = spec.dcs.unwrap_or((nodes * 2) / 5);
                inet_sized(nodes, links, dcs, seed)
            }
        }
    })
}

/// Parameters of one evaluation scenario (Figs. 8–11 defaults: §VIII-A).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScenarioParams {
    /// Total VMs attached to data centers.
    pub vm_count: usize,
    /// Candidate sources |S|.
    pub sources: usize,
    /// Destinations |D|.
    pub destinations: usize,
    /// Chain length |C|.
    pub chain_len: usize,
    /// Multiplier on VM setup costs (Fig. 11's 1x…9x sweep).
    pub setup_scale: f64,
    /// RNG seed (controls placement, costs, endpoints).
    pub seed: u64,
}

impl ScenarioParams {
    /// The paper's defaults: 14 sources, 6 destinations, 25 VMs, |C| = 3.
    pub fn paper_defaults() -> ScenarioParams {
        ScenarioParams {
            vm_count: 25,
            sources: 14,
            destinations: 6,
            chain_len: 3,
            setup_scale: 1.0,
            seed: 0x50F,
        }
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> ScenarioParams {
        self.seed = seed;
        self
    }
}

/// Builds a full SOF instance on a topology per the paper's setup:
///
/// * every access link gets cost `fortz_thorup(u, 1)` for utilization
///   `u ~ U(0,1)` (the "link usage randomly chosen in (0,1)" rule),
/// * `vm_count` VMs are attached to uniformly chosen DCs by zero-cost stub
///   links, with setup cost `fortz_thorup(h, 1) · setup_scale` for host
///   utilization `h ~ U(0,1)` (the [48]-based VM cost),
/// * sources and destinations are distinct uniform access nodes.
///
/// # Panics
///
/// Panics if the topology has fewer access nodes than
/// `sources + destinations`.
pub fn build_instance(topo: &Topology, p: &ScenarioParams) -> SofInstance {
    let mut rng = Rng64::seed_from(p.seed);
    let base_n = topo.graph.node_count();
    let mut graph = topo.graph.clone();
    // Link costs from utilization.
    let edge_ids: Vec<_> = graph.edges().map(|(e, _)| e).collect();
    for e in edge_ids {
        let u = rng.next_f64().max(1e-6);
        graph.set_edge_cost(e, fortz_thorup(u, 1.0));
    }
    let mut net = Network::all_switches(graph);
    // Attach VMs to DCs.
    for _ in 0..p.vm_count {
        let dc = *rng.pick(&topo.dc_nodes);
        let h = rng.next_f64().max(1e-6);
        let vm = net.add_node(NodeKind::Vm, fortz_thorup(h, 1.0) * p.setup_scale);
        net.graph_mut().add_edge(vm, dc, Cost::ZERO);
    }
    // Endpoints: disjoint when the pool allows it (the paper's sweeps go up
    // to |S|=26 on the 27-node SoftLayer, where overlap with D is
    // unavoidable — sources and destinations are then drawn independently).
    let (sources, destinations): (Vec<NodeId>, Vec<NodeId>) =
        if base_n >= p.sources + p.destinations {
            let picks = rng.sample_indices(base_n, p.sources + p.destinations);
            (
                picks[..p.sources].iter().map(|&i| NodeId::new(i)).collect(),
                picks[p.sources..].iter().map(|&i| NodeId::new(i)).collect(),
            )
        } else {
            let d = rng.sample_indices(base_n, p.destinations.min(base_n));
            let s = rng.sample_indices(base_n, p.sources.min(base_n));
            (
                s.into_iter().map(NodeId::new).collect(),
                d.into_iter().map(NodeId::new).collect(),
            )
        };
    SofInstance::new(
        net,
        Request::new(sources, destinations, ServiceChain::with_len(p.chain_len)),
    )
    .expect("constructed instance is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_paper() {
        let s = softlayer();
        assert_eq!(
            (s.graph.node_count(), s.graph.edge_count(), s.dc_nodes.len()),
            (27, 49, 17)
        );
        assert!(s.graph.is_connected());
        let c = cogent();
        assert_eq!(
            (c.graph.node_count(), c.graph.edge_count(), c.dc_nodes.len()),
            (190, 260, 40)
        );
        assert!(c.graph.is_connected());
        let t = testbed();
        assert_eq!((t.graph.node_count(), t.graph.edge_count()), (14, 20));
        assert!(t.graph.is_connected());
    }

    #[test]
    #[ignore = "builds the full 5000-node topology; run with --ignored"]
    fn inet_counts() {
        let i = inet_synthetic(1);
        assert_eq!(i.graph.node_count(), 5000);
        assert_eq!(i.graph.edge_count(), 10000);
        assert_eq!(i.dc_nodes.len(), 2000);
        assert!(i.graph.is_connected());
    }

    #[test]
    fn registry_resolves_every_name() {
        for name in TOPOLOGY_NAMES {
            if name == "inet" {
                continue; // full-size build is expensive; covered below
            }
            let t = build_named(&TopologySpec::named(name), 1).unwrap();
            assert_eq!(t.name, name);
        }
        let spec = TopologySpec {
            nodes: Some(300),
            ..TopologySpec::named("inet")
        };
        let t = build_named(&spec, 9).unwrap();
        assert_eq!(t.graph.node_count(), 300);
        assert_eq!(t.graph.edge_count(), 600);
        assert_eq!(t.dc_nodes.len(), 120);
        // Sizing matches inet_sized's rule, so Table I's networks are reachable.
        let direct = inet_sized(300, 600, 120, 9);
        assert!(t.graph.edges().eq(direct.graph.edges()));
    }

    #[test]
    fn registry_rejects_bad_specs_with_actionable_errors() {
        let err = build_named(&TopologySpec::named("softlayeer"), 1).unwrap_err();
        assert!(err.contains("unknown topology 'softlayeer'") && err.contains("softlayer"));
        let mut spec = TopologySpec::named("cogent");
        spec.nodes = Some(50);
        let err = build_named(&spec, 1).unwrap_err();
        assert!(err.contains("does not accept 'nodes'"), "{err}");
        let mut spec = TopologySpec::named("inet");
        spec.nodes = Some(100);
        spec.dcs = Some(0);
        let err = build_named(&spec, 1).unwrap_err();
        assert!(err.contains("dcs"), "{err}");
        spec.dcs = None;
        spec.links = Some(5);
        let err = build_named(&spec, 1).unwrap_err();
        assert!(err.contains("links"), "{err}");
    }

    #[test]
    fn display_labels_match_figures() {
        assert_eq!(display_label("softlayer"), "SoftLayer");
        assert_eq!(display_label("cogent"), "Cogent");
        assert_eq!(display_label("inet"), "Inet");
        assert_eq!(display_label("custom"), "custom");
    }

    #[test]
    fn instances_are_deterministic_per_seed() {
        let topo = softlayer();
        let p = ScenarioParams::paper_defaults().with_seed(7);
        let a = build_instance(&topo, &p);
        let b = build_instance(&topo, &p);
        assert_eq!(a.request.sources, b.request.sources);
        assert_eq!(a.network.vms(), b.network.vms());
        assert!(a.network.graph().edges().eq(b.network.graph().edges()));
    }

    #[test]
    fn instance_solvable_end_to_end() {
        let topo = softlayer();
        let mut p = ScenarioParams::paper_defaults().with_seed(3);
        p.destinations = 4;
        p.sources = 5;
        let inst = build_instance(&topo, &p);
        let out = sof_core::solve_sofda(&inst, &sof_core::SofdaConfig::default()).unwrap();
        out.forest.validate(&inst).unwrap();
    }

    #[test]
    fn setup_scale_raises_vm_costs() {
        let topo = softlayer();
        let p1 = ScenarioParams::paper_defaults().with_seed(9);
        let mut p9 = p1;
        p9.setup_scale = 9.0;
        let a = build_instance(&topo, &p1);
        let b = build_instance(&topo, &p9);
        let sum = |inst: &SofInstance| -> f64 {
            inst.network
                .vms()
                .iter()
                .map(|&v| inst.network.node_cost(v).value())
                .sum()
        };
        assert!((sum(&b) / sum(&a) - 9.0).abs() < 1e-6);
    }
}
