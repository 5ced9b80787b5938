//! The convex load-dependent cost model of §VII-B (Fortz–Thorup [46]) and
//! the online load tracker driving Fig. 12.

use crate::{Network, ServiceForest};
use sof_graph::{Cost, EdgeId, NodeId};

/// Piecewise-linear convex cost of carrying load `l` on a resource of
/// capacity `p` (Fig. 7 of the paper).
///
/// The function grows steeply as utilization approaches and exceeds 1,
/// steering SOFDA away from congested links and overloaded hosts.
///
/// # Panics
///
/// Panics if `capacity <= 0` or `load < 0`.
///
/// # Examples
///
/// ```
/// use sof_core::fortz_thorup;
/// // At utilization 1.0 with unit capacity the cost is 70 - 178/3 ≈ 10.67.
/// let c = fortz_thorup(1.0, 1.0);
/// assert!((c.value() - (70.0 - 178.0 / 3.0)).abs() < 1e-9);
/// ```
pub fn fortz_thorup(load: f64, capacity: f64) -> Cost {
    assert!(capacity > 0.0, "capacity must be positive");
    assert!(load >= 0.0, "load must be non-negative");
    let (l, p) = (load, capacity);
    let u = l / p;
    let v = if u <= 1.0 / 3.0 {
        l
    } else if u <= 2.0 / 3.0 {
        3.0 * l - (2.0 / 3.0) * p
    } else if u <= 9.0 / 10.0 {
        10.0 * l - (16.0 / 3.0) * p
    } else if u <= 1.0 {
        70.0 * l - (178.0 / 3.0) * p
    } else if u <= 11.0 / 10.0 {
        500.0 * l - (1468.0 / 3.0) * p
    } else {
        // The paper prints 14318/3 here, which would make the function
        // discontinuous at utilization 11/10; the original Fortz–Thorup
        // constant is 16318/3 (continuity: 500·1.1 − 1468/3 = 5000·1.1 −
        // 16318/3). We use the correct constant.
        5000.0 * l - (16318.0 / 3.0) * p
    };
    Cost::new(v.max(0.0))
}

/// Capacity of every link in the online deployment model (Mbps): the `p`
/// that [`fortz_thorup`] prices a link's load against.
pub const LINK_CAPACITY_MBPS: f64 = 100.0;

/// Capacity of every VM in the online deployment model (concurrent VNFs).
pub const VM_CAPACITY_VNFS: f64 = 5.0;

/// Tracks per-link and per-VM load for the online deployment model
/// (§VII-B), which prices each resource with [`fortz_thorup`] of its load:
/// each accepted request adds its demand to every link its forest uses
/// (once per chain segment, mirroring the bandwidth actually consumed) and
/// one unit of work to every enabled VM.
///
/// Every link's capacity is [`LINK_CAPACITY_MBPS`] and every VM's
/// [`VM_CAPACITY_VNFS`].
///
/// The tracker remembers its *footprint* — the links loaded since the last
/// [`clear_loads`](Self::clear_loads) — so clearing, and repricing after
/// it, touch those links only. Equality compares loads only: trackers
/// that loaded the same links in another order are equal.
#[derive(Clone, Debug)]
pub struct LoadTracker {
    edge_load: Vec<f64>,
    node_load: Vec<f64>,
    /// Links loaded since the last clear, in the order first loaded.
    footprint: Vec<EdgeId>,
    /// The nodes that can carry load: the network's VMs.
    vms: Vec<NodeId>,
}

impl PartialEq for LoadTracker {
    fn eq(&self, other: &LoadTracker) -> bool {
        self.edge_load == other.edge_load && self.node_load == other.node_load
    }
}

impl LoadTracker {
    /// Creates a tracker with every load at zero.
    pub fn new(network: &Network) -> LoadTracker {
        LoadTracker {
            edge_load: vec![0.0; network.graph().edge_count()],
            node_load: vec![0.0; network.node_count()],
            footprint: Vec::new(),
            vms: network.vms(),
        }
    }

    /// Current load of a link.
    pub fn edge_load(&self, e: EdgeId) -> f64 {
        self.edge_load[e.index()]
    }

    /// Current load of a node.
    pub fn node_load(&self, v: NodeId) -> f64 {
        self.node_load[v.index()]
    }

    /// Zeroes the loads (capacities are kept) and hands back the links that
    /// carried any — the footprint, in the order first loaded — by
    /// appending them to `cleared`. Only those links and the VMs are
    /// written: every other load is already zero. The online engine
    /// re-derives a standing forest's footprint from scratch each round
    /// instead of accumulating deltas.
    pub fn clear_loads(&mut self, cleared: &mut Vec<EdgeId>) {
        for e in &self.footprint {
            self.edge_load[e.index()] = 0.0;
        }
        for v in &self.vms {
            self.node_load[v.index()] = 0.0;
        }
        cleared.extend_from_slice(&self.footprint);
        self.footprint.clear();
    }

    /// The links loaded since the last [`clear_loads`](Self::clear_loads),
    /// in the order first loaded.
    pub(crate) fn footprint(&self) -> &[EdgeId] {
        &self.footprint
    }

    /// Adds a deployed forest's demand: `demand` per link per used segment,
    /// one unit per enabled VM. A link loaded for the first time since the
    /// last clear joins the footprint.
    pub fn apply_forest(&mut self, network: &Network, forest: &ServiceForest, demand: f64) {
        for seg in forest.segment_edges() {
            for (a, b) in seg {
                let e = network
                    .graph()
                    .edge_between(a, b)
                    .expect("forest uses network links");
                let load = &mut self.edge_load[e.index()];
                // A zero demand loads nothing, so nothing needs repricing.
                if *load == 0.0 && demand > 0.0 {
                    self.footprint.push(e);
                }
                *load += demand;
            }
        }
        for (vm, _) in forest.enabled_vms().expect("validated forest") {
            self.node_load[vm.index()] += 1.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DestWalk, Request, ServiceChain, SofInstance};
    use sof_graph::Graph;

    #[test]
    fn piecewise_values_match_fig7() {
        // p = 1: spot checks along Fig. 7's curve.
        assert_eq!(fortz_thorup(0.2, 1.0), Cost::new(0.2));
        assert!((fortz_thorup(0.5, 1.0).value() - (1.5 - 2.0 / 3.0)).abs() < 1e-12);
        assert!((fortz_thorup(0.8, 1.0).value() - (8.0 - 16.0 / 3.0)).abs() < 1e-12);
        assert!((fortz_thorup(1.0, 1.0).value() - (70.0 - 178.0 / 3.0)).abs() < 1e-12);
        assert!((fortz_thorup(1.05, 1.0).value() - (525.0 - 1468.0 / 3.0)).abs() < 1e-12);
        assert!(fortz_thorup(1.2, 1.0).value() > 500.0);
    }

    #[test]
    fn continuous_at_breakpoints() {
        for p in [1.0, 10.0, 100.0] {
            for bp in [1.0 / 3.0, 2.0 / 3.0, 0.9, 1.0, 1.1] {
                let lo = fortz_thorup((bp - 1e-9) * p, p).value();
                let hi = fortz_thorup((bp + 1e-9) * p, p).value();
                assert!(
                    (hi - lo).abs() < 1e-4 * p,
                    "discontinuity at {bp} (p={p}): {lo} vs {hi}"
                );
            }
        }
    }

    #[test]
    fn convex_increasing() {
        let mut prev = -1.0;
        let mut prev_slope = 0.0;
        for i in 0..130 {
            let l = i as f64 / 100.0;
            let c = fortz_thorup(l, 1.0).value();
            assert!(c >= prev, "not increasing at {l}");
            if i > 0 {
                let slope = c - prev;
                assert!(slope >= prev_slope - 1e-9, "not convex at {l}");
                prev_slope = slope;
            }
            prev = c;
        }
    }

    #[test]
    fn tracker_accumulates_and_refreshes() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId::new(0), NodeId::new(1), Cost::new(1.0));
        g.add_edge(NodeId::new(1), NodeId::new(2), Cost::new(1.0));
        let mut net = crate::Network::all_switches(g);
        net.make_vm(NodeId::new(1), Cost::new(1.0));
        let inst = SofInstance::new(
            net.clone(),
            Request::new(
                vec![NodeId::new(0)],
                vec![NodeId::new(2)],
                ServiceChain::with_len(1),
            ),
        )
        .unwrap();
        let forest = ServiceForest::new(
            1,
            vec![DestWalk {
                destination: NodeId::new(2),
                source: NodeId::new(0),
                nodes: vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)],
                vnf_positions: vec![1],
            }],
        );
        forest.validate(&inst).unwrap();
        let mut tracker = LoadTracker::new(&net);
        tracker.apply_forest(&net, &forest, 5.0);
        assert_eq!(tracker.edge_load(EdgeId::new(0)), 5.0);
        assert_eq!(tracker.node_load(NodeId::new(1)), 1.0);
        // 5/100 utilization is in the linear region: cost = load.
        let e = EdgeId::new(0);
        let priced = |t: &LoadTracker| fortz_thorup(t.edge_load(e), LINK_CAPACITY_MBPS);
        assert!((priced(&tracker).value() - 5.0).abs() < 1e-9);
        // More load → higher cost.
        tracker.apply_forest(&net, &forest, 60.0);
        assert!(priced(&tracker).value() > 5.0);
        // Clearing hands back each loaded link once and leaves a fresh
        // tracker behind.
        let mut cleared = Vec::new();
        tracker.clear_loads(&mut cleared);
        assert_eq!(cleared, [EdgeId::new(0), EdgeId::new(1)]);
        assert_eq!(tracker, LoadTracker::new(&net));
        assert!(tracker.footprint().is_empty());
    }
}
