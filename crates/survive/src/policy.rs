//! Protection policies: what answers a disruption.
//!
//! A [`Protector`] sits next to one [`OnlineSession`] and decides how a
//! failure that broke standing walks gets repaired:
//!
//! * [`ProtectionPolicy::Reactive`] — drop the forest, let the next
//!   arrival rebuild it (the pre-survivability behavior). Recovery pays a
//!   full solve and the group stays dark until that arrival.
//! * [`ProtectionPolicy::BackupPaths`] — before a failure round hits, plan
//!   one element-disjoint backup attachment per destination (a
//!   [`sof_core::dynamics::plan_attach_avoiding`] walk that shares no link
//!   with the primary); switchover splices the pre-planned walk in and
//!   pays only the attachment cost.
//! * [`ProtectionPolicy::StandbyForest`] — keep a second forest solved on
//!   disjointness-priced costs; switchover is a pointer swap
//!   ([`OnlineSession::replace_forest`]) at **zero** recovery cost, and the
//!   standby is re-warmed afterwards (maintenance, not recovery).
//!
//! Every policy cascades on infeasibility: standby → backup walks →
//! reactive, so recovery never silently leaves a destination attached
//! through a failed element.

use crate::element::ElementRef;
use sof_core::{DestWalk, OnlineSession, ServiceForest, Solver};
use sof_graph::{Graph, NodeId};
use std::collections::BTreeSet;
use std::ops::Range;

/// Cost multiplier steering the standby solve away from the primary
/// forest's links and VMs. High enough that disjoint routes win whenever
/// they exist, finite so the solve stays feasible when they don't.
const DISJOINT_SURCHARGE: f64 = 64.0;

/// How a session recovers from element failures.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum ProtectionPolicy {
    /// Rebuild affected groups from scratch at their next arrival.
    #[default]
    Reactive,
    /// Switch disrupted destinations onto pre-planned disjoint backup
    /// attachment paths.
    BackupPaths,
    /// Swap the whole forest for a pre-solved element-disjoint standby.
    StandbyForest,
}

impl ProtectionPolicy {
    /// The spec-file name of this policy.
    pub fn as_str(&self) -> &'static str {
        match self {
            ProtectionPolicy::Reactive => "reactive",
            ProtectionPolicy::BackupPaths => "backup-paths",
            ProtectionPolicy::StandbyForest => "standby-forest",
        }
    }

    /// Parses a spec-file name (case-insensitive).
    ///
    /// # Errors
    ///
    /// A message naming the unknown policy and the valid names.
    pub fn from_name(name: &str) -> Result<ProtectionPolicy, String> {
        match name.to_ascii_lowercase().as_str() {
            "reactive" => Ok(ProtectionPolicy::Reactive),
            "backup-paths" | "backup_paths" | "backup" => Ok(ProtectionPolicy::BackupPaths),
            "standby-forest" | "standby_forest" | "standby" => Ok(ProtectionPolicy::StandbyForest),
            other => Err(format!(
                "unknown protection policy '{other}' \
                 (expected 'reactive', 'backup-paths', or 'standby-forest')"
            )),
        }
    }
}

/// What one [`Protector::recover`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RecoveryOutcome {
    /// Destinations whose walks the failure broke.
    pub affected: usize,
    /// Destinations reattached within the failure round.
    pub recovered: usize,
    /// Cost of the reconfiguration installed now (0 for a standby swap;
    /// attachment cost for backup paths; 0 for reactive — its full-solve
    /// cost lands when the deferred rebuild happens).
    pub cost: f64,
    /// Whether restoration is deferred to the group's next arrival (the
    /// reactive path, and every fallback that ends there).
    pub pending: bool,
}

/// Per-session protection state: pre-planned backups and/or the standby
/// forest, plus the policy that drives them.
pub struct Protector {
    policy: ProtectionPolicy,
    /// Solver for standby re-warms (required by
    /// [`ProtectionPolicy::StandbyForest`], unused otherwise).
    solver: Option<Box<dyn Solver>>,
    standby: Option<ServiceForest>,
    /// Destination → (pre-planned disjoint walk, its attachment cost).
    backups: Vec<(NodeId, DestWalk, f64)>,
}

impl Protector {
    /// Builds a protector. `solver` powers standby solves; pass `None`
    /// for policies that never need one.
    pub fn new(policy: ProtectionPolicy, solver: Option<Box<dyn Solver>>) -> Protector {
        Protector {
            policy,
            solver,
            standby: None,
            backups: Vec::new(),
        }
    }

    /// The driving policy.
    pub fn policy(&self) -> ProtectionPolicy {
        self.policy
    }

    /// Whether a standby forest is currently warm (test/observability
    /// hook).
    pub fn standby_ready(&self) -> bool {
        self.standby.is_some()
    }

    /// Pre-provisions protection for the session's **current** group:
    /// plans disjoint backup walks (BackupPaths) or solves the standby
    /// forest on disjointness-priced costs (StandbyForest). Call right
    /// before a failure round is applied; Reactive pre-provisions nothing.
    pub fn prewarm(&mut self, session: &mut OnlineSession) {
        self.backups.clear();
        self.standby = None;
        let Some(forest) = session.forest() else {
            return;
        };
        match self.policy {
            ProtectionPolicy::Reactive => {}
            ProtectionPolicy::BackupPaths => {
                let dests: Vec<NodeId> = forest.walks.iter().map(|w| w.destination).collect();
                for d in dests {
                    if let Ok((walk, cost)) = session.plan_reattach(d, true) {
                        self.backups.push((d, walk, cost));
                    }
                }
            }
            ProtectionPolicy::StandbyForest => {
                let Some(solver) = &self.solver else { return };
                let mut priced = session.instance().clone();
                // The repriced clone's trees must not replace the ones the
                // session repairs from after the coming failure.
                priced.network.fork_paths();
                let seg: BTreeSet<(NodeId, NodeId)> =
                    forest.segment_edges().into_iter().flatten().collect();
                for (u, v) in seg {
                    if let Some(e) = priced.network.graph().edge_between(u, v) {
                        let c = priced.network.graph().edge_cost(e);
                        priced
                            .network
                            .graph_mut()
                            .set_edge_cost(e, c * DISJOINT_SURCHARGE);
                    }
                }
                if let Ok(used) = forest.enabled_vms() {
                    for &vm in used.keys() {
                        let c = priced.network.node_cost(vm);
                        priced.network.set_node_cost(vm, c * DISJOINT_SURCHARGE);
                    }
                }
                self.standby = solver
                    .solve(&priced, session.sofda_config())
                    .ok()
                    .map(|out| out.forest)
                    .filter(|f| f.validate(session.instance()).is_ok());
            }
        }
    }

    /// Recovers the session after `affected` destinations lost their
    /// walks to a failure. Cascades standby → backup → reactive so the
    /// forest never keeps traversing a failed element.
    pub fn recover(&mut self, session: &mut OnlineSession, affected: &[NodeId]) -> RecoveryOutcome {
        if affected.is_empty() {
            return RecoveryOutcome::default();
        }
        let mut outcome = RecoveryOutcome {
            affected: affected.len(),
            ..RecoveryOutcome::default()
        };
        if self.policy == ProtectionPolicy::StandbyForest {
            if let Some(standby) = self.standby.take() {
                if session.faults().forest_avoids(&standby)
                    && session.replace_forest(standby).is_ok()
                {
                    outcome.recovered = affected.len();
                    return outcome;
                }
            }
        }
        if self.policy != ProtectionPolicy::Reactive {
            let mut all_switched = true;
            for &d in affected {
                let planned = self
                    .backups
                    .iter()
                    .position(|(bd, ..)| *bd == d)
                    .map(|i| self.backups.swap_remove(i))
                    .filter(|(_, walk, _)| session.faults().walk_avoids(walk))
                    .map(|(_, walk, cost)| (walk, cost));
                let fresh = planned.or_else(|| session.plan_reattach(d, false).ok());
                let Some((walk, cost)) = fresh else {
                    all_switched = false;
                    break;
                };
                if session.switch_walk(walk).is_err() {
                    all_switched = false;
                    break;
                }
                outcome.recovered += 1;
                outcome.cost += cost;
            }
            if all_switched {
                return outcome;
            }
        }
        // Reactive (and the terminal fallback): drop the forest, restore at
        // the group's next arrival.
        session.clear_forest();
        outcome.recovered = 0;
        outcome.cost = 0.0;
        outcome.pending = true;
        outcome
    }
}

/// The element universe of `scopes` over a base topology, in stable order:
/// `graph`'s links and nodes, the VM ids `vms` (appended after the base
/// nodes by every instance built from it), and the region names `domains`.
pub fn universe_for_scopes(
    scopes: &[String],
    graph: &Graph,
    vms: Range<usize>,
    domains: &[String],
) -> Vec<ElementRef> {
    let mut out = Vec::new();
    for scope in scopes {
        match scope.as_str() {
            "vm" => out.extend(vms.clone().map(ElementRef::Vm)),
            "link" => out.extend(
                graph
                    .edges()
                    .map(|(_, e)| ElementRef::link(e.u.index(), e.v.index())),
            ),
            "node" => out.extend((0..graph.node_count()).map(ElementRef::Node)),
            "domain" => out.extend(domains.iter().cloned().map(ElementRef::Domain)),
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sof_core::{Element, Faults};

    #[test]
    fn policy_names_round_trip() {
        for policy in [
            ProtectionPolicy::Reactive,
            ProtectionPolicy::BackupPaths,
            ProtectionPolicy::StandbyForest,
        ] {
            assert_eq!(
                ProtectionPolicy::from_name(policy.as_str()).unwrap(),
                policy
            );
        }
        let err = ProtectionPolicy::from_name("optimistic").unwrap_err();
        assert!(
            err.contains("'optimistic'") && err.contains("standby-forest"),
            "{err}"
        );
    }

    #[test]
    fn walk_avoidance_checks_edges_and_nodes() {
        let walk = DestWalk {
            destination: NodeId::new(3),
            source: NodeId::new(0),
            nodes: vec![NodeId::new(0), NodeId::new(1), NodeId::new(3)],
            vnf_positions: vec![1],
        };
        let avoids = |failed: &[Element]| {
            let mut faults = Faults::default();
            for &e in failed {
                faults.insert(e);
            }
            faults.walk_avoids(&walk)
        };
        assert!(avoids(&[]));
        assert!(!avoids(&[Element::Link(NodeId::new(1), NodeId::new(0))]));
        assert!(!avoids(&[Element::Node(NodeId::new(1))]));
        assert!(!avoids(&[Element::Vm(NodeId::new(1))]));
        assert!(avoids(&[Element::Link(NodeId::new(0), NodeId::new(3))]));
    }

    #[test]
    fn universe_follows_scope_order() {
        let mut graph = Graph::with_nodes(3);
        graph.add_edge(NodeId::new(1), NodeId::new(0), sof_graph::Cost::new(1.0));
        graph.add_edge(NodeId::new(1), NodeId::new(2), sof_graph::Cost::new(1.0));
        let u = universe_for_scopes(
            &["link".into(), "vm".into()],
            &graph,
            9..11,
            &["us-east".into()],
        );
        assert_eq!(
            u,
            vec![
                ElementRef::link(0, 1),
                ElementRef::link(1, 2),
                ElementRef::Vm(9),
                ElementRef::Vm(10),
            ]
        );
    }
}
