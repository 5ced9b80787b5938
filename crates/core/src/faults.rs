//! What is failed on one network, and everything that follows from it.
//!
//! [`Faults`] is the set of failed [`Element`]s — nothing else is
//! remembered about a failure. What an element's failure *means* is
//! derived from the set each time it is asked:
//!
//! * a link is **down** ([`Faults::edge_down`]) iff it is in the set or
//!   either endpoint is a failed node;
//! * a VM is **down** ([`Faults::vm_down`]) iff it is in the set, as a VM
//!   or as a node;
//! * a down element is priced at [`FAILED_COST`] plus its congestion
//!   surcharge ([`crate::OnlineSession`] applies it);
//! * a recovery walk may take a hop ([`Faults::hop_allowed`]) iff the link
//!   is up and the node it enters is up.
//!
//! Because no pristine cost is stored per failure there is none to lose:
//! any order of fails and repairs leaves exactly the elements still in the
//! set priced out.

use crate::{DestWalk, ServiceForest};
use sof_graph::NodeId;
use std::collections::BTreeSet;

/// Base price of a down link or VM: finite (so the convex congestion
/// arithmetic stays well-behaved) but far beyond any real cost, so every
/// solver routes around the failure when any alternative exists.
pub const FAILED_COST: f64 = 1e9;

/// One failable element of a concrete network. `sof_survive::ElementRef`
/// is the symbolic, printable form; its `resolve` is the only conversion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Element {
    /// A VM (the software on it): its setup cost is priced out, its links
    /// stay up.
    Vm(NodeId),
    /// An undirected link by its endpoints, in either order — every
    /// parallel edge between them.
    Link(NodeId, NodeId),
    /// A node: every incident link goes down with it, and its VM if it
    /// hosts one.
    Node(NodeId),
}

impl Element {
    /// Links with their endpoints in `u < v` order, so one physical link
    /// is one set entry.
    fn normalized(self) -> Element {
        match self {
            Element::Link(u, v) => Element::Link(u.min(v), u.max(v)),
            other => other,
        }
    }
}

/// The failed elements of one network. See the [module docs](self).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Faults(BTreeSet<Element>);

impl Faults {
    /// Marks `element` failed; `false` when it already was.
    pub fn insert(&mut self, element: Element) -> bool {
        self.0.insert(element.normalized())
    }

    /// Marks `element` repaired; `false` when it was not failed.
    pub fn remove(&mut self, element: Element) -> bool {
        self.0.remove(&element.normalized())
    }

    /// Whether `element` itself is in the set (not whether something else
    /// covers it — that is [`edge_down`](Self::edge_down) /
    /// [`vm_down`](Self::vm_down)).
    pub fn contains(&self, element: Element) -> bool {
        self.0.contains(&element.normalized())
    }

    /// Whether nothing is failed.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The failed elements, in a stable order.
    pub fn iter(&self) -> impl Iterator<Item = Element> + '_ {
        self.0.iter().copied()
    }

    /// Whether the link `u`–`v` is down: failed itself, or an endpoint is
    /// a failed node.
    pub fn edge_down(&self, u: NodeId, v: NodeId) -> bool {
        self.contains(Element::Link(u, v))
            || self.contains(Element::Node(u))
            || self.contains(Element::Node(v))
    }

    /// Whether `n` is down as a VM or as a node. Prices the VM out, and
    /// bans the node from recovery walks: transit through a failed VM's
    /// switch may be physically fine, but banning it keeps "never
    /// traverses a failed element" a hard guarantee rather than a pricing
    /// tendency.
    pub fn vm_down(&self, n: NodeId) -> bool {
        self.contains(Element::Vm(n)) || self.contains(Element::Node(n))
    }

    /// Whether a walk may step from `from` to `to`: the link is up and so
    /// is the node it enters.
    pub fn hop_allowed(&self, from: NodeId, to: NodeId) -> bool {
        !self.edge_down(from, to) && !self.vm_down(to)
    }

    /// Whether `walk` traverses no failed element.
    pub fn walk_avoids(&self, walk: &DestWalk) -> bool {
        walk.nodes.iter().all(|&n| !self.vm_down(n))
            && walk.nodes.windows(2).all(|p| !self.edge_down(p[0], p[1]))
    }

    /// Whether every walk of `forest` avoids every failed element.
    pub fn forest_avoids(&self, forest: &ServiceForest) -> bool {
        forest.walks.iter().all(|w| self.walk_avoids(w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn covering_rule_is_derived_not_remembered() {
        let mut f = Faults::default();
        assert!(f.insert(Element::Node(n(1))));
        assert!(f.insert(Element::Node(n(2))));
        assert!(!f.insert(Element::Node(n(2))), "already failed");
        // The link between two failed nodes is down through either of them
        // and comes back only when both are repaired.
        assert!(f.edge_down(n(2), n(1)) && f.edge_down(n(1), n(5)));
        assert!(f.remove(Element::Node(n(1))));
        assert!(f.edge_down(n(1), n(2)) && !f.edge_down(n(1), n(5)));
        assert!(f.remove(Element::Node(n(2))));
        assert!(!f.edge_down(n(1), n(2)) && f.is_empty());
        assert!(!f.remove(Element::Node(n(2))), "not failed any more");
    }

    #[test]
    fn links_are_one_entry_in_either_order_and_vms_fail_two_ways() {
        let mut f = Faults::default();
        f.insert(Element::Link(n(7), n(3)));
        assert!(f.contains(Element::Link(n(3), n(7))) && f.edge_down(n(3), n(7)));
        assert!(!f.insert(Element::Link(n(3), n(7))));
        assert!(f.hop_allowed(n(3), n(4)) && !f.hop_allowed(n(7), n(3)));
        f.insert(Element::Vm(n(9)));
        f.insert(Element::Node(n(9)));
        f.remove(Element::Vm(n(9)));
        assert!(f.vm_down(n(9)), "still down as a node");
        // A failed VM bans the node from walks but leaves its links priced
        // normally; a failed node takes them down.
        f.insert(Element::Vm(n(4)));
        assert!(!f.edge_down(n(4), n(5)) && !f.hop_allowed(n(5), n(4)));
        assert_eq!(f.iter().count(), 3);
    }
}
