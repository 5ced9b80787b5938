//! The failure-element vocabulary: what can break.
//!
//! An [`ElementRef`] names one failable thing symbolically — a VM, a base
//! link, a base node, or a whole domain (region) — independent of any
//! concrete session instance, so one failure trace applies identically to
//! every group in a run. The string form (`"link:3-7"`, `"domain:us-east"`)
//! is the wire/spec syntax used by scripted event lists and the record
//! stream.
//!
//! A session knows nothing symbolic: [`ElementRef::resolve`] turns a
//! reference into the physical [`Element`]s it names on one network, and a
//! [`sof_core::SessionEvent::Fail`] or `Repair` of that list applies it to
//! a session.

use sof_core::Element;
use sof_graph::NodeId;
use std::fmt;
use std::str::FromStr;

/// One failable element, named symbolically against the base topology.
///
/// Links are stored with normalized endpoints (`u < v`), so the same
/// physical link always parses and prints identically.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ElementRef {
    /// A VM by node index (base node count + VM offset, identical across
    /// group instances built from the same base topology).
    Vm(usize),
    /// An undirected base-topology link by its endpoint node indices.
    Link(usize, usize),
    /// A base-topology node (switch) by index.
    Node(usize),
    /// A whole domain (region) by name; consumers resolve it to the
    /// region's node set.
    Domain(String),
}

impl ElementRef {
    /// A link with normalized endpoint order.
    pub fn link(u: usize, v: usize) -> ElementRef {
        ElementRef::Link(u.min(v), u.max(v))
    }

    /// The scope this element belongs to (`"vm"` / `"link"` / `"node"` /
    /// `"domain"`).
    pub fn scope(&self) -> &'static str {
        match self {
            ElementRef::Vm(_) => "vm",
            ElementRef::Link(..) => "link",
            ElementRef::Node(_) => "node",
            ElementRef::Domain(_) => "domain",
        }
    }

    /// The physical elements this reference names — the one place a
    /// symbolic reference becomes something a session can fail or repair.
    /// A VM, link or node is itself; a domain is every node of its region,
    /// which `region_nodes` looks up by name (or says why it cannot).
    ///
    /// # Errors
    ///
    /// Whatever `region_nodes` answers for a domain it does not know.
    pub fn resolve<E>(
        &self,
        region_nodes: impl FnOnce(&str) -> Result<Vec<NodeId>, E>,
    ) -> Result<Vec<Element>, E> {
        Ok(match self {
            ElementRef::Vm(v) => vec![Element::Vm(NodeId::new(*v))],
            ElementRef::Link(u, v) => vec![Element::Link(NodeId::new(*u), NodeId::new(*v))],
            ElementRef::Node(n) => vec![Element::Node(NodeId::new(*n))],
            ElementRef::Domain(name) => {
                region_nodes(name)?.into_iter().map(Element::Node).collect()
            }
        })
    }
}

impl fmt::Display for ElementRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElementRef::Vm(n) => write!(f, "vm:{n}"),
            ElementRef::Link(u, v) => write!(f, "link:{u}-{v}"),
            ElementRef::Node(n) => write!(f, "node:{n}"),
            ElementRef::Domain(name) => write!(f, "domain:{name}"),
        }
    }
}

impl FromStr for ElementRef {
    type Err = String;

    /// Parses the spec syntax: `vm:12`, `link:3-7`, `node:5`,
    /// `domain:us-east`.
    fn from_str(s: &str) -> Result<ElementRef, String> {
        let bad = || {
            format!(
                "invalid failure element '{s}' \
                 (expected 'vm:N', 'link:U-V', 'node:N', or 'domain:NAME')"
            )
        };
        let (kind, rest) = s.split_once(':').ok_or_else(bad)?;
        match kind {
            "vm" => rest.parse().map(ElementRef::Vm).map_err(|_| bad()),
            "node" => rest.parse().map(ElementRef::Node).map_err(|_| bad()),
            "link" => {
                let (u, v) = rest.split_once('-').ok_or_else(bad)?;
                let u: usize = u.parse().map_err(|_| bad())?;
                let v: usize = v.parse().map_err(|_| bad())?;
                if u == v {
                    return Err(format!("invalid failure element '{s}' (self-loop link)"));
                }
                Ok(ElementRef::link(u, v))
            }
            "domain" => {
                if rest.is_empty() {
                    return Err(bad());
                }
                Ok(ElementRef::Domain(rest.to_string()))
            }
            _ => Err(bad()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_strings_round_trip() {
        for text in ["vm:12", "link:3-7", "node:5", "domain:us-east"] {
            let e: ElementRef = text.parse().unwrap();
            assert_eq!(e.to_string(), text);
        }
        // Links normalize endpoint order.
        let e: ElementRef = "link:7-3".parse().unwrap();
        assert_eq!(e, ElementRef::link(3, 7));
        assert_eq!(e.to_string(), "link:3-7");
    }

    #[test]
    fn bad_element_strings_are_actionable() {
        for text in [
            "", "link", "link:3", "link:3-3", "edge:1-2", "vm:x", "domain:",
        ] {
            let err = text.parse::<ElementRef>().unwrap_err();
            assert!(err.contains("failure element"), "{text}: {err}");
        }
    }

    #[test]
    fn scopes_match_variants() {
        assert_eq!(ElementRef::Vm(1).scope(), "vm");
        assert_eq!(ElementRef::link(1, 2).scope(), "link");
        assert_eq!(ElementRef::Node(1).scope(), "node");
        assert_eq!(ElementRef::Domain("d".into()).scope(), "domain");
    }

    #[test]
    fn a_domain_resolves_to_its_nodes_and_the_rest_to_themselves() {
        let n = NodeId::new;
        let regions = |name: &str| match name {
            "west" => Ok(vec![n(4), n(5)]),
            other => Err(format!("no region {other}")),
        };
        let resolve = |text: &str| text.parse::<ElementRef>().unwrap().resolve(regions);
        assert_eq!(resolve("vm:12"), Ok(vec![Element::Vm(n(12))]));
        assert_eq!(resolve("link:7-3"), Ok(vec![Element::Link(n(3), n(7))]));
        assert_eq!(resolve("node:5"), Ok(vec![Element::Node(n(5))]));
        let west = vec![Element::Node(n(4)), Element::Node(n(5))];
        assert_eq!(resolve("domain:west"), Ok(west));
        assert_eq!(resolve("domain:east"), Err("no region east".to_string()));
    }
}
