//! Typed node and edge identifiers.

use std::fmt;

/// Identifier of a node inside a [`Graph`](crate::Graph).
///
/// `NodeId`s are dense indices assigned in insertion order, so they can be
/// used to index `Vec`s sized by `Graph::node_count`.
///
/// # Examples
///
/// ```
/// use sof_graph::NodeId;
/// let n = NodeId::new(3);
/// assert_eq!(n.index(), 3);
/// assert_eq!(format!("{n}"), "n3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a dense index.
    #[inline]
    pub fn new(index: usize) -> NodeId {
        NodeId(u32::try_from(index).expect("node index exceeds u32"))
    }

    /// Returns the dense index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(index: usize) -> NodeId {
        NodeId::new(index)
    }
}

/// Identifier of an undirected edge inside a [`Graph`](crate::Graph).
///
/// # Examples
///
/// ```
/// use sof_graph::EdgeId;
/// let e = EdgeId::new(7);
/// assert_eq!(e.index(), 7);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(u32);

impl EdgeId {
    /// Creates an edge id from a dense index.
    #[inline]
    pub fn new(index: usize) -> EdgeId {
        EdgeId(u32::try_from(index).expect("edge index exceeds u32"))
    }

    /// Returns the dense index of this edge.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl From<usize> for EdgeId {
    fn from(index: usize) -> EdgeId {
        EdgeId::new(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        assert_eq!(NodeId::new(5).index(), 5);
        assert_eq!(EdgeId::new(9).index(), 9);
        assert_eq!(NodeId::from(2), NodeId::new(2));
    }

    #[test]
    fn ordering_follows_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert!(EdgeId::new(0) < EdgeId::new(10));
    }

    #[test]
    fn debug_is_compact() {
        assert_eq!(format!("{:?}", NodeId::new(4)), "n4");
        assert_eq!(format!("{:?}", EdgeId::new(4)), "e4");
    }
}
