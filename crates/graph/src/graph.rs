//! Undirected weighted graph with adjacency lists.

use crate::{Cost, EdgeId, NodeId};

/// An undirected edge with a non-negative cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Edge {
    /// First endpoint.
    pub u: NodeId,
    /// Second endpoint.
    pub v: NodeId,
    /// Connection cost of the link.
    pub cost: Cost,
}

impl Edge {
    /// Returns the endpoint opposite to `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not an endpoint of this edge.
    #[inline]
    pub fn other(&self, n: NodeId) -> NodeId {
        if n == self.u {
            self.v
        } else if n == self.v {
            self.u
        } else {
            panic!("{n} is not an endpoint of edge {:?}-{:?}", self.u, self.v)
        }
    }

    /// Returns both endpoints as a tuple.
    #[inline]
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        (self.u, self.v)
    }
}

/// An undirected weighted graph.
///
/// Nodes are dense indices `0..node_count`. Parallel edges are allowed
/// (useful when VMs are replicated); self-loops are not.
///
/// Every mutation (adding nodes or edges, changing an edge cost) stamps the
/// graph with a fresh process-wide *cost epoch* (see [`Graph::cost_epoch`]);
/// the [`crate::PathEngine`] keys its shortest-path cache on it, so stale
/// entries are never served and unchanged graphs keep their warm cache.
/// Cost-only mutations are additionally recorded in a bounded per-graph
/// *dirty journal* ([`Graph::cost_changes_since`]), which lets the engine
/// scope invalidation to the edges that actually changed instead of
/// discarding every cached tree. Setting an edge cost to its current value
/// is a no-op: no epoch churn, no journal record.
///
/// # Examples
///
/// ```
/// use sof_graph::{Graph, Cost, NodeId};
///
/// let mut g = Graph::with_nodes(3);
/// g.add_edge(NodeId::new(0), NodeId::new(1), Cost::new(2.0));
/// g.add_edge(NodeId::new(1), NodeId::new(2), Cost::new(3.0));
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// assert!(g.is_connected());
/// ```
#[derive(Clone, Debug, Default)]
pub struct Graph {
    adj: Vec<Vec<(NodeId, EdgeId)>>,
    edges: Vec<Edge>,
    /// Process-unique stamp of this graph's current topology + costs.
    ///
    /// Freshly drawn from a global counter on every mutation, so two graphs
    /// share an epoch only when one is an unmutated clone of the other —
    /// i.e. equal epochs imply equal contents.
    epoch: u64,
    /// Recent cost-only mutations, oldest first (see
    /// [`Graph::cost_changes_since`]). Cloned with the graph, so a clone's
    /// journal diverges from the original's exactly like its epoch does.
    journal: CostJournal,
}

/// One recorded cost-only mutation: the edge whose cost changed at the
/// transition **to** [`CostChange::epoch`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostChange {
    /// The [`Graph::cost_epoch`] the graph entered when this change landed.
    pub epoch: u64,
    /// The mutated edge.
    pub edge: EdgeId,
}

/// Edge-scoped dirty tracking: a bounded chain of [`CostChange`] records
/// reaching back from the current epoch to `base`. Structural mutations
/// (nodes or edges added) sever the chain — no repair across topology
/// changes — and overflow drops the oldest records, advancing `base`.
#[derive(Clone, Debug, Default)]
struct CostJournal {
    /// Oldest epoch still reconstructible from the kept records (the epoch
    /// the graph had just before `records[start]` landed).
    base: u64,
    /// Cost changes in application order; `records.last().epoch` equals the
    /// graph's current epoch whenever the journal is non-empty.
    records: Vec<CostChange>,
    /// Records before this index were dropped by overflow. Dropping one is
    /// this index moving, not a shift of the other [`JOURNAL_CAP`]: the
    /// dead prefix is cut off once per `JOURNAL_CAP` overflows.
    start: usize,
}

impl CostJournal {
    /// The kept records, oldest first: at most the last [`JOURNAL_CAP`].
    fn kept(&self) -> &[CostChange] {
        &self.records[self.start..]
    }

    /// Forgets everything; `epoch` is where the lineage starts over.
    fn sever(&mut self, epoch: u64) {
        self.records.clear();
        self.start = 0;
        self.base = epoch;
    }

    fn push(&mut self, change: CostChange) {
        self.records.push(change);
        if self.kept().len() > JOURNAL_CAP {
            self.base = self.records[self.start].epoch;
            self.start += 1;
            if self.start > JOURNAL_CAP {
                self.records.drain(..self.start);
                self.start = 0;
            }
        }
    }
}

/// Cost changes retained per graph. A congestion refresh dirties one record
/// per repriced edge, so the cap bounds how many repricings back a cached
/// tree may still be revalidated instead of recomputed.
const JOURNAL_CAP: usize = 256;

/// Draws the next process-wide cost epoch (never zero).
fn next_cost_epoch() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Graph {
        Graph::default()
    }

    /// Creates a graph with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> Graph {
        let epoch = next_cost_epoch();
        Graph {
            adj: vec![Vec::new(); n],
            edges: Vec::new(),
            epoch,
            journal: CostJournal {
                base: epoch,
                ..CostJournal::default()
            },
        }
    }

    /// The graph's current cost epoch: a process-unique stamp renewed on
    /// every mutation. Equal epochs imply identical topology and edge
    /// costs, which is what lets [`crate::PathEngine`] reuse cached
    /// shortest-path trees without ever serving stale distances.
    #[inline]
    pub fn cost_epoch(&self) -> u64 {
        self.epoch
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.adj.push(Vec::new());
        self.sever_journal();
        NodeId::new(self.adj.len() - 1)
    }

    /// Renews the epoch for a structural mutation, severing the cost
    /// journal: cached trees predating a topology change are never repaired.
    fn sever_journal(&mut self) {
        self.epoch = next_cost_epoch();
        self.journal.sever(self.epoch);
    }

    /// Adds an undirected edge and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range or if `u == v`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, cost: Cost) -> EdgeId {
        assert!(u.index() < self.adj.len(), "node {u} out of range");
        assert!(v.index() < self.adj.len(), "node {v} out of range");
        assert_ne!(u, v, "self-loops are not allowed");
        let id = EdgeId::new(self.edges.len());
        self.edges.push(Edge { u, v, cost });
        self.adj[u.index()].push((v, id));
        self.adj[v.index()].push((u, id));
        self.sever_journal();
        id
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterates over all node ids in increasing order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.adj.len()).map(NodeId::new)
    }

    /// Iterates over all edges with their ids.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId::new(i), e))
    }

    /// Returns the edge record for `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.index()]
    }

    /// Returns the cost of edge `e`.
    #[inline]
    pub fn edge_cost(&self, e: EdgeId) -> Cost {
        self.edges[e.index()].cost
    }

    /// Updates the cost of edge `e` (used by the online cost model).
    ///
    /// Renews the [cost epoch](Self::cost_epoch) and records the change in
    /// the dirty journal, so the [`crate::PathEngine`] invalidates only
    /// cached trees this edge can actually affect. Writing the current cost
    /// back is a **no-op**: the epoch stays put and every cached tree stays
    /// warm (the common case for a congestion refresh over idle links).
    pub fn set_edge_cost(&mut self, e: EdgeId, cost: Cost) {
        if self.edges[e.index()].cost == cost {
            return;
        }
        self.edges[e.index()].cost = cost;
        self.epoch = next_cost_epoch();
        self.journal.push(CostChange {
            epoch: self.epoch,
            edge: e,
        });
    }

    /// The cost-only changes that turned the graph at `epoch` into the
    /// graph as it is now, oldest first — or `None` when that history is
    /// unknown (`epoch` is not on this graph's recorded lineage, a
    /// structural mutation intervened, or the journal overflowed past it).
    ///
    /// An empty slice means the contents are identical. The same edge may
    /// appear more than once. [`crate::PathEngine`] uses this to decide,
    /// per cached tree, between revalidating and recomputing.
    pub fn cost_changes_since(&self, epoch: u64) -> Option<&[CostChange]> {
        let kept = self.journal.kept();
        if epoch == self.journal.base {
            return Some(kept);
        }
        kept.iter()
            .position(|r| r.epoch == epoch)
            .map(|pos| &kept[pos + 1..])
    }

    /// Neighbors of `u` as `(neighbor, edge)` pairs, in insertion order.
    pub fn neighbors(&self, u: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        self.adj[u.index()].iter().copied()
    }

    /// Degree of `u` (counting parallel edges).
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.adj[u.index()].len()
    }

    /// Returns the cheapest edge between `u` and `v`, if any.
    pub fn edge_between(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        self.adj[u.index()]
            .iter()
            .filter(|(n, _)| *n == v)
            .min_by_key(|(_, e)| self.edge_cost(*e))
            .map(|&(_, e)| e)
    }

    /// Returns `true` when every node is reachable from node 0.
    ///
    /// The empty graph is considered connected.
    pub fn is_connected(&self) -> bool {
        if self.adj.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.adj.len()];
        let mut stack = vec![NodeId::new(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for (v, _) in self.neighbors(u) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == self.adj.len()
    }

    /// Total cost of a walk given as a node sequence, following the cheapest
    /// parallel edge at each hop.
    ///
    /// Returns `None` if two consecutive nodes are not adjacent.
    pub fn walk_cost(&self, walk: &[NodeId]) -> Option<Cost> {
        let mut total = Cost::ZERO;
        for w in walk.windows(2) {
            let e = self.edge_between(w[0], w[1])?;
            total += self.edge_cost(e);
        }
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId::new(0), NodeId::new(1), Cost::new(1.0));
        g.add_edge(NodeId::new(1), NodeId::new(2), Cost::new(2.0));
        g.add_edge(NodeId::new(2), NodeId::new(0), Cost::new(4.0));
        g
    }

    #[test]
    fn construction_and_counts() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(NodeId::new(0)), 2);
    }

    #[test]
    fn neighbors_are_symmetric() {
        let g = triangle();
        let n0: Vec<_> = g.neighbors(NodeId::new(0)).map(|(n, _)| n).collect();
        assert_eq!(n0, vec![NodeId::new(1), NodeId::new(2)]);
        let e = g.edge_between(NodeId::new(0), NodeId::new(2)).unwrap();
        assert_eq!(g.edge_cost(e), Cost::new(4.0));
        assert_eq!(g.edge(e).other(NodeId::new(0)), NodeId::new(2));
    }

    #[test]
    fn parallel_edges_pick_cheapest() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(NodeId::new(0), NodeId::new(1), Cost::new(5.0));
        let cheap = g.add_edge(NodeId::new(0), NodeId::new(1), Cost::new(1.0));
        assert_eq!(g.edge_between(NodeId::new(0), NodeId::new(1)), Some(cheap));
    }

    #[test]
    fn connectivity() {
        let mut g = triangle();
        assert!(g.is_connected());
        g.add_node();
        assert!(!g.is_connected());
        assert!(Graph::new().is_connected());
    }

    #[test]
    fn walk_cost_follows_edges() {
        let g = triangle();
        let walk = [
            NodeId::new(0),
            NodeId::new(1),
            NodeId::new(2),
            NodeId::new(1),
        ];
        assert_eq!(g.walk_cost(&walk), Some(Cost::new(5.0)));
        let broken = [NodeId::new(0), NodeId::new(0)];
        assert_eq!(g.walk_cost(&broken), None);
    }

    #[test]
    fn set_edge_cost_updates() {
        let mut g = triangle();
        let e = g.edge_between(NodeId::new(0), NodeId::new(1)).unwrap();
        g.set_edge_cost(e, Cost::new(10.0));
        assert_eq!(g.edge_cost(e), Cost::new(10.0));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let mut g = Graph::with_nodes(1);
        g.add_edge(NodeId::new(0), NodeId::new(0), Cost::ZERO);
    }

    #[test]
    fn cost_epoch_tracks_mutations() {
        let mut g = triangle();
        let e0 = g.cost_epoch();
        let clone = g.clone();
        // An unmutated clone shares the epoch (identical contents).
        assert_eq!(clone.cost_epoch(), e0);
        let e = g.edge_between(NodeId::new(0), NodeId::new(1)).unwrap();
        g.set_edge_cost(e, Cost::new(9.0));
        assert_ne!(g.cost_epoch(), e0, "cost change renews the epoch");
        assert_eq!(clone.cost_epoch(), e0, "the clone is untouched");
        let before = g.cost_epoch();
        g.add_node();
        assert_ne!(g.cost_epoch(), before, "topology change renews the epoch");
        // Distinct graphs never share an epoch, even with equal contents.
        assert_ne!(triangle().cost_epoch(), triangle().cost_epoch());
    }

    #[test]
    fn unchanged_cost_write_is_a_no_op() {
        let mut g = triangle();
        let epoch = g.cost_epoch();
        let e = g.edge_between(NodeId::new(0), NodeId::new(1)).unwrap();
        g.set_edge_cost(e, g.edge_cost(e));
        assert_eq!(g.cost_epoch(), epoch, "same-value write must not churn");
        assert_eq!(g.cost_changes_since(epoch), Some(&[][..]));
    }

    #[test]
    fn journal_traces_cost_only_lineage() {
        let mut g = triangle();
        let e0 = g.cost_epoch();
        let e01 = g.edge_between(NodeId::new(0), NodeId::new(1)).unwrap();
        let e12 = g.edge_between(NodeId::new(1), NodeId::new(2)).unwrap();
        g.set_edge_cost(e01, Cost::new(9.0));
        let e1 = g.cost_epoch();
        g.set_edge_cost(e12, Cost::new(8.0));
        // Full history from e0, suffix from e1, empty from the present.
        let edges: Vec<EdgeId> = g
            .cost_changes_since(e0)
            .unwrap()
            .iter()
            .map(|c| c.edge)
            .collect();
        assert_eq!(edges, vec![e01, e12]);
        let tail: Vec<EdgeId> = g
            .cost_changes_since(e1)
            .unwrap()
            .iter()
            .map(|c| c.edge)
            .collect();
        assert_eq!(tail, vec![e12]);
        assert_eq!(g.cost_changes_since(g.cost_epoch()), Some(&[][..]));
        // Epochs of another lineage are unknown.
        assert_eq!(g.cost_changes_since(triangle().cost_epoch()), None);
    }

    #[test]
    fn structural_mutations_sever_the_journal() {
        let mut g = triangle();
        let e = g.edge_between(NodeId::new(0), NodeId::new(1)).unwrap();
        g.set_edge_cost(e, Cost::new(9.0));
        let before = g.cost_epoch();
        g.add_node();
        assert_eq!(g.cost_changes_since(before), None);
        assert_eq!(g.cost_changes_since(g.cost_epoch()), Some(&[][..]));
    }

    #[test]
    fn journal_overflow_advances_the_base() {
        let mut g = triangle();
        let start = g.cost_epoch();
        let edges: Vec<EdgeId> = g.edges().map(|(e, _)| e).collect();
        // Every change made so far, oldest first. The dead prefix is cut
        // off after `JOURNAL_CAP + 1` overflows, so 3 × the cap and then
        // some crosses that point twice; the checks run at every length,
        // on both sides of each cut.
        let mut made: Vec<CostChange> = Vec::new();
        for i in 0..(3 * JOURNAL_CAP + 40) {
            let edge = edges[i % 3];
            g.set_edge_cost(edge, Cost::new(10.0 + i as f64));
            made.push(CostChange {
                epoch: g.cost_epoch(),
                edge,
            });
            // Exactly the last `JOURNAL_CAP` changes are kept, record by
            // record, reachable from the epoch just before the oldest...
            let kept = &made[made.len().saturating_sub(JOURNAL_CAP)..];
            let base = match made.len() - kept.len() {
                0 => start,
                dropped => made[dropped - 1].epoch,
            };
            assert_eq!(g.cost_changes_since(base), Some(kept), "after {i}");
            // ...a suffix of them from any epoch in between...
            let mid = kept.len() / 2;
            assert_eq!(
                g.cost_changes_since(kept[mid].epoch),
                Some(&kept[mid + 1..]),
                "after {i}"
            );
            // ...and nothing from one change further back.
            if made.len() > JOURNAL_CAP + 1 {
                let forgotten = made[made.len() - JOURNAL_CAP - 2].epoch;
                assert_eq!(g.cost_changes_since(forgotten), None, "after {i}");
            }
        }
        assert_eq!(
            g.cost_changes_since(start),
            None,
            "history past the cap is forgotten"
        );
        let kept = g
            .cost_changes_since(g.cost_epoch())
            .expect("current epoch always traces");
        assert!(kept.is_empty());
        // The dead prefix never outgrows the kept records.
        assert!(g.journal.records.len() <= 2 * JOURNAL_CAP + 1);
    }
}
