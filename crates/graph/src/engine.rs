//! A memoizing shortest-path service shared across solvers and sessions.
//!
//! Every algorithm in the workspace bottoms out in (multi-source) Dijkstra
//! queries, and most of them repeat queries — the same source trees are
//! needed by SOFDA's chain metrics, the §VII-C dynamics, walk shortening
//! and the baselines, often within one solve and always across solves on an
//! unchanged network. [`PathEngine`] turns those repeats into cache hits:
//!
//! * each sorted source set keeps **one** tree, stamped with the
//!   [`Graph::cost_epoch`] it is exact at — a stamp renewed on every
//!   mutation — so a cost or topology change *lazily* invalidates the cache
//!   (no eager clearing, no risk of serving stale distances);
//! * misses run through one long-lived [`DijkstraWorkspace`], whose queue
//!   stays warm; the only O(n) allocation on a miss is the tree itself,
//!   labelled in place by [`DijkstraWorkspace::tree`] — 20 bytes a vertex
//!   for one root, 28 for several — and nothing is copied into the cache;
//! * hits return a cheap [`Arc`] clone of the cached tree — zero O(n)
//!   allocation on the warm path.
//!
//! # Edge-scoped invalidation: one repair pass, two outcomes
//!
//! An epoch mismatch does not condemn a cached tree. Cost-only mutations
//! are journaled per edge ([`Graph::cost_changes_since`]), and a stale
//! tree whose epoch is still on the graph's journaled lineage goes through
//! [`DijkstraWorkspace::repair`], which looks at each dirtied edge
//! `{x, y}` with its current cost `c`:
//!
//! * **unchanged** — every tree hop still carries the cost its label was
//!   built from (`dist(x) + c == dist(y)`, so a reprice that was restored
//!   before the query counts) and every non-tree hop loses its relaxation
//!   strictly (`dist(x) + c > dist(y)` both ways). A fresh Dijkstra would
//!   relax the same edges in the same `(dist, node)` pop order, so the
//!   cached tree equals the recomputation **bit for bit**; the same `Arc`
//!   is re-offered at the current epoch, counted in
//!   [`PathEngineStats::repairs`].
//! * **re-relaxed** — some hop was repriced off its label, or now wins or
//!   ties: only the affected region is rebuilt (`docs/DYNSSSP.md`),
//!   counted in [`PathEngineStats::partial_repairs`] on top of `misses`
//!   and `stale`.
//!
//! When the pass gives up (region too large, an ambiguous zero-cost
//! plateau) or no lineage is journaled (a structural mutation, journal
//! overflow), that tree is recomputed cold. Either way the answer
//! **replaces** the stored tree, which the engine then releases; other
//! source sets are never discarded.
//!
//! # Bounded search: nearest target without a tree
//!
//! "Which of these vertices is closest to `source`, and by which path?" —
//! the question behind a tail-attach join and a survivability reattachment
//! — does not need a tree. [`PathEngine::nearest_target`] runs the
//! workspace's one cold-search loop from `source`, relaxing only the hops
//! its `allow(from, edge, to)` filter accepts, and stops once every vertex
//! no farther than the nearest accepted target is settled: O(ball), not
//! O(n). The answer is exact, not a heuristic (full argument in
//! `docs/DYNSSSP.md`):
//!
//! * **pop order and strict `<`** — the loop pops in `(dist, node)` order
//!   and relaxes only on strict improvement, so a settled vertex's distance
//!   and parent hop are final and equal a full run's bit for bit, and so is
//!   the parent chain behind it;
//! * **finish the plateau at `D`** — the loop keeps popping until the
//!   popped distance *exceeds* the first settled target's distance `D`: a
//!   zero-cost hop (VM nodes hang off their datacenter at cost zero) can
//!   discover another target at `D` after the first one was popped;
//! * **smallest-id tie-break** — among the targets at `D` the smallest
//!   [`NodeId`] wins, which is what a `NodeId`-ordered scan of the full
//!   tree that replaces only on strictly smaller distance picks;
//! * **epoch retired** — labels beyond `D` are tentative, so the workspace
//!   epoch is retired before the call returns (as the repair pass does):
//!   a truncated run can never be read back or cached.
//!
//! A bounded search is not a cache query: it reads no entry, inserts none,
//! and counts in **none** of the six [`PathEngineStats`] fields. Its work
//! is reported separately by [`PathEngine::bounded_work`].
//!
//! # Sharing semantics
//!
//! The handle is internally synchronized (`Arc<Mutex<…>>`): cloning a
//! `PathEngine` shares the cache, so an unmutated `Network` clone hits the
//! original's trees. Because epochs are process-unique (two graphs share
//! one only when one is an unmutated clone of the other), a tree is never
//! served to a graph it is not exact for, whichever graphs share the
//! engine.
//!
//! The cache keeps one tree per source set, at the epoch of the last graph
//! that asked; [`PathEngine::len`] is the number of trees held. A graph
//! repairs from its own last tree, so a repriced clone sharing the engine
//! replaces the original's tree with one the original's journal cannot
//! trace, and the original's next query of that set runs cold. Such a
//! clone takes a [`PathEngine::fork`] instead.
//!
//! # Examples
//!
//! ```
//! use sof_graph::{Cost, Graph, NodeId, PathEngine};
//!
//! let mut g = Graph::with_nodes(3);
//! let e01 = g.add_edge(NodeId::new(0), NodeId::new(1), Cost::new(1.0));
//! g.add_edge(NodeId::new(1), NodeId::new(2), Cost::new(2.0));
//! let engine = PathEngine::new();
//! let sp = engine.from_source(&g, NodeId::new(0));
//! assert_eq!(sp.dist(NodeId::new(2)), Cost::new(3.0));
//! // The second query is a cache hit: same tree, no recomputation.
//! let again = engine.from_source(&g, NodeId::new(0));
//! assert!(std::sync::Arc::ptr_eq(&sp, &again));
//! // Mutating a cost bumps the graph's epoch; the stale entry is replaced.
//! g.set_edge_cost(e01, Cost::new(10.0));
//! assert_eq!(engine.from_source(&g, NodeId::new(0)).dist(NodeId::new(2)), Cost::new(12.0));
//! ```

use crate::{DijkstraWorkspace, EdgeId, Graph, NearestTarget, NodeId, Repair, ShortestPaths};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Source sets kept before stale/overflowing entries are evicted.
const MAX_ENTRIES: usize = 4096;

/// Counters describing how the engine has been used. `stale` counts misses
/// for a source set that was cached at another cost epoch (`stale ⊆ misses`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PathEngineStats {
    /// Queries served straight from the cache (zero O(n) work).
    pub hits: u64,
    /// Queries that ran a Dijkstra (first sight or new cost epoch).
    pub misses: u64,
    /// Misses whose source set was cached, but at another epoch.
    pub stale: u64,
    /// Bulk evictions triggered by the entry cap.
    pub evictions: u64,
    /// Stale entries re-offered unchanged, without a Dijkstra: the repair
    /// pass found no journaled dirty edge able to change the tree (see the
    /// module docs).
    pub repairs: u64,
    /// Misses answered by the repair pass re-relaxing only the affected
    /// region instead of a cold Dijkstra (see
    /// [`DijkstraWorkspace::repair`]). Counted *in addition to* `misses`
    /// and `stale` — the repaired tree is bit-identical to the cold
    /// solve it replaced, so downstream counters are unchanged.
    pub partial_repairs: u64,
}

impl std::ops::AddAssign for PathEngineStats {
    /// Adds every counter of `other`: totals over several engines. The
    /// destructuring makes a new counter a compile error here, not a
    /// total that silently leaves it out.
    fn add_assign(&mut self, other: PathEngineStats) {
        let PathEngineStats {
            hits,
            misses,
            stale,
            evictions,
            repairs,
            partial_repairs,
        } = other;
        self.hits += hits;
        self.misses += misses;
        self.stale += stale;
        self.evictions += evictions;
        self.repairs += repairs;
        self.partial_repairs += partial_repairs;
    }
}

/// Deterministic work done by [`PathEngine::nearest_target`] calls — kept
/// apart from [`PathEngineStats`] because a bounded search is not a cache
/// query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BoundedWork {
    /// Bounded searches run.
    pub searches: u64,
    /// Vertices those searches settled, in total
    /// ([`DijkstraWorkspace::settled`] summed).
    pub settled: u64,
}

#[derive(Debug, Default)]
struct EngineInner {
    /// Sorted, deduplicated source set → its one tree and the cost epoch
    /// that tree is exact at.
    cache: HashMap<Vec<NodeId>, (u64, Arc<ShortestPaths>)>,
    workspace: DijkstraWorkspace,
}

/// A memoizing shortest-path engine; see the [module docs](self).
///
/// Cloning shares the underlying cache and workspace.
#[derive(Clone, Debug, Default)]
pub struct PathEngine {
    inner: Arc<Mutex<EngineInner>>,
    /// Shared with every [fork](PathEngine::fork).
    counts: Arc<Mutex<(PathEngineStats, BoundedWork)>>,
}

impl PathEngine {
    /// Creates an empty engine.
    pub fn new() -> PathEngine {
        PathEngine::default()
    }

    /// The shortest-path tree from `source`, cached per
    /// [`Graph::cost_epoch`].
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn from_source(&self, graph: &Graph, source: NodeId) -> Arc<ShortestPaths> {
        // Hits probe with a borrowed slice — no key allocation on the
        // warm path (this is the hot single-source query of the §VII-C
        // dynamics and walk shortening).
        self.query(graph, std::slice::from_ref(&source))
    }

    /// The multi-source tree (Voronoi labelling included) for `sources`,
    /// cached per source *set*: order and duplicates do not affect the
    /// result, so the key is sorted and deduplicated.
    ///
    /// # Panics
    ///
    /// Panics if any source is out of range.
    pub fn from_sources(&self, graph: &Graph, sources: &[NodeId]) -> Arc<ShortestPaths> {
        let mut key = sources.to_vec();
        key.sort_unstable();
        key.dedup();
        self.query(graph, &key)
    }

    /// `key` must be sorted and deduplicated.
    fn query(&self, graph: &Graph, key: &[NodeId]) -> Arc<ShortestPaths> {
        let epoch = graph.cost_epoch();
        let mut guard = self.inner.lock().expect("path engine lock");
        let inner = &mut *guard;
        let mut counts = self.counts.lock().expect("path engine counters");
        let stats = &mut counts.0;
        if let Some((stored, paths)) = inner.cache.get_mut(key) {
            if *stored == epoch {
                stats.hits += 1;
            } else {
                // Repaired when the graph's journal traces the stored epoch,
                // cold when not; the answer replaces the stored tree.
                let repair = graph
                    .cost_changes_since(*stored)
                    .map(|changes| inner.workspace.repair(graph, paths, key, changes));
                if let Some(Repair::Unchanged) = repair {
                    stats.repairs += 1;
                } else {
                    stats.stale += 1;
                    stats.misses += 1;
                    *paths = Arc::new(match repair {
                        Some(Repair::Repaired(tree)) => {
                            stats.partial_repairs += 1;
                            tree
                        }
                        _ => inner.workspace.tree(graph, key),
                    });
                }
                *stored = epoch;
            }
            return Arc::clone(paths);
        }
        stats.misses += 1;
        let paths = Arc::new(inner.workspace.tree(graph, key));
        if inner.cache.len() >= MAX_ENTRIES {
            // Drop source sets whose tree is not at the current epoch first;
            // if the cache is still full the whole map goes (rare, and
            // refilling is just warm-up work).
            inner.cache.retain(|_, (e, _)| *e == epoch);
            if inner.cache.len() >= MAX_ENTRIES {
                inner.cache.clear();
            }
            stats.evictions += 1;
        }
        inner
            .cache
            .insert(key.to_vec(), (epoch, Arc::clone(&paths)));
        paths
    }

    /// The `is_target` vertex closest to `source` over the hops `allow`
    /// accepts, with its distance and tree path (source first), or `None`
    /// when no target is reachable — exactly the target, cost and path a
    /// scan of the full (equally filtered) tree from `source` would pick,
    /// found by a search that stops at that target's distance (see the
    /// [module docs](self)). Nothing is cached and no
    /// [`PathEngineStats`] field moves.
    ///
    /// The closures run under the engine's lock: they must not query the
    /// engine.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn nearest_target<F, T>(
        &self,
        graph: &Graph,
        source: NodeId,
        allow: F,
        is_target: T,
    ) -> Option<NearestTarget>
    where
        F: FnMut(NodeId, EdgeId, NodeId) -> bool,
        T: FnMut(NodeId) -> bool,
    {
        let mut guard = self.inner.lock().expect("path engine lock");
        let inner = &mut *guard;
        let found = inner
            .workspace
            .nearest_target(graph, source, allow, is_target);
        let mut counts = self.counts.lock().expect("path engine counters");
        counts.1.searches += 1;
        counts.1.settled += inner.workspace.settled() as u64;
        found
    }

    /// Work done by [`nearest_target`](PathEngine::nearest_target) so far,
    /// forks included.
    pub fn bounded_work(&self) -> BoundedWork {
        self.counts.lock().expect("path engine counters").1
    }

    /// Usage counters (hits / misses / stale replacements / evictions /
    /// repairs), forks included.
    pub fn stats(&self) -> PathEngineStats {
        self.counts.lock().expect("path engine counters").0
    }

    /// An engine that starts with this one's trees and counts into its
    /// counters, but keeps the trees it repairs or computes to itself: for
    /// a repriced clone (module docs, "Sharing semantics").
    pub fn fork(&self) -> PathEngine {
        let cache = self.inner.lock().expect("path engine lock").cache.clone();
        PathEngine {
            inner: Arc::new(Mutex::new(EngineInner {
                cache,
                workspace: DijkstraWorkspace::default(),
            })),
            counts: Arc::clone(&self.counts),
        }
    }

    /// Number of trees currently held — one per cached source set.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("path engine lock").cache.len()
    }

    /// Returns `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached tree (the workspace stays warm).
    pub fn clear(&self) {
        self.inner.lock().expect("path engine lock").cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cost;

    fn line(n: usize) -> Graph {
        let mut g = Graph::with_nodes(n);
        for i in 0..n - 1 {
            g.add_edge(NodeId::new(i), NodeId::new(i + 1), Cost::new(1.0));
        }
        g
    }

    #[test]
    fn warm_queries_are_shared_and_allocation_free() {
        let g = line(6);
        let engine = PathEngine::new();
        let a = engine.from_source(&g, NodeId::new(0));
        let b = engine.from_source(&g, NodeId::new(0));
        assert!(Arc::ptr_eq(&a, &b), "hit must return the cached tree");
        let stats = engine.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // The single miss ran through the shared workspace exactly once and
        // a further hit does not touch it: no per-query O(n) allocation.
        let c = engine.from_source(&g, NodeId::new(0));
        assert!(Arc::ptr_eq(&a, &c));
        assert_eq!(engine.stats().hits, 2);
        assert_eq!(engine.stats().misses, 1);
    }

    #[test]
    fn epoch_bump_invalidates_stale_entries() {
        let mut g = line(4);
        let engine = PathEngine::new();
        let before = engine.from_source(&g, NodeId::new(0));
        assert_eq!(before.dist(NodeId::new(3)), Cost::new(3.0));
        let e = g.edge_between(NodeId::new(2), NodeId::new(3)).unwrap();
        g.set_edge_cost(e, Cost::new(10.0));
        let after = engine.from_source(&g, NodeId::new(0));
        assert!(
            !Arc::ptr_eq(&before, &after),
            "stale entry must not be served"
        );
        assert_eq!(after.dist(NodeId::new(3)), Cost::new(12.0));
        let stats = engine.stats();
        assert_eq!(stats.stale, 1);
        assert_eq!(stats.misses, 2);
        // The pre-mutation Arc still reads the old (consistent) tree.
        assert_eq!(before.dist(NodeId::new(3)), Cost::new(3.0));
    }

    #[test]
    fn a_superseded_tree_is_released() {
        // Repricing a tree edge makes the next query replace the stored
        // tree: the engine keeps one tree per source set, so the old tree
        // is left to whoever still holds it.
        let mut g = line(6);
        let engine = PathEngine::new();
        let s = NodeId::new(0);
        let old = engine.from_source(&g, s);
        let e = g.edge_between(NodeId::new(2), NodeId::new(3)).unwrap();
        g.set_edge_cost(e, Cost::new(4.0));
        let new = engine.from_source(&g, s);
        assert!(!Arc::ptr_eq(&old, &new));
        assert_eq!(
            Arc::strong_count(&old),
            1,
            "the engine still holds the superseded tree"
        );
        assert_eq!(Arc::strong_count(&new), 2);
        assert_eq!(engine.len(), 1);
    }

    #[test]
    fn a_diverged_clone_repairs_and_replaces_the_shared_tree() {
        // A graph and its mutated clone share one engine (the Network
        // clone semantics). The clone's journal traces the original's
        // epoch, so its query repairs the original's tree and replaces it.
        // The original's journal does not know the clone's epoch, so its
        // next query is a stale miss, recomputed cold — still exactly a
        // fresh Dijkstra.
        let g1 = line(5);
        let mut g2 = g1.clone();
        let e = g2.edge_between(NodeId::new(0), NodeId::new(1)).unwrap();
        g2.set_edge_cost(e, Cost::new(7.0));
        let engine = PathEngine::new();
        let s = NodeId::new(0);
        let first = engine.from_source(&g1, s);
        let second = engine.from_source(&g2, s);
        assert_eq!(Arc::strong_count(&first), 1, "the clone's tree replaced it");
        assert_eq!(second.dist(NodeId::new(1)), Cost::new(7.0));
        let stats = engine.stats();
        assert_eq!(
            (stats.misses, stats.stale, stats.partial_repairs, stats.hits),
            (2, 1, 1, 0),
            "{stats:?}"
        );
        let again = engine.from_source(&g1, s);
        assert!(!Arc::ptr_eq(&first, &again));
        assert_eq!(
            Arc::strong_count(&second),
            1,
            "and the original's replaced it"
        );
        let stats = engine.stats();
        assert_eq!(
            (stats.misses, stats.stale, stats.partial_repairs, stats.hits),
            (3, 2, 1, 0),
            "{stats:?}"
        );
        let fresh = ShortestPaths::from_source(&g1, s);
        for v in g1.nodes() {
            assert_eq!(again.dist(v), fresh.dist(v));
            assert_eq!(again.parent(v), fresh.parent(v));
            assert_eq!(again.site(v), fresh.site(v));
        }
        assert_eq!(engine.len(), 1);
    }

    #[test]
    fn a_fork_repairs_beside_the_original_and_counts_into_it() {
        // A fork reads the original's tree and counts into its counters,
        // but the tree it repairs stays its own: the original still hits
        // its tree, and repairs from it once its own graph moves on.
        let mut g1 = line(12);
        let engine = PathEngine::new();
        let s = NodeId::new(0);
        let mine = engine.from_source(&g1, s);
        let mut g2 = g1.clone();
        let e = g2.edge_between(NodeId::new(9), NodeId::new(10)).unwrap();
        g2.set_edge_cost(e, Cost::new(4.0));
        let fork = engine.fork();
        let theirs = fork.from_source(&g2, s);
        assert!(!Arc::ptr_eq(&mine, &theirs));
        assert!(Arc::ptr_eq(&mine, &engine.from_source(&g1, s)));
        let stats = engine.stats();
        assert_eq!(
            (stats.misses, stats.stale, stats.partial_repairs, stats.hits),
            (2, 1, 1, 1),
            "{stats:?}"
        );
        assert_eq!(fork.stats(), stats);
        assert_eq!((engine.len(), fork.len()), (1, 1));
        let e = g1.edge_between(NodeId::new(8), NodeId::new(9)).unwrap();
        g1.set_edge_cost(e, Cost::new(3.0));
        let moved = engine.from_source(&g1, s);
        assert_eq!(engine.stats().partial_repairs, 2);
        assert_eq!(moved.dist(NodeId::new(11)), Cost::new(13.0));
        drop(fork);
        assert_eq!(Arc::strong_count(&theirs), 1);
    }

    #[test]
    fn scoped_invalidation_repairs_unaffected_trees() {
        // Path 0-1-2-3 (unit costs) with a costly shortcut 0-3, plus a
        // disconnected pair 4-5. Repricing k edges must evict/repair only
        // the trees those edges can touch; every other cached tree
        // survives with its entry intact (same Arc, no Dijkstra).
        let mut g = Graph::with_nodes(6);
        g.add_edge(NodeId::new(0), NodeId::new(1), Cost::new(1.0));
        g.add_edge(NodeId::new(1), NodeId::new(2), Cost::new(1.0));
        let c = g.add_edge(NodeId::new(2), NodeId::new(3), Cost::new(1.0));
        let shortcut = g.add_edge(NodeId::new(0), NodeId::new(3), Cost::new(10.0));
        g.add_edge(NodeId::new(4), NodeId::new(5), Cost::new(1.0));
        let engine = PathEngine::new();
        let t0 = engine.from_source(&g, NodeId::new(0));
        let t4 = engine.from_source(&g, NodeId::new(4));
        assert_eq!(engine.stats().misses, 2);

        // Reprice the non-tree shortcut so it still strictly loses: both
        // trees are repaired — same Arcs, zero Dijkstras.
        g.set_edge_cost(shortcut, Cost::new(12.0));
        assert!(Arc::ptr_eq(&t0, &engine.from_source(&g, NodeId::new(0))));
        assert!(Arc::ptr_eq(&t4, &engine.from_source(&g, NodeId::new(4))));
        let s = engine.stats();
        assert_eq!((s.misses, s.stale, s.repairs), (2, 0, 2));
        // Once revalidated, further queries are plain hits.
        let hits_before = engine.stats().hits;
        assert!(Arc::ptr_eq(&t0, &engine.from_source(&g, NodeId::new(0))));
        assert_eq!(engine.stats().hits, hits_before + 1);

        // Reprice a tree edge of the 0-tree: that tree recomputes, but the
        // disconnected 4-tree (endpoints unreachable) is repaired again.
        g.set_edge_cost(c, Cost::new(5.0));
        let t0b = engine.from_source(&g, NodeId::new(0));
        assert!(
            !Arc::ptr_eq(&t0, &t0b),
            "a dirtied tree edge forces recompute"
        );
        assert_eq!(t0b.dist(NodeId::new(3)), Cost::new(7.0));
        assert!(Arc::ptr_eq(&t4, &engine.from_source(&g, NodeId::new(4))));
        let s = engine.stats();
        assert_eq!((s.misses, s.stale, s.repairs), (3, 1, 3));

        // A repricing that *creates* a shortcut may not be absorbed either.
        g.set_edge_cost(shortcut, Cost::new(2.0));
        let t0c = engine.from_source(&g, NodeId::new(0));
        assert!(
            !Arc::ptr_eq(&t0b, &t0c),
            "an improving edge forces recompute"
        );
        assert_eq!(t0c.dist(NodeId::new(3)), Cost::new(2.0));
    }

    #[test]
    fn restored_tree_edge_is_reoffered_unchanged() {
        // What a leave followed by a join does to a congestion-priced
        // link: a tree edge repriced and then restored (A→B→A) before the
        // next query. The labels still stand, so the same Arc comes back
        // with no clone, no Dijkstra and no miss.
        let mut g = line(6);
        let engine = PathEngine::new();
        let s = NodeId::new(0);
        let before = engine.from_source(&g, s);
        let e = g.edge_between(NodeId::new(2), NodeId::new(3)).unwrap();
        g.set_edge_cost(e, Cost::new(4.0));
        g.set_edge_cost(e, Cost::new(1.0));
        let was = engine.stats();
        assert!(Arc::ptr_eq(&before, &engine.from_source(&g, s)));
        let now = engine.stats();
        assert_eq!(now.repairs, was.repairs + 1);
        assert_eq!(
            (now.misses, now.stale, now.partial_repairs),
            (was.misses, was.stale, was.partial_repairs)
        );
    }

    #[test]
    fn affected_trees_are_partially_repaired() {
        // Repricing one edge of a 12-node line dirties a small region:
        // the stale miss must be answered by the repair pass, not a cold
        // Dijkstra, and the tree must still be exactly the fresh one.
        let mut g = line(12);
        let engine = PathEngine::new();
        let s = NodeId::new(0);
        let before = engine.from_source(&g, s);
        let e = g.edge_between(NodeId::new(9), NodeId::new(10)).unwrap();
        g.set_edge_cost(e, Cost::new(4.0));
        let after = engine.from_source(&g, s);
        assert!(!Arc::ptr_eq(&before, &after));
        let stats = engine.stats();
        assert_eq!(
            (stats.misses, stats.stale, stats.partial_repairs),
            (2, 1, 1),
            "the stale miss must go through the repair pass: {stats:?}"
        );
        let fresh = ShortestPaths::from_source(&g, s);
        for v in g.nodes() {
            assert_eq!(after.dist(v), fresh.dist(v));
            assert_eq!(after.parent(v), fresh.parent(v));
            assert_eq!(after.site(v), fresh.site(v));
        }
        // The repaired entry is a first-class cache citizen: same epoch
        // queries hit it.
        assert!(Arc::ptr_eq(&after, &engine.from_source(&g, s)));
        // Structural mutations sever the journal, so the next stale miss
        // falls back to a cold solve (partial_repairs unchanged).
        g.add_edge(NodeId::new(0), NodeId::new(11), Cost::new(0.5));
        let rerouted = engine.from_source(&g, s);
        assert_eq!(rerouted.dist(NodeId::new(11)), Cost::new(0.5));
        assert_eq!(engine.stats().partial_repairs, 1);
    }

    #[test]
    fn bounded_search_is_not_a_cache_query() {
        // A bounded call between two tree queries: no entry appears, none
        // of the six counters moves, and the workspace it truncated still
        // serves the next cold miss correctly.
        let mut rng = crate::Rng64::seed_from(21);
        let g =
            crate::generators::gnp_connected(40, 0.12, crate::CostRange::new(1.0, 5.0), &mut rng);
        let engine = PathEngine::new();
        let tree = engine.from_source(&g, NodeId::new(3));
        let (len, stats) = (engine.len(), engine.stats());
        let targets = [NodeId::new(11), NodeId::new(30)];
        let hit = engine
            .nearest_target(&g, NodeId::new(3), |_, _, _| true, |v| targets.contains(&v))
            .expect("connected graph");
        let want = targets
            .iter()
            .copied()
            .min_by_key(|&t| (tree.dist(t), t))
            .unwrap();
        assert_eq!((hit.cost, hit.target), (tree.dist(want), want));
        assert_eq!(Some(hit.path), tree.path_to(want));
        assert_eq!(engine.len(), len);
        assert_eq!(engine.stats(), stats);
        let work = engine.bounded_work();
        assert_eq!(work.searches, 1);
        assert!(0 < work.settled && work.settled < 40, "{work:?}");
        // Workspace reuse after the truncated run.
        let next = engine.from_source(&g, NodeId::new(17));
        let reference = ShortestPaths::from_source(&g, NodeId::new(17));
        for v in g.nodes() {
            assert_eq!(next.dist(v), reference.dist(v));
            assert_eq!(next.parent(v), reference.parent(v));
            assert_eq!(next.site(v), reference.site(v));
        }
        assert_eq!(engine.stats().misses, stats.misses + 1);
    }

    #[test]
    fn source_sets_are_canonicalized() {
        let g = line(5);
        let engine = PathEngine::new();
        let a = engine.from_sources(&g, &[NodeId::new(4), NodeId::new(0), NodeId::new(0)]);
        let b = engine.from_sources(&g, &[NodeId::new(0), NodeId::new(4)]);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.dist(NodeId::new(2)), Cost::new(2.0));
        assert_eq!(a.site(NodeId::new(1)), Some(NodeId::new(0)));
        assert_eq!(engine.stats().hits, 1);
    }

    #[test]
    fn matches_plain_dijkstra() {
        let mut rng = crate::Rng64::seed_from(9);
        let g =
            crate::generators::gnp_connected(30, 0.15, crate::CostRange::new(1.0, 5.0), &mut rng);
        let engine = PathEngine::new();
        for s in [0usize, 7, 29] {
            let sp = engine.from_source(&g, NodeId::new(s));
            let reference = ShortestPaths::from_source(&g, NodeId::new(s));
            for v in g.nodes() {
                assert_eq!(sp.dist(v), reference.dist(v));
                assert_eq!(sp.parent(v), reference.parent(v));
                assert_eq!(sp.path_to(v), reference.path_to(v));
            }
        }
    }

    #[test]
    fn clones_share_the_cache() {
        let g = line(4);
        let engine = PathEngine::new();
        let shared = engine.clone();
        let a = engine.from_source(&g, NodeId::new(1));
        let b = shared.from_source(&g, NodeId::new(1));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(shared.stats().hits, 1);
        assert_eq!(engine.len(), 1);
        engine.clear();
        assert!(shared.is_empty());
    }
}
