//! A memoizing shortest-path service shared across solvers and sessions.
//!
//! Every algorithm in the workspace bottoms out in (multi-source) Dijkstra
//! queries, and most of them repeat queries — the same source trees are
//! needed by SOFDA's chain metrics, the §VII-C dynamics, walk shortening
//! and the baselines, often within one solve and always across solves on an
//! unchanged network. [`PathEngine`] turns those repeats into cache hits:
//!
//! * queries are keyed by `(sorted source set, cost epoch)` where the cost
//!   epoch is [`Graph::cost_epoch`] — a stamp renewed on every mutation —
//!   so a cost or topology change *lazily* invalidates the cache (no eager
//!   clearing, no risk of serving stale distances);
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
//! are journaled per edge ([`Graph::cost_changes_since`]), and the newest
//! stale entry whose lineage is still journaled goes through
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
//! overflow), that entry is recomputed cold; untouched entries are never
//! discarded.
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
//! `PathEngine` shares the cache, so a `Network` clone keeps its warmth.
//! Because epochs are process-unique (two graphs share one only when one is
//! an unmutated clone of the other), a single engine may even be handed
//! graphs from different networks without ever mixing their entries. Own
//! one engine per standing network (what `sof_core::Network` does) when you
//! want isolation; share a handle when clones should stay warm.
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

/// Trees retained per source set: one per recently-seen cost epoch, so a
/// handful of live graphs (e.g. a network and a mutated clone sharing one
/// engine) stay warm side by side instead of evicting each other on every
/// alternating query.
const EPOCHS_PER_SET: usize = 4;

/// Counters describing how the engine has been used. `stale` counts misses
/// for a source set that was cached at other cost epochs (`stale ⊆ misses`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PathEngineStats {
    /// Queries served straight from the cache (zero O(n) work).
    pub hits: u64,
    /// Queries that ran a Dijkstra (first sight or new cost epoch).
    pub misses: u64,
    /// Misses whose source set was cached, but under different epochs.
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
    /// Sorted, deduplicated source set → trees per cost epoch, most recent
    /// last (at most [`EPOCHS_PER_SET`], oldest dropped first).
    cache: HashMap<Vec<NodeId>, Vec<(u64, Arc<ShortestPaths>)>>,
    workspace: DijkstraWorkspace,
    stats: PathEngineStats,
    bounded: BoundedWork,
}

/// A memoizing shortest-path engine; see the [module docs](self).
///
/// Cloning shares the underlying cache and workspace.
#[derive(Clone, Debug, Default)]
pub struct PathEngine {
    inner: Arc<Mutex<EngineInner>>,
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
        if let Some(entries) = inner.cache.get_mut(key) {
            if let Some((_, paths)) = entries.iter().find(|(e, _)| *e == epoch) {
                inner.stats.hits += 1;
                return Arc::clone(paths);
            }
            // Edge-scoped invalidation (module docs): the newest entry
            // whose lineage is still journaled goes through the repair
            // pass. The answer is *added* at the current epoch — the old
            // entry survives, so a pre-mutation clone still hits.
            let candidate = entries.iter().rev().find_map(|(e0, paths)| {
                graph
                    .cost_changes_since(*e0)
                    .map(|changes| (Arc::clone(paths), changes))
            });
            let outcome = candidate
                .map(|(old, changes)| (inner.workspace.repair(graph, &old, key, changes), old));
            let reused = match outcome {
                Some((Repair::Unchanged, old)) => {
                    inner.stats.repairs += 1;
                    Some(old)
                }
                Some((Repair::Repaired(tree), _)) => {
                    inner.stats.stale += 1;
                    inner.stats.misses += 1;
                    inner.stats.partial_repairs += 1;
                    Some(Arc::new(tree))
                }
                Some((Repair::GaveUp, _)) | None => {
                    inner.stats.stale += 1;
                    None
                }
            };
            if let Some(paths) = reused {
                entries.push((epoch, Arc::clone(&paths)));
                if entries.len() > EPOCHS_PER_SET {
                    entries.remove(0);
                }
                return paths;
            }
        }
        inner.stats.misses += 1;
        let paths = Arc::new(inner.workspace.tree(graph, key));
        if inner.cache.len() >= MAX_ENTRIES && !inner.cache.contains_key(key) {
            // Drop source sets with no tree at the current epoch first; if
            // the cache is still full the whole map goes (rare, and
            // refilling is just warm-up work).
            inner
                .cache
                .retain(|_, entries| entries.iter().any(|(e, _)| *e == epoch));
            if inner.cache.len() >= MAX_ENTRIES {
                inner.cache.clear();
            }
            inner.stats.evictions += 1;
        }
        let entries = inner.cache.entry(key.to_vec()).or_default();
        entries.push((epoch, Arc::clone(&paths)));
        if entries.len() > EPOCHS_PER_SET {
            entries.remove(0);
        }
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
        inner.bounded.searches += 1;
        inner.bounded.settled += inner.workspace.settled() as u64;
        found
    }

    /// Work done by [`nearest_target`](PathEngine::nearest_target) so far.
    pub fn bounded_work(&self) -> BoundedWork {
        self.inner.lock().expect("path engine lock").bounded
    }

    /// Usage counters (hits / misses / stale replacements / evictions /
    /// repairs).
    pub fn stats(&self) -> PathEngineStats {
        self.inner.lock().expect("path engine lock").stats
    }

    /// Number of entries currently cached.
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
    fn diverged_clones_stay_warm_side_by_side() {
        // A graph and its mutated clone share one engine (the Network
        // clone semantics): alternating queries must all be hits after the
        // first sight of each epoch, not mutual evictions.
        let g1 = line(5);
        let mut g2 = g1.clone();
        let e = g2.edge_between(NodeId::new(0), NodeId::new(1)).unwrap();
        g2.set_edge_cost(e, Cost::new(7.0));
        let engine = PathEngine::new();
        let s = NodeId::new(0);
        let first = engine.from_source(&g1, s);
        let second = engine.from_source(&g2, s);
        for _ in 0..3 {
            assert!(Arc::ptr_eq(&first, &engine.from_source(&g1, s)));
            assert!(Arc::ptr_eq(&second, &engine.from_source(&g2, s)));
        }
        let stats = engine.stats();
        assert_eq!(stats.misses, 2, "one Dijkstra per live epoch: {stats:?}");
        assert_eq!(stats.hits, 6);
        assert_eq!(first.dist(NodeId::new(1)), Cost::new(1.0));
        assert_eq!(second.dist(NodeId::new(1)), Cost::new(7.0));
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
