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
//!   mutation — so a cost or topology change invalidates the cache without
//!   touching it (no risk of serving stale distances); an online session
//!   then releases the trees its repricing made stale, keeping their keys
//!   for counting ([`PathEngine::release_stale`]);
//! * misses run through one long-lived [`DijkstraWorkspace`], whose queue
//!   stays warm; the only O(n) allocation on a miss is the tree itself,
//!   labelled in place by [`DijkstraWorkspace::tree`] — 20 bytes a vertex
//!   for one root, 28 for several — and nothing is copied into the cache;
//! * hits return a cheap [`Arc`] clone of the cached tree — zero O(n)
//!   allocation on the warm path.
//!
//! # A stale tree is recomputed
//!
//! A cached tree at another cost epoch is recomputed cold, counted in
//! `stale` and `misses`, and **replaces** the stored tree, which the
//! engine then releases; other source sets are never discarded.
//!
//! Nothing reads a tree at another epoch but that replacement, so
//! [`PathEngine::release_stale`] drops every such tree at once and keeps
//! its key and epoch: the next query of a released set runs the same cold
//! Dijkstra and counts `stale` and `misses` exactly as if the tree were
//! held. An online session calls it each time it reprices, which is what
//! keeps a long-lived session from holding the trees of its last full
//! solve. A released key at the querying graph's own epoch (a shared,
//! unforked clone released it) is recomputed and counted stale too.
//!
//! # A leaf's tree is its host's: one key per tree
//!
//! A vertex of degree 1 whose one link costs exactly [`Cost::ZERO`] — a VM
//! on its data centre's stub, in the paper's setup — has the same tree as
//! its neighbour (the *host*), bit for bit, except for the hop between the
//! two: Dijkstra from the leaf labels the host `0 + 0` first, and pops and
//! relaxes everything after it exactly as Dijkstra from the host does,
//! which labels the leaf without ever queueing it. So
//! [`PathEngine::rooted_at`], the one lookup every reader of a VM's tree
//! goes through, answers such a leaf from its host's entry and prepends
//! the leaf to every path read from it ([`RootedTree`]): VMs on one data
//! centre share one tree, and a solve roots one tree per host, not per VM.
//! Any other cost on the link (an online session prices loaded stubs)
//! could move a last bit of every sum, so then the leaf's own tree
//! answers. Either way a lookup leaves the leaf's tree under one key: a
//! lookup the host answers releases the leaf's own entry, and a lookup
//! that falls back to the leaf's own tree releases the host's — unless
//! another zero-cost leaf of that host still reads from it (a free VM
//! beside a loaded one on one data centre), which would otherwise root
//! the host's tree cold again on every solve that asks for both. The
//! key goes at the leaf's own lookup and nowhere else: the engine is not
//! told when a stub is repriced, so a leaf whose stub was loaded and is
//! free again keeps its own entry beside its host's until it is next
//! looked up (`a_leaf_is_released_at_its_own_lookup`). Its tree goes
//! sooner in an online session: repricing the stub moved the epoch, and
//! [`PathEngine::release_stale`] drops every tree at another epoch.
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
//!   epoch is retired before the call returns: a truncated run can never
//!   be read back or cached.
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
//! that asked; [`PathEngine::len`] is the number of trees held, released
//! keys not counted. A repriced clone sharing the engine replaces the
//! original's tree with its own, and the original's next query of that
//! set runs cold. Such a clone takes a [`PathEngine::fork`] instead.
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

use crate::{Cost, DijkstraWorkspace, EdgeId, Graph, NearestTarget, NodeId, ShortestPaths};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Source sets kept before stale/overflowing entries are evicted.
const MAX_ENTRIES: usize = 4096;

/// Counters describing how the engine has been used. `stale` counts misses
/// for a source set whose key the engine knew — its tree at another cost
/// epoch, or released (`stale ⊆ misses`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PathEngineStats {
    /// Queries served straight from the cache (zero O(n) work).
    pub hits: u64,
    /// Queries that ran a Dijkstra (first sight or new cost epoch).
    pub misses: u64,
    /// Misses whose source set's key was known: its tree at another epoch,
    /// or released by [`PathEngine::release_stale`].
    pub stale: u64,
    /// Bulk evictions triggered by the entry cap.
    pub evictions: u64,
    /// Always 0: a stale entry is recomputed, never revalidated. Kept
    /// while the repo benchmark (`benchmark/`) reads it.
    pub repairs: u64,
    /// Always 0: a stale entry is recomputed whole, never in part. Kept
    /// while `benchmark/` reads it.
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

/// The shortest-path tree rooted at one vertex, as
/// [`PathEngine::rooted_at`] answers it: the vertex's own tree, or — for a
/// zero-cost leaf — its host's, read as the leaf's (module docs, "A leaf's
/// tree is its host's").
#[derive(Clone, Debug)]
pub struct RootedTree {
    root: NodeId,
    /// `tree` is rooted at `root`'s host, not at `root`.
    hosted: bool,
    tree: Arc<ShortestPaths>,
}

impl RootedTree {
    /// The vertex the tree is rooted at.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Distance from the root to `v`. A host's tree holds the leaf's
    /// distances bit for bit, the leaf's own `0 + 0` included.
    #[inline]
    pub fn dist(&self, v: NodeId) -> Cost {
        self.tree.dist(v)
    }

    /// A shortest path from the root to `v` (root first), or `None` if `v`
    /// is unreachable: the host's path with the leaf prepended when the
    /// host answers.
    pub fn path_to(&self, v: NodeId) -> Option<Vec<NodeId>> {
        if v == self.root {
            return Some(vec![v]);
        }
        let mut path = self.tree.path_to(v)?;
        if self.hosted {
            path.insert(0, self.root);
        }
        Some(path)
    }

    /// The engine entry the answer is read from: the root's own tree or its
    /// host's.
    pub fn shared(&self) -> &Arc<ShortestPaths> {
        &self.tree
    }
}

/// The neighbour `v` hangs off when `v` is a leaf — degree 1, its one link
/// to a vertex of larger degree — and whether that link costs exactly
/// zero.
fn leaf_host(graph: &Graph, v: NodeId) -> Option<(NodeId, bool)> {
    if graph.degree(v) != 1 {
        return None;
    }
    let (host, e) = graph.neighbors(v).next()?;
    (graph.degree(host) > 1).then(|| (host, graph.edge_cost(e) == Cost::ZERO))
}

#[derive(Debug, Default)]
struct EngineInner {
    /// Sorted, deduplicated source set → the cost epoch its tree is exact
    /// at, and the tree unless [`PathEngine::release_stale`] released it.
    cache: HashMap<Vec<NodeId>, (u64, Option<Arc<ShortestPaths>>)>,
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
        self.query(graph, std::slice::from_ref(&source), None)
    }

    /// The shortest-path tree rooted at `root`, answered from its host's
    /// entry when `root` is a zero-cost leaf; the other one of the two
    /// entries is released unless another zero-cost leaf reads from it
    /// (module docs, "A leaf's tree is its host's"). Counts as one query
    /// of whichever entry answers.
    ///
    /// # Panics
    ///
    /// Panics if `root` is out of range.
    pub fn rooted_at(&self, graph: &Graph, root: NodeId) -> RootedTree {
        let (key, release, hosted) = match leaf_host(graph, root) {
            Some((host, true)) => (host, Some(root), true),
            Some((host, false)) => {
                let shared = graph.neighbors(host).any(|(leaf, _)| {
                    leaf != root && leaf_host(graph, leaf).is_some_and(|(_, free)| free)
                });
                (root, (!shared).then_some(host), false)
            }
            None => (root, None, false),
        };
        RootedTree {
            root,
            hosted,
            tree: self.query(graph, std::slice::from_ref(&key), release),
        }
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
        self.query(graph, &key, None)
    }

    /// `key` must be sorted and deduplicated. `release` names a
    /// single-source entry to drop first.
    fn query(&self, graph: &Graph, key: &[NodeId], release: Option<NodeId>) -> Arc<ShortestPaths> {
        let epoch = graph.cost_epoch();
        let mut guard = self.inner.lock().expect("path engine lock");
        let inner = &mut *guard;
        if let Some(other) = release {
            inner.cache.remove(std::slice::from_ref(&other));
        }
        let mut counts = self.counts.lock().expect("path engine counters");
        let stats = &mut counts.0;
        if let Some((stored, held)) = inner.cache.get_mut(key) {
            if let Some(paths) = held.as_ref().filter(|_| *stored == epoch) {
                stats.hits += 1;
                return Arc::clone(paths);
            }
            // Recomputed cold, released or not; the answer replaces the
            // stored tree.
            stats.stale += 1;
            stats.misses += 1;
            *stored = epoch;
            return Arc::clone(held.insert(Arc::new(inner.workspace.tree(graph, key))));
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
            .insert(key.to_vec(), (epoch, Some(Arc::clone(&paths))));
        paths
    }

    /// Releases every tree not exact at `graph`'s cost epoch, keeping its
    /// key and epoch: the next query of that set still counts `stale` and
    /// `misses`, as it would with the tree held (module docs, "A stale
    /// tree is recomputed"). An online session calls it after each
    /// reprice.
    pub fn release_stale(&self, graph: &Graph) {
        let epoch = graph.cost_epoch();
        let mut inner = self.inner.lock().expect("path engine lock");
        for (stored, held) in inner.cache.values_mut() {
            if *stored != epoch {
                *held = None;
            }
        }
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

    /// Usage counters (hits / misses / stale replacements / evictions),
    /// forks included.
    pub fn stats(&self) -> PathEngineStats {
        self.counts.lock().expect("path engine counters").0
    }

    /// An engine that starts with this one's trees and counts into its
    /// counters, but keeps the trees it computes to itself: for a repriced
    /// clone (module docs, "Sharing semantics").
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

    /// Number of trees currently held — at most one per known source set;
    /// a released set's key is not counted.
    pub fn len(&self) -> usize {
        let inner = self.inner.lock().expect("path engine lock");
        inner
            .cache
            .values()
            .filter(|(_, held)| held.is_some())
            .count()
    }

    /// Returns `true` when no tree is held.
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
    fn a_stale_tree_is_released_and_its_key_still_counts() {
        // At an unchanged epoch nothing is released. Once the graph moves
        // on, the tree goes (this test holds the only reference) while its
        // key stays: the next query is one stale miss, as it is with the
        // tree held. Releasing the key too sinks the count; keeping the
        // tree sinks the strong count.
        let mut g = line(6);
        let engine = PathEngine::new();
        let (s, t) = (NodeId::new(0), NodeId::new(5));
        let old = engine.from_source(&g, s);
        let _other = engine.from_source(&g, t);
        engine.release_stale(&g);
        assert_eq!((engine.len(), Arc::strong_count(&old)), (2, 2));
        assert!(Arc::ptr_eq(&old, &engine.from_source(&g, s)));
        let e = g.edge_between(NodeId::new(2), NodeId::new(3)).unwrap();
        g.set_edge_cost(e, Cost::new(4.0));
        engine.release_stale(&g);
        assert_eq!(Arc::strong_count(&old), 1, "the engine still holds it");
        assert!(engine.is_empty());
        let before = engine.stats();
        let new = engine.from_source(&g, s);
        assert_eq!(new.dist(t), Cost::new(8.0));
        let stats = engine.stats();
        assert_eq!(
            (stats.misses - before.misses, stats.stale - before.stale),
            (1, 1),
            "a released key still counts stale"
        );
        assert_eq!(engine.len(), 1);
        engine.release_stale(&g);
        assert!(Arc::ptr_eq(&new, &engine.from_source(&g, s)));
    }

    #[test]
    fn a_released_key_at_the_querying_epoch_is_recomputed() {
        // A shared (unforked) clone at another epoch releases the
        // original's tree; the original's next query finds its own epoch
        // with no tree, recomputes it and counts it stale.
        let g1 = line(5);
        let mut g2 = g1.clone();
        let e = g2.edge_between(NodeId::new(0), NodeId::new(1)).unwrap();
        g2.set_edge_cost(e, Cost::new(7.0));
        let engine = PathEngine::new();
        let s = NodeId::new(0);
        let first = engine.from_source(&g1, s);
        engine.release_stale(&g2);
        assert_eq!(Arc::strong_count(&first), 1);
        let again = engine.from_source(&g1, s);
        assert_eq!(again.dist(NodeId::new(4)), Cost::new(4.0));
        let stats = engine.stats();
        assert_eq!(
            (stats.misses, stats.stale, stats.hits),
            (2, 1, 0),
            "{stats:?}"
        );
    }

    #[test]
    fn a_diverged_clone_repairs_and_replaces_the_shared_tree() {
        // A graph and its mutated clone share one engine (the Network
        // clone semantics). The clone's query finds the original's tree at
        // another epoch, recomputes it and replaces it; the original's
        // next query is a stale miss in turn, recomputed cold — each time
        // exactly a fresh Dijkstra.
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
            (stats.misses, stats.stale, stats.hits),
            (2, 1, 0),
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
            (stats.misses, stats.stale, stats.hits),
            (3, 2, 0),
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
        // but the tree it recomputes stays its own: the original still
        // hits its tree, and recomputes it once its own graph moves on.
        // A fork that shares the original's cache sinks the hit; one with
        // counters of its own sinks the equal stats.
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
        assert_eq!(theirs.dist(NodeId::new(11)), Cost::new(14.0));
        assert!(Arc::ptr_eq(&mine, &engine.from_source(&g1, s)));
        let stats = engine.stats();
        assert_eq!(
            (stats.misses, stats.stale, stats.hits),
            (2, 1, 1),
            "{stats:?}"
        );
        assert_eq!(fork.stats(), stats);
        assert_eq!((engine.len(), fork.len()), (1, 1));
        let e = g1.edge_between(NodeId::new(8), NodeId::new(9)).unwrap();
        g1.set_edge_cost(e, Cost::new(3.0));
        let moved = engine.from_source(&g1, s);
        assert_eq!((engine.stats().misses, engine.stats().stale), (3, 2));
        assert_eq!(moved.dist(NodeId::new(11)), Cost::new(13.0));
        assert_eq!(
            Arc::strong_count(&mine),
            1,
            "the original replaced its tree"
        );
        drop(fork);
        assert_eq!(Arc::strong_count(&theirs), 1);
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

    /// A connected `gnp` graph with `leaves` extra vertices, each hung off
    /// one of the first four vertices by a zero-cost link (two always off
    /// vertex 0); returns the graph and the leaves.
    fn stubbed(seed: u64, leaves: usize) -> (Graph, Vec<NodeId>) {
        let mut rng = crate::Rng64::seed_from(seed);
        let mut g =
            crate::generators::gnp_connected(24, 0.15, crate::CostRange::new(1.0, 5.0), &mut rng);
        let hung = (0..leaves)
            .map(|i| {
                let leaf = g.add_node();
                let host = NodeId::new(if i < 2 { 0 } else { rng.below(4) });
                g.add_edge(leaf, host, Cost::ZERO);
                leaf
            })
            .collect();
        (g, hung)
    }

    #[test]
    fn a_zero_cost_leaf_reads_its_hosts_tree_bit_for_bit() {
        // Every distance and every path from a zero-cost leaf, read from its
        // host's tree, equals the leaf's own Dijkstra to the bit, and the
        // leaves on one host share its one entry: one miss per host.
        for seed in 0..6 {
            let (g, leaves) = stubbed(seed, 6);
            let engine = PathEngine::new();
            for &leaf in &leaves {
                let tree = engine.rooted_at(&g, leaf);
                let own = ShortestPaths::from_source(&g, leaf);
                assert_eq!(tree.root(), leaf);
                for v in g.nodes() {
                    assert_eq!(
                        tree.dist(v).value().to_bits(),
                        own.dist(v).value().to_bits()
                    );
                    assert_eq!(tree.path_to(v), own.path_to(v), "seed {seed}: {leaf} → {v}");
                }
            }
            let hosts: std::collections::BTreeSet<NodeId> = leaves
                .iter()
                .map(|&leaf| g.neighbors(leaf).next().unwrap().0)
                .collect();
            assert_eq!(engine.stats().misses, hosts.len() as u64);
            assert_eq!(engine.len(), hosts.len());
        }
    }

    #[test]
    fn a_loaded_stub_falls_back_and_releases_its_hosts_tree() {
        // While the stub costs zero the host answers and the leaf's own
        // entry goes; once it costs anything the leaf's own tree answers
        // and the host's entry goes; priced back to zero, the host answers
        // again. One key at a time, so keeping the released entry beside
        // the answer sinks it.
        let (mut g, leaves) = stubbed(3, 1);
        let (leaf, host) = (leaves[0], NodeId::new(0));
        let stub = g.edge_between(leaf, host).unwrap();
        let engine = PathEngine::new();
        let own = engine.from_source(&g, leaf);
        let hosted = engine.rooted_at(&g, leaf);
        assert!(Arc::ptr_eq(hosted.shared(), &engine.from_source(&g, host)));
        assert_eq!(engine.len(), 1, "the leaf's own tree is still held");
        assert_eq!(Arc::strong_count(&own), 1);

        g.set_edge_cost(stub, Cost::new(0.5));
        let loaded = engine.rooted_at(&g, leaf);
        assert!(!Arc::ptr_eq(loaded.shared(), hosted.shared()));
        assert_eq!(loaded.dist(host), Cost::new(0.5));
        let fresh = ShortestPaths::from_source(&g, leaf);
        for v in g.nodes() {
            assert_eq!(loaded.dist(v), fresh.dist(v));
            assert_eq!(loaded.path_to(v), fresh.path_to(v));
        }
        assert_eq!(engine.len(), 1, "the host's tree is still held");
        assert_eq!(Arc::strong_count(hosted.shared()), 1);

        g.set_edge_cost(stub, Cost::ZERO);
        let back = engine.rooted_at(&g, leaf);
        assert_eq!(back.path_to(NodeId::new(0)), Some(vec![leaf, host]));
        assert_eq!(engine.len(), 1);
        assert_eq!(Arc::strong_count(loaded.shared()), 1);
        assert!(Arc::ptr_eq(back.shared(), &engine.from_source(&g, host)));
    }

    #[test]
    fn a_host_another_free_leaf_reads_from_is_kept() {
        // Two leaves on vertex 0, one stub loaded: the loaded leaf falls
        // back to its own tree, and the host's tree stays, because the
        // free leaf still reads from it — releasing it would root it cold
        // again on the free leaf's next lookup.
        let (mut g, leaves) = stubbed(5, 2);
        let host = NodeId::new(0);
        let stub = g.edge_between(leaves[0], host).unwrap();
        g.set_edge_cost(stub, Cost::new(0.5));
        let engine = PathEngine::new();
        for _ in 0..2 {
            let free = engine.rooted_at(&g, leaves[1]);
            let loaded = engine.rooted_at(&g, leaves[0]);
            assert!(!Arc::ptr_eq(free.shared(), loaded.shared()));
        }
        let stats = engine.stats();
        assert_eq!((stats.misses, stats.hits, engine.len()), (2, 2, 2));
    }

    #[test]
    fn a_leaf_is_released_at_its_own_lookup() {
        // Two leaves on vertex 0. The first one's stub is loaded and its
        // own tree answers; the stub is freed again and the second leaf's
        // lookup roots the host's tree. The first leaf's own entry stays
        // beside it — nothing looked that leaf up since its stub changed —
        // and goes at its next lookup, which the host answers.
        let (mut g, leaves) = stubbed(5, 2);
        let host = NodeId::new(0);
        let stub = g.edge_between(leaves[0], host).unwrap();
        let engine = PathEngine::new();
        g.set_edge_cost(stub, Cost::new(0.5));
        let own = engine.rooted_at(&g, leaves[0]);
        assert_eq!(engine.len(), 1);
        g.set_edge_cost(stub, Cost::ZERO);
        let free = engine.rooted_at(&g, leaves[1]);
        assert_eq!(engine.len(), 2, "the first leaf's own entry waits");
        assert_eq!(Arc::strong_count(own.shared()), 2);
        let back = engine.rooted_at(&g, leaves[0]);
        assert!(Arc::ptr_eq(back.shared(), free.shared()));
        assert_eq!(engine.len(), 1, "released at the first leaf's lookup");
        assert_eq!(Arc::strong_count(own.shared()), 1);
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
