//! Single-source and multi-source Dijkstra shortest paths.

use crate::queue::MonotoneQueue;
use crate::{Cost, CostChange, EdgeId, Graph, NodeId};

/// Repair bails out once the affected region exceeds this fraction of the
/// node count — beyond it a fresh run's simple sweep beats the repair
/// pass's bookkeeping (see [`DijkstraWorkspace::repair`]).
const REGION_FRACTION: usize = 4;

/// Graphs are never too small to repair: the region may always grow to
/// this many vertices regardless of [`REGION_FRACTION`].
const REGION_FLOOR: usize = 8;

/// Result of a (multi-source) Dijkstra run.
///
/// Stores, for every node, the distance to the closest source, the parent
/// hop on a shortest path, and which source ("site") it is closest to — the
/// latter turns the structure into a Voronoi partition, which is what
/// Mehlhorn's Steiner approximation consumes. A tree with one root keeps no
/// site array: every reachable node's site is that root, so it holds 20
/// bytes a vertex where a multi-root tree holds 28.
///
/// # Examples
///
/// ```
/// use sof_graph::{Graph, Cost, NodeId, ShortestPaths};
///
/// let mut g = Graph::with_nodes(3);
/// g.add_edge(NodeId::new(0), NodeId::new(1), Cost::new(1.0));
/// g.add_edge(NodeId::new(1), NodeId::new(2), Cost::new(2.0));
/// let sp = ShortestPaths::from_source(&g, NodeId::new(0));
/// assert_eq!(sp.dist(NodeId::new(2)), Cost::new(3.0));
/// assert_eq!(
///     sp.path_to(NodeId::new(2)).unwrap(),
///     vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]
/// );
/// ```
#[derive(Clone, Debug)]
pub struct ShortestPaths {
    dist: Vec<Cost>,
    parent: Vec<Option<(NodeId, EdgeId)>>,
    /// Closest root per vertex; empty unless there are several roots.
    site: Vec<Option<NodeId>>,
    /// The root of a single-root tree: the site of everything reachable.
    root: Option<NodeId>,
}

impl ShortestPaths {
    /// Runs Dijkstra from a single source.
    pub fn from_source(graph: &Graph, source: NodeId) -> ShortestPaths {
        ShortestPaths::from_sources(graph, std::iter::once(source))
    }

    /// Runs Dijkstra from several sources at once.
    ///
    /// Every node is labelled with its closest source (`site`).
    ///
    /// This is a convenience wrapper around [`DijkstraWorkspace::tree`] on
    /// a fresh workspace; hot paths that run many Dijkstras should reuse a
    /// workspace (or go through [`crate::PathEngine`], which also memoizes
    /// whole trees) — both produce bit-identical results.
    ///
    /// # Panics
    ///
    /// Panics if any source is out of range.
    pub fn from_sources<I>(graph: &Graph, sources: I) -> ShortestPaths
    where
        I: IntoIterator<Item = NodeId>,
    {
        let mut roots: Vec<NodeId> = sources.into_iter().collect();
        roots.sort_unstable();
        roots.dedup();
        DijkstraWorkspace::new().tree(graph, &roots)
    }

    /// Distance from the closest source to `v`.
    #[inline]
    pub fn dist(&self, v: NodeId) -> Cost {
        self.dist[v.index()]
    }

    /// The source closest to `v`, or `None` if `v` is unreachable.
    #[inline]
    pub fn site(&self, v: NodeId) -> Option<NodeId> {
        self.site_at(v.index())
    }

    #[inline]
    fn site_at(&self, i: usize) -> Option<NodeId> {
        if self.site.is_empty() {
            self.root.filter(|_| self.dist[i].is_finite())
        } else {
            self.site[i]
        }
    }

    /// A single-root tree stores no sites: there is nothing to write.
    #[inline]
    fn set_site(&mut self, i: usize, s: Option<NodeId>) {
        if let Some(slot) = self.site.get_mut(i) {
            *slot = s;
        }
    }

    /// Parent hop of `v` on its shortest path, or `None` at sources and
    /// unreachable nodes.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<(NodeId, EdgeId)> {
        self.parent[v.index()]
    }

    /// Returns the shortest path from the closest source to `v` as a node
    /// sequence (source first), or `None` if `v` is unreachable.
    pub fn path_to(&self, v: NodeId) -> Option<Vec<NodeId>> {
        if !self.dist[v.index()].is_finite() {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while let Some((p, _)) = self.parent[cur.index()] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        Some(path)
    }

    /// Returns the edges of the shortest path to `v` (in source→`v` order).
    pub fn edges_to(&self, v: NodeId) -> Option<Vec<EdgeId>> {
        if !self.dist[v.index()].is_finite() {
            return None;
        }
        let mut edges = Vec::new();
        let mut cur = v;
        while let Some((p, e)) = self.parent[cur.index()] {
            edges.push(e);
            cur = p;
        }
        edges.reverse();
        Some(edges)
    }

    /// Number of nodes covered by this run.
    pub fn len(&self) -> usize {
        self.dist.len()
    }

    /// Returns `true` if the run covered no nodes.
    pub fn is_empty(&self) -> bool {
        self.dist.is_empty()
    }
}

/// Answer of a bounded search
/// ([`DijkstraWorkspace::nearest_target`]): the accepted target closest to
/// the source, exactly as a scan of the full tree would pick it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NearestTarget {
    /// Shortest-path distance from the source to `target`.
    pub cost: Cost,
    /// The nearest accepted target; among several at distance `cost`, the
    /// one with the smallest [`NodeId`].
    pub target: NodeId,
    /// The tree path realizing `cost`, source first and `target` last —
    /// the same hops a full tree's `path_to(target)` follows.
    pub path: Vec<NodeId>,
}

/// What [`DijkstraWorkspace::repair`] made of a cached tree and the cost
/// changes since it was computed.
#[derive(Debug)]
pub enum Repair {
    /// No change can touch the tree: the old tree *is* the fresh tree, and
    /// the caller keeps using it (no copy was made).
    Unchanged,
    /// The affected region was re-relaxed; the tree equals a fresh run's.
    Repaired(ShortestPaths),
    /// Repairing is not worthwhile or not provably exact; run cold.
    GaveUp,
}

/// Where a search keeps the labels it writes: the workspace's stamped
/// scratch ([`Stamped`]) or the tree a full run returns
/// ([`ShortestPaths`]). [`relax_from`] is the one loop over both.
trait Labels {
    fn dist(&self, i: usize) -> Cost;
    fn site(&self, i: usize) -> Option<NodeId>;
    fn write(&mut self, i: usize, d: Cost, p: Option<(NodeId, EdgeId)>, s: Option<NodeId>);
}

/// A full run labels the tree it returns in place: allocated unreached,
/// written once per improving relaxation, never copied.
impl Labels for ShortestPaths {
    #[inline]
    fn dist(&self, i: usize) -> Cost {
        self.dist[i]
    }

    #[inline]
    fn site(&self, i: usize) -> Option<NodeId> {
        self.site_at(i)
    }

    #[inline]
    fn write(&mut self, i: usize, d: Cost, p: Option<(NodeId, EdgeId)>, s: Option<NodeId>) {
        self.dist[i] = d;
        self.parent[i] = p;
        self.set_site(i, s);
    }
}

/// Epoch-stamped label arrays: a slot is live iff `stamp[i] == epoch`, so
/// one epoch bump resets them all.
#[derive(Clone, Debug, Default)]
struct Stamped {
    epoch: u64,
    stamp: Vec<u64>,
    dist: Vec<Cost>,
    parent: Vec<Option<(NodeId, EdgeId)>>,
    site: Vec<Option<NodeId>>,
}

impl Stamped {
    /// Grows the arrays to cover `n` vertices; `true` if they had to.
    fn fit(&mut self, n: usize) -> bool {
        let grows = self.stamp.len() < n;
        if grows {
            self.stamp.resize(n, 0);
            self.dist.resize(n, Cost::INFINITY);
            self.parent.resize(n, None);
            self.site.resize(n, None);
        }
        grows
    }

    #[inline]
    fn parent(&self, i: usize) -> Option<(NodeId, EdgeId)> {
        if self.stamp[i] == self.epoch {
            self.parent[i]
        } else {
            None
        }
    }
}

impl Labels for Stamped {
    #[inline]
    fn dist(&self, i: usize) -> Cost {
        if self.stamp[i] == self.epoch {
            self.dist[i]
        } else {
            Cost::INFINITY
        }
    }

    #[inline]
    fn site(&self, i: usize) -> Option<NodeId> {
        if self.stamp[i] == self.epoch {
            self.site[i]
        } else {
            None
        }
    }

    #[inline]
    fn write(&mut self, i: usize, d: Cost, p: Option<(NodeId, EdgeId)>, s: Option<NodeId>) {
        self.stamp[i] = self.epoch;
        self.dist[i] = d;
        self.parent[i] = p;
        self.site[i] = s;
    }
}

/// The one cold-search loop: multi-source Dijkstra over `labels` (all
/// unreached on entry), relaxing only the hops `allow` accepts, popping in
/// `(dist, node)` order and relaxing with strict `<`. Once a popped vertex
/// satisfies `is_target`, the loop finishes that distance — everything
/// popped at the same distance, including vertices discovered through
/// zero-cost hops after the first target — and stops at the first larger
/// key, returning the smallest-id target seen. With a target test that
/// never fires it labels everything reachable and returns `None`.
///
/// With `queue_leaves` off, an improving relaxation into a vertex of
/// degree 1 writes its label and does not queue it: the label is final the
/// moment the vertex's only neighbour is popped, and its own pop would
/// re-scan the arc it came in by and improve nothing, so every other entry
/// still pops in the same order and every label is the same
/// (`docs/DYNSSSP.md`, "Full runs"). Only a run that tests no target at the
/// pop may turn it off.
#[inline]
fn relax_from<L, I, F, T>(
    graph: &Graph,
    queue: &mut MonotoneQueue,
    labels: &mut L,
    sources: I,
    mut allow: F,
    mut is_target: T,
    queue_leaves: bool,
) -> Option<(Cost, NodeId)>
where
    L: Labels,
    I: IntoIterator<Item = NodeId>,
    F: FnMut(NodeId, EdgeId, NodeId) -> bool,
    T: FnMut(NodeId) -> bool,
{
    let n = graph.node_count();
    queue.clear();
    for s in sources {
        assert!(s.index() < n, "source {s} out of range");
        if labels.dist(s.index()) > Cost::ZERO {
            labels.write(s.index(), Cost::ZERO, None, Some(s));
            queue.push(Cost::ZERO, s);
        }
    }
    let mut nearest: Option<(Cost, NodeId)> = None;
    while let Some((d, u)) = queue.pop() {
        if nearest.is_some_and(|(bound, _)| d > bound) {
            break;
        }
        if d > labels.dist(u.index()) {
            continue;
        }
        if is_target(u) {
            nearest = Some(nearest.map_or((d, u), |best| best.min((d, u))));
        }
        let su = labels.site(u.index());
        for (v, e) in graph.neighbors(u) {
            if !allow(u, e, v) {
                continue;
            }
            let nd = d + graph.edge_cost(e);
            if nd < labels.dist(v.index()) {
                labels.write(v.index(), nd, Some((u, e)), su);
                if queue_leaves || graph.degree(v) != 1 {
                    queue.push(nd, v);
                }
            }
        }
    }
    nearest
}

/// A reusable Dijkstra scratchpad: epoch-stamped `dist`/`parent`/`site`
/// arrays plus an emptied monotone queue.
///
/// Resetting between runs is O(1) — a single epoch bump lazily invalidates
/// every slot — so once the arrays have grown to the graph size, repeated
/// [`run`](DijkstraWorkspace::run)s and bounded searches perform **zero
/// O(n) allocation**: that is what the incremental restarts of the
/// Takahashi–Matsuyama Steiner heuristic (re-seeded with the grown tree
/// each attachment) and [`nearest_target`](DijkstraWorkspace::nearest_target)
/// need. A full run whose tree outlives the workspace —
/// [`tree`](DijkstraWorkspace::tree), the engine under
/// [`ShortestPaths::from_sources`] and a [`crate::PathEngine`] miss —
/// bypasses the stamped arrays and labels the tree it returns in place,
/// sharing only the queue.
///
/// Both stores are labelled by the same relaxation loop popping in the same
/// ascending `(dist, node)` order (the queue's contract —
/// `docs/DYNSSSP.md`, "The queue"), so their results are bit-identical.
///
/// # Examples
///
/// ```
/// use sof_graph::{Cost, DijkstraWorkspace, Graph, NodeId};
///
/// let mut g = Graph::with_nodes(3);
/// g.add_edge(NodeId::new(0), NodeId::new(1), Cost::new(1.0));
/// g.add_edge(NodeId::new(1), NodeId::new(2), Cost::new(2.0));
/// let mut ws = DijkstraWorkspace::new();
/// ws.run(&g, [NodeId::new(0)]);
/// assert_eq!(ws.dist(NodeId::new(2)), Cost::new(3.0));
/// ws.run(&g, [NodeId::new(2)]); // reuses the same buffers
/// assert_eq!(ws.dist(NodeId::new(0)), Cost::new(3.0));
/// assert_eq!(ws.grows(), 1, "arrays were allocated exactly once");
/// let tree = ws.tree(&g, &[NodeId::new(0)]); // owned, written once
/// assert_eq!(tree.dist(NodeId::new(2)), Cost::new(3.0));
/// ```
#[derive(Clone, Debug, Default)]
pub struct DijkstraWorkspace {
    labels: Stamped,
    queue: MonotoneQueue,
    runs: u64,
    grows: u64,
    /// Vertices settled (popped with a final label) by the latest bounded
    /// search.
    settled: usize,
    /// Scratch for [`DijkstraWorkspace::repair`]: the affected region in
    /// discovery order, plus a child-list CSR over the old tree's parent
    /// pointers (offsets and flattened child ids).
    region: Vec<NodeId>,
    kid_off: Vec<u32>,
    kids: Vec<u32>,
}

impl DijkstraWorkspace {
    /// Creates an empty workspace; arrays grow on first use.
    pub fn new() -> DijkstraWorkspace {
        DijkstraWorkspace::default()
    }

    /// Runs multi-source Dijkstra over `graph`, reusing the workspace's
    /// buffers. Previous results are invalidated by a single epoch bump —
    /// no per-node clearing, no allocation once the arrays fit the graph.
    ///
    /// # Panics
    ///
    /// Panics if any source is out of range.
    pub fn run<I>(&mut self, graph: &Graph, sources: I)
    where
        I: IntoIterator<Item = NodeId>,
    {
        self.search(graph, sources, |_, _, _| true, |_| false);
    }

    /// Full run from `roots` (sorted and deduplicated, as
    /// [`crate::PathEngine`] keys them) into a tree of its own: `dist` and
    /// `parent` — and `site` only for several roots — are allocated
    /// unreached and labelled in place, so the tree is written once and
    /// nothing is copied out of the workspace, whose latest
    /// [`run`](DijkstraWorkspace::run) stays readable. Labels equal
    /// `run`'s bit for bit; vertices of degree 1 are labelled without
    /// being queued (`docs/DYNSSSP.md`, "Full runs").
    ///
    /// # Panics
    ///
    /// Panics if any root is out of range.
    pub fn tree(&mut self, graph: &Graph, roots: &[NodeId]) -> ShortestPaths {
        debug_assert!(roots.windows(2).all(|w| w[0] < w[1]), "unsorted roots");
        let n = graph.node_count();
        let mut tree = ShortestPaths {
            dist: vec![Cost::INFINITY; n],
            parent: vec![None; n],
            site: if roots.len() > 1 {
                vec![None; n]
            } else {
                Vec::new()
            },
            root: match roots {
                [root] => Some(*root),
                _ => None,
            },
        };
        self.runs += 1;
        relax_from(
            graph,
            &mut self.queue,
            &mut tree,
            roots.iter().copied(),
            |_, _, _| true,
            |_| false,
            false,
        );
        tree
    }

    /// Bounded search: the `is_target` vertex closest to `source` when
    /// only the hops `allow(from, edge, to)` accepts may be taken, with its
    /// distance and tree path — or `None` when no target is reachable.
    ///
    /// The answer is **exactly** what scanning a full (equally filtered)
    /// tree for the cheapest target, lowest [`NodeId`] first and replacing
    /// only on strictly smaller distance, would return, but the search
    /// stops as soon as every vertex no farther than that target is
    /// settled: it costs O(ball around `source`), not O(n). The argument
    /// is in `docs/DYNSSSP.md` ("Bounded search"); in short, the loop is
    /// [`run`](DijkstraWorkspace::run)'s own, a settled vertex's distance
    /// and parent hop are final, and the loop keeps going until the popped
    /// distance *exceeds* the first settled target's, so a target behind a
    /// zero-cost hop at the same distance is seen too.
    ///
    /// Labels beyond that distance are tentative, so the epoch is retired
    /// before returning (as [`repair`](DijkstraWorkspace::repair) does):
    /// afterwards the accessors read "no run", never a truncated tree.
    /// [`settled`](DijkstraWorkspace::settled) reports the work done.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn nearest_target<F, T>(
        &mut self,
        graph: &Graph,
        source: NodeId,
        allow: F,
        mut is_target: T,
    ) -> Option<NearestTarget>
    where
        F: FnMut(NodeId, EdgeId, NodeId) -> bool,
        T: FnMut(NodeId) -> bool,
    {
        // The target test runs exactly once per settled vertex, so it
        // does the counting: `run`'s loop carries no counter.
        let mut settled = 0;
        let found = self
            .search(graph, [source], allow, |v| {
                settled += 1;
                is_target(v)
            })
            .map(|(cost, target)| NearestTarget {
                cost,
                target,
                path: self.path_to(target).expect("a settled target is labelled"),
            });
        self.settled = settled;
        self.labels.epoch += 1;
        found
    }

    /// [`relax_from`] on the stamped arrays, every reached vertex queued:
    /// a bounded search tests its targets at the pop, and VMs and
    /// destinations are leaves.
    #[inline]
    fn search<I, F, T>(
        &mut self,
        graph: &Graph,
        sources: I,
        allow: F,
        is_target: T,
    ) -> Option<(Cost, NodeId)>
    where
        I: IntoIterator<Item = NodeId>,
        F: FnMut(NodeId, EdgeId, NodeId) -> bool,
        T: FnMut(NodeId) -> bool,
    {
        self.grows += u64::from(self.labels.fit(graph.node_count()));
        self.labels.epoch += 1;
        self.runs += 1;
        relax_from(
            graph,
            &mut self.queue,
            &mut self.labels,
            sources,
            allow,
            is_target,
            true,
        )
    }

    /// Distance from the closest source of the latest run to `v`.
    #[inline]
    pub fn dist(&self, v: NodeId) -> Cost {
        self.labels.dist(v.index())
    }

    /// The source closest to `v` in the latest run.
    #[inline]
    pub fn site(&self, v: NodeId) -> Option<NodeId> {
        self.labels.site(v.index())
    }

    /// Parent hop of `v` in the latest run.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<(NodeId, EdgeId)> {
        self.labels.parent(v.index())
    }

    /// Shortest path from the closest source to `v` (source first), or
    /// `None` if `v` is unreachable. Allocates only the returned path.
    pub fn path_to(&self, v: NodeId) -> Option<Vec<NodeId>> {
        if !self.dist(v).is_finite() {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while let Some((p, _)) = self.parent(cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        Some(path)
    }

    /// Edges of the shortest path to `v` in source→`v` order.
    pub fn edges_to(&self, v: NodeId) -> Option<Vec<EdgeId>> {
        if !self.dist(v).is_finite() {
            return None;
        }
        let mut edges = Vec::new();
        let mut cur = v;
        while let Some((p, e)) = self.parent(cur) {
            edges.push(e);
            cur = p;
        }
        edges.reverse();
        Some(edges)
    }

    /// Dynamic-SSSP tree repair (Ramalingam–Reps style): given the tree
    /// `old` previously computed for `sources` and the cost-journal slice
    /// `changes` that separates it from `graph`'s current costs, decides
    /// whether any change can touch the tree and, if so, rebuilds only the
    /// *affected region*. Either way the answer is **bit-identical to a
    /// fresh Dijkstra** — distances, parent hops, Voronoi sites and every
    /// tie-break included (the identity argument lives in
    /// `docs/DYNSSSP.md`).
    ///
    /// [`Repair::Unchanged`] costs O(|changes|) and copies nothing.
    /// [`Repair::GaveUp`] means repairing is not worthwhile — the affected
    /// region (dirty seeds plus their whole old-tree subtrees) exceeds
    /// `max(8, n / 4)` vertices, or `old` does not cover the graph — or
    /// not provably exact (an ambiguous zero-cost plateau tie). The caller
    /// then falls back to a cold run.
    ///
    /// The pass reuses the workspace's queue and stamp buffers (the stamp
    /// array doubles as the region marker), so a re-relaxation's only O(n)
    /// work is the child-list pass and the output clone — what `old`
    /// stores, so no site array for a single-root tree, which is what a
    /// cold miss allocates for its tree anyway. The workspace's previous
    /// run is invalidated, exactly as a fresh
    /// [`run`](DijkstraWorkspace::run) would invalidate it.
    pub fn repair(
        &mut self,
        graph: &Graph,
        old: &ShortestPaths,
        sources: &[NodeId],
        changes: &[CostChange],
    ) -> Repair {
        let n = graph.node_count();
        if old.len() != n {
            return Repair::GaveUp;
        }
        self.grows += u64::from(self.labels.fit(n));
        let cap = REGION_FLOOR.max(n / REGION_FRACTION);
        self.labels.epoch += 1;
        self.queue.clear();
        self.region.clear();

        // Phase 1a: seed the region with every vertex a dirtied edge can
        // invalidate. Per direction x→y of a changed edge with current
        // cost c: the tree hop into y was repriced off its label, or a
        // non-tree hop now wins or ties a relaxation into y (`<=` keeps
        // tie flips, which can move parents and sites without moving
        // distances).
        for ch in changes {
            let edge = graph.edge(ch.edge);
            let c = edge.cost;
            for (x, y) in [(edge.u, edge.v), (edge.v, edge.u)] {
                let (dx, dy) = (old.dist(x), old.dist(y));
                let dirty = if old.parent(y) == Some((x, ch.edge)) {
                    dx + c != dy
                } else {
                    dx.is_finite() && dx + c <= dy
                };
                if dirty && self.labels.stamp[y.index()] != self.labels.epoch {
                    self.labels.stamp[y.index()] = self.labels.epoch;
                    self.region.push(y);
                    if self.region.len() > cap {
                        self.labels.epoch += 1;
                        return Repair::GaveUp;
                    }
                }
            }
        }
        if self.region.is_empty() {
            // Every change provably lost every relaxation (or restored a
            // tree hop to the cost its label was built from): the old tree
            // is the fresh tree.
            return Repair::Unchanged;
        }

        // Phase 1b: close the region downward. Every old-tree descendant
        // of a dirty vertex inherited its label through it, so it must be
        // relabelled too. Child lists come from one counting pass over
        // the parent array (CSR layout in kid_off/kids).
        self.kid_off.clear();
        self.kid_off.resize(n + 1, 0);
        for v in 0..n {
            if let Some((p, _)) = old.parent[v] {
                self.kid_off[p.index() + 1] += 1;
            }
        }
        for i in 0..n {
            self.kid_off[i + 1] += self.kid_off[i];
        }
        self.kids.clear();
        self.kids.resize(n, 0);
        for v in 0..n {
            if let Some((p, _)) = old.parent[v] {
                let slot = self.kid_off[p.index()];
                self.kids[slot as usize] = v as u32;
                self.kid_off[p.index()] += 1;
            }
        }
        // After the fill, kid_off[p] is the END of p's child range and
        // the start is kid_off[p - 1] (0 for p == 0).
        let mut cursor = 0;
        while cursor < self.region.len() {
            let x = self.region[cursor].index();
            cursor += 1;
            let start = if x == 0 { 0 } else { self.kid_off[x - 1] };
            for i in start..self.kid_off[x] {
                let k = self.kids[i as usize] as usize;
                if self.labels.stamp[k] != self.labels.epoch {
                    self.labels.stamp[k] = self.labels.epoch;
                    self.region.push(NodeId::new(k));
                    if self.region.len() > cap {
                        self.labels.epoch += 1;
                        return Repair::GaveUp;
                    }
                }
            }
        }

        // Phase 2: restricted Dijkstra. Labels live in a clone of the old
        // tree; region labels are invalidated, region sources re-seeded,
        // and every still-valid vertex adjacent to the region is queued
        // at its old label — the same (dist, node) key a full run would
        // pop it with. All of it before the first pop, so no seed can
        // undercut one (the queue's monotonicity precondition).
        let mut sp = old.clone();
        for &v in &self.region {
            sp.write(v.index(), Cost::INFINITY, None, None);
        }
        for &s in sources {
            if self.labels.stamp[s.index()] == self.labels.epoch {
                sp.write(s.index(), Cost::ZERO, None, Some(s));
                self.queue.push(Cost::ZERO, s);
            }
        }
        for &v in &self.region {
            for (b, _) in graph.neighbors(v) {
                let bi = b.index();
                if self.labels.stamp[bi] != self.labels.epoch && sp.dist[bi].is_finite() {
                    self.queue.push(sp.dist[bi], b);
                }
            }
        }
        while let Some((d, u)) = self.queue.pop() {
            if d > sp.dist[u.index()] {
                continue;
            }
            let su = sp.site(u);
            for (v, e) in graph.neighbors(u) {
                let vi = v.index();
                let nd = d + graph.edge_cost(e);
                if nd < sp.dist[vi] {
                    // Plain fresh semantics; a still-valid vertex that
                    // improves joins the region from here on.
                    self.labels.stamp[vi] = self.labels.epoch;
                    sp.write(vi, nd, Some((u, e)), su);
                    self.queue.push(nd, v);
                } else if nd == sp.dist[vi] {
                    // A tie. A fresh run parents v on the first proposer in
                    // *pop* order, and pop order equals (dist, node) key
                    // order except for vertices whose own parent hop costs
                    // zero: those are discovered through an equal-distance
                    // plateau and are queued later than their key
                    // suggests. When such a "displaced" vertex takes part
                    // in an equal-key contest, no local rule can
                    // reconstruct the fresh order — give up and let the
                    // caller run cold. (Zero-cost edges are a modeling
                    // idiom here: VM nodes attach to their datacenter at
                    // cost zero, so ordinary repairs must survive them; a
                    // leaf VM never contests anything, and the bail below
                    // fires only on genuine plateau ambiguity, e.g. a
                    // source VM whose zero chain fans out.)
                    let displaced = |sp: &ShortestPaths, x: NodeId| {
                        sp.parent[x.index()]
                            .is_some_and(|(px, _)| sp.dist[px.index()] == sp.dist[x.index()])
                    };
                    if let Some((p, pe)) = sp.parent[vi] {
                        if d == sp.dist[p.index()] && (displaced(&sp, u) || displaced(&sp, p)) {
                            self.labels.epoch += 1;
                            return Repair::GaveUp;
                        }
                        if self.labels.stamp[vi] != self.labels.epoch {
                            // Still-valid label: flip when this candidate's
                            // key strictly beats the stored parent's, and
                            // cascade site changes through unchanged parent
                            // hops (they move Voronoi ownership without
                            // moving distances). Region labels keep their
                            // first proposer — same as a fresh run's
                            // strict-< rule.
                            if p == u && pe == e {
                                if sp.site(v) != su {
                                    sp.set_site(vi, su);
                                    self.queue.push(nd, v);
                                }
                            } else if (d, u) < (sp.dist[p.index()], p) {
                                sp.parent[vi] = Some((u, e));
                                sp.set_site(vi, su);
                                self.queue.push(nd, v);
                            }
                        }
                    }
                    // A source (no parent) never gains one on a tie.
                }
            }
        }
        // The stamp array was borrowed as the region marker, so the
        // workspace's label arrays no longer correspond to it; retire the
        // epoch so the accessors read as "no run" rather than garbage.
        self.labels.epoch += 1;
        Repair::Repaired(sp)
    }

    /// Number of runs performed.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Number of times the arrays had to (re)grow — stays at 1 across any
    /// number of runs on same-sized graphs, which is how tests pin the
    /// "zero O(n) allocation on the warm path" guarantee.
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// Vertices settled — popped with their final label — by the latest
    /// [`nearest_target`](DijkstraWorkspace::nearest_target): the ball
    /// around its source. A deterministic measure of the work the search
    /// did ([`run`](DijkstraWorkspace::run) settles every reachable vertex
    /// and does not count).
    pub fn settled(&self) -> usize {
        self.settled
    }

    /// Queue entries re-placed by bucket redistribution over the
    /// workspace's lifetime — searches and repairs alike. The queue's
    /// deterministic work count: it depends only on the sequence of pushes
    /// and pops, so it is byte-stable where wall-clock is not.
    pub fn queue_moves(&self) -> u64 {
        self.queue.moves()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 -1- 1 -1- 2
    ///  \----5----/     plus isolated node 3
    fn diamond() -> Graph {
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId::new(0), NodeId::new(1), Cost::new(1.0));
        g.add_edge(NodeId::new(1), NodeId::new(2), Cost::new(1.0));
        g.add_edge(NodeId::new(0), NodeId::new(2), Cost::new(5.0));
        g
    }

    #[test]
    fn single_source_distances() {
        let g = diamond();
        let sp = ShortestPaths::from_source(&g, NodeId::new(0));
        assert_eq!(sp.dist(NodeId::new(0)), Cost::ZERO);
        assert_eq!(sp.dist(NodeId::new(2)), Cost::new(2.0));
        assert_eq!(sp.dist(NodeId::new(3)), Cost::INFINITY);
        assert_eq!(sp.path_to(NodeId::new(3)), None);
    }

    #[test]
    fn path_reconstruction() {
        let g = diamond();
        let sp = ShortestPaths::from_source(&g, NodeId::new(0));
        let path = sp.path_to(NodeId::new(2)).unwrap();
        assert_eq!(path, vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]);
        let edges = sp.edges_to(NodeId::new(2)).unwrap();
        assert_eq!(edges.len(), 2);
        let total: Cost = edges.iter().map(|&e| g.edge_cost(e)).sum();
        assert_eq!(total, Cost::new(2.0));
    }

    #[test]
    fn multi_source_voronoi() {
        let mut g = Graph::with_nodes(5);
        // 0 -1- 1 -1- 2 -1- 3 -1- 4; sources 0 and 4.
        for i in 0..4 {
            g.add_edge(NodeId::new(i), NodeId::new(i + 1), Cost::new(1.0));
        }
        let sp = ShortestPaths::from_sources(&g, [NodeId::new(0), NodeId::new(4)]);
        assert_eq!(sp.site(NodeId::new(1)), Some(NodeId::new(0)));
        assert_eq!(sp.site(NodeId::new(3)), Some(NodeId::new(4)));
        assert_eq!(sp.dist(NodeId::new(2)), Cost::new(2.0));
        // Sites of the sources themselves.
        assert_eq!(sp.site(NodeId::new(0)), Some(NodeId::new(0)));
        assert_eq!(sp.site(NodeId::new(4)), Some(NodeId::new(4)));
    }

    #[test]
    fn duplicate_sources_are_fine() {
        let g = diamond();
        let sp = ShortestPaths::from_sources(&g, [NodeId::new(0), NodeId::new(0)]);
        assert_eq!(sp.dist(NodeId::new(1)), Cost::new(1.0));
    }

    #[test]
    fn zero_cost_edges() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId::new(0), NodeId::new(1), Cost::ZERO);
        g.add_edge(NodeId::new(1), NodeId::new(2), Cost::ZERO);
        let sp = ShortestPaths::from_source(&g, NodeId::new(0));
        assert_eq!(sp.dist(NodeId::new(2)), Cost::ZERO);
        assert_eq!(sp.path_to(NodeId::new(2)).unwrap().len(), 3);
    }

    #[test]
    fn filtered_run_routes_around_banned_hops() {
        let g = diamond();
        // Unfiltered, the cheap route 0→1→2 wins; banning the 0–1 hop
        // forces the expensive direct edge instead of mutating any cost.
        // A target test nothing matches makes the search label everything
        // the filter lets it reach.
        let banned = (NodeId::new(0), NodeId::new(1));
        let mut ws = DijkstraWorkspace::new();
        let none = ws.search(
            &g,
            [NodeId::new(0)],
            |u, _, v| (u.min(v), u.max(v)) != banned,
            |_| false,
        );
        assert_eq!(none, None);
        assert_eq!(ws.dist(NodeId::new(2)), Cost::new(5.0));
        assert_eq!(
            ws.path_to(NodeId::new(2)).unwrap(),
            vec![NodeId::new(0), NodeId::new(2)]
        );
        assert_eq!(ws.dist(NodeId::new(1)), Cost::new(6.0), "via 2");
        // The same filter, bounded: node 1 is the only target, and its
        // answer is the label the full filtered run gave it.
        let hit = ws
            .nearest_target(
                &g,
                NodeId::new(0),
                |u, _, v| (u.min(v), u.max(v)) != banned,
                |v| v == NodeId::new(1),
            )
            .unwrap();
        assert_eq!((hit.cost, hit.target), (Cost::new(6.0), NodeId::new(1)));
        assert_eq!(
            hit.path,
            vec![NodeId::new(0), NodeId::new(2), NodeId::new(1)]
        );
        // An all-pass filter matches the unfiltered run exactly.
        ws.search(&g, [NodeId::new(0)], |_, _, _| true, |_| false);
        let reference = ShortestPaths::from_source(&g, NodeId::new(0));
        for v in g.nodes() {
            assert_eq!(ws.dist(v), reference.dist(v));
            assert_eq!(ws.parent(v), reference.parent(v));
            assert_eq!(ws.path_to(v), reference.path_to(v));
        }
    }

    #[test]
    fn bounded_search_stops_at_the_nearest_target() {
        // 0 -1- 1 -1- 2 -1- 3 -1- 4 -1- 5: from 0 with targets {2, 5} the
        // search settles 0, 1, 2 and stops when 3 is popped.
        let mut g = Graph::with_nodes(6);
        for i in 0..5 {
            g.add_edge(NodeId::new(i), NodeId::new(i + 1), Cost::new(1.0));
        }
        let mut ws = DijkstraWorkspace::new();
        let targets = [NodeId::new(2), NodeId::new(5)];
        let hit = ws
            .nearest_target(&g, NodeId::new(0), |_, _, _| true, |v| targets.contains(&v))
            .unwrap();
        assert_eq!((hit.cost, hit.target), (Cost::new(2.0), NodeId::new(2)));
        assert_eq!(
            hit.path,
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]
        );
        assert_eq!(ws.settled(), 3);
        // The truncated run is retired: nothing of it can be read back as
        // if it were a tree.
        assert_eq!(ws.dist(NodeId::new(1)), Cost::INFINITY);
        assert_eq!(ws.dist(NodeId::new(0)), Cost::INFINITY);
        assert_eq!(ws.parent(NodeId::new(2)), None);
        assert_eq!(ws.path_to(NodeId::new(2)), None);
        // The source itself may be the target.
        let own = ws
            .nearest_target(&g, NodeId::new(5), |_, _, _| true, |v| targets.contains(&v))
            .unwrap();
        assert_eq!((own.cost, own.target), (Cost::ZERO, NodeId::new(5)));
        assert_eq!(own.path, vec![NodeId::new(5)]);
        assert_eq!(ws.settled(), 1);
        // No reachable target: None, after labelling all that is reachable.
        assert_eq!(
            ws.nearest_target(&g, NodeId::new(0), |_, _, _| true, |_| false),
            None
        );
        assert_eq!(ws.settled(), 6);
        // And the workspace is as good as new for a full run.
        ws.run(&g, [NodeId::new(0)]);
        assert_eq!(ws.dist(NodeId::new(5)), Cost::new(5.0));
        assert_eq!(ws.grows(), 1);
    }

    #[test]
    fn bounded_search_finishes_the_distance_of_its_first_target() {
        // 0 -2- 3, 0 -2- 2 -0- 1: targets 3 and 1 both sit at distance 2.
        // Node 2 pops before 3 and pushes 1 at the same key; 1 pops first
        // and is the answer. With node 1's hop at cost zero from *3*
        // instead, 3 pops first and 1 is only discovered afterwards — the
        // loop must keep going at distance 2 to see it.
        for via in [2usize, 3] {
            let mut g = Graph::with_nodes(4);
            g.add_edge(NodeId::new(0), NodeId::new(3), Cost::new(2.0));
            g.add_edge(NodeId::new(0), NodeId::new(2), Cost::new(2.0));
            g.add_edge(NodeId::new(via), NodeId::new(1), Cost::ZERO);
            let targets = [NodeId::new(1), NodeId::new(3)];
            let mut ws = DijkstraWorkspace::new();
            let hit = ws
                .nearest_target(&g, NodeId::new(0), |_, _, _| true, |v| targets.contains(&v))
                .unwrap();
            let full = ShortestPaths::from_source(&g, NodeId::new(0));
            assert_eq!(full.dist(NodeId::new(1)), full.dist(NodeId::new(3)));
            assert_eq!(
                (hit.cost, hit.target),
                (Cost::new(2.0), NodeId::new(1)),
                "via {via}: the lowest id among the targets tied at the bound"
            );
            assert_eq!(Some(hit.path), full.path_to(NodeId::new(1)), "via {via}");
        }
    }

    #[test]
    fn workspace_reuse_leaves_no_stale_state() {
        let g = diamond();
        let mut ws = DijkstraWorkspace::new();
        ws.run(&g, [NodeId::new(0)]);
        assert_eq!(ws.dist(NodeId::new(2)), Cost::new(2.0));
        // Re-run from the isolated node: every previous label must read as
        // unreachable, not leak through from the first run.
        ws.run(&g, [NodeId::new(3)]);
        assert_eq!(ws.dist(NodeId::new(0)), Cost::INFINITY);
        assert_eq!(ws.dist(NodeId::new(2)), Cost::INFINITY);
        assert_eq!(ws.site(NodeId::new(1)), None);
        assert_eq!(ws.parent(NodeId::new(1)), None);
        assert_eq!(ws.path_to(NodeId::new(0)), None);
        assert_eq!(ws.dist(NodeId::new(3)), Cost::ZERO);
        assert_eq!(ws.runs(), 2);
        assert_eq!(ws.grows(), 1, "second run must not reallocate");
    }

    #[test]
    fn workspace_matches_from_sources_on_random_graphs() {
        for seed in 0..6u64 {
            let mut rng = crate::Rng64::seed_from(seed);
            let mut g = crate::generators::gnp_connected(
                40,
                0.12,
                crate::CostRange::new(1.0, 7.0),
                &mut rng,
            );
            // A zero-cost leaf, as VMs are attached, and a vertex no root
            // reaches: its site is `None` in both stores.
            let vm = g.add_node();
            g.add_edge(NodeId::new(5), vm, Cost::ZERO);
            let island = g.add_node();
            let mut ws = DijkstraWorkspace::new();
            for sources in [vec![0usize], vec![40], vec![3, 17], vec![1, 2, 39, 40]] {
                let srcs: Vec<NodeId> = sources.iter().map(|&i| NodeId::new(i)).collect();
                let reference = ShortestPaths::from_sources(&g, srcs.iter().copied());
                // The stamped run queues leaves and carries a site per
                // vertex whatever the root count: it is the reference for
                // the sites a single-root tree answers without storing.
                assert_eq!(reference.site.is_empty(), srcs.len() == 1);
                ws.run(&g, srcs.iter().copied());
                for v in g.nodes() {
                    assert_eq!(ws.dist(v), reference.dist(v), "seed {seed} node {v}");
                    assert_eq!(ws.parent(v), reference.parent(v));
                    assert_eq!(ws.site(v), reference.site(v), "seed {seed} node {v}");
                    assert_eq!(ws.path_to(v), reference.path_to(v));
                    assert_eq!(ws.edges_to(v), reference.edges_to(v));
                }
                assert_eq!(reference.site(island), None);
                // A full run on the warm workspace leaves the stamped run
                // readable and equals the fresh workspace's tree.
                let tree = ws.tree(&g, &srcs);
                assert_tree_identical(&g, &tree, &reference, "warm workspace");
                assert_eq!(ws.site(vm), reference.site(vm));
            }
            assert_eq!(ws.grows(), 1);
        }
    }

    /// The memory witness: the tree an engine miss caches for one root
    /// stores no site per vertex — 20 bytes a vertex, not 28 — and still
    /// answers `site` with its root; several roots do store them. Sunk by
    /// `tree` allocating `site` whatever the root count, which no
    /// equivalence test sees: the answers are the same.
    #[test]
    fn single_root_engine_trees_store_no_sites() {
        let mut rng = crate::Rng64::seed_from(13);
        let mut g = crate::generators::inet_like(300, 600, crate::CostRange::UNIT, &mut rng);
        let vms: Vec<NodeId> = (0..25)
            .map(|_| {
                let vm = g.add_node();
                g.add_edge(NodeId::new(rng.below(300)), vm, Cost::ZERO);
                vm
            })
            .collect();
        let engine = crate::PathEngine::new();
        for &vm in &vms {
            let tree = engine.from_source(&g, vm);
            assert_eq!(tree.site.capacity(), 0, "tree rooted at {vm}");
            assert!(g.nodes().all(|v| tree.site(v) == Some(vm)));
        }
        assert_eq!(engine.stats().misses, 25);
        let voronoi = engine.from_sources(&g, &vms);
        assert_eq!(voronoi.site.len(), g.node_count());
        assert!(vms.iter().all(|&vm| voronoi.site(vm) == Some(vm)));
    }

    /// The tree a repair outcome stands for (`None`: the caller runs cold).
    fn tree_of(outcome: Repair, old: &ShortestPaths) -> Option<ShortestPaths> {
        match outcome {
            Repair::Unchanged => Some(old.clone()),
            Repair::Repaired(tree) => Some(tree),
            Repair::GaveUp => None,
        }
    }

    /// Repaired trees must match a fresh run on every label — distance,
    /// parent hop, and site — not just distances.
    fn assert_tree_identical(g: &Graph, got: &ShortestPaths, want: &ShortestPaths, ctx: &str) {
        for v in g.nodes() {
            assert_eq!(got.dist(v), want.dist(v), "{ctx}: dist of {v}");
            assert_eq!(got.parent(v), want.parent(v), "{ctx}: parent of {v}");
            assert_eq!(got.site(v), want.site(v), "{ctx}: site of {v}");
        }
    }

    #[test]
    fn repair_matches_fresh_after_reprice() {
        let mut g = diamond();
        let srcs = [NodeId::new(0)];
        let old = ShortestPaths::from_sources(&g, srcs);
        let e0 = g.cost_epoch();
        // Reprice the 0-1 edge up so the 0-2 direct edge wins.
        g.set_edge_cost(EdgeId::new(0), Cost::new(9.0));
        let changes = g.cost_changes_since(e0).unwrap().to_vec();
        let mut ws = DijkstraWorkspace::new();
        let repaired = tree_of(ws.repair(&g, &old, &srcs, &changes), &old).expect("region is tiny");
        let fresh = ShortestPaths::from_sources(&g, srcs);
        assert_tree_identical(&g, &repaired, &fresh, "reprice up");
        assert_eq!(repaired.dist(NodeId::new(2)), Cost::new(5.0));
    }

    #[test]
    fn repair_handles_losing_and_winning_changes() {
        let mut g = diamond();
        let srcs = [NodeId::new(0)];
        let old = ShortestPaths::from_sources(&g, srcs);
        let e0 = g.cost_epoch();
        // A non-tree edge getting *worse* provably changes nothing...
        g.set_edge_cost(EdgeId::new(2), Cost::new(50.0));
        let changes = g.cost_changes_since(e0).unwrap().to_vec();
        let mut ws = DijkstraWorkspace::new();
        assert!(matches!(
            ws.repair(&g, &old, &srcs, &changes),
            Repair::Unchanged
        ));
        // ...while the same edge getting *better* flips node 2's parent.
        let e1 = g.cost_epoch();
        g.set_edge_cost(EdgeId::new(2), Cost::new(0.5));
        let changes = g.cost_changes_since(e1).unwrap().to_vec();
        let repaired = tree_of(ws.repair(&g, &old, &srcs, &changes), &old).unwrap();
        let fresh = ShortestPaths::from_sources(&g, srcs);
        assert_tree_identical(&g, &repaired, &fresh, "winning change");
        assert_eq!(
            repaired.parent(NodeId::new(2)),
            Some((NodeId::new(0), EdgeId::new(2)))
        );
    }

    #[test]
    fn repair_preserves_tie_breaks_and_sites() {
        // Path 0-1-2-3-4 with sources at both ends; repricing 3-4 moves
        // the Voronoi boundary, and tie-breaks at the midpoint must come
        // out exactly as a fresh run's.
        let mut g = Graph::with_nodes(5);
        for i in 0..4 {
            g.add_edge(NodeId::new(i), NodeId::new(i + 1), Cost::new(1.0));
        }
        let srcs = [NodeId::new(0), NodeId::new(4)];
        let old = ShortestPaths::from_sources(&g, srcs);
        let e0 = g.cost_epoch();
        g.set_edge_cost(EdgeId::new(3), Cost::new(3.0));
        let changes = g.cost_changes_since(e0).unwrap().to_vec();
        let mut ws = DijkstraWorkspace::new();
        let repaired = tree_of(ws.repair(&g, &old, &srcs, &changes), &old).unwrap();
        let fresh = ShortestPaths::from_sources(&g, srcs);
        assert_tree_identical(&g, &repaired, &fresh, "tie after reprice");
        // The tie at node 3 goes to source 4: it proposed first (popped at
        // distance 0) and fresh Dijkstra never overwrites on equality.
        assert_eq!(repaired.site(NodeId::new(3)), Some(NodeId::new(4)));
    }

    #[test]
    fn repair_survives_leaf_vm_zero_edges() {
        // The codebase attaches VM nodes to their datacenter at cost zero;
        // a leaf behind a zero edge never contests a tie, so repairs must
        // keep working in its presence. 0 --3(e0)-- 1 --0(e1)-- 2 (vm),
        // 0 --1(e2)-- 3 --1(e3)-- 1.
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId::new(0), NodeId::new(1), Cost::new(3.0));
        g.add_edge(NodeId::new(1), NodeId::new(2), Cost::ZERO);
        g.add_edge(NodeId::new(0), NodeId::new(3), Cost::new(1.0));
        g.add_edge(NodeId::new(3), NodeId::new(1), Cost::new(1.0));
        let srcs = [NodeId::new(0)];
        let old = ShortestPaths::from_sources(&g, srcs);
        assert_eq!(old.dist(NodeId::new(2)), Cost::new(2.0));
        let e0 = g.cost_epoch();
        // Repricing the 3-1 hop dirties node 1 and its vm child.
        g.set_edge_cost(EdgeId::new(3), Cost::new(5.0));
        let changes = g.cost_changes_since(e0).unwrap().to_vec();
        let mut ws = DijkstraWorkspace::new();
        let repaired = tree_of(ws.repair(&g, &old, &srcs, &changes), &old)
            .expect("a leaf vm plateau must not block the repair");
        let fresh = ShortestPaths::from_sources(&g, srcs);
        assert_tree_identical(&g, &repaired, &fresh, "leaf vm zero edge");
        assert_eq!(repaired.dist(NodeId::new(2)), Cost::new(3.0));
    }

    #[test]
    fn repair_bails_on_ambiguous_zero_cost_plateau() {
        // A source VM whose zero chain fans out: 3 --0(e0)-- 0 --0(e1)-- 2,
        // plus positive edges 1-0 and 1-2. Every vertex on the plateau
        // {3, 0, 2} sits at distance zero, and a fresh run settles their
        // parent contests by *discovery* order — which the repair cannot
        // reconstruct locally, so it must refuse rather than guess.
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId::new(3), NodeId::new(0), Cost::ZERO);
        g.add_edge(NodeId::new(0), NodeId::new(2), Cost::ZERO);
        g.add_edge(NodeId::new(1), NodeId::new(0), Cost::new(5.0));
        g.add_edge(NodeId::new(1), NodeId::new(2), Cost::new(4.0));
        let srcs = [NodeId::new(3)];
        let old = ShortestPaths::from_sources(&g, srcs);
        assert_eq!(
            old.parent(NodeId::new(2)),
            Some((NodeId::new(0), EdgeId::new(1)))
        );
        let e0 = g.cost_epoch();
        // Reprice node 1's tree hop so its relabelling walks the plateau
        // boundary, where the displaced-vertex contests live.
        g.set_edge_cost(EdgeId::new(3), Cost::new(6.0));
        let changes = g.cost_changes_since(e0).unwrap().to_vec();
        let mut ws = DijkstraWorkspace::new();
        assert!(
            matches!(ws.repair(&g, &old, &srcs, &changes), Repair::GaveUp),
            "ambiguous plateau ties must fall back to a cold run"
        );
        // The workspace stays reusable after the bail.
        ws.run(&g, srcs);
        let fresh = ShortestPaths::from_sources(&g, srcs);
        for v in g.nodes() {
            assert_eq!(ws.dist(v), fresh.dist(v), "post-bail run: dist of {v}");
            assert_eq!(ws.parent(v), fresh.parent(v), "post-bail run: {v}");
            assert_eq!(ws.site(v), fresh.site(v), "post-bail run: site of {v}");
        }
    }

    #[test]
    fn repair_bails_when_region_is_large_or_graph_changed_shape() {
        let mut rng = crate::Rng64::seed_from(7);
        let mut g =
            crate::generators::gnp_connected(60, 0.1, crate::CostRange::new(1.0, 7.0), &mut rng);
        let srcs = [NodeId::new(0)];
        let old = ShortestPaths::from_sources(&g, srcs);
        let e0 = g.cost_epoch();
        // Reprice a big slice of the edge set: the dirty region blows
        // past max(8, n/4) and the caller must fall back to a cold run.
        let m = g.edge_count();
        for e in 0..m / 2 {
            let c = g.edge_cost(EdgeId::new(e));
            g.set_edge_cost(EdgeId::new(e), c + Cost::new(3.0));
        }
        let changes = g.cost_changes_since(e0).unwrap().to_vec();
        let mut ws = DijkstraWorkspace::new();
        assert!(matches!(
            ws.repair(&g, &old, &srcs, &changes),
            Repair::GaveUp
        ));
        // A tree sized for a smaller graph is rejected outright.
        g.add_node();
        assert!(matches!(ws.repair(&g, &old, &srcs, &[]), Repair::GaveUp));
    }

    #[test]
    fn repair_matches_fresh_on_random_reprice_batches() {
        for seed in 0..8u64 {
            let mut rng = crate::Rng64::seed_from(seed);
            let mut g = crate::generators::gnp_connected(
                50,
                0.1,
                crate::CostRange::new(1.0, 7.0),
                &mut rng,
            );
            // One root on even seeds: the repaired clone then has no site
            // array, and must still answer `site` as the fresh tree does.
            let srcs: Vec<NodeId> = [1, 29][..1 + seed as usize % 2]
                .iter()
                .map(|&i| NodeId::new(i))
                .collect();
            let mut ws = DijkstraWorkspace::new();
            let mut old = ShortestPaths::from_sources(&g, srcs.iter().copied());
            let mut repaired_rounds = 0;
            for round in 0..10 {
                let e0 = g.cost_epoch();
                for _ in 0..3 {
                    let e = EdgeId::new((rng.next_u64() as usize) % g.edge_count());
                    let delta = ((rng.next_u64() % 9) as f64 - 4.0) / 2.0;
                    let c = (g.edge_cost(e).value() + delta).max(0.5);
                    g.set_edge_cost(e, Cost::new(c));
                }
                let changes = g.cost_changes_since(e0).unwrap().to_vec();
                let fresh = ShortestPaths::from_sources(&g, srcs.iter().copied());
                if let Some(repaired) = tree_of(ws.repair(&g, &old, &srcs, &changes), &old) {
                    assert_eq!(repaired.site.is_empty(), srcs.len() == 1);
                    assert_tree_identical(
                        &g,
                        &repaired,
                        &fresh,
                        &format!("seed {seed} round {round}"),
                    );
                    repaired_rounds += 1;
                }
                old = fresh;
            }
            assert!(repaired_rounds > 0, "seed {seed}: every repair gave up");
        }
    }

    #[test]
    fn workspace_grows_for_larger_graphs() {
        let small = diamond();
        let mut big = Graph::with_nodes(10);
        for i in 0..9 {
            big.add_edge(NodeId::new(i), NodeId::new(i + 1), Cost::new(1.0));
        }
        let mut ws = DijkstraWorkspace::new();
        ws.run(&small, [NodeId::new(0)]);
        ws.run(&big, [NodeId::new(0)]);
        assert_eq!(ws.grows(), 2);
        assert_eq!(ws.dist(NodeId::new(9)), Cost::new(9.0));
        // Shrinking back reuses the larger buffers without reallocating,
        // and reads the small graph's labels, not the big run's.
        ws.run(&small, [NodeId::new(0)]);
        assert_eq!(ws.grows(), 2);
        assert_eq!(ws.dist(NodeId::new(2)), Cost::new(2.0));
        assert_eq!(ws.dist(NodeId::new(3)), Cost::INFINITY);
    }
}
