//! Random graph generators used by the evaluation topologies.
//!
//! All generators are deterministic given a [`Rng64`] seed and always return
//! *connected* graphs (a random spanning tree is laid down first where the
//! base model does not guarantee connectivity).

use crate::{Cost, Graph, NodeId, Rng64};

/// Uniform edge-cost assignment range used by the generators.
#[derive(Clone, Copy, Debug)]
pub struct CostRange {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Exclusive upper bound.
    pub hi: f64,
}

impl CostRange {
    /// A unit cost range `[1, 1]`.
    pub const UNIT: CostRange = CostRange { lo: 1.0, hi: 1.0 };

    /// Creates a range.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `lo < 0`.
    pub fn new(lo: f64, hi: f64) -> CostRange {
        assert!(lo >= 0.0 && lo <= hi, "invalid cost range {lo}..{hi}");
        CostRange { lo, hi }
    }

    fn sample(&self, rng: &mut Rng64) -> Cost {
        if self.lo == self.hi {
            Cost::new(self.lo)
        } else {
            Cost::new(rng.range_f64(self.lo, self.hi))
        }
    }
}

/// Lays down a uniformly random spanning tree (random attachment order).
fn random_spanning_tree(g: &mut Graph, n: usize, costs: CostRange, rng: &mut Rng64) {
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    for i in 1..n {
        let parent = order[rng.below(i)];
        g.add_edge(
            NodeId::new(order[i]),
            NodeId::new(parent),
            costs.sample(rng),
        );
    }
}

/// Connected Erdős–Rényi-style graph: a random spanning tree plus each
/// remaining pair with probability `p`.
///
/// # Examples
///
/// ```
/// use sof_graph::{generators, CostRange, Rng64};
/// let mut rng = Rng64::seed_from(1);
/// let g = generators::gnp_connected(20, 0.1, CostRange::new(1.0, 5.0), &mut rng);
/// assert!(g.is_connected());
/// assert!(g.edge_count() >= 19);
/// ```
pub fn gnp_connected(n: usize, p: f64, costs: CostRange, rng: &mut Rng64) -> Graph {
    let mut g = Graph::with_nodes(n);
    random_spanning_tree(&mut g, n, costs, rng);
    let mut present = std::collections::HashSet::new();
    for (_, e) in g.edges() {
        let (a, b) = (e.u.index().min(e.v.index()), e.u.index().max(e.v.index()));
        present.insert((a, b));
    }
    for a in 0..n {
        for b in a + 1..n {
            if !present.contains(&(a, b)) && rng.chance(p) {
                g.add_edge(NodeId::new(a), NodeId::new(b), costs.sample(rng));
            }
        }
    }
    g
}

/// A ring of `n` nodes (used as a deterministic backbone building block).
pub fn ring(n: usize, costs: CostRange, rng: &mut Rng64) -> Graph {
    assert!(n >= 3, "a ring needs at least 3 nodes");
    let mut g = Graph::with_nodes(n);
    for i in 0..n {
        g.add_edge(NodeId::new(i), NodeId::new((i + 1) % n), costs.sample(rng));
    }
    g
}

/// A `w × h` grid graph.
pub fn grid(w: usize, h: usize, costs: CostRange, rng: &mut Rng64) -> Graph {
    assert!(w >= 1 && h >= 1);
    let mut g = Graph::with_nodes(w * h);
    let id = |x: usize, y: usize| NodeId::new(y * w + x);
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                g.add_edge(id(x, y), id(x + 1, y), costs.sample(rng));
            }
            if y + 1 < h {
                g.add_edge(id(x, y), id(x, y + 1), costs.sample(rng));
            }
        }
    }
    g
}

/// Inet-style power-law topology: preferential attachment growth followed by
/// preferential chord insertion until `target_edges` is reached.
///
/// This mimics the degree distribution of the Inet generator [60] used for
/// the paper's 5000-node synthetic network.
///
/// # Panics
///
/// Panics if `n < 3` or `target_edges < n - 1`.
///
/// # Examples
///
/// ```
/// use sof_graph::{generators, CostRange, Rng64};
/// let mut rng = Rng64::seed_from(9);
/// let g = generators::inet_like(100, 200, CostRange::new(1.0, 10.0), &mut rng);
/// assert_eq!(g.node_count(), 100);
/// assert_eq!(g.edge_count(), 200);
/// assert!(g.is_connected());
/// ```
pub fn inet_like(n: usize, target_edges: usize, costs: CostRange, rng: &mut Rng64) -> Graph {
    assert!(n >= 3, "need at least 3 nodes");
    assert!(
        target_edges >= n - 1,
        "need at least n-1 edges for connectivity"
    );
    let mut g = Graph::with_nodes(n);
    // `slots` holds one entry per edge endpoint -> sampling from it is
    // degree-proportional (preferential attachment).
    let mut slots: Vec<usize> = Vec::with_capacity(target_edges * 2);
    let add = |g: &mut Graph, slots: &mut Vec<usize>, a: usize, b: usize, rng: &mut Rng64| {
        g.add_edge(NodeId::new(a), NodeId::new(b), costs.sample(rng));
        slots.push(a);
        slots.push(b);
    };
    // Seed triangle.
    add(&mut g, &mut slots, 0, 1, rng);
    add(&mut g, &mut slots, 1, 2, rng);
    add(&mut g, &mut slots, 2, 0, rng);
    // Growth phase: each new node attaches preferentially.
    for v in 3..n {
        let t = *rng.pick(&slots);
        add(&mut g, &mut slots, v, t, rng);
    }
    // Densification: preferential chords, avoiding duplicates where easy.
    let mut present: std::collections::HashSet<(usize, usize)> = g
        .edges()
        .map(|(_, e)| {
            let (a, b) = (e.u.index(), e.v.index());
            (a.min(b), a.max(b))
        })
        .collect();
    let mut guard = 0usize;
    while g.edge_count() < target_edges {
        let a = *rng.pick(&slots);
        let b = if rng.chance(0.5) {
            *rng.pick(&slots)
        } else {
            rng.below(n)
        };
        guard += 1;
        let key = (a.min(b), a.max(b));
        if a != b && (!present.contains(&key) || guard > 50 * target_edges) {
            present.insert(key);
            add(&mut g, &mut slots, a, b, rng);
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnp_is_connected_and_deterministic() {
        let a = gnp_connected(30, 0.1, CostRange::new(1.0, 2.0), &mut Rng64::seed_from(4));
        let b = gnp_connected(30, 0.1, CostRange::new(1.0, 2.0), &mut Rng64::seed_from(4));
        assert!(a.is_connected());
        assert!(a.edges().eq(b.edges()));
    }

    #[test]
    fn ring_and_grid_shapes() {
        let mut rng = Rng64::seed_from(1);
        let r = ring(5, CostRange::UNIT, &mut rng);
        assert_eq!(r.edge_count(), 5);
        assert!(r.is_connected());
        let gr = grid(3, 4, CostRange::UNIT, &mut rng);
        assert_eq!(gr.node_count(), 12);
        assert_eq!(gr.edge_count(), 3 * 3 + 2 * 4); // 2*w*h - w - h = 17
        assert_eq!(gr.edge_count(), 2 * 3 * 4 - 3 - 4);
        assert!(gr.is_connected());
    }

    #[test]
    fn inet_like_hits_exact_counts() {
        let g = inet_like(200, 410, CostRange::new(1.0, 5.0), &mut Rng64::seed_from(3));
        assert_eq!(g.node_count(), 200);
        assert_eq!(g.edge_count(), 410);
        assert!(g.is_connected());
    }

    #[test]
    fn inet_like_has_skewed_degrees() {
        let g = inet_like(500, 1000, CostRange::UNIT, &mut Rng64::seed_from(8));
        let max_deg = g.nodes().map(|v| g.degree(v)).max().unwrap();
        let avg = 2.0 * g.edge_count() as f64 / g.node_count() as f64;
        assert!(
            max_deg as f64 > 4.0 * avg,
            "expected hub nodes, max degree {max_deg} vs avg {avg}"
        );
    }
}
