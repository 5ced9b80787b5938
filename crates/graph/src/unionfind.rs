//! Disjoint-set union (union-find) with path compression and union by rank.

/// A disjoint-set forest over dense indices `0..n`.
///
/// # Examples
///
/// ```
/// use sof_graph::UnionFind;
///
/// let mut uf = UnionFind::new(4);
/// assert!(uf.union(0, 1));
/// assert!(!uf.union(1, 0)); // already joined
/// assert!(uf.connected(0, 1));
/// assert!(!uf.connected(0, 2));
/// ```
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
        }
    }

    /// Finds the representative of `x`'s set.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] as usize != cur {
            let next = self.parent[cur] as usize;
            self.parent[cur] = root as u32;
            cur = next;
        }
        root
    }

    /// Merges the sets of `a` and `b`; returns `true` if they were distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo] = hi as u32;
        if self.rank[hi] == self.rank[lo] {
            self.rank[hi] += 1;
        }
        true
    }

    /// Returns `true` when `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` when the structure tracks no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merging_reduces_set_count() {
        let mut uf = UnionFind::new(5);
        assert!((0..5).all(|i| uf.find(i) == i), "singletons at first");
        uf.union(0, 1);
        uf.union(2, 3);
        uf.union(0, 3);
        assert!(uf.connected(1, 2));
        assert!(!uf.connected(1, 4));
        // Two sets remain: {0, 1, 2, 3} and {4}.
        let mut roots: Vec<usize> = (0..5).map(|i| uf.find(i)).collect();
        roots.sort_unstable();
        roots.dedup();
        assert_eq!(roots.len(), 2);
    }

    #[test]
    fn union_everything() {
        let mut uf = UnionFind::new(100);
        for i in 1..100 {
            uf.union(0, i);
        }
        let root = uf.find(0);
        assert!((0..100).all(|i| uf.find(i) == root), "one set left");
        assert!(uf.connected(17, 83));
    }

    #[test]
    fn path_compression_keeps_results_consistent() {
        let mut uf = UnionFind::new(8);
        for i in 0..7 {
            uf.union(i, i + 1);
        }
        let root = uf.find(0);
        for i in 0..8 {
            assert_eq!(uf.find(i), root);
        }
    }
}
