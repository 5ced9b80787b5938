//! The Dreyfus–Wagner dynamic program, written once for both exact
//! Steiner oracles of the workspace.
//!
//! [`steiner_arborescence`] finds a minimum-cost arborescence from a root
//! to a set of terminals in a directed graph it sees only through a *view*:
//! a function listing the arcs into a vertex `y` as `(from, cost, arc id)`.
//! An undirected minimum Steiner tree is the minimum arborescence of the
//! bidirected graph rooted at any one of its terminals, so
//! `sof_steiner::dreyfus_wagner` is the view `y ↦ neighbors(y)` rooted at
//! its last terminal; `sof_exact`'s relaxation is the layered graph's
//! incoming arcs, filtered by the branch-and-bound's restrictions.
//!
//! `label[S][x]` is the cheapest arborescence rooted at `x` that spans the
//! terminal set `S`. A singleton is seeded at its terminal; a larger set
//! first merges every split `S = A ∪ B` at every vertex, then one Dijkstra
//! pass relaxes the row backwards over the view's arcs. Every pass runs on
//! the crate's [`MonotoneQueue`](crate::queue), which pops in the order a
//! `BinaryHeap<Reverse<(Cost, node)>>` does: its whole row is seeded before
//! the first pop, and a relaxation pushes `d + c ≥ d`. One choice table
//! rebuilds the arc set. `O(3^k·n + 2^k·m)` queue work for `k` terminals.

use crate::queue::MonotoneQueue;
use crate::{Cost, NodeId};

/// Most terminals, besides its root, [`steiner_arborescence`] spans: it
/// keeps `2^k` labels per vertex.
pub const MAX_DW_TERMINALS: usize = 16;

/// Why [`steiner_arborescence`] has no answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SteinerDpError {
    /// More terminals than [`MAX_DW_TERMINALS`].
    TooManyTerminals,
    /// Some terminal cannot be reached from the root.
    Unreachable,
}

/// A minimum arborescence, as [`steiner_arborescence`] found it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SteinerArborescence {
    /// The arcs' total cost, summed in id order.
    pub cost: Cost,
    /// The arc ids, sorted and deduplicated.
    pub arcs: Vec<usize>,
    /// Arcs the relaxation passes scanned: the DP's deterministic work
    /// count.
    pub scanned: u64,
}

/// How a label was reached; one entry per `(terminal set, vertex)`.
#[derive(Clone, Copy, Debug)]
enum Choice {
    /// Not reached.
    None,
    /// The terminal that seeds its singleton set.
    Terminal,
    /// Over arc `arc` into `head`.
    Arc { head: u32, arc: u32 },
    /// Two arborescences meet here; one half's terminal set.
    Merge(u32),
}

/// Solves the directed Steiner problem exactly: a minimum-cost arborescence
/// from `root` that reaches every vertex of `terminals`, over `nodes`
/// vertices whose arcs `into(y)` lists as `(from, cost, arc id)`. Costs must
/// be non-negative.
///
/// # Errors
///
/// [`SteinerDpError::TooManyTerminals`] past [`MAX_DW_TERMINALS`], and
/// [`SteinerDpError::Unreachable`] when some terminal cannot be reached.
pub fn steiner_arborescence<F, I>(
    nodes: usize,
    root: usize,
    terminals: &[usize],
    into: F,
) -> Result<SteinerArborescence, SteinerDpError>
where
    F: Fn(usize) -> I,
    I: Iterator<Item = (usize, Cost, usize)>,
{
    let k = terminals.len();
    if k > MAX_DW_TERMINALS {
        return Err(SteinerDpError::TooManyTerminals);
    }
    if k == 0 {
        return Ok(SteinerArborescence {
            cost: Cost::ZERO,
            arcs: Vec::new(),
            scanned: 0,
        });
    }
    let n = nodes;
    let masks = 1usize << k;
    let mut label = vec![Cost::INFINITY; masks * n];
    let mut choice = vec![Choice::None; masks * n];
    let mut queue = MonotoneQueue::default();
    let mut scanned = 0;
    for mask in 1..masks {
        let (done, rest) = label.split_at_mut(mask * n);
        let row = &mut rest[..n];
        let why = &mut choice[mask * n..(mask + 1) * n];
        if mask.is_power_of_two() {
            let t = terminals[mask.trailing_zeros() as usize];
            row[t] = Cost::ZERO;
            why[t] = Choice::Terminal;
        } else {
            // Each split once, the half with the larger mask named.
            let mut sub = (mask - 1) & mask;
            while sub > 0 {
                let other = mask & !sub;
                if sub >= other {
                    let (a, b) = (&done[sub * n..][..n], &done[other * n..][..n]);
                    for x in 0..n {
                        let c = a[x] + b[x];
                        if c < row[x] {
                            row[x] = c;
                            why[x] = Choice::Merge(sub as u32);
                        }
                    }
                }
                sub = (sub - 1) & mask;
            }
        }
        // Backwards Dijkstra: label[x] = min over paths x → y of their
        // cost plus the seeded label[y].
        queue.clear();
        for (y, &d) in row.iter().enumerate() {
            if d.is_finite() {
                queue.push(d, NodeId::new(y));
            }
        }
        while let Some((d, y)) = queue.pop() {
            let y = y.index();
            if d > row[y] {
                continue;
            }
            for (x, cost, arc) in into(y) {
                scanned += 1;
                let nd = d + cost;
                if nd < row[x] {
                    row[x] = nd;
                    why[x] = Choice::Arc {
                        head: y as u32,
                        arc: u32::try_from(arc).expect("arc id exceeds u32"),
                    };
                    queue.push(nd, NodeId::new(x));
                }
            }
        }
    }

    let full = masks - 1;
    let best = label[full * n + root];
    if !best.is_finite() {
        return Err(SteinerDpError::Unreachable);
    }
    // Halves of a merge may share arcs, so the arcs are collected with
    // their costs, deduplicated and summed in id order.
    let mut picked: Vec<(usize, Cost)> = Vec::new();
    let mut stack = vec![(full, root)];
    while let Some((mask, x)) = stack.pop() {
        match choice[mask * n + x] {
            Choice::Terminal => {}
            Choice::Arc { head, arc } => {
                let (_, cost, _) = into(head as usize)
                    .find(|&(_, _, id)| id == arc as usize)
                    .expect("a chosen arc is in its head's view");
                picked.push((arc as usize, cost));
                stack.push((mask, head as usize));
            }
            Choice::Merge(sub) => {
                stack.push((sub as usize, x));
                stack.push((mask & !(sub as usize), x));
            }
            Choice::None => unreachable!("a finite label has a choice"),
        }
    }
    picked.sort_unstable_by_key(|&(arc, _)| arc);
    picked.dedup_by_key(|&mut (arc, _)| arc);
    let cost: Cost = picked.iter().map(|&(_, cost)| cost).sum();
    debug_assert!(
        cost <= best + Cost::new(1e-9),
        "reconstruction ({cost}) exceeds the DP's label ({best})"
    );
    Ok(SteinerArborescence {
        cost,
        arcs: picked.into_iter().map(|(arc, _)| arc).collect(),
        scanned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Arcs `(from, to, cost)`; the view lists those into `y`, id = index.
    fn solve(
        nodes: usize,
        arcs: &[(usize, usize, f64)],
        root: usize,
        ts: &[usize],
    ) -> Result<SteinerArborescence, SteinerDpError> {
        steiner_arborescence(nodes, root, ts, |y| {
            arcs.iter()
                .enumerate()
                .filter(move |&(_, &(_, to, _))| to == y)
                .map(|(id, &(from, _, cost))| (from, Cost::new(cost), id))
        })
    }

    #[test]
    fn arcs_are_followed_in_their_direction_only() {
        // 0 → 1 is cheap, 1 → 0 dear; a hub 2 reaches both at 2 each.
        let arcs = [(0, 1, 1.0), (1, 0, 5.0), (2, 0, 2.0), (2, 1, 2.0)];
        assert_eq!(solve(3, &arcs, 0, &[1]).unwrap().arcs, vec![0]);
        assert_eq!(solve(3, &arcs, 1, &[0]).unwrap().cost, Cost::new(5.0));
        let hub = solve(3, &arcs, 2, &[0, 1]).unwrap();
        assert_eq!((hub.cost, hub.arcs), (Cost::new(3.0), vec![0, 2]));
        assert_eq!(solve(3, &arcs, 0, &[2]), Err(SteinerDpError::Unreachable));
    }

    #[test]
    fn no_terminal_is_no_arc_and_too_many_are_refused() {
        assert_eq!(solve(1, &[], 0, &[]), Ok(SteinerArborescence::default()));
        let ts: Vec<usize> = (1..=MAX_DW_TERMINALS + 1).collect();
        assert_eq!(
            solve(ts.len() + 1, &[], 0, &ts),
            Err(SteinerDpError::TooManyTerminals)
        );
    }
}
