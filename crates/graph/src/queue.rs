//! The monotone priority queue under every Dijkstra in this crate.
//!
//! [`MonotoneQueue`] pops `(dist, node)` entries in **exactly** ascending
//! `(dist, node)` order — the order `BinaryHeap<Reverse<(Cost, NodeId)>>`
//! pops them in — without comparing entries against each other on the way
//! in. It is a radix heap over the bit pattern of the distance: an entry
//! lives in the bucket named by the highest bit in which its distance
//! differs from the distance of the latest pop, and the entries *at* that
//! distance wait in a small heap ordered by node.
//!
//! Two preconditions make that exact, and both hold for every caller in
//! [`crate::DijkstraWorkspace`] (`docs/DYNSSSP.md`, "The queue"):
//!
//! 1. **Pushes never undercut the latest pop.** A relaxation pushes
//!    `d + c` for the popped `d` and an edge cost `c ≥ 0`; the repair pass
//!    seeds its whole boundary before its first pop and afterwards
//!    re-pushes only at `nd ≥ d`. [`MonotoneQueue::push`] asserts it, in
//!    release builds too: a smaller key would be filed under a bit it does
//!    not differ in and silently reorder a tree.
//! 2. **Keys are non-negative floats**, whose bit patterns order as `u64`
//!    exactly as [`Cost`]'s `total_cmp` orders the values. `Cost::new`
//!    normalises `-0.0`, `+` of non-negatives never produces it, NaN
//!    cannot be constructed, and `∞` is never pushed (`∞ < dist` is never
//!    true) — though as the largest non-negative pattern it would order
//!    correctly too.
//!
//! Why ties need their own heap and not a wider radix key: a zero-cost hop
//! (VM nodes hang off their datacenter at cost zero) pushes an entry *at*
//! the current distance, possibly with a smaller [`NodeId`] than the vertex
//! just popped. A key of `(dist bits, node)` would make that push undercut
//! the latest pop; keyed on the distance alone it is simply one more entry
//! at the current distance, and the node order among those is the tie
//! heap's business.
//!
//! Cost: a push is a `xor`, a `leading_zeros` and a `Vec::push`. A pop
//! that finds the tie heap empty takes the lowest occupied bucket, makes
//! its minimum the new current distance and re-places its entries; each
//! lands in a strictly lower bucket (it agrees with the new minimum on the
//! bucket's own bit and everything above), so an entry moves at most 64
//! times in its life where a binary heap does `log n` compare-and-swap
//! levels per operation — about six moves per entry on a 5 000-vertex
//! Inet tree. [`MonotoneQueue::moves`] counts them.

use crate::{Cost, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One bucket per bit of an `f64` pattern.
const BUCKETS: usize = u64::BITS as usize;

/// See the module docs.
#[derive(Clone, Debug)]
pub(crate) struct MonotoneQueue {
    /// Distance of the latest pop; zero before the first.
    last: Cost,
    /// Nodes queued at exactly `last`.
    ties: BinaryHeap<Reverse<NodeId>>,
    /// `buckets[b]`: entries whose distance differs from `last` in bit `b`
    /// and in no higher bit. Inline, so a fresh queue owns no allocation.
    buckets: [Vec<(Cost, NodeId)>; BUCKETS],
    /// Bit `b` is set iff `buckets[b]` is non-empty.
    occupied: u64,
    /// Entries re-placed by redistribution since construction.
    moves: u64,
}

impl Default for MonotoneQueue {
    fn default() -> MonotoneQueue {
        MonotoneQueue {
            last: Cost::ZERO,
            ties: BinaryHeap::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            moves: 0,
        }
    }
}

#[inline]
fn key(dist: Cost) -> u64 {
    dist.value().to_bits()
}

impl MonotoneQueue {
    /// Queues `node` at `dist`.
    ///
    /// # Panics
    ///
    /// Panics if `dist` is below the distance of the latest pop
    /// (precondition 1 of the module docs).
    #[inline]
    pub(crate) fn push(&mut self, dist: Cost, node: NodeId) {
        // Precondition 2: only for these do bit patterns order as values.
        debug_assert!(
            dist.value().is_sign_positive() && !dist.value().is_nan(),
            "queue key {dist:?} is not a non-negative float"
        );
        assert!(
            key(dist) >= key(self.last),
            "monotone queue: push at {dist} undercuts the latest pop at {}",
            self.last
        );
        self.place(dist, node);
    }

    /// Files an entry under the highest bit in which it differs from
    /// `last`; callers guarantee `dist >= last`.
    #[inline]
    fn place(&mut self, dist: Cost, node: NodeId) {
        let diff = key(dist) ^ key(self.last);
        if diff == 0 {
            self.ties.push(Reverse(node));
        } else {
            let b = diff.ilog2();
            self.buckets[b as usize].push((dist, node));
            self.occupied |= 1 << b;
        }
    }

    /// Removes and returns the smallest `(dist, node)` entry.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(Cost, NodeId)> {
        if self.ties.is_empty() {
            if self.occupied == 0 {
                return None;
            }
            // Everything queued differs from `last`, and the lowest
            // occupied bucket holds the entries that differ least. Its
            // minimum becomes the current distance; entries in higher
            // buckets still differ from it in their own bit first.
            let b = self.occupied.trailing_zeros() as usize;
            self.occupied &= self.occupied - 1;
            // The bucket gets its own buffer back: re-placed entries only
            // move to lower buckets, so it is never pushed to while out,
            // and no buffer's capacity migrates to another bucket.
            let mut bucket = std::mem::take(&mut self.buckets[b]);
            self.last = bucket
                .iter()
                .map(|&(dist, _)| dist)
                .min_by_key(|&dist| key(dist))
                .expect("an occupied bucket is non-empty");
            self.moves += bucket.len() as u64;
            for (dist, node) in bucket.drain(..) {
                self.place(dist, node);
            }
            self.buckets[b] = bucket;
        }
        let Reverse(node) = self.ties.pop().expect("the tie heap holds the minimum");
        Some((self.last, node))
    }

    /// Empties the queue and rewinds the current distance to zero, keeping
    /// every buffer. Costs O(occupied buckets): a bounded search abandons
    /// a non-empty queue.
    pub(crate) fn clear(&mut self) {
        self.last = Cost::ZERO;
        self.ties.clear();
        while self.occupied != 0 {
            self.buckets[self.occupied.trailing_zeros() as usize].clear();
            self.occupied &= self.occupied - 1;
        }
    }

    /// Entries re-placed by redistribution since construction: the queue's
    /// deterministic work count (one add per redistributing pop).
    pub(crate) fn moves(&self) -> u64 {
        self.moves
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng64;

    impl MonotoneQueue {
        /// Entries all buffers can hold without reallocating.
        fn capacity(&self) -> usize {
            self.ties.capacity() + self.buckets.iter().map(Vec::capacity).sum::<usize>()
        }
    }

    /// A key family: the next distance to push given the latest popped one
    /// (never below it — the scripts are monotone by construction).
    type Family = fn(&mut Rng64, f64) -> f64;

    /// Fortz–Thorup-shaped hop costs: six decades, down to 1e-6.
    fn skewed(rng: &mut Rng64, last: f64) -> f64 {
        last + 10f64.powf(rng.range_f64(-6.0, 2.0))
    }

    /// Hops of 0–3: mass ties and zero plateaus.
    fn small_ints(rng: &mut Rng64, last: f64) -> f64 {
        last + rng.below(4) as f64
    }

    /// Hops of 2⁻⁴⁰ … 2⁴⁰ — fine enough to flip any mantissa bit of the
    /// latest pop, or to be absorbed into an exact tie — and every other
    /// one of 2⁻³⁰⁰ … 2³⁰⁰: two queued distances must lie 64, 128 and 256
    /// binades apart to differ first in exponent bits 6–8, which the
    /// narrow range alone never reaches.
    fn powers_of_two(rng: &mut Rng64, last: f64) -> f64 {
        let span = [40, 300][rng.below(2)];
        last + 2f64.powi(rng.range(0, 2 * span + 1) as i32 - span as i32)
    }

    /// Two hop lengths over three nodes: the same pair queued many times.
    fn duplicates(rng: &mut Rng64, last: f64) -> f64 {
        last + [0.0, 0.5][rng.below(2)]
    }

    /// What a replayed script exercised.
    struct Replayed {
        /// Bit `b` set iff some push differed from the latest pop first in
        /// bit `b` (i.e. went to bucket `b`).
        buckets: u64,
        /// Pushes at the current distance with a smaller node than the one
        /// just popped — what a zero-cost hop does.
        undercut_by_node: usize,
        pops: usize,
        clears: usize,
    }

    /// Replays one seeded monotone push/pop/clear script against `queue`
    /// and the reference heap, requiring identical pops throughout and an
    /// identical drain at the end.
    fn replay(
        queue: &mut MonotoneQueue,
        seed: u64,
        family: Family,
        nodes: usize,
        ops: usize,
    ) -> Replayed {
        let mut rng = Rng64::seed_from(seed);
        let mut model: BinaryHeap<Reverse<(Cost, NodeId)>> = BinaryHeap::new();
        let mut last = (Cost::ZERO, NodeId::new(0));
        let mut seen = Replayed {
            buckets: 0,
            undercut_by_node: 0,
            pops: 0,
            clears: 0,
        };
        queue.clear();
        for step in 0..ops {
            match rng.below(100) {
                0 => {
                    // Abandon whatever is queued and start over at zero,
                    // as a bounded search's successor does.
                    queue.clear();
                    model.clear();
                    last = (Cost::ZERO, NodeId::new(0));
                    seen.clears += 1;
                }
                1..=44 => {
                    let got = queue.pop();
                    let want = model.pop().map(|Reverse(entry)| entry);
                    assert_eq!(got, want, "seed {seed} step {step}");
                    if let Some(entry) = got {
                        last = entry;
                        seen.pops += 1;
                    }
                }
                45..=49 if last.1.index() > 0 => {
                    let node = NodeId::new(rng.below(last.1.index()));
                    queue.push(last.0, node);
                    model.push(Reverse((last.0, node)));
                    seen.undercut_by_node += 1;
                }
                _ => {
                    let dist = Cost::new(family(&mut rng, last.0.value()));
                    let node = NodeId::new(rng.below(nodes));
                    let diff = key(dist) ^ key(last.0);
                    if diff != 0 {
                        seen.buckets |= 1 << diff.ilog2();
                    }
                    queue.push(dist, node);
                    model.push(Reverse((dist, node)));
                }
            }
        }
        loop {
            let got = queue.pop();
            assert_eq!(
                got,
                model.pop().map(|Reverse(entry)| entry),
                "seed {seed} drain"
            );
            if got.is_none() {
                return seen;
            }
            seen.pops += 1;
        }
    }

    /// The order contract, against the heap this queue replaced. Two
    /// mutations it is there to catch (each checked by hand once; the
    /// first family's first script already fails under either): ties
    /// popped in insertion order instead of node order, and the drained
    /// bucket's *first* entry instead of its minimum taken as the new
    /// current distance. A clear that forgot to
    /// rewind the current distance to zero would trip `push`'s guard on
    /// the next script step.
    #[test]
    fn pops_exactly_like_a_binary_heap_on_monotone_scripts() {
        let families: [(&str, Family, usize); 4] = [
            ("skewed", skewed, 64),
            ("small_ints", small_ints, 64),
            ("powers_of_two", powers_of_two, 64),
            ("duplicates", duplicates, 3),
        ];
        let mut queue = MonotoneQueue::default();
        for (name, family, nodes) in families {
            let mut buckets = 0;
            for seed in 0..6 {
                // One queue across scripts and families: reuse is part of
                // the contract.
                let seen = replay(&mut queue, seed, family, nodes, 6_000);
                assert!(seen.pops > 2_000, "{name}: {} pops", seen.pops);
                assert!(seen.clears > 20, "{name}: {} clears", seen.clears);
                assert!(seen.undercut_by_node > 100, "{name}");
                buckets |= seen.buckets;
            }
            if name == "powers_of_two" {
                // Bit 63 is the sign: no two keys differ in it.
                assert_eq!(buckets, u64::MAX >> 1, "every bucket index is used");
            }
        }
        assert_eq!(queue.pop(), None);
    }

    #[test]
    #[should_panic(expected = "undercuts the latest pop")]
    fn push_below_the_latest_pop_panics() {
        let mut queue = MonotoneQueue::default();
        queue.push(Cost::new(2.0), NodeId::new(0));
        queue.push(Cost::new(3.0), NodeId::new(1));
        assert_eq!(queue.pop(), Some((Cost::new(2.0), NodeId::new(0))));
        // In a release build too: a smaller key would be filed under a
        // bit it does not differ in and pop out of order.
        queue.push(Cost::new(1.5), NodeId::new(2));
    }

    /// A drained bucket gets its own buffer back. Were it swapped with a
    /// shared spill vector instead, the largest capacity would migrate into
    /// every bucket it visits and identical runs would keep growing the
    /// queue; as it is, each bucket's buffer settles at that bucket's own
    /// peak during the first run.
    #[test]
    fn buffers_stop_growing_after_the_first_of_identical_runs() {
        let mut queue = MonotoneQueue::default();
        assert_eq!(queue.capacity(), 0, "a fresh queue owns no allocation");
        let mut capacity = [0; 10];
        let mut moves = [0; 10];
        for run in 0..10 {
            replay(&mut queue, 7, skewed, 64, 8_000);
            capacity[run] = queue.capacity();
            moves[run] = queue.moves();
        }
        assert!(capacity[1] > 0);
        assert_eq!(capacity[1], capacity[9], "capacities per run: {capacity:?}");
        // The work count is a pure function of the script, and cumulative.
        assert!(moves[0] > 0);
        assert_eq!(moves[9], 10 * moves[0], "moves after each run: {moves:?}");
    }
}
