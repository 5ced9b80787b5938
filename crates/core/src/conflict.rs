//! Procedure 4: augmenting the forest with chain walks while resolving VNF
//! conflicts (Fig. 5 of the paper).
//!
//! A *VNF conflict* arises when a walk being added wants VNF `f_j` on a VM
//! that the forest already runs `f_i ≠ f_j` on. The paper resolves it by
//! re-attaching one of the walks to the other's prefix — never adding new
//! links or enabling new VMs, which is what keeps the `3ρST` bound intact
//! (Theorem 3). Three cases, scanning the new walk's VMs **backwards from
//! its end**:
//!
//! 1. `j ≤ i`: attach the new walk to the existing prefix through the
//!    conflict VM (the prefix already provides `f_1..f_i`).
//! 2. some earlier conflict VM `w` carries `f_h` with `h ≥ j`: attach
//!    through `w` instead, keeping the new walk's own routing from `w` on.
//! 3. otherwise (`j > i`, no such `w`): re-attach the *existing* walk(s)
//!    to the new walk's prefix, relabelling the VM from `f_i` to `f_j`.
//!
//! Case 3 is implemented by deferring the displaced walks and re-adding
//! them once the new walk is final; they then resolve via case 1 against a
//! consistent prefix. A global guard plus a conflict-avoiding fallback
//! protect against pathological cascades. No solve has been seen to reach
//! the fallback, and the paper proves one of the cases always applies:
//! cases 1 and 2 leave the walk conflict-free and each case 3 frees one of
//! its VMs, so one `place` loops at most `|C| + 1` times, under the guard;
//! only [`MAX_DEPTH`] nested re-placements of displaced walks could breach
//! it. The module's tests breach it by hand.

use crate::{Network, SearchContext};
use sof_graph::{Cost, NodeId};
use std::collections::HashMap;
use std::fmt;

/// How deep displaced walks may re-place one another before the
/// fallback rebuilds the walk at hand on free VMs.
const MAX_DEPTH: usize = 64;

/// A service-chain walk from a source to a last VM with `|C|` placements.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainWalk {
    /// Originating source.
    pub source: NodeId,
    /// Walk node sequence (source first, last VM last).
    pub nodes: Vec<NodeId>,
    /// Positions in `nodes` of the VMs running `f1 … f|C|`.
    pub vnf_positions: Vec<usize>,
}

impl ChainWalk {
    /// The VM hosting the `i`-th VNF.
    pub fn vnf_node(&self, i: usize) -> NodeId {
        self.nodes[self.vnf_positions[i]]
    }

    /// The walk's *anchor*: its final node, where distribution tails
    /// attach (the candidate last VM of the originating virtual edge).
    ///
    /// This is the VM running `f|C|` unless conflict resolution re-used an
    /// earlier walk's placement, in which case the stretch from the last
    /// placement to the anchor is plain forwarding.
    pub fn anchor(&self) -> NodeId {
        *self.nodes.last().expect("chain walks are non-empty")
    }
}

/// Counters describing which resolution paths fired.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConflictStats {
    /// Conflicts resolved by attaching the new walk at the conflict VM.
    pub case1: usize,
    /// Conflicts resolved by attaching at an earlier conflict VM.
    pub case2: usize,
    /// Conflicts resolved by re-attaching existing walks (VM relabelled).
    pub case3: usize,
    /// Walks rebuilt from scratch on free VMs (guard breached).
    pub fallbacks: usize,
}

impl ConflictStats {
    /// Total conflicts encountered.
    pub fn total(&self) -> usize {
        self.case1 + self.case2 + self.case3 + self.fallbacks
    }
}

/// Errors from conflict resolution.
#[derive(Clone, Debug, PartialEq)]
pub enum ConflictError {
    /// The fallback could not find enough free VMs to rebuild a chain.
    Unresolvable {
        /// Source of the walk that could not be placed.
        source: NodeId,
    },
}

impl fmt::Display for ConflictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConflictError::Unresolvable { source } => {
                write!(f, "cannot resolve VNF conflicts for chain from {source}")
            }
        }
    }
}

impl std::error::Error for ConflictError {}

/// A set of chain walks kept globally VNF-consistent.
///
/// Walks live in stable slots so callers can map auxiliary-graph virtual
/// edges to their (possibly rewritten) walks after all insertions.
#[derive(Clone, Debug)]
pub struct WalkSet {
    chain_len: usize,
    slots: Vec<Option<ChainWalk>>,
    /// VM → (vnf index, slot of one walk using it).
    enabled: HashMap<NodeId, (usize, usize)>,
    /// Resolution statistics.
    pub stats: ConflictStats,
}

impl WalkSet {
    /// Creates an empty set for chains of length `chain_len`.
    pub fn new(chain_len: usize) -> WalkSet {
        WalkSet {
            chain_len,
            slots: Vec::new(),
            enabled: HashMap::new(),
            stats: ConflictStats::default(),
        }
    }

    /// The global VM → VNF map.
    pub fn enabled(&self) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        self.enabled.iter().map(|(&v, &(i, _))| (v, i))
    }

    /// Returns the walk in `slot` (panics if the slot was never filled).
    pub fn walk(&self, slot: usize) -> &ChainWalk {
        self.slots[slot].as_ref().expect("slot is occupied")
    }

    /// All occupied walks with their slots.
    pub fn walks(&self) -> impl Iterator<Item = (usize, &ChainWalk)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, w)| w.as_ref().map(|w| (i, w)))
    }

    fn rebuild_enabled(&mut self) {
        self.enabled.clear();
        for (slot, w) in self.slots.iter().enumerate() {
            let Some(w) = w else { continue };
            for (i, &pos) in w.vnf_positions.iter().enumerate() {
                self.enabled.entry(w.nodes[pos]).or_insert((i, slot));
            }
        }
    }

    /// Conflicting placements of `w`, ordered from the **end** of the walk
    /// backwards: `(chain index on w, node, enabled index, owner slot)`.
    fn conflicts_of(&self, w: &ChainWalk) -> Vec<(usize, NodeId, usize, usize)> {
        let mut out = Vec::new();
        for ci in (0..w.vnf_positions.len()).rev() {
            let node = w.vnf_node(ci);
            if let Some(&(ei, owner)) = self.enabled.get(&node) {
                if ei != ci {
                    out.push((ci, node, ei, owner));
                }
            }
        }
        out
    }

    /// Registers `w`'s placements in the enabled map.
    fn register(&mut self, slot: usize) {
        let w = self.slots[slot].clone().expect("slot occupied");
        for (i, &pos) in w.vnf_positions.iter().enumerate() {
            self.enabled.entry(w.nodes[pos]).or_insert((i, slot));
        }
    }

    /// Adds a chain walk, resolving conflicts per Procedure 4; returns the
    /// stable slot of the (possibly rewritten) walk. `search` is the k-stroll
    /// context of the solve the walk belongs to: a fallback chain is
    /// searched on it, so every fallback of a solve spends the one budget.
    ///
    /// # Errors
    ///
    /// [`ConflictError::Unresolvable`] when even the fallback cannot place
    /// the chain.
    pub fn add_walk(
        &mut self,
        w: ChainWalk,
        network: &Network,
        search: &mut SearchContext,
    ) -> Result<usize, ConflictError> {
        assert_eq!(w.vnf_positions.len(), self.chain_len, "wrong chain length");
        let slot = self.slots.len();
        self.slots.push(None);
        self.place(slot, w, network, 0, search)?;
        Ok(slot)
    }

    /// Core insertion: resolve conflicts of `w`, store it in `slot`,
    /// re-add any displaced walks.
    fn place(
        &mut self,
        slot: usize,
        mut w: ChainWalk,
        network: &Network,
        depth: usize,
        search: &mut SearchContext,
    ) -> Result<(), ConflictError> {
        let mut guard = 0usize;
        let mut displaced: Vec<(usize, ChainWalk)> = Vec::new();
        loop {
            guard += 1;
            if guard > 4 * (self.chain_len + 2) || depth > MAX_DEPTH {
                self.stats.fallbacks += 1;
                w = self.fallback_chain(&w, network, search)?;
                break;
            }
            let conflicts = self.conflicts_of(&w);
            let Some(&(cj, u, i0, owner)) = conflicts.first() else {
                break; // conflict-free
            };
            if cj <= i0 {
                // Case 1: adopt the owner's prefix through u.
                let prefix = self.walk(owner).clone();
                w = splice(&prefix, i0, &w, cj);
                self.stats.case1 += 1;
            } else if let Some(&(cx, _x, h0, owner2)) =
                conflicts.iter().skip(1).find(|&&(_, _, h, _)| h >= cj)
            {
                // Case 2: attach through the earlier conflict VM x whose
                // enabled index h0 ≥ cj.
                let prefix = self.walk(owner2).clone();
                w = splice(&prefix, h0, &w, cx);
                self.stats.case2 += 1;
            } else {
                // Case 3: displace every walk that uses u as f_{i0}; they
                // re-attach to w's prefix once w is final.
                let deps: Vec<usize> = self
                    .slots
                    .iter()
                    .enumerate()
                    .filter_map(|(i, cand)| {
                        let cand = cand.as_ref()?;
                        (cand.vnf_positions.len() > i0 && cand.vnf_node(i0) == u).then_some(i)
                    })
                    .collect();
                for dep in deps {
                    let taken = self.slots[dep].take().expect("dep occupied");
                    displaced.push((dep, taken));
                }
                self.rebuild_enabled();
                self.stats.case3 += 1;
            }
        }
        self.slots[slot] = Some(w);
        self.register(slot);
        // Re-add displaced walks; they resolve via case 1 against the new
        // prefix (their wanted index at u is smaller than the new label).
        for (dep_slot, dep) in displaced {
            self.place(dep_slot, dep, network, depth + 1, search)?;
        }
        Ok(())
    }

    /// Rebuilds `w` on free VMs only (fallback path): shortest walk from the
    /// source through `|C|` currently-unused VMs ending at a VM able to run
    /// the final VNF.
    fn fallback_chain(
        &mut self,
        w: &ChainWalk,
        network: &Network,
        search: &mut SearchContext,
    ) -> Result<ChainWalk, ConflictError> {
        let err = ConflictError::Unresolvable { source: w.source };
        let last = self.chain_len.checked_sub(1);
        // Free VMs, plus the original last VM if it can still run f_|C|.
        let free: Vec<NodeId> = network
            .vms()
            .into_iter()
            .filter(|v| match self.enabled.get(v) {
                None => true,
                Some(&(i, _)) => last == Some(i) && *v == w.anchor(),
            })
            .collect();
        if free.len() < self.chain_len {
            return Err(err);
        }
        let cm =
            crate::ChainMetric::build(network, w.source, &free, Cost::ZERO).ok_or(err.clone())?;
        // The anchor must stay the same so distribution tails remain valid.
        let target = cm.index_of(w.anchor());
        let stroll = match target {
            Some(t) if t != 0 => {
                sof_kstroll::StrollSolver::Auto.solve(cm.metric(), 0, t, self.chain_len + 1, search)
            }
            _ => None,
        };
        let stroll = stroll.ok_or(err)?;
        let (nodes, vnf_positions) = cm.expand(&stroll);
        Ok(ChainWalk {
            source: w.source,
            nodes,
            vnf_positions,
        })
    }

    /// Consumes the set, returning `(slot, walk)` pairs.
    pub fn into_walks(self) -> Vec<(usize, ChainWalk)> {
        self.slots
            .into_iter()
            .enumerate()
            .filter_map(|(i, w)| w.map(|w| (i, w)))
            .collect()
    }
}

/// Builds `prefix[..=prefix.vnf_positions[pi]] ++ suffix[suffix.vnf_positions[si]+1..]`,
/// keeping the prefix's placements `0..=pi` and the suffix's placements
/// `pi+1..` (which all lie after the splice point by construction).
fn splice(prefix: &ChainWalk, pi: usize, suffix: &ChainWalk, si: usize) -> ChainWalk {
    let p_pos = prefix.vnf_positions[pi];
    let s_pos = suffix.vnf_positions[si];
    let mut nodes = prefix.nodes[..=p_pos].to_vec();
    nodes.extend_from_slice(&suffix.nodes[s_pos + 1..]);
    let mut vnf_positions = prefix.vnf_positions[..=pi].to_vec();
    for idx in pi + 1..suffix.vnf_positions.len() {
        let old = suffix.vnf_positions[idx];
        debug_assert!(
            old > s_pos,
            "kept suffix placement must follow splice point"
        );
        vnf_positions.push(p_pos + (old - s_pos));
    }
    ChainWalk {
        source: prefix.source,
        nodes,
        vnf_positions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sof_graph::Graph;

    /// A dense-ish network with six VMs so conflicts can be manufactured.
    fn net() -> Network {
        let mut g = Graph::with_nodes(8);
        // Ring + chords, unit costs.
        for i in 0..8 {
            g.add_edge(NodeId::new(i), NodeId::new((i + 1) % 8), Cost::new(1.0));
        }
        g.add_edge(NodeId::new(0), NodeId::new(4), Cost::new(1.0));
        g.add_edge(NodeId::new(2), NodeId::new(6), Cost::new(1.0));
        let mut net = Network::all_switches(g);
        for i in 2..8 {
            net.make_vm(NodeId::new(i), Cost::new(1.0));
        }
        net
    }

    /// `add_walk` on a context of its own.
    fn add(set: &mut WalkSet, w: ChainWalk, network: &Network) -> usize {
        set.add_walk(w, network, &mut SearchContext::new()).unwrap()
    }

    fn walk(src: usize, nodes: &[usize], pos: &[usize]) -> ChainWalk {
        ChainWalk {
            source: NodeId::new(src),
            nodes: nodes.iter().map(|&i| NodeId::new(i)).collect(),
            vnf_positions: pos.to_vec(),
        }
    }

    #[test]
    fn disjoint_walks_coexist() {
        let network = net();
        let mut set = WalkSet::new(2);
        add(&mut set, walk(0, &[0, 7, 6], &[1, 2]), &network);
        add(&mut set, walk(1, &[1, 2, 3], &[1, 2]), &network);
        assert_eq!(set.stats.total(), 0);
        assert_eq!(set.enabled().count(), 4);
    }

    #[test]
    fn shared_consistent_vms_are_free() {
        let network = net();
        let mut set = WalkSet::new(2);
        add(&mut set, walk(0, &[0, 7, 6], &[1, 2]), &network);
        // Same placements from another source: no conflict.
        add(&mut set, walk(1, &[1, 0, 7, 6], &[2, 3]), &network);
        assert_eq!(set.stats.total(), 0);
        assert_eq!(set.enabled().count(), 2);
    }

    #[test]
    fn case1_attaches_new_walk_to_existing_prefix() {
        let network = net();
        let mut set = WalkSet::new(2);
        // W1: f1@7, f2@6.
        add(&mut set, walk(0, &[0, 7, 6], &[1, 2]), &network);
        // W2 wants f1@6 (enabled f2@6): j=0 < i=1 → case 1: W2 adopts W1's
        // prefix through 6 and keeps its own f2@5... but W2's own f2 is at 5.
        let slot = add(&mut set, walk(1, &[1, 0, 6, 5], &[2, 3]), &network);
        assert_eq!(set.stats.case1, 1);
        let w2 = set.walk(slot);
        // New W2 = W1 prefix (0,7,6) + suffix (5).
        assert_eq!(
            w2.nodes,
            vec![
                NodeId::new(0),
                NodeId::new(7),
                NodeId::new(6),
                NodeId::new(5)
            ]
        );
        assert_eq!(w2.vnf_positions, vec![1, 2]);
        // The prefix supplied both f1 and f2 (ending at node 6); the stretch
        // 6→5 is now plain forwarding towards W2's anchor, and the last
        // placement sits at node 6.
        assert_eq!(w2.vnf_node(1), NodeId::new(6));
        assert_eq!(w2.anchor(), NodeId::new(5));
    }

    #[test]
    fn case3_relabels_and_reattaches_existing_walk() {
        let network = net();
        let mut set = WalkSet::new(2);
        // W1: f1@6, f2@5.
        add(&mut set, walk(0, &[0, 7, 6, 5], &[2, 3]), &network);
        // W2 wants f2@6 (enabled f1@6): j=1 > i=0, no earlier conflict →
        // case 3: W1 is displaced and re-attached to W2's prefix.
        add(&mut set, walk(1, &[1, 2, 3, 4, 5, 6], &[2, 5]), &network);
        assert!(set.stats.case3 >= 1);
        // All walks consistent afterwards.
        let mut map: HashMap<NodeId, usize> = HashMap::new();
        for (_, w) in set.walks() {
            for (i, &p) in w.vnf_positions.iter().enumerate() {
                let e = map.entry(w.nodes[p]).or_insert(i);
                assert_eq!(*e, i, "conflict survived resolution");
            }
        }
    }

    /// The guard breached by hand: a walk placed past [`MAX_DEPTH`] (as
    /// the 65th nested re-placement of a cascade would be) is rebuilt on
    /// free VMs. W1 runs f1@2 and f2@6; W2 wants f1@6 and f2@3, which case 1
    /// would splice onto W1's prefix. The fallback instead searches a chain
    /// from W2's source to its own anchor 3 through VMs nobody runs, and
    /// counts one fallback and nothing else. The shortest chain overall
    /// runs f1 on W1's VM 2 (1 → 2 → 3); the free one detours through 4.
    #[test]
    fn a_breached_guard_rebuilds_the_walk_on_free_vms() {
        let network = net();
        let mut set = WalkSet::new(2);
        add(&mut set, walk(0, &[0, 1, 2, 6], &[2, 3]), &network);
        let slot = set.slots.len();
        set.slots.push(None);
        set.place(
            slot,
            walk(1, &[1, 2, 6, 5, 4, 3], &[2, 5]),
            &network,
            MAX_DEPTH + 1,
            &mut SearchContext::new(),
        )
        .unwrap();
        assert_eq!(
            set.stats,
            ConflictStats {
                fallbacks: 1,
                ..ConflictStats::default()
            }
        );
        let w2 = set.walk(slot);
        assert_eq!(w2, &walk(1, &[1, 0, 4, 3], &[2, 3]));
        // A walk over the graph's links, its placements on VMs.
        assert!(w2
            .nodes
            .windows(2)
            .all(|p| network.graph().edge_between(p[0], p[1]).is_some()));
        assert!((0..2).all(|i| network.is_vm(w2.vnf_node(i))));
        // No VM runs two VNFs.
        let mut map: HashMap<NodeId, usize> = HashMap::new();
        for (_, w) in set.walks() {
            for (i, &p) in w.vnf_positions.iter().enumerate() {
                assert_eq!(*map.entry(w.nodes[p]).or_insert(i), i, "VM {}", w.nodes[p]);
            }
        }
    }

    #[test]
    fn splice_keeps_order_invariants() {
        // Chain length 3. Prefix provides f1@7, f2@6; suffix wanted f1@6
        // (conflict, index 0) and keeps only its own f3@4.
        let p = walk(0, &[0, 7, 6, 5], &[1, 2, 3]);
        let s = walk(1, &[1, 2, 6, 3, 4], &[2, 3, 4]);
        let out = splice(&p, 1, &s, 0);
        assert_eq!(out.source, NodeId::new(0));
        assert_eq!(
            out.nodes,
            vec![
                NodeId::new(0),
                NodeId::new(7),
                NodeId::new(6),
                NodeId::new(3),
                NodeId::new(4)
            ]
        );
        // f1, f2 from the prefix (positions 1, 2); f3 from the suffix,
        // re-based: old pos 4, splice at suffix pos 2 → 2 + (4 − 2) = 4.
        assert_eq!(out.vnf_positions, vec![1, 2, 4]);
    }

    #[test]
    fn splice_drops_superseded_suffix_placements() {
        // Prefix supplies everything up to and including the conflict index;
        // no suffix placements remain (they become pass-through).
        let p = walk(0, &[0, 7, 6], &[1, 2]);
        let s = walk(1, &[1, 2, 6, 3, 4], &[2, 4]);
        let out = splice(&p, 1, &s, 0);
        assert_eq!(out.vnf_positions, vec![1, 2]);
        assert_eq!(out.nodes.len(), 5);
        assert_eq!(out.anchor(), NodeId::new(4));
    }
}
