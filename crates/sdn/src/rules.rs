//! OpenFlow-style rule compilation from a service overlay forest.
//!
//! Each chain segment gets its own multicast group tag; switches replicate
//! packets along the segment's tree, and VMs rewrite the tag when they
//! process a VNF — the standard encoding of service-chained multicast in
//! match+action pipelines. [`RuleTable::tcam_entries`] gives the flow-table
//! footprint (the paper's §II cites TCAM size as a first-class constraint).

use sof_core::{Network, ServiceForest};
use sof_graph::NodeId;
use std::collections::{BTreeMap, BTreeSet};

/// A compiled flow rule: match `(group)` at `switch`, replicate to
/// `outputs`, optionally process a VNF first (advancing the group tag).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowRule {
    /// Switch (or VM host) holding the rule.
    pub switch: NodeId,
    /// Segment tag the rule matches (`0 ..= |C|`).
    pub group: usize,
    /// Next hops the packet is replicated to.
    pub outputs: Vec<NodeId>,
    /// `Some(i)` when this node runs VNF `i` (consumes tag `i`, emits
    /// tag `i+1`).
    pub process: Option<usize>,
}

/// The forest's compiled rule set.
#[derive(Clone, Debug, Default)]
pub struct RuleTable {
    rules: Vec<FlowRule>,
}

impl RuleTable {
    /// Compiles a forest into per-switch multicast rules.
    pub fn compile(forest: &ServiceForest) -> RuleTable {
        let enabled = forest.enabled_vms().expect("conflict-free forest");
        // outputs[(node, group)] -> set of next hops.
        let mut outputs: BTreeMap<(NodeId, usize), BTreeSet<NodeId>> = BTreeMap::new();
        for (seg, edges) in forest.segment_edges().into_iter().enumerate() {
            for (a, b) in edges {
                outputs.entry((a, seg)).or_default().insert(b);
            }
        }
        let mut rules: Vec<FlowRule> = outputs
            .into_iter()
            .map(|((switch, group), outs)| FlowRule {
                switch,
                group,
                outputs: outs.into_iter().collect(),
                process: enabled.get(&switch).copied().filter(|&i| i + 1 == group),
            })
            .collect();
        // Processing VMs that terminate a walk (no further outputs in the
        // next segment from them) still need a processing rule.
        for (&vm, &i) in &enabled {
            let has = rules.iter().any(|r| r.switch == vm && r.group == i + 1);
            if !has {
                rules.push(FlowRule {
                    switch: vm,
                    group: i + 1,
                    outputs: vec![],
                    process: Some(i),
                });
            }
        }
        rules.sort_by_key(|r| (r.switch, r.group));
        RuleTable { rules }
    }

    /// All rules, ordered by `(switch, group)`.
    pub fn rules(&self) -> &[FlowRule] {
        &self.rules
    }

    /// Total TCAM entries consumed.
    pub fn tcam_entries(&self) -> usize {
        self.rules.len()
    }

    /// Data-plane check: floods a packet from every used source with tag 0
    /// and verifies each destination receives a fully processed copy
    /// (tag `|C|`). This validates the *compiled rules*, independent of the
    /// forest structures they came from.
    pub fn delivers(&self, network: &Network, forest: &ServiceForest) -> bool {
        let chain_len = forest.chain_len;
        let _ = network;
        let mut index: BTreeMap<(NodeId, usize), &FlowRule> = BTreeMap::new();
        for r in &self.rules {
            index.insert((r.switch, r.group), r);
        }
        let enabled = forest.enabled_vms().expect("conflict-free");
        let sources: BTreeSet<NodeId> = forest.walks.iter().map(|w| w.source).collect();
        let mut reached: BTreeSet<(NodeId, usize)> = BTreeSet::new();
        let mut stack: Vec<(NodeId, usize)> = sources.iter().map(|&s| (s, 0)).collect();
        while let Some((node, tag)) = stack.pop() {
            if !reached.insert((node, tag)) {
                continue;
            }
            // Processing: a VM holding tag == its VNF index advances it.
            if let Some(&i) = enabled.get(&node) {
                if i == tag && tag < chain_len {
                    stack.push((node, tag + 1));
                }
            }
            if let Some(rule) = index.get(&(node, tag)) {
                for &out in &rule.outputs {
                    stack.push((out, tag));
                }
            }
        }
        forest
            .walks
            .iter()
            .all(|w| reached.contains(&(w.destination, chain_len)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sof_core::{solve_sofda, Network, Request, ServiceChain, SofInstance, SofdaConfig};
    use sof_graph::{generators, Cost, CostRange, Rng64};

    fn solved(seed: u64) -> (SofInstance, ServiceForest) {
        let mut rng = Rng64::seed_from(seed);
        let g = generators::gnp_connected(22, 0.18, CostRange::new(1.0, 6.0), &mut rng);
        let mut net = Network::all_switches(g);
        let picks = rng.sample_indices(22, 13);
        for &v in &picks[..6] {
            net.make_vm(NodeId::new(v), Cost::new(rng.range_f64(0.5, 3.0)));
        }
        let inst = SofInstance::new(
            net,
            Request::new(
                vec![NodeId::new(picks[6]), NodeId::new(picks[7])],
                picks[8..12].iter().map(|&i| NodeId::new(i)).collect(),
                ServiceChain::with_len(2),
            ),
        )
        .unwrap();
        let out = solve_sofda(&inst, &SofdaConfig::default()).unwrap();
        (inst, out.forest)
    }

    #[test]
    fn compiled_rules_deliver_to_all_destinations() {
        for seed in 0..8 {
            let (inst, forest) = solved(seed);
            let table = RuleTable::compile(&forest);
            assert!(
                table.delivers(&inst.network, &forest),
                "seed {seed}: rules failed to deliver"
            );
            assert!(table.tcam_entries() > 0);
            let mut per_switch: BTreeMap<NodeId, usize> = BTreeMap::new();
            for r in table.rules() {
                *per_switch.entry(r.switch).or_default() += 1;
            }
            assert!(per_switch.values().all(|&n| n <= forest.chain_len + 1));
        }
    }

    #[test]
    fn rule_counts_track_segment_fanout() {
        let (_, forest) = solved(1);
        let table = RuleTable::compile(&forest);
        // One rule per (node, segment) with outputs, plus terminal process
        // rules; every rule's group is within range.
        for r in table.rules() {
            assert!(r.group <= forest.chain_len);
        }
    }

    #[test]
    fn empty_forest_compiles_to_empty_table() {
        let table = RuleTable::compile(&ServiceForest::default());
        assert_eq!(table.tcam_entries(), 0);
    }
}
