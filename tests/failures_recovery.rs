//! Acceptance tests for the `sof_survive` survivability subsystem wired
//! through the streaming runner: the protected preset's JSONL is
//! byte-identical across worker-thread counts and reruns and stays in
//! lockstep with its committed golden; the standby-forest policy strictly
//! beats reactive on mean recovery cost over the shared failure trace; and
//! protector switchover never routes through a failed element while
//! repaired elements go straight back into service.

use sof::core::{
    Applied, Element, EmbedMode, OnlineConfig, OnlineSession, Request, SessionEvent, SofdaConfig,
};
use sof::graph::{NodeId, RootedTree};
use sof::spec::{presets, run_churn_stream, RunOptions};
use sof::survive::{ProtectionPolicy, Protector};
use sof::topo::{build_instance, softlayer, ScenarioParams};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// A `Write` that can be handed to [`run_churn_stream`] (which takes the
/// writer by value) while the test keeps a handle to the bytes.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn into_string(self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Streams the bundled protected preset (all three policy legs plus the
/// closing policy-comparison line) with the given worker-thread count.
fn protected_stream(threads: usize) -> String {
    let spec = presets::preset("churn-failures-protected")
        .expect("bundled preset")
        .expect("preset parses");
    let buf = SharedBuf::default();
    let opts = RunOptions {
        threads,
        ..RunOptions::default()
    };
    run_churn_stream(&spec, &opts, buf.clone()).unwrap();
    buf.into_string()
}

/// Failure application and recovery run serially between rounds, so the
/// full three-leg stream — failure trace, recovery records, and the
/// comparison line — is byte-identical for 1 and 4 worker threads, across
/// reruns, and against the committed golden CI diffs.
#[test]
fn protected_preset_is_thread_count_independent_and_matches_golden() {
    let one = protected_stream(1);
    assert!(one.contains("\"type\":\"failure\""), "trace emitted");
    assert!(one.contains("\"type\":\"recovery\""), "recoveries emitted");
    assert_eq!(one, protected_stream(4), "thread count changed the bytes");
    assert_eq!(one, protected_stream(1), "rerun changed the bytes");
    let golden = std::fs::read_to_string("crates/spec/specs/golden/churn-failures-protected.jsonl")
        .expect("committed golden file");
    assert_eq!(one, golden, "stream drifted from the committed golden");
}

/// Pulls one leg's `mean_recovery_cost` out of the policy-comparison line.
fn mean_recovery_cost(line: &str, policy: &str) -> f64 {
    let leg = format!("{{\"policy\":\"{policy}\",");
    let rest = &line[line.find(&leg).expect("leg present")..];
    let key = "\"mean_recovery_cost\":";
    let tail = &rest[rest.find(key).expect("cost present") + key.len()..];
    let end = tail
        .find(|c: char| !c.is_ascii_digit() && !"+-.eE".contains(c))
        .unwrap_or(tail.len());
    tail[..end].parse().expect("numeric cost")
}

/// The acceptance criterion of the survivability PR: on the identical
/// failure trace, the pre-solved standby forest recovers strictly cheaper
/// on average than reactive full rebuilds.
#[test]
fn standby_forest_strictly_beats_reactive_on_the_shared_trace() {
    let out = protected_stream(1);
    let line = out
        .lines()
        .rev()
        .find(|l| l.contains("\"type\":\"policy-comparison\""))
        .expect("comparison line closes the stream");
    let reactive = mean_recovery_cost(line, "reactive");
    let standby = mean_recovery_cost(line, "standby-forest");
    assert!(
        standby < reactive,
        "standby ({standby}) must beat reactive ({reactive})"
    );
}

/// A seeded SoftLayer session with a standing forest, the same instance
/// recipe as the online-session acceptance tests.
fn embedded_session(seed: u64) -> OnlineSession {
    let topo = softlayer();
    let mut p = ScenarioParams::paper_defaults().with_seed(seed);
    p.vm_count = topo.dc_nodes.len() * 5;
    p.chain_len = 3;
    let mut s = OnlineSession::new(
        build_instance(&topo, &p),
        sof::solvers::by_name("SOFDA").expect("registered"),
        SofdaConfig::default().with_seed(seed),
        OnlineConfig::default().with_mode(EmbedMode::Incremental),
    );
    let first = Request::new(
        s.instance().request.sources.clone(),
        s.instance().request.destinations.clone(),
        s.instance().request.chain.clone(),
    );
    s.apply(SessionEvent::Arrive(first)).unwrap();
    s
}

/// Fails `element` in `s`, answering with the destinations it disrupted.
fn fail(s: &mut OnlineSession, element: Element) -> Vec<NodeId> {
    match s.apply(SessionEvent::Fail(vec![element])) {
        Ok(Applied::Failed(broken)) => broken.into_iter().collect(),
        other => panic!("failing {element:?} answered {other:?}"),
    }
}

fn repair(s: &mut OnlineSession, element: Element) {
    s.apply(SessionEvent::Repair(vec![element])).unwrap();
}

/// The last hop of the first standing walk: failing it always disrupts
/// that walk's destination.
fn last_hop(s: &OnlineSession) -> (NodeId, NodeId, NodeId) {
    let w = &s.forest().unwrap().walks[0];
    let n = w.nodes.len();
    (w.destination, w.nodes[n - 2], w.nodes[n - 1])
}

/// BackupPaths switchover never leaves a walk traversing a failed
/// element: after recovery the standing forest validates and avoids every
/// failed edge and switch (or the cascade dropped it for a deferred
/// rebuild — never a silently broken forest).
#[test]
fn backup_switchover_never_traverses_a_failed_element() {
    let mut s = embedded_session(7);
    let mut protector = Protector::new(ProtectionPolicy::BackupPaths, None);
    protector.prewarm(&mut s);
    let (d, u, v) = last_hop(&s);
    let affected = fail(&mut s, Element::Link(u, v));
    assert!(affected.contains(&d), "last hop disrupts its destination");
    let outcome = protector.recover(&mut s, &affected);
    assert_eq!(outcome.affected, affected.len());
    if outcome.pending {
        assert!(s.forest().is_none(), "deferred recovery clears the forest");
    } else {
        assert_eq!(outcome.recovered, affected.len());
        let forest = s.forest().expect("recovered forest stands");
        forest.validate(s.instance()).unwrap();
        assert!(
            s.faults().forest_avoids(forest),
            "recovered forest still traverses a failed element"
        );
    }
}

/// A standby swap is free: when the pre-solved disjoint forest survives
/// the failure, recovery costs exactly zero and the installed forest
/// avoids the failed elements.
#[test]
fn standby_swap_is_zero_cost_and_avoids_failures() {
    let mut s = embedded_session(11);
    let solver = sof::solvers::by_name("SOFDA").expect("registered");
    let mut protector = Protector::new(ProtectionPolicy::StandbyForest, Some(solver));
    protector.prewarm(&mut s);
    assert!(protector.standby_ready(), "standby solve must succeed here");
    let (_, u, v) = last_hop(&s);
    let affected = fail(&mut s, Element::Link(u, v));
    let outcome = protector.recover(&mut s, &affected);
    if let Some(forest) = s.forest() {
        forest.validate(s.instance()).unwrap();
        assert!(
            s.faults().forest_avoids(forest),
            "post-recovery forest traverses a failed element"
        );
        // The disjointness-priced standby avoided the primary's links, so
        // the swap path fired and was free.
        if outcome.recovered == outcome.affected && outcome.cost == 0.0 {
            return;
        }
        // Otherwise the cascade spliced backup walks in; still recovered.
        assert!(outcome.recovered > 0 || outcome.affected == 0);
    } else {
        assert!(outcome.pending, "no forest means a deferred rebuild");
    }
}

/// The standby solve runs on a repriced clone of the session, on a fork of
/// the session's path engine: it counts into the session's counters, but
/// the trees it recomputes never replace the session's, which the session
/// still hits afterwards.
/// The VMs' trees are read as every solve reads them
/// (`PathEngine::rooted_at`): the session's 85 VMs sit on SoftLayer's 17
/// data centres, a VM on a zero-cost stub reads its data centre's tree and
/// one whose stub the forest loads reads its own, so the session holds one
/// tree per entry those lookups answer from, 23 here. Fails when
/// the clone shares the session's engine outright: its trees replace the
/// session's, and each lookup is a stale miss recomputed cold.
#[test]
fn a_standby_solve_leaves_the_session_its_trees() {
    let mut s = embedded_session(11);
    let engine = s.instance().network.paths().clone();
    let vms = s.instance().network.vms();
    let held: Vec<RootedTree> = vms
        .iter()
        .map(|&vm| engine.rooted_at(s.instance().network.graph(), vm))
        .collect();
    let mut entries: Vec<_> = held.iter().map(|t| Arc::as_ptr(t.shared())).collect();
    entries.sort_unstable();
    entries.dedup();
    let entries = entries.len();
    assert_eq!((vms.len(), entries, engine.len()), (85, 23, 23));
    let before = engine.stats();
    let solver = sof::solvers::by_name("SOFDA").expect("registered");
    let mut protector = Protector::new(ProtectionPolicy::StandbyForest, Some(solver));
    protector.prewarm(&mut s);
    assert!(protector.standby_ready(), "standby solve must succeed here");
    let solved = engine.stats();
    assert!(
        solved.misses >= before.misses + entries as u64,
        "the standby solve counts into the session's engine: {before:?} → {solved:?}"
    );
    for (&vm, tree) in vms.iter().zip(&held) {
        let again = engine.rooted_at(s.instance().network.graph(), vm);
        assert!(
            Arc::ptr_eq(tree.shared(), again.shared()),
            "the standby solve replaced {vm}'s tree"
        );
    }
    assert_eq!(engine.stats().misses, solved.misses);
    assert_eq!(engine.len(), entries);
}

/// Repaired elements return to service: after `repair` the edge is
/// priced at its pristine cost again and a fresh embedding of the same
/// group is free to route through it.
#[test]
fn repaired_links_are_reused_by_later_embeddings() {
    let mut s = embedded_session(13);
    let (_, u, v) = last_hop(&s);
    let e = s.instance().network.graph().edge_between(u, v).unwrap();
    let pristine = s.instance().network.graph().edge_cost(e);
    fail(&mut s, Element::Link(u, v));
    assert!(
        s.instance().network.graph().edge_cost(e) > pristine,
        "failure must surcharge the link"
    );
    repair(&mut s, Element::Link(u, v));
    assert!(s.faults().is_empty());
    assert_eq!(
        s.instance().network.graph().edge_cost(e),
        pristine,
        "repair must restore the pristine price"
    );
    // A from-scratch re-embedding of the same group may route through the
    // repaired link again — and with the original seed it does, because
    // the pre-failure optimum used it.
    let again = Request::new(
        s.instance().request.sources.clone(),
        s.instance().request.destinations.clone(),
        s.instance().request.chain.clone(),
    );
    let mut fresh = embedded_session(13);
    fresh.arrive(again).unwrap();
    let key = (u.min(v), u.max(v));
    let uses_repaired = fresh.forest().unwrap().walks.iter().any(|w| {
        w.nodes
            .windows(2)
            .any(|p| (p[0].min(p[1]), p[0].max(p[1])) == key)
    });
    assert!(uses_repaired, "optimal embedding reuses the repaired link");
}

/// Every link and VM of `s` priced bit for bit as in `twin`.
fn assert_priced_like(s: &OnlineSession, twin: &OnlineSession, after: &str) {
    let (net, expect) = (&s.instance().network, &twin.instance().network);
    for (e, _) in net.graph().edges() {
        let (got, want) = (net.graph().edge_cost(e), expect.graph().edge_cost(e));
        assert_eq!(
            got.value().to_bits(),
            want.value().to_bits(),
            "{after}: {e:?}"
        );
    }
    for vm in net.vms() {
        let (got, want) = (net.node_cost(vm), expect.node_cost(vm));
        assert_eq!(
            got.value().to_bits(),
            want.value().to_bits(),
            "{after}: {vm}"
        );
    }
}

/// Fails and repairs compose in any order: once everything failed has been
/// repaired, every link and VM is priced exactly as in a twin session that
/// saw the same arrivals and never failed anything. Two sequences that used
/// to leak 1e9 for the rest of the session's life: two adjacent nodes
/// failed and repaired in the same order (the second node recorded the
/// first one's 1e9 as their shared link's pristine cost), and a VM failed
/// first as a VM and then as a node (the node recorded the VM's 1e9). Fails
/// when a repair restores a remembered price instead of re-deriving it from
/// what is still failed.
#[test]
fn repairs_compose_back_to_the_never_failed_prices() {
    let twin = embedded_session(7);

    let mut s = embedded_session(7);
    let req = &s.instance().request;
    let transit = |n| !req.sources.contains(&n) && !req.destinations.contains(&n);
    let (a, b) = s
        .instance()
        .network
        .graph()
        .edges()
        .map(|(_, e)| (e.u, e.v))
        .find(|&(u, v)| transit(u) && transit(v))
        .expect("two adjacent transit nodes");
    for n in [a, b] {
        fail(&mut s, Element::Node(n));
    }
    for n in [a, b] {
        repair(&mut s, Element::Node(n));
    }
    assert_priced_like(&s, &twin, "two adjacent nodes");

    let mut s = embedded_session(7);
    let v = s.instance().network.vms()[0];
    fail(&mut s, Element::Vm(v));
    fail(&mut s, Element::Node(v));
    repair(&mut s, Element::Vm(v));
    repair(&mut s, Element::Node(v));
    assert_priced_like(&s, &twin, "a VM, then its node");
}
