//! PathEngine equivalence suite: the memoized shortest-path engine, the
//! shared exact-stroll workspace, the relaxation memo and the persistent
//! `sof_par` pool are pure performance layers — solver outputs must stay
//! **bit-identical** to the pre-engine path. The `meta` and `row` lines
//! of the committed golden RunReport JSONL files were generated before any
//! of these layers existed, so regenerating the miniature presets and
//! comparing byte-for-byte — under multiple thread counts — pins exactly
//! that. The online goldens' `stat` lines also carry each session's work
//! counts (k-stroll nodes, chains expanded, links repriced, engine cache
//! and bounded-search counts). Those were recorded later, with the engine
//! in place: they pin the work the layers do, at every thread count.

use sof::core::{
    solve_sofda, Network, OnlineConfig, OnlineSession, Request, ServiceChain, SofInstance, Sofda,
    SofdaConfig,
};
use sof::graph::{generators, Cost, CostRange, NodeId, Rng64, RootedTree, ShortestPaths};
use sof::spec::overrides::{apply_overrides, Overrides};
use sof::spec::{presets, run_churn_stream, run_spec, write_jsonl, RunOptions};
use std::io::Write;
use std::sync::{Arc, Mutex};

fn golden(name: &str) -> String {
    std::fs::read_to_string(format!("crates/spec/specs/golden/{name}.jsonl"))
        .expect("committed golden file")
}

fn run_preset(name: &str, overrides: &Overrides, threads: usize) -> String {
    let mut spec = presets::preset(name).expect("bundled preset").unwrap();
    apply_overrides(&mut spec, overrides);
    spec.validate().unwrap();
    let report = run_spec(
        &spec,
        &RunOptions {
            threads,
            ..RunOptions::default()
        },
    )
    .unwrap();
    write_jsonl(&report, false)
}

/// The engine-backed comparison sweep (fig8: SOFDA + baselines sharing one
/// network's cache) reproduces the pre-engine golden bytes for both a
/// serial and a pooled thread count.
#[test]
fn fig8_sweep_matches_pre_engine_golden_across_thread_counts() {
    let overrides = Overrides {
        seeds: Some(1),
        limit: Some(2),
        solvers: Some(
            ["SOFDA", "eNEMP", "eST", "ST"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        ),
        ..Overrides::default()
    };
    let expect = golden("fig8");
    for threads in [1usize, 4] {
        assert_eq!(
            run_preset("fig8", &overrides, threads),
            expect,
            "threads={threads}"
        );
    }
}

/// The warm-engine online path (fig12: standing sessions joining/leaving
/// on cached trees, congestion epochs invalidating between arrivals)
/// reproduces the pre-engine golden bytes for both thread counts.
#[test]
fn fig12_online_matches_pre_engine_golden_across_thread_counts() {
    let overrides = Overrides {
        requests: Some(4),
        ..Overrides::default()
    };
    let expect = golden("fig12");
    for threads in [1usize, 4] {
        assert_eq!(
            run_preset("fig12", &overrides, threads),
            expect,
            "threads={threads}"
        );
    }
}

/// The churn × failures preset (cost-drift rebuilds, a periodic VM failure
/// and its recovery stats) reproduces its golden bytes for both thread
/// counts, at the arrival count CI runs it with.
#[test]
fn inet_churn_failures_matches_golden_across_thread_counts() {
    let overrides = Overrides {
        requests: Some(8),
        ..Overrides::default()
    };
    let expect = golden("inet-churn-failures");
    for threads in [1usize, 4] {
        assert_eq!(
            run_preset("inet-churn-failures", &overrides, threads),
            expect,
            "threads={threads}"
        );
    }
}

/// A `Write` that can be handed to [`run_churn_stream`] (which takes the
/// writer by value) while the test keeps a handle to the bytes.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The explicit region pair-cost preset (a streamed churn-at-scale run
/// whose placements depend on `workload.pair_cost`) reproduces its golden
/// bytes for both thread counts, at its native scale, as CI runs it.
#[test]
fn churn_pair_cost_matches_golden_across_thread_counts() {
    let spec = presets::preset("churn-pair-cost")
        .expect("bundled preset")
        .unwrap();
    let expect = golden("churn-pair-cost");
    for threads in [1usize, 4] {
        let buf = SharedBuf::default();
        let opts = RunOptions {
            threads,
            ..RunOptions::default()
        };
        run_churn_stream(&spec, &opts, buf.clone()).unwrap();
        let got = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(got, expect, "threads={threads}");
    }
}

/// The exact-solver preset (relaxation memo + pooled child relaxations)
/// reproduces its golden bytes for both thread counts.
#[test]
fn table2_exact_matches_pre_engine_golden_across_thread_counts() {
    let overrides = Overrides {
        seeds: Some(2),
        ..Overrides::default()
    };
    let expect = golden("table2");
    for threads in [1usize, 4] {
        assert_eq!(
            run_preset("table2", &overrides, threads),
            expect,
            "threads={threads}"
        );
    }
}

/// A longer fig12 (requests 12: joins, leaves and a rebuild on both legs)
/// emits byte-identical reports at both thread counts.
#[test]
fn fig12_requests_12_is_byte_identical_across_thread_counts() {
    let overrides = Overrides {
        requests: Some(12),
        ..Overrides::default()
    };
    assert_eq!(
        run_preset("fig12", &overrides, 1),
        run_preset("fig12", &overrides, 4),
        "thread count leaked into the report"
    );
}

/// The session of the inet-3000 witnesses below, at seed 13: a factory
/// for `OnlineSession`s on `inet_sized(3000, 6000, 120, 13)` with 40 VMs
/// under `opts`, and the churn stream that drives them (6 sources, groups
/// of 8, a chain of 3, and `churn.0..=churn.1` viewers leaving and as many
/// joining per arrival). Arrival 0 is `stream.current()`, the same group
/// for any `churn`.
fn inet3000_online(
    opts: OnlineConfig,
    churn: (usize, usize),
) -> (impl Fn() -> OnlineSession, sof::sim::ChurnStream) {
    use sof::sim::{ChurnParams, ChurnStream, WorkloadParams};
    use sof::topo::{build_instance, inet_sized, ScenarioParams};
    let seed = 13;
    let churn = ChurnParams {
        base: WorkloadParams {
            sources: (6, 6),
            destinations: (8, 8),
            chain_len: 3,
            demand_mbps: 5.0,
        },
        leaves: churn,
        joins: churn,
    };
    let topo = inet_sized(3000, 6000, 120, seed);
    let chain_len = churn.base.chain_len;
    let make = move || {
        // The builder draws placeholder endpoints; the first arrival
        // replaces them with the group.
        let params = ScenarioParams {
            vm_count: 40,
            sources: 1,
            destinations: 1,
            chain_len,
            setup_scale: 1.0,
            seed,
        };
        OnlineSession::new(
            build_instance(&topo, &params),
            Box::new(Sofda),
            SofdaConfig::default(),
            opts,
        )
    };
    (make, ChurnStream::new(churn, 3000, seed))
}

/// A rebuild on a repriced network finds its cached trees stale and
/// recomputes them cold, and the engine stays invisible in results — the
/// benchmark's `online-inet10k` regime at a third of the size: one
/// `OnlineSession` on `inet_sized(3000, 6000, 120, seed)` with 40 VMs, 6
/// sources, groups of 8 and one viewer leaving and one joining per arrival.
/// Drift rebuilds are off (an infinite threshold); the script drops the
/// forest before the eighth arrival instead, so that arrival rebuilds
/// whatever the forest costs. Each arrival reprices a handful of links, so
/// that rebuild finds its VM trees at an older cost epoch: each one is a
/// stale miss, and a twin session whose engine is emptied before every
/// arrival (so it never reads a cached tree) reports bit-equal costs and
/// equal forests. Serving a stale tree as a hit sinks the twin check.
///
/// The same run is the work witness for the bounded join: every
/// tail-attach join runs exactly one bounded search, and that search
/// settles fewer than a tenth of the graph's vertices.
#[test]
fn inet3000_online_stale_trees_are_recomputed_and_stay_invisible() {
    let no_drift = OnlineConfig {
        drift: f64::INFINITY,
        ..OnlineConfig::default()
    };
    let (make, mut stream) = inet3000_online(no_drift, (1, 1));
    let (mut warm, mut twin) = (make(), make());
    let n = warm.instance().network.node_count() as u64;
    let mut rebuilds = 0;
    for arrival in 0..10 {
        let request = if arrival == 0 {
            stream.current().clone()
        } else {
            stream.next_request()
        };
        if arrival == 8 {
            warm.clear_forest();
            twin.clear_forest();
        }
        let before = warm.instance().network.paths().bounded_work();
        let was = warm.instance().network.paths().stats();
        let a = warm.arrive(request.clone()).unwrap();
        twin.instance().network.paths().clear();
        let b = twin.arrive(request).unwrap();
        assert_eq!(a.forest_cost.to_bits(), b.forest_cost.to_bits());
        assert_eq!(a.accumulated_cost.to_bits(), b.accumulated_cost.to_bits());
        assert_eq!((a.rebuilt, a.joined, a.left), (b.rebuilt, b.joined, b.left));
        assert_eq!(warm.forest(), twin.forest(), "arrival {arrival}");
        let after = warm.instance().network.paths().bounded_work();
        if a.rebuilt {
            rebuilds += 1;
            assert_eq!(after, before, "a rebuild joins nobody");
        } else {
            assert_eq!((a.joined, a.left), (1, 1), "arrival {arrival}");
            assert_eq!(after.searches, before.searches + 1, "one search per join");
            let settled = after.settled - before.settled;
            assert!(
                settled * 10 < n,
                "arrival {arrival}: the join settled {settled} of {n} vertices"
            );
        }
        if arrival == 8 {
            let now = warm.instance().network.paths().stats();
            let (stale, misses) = (now.stale - was.stale, now.misses - was.misses);
            assert!(stale > 0, "the rebuild found no stale tree: {now:?}");
            assert!(misses >= stale, "a stale tree is a miss: {now:?}");
        }
    }
    assert_eq!(rebuilds, 2, "the first embed and the forced rebuild");
    assert_eq!(
        twin.instance().network.paths().stats().stale,
        0,
        "the twin's emptied engine holds no stale tree"
    );
}

/// The default rule's witness: 64 arrivals of the inet-3000 script with
/// one to three viewers leaving and one to three joining per arrival (the
/// ranges of `ChurnParams::softlayer`), under `OnlineConfig::default()`:
/// no periodic re-route, and a rebuild once the standing forest costs 1.5
/// times the last solve's. Pinned: the full solves, the re-routes, the
/// fallbacks and the bits of the accumulated cost. Two solves: the first
/// embed and, at arrival 36, a rebuild on cost evidence (no fallback, the
/// sources and chain never change, and the standing cost before it had
/// reached 1.5 times the first solve's), accumulating 34 940.49. Calling
/// `dynamics::reroute_all` on every 6th arrival sinks the pin (rebuilds at
/// arrivals 13, 30 and 60), and so does a default drift of 2.0 (no
/// rebuild). With one
/// viewer leaving and one joining per arrival the default first rebuilds
/// at arrival 112 508, so that script witnesses nothing here.
#[test]
fn inet3000_online_default_rebuilds_on_cost_evidence_under_wider_churn() {
    let (make, mut stream) = inet3000_online(OnlineConfig::default(), (1, 3));
    let mut session = make();
    let first = session.arrive(stream.current().clone()).unwrap();
    let (mut standing, mut rebuilds) = (first.forest_cost, Vec::new());
    for arrival in 1..64 {
        let a = session.arrive(stream.next_request()).unwrap();
        if a.rebuilt {
            assert!(standing >= 1.5 * first.forest_cost, "arrival {arrival}");
            rebuilds.push(arrival);
        }
        standing = a.forest_cost;
    }
    let stats = session.stats();
    assert_eq!(rebuilds, [36]);
    assert_eq!(
        (
            stats.full_solves,
            stats.reroutes,
            stats.fallbacks,
            session.accumulated_cost().to_bits()
        ),
        (2, 0, 0, 4_675_034_997_470_459_322)
    );
}

/// How many engine entries `trees` are read from.
fn entries(trees: &[RootedTree]) -> usize {
    let mut seen: Vec<*const ShortestPaths> =
        trees.iter().map(|t| Arc::as_ptr(t.shared())).collect();
    seen.sort_unstable();
    seen.dedup();
    seen.len()
}

/// The engine keeps one tree per key, on the same session. What the
/// session leaves is counted before the test looks anything up, because
/// a lookup releases a leaf's other entry (`PathEngine::rooted_at`):
/// after arrival 0 the session holds 35 trees; the 40 VMs are then read
/// from 36 (a host's tree for each VM on a zero-cost stub, the 120 data
/// centres hosting some VMs in pairs, and a VM's own for each of the 3
/// whose stub the forest loads). The one tree the session did not hold
/// is the own tree of a loaded VM that shares its data centre with a
/// free one, which keeps the host's tree too; the solve read that VM
/// before its stub was loaded. One to three viewers leave and as many
/// join per arrival, so the default drift rule first rebuilds at arrival
/// 36 (with one of each, at arrival 112 508). After that rebuild the
/// session holds 36 trees and the 40 VMs are read from 35 of them: the one
/// left over is the own tree of a VM whose stub is free again, which waits
/// for that VM's own lookup and goes there (the unit twin
/// `engine::tests::a_leaf_is_released_at_its_own_lookup`). Each tree read
/// after arrival 0 is either still the engine's tree for that VM or held
/// by this test alone — the engine released the tree it replaced. Keeping the previous tree beside the one that replaces it
/// sinks it (and the unit twin
/// `engine::tests::a_superseded_tree_is_released`), and so does keeping a
/// leaf's tree under both its keys (the unit twin
/// `engine::tests::a_loaded_stub_falls_back_and_releases_its_hosts_tree`).
#[test]
fn inet3000_online_releases_superseded_trees() {
    let (make, mut stream) = inet3000_online(OnlineConfig::default(), (1, 3));
    let mut session = make();
    assert!(session.arrive(stream.current().clone()).unwrap().rebuilt);
    let engine = session.instance().network.paths().clone();
    let left = engine.len();
    let vms = session.instance().network.vms();
    let held: Vec<RootedTree> = vms
        .iter()
        .map(|&vm| engine.rooted_at(session.instance().network.graph(), vm))
        .collect();
    assert_eq!(
        (left, held.len(), entries(&held), engine.len()),
        (35, 40, 36, 36)
    );
    let rebuilt_at = (1..)
        .find(|_| session.arrive(stream.next_request()).unwrap().rebuilt)
        .unwrap();
    assert_eq!(rebuilt_at, 36);
    let left = engine.len();
    let graph = session.instance().network.graph();
    let now: Vec<RootedTree> = vms.iter().map(|&vm| engine.rooted_at(graph, vm)).collect();
    for (old, new) in held.iter().zip(&now) {
        let holders = held
            .iter()
            .filter(|h| Arc::ptr_eq(h.shared(), old.shared()))
            .count();
        assert!(
            Arc::ptr_eq(old.shared(), new.shared()) || Arc::strong_count(old.shared()) == holders,
            "the engine still holds a superseded tree of {}",
            old.root()
        );
    }
    assert_eq!(
        (left, entries(&now), engine.len()),
        (36, 35, 35),
        "one tree per key, nothing else"
    );
}

/// The queue's work witness on Table I's regime at CI size — the
/// benchmark's `oneshot-inet5k` shape on `inet_sized(600, 1200, 240, 13)`
/// with the paper's 25 VMs and 14 sources: the 25 full trees a solve's
/// chain metrics ask for (one per VM, none at a source), run on one
/// workspace as the engine runs them.
/// `DijkstraWorkspace::queue_moves` (entries re-placed when a bucket is
/// redistributed) depends only on the push/pop sequence, so it repeats
/// exactly — on a reused workspace too — and it stays under twice the
/// measured count (97 028 moves, 3 881 a tree; 151 265 over 39 trees when
/// the queue landed and the 14 sources were roots too; a 5 025-vertex tree
/// of the benchmark takes about 43 500 for 7 200 pushes). A change to how
/// the queue files or redistributes entries keeps every tree as long as it
/// keeps the pop order, so no equivalence test sees what it costs; this
/// count does, where wall-clock on a shared CI box cannot.
#[test]
fn queue_moves_are_exact_and_under_their_ceiling() {
    use sof::graph::DijkstraWorkspace;
    use sof::topo::{build_instance, inet_sized, ScenarioParams};
    const MEASURED: u64 = 97_028;
    let topo = inet_sized(600, 1200, 240, 13);
    let inst = build_instance(&topo, &ScenarioParams::paper_defaults().with_seed(13));
    let roots = inst.network.vms();
    assert_eq!(roots.len(), 25);
    let graph = inst.network.graph();
    let mut ws = DijkstraWorkspace::new();
    let mut moves_after = || {
        for &root in &roots {
            ws.run(graph, [root]);
            assert!(roots.iter().all(|&r| ws.dist(r).is_finite()));
        }
        ws.queue_moves()
    };
    let first = moves_after();
    assert_eq!(
        moves_after(),
        2 * first,
        "the count is cumulative and exact"
    );
    assert!(
        first > 0 && first <= 2 * MEASURED,
        "{first} queue moves over 25 trees, measured {MEASURED}"
    );
}

/// The leaf rule's work witness, on the same 25 VM roots: the full-run
/// path (`DijkstraWorkspace::tree`, what an engine miss and
/// `ShortestPaths::from_sources` run) labels a vertex of degree 1 without
/// queueing it — 156 of this instance's 625 vertices, every VM among them
/// — so its queue re-places 80 468 entries where the stamped `run` above
/// re-places 97 028, for the same trees. The count repeats exactly on a
/// reused workspace, and the ceiling sits between the two, so queueing
/// leaves again (`relax_from` pushing whatever `queue_leaves` says) sinks
/// it while no equivalence test can: the trees do not change.
#[test]
fn full_runs_never_queue_a_leaf() {
    use sof::graph::DijkstraWorkspace;
    use sof::topo::{build_instance, inet_sized, ScenarioParams};
    const MEASURED: u64 = 80_468;
    const CEILING: u64 = 88_000;
    let topo = inet_sized(600, 1200, 240, 13);
    let inst = build_instance(&topo, &ScenarioParams::paper_defaults().with_seed(13));
    let roots = inst.network.vms();
    let graph = inst.network.graph();
    let leaves = graph.nodes().filter(|&v| graph.degree(v) == 1).count();
    assert_eq!((roots.len(), leaves, graph.node_count()), (25, 156, 625));
    let mut ws = DijkstraWorkspace::new();
    let mut moves_after = || {
        for &root in &roots {
            let tree = ws.tree(graph, &[root]);
            assert!(graph.nodes().all(|v| tree.site(v) == Some(root)));
        }
        ws.queue_moves()
    };
    let first = moves_after();
    assert_eq!(moves_after(), 2 * first, "cumulative and exact");
    assert!(
        first > 0 && first <= CEILING,
        "{first} queue moves over 25 full runs, measured {MEASURED}"
    );
}

/// The data centres the VMs of a freshly built instance hang off: each
/// VM's one neighbour, over a zero-cost stub.
fn hosts(net: &Network) -> u64 {
    let dcs: std::collections::BTreeSet<NodeId> = net
        .vms()
        .into_iter()
        .map(|vm| {
            assert_eq!(net.graph().degree(vm), 1);
            let (dc, stub) = net.graph().neighbors(vm).next().unwrap();
            assert_eq!(net.graph().edge_cost(stub), Cost::ZERO);
            dc
        })
        .collect();
    dcs.len() as u64
}

/// The work witness for "a solve roots one shortest-path tree per data
/// centre that hosts a VM, and none at a source, while the chain is
/// non-empty". A VM hangs off its data centre by a zero-cost stub, so its
/// tree is read from its host's (`PathEngine::rooted_at`). On the inet-600
/// instance `solve_sofda` (25 VMs, 14 sources) leaves exactly one engine
/// miss per host — 25 here, as every VM has a data centre of its own; 39
/// while every source's chain metric rooted a tree of its own — and
/// `solve_sofda_ss` from the first source alone leaves the same 25, where
/// it was 26. On Cogent (`oneshot-kstroll`'s script at seed 13: 35 VMs on
/// 40 data centres, a chain of 4) the first six solves leave 21–27 misses,
/// one per host where there were 35, and the script's 100 instances hold
/// 2 349 hosts. Engine counts depend only on the query sequence, so they
/// repeat exactly at any thread count. Three stubs sink it: the VM block
/// asking the engine for a VM's own tree (`from_source`) again,
/// `ChainMetric::build` rooting a tree at the source, and the walk re-route
/// `ServiceForest::shorten` runs rooting a walk's first segment at its
/// source `a`.
#[test]
fn a_solve_roots_its_trees_at_vms_only() {
    use sof::core::solve_sofda_ss;
    use sof::topo::{build_instance, cogent, inet_sized, ScenarioParams};
    let topo = inet_sized(600, 1200, 240, 13);
    let make = || build_instance(&topo, &ScenarioParams::paper_defaults().with_seed(13));

    let inst = make();
    let vms = inst.network.vms().len() as u64;
    assert_eq!((vms, hosts(&inst.network)), (25, 25));
    assert_eq!(inst.request.sources.len(), 14);
    solve_sofda(&inst, &SofdaConfig::default()).unwrap();
    let stats = inst.network.paths().stats();
    assert_eq!(stats.misses, 25, "one cold tree per host: {stats:?}");

    let mut single = make();
    single.request.sources.truncate(1);
    solve_sofda_ss(&single, &SofdaConfig::default()).unwrap();
    let stats = single.network.paths().stats();
    assert_eq!(stats.misses, 25, "none at the one source either: {stats:?}");

    let topo = cogent();
    let params = |i: u64| ScenarioParams {
        vm_count: 35,
        sources: 14,
        destinations: 6,
        chain_len: 4,
        setup_scale: 1.0,
        seed: 13u64.wrapping_mul(1_000_003).wrapping_add(i),
    };
    let mut misses = Vec::new();
    for i in 0..6 {
        let inst = build_instance(&topo, &params(i));
        solve_sofda(&inst, &SofdaConfig::default()).unwrap();
        let stats = inst.network.paths().stats();
        assert_eq!(
            stats.misses,
            hosts(&inst.network),
            "Cogent op {i}: {stats:?}"
        );
        misses.push(stats.misses);
    }
    assert_eq!(misses, [23, 26, 21, 22, 22, 27]);
    let all: u64 = (0..100)
        .map(|i| hosts(&build_instance(&topo, &params(i)).network))
        .sum();
    assert_eq!(all, 2349, "hosts over oneshot-kstroll's 100 instances");
}

/// The same rule for the §VII-C edits of a standing forest: every segment
/// an edit routes, every VM it prices and every chain a full-search join
/// finishes is read from the tree a VM's lookup answers with
/// (`PathEngine::rooted_at`: its data centre's), and the solve looked up
/// every VM.
/// So on the same inet-600 instance (chain of 3), at the solve's cost
/// epoch, no edit below adds an engine miss. Rooting a segment out of the
/// source at the source cost `reroute_all` one miss per distinct walk
/// source, the index-0 and index-`|C|` edits one each (a source or a
/// destination tree), and a full-search join a tree at the destination and
/// one at every mid-chain attach point. Two stubs sink it: `reroute_all`
/// rooting a walk's first segment at its source, and a `FullSearch` join
/// rooting a tree at the joining destination.
#[test]
fn section_vii_c_edits_root_no_tree_the_solve_did_not() {
    use sof::core::dynamics::{self, DynamicsError};
    use sof::core::{JoinStrategy, ServiceForest};
    use sof::topo::{build_instance, inet_sized, ScenarioParams};
    let topo = inet_sized(600, 1200, 240, 13);
    let inst = build_instance(&topo, &ScenarioParams::paper_defaults().with_seed(13));
    let forest = solve_sofda(&inst, &SofdaConfig::default()).unwrap().forest;
    let solved = inst.network.paths().stats().misses;
    let chain = forest.chain_len;
    assert!(chain >= 2);
    let d = inst
        .network
        .graph()
        .nodes()
        .find(|n| !inst.request.destinations.contains(n) && !inst.request.sources.contains(n))
        .unwrap();
    let first_vm = forest.walks[0].vnf_node(0);

    type Edit = Box<dyn Fn(&mut SofInstance, &mut ServiceForest) -> Result<(), DynamicsError>>;
    let edits: Vec<(&str, Edit)> = vec![
        (
            "reroute_all",
            Box::new(|i, f| {
                dynamics::reroute_all(i, f);
                Ok(())
            }),
        ),
        (
            "shorten",
            Box::new(|i, f| {
                f.shorten(&i.network);
                Ok(())
            }),
        ),
        (
            "FullSearch join",
            Box::new(move |i, f| {
                dynamics::destination_join_with(i, f, d, JoinStrategy::FullSearch).map(drop)
            }),
        ),
        (
            "vnf_insert at 0",
            Box::new(|i, f| dynamics::vnf_insert(i, f, 0, "probe")),
        ),
        (
            "vnf_insert at |C|",
            Box::new(move |i, f| dynamics::vnf_insert(i, f, chain, "probe")),
        ),
        (
            "vnf_delete at 0",
            Box::new(|i, f| dynamics::vnf_delete(i, f, 0)),
        ),
        (
            "migrate_vm of f1's VM",
            Box::new(move |i, f| dynamics::migrate_vm(i, f, first_vm).map(drop)),
        ),
    ];
    for (name, edit) in &edits {
        let (mut i, mut f) = (inst.clone(), forest.clone());
        edit(&mut i, &mut f).unwrap_or_else(|e| panic!("{name}: {e}"));
        f.validate(&i).unwrap_or_else(|e| panic!("{name}: {e}"));
        let stats = inst.network.paths().stats();
        assert_eq!(stats.misses, solved, "{name} rooted a tree: {stats:?}");
    }
}

fn random_instance(seed: u64) -> SofInstance {
    let mut rng = Rng64::seed_from(seed);
    let g = generators::gnp_connected(28, 0.16, CostRange::new(1.0, 7.0), &mut rng);
    let mut net = Network::all_switches(g);
    let picks = rng.sample_indices(28, 12);
    for &v in &picks[..6] {
        net.make_vm(NodeId::new(v), Cost::new(rng.range_f64(0.5, 3.0)));
    }
    SofInstance::new(
        net,
        Request::new(
            vec![NodeId::new(picks[6]), NodeId::new(picks[7])],
            picks[8..12].iter().map(|&i| NodeId::new(i)).collect(),
            ServiceChain::with_len(2),
        ),
    )
    .unwrap()
}

/// A warm engine (trees cached by a previous solve) and a cold engine
/// produce structurally equal forests with bit-equal costs — cache reuse
/// can never leak into results.
#[test]
fn warm_and_cold_engines_agree_on_solves() {
    for seed in 0..6 {
        let warm_inst = random_instance(seed);
        // Warm up: solve once, discard, solve again on the now-warm cache.
        let first = solve_sofda(&warm_inst, &SofdaConfig::default()).unwrap();
        let warm = solve_sofda(&warm_inst, &SofdaConfig::default()).unwrap();
        assert!(
            warm_inst.network.paths().stats().hits > 0,
            "second solve must reuse cached trees"
        );
        // Cold: a freshly rebuilt, never-solved instance.
        let cold_inst = random_instance(seed);
        let cold = solve_sofda(&cold_inst, &SofdaConfig::default()).unwrap();
        assert_eq!(first.cost, warm.cost, "seed {seed}");
        assert_eq!(warm.cost, cold.cost, "seed {seed}");
        assert_eq!(warm.forest, cold.forest, "seed {seed}");
    }
}

/// An `OnlineSession` keeps one engine warm across arrivals; its results
/// must match a twin session rebuilt from scratch each arrival — and the
/// congestion refresh between arrivals must bump the graph's cost epoch so
/// no stale tree is ever served.
#[test]
fn online_session_warm_engine_is_invisible_in_results() {
    let make = || {
        OnlineSession::new(
            random_instance(42),
            Box::new(Sofda),
            SofdaConfig::default(),
            OnlineConfig::default(),
        )
    };
    let mut a = make();
    let mut b = make();
    let base = a.instance().request.clone();
    let mut grown = base.clone();
    let extra = a
        .instance()
        .network
        .graph()
        .nodes()
        .find(|n| !base.destinations.contains(n) && !base.sources.contains(n))
        .unwrap();
    grown.destinations.push(extra);
    for req in [base.clone(), grown, base] {
        let ra = a.arrive(req.clone()).unwrap();
        let rb = b.arrive(req).unwrap();
        assert_eq!(ra.forest_cost.to_bits(), rb.forest_cost.to_bits());
        assert_eq!(ra.accumulated_cost.to_bits(), rb.accumulated_cost.to_bits());
        assert_eq!(ra.rebuilt, rb.rebuilt);
    }
    assert_eq!(a.forest(), b.forest());
}

/// Invalidation end to end: reprice an edge **on** a cached tree through
/// the network and the engine must refuse the stale tree. (Repricing an
/// edge the tree does not traverse is instead repaired in place — covered
/// by the scoped-invalidation tests in `sof_graph`.)
#[test]
fn cost_mutation_invalidates_network_cache() {
    let inst = random_instance(7);
    let g = inst.network.graph();
    let src = inst.request.sources[0];
    let before = inst.network.paths().from_source(g, src);
    let mut inst2 = inst.clone();
    let e = g
        .nodes()
        .find_map(|v| before.parent(v).map(|(_, e)| e))
        .expect("source tree has at least one edge");
    let bumped = inst2.network.graph().edge_cost(e) * 10.0;
    inst2.network.graph_mut().set_edge_cost(e, bumped);
    let after = inst2
        .network
        .paths()
        .from_source(inst2.network.graph(), src);
    // The stale Arc still holds the old snapshot; the engine recomputed.
    let stats = inst2.network.paths().stats();
    assert!(
        stats.misses >= 2,
        "mutation must force a recompute: {stats:?}"
    );
    let reference = ShortestPaths::from_source(inst2.network.graph(), src);
    for v in inst2.network.graph().nodes() {
        assert_eq!(after.dist(v), reference.dist(v));
    }
    drop(before);
}

/// The pooled and the legacy scoped `par_map` paths cannot be toggled in
/// one process (the pool flag is latched at first use), but the pooled
/// path must match the serial path — which is the legacy path's own
/// invariant — on real solver workloads.
#[test]
fn pooled_solves_match_serial_solves() {
    let inst = random_instance(3);
    let serial = sof::exact::solve_exact_with(&inst, 300, 1).unwrap();
    let pooled = sof::exact::solve_exact_with(&inst, 300, 4).unwrap();
    assert_eq!(serial.cost, pooled.cost);
    assert_eq!(serial.nodes_explored, pooled.nodes_explored);
    assert_eq!(serial.forest, pooled.forest);
}

/// PathEngine sharing semantics: clones of a network share one cache.
#[test]
fn network_clones_share_their_engine() {
    let inst = random_instance(9);
    let clone = inst.clone();
    let src = inst.request.sources[0];
    let a = inst.network.paths().from_source(inst.network.graph(), src);
    let b = clone
        .network
        .paths()
        .from_source(clone.network.graph(), src);
    assert!(
        std::sync::Arc::ptr_eq(&a, &b),
        "clone must hit the shared cache"
    );
    assert_eq!(clone.network.paths().stats().hits, 1);
}

fn eat(hash: u64, x: u64) -> u64 {
    (hash ^ x).wrapping_mul(0x0100_0000_01b3)
}

fn eat_walk(mut hash: u64, nodes: &[NodeId], positions: &[usize]) -> u64 {
    hash = eat(hash, nodes.len() as u64);
    nodes
        .iter()
        .for_each(|v| hash = eat(hash, v.index() as u64));
    positions.iter().for_each(|&p| hash = eat(hash, p as u64));
    hash
}

/// FNV-1a over a forest's walks and VNF positions; an error hashes as one
/// marker.
fn eat_forest<E>(mut hash: u64, forest: Result<&sof::core::ServiceForest, E>) -> u64 {
    let Ok(forest) = forest else {
        return eat(hash, u64::MAX);
    };
    for w in &forest.walks {
        hash = eat(hash, w.source.index() as u64);
        hash = eat(hash, w.destination.index() as u64);
        hash = eat_walk(hash, &w.nodes, &w.vnf_positions);
    }
    hash
}

/// Every answer that reads a VM's shortest-path tree, digested: for each
/// source (and, when the instance has one, the VM `vm_source`), with and
/// without an Appendix D source cost, every entry of its chain metric and
/// every chain's target, stroll, cost, expanded walk and walk cost; then
/// the SOFDA, SOFDA-SS and baseline forests with their cost bits and solve
/// counts, and a full-search join, a VNF insert at 0 and a re-route of
/// every walk on the SOFDA forest. The joining node is the first switch no
/// walk passes.
fn chain_digest(inst: &SofInstance, vm_source: Option<NodeId>, mut hash: u64) -> u64 {
    use sof::core::dynamics;
    use sof::core::{solve_sofda_ss, ChainMetric, JoinStrategy};
    use sof::kstroll::StrollSolver;
    let net = &inst.network;
    let vms = net.vms();
    let chain_len = inst.chain_len();
    let mut rng = Rng64::seed_from(1);
    for &s in inst.request.sources.iter().chain(&vm_source) {
        for source_cost in [Cost::ZERO, Cost::new(2.5)] {
            let Some(cm) = ChainMetric::build(net, s, &vms, source_cost) else {
                hash = eat(hash, u64::MAX);
                continue;
            };
            let m = cm.metric();
            hash = eat(hash, m.len() as u64);
            for i in 0..m.len() {
                hash = eat(hash, cm.node(i).index() as u64);
                m.row(i)
                    .iter()
                    .for_each(|c| hash = eat(hash, c.value().to_bits()));
            }
            for (t, stroll, cost) in cm.chains_to_all_vms(chain_len, StrollSolver::Exact, &mut rng)
            {
                hash = eat(hash, t as u64);
                stroll
                    .nodes
                    .iter()
                    .for_each(|&i| hash = eat(hash, i as u64));
                hash = eat(hash, stroll.cost.value().to_bits());
                hash = eat(hash, cost.value().to_bits());
                let (walk, positions) = cm.expand(&stroll);
                hash = eat_walk(hash, &walk, &positions);
                hash = eat(hash, cm.walk_cost(net, &walk, &positions).value().to_bits());
            }
        }
    }
    let config = SofdaConfig::default();
    let single = {
        let mut single = inst.clone();
        single.request.sources.truncate(1);
        single
    };
    let solves = [
        solve_sofda(inst, &config),
        solve_sofda_ss(&single, &config),
        sof::baselines::solve_st(inst, &config),
        sof::baselines::solve_est(inst, &config),
        sof::baselines::solve_enemp(inst, &config),
    ];
    for out in &solves {
        hash = eat_forest(hash, out.as_ref().map(|o| &o.forest));
        if let Ok(o) = out {
            hash = eat(hash, o.cost.setup.value().to_bits());
            hash = eat(hash, o.cost.connection.value().to_bits());
            let s = &o.stats;
            hash = eat(hash, s.candidate_chains as u64);
            hash = eat(hash, s.stroll_nodes);
            hash = eat(hash, s.steiner_cost.value().to_bits());
            hash = eat(hash, s.conflicts.total() as u64);
        }
    }
    let Ok(solved) = &solves[0] else {
        return hash;
    };
    let joining = net
        .graph()
        .nodes()
        .find(|v| !net.is_vm(*v) && !solved.forest.walks.iter().any(|w| w.nodes.contains(v)))
        .expect("a switch off the forest");
    let (mut i, mut f) = (inst.clone(), solved.forest.clone());
    let joined = dynamics::destination_join_with(&mut i, &mut f, joining, JoinStrategy::FullSearch);
    hash = eat(hash, joined.map_or(u64::MAX, |c| c.value().to_bits()));
    hash = eat_forest(hash, Ok::<_, ()>(&f));
    let (mut i, mut f) = (inst.clone(), solved.forest.clone());
    let inserted = dynamics::vnf_insert(&mut i, &mut f, 0, "probe");
    hash = eat_forest(hash, inserted.map(|()| &f));
    let mut f = solved.forest.clone();
    dynamics::reroute_all(inst, &mut f);
    eat_forest(hash, Ok::<_, ()>(&f))
}

/// A generated instance in the shape of §VII's: a `gnp` or `inet_like`
/// graph whose first nodes are data centres, most VMs hanging off one by
/// a zero-cost stub (two of them always on data centre 0), one VM a
/// switch made a VM in place, and one stub loaded with a cost. Destination
/// 0 is data centre 1, and the returned VM (a stub VM) is also priced as a
/// source.
fn stubbed_instance(case: u64) -> (SofInstance, NodeId) {
    use sof::core::NodeKind;
    let mut rng = Rng64::seed_from(0x57AB + case);
    let n = 22 + rng.below(12);
    let costs = CostRange::new(1.0, 9.0);
    let g = if case.is_multiple_of(2) {
        generators::gnp_connected(n, 0.14, costs, &mut rng)
    } else {
        generators::inet_like(n, n + n / 2, costs, &mut rng)
    };
    let dcs = 6;
    let mut net = Network::all_switches(g);
    let mut stubs = Vec::new();
    for i in 0..9 {
        let dc = NodeId::new(if i < 2 { 0 } else { rng.below(dcs) });
        let vm = net.add_node(NodeKind::Vm, Cost::new(rng.range_f64(0.5, 4.0)));
        stubs.push(net.graph_mut().add_edge(vm, dc, Cost::ZERO));
    }
    let loaded = stubs[3 + rng.below(6)];
    net.graph_mut().set_edge_cost(loaded, Cost::new(0.75));
    let picks = rng.sample_indices(n - dcs, 7);
    let at = |i: usize| NodeId::new(dcs + picks[i]);
    net.make_vm(at(0), Cost::new(rng.range_f64(0.5, 4.0)));
    let vm_source = net.graph().edge(stubs[2]).u;
    let inst = SofInstance::new(
        net,
        Request::new(
            vec![at(1), at(2), at(3)],
            vec![NodeId::new(1), at(4), at(5), at(6)],
            ServiceChain::with_len(1 + rng.below(3)),
        ),
    )
    .unwrap();
    (inst, vm_source)
}

/// The chain-metric fixture: [`chain_digest`] over 12 generated stubbed
/// instances and over SoftLayer (paper defaults: 25 VMs on 17 data
/// centres, chain of 3) and Cogent (`oneshot-kstroll`'s 35 VMs and chain
/// of 4) at seeds 0–5. Any change to how a VM's tree is found, shared or
/// read must leave every bit of it in place.
#[test]
fn chain_metrics_walks_and_costs_are_bit_identical() {
    use sof::topo::{build_instance, cogent, softlayer, ScenarioParams};
    let mut generated = 0xcbf2_9ce4_8422_2325;
    for case in 0..12 {
        let (inst, vm_source) = stubbed_instance(case);
        generated = chain_digest(&inst, Some(vm_source), generated);
    }
    let mut paper = 0xcbf2_9ce4_8422_2325;
    for (topo, vm_count, chain_len) in [(softlayer(), 25, 3), (cogent(), 35, 4)] {
        for seed in 0..6 {
            let mut p = ScenarioParams::paper_defaults().with_seed(seed);
            (p.vm_count, p.chain_len) = (vm_count, chain_len);
            paper = chain_digest(&build_instance(&topo, &p), None, paper);
        }
    }
    assert_eq!(
        generated, 0x34fc_1b98_0050_7f9a,
        "generated chain metrics moved"
    );
    assert_eq!(
        paper, 0x8588_61af_b686_53f4,
        "SoftLayer / Cogent chain metrics moved"
    );
}
