//! Property-based tests over randomized instances (proptest).

use proptest::prelude::*;
use sof::core::{
    solve_sofda, Applied, Element, JoinStrategy, Network, OnlineConfig, OnlineSession, Request,
    ServiceChain, ServiceForest, SessionEvent, SofInstance, SofdaConfig, FAILED_COST,
};
use sof::daemon::http::{self, ReadError, MAX_HEAD, MAX_REPLY_HEAD};
use sof::daemon::{router, Registry};
use sof::exact::IpFormulation;
use sof::graph::{generators, Cost, CostRange, EdgeId, Graph, NodeId, Rng64};
use sof::kstroll::{
    exact_all_targets, exact_stroll, greedy_stroll, DenseMetric, SearchContext, StrollSolver,
};
use sof::spec::value::{parse_json, Value};
use sof::survive::{ProtectionPolicy, Protector};
use sof::topo::{build_instance, build_named, ScenarioParams, Topology, TopologySpec};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::io::{BufReader, ErrorKind};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;
use std::sync::{Barrier, RwLock};

fn random_instance(
    seed: u64,
    n: usize,
    vms: usize,
    srcs: usize,
    dsts: usize,
    chain: usize,
) -> SofInstance {
    let mut rng = Rng64::seed_from(seed);
    let g = generators::gnp_connected(n, 0.2, CostRange::new(1.0, 9.0), &mut rng);
    let mut net = Network::all_switches(g);
    let picks = rng.sample_indices(n, vms + srcs + dsts);
    for &v in &picks[..vms] {
        net.make_vm(NodeId::new(v), Cost::new(rng.range_f64(0.2, 4.0)));
    }
    SofInstance::new(
        net,
        Request::new(
            picks[vms..vms + srcs]
                .iter()
                .map(|&i| NodeId::new(i))
                .collect(),
            picks[vms + srcs..]
                .iter()
                .map(|&i| NodeId::new(i))
                .collect(),
            ServiceChain::with_len(chain),
        ),
    )
    .unwrap()
}

/// The paper's IP accepts `forest` on `inst` at the cost the forest itself
/// reports.
fn ip_accepts_at_its_cost(inst: &SofInstance, forest: &ServiceForest) -> bool {
    IpFormulation::build(inst)
        .check_forest(forest)
        .is_ok_and(|objective| objective.approx_eq(forest.cost(&inst.network).total()))
}

/// A script of `len` session events on `inst`, after one first arrival:
/// fails and repairs of overlapping VMs, links, nodes and node groups (a
/// domain's shape), arrivals of random subsets of the request's
/// destinations, and single joins and leaves among them. Drawn from `seed`
/// alone, never from a session's state, so any subsequence of it is a
/// script too.
fn session_script(inst: &SofInstance, seed: u64, len: usize) -> Vec<SessionEvent> {
    let mut rng = Rng64::seed_from(seed ^ 0xfa17);
    let n = inst.network.node_count();
    let links: Vec<(NodeId, NodeId)> = inst
        .network
        .graph()
        .edges()
        .map(|(_, e)| (e.u, e.v))
        .collect();
    let node = |rng: &mut Rng64| NodeId::new(rng.below(n));
    let groups: Vec<Vec<Element>> = (0..3)
        .map(|_| {
            rng.sample_indices(n, 4)
                .into_iter()
                .map(|i| Element::Node(NodeId::new(i)))
                .collect()
        })
        .collect();
    let pool = &inst.request.destinations;
    let arrival = |rng: &mut Rng64| {
        let keep = 1 + rng.below(pool.len());
        let dests = rng
            .sample_indices(pool.len(), keep)
            .into_iter()
            .map(|i| pool[i]);
        let request = Request::new(
            inst.request.sources.clone(),
            dests.collect(),
            inst.request.chain.clone(),
        );
        SessionEvent::Arrive(request)
    };
    let mut failed_before: Vec<Element> = Vec::new();
    let mut script = vec![arrival(&mut rng)];
    for _ in 0..len {
        script.push(match rng.below(14) {
            0..=2 => {
                let element = match rng.below(3) {
                    0 => Element::Vm(node(&mut rng)),
                    1 => {
                        let (u, v) = links[rng.below(links.len())];
                        Element::Link(u.min(v), u.max(v))
                    }
                    _ => Element::Node(node(&mut rng)),
                };
                failed_before.push(element);
                SessionEvent::Fail(vec![element])
            }
            3 => SessionEvent::Fail(groups[rng.below(groups.len())].clone()),
            // Repair something that may or may not be failed.
            4..=6 => {
                let element = match rng.below(2) {
                    0 if !failed_before.is_empty() => failed_before[rng.below(failed_before.len())],
                    _ => Element::Node(node(&mut rng)),
                };
                SessionEvent::Repair(vec![element])
            }
            7 => SessionEvent::Repair(groups[rng.below(groups.len())].clone()),
            8..=9 => arrival(&mut rng),
            10..=11 => SessionEvent::Join(pool[rng.below(pool.len())]),
            _ => SessionEvent::Leave(pool[rng.below(pool.len())]),
        });
    }
    script
}

/// Runs `script` on a fresh SOFDA session over `inst` beside a twin that
/// sees only its arrivals, joins and leaves, and checks after every event:
/// the session's own invariants; the paper's IP (§III-A) accepts the
/// standing forest, at the cost the session reported; the reported
/// arrival costs sum to the accumulated cost; and a plain model of the
/// fault set — three kinds of entry and the covering rule spelled out —
/// says which links and VMs are priced out, which elements the session
/// refuses, and that every reattachment it plans avoids what is failed. A
/// destination a fail broke takes its planned reattachment, as a
/// backup-paths policy would, or the forest is dropped for the next
/// arrival to rebuild. Once the rest is repaired, the session prices the
/// twin's forest bit for bit as the never-failed twin does.
fn run_session_script(
    inst: &SofInstance,
    opts: OnlineConfig,
    seed: u64,
    script: &[SessionEvent],
) -> Result<(), TestCaseError> {
    let session = || {
        OnlineSession::new(
            inst.clone(),
            sof::solvers::by_name("SOFDA").expect("registered"),
            SofdaConfig::default().with_seed(seed),
            opts,
        )
    };
    let (mut s, mut twin) = (session(), session());
    let vms = inst.network.vms();
    // The model: what is failed, and nothing else.
    let mut failed: BTreeSet<Element> = BTreeSet::new();
    let link = |u: NodeId, v: NodeId| Element::Link(u.min(v), u.max(v));
    let mut arrived = 0.0;
    for (step, event) in script.iter().enumerate() {
        let req = &s.instance().request;
        let endpoint = |n: &NodeId| req.sources.contains(n) || req.destinations.contains(n);
        // The session refuses exactly what is not there to fail: a node
        // not a VM, or a node that is an endpoint of the current request.
        let accepted: Vec<Element> = match event {
            SessionEvent::Fail(elements) => elements
                .iter()
                .copied()
                .filter(|e| match e {
                    Element::Vm(v) => vms.contains(v),
                    Element::Link(..) => true,
                    Element::Node(v) => !endpoint(v),
                })
                .collect(),
            _ => Vec::new(),
        };
        let answer = s.apply(event.clone());
        match event {
            SessionEvent::Fail(_) => {
                prop_assert!(
                    answer.is_ok() != accepted.is_empty(),
                    "step {step}: {event:?}"
                );
                failed.extend(accepted);
            }
            SessionEvent::Repair(elements) => {
                let any = elements.iter().fold(false, |any, e| failed.remove(e) | any);
                prop_assert!(answer.is_ok() == any, "step {step}: {event:?}");
            }
            // The twin moves with the group. A session cut off by its
            // failures may refuse an arrival; the twin never does.
            SessionEvent::Arrive(_) => prop_assert!(twin.apply(event.clone()).is_ok()),
            SessionEvent::Join(_) | SessionEvent::Leave(_) => {
                let _ = twin.apply(event.clone());
            }
        }
        let reported = match &answer {
            Ok(Applied::Arrival(report)) => {
                arrived += report.forest_cost;
                Some(report.forest_cost)
            }
            Ok(Applied::Left(cost)) => Some(*cost),
            _ => None,
        };
        prop_assert!(
            arrived.to_bits() == s.accumulated_cost().to_bits(),
            "step {step}"
        );
        if let (Some(forest), Some(cost)) = (s.forest(), reported) {
            let objective = IpFormulation::build(s.instance()).check_forest(forest);
            prop_assert!(
                objective
                    .as_ref()
                    .is_ok_and(|o| o.approx_eq(Cost::new(cost))),
                "step {step}: {event:?} reported {cost}, the IP says {objective:?}"
            );
        }

        // The covering rule, from the model's three kinds of entry.
        let node_down = |v: NodeId| failed.contains(&Element::Node(v));
        let vm_down = |v: NodeId| node_down(v) || failed.contains(&Element::Vm(v));
        let edge_down =
            |u: NodeId, v: NodeId| node_down(u) || node_down(v) || failed.contains(&link(u, v));
        let net = &s.instance().network;
        for (e, edge) in net.graph().edges() {
            let priced_out = net.graph().edge_cost(e).value() >= FAILED_COST;
            prop_assert!(
                priced_out == edge_down(edge.u, edge.v),
                "step {step}: {edge:?}"
            );
        }
        for &v in &vms {
            let priced_out = net.node_cost(v).value() >= FAILED_COST;
            prop_assert!(priced_out == vm_down(v), "step {step}: VM {v}");
        }
        prop_assert_eq!(s.faults().iter().collect::<BTreeSet<_>>(), failed.clone());

        // Whatever reattachment the session plans, for any served
        // destination, avoids what the model holds failed.
        let broken = match &answer {
            Ok(Applied::Failed(broken)) => broken.clone(),
            _ => BTreeSet::new(),
        };
        let served: Vec<NodeId> = s
            .forest()
            .map(|f| f.walks.iter().map(|w| w.destination).collect())
            .unwrap_or_default();
        for d in served {
            let plan = s.plan_reattach(d, (step + d.index()) % 2 == 0);
            if let Ok((walk, _)) = &plan {
                prop_assert!(s.faults().walk_avoids(walk), "step {step}: {walk:?}");
                prop_assert!(walk.nodes.iter().all(|&v| !vm_down(v)));
                prop_assert!(walk.nodes.windows(2).all(|h| !edge_down(h[0], h[1])));
            }
            if broken.contains(&d) && !plan.is_ok_and(|(walk, _)| s.switch_walk(walk).is_ok()) {
                s.clear_forest();
                break;
            }
        }
        if let Err(e) = s.check_invariants() {
            prop_assert!(false, "step {step}: {event:?}: {e}");
        }
        if let Some(forest) = s.forest() {
            let objective = IpFormulation::build(s.instance()).check_forest(forest);
            prop_assert!(objective.is_ok(), "step {step}: {objective:?}");
        }
    }

    // Repair the rest: nothing of any failure is left in any price. One
    // more arrival brings both to the same request (a session that rebuilt
    // where the twin re-embedded incrementally lists the same destinations
    // in another order).
    let everything = std::mem::take(&mut failed).into_iter().collect();
    prop_assert!(s.apply(SessionEvent::Repair(everything)).is_ok());
    prop_assert!(s.faults().is_empty());
    let last = SessionEvent::Arrive(inst.request.clone());
    prop_assert!(s.apply(last.clone()).is_ok() && twin.apply(last).is_ok());
    s.replace_forest(twin.forest().expect("the twin stands").clone())
        .map_err(|e| TestCaseError::fail(e.to_string()))?;
    let (net, expect) = (&s.instance().network, &twin.instance().network);
    for (e, _) in net.graph().edges() {
        let (got, want) = (net.graph().edge_cost(e), expect.graph().edge_cost(e));
        prop_assert!(
            got.value().to_bits() == want.value().to_bits(),
            "{e:?}: {got} for {want}"
        );
    }
    for &v in &vms {
        let (got, want) = (net.node_cost(v), expect.node_cost(v));
        prop_assert!(
            got.value().to_bits() == want.value().to_bits(),
            "VM {v}: {got} for {want}"
        );
    }
    Ok(())
}

/// The shrinker on a planted bug: a session that "panics" when a `Leave`
/// comes right after a `Fail` of a VM the leaving destination's walk runs
/// a VNF on. Some generated 200-event script trips it, and `shrink` cuts
/// that script to at most five events — an arrival, the fail, the leave.
/// Fails when `shrink` stops dropping chunks or single events.
#[test]
fn shrink_cuts_a_planted_session_bug_to_five_events() {
    let planted = |inst: &SofInstance, script: &[SessionEvent]| {
        let mut s = OnlineSession::new(
            inst.clone(),
            sof::solvers::by_name("SOFDA").expect("registered"),
            SofdaConfig::default(),
            OnlineConfig::default(),
        );
        let mut cut_off: Vec<NodeId> = Vec::new();
        for event in script {
            if let SessionEvent::Leave(d) = event {
                assert!(!cut_off.contains(d), "{d} left right after its VM failed");
            }
            cut_off = match (event, s.forest()) {
                (SessionEvent::Fail(elements), Some(forest)) => elements
                    .iter()
                    .flat_map(|e| match *e {
                        Element::Vm(v) => forest.destinations_on_vm(v),
                        _ => Vec::new(),
                    })
                    .collect(),
                _ => Vec::new(),
            };
            let _ = s.apply(event.clone());
        }
        Ok(())
    };
    let (seed, small) = (0..100)
        .find_map(|seed| {
            let inst = random_instance(seed, 20, 6, 2, 5, 2);
            let script = session_script(&inst, seed, 200);
            shrink(seed, &script, |s| planted(&inst, s)).map(|small| (seed, small))
        })
        .expect("some script trips the planted bug");
    assert!(
        small.len() <= 5,
        "seed {seed}: {} events: {small:?}",
        small.len()
    );
    assert!(matches!(
        small[..],
        [.., SessionEvent::Fail(_), SessionEvent::Leave(_)]
    ));
}

/// The SoftLayer instance `sofd` builds for a create with `seed` and the
/// default `vm_count` and `chain_len` (`build_instance`, 25 VMs, a chain of
/// two), with `sources` and `destinations` endpoints drawn. The endpoints
/// are drawn after the network, so every count gives the same network.
fn softlayer_instance(
    topo: &Topology,
    seed: u64,
    sources: usize,
    destinations: usize,
) -> SofInstance {
    let params = ScenarioParams {
        vm_count: 25,
        sources,
        destinations,
        chain_len: 2,
        setup_scale: 1.0,
        seed,
    };
    build_instance(topo, &params)
}

/// The part of [`session_script`] the wire can say: the first arrival (a
/// create), then every join, leave, and fail or repair of one element.
fn wire_script(inst: &SofInstance, seed: u64, len: usize) -> Vec<SessionEvent> {
    let mut script = session_script(inst, seed, len).into_iter();
    let create = script.next().expect("a script starts with an arrival");
    let rest = script.filter(|event| match event {
        SessionEvent::Arrive(_) => false,
        SessionEvent::Fail(elements) | SessionEvent::Repair(elements) => elements.len() == 1,
        SessionEvent::Join(_) | SessionEvent::Leave(_) => true,
    });
    std::iter::once(create).chain(rest).collect()
}

/// `POST path` with `body`, routed on `registry` with no socket in between.
fn post(registry: &RwLock<Registry>, path: &str, body: &str) -> (u16, String) {
    let request = http::Request {
        method: "POST".into(),
        path: path.into(),
        body: body.as_bytes().to_vec(),
        keep_alive: true,
    };
    router::route(registry, &AtomicBool::new(false), &request)
}

/// A registry holding SoftLayer as `sl`.
fn softlayer_registry() -> RwLock<Registry> {
    let registry = RwLock::new(Registry::new(None));
    let (status, reply) = post(
        &registry,
        "/v1/topologies",
        r#"{"name":"sl","topology":"softlayer"}"#,
    );
    assert_eq!(status, 200, "{reply}");
    registry
}

/// Sends `script` to `registry` as session requests, the first event as the
/// create (with `seed`), and returns each reply's status and body with the
/// session's id written 0.
fn wire_transcript(
    registry: &RwLock<Registry>,
    script: &[SessionEvent],
    seed: u64,
) -> Vec<(u16, String)> {
    let index = |n: &NodeId| n.index().to_string();
    let list = |nodes: &[NodeId]| nodes.iter().map(index).collect::<Vec<_>>().join(",");
    let element = |elements: &[Element]| match elements {
        [Element::Vm(v)] => format!("{{\"vm\":{}}}", v.index()),
        [Element::Link(u, v)] => format!("{{\"link\":[{},{}]}}", u.index(), v.index()),
        [Element::Node(n)] => format!("{{\"node\":{}}}", n.index()),
        _ => unreachable!("the wire fails and repairs one element at a time"),
    };
    let mut id = 0;
    let mut transcript = Vec::with_capacity(script.len());
    for event in script {
        let session = format!("/v1/sessions/{id}");
        let (path, body) = match event {
            SessionEvent::Arrive(r) => (
                "/v1/sessions".to_string(),
                format!(
                    r#"{{"topology":"sl","sources":[{}],"destinations":[{}],"chain_len":{},"seed":{seed},"ttl_secs":0}}"#,
                    list(&r.sources),
                    list(&r.destinations),
                    r.chain.len()
                ),
            ),
            SessionEvent::Join(d) => (
                format!("{session}/join"),
                format!("{{\"destination\":{}}}", index(d)),
            ),
            SessionEvent::Leave(d) => (
                format!("{session}/leave"),
                format!("{{\"destination\":{}}}", index(d)),
            ),
            SessionEvent::Fail(elements) => (format!("{session}/fail"), element(elements)),
            SessionEvent::Repair(elements) => (format!("{session}/repair"), element(elements)),
        };
        let (status, reply) = post(registry, &path, &body);
        if let (SessionEvent::Arrive(_), Ok(v)) = (event, parse_json(&reply)) {
            if let Some(Value::Int(created)) = v.get("id") {
                id = *created;
            }
        }
        let reply = reply
            .replacen(&format!("\"id\":{id},"), "\"id\":0,", 1)
            .replace(&format!("session {id}"), "session 0");
        transcript.push((status, reply));
    }
    transcript
}

/// Steps a library session, built as `sofd` builds a create's (SOFDA,
/// default configurations), through `script` and checks each step against
/// the wire's `transcript` of it: the same status class (200 or 4xx), and
/// for every 200 the same `forest_cost`, `accumulated_cost`, `rebuilt`,
/// `joined` and `left` to the bit, or the same `disrupted` /
/// `disconnected` — after which the library recovers what a fail broke as
/// `sofd` does, through the reactive [`Protector::recover`].
fn the_library_answers(
    topo: &Topology,
    script: &[SessionEvent],
    seed: u64,
    transcript: &[(u16, String)],
) -> Result<(), TestCaseError> {
    let mut s = OnlineSession::new(
        softlayer_instance(topo, seed, 1, 1),
        sof::solvers::by_name("SOFDA").expect("registered"),
        SofdaConfig::default(),
        OnlineConfig::default(),
    );
    prop_assert_eq!(transcript.len(), script.len());
    for (step, (event, (status, reply))) in script.iter().zip(transcript).enumerate() {
        let answer = s.apply(event.clone());
        prop_assert!(
            *status == 200 || (400..500).contains(status),
            "step {step}: {event:?} answered {status} {reply}"
        );
        prop_assert!(
            (*status == 200) == answer.is_ok(),
            "step {step}: {event:?} answered {status} {reply}, the library {answer:?}"
        );
        let Ok(applied) = answer else { continue };
        let int = |n: usize| Value::Int(n as i64);
        let want = match applied {
            Applied::Arrival(r) => vec![
                ("forest_cost", Value::Float(r.forest_cost)),
                ("accumulated_cost", Value::Float(r.accumulated_cost)),
                ("rebuilt", Value::Bool(r.rebuilt)),
                ("joined", int(r.joined)),
                ("left", int(r.left)),
            ],
            Applied::Left(cost) => vec![("forest_cost", Value::Float(cost))],
            Applied::Failed(broken) => {
                let broken: Vec<NodeId> = broken.into_iter().collect();
                Protector::new(ProtectionPolicy::Reactive, None).recover(&mut s, &broken);
                vec![
                    ("disrupted", int(broken.len())),
                    (
                        "disconnected",
                        Value::Array(broken.iter().map(|d| int(d.index())).collect()),
                    ),
                ]
            }
            Applied::Repaired => Vec::new(),
        };
        let v = parse_json(reply).map_err(|e| TestCaseError::fail(format!("step {step}: {e}")))?;
        for (key, want) in want {
            let got = v.get(key);
            let same = match (got, &want) {
                (Some(Value::Float(got)), Value::Float(want)) => got.to_bits() == want.to_bits(),
                (got, want) => got == Some(want),
            };
            prop_assert!(
                same,
                "step {step}: {event:?}: the wire's {key} is {got:?}, the library's {want:?}"
            );
        }
    }
    Ok(())
}

/// The exact k-stroll with its bound taken out: every simple path from
/// `path[0]` on `k` nodes ending in `target`, candidates nearest-first
/// (ties by index), hops summed left to right, the incumbent replaced only
/// on a strict improvement.
fn unpruned_stroll(
    m: &DenseMetric,
    target: usize,
    k: usize,
    path: &mut Vec<usize>,
    cost: Cost,
    best: &mut Option<(Vec<usize>, Cost)>,
) {
    let cur = *path.last().unwrap();
    if path.len() + 1 == k {
        let total = cost + m.cost(cur, target);
        if best.as_ref().is_none_or(|(_, b)| total < *b) {
            let mut nodes = path.clone();
            nodes.push(target);
            *best = Some((nodes, total));
        }
        return;
    }
    let mut next: Vec<usize> = (0..m.len())
        .filter(|v| *v != target && !path.contains(v))
        .collect();
    next.sort_by_key(|&v| m.cost(cur, v));
    for v in next {
        path.push(v);
        unpruned_stroll(m, target, k, path, cost + m.cost(cur, v), best);
        path.pop();
    }
}

/// 18 nodes, small integer link costs so equal distances are common, and a
/// quarter of the links at cost zero, like the VM–datacenter hops of real
/// instances.
fn tie_rich_graph(rng: &mut Rng64) -> Graph {
    let mut g = generators::gnp_connected(18, 0.18, CostRange::new(1.0, 4.0), rng);
    for e in (0..g.edge_count()).map(EdgeId::new) {
        let c = if rng.below(4) == 0 {
            0.0
        } else {
            g.edge_cost(e).value().floor()
        };
        g.set_edge_cost(e, Cost::new(c));
    }
    g
}

/// Labels of a textbook Dijkstra.
struct TextbookTree {
    dist: Vec<Cost>,
    parent: Vec<Option<(NodeId, EdgeId)>>,
    site: Vec<Option<NodeId>>,
}

impl TextbookTree {
    /// The parent chain to `v`, root first; `None` when `v` is unreached.
    fn path_to(&self, v: NodeId) -> Option<Vec<NodeId>> {
        self.dist[v.index()].is_finite().then(|| {
            let mut path = vec![v];
            while let Some((p, _)) = self.parent[path.last().unwrap().index()] {
                path.push(p);
            }
            path.reverse();
            path
        })
    }
}

/// The oracle for every tree the workspace builds: the loop it ran before
/// its comparison heap was replaced, on the std heap it ran on — pop in
/// `(dist, node)` order, skip stale entries, relax on strict `<`.
fn textbook_dijkstra(g: &Graph, sources: &[NodeId]) -> TextbookTree {
    let n = g.node_count();
    let mut t = TextbookTree {
        dist: vec![Cost::INFINITY; n],
        parent: vec![None; n],
        site: vec![None; n],
    };
    let mut heap = BinaryHeap::new();
    for &s in sources {
        if t.dist[s.index()] > Cost::ZERO {
            t.dist[s.index()] = Cost::ZERO;
            t.site[s.index()] = Some(s);
            heap.push(Reverse((Cost::ZERO, s)));
        }
    }
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > t.dist[u.index()] {
            continue;
        }
        for (v, e) in g.neighbors(u) {
            let nd = d + g.edge_cost(e);
            if nd < t.dist[v.index()] {
                t.dist[v.index()] = nd;
                t.parent[v.index()] = Some((u, e));
                t.site[v.index()] = t.site[u.index()];
                heap.push(Reverse((nd, v)));
            }
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every SOFDA output on a random instance is validator-feasible and its
    /// stored cost is consistent with recomputation.
    #[test]
    fn sofda_always_feasible(seed in 0u64..5000, chain in 0usize..4, dsts in 1usize..5) {
        let inst = random_instance(seed, 20, 6, 2, dsts, chain);
        let out = solve_sofda(&inst, &SofdaConfig::default().with_seed(seed)).unwrap();
        out.forest.validate(&inst).unwrap();
        let recomputed = out.forest.cost(&inst.network);
        prop_assert!(recomputed.total().approx_eq(out.cost.total()));
        // Conflict-free by construction.
        prop_assert!(out.forest.enabled_vms().is_ok());
    }

    /// The Procedure-1 metric always satisfies the triangle inequality
    /// (Lemma 1), for arbitrary node potentials.
    #[test]
    fn chain_metric_is_metric(seed in 0u64..5000) {
        let inst = random_instance(seed, 16, 6, 1, 1, 2);
        let cm = sof::core::ChainMetric::build(
            &inst.network,
            inst.request.sources[0],
            &inst.network.vms(),
            Cost::ZERO,
        )
        .unwrap();
        prop_assert!(cm.metric().respects_triangle_inequality(1e-6));
    }

    /// No tree is rooted at the source: its row of the metric is its column
    /// read backwards — bit for bit, and equal to the distance VM `j`'s own
    /// tree gives plus the two potentials — and every chain still expands
    /// into a walk that starts at the source, follows network links, runs
    /// each VNF on the stroll's VM and costs what the stroll said. Also
    /// with the source itself a VM of the set, and with an Appendix D
    /// source cost.
    #[test]
    fn source_row_is_the_vm_column_read_backwards(
        seed in 0u64..5000,
        chain in 1usize..4,
        source_is_vm in 0usize..2,
        appendix_d in 0usize..2,
    ) {
        let inst = random_instance(seed, 16, 6, 1, 1, chain);
        let (net, g) = (&inst.network, inst.network.graph());
        let vms = net.vms();
        let source = [inst.request.sources[0], vms[seed as usize % vms.len()]][source_is_vm];
        let source_cost = Cost::new([0.0, 0.3 + (seed % 7) as f64][appendix_d]);
        let cm = sof::core::ChainMetric::build(net, source, &vms, source_cost).unwrap();
        prop_assert_eq!(cm.len(), vms.len() + 1 - source_is_vm);
        prop_assert_eq!(net.paths().stats().misses, cm.len() as u64 - 1);
        let m = cm.metric();
        for j in 1..cm.len() {
            let from_vm = sof::graph::ShortestPaths::from_source(g, cm.node(j)).dist(source);
            let expect = from_vm + net.node_cost(cm.node(j)) / 2.0 + source_cost / 2.0;
            prop_assert_eq!(m.cost(j, 0).value().to_bits(), expect.value().to_bits());
            prop_assert_eq!(m.cost(0, j).value().to_bits(), expect.value().to_bits());
        }
        let mut rng = Rng64::seed_from(seed);
        let chains = cm.chains_to_all_vms(chain, StrollSolver::Exact, &mut rng);
        prop_assert!(!chains.is_empty());
        for (t, stroll, cost) in chains {
            let (walk, positions) = cm.expand(&stroll);
            prop_assert_eq!(walk[0], source);
            prop_assert!(g.walk_cost(&walk).is_some(), "walk {walk:?} leaves the network");
            let placed: Vec<NodeId> = positions.iter().map(|&p| walk[p]).collect();
            let strolled: Vec<NodeId> = stroll.nodes[1..].iter().map(|&i| cm.node(i)).collect();
            prop_assert_eq!(&placed, &strolled);
            prop_assert_eq!(placed.last(), Some(&cm.node(t)));
            let walked = cm.walk_cost(net, &walk, &positions);
            prop_assert!(walked.approx_eq(cost), "walk costs {walked}, stroll {cost}");
        }
    }

    /// A VM no path reaches makes the build refuse, whichever end the
    /// distance is read from.
    #[test]
    fn a_vm_cut_off_from_the_source_has_no_chain_metric(seed in 0u64..5000) {
        let mut inst = random_instance(seed, 12, 4, 1, 1, 2);
        let source = inst.request.sources[0];
        let build = |net: &Network| {
            sof::core::ChainMetric::build(net, source, &net.vms(), Cost::ZERO)
        };
        prop_assert!(build(&inst.network).is_some());
        inst.network.add_node(sof::core::NodeKind::Vm, Cost::new(1.0));
        prop_assert!(build(&inst.network).is_none());
    }

    /// After an arbitrary mix of edge repricings (including no-op rewrites),
    /// a persistent `PathEngine` — hitting or recomputing its cached trees —
    /// always serves trees identical to a from-scratch Dijkstra, for serial
    /// and parallel (4-thread) querying alike.
    #[test]
    fn scoped_invalidation_matches_scratch_engine(
        seed in 0u64..3000,
        parallel in 0usize..2,
    ) {
        let threads = [1usize, 4][parallel];
        let mut rng = Rng64::seed_from(seed);
        let n = 14usize;
        let mut g = generators::gnp_connected(n, 0.25, CostRange::new(1.0, 9.0), &mut rng);
        let engine = sof::graph::PathEngine::new();
        for _ in 0..5 {
            let sources: Vec<NodeId> =
                rng.sample_indices(n, 3).into_iter().map(NodeId::new).collect();
            let trees =
                sof::par::par_map_indexed(&sources, threads, |_, &s| engine.from_source(&g, s))
                    .unwrap();
            for (s, tree) in sources.iter().zip(&trees) {
                let fresh = sof::graph::ShortestPaths::from_source(&g, *s);
                for v in (0..n).map(NodeId::new) {
                    prop_assert_eq!(tree.dist(v), fresh.dist(v));
                    prop_assert_eq!(tree.parent(v), fresh.parent(v));
                }
            }
            for _ in 0..2 {
                let e = sof::graph::EdgeId::new(rng.below(g.edge_count()));
                if rng.below(3) == 0 {
                    let same = g.edge_cost(e);
                    g.set_edge_cost(e, same); // must not disturb the cache
                } else {
                    g.set_edge_cost(e, Cost::new(rng.range_f64(1.0, 9.0)));
                }
            }
        }
    }

    /// The bounded nearest-target search answers exactly what a scan of the
    /// full tree does — same cost, same target (lowest id among equals),
    /// same path — on graphs full of distance ties and zero-cost hops, under
    /// a random edge filter, whether the source is itself a target, several
    /// targets tie at the answer's distance (one of them only reachable
    /// through a zero-cost hop from the other), or no target is reachable.
    #[test]
    fn bounded_search_equals_full_tree_scan(
        seed in 0u64..6000,
        targets in 0usize..6,
        banned_pct in 0usize..60,
        shape in 0usize..4,
    ) {
        use sof::graph::{PathEngine, ShortestPaths};
        let mut rng = Rng64::seed_from(seed);
        let mut g = tie_rich_graph(&mut rng);
        let n = g.node_count();
        let source = NodeId::new(rng.below(n));
        let mut wanted: Vec<NodeId> =
            rng.sample_indices(n, targets).into_iter().map(NodeId::new).collect();
        match shape {
            // The source is a target: cost 0, path [source] — unless a
            // zero-cost hop reaches a target with a lower id.
            1 => wanted.push(source),
            // Two targets joined by a zero-cost hop: whichever is popped
            // first, the other is discovered at the same distance.
            2 => {
                let a = NodeId::new(rng.below(n));
                let b = NodeId::new((a.index() + 1 + rng.below(n - 1)) % n);
                match g.edge_between(a, b) {
                    Some(e) => g.set_edge_cost(e, Cost::ZERO),
                    None => {
                        g.add_edge(a, b, Cost::ZERO);
                    }
                }
                wanted.extend([a, b]);
            }
            _ => {}
        }
        let mut banned: Vec<bool> =
            (0..g.edge_count()).map(|_| rng.below(100) < banned_pct).collect();
        if shape == 3 {
            // Cut the source off: nothing but itself is reachable.
            for (_, e) in g.neighbors(source) {
                banned[e.index()] = true;
            }
        }
        // Reference: the same graph without the banned links (same insertion
        // order, so the same relaxation order), one full tree, and the scan
        // the §VII-C join used to run over it.
        let mut open = Graph::with_nodes(n);
        for (e, edge) in g.edges() {
            if !banned[e.index()] {
                open.add_edge(edge.u, edge.v, edge.cost);
            }
        }
        let full = ShortestPaths::from_source(&open, source);
        wanted.sort_unstable();
        wanted.dedup();
        let mut expect: Option<(Cost, NodeId)> = None;
        for &t in &wanted {
            let d = full.dist(t);
            if d.is_finite() && expect.is_none_or(|(best, _)| d < best) {
                expect = Some((d, t));
            }
        }
        let engine = PathEngine::new();
        let got = engine.nearest_target(
            &g,
            source,
            |_, e, _| !banned[e.index()],
            |v| wanted.contains(&v),
        );
        match (got, expect) {
            (None, None) => {}
            (Some(hit), Some((cost, target))) => {
                prop_assert_eq!((hit.cost, hit.target), (cost, target));
                prop_assert_eq!(Some(hit.path), full.path_to(target));
            }
            (got, expect) => prop_assert!(false, "bounded {got:?}, full scan {expect:?}"),
        }
        if shape == 3 {
            prop_assert_eq!(expect.map(|(_, t)| t), wanted.contains(&source).then_some(source));
        }
        prop_assert_eq!(engine.stats(), sof::graph::PathEngineStats::default());
        prop_assert!(engine.is_empty());
    }

    /// Every tree and every bounded answer the workspace produces equals
    /// the textbook comparison-heap Dijkstra's — which queues every vertex
    /// it improves — label for label: distances to the bit, parent hops,
    /// Voronoi sites, paths, and the bounded search's cost, target and
    /// path. Three shapes stress pop order differently: skewed float costs
    /// with zero-cost leaf VMs, a unit-cost grid (every distance a mass
    /// tie), and small integers mixed with zero-cost links (plateaus).
    /// Four small ones, all run in every case, are what a full run's leaf
    /// rule (label a vertex of degree 1, never queue it) can get wrong: a
    /// star, two vertices that are each other's only neighbour, a path's
    /// two ends, and a parallel-edge pair whose far end has degree 2 and is
    /// no leaf — the last three with an isolated vertex no root reaches.
    /// Roots are drawn at random, at a leaf, and as a set with leaves
    /// inside it, through `ShortestPaths::from_sources` and through the
    /// `PathEngine`.
    #[test]
    fn trees_equal_the_textbook_heap_dijkstra(
        seed in 0u64..5000,
        large in 0usize..3,
        targets in 1usize..7,
    ) {
        use sof::graph::{DijkstraWorkspace, PathEngine, ShortestPaths};
        let mut rng = Rng64::seed_from(seed);
        // Costs for the small shapes: zero-cost hops and ties both likely.
        let small = |rng: &mut Rng64| Cost::new([0.0, 1.0, 1.0, 2.5][rng.below(4)]);
        for shape in [large, 3, 4, 5, 6] {
            let g = match shape {
                0 => {
                    let mut g = generators::inet_like(300, 600, CostRange::UNIT, &mut rng);
                    for e in (0..g.edge_count()).map(EdgeId::new) {
                        // Table I's link costs: six decades, down to 1e-6.
                        let c = sof::core::fortz_thorup(rng.next_f64().max(1e-6), 1.0);
                        g.set_edge_cost(e, c);
                    }
                    for _ in 0..25 {
                        let host = NodeId::new(rng.below(300));
                        let vm = g.add_node();
                        g.add_edge(host, vm, Cost::ZERO);
                    }
                    g
                }
                1 => generators::grid(12, 9, CostRange::UNIT, &mut rng),
                2 => tie_rich_graph(&mut rng),
                3 => {
                    let mut g = Graph::with_nodes(2 + rng.below(7));
                    for leaf in 1..g.node_count() {
                        g.add_edge(NodeId::new(0), NodeId::new(leaf), small(&mut rng));
                    }
                    g
                }
                4 => {
                    let mut g = Graph::with_nodes(3);
                    g.add_edge(NodeId::new(0), NodeId::new(1), small(&mut rng));
                    g
                }
                5 => {
                    let mut g = Graph::with_nodes(3 + rng.below(6));
                    for i in 0..g.node_count() - 2 {
                        g.add_edge(NodeId::new(i), NodeId::new(i + 1), small(&mut rng));
                    }
                    g
                }
                _ => {
                    // 0 ═ 1 — 2 — 3, and 4 on its own: vertex 0 has one
                    // neighbour but two arcs.
                    let mut g = Graph::with_nodes(5);
                    g.add_edge(NodeId::new(0), NodeId::new(1), small(&mut rng));
                    g.add_edge(NodeId::new(1), NodeId::new(0), small(&mut rng));
                    g.add_edge(NodeId::new(1), NodeId::new(2), small(&mut rng));
                    g.add_edge(NodeId::new(2), NodeId::new(3), small(&mut rng));
                    g
                }
            };
            let n = g.node_count();
            let pick = |rng: &mut Rng64, k: usize| -> Vec<NodeId> {
                rng.sample_indices(n, k.min(n)).into_iter().map(NodeId::new).collect()
            };
            let leaves: Vec<NodeId> = g.nodes().filter(|&v| g.degree(v) == 1).collect();
            prop_assert!(matches!(shape, 1 | 2) || !leaves.is_empty(), "shape {shape} has leaves");
            let mut root_sets = vec![pick(&mut rng, 1), pick(&mut rng, 3)];
            if !leaves.is_empty() {
                let (a, b) = (leaves[rng.below(leaves.len())], leaves[rng.below(leaves.len())]);
                root_sets.push(vec![a]);
                root_sets.push([vec![a, b], pick(&mut rng, 1)].concat());
            }
            let engine = PathEngine::new();
            let mut ws = DijkstraWorkspace::new();
            for sources in root_sets {
                let want = textbook_dijkstra(&g, &sources);
                let got = ShortestPaths::from_sources(&g, sources.iter().copied());
                let cached = match sources[..] {
                    [source] => engine.from_source(&g, source),
                    _ => engine.from_sources(&g, &sources),
                };
                // And on a reused workspace, whose queue the previous round's
                // bounded search left non-empty.
                ws.run(&g, sources.iter().copied());
                for v in g.nodes() {
                    let i = v.index();
                    let path = want.path_to(v);
                    let want = (v, want.dist[i], want.parent[i], want.site[i]);
                    prop_assert_eq!((v, got.dist(v), got.parent(v), got.site(v)), want);
                    prop_assert_eq!((v, cached.dist(v), cached.parent(v), cached.site(v)), want);
                    prop_assert_eq!((v, ws.dist(v), ws.parent(v), ws.site(v)), want);
                    prop_assert_eq!(got.path_to(v), path.clone());
                    prop_assert_eq!(cached.path_to(v), path);
                }

                // Bounded: the first target of a `NodeId`-ordered strict-`<`
                // scan over the textbook tree, and its parent chain.
                let source = sources[0];
                let want = textbook_dijkstra(&g, &[source]);
                let mut wanted = pick(&mut rng, targets);
                wanted.sort_unstable();
                let mut expect: Option<(Cost, NodeId)> = None;
                for &t in &wanted {
                    let d = want.dist[t.index()];
                    if d.is_finite() && expect.is_none_or(|(best, _)| d < best) {
                        expect = Some((d, t));
                    }
                }
                let hit = ws.nearest_target(&g, source, |_, _, _| true, |v| wanted.contains(&v));
                prop_assert_eq!(
                    hit.map(|hit| (hit.cost, hit.target, Some(hit.path))),
                    expect.map(|(cost, target)| (cost, target, want.path_to(target)))
                );
                prop_assert!(shape > 3 || expect.is_some(), "shapes 0-3 are connected");
            }
        }
    }

    /// Greedy k-stroll never beats exact, and both validate.
    #[test]
    fn kstroll_orders(seed in 0u64..5000, k in 2usize..6) {
        let mut rng = Rng64::seed_from(seed);
        let pts: Vec<(f64, f64)> = (0..10).map(|_| (rng.next_f64(), rng.next_f64())).collect();
        let m = DenseMetric::symmetric_from_fn(10, |i, j| {
            let (dx, dy) = (pts[i].0 - pts[j].0, pts[i].1 - pts[j].1);
            Cost::new((dx * dx + dy * dy).sqrt())
        });
        let e = exact_stroll(&m, 0, 9, k).unwrap();
        let g = greedy_stroll(&m, 0, 9, k).unwrap();
        e.validate(&m, 0, 9, k).unwrap();
        g.validate(&m, 0, 9, k).unwrap();
        prop_assert!(g.cost >= e.cost - Cost::new(1e-9));
    }

    /// Steiner solvers always produce spanning trees within 2× of exact.
    #[test]
    fn steiner_two_approx(seed in 0u64..5000, k in 2usize..6) {
        let mut rng = Rng64::seed_from(seed);
        let g = generators::gnp_connected(14, 0.3, CostRange::new(1.0, 9.0), &mut rng);
        let ts: Vec<NodeId> = rng.sample_indices(14, k).into_iter().map(NodeId::new).collect();
        let exact = sof::steiner::dreyfus_wagner(&g, &ts).unwrap();
        for solver in [sof::steiner::SteinerSolver::Mehlhorn, sof::steiner::SteinerSolver::TakahashiMatsuyama] {
            let t = solver.solve(&g, &ts).unwrap();
            t.validate(&g, &ts).unwrap();
            prop_assert!(t.cost <= exact.cost * 2.0 + Cost::new(1e-9));
        }
    }

    /// Dynamic leave never increases cost; join keeps feasibility.
    #[test]
    fn dynamics_preserve_feasibility(seed in 0u64..2000) {
        let mut inst = random_instance(seed, 20, 6, 2, 3, 2);
        let out = solve_sofda(&inst, &SofdaConfig::default()).unwrap();
        let mut forest = out.forest;
        let before = forest.cost(&inst.network).total();
        let d = inst.request.destinations[0];
        sof::core::dynamics::destination_leave(&mut inst, &mut forest, d).unwrap();
        forest.validate(&inst).unwrap();
        prop_assert!(forest.cost(&inst.network).total() <= before + Cost::new(1e-9));
        // Rejoin.
        sof::core::dynamics::destination_join(&mut inst, &mut forest, d).unwrap();
        forest.validate(&inst).unwrap();
    }

    /// Both join strategies admit a random unserved destination to a
    /// solved forest: each result validates, the paper's IP accepts it at
    /// its own cost, and it costs at most what the join reported on top of
    /// the forest before. Full search weighs a superset of tail-attach's
    /// attach points, so it adds no more; and where it attaches where the
    /// chain is complete, it is tail-attach's join bit for bit. Fails when
    /// a full-search join prices a last VM without its leg to the
    /// destination.
    #[test]
    fn full_search_join_is_tail_attach_where_both_apply(
        seed in 0u64..5000,
        chain in 0usize..4,
        vms in 4usize..9,
    ) {
        let inst = random_instance(seed, 20, vms, 2, 3, chain);
        let forest = solve_sofda(&inst, &SofdaConfig::default()).unwrap().forest;
        let unserved: Vec<NodeId> = inst
            .network
            .graph()
            .nodes()
            .filter(|n| !inst.request.destinations.contains(n) && !inst.request.sources.contains(n))
            .collect();
        let d = *Rng64::seed_from(seed).pick(&unserved);
        let before = forest.cost(&inst.network).total();
        let enabled = forest.enabled_vms().unwrap();
        let mut joined = Vec::new();
        for strategy in [JoinStrategy::TailAttach, JoinStrategy::FullSearch] {
            let (mut inst, mut forest) = (inst.clone(), forest.clone());
            let added =
                sof::core::dynamics::destination_join_with(&mut inst, &mut forest, d, strategy)
                    .unwrap();
            forest.validate(&inst).unwrap();
            prop_assert!(ip_accepts_at_its_cost(&inst, &forest), "{strategy:?}");
            let after = forest.cost(&inst.network).total();
            prop_assert!(
                after <= before + added + Cost::new(1e-9),
                "{strategy:?}: {after} > {before} + {added}"
            );
            joined.push((added, forest.walks.pop().unwrap()));
        }
        let (full_added, full) = joined.pop().unwrap();
        let (tail_added, tail) = joined.pop().unwrap();
        prop_assert!(full_added <= tail_added + Cost::new(1e-9), "{full_added} > {tail_added}");
        if full.vnf_positions.iter().all(|&p| enabled.contains_key(&full.nodes[p])) {
            prop_assert_eq!(full_added.value().to_bits(), tail_added.value().to_bits());
            prop_assert_eq!(full, tail);
        }
    }

    /// §VII-C's chain edits under the paper's IP: on a solved forest, a VNF
    /// inserted at a random index, one deleted at a random index, a random
    /// enabled VM migrated, and every walk rerouted after a random reprice
    /// each leave a forest that validates and that the IP accepts at the
    /// cost the forest reports. The chain's names follow each insert and
    /// delete, and a migrated VM runs no VNF afterwards. Fails when a
    /// migration re-routes only the first walk that runs a VNF on the VM.
    #[test]
    fn chain_edits_pass_the_ip_oracle(seed in 0u64..5000, chain in 1usize..4) {
        use sof::core::dynamics::{self, DynamicsError};
        let mut inst = random_instance(seed, 20, 8, 2, 3, chain);
        let mut forest = solve_sofda(&inst, &SofdaConfig::default()).unwrap().forest;
        let mut rng = Rng64::seed_from(seed);
        let mut names: Vec<String> = inst.request.chain.iter().map(str::to_string).collect();

        let at = rng.range(0, chain + 1);
        dynamics::vnf_insert(&mut inst, &mut forest, at, "inserted").unwrap();
        names.insert(at, "inserted".into());
        prop_assert!(inst.request.chain.iter().eq(names.iter().map(String::as_str)));
        forest.validate(&inst).unwrap();
        prop_assert!(ip_accepts_at_its_cost(&inst, &forest), "insert at {at}");

        let at = rng.range(0, chain + 1);
        dynamics::vnf_delete(&mut inst, &mut forest, at).unwrap();
        names.remove(at);
        prop_assert!(inst.request.chain.iter().eq(names.iter().map(String::as_str)));
        forest.validate(&inst).unwrap();
        prop_assert!(ip_accepts_at_its_cost(&inst, &forest), "delete at {at}");

        let enabled: Vec<NodeId> = forest.enabled_vms().unwrap().into_keys().collect();
        let v = *rng.pick(&enabled);
        match dynamics::migrate_vm(&inst, &mut forest, v) {
            Ok(replacement) => {
                let now = forest.enabled_vms().unwrap();
                prop_assert!(!now.contains_key(&v) && now.contains_key(&replacement));
                forest.validate(&inst).unwrap();
                prop_assert!(ip_accepts_at_its_cost(&inst, &forest), "migrate {v}");
            }
            Err(DynamicsError::NoFreeVm) => {
                prop_assert_eq!(enabled.len(), inst.network.vms().len())
            }
            Err(e) => prop_assert!(false, "migrate {v}: {e}"),
        }

        let edges: Vec<EdgeId> = inst.network.graph().edges().map(|(e, _)| e).collect();
        for e in edges {
            if rng.chance(0.3) {
                let cost = inst.network.graph().edge_cost(e) * rng.range_f64(0.2, 5.0);
                inst.network.graph_mut().set_edge_cost(e, cost);
            }
        }
        dynamics::reroute_all(&inst, &mut forest);
        forest.validate(&inst).unwrap();
        prop_assert!(ip_accepts_at_its_cost(&inst, &forest), "reroute");
    }

    /// A session's failure pricing is a function of *what is failed now*,
    /// never of the order it got there, and every event leaves a forest
    /// the paper's IP accepts at the cost the session reported. 200
    /// generated events a case, the whole `SessionEvent` alphabet, at the
    /// default drift threshold (1.5) and at 1.0, which rebuilds whenever
    /// the standing cost has not fallen below the last solve's, so that
    /// scripts reach drift rebuilds; [`run_session_script`] lists the
    /// checks, and a failing script is shrunk before it is reported. Fails when `edge_down` ignores failed endpoints (a failed
    /// node's links stay in service), when a repair restores a remembered
    /// price instead of re-deriving it, when a `Fail` stops skipping what
    /// the session refuses, and when `recharge` stops clearing the loads
    /// it re-derives.
    #[test]
    fn fail_repair_interleavings_price_what_the_fault_set_covers(seed in 0u64..4000) {
        let inst = random_instance(seed, 20, 6, 2, 5, 2);
        let script = session_script(&inst, seed, 200);
        for drift in [1.5, 1.0] {
            let opts = OnlineConfig { drift, ..OnlineConfig::default() };
            let run = |s: &[SessionEvent]| run_session_script(&inst, opts, seed, s);
            if let Some(small) = shrink(seed, &script, run) {
                // Fails again, now with the shrunk script's own message.
                run(&small)?;
                prop_assert!(false, "drift {drift}: a shrunk failing script passed");
            }
        }
    }

    /// Every registered solver on random feasible instances returns a
    /// validator-feasible forest and never beats the exact solver when both
    /// succeed (budget 300 proves optimality at these sizes, making
    /// `exact.cost` a true floor).
    #[test]
    fn registered_solvers_feasible_and_never_beat_exact(
        seed in 0u64..4000,
        srcs in 1usize..3,
        chain in 1usize..3,
    ) {
        let inst = random_instance(seed, 16, 5, srcs, 2, chain);
        let exact = sof::exact::solve_exact(&inst, 300).unwrap();
        for solver in sof::solvers::all() {
            if !solver.supports(&inst) {
                continue; // e.g. SOFDA-SS on multi-source draws
            }
            let out = solver
                .solve(&inst, &SofdaConfig::default().with_seed(seed))
                .unwrap_or_else(|e| panic!("{} failed on seed {seed}: {e}", solver.name()));
            out.forest
                .validate(&inst)
                .unwrap_or_else(|e| panic!("{} invalid on seed {seed}: {e}", solver.name()));
            if exact.optimal {
                prop_assert!(
                    out.cost.total() >= exact.cost - Cost::new(1e-9),
                    "{} beat the exact optimum on seed {seed}",
                    solver.name()
                );
            }
        }
    }

    /// The exact solver's relaxation really is a lower bound.
    #[test]
    fn exact_bound_sandwich(seed in 0u64..800) {
        let inst = random_instance(seed, 14, 5, 2, 2, 2);
        let exact = sof::exact::solve_exact(&inst, 200).unwrap();
        prop_assert!(exact.lower_bound <= exact.cost + Cost::new(1e-9));
        let sofda = solve_sofda(&inst, &SofdaConfig::default()).unwrap();
        prop_assert!(sofda.cost.total() >= exact.cost - Cost::new(1e-9));
    }
}

// Properties of the `sof_par` worker pool itself: index-addressed output
// identical to a serial `map` for arbitrary lengths and thread counts, and
// a panicking task poisons the pool into an error instead of deadlocking.
proptest! {
    // Cheap cases; a third of them carry the ulp ties.
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The pruned exact search returns what the unpruned enumeration in
    /// the same order returns — nodes and cost bits — on real-valued
    /// asymmetric metrics, on integer ones (exact ties), and on integer
    /// ones with entries moved an ulp or two on one side (totals that tie
    /// on paper and differ in their last bits). Fails when the prune test's
    /// slack changes sign (`bound·(1 + δ) ≥ best` drops the ulp-cheaper
    /// stroll) and when the cost-to-go recursion over-excludes (minimising
    /// over `w < v` only, or over unused nodes only, overestimates).
    /// Dropping its `w ∉ {v, t}` exclusion is *not* caught here — that only
    /// weakens the bound; the node-count ceiling in
    /// `tests/parallel_determinism.rs` catches it.
    #[test]
    fn exact_kstroll_matches_unpruned_enumeration(
        seed in 0u64..100_000,
        n in 3usize..10,
        k in 1usize..7,
    ) {
        let mut rng = Rng64::seed_from(seed);
        let kind = seed % 3;
        let base = if kind == 0 {
            DenseMetric::from_fn(n, |_, _| Cost::new(rng.range_f64(0.5, 4.0)))
        } else {
            DenseMetric::symmetric_from_fn(n, |_, _| Cost::new((1 + rng.below(4)) as f64))
        };
        let mut ulps = vec![0u64; n * n];
        if kind == 2 {
            for _ in 0..n * n {
                ulps[rng.below(n) * n + rng.below(n)] += 1;
            }
        }
        let m = DenseMetric::from_fn(n, |i, j| {
            Cost::new(f64::from_bits(base.cost(i, j).value().to_bits() + ulps[i * n + j]))
        });
        let source = rng.below(n);
        let pruned = exact_all_targets(&m, source, k);
        for (t, got) in pruned.iter().enumerate() {
            let mut expect = None;
            if t != source && (2..=n).contains(&k) {
                unpruned_stroll(&m, t, k, &mut vec![source], Cost::ZERO, &mut expect);
            } else if t == source && k == 1 {
                expect = Some((vec![source], Cost::ZERO));
            }
            let got = got.as_ref().map(|s| (s.nodes.clone(), s.cost.value().to_bits()));
            let expect = expect.map(|(nodes, c)| (nodes, c.value().to_bits()));
            prop_assert!(
                got == expect,
                "kind {kind} n {n} k {k} source {source} target {t}: {got:?} vs {expect:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// While its node budget lasts `StrollSolver::Auto` *is* the exact
    /// search: the same strolls (nodes and cost bits) and the same DFS node
    /// count as `StrollSolver::Exact`, for every target at once on contexts
    /// shared across two sources and for one target on private ones, on
    /// Euclidean metrics and on integer ones full of ties. Fails when
    /// `Auto` hands over before its budget is reached (searching until a
    /// node count of 0 answers with greedy strolls and expands nothing) or
    /// searches in any other order than the reference.
    #[test]
    fn auto_kstroll_is_the_exact_search_while_its_budget_lasts(
        seed in 0u64..100_000,
        n in 3usize..15,
        k in 1usize..8,
    ) {
        let mut rng = Rng64::seed_from(seed);
        let m = if seed.is_multiple_of(2) {
            let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.next_f64(), rng.next_f64())).collect();
            DenseMetric::symmetric_from_fn(n, |i, j| {
                Cost::new((pts[i].0 - pts[j].0).hypot(pts[i].1 - pts[j].1))
            })
        } else {
            DenseMetric::symmetric_from_fn(n, |_, _| Cost::new((1 + rng.below(4)) as f64))
        };
        let bits = |all: &[Option<sof::kstroll::Stroll>]| -> Vec<Option<(Vec<usize>, u64)>> {
            all.iter()
                .map(|s| s.as_ref().map(|s| (s.nodes.clone(), s.cost.value().to_bits())))
                .collect()
        };
        let (mut auto, mut exact) = (SearchContext::new(), SearchContext::new());
        for source in [rng.below(n), rng.below(n)] {
            let got = StrollSolver::Auto.solve_all_targets(&m, source, k, &mut auto);
            let want = StrollSolver::Exact.solve_all_targets(&m, source, k, &mut exact);
            prop_assert!(bits(&got) == bits(&want), "n {n} k {k} source {source}");
            prop_assert_eq!(auto.nodes(), exact.nodes());

            let target = rng.below(n);
            let (mut auto, mut exact) = (SearchContext::new(), SearchContext::new());
            let single = StrollSolver::Auto.solve(&m, source, target, k, &mut auto);
            prop_assert!(bits(&[single]) == bits(&want[target..=target]), "target {target}");
            StrollSolver::Exact.solve(&m, source, target, k, &mut exact);
            prop_assert_eq!((auto.nodes(), auto.handovers()), (exact.nodes(), 0));
        }
        prop_assert_eq!(auto.handovers(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `par_map_indexed` slot `i` always holds `f(i, &items[i])`, matching
    /// serial `Vec` mapping for any input length and thread count.
    #[test]
    fn par_map_matches_serial_map_ordering(
        len in 0usize..80,
        threads in 1usize..10,
        salt in 0u64..10_000,
    ) {
        let items: Vec<u64> = (0..len as u64).map(|i| i.wrapping_mul(salt | 1)).collect();
        let expect: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| x.rotate_left((i % 63) as u32) ^ salt)
            .collect();
        let got = sof::par::par_map_indexed(&items, threads, |i, &x| {
            x.rotate_left((i % 63) as u32) ^ salt
        })
        .unwrap();
        prop_assert_eq!(got, expect);
    }

    /// The mutable variant visits each slot exactly once, in index order
    /// per slot, for any thread count.
    #[test]
    fn par_map_mut_matches_serial(len in 0usize..80, threads in 1usize..10) {
        let mut items: Vec<u64> = (0..len as u64).collect();
        let returned = sof::par::par_map_mut(&mut items, threads, |i, x| {
            *x = x.wrapping_add(7);
            (i as u64) * 2
        })
        .unwrap();
        prop_assert_eq!(returned, (0..len as u64).map(|i| i * 2).collect::<Vec<u64>>());
        prop_assert_eq!(items, (0..len as u64).map(|i| i + 7).collect::<Vec<u64>>());
    }

    /// A panic in one task never deadlocks the pool: the call drains and
    /// reports `WorkerPanicked` for every thread count.
    #[test]
    fn par_map_panics_poison_not_deadlock(len in 1usize..40, threads in 1usize..10) {
        let bad = len / 2;
        let items: Vec<usize> = (0..len).collect();
        let result = sof::par::par_map_indexed(&items, threads, |i, &x| {
            if i == bad {
                panic!("injected task failure");
            }
            x
        });
        prop_assert!(
            matches!(result, Err(sof::par::ParError::WorkerPanicked { .. })),
            "expected poisoned-worker error, got {result:?}"
        );
        // The serial path pinpoints the exact index and keeps the message.
        let serial = sof::par::par_map_indexed(&items, 1, |i, &x| {
            if i == bad {
                panic!("injected task failure");
            }
            x
        });
        prop_assert_eq!(
            serial,
            Err(sof::par::ParError::WorkerPanicked {
                index: bad,
                message: "injected task failure".into()
            })
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `sofd` answers a session script exactly as `OnlineSession::apply`
    /// does. Four scripts a case, each the wire's share of
    /// [`session_script`] on SoftLayer, go through `router::route` on a
    /// private registry and, beside it, through a library session built as
    /// a create builds one; [`the_library_answers`] lists what must agree.
    /// Then the four run at once on four sessions of one registry from four
    /// threads, and each transcript must equal its run alone. Fails when the
    /// daemon stops recovering a disrupting failure as the library's
    /// reactive protector does.
    #[test]
    fn the_wire_answers_a_session_script_as_the_library_does(seed in 0u64..1_000_000) {
        let topo = build_named(&TopologySpec::named("softlayer"), 7).expect("softlayer builds");
        let scripts: Vec<(u64, Vec<SessionEvent>)> = (0..4)
            .map(|k| {
                let seed = 4 * seed + k;
                (seed, wire_script(&softlayer_instance(&topo, seed, 2, 6), seed, 60))
            })
            .collect();
        let mut alone = Vec::new();
        for (seed, script) in &scripts {
            let transcript = wire_transcript(&softlayer_registry(), script, *seed);
            the_library_answers(&topo, script, *seed, &transcript)?;
            alone.push(transcript);
        }
        let shared = softlayer_registry();
        let start = Barrier::new(scripts.len());
        let together: Vec<Vec<(u16, String)>> = std::thread::scope(|scope| {
            let drivers: Vec<_> = scripts
                .iter()
                .map(|(seed, script)| {
                    let (shared, start) = (&shared, &start);
                    scope.spawn(move || {
                        start.wait();
                        wire_transcript(shared, script, *seed)
                    })
                })
                .collect();
            drivers.into_iter().map(|d| d.join().expect("a driver thread")).collect()
        });
        for (k, (got, want)) in together.iter().zip(&alone).enumerate() {
            let step = got.iter().zip(want).position(|(g, w)| g != w);
            prop_assert!(
                step.is_none() && got.len() == want.len(),
                "script {k}, step {step:?}: {:?} run together, {:?} alone",
                step.map(|i| &got[i]),
                step.map(|i| &want[i])
            );
        }
    }
}

/// `len` random lowercase letters.
fn letters(rng: &mut Rng64, len: usize) -> String {
    (0..len)
        .map(|_| char::from(b'a' + rng.below(26) as u8))
        .collect()
}

/// One `POST` as `Client` writes it, with a body of `len` lowercase letters.
fn client_post(rng: &mut Rng64, len: usize) -> Vec<u8> {
    let mut post = Vec::new();
    let host = "127.0.0.1:40000".parse().expect("an address");
    let body = letters(rng, len);
    http::write_request(&mut post, "POST", "/v1/sessions/1/join", host, &body).expect("a Vec");
    post
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// Whatever bytes arrive, `http::read_request` neither panics nor reads
    /// past its bounds: each call ends in a request, `Closed`, `Io`, or a
    /// `Bad` whose status docs/DAEMON.md promises (400, 413, 431, 501), and
    /// takes at most `MAX_HEAD` + `max_body` bytes off the stream. Read
    /// until it stops, through fills of 1–64 bytes, over any bytes at all,
    /// over the protocol's own tokens in random order, over pipelined
    /// requests cut at any offset (every whole one is read), over heads
    /// around the 16 KiB cap (a request when the head fits, else a 431) and
    /// over bodies one or more bytes past `max_body` (a 413). Fails when the
    /// head loop drops its `MAX_HEAD` cap.
    #[test]
    fn hostile_bytes_end_in_a_request_or_a_promised_status(
        seed in 0u64..1_000_000,
        shape in 0usize..5,
        capacity in 1usize..65,
    ) {
        let mut rng = Rng64::seed_from(seed);
        let max_body = [0, 17, 256, 4096][rng.below(4)];
        let tokens = [
            "GET ", "POST ", "DELETE ", "/healthz", "/v1/sessions", " HTTP/1.1", " HTTP/1.0",
            " HTTP/2.0", "\r\n", "\r\n\r\n", "\n", ":", " ", "Content-Length: ", "17", "0",
            "99999999999999999999", "-1", "Transfer-Encoding: chunked", "Connection: close",
            "{\"destination\":5}",
        ];
        let mut whole = 0;
        let bytes: Vec<u8> = match shape {
            0 => (0..rng.below(3000)).map(|_| rng.below(256) as u8).collect(),
            1 => (0..rng.below(60)).flat_map(|_| tokens[rng.below(tokens.len())].bytes()).collect(),
            2 => {
                let mut stream = Vec::new();
                let mut ends = Vec::new();
                for _ in 0..1 + rng.below(3) {
                    let len = rng.below(max_body + 1);
                    stream.extend(client_post(&mut rng, len));
                    ends.push(stream.len());
                }
                let cut = rng.below(stream.len() + 1);
                stream.truncate(cut);
                whole = ends.iter().filter(|&&end| end <= cut).count();
                stream
            }
            3 => {
                let mut head = b"GET /healthz HTTP/1.1\r\nX-Pad: ".to_vec();
                head.resize(MAX_HEAD - 4 - 100 + rng.below(200), b'a');
                head.extend_from_slice(b"\r\n\r\n");
                whole = usize::from(head.len() <= MAX_HEAD);
                head
            }
            _ => {
                let len = max_body + 1 + rng.below(100);
                client_post(&mut rng, len)
            }
        };
        let mut wire = BufReader::with_capacity(capacity, bytes.as_slice());
        let (mut taken, mut parsed) = (0, 0);
        let last = loop {
            let outcome = catch_unwind(AssertUnwindSafe(|| http::read_request(&mut wire, max_body)));
            let now = bytes.len() - wire.get_ref().len() - wire.buffer().len();
            prop_assert!(
                now - taken <= MAX_HEAD + max_body,
                "shape {shape}: one call took {} bytes",
                now - taken
            );
            taken = now;
            match outcome {
                Err(_) => prop_assert!(false, "shape {shape}: read_request panicked"),
                Ok(Ok(_)) => parsed += 1,
                Ok(Err(e)) => break e,
            }
        };
        match last {
            ReadError::Closed | ReadError::Io(_) => {}
            ReadError::Bad { status, .. } => prop_assert!(
                [400, 413, 431, 501].contains(&status),
                "shape {shape}: a {status}"
            ),
            ReadError::TimedOut => prop_assert!(false, "shape {shape}: a slice timed out"),
        }
        match (shape, &last) {
            (2, _) => prop_assert_eq!(parsed, whole),
            (3, ReadError::Bad { status, .. }) => prop_assert!(whole == 0 && *status == 431),
            (3, _) => prop_assert_eq!(parsed, whole),
            (4, ReadError::Bad { status, .. }) => prop_assert!(parsed == 0 && *status == 413),
            (4, e) => prop_assert!(false, "a body past max_body ended in {e:?}"),
            _ => {}
        }
    }

    /// Whatever bytes a reply brings, `http::read_response` (the client's
    /// reader) neither panics nor reads past its bounds: each call ends in
    /// `(status, body, close)`, in `None` once the stream is spent, or in
    /// the `UnexpectedEof` / `InvalidData` error the client promises, and
    /// takes at most `MAX_REPLY_HEAD` bytes plus the body it returns off the
    /// stream (an error past that has spent the stream). Read until it
    /// stops, through fills of 1–64 bytes, over any bytes at all, over the
    /// protocol's own tokens in random order, over the daemon's replies cut
    /// at any offset (every whole one is read back as sent) and over heads
    /// around the 64 KiB cap (a reply when the head fits, else
    /// `InvalidData`). Fails when the head scanner drops its cap.
    #[test]
    fn hostile_replies_end_in_a_reply_or_an_error(
        seed in 0u64..1_000_000,
        shape in 0usize..4,
        capacity in 1usize..65,
    ) {
        let mut rng = Rng64::seed_from(seed);
        let tokens = [
            "HTTP/1.1 ", "200 ", "404 ", "OK", "x", "\r\n", "\r\n\r\n", "\n", ":", " ",
            "Content-Length: ", "12", "0", "twelve", "-1", "99999999999999999999",
            "Connection: close", "Connection: keep-alive", "Transfer-Encoding: chunked",
            "{\"ok\":true}\n",
        ];
        let mut sent = Vec::new();
        let bytes: Vec<u8> = match shape {
            0 => (0..rng.below(3000)).map(|_| rng.below(256) as u8).collect(),
            1 => (0..rng.below(60)).flat_map(|_| tokens[rng.below(tokens.len())].bytes()).collect(),
            2 => {
                let mut stream = Vec::new();
                let mut ends = Vec::new();
                for _ in 0..1 + rng.below(3) {
                    let status = [200, 400, 404, 413][rng.below(4)];
                    let len = rng.below(300);
                    let body = format!("\"{}\"", letters(&mut rng, len));
                    let keep_alive = rng.below(2) == 0;
                    http::write_response(&mut stream, status, &body, keep_alive).unwrap();
                    sent.push((status, format!("{body}\n").into_bytes(), !keep_alive));
                    ends.push(stream.len());
                }
                let cut = rng.below(stream.len() + 1);
                stream.truncate(cut);
                sent.truncate(ends.iter().filter(|&&end| end <= cut).count());
                stream
            }
            _ => {
                let mut head = b"HTTP/1.1 200 OK\r\nX-Pad: ".to_vec();
                head.resize(MAX_REPLY_HEAD - 4 - 100 + rng.below(200), b'a');
                head.extend_from_slice(b"\r\n\r\n");
                if head.len() <= MAX_REPLY_HEAD {
                    sent.push((200, Vec::new(), false));
                }
                head
            }
        };
        let mut wire = BufReader::with_capacity(capacity, bytes.as_slice());
        let (mut taken, mut replies) = (0, Vec::new());
        let last = loop {
            let outcome = catch_unwind(AssertUnwindSafe(|| http::read_response(&mut wire)));
            let rest = wire.get_ref().len() + wire.buffer().len();
            let now = bytes.len() - rest;
            match outcome {
                Err(_) => prop_assert!(false, "shape {shape}: read_response panicked"),
                Ok(Ok(Some(reply))) => {
                    prop_assert!(
                        now - taken <= MAX_REPLY_HEAD + reply.1.len(),
                        "shape {shape}: a reply of {} body bytes took {}",
                        reply.1.len(),
                        now - taken
                    );
                    replies.push(reply);
                }
                Ok(Ok(None)) => {
                    prop_assert!(rest == 0, "shape {shape}: None with {rest} bytes left");
                    break None;
                }
                Ok(Err(e)) => {
                    prop_assert!(
                        now - taken <= MAX_REPLY_HEAD || rest == 0,
                        "shape {shape}: an error took {} bytes and left {rest}",
                        now - taken
                    );
                    break Some(e);
                }
            }
            taken = now;
        };
        if let Some(e) = &last {
            prop_assert!(
                matches!(e.kind(), ErrorKind::UnexpectedEof | ErrorKind::InvalidData),
                "shape {shape}: {e:?}"
            );
        }
        if shape >= 2 {
            prop_assert_eq!(replies, sent);
        }
        if shape == 3 && replies.is_empty() {
            prop_assert!(
                last.is_some_and(|e| e.kind() == ErrorKind::InvalidData),
                "a head past the cap was not refused"
            );
        }
    }
}
