//! The daemon's state: named topologies, live [`OnlineSession`]s with TTL
//! bookkeeping, and the counters `/v1/stats` serves.
//!
//! One registry sits behind a reader-writer lock; handlers hold it for the
//! duration of one operation. Read-only routes (`GET /v1/sessions/{id}`,
//! `GET /v1/stats`, `/healthz`) take `&self` — including the TTL renewal a
//! read performs and the request counting every route performs, which go
//! through interior mutability — so they run beside each other. They do
//! not run beside a write: [`std::sync::RwLock`] blocks a reader while a
//! writer holds the lock, so a probe waits out whatever embed is in
//! progress on any session — up to the 0.9–2.7 s of a create that spends
//! its k-stroll node budget (`docs/DAEMON.md`, "Bounded input"). A lock per
//! session is ROADMAP item 1(b). The deterministic core is untouched — a
//! session here is exactly the library's [`OnlineSession`], addressed by
//! id instead of by ownership.

use crate::wire::{ApiError, Body};
use sof_core::{
    Applied, ArrivalReport, Element, OnlineConfig, OnlineSession, Request, ServiceChain,
    SessionEvent, SofdaConfig, SolveError,
};
use sof_graph::{NodeId, PathEngineStats};
use sof_spec::field::in_range;
use sof_spec::value::Value;
use sof_survive::{ElementRef, ProtectionPolicy, Protector};
use sof_topo::{
    build_instance, build_named, build_region_instance, build_regions, RegionDef, RegionScenario,
    RegionTopology, RegionsParams, ScenarioParams, Topology, TopologySpec,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

// Caps on every integer a request body can name. Constants, not settings:
// each is at least ten times what any preset, test or benchmark script
// sends, and small enough that what it sizes cannot exhaust memory — a
// failed allocation aborts the process, and no `catch_unwind` sees that.

/// Longest service chain a session may demand (`chain_len`).
pub const MAX_CHAIN_LEN: u64 = 64;
/// Most VMs one session's instance may hold (`vm_count`; `vms_per_dc`, and
/// `vms_per_dc` × the topology's data centers).
pub const MAX_VM_COUNT: u64 = 1_000;
/// Largest synthesized topology (`nodes`).
pub const MAX_TOPOLOGY_NODES: u64 = 100_000;
/// Most regions in one multi-region build (`regions`).
pub const MAX_REGIONS: u64 = 64;
/// Largest single region (`regions[i].nodes`; the library holds
/// `regions[i].dcs` to it).
pub const MAX_REGION_NODES: u64 = 1_000;
/// Most gateway links per region pair (`gateway_links`).
pub const MAX_GATEWAY_LINKS: u64 = 64;
/// Longest TTL or scheduled repair, ten years (`ttl_secs`, `repair_secs`).
pub const MAX_SECS: u64 = 10 * 365 * 86_400;
/// Largest node index (`destination`, `vm`, `node`, and the entries of
/// `sources`, `destinations`, `link`): what a `NodeId` can hold.
pub const MAX_NODE_INDEX: u64 = u32::MAX as u64;

/// A registered topology: either a named library topology or a built
/// multi-region network.
enum Topo {
    Named(Topology),
    Regions(RegionTopology),
}

impl Topo {
    fn graph(&self) -> &sof_graph::Graph {
        match self {
            Topo::Named(t) => &t.graph,
            Topo::Regions(rt) => &rt.topo.graph,
        }
    }

    fn dc_count(&self) -> usize {
        match self {
            Topo::Named(t) => t.dc_nodes.len(),
            Topo::Regions(rt) => rt.topo.dc_nodes.len(),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Topo::Named(_) => "named",
            Topo::Regions(_) => "regions",
        }
    }
}

/// One live session plus its control-plane bookkeeping.
struct SessionEntry {
    topology: String,
    session: OnlineSession,
    ttl: Option<Duration>,
    /// Behind its own lock so a shared-lock `GET` can renew the TTL
    /// without holding the registry exclusively.
    deadline: Mutex<Option<Instant>>,
    /// Scheduled repairs the janitor applies once their instant passes:
    /// the failed reference as it was resolved when it failed.
    repairs: Vec<(Instant, Vec<Element>)>,
}

impl SessionEntry {
    fn touch(&self, now: Instant) {
        let mut deadline = self.deadline.lock().unwrap_or_else(|e| e.into_inner());
        *deadline = self.ttl.map(|t| now + t);
    }

    fn expired(&self, now: Instant) -> bool {
        let deadline = self.deadline.lock().unwrap_or_else(|e| e.into_inner());
        deadline.is_some_and(|d| now >= d)
    }
}

/// The daemon's mutable state (topologies, sessions, counters).
pub struct Registry {
    topologies: BTreeMap<String, Topo>,
    sessions: BTreeMap<u64, SessionEntry>,
    next_id: u64,
    started: Instant,
    default_ttl: Option<Duration>,
    /// Routed-request / error totals; atomic because *every* route counts
    /// one, including the read-locked ones.
    requests: AtomicU64,
    errors: AtomicU64,
    sessions_created: u64,
    sessions_expired: u64,
    sessions_deleted: u64,
    /// Engine counters of sessions that already left the registry, so
    /// `/v1/stats` never goes backwards.
    retired_engine: PathEngineStats,
}

fn engine_value(s: PathEngineStats) -> Value {
    let mut v = Value::table();
    v.set("hits", Value::Int(s.hits as i64));
    v.set("misses", Value::Int(s.misses as i64));
    v.set("stale", Value::Int(s.stale as i64));
    v.set("evictions", Value::Int(s.evictions as i64));
    v.set("repairs", Value::Int(s.repairs as i64));
    v.set("partial_repairs", Value::Int(s.partial_repairs as i64));
    v
}

fn nodes_value(nodes: &[NodeId]) -> Value {
    Value::Array(nodes.iter().map(|n| Value::Int(n.index() as i64)).collect())
}

/// The nodes the list `key` names, each index within [`MAX_NODE_INDEX`].
fn node_ids(key: &str, list: Vec<u64>) -> Result<Vec<NodeId>, ApiError> {
    let node = |(i, n)| {
        let n = in_range(&format!("{key}[{i}]"), n, &(0..=MAX_NODE_INDEX))?;
        Ok(NodeId::new(n as usize))
    };
    list.into_iter().enumerate().map(node).collect()
}

/// Reads the element reference a fail/repair body names: exactly one of
/// `vm`, `link` (`[u, v]`), `node`, or `domain`.
fn read_element(body: &mut Body) -> Result<ElementRef, ApiError> {
    let vm = body.within("vm", 0..=MAX_NODE_INDEX)?;
    let link = body.opt("link")?.map(|l| node_ids("link", l)).transpose()?;
    let node = body.within("node", 0..=MAX_NODE_INDEX)?;
    let domain: Option<String> = body.opt("domain")?;
    let given = [
        vm.is_some(),
        link.is_some(),
        node.is_some(),
        domain.is_some(),
    ]
    .iter()
    .filter(|&&b| b)
    .count();
    if given != 1 {
        return Err(ApiError::bad_request(
            "give exactly one of 'vm', 'link' ([u, v]), 'node', or 'domain'",
        ));
    }
    if let Some(v) = vm {
        return Ok(ElementRef::Vm(v as usize));
    }
    if let Some(pair) = link {
        let [u, v] = pair.as_slice() else {
            return Err(ApiError::bad_request(format!(
                "'link' must be a [u, v] endpoint pair, got {} entries",
                pair.len()
            )));
        };
        if u == v {
            return Err(ApiError::bad_request("'link' endpoints must differ"));
        }
        return Ok(ElementRef::link(u.index(), v.index()));
    }
    if let Some(n) = node {
        return Ok(ElementRef::Node(n as usize));
    }
    Ok(ElementRef::Domain(domain.expect("counted above")))
}

/// Reads the whole `{"destination": n}` body of a join or leave.
fn read_destination(body: &mut Body) -> Result<NodeId, ApiError> {
    let n = body.req("destination")?;
    let n = in_range("destination", n, &(0..=MAX_NODE_INDEX))?;
    body.finish()?;
    Ok(NodeId::new(n as usize))
}

/// Resolves a domain name to its region's nodes (regions topologies only).
fn domain_nodes(
    topologies: &BTreeMap<String, Topo>,
    topology: &str,
    name: &str,
) -> Result<Vec<NodeId>, ApiError> {
    match topologies.get(topology) {
        Some(Topo::Regions(rt)) => match rt.region_named(name) {
            Some(r) => Ok(rt.region_nodes(r).to_vec()),
            None => Err(ApiError::bad_request(format!(
                "unknown domain '{name}' (topology '{topology}' has: {})",
                (0..rt.region_count())
                    .map(|r| rt.region_name(r))
                    .collect::<Vec<_>>()
                    .join(", ")
            ))),
        },
        Some(Topo::Named(_)) => Err(ApiError::bad_request(format!(
            "topology '{topology}' is not a multi-region build; \
             domain failures need a regions topology"
        ))),
        None => Err(ApiError::not_found(format!(
            "unknown topology '{topology}'"
        ))),
    }
}

/// The report of an `Arrive` or a `Join`.
fn arrival(answer: Result<Applied, SolveError>) -> Result<ArrivalReport, SolveError> {
    answer.map(|a| a.report().expect("an arrival reports"))
}

fn report_value(id: u64, r: &ArrivalReport) -> Value {
    let mut v = Value::table();
    v.set("id", Value::Int(id as i64));
    v.set("forest_cost", Value::Float(r.forest_cost));
    v.set("accumulated_cost", Value::Float(r.accumulated_cost));
    v.set("rebuilt", Value::Bool(r.rebuilt));
    v.set("joined", Value::Int(r.joined as i64));
    v.set("left", Value::Int(r.left as i64));
    v
}

impl Registry {
    /// An empty registry. `default_ttl` applies to sessions that pin no
    /// `ttl_secs` of their own (`None` = sessions never expire).
    pub fn new(default_ttl: Option<Duration>) -> Registry {
        Registry {
            topologies: BTreeMap::new(),
            sessions: BTreeMap::new(),
            next_id: 1,
            started: Instant::now(),
            default_ttl,
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            sessions_created: 0,
            sessions_expired: 0,
            sessions_deleted: 0,
            retired_engine: PathEngineStats::default(),
        }
    }

    /// Counts one routed request (and optionally one error) for
    /// `/v1/stats`. Takes `&self` — counting happens on every route, so it
    /// must not force read-only routes onto the exclusive lock.
    pub fn count(&self, is_error: bool) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if is_error {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `POST /v1/topologies` — registers a named library topology
    /// (`{"name", "topology", "nodes"?, "seed"?}`) or a multi-region build
    /// (`{"name", "regions": [{name, nodes, dcs}…], "gateway_links"?,
    /// "pair_cost"?, "seed"?}`).
    ///
    /// # Errors
    ///
    /// 400 for malformed bodies or library-rejected parameters, 409 for a
    /// duplicate name.
    pub fn create_topology(&mut self, mut body: Body) -> Result<Value, ApiError> {
        let name: String = body.req("name")?;
        if name.is_empty() {
            return Err(ApiError::bad_request("'name' must not be empty"));
        }
        if self.topologies.contains_key(&name) {
            return Err(ApiError::conflict(format!(
                "topology '{name}' already exists"
            )));
        }
        let named: Option<String> = body.opt("topology")?;
        let regions: Option<Vec<RegionDef>> = body.opt("regions")?;
        let seed = body.or("seed", 7u64)?;
        let topo = match (named, regions) {
            (Some(reg_name), None) => {
                let mut spec = TopologySpec::named(reg_name);
                spec.nodes = body
                    .within("nodes", 0..=MAX_TOPOLOGY_NODES)?
                    .map(|n| n as usize);
                body.finish()?;
                Topo::Named(build_named(&spec, seed).map_err(ApiError::bad_request)?)
            }
            (None, Some(regions)) => {
                if regions.len() as u64 > MAX_REGIONS {
                    return Err(ApiError::bad_request(format!(
                        "'regions' must list at most {MAX_REGIONS} regions, found {}",
                        regions.len()
                    )));
                }
                for (i, r) in regions.iter().enumerate() {
                    let at = format!("regions[{i}].nodes");
                    in_range(&at, r.nodes as u64, &(0..=MAX_REGION_NODES))?;
                }
                let links = body.within("gateway_links", 0..=MAX_GATEWAY_LINKS)?;
                let params = RegionsParams {
                    regions,
                    gateway_links: links.unwrap_or(2) as usize,
                    pair_cost: body.opt("pair_cost")?,
                };
                body.finish()?;
                params.validate().map_err(ApiError::bad_request)?;
                Topo::Regions(build_regions(&params, seed).map_err(ApiError::bad_request)?)
            }
            (Some(_), Some(_)) => {
                return Err(ApiError::bad_request(
                    "give either 'topology' (a registry name) or 'regions', not both",
                ))
            }
            (None, None) => {
                return Err(ApiError::bad_request(
                    "missing 'topology' (a registry name) or 'regions' (a multi-region build)",
                ))
            }
        };
        let mut v = Value::table();
        v.set("name", Value::Str(name.clone()));
        v.set("kind", Value::Str(topo.kind().to_string()));
        v.set("nodes", Value::Int(topo.graph().node_count() as i64));
        v.set("links", Value::Int(topo.graph().edge_count() as i64));
        v.set("dcs", Value::Int(topo.dc_count() as i64));
        self.topologies.insert(name, topo);
        Ok(v)
    }

    /// `POST /v1/sessions` — embeds a new group on a registered topology
    /// and returns the first [`ArrivalReport`]. Body: `{"topology",
    /// "sources", "destinations", "solver"?, "chain_len"?, "seed"?,
    /// "vm_count"?, "vms_per_dc"?, "ttl_secs"?}`.
    ///
    /// # Errors
    ///
    /// 400 for malformed bodies or out-of-range nodes, 404 for an unknown
    /// topology, 409 when the initial embedding is infeasible.
    pub fn create_session(&mut self, mut body: Body) -> Result<Value, ApiError> {
        let topology: String = body.req("topology")?;
        let sources = node_ids("sources", body.req("sources")?)?;
        let destinations = node_ids("destinations", body.req("destinations")?)?;
        let solver_name = body.or("solver", "SOFDA".to_string())?;
        let chain_len = body.within("chain_len", 0..=MAX_CHAIN_LEN)?.unwrap_or(2) as usize;
        let seed = body.or("seed", 0x50Fu64)?;
        let vm_count = body.within("vm_count", 0..=MAX_VM_COUNT)?.unwrap_or(25) as usize;
        let vms_per_dc = body.within("vms_per_dc", 0..=MAX_VM_COUNT)?.unwrap_or(1) as usize;
        let ttl = match body.within("ttl_secs", 0..=MAX_SECS)? {
            None => self.default_ttl,
            Some(0) => None,
            Some(secs) => Some(Duration::from_secs(secs)),
        };
        body.finish()?;

        if sources.is_empty() || destinations.is_empty() {
            return Err(ApiError::bad_request(
                "'sources' and 'destinations' must be non-empty",
            ));
        }
        if sources.iter().any(|s| destinations.contains(s)) {
            return Err(ApiError::bad_request(
                "'sources' and 'destinations' must be disjoint",
            ));
        }
        let topo = self.topologies.get(&topology).ok_or_else(|| {
            ApiError::not_found(format!(
                "unknown topology '{topology}' (register it via POST /v1/topologies)"
            ))
        })?;
        let access_nodes = topo.graph().node_count();
        for &n in sources.iter().chain(&destinations) {
            if n.index() >= access_nodes {
                return Err(ApiError::bad_request(format!(
                    "node {} is out of range (topology '{topology}' has {access_nodes} access nodes)",
                    n.index()
                )));
            }
        }
        let solver = sof_solvers::by_name(&solver_name).ok_or_else(|| {
            ApiError::bad_request(format!(
                "unknown solver '{solver_name}' (try one of {})",
                sof_solvers::all()
                    .iter()
                    .map(|s| s.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })?;

        let request = Request::new(
            sources.clone(),
            destinations.clone(),
            ServiceChain::with_len(chain_len),
        );
        let instance = match topo {
            Topo::Named(t) => {
                // The library builder draws its own placeholder endpoints;
                // the first `arrive` below replaces them with the request.
                let params = ScenarioParams {
                    vm_count,
                    sources: 1,
                    destinations: 1,
                    chain_len,
                    setup_scale: 1.0,
                    seed,
                };
                build_instance(t, &params)
            }
            Topo::Regions(rt) => {
                let vms = (rt.topo.dc_nodes.len() * vms_per_dc) as u64;
                if vms > MAX_VM_COUNT {
                    return Err(ApiError::bad_request(format!(
                        "'vms_per_dc' × the topology's {} data centers must be at most \
                         {MAX_VM_COUNT} VMs, found {vms}",
                        rt.topo.dc_nodes.len()
                    )));
                }
                let scenario = RegionScenario {
                    vms_per_dc,
                    setup_scale: 1.0,
                    seed,
                };
                build_region_instance(rt, &scenario, sources, destinations, chain_len)
            }
        };
        let mut session = OnlineSession::new(
            instance,
            solver,
            SofdaConfig::default(),
            OnlineConfig::default(),
        );
        let report = arrival(session.apply(SessionEvent::Arrive(request)))
            .map_err(|e| ApiError::conflict(format!("initial embedding failed: {e}")))?;

        let id = self.next_id;
        self.next_id += 1;
        let now = Instant::now();
        let entry = SessionEntry {
            topology,
            session,
            ttl,
            deadline: Mutex::new(None),
            repairs: Vec::new(),
        };
        entry.touch(now);
        self.sessions.insert(id, entry);
        self.sessions_created += 1;
        Ok(report_value(id, &report))
    }

    fn entry(&mut self, id: u64) -> Result<&mut SessionEntry, ApiError> {
        self.sessions
            .get_mut(&id)
            .ok_or_else(|| ApiError::not_found(format!("no session {id}")))
    }

    /// Session `id`, and what `element` names on its topology — the
    /// daemon's one call of [`ElementRef::resolve`], made once per fail or
    /// repair request (a scheduled repair keeps the answer).
    fn resolve(
        &mut self,
        id: u64,
        element: &ElementRef,
    ) -> Result<(&mut SessionEntry, Vec<Element>), ApiError> {
        let entry = self
            .sessions
            .get_mut(&id)
            .ok_or_else(|| ApiError::not_found(format!("no session {id}")))?;
        let physical =
            element.resolve(|name| domain_nodes(&self.topologies, &entry.topology, name))?;
        Ok((entry, physical))
    }

    /// `POST /v1/sessions/{id}/join` — adds `{"destination": n}` to the
    /// served group via the §VII-C incremental join (full rebuild only on
    /// drift or failure, exactly the library's policy).
    ///
    /// # Errors
    ///
    /// 404 for an unknown session, 400 for a missing/duplicate
    /// destination, 409 when re-embedding fails.
    pub fn session_join(&mut self, id: u64, mut body: Body) -> Result<Value, ApiError> {
        let destination = read_destination(&mut body)?;
        let entry = self.entry(id)?;
        if entry
            .session
            .instance()
            .request
            .destinations
            .contains(&destination)
        {
            return Err(ApiError::bad_request(format!(
                "destination {} is already served by session {id}",
                destination.index()
            )));
        }
        let report = arrival(entry.session.apply(SessionEvent::Join(destination)))
            .map_err(|e| ApiError::conflict(format!("join failed: {e}")))?;
        entry.touch(Instant::now());
        Ok(report_value(id, &report))
    }

    /// `POST /v1/sessions/{id}/leave` — removes `{"destination": n}` via
    /// the incremental leave operation; while a failure has the forest
    /// dropped it only leaves the group, at `forest_cost` 0.
    ///
    /// # Errors
    ///
    /// 404 for an unknown session, 400 when the destination is not served.
    pub fn session_leave(&mut self, id: u64, mut body: Body) -> Result<Value, ApiError> {
        let destination = read_destination(&mut body)?;
        let entry = self.entry(id)?;
        let cost = match entry.session.apply(SessionEvent::Leave(destination)) {
            Ok(Applied::Left(cost)) => cost,
            Ok(other) => unreachable!("a leave answered {other:?}"),
            Err(e) => return Err(ApiError::bad_request(format!("leave failed: {e}"))),
        };
        entry.touch(Instant::now());
        let mut v = Value::table();
        v.set("id", Value::Int(id as i64));
        v.set("forest_cost", Value::Float(cost));
        v.set(
            "destinations",
            nodes_value(&entry.session.instance().request.destinations),
        );
        Ok(v)
    }

    /// `POST /v1/sessions/{id}/fail` — injects an element failure. The
    /// body names exactly one element — `{"vm": n}`, `{"link": [u, v]}`,
    /// `{"node": n}`, or `{"domain": "name"}` (regions topologies only) —
    /// plus an optional `"repair_secs"` scheduling an automatic repair the
    /// janitor applies once the interval passes.
    ///
    /// Every failure is one [`SessionEvent::Fail`] (a domain fails every
    /// node of its region except the request's own endpoints), and the
    /// destinations it disconnects recover as a spec run's do: through
    /// [`Protector::recover`] under [`ProtectionPolicy::Reactive`], which
    /// drops the forest for the next join to rebuild. The reply counts and
    /// lists those destinations.
    ///
    /// # Errors
    ///
    /// 404 for an unknown session, 400 for a malformed element, a `vm`
    /// that is not a VM, a non-existent link, an endpoint of the request
    /// failed as a node, or an unknown domain.
    pub fn session_fail(&mut self, id: u64, mut body: Body) -> Result<Value, ApiError> {
        let element = read_element(&mut body)?;
        let repair_secs = body.within("repair_secs", 0..=MAX_SECS)?;
        body.finish()?;
        let (entry, physical) = self.resolve(id, &element)?;
        let dests = match entry.session.apply(SessionEvent::Fail(physical.clone())) {
            Ok(Applied::Failed(dests)) => dests,
            Ok(other) => unreachable!("a fail answered {other:?}"),
            Err(e) => return Err(ApiError::bad_request(format!("fail failed: {e}"))),
        };
        let dests: Vec<NodeId> = dests.into_iter().collect();
        Protector::new(ProtectionPolicy::Reactive, None).recover(&mut entry.session, &dests);
        let mut v = Value::table();
        v.set("id", Value::Int(id as i64));
        v.set("element", Value::Str(element.to_string()));
        v.set("disrupted", Value::Int(dests.len() as i64));
        v.set("disconnected", nodes_value(&dests));
        if let Some(secs) = repair_secs.filter(|&s| s > 0) {
            entry
                .repairs
                .push((Instant::now() + Duration::from_secs(secs), physical));
            v.set("repair_in_secs", Value::Int(secs as i64));
        }
        entry.touch(Instant::now());
        Ok(v)
    }

    /// `POST /v1/sessions/{id}/repair` — restores a previously failed
    /// element immediately. Same element vocabulary as `fail`; any repair
    /// the janitor had scheduled for the element is cancelled.
    ///
    /// # Errors
    ///
    /// 404 for an unknown session, 400 when the element is malformed or
    /// not currently failed.
    pub fn session_repair(&mut self, id: u64, mut body: Body) -> Result<Value, ApiError> {
        let element = read_element(&mut body)?;
        body.finish()?;
        let (entry, physical) = self.resolve(id, &element)?;
        entry
            .session
            .apply(SessionEvent::Repair(physical.clone()))
            .map_err(|e| ApiError::bad_request(format!("repair failed: {e}")))?;
        entry
            .repairs
            .retain(|(_, scheduled)| scheduled != &physical);
        entry.touch(Instant::now());
        let mut v = Value::table();
        v.set("id", Value::Int(id as i64));
        v.set("repaired", Value::Str(element.to_string()));
        Ok(v)
    }

    /// `GET /v1/sessions/{id}` — the session's current state and lifetime
    /// counters. Reading a session renews its TTL.
    ///
    /// # Errors
    ///
    /// 404 for an unknown session.
    pub fn session_get(&self, id: u64) -> Result<Value, ApiError> {
        let entry = self
            .sessions
            .get(&id)
            .ok_or_else(|| ApiError::not_found(format!("no session {id}")))?;
        entry.touch(Instant::now());
        let stats = *entry.session.stats();
        let req = &entry.session.instance().request;
        let mut v = Value::table();
        v.set("id", Value::Int(id as i64));
        v.set("topology", Value::Str(entry.topology.clone()));
        v.set(
            "solver",
            Value::Str(entry.session.solver_name().to_string()),
        );
        v.set("sources", nodes_value(&req.sources));
        v.set("destinations", nodes_value(&req.destinations));
        v.set("chain_len", Value::Int(req.chain.len() as i64));
        v.set("forest_cost", Value::Float(entry.session.forest_cost()));
        v.set(
            "accumulated_cost",
            Value::Float(entry.session.accumulated_cost()),
        );
        v.set(
            "ttl_secs",
            match entry.ttl {
                Some(t) => Value::Int(t.as_secs() as i64),
                None => Value::Null,
            },
        );
        let mut c = Value::table();
        c.set("arrivals", Value::Int(stats.arrivals as i64));
        c.set("full_solves", Value::Int(stats.full_solves as i64));
        c.set("stroll_nodes", Value::Int(stats.stroll_nodes as i64));
        c.set(
            "stroll_handovers",
            Value::Int(stats.stroll_handovers as i64),
        );
        c.set("incremental", Value::Int(stats.incremental_events as i64));
        c.set("joins", Value::Int(stats.joins as i64));
        c.set("leaves", Value::Int(stats.leaves as i64));
        c.set("reroutes", Value::Int(stats.reroutes as i64));
        c.set("fallbacks", Value::Int(stats.fallbacks as i64));
        c.set("vm_failures", Value::Int(stats.vm_failures as i64));
        v.set("counters", c);
        v.set("pending_repairs", Value::Int(entry.repairs.len() as i64));
        v.set(
            "engine",
            engine_value(entry.session.instance().network.paths().stats()),
        );
        Ok(v)
    }

    fn retire(&mut self, entry: SessionEntry) {
        self.retired_engine += entry.session.instance().network.paths().stats();
    }

    /// `DELETE /v1/sessions/{id}` — tears the session down.
    ///
    /// # Errors
    ///
    /// 404 for an unknown session.
    pub fn session_delete(&mut self, id: u64) -> Result<Value, ApiError> {
        let entry = self
            .sessions
            .remove(&id)
            .ok_or_else(|| ApiError::not_found(format!("no session {id}")))?;
        self.retire(entry);
        self.sessions_deleted += 1;
        let mut v = Value::table();
        v.set("deleted", Value::Int(id as i64));
        Ok(v)
    }

    /// Reaps every session whose TTL deadline has passed; returns how many
    /// were expired. Also drains scheduled element repairs that have come
    /// due. Called by the janitor thread.
    pub fn expire(&mut self, now: Instant) -> usize {
        for entry in self.sessions.values_mut() {
            if entry.repairs.iter().all(|(t, _)| *t > now) {
                continue;
            }
            let (due, later) = std::mem::take(&mut entry.repairs)
                .into_iter()
                .partition(|(t, _)| *t <= now);
            entry.repairs = later;
            for (_, physical) in due {
                // A client may have repaired (or re-failed) the element in
                // the meantime; a stale scheduled repair is not an error.
                let _ = entry.session.apply(SessionEvent::Repair(physical));
            }
        }
        let dead: Vec<u64> = self
            .sessions
            .iter()
            .filter(|(_, e)| e.expired(now))
            .map(|(&id, _)| id)
            .collect();
        for id in &dead {
            let entry = self.sessions.remove(id).expect("listed above");
            self.retire(entry);
            self.sessions_expired += 1;
        }
        dead.len()
    }

    /// `GET /healthz` — liveness plus the two numbers a probe wants.
    pub fn healthz(&self) -> Value {
        let mut v = Value::table();
        v.set("ok", Value::Bool(true));
        v.set(
            "uptime_secs",
            Value::Float(self.started.elapsed().as_secs_f64()),
        );
        v.set("sessions", Value::Int(self.sessions.len() as i64));
        v
    }

    /// `GET /v1/stats` — request/error totals, session lifecycle counts,
    /// aggregated PathEngine counters (live + retired sessions), and a
    /// per-session cost/counter table.
    pub fn stats_value(&self) -> Value {
        let mut v = Value::table();
        v.set(
            "uptime_secs",
            Value::Float(self.started.elapsed().as_secs_f64()),
        );
        let total = |n: &AtomicU64| Value::Int(n.load(Ordering::Relaxed) as i64);
        v.set("requests", total(&self.requests));
        v.set("errors", total(&self.errors));
        let mut s = Value::table();
        s.set("live", Value::Int(self.sessions.len() as i64));
        s.set("created", Value::Int(self.sessions_created as i64));
        s.set("expired", Value::Int(self.sessions_expired as i64));
        s.set("deleted", Value::Int(self.sessions_deleted as i64));
        v.set("sessions", s);
        v.set("topologies", Value::Int(self.topologies.len() as i64));
        let mut engine = self.retired_engine;
        for entry in self.sessions.values() {
            engine += entry.session.instance().network.paths().stats();
        }
        v.set("engine", engine_value(engine));
        v.set(
            "per_session",
            Value::Array(
                self.sessions
                    .iter()
                    .map(|(&id, e)| {
                        let stats = e.session.stats();
                        let mut p = Value::table();
                        p.set("id", Value::Int(id as i64));
                        p.set("topology", Value::Str(e.topology.clone()));
                        p.set("solver", Value::Str(e.session.solver_name().to_string()));
                        p.set("forest_cost", Value::Float(e.session.forest_cost()));
                        p.set(
                            "accumulated_cost",
                            Value::Float(e.session.accumulated_cost()),
                        );
                        p.set("arrivals", Value::Int(stats.arrivals as i64));
                        p.set("full_solves", Value::Int(stats.full_solves as i64));
                        p.set("incremental", Value::Int(stats.incremental_events as i64));
                        p
                    })
                    .collect(),
            ),
        );
        v
    }
}
