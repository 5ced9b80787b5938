//! The incremental online embedding engine behind Fig. 12.
//!
//! An [`OnlineSession`] owns a [`SofInstance`], a [`LoadTracker`] and one
//! standing [`ServiceForest`] driven by a single [`Solver`]. Everything
//! that happens to it is one [`SessionEvent`], stepped through
//! [`apply`](OnlineSession::apply): a new snapshot of the served group
//! arrives, one destination joins or leaves, elements fail or are
//! repaired. Instead of re-running the solver from scratch per arrival, the
//! session diffs the destination sets and re-embeds **incrementally** with
//! the §VII-C dynamics ([`dynamics::destination_join_with`] and
//! [`dynamics::destination_leave`]; it never re-routes), falling back to a
//! full rebuild when the standing forest's cost drifts past a configurable
//! multiple of the last full solve's ([`OnlineConfig::drift`]) — or
//! whenever an incremental step fails or invalidates the forest. In
//! debug builds every `apply` ends with
//! [`check_invariants`](OnlineSession::check_invariants).
//!
//! # Failures
//!
//! A session holds the set of failed elements ([`Faults`]) and nothing
//! else about them: [`SessionEvent::Fail`] and [`SessionEvent::Repair`]
//! edit the set, [`faults`](OnlineSession::faults) reads it, and every
//! cost refresh prices a link or VM at [`FAILED_COST`] plus its congestion
//! surcharge exactly while the set covers it ([`crate::faults`] states the
//! covering rule). The static base costs are never written after
//! [`OnlineSession::new`], so any order of fails and repairs leaves
//! exactly what is still failed priced out. A failure never drops the
//! forest: the caller recovers the destinations a `Fail` reports (a
//! protection policy's switchover) or calls
//! [`clear_forest`](OnlineSession::clear_forest) for a rebuild at the next
//! arrival.
//!
//! # Examples
//!
//! ```
//! use sof_core::{
//!     Applied, Network, OnlineConfig, OnlineSession, Request, ServiceChain, SessionEvent, Sofda,
//!     SofInstance, SofdaConfig,
//! };
//! use sof_graph::{Cost, Graph, NodeId};
//!
//! let mut g = Graph::with_nodes(8);
//! for i in 0..8 {
//!     g.add_edge(NodeId::new(i), NodeId::new((i + 1) % 8), Cost::new(1.0));
//! }
//! let mut net = Network::all_switches(g);
//! net.make_vm(NodeId::new(2), Cost::new(1.0));
//! let chain = ServiceChain::with_len(1);
//! let inst = SofInstance::new(
//!     net,
//!     Request::new(vec![NodeId::new(0)], vec![NodeId::new(4)], chain.clone()),
//! )?;
//! let mut session =
//!     OnlineSession::new(inst, Box::new(Sofda), SofdaConfig::default(), OnlineConfig::default());
//! // First arrival embeds from scratch…
//! let first = session.apply(SessionEvent::Arrive(Request::new(
//!     vec![NodeId::new(0)],
//!     vec![NodeId::new(4)],
//!     chain,
//! )))?;
//! assert!(first.report().is_some_and(|r| r.rebuilt));
//! // …the next viewer joins incrementally…
//! let second = session.apply(SessionEvent::Join(NodeId::new(6)))?;
//! assert!(second.report().is_some_and(|r| !r.rebuilt && r.joined == 1));
//! // …and leaves again.
//! let Applied::Left(cost) = session.apply(SessionEvent::Leave(NodeId::new(6)))? else {
//!     unreachable!("a leave answers with the forest's cost")
//! };
//! assert!(cost > 0.0);
//! session.check_invariants()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::dynamics::{self, JoinStrategy};
use crate::faults::{Element, Faults, FAILED_COST};
use crate::{
    fortz_thorup, LoadTracker, Request, ServiceForest, SofInstance, SofdaConfig, SolveError,
    Solver, LINK_CAPACITY_MBPS, VM_CAPACITY_VNFS,
};
use sof_graph::{Cost, EdgeId, NodeId};
use std::collections::BTreeSet;
use std::time::Instant;

/// One thing that happens to a session — the whole alphabet
/// [`OnlineSession::apply`] reads.
#[derive(Clone, Debug, PartialEq)]
pub enum SessionEvent {
    /// The next snapshot of the served group
    /// ([`OnlineSession::arrive`]).
    Arrive(Request),
    /// The current request plus one destination, arrived. Refused when
    /// the destination is already served.
    Join(NodeId),
    /// One destination removed from the standing forest incrementally.
    /// Adds nothing to the accumulated cost. Refused when the destination
    /// is not served or nothing is embedded.
    Leave(NodeId),
    /// Elements join the [fault set](OnlineSession::faults). The session
    /// fails every element it accepts and skips the ones it refuses — that
    /// is how a domain failure passes over the request's own endpoints.
    Fail(Vec<Element>),
    /// Elements leave the fault set, skipping the ones that are not
    /// failed.
    Repair(Vec<Element>),
}

/// What one [`OnlineSession::apply`] did.
#[derive(Clone, Debug, PartialEq)]
pub enum Applied {
    /// An `Arrive` or a `Join`: what the re-embed did.
    Arrival(ArrivalReport),
    /// A `Leave`: the standing forest's cost after the removal (0 while
    /// nothing stands).
    Left(f64),
    /// A `Fail`: the destinations whose standing walks the elements broke
    /// (a VNF on a failed VM, a hop over a failed link, a visit to a
    /// failed node).
    Failed(BTreeSet<NodeId>),
    /// A `Repair`.
    Repaired,
}

impl Applied {
    /// The report of an `Arrive` or a `Join`; `None` for every other
    /// event.
    pub fn report(&self) -> Option<ArrivalReport> {
        match self {
            Applied::Arrival(report) => Some(*report),
            _ => None,
        }
    }
}

/// Applies `step` to every element, skipping the ones it refuses; the
/// first refusal is the answer only when it refused them all.
fn each<T>(
    elements: &[Element],
    mut step: impl FnMut(Element) -> Result<T, SolveError>,
) -> Result<Vec<T>, SolveError> {
    let mut applied = Vec::new();
    let mut refusal = None;
    for &element in elements {
        match step(element) {
            Ok(done) => applied.push(done),
            Err(e) => {
                refusal.get_or_insert(e);
            }
        }
    }
    match refusal {
        Some(e) if applied.is_empty() => Err(e),
        _ => Ok(applied),
    }
}

/// How the session re-embeds when the served group changes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EmbedMode {
    /// Re-run the solver from scratch on every arrival (the seed behavior
    /// of Fig. 12; the comparison baseline).
    FromScratch,
    /// Diff destination sets and apply §VII-C join/leave operations,
    /// rebuilding only on drift, source/chain changes, or failures.
    Incremental,
}

/// Tuning knobs for an [`OnlineSession`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OnlineConfig {
    /// Re-embedding strategy.
    pub mode: EmbedMode,
    /// Full-rebuild fallback: rebuild once the standing forest's
    /// congestion-aware cost reaches this multiple of the cost measured
    /// right after the last full solve (or, when that solve is priced on a
    /// failed element, at the first arrival after it that is not). The
    /// default, 1.5, rebuilds once the forest costs half as much again as
    /// the last solve's; a run of cheap joins never triggers a pointless
    /// rebuild, while a few expensive attachments do. Lower values track
    /// the solver's quality more closely; higher values are faster.
    pub drift: f64,
    /// Per-request bandwidth demand (Mbps) charged to the standing forest.
    pub demand_mbps: f64,
}

impl Default for OnlineConfig {
    fn default() -> OnlineConfig {
        OnlineConfig {
            mode: EmbedMode::Incremental,
            drift: 1.5,
            demand_mbps: 5.0,
        }
    }
}

impl OnlineConfig {
    /// Switches the re-embedding mode.
    pub fn with_mode(mut self, mode: EmbedMode) -> OnlineConfig {
        self.mode = mode;
        self
    }
}

/// Counters accumulated over a session's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OnlineStats {
    /// Arrivals processed.
    pub arrivals: usize,
    /// Full solver runs (initial embeds, drift rebuilds, fallbacks).
    pub full_solves: usize,
    /// [`crate::SolveStats::stroll_nodes`] summed over those runs.
    pub stroll_nodes: u64,
    /// [`crate::SolveStats::stroll_handovers`] summed over those runs.
    pub stroll_handovers: u64,
    /// [`crate::SolveStats::chains_expanded`] summed over those runs.
    pub chains_expanded: usize,
    /// Arrivals served purely by incremental operations.
    pub incremental_events: usize,
    /// Destinations joined incrementally.
    pub joins: usize,
    /// Destinations removed incrementally.
    pub leaves: usize,
    /// Always 0: a session never re-routes ([`dynamics::reroute_all`] is
    /// a library operation only). Kept while the repo benchmark
    /// (`benchmark/`) reads it.
    pub reroutes: usize,
    /// Incremental attempts abandoned for a rebuild (dynamics error or
    /// validation failure).
    pub fallbacks: usize,
    /// [`Element::Vm`] failures injected via [`SessionEvent::Fail`].
    pub vm_failures: usize,
    /// Links priced by the session's repricings: every link on a full
    /// pass, the old and new forests' links on a load change.
    pub repriced_links: usize,
}

/// What one arrival ([`OnlineSession::arrive`], or a
/// [`SessionEvent::Join`]) did.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ArrivalReport {
    /// Standing forest cost after this arrival (congestion-aware units).
    pub forest_cost: f64,
    /// Session-accumulated cost including this arrival.
    pub accumulated_cost: f64,
    /// Whether the solver ran from scratch.
    pub rebuilt: bool,
    /// Destinations joined incrementally.
    pub joined: usize,
    /// Destinations removed incrementally.
    pub left: usize,
    /// Wall-clock milliseconds spent embedding (excludes load accounting).
    pub millis: f64,
}

/// An incremental online embedding session: one solver, one standing
/// forest, congestion-aware costs. See the [module docs](self) for the
/// lifecycle and an example.
pub struct OnlineSession {
    solver: Box<dyn Solver>,
    config: SofdaConfig,
    opts: OnlineConfig,
    instance: SofInstance,
    tracker: LoadTracker,
    /// Static topology link costs captured at construction and never
    /// written again; congestion is charged **on top** so unloaded links
    /// never become free.
    base_edge_costs: Vec<Cost>,
    /// Static VM setup costs captured at construction, never written again.
    base_vm_costs: Vec<(NodeId, Cost)>,
    forest: Option<ServiceForest>,
    /// What is failed. Everything else about failures is derived from it.
    faults: Faults,
    /// What congestion is charged on top of, per edge and per VM: the base
    /// cost, or [`FAILED_COST`] while `faults` covers the element. Derived
    /// — rewritten whole from the base costs and the set whenever the set
    /// changes (a full repricing follows), so between fault changes a
    /// link's price moves only with its load.
    edge_floor: Vec<Cost>,
    vm_floor: Vec<(NodeId, Cost)>,
    accumulated: f64,
    /// The [`OnlineConfig::drift`] baseline: the standing forest's
    /// cost at the first arrival since the last full solve at which it was
    /// not priced on a failed element (see [`drift_baseline`]); 0 while
    /// there is none, and then the cost rule does not fire.
    cost_at_solve: f64,
    /// Standing forest cost at the latest recharge.
    last_cost: f64,
    /// The links the latest recharge repriced; kept only so that the next
    /// one reuses the allocation.
    recharged: Vec<EdgeId>,
    stats: OnlineStats,
}

impl OnlineSession {
    /// Creates a session over `instance`'s network. The instance's initial
    /// request is only a placeholder: nothing is embedded until the first
    /// [`arrive`](OnlineSession::arrive).
    pub fn new(
        instance: SofInstance,
        solver: Box<dyn Solver>,
        config: SofdaConfig,
        opts: OnlineConfig,
    ) -> OnlineSession {
        let tracker = LoadTracker::new(&instance.network);
        let base_edge_costs: Vec<Cost> = (0..instance.network.graph().edge_count())
            .map(|i| instance.network.graph().edge_cost(EdgeId::new(i)))
            .collect();
        let base_vm_costs: Vec<(NodeId, Cost)> = instance
            .network
            .vms()
            .into_iter()
            .map(|v| (v, instance.network.node_cost(v)))
            .collect();
        OnlineSession {
            solver,
            config,
            opts,
            instance,
            tracker,
            edge_floor: base_edge_costs.clone(),
            vm_floor: base_vm_costs.clone(),
            base_edge_costs,
            base_vm_costs,
            forest: None,
            faults: Faults::default(),
            accumulated: 0.0,
            cost_at_solve: 0.0,
            last_cost: 0.0,
            recharged: Vec::new(),
            stats: OnlineStats::default(),
        }
    }

    /// Congestion-aware cost refresh over every link and VM: static base
    /// cost — [`FAILED_COST`] for an element the fault set covers —
    /// **plus** the convex Fortz–Thorup surcharge for the current load.
    /// (Pricing by the surcharge alone would price unloaded resources at
    /// zero, which lets a from-scratch solver dodge all standing load for
    /// free and makes mode comparisons meaningless.) The one full pass:
    /// [`apply_faults`](Self::apply_faults) runs it when floors move; a
    /// load change reprices its footprint only (`recharge`).
    fn refresh_costs(&mut self) {
        self.reprice((0..self.edge_floor.len()).map(EdgeId::new));
    }

    /// Prices `links`, in the order given, and every VM at floor plus
    /// surcharge. `set_edge_cost` ignores an unchanged price, so only a
    /// link whose price moves renews the epoch; the engine then releases
    /// every tree the new epoch made stale (nothing can read one again).
    fn reprice(&mut self, links: impl IntoIterator<Item = EdgeId>) {
        let net = &mut self.instance.network;
        for e in links {
            let congestion = fortz_thorup(self.tracker.edge_load(e), LINK_CAPACITY_MBPS);
            net.graph_mut()
                .set_edge_cost(e, self.edge_floor[e.index()] + congestion);
            self.stats.repriced_links += 1;
        }
        for &(v, base) in &self.vm_floor {
            let congestion = fortz_thorup(self.tracker.node_load(v), VM_CAPACITY_VNFS);
            net.set_node_cost(v, base + congestion);
        }
        net.paths().release_stale(net.graph());
    }

    /// Re-derives what the refresh charges congestion on top of from the
    /// base costs and the fault set, and reprices. Called whenever the set
    /// changed.
    fn apply_faults(&mut self) {
        let failed = Cost::new(FAILED_COST);
        for (e, edge) in self.instance.network.graph().edges() {
            let down = self.faults.edge_down(edge.u, edge.v);
            self.edge_floor[e.index()] = if down {
                failed
            } else {
                self.base_edge_costs[e.index()]
            };
        }
        for (floor, &(v, base)) in self.vm_floor.iter_mut().zip(&self.base_vm_costs) {
            floor.1 = if self.faults.vm_down(v) { failed } else { base };
        }
        self.refresh_costs();
    }

    /// The driving solver's display name.
    pub fn solver_name(&self) -> &'static str {
        self.solver.name()
    }

    /// The current instance (network costs reflect the latest refresh).
    pub fn instance(&self) -> &SofInstance {
        &self.instance
    }

    /// The standing forest, if anything is embedded.
    pub fn forest(&self) -> Option<&ServiceForest> {
        self.forest.as_ref()
    }

    /// The standing forest's cost after the last event; 0 while nothing
    /// stands.
    pub fn forest_cost(&self) -> f64 {
        self.forest.as_ref().map_or(0.0, |_| self.last_cost)
    }

    /// Accumulated forest cost over all arrivals (Fig. 12's y-axis).
    pub fn accumulated_cost(&self) -> f64 {
        self.accumulated
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &OnlineStats {
        &self.stats
    }

    /// Steps the session by one event — the one way a driver changes it.
    /// `Arrive(r)` is exactly [`arrive`](Self::arrive)`(r)`; `Join(d)` is
    /// the current request plus `d`, arrived. A `Fail` or `Repair` applies
    /// every element the session accepts, and answers with the first
    /// refusal only when it refused them all (an empty list is no
    /// refusal). In debug builds the session then
    /// [checks its invariants](Self::check_invariants) and panics on a
    /// violation.
    ///
    /// # Errors
    ///
    /// [`SolveError`] when the event is refused: a required full solve
    /// fails (the standing forest is dropped so the next arrival starts
    /// clean), a join names a served destination, a leave one that is not
    /// served, or a fail or repair is refused for every element — one not
    /// on this network, a `Node` that is an endpoint of the current
    /// request, a repair of what is not failed.
    pub fn apply(&mut self, event: SessionEvent) -> Result<Applied, SolveError> {
        let applied = match event {
            SessionEvent::Arrive(request) => self.arrive(request).map(Applied::Arrival),
            SessionEvent::Join(destination) => self.join(destination).map(Applied::Arrival),
            SessionEvent::Leave(destination) => self.depart(destination).map(Applied::Left),
            SessionEvent::Fail(elements) => each(&elements, |e| self.fail(e))
                .map(|broken| Applied::Failed(broken.into_iter().flatten().collect())),
            SessionEvent::Repair(elements) => {
                each(&elements, |e| self.repair(e)).map(|_| Applied::Repaired)
            }
        };
        debug_assert_eq!(self.check_invariants(), Ok(()));
        applied
    }

    /// What holds between any two events: a standing forest validates
    /// against the instance, the [`LoadTracker`] holds exactly the loads
    /// recomputed from it, a link or VM is priced at or above
    /// [`FAILED_COST`] exactly when the [fault set](Self::faults) covers
    /// it, and every link and VM is priced, to the bit, at its floor plus
    /// [`fortz_thorup`] of its tracked load. Not checked: that the forest
    /// avoids the failed elements — after a `Fail` it stands by design
    /// until a policy recovers it — and the loads while nothing stands
    /// (the next rebuild is priced around the last forest's load).
    ///
    /// # Errors
    ///
    /// The first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        let net = &self.instance.network;
        if let Some(forest) = &self.forest {
            forest
                .validate(&self.instance)
                .map_err(|e| format!("standing forest: {e}"))?;
            let mut loads = LoadTracker::new(net);
            loads.apply_forest(net, forest, self.opts.demand_mbps);
            if loads != self.tracker {
                return Err("tracked loads differ from the standing forest's".into());
            }
        }
        let priced_out = |c: Cost| c.value() >= FAILED_COST;
        let surcharged = |price: Cost, floor: Cost, load: f64, capacity: f64| {
            price.value().to_bits() == (floor + fortz_thorup(load, capacity)).value().to_bits()
        };
        let t = &self.tracker;
        for (e, edge) in net.graph().edges() {
            let price = net.graph().edge_cost(e);
            if priced_out(price) != self.faults.edge_down(edge.u, edge.v) {
                return Err(format!(
                    "link {}-{} priced {price} against the fault set",
                    edge.u, edge.v
                ));
            }
            let floor = self.edge_floor[e.index()];
            if !surcharged(price, floor, t.edge_load(e), LINK_CAPACITY_MBPS) {
                return Err(format!(
                    "link {}-{} priced {price}, not its floor {floor} plus its load's surcharge",
                    edge.u, edge.v
                ));
            }
        }
        for &(v, floor) in &self.vm_floor {
            let price = net.node_cost(v);
            if priced_out(price) != self.faults.vm_down(v) {
                return Err(format!("VM {v} priced {price} against the fault set"));
            }
            if !surcharged(price, floor, t.node_load(v), VM_CAPACITY_VNFS) {
                return Err(format!(
                    "VM {v} priced {price}, not its floor {floor} plus its load's surcharge"
                ));
            }
        }
        Ok(())
    }

    /// Processes the next group snapshot: re-embeds on the current
    /// congestion-aware costs (incrementally when possible), charges the
    /// standing forest's footprint to the tracker, refreshes costs and
    /// accumulates the forest's cost **including its own congestion
    /// surcharge** — the same accounting for both modes, so a from-scratch
    /// solver cannot "dodge" load it itself creates. Drivers step through
    /// [`apply`](Self::apply); this stays public for callers that time an
    /// arrival alone.
    ///
    /// # Errors
    ///
    /// [`SolveError`] when a required full solve fails; the standing forest
    /// is dropped so the next arrival starts clean.
    pub fn arrive(&mut self, request: Request) -> Result<ArrivalReport, SolveError> {
        self.stats.arrivals += 1;
        let t0 = Instant::now();
        let mut joined = 0;
        let mut left = 0;
        let mut rebuilt = false;
        if !self.try_incremental(&request, &mut joined, &mut left) {
            self.rebuild(request)?;
            rebuilt = true;
        }
        let millis = t0.elapsed().as_secs_f64() * 1e3;
        let forest_cost = self.recharge();
        if rebuilt || self.cost_at_solve == 0.0 {
            self.cost_at_solve = drift_baseline(forest_cost);
        }
        self.last_cost = forest_cost;
        self.accumulated += forest_cost;
        Ok(ArrivalReport {
            forest_cost,
            accumulated_cost: self.accumulated,
            rebuilt,
            joined,
            left,
            millis,
        })
    }

    /// [`SessionEvent::Join`]: arrives the current request plus
    /// `destination`.
    fn join(&mut self, destination: NodeId) -> Result<ArrivalReport, SolveError> {
        let req = &self.instance.request;
        if req.destinations.contains(&destination) {
            return Err(SolveError::Infeasible(format!(
                "{destination} is already a destination"
            )));
        }
        let mut destinations = req.destinations.clone();
        destinations.push(destination);
        let request = Request::new(req.sources.clone(), destinations, req.chain.clone());
        self.arrive(request)
    }

    /// [`SessionEvent::Leave`]: removes one destination from the served
    /// group incrementally (a viewer departing between arrivals). Does not
    /// touch the accumulated cost; returns the standing forest's cost
    /// after the removal. With nothing standing the destination only
    /// leaves the request, at cost 0, and the next arrival rebuilds for
    /// the rest.
    fn depart(&mut self, destination: NodeId) -> Result<f64, SolveError> {
        let Some(forest) = self.forest.as_mut() else {
            let destinations = &mut self.instance.request.destinations;
            if !destinations.contains(&destination) {
                let refusal = dynamics::DynamicsError::NotServed(destination);
                return Err(SolveError::Infeasible(refusal.to_string()));
            }
            destinations.retain(|&d| d != destination);
            self.stats.leaves += 1;
            return Ok(0.0);
        };
        dynamics::destination_leave(&mut self.instance, forest, destination)
            .map_err(|e| SolveError::Infeasible(e.to_string()))?;
        self.stats.leaves += 1;
        let cost = self.recharge();
        self.last_cost = cost;
        Ok(cost)
    }

    /// One element of a [`SessionEvent::Fail`]: `element` joins the
    /// [fault set](Self::faults), everything it covers is priced out (see
    /// [`crate::faults`]), and the destinations whose standing walks it
    /// breaks are returned. The forest is **not** dropped: the caller
    /// decides how those destinations recover (a protection policy's
    /// switchover, or [`clear_forest`](Self::clear_forest) for a rebuild
    /// at the next arrival). Idempotent — failing a failed element
    /// re-reports the affected destinations.
    ///
    /// Refuses an element that is not on this network (a node out of
    /// range, a `Vm` that is not a VM, a `Link` with no link between its
    /// endpoints), and a `Node` that is a source or destination of the
    /// current request — an endpoint failing is a different event (the
    /// group member leaving), not a transit fault.
    fn fail(&mut self, element: Element) -> Result<Vec<NodeId>, SolveError> {
        let net = &self.instance.network;
        let on_net = |n: NodeId| n.index() < net.node_count();
        let forest = self.forest.as_ref();
        let affected = match element {
            Element::Vm(vm) => {
                if !(on_net(vm) && net.is_vm(vm)) {
                    return Err(SolveError::Infeasible(format!("{vm} is not a VM")));
                }
                self.stats.vm_failures += 1;
                forest.map(|f| f.destinations_on_vm(vm))
            }
            Element::Link(u, v) => {
                if !(on_net(u) && on_net(v)) || net.graph().edge_between(u, v).is_none() {
                    return Err(SolveError::Infeasible(format!(
                        "no link between {u} and {v}"
                    )));
                }
                forest.map(|f| f.destinations_via_edge(u, v))
            }
            Element::Node(n) => {
                if !on_net(n) {
                    return Err(SolveError::Infeasible(format!("{n} out of range")));
                }
                let req = &self.instance.request;
                if req.sources.contains(&n) || req.destinations.contains(&n) {
                    return Err(SolveError::Infeasible(format!(
                        "{n} is a source or destination of the current request; \
                         node failures model transit elements only"
                    )));
                }
                forest.map(|f| f.destinations_via_node(n))
            }
        };
        if self.faults.insert(element) {
            self.apply_faults();
        }
        Ok(affected.unwrap_or_default())
    }

    /// One element of a [`SessionEvent::Repair`]: it leaves the
    /// [fault set](Self::faults) and whatever no other failure still
    /// covers is priced normally again, so future embeddings use it.
    /// Refuses an element that is not currently failed.
    fn repair(&mut self, element: Element) -> Result<(), SolveError> {
        if !self.faults.remove(element) {
            return Err(SolveError::Infeasible(match element {
                Element::Vm(vm) => format!("{vm} is not a failed VM"),
                Element::Link(u, v) => format!("link {u}-{v} is not failed"),
                Element::Node(n) => format!("{n} is not a failed node"),
            }));
        }
        self.apply_faults();
        Ok(())
    }

    /// What is currently failed, with the predicates that follow from it
    /// ([`Faults::walk_avoids`], [`Faults::forest_avoids`], …).
    pub fn faults(&self) -> &Faults {
        &self.faults
    }

    /// The SOFDA configuration driving this session's solves, so protection
    /// layers can run standby solves with identical knobs.
    pub fn sofda_config(&self) -> &SofdaConfig {
        &self.config
    }

    /// Drops the standing forest without touching failure pricing: the
    /// reactive recovery path. The next
    /// [`arrive`](OnlineSession::arrive) rebuilds from scratch around
    /// whatever is currently failed.
    pub fn clear_forest(&mut self) {
        self.forest = None;
    }

    /// Swaps in a pre-solved replacement forest (the standby-forest
    /// switchover). Validates first, then recharges load accounting and
    /// resets the drift baseline as a full solve would — the swapped
    /// forest *is* a full solution, just one paid for earlier.
    ///
    /// # Errors
    ///
    /// [`SolveError::Internal`] when the candidate is not feasible for the
    /// current instance; the standing forest is left untouched.
    pub fn replace_forest(&mut self, forest: ServiceForest) -> Result<f64, SolveError> {
        forest
            .validate(&self.instance)
            .map_err(SolveError::Internal)?;
        self.forest = Some(forest);
        let cost = self.recharge();
        self.cost_at_solve = drift_baseline(cost);
        self.last_cost = cost;
        Ok(cost)
    }

    /// Plans (without applying) a replacement walk for destination `d`
    /// that avoids every currently-failed element. With
    /// `disjoint_from_primary`, `d`'s **current** walk's links are banned
    /// too — the backup-path pre-planning mode, which guarantees the
    /// backup survives any single failure on the primary attachment.
    /// Returns the walk and its attachment cost.
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`] when nothing is embedded or no surviving
    /// attachment exists.
    pub fn plan_reattach(
        &self,
        d: NodeId,
        disjoint_from_primary: bool,
    ) -> Result<(crate::DestWalk, f64), SolveError> {
        let forest = self
            .forest
            .as_ref()
            .ok_or_else(|| SolveError::Infeasible("nothing embedded yet".into()))?;
        let mut avoid = self.faults.clone();
        if disjoint_from_primary {
            if let Some(w) = forest.walks.iter().find(|w| w.destination == d) {
                for pair in w.nodes.windows(2) {
                    avoid.insert(Element::Link(pair[0], pair[1]));
                }
            }
        }
        let (walk, cost) = dynamics::plan_attach_avoiding(&self.instance, forest, d, &avoid)
            .map_err(|e| SolveError::Infeasible(e.to_string()))?;
        Ok((walk, cost.value()))
    }

    /// Applies a planned replacement walk: `walk.destination`'s standing
    /// walk is swapped for `walk`, the result validated, and load
    /// accounting recharged. Returns the forest cost after the switch.
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`] when nothing is embedded or the
    /// destination is not served; [`SolveError::Internal`] when the
    /// switched forest fails validation (the old walk is restored).
    pub fn switch_walk(&mut self, walk: crate::DestWalk) -> Result<f64, SolveError> {
        let d = walk.destination;
        let i = {
            let forest = self
                .forest
                .as_ref()
                .ok_or_else(|| SolveError::Infeasible("nothing embedded yet".into()))?;
            forest
                .walks
                .iter()
                .position(|w| w.destination == d)
                .ok_or_else(|| SolveError::Infeasible(format!("destination {d} is not served")))?
        };
        let old = std::mem::replace(&mut self.forest.as_mut().expect("checked").walks[i], walk);
        if let Err(e) = self
            .forest
            .as_ref()
            .expect("checked")
            .validate(&self.instance)
        {
            self.forest.as_mut().expect("checked").walks[i] = old;
            return Err(SolveError::Internal(e));
        }
        let cost = self.recharge();
        self.last_cost = cost;
        Ok(cost)
    }

    /// Attempts the incremental path; `false` means the caller must do a
    /// full rebuild (mode, drift, structural change, or a failed dynamic
    /// operation).
    fn try_incremental(&mut self, request: &Request, joined: &mut usize, left: &mut usize) -> bool {
        if self.opts.mode != EmbedMode::Incremental || self.forest.is_none() {
            return false;
        }
        let same_shape = {
            let old = &self.instance.request;
            old.sources.iter().collect::<BTreeSet<_>>()
                == request.sources.iter().collect::<BTreeSet<_>>()
                && old.chain.iter().eq(request.chain.iter())
        };
        let drifted =
            self.cost_at_solve > 0.0 && self.last_cost >= self.opts.drift * self.cost_at_solve;
        if !same_shape || drifted {
            return false;
        }
        let old: BTreeSet<NodeId> = self.instance.request.destinations.iter().copied().collect();
        let new: BTreeSet<NodeId> = request.destinations.iter().copied().collect();
        let to_leave: Vec<NodeId> = old.difference(&new).copied().collect();
        let to_join: Vec<NodeId> = new.difference(&old).copied().collect();
        let mut forest = self.forest.clone().expect("checked above");
        let instance = &mut self.instance;
        let applied = (|| -> Result<(), dynamics::DynamicsError> {
            for &d in &to_leave {
                dynamics::destination_leave(instance, &mut forest, d)?;
            }
            // Tail-attach, and a full search where it finds no attach point.
            for &d in &to_join {
                let tail = JoinStrategy::TailAttach;
                if dynamics::destination_join_with(instance, &mut forest, d, tail).is_err() {
                    let full = JoinStrategy::FullSearch;
                    dynamics::destination_join_with(instance, &mut forest, d, full)?;
                }
            }
            Ok(())
        })();
        match applied {
            Ok(()) => {
                if forest.validate(&self.instance).is_ok() {
                    self.forest = Some(forest);
                    self.stats.incremental_events += 1;
                    self.stats.joins += to_join.len();
                    self.stats.leaves += to_leave.len();
                    *joined = to_join.len();
                    *left = to_leave.len();
                    true
                } else {
                    self.stats.fallbacks += 1;
                    false
                }
            }
            Err(_) => {
                self.stats.fallbacks += 1;
                false
            }
        }
    }

    /// Runs the solver from scratch on `request`.
    fn rebuild(&mut self, request: Request) -> Result<(), SolveError> {
        self.instance.request = request;
        if !self.solver.supports(&self.instance) {
            self.forest = None;
            return Err(SolveError::Infeasible(format!(
                "instance exceeds {}'s capability hints",
                self.solver.name()
            )));
        }
        match self.solver.solve(&self.instance, &self.config) {
            Ok(out) => {
                // The trait contract says solvers return feasible forests;
                // enforce it here the way the old bench loop did, so a
                // registry regression cannot silently enter the accounting.
                if let Err(e) = out.forest.validate(&self.instance) {
                    self.forest = None;
                    return Err(SolveError::Internal(e));
                }
                self.forest = Some(out.forest);
                self.stats.full_solves += 1;
                self.stats.stroll_nodes += out.stats.stroll_nodes;
                self.stats.stroll_handovers += out.stats.stroll_handovers;
                self.stats.chains_expanded += out.stats.chains_expanded;
                Ok(())
            }
            Err(e) => {
                self.forest = None;
                Err(e)
            }
        }
    }

    /// Re-derives the standing forest's load footprint, reprices the links
    /// whose load can have changed, and returns the forest's cost under the
    /// new prices.
    ///
    /// Those links are the old footprint ∪ the new one. Any other link
    /// carried no load before and carries none now, and its floor only
    /// moves in [`apply_faults`](Self::apply_faults), which reprices
    /// everything; so its price is still `floor + fortz_thorup(0, p)` to
    /// the bit. The union is sorted and deduplicated, so each of its links
    /// is priced once.
    fn recharge(&mut self) -> f64 {
        let forest = self.forest.take().expect("caller ensured a forest");
        let mut links = std::mem::take(&mut self.recharged);
        links.clear();
        self.tracker.clear_loads(&mut links);
        self.tracker
            .apply_forest(&self.instance.network, &forest, self.opts.demand_mbps);
        links.extend_from_slice(self.tracker.footprint());
        links.sort_unstable();
        links.dedup();
        self.reprice(links.iter().copied());
        self.recharged = links;
        let cost = forest.cost(&self.instance.network).total().value();
        self.forest = Some(forest);
        cost
    }
}

/// The [`OnlineConfig::drift`] baseline a freshly solved forest's cost
/// gives: the cost itself, or none (0) when the forest is priced on a
/// failed element — a solve that cannot avoid one, such as a destination
/// whose every link is down. Such a cost is at least [`FAILED_COST`], and
/// once the element is repaired no standing cost reaches 1.5 times it, so
/// the cost rule would stay silent until something else forced a solve.
/// The session takes the first clean cost measured at a later arrival
/// instead.
fn drift_baseline(cost: f64) -> f64 {
    if cost < FAILED_COST {
        cost
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Network, ServiceChain, Sofda};
    use sof_graph::{generators, Cost, CostRange, Rng64};

    fn grid_instance() -> SofInstance {
        let mut rng = Rng64::seed_from(11);
        let g = generators::gnp_connected(30, 0.15, CostRange::new(1.0, 5.0), &mut rng);
        let mut net = Network::all_switches(g);
        let picks = rng.sample_indices(30, 10);
        for &v in &picks[..6] {
            net.make_vm(NodeId::new(v), Cost::new(1.0));
        }
        SofInstance::new(
            net,
            Request::new(
                vec![NodeId::new(picks[6]), NodeId::new(picks[7])],
                vec![NodeId::new(picks[8]), NodeId::new(picks[9])],
                ServiceChain::with_len(2),
            ),
        )
        .unwrap()
    }

    fn session(mode: EmbedMode) -> OnlineSession {
        let inst = grid_instance();
        let opts = OnlineConfig::default().with_mode(mode);
        OnlineSession::new(inst, Box::new(Sofda), SofdaConfig::default(), opts)
    }

    fn snapshot(inst: &SofInstance, dests: Vec<NodeId>) -> Request {
        Request::new(
            inst.request.sources.clone(),
            dests,
            inst.request.chain.clone(),
        )
    }

    #[test]
    fn first_arrival_rebuilds_then_join_and_leave_are_incremental() {
        let mut s = session(EmbedMode::Incremental);
        let base = s.instance().request.destinations.clone();
        let extra = s
            .instance()
            .network
            .graph()
            .nodes()
            .find(|n| !base.contains(n) && !s.instance().request.sources.contains(n))
            .unwrap();

        let r1 = s.arrive(snapshot(s.instance(), base.clone())).unwrap();
        assert!(r1.rebuilt);
        let mut grown = base.clone();
        grown.push(extra);
        let r2 = s.arrive(snapshot(s.instance(), grown)).unwrap();
        assert!(!r2.rebuilt && r2.joined == 1 && r2.left == 0);
        let r3 = s.arrive(snapshot(s.instance(), base)).unwrap();
        assert!(!r3.rebuilt && r3.left == 1);
        s.forest().unwrap().validate(s.instance()).unwrap();
        assert_eq!(s.stats().full_solves, 1);
        assert_eq!(s.stats().incremental_events, 2);
        assert!(r3.accumulated_cost > r2.forest_cost);
    }

    #[test]
    fn zero_load_refresh_keeps_engine_trees_warm() {
        let mut s = session(EmbedMode::Incremental);
        let src = s.instance().request.sources[0];
        let epoch = s.instance().network.graph().cost_epoch();
        {
            let net = &s.instance().network;
            let _ = net.paths().from_source(net.graph(), src);
        }
        let before = s.instance().network.paths().stats();
        // With no standing load every recomputed cost equals its base value;
        // the equality guards must turn the refresh into a complete no-op so
        // the epoch — and with it every cached engine tree — stays warm.
        s.refresh_costs();
        assert_eq!(s.instance().network.graph().cost_epoch(), epoch);
        let net = &s.instance().network;
        let _ = net.paths().from_source(net.graph(), src);
        let after = net.paths().stats();
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.misses, before.misses);
        assert_eq!(after.stale, before.stale);
    }

    /// The links a forest loads, as edge ids.
    fn links_of(net: &Network, forest: Option<&ServiceForest>) -> BTreeSet<EdgeId> {
        let segs = forest.map(ServiceForest::segment_edges).unwrap_or_default();
        segs.into_iter()
            .flatten()
            .map(|(a, b)| net.graph().edge_between(a, b).unwrap())
            .collect()
    }

    /// The work witness of footprint repricing: per event, the links
    /// repriced are exactly the old forest's ∪ the new one's. Drift
    /// rebuilds are off (an infinite threshold), so the one full solve is
    /// the first embed and every later event is a join or a leave.
    #[test]
    fn a_recharge_reprices_its_old_and_new_footprint() {
        let mut rng = Rng64::seed_from(36);
        let g = generators::gnp_connected(300, 0.012, CostRange::new(1.0, 5.0), &mut rng);
        assert_eq!(g.edge_count(), 837);
        let mut net = Network::all_switches(g);
        let picks = rng.sample_indices(300, 40);
        for &v in &picks[..12] {
            net.make_vm(NodeId::new(v), Cost::new(1.0));
        }
        let node = |i: usize| NodeId::new(picks[i]);
        let inst = SofInstance::new(
            net,
            Request::new(
                vec![node(12), node(13)],
                (14..20).map(node).collect(),
                ServiceChain::with_len(2),
            ),
        )
        .unwrap();
        let request = inst.request.clone();
        let no_drift = OnlineConfig {
            drift: f64::INFINITY,
            ..OnlineConfig::default()
        };
        let mut s = OnlineSession::new(inst, Box::new(Sofda), SofdaConfig::default(), no_drift);
        let mut events = vec![SessionEvent::Arrive(request)];
        for i in 20..32 {
            events.push(SessionEvent::Join(node(i)));
            if i % 3 == 0 {
                events.push(SessionEvent::Leave(node(i - 5)));
            }
        }
        let mut counts = Vec::new();
        for event in events {
            let old = links_of(&s.instance().network, s.forest());
            let before = s.stats().repriced_links;
            s.apply(event).unwrap();
            let repriced = s.stats().repriced_links - before;
            let union: BTreeSet<EdgeId> = old
                .union(&links_of(&s.instance().network, s.forest()))
                .copied()
                .collect();
            assert_eq!(repriced, union.len());
            counts.push(repriced);
        }
        assert_eq!(s.stats().full_solves, 1);
        // Each a small share of the graph's 837 links.
        assert_eq!(
            counts,
            [17, 19, 21, 21, 23, 24, 26, 26, 26, 27, 28, 28, 29, 32, 35, 35, 33]
        );
    }

    #[test]
    fn from_scratch_mode_always_rebuilds() {
        let mut s = session(EmbedMode::FromScratch);
        let base = s.instance().request.destinations.clone();
        for _ in 0..3 {
            let r = s.arrive(snapshot(s.instance(), base.clone())).unwrap();
            assert!(r.rebuilt);
        }
        assert_eq!(s.stats().full_solves, 3);
        assert_eq!(s.stats().incremental_events, 0);
    }

    #[test]
    fn drift_threshold_forces_rebuild() {
        let inst = grid_instance();
        let opts = OnlineConfig {
            drift: 0.0,
            ..OnlineConfig::default()
        };
        let mut s = OnlineSession::new(inst, Box::new(Sofda), SofdaConfig::default(), opts);
        let base = s.instance().request.destinations.clone();
        s.arrive(snapshot(s.instance(), base.clone())).unwrap();
        // Zero drift tolerance: any standing cost reaches 0 × the solved
        // one, so the next arrival rebuilds whatever it changes.
        let shrunk = vec![base[0]];
        let r = s.arrive(snapshot(s.instance(), shrunk)).unwrap();
        assert!(r.rebuilt);
        assert_eq!(s.stats().full_solves, 2);
    }

    #[test]
    fn source_change_forces_rebuild() {
        let mut s = session(EmbedMode::Incremental);
        let base = s.instance().request.destinations.clone();
        s.arrive(snapshot(s.instance(), base.clone())).unwrap();
        let mut req = snapshot(s.instance(), base);
        req.sources.truncate(1);
        let r = s.arrive(req).unwrap();
        assert!(r.rebuilt);
    }

    #[test]
    fn cost_drift_policy_rebuilds_on_divergence_not_churn() {
        let inst = grid_instance();
        // Threshold 1.0: any arrival whose standing cost is at or above the
        // last full solve's cost rebuilds. Congestion pricing guarantees
        // that immediately (the forest's own load surcharges its links), so
        // the second arrival must rebuild even though it only joins one
        // destination.
        let opts = OnlineConfig {
            drift: 1.0,
            ..OnlineConfig::default()
        };
        let mut s = OnlineSession::new(inst, Box::new(Sofda), SofdaConfig::default(), opts);
        let base = s.instance().request.destinations.clone();
        let extra = s
            .instance()
            .network
            .graph()
            .nodes()
            .find(|n| !base.contains(n) && !s.instance().request.sources.contains(n))
            .unwrap();
        let r1 = s.arrive(snapshot(s.instance(), base.clone())).unwrap();
        assert!(r1.rebuilt);
        let mut grown = base.clone();
        grown.push(extra);
        let r2 = s.arrive(snapshot(s.instance(), grown.clone())).unwrap();
        assert!(r2.rebuilt, "cost at threshold 1.0 must force a rebuild");

        // A generous threshold keeps the same arrival incremental: the
        // rule reacts to cost divergence, not to how many joined.
        let opts = OnlineConfig {
            drift: 1e6,
            ..OnlineConfig::default()
        };
        let mut s = OnlineSession::new(
            grid_instance(),
            Box::new(Sofda),
            SofdaConfig::default(),
            opts,
        );
        s.arrive(snapshot(s.instance(), base.clone())).unwrap();
        let r2 = s.arrive(snapshot(s.instance(), grown)).unwrap();
        assert!(!r2.rebuilt, "far-from-divergence arrivals stay incremental");
    }

    /// A solve that cannot avoid a failed link is no drift baseline: after
    /// the link's repair the first clean arrival sets one, and a forest
    /// that then stands on a failed link rebuilds under the default
    /// drift of 1.5. Taking the priced-out solve as the baseline
    /// (≈ `FAILED_COST`) would hold every later cost under 1.5 times it.
    #[test]
    fn a_solve_priced_on_a_failed_link_leaves_cost_drift_armed() {
        let mut s = session(EmbedMode::Incremental);
        assert_eq!(s.opts.drift, 1.5);
        let base = s.instance().request.destinations.clone();
        let d = base[0];
        let cut: Vec<Element> = s
            .instance()
            .network
            .graph()
            .neighbors(d)
            .map(|(n, _)| Element::Link(d, n))
            .collect();
        s.apply(SessionEvent::Fail(cut.clone())).unwrap();
        let first = s.arrive(snapshot(s.instance(), base.clone())).unwrap();
        assert!(first.rebuilt && first.forest_cost >= FAILED_COST);
        assert_eq!(s.cost_at_solve, 0.0, "a priced-out solve sets no baseline");

        s.apply(SessionEvent::Repair(cut)).unwrap();
        let clean = s.arrive(snapshot(s.instance(), base.clone())).unwrap();
        assert!(!clean.rebuilt && clean.forest_cost < FAILED_COST);
        assert_eq!(s.cost_at_solve, clean.forest_cost);

        let (u, v) = {
            let w = &s.forest().unwrap().walks[0];
            (w.nodes[0], w.nodes[1])
        };
        s.apply(SessionEvent::Fail(vec![Element::Link(u, v)]))
            .unwrap();
        let stranded = s.arrive(snapshot(s.instance(), base.clone())).unwrap();
        assert!(!stranded.rebuilt && stranded.forest_cost >= FAILED_COST);
        let next = s.arrive(snapshot(s.instance(), base)).unwrap();
        assert!(next.rebuilt, "the cost rule fires on the stranded forest");
        assert_eq!(s.stats().full_solves, 2);
    }

    #[test]
    fn failed_vm_disrupts_service_and_is_avoided_afterwards() {
        let mut s = session(EmbedMode::Incremental);
        let base = s.instance().request.destinations.clone();
        s.arrive(snapshot(s.instance(), base.clone())).unwrap();
        let used: Vec<NodeId> = s
            .forest()
            .unwrap()
            .enabled_vms()
            .unwrap()
            .keys()
            .copied()
            .collect();
        assert!(!used.is_empty());
        let disrupted = s.fail(Element::Vm(used[0])).unwrap();
        assert!(!disrupted.is_empty(), "forest was using the VM");
        s.clear_forest();
        assert_eq!(s.stats().vm_failures, 1);
        // The next arrival rebuilds and routes around the failed VM.
        let r = s.arrive(snapshot(s.instance(), base)).unwrap();
        assert!(r.rebuilt);
        let rebuilt_vms = s.forest().unwrap().enabled_vms().unwrap();
        assert!(
            !rebuilt_vms.contains_key(&used[0]),
            "failed VM re-selected despite its prohibitive cost"
        );
        // Failing a non-VM errors cleanly.
        let not_vm = s.instance().request.sources[0];
        assert!(s.fail(Element::Vm(not_vm)).is_err());
    }

    #[test]
    fn fail_link_reattach_and_repair_cycle() {
        let mut s = session(EmbedMode::Incremental);
        let base = s.instance().request.destinations.clone();
        s.arrive(snapshot(s.instance(), base.clone())).unwrap();
        // Fail the last hop of the first walk: its destination must be
        // reported disrupted, with the forest left standing.
        let (d, u, v) = {
            let w = &s.forest().unwrap().walks[0];
            let n = w.nodes.len();
            (w.destination, w.nodes[n - 2], w.nodes[n - 1])
        };
        let affected = s.fail(Element::Link(u, v)).unwrap();
        assert!(affected.contains(&d));
        assert!(s.forest().is_some(), "policy decides; forest stands");
        let key = (u.min(v), u.max(v));
        assert!(s.faults().contains(Element::Link(v, u)));
        match s.plan_reattach(d, false) {
            Ok((walk, cost)) => {
                assert!(walk
                    .nodes
                    .windows(2)
                    .all(|p| (p[0].min(p[1]), p[0].max(p[1])) != key));
                assert!(cost >= 0.0);
                s.switch_walk(walk).unwrap();
                s.forest().unwrap().validate(s.instance()).unwrap();
            }
            Err(SolveError::Infeasible(_)) => {} // d genuinely cut off
            Err(e) => panic!("unexpected error: {e}"),
        }
        s.repair(Element::Link(u, v)).unwrap();
        assert!(s.faults().is_empty());
        // The repaired link is priced normally again, so future embeddings
        // reuse it.
        let e = s.instance().network.graph().edge_between(u, v).unwrap();
        assert!(s.instance().network.graph().edge_cost(e).value() < 1e8);
        assert!(
            s.repair(Element::Link(u, v)).is_err(),
            "double repair rejected"
        );
        assert!(s.fail(Element::Link(u, u)).is_err());
        let off_net = NodeId::new(s.instance().network.node_count());
        assert!(s.fail(Element::Link(off_net, u)).is_err());
    }

    #[test]
    fn node_failure_is_transit_only_and_repairable() {
        let mut s = session(EmbedMode::Incremental);
        let base = s.instance().request.destinations.clone();
        s.arrive(snapshot(s.instance(), base.clone())).unwrap();
        let src = s.instance().request.sources[0];
        let err = s.fail(Element::Node(src)).unwrap_err();
        assert!(err.to_string().contains("transit"), "{err}");
        let n = s
            .instance()
            .network
            .graph()
            .nodes()
            .find(|n| {
                !s.instance().request.sources.contains(n)
                    && !s.instance().request.destinations.contains(n)
            })
            .unwrap();
        let _ = s.fail(Element::Node(n)).unwrap();
        assert!(s.faults().vm_down(n));
        // Idempotent re-failure, then a clean repair.
        let _ = s.fail(Element::Node(n)).unwrap();
        s.repair(Element::Node(n)).unwrap();
        assert!(s.faults().is_empty());
        assert!(s.repair(Element::Node(n)).is_err());
    }

    #[test]
    fn soft_vm_failure_keeps_forest_and_repair_restores_pricing() {
        let mut s = session(EmbedMode::Incremental);
        let base = s.instance().request.destinations.clone();
        s.arrive(snapshot(s.instance(), base.clone())).unwrap();
        let vm = *s
            .forest()
            .unwrap()
            .enabled_vms()
            .unwrap()
            .keys()
            .next()
            .unwrap();
        let pristine = s.instance().network.node_cost(vm);
        let affected = s.fail(Element::Vm(vm)).unwrap();
        assert!(!affected.is_empty(), "an enabled VM disrupts its walks");
        assert!(s.forest().is_some(), "a failure leaves the forest up");
        assert!(s.faults().vm_down(vm));
        s.repair(Element::Vm(vm)).unwrap();
        assert_eq!(s.instance().network.node_cost(vm), pristine);
        assert!(s.repair(Element::Vm(vm)).is_err());
    }

    #[test]
    fn check_invariants_names_stale_loads_and_stale_prices() {
        let mut s = session(EmbedMode::Incremental);
        let base = s.instance().request.destinations.clone();
        s.apply(SessionEvent::Arrive(snapshot(s.instance(), base)))
            .unwrap();
        assert_eq!(s.check_invariants(), Ok(()));
        // A recharge that forgot to clear: the forest's load twice over.
        let mut stale = s.tracker.clone();
        std::mem::swap(&mut s.tracker, &mut stale);
        let forest = s.forest.clone().unwrap();
        s.tracker
            .apply_forest(&s.instance.network, &forest, s.opts.demand_mbps);
        assert!(s.check_invariants().unwrap_err().contains("loads"));
        std::mem::swap(&mut s.tracker, &mut stale);
        // A fault the prices never heard of.
        let vm = s.vm_floor[0].0;
        s.faults.insert(Element::Vm(vm));
        assert!(s.check_invariants().unwrap_err().contains("fault set"));
        s.apply_faults();
        assert_eq!(s.check_invariants(), Ok(()));
    }

    #[test]
    fn replace_forest_swaps_and_resets_drift_baselines() {
        let mut s = session(EmbedMode::Incremental);
        let base = s.instance().request.destinations.clone();
        s.arrive(snapshot(s.instance(), base.clone())).unwrap();
        let standby = s.forest().unwrap().clone();
        s.clear_forest();
        assert!(s.forest().is_none());
        let cost = s.replace_forest(standby).unwrap();
        assert!(cost > 0.0);
        s.forest().unwrap().validate(s.instance()).unwrap();
    }

    #[test]
    fn a_fail_or_repair_skips_refusals_and_is_refused_only_whole() {
        let mut s = session(EmbedMode::Incremental);
        let base = s.instance().request.destinations.clone();
        s.apply(SessionEvent::Arrive(snapshot(s.instance(), base.clone())))
            .unwrap();
        let vm = *s
            .forest()
            .unwrap()
            .enabled_vms()
            .unwrap()
            .keys()
            .next()
            .unwrap();
        let src = s.instance().request.sources[0];
        // A source as a node is refused; the VM beside it still fails.
        let both = vec![Element::Node(src), Element::Vm(vm)];
        let Ok(Applied::Failed(broken)) = s.apply(SessionEvent::Fail(both.clone())) else {
            panic!("a fail with one acceptable element goes through");
        };
        let alone: BTreeSet<NodeId> = s.fail(Element::Vm(vm)).unwrap().into_iter().collect();
        assert!(
            !broken.is_empty() && broken == alone,
            "the VM's walks broke"
        );
        assert_eq!(s.faults().iter().collect::<Vec<_>>(), vec![Element::Vm(vm)]);
        let refused = s.apply(SessionEvent::Fail(vec![Element::Node(src)]));
        assert!(refused.unwrap_err().to_string().contains("transit"));
        assert!(
            matches!(s.apply(SessionEvent::Repair(both)), Ok(Applied::Repaired)),
            "the source was never failed; the VM is repaired"
        );
        assert!(s.faults().is_empty());
        assert!(s
            .apply(SessionEvent::Repair(vec![Element::Vm(vm)]))
            .is_err());
        let nothing = s.apply(SessionEvent::Fail(Vec::new()));
        assert!(matches!(nothing, Ok(Applied::Failed(broken)) if broken.is_empty()));
    }

    #[test]
    fn a_join_arrives_the_current_request_plus_one() {
        let mut s = session(EmbedMode::Incremental);
        let base = s.instance().request.destinations.clone();
        s.apply(SessionEvent::Arrive(snapshot(s.instance(), base.clone())))
            .unwrap();
        let extra = s
            .instance()
            .network
            .graph()
            .nodes()
            .find(|n| !base.contains(n) && !s.instance().request.sources.contains(n))
            .unwrap();
        let joined = s
            .apply(SessionEvent::Join(extra))
            .unwrap()
            .report()
            .unwrap();
        assert!(!joined.rebuilt && joined.joined == 1);
        assert!(
            s.apply(SessionEvent::Join(extra)).is_err(),
            "already served"
        );
        let Ok(Applied::Left(cost)) = s.apply(SessionEvent::Leave(extra)) else {
            panic!("a served destination leaves");
        };
        assert!(cost <= joined.forest_cost);
        assert_eq!(s.stats().arrivals, 2, "a leave is not an arrival");
    }

    #[test]
    fn depart_removes_destination_and_keeps_feasibility() {
        let mut s = session(EmbedMode::Incremental);
        let base = s.instance().request.destinations.clone();
        s.arrive(snapshot(s.instance(), base.clone())).unwrap();
        let cost = s.depart(base[0]).unwrap();
        assert!(cost >= 0.0);
        s.forest().unwrap().validate(s.instance()).unwrap();
        assert!(!s.instance().request.destinations.contains(&base[0]));
        // Departing twice errors.
        assert!(s.depart(base[0]).is_err());
    }

    #[test]
    fn a_leave_with_nothing_standing_drops_the_destination() {
        let mut s = session(EmbedMode::Incremental);
        let base = s.instance().request.destinations.clone();
        // Before the first arrival, and after a dropped forest alike.
        assert_eq!(s.depart(base[0]).unwrap(), 0.0);
        s.arrive(snapshot(s.instance(), base.clone())).unwrap();
        assert!(s.forest_cost() > 0.0);
        s.clear_forest();
        assert_eq!(s.forest_cost(), 0.0);
        let Ok(Applied::Left(cost)) = s.apply(SessionEvent::Leave(base[1])) else {
            panic!("a served destination leaves a dropped forest");
        };
        assert_eq!(cost, 0.0);
        assert_eq!(s.stats().leaves, 2);
        assert_eq!(s.instance().request.destinations, base[..1]);
        let err = s.apply(SessionEvent::Leave(base[1])).unwrap_err();
        assert!(err.to_string().contains("not served"), "{err}");
        // The next arrival rebuilds for the rest.
        let extra = s
            .instance()
            .network
            .graph()
            .nodes()
            .find(|n| !base.contains(n) && !s.instance().request.sources.contains(n))
            .unwrap();
        let Ok(Applied::Arrival(r)) = s.apply(SessionEvent::Join(extra)) else {
            panic!("the join rebuilds");
        };
        assert!(r.rebuilt);
        let mut served: Vec<NodeId> = s
            .forest()
            .unwrap()
            .walks
            .iter()
            .map(|w| w.destination)
            .collect();
        served.sort();
        let mut want = vec![base[0], extra];
        want.sort();
        assert_eq!(served, want);
        assert_eq!(s.forest_cost(), r.forest_cost);
    }
}
