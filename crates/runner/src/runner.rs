//! The runner: lockstep stepping of a [`SessionPool`] over lazily
//! generated group timelines, with wards and sinks.

use crate::events::{GroupChurnConfig, GroupProcess};
use crate::sink::{
    EventRecord, FailureRecord, FailureTotals, Record, RecoveryRecord, RecoverySummary, Sink,
    SummaryRecord, WindowRecord,
};
use crate::ward::{StopReason, Ward, WardSet};
use sof_core::{Element, OnlineConfig, OnlineSession, SessionEvent, SessionPool, SofdaConfig};
use sof_graph::PathEngineStats;
use sof_survive::{universe_for_scopes, ElementRef, FailurePlan, FailureRounds, Protector};
use sof_topo::{
    build_region_instance, build_regions, RegionScenario, RegionTopology, RegionsParams,
};
use std::time::Instant;

/// Full configuration of one churn-at-scale run.
#[derive(Clone, Debug)]
pub struct RunnerConfig {
    /// Run name (echoed in the meta record).
    pub name: String,
    /// The multi-region network every group lives on.
    pub regions: RegionsParams,
    /// Concurrent groups: the pool holds exactly this many slots; retired
    /// groups are replaced in place so concurrency stays constant.
    pub groups: usize,
    /// VMs attached to every DC node of each group's instance.
    pub vms_per_dc: usize,
    /// Multiplier on VM setup costs.
    pub setup_scale: f64,
    /// Per-group churn process shape.
    pub churn: GroupChurnConfig,
    /// Solver registry name (see `sof_solvers::by_name`).
    pub solver: String,
    /// SOFDA tuning (per-group seeds are mixed in on top).
    pub sofda: SofdaConfig,
    /// Online-session tuning shared by every group.
    pub online: OnlineConfig,
    /// Run seed: topology, per-group processes and instances all derive
    /// from it.
    pub seed: u64,
    /// Events per window record (≥ 1; windows close at the first round
    /// boundary at or past this many events).
    pub window: u64,
    /// Also emit one [`Record::Event`] per event (the full-scale stream;
    /// off by default).
    pub emit_events: bool,
    /// Include wall-clock `millis` fields in records. Leave off for
    /// deterministic output.
    pub timings: bool,
    /// Worker threads (`0` = auto via `SOF_THREADS`).
    pub threads: usize,
    /// Stop conditions; the first to trip ends the run. At least one.
    pub wards: Vec<Ward>,
    /// Optional failure plan: when set, [`sof_survive::FailureRounds`]
    /// interleaves deterministic element failures (and repairs) between
    /// rounds, and the plan's protection policy answers each disruption.
    pub failures: Option<FailurePlan>,
}

impl RunnerConfig {
    /// A config with library defaults: 3-region network, SOFDA, windows
    /// of 1000 events, a 100k-event budget.
    pub fn new(name: impl Into<String>) -> RunnerConfig {
        RunnerConfig {
            name: name.into(),
            regions: RegionsParams::new(vec![
                sof_topo::RegionDef::new("us-east", 8, 2),
                sof_topo::RegionDef::new("eu-west", 8, 2),
                sof_topo::RegionDef::new("ap-south", 8, 2),
            ]),
            groups: 100,
            vms_per_dc: 1,
            setup_scale: 1.0,
            churn: GroupChurnConfig::default(),
            solver: "SOFDA".into(),
            sofda: SofdaConfig::default(),
            online: OnlineConfig::default(),
            seed: 42,
            window: 1000,
            emit_events: false,
            timings: false,
            threads: 0,
            wards: vec![Ward::MaxEvents(100_000)],
            failures: None,
        }
    }

    /// Checks the configuration without building anything.
    ///
    /// # Errors
    ///
    /// A message naming the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.regions.validate()?;
        self.churn.validate()?;
        if self.groups == 0 {
            return Err("groups must be at least 1".into());
        }
        if self.vms_per_dc == 0 {
            return Err("vms_per_dc must be at least 1".into());
        }
        if self.window == 0 {
            return Err("window must be at least 1".into());
        }
        if self.wards.is_empty() {
            return Err("wards must name at least one stop condition".into());
        }
        if sof_solvers::by_name(&self.solver).is_none() {
            return Err(format!(
                "unknown solver '{}' (see sof_solvers::all)",
                self.solver
            ));
        }
        // Records end up in documents whose integers are `i64` (the spec
        // layer's rule for the same fields): refuse what could not be
        // written back, before anything runs.
        let budgets = self.wards.iter().filter_map(|w| match w {
            Ward::MaxEvents(n) => Some(("MaxEvents ward", *n)),
            _ => None,
        });
        for (what, n) in [("seed", self.seed), ("window", self.window)]
            .into_iter()
            .chain(budgets)
        {
            if n > i64::MAX as u64 {
                return Err(format!("{what} must be at most {}", i64::MAX));
            }
        }
        for ward in &self.wards {
            if let Ward::ConvergedCost { epsilon, patience } = ward {
                // Mirrors the spec layer's 'workload.converge' rules: the
                // library path through `Runner::new` must reject the same
                // configurations `ScenarioSpec::validate` does.
                if !(epsilon.is_finite() && *epsilon > 0.0) {
                    return Err(format!(
                        "ConvergedCost ward needs a positive epsilon, got {epsilon}"
                    ));
                }
                if *patience == 0 {
                    return Err("ConvergedCost ward needs patience of at least 1 \
                         (patience 0 would stop before two windows were ever compared)"
                        .into());
                }
            }
        }
        let smallest = self
            .regions
            .regions
            .iter()
            .map(|r| r.nodes)
            .min()
            .unwrap_or(0);
        if smallest < 2 {
            return Err("every region needs at least 2 nodes for a group to live on".into());
        }
        if let Some(plan) = &self.failures {
            // The survivability layer owns the rules (finite rates in
            // [0, 1], ordered repair ranges, known scopes, …); the library
            // path through `Runner::new` rejects exactly what it does.
            plan.validate()?;
        }
        Ok(())
    }
}

/// End-of-run totals returned by [`Runner::run`] (the same numbers the
/// final [`Record::Summary`] carries).
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Total events processed.
    pub events: u64,
    /// Windows emitted.
    pub windows: u64,
    /// Distinct groups created over the run.
    pub groups_seen: u64,
    /// Groups retired over the run.
    pub retired: u64,
    /// Failed embeds over the run.
    pub errors: u64,
    /// Total accumulated embedding cost (retired groups included).
    pub accumulated_cost: f64,
    /// Why the run stopped.
    pub stop: StopReason,
    /// Recovery/availability totals (runs with a failure plan only).
    pub recovery: Option<RecoverySummary>,
}

/// Open-window accumulators — the only per-event state the runner keeps,
/// reset at every window boundary (O(1) in the event count).
#[derive(Clone, Copy, Debug, Default)]
struct WindowAccum {
    events: u64,
    full_solves: u64,
    incremental: u64,
    joins: u64,
    leaves: u64,
    errors: u64,
    cost_sum: f64,
    millis: f64,
}

/// A streaming churn-at-scale simulation over one [`SessionPool`].
///
/// See the [crate docs](crate) for the stepping model and an example.
pub struct Runner {
    cfg: RunnerConfig,
    rt: RegionTopology,
    pool: SessionPool,
    procs: Vec<GroupProcess>,
    sinks: Vec<Box<dyn Sink>>,
    next_id: u64,
    seq: u64,
    retired: u64,
    errors: u64,
    windows: u64,
    /// Stats carried over from retired sessions.
    retired_cost: f64,
    retired_engine: PathEngineStats,
    failure: Option<FailureRounds>,
}

impl Runner {
    /// Builds the region topology and the initial pool of `cfg.groups`
    /// sessions (group ids `0..groups`).
    ///
    /// # Errors
    ///
    /// Everything [`RunnerConfig::validate`] rejects.
    pub fn new(cfg: RunnerConfig) -> Result<Runner, String> {
        cfg.validate()?;
        let rt = build_regions(&cfg.regions, cfg.seed)?;
        let mut procs = Vec::with_capacity(cfg.groups);
        let mut sessions = Vec::with_capacity(cfg.groups);
        for id in 0..cfg.groups as u64 {
            let proc = GroupProcess::new(id, &rt, &cfg.churn, cfg.seed);
            sessions.push(make_session(&rt, &cfg, &proc));
            procs.push(proc);
        }
        let pool = SessionPool::new(sessions).with_threads(cfg.threads);
        let failure = cfg.failures.as_ref().map(|p| failure_rounds(p, &rt, &cfg));
        Ok(Runner {
            next_id: cfg.groups as u64,
            cfg,
            rt,
            pool,
            procs,
            sinks: Vec::new(),
            seq: 0,
            retired: 0,
            errors: 0,
            windows: 0,
            retired_cost: 0.0,
            retired_engine: PathEngineStats::default(),
            failure,
        })
    }

    /// Attaches a sink; every record is pushed to all sinks in attach
    /// order.
    pub fn add_sink(&mut self, sink: Box<dyn Sink>) {
        self.sinks.push(sink);
    }

    /// Runs until a ward trips, returning the end-of-run totals.
    ///
    /// # Errors
    ///
    /// Propagates the first sink I/O error or session solve panic-free
    /// failure that is not recoverable by retiring the group.
    pub fn run(mut self) -> Result<Summary, String> {
        let started = Instant::now();
        let mut wards = WardSet::new(self.cfg.wards.clone());
        self.emit(Record::Meta {
            name: self.cfg.name.clone(),
            groups: self.cfg.groups,
            regions: (0..self.rt.region_count())
                .map(|r| self.rt.region_name(r).to_string())
                .collect(),
            seed: self.cfg.seed,
            solver: self.cfg.solver.clone(),
            window: self.cfg.window,
            events_target: wards.events_left(0),
            policy: self
                .cfg
                .failures
                .as_ref()
                .map(|p| p.policy.as_str().to_string()),
        })?;
        let mut win = WindowAccum::default();
        let stop = loop {
            // Trim the final round so MaxEvents lands exactly on budget.
            let budget = wards
                .events_left(self.seq)
                .map(|left| (left.min(self.cfg.groups as u64)) as usize)
                .unwrap_or(self.cfg.groups);
            if budget == 0 {
                break StopReason::MaxEvents;
            }
            let round = self.step_round(budget, &mut win)?;
            debug_assert_eq!(round, budget as u64);
            self.apply_failures()?;
            if let Some(reason) = wards.after_round(self.seq, started.elapsed()) {
                // Flush the open window before stopping so no events are
                // silently dropped from the stream.
                if win.events > 0 {
                    let mean = self.close_window(&mut win)?;
                    wards.after_window(mean);
                }
                break reason;
            }
            if win.events >= self.cfg.window {
                let mean = self.close_window(&mut win)?;
                if let Some(reason) = wards.after_window(mean) {
                    break reason;
                }
            }
        };
        if win.events > 0 {
            self.close_window(&mut win)?;
        }
        let summary = Summary {
            events: self.seq,
            windows: self.windows,
            groups_seen: self.next_id,
            retired: self.retired,
            errors: self.errors,
            accumulated_cost: self.accumulated_cost(),
            stop,
            recovery: self.failure.as_ref().map(recovery_summary),
        };
        self.emit(Record::Summary(SummaryRecord {
            events: summary.events,
            windows: summary.windows,
            groups_seen: summary.groups_seen,
            retired: summary.retired,
            errors: summary.errors,
            accumulated_cost: summary.accumulated_cost,
            stop,
            recovery: summary.recovery,
            millis: self
                .cfg
                .timings
                .then(|| started.elapsed().as_secs_f64() * 1e3),
        }))?;
        for sink in &mut self.sinks {
            sink.flush().map_err(|e| format!("sink flush: {e}"))?;
        }
        Ok(summary)
    }

    /// Steps the first `budget` slots once: retires expired groups in
    /// place, pulls one event per live slot, arrives them through the
    /// pool, and folds the reports into the open window.
    fn step_round(&mut self, budget: usize, win: &mut WindowAccum) -> Result<u64, String> {
        let mut events: Vec<Option<SessionEvent>> = vec![None; self.procs.len()];
        let mut initial: Vec<bool> = vec![false; self.procs.len()];
        for slot in 0..budget.min(self.procs.len()) {
            let event = match self.procs[slot].next_event() {
                Some(ev) => ev,
                None => {
                    // Group lifetime spent: retire it, fold its cost and
                    // cache counters into the run baselines, and start a
                    // fresh group in the same slot — its initial embed is
                    // this round's event.
                    let fresh =
                        GroupProcess::new(self.next_id, &self.rt, &self.cfg.churn, self.cfg.seed);
                    self.next_id += 1;
                    let session = make_session(&self.rt, &self.cfg, &fresh);
                    let old = self.pool.replace(slot, session);
                    self.retired += 1;
                    self.retired_cost += old.accumulated_cost();
                    self.retired_engine += old.instance().network.paths().stats();
                    self.procs[slot] = fresh;
                    self.procs[slot]
                        .next_event()
                        .expect("fresh group emits its initial event")
                }
            };
            initial[slot] = event.is_initial();
            events[slot] = Some(SessionEvent::Arrive(event.request().clone()));
        }
        let answers = self.pool.apply(&events);
        let mut stepped = 0u64;
        for (slot, answer) in answers.into_iter().enumerate() {
            let Some(answer) = answer else { continue };
            let seq = self.seq;
            self.seq += 1;
            stepped += 1;
            win.events += 1;
            match answer.map(|a| a.report().expect("an arrival reports")) {
                Ok(rep) => {
                    if rep.rebuilt {
                        win.full_solves += 1;
                        // A full solve restores service for a slot darkened
                        // by a deferred (reactive) recovery.
                        if let Some(rounds) = self.failure.as_mut() {
                            rounds.rebuilt(slot, rep.forest_cost);
                        }
                    } else {
                        win.incremental += 1;
                    }
                    win.joins += rep.joined as u64;
                    win.leaves += rep.left as u64;
                    win.cost_sum += rep.forest_cost;
                    win.millis += rep.millis;
                    if self.cfg.emit_events {
                        let record = Record::Event(EventRecord {
                            seq,
                            slot,
                            group: self.procs[slot].id(),
                            initial: initial[slot],
                            viewers: self.procs[slot].current().destinations.len(),
                            joined: rep.joined,
                            left: rep.left,
                            rebuilt: rep.rebuilt,
                            cost: rep.forest_cost,
                            millis: self.cfg.timings.then_some(rep.millis),
                        });
                        self.emit(record)?;
                    }
                }
                Err(_) => {
                    // Infeasible embed: count it and recycle the slot at
                    // the next round (deterministic — the error is a
                    // property of the group's instance, not of timing).
                    win.errors += 1;
                    self.errors += 1;
                    self.procs[slot].retire();
                }
            }
        }
        Ok(stepped)
    }

    /// Steps the pool through the failure process's next round and emits
    /// what it did: one `failure` record per repair and per failure, then
    /// one `recovery` record when the round disrupted anything.
    fn apply_failures(&mut self) -> Result<(), String> {
        let Some(rounds) = self.failure.as_mut() else {
            return Ok(());
        };
        let rt = &self.rt;
        let report = rounds.step(&mut self.pool, |e| physical_elements(e, rt));
        let round = report.round as u64;
        for element in report.repairs {
            self.emit(Record::Failure(FailureRecord {
                seq: self.seq,
                round,
                action: "repair",
                element: element.to_string(),
                disrupted: 0,
                repair_at: None,
            }))?;
        }
        for (element, repair_at, disrupted) in report.failures {
            self.emit(Record::Failure(FailureRecord {
                seq: self.seq,
                round,
                action: "fail",
                element: element.to_string(),
                disrupted: disrupted as u64,
                repair_at: repair_at.map(|r| r as u64),
            }))?;
        }
        if report.disrupted > 0 {
            let plan = self.cfg.failures.as_ref().expect("rounds run a plan");
            self.emit(Record::Recovery(RecoveryRecord {
                seq: self.seq,
                round,
                policy: plan.policy.as_str(),
                disrupted: report.disrupted as u64,
                recovered: report.recovered as u64,
                cost: report.cost,
                pending: report.deferred as u64,
            }))?;
        }
        Ok(())
    }

    /// Emits the open window as a record and resets the accumulators,
    /// returning the window's mean cost (for the convergence ward).
    fn close_window(&mut self, win: &mut WindowAccum) -> Result<f64, String> {
        let mean = if win.events > 0 {
            win.cost_sum / win.events as f64
        } else {
            0.0
        };
        let record = Record::Window(WindowRecord {
            index: self.windows,
            events: win.events,
            total_events: self.seq,
            active: self.pool.len(),
            retired: self.retired,
            errors: self.errors,
            full_solves: win.full_solves,
            incremental: win.incremental,
            joins: win.joins,
            leaves: win.leaves,
            mean_cost: mean,
            accumulated_cost: self.accumulated_cost(),
            engine: self.engine_totals(),
            failures: self.failure.as_ref().map(failure_totals),
            millis: self.cfg.timings.then_some(win.millis),
        });
        self.windows += 1;
        *win = WindowAccum::default();
        self.emit(record)?;
        for sink in &mut self.sinks {
            sink.flush().map_err(|e| format!("sink flush: {e}"))?;
        }
        Ok(mean)
    }

    fn accumulated_cost(&self) -> f64 {
        self.retired_cost + self.pool.total_accumulated_cost()
    }

    /// Path-cache counters summed over every session ever stepped. Each
    /// session owns its private engine, so the totals are deterministic
    /// for any thread count.
    fn engine_totals(&self) -> PathEngineStats {
        let mut totals = self.retired_engine;
        for session in self.pool.sessions() {
            totals += session.instance().network.paths().stats();
        }
        totals
    }

    fn emit(&mut self, record: Record) -> Result<(), String> {
        for sink in &mut self.sinks {
            sink.record(&record).map_err(|e| format!("sink: {e}"))?;
        }
        Ok(())
    }
}

fn make_session(rt: &RegionTopology, cfg: &RunnerConfig, proc: &GroupProcess) -> OnlineSession {
    let initial = proc.current();
    let instance = build_region_instance(
        rt,
        &RegionScenario {
            vms_per_dc: cfg.vms_per_dc,
            setup_scale: cfg.setup_scale,
            seed: proc.instance_seed(),
        },
        initial.sources.clone(),
        initial.destinations.clone(),
        cfg.churn.chain_len,
    );
    let solver = sof_solvers::by_name(&cfg.solver).expect("solver validated in RunnerConfig");
    let mut sofda = cfg.sofda;
    sofda.seed ^= proc.instance_seed();
    let mut online = cfg.online;
    online.demand_mbps = cfg.churn.demand_mbps;
    OnlineSession::new(instance, solver, sofda, online)
}

/// The run's failure rounds. The symbolic element universe lives on the
/// shared base topology, so one failure trace applies identically to every
/// group instance (all instances clone the base graph; VM ids are appended
/// after the access nodes in the same order for every group).
fn failure_rounds(plan: &FailurePlan, rt: &RegionTopology, cfg: &RunnerConfig) -> FailureRounds {
    let first_vm = rt.topo.graph.node_count();
    let vms = first_vm..first_vm + rt.topo.dc_nodes.len() * cfg.vms_per_dc;
    let domains: Vec<String> = (0..rt.region_count())
        .map(|r| rt.region_name(r).to_string())
        .collect();
    let universe = universe_for_scopes(&plan.scope, &rt.topo.graph, vms, &domains);
    let protectors = (0..cfg.groups)
        .map(|_| Protector::new(plan.policy, sof_solvers::by_name(&cfg.solver)))
        .collect();
    FailureRounds::new(plan, universe, protectors)
}

fn failure_totals(rounds: &FailureRounds) -> FailureTotals {
    let m = rounds.metrics();
    FailureTotals {
        fail_events: m.fail_events as u64,
        repair_events: m.repair_events as u64,
        disruptions: m.disruptions as u64,
        pending: rounds.pending() as u64,
    }
}

fn recovery_summary(rounds: &FailureRounds) -> RecoverySummary {
    let m = rounds.metrics();
    RecoverySummary {
        fail_events: m.fail_events as u64,
        repair_events: m.repair_events as u64,
        disruptions: m.disruptions as u64,
        immediate: m.immediate as u64,
        recoveries: m.recoveries as u64,
        mean_recovery_cost: m.mean_recovery_cost(),
        mean_events_to_restore: m.mean_events_to_restore(),
        availability: m.availability(),
    }
}

/// What `element` names on the run's base topology (shared by every group's
/// instance); an unknown domain names nothing.
fn physical_elements(element: &ElementRef, rt: &RegionTopology) -> Vec<Element> {
    let nodes_of = |r| rt.region_nodes(r).to_vec();
    element
        .resolve(|name| rt.region_named(name).map(nodes_of).ok_or(()))
        .unwrap_or_default()
}
