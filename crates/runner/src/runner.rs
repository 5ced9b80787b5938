//! The runner: lockstep stepping of a [`SessionPool`] over lazily
//! generated group timelines, with one stop rule and one sink.

use crate::events::{GroupChurnConfig, GroupProcess};
use crate::sink::{
    EventRecord, FailureRecord, FailureTotals, Record, RecoveryRecord, Sink, SummaryRecord,
    WindowRecord,
};
use crate::ward::{Converge, Stop, StopReason};
use sof_core::{Element, OnlineConfig, OnlineSession, SessionEvent, SessionPool, SofdaConfig};
use sof_graph::PathEngineStats;
use sof_survive::{
    universe_for_scopes, ElementRef, FailurePlan, FailureRounds, FailureSpec, ProtectionPolicy,
    Protector,
};
use sof_topo::{
    build_region_instance, build_regions, RegionDef, RegionScenario, RegionTopology, RegionsParams,
};
use std::time::Instant;

/// Full configuration of one churn-at-scale run.
///
/// The fields from `seed` to `emit_events` are the keys of a spec file's
/// `kind = "churn-at-scale"` `[workload]` table, under the same names and
/// defaults (`emit_events` is spelt `emit = "windows" | "events"` there);
/// `sof_spec` reads the table straight into this struct. The fields after
/// them are set from elsewhere: the spec's name, `[params]`, `[sofda]` and
/// `[online]` tables and the run's options.
#[derive(Clone, Debug, PartialEq)]
pub struct RunnerConfig {
    /// Run seed: topology, per-group processes and instances all derive
    /// from it.
    pub seed: u64,
    /// Solver registry name (see `sof_solvers::by_name`).
    pub solver: String,
    /// Concurrent groups: the pool holds exactly this many slots; retired
    /// groups are replaced in place so concurrency stays constant.
    pub groups: usize,
    /// Event budget: the run stops once this many events have been
    /// processed (the final round is trimmed to land exactly on it).
    pub events: u64,
    /// Events per window record (windows close at the first round
    /// boundary at or past this many events).
    pub window: u64,
    /// VMs attached to every DC node of each group's instance.
    pub vms_per_dc: usize,
    /// Gateway links joining every region pair.
    pub gateway_links: usize,
    /// The named regions of the multi-region network every group lives on.
    pub regions: Vec<RegionDef>,
    /// Explicit symmetric region-pair cost factors (`pair_cost[i][j]`, one
    /// row per region); `None` uses the line-distance default `1 + |i − j|`
    /// ([`RegionsParams::pair_cost`]).
    pub pair_cost: Option<Vec<Vec<f64>>>,
    /// Per-group churn process shape.
    pub churn: GroupChurnConfig,
    /// Optional failure axis: deterministic element failures (and
    /// repairs) interleaved between rounds by [`FailureRounds`]. The run
    /// compiles the first listed policy; `sof_spec` runs one leg per
    /// listed policy over the identical trace.
    pub failures: Option<FailureSpec>,
    /// Optional early stop once the windowed mean forest cost settles.
    pub converge: Option<Converge>,
    /// Optional wall-clock safety net in seconds (host-dependent — keep it
    /// out of golden runs).
    pub max_seconds: Option<f64>,
    /// Also emit one [`Record::Event`] per event (the full-scale stream;
    /// off by default).
    pub emit_events: bool,
    /// Run name (echoed in the meta record).
    pub name: String,
    /// Multiplier on VM setup costs.
    pub setup_scale: f64,
    /// SOFDA tuning (per-group seeds are mixed in on top).
    pub sofda: SofdaConfig,
    /// Online-session tuning shared by every group (`demand_mbps` comes
    /// from `churn`).
    pub online: OnlineConfig,
    /// Include wall-clock `millis` fields in records. Leave off for
    /// deterministic output.
    pub timings: bool,
    /// Worker threads (`0` = auto via `SOF_THREADS`).
    pub threads: usize,
}

/// What a bare `kind = "churn-at-scale"` table runs: a 3-region network,
/// 100 SOFDA groups, windows of 1000 events, a 100k-event budget.
impl Default for RunnerConfig {
    fn default() -> RunnerConfig {
        RunnerConfig {
            seed: 1000,
            solver: "SOFDA".into(),
            groups: 100,
            events: 100_000,
            window: 1000,
            vms_per_dc: 1,
            gateway_links: 2,
            regions: vec![
                RegionDef::new("us-east", 8, 2),
                RegionDef::new("eu-west", 8, 2),
                RegionDef::new("ap-south", 8, 2),
            ],
            pair_cost: None,
            churn: GroupChurnConfig::default(),
            failures: None,
            converge: None,
            max_seconds: None,
            emit_events: false,
            name: String::new(),
            setup_scale: 1.0,
            sofda: SofdaConfig::default(),
            online: OnlineConfig::default(),
            timings: false,
            threads: 0,
        }
    }
}

impl RunnerConfig {
    /// Checks the configuration without building anything. Messages name
    /// the offending key as it sits under `at`, the path of the table the
    /// keys are read from (`"workload"` in a spec file; `""` names the
    /// bare field).
    ///
    /// # Errors
    ///
    /// A message naming the key and the violated constraint.
    pub fn validate(&self, at: &str) -> Result<(), String> {
        let key = |name: &str| match at {
            "" => name.to_string(),
            _ => format!("{at}.{name}"),
        };
        // Records and specs are documents whose integers are `i64`: refuse
        // what could not be written back, before anything runs.
        let ints = [
            ("seed", self.seed),
            ("events", self.events),
            ("window", self.window),
        ];
        let failures_seed = self.failures.as_ref().map(|f| ("failures.seed", f.seed));
        for (name, n) in ints.into_iter().chain(failures_seed) {
            if n > i64::MAX as u64 {
                return Err(format!("'{}' must be at most {}", key(name), i64::MAX));
            }
        }
        if let Some(f) = &self.failures {
            f.validate(&key("failures"))?;
        }
        if sof_solvers::by_name(&self.solver).is_none() {
            let known: Vec<&str> = sof_solvers::all().iter().map(|s| s.name()).collect();
            return Err(format!(
                "'{}': unknown solver '{}' (registered: {})",
                key("solver"),
                self.solver,
                known.join(", ")
            ));
        }
        let sizes = [
            ("groups", self.groups as u64),
            ("events", self.events),
            ("window", self.window),
            ("vms_per_dc", self.vms_per_dc as u64),
            ("gateway_links", self.gateway_links as u64),
        ];
        if let Some((name, _)) = sizes.into_iter().find(|&(_, n)| n == 0) {
            return Err(format!("'{}' must be at least 1", key(name)));
        }
        self.regions_params()
            .validate()
            .map_err(|e| format!("'{}': {e}", key("regions")))?;
        self.churn.validate(&key("churn"))?;
        // `positive` is NaN-rejecting.
        let positive = |x: f64| x.is_finite() && x > 0.0;
        if let Some(c) = &self.converge {
            if !positive(c.epsilon) {
                return Err(format!("'{}' must be positive", key("converge.epsilon")));
            }
            if c.patience == 0 {
                return Err(format!("'{}' must be at least 1", key("converge.patience")));
            }
        }
        if self.max_seconds.is_some_and(|secs| !positive(secs)) {
            return Err(format!("'{}' must be positive", key("max_seconds")));
        }
        Ok(())
    }

    /// The multi-region network's parameters.
    fn regions_params(&self) -> RegionsParams {
        RegionsParams {
            regions: self.regions.clone(),
            gateway_links: self.gateway_links,
            pair_cost: self.pair_cost.clone(),
        }
    }
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
    sink: Box<dyn Sink>,
    next_id: u64,
    seq: u64,
    retired: u64,
    errors: u64,
    windows: u64,
    /// Stats carried over from retired sessions.
    retired_cost: f64,
    retired_engine: PathEngineStats,
    /// The failure rounds and the protection policy answering them.
    failure: Option<(FailureRounds, ProtectionPolicy)>,
}

impl Runner {
    /// Builds the region topology and the initial pool of `cfg.groups`
    /// sessions (group ids `0..groups`); the run pushes every record to
    /// `sink`.
    ///
    /// # Errors
    ///
    /// Everything [`RunnerConfig::validate`] rejects.
    pub fn new(cfg: RunnerConfig, sink: Box<dyn Sink>) -> Result<Runner, String> {
        cfg.validate("")?;
        let rt = build_regions(&cfg.regions_params(), cfg.seed)?;
        let mut procs = Vec::with_capacity(cfg.groups);
        let mut sessions = Vec::with_capacity(cfg.groups);
        for id in 0..cfg.groups as u64 {
            let proc = GroupProcess::new(id, &rt, &cfg.churn, cfg.seed);
            sessions.push(make_session(&rt, &cfg, &proc));
            procs.push(proc);
        }
        let pool = SessionPool::new(sessions).with_threads(cfg.threads);
        let failure = match &cfg.failures {
            Some(f) => {
                let plan = f.to_plan(&f.policies[0])?;
                Some((failure_rounds(&plan, &rt, &cfg), plan.policy))
            }
            None => None,
        };
        Ok(Runner {
            next_id: cfg.groups as u64,
            cfg,
            rt,
            pool,
            procs,
            sink,
            seq: 0,
            retired: 0,
            errors: 0,
            windows: 0,
            retired_cost: 0.0,
            retired_engine: PathEngineStats::default(),
            failure,
        })
    }

    /// Runs until the stop rule trips, returning the end-of-run totals:
    /// the [`SummaryRecord`] the final record carries.
    ///
    /// # Errors
    ///
    /// Propagates the first sink I/O error or session solve panic-free
    /// failure that is not recoverable by retiring the group.
    pub fn run(mut self) -> Result<SummaryRecord, String> {
        let started = Instant::now();
        let mut stop = Stop::new(self.cfg.events, self.cfg.converge, self.cfg.max_seconds);
        self.emit(Record::Meta {
            name: self.cfg.name.clone(),
            groups: self.cfg.groups,
            regions: (0..self.rt.region_count())
                .map(|r| self.rt.region_name(r).to_string())
                .collect(),
            seed: self.cfg.seed,
            solver: self.cfg.solver.clone(),
            window: self.cfg.window,
            events_target: self.cfg.events,
            policy: self
                .failure
                .as_ref()
                .map(|(_, policy)| policy.as_str().to_string()),
        })?;
        let mut win = WindowAccum::default();
        let stop = loop {
            // Trim the final round so the budget lands exactly.
            let budget = stop.events_left(self.seq).min(self.cfg.groups as u64) as usize;
            if budget == 0 {
                break StopReason::MaxEvents;
            }
            let round = self.step_round(budget, &mut win)?;
            debug_assert_eq!(round, budget as u64);
            self.apply_failures()?;
            if let Some(reason) = stop.after_round(self.seq, started.elapsed()) {
                // Flush the open window before stopping so no events are
                // silently dropped from the stream.
                if win.events > 0 {
                    self.close_window(&mut win)?;
                }
                break reason;
            }
            if win.events >= self.cfg.window {
                let mean = self.close_window(&mut win)?;
                if let Some(reason) = stop.after_window(mean) {
                    break reason;
                }
            }
        };
        let summary = SummaryRecord {
            events: self.seq,
            windows: self.windows,
            groups_seen: self.next_id,
            retired: self.retired,
            errors: self.errors,
            accumulated_cost: self.accumulated_cost(),
            stop,
            recovery: self.failure.as_ref().map(|(rounds, _)| *rounds.metrics()),
            millis: self
                .cfg
                .timings
                .then(|| started.elapsed().as_secs_f64() * 1e3),
        };
        self.emit(Record::Summary(summary.clone()))?;
        self.flush()?;
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
                        if let Some((rounds, _)) = self.failure.as_mut() {
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
        let Some((rounds, policy)) = self.failure.as_mut() else {
            return Ok(());
        };
        let policy = policy.as_str();
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
            self.emit(Record::Recovery(RecoveryRecord {
                seq: self.seq,
                round,
                policy,
                disrupted: report.disrupted as u64,
                recovered: report.recovered as u64,
                cost: report.cost,
                pending: report.deferred as u64,
            }))?;
        }
        Ok(())
    }

    /// Emits the open window as a record and resets the accumulators,
    /// returning the window's mean cost (for the convergence streak).
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
            failures: self
                .failure
                .as_ref()
                .map(|(rounds, _)| failure_totals(rounds)),
            millis: self.cfg.timings.then_some(win.millis),
        });
        self.windows += 1;
        *win = WindowAccum::default();
        self.emit(record)?;
        self.flush()?;
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
        self.sink.record(&record).map_err(|e| format!("sink: {e}"))
    }

    fn flush(&mut self) -> Result<(), String> {
        self.sink.flush().map_err(|e| format!("sink flush: {e}"))
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

/// What `element` names on the run's base topology (shared by every group's
/// instance); an unknown domain names nothing.
fn physical_elements(element: &ElementRef, rt: &RegionTopology) -> Vec<Element> {
    let nodes_of = |r| rt.region_nodes(r).to_vec();
    element
        .resolve(|name| rt.region_named(name).map(nodes_of).ok_or(()))
        .unwrap_or_default()
}
