//! Failure processes: seeded generators of timed fail/repair events.
//!
//! A [`FailureDriver`] advances round by round and emits, for each round,
//! the repairs that come due and the new failures that fire. The whole
//! trace is a pure function of `(seed, plan, universe)`: the RNG stream is
//! consumed in a fixed order regardless of which elements happen to be
//! failed, and repair times are drawn by the process itself — never by the
//! protection policy — so every policy leg of a comparison run sees the
//! identical trace.

use crate::element::ElementRef;
use crate::policy::ProtectionPolicy;
use sof_graph::Rng64;
use std::collections::BTreeMap;

/// Which generator produces the failure timeline.
#[derive(Clone, Debug, PartialEq)]
pub enum ProcessKind {
    /// Every `every` rounds, fail the next `count` elements of the
    /// universe in round-robin order (the deterministic descendant of the
    /// old `every`/`count` axis).
    Periodic {
        /// Fire period in rounds (≥ 1).
        every: usize,
        /// Elements failed per firing (≥ 1).
        count: usize,
    },
    /// Independent per-element Bernoulli trial each round with probability
    /// `rate` (the memoryless, Poisson-style model).
    Poisson {
        /// Per-element per-round failure probability in `[0, 1]`.
        rate: f64,
    },
    /// An explicit event list (exact reproduction of a known trace).
    Scripted(Vec<ScriptedEvent>),
}

impl ProcessKind {
    /// The spec-file name of this process.
    pub fn as_str(&self) -> &'static str {
        match self {
            ProcessKind::Periodic { .. } => "periodic",
            ProcessKind::Poisson { .. } => "poisson",
            ProcessKind::Scripted(_) => "scripted",
        }
    }
}

/// One entry of a scripted failure trace (a spec file's
/// `{ at, element, repair }` table).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScriptedEvent {
    /// Round at which the element fails.
    pub at: usize,
    /// What fails (written `"vm:12"`, `"link:3-7"`, `"node:5"`,
    /// `"domain:us-east"` in a spec file).
    pub element: ElementRef,
    /// Rounds until repair (`0` = never repaired).
    pub repair: usize,
}

/// A compiled, validated failure configuration: the process, what it may
/// break, how long repairs take, and which protection policy answers.
#[derive(Clone, Debug, PartialEq)]
pub struct FailurePlan {
    /// The event generator.
    pub process: ProcessKind,
    /// Element scopes the generated universe draws from, in spec order
    /// (subset of `"vm"`, `"link"`, `"node"`, `"domain"`).
    pub scope: Vec<String>,
    /// Inclusive rounds-until-repair range; `(0, 0)` = failures are
    /// permanent.
    pub repair: (usize, usize),
    /// The protection policy recovering from disruptions.
    pub policy: ProtectionPolicy,
    /// Seed of the failure RNG stream (independent of the churn streams).
    pub seed: u64,
}

impl FailurePlan {
    /// Validates rates, periods and ranges.
    ///
    /// # Errors
    ///
    /// An actionable message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        match &self.process {
            ProcessKind::Periodic { every, count } => {
                if *every == 0 {
                    return Err("failures period must be at least 1 round, got 0".into());
                }
                if *count == 0 {
                    return Err("failures count must be at least 1 element, got 0".into());
                }
            }
            ProcessKind::Poisson { rate } => {
                if !rate.is_finite() || *rate < 0.0 || *rate > 1.0 {
                    return Err(format!(
                        "failures rate must be a finite probability in [0, 1], got {rate}"
                    ));
                }
            }
            ProcessKind::Scripted(events) => {
                if events.is_empty() {
                    return Err("scripted failures need at least one event".into());
                }
            }
        }
        if self.repair.0 > self.repair.1 {
            return Err(format!(
                "failures repair range must have lo <= hi, got [{}, {}]",
                self.repair.0, self.repair.1
            ));
        }
        for s in &self.scope {
            if !matches!(s.as_str(), "vm" | "link" | "node" | "domain") {
                return Err(format!(
                    "unknown failures scope '{s}' (expected 'vm', 'link', 'node', or 'domain')"
                ));
            }
        }
        if self.scope.is_empty() && !matches!(self.process, ProcessKind::Scripted(_)) {
            return Err("failures scope must name at least one element kind".into());
        }
        Ok(())
    }
}

/// Deterministic failure injection as a spec file declares it: the
/// `failures` axis shared by online and churn-at-scale workloads.
///
/// Both kinds compile the axis into a [`FailurePlan`] — a seeded failure
/// process over the scoped element universe, a repair-time range and a
/// protection policy — and step it with [`crate::FailureRounds`] after
/// every arrival (online) or round (churn-at-scale). Churn-at-scale runs
/// one streamed leg per listed policy over the identical trace; online
/// runs one policy and has no `domain` scope (its topologies have no
/// regions).
#[derive(Clone, Debug, PartialEq)]
pub struct FailureSpec {
    /// Periodic fire interval in arrivals/rounds (≥ 1).
    pub every: usize,
    /// Elements failed per periodic firing.
    pub count: usize,
    /// Failure process: `"periodic"`, `"poisson"`, or `"scripted"`.
    pub process: String,
    /// Per-element per-round failure probability (poisson process).
    pub rate: f64,
    /// Element kinds the universe draws from (subset of `"vm"`, `"link"`,
    /// `"node"`, `"domain"`; online workloads have no `"domain"`).
    pub scope: Vec<String>,
    /// Inclusive rounds-until-repair range; `[0, 0]` = permanent.
    pub repair: (usize, usize),
    /// Protection policies to run (`"reactive"`, `"backup-paths"`,
    /// `"standby-forest"`); churn-at-scale streams one leg per entry,
    /// online runs exactly one.
    pub policies: Vec<String>,
    /// Seed of the failure RNG stream (independent of churn streams).
    pub seed: u64,
    /// Explicit event list for the scripted process.
    pub events: Vec<ScriptedEvent>,
}

impl FailureSpec {
    /// Compiles the axis into a validated [`FailurePlan`] running under
    /// `policy` (one of [`FailureSpec::policies`]).
    ///
    /// # Errors
    ///
    /// An actionable message naming the offending field.
    pub fn to_plan(&self, policy: &str) -> Result<FailurePlan, String> {
        let process = match self.process.as_str() {
            "periodic" => ProcessKind::Periodic {
                every: self.every,
                count: self.count,
            },
            "poisson" => ProcessKind::Poisson { rate: self.rate },
            "scripted" => ProcessKind::Scripted(self.events.clone()),
            other => {
                return Err(format!(
                    "unknown failures process '{other}' (expected 'periodic', 'poisson', \
                     or 'scripted')"
                ))
            }
        };
        let plan = FailurePlan {
            process,
            scope: self.scope.clone(),
            repair: self.repair,
            policy: ProtectionPolicy::from_name(policy)?,
            seed: self.seed,
        };
        plan.validate()?;
        Ok(plan)
    }

    /// Checks that the axis names a policy and compiles under every one it
    /// names, so no leg can fail to start. Messages name the offending key
    /// under `at`, the path of the axis' table (`"workload.failures"` in a
    /// spec file).
    ///
    /// # Errors
    ///
    /// `'at.policies' must name at least one policy`, or `'at': ` and what
    /// [`FailureSpec::to_plan`] refuses.
    pub fn validate(&self, at: &str) -> Result<(), String> {
        if self.policies.is_empty() {
            return Err(format!("'{at}.policies' must name at least one policy"));
        }
        for p in &self.policies {
            self.to_plan(p).map_err(|e| format!("'{at}': {e}"))?;
        }
        Ok(())
    }
}

/// What one round's worth of the failure process produced.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoundEvents {
    /// Elements whose repair came due this round (restored before new
    /// failures fire).
    pub repairs: Vec<ElementRef>,
    /// Elements failing this round, with the round their repair is
    /// scheduled for (`None` = never).
    pub failures: Vec<(ElementRef, Option<usize>)>,
}

impl RoundEvents {
    /// Whether nothing happened this round.
    pub fn is_empty(&self) -> bool {
        self.repairs.is_empty() && self.failures.is_empty()
    }
}

/// The stateful generator: owns the failure RNG stream and the failed-set
/// bookkeeping. Drive it with [`advance`](FailureDriver::advance) once per
/// round, in order.
#[derive(Clone, Debug)]
pub struct FailureDriver {
    rng: Rng64,
    process: ProcessKind,
    repair: (usize, usize),
    universe: Vec<ElementRef>,
    /// Failed element → round its repair comes due (`usize::MAX` = never).
    failed: BTreeMap<ElementRef, usize>,
    /// Round-robin cursor for the periodic process.
    cursor: usize,
}

impl FailureDriver {
    /// Builds a driver over a concrete element universe (resolved from the
    /// plan's scopes by the consumer, in stable order).
    pub fn new(plan: &FailurePlan, universe: Vec<ElementRef>) -> FailureDriver {
        FailureDriver {
            rng: Rng64::seed_from(plan.seed),
            process: plan.process.clone(),
            repair: plan.repair,
            universe,
            failed: BTreeMap::new(),
            cursor: 0,
        }
    }

    /// Produces this round's repairs and failures. Rounds must be visited
    /// in increasing order; repairs come due before new failures fire.
    pub fn advance(&mut self, round: usize) -> RoundEvents {
        let repairs: Vec<ElementRef> = self
            .failed
            .iter()
            .filter(|&(_, &due)| due <= round)
            .map(|(e, _)| e.clone())
            .collect();
        for e in &repairs {
            self.failed.remove(e);
        }
        let mut failures = Vec::new();
        match self.process.clone() {
            ProcessKind::Periodic { every, count } => {
                if round > 0 && round.is_multiple_of(every) && !self.universe.is_empty() {
                    let mut picked = 0;
                    let mut tried = 0;
                    while picked < count && tried < self.universe.len() {
                        let e = self.universe[self.cursor % self.universe.len()].clone();
                        self.cursor += 1;
                        tried += 1;
                        if self.failed.contains_key(&e) {
                            continue;
                        }
                        let due = self.draw_repair(round);
                        self.fail(e, due, &mut failures);
                        picked += 1;
                    }
                }
            }
            ProcessKind::Poisson { rate } => {
                for i in 0..self.universe.len() {
                    // The trial AND (on fire) the repair draw consume the
                    // stream regardless of the element's current state, so
                    // the trace never depends on what a policy repaired.
                    if !self.rng.chance(rate) {
                        continue;
                    }
                    let due = self.draw_repair(round);
                    let e = self.universe[i].clone();
                    if !self.failed.contains_key(&e) {
                        self.fail(e, due, &mut failures);
                    }
                }
            }
            ProcessKind::Scripted(events) => {
                for ev in events.iter().filter(|ev| ev.at == round) {
                    if self.failed.contains_key(&ev.element) {
                        continue;
                    }
                    let due = (ev.repair > 0).then(|| round + ev.repair);
                    self.fail(ev.element.clone(), due, &mut failures);
                }
            }
        }
        RoundEvents { repairs, failures }
    }

    fn fail(
        &mut self,
        e: ElementRef,
        due: Option<usize>,
        out: &mut Vec<(ElementRef, Option<usize>)>,
    ) {
        self.failed.insert(e.clone(), due.unwrap_or(usize::MAX));
        out.push((e, due));
    }

    fn draw_repair(&mut self, round: usize) -> Option<usize> {
        let (lo, hi) = self.repair;
        if hi == 0 {
            return None;
        }
        let delay = if hi > lo {
            self.rng.range(lo, hi + 1)
        } else {
            lo
        };
        Some(round + delay.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(process: ProcessKind) -> FailurePlan {
        FailurePlan {
            process,
            scope: vec!["link".into()],
            repair: (2, 4),
            policy: ProtectionPolicy::Reactive,
            seed: 97,
        }
    }

    fn universe() -> Vec<ElementRef> {
        (0..8).map(|i| ElementRef::link(i, i + 1)).collect()
    }

    fn trace(p: &FailurePlan, rounds: usize) -> Vec<(usize, RoundEvents)> {
        let mut d = FailureDriver::new(p, universe());
        (0..rounds).map(|r| (r, d.advance(r))).collect()
    }

    #[test]
    fn traces_are_pure_functions_of_seed_and_plan() {
        let p = plan(ProcessKind::Poisson { rate: 0.1 });
        assert_eq!(trace(&p, 64), trace(&p, 64));
        let mut p2 = p.clone();
        p2.seed = 98;
        assert_ne!(trace(&p, 64), trace(&p2, 64));
    }

    #[test]
    fn periodic_fires_on_schedule_and_round_robins() {
        let p = plan(ProcessKind::Periodic { every: 3, count: 1 });
        let t = trace(&p, 10);
        for (r, ev) in &t {
            let expect_fire = *r > 0 && r % 3 == 0;
            assert_eq!(!ev.failures.is_empty(), expect_fire, "round {r}: {ev:?}");
        }
        // Rounds 3, 6, 9 fail successive universe elements.
        assert_eq!(t[3].1.failures[0].0, ElementRef::link(0, 1));
        assert_eq!(t[6].1.failures[0].0, ElementRef::link(1, 2));
        assert_eq!(t[9].1.failures[0].0, ElementRef::link(2, 3));
    }

    #[test]
    fn repairs_come_due_and_elements_can_refail() {
        let p = FailurePlan {
            repair: (2, 2),
            ..plan(ProcessKind::Periodic { every: 2, count: 1 })
        };
        let mut d = FailureDriver::new(&p, universe());
        let r2 = d.advance_to(2);
        assert_eq!(r2.failures.len(), 1);
        assert_eq!(d.failed.len(), 1);
        // Repair is due exactly two rounds later.
        let r4 = {
            d.advance(3);
            d.advance(4)
        };
        assert!(r4.repairs.contains(&ElementRef::link(0, 1)), "{r4:?}");
    }

    #[test]
    fn scripted_events_fire_at_their_round() {
        let events = vec![
            ScriptedEvent {
                at: 2,
                element: ElementRef::link(0, 1),
                repair: 3,
            },
            ScriptedEvent {
                at: 4,
                element: "node:5".parse().unwrap(),
                repair: 0,
            },
        ];
        let p = plan(ProcessKind::Scripted(events));
        let t = trace(&p, 8);
        assert_eq!(t[2].1.failures, vec![(ElementRef::link(0, 1), Some(5))]);
        assert_eq!(t[4].1.failures, vec![(ElementRef::Node(5), None)]);
        assert_eq!(t[5].1.repairs, vec![ElementRef::link(0, 1)]);
        assert!(t[7].1.is_empty());
    }

    #[test]
    fn plan_validation_rejects_bad_rates_and_ranges() {
        let bad = [
            plan(ProcessKind::Poisson { rate: f64::NAN }),
            plan(ProcessKind::Poisson { rate: -0.5 }),
            plan(ProcessKind::Poisson { rate: 1.5 }),
            plan(ProcessKind::Periodic { every: 0, count: 1 }),
            plan(ProcessKind::Periodic { every: 5, count: 0 }),
            FailurePlan {
                repair: (5, 2),
                ..plan(ProcessKind::Poisson { rate: 0.1 })
            },
            FailurePlan {
                scope: vec!["router".into()],
                ..plan(ProcessKind::Poisson { rate: 0.1 })
            },
            FailurePlan {
                scope: vec![],
                ..plan(ProcessKind::Poisson { rate: 0.1 })
            },
        ];
        for p in bad {
            let err = p.validate().unwrap_err();
            assert!(
                err.contains("failures") || err.contains("scripted"),
                "{err}"
            );
        }
        assert!(plan(ProcessKind::Poisson { rate: 0.02 }).validate().is_ok());
    }

    impl FailureDriver {
        /// Test helper: advance through rounds `0..=round`, returning the
        /// last round's events.
        fn advance_to(&mut self, round: usize) -> RoundEvents {
            let mut last = RoundEvents::default();
            for r in 0..=round {
                last = self.advance(r);
            }
            last
        }
    }
}
