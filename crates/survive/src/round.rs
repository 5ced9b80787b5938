//! One failure round over a whole [`SessionPool`] — the one place a failure
//! process meets running sessions.
//!
//! Every driver that fails elements steps through [`FailureRounds`]:
//! `sof_runner`'s churn-at-scale rounds and `sof_spec`'s online groups.
//! A round advances the [`FailureDriver`], sends each due repair as a
//! [`SessionEvent::Repair`], prewarms every slot's [`Protector`] against the
//! still-healthy forests, sends each new failure as a
//! [`SessionEvent::Fail`], and recovers each disrupted slot once. Sessions
//! see the round's events in trace order and recoveries run serially in
//! slot order, so a round is deterministic for any pool thread count.

use crate::{ElementRef, FailureDriver, FailurePlan, Protector, RecoveryMetrics};
use sof_core::{Applied, Element, SessionEvent, SessionPool};
use sof_graph::NodeId;
use std::collections::BTreeSet;

/// What one [`FailureRounds::step`] did, in the order it happened.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoundReport {
    /// The round (the first step is round 1).
    pub round: usize,
    /// Elements repaired this round, before any new failure fired.
    pub repairs: Vec<ElementRef>,
    /// Elements failed this round: the element, the round its repair is
    /// due (`None` = never), and the destinations it disrupted summed over
    /// the pool.
    pub failures: Vec<(ElementRef, Option<usize>, usize)>,
    /// Destinations the round's failures disrupted, per slot, summed.
    pub disrupted: usize,
    /// Of those, destinations reattached within the round.
    pub recovered: usize,
    /// Cost of the reconfigurations installed this round.
    pub cost: f64,
    /// Slots whose restoration waits for their next arrival.
    pub deferred: usize,
}

/// A run's failure process stepped over one [`SessionPool`]: the driver,
/// one [`Protector`] per slot, the recovery metrics, and the slots left
/// dark until their next rebuild.
pub struct FailureRounds {
    driver: FailureDriver,
    protectors: Vec<Protector>,
    metrics: RecoveryMetrics,
    /// Slot → (round of the disruption, destinations it darkened).
    pending: Vec<Option<(usize, usize)>>,
    round: usize,
}

impl FailureRounds {
    /// Rounds of `plan` over `universe` (resolved from the plan's scopes by
    /// the caller, in stable order), with one protector per pool slot.
    pub fn new(
        plan: &FailurePlan,
        universe: Vec<ElementRef>,
        protectors: Vec<Protector>,
    ) -> FailureRounds {
        FailureRounds {
            driver: FailureDriver::new(plan, universe),
            pending: vec![None; protectors.len()],
            protectors,
            metrics: RecoveryMetrics::default(),
            round: 0,
        }
    }

    /// Steps `pool` through the next round. `resolve` names the physical
    /// elements an [`ElementRef`] stands for on the pool's networks.
    ///
    /// # Panics
    ///
    /// Panics when the pool does not have one slot per protector.
    pub fn step(
        &mut self,
        pool: &mut SessionPool,
        resolve: impl Fn(&ElementRef) -> Vec<Element>,
    ) -> RoundReport {
        assert_eq!(
            pool.len(),
            self.protectors.len(),
            "one protector per pool slot"
        );
        self.round += 1;
        let events = self.driver.advance(self.round);
        let mut report = RoundReport {
            round: self.round,
            ..RoundReport::default()
        };

        // Availability sampling: every destination of every slot is one
        // destination×round sample; a slot darkened by a deferred recovery
        // contributes its disrupted destinations as dark samples.
        for session in pool.sessions() {
            self.metrics.dest_rounds += session.instance().request.destinations.len();
        }
        self.metrics.disconnected_dest_rounds += self
            .pending
            .iter()
            .flatten()
            .map(|&(_, dark)| dark)
            .sum::<usize>();

        for element in events.repairs {
            self.metrics.repair_events += 1;
            // Elements that were never down in a session are refused there.
            apply_everywhere(pool, SessionEvent::Repair(resolve(&element)));
            report.repairs.push(element);
        }
        if events.failures.is_empty() {
            return report;
        }

        // Backups and standbys must be planned against the pre-failure
        // state — protection provisioned after the cut is just repair.
        for (protector, session) in self.protectors.iter_mut().zip(pool.sessions_mut()) {
            protector.prewarm(session);
        }
        let mut affected: Vec<BTreeSet<NodeId>> = vec![BTreeSet::new(); pool.len()];
        for (element, repair_at) in events.failures {
            self.metrics.fail_events += 1;
            let answers = apply_everywhere(pool, SessionEvent::Fail(resolve(&element)));
            let mut disrupted = 0;
            for (slot, answer) in answers.into_iter().enumerate() {
                // A failure the session refuses (not on its network, or one
                // of its endpoints) disrupts nothing there.
                if let Some(Ok(Applied::Failed(broken))) = answer {
                    disrupted += broken.len();
                    affected[slot].extend(broken);
                }
            }
            report.failures.push((element, repair_at, disrupted));
        }
        for (slot, dests) in affected.iter().enumerate() {
            if dests.is_empty() {
                continue;
            }
            let dests: Vec<NodeId> = dests.iter().copied().collect();
            let outcome = self.protectors[slot].recover(&mut pool.sessions_mut()[slot], &dests);
            report.disrupted += outcome.affected;
            report.recovered += outcome.recovered;
            report.cost += outcome.cost;
            if outcome.pending {
                self.metrics.record_deferred();
                self.pending[slot] = Some((self.round, outcome.affected));
                report.deferred += 1;
            } else {
                self.metrics.record_immediate(outcome.cost);
            }
        }
        report
    }

    /// Closes `slot`'s deferred recovery, if one is open: its arrival just
    /// rebuilt the forest at `forest_cost`, which is that recovery's price.
    pub fn rebuilt(&mut self, slot: usize, forest_cost: f64) {
        if let Some((disrupted_at, _)) = self.pending[slot].take() {
            self.metrics
                .record_restore(self.round - disrupted_at + 1, forest_cost);
        }
    }

    /// The recovery and availability counters so far.
    pub fn metrics(&self) -> &RecoveryMetrics {
        &self.metrics
    }

    /// Slots currently dark, waiting for a deferred rebuild.
    pub fn pending(&self) -> usize {
        self.pending.iter().flatten().count()
    }
}

/// Applies `event` to every session of the pool; answers in slot order.
fn apply_everywhere(
    pool: &mut SessionPool,
    event: SessionEvent,
) -> Vec<Option<Result<Applied, sof_core::SolveError>>> {
    pool.apply(&vec![Some(event); pool.len()])
}
