//! The stop rule checked between stepping rounds.
//!
//! A churn-at-scale run has no natural end — groups retire and are
//! replaced forever — so it stops on the first of three conditions: its
//! event budget (deterministic; what presets and goldens use), the
//! windowed mean forest cost settling ([`Converge`]), or a wall-clock
//! safety net whose trip point depends on the host (never use it for
//! golden output).

use std::time::Duration;

/// Stop once the windowed mean forest cost has converged: the relative
/// change between consecutive windows stays within `epsilon` for
/// `patience` consecutive windows.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Converge {
    /// Maximum relative change between consecutive windows still counted
    /// as "settled".
    pub epsilon: f64,
    /// Consecutive settled windows required before stopping.
    pub patience: usize,
}

/// Why a run stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The event budget was spent.
    MaxEvents,
    /// The wall-clock budget (`max_seconds`) was exceeded.
    MaxWallclock,
    /// The [`Converge`] condition held long enough.
    Converged,
}

impl StopReason {
    /// Stable lower-kebab name used in JSONL records.
    pub fn as_str(self) -> &'static str {
        match self {
            StopReason::MaxEvents => "max-events",
            StopReason::MaxWallclock => "max-wallclock",
            StopReason::Converged => "converged-cost",
        }
    }
}

/// One run's stop rule over its progress.
#[derive(Clone, Debug)]
pub(crate) struct Stop {
    events: u64,
    max_seconds: Option<f64>,
    converge: Option<Converge>,
    last_mean: Option<f64>,
    /// Consecutive settled windows so far.
    settled: usize,
}

impl Stop {
    pub(crate) fn new(events: u64, converge: Option<Converge>, max_seconds: Option<f64>) -> Stop {
        Stop {
            events,
            max_seconds,
            converge,
            last_mean: None,
            settled: 0,
        }
    }

    /// Events the next round may still process before the budget is spent
    /// (the runner never oversteps: the final round is trimmed to land
    /// exactly on the budget).
    pub(crate) fn events_left(&self, done: u64) -> u64 {
        self.events.saturating_sub(done)
    }

    /// Checks the budget and the wall clock after `done` events and
    /// `elapsed` time.
    pub(crate) fn after_round(&self, done: u64, elapsed: Duration) -> Option<StopReason> {
        if done >= self.events {
            Some(StopReason::MaxEvents)
        } else if self
            .max_seconds
            .is_some_and(|secs| elapsed.as_secs_f64() >= secs)
        {
            Some(StopReason::MaxWallclock)
        } else {
            None
        }
    }

    /// Feeds one closed window's mean forest cost to the convergence
    /// streak. The run never converges before at least one pair of
    /// windows has actually been compared — not even at `patience: 0`,
    /// which `RunnerConfig::validate` refuses anyway.
    pub(crate) fn after_window(&mut self, mean_cost: f64) -> Option<StopReason> {
        let c = self.converge?;
        if let Some(prev) = self.last_mean {
            let rel = if prev == 0.0 {
                (mean_cost - prev).abs()
            } else {
                ((mean_cost - prev) / prev).abs()
            };
            self.settled = if rel <= c.epsilon {
                self.settled + 1
            } else {
                0
            };
        }
        self.last_mean = Some(mean_cost);
        (self.settled >= c.patience.max(1)).then_some(StopReason::Converged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn converge(epsilon: f64, patience: usize) -> Option<Converge> {
        Some(Converge { epsilon, patience })
    }

    #[test]
    fn max_events_caps_the_round_budget() {
        let stop = Stop::new(100, None, None);
        assert_eq!(stop.events_left(0), 100);
        assert_eq!(stop.events_left(97), 3);
        assert_eq!(stop.events_left(100), 0);
        assert_eq!(stop.after_round(99, Duration::ZERO), None);
        assert_eq!(
            stop.after_round(100, Duration::ZERO),
            Some(StopReason::MaxEvents)
        );
    }

    /// The wall clock trips at the first round boundary past it; a budget
    /// spent in the same round names the budget.
    #[test]
    fn max_seconds_trips_at_the_first_round_past_it() {
        let stop = Stop::new(100, None, Some(3600.0));
        assert_eq!(stop.after_round(1, Duration::from_secs(1)), None);
        assert_eq!(
            stop.after_round(1, Duration::from_secs(3600)),
            Some(StopReason::MaxWallclock)
        );
        assert_eq!(
            stop.after_round(100, Duration::from_secs(3600)),
            Some(StopReason::MaxEvents)
        );
    }

    #[test]
    fn convergence_needs_patience_consecutive_settled_windows() {
        let mut stop = Stop::new(u64::MAX, converge(0.05, 2), None);
        assert_eq!(stop.after_window(100.0), None); // first window: no pair yet
        assert_eq!(stop.after_window(101.0), None); // settled ×1
        assert_eq!(stop.after_window(150.0), None); // jump resets the streak
        assert_eq!(stop.after_window(151.0), None); // settled ×1
        assert_eq!(stop.after_window(152.0), Some(StopReason::Converged));
        // Without a convergence rule, windows never stop a run.
        let mut stop = Stop::new(u64::MAX, None, None);
        assert_eq!(stop.after_window(100.0), None);
        assert_eq!(stop.after_window(100.0), None);
    }

    /// Regression: `patience: 0` used to converge on the very first window
    /// (`settled 0 >= patience 0`) before any two windows had been
    /// compared. A stop built with `patience: 0` must still wait for one
    /// settled comparison.
    #[test]
    fn zero_patience_still_needs_one_settled_comparison() {
        let mut stop = Stop::new(u64::MAX, converge(0.05, 0), None);
        assert_eq!(
            stop.after_window(100.0),
            None,
            "first window has nothing to compare against"
        );
        assert_eq!(stop.after_window(101.0), Some(StopReason::Converged));
    }

    #[test]
    fn stop_reasons_have_stable_names() {
        assert_eq!(StopReason::MaxEvents.as_str(), "max-events");
        assert_eq!(StopReason::MaxWallclock.as_str(), "max-wallclock");
        assert_eq!(StopReason::Converged.as_str(), "converged-cost");
    }
}
