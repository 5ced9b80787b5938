//! Wards: pluggable stop conditions checked between stepping rounds.
//!
//! A churn-at-scale run has no natural end — groups retire and are
//! replaced forever — so the runner carries a set of wards and stops at
//! the first one that trips. [`Ward::MaxEvents`] is the deterministic
//! budget used by presets and goldens; [`Ward::MaxWallclock`] is a safety
//! net whose trip point depends on the host (never use it for golden
//! output); [`Ward::ConvergedCost`] watches the windowed mean forest cost
//! and stops once it has settled.

use std::time::Duration;

/// A stop condition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Ward {
    /// Stop once this many events have been processed (the runner never
    /// oversteps: the final round is trimmed to land exactly on the
    /// budget).
    MaxEvents(u64),
    /// Stop at the first round boundary past this wall-clock budget.
    /// Host-dependent by construction — keep it out of golden runs.
    MaxWallclock(Duration),
    /// Stop once the windowed mean forest cost has converged: the
    /// relative change between consecutive windows stays within
    /// `epsilon` for `patience` consecutive windows.
    ConvergedCost {
        /// Maximum relative change still counted as "settled".
        epsilon: f64,
        /// Consecutive settled windows required.
        patience: usize,
    },
}

/// Why a run stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The [`Ward::MaxEvents`] budget was reached.
    MaxEvents,
    /// The [`Ward::MaxWallclock`] budget was exceeded.
    MaxWallclock,
    /// The [`Ward::ConvergedCost`] condition held long enough.
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

/// Per-[`Ward::ConvergedCost`] streak state: every convergence ward in a
/// set is tracked independently, so a strict ward can never be shadowed by
/// a looser one that happens to come first.
#[derive(Clone, Copy, Debug)]
struct ConvergenceState {
    epsilon: f64,
    patience: usize,
    settled: usize,
}

/// Evaluates a ward set over the run's progress.
#[derive(Clone, Debug)]
pub(crate) struct WardSet {
    wards: Vec<Ward>,
    convergence: Vec<ConvergenceState>,
    last_mean: Option<f64>,
}

impl WardSet {
    pub(crate) fn new(wards: Vec<Ward>) -> WardSet {
        let convergence = wards
            .iter()
            .filter_map(|w| match w {
                Ward::ConvergedCost { epsilon, patience } => Some(ConvergenceState {
                    epsilon: *epsilon,
                    patience: *patience,
                    settled: 0,
                }),
                _ => None,
            })
            .collect();
        WardSet {
            wards,
            convergence,
            last_mean: None,
        }
    }

    /// Events the next round may still process before [`Ward::MaxEvents`]
    /// trips (`None` = unbounded).
    pub(crate) fn events_left(&self, done: u64) -> Option<u64> {
        self.wards
            .iter()
            .filter_map(|w| match w {
                Ward::MaxEvents(max) => Some(max.saturating_sub(done)),
                _ => None,
            })
            .min()
    }

    /// Checks the round-granular wards after `done` events and `elapsed`
    /// wall-clock time.
    pub(crate) fn after_round(&self, done: u64, elapsed: Duration) -> Option<StopReason> {
        for w in &self.wards {
            match w {
                Ward::MaxEvents(max) if done >= *max => return Some(StopReason::MaxEvents),
                Ward::MaxWallclock(budget) if elapsed >= *budget => {
                    return Some(StopReason::MaxWallclock)
                }
                _ => {}
            }
        }
        None
    }

    /// Feeds one closed window's mean forest cost to every convergence
    /// ward. Each ward keeps its own settled streak; the set converges as
    /// soon as any ward's streak reaches its patience. A ward never trips
    /// before at least one pair of windows has actually been compared —
    /// even a (library-constructed) `patience: 0` ward needs one settled
    /// comparison.
    pub(crate) fn after_window(&mut self, mean_cost: f64) -> Option<StopReason> {
        if self.convergence.is_empty() {
            return None;
        }
        if let Some(prev) = self.last_mean {
            let rel = if prev == 0.0 {
                (mean_cost - prev).abs()
            } else {
                ((mean_cost - prev) / prev).abs()
            };
            for state in &mut self.convergence {
                if rel <= state.epsilon {
                    state.settled += 1;
                } else {
                    state.settled = 0;
                }
            }
        }
        self.last_mean = Some(mean_cost);
        self.convergence
            .iter()
            .any(|s| s.settled >= s.patience.max(1))
            .then_some(StopReason::Converged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_events_caps_the_round_budget() {
        let set = WardSet::new(vec![Ward::MaxEvents(100)]);
        assert_eq!(set.events_left(0), Some(100));
        assert_eq!(set.events_left(97), Some(3));
        assert_eq!(set.events_left(100), Some(0));
        assert_eq!(set.after_round(99, Duration::ZERO), None);
        assert_eq!(
            set.after_round(100, Duration::ZERO),
            Some(StopReason::MaxEvents)
        );
    }

    #[test]
    fn unbounded_without_a_max_events_ward() {
        let set = WardSet::new(vec![Ward::MaxWallclock(Duration::from_secs(3600))]);
        assert_eq!(set.events_left(u64::MAX / 2), None);
        assert_eq!(set.after_round(1, Duration::from_secs(1)), None);
        assert_eq!(
            set.after_round(1, Duration::from_secs(3600)),
            Some(StopReason::MaxWallclock)
        );
    }

    #[test]
    fn convergence_needs_patience_consecutive_settled_windows() {
        let mut set = WardSet::new(vec![Ward::ConvergedCost {
            epsilon: 0.05,
            patience: 2,
        }]);
        assert_eq!(set.after_window(100.0), None); // first window: no pair yet
        assert_eq!(set.after_window(101.0), None); // settled ×1
        assert_eq!(set.after_window(150.0), None); // jump resets the streak
        assert_eq!(set.after_window(151.0), None); // settled ×1
        assert_eq!(set.after_window(152.0), Some(StopReason::Converged));
    }

    /// Regression: `patience: 0` used to converge on the very first window
    /// (`settled 0 >= patience 0`) before any two windows had been
    /// compared. A ward built directly with `patience: 0` must still wait
    /// for one settled comparison.
    #[test]
    fn zero_patience_still_needs_one_settled_comparison() {
        let mut set = WardSet::new(vec![Ward::ConvergedCost {
            epsilon: 0.05,
            patience: 0,
        }]);
        assert_eq!(
            set.after_window(100.0),
            None,
            "first window has nothing to compare against"
        );
        assert_eq!(set.after_window(101.0), Some(StopReason::Converged));
    }

    /// Regression: `after_window` used to `find_map` the first
    /// `ConvergedCost` ward and silently ignore the rest — a loose ward
    /// listed first could trip while a strict one listed after it had
    /// never settled, and a strict ward first made a loose one after it
    /// unreachable. Every convergence ward is tracked independently now.
    #[test]
    fn every_convergence_ward_is_tracked_independently() {
        // Strict first, loose second: the loose ward must still fire.
        let mut set = WardSet::new(vec![
            Ward::ConvergedCost {
                epsilon: 1e-9,
                patience: 5,
            },
            Ward::ConvergedCost {
                epsilon: 0.5,
                patience: 1,
            },
        ]);
        assert_eq!(set.after_window(100.0), None);
        assert_eq!(
            set.after_window(110.0),
            Some(StopReason::Converged),
            "the second (loose) ward settled, even though the first did not"
        );

        // Loose-but-patient first, tight-and-quick second: a jump resets
        // both streaks; the quick ward fires first once windows settle.
        let mut set = WardSet::new(vec![
            Ward::ConvergedCost {
                epsilon: 0.5,
                patience: 4,
            },
            Ward::ConvergedCost {
                epsilon: 0.05,
                patience: 2,
            },
        ]);
        assert_eq!(set.after_window(100.0), None);
        assert_eq!(set.after_window(101.0), None); // both settle ×1
        assert_eq!(set.after_window(102.0), Some(StopReason::Converged));
    }

    #[test]
    fn stop_reasons_have_stable_names() {
        assert_eq!(StopReason::MaxEvents.as_str(), "max-events");
        assert_eq!(StopReason::MaxWallclock.as_str(), "max-wallclock");
        assert_eq!(StopReason::Converged.as_str(), "converged-cost");
    }
}
