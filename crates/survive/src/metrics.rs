//! Recovery and availability accounting.
//!
//! One [`RecoveryMetrics`] accumulates over a run (or one policy leg of a
//! comparison): how many elements failed, how many session disruptions
//! resulted, what each recovery cost, how long groups stayed dark, and the
//! availability ratio those durations imply.

/// Counters for one run's failure/recovery story.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RecoveryMetrics {
    /// Element failures applied.
    pub fail_events: usize,
    /// Element repairs applied.
    pub repair_events: usize,
    /// Session-level disruptions (a failure that broke ≥ 1 standing walk).
    pub disruptions: usize,
    /// Disruptions recovered within their failure round (backup/standby).
    pub immediate: usize,
    /// Disruptions whose recovery has completed (immediate or deferred).
    pub recoveries: usize,
    /// Total cost of installed recovery reconfigurations.
    pub recovery_cost_sum: f64,
    /// Σ events-to-restore over completed recoveries (0 for immediate).
    pub events_to_restore_sum: usize,
    /// Destination×round samples spent disconnected.
    pub disconnected_dest_rounds: usize,
    /// Destination×round samples observed while failures were active.
    pub dest_rounds: usize,
}

impl RecoveryMetrics {
    /// Records an immediate (same-round) recovery.
    pub fn record_immediate(&mut self, cost: f64) {
        self.disruptions += 1;
        self.immediate += 1;
        self.recoveries += 1;
        self.recovery_cost_sum += cost;
    }

    /// Records the start of a deferred (reactive) recovery.
    pub fn record_deferred(&mut self) {
        self.disruptions += 1;
    }

    /// Closes a deferred recovery: the rebuild happened `events_elapsed`
    /// group events after the disruption, at `cost`.
    pub fn record_restore(&mut self, events_elapsed: usize, cost: f64) {
        self.recoveries += 1;
        self.recovery_cost_sum += cost;
        self.events_to_restore_sum += events_elapsed;
    }

    /// Mean cost per completed recovery.
    pub fn mean_recovery_cost(&self) -> f64 {
        if self.recoveries == 0 {
            0.0
        } else {
            self.recovery_cost_sum / self.recoveries as f64
        }
    }

    /// Mean group events until service was restored (0 when every
    /// recovery was immediate).
    pub fn mean_events_to_restore(&self) -> f64 {
        if self.recoveries == 0 {
            0.0
        } else {
            self.events_to_restore_sum as f64 / self.recoveries as f64
        }
    }

    /// Fraction of destination×round samples spent connected (1.0 when no
    /// samples were taken).
    pub fn availability(&self) -> f64 {
        if self.dest_rounds == 0 {
            1.0
        } else {
            1.0 - self.disconnected_dest_rounds as f64 / self.dest_rounds as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means_and_availability() {
        let mut m = RecoveryMetrics::default();
        assert_eq!(m.mean_recovery_cost(), 0.0);
        assert_eq!(m.availability(), 1.0);

        m.record_immediate(10.0);
        m.record_deferred();
        m.record_restore(4, 30.0);
        assert_eq!(m.disruptions, 2);
        assert_eq!(m.recoveries, 2);
        assert_eq!(m.mean_recovery_cost(), 20.0);
        assert_eq!(m.mean_events_to_restore(), 2.0);

        m.dest_rounds = 100;
        m.disconnected_dest_rounds = 25;
        assert_eq!(m.availability(), 0.75);
    }
}
