//! Recovery bookkeeping.

use specsim_base::{Cycle, CycleDelta};

/// What a recovery cost, returned by
/// [`crate::SafetyNet::recover`] so the system layer can charge the time and
/// rewind its state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// The checkpoint id the system rolled back to.
    pub checkpoint_id: u64,
    /// The cycle at which that checkpoint was taken (execution resumes from
    /// this point of the workload).
    pub checkpoint_cycle: Cycle,
    /// Speculative work discarded: cycles of execution between the recovery
    /// point and the detection of the mis-speculation. When the recovery
    /// point was restored before, only the cycles since execution resumed
    /// from that restore count; the earlier ones were charged then.
    pub lost_work_cycles: CycleDelta,
    /// Cycles the recovery procedure itself consumes (state restoration,
    /// register checkpoint restore, network drain) before execution resumes.
    pub recovery_latency_cycles: CycleDelta,
}

/// Aggregate recovery statistics for one simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Number of recoveries performed.
    pub recoveries: u64,
    /// Total cycles of discarded speculative work.
    pub total_lost_work: CycleDelta,
    /// Total cycles spent in the recovery procedure itself.
    pub total_recovery_latency: CycleDelta,
}

impl RecoveryStats {
    /// Records one recovery.
    pub fn record(&mut self, outcome: &RecoveryOutcome) {
        self.recoveries += 1;
        self.total_lost_work += outcome.lost_work_cycles;
        self.total_recovery_latency += outcome.recovery_latency_cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_accumulate_costs() {
        let mut s = RecoveryStats::default();
        s.record(&RecoveryOutcome {
            checkpoint_id: 1,
            checkpoint_cycle: 100,
            lost_work_cycles: 900,
            recovery_latency_cycles: 100,
        });
        s.record(&RecoveryOutcome {
            checkpoint_id: 2,
            checkpoint_cycle: 200,
            lost_work_cycles: 1900,
            recovery_latency_cycles: 100,
        });
        assert_eq!(s.recoveries, 2);
        assert_eq!(s.total_lost_work, 2800);
        assert_eq!(s.total_recovery_latency, 200);
    }
}
