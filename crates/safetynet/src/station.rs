//! The checkpoint station: schedule, validation, commit and recovery.

use std::collections::VecDeque;

use specsim_base::{Cycle, CycleDelta, NodeId, SafetyNetConfig};

use crate::log::{LogOutcome, NodeLog, LOG_CAPACITY_ENTRIES};
use crate::recovery::{RecoveryOutcome, RecoveryStats};

/// One logical checkpoint of the whole shared-memory system.
#[derive(Debug, Clone)]
pub struct Checkpoint<S> {
    /// Monotonically increasing checkpoint identifier.
    pub id: u64,
    /// Cycle at which the checkpoint was (logically) taken.
    pub at: Cycle,
    /// Snapshot of the system state at that point.
    pub state: S,
}

/// Aggregate SafetyNet statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SafetyNetStats {
    /// Checkpoints taken.
    pub checkpoints_taken: u64,
    /// Checkpoints committed (validated and reclaimed).
    pub checkpoints_committed: u64,
    /// Log entries recorded across all nodes.
    pub entries_logged: u64,
    /// Cycles during which at least one node was stalled on a full log.
    pub log_stall_cycles: u64,
    /// Recovery statistics.
    pub recovery: RecoveryStats,
}

/// The SafetyNet checkpoint/recovery coordinator, generic over the system
/// snapshot type `S`.
#[derive(Debug, Clone)]
pub struct SafetyNet<S> {
    cfg: SafetyNetConfig,
    /// Outstanding checkpoints, oldest first. The front is the recovery
    /// point; there is always at least one checkpoint.
    checkpoints: VecDeque<Checkpoint<S>>,
    logs: Vec<NodeLog>,
    next_id: u64,
    last_checkpoint_at: Cycle,
    /// The cycle execution resumed after the latest restore (the creation
    /// cycle before any). Every checkpoint but the restored one is taken
    /// after it, so only a repeated restore of that checkpoint reaches
    /// back past it, into work the earlier restore already charged.
    resumed_at: Cycle,
    stats: SafetyNetStats,
}

impl<S: Clone> SafetyNet<S> {
    /// Creates the coordinator with an initial checkpoint of `initial_state`
    /// taken at cycle `now`.
    #[must_use]
    pub fn new(cfg: SafetyNetConfig, num_nodes: usize, initial_state: S, now: Cycle) -> Self {
        let logs = (0..num_nodes)
            .map(|_| NodeLog::new(LOG_CAPACITY_ENTRIES))
            .collect();
        let mut checkpoints = VecDeque::new();
        checkpoints.push_back(Checkpoint {
            id: 0,
            at: now,
            state: initial_state,
        });
        Self {
            cfg,
            checkpoints,
            logs,
            next_id: 1,
            last_checkpoint_at: now,
            resumed_at: now,
            stats: SafetyNetStats::default(),
        }
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &SafetyNetConfig {
        &self.cfg
    }

    /// The coherence-transaction timeout in cycles for the directory
    /// system: [`TIMEOUT_CHECKPOINT_INTERVALS`] checkpoint intervals.
    #[must_use]
    pub fn transaction_timeout_cycles(&self) -> CycleDelta {
        self.cfg.checkpoint_interval_cycles * TIMEOUT_CHECKPOINT_INTERVALS
    }

    /// Aggregate statistics.
    #[must_use]
    pub fn stats(&self) -> &SafetyNetStats {
        &self.stats
    }

    /// Cycle at which the most recent checkpoint was taken.
    #[must_use]
    pub fn last_checkpoint_at(&self) -> Cycle {
        self.last_checkpoint_at
    }

    /// Number of outstanding (not yet committed) checkpoints.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.checkpoints.len()
    }

    /// True when the checkpoint interval has elapsed and a new checkpoint
    /// should be taken. The caller decides the logical time base: the
    /// directory system passes cycles; the snooping system calls
    /// [`SafetyNet::take_checkpoint`] every `checkpoint_interval_requests`
    /// coherence requests instead.
    #[must_use]
    pub fn should_checkpoint(&self, now: Cycle) -> bool {
        now.saturating_sub(self.last_checkpoint_at) >= self.cfg.checkpoint_interval_cycles
    }

    /// True when taking another checkpoint is currently allowed (bounded by
    /// the maximum number of outstanding checkpoints).
    #[must_use]
    pub fn can_checkpoint(&self) -> bool {
        self.checkpoints.len() < self.cfg.max_outstanding_checkpoints.max(1) + 1
    }

    /// Takes a checkpoint of `state` at cycle `now` and opens a new logging
    /// interval on every node.
    pub fn take_checkpoint(&mut self, now: Cycle, state: S) {
        let id = self.next_id;
        self.next_id += 1;
        self.checkpoints
            .push_back(Checkpoint { id, at: now, state });
        self.last_checkpoint_at = now;
        self.stats.checkpoints_taken += 1;
        for log in &mut self.logs {
            log.start_interval();
        }
    }

    /// Commits (validates) checkpoints that are older than the detection
    /// window — the transaction timeout (Section 4, footnote 4: "SafetyNet
    /// cannot commit an old checkpoint until it is sure that execution prior
    /// to that checkpoint was mis-speculation-free ... it might have to wait
    /// as long as the timeout latency"). Always keeps at least one
    /// checkpoint as the recovery point.
    pub fn advance(&mut self, now: Cycle) {
        let window = self.transaction_timeout_cycles();
        while self.checkpoints.len() > 1 {
            // The front checkpoint can be discarded once the *next* one is
            // older than the validation window: the next one then becomes the
            // recovery point.
            let next_at = self.checkpoints[1].at;
            if now.saturating_sub(next_at) >= window {
                self.checkpoints.pop_front();
                self.stats.checkpoints_committed += 1;
                for log in &mut self.logs {
                    log.commit_oldest();
                }
            } else {
                break;
            }
        }
    }

    /// The cycle at which [`SafetyNet::advance`] next commits a checkpoint
    /// (`checkpoints[1]` leaves the validation window), or `Cycle::MAX`
    /// with a single checkpoint outstanding. `advance` is a no-op on every
    /// earlier cycle, so an engine may fast-forward up to it.
    #[must_use]
    pub fn next_commit_at(&self) -> Cycle {
        self.checkpoints.get(1).map_or(Cycle::MAX, |c| {
            c.at.saturating_add(self.transaction_timeout_cycles())
        })
    }

    /// The first cycle at which a checkpoint on the cycle clock can be
    /// taken: when [`SafetyNet::should_checkpoint`] first holds, or
    /// `Cycle::MAX` while [`SafetyNet::can_checkpoint`] forbids one (only a
    /// commit can lift that, see [`SafetyNet::next_commit_at`]).
    #[must_use]
    pub fn next_checkpoint_at(&self) -> Cycle {
        if self.can_checkpoint() {
            self.last_checkpoint_at
                .saturating_add(self.cfg.checkpoint_interval_cycles)
        } else {
            Cycle::MAX
        }
    }

    /// Records `entries` memory-write pre-images in `node`'s log.
    pub fn log_writes(&mut self, node: NodeId, entries: usize) -> LogOutcome {
        if entries == 0 {
            return LogOutcome::Recorded;
        }
        let outcome = self.logs[node.index()].record(entries);
        if outcome == LogOutcome::Recorded {
            self.stats.entries_logged += entries as u64;
        }
        outcome
    }

    /// Current occupancy of `node`'s log in entries.
    #[must_use]
    pub fn log_occupancy(&self, node: NodeId) -> usize {
        self.logs[node.index()].occupancy()
    }

    /// Records that the system spent a cycle stalled on a full log
    /// (statistics only).
    pub fn note_log_stall(&mut self) {
        self.stats.log_stall_cycles += 1;
    }

    /// The checkpoint execution would resume from if a mis-speculation were
    /// detected right now.
    #[must_use]
    pub fn recovery_point(&self) -> &Checkpoint<S> {
        self.checkpoints.front().expect("at least one checkpoint")
    }

    /// The newest outstanding checkpoint. After a recovery it is the
    /// restored one: a recovery discards every newer checkpoint.
    #[must_use]
    pub fn latest_checkpoint(&self) -> &Checkpoint<S> {
        self.checkpoints.back().expect("at least one checkpoint")
    }

    /// Performs a recovery at cycle `now`: discards every checkpoint newer
    /// than the recovery point, clears all speculative log entries, and
    /// returns the snapshot to restore together with the cost accounting.
    ///
    /// The lost work runs from the recovery point's cycle or, when that
    /// checkpoint was restored before, from the cycle execution resumed
    /// after that restore: the work before it was charged then, and the
    /// restore's own cycles are its recovery latency.
    pub fn recover(&mut self, now: Cycle) -> (S, RecoveryOutcome) {
        // Everything after the recovery point is speculative and discarded.
        self.checkpoints.truncate(1);
        let point = self.checkpoints.front().expect("at least one checkpoint");
        for log in &mut self.logs {
            log.clear();
        }
        // The checkpoint interval restarts from the restored checkpoint's
        // cycle. On the cycle clock a checkpoint is then due at once, so the
        // directory machine takes one on the cycle it resumes: a snapshot of
        // the state it just restored, which fills an outstanding slot and
        // restarts the interval without recording anything new.
        self.last_checkpoint_at = point.at;
        let latency = REGISTER_CHECKPOINT_CYCLES + RECOVERY_RESTORE_CYCLES;
        let outcome = RecoveryOutcome {
            checkpoint_id: point.id,
            checkpoint_cycle: point.at,
            lost_work_cycles: now.saturating_sub(point.at.max(self.resumed_at)),
            recovery_latency_cycles: latency,
        };
        self.resumed_at = now + latency;
        self.stats.recovery.record(&outcome);
        (point.state.clone(), outcome)
    }
}

/// Latency to checkpoint (and restore) the processor registers (Table 2:
/// 100 cycles).
pub const REGISTER_CHECKPOINT_CYCLES: CycleDelta = 100;

/// How many checkpoint intervals must elapse before an outstanding coherence
/// transaction is declared timed out (Section 4: "a processor times out on
/// its request after three checkpoint intervals").
pub const TIMEOUT_CHECKPOINT_INTERVALS: u64 = 3;

/// Fixed cost of restoring memory-system state and draining the interconnect
/// during a recovery, charged on top of the register-checkpoint restore
/// latency of Table 2. The paper reports that "recovery time varies somewhat,
/// depending on how much work the system loses"; the variable part is the
/// lost work, accounted separately.
pub const RECOVERY_RESTORE_CYCLES: CycleDelta = 1_000;

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SafetyNetConfig {
        SafetyNetConfig {
            checkpoint_interval_cycles: 1_000,
            ..SafetyNetConfig::default()
        }
    }

    fn station() -> SafetyNet<Vec<u32>> {
        SafetyNet::new(cfg(), 4, vec![0], 0)
    }

    #[test]
    fn checkpoint_schedule_follows_the_interval() {
        let mut s = station();
        assert!(!s.should_checkpoint(999));
        assert!(s.should_checkpoint(1_000));
        s.take_checkpoint(1_000, vec![1]);
        assert_eq!(s.latest_checkpoint().state, vec![1]);
        assert!(!s.should_checkpoint(1_500));
        assert!(s.should_checkpoint(2_000));
        assert_eq!(s.outstanding(), 2);
        assert_eq!(s.stats().checkpoints_taken, 1);
    }

    #[test]
    fn old_checkpoints_commit_after_the_validation_window() {
        let mut s = station();
        s.take_checkpoint(1_000, vec![1]);
        s.take_checkpoint(2_000, vec![2]);
        s.take_checkpoint(3_000, vec![3]);
        assert_eq!(s.outstanding(), 4);
        // Validation window = 3 * 1000 cycles. At cycle 4000 the checkpoint
        // taken at 1000 is old enough that the initial checkpoint (cycle 0)
        // can be discarded.
        s.advance(4_000);
        assert_eq!(s.recovery_point().id, 1);
        // Much later, only the newest checkpoint remains as recovery point.
        s.advance(100_000);
        assert_eq!(s.outstanding(), 1);
        assert_eq!(s.recovery_point().id, 3);
        assert_eq!(s.stats().checkpoints_committed, 3);
    }

    #[test]
    fn recovery_returns_the_recovery_point_state_and_costs() {
        let mut s = station();
        s.take_checkpoint(1_000, vec![1]);
        s.take_checkpoint(2_000, vec![2]);
        // Detection at cycle 2_500: recovery point is still the initial
        // checkpoint (nothing has validated yet).
        let (state, outcome) = s.recover(2_500);
        assert_eq!(state, vec![0]);
        assert_eq!(outcome.checkpoint_id, 0);
        assert_eq!(outcome.lost_work_cycles, 2_500);
        assert_eq!(
            outcome.recovery_latency_cycles,
            100 + RECOVERY_RESTORE_CYCLES
        );
        assert_eq!(s.outstanding(), 1);
        assert_eq!(s.latest_checkpoint().id, 0, "newer checkpoints are gone");
        assert_eq!(s.stats().recovery.recoveries, 1);
        // Logging restarts from the restored point.
        assert_eq!(s.log_occupancy(NodeId(0)), 0);
    }

    #[test]
    fn a_second_restore_of_one_checkpoint_charges_only_the_work_since_the_first() {
        let mut s = station();
        let latency = 100 + RECOVERY_RESTORE_CYCLES;
        let (_, first) = s.recover(2_500);
        assert_eq!(first.lost_work_cycles, 2_500);
        // Execution resumed from checkpoint 0 at 2_500 + latency; the
        // second restore of it discards only the work since then.
        let (_, second) = s.recover(4_000);
        assert_eq!(second.checkpoint_id, 0);
        assert_eq!(second.lost_work_cycles, 4_000 - 2_500 - latency);
        // A checkpoint taken since does not move the recovery point: the
        // third restore of checkpoint 0 charges from the second's resume.
        s.take_checkpoint(5_000, vec![5]);
        let (_, third) = s.recover(6_000);
        assert_eq!(third.checkpoint_id, 0);
        assert_eq!(third.lost_work_cycles, 6_000 - 4_000 - latency);
        let total = first.lost_work_cycles + second.lost_work_cycles + third.lost_work_cycles;
        assert_eq!(s.stats().recovery.total_lost_work, total);
        assert!(total + 2 * latency <= 6_000);
    }

    #[test]
    fn recovery_after_validation_rolls_back_less_work() {
        let mut s = station();
        s.take_checkpoint(1_000, vec![1]);
        s.take_checkpoint(2_000, vec![2]);
        s.take_checkpoint(3_000, vec![3]);
        // At cycle 5000 every checkpoint taken at or before cycle 2000 has
        // validated (the 3-interval detection window has passed), so the
        // recovery point is the checkpoint taken at cycle 2000.
        s.advance(5_000);
        let (state, outcome) = s.recover(5_200);
        assert_eq!(state, vec![2]);
        assert_eq!(outcome.checkpoint_cycle, 2_000);
        assert_eq!(outcome.lost_work_cycles, 3_200);
    }

    #[test]
    fn safetynet_derived_values() {
        assert_eq!(LOG_CAPACITY_ENTRIES, 512 * 1024 / 72);
        assert_eq!(REGISTER_CHECKPOINT_CYCLES, 100);
        let s: SafetyNet<u8> = SafetyNet::new(SafetyNetConfig::default(), 1, 0, 0);
        assert_eq!(s.transaction_timeout_cycles(), 300_000);
    }

    #[test]
    fn log_accounting_fills_and_frees_with_commits() {
        let mut s: SafetyNet<u8> = SafetyNet::new(cfg(), 2, 0, 0);
        let rest = LOG_CAPACITY_ENTRIES - 4;
        assert_eq!(s.log_writes(NodeId(0), rest), LogOutcome::Recorded);
        s.take_checkpoint(1_000, 1);
        assert_eq!(s.log_writes(NodeId(0), 4), LogOutcome::Recorded);
        assert_eq!(s.log_writes(NodeId(0), 1), LogOutcome::Full);
        // The other node's log is independent.
        assert_eq!(s.log_writes(NodeId(1), 3), LogOutcome::Recorded);
        // Once the first interval commits, space frees up.
        s.take_checkpoint(2_000, 2);
        s.advance(10_000);
        assert_eq!(s.log_writes(NodeId(0), 5), LogOutcome::Recorded);
    }

    #[test]
    fn can_checkpoint_is_bounded_by_outstanding_limit() {
        let mut s = station();
        let mut now = 0;
        while s.can_checkpoint() {
            now += 1_000;
            s.take_checkpoint(now, vec![]);
            assert!(s.outstanding() <= s.config().max_outstanding_checkpoints + 1);
        }
        // Advancing time validates old checkpoints and allows new ones again.
        s.advance(now + 10_000);
        assert!(s.can_checkpoint());
    }

    #[test]
    fn next_commit_and_checkpoint_are_the_first_cycles_the_schedule_acts() {
        let mut s = station();
        // Only the initial checkpoint: nothing to commit, the next
        // checkpoint is one interval out.
        assert_eq!(s.next_commit_at(), Cycle::MAX);
        assert_eq!(s.next_checkpoint_at(), 1_000);
        assert!(!s.should_checkpoint(999) && s.should_checkpoint(1_000));
        s.take_checkpoint(1_000, vec![1]);
        assert_eq!(s.next_checkpoint_at(), 2_000);
        let mut now = 1_000;
        while s.can_checkpoint() {
            now += 1_000;
            s.take_checkpoint(now, vec![]);
        }
        // Checkpoints are blocked until the checkpoint taken at 1000 leaves
        // the 3000-cycle validation window; nothing commits before then.
        assert_eq!(s.next_checkpoint_at(), Cycle::MAX);
        let commit = 1_000 + 3_000;
        assert_eq!(s.next_commit_at(), commit);
        let before = s.outstanding();
        s.advance(commit - 1);
        assert_eq!(s.outstanding(), before);
        s.advance(commit);
        assert_eq!(s.outstanding(), before - 1);
        assert!(s.can_checkpoint());
    }

    #[test]
    fn zero_entry_log_writes_are_free() {
        let mut s = station();
        assert_eq!(s.log_writes(NodeId(3), 0), LogOutcome::Recorded);
        assert_eq!(s.log_occupancy(NodeId(3)), 0);
        assert_eq!(s.stats().entries_logged, 0);
    }
}
