//! Per-node checkpoint log buffers.
//!
//! SafetyNet logs the pre-image of every block the first time it is modified
//! in a checkpoint interval. The log buffer is a fixed hardware resource
//! (Table 2: 512 KB, 72-byte entries, ≈ 7 281 entries per node); entries are
//! only reclaimed when the checkpoint interval they belong to commits. If a
//! node's log fills, that node must stall speculative progress until a
//! commit frees space — a performance effect, never a correctness loss.

/// Capacity of each node's checkpoint log buffer in bytes (Table 2:
/// 512 KB).
pub const LOG_BUFFER_BYTES: usize = 512 * 1024;

/// Size of one log entry in bytes (Table 2: 72 bytes — a 64-byte block
/// pre-image plus an 8-byte address/metadata word).
pub const LOG_ENTRY_BYTES: usize = 72;

/// Log entries that fit in one node's checkpoint log buffer.
pub const LOG_CAPACITY_ENTRIES: usize = LOG_BUFFER_BYTES / LOG_ENTRY_BYTES;

/// Result of attempting to append entries to a node's log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogOutcome {
    /// The entries were recorded.
    Recorded,
    /// The log is full; the node must stall until a checkpoint commits.
    Full,
}

/// The checkpoint log buffer of one node.
#[derive(Debug, Clone)]
pub struct NodeLog {
    capacity_entries: usize,
    /// Entries belonging to each outstanding (uncommitted) checkpoint
    /// interval, oldest first. The last element is the active interval.
    per_interval: Vec<usize>,
}

impl NodeLog {
    /// Creates an empty log of `capacity_entries` entries (a node's log
    /// holds [`LOG_CAPACITY_ENTRIES`]).
    #[must_use]
    pub fn new(capacity_entries: usize) -> Self {
        Self {
            capacity_entries,
            per_interval: vec![0],
        }
    }

    /// Entries currently held (across all outstanding intervals).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.per_interval.iter().sum()
    }

    /// Appends `entries` pre-image records to the active interval.
    pub fn record(&mut self, entries: usize) -> LogOutcome {
        if self.occupancy() + entries > self.capacity_entries {
            return LogOutcome::Full;
        }
        *self
            .per_interval
            .last_mut()
            .expect("log always has an active interval") += entries;
        LogOutcome::Recorded
    }

    /// Starts a new checkpoint interval (called when a checkpoint is taken).
    pub fn start_interval(&mut self) {
        self.per_interval.push(0);
    }

    /// Frees the oldest interval's entries (called when the oldest
    /// outstanding checkpoint commits).
    pub fn commit_oldest(&mut self) {
        if self.per_interval.len() > 1 {
            self.per_interval.remove(0);
        } else {
            // Only the active interval exists; committing it empties it.
            self.per_interval[0] = 0;
        }
    }

    /// Discards everything (after a recovery the speculative intervals are
    /// meaningless; logging restarts from the restored state).
    pub fn clear(&mut self) {
        self.per_interval = vec![0];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_matches_table_2() {
        assert_eq!(LOG_BUFFER_BYTES, 512 * 1024);
        assert_eq!(LOG_ENTRY_BYTES, 72);
        let mut log = NodeLog::new(LOG_CAPACITY_ENTRIES);
        let capacity = 512 * 1024 / 72;
        assert_eq!(log.record(capacity), LogOutcome::Recorded);
        assert_eq!(log.record(1), LogOutcome::Full);
        assert_eq!(log.occupancy(), capacity);
    }

    #[test]
    fn record_accumulates_until_full() {
        let mut log = NodeLog::new(10);
        assert_eq!(log.record(6), LogOutcome::Recorded);
        assert_eq!(log.record(4), LogOutcome::Recorded);
        assert_eq!(log.record(1), LogOutcome::Full);
        assert_eq!(log.occupancy(), 10);
    }

    #[test]
    fn committing_the_oldest_interval_frees_its_entries() {
        let mut log = NodeLog::new(10);
        log.record(5);
        log.start_interval();
        log.record(3);
        assert_eq!(log.occupancy(), 8);
        // The log is 10 entries: a full one takes no more until the oldest
        // interval commits.
        assert_eq!(log.record(3), LogOutcome::Full);
        log.commit_oldest();
        assert_eq!(log.occupancy(), 3);
        assert_eq!(log.record(3), LogOutcome::Recorded);
        // Committing when only the active interval remains empties it.
        log.commit_oldest();
        assert_eq!(log.occupancy(), 0);
    }

    #[test]
    fn clear_resets_to_a_single_empty_interval() {
        let mut log = NodeLog::new(LOG_CAPACITY_ENTRIES);
        log.record(100);
        log.start_interval();
        log.record(50);
        log.clear();
        assert_eq!(log.occupancy(), 0);
        // One interval is left: committing it frees what it logs next.
        log.record(10);
        log.commit_oldest();
        assert_eq!(log.occupancy(), 0);
    }
}
