//! Per-home-node memory storage with an undo (write) log.
//!
//! The simulator models a cache block's contents as a single `u64` token
//! value rather than 64 raw bytes: every store writes a fresh token, so data
//! propagation bugs (a cache supplying stale data, a lost writeback, an undo
//! applied in the wrong order) show up as token mismatches in tests. The
//! home node's [`MemoryStore`] is the architectural backing store; it records
//! an undo entry (block address, previous value) for every write since the
//! last [`MemoryStore::take_write_log`], which is exactly the information
//! SafetyNet logs incrementally in hardware (Table 2: 72-byte log entries =
//! 64-byte block pre-image + metadata).

use specsim_base::{BlockAddr, FastMap};

/// One undo-log entry: the block and the value it held before the write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteLogEntry {
    /// The block that was overwritten.
    pub addr: BlockAddr,
    /// Its value before the write (the pre-image SafetyNet would log).
    pub previous: u64,
}

/// Sparse block-granularity memory contents for one home node.
///
/// Untouched blocks read as zero, mirroring a zero-initialised machine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryStore {
    blocks: FastMap<BlockAddr, u64>,
    write_log: Vec<WriteLogEntry>,
    writes: u64,
    reads: u64,
}

impl MemoryStore {
    /// Creates an empty (all-zero) memory.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads a block's current value.
    pub fn read(&mut self, addr: BlockAddr) -> u64 {
        self.reads += 1;
        self.blocks.get(&addr).copied().unwrap_or(0)
    }

    /// Reads a block without counting the access (for assertions/diagnostics).
    #[must_use]
    pub fn peek(&self, addr: BlockAddr) -> u64 {
        self.blocks.get(&addr).copied().unwrap_or(0)
    }

    /// Writes a block and records an undo entry with its previous value.
    pub fn write(&mut self, addr: BlockAddr, value: u64) {
        let previous = self.blocks.get(&addr).copied().unwrap_or(0);
        self.write_log.push(WriteLogEntry { addr, previous });
        self.writes += 1;
        if value == 0 {
            self.blocks.remove(&addr);
        } else {
            self.blocks.insert(addr, value);
        }
    }

    /// Returns and clears the undo entries accumulated since the last call.
    /// The system-assembly crate feeds these into the SafetyNet log (for
    /// capacity accounting) and into the active checkpoint (for rollback).
    pub fn take_write_log(&mut self) -> Vec<WriteLogEntry> {
        std::mem::take(&mut self.write_log)
    }

    /// True when writes are logged since the last
    /// [`MemoryStore::take_write_log`] (a read-only check before a drain).
    #[must_use]
    pub fn has_write_log(&self) -> bool {
        !self.write_log.is_empty()
    }

    /// Applies undo entries in reverse order, restoring the memory image that
    /// existed before those writes. `entries` must be the concatenation, in
    /// program order, of logs previously taken from this store.
    pub fn apply_undo(&mut self, entries: &[WriteLogEntry]) {
        for e in entries.iter().rev() {
            if e.previous == 0 {
                self.blocks.remove(&e.addr);
            } else {
                self.blocks.insert(e.addr, e.previous);
            }
        }
    }

    /// Number of writes performed since construction.
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Number of reads performed since construction.
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of blocks currently holding a non-zero value.
    #[must_use]
    pub fn populated_blocks(&self) -> usize {
        self.blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn unwritten_blocks_read_zero() {
        let mut m = MemoryStore::new();
        assert_eq!(m.read(BlockAddr(123)), 0);
        assert_eq!(m.peek(BlockAddr(9999)), 0);
    }

    #[test]
    fn writes_are_visible_and_logged() {
        let mut m = MemoryStore::new();
        m.write(BlockAddr(1), 10);
        m.write(BlockAddr(1), 20);
        m.write(BlockAddr(2), 30);
        assert_eq!(m.read(BlockAddr(1)), 20);
        assert_eq!(m.read(BlockAddr(2)), 30);
        let log = m.take_write_log();
        assert_eq!(
            log,
            vec![
                WriteLogEntry {
                    addr: BlockAddr(1),
                    previous: 0
                },
                WriteLogEntry {
                    addr: BlockAddr(1),
                    previous: 10
                },
                WriteLogEntry {
                    addr: BlockAddr(2),
                    previous: 0
                },
            ]
        );
        // The log is consumed.
        assert!(m.take_write_log().is_empty());
    }

    #[test]
    fn undo_restores_previous_image() {
        let mut m = MemoryStore::new();
        m.write(BlockAddr(1), 10);
        m.write(BlockAddr(2), 20);
        let checkpoint_log = m.take_write_log();
        // Later writes that will be rolled back.
        m.write(BlockAddr(1), 99);
        m.write(BlockAddr(3), 77);
        m.write(BlockAddr(1), 100);
        let speculative_log = m.take_write_log();
        m.apply_undo(&speculative_log);
        assert_eq!(m.peek(BlockAddr(1)), 10);
        assert_eq!(m.peek(BlockAddr(2)), 20);
        assert_eq!(m.peek(BlockAddr(3)), 0);
        // The pre-checkpoint log can also be undone, returning to reset state.
        m.apply_undo(&checkpoint_log);
        assert_eq!(m.peek(BlockAddr(1)), 0);
        assert_eq!(m.peek(BlockAddr(2)), 0);
        assert_eq!(m.populated_blocks(), 0);
    }

    #[test]
    fn access_counters_track_reads_and_writes() {
        let mut m = MemoryStore::new();
        m.write(BlockAddr(5), 1);
        m.read(BlockAddr(5));
        m.read(BlockAddr(6));
        assert_eq!(m.writes(), 1);
        assert_eq!(m.reads(), 2);
    }

    proptest! {
        #[test]
        fn undo_of_any_write_sequence_restores_the_snapshot(
            pre in proptest::collection::vec((0u64..32, 1u64..1000), 0..30),
            post in proptest::collection::vec((0u64..32, 1u64..1000), 0..60),
        ) {
            let mut m = MemoryStore::new();
            for (a, v) in &pre {
                m.write(BlockAddr(*a), *v);
            }
            m.take_write_log();
            // Capture the reference image.
            let reference: Vec<u64> = (0..32).map(|a| m.peek(BlockAddr(a))).collect();
            for (a, v) in &post {
                m.write(BlockAddr(*a), *v);
            }
            let log = m.take_write_log();
            m.apply_undo(&log);
            let after: Vec<u64> = (0..32).map(|a| m.peek(BlockAddr(a))).collect();
            prop_assert_eq!(reference, after);
        }
    }
}
