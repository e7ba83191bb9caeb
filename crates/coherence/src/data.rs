//! Per-home-node memory storage with a count of logged writes.
//!
//! The simulator models a cache block's contents as a single `u64` token
//! value rather than 64 raw bytes: every store writes a fresh token, so data
//! propagation bugs (a cache supplying stale data, a lost writeback) show up
//! as token mismatches in tests. The home node's [`MemoryStore`] is the
//! architectural backing store. It counts the writes since the last
//! [`MemoryStore::take_write_log`]: each is one pre-image SafetyNet logs
//! incrementally in hardware (Table 2: 72-byte log entries = 64-byte block
//! pre-image + metadata), so the count is what the log's capacity
//! accounting needs. Rollback itself restores the checkpointed clone of
//! the store, so no pre-image is kept.

use specsim_base::{BlockAddr, FastMap};

/// Sparse block-granularity memory contents for one home node.
///
/// Untouched blocks read as zero, mirroring a zero-initialised machine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryStore {
    blocks: FastMap<BlockAddr, u64>,
    /// Writes not yet drained into the SafetyNet log.
    unlogged_writes: usize,
}

impl MemoryStore {
    /// Creates an empty (all-zero) memory.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads a block's current value.
    #[must_use]
    pub fn read(&self, addr: BlockAddr) -> u64 {
        self.blocks.get(&addr).copied().unwrap_or(0)
    }

    /// Writes a block and counts one write for the SafetyNet log.
    pub fn write(&mut self, addr: BlockAddr, value: u64) {
        self.unlogged_writes += 1;
        if value == 0 {
            self.blocks.remove(&addr);
        } else {
            self.blocks.insert(addr, value);
        }
    }

    /// Returns and clears the number of writes since the last call. The
    /// system-assembly crate feeds this count into the SafetyNet log's
    /// capacity accounting.
    pub fn take_write_log(&mut self) -> usize {
        std::mem::take(&mut self.unlogged_writes)
    }

    /// True when writes are logged since the last
    /// [`MemoryStore::take_write_log`] (a read-only check before a drain).
    #[must_use]
    pub fn has_write_log(&self) -> bool {
        self.unlogged_writes > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_blocks_read_zero() {
        let m = MemoryStore::new();
        assert_eq!(m.read(BlockAddr(123)), 0);
        assert_eq!(m.read(BlockAddr(9999)), 0);
    }

    #[test]
    fn writes_are_visible_and_logged() {
        let mut m = MemoryStore::new();
        m.write(BlockAddr(1), 10);
        m.write(BlockAddr(1), 20);
        m.write(BlockAddr(2), 30);
        assert_eq!(m.read(BlockAddr(1)), 20);
        assert_eq!(m.read(BlockAddr(2)), 30);
        assert!(m.has_write_log());
        assert_eq!(m.take_write_log(), 3);
        // The log is consumed.
        assert!(!m.has_write_log());
        assert_eq!(m.take_write_log(), 0);
    }
}
