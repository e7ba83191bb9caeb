//! The B-tree-of-sets cache array that the flat open-addressed
//! [`super::CacheArray`] replaced, kept (renamed, and without the
//! hit/miss/eviction counters both arrays have since dropped) as the
//! reference model of the model-equivalence tests: random operation
//! sequences must leave both with the same observable behaviour.

use std::collections::BTreeMap;

use specsim_base::BlockAddr;

use super::{CacheGeometry, CacheLine};

/// A set-associative, LRU-replacement cache array.
///
/// Sets are stored sparsely: only sets with at least one resident line own
/// a `Vec` (keyed by set index, so iteration stays in set order). A dense
/// `Vec<Vec<_>>` of 16 K mostly-empty sets per node made cloning the
/// architectural state for a SafetyNet checkpoint cost O(nodes × sets) —
/// ~100 ms per checkpoint at 256 nodes — where the sparse map costs
/// O(resident lines).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BTreeCacheArray<S> {
    geometry: CacheGeometry,
    sets: BTreeMap<u32, Vec<CacheLine<S>>>,
    resident: usize,
    lru_clock: u64,
}

impl<S> BTreeCacheArray<S> {
    /// Creates an empty array with the given geometry.
    #[must_use]
    pub fn new(geometry: CacheGeometry) -> Self {
        Self {
            geometry,
            sets: BTreeMap::new(),
            resident: 0,
            lru_clock: 0,
        }
    }

    /// The array's geometry.
    #[must_use]
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    fn set_index(&self, addr: BlockAddr) -> u32 {
        self.geometry.set_of(addr) as u32
    }

    /// Looks a block up without affecting LRU state.
    #[must_use]
    pub fn probe(&self, addr: BlockAddr) -> Option<&CacheLine<S>> {
        self.sets
            .get(&self.set_index(addr))?
            .iter()
            .find(|l| l.addr == addr)
    }

    /// Looks a block up, updating LRU order, and returns a mutable
    /// reference if resident.
    pub fn lookup(&mut self, addr: BlockAddr) -> Option<&mut CacheLine<S>> {
        self.lru_clock += 1;
        let clock = self.lru_clock;
        let set = self.set_index(addr);
        let found = self
            .sets
            .get_mut(&set)
            .and_then(|s| s.iter_mut().find(|l| l.addr == addr));
        let line = found?;
        line.lru = clock;
        Some(line)
    }

    /// Returns a mutable reference to a resident block without touching the
    /// LRU order (for protocol actions that are not demand accesses, e.g.
    /// applying an invalidation).
    pub fn get_mut(&mut self, addr: BlockAddr) -> Option<&mut CacheLine<S>> {
        let set = self.set_index(addr);
        self.sets.get_mut(&set)?.iter_mut().find(|l| l.addr == addr)
    }

    /// True when inserting `addr` would require evicting a resident block.
    #[must_use]
    pub fn insertion_requires_eviction(&self, addr: BlockAddr) -> bool {
        let occupancy = self.sets.get(&self.set_index(addr)).map_or(0, Vec::len);
        self.probe(addr).is_none() && occupancy >= self.geometry.ways
    }

    /// The block that would be evicted to make room for `addr` (the LRU line
    /// of the target set), if any.
    #[must_use]
    pub fn eviction_victim(&self, addr: BlockAddr) -> Option<&CacheLine<S>> {
        if !self.insertion_requires_eviction(addr) {
            return None;
        }
        self.sets
            .get(&self.set_index(addr))?
            .iter()
            .min_by_key(|l| l.lru)
    }

    /// Inserts (or overwrites) a block, evicting the LRU line of the set if
    /// necessary, and returns the evicted line.
    pub fn insert(&mut self, addr: BlockAddr, state: S, data: u64) -> Option<CacheLine<S>> {
        self.lru_clock += 1;
        let clock = self.lru_clock;
        let ways = self.geometry.ways;
        let set_idx = self.set_index(addr);
        let set = self.sets.entry(set_idx).or_default();
        if let Some(line) = set.iter_mut().find(|l| l.addr == addr) {
            line.state = state;
            line.data = data;
            line.lru = clock;
            return None;
        }
        let evicted = if set.len() >= ways {
            let victim_pos = set
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.lru)
                .map(|(i, _)| i)
                .expect("non-empty set");
            self.resident -= 1;
            Some(set.swap_remove(victim_pos))
        } else {
            None
        };
        set.push(CacheLine {
            addr,
            state,
            data,
            lru: clock,
        });
        self.resident += 1;
        evicted
    }

    /// Removes a block (invalidation or migration to the writeback buffer)
    /// and returns it.
    pub fn remove(&mut self, addr: BlockAddr) -> Option<CacheLine<S>> {
        let set_idx = self.set_index(addr);
        let set = self.sets.get_mut(&set_idx)?;
        let pos = set.iter().position(|l| l.addr == addr)?;
        let line = set.swap_remove(pos);
        self.resident -= 1;
        // Normalise: an emptied set leaves the map, so equality and clone
        // cost depend only on resident lines.
        if set.is_empty() {
            self.sets.remove(&set_idx);
        }
        Some(line)
    }

    /// Number of resident blocks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.resident
    }

    /// True when no blocks are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.resident == 0
    }

    /// Iterates every resident line, in set order (matching the dense
    /// representation this replaced).
    pub fn iter(&self) -> impl Iterator<Item = &CacheLine<S>> {
        self.sets.values().flatten()
    }
}
