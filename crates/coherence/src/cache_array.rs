//! Set-associative cache arrays with LRU replacement.
//!
//! Both cache levels of the target system (Table 2: 128 KB 4-way L1, 4 MB
//! 4-way L2) are modelled with the same generic array. The array stores, per
//! resident block, a caller-defined coherence state `S`, the block's data
//! token, and LRU ordering information. Transient (in-flight) blocks do *not*
//! live in the array — they live in the controller's MSHR / writeback buffer,
//! as in a real design — so `S` only ever holds stable states.
//!
//! # Layout
//!
//! The resident lines live in one flat open-addressed table: a
//! power-of-two `Vec` of slots, one line per slot, with linear probing.
//!
//! * **Home slot.** A line's home slot is a Fibonacci hash of its *set
//!   index*, not of its address. All of a set's (at most `ways`) lines
//!   therefore share one home and sit in the probe cluster that starts
//!   there. Finding a block, counting a set's occupancy and choosing its LRU
//!   victim are one scan of that cluster, up to its first empty slot. A hash
//!   of the address would scatter a set over the table and make every
//!   eviction decision a search.
//! * **Deletion** shifts the rest of the cluster back into the hole
//!   (backward-shift deletion), so no tombstones build up and every probe
//!   still ends at the first empty slot.
//! * **Load factor.** The table doubles before an insertion would fill more
//!   than 3/4 of it, and never shrinks. The first insertion allocates 8
//!   slots; a new array owns no table.
//! * **Size.** A slot is an `Option<CacheLine<S>>`: 32 bytes for the
//!   one-byte coherence states and for the L1's `()`. Once grown, the table
//!   is between 3/8 and 3/4 full, so a resident line costs 43–85 bytes.
//!
//! The array owns at most one heap allocation, so cloning it (a SafetyNet
//! checkpoint, a recovery, the first write to a controller shared with a
//! checkpoint) is one copy of the table. Lookups and snoop probes cost
//! O(ways) slot reads. Only [`CacheArray::iter`] pays for set order: it
//! walks every set's home slot, which only the coherence-invariant checks
//! and `Debug` call.

use std::fmt;

use specsim_base::{BlockAddr, BLOCK_SIZE_BYTES};

/// Geometry (sets × ways) of a cache array. The set count is a power of
/// two, so a block's set is the low bits of its address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    sets: usize,
    ways: usize,
}

impl CacheGeometry {
    /// A geometry of `sets` sets of `ways` ways each.
    ///
    /// # Panics
    ///
    /// Panics unless `sets` is a power of two and `ways` is positive.
    #[must_use]
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(ways > 0, "associativity must be positive");
        assert!(
            sets.is_power_of_two(),
            "set count {sets} must be a power of two"
        );
        Self { sets, ways }
    }

    /// Builds a geometry from a capacity in bytes and an associativity,
    /// assuming the global 64-byte block size.
    ///
    /// # Panics
    ///
    /// Panics unless the capacity is a whole, power-of-two number of sets.
    #[must_use]
    pub fn from_capacity(capacity_bytes: usize, ways: usize) -> Self {
        assert!(ways > 0, "associativity must be positive");
        let blocks = capacity_bytes / BLOCK_SIZE_BYTES;
        assert!(blocks >= ways, "cache must hold at least one set");
        assert_eq!(
            blocks % ways,
            0,
            "capacity must be divisible by ways × block size"
        );
        Self::new(blocks / ways, ways)
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total number of blocks the cache can hold.
    #[must_use]
    pub fn capacity_blocks(&self) -> usize {
        self.sets * self.ways
    }

    /// The set `addr` maps to: its low `log2(sets)` bits.
    #[must_use]
    pub fn set_of(&self, addr: BlockAddr) -> usize {
        (addr.0 & (self.sets as u64 - 1)) as usize
    }
}

/// One resident cache block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLine<S> {
    /// The block address stored in this way.
    pub addr: BlockAddr,
    /// Caller-defined (stable) coherence state.
    pub state: S,
    /// Block contents (token value; see [`crate::data`]).
    pub data: u64,
    lru: u64,
}

/// Slots in the table the first insertion allocates.
const MIN_SLOTS: usize = 8;

/// 2^64 divided by the golden ratio: consecutive set indices land far
/// apart in the table's high-bit hash.
const HOME_MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// The home slot of `set` in a table of `2^(64 - shift)` slots.
fn home_slot(set: u32, shift: u32) -> usize {
    (u64::from(set).wrapping_mul(HOME_MULTIPLIER) >> shift) as usize
}

/// What one scan of a set's probe cluster found for a block.
enum SetScan {
    /// The block is resident in this slot.
    Resident(usize),
    /// The block is absent; its set holds `occupancy` lines, the least
    /// recently used in slot `lru`.
    Absent {
        occupancy: usize,
        lru: Option<usize>,
    },
}

/// A set-associative, LRU-replacement cache array, stored as one flat
/// open-addressed table of resident lines (see the [module docs](self)).
///
/// Equality compares contents (the resident lines and the LRU clock), not
/// where the table happens to hold each line.
#[derive(Clone)]
pub struct CacheArray<S> {
    geometry: CacheGeometry,
    /// The table: empty, or a power-of-two number of slots at most 3/4
    /// full.
    slots: Vec<Option<CacheLine<S>>>,
    /// `64 - log2(slots.len())`, the shift that turns a hash into a slot
    /// (unused while the table is empty).
    shift: u32,
    resident: usize,
    lru_clock: u64,
}

impl<S> CacheArray<S> {
    /// Creates an empty array with the given geometry.
    #[must_use]
    pub fn new(geometry: CacheGeometry) -> Self {
        Self {
            geometry,
            slots: Vec::new(),
            shift: 64,
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

    fn home(&self, addr: BlockAddr) -> usize {
        home_slot(self.set_index(addr), self.shift)
    }

    fn next_slot(&self, slot: usize) -> usize {
        (slot + 1) & (self.slots.len() - 1)
    }

    /// The slot holding `addr`, if it is resident.
    fn find(&self, addr: BlockAddr) -> Option<usize> {
        if self.resident == 0 {
            return None;
        }
        let mut slot = self.home(addr);
        while let Some(line) = &self.slots[slot] {
            if line.addr == addr {
                return Some(slot);
            }
            slot = self.next_slot(slot);
        }
        None
    }

    /// Scans `addr`'s probe cluster once: the block's slot if it is
    /// resident, else its set's occupancy and LRU line.
    fn scan_set(&self, addr: BlockAddr) -> SetScan {
        let set = self.set_index(addr);
        let (mut occupancy, mut lru) = (0, None);
        if self.resident == 0 {
            return SetScan::Absent { occupancy, lru };
        }
        let mut oldest = u64::MAX;
        let mut slot = self.home(addr);
        while let Some(line) = &self.slots[slot] {
            if line.addr == addr {
                return SetScan::Resident(slot);
            }
            if self.set_index(line.addr) == set {
                occupancy += 1;
                // LRU stamps are unique, so the minimum does not depend on
                // where the table holds each line.
                if line.lru < oldest {
                    oldest = line.lru;
                    lru = Some(slot);
                }
            }
            slot = self.next_slot(slot);
        }
        SetScan::Absent { occupancy, lru }
    }

    /// Looks a block up without affecting LRU state.
    #[must_use]
    pub fn probe(&self, addr: BlockAddr) -> Option<&CacheLine<S>> {
        self.slots[self.find(addr)?].as_ref()
    }

    /// Looks a block up, updating LRU order, and returns a mutable
    /// reference if resident.
    pub fn lookup(&mut self, addr: BlockAddr) -> Option<&mut CacheLine<S>> {
        self.lru_clock += 1;
        let clock = self.lru_clock;
        let slot = self.find(addr)?;
        let line = self.slots[slot].as_mut()?;
        line.lru = clock;
        Some(line)
    }

    /// Returns a mutable reference to a resident block without touching the
    /// LRU order (for protocol actions that are not demand accesses, e.g.
    /// applying an invalidation).
    pub fn get_mut(&mut self, addr: BlockAddr) -> Option<&mut CacheLine<S>> {
        let slot = self.find(addr)?;
        self.slots[slot].as_mut()
    }

    /// True when inserting `addr` would require evicting a resident block.
    #[must_use]
    pub fn insertion_requires_eviction(&self, addr: BlockAddr) -> bool {
        match self.scan_set(addr) {
            SetScan::Resident(_) => false,
            SetScan::Absent { occupancy, .. } => occupancy >= self.geometry.ways,
        }
    }

    /// The block that would be evicted to make room for `addr` (the LRU line
    /// of the target set), if any.
    #[must_use]
    pub fn eviction_victim(&self, addr: BlockAddr) -> Option<&CacheLine<S>> {
        match self.scan_set(addr) {
            SetScan::Absent {
                occupancy,
                lru: Some(slot),
            } if occupancy >= self.geometry.ways => self.slots[slot].as_ref(),
            _ => None,
        }
    }

    /// Inserts (or overwrites) a block, evicting the LRU line of the set if
    /// necessary, and returns the evicted line.
    pub fn insert(&mut self, addr: BlockAddr, state: S, data: u64) -> Option<CacheLine<S>> {
        self.lru_clock += 1;
        let clock = self.lru_clock;
        let evicted = match self.scan_set(addr) {
            SetScan::Resident(slot) => {
                let line = self.slots[slot].as_mut().expect("resident slot");
                line.state = state;
                line.data = data;
                line.lru = clock;
                return None;
            }
            SetScan::Absent { occupancy, lru } if occupancy >= self.geometry.ways => {
                Some(self.vacate(lru.expect("a full set has an LRU line")))
            }
            SetScan::Absent { .. } => None,
        };
        if (self.resident + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        self.place(CacheLine {
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
        let slot = self.find(addr)?;
        Some(self.vacate(slot))
    }

    /// Stores `line` in the first free slot of its probe cluster.
    fn place(&mut self, line: CacheLine<S>) {
        let mut slot = self.home(line.addr);
        while self.slots[slot].is_some() {
            slot = self.next_slot(slot);
        }
        self.slots[slot] = Some(line);
    }

    /// Takes the line out of `hole`, then walks the rest of the cluster and
    /// shifts back into the hole every line whose home does not lie
    /// between the hole and the line, so every line stays reachable from
    /// its home without crossing an empty slot.
    fn vacate(&mut self, mut hole: usize) -> CacheLine<S> {
        let line = self.slots[hole].take().expect("occupied slot");
        self.resident -= 1;
        let mask = self.slots.len() - 1;
        let mut slot = self.next_slot(hole);
        while let Some(next) = &self.slots[slot] {
            let home = self.home(next.addr);
            if slot.wrapping_sub(home) & mask >= slot.wrapping_sub(hole) & mask {
                self.slots[hole] = self.slots[slot].take();
                hole = slot;
            }
            slot = self.next_slot(slot);
        }
        line
    }

    /// Doubles the table (or allocates the first one) and re-places every
    /// line.
    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(MIN_SLOTS);
        let empty = std::iter::repeat_with(|| None).take(len).collect();
        let old = std::mem::replace(&mut self.slots, empty);
        self.shift = 64 - len.trailing_zeros();
        for line in old.into_iter().flatten() {
            self.place(line);
        }
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

    /// Iterates every resident line in set order, and in block order within
    /// a set. It walks the sets in turn, so it costs O(sets) plus a scan of
    /// each set's probe cluster per line, and allocates nothing; it is
    /// meant for cold paths (coherence-invariant checks, `Debug`).
    pub fn iter(&self) -> impl Iterator<Item = &CacheLine<S>> {
        let sets = if self.resident == 0 {
            0
        } else {
            self.geometry.sets as u32
        };
        (0..sets).flat_map(move |set| self.set_lines(set))
    }

    /// `set`'s resident lines in block order. Each step rescans the set's
    /// probe cluster for the least block above the last one yielded: a set
    /// holds at most `ways` lines.
    fn set_lines(&self, set: u32) -> impl Iterator<Item = &CacheLine<S>> {
        let mut last = None;
        std::iter::from_fn(move || {
            let mut next: Option<&CacheLine<S>> = None;
            let mut slot = home_slot(set, self.shift);
            while let Some(line) = &self.slots[slot] {
                if self.set_index(line.addr) == set
                    && last.map_or(true, |last| line.addr > last)
                    && next.map_or(true, |next| line.addr < next.addr)
                {
                    next = Some(line);
                }
                slot = self.next_slot(slot);
            }
            last = next.map(|line| line.addr);
            next
        })
    }
}

impl<S: PartialEq> PartialEq for CacheArray<S> {
    fn eq(&self, other: &Self) -> bool {
        self.geometry == other.geometry
            && self.resident == other.resident
            && self.lru_clock == other.lru_clock
            && self
                .slots
                .iter()
                .flatten()
                .all(|line| other.probe(line.addr) == Some(line))
    }
}

impl<S: Eq> Eq for CacheArray<S> {}

impl<S: fmt::Debug> fmt::Debug for CacheArray<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CacheArray")
            .field("geometry", &self.geometry)
            .field("lines", &self.iter().collect::<Vec<_>>())
            .field("lru_clock", &self.lru_clock)
            .finish()
    }
}

#[cfg(test)]
mod btree_model;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small() -> CacheArray<u8> {
        // 4 sets x 2 ways.
        CacheArray::new(CacheGeometry::new(4, 2))
    }

    #[test]
    fn geometry_from_capacity_matches_table_2() {
        let l1 = CacheGeometry::from_capacity(128 * 1024, 4);
        assert_eq!(l1.sets(), 512);
        assert_eq!(l1.capacity_blocks(), 2048);
        let l2 = CacheGeometry::from_capacity(4 * 1024 * 1024, 4);
        assert_eq!(l2.sets(), 16384);
        assert_eq!(l2.capacity_blocks(), 65536);
    }

    #[test]
    #[should_panic(expected = "set count 48 must be a power of two")]
    fn a_set_count_that_is_not_a_power_of_two_is_rejected() {
        let _ = CacheGeometry::from_capacity(48 * 4 * 64, 4);
    }

    #[test]
    fn a_block_maps_to_its_low_address_bits() {
        let geometry = CacheGeometry::new(512, 4);
        for addr in [0, 1, 511, 512, 513, 0x1234_5678_9abc, u64::MAX] {
            assert_eq!(geometry.set_of(BlockAddr(addr)), (addr % 512) as usize);
        }
    }

    #[test]
    fn iteration_walks_sets_in_order_and_blocks_in_order_within_a_set() {
        let mut c: CacheArray<()> = CacheArray::new(CacheGeometry::new(4, 4));
        assert_eq!(c.iter().count(), 0);
        for a in [13, 2, 9, 4, 1, 6, 0, 5] {
            c.insert(BlockAddr(a), (), 0);
        }
        let order: Vec<u64> = c.iter().map(|line| line.addr.0).collect();
        assert_eq!(order, [0, 4, 1, 5, 9, 13, 2, 6]);
    }

    #[test]
    fn insert_then_lookup_hits() {
        let mut c = small();
        assert!(c.lookup(BlockAddr(4)).is_none());
        c.insert(BlockAddr(4), 1, 42);
        let line = c.lookup(BlockAddr(4)).expect("resident");
        assert_eq!(line.data, 42);
        assert_eq!(line.state, 1);
    }

    #[test]
    fn lru_line_is_evicted_when_a_set_overflows() {
        let mut c = small();
        // Blocks 0, 4, 8 all map to set 0 (4 sets).
        c.insert(BlockAddr(0), 0, 10);
        c.insert(BlockAddr(4), 0, 20);
        // Touch block 0 so block 4 becomes LRU.
        c.lookup(BlockAddr(0));
        let evicted = c.insert(BlockAddr(8), 0, 30).expect("eviction");
        assert_eq!(evicted.addr, BlockAddr(4));
        assert!(c.probe(BlockAddr(0)).is_some());
        assert!(c.probe(BlockAddr(8)).is_some());
        assert!(c.probe(BlockAddr(4)).is_none());
    }

    #[test]
    fn eviction_victim_predicts_the_evicted_line() {
        let mut c = small();
        c.insert(BlockAddr(0), 0, 1);
        c.insert(BlockAddr(4), 0, 2);
        assert!(c.insertion_requires_eviction(BlockAddr(8)));
        let victim = c.eviction_victim(BlockAddr(8)).unwrap().addr;
        let evicted = c.insert(BlockAddr(8), 0, 3).unwrap().addr;
        assert_eq!(victim, evicted);
        // A resident block never needs an eviction.
        assert!(!c.insertion_requires_eviction(BlockAddr(8)));
        assert!(c.eviction_victim(BlockAddr(8)).is_none());
    }

    #[test]
    fn reinserting_a_resident_block_updates_in_place() {
        let mut c = small();
        c.insert(BlockAddr(3), 1, 5);
        assert!(c.insert(BlockAddr(3), 2, 6).is_none());
        assert_eq!(c.len(), 1);
        let line = c.probe(BlockAddr(3)).unwrap();
        assert_eq!(line.state, 2);
        assert_eq!(line.data, 6);
    }

    #[test]
    fn remove_extracts_the_line() {
        let mut c = small();
        c.insert(BlockAddr(7), 9, 70);
        let line = c.remove(BlockAddr(7)).unwrap();
        assert_eq!(line.state, 9);
        assert!(c.is_empty());
        assert!(c.remove(BlockAddr(7)).is_none());
    }

    #[test]
    fn a_slot_is_32_bytes_for_the_protocols_line_states() {
        use crate::hierarchy::CacheState;
        assert_eq!(std::mem::size_of::<Option<CacheLine<()>>>(), 32);
        assert_eq!(std::mem::size_of::<Option<CacheLine<CacheState>>>(), 32);
    }

    #[test]
    fn the_table_grows_at_three_quarters_load() {
        let mut c: CacheArray<()> = CacheArray::new(CacheGeometry::new(64, 4));
        assert!(c.slots.is_empty());
        for a in 0..6 {
            c.insert(BlockAddr(a), (), 0);
        }
        assert_eq!(c.slots.len(), 8);
        c.insert(BlockAddr(6), (), 0);
        assert_eq!(c.slots.len(), 16);
        for a in 7..256 {
            c.insert(BlockAddr(a), (), 0);
        }
        assert_eq!(c.len(), 256);
        assert_eq!(c.slots.len(), 512);
        assert!((0..256).all(|a| c.probe(BlockAddr(a)).is_some()));
    }

    #[test]
    fn equality_ignores_where_the_table_holds_each_line() {
        // Two sets sharing a home slot, filled in opposite orders: the
        // table layouts differ, the contents do not.
        let geometry = CacheGeometry::new(64, 4);
        let shift = 64 - MIN_SLOTS.trailing_zeros();
        let (a, b) = (0..64u64)
            .flat_map(|a| (a + 1..64).map(move |b| (a, b)))
            .find(|&(a, b)| home_slot(a as u32, shift) == home_slot(b as u32, shift))
            .expect("8 slots cannot separate 64 sets");
        let mut x: CacheArray<u8> = CacheArray::new(geometry);
        let mut y: CacheArray<u8> = CacheArray::new(geometry);
        x.insert(BlockAddr(a), 1, 10);
        x.insert(BlockAddr(b), 2, 20);
        y.insert(BlockAddr(b), 2, 20);
        y.insert(BlockAddr(a), 1, 10);
        // Same lines, but stamped in a different order.
        assert_ne!(x, y);
        y.lookup(BlockAddr(a));
        y.lookup(BlockAddr(b));
        x.lookup(BlockAddr(a));
        x.lookup(BlockAddr(b));
        assert_ne!(x.slots, y.slots);
        assert_eq!(x, y);
        assert_eq!(format!("{x:?}"), format!("{y:?}"));
    }

    proptest! {
        #[test]
        fn occupancy_never_exceeds_geometry(addrs in proptest::collection::vec(0u64..64, 0..200)) {
            let mut c = small();
            for a in addrs {
                c.insert(BlockAddr(a), 0u8, a);
                prop_assert!(c.len() <= c.geometry().capacity_blocks());
                // Every set individually respects associativity.
                for s in 0..4 {
                    let in_set = c.iter().filter(|l| c.geometry().set_of(l.addr) == s).count();
                    prop_assert!(in_set <= 2);
                }
            }
        }

        #[test]
        fn most_recently_inserted_block_is_always_resident(
            addrs in proptest::collection::vec(0u64..64, 1..100)
        ) {
            let mut c = small();
            for a in &addrs {
                c.insert(BlockAddr(*a), 0u8, *a);
                prop_assert!(c.probe(BlockAddr(*a)).is_some());
            }
        }
    }

    // ------------------------------------------------------------------
    // Model equivalence: the flat table against the B-tree of sets it
    // replaced. Random operation sequences must leave both with the same
    // returned lines, evicted lines, length, set-order iteration and
    // equality.
    // ------------------------------------------------------------------

    use btree_model::BTreeCacheArray;

    /// The geometries under test: direct-mapped single line, a tiny cache,
    /// the snooping L1's shape in miniature, and a highly associative one.
    const MODEL_GEOMETRIES: [(usize, usize); 4] = [(1, 1), (4, 2), (64, 4), (16, 16)];

    /// Up to eight sets of `geometry` whose home slots collide, or sit one
    /// slot apart, in the largest table the geometry can reach: they also
    /// collide in every smaller table, so their clusters interleave.
    fn colliding_sets(geometry: CacheGeometry) -> Vec<u64> {
        let max_slots = (geometry.capacity_blocks() * 4 / 3 + 1).next_power_of_two();
        let shift = 64 - max_slots.max(MIN_SLOTS).trailing_zeros();
        let mut sets: Vec<u64> = (0..geometry.sets() as u64).collect();
        sets.sort_by_key(|&s| (home_slot(s as u32, shift), s));
        let window = sets.len().min(8);
        let start = (0..=sets.len() - window)
            .min_by_key(|&i| {
                home_slot(sets[i + window - 1] as u32, shift) - home_slot(sets[i] as u32, shift)
            })
            .expect("at least one set");
        sets[start..start + window].to_vec()
    }

    /// The block that operand `pick` names. Half the picks address any of
    /// three capacities' worth of blocks (set conflicts); the other half
    /// stay within the colliding sets (home-slot conflicts).
    fn pick_block(geometry: CacheGeometry, colliding: &[u64], pick: u64) -> BlockAddr {
        let sets = geometry.sets() as u64;
        let tags = 3 * geometry.ways() as u64;
        if pick % 2 == 0 {
            BlockAddr((pick / 2) % (sets * tags))
        } else {
            let pick = pick / 2;
            let set = colliding[(pick % colliding.len() as u64) as usize];
            BlockAddr(set + sets * ((pick / colliding.len() as u64) % tags))
        }
    }

    /// Applies one operation to both arrays and checks they agree on its
    /// result and on every observable afterwards.
    fn step_both(
        flat: &mut CacheArray<u8>,
        model: &mut BTreeCacheArray<u8>,
        op: u64,
        addr: BlockAddr,
        value: u64,
    ) -> Result<(), TestCaseError> {
        match op {
            0 | 1 => prop_assert_eq!(
                flat.insert(addr, value as u8, value),
                model.insert(addr, value as u8, value)
            ),
            2 => prop_assert_eq!(flat.lookup(addr).copied(), model.lookup(addr).copied()),
            3 => prop_assert_eq!(flat.probe(addr), model.probe(addr)),
            4 => {
                let (f, m) = (flat.get_mut(addr), model.get_mut(addr));
                prop_assert_eq!(f.as_deref(), m.as_deref());
                if let (Some(f), Some(m)) = (f, m) {
                    f.data = value;
                    m.data = value;
                }
            }
            5 => prop_assert_eq!(flat.remove(addr), model.remove(addr)),
            _ => {
                prop_assert_eq!(
                    flat.insertion_requires_eviction(addr),
                    model.insertion_requires_eviction(addr)
                );
                prop_assert_eq!(flat.eviction_victim(addr), model.eviction_victim(addr));
            }
        }
        prop_assert_eq!(flat.len(), model.len());
        prop_assert_eq!(flat.is_empty(), model.is_empty());
        prop_assert!(flat.slots.iter().flatten().count() == flat.len());
        Ok(())
    }

    /// Both arrays' lines, in the flat array's iteration order: set order,
    /// then block order. The B-tree iterates in set order too, and within
    /// a set in insertion order, so its lines are sorted the same way
    /// after checking that its set order agrees.
    fn same_contents(
        flat: &CacheArray<u8>,
        model: &BTreeCacheArray<u8>,
    ) -> Result<(), TestCaseError> {
        let geometry = flat.geometry();
        let set_of = |l: &&CacheLine<u8>| geometry.set_of(l.addr);
        let flat_lines: Vec<&CacheLine<u8>> = flat.iter().collect();
        let mut model_lines: Vec<&CacheLine<u8>> = model.iter().collect();
        let model_sets: Vec<usize> = model_lines.iter().map(set_of).collect();
        prop_assert_eq!(
            flat_lines.iter().map(set_of).collect::<Vec<_>>(),
            model_sets
        );
        model_lines.sort_by_key(|l| (geometry.set_of(l.addr), l.addr));
        prop_assert_eq!(flat_lines, model_lines);
        Ok(())
    }

    fn check_against_model(
        (sets, ways): (usize, usize),
        ops: &[(u64, u64, u64)],
    ) -> Result<(), TestCaseError> {
        let geometry = CacheGeometry::new(sets, ways);
        let colliding = colliding_sets(geometry);
        let mut flat = CacheArray::new(geometry);
        let mut model = BTreeCacheArray::new(geometry);
        prop_assert_eq!(flat.geometry(), model.geometry());
        // Copies taken halfway, then driven by the second half on both
        // sides of each copy: a copy shares nothing with its source.
        let mut copies: Option<(CacheArray<u8>, BTreeCacheArray<u8>)> = None;
        for (i, &(op, pick, value)) in ops.iter().enumerate() {
            let addr = pick_block(geometry, &colliding, pick);
            step_both(&mut flat, &mut model, op, addr, value)?;
            if let Some((flat_copy, model_copy)) = copies.as_mut() {
                let mirrored = (op + 1) % 7;
                step_both(flat_copy, model_copy, mirrored, addr, value ^ 0xff)?;
                prop_assert_eq!(*flat_copy == flat, *model_copy == model);
            } else if i == ops.len() / 2 {
                prop_assert!(flat.clone() == flat);
                copies = Some((flat.clone(), model.clone()));
            }
        }
        same_contents(&flat, &model)?;
        prop_assert_eq!(flat.clone() == flat, model.clone() == model);
        if let Some((flat_copy, model_copy)) = copies {
            same_contents(&flat_copy, &model_copy)?;
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn flat_table_matches_the_btree_model(
            geometry in 0usize..MODEL_GEOMETRIES.len(),
            ops in proptest::collection::vec((0u64..7, 0u64..4096, 0u64..256), 0..600),
        ) {
            check_against_model(MODEL_GEOMETRIES[geometry], &ops)?;
        }
    }

    #[test]
    fn every_geometry_matches_the_btree_model_on_a_long_stream() {
        let mut rng = specsim_base::DetRng::new(4243);
        for geometry in MODEL_GEOMETRIES {
            let ops: Vec<(u64, u64, u64)> = (0..20_000)
                .map(|_| (rng.next_below(7), rng.next_below(4096), rng.next_below(256)))
                .collect();
            if let Err(e) = check_against_model(geometry, &ops) {
                panic!("{geometry:?}: {e}");
            }
        }
    }
}
