//! Shared buffer-slot pools for the speculative interconnect
//! ([`crate::Buffering::SharedPool`]).
//!
//! The conventional design sizes each virtual network/channel buffer for its
//! worst case; the Section 4 speculation replaces that analysis with one
//! shared pool of message slots per node, covering every input-port buffer
//! and ejection queue of that node's switch/endpoint. Any class may use any
//! slot, so the pool can be sized near the *common case* — and
//! buffer-dependency cycles across classes become possible (Figures 2–3).
//!
//! After a deadlock-detected recovery, the forward-progress measure
//! ([`SlotPool::set_reservation`]) partitions part of the pool back into
//! per-virtual-network reservations — the paper's "revert to conservative"
//! recipe — so re-execution cannot immediately re-create the same cycle;
//! the reservation is lifted once the window expires.

use crate::packet::VirtualNetwork;

/// Number of virtual networks (message classes) the pool accounts for.
const NUM_VNETS: usize = 4;

/// Per-node shared slot pool: tracks, per virtual network, how many of the
/// node's `total` message slots are held, and optionally guarantees each
/// network a reserved minimum (the conservative re-execution mode).
///
/// Accounting model with a reservation of `r` slots per network: each
/// network owns `r` private slots; the remaining `total - 4*r` slots are
/// shared. A network holding `u` slots consumes `min(u, r)` private slots
/// and `max(0, u - r)` shared slots. With `r = 0` (normal operation) the
/// pool degenerates to a single occupancy counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotPool {
    total: usize,
    in_use: [usize; NUM_VNETS],
    reserved_per_vnet: usize,
}

impl SlotPool {
    /// A pool of `total` slots, fully shared (no reservations).
    #[must_use]
    pub fn new(total: usize) -> Self {
        assert!(total > 0, "a shared pool needs at least one slot");
        Self {
            total,
            in_use: [0; NUM_VNETS],
            reserved_per_vnet: 0,
        }
    }

    /// Total slots in the pool.
    #[must_use]
    pub fn total(&self) -> usize {
        self.total
    }

    /// Slots currently held across all networks.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.in_use.iter().sum()
    }

    /// Slots currently held by one network.
    #[must_use]
    pub fn in_use(&self, vnet: usize) -> usize {
        self.in_use[vnet]
    }

    /// The per-network reservation currently in force (0 = fully shared).
    #[must_use]
    pub fn reservation(&self) -> usize {
        self.reserved_per_vnet
    }

    /// Shared (unreserved) slots currently consumed.
    fn shared_used(&self) -> usize {
        self.in_use
            .iter()
            .map(|&u| u.saturating_sub(self.reserved_per_vnet))
            .sum()
    }

    /// True when a message of class `vnet` may take a slot: a physical slot
    /// is free, and either the network's private reservation has room or the
    /// shared portion does. (The physical bound matters in the transition
    /// right after [`SlotPool::set_reservation`], when one class may still
    /// hold more than its new allotment.)
    #[must_use]
    pub fn can_acquire(&self, vnet: usize) -> bool {
        if self.occupancy() >= self.total {
            return false;
        }
        if self.in_use[vnet] < self.reserved_per_vnet {
            return true;
        }
        let shared = self.total - NUM_VNETS * self.reserved_per_vnet;
        self.shared_used() < shared
    }

    /// Takes a slot for `vnet`. Callers check [`SlotPool::can_acquire`]
    /// first; acquiring without space is a flow-control bug.
    pub fn acquire(&mut self, vnet: usize) {
        debug_assert!(self.can_acquire(vnet), "pool slot acquired without space");
        self.in_use[vnet] += 1;
    }

    /// Returns `vnet`'s slot to the pool.
    pub fn release(&mut self, vnet: usize) {
        debug_assert!(self.in_use[vnet] > 0, "pool release without a held slot");
        self.in_use[vnet] = self.in_use[vnet].saturating_sub(1);
    }

    /// Installs a per-network reservation of `r` slots (clamped so the four
    /// reservations never exceed the pool; pools smaller than four slots
    /// cannot reserve and stay fully shared). Messages already holding more
    /// than their new allotment are not evicted — the pool simply refuses
    /// new shared acquisitions until releases catch up.
    pub fn set_reservation(&mut self, r: usize) {
        self.reserved_per_vnet = self.reservation_for(r);
    }

    /// The reservation [`SlotPool::set_reservation`] installs for `r`.
    #[must_use]
    pub fn reservation_for(&self, r: usize) -> usize {
        r.min(self.total / NUM_VNETS)
    }
}

/// One side of a network's slot budget (the switch side, or the endpoint
/// side of a split budget): every node's [`SlotPool`], or none when that
/// side is not pooled, in which case it never refuses a slot. It counts the
/// pools at full occupancy as they fill and drain, so exhaustion evidence
/// is an O(1) read.
#[derive(Debug, Clone)]
pub(crate) struct NodePools {
    pools: Vec<SlotPool>,
    full: usize,
}

impl NodePools {
    /// `num_nodes` pools of `slots` slots each; `None` pools nothing.
    pub(crate) fn new(slots: Option<usize>, num_nodes: usize) -> Self {
        Self {
            pools: slots.map_or_else(Vec::new, |s| vec![SlotPool::new(s); num_nodes]),
            full: 0,
        }
    }

    /// True when this side holds pools.
    pub(crate) fn is_pooled(&self) -> bool {
        !self.pools.is_empty()
    }

    /// True when `node` may take a slot for `vnet` (always, when unpooled).
    pub(crate) fn can_acquire(&self, node: usize, vnet: VirtualNetwork) -> bool {
        self.pools.is_empty() || self.pools[node].can_acquire(vnet.index())
    }

    /// Takes a slot for `vnet` at `node` (nothing, when unpooled).
    pub(crate) fn acquire(&mut self, node: usize, vnet: VirtualNetwork) {
        if self.pools.is_empty() {
            return;
        }
        let pool = &mut self.pools[node];
        pool.acquire(vnet.index());
        if pool.occupancy() == pool.total() {
            self.full += 1;
        }
    }

    /// Returns `vnet`'s slot at `node` (nothing, when unpooled).
    pub(crate) fn release(&mut self, node: usize, vnet: VirtualNetwork) {
        if self.pools.is_empty() {
            return;
        }
        let pool = &mut self.pools[node];
        if pool.occupancy() == pool.total() {
            self.full -= 1;
        }
        pool.release(vnet.index());
    }

    /// True when at least one node's pool is at full occupancy.
    pub(crate) fn any_full(&self) -> bool {
        self.full > 0
    }

    /// Installs a reservation of `r` slots per network in every pool.
    pub(crate) fn set_reservation(&mut self, r: usize) {
        for pool in &mut self.pools {
            pool.set_reservation(r);
        }
    }

    /// Node 0's pool, which is sized like every other (`None` when
    /// unpooled).
    pub(crate) fn first(&self) -> Option<&SlotPool> {
        self.pools.first()
    }

    /// Held slots per node (empty when unpooled).
    pub(crate) fn occupancy(&self) -> Vec<usize> {
        self.pools.iter().map(SlotPool::occupancy).collect()
    }

    /// Asserts that every node's pool holds `expected[node][class]` slots
    /// per class and that the full-pool count matches a scan. `side` names
    /// this side in the failure message.
    #[cfg(test)]
    pub(crate) fn assert_holds(&self, expected: &[[usize; NUM_VNETS]], side: &str) {
        for (i, (pool, counts)) in self.pools.iter().zip(expected).enumerate() {
            for (v, &count) in counts.iter().enumerate() {
                assert_eq!(
                    pool.in_use(v),
                    count,
                    "{side} pool slot count at node {i}, class {v}"
                );
            }
        }
        let full_scan = self
            .pools
            .iter()
            .filter(|p| p.occupancy() == p.total())
            .count();
        assert_eq!(self.full, full_scan, "{side} full-pool counter");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_shared_pool_is_a_single_counter() {
        let mut p = SlotPool::new(3);
        assert_eq!(p.total(), 3);
        assert!(p.can_acquire(0));
        p.acquire(0);
        p.acquire(1);
        p.acquire(0);
        assert_eq!(p.occupancy(), 3);
        assert_eq!(p.in_use(0), 2);
        // Exhausted for every class, regardless of who holds the slots.
        for v in 0..4 {
            assert!(!p.can_acquire(v));
        }
        p.release(1);
        assert!(p.can_acquire(3));
    }

    #[test]
    fn one_class_can_starve_the_others_without_reservations() {
        // The deadlock-enabling property: requests alone may fill the pool,
        // leaving no slot for the response that would unblock them (Fig. 2).
        let mut p = SlotPool::new(4);
        for _ in 0..4 {
            p.acquire(0);
        }
        assert!(!p.can_acquire(2), "responses must be locked out");
    }

    #[test]
    fn reservation_guarantees_each_network_its_private_slots() {
        let mut p = SlotPool::new(8);
        p.set_reservation(1);
        assert_eq!(p.reservation(), 1);
        // Class 0 takes its private slot plus the entire shared portion
        // (8 - 4 reserved = 4 shared).
        for _ in 0..5 {
            assert!(p.can_acquire(0));
            p.acquire(0);
        }
        assert!(!p.can_acquire(0), "class 0 is at private+shared capacity");
        // Every other class still has its one private slot.
        for v in 1..4 {
            assert!(p.can_acquire(v), "class {v} lost its reservation");
            p.acquire(v);
            assert!(!p.can_acquire(v));
        }
    }

    #[test]
    fn reservation_is_clamped_to_the_pool_and_small_pools_stay_shared() {
        let mut p = SlotPool::new(9);
        p.set_reservation(100);
        assert_eq!(p.reservation(), 2); // 4 * 2 <= 9
        let mut tiny = SlotPool::new(3);
        tiny.set_reservation(1);
        assert_eq!(tiny.reservation(), 0, "pools under 4 slots cannot reserve");
        assert!(tiny.can_acquire(0));
    }

    #[test]
    fn over_allotment_after_a_reservation_change_blocks_until_released() {
        let mut p = SlotPool::new(4);
        for _ in 0..4 {
            p.acquire(0);
        }
        p.set_reservation(1);
        // Class 0 holds 4 slots but is now allowed 1 private + 0 shared, and
        // no physical slot is free for anyone else either.
        assert!(!p.can_acquire(0));
        assert!(!p.can_acquire(1), "no physical slot is free");
        p.release(0);
        p.release(0);
        p.release(0);
        // Class 0 back to its private slot; class 1 gets its own.
        assert!(p.can_acquire(1));
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slot_pool_panics() {
        let _ = SlotPool::new(0);
    }
}
