//! The two-level cache hierarchy that both protocols' cache controllers
//! share.
//!
//! Table 2 gives the directory machine and the snooping machine the same
//! node, so one [`CacheHierarchy`] models it for both. Stable states (M, O,
//! S) live in the L2 cache array. The L1 is an inclusive tag-only filter in
//! front of the L2 that sets the hit latency. In-flight demand misses live
//! in an MSHR file whose capacity comes from
//! `MemorySystemConfig::mshr_entries` (default 1: the paper's processor
//! model issues blocking requests, so one demand transaction per node is
//! outstanding at a time). Owned blocks whose writeback is in flight live
//! in a writeback buffer, and completed demands wait in a completion queue
//! until the system layer takes them.
//!
//! With more than one MSHR, demands to distinct blocks proceed in parallel
//! and complete out of order. Two serialization rules keep the transient
//! state sound: a second demand to a block already in the MSHR file stalls
//! (no coalescing), and an *owner upgrade*, which relies on the line
//! staying resident while its request is in flight, is mutually exclusive
//! with every other demand, because a completing demand's victim eviction
//! could otherwise evict the very line the upgrade's data lives in.
//!
//! The hierarchy sends no messages. Each controller keeps its protocol's
//! transitions: which messages a miss, an upgrade, a victim or a snoop
//! sends, and in what order.

use std::collections::VecDeque;
use std::ops::ControlFlow;

use specsim_base::{BlockAddr, Cycle, CycleDelta, FastMap, MemorySystemConfig, NodeId};

use crate::cache_array::{CacheArray, CacheGeometry, CacheLine};
use crate::types::{CpuAccess, CpuRequest};

/// Latency of a load or store that hits in the L1, in cycles.
pub const L1_HIT_CYCLES: CycleDelta = 2;

/// Latency of a load or store that misses the L1 and hits in the L2, in
/// cycles.
pub const L2_HIT_CYCLES: CycleDelta = 12;

/// Stable cache states of the MOSI protocols (Invalid = not resident).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheState {
    /// Modified: this cache owns the only, dirty, copy.
    M,
    /// Owned: this cache owns a dirty copy; other caches may hold S copies.
    O,
    /// Shared: read-only copy; some other agent (cache or memory) owns the
    /// block.
    S,
}

impl CacheState {
    /// True in M and O, where this cache owns the block and supplies its
    /// data.
    #[must_use]
    pub fn is_owner(self) -> bool {
        matches!(self, CacheState::M | CacheState::O)
    }
}

/// Outcome of presenting a processor request to a cache controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Satisfied by the L1 (tag filter) — fastest path.
    L1Hit {
        /// Access latency in cycles.
        latency: CycleDelta,
        /// Value read (for loads) or written (for stores).
        value: u64,
    },
    /// Satisfied by the L2.
    L2Hit {
        /// Access latency in cycles.
        latency: CycleDelta,
        /// Value read (for loads) or written (for stores).
        value: u64,
    },
    /// A coherence transaction was started; the controller's
    /// `take_completed` reports its completion.
    MissIssued,
    /// The controller cannot accept the request right now (an earlier demand
    /// miss or a conflicting writeback is still outstanding); the processor
    /// must retry on a later cycle.
    Stall,
}

/// A completed demand miss, reported once by the controller's
/// `take_completed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedAccess {
    /// The block whose miss completed.
    pub addr: BlockAddr,
    /// Load or store.
    pub access: CpuAccess,
    /// Cycles from issue to completion.
    pub latency: CycleDelta,
    /// The value observed (loads) or installed (stores).
    pub value: u64,
}

/// What the system layer asks of a node's cache controller, whatever its
/// protocol: its node, its hierarchy, a processor request and a completed
/// miss.
pub trait CacheController {
    /// The protocol's own part of each MSHR entry.
    type Mshr;

    /// The node this controller belongs to.
    fn node(&self) -> NodeId;

    /// The node's cache hierarchy, for its stall check and diagnostics.
    fn hierarchy(&self) -> &CacheHierarchy<Self::Mshr>;

    /// Presents a processor request: a hit, a miss that started a
    /// coherence transaction, or a stall.
    fn cpu_request(&mut self, now: Cycle, req: CpuRequest) -> AccessOutcome;

    /// Takes the oldest completed-demand notification, if one is pending.
    fn take_completed(&mut self) -> Option<CompletedAccess>;
}

/// An in-flight demand miss (an MSHR entry). `P` is the protocol's own
/// part of the entry.
#[derive(Debug, Clone)]
pub(crate) struct Demand<P> {
    pub(crate) addr: BlockAddr,
    pub(crate) access: CpuAccess,
    pub(crate) store_value: u64,
    pub(crate) issued_at: Cycle,
    /// Block data received, or already held by an owner upgrade.
    pub(crate) data: Option<u64>,
    /// Owner upgrade: the line stays resident while the request is in
    /// flight, so no other demand may complete (and possibly evict it)
    /// concurrently.
    pub(crate) resident_upgrade: bool,
    pub(crate) protocol: P,
}

/// State of an in-flight writeback (a writeback-buffer entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WbState {
    /// Writeback issued and not yet retired: still the architectural owner,
    /// data retained so requests for the block can be served.
    Owner,
    /// Ownership was surrendered to a request for exclusivity while the
    /// writeback was in flight; only the writeback's retirement is awaited.
    LostOwnership,
}

/// A writeback-buffer entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WritebackEntry {
    pub(crate) data: u64,
    pub(crate) state: WbState,
}

/// Why a processor request needs a coherence transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Miss {
    /// The block is not resident.
    Absent,
    /// A store to a shared copy.
    Shared,
    /// A store to an owned (O) copy holding `data`: a resident owner
    /// upgrade.
    Owned(u64),
}

/// One node's L1 tag filter, L2, MSHR file, writeback buffer and completion
/// queue, with the operations both protocols perform on them.
#[derive(Debug, Clone)]
pub struct CacheHierarchy<P> {
    l1: CacheArray<()>,
    pub(crate) l2: CacheArray<CacheState>,
    /// MSHR file: in-flight demand misses, in issue order.
    pub(crate) demands: Vec<Demand<P>>,
    /// MSHR capacity.
    mshr_entries: usize,
    pub(crate) writebacks: FastMap<BlockAddr, WritebackEntry>,
    completed: VecDeque<CompletedAccess>,
}

impl<P> CacheHierarchy<P> {
    /// An empty hierarchy with the geometry and MSHR count of `config`.
    pub(crate) fn new(config: &MemorySystemConfig) -> Self {
        Self {
            l1: CacheArray::new(CacheGeometry::from_capacity(
                config.l1_bytes,
                config.l1_ways,
            )),
            l2: CacheArray::new(CacheGeometry::from_capacity(
                config.l2_bytes,
                config.l2_ways,
            )),
            demands: Vec::new(),
            mshr_entries: config.mshr_entries.max(1),
            writebacks: FastMap::default(),
            completed: VecDeque::new(),
        }
    }

    /// True when a CPU request for `addr` stalls at once, before it reads
    /// or writes any state: the MSHR file is full, a demand for the block
    /// is outstanding (no coalescing), or the block's writeback is in
    /// flight, which keeps the protocols free of a request-passes-own-
    /// writeback race orthogonal to the paper. The controller's
    /// `cpu_request` then returns [`AccessOutcome::Stall`] and changes
    /// nothing.
    #[must_use]
    pub fn stalls_at_once(&self, addr: BlockAddr) -> bool {
        self.demands.len() >= self.mshr_entries
            || self.demands.iter().any(|d| d.addr == addr)
            || self.writebacks.contains_key(&addr)
    }

    /// Number of demand misses outstanding (occupied MSHRs).
    #[must_use]
    pub fn outstanding_demands(&self) -> usize {
        self.demands.len()
    }

    /// Issue cycle and block of the *oldest* outstanding demand miss (if
    /// any); used by the system layer for the transaction-timeout detection
    /// of Section 4.
    #[must_use]
    pub fn oldest_demand(&self) -> Option<(Cycle, BlockAddr)> {
        self.demands
            .iter()
            .min_by_key(|d| d.issued_at)
            .map(|d| (d.issued_at, d.addr))
    }

    /// True when the controller's `take_completed` would return an access.
    #[must_use]
    pub fn has_completed(&self) -> bool {
        !self.completed.is_empty()
    }

    /// The value currently cached for `addr`, if resident (diagnostics /
    /// invariant checks).
    #[must_use]
    pub fn cached_value(&self, addr: BlockAddr) -> Option<(CacheState, u64)> {
        self.l2.probe(addr).map(|l| (l.state, l.data))
    }

    /// Every block resident in the L2 with its state and data, in array
    /// order (used by system-level coherence-invariant checks).
    pub fn resident_lines(&self) -> impl Iterator<Item = (BlockAddr, CacheState, u64)> + '_ {
        self.l2
            .iter()
            .map(|line| (line.addr, line.state, line.data))
    }

    /// Takes the oldest completed-demand notification, if one is pending.
    pub(crate) fn take_completed(&mut self) -> Option<CompletedAccess> {
        self.completed.pop_front()
    }

    /// Presents a processor request. A load hit, or a store hit in M,
    /// breaks with its hit; so does a request that must stall. A request
    /// that needs a coherence transaction continues with its [`Miss`],
    /// which the caller issues. The L1 is looked up before the L2, since
    /// the LRU order of both depends on it.
    pub(crate) fn access(&mut self, req: CpuRequest) -> ControlFlow<AccessOutcome, Miss> {
        if self.stalls_at_once(req.addr) {
            return ControlFlow::Break(AccessOutcome::Stall);
        }
        // A resident owner upgrade is in flight: admitting another demand
        // could evict the upgrading line when it completes, so everything
        // that starts a transaction stalls until the upgrade finishes.
        let upgrade_in_flight = self.demands.iter().any(|d| d.resident_upgrade);
        let l1_hit = self.l1.lookup(req.addr).is_some();
        if let Some(line) = self.l2.lookup(req.addr) {
            return match (req.access, line.state) {
                (CpuAccess::Load, _) | (CpuAccess::Store, CacheState::M) => {
                    if req.access == CpuAccess::Store {
                        line.data = req.store_value;
                    }
                    let value = line.data;
                    ControlFlow::Break(if l1_hit {
                        AccessOutcome::L1Hit {
                            latency: L1_HIT_CYCLES,
                            value,
                        }
                    } else {
                        self.l1.insert(req.addr, (), 0);
                        AccessOutcome::L2Hit {
                            latency: L2_HIT_CYCLES,
                            value,
                        }
                    })
                }
                // The upgrading line must stay resident until its request
                // completes, so the upgrade runs with the MSHR file to
                // itself.
                (CpuAccess::Store, CacheState::O) if !self.demands.is_empty() => {
                    ControlFlow::Break(AccessOutcome::Stall)
                }
                (CpuAccess::Store, CacheState::O) => ControlFlow::Continue(Miss::Owned(line.data)),
                (CpuAccess::Store, CacheState::S) if upgrade_in_flight => {
                    ControlFlow::Break(AccessOutcome::Stall)
                }
                (CpuAccess::Store, CacheState::S) => ControlFlow::Continue(Miss::Shared),
            };
        }
        if upgrade_in_flight {
            return ControlFlow::Break(AccessOutcome::Stall);
        }
        ControlFlow::Continue(Miss::Absent)
    }

    /// Opens an MSHR entry for `req`'s `miss`, issued at `now`, holding
    /// `data` to start with.
    pub(crate) fn issue(
        &mut self,
        now: Cycle,
        req: CpuRequest,
        miss: Miss,
        data: Option<u64>,
        protocol: P,
    ) {
        self.demands.push(Demand {
            addr: req.addr,
            access: req.access,
            store_value: req.store_value,
            issued_at: now,
            data,
            resident_upgrade: matches!(miss, Miss::Owned(_)),
            protocol,
        });
    }

    /// Removes MSHR entry `idx` and queues its completion at `now`. Returns
    /// the entry with the state and value its fill installs: S and the data
    /// for a load, M and the stored value for a store.
    pub(crate) fn retire(&mut self, now: Cycle, idx: usize) -> (Demand<P>, CacheState, u64) {
        let demand = self.demands.remove(idx);
        let (state, value) = match demand.access {
            CpuAccess::Load => (
                CacheState::S,
                demand.data.expect("load completed without data"),
            ),
            CpuAccess::Store => (CacheState::M, demand.store_value),
        };
        self.completed.push_back(CompletedAccess {
            addr: demand.addr,
            access: demand.access,
            latency: now.saturating_sub(demand.issued_at),
            value,
        });
        (demand, state, value)
    }

    /// Installs a fill in the L2 and the L1. The L2 set's LRU victim leaves
    /// both levels; an owned victim moves to the writeback buffer and is
    /// returned, for the caller to send its writeback.
    pub(crate) fn install(
        &mut self,
        addr: BlockAddr,
        state: CacheState,
        value: u64,
    ) -> Option<CacheLine<CacheState>> {
        let victim = self.l2.insert(addr, state, value);
        if let Some(victim) = &victim {
            self.release(victim);
        }
        self.l1.insert(addr, (), 0);
        victim.filter(|v| v.state.is_owner())
    }

    /// Forces `addr` out of both levels and returns its line, if resident.
    /// An owned line moves to the writeback buffer; the caller sends its
    /// writeback.
    pub(crate) fn evict(&mut self, addr: BlockAddr) -> Option<CacheLine<CacheState>> {
        let line = self.l2.remove(addr)?;
        self.release(&line);
        Some(line)
    }

    /// Drops `line`, which just left the L2, from the L1, and opens a
    /// writeback-buffer entry for it if it is owned.
    fn release(&mut self, line: &CacheLine<CacheState>) {
        self.l1.remove(line.addr);
        if line.state.is_owner() {
            self.writebacks.insert(
                line.addr,
                WritebackEntry {
                    data: line.data,
                    state: WbState::Owner,
                },
            );
        }
    }

    /// Invalidates `addr` at both levels and returns its line, if resident.
    pub(crate) fn invalidate(&mut self, addr: BlockAddr) -> Option<CacheLine<CacheState>> {
        let line = self.l2.remove(addr)?;
        self.l1.remove(addr);
        Some(line)
    }

    /// The data an owner answers a read of `addr` with while staying as it
    /// is: its line in O, or its writeback in flight while it still owns
    /// the block. `None` in every other state.
    pub(crate) fn owner_reply(&self, addr: BlockAddr) -> Option<u64> {
        match self.l2.probe(addr) {
            Some(line) => (line.state == CacheState::O).then_some(line.data),
            None => {
                let entry = self.writebacks.get(&addr)?;
                (entry.state == WbState::Owner).then_some(entry.data)
            }
        }
    }

    /// Hands the data of `addr`'s in-flight writeback to a request for
    /// exclusivity, if the writeback still owns the block, and gives up
    /// that ownership: the entry then only awaits its retirement.
    pub(crate) fn surrender_writeback(&mut self, addr: BlockAddr) -> Option<u64> {
        let entry = self.writebacks.get_mut(&addr)?;
        (entry.state == WbState::Owner).then(|| {
            entry.state = WbState::LostOwnership;
            entry.data
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dir::{DirCacheController, DirMsg};
    use crate::snoop::{SnoopCacheController, SnoopDataMsg, SnoopRequest};
    use specsim_base::{NodeId, ProtocolVariant};

    /// L1: 2 sets x 2 ways; L2: 4 sets x 2 ways. Set = block mod sets.
    fn config() -> MemorySystemConfig {
        MemorySystemConfig {
            l1_bytes: 4 * 64,
            l1_ways: 2,
            l2_bytes: 8 * 64,
            l2_ways: 2,
            ..MemorySystemConfig::default()
        }
    }

    fn load(addr: u64) -> CpuRequest {
        CpuRequest {
            addr: BlockAddr(addr),
            access: CpuAccess::Load,
            store_value: 0,
        }
    }

    /// A cache controller driven through one demand at a time.
    trait Controller: CacheController {
        /// Delivers what the protocol needs to fill the outstanding load
        /// of `addr` with `data`, and drains the controller's output.
        fn fill(&mut self, now: Cycle, addr: BlockAddr, data: u64);
    }

    impl Controller for DirCacheController {
        fn fill(&mut self, now: Cycle, addr: BlockAddr, data: u64) {
            self.handle_message(
                now,
                DirMsg::Data {
                    addr,
                    data,
                    acks: 0,
                },
            )
            .unwrap();
            while self.pop_outgoing().is_some() {}
        }
    }

    impl Controller for SnoopCacheController {
        fn fill(&mut self, now: Cycle, addr: BlockAddr, data: u64) {
            let own = self.node();
            self.observe_snoop(now, own, SnoopRequest::GetS { addr })
                .unwrap();
            self.handle_data(now, SnoopDataMsg::Data { addr, data })
                .unwrap();
            while self.pop_bus_request().is_some() {}
        }
    }

    /// The hit path both controllers share: a completed miss hits in the
    /// L1; once L1 conflict misses push the block out of the L1 while the
    /// L2 keeps it, the next access hits in the L2 and refills the L1.
    fn hits_in_l1_then_in_l2_after_l1_conflicts<C: Controller>(c: &mut C) {
        let mut now = 0;
        let mut miss = |c: &mut C, addr: u64, data: u64| {
            now += 10;
            assert_eq!(c.cpu_request(now, load(addr)), AccessOutcome::MissIssued);
            c.fill(now + 5, BlockAddr(addr), data);
            assert_eq!(c.take_completed().map(|d| d.value), Some(data));
        };
        miss(c, 0x0, 11);
        assert_eq!(
            c.cpu_request(100, load(0x0)),
            AccessOutcome::L1Hit {
                latency: L1_HIT_CYCLES,
                value: 11
            }
        );
        // 0x2 and 0x6 share 0x0's L1 set but sit in another L2 set.
        miss(c, 0x2, 22);
        miss(c, 0x6, 66);
        assert_eq!(
            c.cpu_request(200, load(0x0)),
            AccessOutcome::L2Hit {
                latency: L2_HIT_CYCLES,
                value: 11
            }
        );
        assert_eq!(
            c.cpu_request(201, load(0x0)),
            AccessOutcome::L1Hit {
                latency: L1_HIT_CYCLES,
                value: 11
            }
        );
        assert_ne!(L1_HIT_CYCLES, L2_HIT_CYCLES);
    }

    #[test]
    fn dir_cache_hits_in_l1_then_in_l2_after_l1_conflicts() {
        let mut c = DirCacheController::new(NodeId(1), ProtocolVariant::Full, &config());
        hits_in_l1_then_in_l2_after_l1_conflicts(&mut c);
    }

    #[test]
    fn snoop_cache_hits_in_l1_then_in_l2_after_l1_conflicts() {
        let mut c = SnoopCacheController::new(NodeId(1), ProtocolVariant::Full, &config());
        hits_in_l1_then_in_l2_after_l1_conflicts(&mut c);
    }
}
