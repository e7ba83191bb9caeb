//! The cache controller of the broadcast snooping protocol.
//!
//! The node's L1, L2, MSHR file, writeback buffer and completion queue are
//! a [`CacheHierarchy`], shared with the directory protocol. This module
//! keeps the snooping protocol's transitions: the requests a miss, an
//! upgrade or a victim posts on the address network, and the data a snoop
//! sends, in order.
//!
//! Ownership in a snooping system is defined by the total order of the
//! address network: from the moment a cache's RequestForReadWrite is ordered,
//! that cache is the owner and must supply data to later-ordered requests —
//! even if its own data has not arrived yet (such requests are queued in the
//! MSHR and served when the fill completes). A cache that has issued a
//! Writeback remains the owner until its Writeback is ordered, which is what
//! creates the corner case of Section 3.2.

use std::collections::VecDeque;
use std::ops::ControlFlow;

use specsim_base::{BlockAddr, Cycle, MemorySystemConfig, NodeId, ProtocolVariant};

use crate::hierarchy::{
    AccessOutcome, CacheController, CacheHierarchy, CacheState, CompletedAccess, WbState,
};
use crate::types::{CpuAccess, CpuRequest, MisSpecKind, MisSpeculation, ProtocolError};

use super::msg::{SnoopDataMsg, SnoopDataOut, SnoopRequest};

/// A foreign request that was ordered after this cache became owner but
/// before its data arrived; it must be served when the fill completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DeferredForward {
    requestor: NodeId,
    exclusive: bool,
}

/// The snooping protocol's part of an MSHR entry: where its demand stands
/// in the address network's total order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BusOrder {
    /// Own request observed on the address network.
    ordered: bool,
    /// Requests ordered after ours that we must serve after filling.
    deferred: Vec<DeferredForward>,
    /// Set once a deferred RequestForReadWrite has promised ownership away;
    /// later requests are the next owner's responsibility.
    ownership_promised: bool,
}

/// The snooping-protocol cache controller for one node.
#[derive(Debug, Clone)]
pub struct SnoopCacheController {
    node: NodeId,
    num_nodes: usize,
    variant: ProtocolVariant,
    cache: CacheHierarchy<BusOrder>,
    outgoing_bus: VecDeque<SnoopRequest>,
    outgoing_data: VecDeque<SnoopDataOut>,
}

impl SnoopCacheController {
    /// Creates a controller for `node` with the cache geometry of `config`.
    #[must_use]
    pub fn new(node: NodeId, variant: ProtocolVariant, config: &MemorySystemConfig) -> Self {
        Self {
            node,
            num_nodes: config.num_nodes,
            variant,
            cache: CacheHierarchy::new(config),
            outgoing_bus: VecDeque::new(),
            outgoing_data: VecDeque::new(),
        }
    }

    /// Removes the next address-network request to post, if any.
    pub fn pop_bus_request(&mut self) -> Option<SnoopRequest> {
        self.outgoing_bus.pop_front()
    }

    /// Removes the next data-network message to send, if any.
    pub fn pop_data_message(&mut self) -> Option<SnoopDataOut> {
        self.outgoing_data.pop_front()
    }

    /// Peeks the message [`Self::pop_data_message`] would return, so the
    /// system layer can check fabric space for exactly this message's
    /// traffic class before committing to the pop.
    #[must_use]
    pub fn peek_data_message(&self) -> Option<&SnoopDataOut> {
        self.outgoing_data.front()
    }

    /// Number of queued outgoing messages (bus + data).
    #[must_use]
    pub fn outgoing_len(&self) -> usize {
        self.outgoing_bus.len() + self.outgoing_data.len()
    }

    /// True when observing `request` from `src` may change this controller:
    /// always for its own request. A foreign one acts only on an owned copy
    /// (any resident copy, for a write), a writeback in flight, or an
    /// ordered store that will serve it once filled; every other foreign
    /// snoop leaves the controller unchanged.
    #[must_use]
    pub fn snoop_may_change(&self, src: NodeId, request: SnoopRequest) -> bool {
        let addr = request.addr();
        let pending =
            || self.cache.writebacks.contains_key(&addr) || self.deferring_demand(addr).is_some();
        match request {
            _ if src == self.node => true,
            // Memory handles writebacks.
            SnoopRequest::PutM { .. } => false,
            // A shared copy ignores a read: memory or the owner responds.
            SnoopRequest::GetS { .. } => self
                .cache
                .l2
                .probe(addr)
                .map_or_else(pending, |line| line.state.is_owner()),
            SnoopRequest::GetM { .. } => self.cache.l2.probe(addr).is_some() || pending(),
        }
    }

    fn home(&self, addr: BlockAddr) -> NodeId {
        addr.home_node(self.num_nodes)
    }

    /// The data response to `request` from `src` when observing it queues
    /// that response and changes nothing else: a foreign read served by an
    /// owner already in O, or by its in-flight writeback. `None` otherwise.
    /// These transitions live here alone, so a caller can answer without
    /// copying a controller it shares with a checkpoint.
    #[must_use]
    pub fn reply_only(&self, src: NodeId, request: SnoopRequest) -> Option<SnoopDataOut> {
        let SnoopRequest::GetS { addr } = request else {
            return None;
        };
        if src == self.node {
            return None;
        }
        self.cache.owner_reply(addr).map(|data| SnoopDataOut {
            dst: src,
            msg: SnoopDataMsg::Data { addr, data },
        })
    }

    /// Observes one request from the totally ordered address network.
    /// `src` is the issuing node (which may be this node).
    pub fn observe_snoop(
        &mut self,
        now: Cycle,
        src: NodeId,
        request: SnoopRequest,
    ) -> Result<Option<MisSpeculation>, ProtocolError> {
        if src == self.node {
            self.observe_own(now, request)
        } else {
            self.observe_foreign(now, src, request)
        }
    }

    fn observe_own(
        &mut self,
        now: Cycle,
        request: SnoopRequest,
    ) -> Result<Option<MisSpeculation>, ProtocolError> {
        match request {
            SnoopRequest::GetS { addr } | SnoopRequest::GetM { addr } => {
                let Some(idx) = self
                    .cache
                    .demands
                    .iter()
                    .position(|d| d.addr == addr && !d.protocol.ordered)
                else {
                    return Err(self.error(addr, "observed own request with no demand".into()));
                };
                let own_fill = matches!(request, SnoopRequest::GetM { .. })
                    .then(|| self.cache.l2.probe(addr))
                    .flatten()
                    .filter(|line| line.state.is_owner())
                    .map(|line| line.data);
                let demand = &mut self.cache.demands[idx];
                demand.protocol.ordered = true;
                // An owner upgrading (line still resident in M or O when the
                // GetM is ordered) fills from its own copy; nobody else will
                // send data because the memory controller sees a cache owner.
                if own_fill.is_some() {
                    demand.data = own_fill;
                }
                if demand.data.is_some() {
                    self.complete_demand(now, idx);
                }
                Ok(None)
            }
            SnoopRequest::PutM { addr } => {
                let Some(entry) = self.cache.writebacks.remove(&addr) else {
                    return Err(self.error(addr, "observed own PutM with no writeback".into()));
                };
                match entry.state {
                    WbState::Owner => {
                        // Normal completion: hand the data to the home memory.
                        self.outgoing_data.push_back(SnoopDataOut {
                            dst: self.home(addr),
                            msg: SnoopDataMsg::WbData {
                                addr,
                                data: entry.data,
                            },
                        });
                    }
                    WbState::LostOwnership => {
                        // Ownership moved while the writeback was in flight;
                        // the new owner's data is the live copy, so the stale
                        // writeback is dropped.
                    }
                }
                Ok(None)
            }
        }
    }

    fn observe_foreign(
        &mut self,
        now: Cycle,
        src: NodeId,
        request: SnoopRequest,
    ) -> Result<Option<MisSpeculation>, ProtocolError> {
        if let Some(reply) = self.reply_only(src, request) {
            self.outgoing_data.push_back(reply);
            return Ok(None);
        }
        match request {
            SnoopRequest::GetS { addr } => {
                // Resident owner in M: supply data, stay owner (M -> O). An
                // owner already in O, or with its writeback in flight, only
                // replies, in `reply_only`. For an S copy, memory or the
                // owner responds.
                if let Some(line) = self.cache.l2.get_mut(addr) {
                    if line.state == CacheState::M {
                        line.state = CacheState::O;
                        let data = line.data;
                        self.respond_with_data(src, addr, data);
                    }
                    return Ok(None);
                }
                // A writeback that lost ownership: the new owner responds.
                if self.cache.writebacks.contains_key(&addr) {
                    return Ok(None);
                }
                // Owner-in-order waiting for its fill: serve after filling.
                self.maybe_defer(addr, src, false);
                Ok(None)
            }
            SnoopRequest::GetM { addr } => {
                // Resident copies are invalidated; the owner also supplies data.
                if let Some(line) = self.cache.invalidate(addr) {
                    if line.state.is_owner() {
                        self.respond_with_data(src, addr, line.data);
                    }
                    return Ok(None);
                }
                // Owner with a writeback in flight, at the first foreign
                // RequestForReadWrite: supply data and surrender ownership;
                // keep waiting for our PutM to be ordered (it will then be
                // dropped as stale).
                if let Some(data) = self.cache.surrender_writeback(addr) {
                    self.respond_with_data(src, addr, data);
                    return Ok(None);
                }
                if self.cache.writebacks.contains_key(&addr) {
                    // Second foreign RequestForReadWrite while our Writeback
                    // is still unordered: the corner case of Section 3.2.
                    return match self.variant {
                        ProtocolVariant::Full => {
                            // The fully designed protocol specifies the
                            // transition: we are no longer the owner, the
                            // previous requestor will respond; ignore.
                            Ok(None)
                        }
                        ProtocolVariant::Speculative => Ok(Some(MisSpeculation {
                            kind: MisSpecKind::WritebackDoubleRace,
                            node: self.node,
                            addr,
                            at: now,
                        })),
                    };
                }
                // Owner-in-order waiting for its fill: serve after filling.
                self.maybe_defer(addr, src, true);
                Ok(None)
            }
            SnoopRequest::PutM { .. } => Ok(None), // memory handles writebacks
        }
    }

    /// The ordered store demand on `addr` that serves a foreign request
    /// ordered after it once filled, if any.
    fn deferring_demand(&self, addr: BlockAddr) -> Option<usize> {
        self.cache.demands.iter().position(|d| {
            d.addr == addr
                && d.protocol.ordered
                && d.access == CpuAccess::Store
                && !d.protocol.ownership_promised
        })
    }

    fn maybe_defer(&mut self, addr: BlockAddr, requestor: NodeId, exclusive: bool) {
        if let Some(i) = self.deferring_demand(addr) {
            let order = &mut self.cache.demands[i].protocol;
            order.deferred.push(DeferredForward {
                requestor,
                exclusive,
            });
            if exclusive {
                order.ownership_promised = true;
            }
        }
    }

    fn respond_with_data(&mut self, dst: NodeId, addr: BlockAddr, data: u64) {
        self.outgoing_data.push_back(SnoopDataOut {
            dst,
            msg: SnoopDataMsg::Data { addr, data },
        });
    }

    /// Handles a message from the data network.
    pub fn handle_data(&mut self, now: Cycle, msg: SnoopDataMsg) -> Result<(), ProtocolError> {
        match msg {
            SnoopDataMsg::Data { addr, data } => {
                let Some(idx) = self
                    .cache
                    .demands
                    .iter()
                    .position(|d| d.addr == addr && d.data.is_none())
                else {
                    // Late or duplicate data (e.g. memory and an owner both
                    // responded); harmless.
                    return Ok(());
                };
                let demand = &mut self.cache.demands[idx];
                demand.data = Some(data);
                if demand.protocol.ordered {
                    self.complete_demand(now, idx);
                }
                Ok(())
            }
            SnoopDataMsg::WbData { addr, .. } => Err(self.error(
                addr,
                "cache controller received writeback data addressed to memory".into(),
            )),
        }
    }

    fn complete_demand(&mut self, now: Cycle, idx: usize) {
        let (demand, state, value) = self.cache.retire(now, idx);
        // Serve requests that were ordered after ours before installing the
        // final state.
        let mut final_state = Some(state);
        for fwd in &demand.protocol.deferred {
            self.respond_with_data(fwd.requestor, demand.addr, value);
            final_state = if fwd.exclusive {
                None // ownership handed over
            } else {
                Some(CacheState::O)
            };
        }
        if let Some(state) = final_state {
            if let Some(victim) = self.cache.install(demand.addr, state, value) {
                self.outgoing_bus
                    .push_back(SnoopRequest::PutM { addr: victim.addr });
            }
        }
    }

    /// Forces the eviction of a resident block (tests / capacity pressure).
    /// Owned blocks start a writeback; shared blocks are dropped silently.
    pub fn force_evict(&mut self, addr: BlockAddr) -> bool {
        let Some(line) = self.cache.evict(addr) else {
            return false;
        };
        if line.state.is_owner() {
            self.outgoing_bus.push_back(SnoopRequest::PutM { addr });
        }
        true
    }

    fn error(&self, addr: BlockAddr, description: String) -> ProtocolError {
        ProtocolError {
            node: self.node,
            addr,
            description,
        }
    }
}

impl CacheController for SnoopCacheController {
    type Mshr = BusOrder;

    fn node(&self) -> NodeId {
        self.node
    }

    fn hierarchy(&self) -> &CacheHierarchy<BusOrder> {
        &self.cache
    }

    /// Presents a processor request.
    fn cpu_request(&mut self, now: Cycle, req: CpuRequest) -> AccessOutcome {
        let miss = match self.cache.access(req) {
            ControlFlow::Break(outcome) => return outcome,
            ControlFlow::Continue(miss) => miss,
        };
        // An owner upgrade fills from its own copy when its request is
        // ordered, unless an earlier-ordered foreign request takes the line
        // first. An upgrade from S keeps its read-only copy, which may be
        // dropped at any time, so it behaves like a plain miss: the fill
        // comes from the owner or memory.
        self.cache.issue(now, req, miss, None, BusOrder::default());
        self.outgoing_bus.push_back(match req.access {
            CpuAccess::Load => SnoopRequest::GetS { addr: req.addr },
            CpuAccess::Store => SnoopRequest::GetM { addr: req.addr },
        });
        AccessOutcome::MissIssued
    }

    fn take_completed(&mut self) -> Option<CompletedAccess> {
        self.cache.take_completed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: BlockAddr = BlockAddr(0x40);

    fn config() -> MemorySystemConfig {
        MemorySystemConfig {
            l1_bytes: 4 * 64,
            l1_ways: 2,
            l2_bytes: 8 * 64,
            l2_ways: 2,
            ..MemorySystemConfig::default()
        }
    }

    fn ctrl(variant: ProtocolVariant) -> SnoopCacheController {
        SnoopCacheController::new(NodeId(1), variant, &config())
    }

    fn store(addr: BlockAddr, value: u64) -> CpuRequest {
        CpuRequest {
            addr,
            access: CpuAccess::Store,
            store_value: value,
        }
    }

    fn load(addr: BlockAddr) -> CpuRequest {
        CpuRequest {
            addr,
            access: CpuAccess::Load,
            store_value: 0,
        }
    }

    /// Drives a controller to own block A in state M with the given value.
    fn make_owner(c: &mut SnoopCacheController, value: u64) {
        assert_eq!(c.cpu_request(0, store(A, value)), AccessOutcome::MissIssued);
        assert_eq!(c.pop_bus_request(), Some(SnoopRequest::GetM { addr: A }));
        // Own GetM observed; memory will supply data.
        c.observe_snoop(5, NodeId(1), SnoopRequest::GetM { addr: A })
            .unwrap();
        c.handle_data(10, SnoopDataMsg::Data { addr: A, data: 0 })
            .unwrap();
        let done = c.take_completed().unwrap();
        assert_eq!(done.value, value);
        assert_eq!(c.hierarchy().cached_value(A), Some((CacheState::M, value)));
    }

    #[test]
    fn load_miss_completes_after_order_and_data() {
        let mut c = ctrl(ProtocolVariant::Full);
        assert_eq!(c.cpu_request(0, load(A)), AccessOutcome::MissIssued);
        assert_eq!(c.pop_bus_request(), Some(SnoopRequest::GetS { addr: A }));
        // Data cannot complete the miss before the request is ordered...
        // (in this model data only ever arrives afterwards, but the ordering
        // flag is still tracked explicitly).
        c.observe_snoop(3, NodeId(1), SnoopRequest::GetS { addr: A })
            .unwrap();
        assert!(c.take_completed().is_none());
        c.handle_data(9, SnoopDataMsg::Data { addr: A, data: 77 })
            .unwrap();
        let done = c.take_completed().unwrap();
        assert_eq!(done.value, 77);
        assert_eq!(done.latency, 9);
        assert_eq!(c.hierarchy().cached_value(A), Some((CacheState::S, 77)));
    }

    #[test]
    fn reply_only_answers_exactly_the_snoops_that_change_nothing_else() {
        let mut c = ctrl(ProtocolVariant::Full);
        make_owner(&mut c, 42);
        let gets = SnoopRequest::GetS { addr: A };
        // The first foreign read moves M to O; an owner in O serving
        // another read only replies. Own requests and writes are changes.
        assert_eq!(c.reply_only(NodeId(1), gets), None);
        assert_eq!(
            c.reply_only(NodeId(2), SnoopRequest::GetM { addr: A }),
            None
        );
        for reply_alone in [false, true] {
            let before = format!("{c:?}");
            let reply = c.reply_only(NodeId(2), gets);
            c.observe_snoop(20, NodeId(2), gets).unwrap();
            let sent = c.pop_data_message();
            assert!(c.pop_data_message().is_none());
            assert_eq!(reply.is_some(), reply_alone);
            if reply_alone {
                assert_eq!(reply, sent);
                assert_eq!(format!("{c:?}"), before, "the read changed the cache");
            }
        }
    }

    #[test]
    fn owner_serves_foreign_gets_and_downgrades_to_owned() {
        let mut c = ctrl(ProtocolVariant::Full);
        make_owner(&mut c, 42);
        c.observe_snoop(20, NodeId(2), SnoopRequest::GetS { addr: A })
            .unwrap();
        let out = c.pop_data_message().unwrap();
        assert_eq!(out.dst, NodeId(2));
        assert_eq!(out.msg, SnoopDataMsg::Data { addr: A, data: 42 });
        assert_eq!(c.hierarchy().cached_value(A), Some((CacheState::O, 42)));
    }

    #[test]
    fn owner_serves_foreign_getm_and_invalidates() {
        let mut c = ctrl(ProtocolVariant::Full);
        make_owner(&mut c, 42);
        c.observe_snoop(20, NodeId(2), SnoopRequest::GetM { addr: A })
            .unwrap();
        let out = c.pop_data_message().unwrap();
        assert_eq!(out.msg, SnoopDataMsg::Data { addr: A, data: 42 });
        assert_eq!(c.hierarchy().cached_value(A), None);
        // The invalidated copy is gone from both levels: a load misses.
        assert_eq!(c.cpu_request(30, load(A)), AccessOutcome::MissIssued);
    }

    #[test]
    fn shared_copy_is_invalidated_silently_by_foreign_getm() {
        let mut c = ctrl(ProtocolVariant::Full);
        c.cpu_request(0, load(A));
        c.pop_bus_request();
        c.observe_snoop(1, NodeId(1), SnoopRequest::GetS { addr: A })
            .unwrap();
        c.handle_data(2, SnoopDataMsg::Data { addr: A, data: 5 })
            .unwrap();
        c.take_completed();
        c.observe_snoop(10, NodeId(3), SnoopRequest::GetM { addr: A })
            .unwrap();
        assert_eq!(c.hierarchy().cached_value(A), None);
        assert!(
            c.pop_data_message().is_none(),
            "an S copy never supplies data"
        );
    }

    #[test]
    fn writeback_sends_data_to_home_when_own_putm_is_observed() {
        let mut c = ctrl(ProtocolVariant::Full);
        make_owner(&mut c, 7);
        assert!(c.force_evict(A));
        assert_eq!(c.pop_bus_request(), Some(SnoopRequest::PutM { addr: A }));
        // A request to the block stalls while the writeback is pending.
        assert_eq!(c.cpu_request(25, load(A)), AccessOutcome::Stall);
        c.observe_snoop(30, NodeId(1), SnoopRequest::PutM { addr: A })
            .unwrap();
        let wb = c.pop_data_message().unwrap();
        assert_eq!(wb.dst, A.home_node(16));
        assert_eq!(wb.msg, SnoopDataMsg::WbData { addr: A, data: 7 });
    }

    /// First half of the Section 3.2 corner case: a foreign GetM observed
    /// while the Writeback is in flight takes the data and the ownership.
    #[test]
    fn inflight_writeback_serves_one_foreign_getm_and_drops_its_putm() {
        let mut c = ctrl(ProtocolVariant::Full);
        make_owner(&mut c, 9);
        c.force_evict(A);
        c.pop_bus_request();
        c.observe_snoop(25, NodeId(2), SnoopRequest::GetM { addr: A })
            .unwrap();
        assert_eq!(
            c.pop_data_message().unwrap().msg,
            SnoopDataMsg::Data { addr: A, data: 9 }
        );
        // Our own PutM is then ordered: it is stale, no writeback data goes to
        // memory.
        c.observe_snoop(30, NodeId(1), SnoopRequest::PutM { addr: A })
            .unwrap();
        assert!(c.pop_data_message().is_none());
    }

    /// The full corner case: a SECOND foreign GetM before our PutM is
    /// ordered. The full protocol ignores it; the speculative protocol
    /// reports a mis-speculation.
    #[test]
    fn double_getm_race_is_handled_by_full_and_detected_by_speculative() {
        for variant in [ProtocolVariant::Full, ProtocolVariant::Speculative] {
            let mut c = ctrl(variant);
            make_owner(&mut c, 9);
            c.force_evict(A);
            c.pop_bus_request();
            c.observe_snoop(25, NodeId(2), SnoopRequest::GetM { addr: A })
                .unwrap();
            c.pop_data_message();
            let second = c
                .observe_snoop(26, NodeId(3), SnoopRequest::GetM { addr: A })
                .unwrap();
            match variant {
                ProtocolVariant::Full => {
                    assert!(second.is_none(), "full protocol handles the race");
                    assert!(c.pop_data_message().is_none(), "we are no longer the owner");
                }
                ProtocolVariant::Speculative => {
                    let m = second.expect("speculative protocol must detect the race");
                    assert_eq!(m.kind, MisSpecKind::WritebackDoubleRace);
                    assert_eq!(m.node, NodeId(1));
                }
            }
        }
    }

    #[test]
    fn owner_upgrade_completes_from_its_own_copy() {
        let mut c = ctrl(ProtocolVariant::Full);
        make_owner(&mut c, 10);
        // Downgrade to O by serving a foreign GetS.
        c.observe_snoop(20, NodeId(2), SnoopRequest::GetS { addr: A })
            .unwrap();
        c.pop_data_message();
        // Upgrade back to M.
        assert_eq!(c.cpu_request(30, store(A, 11)), AccessOutcome::MissIssued);
        assert_eq!(c.pop_bus_request(), Some(SnoopRequest::GetM { addr: A }));
        c.observe_snoop(35, NodeId(1), SnoopRequest::GetM { addr: A })
            .unwrap();
        let done = c.take_completed().expect("upgrade fills from its own data");
        assert_eq!(done.value, 11);
        assert_eq!(c.hierarchy().cached_value(A), Some((CacheState::M, 11)));
    }

    #[test]
    fn requests_ordered_after_ours_are_served_when_the_fill_arrives() {
        let mut c = ctrl(ProtocolVariant::Full);
        // Our GetM is ordered but the data has not arrived yet.
        c.cpu_request(0, store(A, 50));
        c.pop_bus_request();
        c.observe_snoop(5, NodeId(1), SnoopRequest::GetM { addr: A })
            .unwrap();
        // Two requests ordered after ours: a GetS (we stay owner) then a GetM
        // (ownership moves on). A further GetS is the next owner's problem.
        c.observe_snoop(6, NodeId(2), SnoopRequest::GetS { addr: A })
            .unwrap();
        c.observe_snoop(7, NodeId(3), SnoopRequest::GetM { addr: A })
            .unwrap();
        c.observe_snoop(8, NodeId(4), SnoopRequest::GetS { addr: A })
            .unwrap();
        assert!(
            c.pop_data_message().is_none(),
            "nothing can be served before the fill"
        );
        // The fill arrives.
        c.handle_data(10, SnoopDataMsg::Data { addr: A, data: 1 })
            .unwrap();
        let done = c.take_completed().unwrap();
        assert_eq!(done.value, 50);
        let first = c.pop_data_message().unwrap();
        assert_eq!(first.dst, NodeId(2));
        assert_eq!(first.msg, SnoopDataMsg::Data { addr: A, data: 50 });
        let second = c.pop_data_message().unwrap();
        assert_eq!(second.dst, NodeId(3));
        assert_eq!(second.msg, SnoopDataMsg::Data { addr: A, data: 50 });
        // Node 4 is NOT served by us.
        assert!(c.pop_data_message().is_none());
        // Ownership was handed to node 3, so the block is no longer resident.
        assert_eq!(c.hierarchy().cached_value(A), None);
    }

    #[test]
    fn late_or_duplicate_data_is_ignored() {
        let mut c = ctrl(ProtocolVariant::Full);
        c.handle_data(0, SnoopDataMsg::Data { addr: A, data: 3 })
            .unwrap();
        assert!(c.take_completed().is_none());
        // Writeback data addressed to memory is a protocol error at a cache.
        assert!(c
            .handle_data(0, SnoopDataMsg::WbData { addr: A, data: 3 })
            .is_err());
    }

    fn ctrl_mshr(variant: ProtocolVariant, mshr_entries: usize) -> SnoopCacheController {
        let cfg = MemorySystemConfig {
            mshr_entries,
            ..config()
        };
        SnoopCacheController::new(NodeId(1), variant, &cfg)
    }

    #[test]
    fn parallel_misses_complete_out_of_order_by_address() {
        let b = BlockAddr(0x80);
        let mut c = ctrl_mshr(ProtocolVariant::Full, 2);
        assert_eq!(c.cpu_request(0, load(A)), AccessOutcome::MissIssued);
        assert_eq!(c.cpu_request(1, load(b)), AccessOutcome::MissIssued);
        assert_eq!(c.hierarchy().outstanding_demands(), 2);
        // A third miss exceeds the two MSHRs; a duplicate of an in-flight
        // block stalls even though an MSHR is notionally free at that point.
        assert_eq!(
            c.cpu_request(2, load(BlockAddr(0xc0))),
            AccessOutcome::Stall
        );
        assert_eq!(c.cpu_request(2, store(A, 1)), AccessOutcome::Stall);
        // Both requests get ordered; the younger one's data arrives first.
        c.observe_snoop(5, NodeId(1), SnoopRequest::GetS { addr: A })
            .unwrap();
        c.observe_snoop(6, NodeId(1), SnoopRequest::GetS { addr: b })
            .unwrap();
        c.handle_data(10, SnoopDataMsg::Data { addr: b, data: 22 })
            .unwrap();
        let done = c.take_completed().unwrap();
        assert_eq!((done.addr, done.value), (b, 22));
        assert_eq!(
            c.hierarchy().oldest_demand(),
            Some((0, A)),
            "oldest demand still open"
        );
        c.handle_data(20, SnoopDataMsg::Data { addr: A, data: 11 })
            .unwrap();
        let done = c.take_completed().unwrap();
        assert_eq!((done.addr, done.value), (A, 11));
        assert_eq!(c.hierarchy().outstanding_demands(), 0);
        assert_eq!(c.hierarchy().cached_value(A), Some((CacheState::S, 11)));
        assert_eq!(c.hierarchy().cached_value(b), Some((CacheState::S, 22)));
    }

    #[test]
    fn owner_upgrade_runs_with_the_mshr_file_to_itself() {
        let b = BlockAddr(0x80);
        let mut c = ctrl_mshr(ProtocolVariant::Full, 4);
        make_owner(&mut c, 10);
        // Downgrade to O by serving a foreign GetS.
        c.observe_snoop(20, NodeId(2), SnoopRequest::GetS { addr: A })
            .unwrap();
        c.pop_data_message();
        // With a plain miss outstanding, the O->M upgrade must wait.
        assert_eq!(c.cpu_request(30, load(b)), AccessOutcome::MissIssued);
        assert_eq!(c.cpu_request(31, store(A, 11)), AccessOutcome::Stall);
        c.observe_snoop(32, NodeId(1), SnoopRequest::GetS { addr: b })
            .unwrap();
        c.handle_data(33, SnoopDataMsg::Data { addr: b, data: 0 })
            .unwrap();
        c.take_completed();
        // Once the file drains the upgrade issues, and while it is
        // outstanding every new demand stalls.
        assert_eq!(c.cpu_request(40, store(A, 11)), AccessOutcome::MissIssued);
        assert_eq!(
            c.cpu_request(41, load(BlockAddr(0xc0))),
            AccessOutcome::Stall
        );
        c.pop_bus_request();
        c.observe_snoop(45, NodeId(1), SnoopRequest::GetM { addr: A })
            .unwrap();
        let done = c.take_completed().expect("upgrade fills from its own data");
        assert_eq!(done.value, 11);
        assert_eq!(c.hierarchy().cached_value(A), Some((CacheState::M, 11)));
        assert_eq!(
            c.cpu_request(50, load(BlockAddr(0xc0))),
            AccessOutcome::MissIssued
        );
    }
}
