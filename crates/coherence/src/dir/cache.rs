//! The cache controller of the directory protocol.
//!
//! The node's L1, L2, MSHR file, writeback buffer and completion queue are
//! a [`CacheHierarchy`], shared with the snooping protocol. This module
//! keeps the directory protocol's transitions: the messages a miss, an
//! upgrade, a victim or a forwarded request sends, and in what order. The
//! MSHR entry's directory part counts the invalidation acks to collect.
//!
//! The same state machine serves both protocol variants; the only difference
//! is how an impossible transition is classified: the Full variant treats a
//! forwarded request arriving at a cache without a valid copy as a protocol
//! bug ([`ProtocolError`]), while the Speculative variant reports it as a
//! detected mis-speculation (Section 3.1: "a cache without a valid copy that
//! receives a Forwarded-RequestReadWrite determines this situation to be a
//! mis-speculation and triggers a system recovery").

use std::collections::VecDeque;
use std::ops::ControlFlow;

use specsim_base::{BlockAddr, Cycle, MemorySystemConfig, NodeId, ProtocolVariant};

use crate::hierarchy::{
    AccessOutcome, CacheController, CacheHierarchy, CacheState, CompletedAccess, Demand, Miss,
};
use crate::types::{CpuAccess, CpuRequest, MisSpecKind, MisSpeculation, ProtocolError};

use super::msg::{DirMsg, OutMsg};

/// The directory protocol's part of an MSHR entry: the invalidation acks
/// its demand collects.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InvAcks {
    /// Number of acks to collect; unknown until Data/AckCount arrives.
    needed: Option<u32>,
    received: u32,
}

/// True once a demand holds its data and every invalidation ack.
fn is_complete(demand: &Demand<InvAcks>) -> bool {
    demand.data.is_some() && demand.protocol.needed == Some(demand.protocol.received)
}

/// The directory-protocol cache controller for one node.
#[derive(Debug, Clone)]
pub struct DirCacheController {
    node: NodeId,
    num_nodes: usize,
    variant: ProtocolVariant,
    cache: CacheHierarchy<InvAcks>,
    outgoing: VecDeque<OutMsg>,
}

impl DirCacheController {
    /// Creates a controller for `node` with the cache geometry of `config`.
    #[must_use]
    pub fn new(node: NodeId, variant: ProtocolVariant, config: &MemorySystemConfig) -> Self {
        Self {
            node,
            num_nodes: config.num_nodes,
            variant,
            cache: CacheHierarchy::new(config),
            outgoing: VecDeque::new(),
        }
    }

    /// Number of protocol messages waiting to be injected into the network.
    #[must_use]
    pub fn outgoing_len(&self) -> usize {
        self.outgoing.len()
    }

    /// The message [`Self::pop_outgoing`] would return.
    #[must_use]
    pub fn peek_outgoing(&self) -> Option<&OutMsg> {
        self.outgoing.front()
    }

    /// Removes the next protocol message to inject, if any.
    pub fn pop_outgoing(&mut self) -> Option<OutMsg> {
        self.outgoing.pop_front()
    }

    fn home(&self, addr: BlockAddr) -> NodeId {
        addr.home_node(self.num_nodes)
    }

    fn send(&mut self, dst: NodeId, msg: DirMsg) {
        self.outgoing.push_back(OutMsg { dst, msg });
    }

    /// The reply to `msg` when handling it queues that reply and changes
    /// nothing else: a forwarded read served by an owner already in O (or
    /// by its in-flight writeback), or an invalidation of a block not
    /// resident (a stale sharer that evicted silently, or a cache whose
    /// demand is still pending at the directory). `None` when
    /// [`Self::handle_message`] changes the controller or reports an error.
    /// These transitions live here alone, so a caller can answer without
    /// copying a controller it shares with a checkpoint.
    #[must_use]
    pub fn reply_only(&self, msg: DirMsg) -> Option<OutMsg> {
        match msg {
            DirMsg::Inv { addr, requestor } => {
                self.cache.l2.probe(addr).is_none().then_some(OutMsg {
                    dst: requestor,
                    msg: DirMsg::InvAck { addr },
                })
            }
            DirMsg::FwdGetS { addr, requestor } => {
                self.cache.owner_reply(addr).map(|data| OutMsg {
                    dst: requestor,
                    msg: DirMsg::Data {
                        addr,
                        data,
                        acks: 0,
                    },
                })
            }
            _ => None,
        }
    }

    /// Handles a protocol message delivered to this node.
    ///
    /// Returns `Ok(Some(_))` when the Speculative variant detects a
    /// mis-speculation, `Ok(None)` for ordinary handling, and `Err(_)` when a
    /// transition occurs that the Full protocol considers impossible (a
    /// simulator bug, not a mis-speculation).
    pub fn handle_message(
        &mut self,
        now: Cycle,
        msg: DirMsg,
    ) -> Result<Option<MisSpeculation>, ProtocolError> {
        if let Some(reply) = self.reply_only(msg) {
            self.outgoing.push_back(reply);
            return Ok(None);
        }
        match msg {
            DirMsg::Data { addr, data, acks } => self.on_data(now, addr, Some(data), acks),
            DirMsg::AckCount { addr, acks } => self.on_data(now, addr, None, acks),
            DirMsg::InvAck { addr } => self.on_inv_ack(now, addr),
            DirMsg::FwdGetS { addr, requestor } => self.on_fwd_gets(addr, requestor),
            DirMsg::FwdGetM {
                addr,
                requestor,
                acks,
            } => self.on_fwd_getm(now, addr, requestor, acks),
            DirMsg::Inv { addr, requestor } => self.on_inv(addr, requestor),
            DirMsg::WbAck { addr } => self.on_wb_ack(addr),
            other => Err(self.error(
                other.addr(),
                format!("cache controller received directory-bound message {other:?}"),
            )),
        }
    }

    fn error(&self, addr: BlockAddr, description: String) -> ProtocolError {
        ProtocolError {
            node: self.node,
            addr,
            description,
        }
    }

    fn demand_index(&self, addr: BlockAddr) -> Option<usize> {
        self.cache.demands.iter().position(|d| d.addr == addr)
    }

    fn on_data(
        &mut self,
        now: Cycle,
        addr: BlockAddr,
        data: Option<u64>,
        acks: u32,
    ) -> Result<Option<MisSpeculation>, ProtocolError> {
        let Some(idx) = self.demand_index(addr) else {
            return Err(self.error(addr, "Data/AckCount with no matching demand".into()));
        };
        let demand = &mut self.cache.demands[idx];
        if let Some(d) = data {
            demand.data = Some(d);
        } else if demand.data.is_none() {
            return Err(self.error(addr, "AckCount but the requestor holds no data".into()));
        }
        demand.protocol.needed = Some(acks);
        if is_complete(demand) {
            self.complete_demand(now, idx);
        }
        Ok(None)
    }

    fn on_inv_ack(
        &mut self,
        now: Cycle,
        addr: BlockAddr,
    ) -> Result<Option<MisSpeculation>, ProtocolError> {
        let Some(idx) = self.demand_index(addr) else {
            return Err(self.error(addr, "InvAck with no matching demand".into()));
        };
        let demand = &mut self.cache.demands[idx];
        let acks = &mut demand.protocol;
        acks.received += 1;
        if let Some(needed) = acks.needed {
            if acks.received > needed {
                return Err(self.error(addr, "more InvAcks than expected".into()));
            }
        }
        if is_complete(demand) {
            self.complete_demand(now, idx);
        }
        Ok(None)
    }

    fn on_fwd_gets(
        &mut self,
        addr: BlockAddr,
        requestor: NodeId,
    ) -> Result<Option<MisSpeculation>, ProtocolError> {
        // Owner in M: supply data, keep ownership (M -> O). An owner already
        // in O, or with its writeback in flight, only replies, in
        // `reply_only`.
        match self.cache.l2.get_mut(addr) {
            Some(line) if line.state == CacheState::M => {
                line.state = CacheState::O;
                let data = line.data;
                self.send(
                    requestor,
                    DirMsg::Data {
                        addr,
                        data,
                        acks: 0,
                    },
                );
                Ok(None)
            }
            Some(_) => Err(self.error(addr, "FwdGetS at a cache in state S".into())),
            None => Err(self.error(
                addr,
                "FwdGetS at a cache without a valid copy (impossible under a blocking directory)"
                    .into(),
            )),
        }
    }

    fn on_fwd_getm(
        &mut self,
        now: Cycle,
        addr: BlockAddr,
        requestor: NodeId,
        acks: u32,
    ) -> Result<Option<MisSpeculation>, ProtocolError> {
        // Owner with the line resident: transfer data and ownership.
        if let Some(line) = self.cache.l2.probe(addr) {
            if line.state == CacheState::S {
                return Err(self.error(addr, "FwdGetM at a cache in state S".into()));
            }
            let data = line.data;
            self.cache.invalidate(addr);
            self.send(requestor, DirMsg::Data { addr, data, acks });
            return Ok(None);
        }
        // Owner with the writeback in flight: supply data, surrender
        // ownership, and keep waiting for the Writeback-Ack (II_A).
        if let Some(data) = self.cache.surrender_writeback(addr) {
            self.send(requestor, DirMsg::Data { addr, data, acks });
            return Ok(None);
        }
        // No valid copy. This is exactly the transition of Section 3.1: the
        // Writeback-Ack overtook this Forwarded-RequestReadWrite, the cache
        // already invalidated, and the data is unrecoverable at this node.
        match self.variant {
            ProtocolVariant::Speculative => Ok(Some(MisSpeculation {
                kind: MisSpecKind::ForwardedRequestToInvalidCache,
                node: self.node,
                addr,
                at: now,
            })),
            ProtocolVariant::Full => Err(self.error(
                addr,
                "FwdGetM at a cache without a valid copy (the full protocol prevents this race)"
                    .into(),
            )),
        }
    }

    fn on_inv(
        &mut self,
        addr: BlockAddr,
        requestor: NodeId,
    ) -> Result<Option<MisSpeculation>, ProtocolError> {
        // A block not resident only acknowledges, in `reply_only`.
        if self.cache.l2.probe(addr).map(|line| line.state) != Some(CacheState::S) {
            return Err(self.error(addr, "Invalidation sent to the owner".into()));
        }
        self.cache.invalidate(addr);
        self.send(requestor, DirMsg::InvAck { addr });
        Ok(None)
    }

    fn on_wb_ack(&mut self, addr: BlockAddr) -> Result<Option<MisSpeculation>, ProtocolError> {
        match self.cache.writebacks.remove(&addr) {
            Some(_) => Ok(None),
            None => Err(self.error(addr, "Writeback-Ack with no writeback in flight".into())),
        }
    }

    fn complete_demand(&mut self, now: Cycle, idx: usize) {
        let (demand, state, value) = self.cache.retire(now, idx);
        // Install the block; an owned victim's writeback goes out first.
        if let Some(victim) = self.cache.install(demand.addr, state, value) {
            self.send_writeback(victim.addr, victim.data);
        }
        // Close the transaction at the directory.
        self.send(
            self.home(demand.addr),
            DirMsg::FinalAck { addr: demand.addr },
        );
    }

    fn send_writeback(&mut self, addr: BlockAddr, data: u64) {
        self.send(self.home(addr), DirMsg::PutM { addr, data });
    }

    /// Forces the eviction of a resident block (used by tests and by the
    /// workload model's capacity-pressure path). Owned blocks start a
    /// writeback; shared blocks are dropped silently, as in the protocol.
    pub fn force_evict(&mut self, addr: BlockAddr) -> bool {
        let Some(line) = self.cache.evict(addr) else {
            return false;
        };
        if line.state.is_owner() {
            self.send_writeback(addr, line.data);
        }
        true
    }
}

impl CacheController for DirCacheController {
    type Mshr = InvAcks;

    fn node(&self) -> NodeId {
        self.node
    }

    fn hierarchy(&self) -> &CacheHierarchy<InvAcks> {
        &self.cache
    }

    /// Presents a processor request. Up to `mshr_entries` demand
    /// transactions may be in flight per node (1 by default: the paper's
    /// blocking processor model).
    fn cpu_request(&mut self, now: Cycle, req: CpuRequest) -> AccessOutcome {
        let miss = match self.cache.access(req) {
            ControlFlow::Break(outcome) => return outcome,
            ControlFlow::Continue(miss) => miss,
        };
        let data = match miss {
            Miss::Absent => None,
            // Upgrade from S: drop the shared copy and request an exclusive
            // copy (data will be supplied afresh).
            Miss::Shared => {
                self.cache.invalidate(req.addr);
                None
            }
            // Owner upgrade: keep the line (and its data); ask the directory
            // for exclusivity. Data arrives as AckCount.
            Miss::Owned(data) => Some(data),
        };
        self.cache.issue(now, req, miss, data, InvAcks::default());
        let msg = match req.access {
            CpuAccess::Load => DirMsg::GetS { addr: req.addr },
            CpuAccess::Store => DirMsg::GetM { addr: req.addr },
        };
        self.send(self.home(req.addr), msg);
        AccessOutcome::MissIssued
    }

    fn take_completed(&mut self) -> Option<CompletedAccess> {
        self.cache.take_completed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> MemorySystemConfig {
        MemorySystemConfig {
            // Tiny caches so eviction paths are easy to exercise.
            l1_bytes: 4 * 64,
            l1_ways: 2,
            l2_bytes: 8 * 64,
            l2_ways: 2,
            ..MemorySystemConfig::default()
        }
    }

    fn ctrl(variant: ProtocolVariant) -> DirCacheController {
        DirCacheController::new(NodeId(1), variant, &config())
    }

    fn load(addr: u64) -> CpuRequest {
        CpuRequest {
            addr: BlockAddr(addr),
            access: CpuAccess::Load,
            store_value: 0,
        }
    }

    fn store(addr: u64, value: u64) -> CpuRequest {
        CpuRequest {
            addr: BlockAddr(addr),
            access: CpuAccess::Store,
            store_value: value,
        }
    }

    #[test]
    fn load_miss_issues_gets_and_completes_on_data() {
        let mut c = ctrl(ProtocolVariant::Full);
        assert_eq!(c.cpu_request(10, load(0x40)), AccessOutcome::MissIssued);
        let out = c.pop_outgoing().unwrap();
        assert_eq!(
            out.msg,
            DirMsg::GetS {
                addr: BlockAddr(0x40)
            }
        );
        assert_eq!(out.dst, BlockAddr(0x40).home_node(16));
        assert!(c.hierarchy().outstanding_demands() > 0);
        // Another request stalls while the miss is outstanding.
        assert_eq!(c.cpu_request(11, load(0x80)), AccessOutcome::Stall);

        c.handle_message(
            100,
            DirMsg::Data {
                addr: BlockAddr(0x40),
                data: 1234,
                acks: 0,
            },
        )
        .unwrap();
        let done = c.take_completed().unwrap();
        assert_eq!(done.value, 1234);
        assert_eq!(done.latency, 90);
        assert_eq!(c.hierarchy().outstanding_demands(), 0);
        // A FinalAck closes the transaction at the home directory.
        let fa = c.pop_outgoing().unwrap();
        assert_eq!(
            fa.msg,
            DirMsg::FinalAck {
                addr: BlockAddr(0x40)
            }
        );
        // The block is now resident in S and hits.
        match c.cpu_request(200, load(0x40)) {
            AccessOutcome::L2Hit { value, .. } | AccessOutcome::L1Hit { value, .. } => {
                assert_eq!(value, 1234);
            }
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn store_miss_waits_for_data_and_all_inv_acks() {
        let mut c = ctrl(ProtocolVariant::Full);
        assert_eq!(
            c.cpu_request(0, store(0x100, 77)),
            AccessOutcome::MissIssued
        );
        assert_eq!(
            c.pop_outgoing().unwrap().msg,
            DirMsg::GetM {
                addr: BlockAddr(0x100)
            }
        );
        // Data arrives expecting 2 invalidation acks.
        c.handle_message(
            50,
            DirMsg::Data {
                addr: BlockAddr(0x100),
                data: 5,
                acks: 2,
            },
        )
        .unwrap();
        assert!(c.take_completed().is_none());
        c.handle_message(
            60,
            DirMsg::InvAck {
                addr: BlockAddr(0x100),
            },
        )
        .unwrap();
        assert!(c.take_completed().is_none());
        c.handle_message(
            70,
            DirMsg::InvAck {
                addr: BlockAddr(0x100),
            },
        )
        .unwrap();
        let done = c.take_completed().unwrap();
        assert_eq!(done.value, 77);
        assert_eq!(
            c.hierarchy().cached_value(BlockAddr(0x100)),
            Some((CacheState::M, 77))
        );
    }

    #[test]
    fn inv_acks_may_arrive_before_data() {
        let mut c = ctrl(ProtocolVariant::Full);
        c.cpu_request(0, store(0x100, 9));
        c.pop_outgoing();
        c.handle_message(
            10,
            DirMsg::InvAck {
                addr: BlockAddr(0x100),
            },
        )
        .unwrap();
        c.handle_message(
            20,
            DirMsg::Data {
                addr: BlockAddr(0x100),
                data: 0,
                acks: 1,
            },
        )
        .unwrap();
        assert!(c.take_completed().is_some());
    }

    #[test]
    fn store_hit_in_m_updates_data_in_place() {
        let mut c = ctrl(ProtocolVariant::Full);
        c.cpu_request(0, store(0x40, 1));
        c.pop_outgoing();
        c.handle_message(
            1,
            DirMsg::Data {
                addr: BlockAddr(0x40),
                data: 0,
                acks: 0,
            },
        )
        .unwrap();
        c.take_completed();
        match c.cpu_request(10, store(0x40, 2)) {
            AccessOutcome::L1Hit { value, .. } | AccessOutcome::L2Hit { value, .. } => {
                assert_eq!(value, 2)
            }
            other => panic!("expected store hit, got {other:?}"),
        }
        assert_eq!(
            c.hierarchy().cached_value(BlockAddr(0x40)),
            Some((CacheState::M, 2))
        );
    }

    #[test]
    fn owner_upgrade_uses_ack_count_and_keeps_its_data() {
        let mut c = ctrl(ProtocolVariant::Full);
        // Fabricate an O copy by completing a load and then serving a FwdGetS
        // ... simpler: install via store then downgrade through FwdGetS.
        c.cpu_request(0, store(0x40, 42));
        c.pop_outgoing();
        c.handle_message(
            1,
            DirMsg::Data {
                addr: BlockAddr(0x40),
                data: 0,
                acks: 0,
            },
        )
        .unwrap();
        c.take_completed();
        c.pop_outgoing(); // FinalAck
                          // A FwdGetS downgrades M -> O and serves data.
        c.handle_message(
            5,
            DirMsg::FwdGetS {
                addr: BlockAddr(0x40),
                requestor: NodeId(3),
            },
        )
        .unwrap();
        let fwd = c.pop_outgoing().unwrap();
        assert_eq!(fwd.dst, NodeId(3));
        assert_eq!(
            fwd.msg,
            DirMsg::Data {
                addr: BlockAddr(0x40),
                data: 42,
                acks: 0
            }
        );
        assert_eq!(
            c.hierarchy().cached_value(BlockAddr(0x40)),
            Some((CacheState::O, 42))
        );
        // Now upgrade back to M: the controller issues GetM and can complete
        // from an AckCount alone because it already holds the data.
        assert_eq!(
            c.cpu_request(10, store(0x40, 43)),
            AccessOutcome::MissIssued
        );
        c.pop_outgoing(); // GetM
        c.handle_message(
            20,
            DirMsg::AckCount {
                addr: BlockAddr(0x40),
                acks: 1,
            },
        )
        .unwrap();
        assert!(c.take_completed().is_none());
        c.handle_message(
            25,
            DirMsg::InvAck {
                addr: BlockAddr(0x40),
            },
        )
        .unwrap();
        let done = c.take_completed().unwrap();
        assert_eq!(done.value, 43);
        assert_eq!(
            c.hierarchy().cached_value(BlockAddr(0x40)),
            Some((CacheState::M, 43))
        );
    }

    #[test]
    fn reply_only_answers_exactly_the_messages_that_change_nothing_else() {
        let mut c = ctrl(ProtocolVariant::Full);
        let a = BlockAddr(0x40);
        c.cpu_request(0, store(0x40, 5));
        c.pop_outgoing();
        c.handle_message(
            1,
            DirMsg::Data {
                addr: a,
                data: 0,
                acks: 0,
            },
        )
        .unwrap();
        c.take_completed();
        while c.pop_outgoing().is_some() {}
        let requestor = NodeId(2);
        let fwd = DirMsg::FwdGetS { addr: a, requestor };
        let inv = DirMsg::Inv {
            addr: BlockAddr(0x80),
            requestor,
        };
        // The first read moves M to O; an owner in O serving another read,
        // and the invalidation of an absent block, only reply.
        for (msg, reply_alone) in [(fwd, false), (fwd, true), (inv, true)] {
            let before = format!("{c:?}");
            let reply = c.reply_only(msg);
            c.handle_message(10, msg).unwrap();
            let sent = c.pop_outgoing();
            assert!(c.pop_outgoing().is_none());
            assert_eq!(reply.is_some(), reply_alone, "{msg:?}");
            if reply_alone {
                assert_eq!(reply, sent);
                assert_eq!(format!("{c:?}"), before, "{msg:?} changed the cache");
            }
        }
    }

    #[test]
    fn eviction_of_a_modified_victim_issues_a_writeback() {
        let mut c = ctrl(ProtocolVariant::Full);
        // L2: 4 sets x 2 ways; blocks 0x0, 0x4, 0x8 share set 0.
        let mut putms = Vec::new();
        for (i, addr) in [0x0u64, 0x4, 0x8].iter().enumerate() {
            c.cpu_request(i as u64 * 10, store(*addr, 100 + i as u64));
            c.pop_outgoing();
            c.handle_message(
                i as u64 * 10 + 5,
                DirMsg::Data {
                    addr: BlockAddr(*addr),
                    data: 0,
                    acks: 0,
                },
            )
            .unwrap();
            c.take_completed();
            while let Some(out) = c.pop_outgoing() {
                if let DirMsg::PutM { addr, .. } = out.msg {
                    putms.push(addr);
                }
            }
        }
        // Inserting 0x8 must have evicted one of the earlier blocks with a PutM.
        let evicted = if c.hierarchy().cached_value(BlockAddr(0x0)).is_none() {
            0x0
        } else {
            0x4
        };
        assert_eq!(putms, [BlockAddr(evicted)]);
        // A request to the evicted (write-back-in-flight) block stalls.
        assert_eq!(c.cpu_request(100, load(evicted)), AccessOutcome::Stall);
        // The writeback completes on WbAck, after which the block can be
        // requested again.
        c.handle_message(
            110,
            DirMsg::WbAck {
                addr: BlockAddr(evicted),
            },
        )
        .unwrap();
        assert_eq!(c.cpu_request(120, load(evicted)), AccessOutcome::MissIssued);
    }

    #[test]
    fn owner_with_writeback_in_flight_still_serves_forwards() {
        let mut c = ctrl(ProtocolVariant::Full);
        c.cpu_request(0, store(0x40, 7));
        c.pop_outgoing();
        c.handle_message(
            1,
            DirMsg::Data {
                addr: BlockAddr(0x40),
                data: 0,
                acks: 0,
            },
        )
        .unwrap();
        c.take_completed();
        while c.pop_outgoing().is_some() {}
        assert!(c.force_evict(BlockAddr(0x40)));
        let putm = c.pop_outgoing().unwrap();
        assert_eq!(
            putm.msg,
            DirMsg::PutM {
                addr: BlockAddr(0x40),
                data: 7
            }
        );
        // FwdGetS while MI_A: data served, still waiting for WbAck.
        c.handle_message(
            20,
            DirMsg::FwdGetS {
                addr: BlockAddr(0x40),
                requestor: NodeId(5),
            },
        )
        .unwrap();
        assert_eq!(
            c.pop_outgoing().unwrap().msg,
            DirMsg::Data {
                addr: BlockAddr(0x40),
                data: 7,
                acks: 0
            }
        );
        // FwdGetM while MI_A: data + ownership handed over (II_A).
        c.handle_message(
            30,
            DirMsg::FwdGetM {
                addr: BlockAddr(0x40),
                requestor: NodeId(6),
                acks: 1,
            },
        )
        .unwrap();
        assert_eq!(
            c.pop_outgoing().unwrap().msg,
            DirMsg::Data {
                addr: BlockAddr(0x40),
                data: 7,
                acks: 1
            }
        );
        // The WbAck then retires the writeback entry.
        c.handle_message(
            40,
            DirMsg::WbAck {
                addr: BlockAddr(0x40),
            },
        )
        .unwrap();
        assert_eq!(c.cpu_request(50, load(0x40)), AccessOutcome::MissIssued);
    }

    #[test]
    fn reordered_wback_then_fwdgetm_is_detected_as_misspeculation_in_speculative_mode() {
        let mut c = ctrl(ProtocolVariant::Speculative);
        // Install M copy, then evict it (PutM in flight).
        c.cpu_request(0, store(0x40, 7));
        c.pop_outgoing();
        c.handle_message(
            1,
            DirMsg::Data {
                addr: BlockAddr(0x40),
                data: 0,
                acks: 0,
            },
        )
        .unwrap();
        c.take_completed();
        while c.pop_outgoing().is_some() {}
        c.force_evict(BlockAddr(0x40));
        while c.pop_outgoing().is_some() {}
        // The adaptively routed network delivers the WbAck *before* the
        // FwdGetM (point-to-point order violated).
        c.handle_message(
            20,
            DirMsg::WbAck {
                addr: BlockAddr(0x40),
            },
        )
        .unwrap();
        let result = c
            .handle_message(
                30,
                DirMsg::FwdGetM {
                    addr: BlockAddr(0x40),
                    requestor: NodeId(9),
                    acks: 0,
                },
            )
            .unwrap();
        let misspec = result.expect("speculative protocol must detect the race");
        assert_eq!(misspec.kind, MisSpecKind::ForwardedRequestToInvalidCache);
        assert_eq!(misspec.node, NodeId(1));
        assert_eq!(misspec.addr, BlockAddr(0x40));
    }

    #[test]
    fn the_same_reordering_is_a_protocol_error_in_the_full_variant() {
        let mut c = ctrl(ProtocolVariant::Full);
        c.cpu_request(0, store(0x40, 7));
        c.pop_outgoing();
        c.handle_message(
            1,
            DirMsg::Data {
                addr: BlockAddr(0x40),
                data: 0,
                acks: 0,
            },
        )
        .unwrap();
        c.take_completed();
        while c.pop_outgoing().is_some() {}
        c.force_evict(BlockAddr(0x40));
        while c.pop_outgoing().is_some() {}
        c.handle_message(
            20,
            DirMsg::WbAck {
                addr: BlockAddr(0x40),
            },
        )
        .unwrap();
        let err = c.handle_message(
            30,
            DirMsg::FwdGetM {
                addr: BlockAddr(0x40),
                requestor: NodeId(9),
                acks: 0,
            },
        );
        assert!(
            err.is_err(),
            "full protocol treats this as a bug, not a misspeculation"
        );
    }

    #[test]
    fn invalidation_of_a_shared_copy_acknowledges_the_requestor() {
        let mut c = ctrl(ProtocolVariant::Full);
        c.cpu_request(0, load(0x40));
        c.pop_outgoing();
        c.handle_message(
            1,
            DirMsg::Data {
                addr: BlockAddr(0x40),
                data: 3,
                acks: 0,
            },
        )
        .unwrap();
        c.take_completed();
        while c.pop_outgoing().is_some() {}
        c.handle_message(
            10,
            DirMsg::Inv {
                addr: BlockAddr(0x40),
                requestor: NodeId(7),
            },
        )
        .unwrap();
        let ack = c.pop_outgoing().unwrap();
        assert_eq!(ack.dst, NodeId(7));
        assert_eq!(
            ack.msg,
            DirMsg::InvAck {
                addr: BlockAddr(0x40)
            }
        );
        assert_eq!(c.hierarchy().cached_value(BlockAddr(0x40)), None);
        // A stale invalidation (block not resident) is still acknowledged.
        c.handle_message(
            20,
            DirMsg::Inv {
                addr: BlockAddr(0x80),
                requestor: NodeId(2),
            },
        )
        .unwrap();
        assert_eq!(
            c.pop_outgoing().unwrap().msg,
            DirMsg::InvAck {
                addr: BlockAddr(0x80)
            }
        );
    }

    #[test]
    fn unexpected_messages_are_protocol_errors() {
        let mut c = ctrl(ProtocolVariant::Full);
        assert!(c
            .handle_message(
                0,
                DirMsg::Data {
                    addr: BlockAddr(1),
                    data: 0,
                    acks: 0
                }
            )
            .is_err());
        assert!(c
            .handle_message(0, DirMsg::WbAck { addr: BlockAddr(1) })
            .is_err());
        assert!(c
            .handle_message(0, DirMsg::GetS { addr: BlockAddr(1) })
            .is_err());
    }

    fn ctrl_mshr(variant: ProtocolVariant, mshr_entries: usize) -> DirCacheController {
        let cfg = MemorySystemConfig {
            mshr_entries,
            ..config()
        };
        DirCacheController::new(NodeId(1), variant, &cfg)
    }

    #[test]
    fn parallel_misses_complete_out_of_order_by_address() {
        let mut c = ctrl_mshr(ProtocolVariant::Full, 2);
        assert_eq!(c.cpu_request(0, load(0x40)), AccessOutcome::MissIssued);
        assert_eq!(c.cpu_request(1, load(0x80)), AccessOutcome::MissIssued);
        assert_eq!(c.hierarchy().outstanding_demands(), 2);
        // A third miss exceeds the two MSHRs and stalls.
        assert_eq!(c.cpu_request(2, load(0xc0)), AccessOutcome::Stall);
        // The younger miss's data arrives first; only it completes.
        c.handle_message(
            50,
            DirMsg::Data {
                addr: BlockAddr(0x80),
                data: 22,
                acks: 0,
            },
        )
        .unwrap();
        let done = c.take_completed().unwrap();
        assert_eq!(done.addr, BlockAddr(0x80));
        assert_eq!(done.value, 22);
        assert_eq!(c.hierarchy().outstanding_demands(), 1);
        assert_eq!(c.hierarchy().oldest_demand(), Some((0, BlockAddr(0x40))));
        c.handle_message(
            90,
            DirMsg::Data {
                addr: BlockAddr(0x40),
                data: 11,
                acks: 0,
            },
        )
        .unwrap();
        let done = c.take_completed().unwrap();
        assert_eq!(done.addr, BlockAddr(0x40));
        assert_eq!(done.value, 11);
        assert_eq!(c.hierarchy().outstanding_demands(), 0);
    }

    #[test]
    fn duplicate_address_miss_stalls_even_with_free_mshrs() {
        let mut c = ctrl_mshr(ProtocolVariant::Full, 4);
        assert_eq!(c.cpu_request(0, load(0x40)), AccessOutcome::MissIssued);
        // No coalescing: a second demand to the same block waits for the
        // first rather than occupying another MSHR.
        assert_eq!(c.cpu_request(1, store(0x40, 5)), AccessOutcome::Stall);
        assert_eq!(c.hierarchy().outstanding_demands(), 1);
    }

    #[test]
    fn resident_upgrades_are_mutually_exclusive_with_other_misses() {
        let mut c = ctrl_mshr(ProtocolVariant::Full, 4);
        // Install an M copy of 0x40, then downgrade it to O via FwdGetS so a
        // later store needs a resident owner upgrade.
        c.cpu_request(0, store(0x40, 3));
        c.pop_outgoing();
        c.handle_message(
            1,
            DirMsg::Data {
                addr: BlockAddr(0x40),
                data: 0,
                acks: 0,
            },
        )
        .unwrap();
        c.take_completed();
        while c.pop_outgoing().is_some() {}
        c.handle_message(
            5,
            DirMsg::FwdGetS {
                addr: BlockAddr(0x40),
                requestor: NodeId(3),
            },
        )
        .unwrap();
        while c.pop_outgoing().is_some() {}
        assert_eq!(
            c.hierarchy().cached_value(BlockAddr(0x40)),
            Some((CacheState::O, 3))
        );
        // A plain miss is outstanding: the O->M upgrade must wait for the
        // MSHR file to drain before it may issue.
        assert_eq!(c.cpu_request(10, load(0x80)), AccessOutcome::MissIssued);
        assert_eq!(c.cpu_request(11, store(0x40, 9)), AccessOutcome::Stall);
        c.handle_message(
            20,
            DirMsg::Data {
                addr: BlockAddr(0x80),
                data: 0,
                acks: 0,
            },
        )
        .unwrap();
        c.take_completed();
        while c.pop_outgoing().is_some() {}
        // Now the upgrade issues, and while it is outstanding every new
        // demand (even to an unrelated block) stalls: the upgraded line must
        // stay resident, so no install/eviction may race with it.
        assert_eq!(c.cpu_request(30, store(0x40, 9)), AccessOutcome::MissIssued);
        assert_eq!(c.cpu_request(31, load(0xc0)), AccessOutcome::Stall);
        c.handle_message(
            40,
            DirMsg::AckCount {
                addr: BlockAddr(0x40),
                acks: 0,
            },
        )
        .unwrap();
        let done = c.take_completed().unwrap();
        assert_eq!(done.value, 9);
        assert_eq!(
            c.hierarchy().cached_value(BlockAddr(0x40)),
            Some((CacheState::M, 9))
        );
        assert_eq!(c.cpu_request(50, load(0xc0)), AccessOutcome::MissIssued);
    }
}
