//! The directory controller (home node) of the directory protocol.
//!
//! The directory is *blocking*: while a transaction for a block is in flight
//! (between forwarding/answering a request and receiving the requestor's
//! FinalAck) other requests for the block wait in a per-block pending queue.
//! Blocking directories are how the Multifacet-style protocols the paper
//! builds on close the great majority of races; the one race the paper
//! studies — a Writeback from the previous owner arriving while an
//! ownership-transferring transaction is in flight — is where the two
//! variants differ:
//!
//! * **Full**: the racing Writeback waits in the pending queue. The
//!   Writeback-Ack is only sent after the conflicting transaction's FinalAck,
//!   so it can never overtake the Forwarded-RequestReadWrite (causality, not
//!   network ordering, guarantees it). The cost is the extra pending-queue
//!   handling and the stale-writeback distinction — the "additional states
//!   and transitions" the paper talks about.
//! * **Speculative**: the directory acknowledges the racing Writeback
//!   *immediately* and discards its data (the owner's data is already being
//!   transferred by the forwarded request). This is simpler, but correct only
//!   if the ForwardedRequest virtual network delivers the earlier
//!   Forwarded-RequestReadWrite before this Writeback-Ack — the speculation
//!   on point-to-point ordering.

use std::collections::VecDeque;

use specsim_base::{BlockAddr, Cycle, FastMap, NodeId, ProtocolVariant};

use crate::data::MemoryStore;
use crate::types::{NodeSet, ProtocolError};

use super::msg::{DirMsg, OutMsg};

/// Stable directory states for one block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirState {
    /// No cache holds the block; memory is the owner.
    Uncached,
    /// One or more caches hold read-only copies; memory is the owner.
    Shared {
        /// The caches holding S copies.
        sharers: NodeSet,
    },
    /// A cache owns the block (M or O); other caches may hold S copies.
    Owned {
        /// The owning cache.
        owner: NodeId,
        /// Caches holding S copies alongside the owner.
        sharers: NodeSet,
    },
}

/// Information about the transaction the directory is currently blocked on.
#[derive(Debug, Clone, PartialEq, Eq)]
struct BusyInfo {
    /// The requestor whose FinalAck will unblock the entry.
    requestor: NodeId,
    /// The state to install when the FinalAck arrives.
    next: DirState,
    /// The owner at the time the transaction started (if any).
    prev_owner: Option<NodeId>,
    /// Whether this transaction transfers ownership away from `prev_owner`.
    ownership_transfer: bool,
}

#[derive(Debug, Clone, Default)]
struct DirEntry {
    state: Option<DirState>, // None = Uncached and never touched
    busy: Option<BusyInfo>,
    pending: VecDeque<(NodeId, DirMsg)>,
}

/// The directory + memory controller for one home node.
#[derive(Debug, Clone)]
pub struct DirectoryController {
    node: NodeId,
    variant: ProtocolVariant,
    entries: FastMap<BlockAddr, DirEntry>,
    memory: MemoryStore,
    outgoing: VecDeque<OutMsg>,
}

impl DirectoryController {
    /// Creates the directory controller for home node `node`.
    #[must_use]
    pub fn new(node: NodeId, variant: ProtocolVariant) -> Self {
        Self {
            node,
            variant,
            entries: FastMap::default(),
            memory: MemoryStore::new(),
            outgoing: VecDeque::new(),
        }
    }

    /// The home node this directory serves.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Read-only view of this home node's memory.
    #[must_use]
    pub fn memory(&self) -> &MemoryStore {
        &self.memory
    }

    /// Returns and clears the memory's count of writes since the last call
    /// (fed into the SafetyNet log by the system layer).
    pub fn take_write_log(&mut self) -> usize {
        self.memory.take_write_log()
    }

    /// True when [`Self::take_write_log`] would return a nonzero count.
    #[must_use]
    pub fn has_write_log(&self) -> bool {
        self.memory.has_write_log()
    }

    /// The stable directory state recorded for a block (diagnostics).
    #[must_use]
    pub fn state_of(&self, addr: BlockAddr) -> DirState {
        self.entries
            .get(&addr)
            .and_then(|e| e.state.clone())
            .unwrap_or(DirState::Uncached)
    }

    /// True when the block has a transaction in flight.
    #[must_use]
    pub fn is_busy(&self, addr: BlockAddr) -> bool {
        self.entries.get(&addr).is_some_and(|e| e.busy.is_some())
    }

    /// Number of protocol messages waiting to be injected.
    #[must_use]
    pub fn outgoing_len(&self) -> usize {
        self.outgoing.len()
    }

    /// Removes the next protocol message to inject, if any.
    pub fn pop_outgoing(&mut self) -> Option<OutMsg> {
        self.outgoing.pop_front()
    }

    fn send(&mut self, dst: NodeId, msg: DirMsg) {
        self.outgoing.push_back(OutMsg { dst, msg });
    }

    fn error(&self, addr: BlockAddr, description: String) -> ProtocolError {
        ProtocolError {
            node: self.node,
            addr,
            description,
        }
    }

    /// Handles a protocol message from node `src`.
    pub fn handle_message(
        &mut self,
        now: Cycle,
        src: NodeId,
        msg: DirMsg,
    ) -> Result<(), ProtocolError> {
        match msg {
            DirMsg::GetS { addr } | DirMsg::GetM { addr } => {
                if self.is_busy(addr) {
                    self.entries
                        .entry(addr)
                        .or_default()
                        .pending
                        .push_back((src, msg));
                    Ok(())
                } else {
                    self.process_request(now, src, msg)
                }
            }
            DirMsg::PutM { addr, data } => self.on_putm(now, src, addr, data),
            DirMsg::FinalAck { addr } => self.on_final_ack(now, src, addr),
            other => Err(self.error(
                other.addr(),
                format!("directory received cache-bound message {other:?}"),
            )),
        }
    }

    fn process_request(
        &mut self,
        _now: Cycle,
        src: NodeId,
        msg: DirMsg,
    ) -> Result<(), ProtocolError> {
        match msg {
            DirMsg::GetS { addr } => {
                let state = self.state_of(addr);
                match state {
                    DirState::Uncached => {
                        let data = self.memory.read(addr);
                        self.send(
                            src,
                            DirMsg::Data {
                                addr,
                                data,
                                acks: 0,
                            },
                        );
                        self.set_busy(
                            addr,
                            BusyInfo {
                                requestor: src,
                                next: DirState::Shared {
                                    sharers: NodeSet::single(src),
                                },
                                prev_owner: None,
                                ownership_transfer: false,
                            },
                        );
                    }
                    DirState::Shared { sharers } => {
                        let data = self.memory.read(addr);
                        self.send(
                            src,
                            DirMsg::Data {
                                addr,
                                data,
                                acks: 0,
                            },
                        );
                        let mut next = sharers;
                        next.insert(src);
                        self.set_busy(
                            addr,
                            BusyInfo {
                                requestor: src,
                                next: DirState::Shared { sharers: next },
                                prev_owner: None,
                                ownership_transfer: false,
                            },
                        );
                    }
                    DirState::Owned { owner, sharers } => {
                        if owner == src {
                            return Err(self.error(addr, "owner issued a GetS".into()));
                        }
                        self.send(
                            owner,
                            DirMsg::FwdGetS {
                                addr,
                                requestor: src,
                            },
                        );
                        let mut next = sharers;
                        next.insert(src);
                        self.set_busy(
                            addr,
                            BusyInfo {
                                requestor: src,
                                next: DirState::Owned {
                                    owner,
                                    sharers: next,
                                },
                                prev_owner: Some(owner),
                                ownership_transfer: false,
                            },
                        );
                    }
                }
                Ok(())
            }
            DirMsg::GetM { addr } => {
                let state = self.state_of(addr);
                match state {
                    DirState::Uncached => {
                        let data = self.memory.read(addr);
                        self.send(
                            src,
                            DirMsg::Data {
                                addr,
                                data,
                                acks: 0,
                            },
                        );
                        self.set_busy(
                            addr,
                            BusyInfo {
                                requestor: src,
                                next: DirState::Owned {
                                    owner: src,
                                    sharers: NodeSet::empty(),
                                },
                                prev_owner: None,
                                ownership_transfer: false,
                            },
                        );
                    }
                    DirState::Shared { sharers } => {
                        let others = sharers.without(src);
                        let data = self.memory.read(addr);
                        self.send(
                            src,
                            DirMsg::Data {
                                addr,
                                data,
                                acks: others.len() as u32,
                            },
                        );
                        for sharer in others.iter() {
                            self.send(
                                sharer,
                                DirMsg::Inv {
                                    addr,
                                    requestor: src,
                                },
                            );
                        }
                        self.set_busy(
                            addr,
                            BusyInfo {
                                requestor: src,
                                next: DirState::Owned {
                                    owner: src,
                                    sharers: NodeSet::empty(),
                                },
                                prev_owner: None,
                                ownership_transfer: false,
                            },
                        );
                    }
                    DirState::Owned { owner, sharers } => {
                        let others = sharers.without(src);
                        if owner == src {
                            // Owner upgrading O -> M: no data transfer needed.
                            self.send(
                                src,
                                DirMsg::AckCount {
                                    addr,
                                    acks: others.len() as u32,
                                },
                            );
                        } else {
                            self.send(
                                owner,
                                DirMsg::FwdGetM {
                                    addr,
                                    requestor: src,
                                    acks: others.len() as u32,
                                },
                            );
                        }
                        for sharer in others.iter() {
                            self.send(
                                sharer,
                                DirMsg::Inv {
                                    addr,
                                    requestor: src,
                                },
                            );
                        }
                        self.set_busy(
                            addr,
                            BusyInfo {
                                requestor: src,
                                next: DirState::Owned {
                                    owner: src,
                                    sharers: NodeSet::empty(),
                                },
                                prev_owner: Some(owner),
                                ownership_transfer: owner != src,
                            },
                        );
                    }
                }
                Ok(())
            }
            other => Err(self.error(other.addr(), "process_request on non-request".into())),
        }
    }

    fn set_busy(&mut self, addr: BlockAddr, busy: BusyInfo) {
        let entry = self.entries.entry(addr).or_default();
        debug_assert!(entry.busy.is_none(), "directory entry already busy");
        entry.busy = Some(busy);
    }

    fn on_putm(
        &mut self,
        now: Cycle,
        src: NodeId,
        addr: BlockAddr,
        data: u64,
    ) -> Result<(), ProtocolError> {
        let busy = self.entries.get(&addr).and_then(|e| e.busy.clone());
        if let Some(busy) = busy {
            // A transaction is in flight for this block.
            match self.variant {
                ProtocolVariant::Speculative
                    if busy.ownership_transfer && busy.prev_owner == Some(src) =>
                {
                    // The simplification of Section 3.1: acknowledge the
                    // racing Writeback right away. The previous owner's data
                    // is being handed to the new owner by the in-flight
                    // Forwarded-RequestReadWrite, so the writeback data is
                    // stale and is dropped. Correct only if the forwarded
                    // request reaches the previous owner before this ack.
                    self.send(src, DirMsg::WbAck { addr });
                    return Ok(());
                }
                _ => {
                    // Full variant (and non-racing cases in the speculative
                    // variant): wait for the in-flight transaction to finish.
                    self.entries
                        .entry(addr)
                        .or_default()
                        .pending
                        .push_back((src, DirMsg::PutM { addr, data }));
                    return Ok(());
                }
            }
        }
        // No transaction in flight.
        match self.state_of(addr) {
            DirState::Owned { owner, sharers } if owner == src => {
                // Normal writeback: memory takes the data; remaining sharers
                // (if any) keep read-only copies.
                self.memory.write(addr, data);
                self.send(src, DirMsg::WbAck { addr });
                let next = if sharers.is_empty() {
                    DirState::Uncached
                } else {
                    DirState::Shared { sharers }
                };
                self.entries.entry(addr).or_default().state = Some(next);
                let _ = now;
                Ok(())
            }
            _ => {
                // Stale writeback: ownership has already moved on (the full
                // variant reaches this through the pending queue). Acknowledge
                // so the old owner can retire its writeback buffer entry, and
                // drop the stale data.
                self.send(src, DirMsg::WbAck { addr });
                Ok(())
            }
        }
    }

    fn on_final_ack(
        &mut self,
        now: Cycle,
        src: NodeId,
        addr: BlockAddr,
    ) -> Result<(), ProtocolError> {
        let entry = self.entries.entry(addr).or_default();
        let Some(busy) = entry.busy.clone() else {
            return Err(self.error(addr, "FinalAck for a block that is not busy".into()));
        };
        if busy.requestor != src {
            return Err(self.error(
                addr,
                format!(
                    "FinalAck from {src} but the in-flight transaction belongs to {}",
                    busy.requestor
                ),
            ));
        }
        entry.state = Some(busy.next);
        entry.busy = None;
        // Serve deferred requests until the entry becomes busy again (or the
        // queue empties).
        loop {
            let next = {
                let entry = self.entries.entry(addr).or_default();
                if entry.busy.is_some() {
                    break;
                }
                entry.pending.pop_front()
            };
            let Some((pending_src, pending_msg)) = next else {
                break;
            };
            match pending_msg {
                DirMsg::GetS { .. } | DirMsg::GetM { .. } => {
                    self.process_request(now, pending_src, pending_msg)?;
                }
                DirMsg::PutM { addr, data } => {
                    self.on_putm(now, pending_src, addr, data)?;
                }
                other => {
                    return Err(self.error(addr, format!("unexpected pending message {other:?}")))
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOME: NodeId = NodeId(0);
    const A: BlockAddr = BlockAddr(0x10);

    fn dir(variant: ProtocolVariant) -> DirectoryController {
        DirectoryController::new(HOME, variant)
    }

    fn drain(d: &mut DirectoryController) -> Vec<OutMsg> {
        std::iter::from_fn(|| d.pop_outgoing()).collect()
    }

    #[test]
    fn gets_on_uncached_block_returns_memory_data_and_blocks_until_final_ack() {
        let mut d = dir(ProtocolVariant::Full);
        d.handle_message(0, NodeId(1), DirMsg::GetS { addr: A })
            .unwrap();
        let out = drain(&mut d);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, NodeId(1));
        assert_eq!(
            out[0].msg,
            DirMsg::Data {
                addr: A,
                data: 0,
                acks: 0
            }
        );
        assert!(d.is_busy(A));
        d.handle_message(10, NodeId(1), DirMsg::FinalAck { addr: A })
            .unwrap();
        assert!(!d.is_busy(A));
        assert_eq!(
            d.state_of(A),
            DirState::Shared {
                sharers: NodeSet::single(NodeId(1))
            }
        );
    }

    #[test]
    fn getm_on_shared_block_invalidates_other_sharers() {
        let mut d = dir(ProtocolVariant::Full);
        // Two sharers: N1 and N2.
        for n in [1u16, 2] {
            d.handle_message(0, NodeId(n), DirMsg::GetS { addr: A })
                .unwrap();
            drain(&mut d);
            d.handle_message(1, NodeId(n), DirMsg::FinalAck { addr: A })
                .unwrap();
        }
        // N3 wants to write.
        d.handle_message(10, NodeId(3), DirMsg::GetM { addr: A })
            .unwrap();
        let out = drain(&mut d);
        let data: Vec<_> = out
            .iter()
            .filter(|m| matches!(m.msg, DirMsg::Data { .. }))
            .collect();
        let invs: Vec<_> = out
            .iter()
            .filter(|m| matches!(m.msg, DirMsg::Inv { .. }))
            .collect();
        assert_eq!(data.len(), 1);
        assert_eq!(data[0].dst, NodeId(3));
        assert_eq!(
            data[0].msg,
            DirMsg::Data {
                addr: A,
                data: 0,
                acks: 2
            }
        );
        assert_eq!(invs.len(), 2);
        let inv_dsts: Vec<NodeId> = invs.iter().map(|m| m.dst).collect();
        assert!(inv_dsts.contains(&NodeId(1)) && inv_dsts.contains(&NodeId(2)));
        d.handle_message(20, NodeId(3), DirMsg::FinalAck { addr: A })
            .unwrap();
        assert_eq!(
            d.state_of(A),
            DirState::Owned {
                owner: NodeId(3),
                sharers: NodeSet::empty()
            }
        );
    }

    #[test]
    fn getm_on_owned_block_forwards_to_the_owner() {
        let mut d = dir(ProtocolVariant::Full);
        d.handle_message(0, NodeId(1), DirMsg::GetM { addr: A })
            .unwrap();
        drain(&mut d);
        d.handle_message(1, NodeId(1), DirMsg::FinalAck { addr: A })
            .unwrap();
        d.handle_message(10, NodeId(2), DirMsg::GetM { addr: A })
            .unwrap();
        let out = drain(&mut d);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, NodeId(1));
        assert_eq!(
            out[0].msg,
            DirMsg::FwdGetM {
                addr: A,
                requestor: NodeId(2),
                acks: 0
            }
        );
    }

    #[test]
    fn owner_upgrade_gets_an_ack_count_not_data() {
        let mut d = dir(ProtocolVariant::Full);
        // N1 becomes owner, then N2 a sharer (owner keeps ownership via FwdGetS).
        d.handle_message(0, NodeId(1), DirMsg::GetM { addr: A })
            .unwrap();
        drain(&mut d);
        d.handle_message(1, NodeId(1), DirMsg::FinalAck { addr: A })
            .unwrap();
        d.handle_message(2, NodeId(2), DirMsg::GetS { addr: A })
            .unwrap();
        drain(&mut d);
        d.handle_message(3, NodeId(2), DirMsg::FinalAck { addr: A })
            .unwrap();
        // Owner N1 upgrades back to M.
        d.handle_message(10, NodeId(1), DirMsg::GetM { addr: A })
            .unwrap();
        let out = drain(&mut d);
        let ack: Vec<_> = out
            .iter()
            .filter(|m| matches!(m.msg, DirMsg::AckCount { .. }))
            .collect();
        assert_eq!(ack.len(), 1);
        assert_eq!(ack[0].dst, NodeId(1));
        assert_eq!(ack[0].msg, DirMsg::AckCount { addr: A, acks: 1 });
        assert!(out
            .iter()
            .any(|m| m.dst == NodeId(2) && matches!(m.msg, DirMsg::Inv { .. })));
    }

    #[test]
    fn normal_writeback_updates_memory_and_acknowledges() {
        let mut d = dir(ProtocolVariant::Full);
        d.handle_message(0, NodeId(1), DirMsg::GetM { addr: A })
            .unwrap();
        drain(&mut d);
        d.handle_message(1, NodeId(1), DirMsg::FinalAck { addr: A })
            .unwrap();
        d.handle_message(10, NodeId(1), DirMsg::PutM { addr: A, data: 555 })
            .unwrap();
        let out = drain(&mut d);
        assert_eq!(
            out,
            vec![OutMsg {
                dst: NodeId(1),
                msg: DirMsg::WbAck { addr: A }
            }]
        );
        assert_eq!(d.memory().read(A), 555);
        assert_eq!(d.state_of(A), DirState::Uncached);
    }

    #[test]
    fn requests_to_a_busy_block_are_deferred_until_final_ack() {
        let mut d = dir(ProtocolVariant::Full);
        d.handle_message(0, NodeId(1), DirMsg::GetM { addr: A })
            .unwrap();
        drain(&mut d);
        // A second requestor arrives while busy.
        d.handle_message(5, NodeId(2), DirMsg::GetS { addr: A })
            .unwrap();
        assert!(
            drain(&mut d).is_empty(),
            "deferred request must not be served yet"
        );
        // FinalAck unblocks and the deferred GetS is served by forwarding to
        // the new owner N1.
        d.handle_message(10, NodeId(1), DirMsg::FinalAck { addr: A })
            .unwrap();
        let out = drain(&mut d);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, NodeId(1));
        assert_eq!(
            out[0].msg,
            DirMsg::FwdGetS {
                addr: A,
                requestor: NodeId(2)
            }
        );
        assert!(d.is_busy(A));
    }

    /// The race of Section 3.1, full-protocol behaviour: the Writeback that
    /// races with an ownership transfer waits until the transfer completes,
    /// so its Writeback-Ack is causally ordered after the FwdGetM.
    #[test]
    fn full_variant_defers_racing_writeback_until_transfer_completes() {
        let mut d = dir(ProtocolVariant::Full);
        // N1 owns the block.
        d.handle_message(0, NodeId(1), DirMsg::GetM { addr: A })
            .unwrap();
        drain(&mut d);
        d.handle_message(1, NodeId(1), DirMsg::FinalAck { addr: A })
            .unwrap();
        // N2's GetM is processed first (forwarded to N1); then N1's racing
        // PutM arrives at the busy directory.
        d.handle_message(10, NodeId(2), DirMsg::GetM { addr: A })
            .unwrap();
        let fwd = drain(&mut d);
        assert!(matches!(fwd[0].msg, DirMsg::FwdGetM { .. }));
        d.handle_message(11, NodeId(1), DirMsg::PutM { addr: A, data: 7 })
            .unwrap();
        assert!(
            drain(&mut d).is_empty(),
            "no WbAck may be sent while the transfer is in flight"
        );
        // Transfer completes; the deferred PutM is now recognised as stale.
        d.handle_message(20, NodeId(2), DirMsg::FinalAck { addr: A })
            .unwrap();
        let out = drain(&mut d);
        assert_eq!(
            out,
            vec![OutMsg {
                dst: NodeId(1),
                msg: DirMsg::WbAck { addr: A }
            }]
        );
        // Memory was NOT updated with the stale data.
        assert_eq!(d.memory().read(A), 0);
        assert_eq!(
            d.state_of(A),
            DirState::Owned {
                owner: NodeId(2),
                sharers: NodeSet::empty()
            }
        );
    }

    /// The same race, speculative-protocol behaviour: the Writeback-Ack is
    /// sent immediately (simpler directory), creating the window in which an
    /// adaptively routed network can deliver it before the FwdGetM.
    #[test]
    fn speculative_variant_acknowledges_racing_writeback_immediately() {
        let mut d = dir(ProtocolVariant::Speculative);
        d.handle_message(0, NodeId(1), DirMsg::GetM { addr: A })
            .unwrap();
        drain(&mut d);
        d.handle_message(1, NodeId(1), DirMsg::FinalAck { addr: A })
            .unwrap();
        d.handle_message(10, NodeId(2), DirMsg::GetM { addr: A })
            .unwrap();
        drain(&mut d);
        d.handle_message(11, NodeId(1), DirMsg::PutM { addr: A, data: 7 })
            .unwrap();
        let out = drain(&mut d);
        assert_eq!(
            out,
            vec![OutMsg {
                dst: NodeId(1),
                msg: DirMsg::WbAck { addr: A }
            }]
        );
        // The stale data is dropped: memory keeps its old value.
        assert_eq!(d.memory().read(A), 0);
        assert!(d.is_busy(A), "the in-flight GetM transaction is unaffected");
        // The GetM transaction still completes normally afterwards.
        d.handle_message(20, NodeId(2), DirMsg::FinalAck { addr: A })
            .unwrap();
        assert_eq!(
            d.state_of(A),
            DirState::Owned {
                owner: NodeId(2),
                sharers: NodeSet::empty()
            }
        );
    }

    #[test]
    fn final_ack_from_the_wrong_node_is_an_error() {
        let mut d = dir(ProtocolVariant::Full);
        d.handle_message(0, NodeId(1), DirMsg::GetS { addr: A })
            .unwrap();
        drain(&mut d);
        assert!(d
            .handle_message(1, NodeId(2), DirMsg::FinalAck { addr: A })
            .is_err());
        assert!(d
            .handle_message(
                1,
                NodeId(1),
                DirMsg::FinalAck {
                    addr: BlockAddr(0x999)
                }
            )
            .is_err());
    }

    #[test]
    fn memory_write_log_captures_writebacks() {
        let mut d = dir(ProtocolVariant::Full);
        d.handle_message(0, NodeId(1), DirMsg::GetM { addr: A })
            .unwrap();
        drain(&mut d);
        d.handle_message(1, NodeId(1), DirMsg::FinalAck { addr: A })
            .unwrap();
        d.handle_message(2, NodeId(1), DirMsg::PutM { addr: A, data: 42 })
            .unwrap();
        assert_eq!(d.memory().read(A), 42);
        assert_eq!(d.take_write_log(), 1);
        assert_eq!(d.take_write_log(), 0);
    }
}
