//! The memory controller of the snooping system.
//!
//! Each node is the home for the blocks interleaved onto it (as in the
//! directory system). The home memory controller snoops the totally ordered
//! address network and tracks, per block, whether a cache currently owns it;
//! when no cache owner exists it is the memory's job to supply data to
//! requestors. Writeback data arrives on the data network after the owning
//! cache observes its own Writeback.

use std::collections::VecDeque;

use specsim_base::{BlockAddr, Cycle, FastMap, NodeId};

use crate::data::MemoryStore;
use crate::types::ProtocolError;

use super::msg::{SnoopDataMsg, SnoopDataOut, SnoopRequest};

/// The home memory controller for one node of the snooping system.
#[derive(Debug, Clone)]
pub struct SnoopMemoryController {
    node: NodeId,
    num_nodes: usize,
    memory: MemoryStore,
    owner: FastMap<BlockAddr, NodeId>,
    outgoing_data: VecDeque<SnoopDataOut>,
}

impl SnoopMemoryController {
    /// Creates the memory controller for home node `node` in a system of
    /// `num_nodes` nodes.
    #[must_use]
    pub fn new(node: NodeId, num_nodes: usize) -> Self {
        Self {
            node,
            num_nodes,
            memory: MemoryStore::new(),
            owner: FastMap::default(),
            outgoing_data: VecDeque::new(),
        }
    }

    /// The home node this controller serves.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Read-only view of this home's memory image.
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

    /// The cache currently recorded as owner of a block, if any.
    #[must_use]
    pub fn owner_of(&self, addr: BlockAddr) -> Option<NodeId> {
        self.owner.get(&addr).copied()
    }

    /// The message [`Self::pop_data_message`] would return.
    #[must_use]
    pub fn peek_data_message(&self) -> Option<&SnoopDataOut> {
        self.outgoing_data.front()
    }

    /// Removes the next data-network message to send, if any.
    pub fn pop_data_message(&mut self) -> Option<SnoopDataOut> {
        self.outgoing_data.pop_front()
    }

    /// Number of queued outgoing data messages.
    #[must_use]
    pub fn outgoing_len(&self) -> usize {
        self.outgoing_data.len()
    }

    fn is_home_for(&self, addr: BlockAddr) -> bool {
        addr.home_node(self.num_nodes) == self.node
    }

    /// True when observing `request` from `src` may change this controller:
    /// only at the block's home, and there not for a read a cache owner
    /// serves, a write by the current owner or a stale writeback (one not
    /// from the current owner).
    #[must_use]
    pub fn snoop_may_change(&self, src: NodeId, request: SnoopRequest) -> bool {
        let addr = request.addr();
        self.is_home_for(addr)
            && match request {
                SnoopRequest::GetS { .. } => self.owner_of(addr).is_none(),
                SnoopRequest::GetM { .. } => self.owner_of(addr) != Some(src),
                SnoopRequest::PutM { .. } => self.owner_of(addr) == Some(src),
            }
    }

    /// The data response to `request` from `src` when observing it queues
    /// that response and changes nothing else: a read of a block this home
    /// serves with no cache owner. `None` otherwise. This transition lives
    /// here alone, so a caller can answer without copying a controller it
    /// shares with a checkpoint.
    #[must_use]
    pub fn reply_only(&self, src: NodeId, request: SnoopRequest) -> Option<SnoopDataOut> {
        let addr = request.addr();
        let serves = matches!(request, SnoopRequest::GetS { .. })
            && self.is_home_for(addr)
            && self.owner_of(addr).is_none();
        serves.then(|| SnoopDataOut {
            dst: src,
            msg: SnoopDataMsg::Data {
                addr,
                data: self.memory.read(addr),
            },
        })
    }

    /// Observes one request from the totally ordered address network.
    pub fn observe_snoop(&mut self, _now: Cycle, src: NodeId, request: SnoopRequest) {
        if let Some(reply) = self.reply_only(src, request) {
            self.outgoing_data.push_back(reply);
            return;
        }
        let addr = request.addr();
        if !self.is_home_for(addr) {
            return;
        }
        match request {
            // With no cache owner memory only replies, in `reply_only`; a
            // cache owner supplies data and remains the owner.
            SnoopRequest::GetS { .. } => {}
            SnoopRequest::GetM { .. } => {
                if self.owner_of(addr).is_none() {
                    let data = self.memory.read(addr);
                    self.outgoing_data.push_back(SnoopDataOut {
                        dst: src,
                        msg: SnoopDataMsg::Data { addr, data },
                    });
                }
                // Either way, the requestor is the owner from this point in
                // the order onwards.
                self.owner.insert(addr, src);
            }
            SnoopRequest::PutM { .. } => {
                match self.owner_of(addr) {
                    Some(owner) if owner == src => {
                        // The owner is giving the block back; its data will
                        // arrive on the data network.
                        self.owner.remove(&addr);
                    }
                    _ => {
                        // Stale writeback: ownership already moved to another
                        // cache (the Section 3.2 race); ignore it.
                    }
                }
            }
        }
    }

    /// Handles a message from the data network (writeback data).
    pub fn handle_data(&mut self, _now: Cycle, msg: SnoopDataMsg) -> Result<(), ProtocolError> {
        match msg {
            SnoopDataMsg::WbData { addr, data } => {
                if !self.is_home_for(addr) {
                    return Err(ProtocolError {
                        node: self.node,
                        addr,
                        description: "writeback data sent to the wrong home node".into(),
                    });
                }
                self.memory.write(addr, data);
                Ok(())
            }
            SnoopDataMsg::Data { addr, .. } => Err(ProtocolError {
                node: self.node,
                addr,
                description: "memory controller received cache-bound data".into(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Block 0x0 is homed at node 0 in a 16-node system.
    const A: BlockAddr = BlockAddr(0x0);

    fn mem() -> SnoopMemoryController {
        SnoopMemoryController::new(NodeId(0), 16)
    }

    #[test]
    fn memory_supplies_data_when_no_cache_owner_exists() {
        let mut m = mem();
        m.observe_snoop(0, NodeId(3), SnoopRequest::GetS { addr: A });
        let out = m.pop_data_message().unwrap();
        assert_eq!(out.dst, NodeId(3));
        assert_eq!(out.msg, SnoopDataMsg::Data { addr: A, data: 0 });
        assert_eq!(m.owner_of(A), None);
    }

    #[test]
    fn getm_transfers_ownership_to_the_requestor() {
        let mut m = mem();
        m.observe_snoop(0, NodeId(3), SnoopRequest::GetM { addr: A });
        assert_eq!(m.owner_of(A), Some(NodeId(3)));
        assert!(m.pop_data_message().is_some());
        // A later GetS is served by the cache owner, not memory.
        m.observe_snoop(1, NodeId(4), SnoopRequest::GetS { addr: A });
        assert!(m.pop_data_message().is_none());
        // A later GetM moves ownership without memory data.
        m.observe_snoop(2, NodeId(5), SnoopRequest::GetM { addr: A });
        assert_eq!(m.owner_of(A), Some(NodeId(5)));
        assert!(m.pop_data_message().is_none());
    }

    #[test]
    fn owner_writeback_returns_ownership_and_data_to_memory() {
        let mut m = mem();
        m.observe_snoop(0, NodeId(3), SnoopRequest::GetM { addr: A });
        m.pop_data_message();
        m.observe_snoop(5, NodeId(3), SnoopRequest::PutM { addr: A });
        assert_eq!(m.owner_of(A), None);
        m.handle_data(6, SnoopDataMsg::WbData { addr: A, data: 99 })
            .unwrap();
        assert_eq!(m.memory().read(A), 99);
        // A subsequent reader gets the written-back value from memory.
        m.observe_snoop(7, NodeId(4), SnoopRequest::GetS { addr: A });
        assert_eq!(
            m.pop_data_message().unwrap().msg,
            SnoopDataMsg::Data { addr: A, data: 99 }
        );
    }

    #[test]
    fn stale_writeback_from_a_previous_owner_is_ignored() {
        let mut m = mem();
        m.observe_snoop(0, NodeId(3), SnoopRequest::GetM { addr: A });
        m.pop_data_message();
        // Ownership moves to node 5 before node 3's PutM is ordered.
        m.observe_snoop(1, NodeId(5), SnoopRequest::GetM { addr: A });
        m.observe_snoop(2, NodeId(3), SnoopRequest::PutM { addr: A });
        assert_eq!(
            m.owner_of(A),
            Some(NodeId(5)),
            "node 5 must remain the owner"
        );
        // Ignored: no data goes out, and a stale PutM cannot change memory.
        assert!(m.pop_data_message().is_none());
        assert!(!m.snoop_may_change(NodeId(3), SnoopRequest::PutM { addr: A }));
    }

    #[test]
    fn reply_only_answers_reads_that_memory_serves() {
        let mut m = mem();
        let gets = SnoopRequest::GetS { addr: A };
        let reply = m.reply_only(NodeId(3), gets);
        m.observe_snoop(0, NodeId(3), gets);
        assert_eq!(reply, m.pop_data_message());
        assert!(reply.is_some());
        // Blocks homed elsewhere, writes and owned blocks are not.
        let remote = SnoopRequest::GetS { addr: BlockAddr(1) };
        assert_eq!(m.reply_only(NodeId(3), remote), None);
        assert_eq!(
            m.reply_only(NodeId(3), SnoopRequest::GetM { addr: A }),
            None
        );
        m.observe_snoop(1, NodeId(3), SnoopRequest::GetM { addr: A });
        assert_eq!(m.reply_only(NodeId(4), gets), None);
    }

    #[test]
    fn requests_for_blocks_homed_elsewhere_are_ignored() {
        let mut m = mem();
        // Block 1 is homed at node 1.
        m.observe_snoop(0, NodeId(3), SnoopRequest::GetS { addr: BlockAddr(1) });
        assert!(m.pop_data_message().is_none());
    }

    #[test]
    fn misdirected_data_messages_are_errors() {
        let mut m = mem();
        assert!(m
            .handle_data(
                0,
                SnoopDataMsg::WbData {
                    addr: BlockAddr(1),
                    data: 1
                }
            )
            .is_err());
        assert!(m
            .handle_data(0, SnoopDataMsg::Data { addr: A, data: 1 })
            .is_err());
    }
}
