//! Packets and virtual networks.
//!
//! The directory protocol of Section 3.1 uses four classes of messages —
//! Request, ForwardedRequest, Response and FinalAck — and "each class of
//! messages travels on a logically separate interconnection network (i.e.,
//! virtual network)". Virtual networks exist to break endpoint deadlock: a
//! node's incoming queue can never fill up with requests alone, because
//! buffer space is reserved per class.

use specsim_base::{Cycle, FaultKind, MessageSize, NodeId};

/// The four virtual networks (message classes) of the directory protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VirtualNetwork {
    /// Processor → directory requests (RequestReadOnly, RequestReadWrite,
    /// Writeback).
    Request,
    /// Directory → processor forwarded requests (Forwarded-RequestReadOnly,
    /// Forwarded-RequestReadWrite, Invalidation, Writeback-Ack). This is the
    /// only virtual network whose point-to-point ordering matters for
    /// correctness in the speculatively simplified protocol.
    ForwardedRequest,
    /// Data, Ack and Nack responses sent to the requesting processor.
    Response,
    /// Processor → directory final acknowledgments used to close transactions
    /// and coordinate SafetyNet checkpoints.
    FinalAck,
}

/// All virtual networks, in a fixed order (used for per-VN statistics and for
/// iterating buffers).
pub const ALL_VIRTUAL_NETWORKS: [VirtualNetwork; 4] = [
    VirtualNetwork::Request,
    VirtualNetwork::ForwardedRequest,
    VirtualNetwork::Response,
    VirtualNetwork::FinalAck,
];

impl VirtualNetwork {
    /// Dense index of this virtual network, `0..4`.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            VirtualNetwork::Request => 0,
            VirtualNetwork::ForwardedRequest => 1,
            VirtualNetwork::Response => 2,
            VirtualNetwork::FinalAck => 3,
        }
    }

    /// Short label for statistics output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            VirtualNetwork::Request => "Request",
            VirtualNetwork::ForwardedRequest => "FwdRequest",
            VirtualNetwork::Response => "Response",
            VirtualNetwork::FinalAck => "FinalAck",
        }
    }
}

/// Integrity mark carried by a packet, set by the fault injector and checked
/// by the receiving endpoint (the "checksum/sequence-number model"): real
/// NICs detect a corrupted payload by checksum and a duplicated message by
/// its sequence number. Clean packets are untouched; tainted packets are
/// discarded at ingest and reported as transient-fault evidence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum PacketTaint {
    /// An ordinary, uncorrupted message (the default).
    #[default]
    Clean,
    /// The payload was corrupted in flight; the endpoint checksum fails.
    Corrupt,
    /// The message is a spurious duplicate; the endpoint sequence check
    /// rejects it.
    Duplicate,
}

impl PacketTaint {
    /// The fault the endpoint's integrity checks report for this packet,
    /// or `None` for a clean one, which they accept.
    #[must_use]
    pub fn fault_kind(self) -> Option<FaultKind> {
        match self {
            PacketTaint::Clean => None,
            PacketTaint::Corrupt => Some(FaultKind::Corrupt),
            PacketTaint::Duplicate => Some(FaultKind::Duplicate),
        }
    }
}

/// A message travelling through the network, wrapping a protocol payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet<P> {
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Message class / virtual network.
    pub vnet: VirtualNetwork,
    /// Whether the message carries a data block (affects serialization time).
    pub size: MessageSize,
    /// Per-(src, dst, vnet) sequence number stamped at injection; used by the
    /// ordering tracker to detect point-to-point order violations.
    pub seq: u64,
    /// Cycle at which the message entered the source injection queue.
    pub injected_at: Cycle,
    /// Integrity mark set by the fault injector ([`PacketTaint::Clean`] on
    /// every normally injected packet).
    pub taint: PacketTaint,
    /// The protocol-level payload.
    pub payload: P,
}

impl<P> Packet<P> {
    /// Number of bytes this packet occupies on a link.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.size.bytes()
    }
}

/// Dense-id arena for packets travelling through a
/// [`crate::network::Network`].
///
/// The switch slab's queues and link pipelines store `u32` packet ids; the
/// packets themselves live here, in one contiguous allocation. A packet is
/// allocated at injection, moves between queues by id (no payload copies per
/// hop), and is taken out when the endpoint drains it (or a fault or a
/// network drain drops it). Freed slots are recycled LIFO, so id assignment
/// is a pure function of the alloc/free history — deterministic whenever the
/// schedule is, and never itself an input to the schedule.
#[derive(Debug, Clone)]
pub struct PacketArena<P> {
    slots: Vec<Option<Packet<P>>>,
    free: Vec<u32>,
}

impl<P> Default for PacketArena<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> PacketArena<P> {
    /// Creates an empty arena.
    #[must_use]
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Stores `packet` and returns its dense id.
    pub fn alloc(&mut self, packet: Packet<P>) -> u32 {
        match self.free.pop() {
            Some(id) => {
                debug_assert!(self.slots[id as usize].is_none());
                self.slots[id as usize] = Some(packet);
                id
            }
            None => {
                let id = u32::try_from(self.slots.len()).expect("packet arena overflow");
                self.slots.push(Some(packet));
                id
            }
        }
    }

    /// Borrows the packet behind a live id.
    ///
    /// # Panics
    /// Panics if `id` was already freed (a dangling id is a flow-control
    /// bug, never a recoverable condition).
    #[must_use]
    pub fn get(&self, id: u32) -> &Packet<P> {
        self.slots[id as usize]
            .as_ref()
            .expect("packet arena id was already freed")
    }

    /// Mutably borrows the packet behind a live id (fault tainting).
    ///
    /// # Panics
    /// Panics if `id` was already freed.
    pub fn get_mut(&mut self, id: u32) -> &mut Packet<P> {
        self.slots[id as usize]
            .as_mut()
            .expect("packet arena id was already freed")
    }

    /// Removes and returns the packet behind a live id, recycling the slot.
    ///
    /// # Panics
    /// Panics if `id` was already freed.
    pub fn take(&mut self, id: u32) -> Packet<P> {
        let p = self.slots[id as usize]
            .take()
            .expect("packet arena id was already freed");
        self.free.push(id);
        p
    }

    /// Number of live packets.
    #[must_use]
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vnet_indices_are_dense_and_distinct() {
        let mut seen = [false; 4];
        for vn in ALL_VIRTUAL_NETWORKS {
            assert!(!seen[vn.index()]);
            seen[vn.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn packet_size_follows_message_class() {
        let p = Packet {
            src: NodeId(0),
            dst: NodeId(1),
            vnet: VirtualNetwork::Response,
            size: MessageSize::Data,
            seq: 0,
            injected_at: 0,
            taint: PacketTaint::default(),
            payload: (),
        };
        assert_eq!(p.bytes(), 72);
        assert_eq!(p.taint.fault_kind(), None);
        assert_eq!(PacketTaint::Corrupt.fault_kind(), Some(FaultKind::Corrupt));
        assert_eq!(
            PacketTaint::Duplicate.fault_kind(),
            Some(FaultKind::Duplicate)
        );
    }

    #[test]
    fn arena_recycles_ids_deterministically() {
        let mut arena: PacketArena<u32> = PacketArena::new();
        let mk = |n: u32| Packet {
            src: NodeId(0),
            dst: NodeId(1),
            vnet: VirtualNetwork::Request,
            size: MessageSize::Control,
            seq: u64::from(n),
            injected_at: 0,
            taint: PacketTaint::Clean,
            payload: n,
        };
        let a = arena.alloc(mk(0));
        let b = arena.alloc(mk(1));
        assert_eq!((a, b), (0, 1));
        assert_eq!(arena.live(), 2);
        assert_eq!(arena.get(a).payload, 0);
        assert_eq!(arena.take(a).payload, 0);
        // LIFO recycling: the freed slot is reused first.
        assert_eq!(arena.alloc(mk(2)), a);
        assert_eq!(arena.take(b).payload, 1);
        assert_eq!(arena.take(a).payload, 2);
        assert_eq!(arena.live(), 0);
    }

    #[test]
    #[should_panic(expected = "packet arena id was already freed")]
    fn arena_take_of_freed_id_panics() {
        let mut arena: PacketArena<()> = PacketArena::new();
        let id = arena.alloc(Packet {
            src: NodeId(0),
            dst: NodeId(0),
            vnet: VirtualNetwork::Request,
            size: MessageSize::Control,
            seq: 0,
            injected_at: 0,
            taint: PacketTaint::Clean,
            payload: (),
        });
        arena.take(id);
        arena.take(id);
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            ALL_VIRTUAL_NETWORKS.iter().map(|v| v.label()).collect();
        assert_eq!(labels.len(), 4);
    }
}
