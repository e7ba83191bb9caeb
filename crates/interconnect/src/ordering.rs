//! Point-to-point ordering tracking.
//!
//! The speculatively simplified directory protocol (Section 3.1) relies on
//! the interconnect delivering messages from a given source to a given
//! destination, within one virtual network, in the order they were sent.
//! Adaptive routing does not guarantee that. This module stamps every packet
//! with a per-(source, destination, virtual network) sequence number at
//! injection and, at delivery, counts how many packets arrive after a
//! later-numbered packet from the same stream has already arrived — the
//! numerator of the "fraction of messages re-ordered" statistic of Section
//! 5.3, whose denominator is the delivery count in [`crate::NetStats`].

use specsim_base::{FastMap, NodeId};

use crate::packet::VirtualNetwork;

/// Key identifying one ordered stream: (source, destination, virtual network).
type StreamKey = (NodeId, NodeId, usize);

/// Stamps sequence numbers at injection and detects order inversions at
/// delivery.
#[derive(Debug, Default, Clone)]
pub struct OrderingTracker {
    next_seq: FastMap<StreamKey, u64>,
    highest_delivered: FastMap<StreamKey, u64>,
    reordered_per_vnet: [u64; 4],
}

impl OrderingTracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the sequence number to stamp on the next packet of the stream
    /// `(src, dst, vnet)` and advances the stream.
    pub fn stamp(&mut self, src: NodeId, dst: NodeId, vnet: VirtualNetwork) -> u64 {
        let counter = self.next_seq.entry((src, dst, vnet.index())).or_insert(0);
        let seq = *counter;
        *counter += 1;
        seq
    }

    /// Records the delivery of a packet with sequence number `seq` on stream
    /// `(src, dst, vnet)`. Returns `true` if the packet was overtaken by a
    /// later one (i.e. point-to-point order was violated for this packet).
    pub fn observe_delivery(
        &mut self,
        src: NodeId,
        dst: NodeId,
        vnet: VirtualNetwork,
        seq: u64,
    ) -> bool {
        let vi = vnet.index();
        let highest = self
            .highest_delivered
            .entry((src, dst, vi))
            .or_insert(u64::MAX); // MAX sentinel: nothing delivered yet
        let reordered = *highest != u64::MAX && seq < *highest;
        if *highest == u64::MAX || seq > *highest {
            *highest = seq;
        }
        if reordered {
            self.reordered_per_vnet[vi] += 1;
        }
        reordered
    }

    /// Number of packets delivered out of point-to-point order on a virtual
    /// network.
    #[must_use]
    pub fn reordered(&self, vnet: VirtualNetwork) -> u64 {
        self.reordered_per_vnet[vnet.index()]
    }

    /// Total packets delivered out of order across all virtual networks.
    #[must_use]
    pub fn total_reordered(&self) -> u64 {
        self.reordered_per_vnet.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::ALL_VIRTUAL_NETWORKS;

    const SRC: NodeId = NodeId(1);
    const DST: NodeId = NodeId(2);

    #[test]
    fn stamps_are_sequential_per_stream() {
        let mut t = OrderingTracker::new();
        assert_eq!(t.stamp(SRC, DST, VirtualNetwork::Request), 0);
        assert_eq!(t.stamp(SRC, DST, VirtualNetwork::Request), 1);
        // A different stream has its own counter.
        assert_eq!(t.stamp(SRC, DST, VirtualNetwork::Response), 0);
        assert_eq!(t.stamp(DST, SRC, VirtualNetwork::Request), 0);
    }

    #[test]
    fn in_order_delivery_counts_no_reorders() {
        let mut t = OrderingTracker::new();
        for seq in 0..10 {
            let s = t.stamp(SRC, DST, VirtualNetwork::ForwardedRequest);
            assert_eq!(s, seq);
            assert!(!t.observe_delivery(SRC, DST, VirtualNetwork::ForwardedRequest, s));
        }
        assert_eq!(t.reordered(VirtualNetwork::ForwardedRequest), 0);
    }

    #[test]
    fn overtaken_packet_is_counted_as_reordered() {
        let mut t = OrderingTracker::new();
        let s0 = t.stamp(SRC, DST, VirtualNetwork::ForwardedRequest);
        let s1 = t.stamp(SRC, DST, VirtualNetwork::ForwardedRequest);
        // s1 (sent later) arrives first; s0 then arrives out of order.
        assert!(!t.observe_delivery(SRC, DST, VirtualNetwork::ForwardedRequest, s1));
        assert!(t.observe_delivery(SRC, DST, VirtualNetwork::ForwardedRequest, s0));
        assert_eq!(t.reordered(VirtualNetwork::ForwardedRequest), 1);
    }

    #[test]
    fn reorders_are_per_stream_not_global() {
        let mut t = OrderingTracker::new();
        // Stream A delivers seq 5 first; stream B delivering seq 0 is not a reorder.
        for _ in 0..6 {
            t.stamp(SRC, DST, VirtualNetwork::Request);
        }
        let b0 = t.stamp(DST, SRC, VirtualNetwork::Request);
        assert!(!t.observe_delivery(SRC, DST, VirtualNetwork::Request, 5));
        assert!(!t.observe_delivery(DST, SRC, VirtualNetwork::Request, b0));
        assert_eq!(t.total_reordered(), 0);
    }

    #[test]
    fn summary_lists_all_vnets() {
        let mut t = OrderingTracker::new();
        let s0 = t.stamp(SRC, DST, VirtualNetwork::FinalAck);
        let s1 = t.stamp(SRC, DST, VirtualNetwork::FinalAck);
        t.observe_delivery(SRC, DST, VirtualNetwork::FinalAck, s1);
        t.observe_delivery(SRC, DST, VirtualNetwork::FinalAck, s0);
        for vn in ALL_VIRTUAL_NETWORKS {
            let expected = u64::from(vn == VirtualNetwork::FinalAck);
            assert_eq!(t.reordered(vn), expected);
        }
        assert_eq!(t.total_reordered(), 1);
    }
}
