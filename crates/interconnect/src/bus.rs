//! Totally ordered broadcast network (the snooping address network).
//!
//! The broadcast snooping protocol of Section 3.2 relies on an address
//! network that delivers every coherence request to every node (including the
//! requester) in a single global order. This module models such a network:
//! nodes post requests, an arbiter grants one request per arbitration slot in
//! round-robin order, and the granted request reaches every node with a
//! fixed latency. The data responses of the snooping system travel on an
//! ordinary point-to-point network ([`crate::Network`]); only the address
//! traffic needs total order.
//!
//! Every node observes every broadcast at the same cycle and takes the same
//! number of them per cycle, so the nodes' inboxes would always be
//! identical: the bus keeps one delivery queue, and the caller hands each
//! broadcast it pops to every node (or to the nodes it can change).

use std::collections::VecDeque;

use specsim_base::{Cycle, CycleDelta, MsgQueue, NodeId};

/// A broadcast delivered to the nodes: the request payload plus its
/// position in the global order and its issuer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusDelivery<P> {
    /// The node that issued the request.
    pub src: NodeId,
    /// Position of this request in the bus's total order (0-based).
    pub order: u64,
    /// Cycle at which the request was granted the bus.
    pub granted_at: Cycle,
    /// The protocol payload.
    pub payload: P,
}

/// A totally ordered broadcast bus carrying payloads of type `P`.
#[derive(Debug, Clone)]
pub struct OrderedBus<P> {
    num_nodes: usize,
    arbitration_interval: CycleDelta,
    broadcast_latency: CycleDelta,
    /// Each node's requests awaiting a grant.
    pending: Vec<MsgQueue<P>>,
    /// Requests in `pending`, over all nodes.
    pending_count: usize,
    in_flight: VecDeque<(Cycle, NodeId, u64, Cycle, P)>,
    /// Broadcasts whose latency has elapsed and that the nodes have yet to
    /// observe, in grant order.
    delivered: VecDeque<BusDelivery<P>>,
    next_grant_at: Cycle,
    /// Position the next grant takes in the global order: the number of
    /// requests granted so far.
    next_order: u64,
    rr: usize,
}

impl<P> OrderedBus<P> {
    /// Creates a bus for `num_nodes` nodes. One request is granted every
    /// `arbitration_interval` cycles (the bus bandwidth limit) and a granted
    /// request is observed by every node `broadcast_latency` cycles later.
    #[must_use]
    pub fn new(
        num_nodes: usize,
        arbitration_interval: CycleDelta,
        broadcast_latency: CycleDelta,
    ) -> Self {
        assert!(num_nodes > 0, "bus needs at least one node");
        assert!(
            arbitration_interval > 0,
            "arbitration interval must be positive"
        );
        Self {
            num_nodes,
            arbitration_interval,
            broadcast_latency,
            pending: (0..num_nodes).map(|_| MsgQueue::unbounded()).collect(),
            pending_count: 0,
            in_flight: VecDeque::new(),
            delivered: VecDeque::new(),
            next_grant_at: 0,
            next_order: 0,
            rr: 0,
        }
    }

    /// Number of nodes attached to the bus.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Posts a request from `src`; it will be granted in some later
    /// arbitration slot.
    pub fn request(&mut self, src: NodeId, payload: P) {
        self.pending[src.index()]
            .push(payload)
            .unwrap_or_else(|_| panic!("bus pending queues are unbounded"));
        self.pending_count += 1;
    }

    /// Total requests granted so far (length of the global order).
    #[must_use]
    pub fn granted(&self) -> u64 {
        self.next_order
    }

    /// Broadcasts delivered and not yet popped.
    #[must_use]
    pub fn snoop_len(&self) -> usize {
        self.delivered.len()
    }

    /// Advances the bus by one cycle: grants at most one pending request when
    /// the arbitration slot is free, and delivers broadcasts whose latency
    /// has elapsed.
    pub fn tick(&mut self, now: Cycle) {
        // Arbitration.
        if now >= self.next_grant_at && self.pending_count > 0 {
            let granted = (0..self.num_nodes).find_map(|k| {
                let i = (self.rr + k) % self.num_nodes;
                self.pending[i].pop().map(|payload| (i, payload))
            });
            let (i, payload) = granted.expect("a pending request");
            self.pending_count -= 1;
            self.rr = (i + 1) % self.num_nodes;
            let order = self.next_order;
            self.next_order += 1;
            self.in_flight.push_back((
                now + self.broadcast_latency,
                NodeId::from(i),
                order,
                now,
                payload,
            ));
            self.next_grant_at = now + self.arbitration_interval;
        }
        // Delivery: broadcasts whose latency has elapsed join the delivery
        // queue in grant order.
        while matches!(self.in_flight.front(), Some(&(at, ..)) if at <= now) {
            let (_, src, order, granted_at, payload) = self.in_flight.pop_front().unwrap();
            self.delivered.push_back(BusDelivery {
                src,
                order,
                granted_at,
                payload,
            });
        }
    }

    /// The earliest cycle after `now` (the cycle just ticked) at which
    /// [`OrderedBus::tick`] or a node could change the bus's state:
    /// `now + 1` while a broadcast waits to be popped, otherwise the
    /// earlier of the next grant (when a request is pending) and the front
    /// broadcast's delivery cycle. `Cycle::MAX` when the bus is empty.
    /// Constant time.
    #[must_use]
    pub fn next_event_at(&self, now: Cycle) -> Cycle {
        if !self.delivered.is_empty() {
            return now + 1;
        }
        let grant = if self.pending_count > 0 {
            self.next_grant_at
        } else {
            Cycle::MAX
        };
        let broadcast = self.in_flight.front().map_or(Cycle::MAX, |&(at, ..)| at);
        grant.min(broadcast).max(now + 1)
    }

    /// Removes the next delivered broadcast (in global order).
    pub fn pop_snoop(&mut self) -> Option<BusDelivery<P>> {
        self.delivered.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ticks `bus` through `cycles` and returns every broadcast popped, as
    /// `(cycle popped, delivery)`.
    fn drain<P>(
        bus: &mut OrderedBus<P>,
        cycles: std::ops::RangeInclusive<Cycle>,
    ) -> Vec<(Cycle, BusDelivery<P>)> {
        let mut seen = Vec::new();
        for now in cycles {
            bus.tick(now);
            while let Some(d) = bus.pop_snoop() {
                seen.push((now, d));
            }
        }
        seen
    }

    #[test]
    fn all_nodes_observe_the_same_total_order() {
        // The nodes read one delivery queue, so they share its order; what
        // is left to check is that order: racing requests are granted in
        // round-robin order with consecutive positions.
        let mut bus: OrderedBus<u32> = OrderedBus::new(4, 5, 20);
        // Several nodes race to post requests.
        bus.request(NodeId(2), 200);
        bus.request(NodeId(0), 100);
        bus.request(NodeId(3), 300);
        bus.request(NodeId(0), 101);
        let seen = drain(&mut bus, 1..=100);
        let order: Vec<(u64, NodeId, u32)> = seen
            .iter()
            .map(|(_, d)| (d.order, d.src, d.payload))
            .collect();
        // Orders are consecutive from zero, and the arbiter walks the nodes
        // from its round-robin pointer: 0, then 2, 3 and back to 0.
        assert_eq!(
            order,
            [
                (0, NodeId(0), 100),
                (1, NodeId(2), 200),
                (2, NodeId(3), 300),
                (3, NodeId(0), 101)
            ]
        );
        assert_eq!(bus.granted(), 4);
    }

    #[test]
    fn requester_also_observes_its_own_request() {
        // A broadcast reaches every node, the requester included, and names
        // the requester.
        let mut bus: OrderedBus<&'static str> = OrderedBus::new(2, 1, 3);
        bus.request(NodeId(1), "writeback");
        let seen = drain(&mut bus, 1..=9);
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].1.payload, "writeback");
        assert_eq!(seen[0].1.src, NodeId(1));
    }

    #[test]
    fn arbitration_interval_limits_throughput() {
        let mut bus: OrderedBus<u32> = OrderedBus::new(2, 10, 1);
        for i in 0..5 {
            bus.request(NodeId(0), i);
        }
        let seen = drain(&mut bus, 1..=25);
        // With a 10-cycle arbitration interval only 3 grants fit in 25
        // cycles, at cycles 1, 11 and 21.
        assert_eq!(bus.granted(), 3);
        let grants: Vec<Cycle> = seen.iter().map(|(_, d)| d.granted_at).collect();
        assert_eq!(grants, [1, 11, 21]);
    }

    #[test]
    fn round_robin_is_fair_across_nodes() {
        let mut bus: OrderedBus<u32> = OrderedBus::new(4, 1, 1);
        // Node 0 floods; node 3 posts one request. Node 3 must be granted
        // within the first few slots.
        for i in 0..100 {
            bus.request(NodeId(0), i);
        }
        bus.request(NodeId(3), 999);
        let seen = drain(&mut bus, 1..=100);
        let order = seen
            .iter()
            .find(|(_, d)| d.payload == 999)
            .map(|(_, d)| d.order)
            .expect("node 3's request was starved");
        assert!(
            order < 4,
            "round robin should grant node 3 quickly, order {order}"
        );
    }

    #[test]
    fn ticking_only_at_next_event_matches_ticking_every_cycle() {
        // Two buses see the same requests; one ticks every cycle, the other
        // jumps straight to `next_event_at`. Every snoop must arrive at the
        // same cycle with the same grant stamp and order.
        let mut dense: OrderedBus<u32> = OrderedBus::new(3, 8, 64);
        let mut sparse = dense.clone();
        let post = |bus: &mut OrderedBus<u32>, now: Cycle| {
            if now % 100 == 1 {
                bus.request(NodeId::from((now / 100 % 3) as usize), now as u32);
                bus.request(NodeId(1), now as u32 + 1);
            }
        };
        let (mut seen_dense, mut seen_sparse) = (Vec::new(), Vec::new());
        let mut next = 1;
        for now in 1..=1_000 {
            post(&mut dense, now);
            dense.tick(now);
            while let Some(d) = dense.pop_snoop() {
                seen_dense.push((now, d));
            }
            // The sparse bus ticks only at its events and at posts.
            if now % 100 == 1 {
                next = now;
            }
            if now == next {
                post(&mut sparse, now);
                sparse.tick(now);
                while let Some(d) = sparse.pop_snoop() {
                    seen_sparse.push((now, d));
                }
                next = sparse.next_event_at(now);
                assert!(next > now);
            }
        }
        assert_eq!(seen_dense.len(), 20);
        assert_eq!(seen_dense, seen_sparse);
    }

    #[test]
    fn next_event_at_follows_pending_grants_in_flight_and_delivered() {
        let mut bus: OrderedBus<u32> = OrderedBus::new(16, 8, 64);
        assert_eq!(bus.next_event_at(0), Cycle::MAX);
        bus.request(NodeId(15), 1);
        bus.request(NodeId(15), 2);
        // Two requests pending: the first slot is free now.
        assert_eq!(bus.next_event_at(0), 1);
        bus.tick(1);
        // One pending (the next slot at 9), one in flight (lands at 65).
        assert_eq!(bus.next_event_at(1), 9);
        bus.tick(9);
        // None pending: only the broadcast landing at 65 is left.
        assert_eq!(bus.next_event_at(9), 65);
        bus.tick(65);
        // Delivered and not yet popped.
        assert_eq!(bus.next_event_at(65), 66);
        assert_eq!(bus.pop_snoop().map(|d| d.payload), Some(1));
        assert_eq!(bus.next_event_at(65), 73);
        bus.tick(73);
        assert_eq!(bus.pop_snoop().map(|d| d.payload), Some(2));
        assert_eq!(bus.next_event_at(73), Cycle::MAX);
    }

    #[test]
    fn broadcast_latency_is_respected() {
        let mut bus: OrderedBus<u32> = OrderedBus::new(2, 1, 50);
        bus.request(NodeId(0), 7);
        bus.tick(1); // granted at cycle 1
        for now in 2..51 {
            bus.tick(now);
            assert_eq!(bus.snoop_len(), 0, "delivered too early at {now}");
        }
        bus.tick(51);
        assert_eq!(bus.snoop_len(), 1);
        let d = bus.pop_snoop().unwrap();
        assert_eq!(d.granted_at, 1);
    }
}
