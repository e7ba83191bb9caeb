//! Totally ordered broadcast network (the snooping address network).
//!
//! The broadcast snooping protocol of Section 3.2 relies on an address
//! network that delivers every coherence request to every node (including the
//! requester) in a single global order. This module models such a network:
//! nodes post requests, an arbiter grants one request per arbitration slot in
//! round-robin order, and the granted request is broadcast to all nodes with
//! a fixed latency. The data responses of the snooping system travel on an
//! ordinary point-to-point network ([`crate::Network`]); only the address
//! traffic needs total order.

use std::collections::VecDeque;

use specsim_base::{Cycle, CycleDelta, MsgQueue, NodeId};

/// A snoop delivered to a node: the request payload plus its position in the
/// global order and its issuer.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    pending: Vec<MsgQueue<P>>,
    in_flight: VecDeque<(Cycle, NodeId, u64, Cycle, P)>,
    delivery: Vec<VecDeque<BusDelivery<P>>>,
    next_grant_at: Cycle,
    /// Position the next grant takes in the global order: the number of
    /// requests granted so far.
    next_order: u64,
    rr: usize,
}

impl<P: Clone> OrderedBus<P> {
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
            in_flight: VecDeque::new(),
            delivery: (0..num_nodes).map(|_| VecDeque::new()).collect(),
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
    }

    /// Total requests granted so far (length of the global order).
    #[must_use]
    pub fn granted(&self) -> u64 {
        self.next_order
    }

    /// Snoops waiting to be consumed by `node`.
    #[must_use]
    pub fn snoop_len(&self, node: NodeId) -> usize {
        self.delivery[node.index()].len()
    }

    /// Advances the bus by one cycle: grants at most one pending request when
    /// the arbitration slot is free, and delivers broadcasts whose latency
    /// has elapsed.
    pub fn tick(&mut self, now: Cycle) {
        // Arbitration.
        if now >= self.next_grant_at {
            let mut granted = None;
            for k in 0..self.num_nodes {
                let i = (self.rr + k) % self.num_nodes;
                if let Some(payload) = self.pending[i].pop() {
                    granted = Some((NodeId::from(i), payload));
                    self.rr = (i + 1) % self.num_nodes;
                    break;
                }
            }
            if let Some((src, payload)) = granted {
                let order = self.next_order;
                self.next_order += 1;
                self.in_flight
                    .push_back((now + self.broadcast_latency, src, order, now, payload));
                self.next_grant_at = now + self.arbitration_interval;
            }
        }
        // Delivery: broadcasts whose latency has elapsed reach every node in
        // grant order.
        while matches!(self.in_flight.front(), Some(&(at, ..)) if at <= now) {
            let (_, src, order, granted_at, payload) = self.in_flight.pop_front().unwrap();
            for node in 0..self.num_nodes {
                self.delivery[node].push_back(BusDelivery {
                    src,
                    order,
                    granted_at,
                    payload: payload.clone(),
                });
            }
        }
    }

    /// The earliest cycle after `now` (the cycle just ticked) at which
    /// [`OrderedBus::tick`] or a node could change the bus's state:
    /// `now + 1` while a snoop waits in a delivery queue, otherwise the
    /// earlier of the next grant (when a request is pending) and the front
    /// broadcast's delivery cycle. `Cycle::MAX` when the bus is empty.
    #[must_use]
    pub fn next_event_at(&self, now: Cycle) -> Cycle {
        if self.delivery.iter().any(|q| !q.is_empty()) {
            return now + 1;
        }
        let grant = if self.pending.iter().any(|q| !q.is_empty()) {
            self.next_grant_at
        } else {
            Cycle::MAX
        };
        let broadcast = self.in_flight.front().map_or(Cycle::MAX, |&(at, ..)| at);
        grant.min(broadcast).max(now + 1)
    }

    /// Removes the next snoop for `node` (in global order).
    pub fn pop_snoop(&mut self, node: NodeId) -> Option<BusDelivery<P>> {
        self.delivery[node.index()].pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_nodes_observe_the_same_total_order() {
        let mut bus: OrderedBus<u32> = OrderedBus::new(4, 5, 20);
        // Several nodes race to post requests.
        bus.request(NodeId(2), 200);
        bus.request(NodeId(0), 100);
        bus.request(NodeId(3), 300);
        bus.request(NodeId(0), 101);
        let mut now = 0;
        while bus.granted() < 4 || bus.snoop_len(NodeId(0)) < 4 {
            now += 1;
            bus.tick(now);
            assert!(now < 1000, "bus made no progress");
        }
        let orders: Vec<Vec<(u64, u32)>> = (0..4)
            .map(|n| {
                let mut v = Vec::new();
                while let Some(d) = bus.pop_snoop(NodeId::from(n)) {
                    v.push((d.order, d.payload));
                }
                v
            })
            .collect();
        for n in 1..4 {
            assert_eq!(orders[n], orders[0], "node {n} saw a different order");
        }
        assert_eq!(orders[0].len(), 4);
        // Orders are consecutive from zero.
        for (i, (order, _)) in orders[0].iter().enumerate() {
            assert_eq!(*order, i as u64);
        }
    }

    #[test]
    fn requester_also_observes_its_own_request() {
        let mut bus: OrderedBus<&'static str> = OrderedBus::new(2, 1, 3);
        bus.request(NodeId(1), "writeback");
        for now in 1..10 {
            bus.tick(now);
        }
        let seen = bus.pop_snoop(NodeId(1)).unwrap();
        assert_eq!(seen.payload, "writeback");
        assert_eq!(seen.src, NodeId(1));
    }

    #[test]
    fn arbitration_interval_limits_throughput() {
        let mut bus: OrderedBus<u32> = OrderedBus::new(2, 10, 1);
        for i in 0..5 {
            bus.request(NodeId(0), i);
        }
        for now in 1..=25 {
            bus.tick(now);
        }
        // With a 10-cycle arbitration interval only ~3 grants fit in 25 cycles.
        assert!(bus.granted() <= 3, "granted {}", bus.granted());
        assert!(bus.granted() >= 2);
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
        let mut now = 0;
        let mut first_999 = None;
        while first_999.is_none() && now < 100 {
            now += 1;
            bus.tick(now);
            while let Some(d) = bus.pop_snoop(NodeId(1)) {
                if d.payload == 999 {
                    first_999 = Some(d.order);
                }
            }
        }
        let order = first_999.expect("node 3's request was starved");
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
            while let Some(d) = dense.pop_snoop(NodeId(2)) {
                seen_dense.push((now, d));
            }
            // The sparse bus ticks only at its events and at posts.
            if now % 100 == 1 {
                next = now;
            }
            if now == next {
                post(&mut sparse, now);
                sparse.tick(now);
                while let Some(d) = sparse.pop_snoop(NodeId(2)) {
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
    fn broadcast_latency_is_respected() {
        let mut bus: OrderedBus<u32> = OrderedBus::new(2, 1, 50);
        bus.request(NodeId(0), 7);
        bus.tick(1); // granted at cycle 1
        for now in 2..51 {
            bus.tick(now);
            assert_eq!(bus.snoop_len(NodeId(1)), 0, "delivered too early at {now}");
        }
        bus.tick(51);
        assert_eq!(bus.snoop_len(NodeId(1)), 1);
        let d = bus.pop_snoop(NodeId(1)).unwrap();
        assert_eq!(d.granted_at, 1);
    }
}
