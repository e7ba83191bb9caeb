//! The assembled torus network: injection, cycle-by-cycle switching,
//! delivery, and ordering and link-busy accounting.
//!
//! # Active-set kernel
//!
//! The per-cycle work is driven by worklists instead of exhaustive scans:
//!
//! * **Forwarding** visits only switches on an [`ActiveSet`] worklist. A
//!   switch is on the worklist iff it holds a queued packet that could move
//!   this cycle (injection, link delivery and forwarding maintain per-port
//!   and per-switch queue counters incrementally). A switch whose every
//!   queued head is a transit packet waiting for a busy output link (its
//!   dimension-order link under static routing, every productive link under
//!   adaptive routing) is *parked*: it leaves the worklist and a wake entry
//!   in the arrival wheel re-activates it when the first of those links
//!   frees. Parking is exact. Only a switch's own moves set its links'
//!   `busy_until`, every arrival and injection re-activates the switch it
//!   lands at, and a visit that moves nothing changes no state, so the
//!   visits a parked switch skips would all have moved nothing. Heads that
//!   wait for ejection space, downstream buffer space or a pool slot keep
//!   their switch on the worklist, since no event marks when those free.
//!   Fairness is unchanged: the per-cycle rotation and the per-switch/per-port
//!   round-robin pointers advance exactly as in the exhaustive scan, so the
//!   packet schedule — and therefore every metric — is bit-identical.
//! * **Link delivery** pops ripe arrivals from a due-cycle [`TimingWheel`]
//!   (whose buckets and batch scratch space are reused, so steady-state
//!   delivery allocates nothing) instead of polling every link every cycle.
//!   Within one link arrivals are FIFO with non-decreasing due cycles, and
//!   arrivals on different links land in different buffers, so delivery
//!   state is independent of the order the wheel drains a cycle's batch in.
//!   The same wheel holds the parked switches' wakes, so when only parked
//!   switches remain, its earliest entry is the fabric's next event and an
//!   engine fast-forward skips the link-wait cycles.
//!
//! # Struct-of-arrays layout
//!
//! All per-switch state lives in one flat `SwitchSlab` (contiguous
//! per-port queue/credit/occupancy rows, see [`crate::switch`]) and packet
//! payloads live in a [`PacketArena`]; queues and link pipelines move dense
//! `u32` packet ids.
//! The forward kernel therefore walks cache-friendly rows instead of
//! chasing per-switch allocations, and a packet is copied zero times
//! between injection and ejection.

use specsim_base::{
    ActiveSet, Cycle, CycleDelta, FaultDirector, FaultKind, MessageSize, MsgQueue, NodeId,
    RoutingPolicy, TimingWheel, WorkerPool,
};

use crate::config::{BufferLayout, NetConfig, PoolSlots, SWITCH_LATENCY_CYCLES};
use crate::ordering::OrderingTracker;
use crate::packet::{Packet, PacketArena, PacketTaint, VirtualNetwork};
use crate::pool::{NodePools, SlotPool};
use crate::routing::route_candidates;
use crate::stats::NetStats;
use crate::switch::{InTransit, SwitchSlab};
use crate::topology::{Direction, Torus, LINK_DIRECTIONS};

/// Ports of a switch in index order (the four link directions plus Local).
const ALL_PORTS: [Direction; 5] = [
    Direction::East,
    Direction::West,
    Direction::North,
    Direction::South,
    Direction::Local,
];

/// Error returned by [`Network::inject`] when the source injection queue is
/// full; carries the payload back to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectError<P>(pub P);

/// A planned packet movement inside one switch, produced by the read-only
/// planning pass and executed by the mutating pass.
#[derive(Debug, Clone, Copy)]
struct MoveDecision {
    buffer: usize,
    action: MoveAction,
}

#[derive(Debug, Clone, Copy)]
enum MoveAction {
    Eject {
        queue: usize,
    },
    Forward {
        dir: Direction,
        /// Global slab buffer-slot index at the downstream switch.
        target_slot: usize,
        serialization: CycleDelta,
    },
}

/// The arrival-wheel direction of a parked switch's wake entry: one past the
/// four link directions, so `deliver_phase` reads it as "re-activate the
/// switch" rather than as a link arrival.
const WAKE: u8 = LINK_DIRECTIONS.len() as u8;

/// An arrival-wheel entry: `(switch, link direction)` for the front
/// in-transit message of that switch's outgoing link, or `(switch, WAKE)`
/// for a parked switch due to re-activate.
type ArrivalEntry = (u32, u8);

/// Forward-phase instrumentation counters, cumulative over the network's
/// lifetime. These never feed back into the schedule (they are not part of
/// [`NetStats`]): they record how much work the forward phase did, not what
/// it computed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForwardProbe {
    /// Switches visited by the forward phase.
    pub switch_visits: u64,
    /// Times the forward phase parked a switch off the worklist until a busy
    /// output link frees.
    pub switch_parks: u64,
}

/// A 2D-torus interconnection network carrying packets with payload type `P`.
///
/// The network is advanced by calling [`Network::tick`] once per cycle.
/// Endpoints interact with it only through [`Network::inject`] and the
/// ejection-queue accessors; everything in between (switch arbitration, link
/// serialization, virtual-channel flow control, routing) is internal.
#[derive(Debug, Clone)]
pub struct Network<P> {
    torus: Torus,
    cfg: NetConfig,
    layout: BufferLayout,
    routing: RoutingPolicy,
    /// All per-switch state, flattened into contiguous arrays.
    slab: SwitchSlab,
    /// Packet payloads, indexed by the dense ids the slab queues hold.
    arena: PacketArena<P>,
    eject: Vec<Vec<MsgQueue<u32>>>,
    eject_rr: Vec<usize>,
    /// Messages currently waiting in each node's ejection queues (incremental
    /// mirror of the queue lengths; lets endpoints skip idle nodes in O(1)).
    eject_pending: Vec<usize>,
    /// Worklist of nodes with `eject_pending > 0`, so endpoint ingest can
    /// walk only the nodes holding deliverable packets instead of scanning
    /// all `num_nodes` every cycle.
    eject_active: ActiveSet,
    ordering: OrderingTracker,
    stats: NetStats,
    /// Per-node shared slot pools ([`crate::Buffering::SharedPool`] only;
    /// unpooled otherwise). A node's pool covers its switch input-port
    /// buffers (including the injection port) and its ejection queues: a slot
    /// is taken at injection or when a hop reserves downstream space, moves
    /// with the packet from node to node, and is freed when the endpoint
    /// drains the packet from an ejection queue. When the budget is split
    /// ([`crate::PoolSlots::Split`]), these pools cover only the switch side
    /// (input-port buffers and in-transit link reservations) and
    /// [`Network::endpoint_pools`] covers the ejection queues.
    pools: NodePools,
    /// Per-node endpoint slot pools, pooled only under a split budget: an
    /// ejecting packet trades its switch slot for an endpoint slot, so
    /// ejection back-pressure and switch congestion stop sharing one budget.
    endpoint_pools: NodePools,
    in_flight: usize,
    /// Worklist of switches holding a queued packet that could move this
    /// cycle. A switch that holds packets but is not on it is parked.
    active: ActiveSet,
    /// The cycle each parked switch wakes at (read only while it is parked;
    /// a stale wheel wake for a switch that has since re-parked later is
    /// ignored).
    wake_at: Vec<Cycle>,
    /// Due-cycle index over in-transit link arrivals and parked-switch
    /// wakes: the entries for cycle `c` are the links whose front in-transit
    /// message arrives at `c` and the parked switches due to re-activate at
    /// `c`, so `deliver_phase` pops only ripe batches instead of polling all
    /// `4 × num_nodes` links every cycle.
    arrivals: TimingWheel<ArrivalEntry>,
    /// Reusable batch buffer for draining the wheel (the wheel's buckets
    /// and this scratch space together make steady-state delivery
    /// allocation-free).
    arrival_scratch: Vec<ArrivalEntry>,
    /// Forwarding rounds executed so far. Every switch's port round-robin
    /// pointer advances by exactly one per round whether or not the switch
    /// moved anything, so the per-switch pointer of the old exhaustive scan
    /// is equivalent to this single shared counter (mod the port count).
    forward_rounds: u64,
    /// Forward-phase execution counters (not part of [`NetStats`]).
    forward_probe: ForwardProbe,
    /// Whether the latest tick ended with buffer-deadlock evidence (see
    /// [`Network::deadlock_evidence`]).
    deadlock_evidence: bool,
}

impl<P> Network<P> {
    /// Builds a network from a configuration.
    #[must_use]
    pub fn new(cfg: NetConfig) -> Self {
        let torus = match cfg.torus_dims {
            Some((w, h)) => {
                assert_eq!(
                    w * h,
                    cfg.num_nodes,
                    "torus_dims {w}x{h} does not cover num_nodes = {}",
                    cfg.num_nodes
                );
                Torus::rectangular(w, h)
            }
            None => Torus::new(cfg.num_nodes),
        };
        let layout = cfg.layout();
        let (switch_slots, endpoint_slots) = match cfg.buffering.pool_slots() {
            Some(PoolSlots::Unified(slots)) => (Some(slots), None),
            Some(PoolSlots::Split { switch, endpoint }) => (Some(switch), Some(endpoint)),
            None => (None, None),
        };
        let slab = SwitchSlab::new(cfg.num_nodes, &layout);
        let eject = (0..cfg.num_nodes)
            .map(|_| {
                (0..layout.ejection_queues())
                    .map(|_| match layout.ejection_capacity() {
                        Some(c) => MsgQueue::bounded(c),
                        None => MsgQueue::unbounded(),
                    })
                    .collect()
            })
            .collect();
        let num_links = 4 * cfg.num_nodes;
        let routing = cfg.routing;
        Self {
            torus,
            layout,
            routing,
            slab,
            arena: PacketArena::new(),
            eject,
            eject_rr: vec![0; cfg.num_nodes],
            eject_pending: vec![0; cfg.num_nodes],
            eject_active: ActiveSet::new(cfg.num_nodes),
            ordering: OrderingTracker::new(),
            stats: NetStats::new(num_links),
            pools: NodePools::new(switch_slots, cfg.num_nodes),
            endpoint_pools: NodePools::new(endpoint_slots, cfg.num_nodes),
            in_flight: 0,
            active: ActiveSet::new(cfg.num_nodes),
            wake_at: vec![0; cfg.num_nodes],
            // The longest common scheduling distance is a data message's
            // serialization plus the switch pipeline; sizing the wheel to
            // cover it keeps steady-state traffic out of the overflow map
            // even on slow (or custom slower-than-Table-2) links.
            arrivals: TimingWheel::with_horizon(
                cfg.link_bandwidth
                    .serialization_cycles(specsim_base::DATA_MSG_BYTES)
                    + SWITCH_LATENCY_CYCLES,
            ),
            arrival_scratch: Vec::new(),
            forward_rounds: 0,
            forward_probe: ForwardProbe::default(),
            deadlock_evidence: false,
            cfg,
        }
    }

    /// Number of nodes (and switches).
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.cfg.num_nodes
    }

    /// The topology object (for distance queries in tests and experiments).
    #[must_use]
    pub fn torus(&self) -> &Torus {
        &self.torus
    }

    /// The routing policy currently in force.
    #[must_use]
    pub fn routing(&self) -> RoutingPolicy {
        self.routing
    }

    /// Changes the routing policy at runtime. This is the forward-progress
    /// knob of Section 3.1: after a recovery the system "selectively
    /// disable\[s\] adaptive routing during re-execution".
    ///
    /// A change re-activates every parked switch: switching from static to
    /// adaptive routing gives a parked head candidate links its wake did
    /// not account for.
    pub fn set_routing(&mut self, routing: RoutingPolicy) {
        if routing != self.routing {
            self.routing = routing;
            self.wake_parked();
        }
    }

    /// Puts every parked switch back on the worklist.
    fn wake_parked(&mut self) {
        for i in 0..self.slab.num_nodes() {
            if self.slab.queued_total[i] > 0 {
                self.active.insert(i);
            }
        }
    }

    /// True when every message class has its own buffers and ejection
    /// queue (virtual networks), so an endpoint can choose which class to
    /// ingest next; false when all classes share one ejection FIFO.
    #[must_use]
    pub fn has_virtual_networks(&self) -> bool {
        self.layout.has_virtual_networks()
    }

    /// True when this network provisions buffers from shared per-node slot
    /// pools (the speculative Section 4 design, in which deadlock is
    /// possible).
    #[must_use]
    pub fn is_pooled(&self) -> bool {
        self.pools.is_pooled()
    }

    /// True when this network splits its slot budget between switch-side
    /// and endpoint-side pools ([`crate::PoolSlots::Split`]).
    #[must_use]
    pub fn is_pool_split(&self) -> bool {
        self.endpoint_pools.is_pooled()
    }

    /// Installs a per-virtual-network reservation of `r` slots in every
    /// node's pool (the conservative forward-progress mode applied during
    /// post-deadlock re-execution); `r = 0` returns to fully shared slots.
    /// Under a split budget the reservation applies to both sides.
    /// Returns `false` (and does nothing) when the network is not pooled.
    pub fn set_pool_reservation(&mut self, r: usize) -> bool {
        if !self.pools.is_pooled() {
            return false;
        }
        self.pools.set_reservation(r);
        self.endpoint_pools.set_reservation(r);
        true
    }

    /// The per-virtual-network reservation [`Network::set_pool_reservation`]
    /// installs for `r`: 0 when the network is not pooled or its pools are
    /// too small to reserve a slot for every virtual network.
    #[must_use]
    pub fn reservation_for(&self, r: usize) -> usize {
        self.pools.first().map_or(0, |p| p.reservation_for(r))
    }

    /// The per-virtual-network reservation currently in force (`None` when
    /// the network is not pooled).
    #[must_use]
    pub fn pool_reservation(&self) -> Option<usize> {
        self.pools.first().map(SlotPool::reservation)
    }

    /// Per-node pool occupancy (held slots) of the switch-side pools, for
    /// diagnostics and tests. Empty when the network is not pooled.
    #[must_use]
    pub fn pool_occupancy_snapshot(&self) -> Vec<usize> {
        self.pools.occupancy()
    }

    /// Per-node endpoint pool occupancy under a split budget. Empty when
    /// the budget is unified (or the network is unpooled).
    #[must_use]
    pub fn endpoint_pool_occupancy_snapshot(&self) -> Vec<usize> {
        self.endpoint_pools.occupancy()
    }

    /// Frees the slot held by a packet leaving an ejection queue: the
    /// endpoint pool under a split budget, the unified pool otherwise.
    fn release_ejected_slot(&mut self, node: usize, vnet: VirtualNetwork) {
        if self.endpoint_pools.is_pooled() {
            self.endpoint_pools.release(node, vnet);
        } else {
            self.pools.release(node, vnet);
        }
    }

    /// True when at least one node's shared pool (switch- or endpoint-side)
    /// is at full occupancy — the evidence that ties a coherence-transaction
    /// timeout to buffer exhaustion (a detected buffer-dependency deadlock)
    /// rather than plain latency. Always `false` for unpooled networks.
    #[must_use]
    pub fn has_exhausted_pool(&self) -> bool {
        self.pools.any_full() || self.endpoint_pools.any_full()
    }

    /// True when a packet of class `vnet` can be injected at `src` this
    /// cycle.
    #[must_use]
    pub fn can_inject(&self, src: NodeId, vnet: VirtualNetwork) -> bool {
        let b = self.layout.injection_buffer_index(vnet);
        let s = self.slab.slot(src.index(), Direction::Local.index(), b);
        self.slab.has_space(s) && self.pools.can_acquire(src.index(), vnet)
    }

    /// Injects a packet. On success the packet is stamped with a sequence
    /// number and queued at the source switch's local port; on failure the
    /// payload is returned so the caller can retry later.
    pub fn inject(
        &mut self,
        now: Cycle,
        src: NodeId,
        dst: NodeId,
        vnet: VirtualNetwork,
        size: MessageSize,
        payload: P,
    ) -> Result<(), InjectError<P>> {
        if !self.can_inject(src, vnet) {
            self.stats.injection_rejects += 1;
            return Err(InjectError(payload));
        }
        let seq = self.ordering.stamp(src, dst, vnet);
        let packet = Packet {
            src,
            dst,
            vnet,
            size,
            seq,
            injected_at: now,
            taint: PacketTaint::Clean,
            payload,
        };
        let i = src.index();
        let b = self.layout.injection_buffer_index(vnet);
        let s = self.slab.slot(i, Direction::Local.index(), b);
        let id = self.arena.alloc(packet);
        self.slab
            .push(s, id)
            .unwrap_or_else(|()| panic!("injection space was checked"));
        self.slab.queued[SwitchSlab::port(i, Direction::Local.index())] += 1;
        self.slab.queued_total[i] += 1;
        self.pools.acquire(i, vnet);
        self.active.insert(i);
        self.stats.injected += 1;
        self.in_flight += 1;
        Ok(())
    }

    /// Advances the network by one cycle: first delivers link arrivals into
    /// downstream buffers, then lets every switch forward up to one packet
    /// per input port.
    ///
    /// With a fault director, its schedule is consulted at every link
    /// transmit (drop / duplicate / delay / corrupt), switch visit (stall /
    /// blackout window) and ejection (inbox-drop window). `None` runs the
    /// fault-free schedule.
    pub fn tick(&mut self, now: Cycle, mut faults: Option<&mut FaultDirector>)
    where
        P: Clone,
    {
        if let Some(f) = faults.as_deref_mut() {
            f.advance(now);
        }
        self.deliver_phase(now, faults.as_deref());
        self.forward_phase(now, faults);
        // Sampled here, before endpoints eject from (and so free slots of)
        // the pools after the tick.
        self.deadlock_evidence = self.has_exhausted_pool();
    }

    /// True when the latest [`Network::tick`] ended with evidence of a
    /// buffer-dependency deadlock: the network provisions buffers from
    /// shared slot pools and a pool was exhausted. A system's
    /// transaction-timeout detector uses it to classify a coincident timeout
    /// as a buffer deadlock rather than plain congestion. Always `false` for
    /// unpooled networks.
    #[must_use]
    pub fn deadlock_evidence(&self) -> bool {
        self.deadlock_evidence
    }

    /// `tick(now, None)` under the signature the frozen benchmark harness
    /// (`perfbench/`) still calls. It exists only for that harness: the
    /// pool is ignored and nothing in this workspace may call it.
    pub fn tick_with_pool(&mut self, now: Cycle, _pool: Option<&WorkerPool>)
    where
        P: Clone,
    {
        self.tick(now, None);
    }

    /// The earliest cycle after `now` (the cycle just ticked) at which a
    /// fault-free [`Network::tick`] or an endpoint could change this
    /// network's state, capped at `limit`: `now + 1` while a switch on the
    /// worklist holds a packet that could move, a packet waits in an
    /// ejection queue, or a pool is exhausted (the deadlock evidence each
    /// tick samples); otherwise the earliest arrival-wheel entry, a link
    /// arrival or a parked switch's wake. Checks the O(1) activity conditions
    /// first, so a busy fabric answers without touching the arrival wheel.
    #[must_use]
    pub fn next_event_at(&self, now: Cycle, limit: Cycle) -> Cycle {
        let busy =
            !self.active.is_empty() || !self.eject_active.is_empty() || self.has_exhausted_pool();
        if busy {
            return limit.min(now + 1);
        }
        self.arrivals.earliest_due(limit)
    }

    /// Accounts `cycles` ticks that the caller skipped because
    /// [`Network::next_event_at`] showed they could do nothing: such a tick
    /// only turns the port round-robin (see `forward_rounds`), so skipping
    /// it and calling this keeps the schedule identical.
    pub fn skip_idle_cycles(&mut self, cycles: u64) {
        self.forward_rounds += cycles;
    }

    /// Forward-phase execution counters (how the work was run, not what it
    /// computed — identical workloads report identical [`NetStats`] however
    /// these counters split).
    #[must_use]
    pub fn forward_probe(&self) -> ForwardProbe {
        self.forward_probe
    }

    /// Messages currently inside the network fabric (injected but not yet
    /// placed in an ejection queue).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// True when at least one delivered packet is waiting in `node`'s
    /// ejection queues. O(1); system layers use this to skip ingest polling
    /// for idle endpoints.
    #[must_use]
    pub fn has_ejectable(&self, node: NodeId) -> bool {
        self.eject_pending[node.index()] > 0
    }

    /// The lowest node index `>= from` whose ejection queues hold at least
    /// one deliverable packet, or `None` when no node at or past `from` does.
    /// Walking this cursor visits exactly the nodes a dense ascending scan
    /// with a [`Network::has_ejectable`] filter would, in the same order, but
    /// in time proportional to the nodes with work rather than `num_nodes`.
    #[must_use]
    pub fn next_ejectable_at_or_after(&self, from: usize) -> Option<usize> {
        self.eject_active.next_at_or_after(from)
    }

    /// Removes the next packet from `node`'s ejection queue for a specific
    /// virtual network (meaningful in virtual-channel mode; in shared-buffer
    /// mode all classes share one queue and this behaves like
    /// [`Network::eject_any`]).
    pub fn eject_from(&mut self, node: NodeId, vnet: VirtualNetwork) -> Option<Packet<P>> {
        let q = self.layout.ejection_index(vnet);
        let id = self.eject[node.index()][q].pop()?;
        self.eject_pending[node.index()] -= 1;
        if self.eject_pending[node.index()] == 0 {
            self.eject_active.remove(node.index());
        }
        let p = self.arena.take(id);
        self.release_ejected_slot(node.index(), p.vnet);
        Some(p)
    }

    /// Peeks the next packet that [`Network::eject_from`] would return.
    #[must_use]
    pub fn peek_from(&self, node: NodeId, vnet: VirtualNetwork) -> Option<&Packet<P>> {
        let q = self.layout.ejection_index(vnet);
        self.eject[node.index()][q]
            .peek()
            .map(|&id| self.arena.get(id))
    }

    /// Removes the next packet from any of `node`'s ejection queues,
    /// rotating across queues for fairness.
    pub fn eject_any(&mut self, node: NodeId) -> Option<Packet<P>> {
        let i = node.index();
        if self.eject_pending[i] == 0 {
            return None;
        }
        let n = self.eject[i].len();
        for k in 0..n {
            let q = (self.eject_rr[i] + k) % n;
            if let Some(id) = self.eject[i][q].pop() {
                self.eject_rr[i] = (q + 1) % n;
                self.eject_pending[i] -= 1;
                if self.eject_pending[i] == 0 {
                    self.eject_active.remove(i);
                }
                let p = self.arena.take(id);
                self.release_ejected_slot(i, p.vnet);
                return Some(p);
            }
        }
        unreachable!("eject_pending said a packet was waiting")
    }

    /// Peeks the packet at the head of `node`'s single shared ejection queue
    /// (shared-buffer / worst-case modes). In virtual-channel mode this peeks
    /// the queue that the fairness rotation would serve next.
    #[must_use]
    pub fn peek_any(&self, node: NodeId) -> Option<&Packet<P>> {
        let i = node.index();
        let n = self.eject[i].len();
        (0..n)
            .map(|k| (self.eject_rr[i] + k) % n)
            .find_map(|q| self.eject[i][q].peek().copied())
            .map(|id| self.arena.get(id))
    }

    /// Network statistics.
    #[must_use]
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Point-to-point ordering statistics.
    #[must_use]
    pub fn ordering(&self) -> &OrderingTracker {
        &self.ordering
    }

    /// Mean utilization across every unidirectional link over `[0, now]`:
    /// [`NetStats::link_busy_cycles`] over the link-cycles elapsed.
    #[must_use]
    pub fn mean_link_utilization(&self, now: Cycle) -> f64 {
        if now == 0 {
            return 0.0;
        }
        let busy = self.stats.link_busy_cycles;
        let links = self.stats.num_links as f64;
        (busy as f64 / (links * now as f64)).clamp(0.0, 1.0)
    }

    /// Total messages queued at each switch (diagnostic snapshot).
    #[must_use]
    pub fn occupancy_snapshot(&self) -> Vec<usize> {
        (0..self.slab.num_nodes())
            .map(|i| self.slab.node_occupancy(i))
            .collect()
    }

    fn deliver_phase(&mut self, now: Cycle, faults: Option<&FaultDirector>) {
        let mut batch = std::mem::take(&mut self.arrival_scratch);
        while self.arrivals.pop_ripe_into(now, &mut batch) {
            for &(si, di) in &batch {
                let i = si as usize;
                if di == WAKE {
                    // A stale wake (the switch was re-activated and has since
                    // re-parked until later) finds `wake_at` in the future.
                    if self.slab.queued_total[i] > 0 && self.wake_at[i] <= now {
                        self.active.insert(i);
                    }
                    continue;
                }
                let d = LINK_DIRECTIONS[di as usize];
                let InTransit {
                    arrival,
                    target_slot,
                    id,
                } = self.slab.in_transit[SwitchSlab::link(i, d.index())]
                    .pop_front()
                    .expect("arrival entry without an in-transit message");
                debug_assert!(arrival <= now, "the wheel delivered an unripe arrival");
                let j = self.torus.neighbor(NodeId::from(i), d).index();
                let ts = target_slot as usize;
                if faults.is_some_and(|f| f.switch_blacked_out(j)) {
                    // A blacked-out switch loses its arrivals: give back the
                    // buffer reservation and the slot the hop took, and the
                    // message simply ceases to exist.
                    self.slab.release_reservation(ts);
                    let vnet = self.arena.take(id).vnet;
                    self.pools.release(j, vnet);
                    self.in_flight = self.in_flight.saturating_sub(1);
                    continue;
                }
                self.slab.accept_reserved(ts, id);
                self.slab.queued[SwitchSlab::port(j, d.opposite().index())] += 1;
                self.slab.queued_total[j] += 1;
                self.active.insert(j);
            }
        }
        self.arrival_scratch = batch;
    }

    fn forward_phase(&mut self, now: Cycle, mut faults: Option<&mut FaultDirector>)
    where
        P: Clone,
    {
        // The port round-robin pointer advances once per round on every
        // switch (active or not), exactly as the exhaustive scan did.
        let start_port = (self.forward_rounds % ALL_PORTS.len() as u64) as usize;
        self.forward_rounds += 1;
        if self.active.is_empty() {
            return;
        }
        let n = self.slab.num_nodes();
        let rotation = (now as usize) % n.max(1);
        // Visit the active switches in the per-cycle rotation order
        // `rotation, rotation+1, …, n-1, 0, …, rotation-1` via the sparse
        // bitmap cursor: O(n/64 + |active|) instead of the O(n) dense
        // membership scan, which matters once machines grow past 16 nodes.
        // Forwarding only ever deactivates the switch being processed (never
        // a later one, and it activates none), so an explicit cursor over
        // `next_at_or_after` visits exactly the switches the dense rotation
        // scan would have, in the same order — the schedule stays
        // bit-identical.
        let mut pos = rotation;
        while let Some(i) = self.active.next_at_or_after(pos) {
            self.forward_switch(i, now, start_port, faults.as_deref_mut());
            pos = i + 1;
        }
        let mut pos = 0;
        while pos < rotation {
            match self.active.next_at_or_after(pos) {
                Some(i) if i < rotation => {
                    self.forward_switch(i, now, start_port, faults.as_deref_mut());
                    pos = i + 1;
                }
                _ => break,
            }
        }
    }

    fn forward_switch(
        &mut self,
        i: usize,
        now: Cycle,
        start_port: usize,
        mut faults: Option<&mut FaultDirector>,
    ) where
        P: Clone,
    {
        self.forward_probe.switch_visits += 1;
        // A stalled (or blacked-out) switch forwards nothing while its fault
        // window is open; it stays on the worklist and resumes afterwards.
        if faults.as_deref().is_some_and(|f| f.switch_stalled(i)) {
            return;
        }
        // Congestion inputs (link state, downstream occupancy) are immutable
        // during the read-only planning pass, so the four-direction metric is
        // computed at most once per applied move instead of once per queued
        // packet; it must be refreshed after a move, which the subsequent
        // ports of this switch observe exactly as the exhaustive scan did.
        // Static routing never consults the metric, so it skips the
        // neighbour-gathering entirely.
        let adaptive = self.routing == RoutingPolicy::Adaptive;
        let mut congestion: Option<[usize; 4]> = None;
        for pk in 0..ALL_PORTS.len() {
            let p = (start_port + pk) % ALL_PORTS.len();
            if self.slab.queued[SwitchSlab::port(i, p)] == 0 {
                continue;
            }
            let c = if adaptive {
                *congestion
                    .get_or_insert_with(|| Self::congestion_of(&self.slab, &self.torus, i, now))
            } else {
                [0usize; 4]
            };
            if let Some(decision) = self.plan_port_move(i, p, now, &c) {
                self.apply_move(i, p, decision, now, faults.as_deref_mut());
                congestion = None;
            }
        }
        if self.slab.queued_total[i] > 0 {
            if let Some(wake) = self.earliest_link_free(i).filter(|&w| w > now + 1) {
                self.active.remove(i);
                self.wake_at[i] = wake;
                self.arrivals.schedule(wake, (i as u32, WAKE));
                self.forward_probe.switch_parks += 1;
            }
        }
    }

    /// The earliest cycle at which a candidate output link of some queued
    /// head at switch `i` is free: the dimension-order link under static
    /// routing, any productive link under adaptive routing (the productive
    /// directions include the dimension-order escape). `None` when a head is
    /// ejecting here. No head can leave before this cycle, since a hop needs
    /// its link free.
    fn earliest_link_free(&self, i: usize) -> Option<Cycle> {
        let node = NodeId::from(i);
        let free_at = |d: Direction| self.slab.busy_until[SwitchSlab::link(i, d.index())];
        let mut earliest = Cycle::MAX;
        for p in 0..ALL_PORTS.len() {
            if self.slab.queued[SwitchSlab::port(i, p)] == 0 {
                continue;
            }
            for b in 0..self.slab.buffers_per_port {
                let Some(&id) = self.slab.queues[self.slab.slot(i, p, b)].front() else {
                    continue;
                };
                let dst = self.arena.get(id).dst;
                if dst == node {
                    return None;
                }
                let head = match self.routing {
                    RoutingPolicy::Static => {
                        free_at(self.torus.dimension_order_direction(node, dst))
                    }
                    RoutingPolicy::Adaptive => self
                        .torus
                        .productive_directions(node, dst)
                        .iter()
                        .map(|&d| free_at(d))
                        .min()
                        .expect("a transit packet has a productive direction"),
                };
                earliest = earliest.min(head);
            }
        }
        Some(earliest)
    }

    /// The adaptive-routing congestion metric for each outgoing direction of
    /// switch `i`: messages on the link, the link-busy flag, and the
    /// occupancy of the downstream input port.
    fn congestion_of(slab: &SwitchSlab, torus: &Torus, i: usize, now: Cycle) -> [usize; 4] {
        let node = NodeId::from(i);
        let mut congestion = [0usize; 4];
        for d in LINK_DIRECTIONS {
            let di = d.index();
            let l = SwitchSlab::link(i, di);
            let j = torus.neighbor(node, d).index();
            let opp = d.opposite().index();
            congestion[di] = slab.in_transit[l].len()
                + usize::from(!slab.link_is_free(l, now))
                + slab.port_occupancy(j, opp);
        }
        congestion
    }

    /// Read-only pass: decide which (if any) packet of input port `p` of
    /// switch `i` can move this cycle, and where to. `congestion` is the
    /// per-direction congestion metric, computed once per switch visit (its
    /// inputs cannot change during planning).
    fn plan_port_move(
        &self,
        i: usize,
        p: usize,
        now: Cycle,
        congestion: &[usize; 4],
    ) -> Option<MoveDecision> {
        let node = NodeId::from(i);
        let nb = self.slab.buffers_per_port;
        let incoming = ALL_PORTS[p];
        let rr = self.slab.rr_next[SwitchSlab::port(i, p)] as usize;
        for bk in 0..nb {
            let b = (rr + bk) % nb;
            let Some(&id) = self.slab.queues[self.slab.slot(i, p, b)].front() else {
                continue;
            };
            let pkt = self.arena.get(id);
            // Local delivery. Under a split pool budget the ejecting packet
            // must additionally win an endpoint slot (it trades its switch
            // slot away); under a unified budget it keeps the slot it holds.
            if pkt.dst == node {
                let q = self.layout.ejection_index(pkt.vnet);
                if !self.eject[i][q].is_full() && self.endpoint_pools.can_acquire(i, pkt.vnet) {
                    return Some(MoveDecision {
                        buffer: b,
                        action: MoveAction::Eject { queue: q },
                    });
                }
                continue; // head blocked on ejection space; try other buffers
            }
            let cands = route_candidates(&self.torus, self.routing, node, pkt.dst, congestion);
            let current_vc = self.layout.vc_of_buffer(b);
            let serialization = self.cfg.link_bandwidth.serialization_cycles(pkt.bytes());

            let try_hop = |dir: Direction, use_adaptive: bool| -> Option<MoveDecision> {
                let di = dir.index();
                if !self.slab.link_is_free(SwitchSlab::link(i, di), now) {
                    return None;
                }
                let crosses = self.torus.crosses_dateline(node, dir);
                let j = self.torus.neighbor(node, dir).index();
                let opp = dir.opposite().index();
                let tb = self.layout.next_buffer_index(
                    pkt.vnet,
                    current_vc,
                    incoming,
                    dir,
                    crosses,
                    use_adaptive,
                );
                let target_slot = self.slab.slot(j, opp, tb);
                if self.slab.has_space(target_slot) && self.pools.can_acquire(j, pkt.vnet) {
                    Some(MoveDecision {
                        buffer: b,
                        action: MoveAction::Forward {
                            dir,
                            target_slot,
                            serialization,
                        },
                    })
                } else {
                    None
                }
            };

            if cands.adaptive {
                // Duato's scheme: prefer the fully adaptive channel on any
                // productive direction (least congested first) and fall back
                // to the escape (dimension-order, dateline) channel.
                for &dir in &cands.directions {
                    if let Some(m) = try_hop(dir, true) {
                        return Some(m);
                    }
                }
                let dor = self.torus.dimension_order_direction(node, pkt.dst);
                if let Some(m) = try_hop(dor, false) {
                    return Some(m);
                }
            } else {
                for &dir in &cands.directions {
                    if dir == Direction::Local {
                        break;
                    }
                    if let Some(m) = try_hop(dir, false) {
                        return Some(m);
                    }
                }
            }
        }
        None
    }

    /// Mutating pass: execute a planned move, consulting the fault director
    /// (if any) at the link-transmit and ejection hooks.
    fn apply_move(
        &mut self,
        i: usize,
        p: usize,
        decision: MoveDecision,
        now: Cycle,
        faults: Option<&mut FaultDirector>,
    ) where
        P: Clone,
    {
        let s = self.slab.slot(i, p, decision.buffer);
        match decision.action {
            MoveAction::Eject { queue } => {
                let id = self.slab.queues[s]
                    .pop_front()
                    .expect("planned packet vanished");
                if faults.as_deref().is_some_and(|f| f.inbox_dropped(i)) {
                    // Dead network interface: the ejected message is lost
                    // before it reaches the endpoint. Its slot is freed from
                    // the switch pool (it never takes an endpoint slot).
                    let vnet = self.arena.take(id).vnet;
                    self.pools.release(i, vnet);
                    self.in_flight = self.in_flight.saturating_sub(1);
                } else {
                    let (src, dst, vnet, seq, injected_at) = {
                        let pkt = self.arena.get(id);
                        (pkt.src, pkt.dst, pkt.vnet, pkt.seq, pkt.injected_at)
                    };
                    if self.endpoint_pools.is_pooled() {
                        // Split budget: trade the switch slot for the
                        // endpoint slot the planning pass checked.
                        self.pools.release(i, vnet);
                        self.endpoint_pools.acquire(i, vnet);
                    }
                    let latency = now.saturating_sub(injected_at);
                    self.ordering.observe_delivery(src, dst, vnet, seq);
                    self.stats.record_delivery(vnet, latency);
                    self.eject[i][queue]
                        .push(id)
                        .unwrap_or_else(|_| panic!("ejection space was checked during planning"));
                    self.eject_pending[i] += 1;
                    self.eject_active.insert(i);
                    self.in_flight = self.in_flight.saturating_sub(1);
                }
            }
            MoveAction::Forward {
                dir,
                target_slot,
                serialization,
            } => {
                let id = self.slab.queues[s]
                    .pop_front()
                    .expect("planned packet vanished");
                let j = self.torus.neighbor(NodeId::from(i), dir).index();
                let vnet = self.arena.get(id).vnet;
                // Fault injection at link transmit: at most one armed
                // message fault fires per transmit.
                let fired = faults.and_then(|f| f.message_fault(now, i, dir.index(), vnet.index()));
                if matches!(fired, Some((FaultKind::Drop, _))) {
                    // The message vanishes on the link: free this node's
                    // slot and never touch the downstream side.
                    self.arena.take(id);
                    self.pools.release(i, vnet);
                    self.in_flight = self.in_flight.saturating_sub(1);
                } else {
                    let delay = match fired {
                        Some((FaultKind::Delay, param)) => param,
                        _ => 0,
                    };
                    if matches!(fired, Some((FaultKind::Corrupt, _))) {
                        self.arena.get_mut(id).taint = PacketTaint::Corrupt;
                    }
                    let duplicate = matches!(fired, Some((FaultKind::Duplicate, _)));
                    // The slot credit travels with the packet: the hop frees
                    // a slot at this node and takes the downstream one that
                    // the planning pass checked. A delay fault holds the link
                    // (and everything serialized behind it) for the extra
                    // cycles, so per-link arrivals stay in FIFO order.
                    self.pools.release(i, vnet);
                    self.pools.acquire(j, vnet);
                    let arrival = now + serialization + SWITCH_LATENCY_CYCLES + delay;
                    let l = SwitchSlab::link(i, dir.index());
                    self.slab.busy_until[l] = now + serialization + delay;
                    self.stats.link_busy_cycles += serialization;
                    self.slab.in_transit[l].push_back(InTransit {
                        arrival,
                        target_slot: target_slot as u32,
                        id,
                    });
                    self.arrivals
                        .schedule(arrival, (i as u32, dir.index() as u8));
                    self.slab.reserved[target_slot] += 1;
                    self.stats.hops += 1;
                    if duplicate {
                        // The spurious copy follows back-to-back on the same
                        // link and consumes real downstream resources — if
                        // the buffer and pool can cover a second packet; an
                        // exhausted target quietly absorbs the fault.
                        if self.slab.has_space(target_slot) && self.pools.can_acquire(j, vnet) {
                            let mut d = self.arena.get(id).clone();
                            d.taint = PacketTaint::Duplicate;
                            let dup_id = self.arena.alloc(d);
                            self.pools.acquire(j, vnet);
                            let dup_arrival = arrival + serialization;
                            self.slab.busy_until[l] = now + 2 * serialization;
                            self.stats.link_busy_cycles += serialization;
                            self.slab.in_transit[l].push_back(InTransit {
                                arrival: dup_arrival,
                                target_slot: target_slot as u32,
                                id: dup_id,
                            });
                            self.arrivals
                                .schedule(dup_arrival, (i as u32, dir.index() as u8));
                            self.slab.reserved[target_slot] += 1;
                            self.in_flight += 1;
                        }
                    }
                }
            }
        }
        let pi = SwitchSlab::port(i, p);
        self.slab.queued[pi] -= 1;
        self.slab.queued_total[i] -= 1;
        if self.slab.queued_total[i] == 0 {
            self.active.remove(i);
        }
        self.slab.rr_next[pi] = ((decision.buffer + 1) % self.slab.buffers_per_port) as u32;
    }
}

impl<P> Network<P> {
    /// Checks the incremental worklist bookkeeping (per-port and per-switch
    /// queued counters, active-set membership and parking, per-node
    /// ejection counts, arena liveness) against a full scan of the
    /// underlying queues. Test support; O(network).
    #[cfg(test)]
    fn assert_worklist_invariants(&self) {
        use crate::switch::PORTS_PER_SWITCH;
        let n = self.slab.num_nodes();
        for i in 0..n {
            let mut total = 0;
            for p in 0..PORTS_PER_SWITCH {
                let scan = self.slab.port_queued_scan(i, p);
                assert_eq!(
                    self.slab.queued[SwitchSlab::port(i, p)] as usize,
                    scan,
                    "port counter at {i}"
                );
                total += scan;
            }
            assert_eq!(
                self.slab.queued_total[i] as usize, total,
                "switch counter at {i}"
            );
            if total == 0 {
                assert!(!self.active.contains(i), "empty switch {i} is active");
            } else if !self.active.contains(i) {
                // Parked: a pending wake no later than the first free
                // candidate link of any head, and no ejecting head.
                let free = self
                    .earliest_link_free(i)
                    .unwrap_or_else(|| panic!("parked switch {i} holds an ejecting head"));
                let wake = self.wake_at[i];
                assert!(
                    wake <= free,
                    "switch {i} wakes at {wake}, a link frees at {free}"
                );
                assert!(
                    self.arrivals.holds(wake, (i as u32, WAKE)),
                    "parked switch {i} has no pending wake at {wake}"
                );
            }
        }
        for (i, queues) in self.eject.iter().enumerate() {
            let scan: usize = queues.iter().map(MsgQueue::len).sum();
            assert_eq!(self.eject_pending[i], scan, "ejection count at node {i}");
            assert_eq!(
                self.eject_active.contains(i),
                scan > 0,
                "eject-active membership at node {i}"
            );
        }
        // Every live arena packet is either queued in the fabric, in transit
        // on a link, or waiting in an ejection queue — and vice versa.
        let fabric: usize = (0..n).map(|i| self.slab.node_occupancy(i)).sum();
        let ejected: usize = self
            .eject
            .iter()
            .flat_map(|qs| qs.iter())
            .map(MsgQueue::len)
            .sum();
        assert_eq!(self.arena.live(), fabric + ejected, "arena live count");
        self.assert_pool_invariants();
    }

    /// Checks the shared-pool slot accounting against a full scan: a node's
    /// held slots per class must equal the packets of that class queued in
    /// its input ports and ejection queues plus the in-flight link packets
    /// that reserved a slot at this node. Under a split budget the switch
    /// pool covers ports + in-transit reservations and the endpoint pool
    /// covers the ejection queues. No-op for unpooled networks.
    #[cfg(test)]
    fn assert_pool_invariants(&self) {
        use crate::switch::PORTS_PER_SWITCH;
        if !self.pools.is_pooled() {
            return;
        }
        let n = self.slab.num_nodes();
        let mut switch_side = vec![[0usize; 4]; n];
        let mut eject_side = vec![[0usize; 4]; n];
        for i in 0..n {
            for p in 0..PORTS_PER_SWITCH {
                for b in 0..self.slab.buffers_per_port {
                    for &id in &self.slab.queues[self.slab.slot(i, p, b)] {
                        switch_side[i][self.arena.get(id).vnet.index()] += 1;
                    }
                }
            }
            // In-flight packets hold their downstream slot from forwarding
            // time until delivery.
            for d in LINK_DIRECTIONS {
                let j = self.torus.neighbor(NodeId::from(i), d).index();
                for t in &self.slab.in_transit[SwitchSlab::link(i, d.index())] {
                    switch_side[j][self.arena.get(t.id).vnet.index()] += 1;
                }
            }
        }
        for (i, queues) in self.eject.iter().enumerate() {
            for q in queues {
                for &id in q.iter() {
                    eject_side[i][self.arena.get(id).vnet.index()] += 1;
                }
            }
        }
        let expected_switch: Vec<[usize; 4]> = if self.endpoint_pools.is_pooled() {
            switch_side
        } else {
            // Unified budget: one pool covers both sides.
            switch_side
                .iter()
                .zip(&eject_side)
                .map(|(s, e)| std::array::from_fn(|v| s[v] + e[v]))
                .collect()
        };
        self.pools.assert_holds(&expected_switch, "switch");
        self.endpoint_pools.assert_holds(&eject_side, "endpoint");
    }
}

#[cfg(test)]
#[path = "network_tests.rs"]
mod tests;
