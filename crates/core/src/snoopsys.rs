//! The full broadcast-snooping system of Section 3.2: 16 processors with
//! caches snooping a totally ordered address network, per-node home memory
//! controllers, a point-to-point data network and SafetyNet.
//!
//! The machine has **two fabrics** (Table 2): the totally ordered broadcast
//! **address network** ([`specsim_net::OrderedBus`]), which orders coherence
//! requests and is the protocol's logical time base, and a separate
//! point-to-point **data network** — a full [`specsim_net::Network`] torus
//! instance carrying owner→requestor and memory→requestor block transfers as
//! routed, size-accounted packets. Both machines are configured by one
//! [`SystemConfig`]: the data torus is the torus of
//! [`SystemConfig::net_config`] (link bandwidth and torus dims from the
//! memory parameters, the `routing` and `buffering` fields as on the
//! directory machine), which opens the snooping side of the paper's
//! bandwidth axis (Fig. 5 evaluates 400 MB/s and 3.2 GB/s links); the bus
//! keeps total order for addresses only — the data network is unordered and
//! may be adaptive. [`SystemConfig::new`] is the snooping machine's Table 2
//! default, and [`SystemConfig::bus_arbitration_interval`] the one field
//! only this machine reads.
//!
//! The machine is the shared [`SystemEngine`], which owns each node's
//! processor and cache controller and the data torus, driving
//! [`SnoopProtocol`], this module's [`ProtocolNode`] implementation: the
//! address bus, the home memories and the plumbing between them and the
//! controllers. [`SnoopingSystem`] names that pairing and adds the
//! snooping-specific constructor and checks.
//!
//! **Snoop delivery costs the nodes a snoop can change.** The bus keeps
//! one delivery queue: every node observes each broadcast at the same
//! cycle and takes the same `SNOOP_BUDGET` broadcasts a cycle, so one
//! queue stands for all of them. Each cycle the protocol takes that
//! batch once and hands it, node by node in ascending order, to the
//! requester of each broadcast, the home of its block, and the nodes the
//! *holder index* lists for its block: every node that has put a request
//! for the block on the bus ([`SnoopProtocol`] says why no other cache
//! can change). A visited node joins the engine's worklists only for the
//! controllers the batch may change. Debug builds check every skipped
//! node against both controllers' `snoop_may_change`.

use specsim_base::{ActiveSet, BlockAddr, Cycle, CycleDelta, FastMap, NodeId};
use specsim_coherence::snoop::msg::SnoopDataOut;
use specsim_coherence::snoop::{
    SnoopCacheController, SnoopDataMsg, SnoopMemoryController, SnoopRequest,
};

use specsim_net::{ForwardProbe, OrderedBus, VirtualNetwork};
use specsim_safetynet::SafetyNet;

use crate::config::SystemConfig;
use crate::engine::{ArchState, EngineCtx, ProtocolNode, StagedOutbox, SystemEngine};
use crate::metrics::{DataClass, RunMetrics, ALL_DATA_CLASSES};
use crate::shared::Shared;

/// The traffic class of a data-network message (owner transfer vs.
/// writeback), for per-class fabric statistics.
fn data_class_of(msg: &SnoopDataMsg) -> DataClass {
    match msg {
        SnoopDataMsg::Data { .. } => DataClass::OwnerTransfer,
        SnoopDataMsg::WbData { .. } => DataClass::Writeback,
    }
}

/// The virtual-network tag a data class travels under. The data torus is
/// unordered and (by default) unbuffered per class, so the tag never changes
/// scheduling — it exists so the fabric's per-virtual-network statistics
/// separate owner transfers from writebacks (and so a bounded/pooled data
/// torus accounts the classes separately).
fn data_vnet_of(class: DataClass) -> VirtualNetwork {
    match class {
        DataClass::OwnerTransfer => VirtualNetwork::Response,
        DataClass::Writeback => VirtualNetwork::Request,
    }
}

/// Snoops each node consumes from the address network per cycle.
const SNOOP_BUDGET: usize = 2;
/// Data-network messages each node ingests per cycle.
const DATA_INGEST_BUDGET: usize = 4;
/// Messages a controller may inject per cycle.
const DRAIN_BUDGET: usize = 4;
/// Cycles from an address-network grant to every node observing the
/// request.
const BUS_BROADCAST_LATENCY: CycleDelta = 64;

/// The snooping protocol's own part of the checkpointed state: the
/// ordered address bus, each node's home-memory controller and its
/// staging outbox.
///
/// Each home memory sits behind an `Arc`, so a clone (a SafetyNet
/// checkpoint or restore) shares it and the first write after it copies
/// only the memory written. Call sites that may change nothing check
/// first, so an idle memory stays shared; one that only replies queues the
/// reply beside it (`Shared`). The bus and outboxes are copied outright.
#[derive(Debug, Clone)]
pub struct SnoopArch {
    bus: OrderedBus<SnoopRequest>,
    memories: Vec<Shared<SnoopMemoryController>>,
    /// Memory-controller data responses waiting out their DRAM access
    /// latency before entering the data network.
    mem_outboxes: Vec<StagedOutbox<SnoopDataOut>>,
}

/// The snooping machine's checkpointed state.
type Machine = ArchState<SnoopProtocol>;

/// For each block some node has put a request for on the address bus,
/// the set of those nodes, as a bitmap of `words` 64-bit words. Only the
/// words holding a node are stored, each under its own key: the block's
/// address times `words`, plus the word's index. The key wraps, so two
/// words could share a key only for addresses beyond any machine's
/// memory, and even then they would merge into a superset of each set,
/// which still names every node a snoop can change.
///
/// The index never drops an entry, so it grows with the blocks ever
/// requested. It stays because the alternative measured slower: visiting
/// the nodes that pass a dense `snoop_may_change` filter instead kept every
/// digest, but ran at 0.84–0.93× the simulated ops per second on
/// `snoop16-uniform` (0 wins in 5 interleaved pairs, 2-core host) and
/// saved only about 0.4 MB of peak RSS.
#[derive(Debug)]
struct HolderIndex {
    words: usize,
    bits: FastMap<u64, u64>,
}

impl HolderIndex {
    fn new(num_nodes: usize) -> Self {
        Self {
            words: num_nodes.div_ceil(64),
            bits: FastMap::default(),
        }
    }

    /// The key of word `w` of `addr`'s bitmap.
    fn key(&self, addr: BlockAddr, w: usize) -> u64 {
        addr.0
            .wrapping_mul(self.words as u64)
            .wrapping_add(w as u64)
    }

    /// Records that `node` put a request for `addr` on the bus.
    fn insert(&mut self, addr: BlockAddr, node: NodeId) {
        let key = self.key(addr, node.index() / 64);
        *self.bits.entry(key).or_default() |= 1 << (node.index() % 64);
    }

    /// Adds `addr`'s holders to `set`.
    fn add_holders(&self, addr: BlockAddr, set: &mut ActiveSet) {
        for w in 0..self.words {
            let Some(&word) = self.bits.get(&self.key(addr, w)) else {
                continue;
            };
            let mut bits = word;
            while bits != 0 {
                set.insert(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }
}

/// The snooping-protocol half of the machine: everything the shared
/// [`SystemEngine`] delegates to a [`ProtocolNode`]. It moves messages
/// between the ordered address network, the data torus and the
/// cache/home-memory controllers.
///
/// It also keeps the *holder index*, which lets a broadcast skip the nodes
/// it cannot change. A foreign snoop changes a cache only if the cache
/// holds the block in L2, has a writeback of it in flight, or has an
/// ordered demand for it, and each of these follows the node's own bus
/// request for the block. So a broadcast visits its requester, the block's
/// home memory and the nodes that have requested the block. The index
/// only gains entries, so it covers the holders of every checkpoint taken
/// before; it lives here, outside the checkpointed [`SnoopArch`], and a
/// restore leaves it valid without a rebuild.
#[derive(Debug)]
pub struct SnoopProtocol {
    holders: HolderIndex,
    /// The cycle's broadcasts, as `(requester, request)` (reused).
    batch: Vec<(NodeId, SnoopRequest)>,
    /// The nodes the batch visits (empty between cycles).
    visit: ActiveSet,
}

impl SnoopProtocol {
    fn new(num_nodes: usize) -> Self {
        Self {
            holders: HolderIndex::new(num_nodes),
            batch: Vec::with_capacity(SNOOP_BUDGET),
            visit: ActiveSet::new(num_nodes),
        }
    }

    fn pump_controllers(&mut self, arch: &mut Machine, now: Cycle, ctx: &mut EngineCtx<'_, Self>) {
        let ArchState {
            torus: data_net,
            caches,
            proto:
                SnoopArch {
                    bus,
                    memories,
                    mem_outboxes,
                },
            ..
        } = arch;
        // Worklist walk: visit only nodes that may hold controller output or
        // a ripe staged DRAM response, in the same ascending order as the
        // dense scan this replaces (other visits are no-ops, so the schedule
        // is unchanged).
        let mut cursor = 0;
        while let Some(i) = ctx.next_outbox_at_or_after(cursor) {
            cursor = i + 1;
            let node = NodeId::from(i);
            // A controller with nothing queued is not touched, so a
            // checkpoint still sharing it keeps sharing it.
            if caches[i].outgoing_len() > 0 {
                let cache = caches[i].make_mut();
                // Address-network requests.
                for _ in 0..DRAIN_BUDGET {
                    let Some(req) = cache.pop_bus_request() else {
                        break;
                    };
                    self.holders.insert(req.addr(), node);
                    bus.request(node, req);
                }
            }
            // Data-network messages from caches (responses, writeback data).
            // Back-pressure is checked *before* popping — against the head
            // message's own traffic class, so e.g. writeback back-pressure on
            // a bounded/pooled fabric never blocks an injectable owner
            // transfer (the message stays queued, never dropped; the default
            // worst-case buffering never rejects).
            for _ in 0..DRAIN_BUDGET {
                let Some(vnet) = caches[i]
                    .peek()
                    .map(|out| data_vnet_of(data_class_of(&out.msg)))
                else {
                    break;
                };
                if !data_net.can_inject(node, vnet) {
                    break;
                }
                let out = caches[i].pop().expect("peeked message");
                data_net
                    .inject(now, node, out.dst, vnet, out.msg.size(), out.msg)
                    .expect("injection checked");
            }
            // Data-network messages from memory controllers wait out the DRAM
            // access latency (plus the small pseudo-random perturbation of the
            // Section 5.2 methodology) in a staging outbox before injection.
            for _ in 0..DRAIN_BUDGET {
                let Some(out) = memories[i].pop() else {
                    break;
                };
                mem_outboxes[i].stage(now + ctx.dram_response_latency(), out);
            }
            mem_outboxes[i].pump(now, |out| {
                let vnet = data_vnet_of(data_class_of(&out.msg));
                if !data_net.can_inject(node, vnet) {
                    return false;
                }
                data_net
                    .inject(now, node, out.dst, vnet, out.msg.size(), out.msg)
                    .expect("injection checked");
                true
            });
            // Drained controllers: until the tick phase or a delivery
            // re-lists the node, only its staged front ripening gives it
            // work.
            if caches[i].queued() == 0 && memories[i].queued() == 0 {
                ctx.settle_outbox(now, i, mem_outboxes[i].front_ready());
            }
        }
    }

    fn deliver_snoops(&mut self, arch: &mut Machine, now: Cycle, ctx: &mut EngineCtx<'_, Self>) {
        let ArchState {
            caches,
            proto: SnoopArch { bus, memories, .. },
            ..
        } = arch;
        // Every node takes the same `SNOOP_BUDGET` broadcasts a cycle, so
        // the cycle's batch is taken once, for all of them.
        self.batch.clear();
        while self.batch.len() < SNOOP_BUDGET {
            let Some(delivery) = bus.pop_snoop() else {
                break;
            };
            self.batch.push((delivery.src, delivery.payload));
        }
        if self.batch.is_empty() {
            return;
        }
        let n = caches.len();
        for &(src, request) in &self.batch {
            let addr = request.addr();
            self.visit.insert(src.index());
            self.visit.insert(addr.home_node(n).index());
            self.holders.add_holders(addr, &mut self.visit);
        }
        #[cfg(debug_assertions)]
        for i in (0..n).filter(|&i| !self.visit.contains(i)) {
            for &(src, request) in &self.batch {
                assert!(
                    !memories[i].snoop_may_change(src, request)
                        && !caches[i].snoop_may_change(src, request),
                    "cycle {now}: node {i} was skipped but {request:?} from {src} may change it"
                );
            }
        }
        // Node-major in ascending order, each node observing the whole
        // batch, so the first mis-speculation or error of a cycle is the
        // same one a visit of every node would find.
        let mut cursor = 0;
        while let Some(i) = self.visit.next_at_or_after(cursor) {
            cursor = i + 1;
            self.visit.remove(i);
            let (mut memory_changed, mut cache_changed) = (false, false);
            for &(src, request) in &self.batch {
                // Both the cache and the home memory controller observe the
                // same, totally ordered, request stream. Controllers a snoop
                // leaves unchanged are not touched; one that only replies
                // stays shared too.
                let memory = &mut memories[i];
                if memory.snoop_may_change(src, request) {
                    memory_changed = true;
                    if !memory.answer(|m| m.reply_only(src, request)) {
                        memory.make_mut().observe_snoop(now, src, request);
                    }
                }
                let cache = &mut caches[i];
                if cache.snoop_may_change(src, request) {
                    cache_changed = true;
                    if !cache.answer(|c| c.reply_only(src, request)) {
                        match cache.make_mut().observe_snoop(now, src, request) {
                            Ok(Some(misspec)) => ctx.note_misspeculation(misspec),
                            Ok(None) => {}
                            Err(e) => ctx.note_error(e),
                        }
                    }
                }
            }
            // A controller the batch may have changed may have queued
            // output, and the cache may have completed the node's own
            // ordered request, so a processor parked on it may now make
            // progress; the memory may have been written.
            if memory_changed || cache_changed {
                ctx.note_exchange_activity(i);
            }
            if memory_changed {
                ctx.note_memory_activity(i);
            }
            if cache_changed {
                ctx.note_cache_activity(now, i);
            }
        }
    }

    fn deliver_data(&mut self, arch: &mut Machine, now: Cycle, ctx: &mut EngineCtx<'_, Self>) {
        // Worklist walk: same ascending visit order as a dense scan with an
        // idle-inbox skip, but proportional to nodes with pending data.
        let mut cursor = 0;
        while let Some(i) = arch.torus.next_ejectable_at_or_after(cursor) {
            cursor = i + 1;
            let node = NodeId::from(i);
            for _ in 0..DATA_INGEST_BUDGET {
                let Some(packet) = arch.torus.eject_any(node) else {
                    break;
                };
                // Checksum model (Section 2): a detectably-damaged data
                // message is caught here, reported as fault evidence, and
                // discarded; the starved transaction then times out and the
                // evidence classifies the recovery.
                if let Some(kind) = packet.taint.fault_kind() {
                    ctx.report_fault_evidence(now, node, packet.payload.addr(), kind);
                    continue;
                }
                let result = match packet.payload {
                    SnoopDataMsg::WbData { .. } => {
                        // Writeback data is written to memory and logged.
                        ctx.note_memory_activity(i);
                        arch.proto.memories[i]
                            .make_mut()
                            .handle_data(now, packet.payload)
                    }
                    SnoopDataMsg::Data { .. } => {
                        // As for snoops: a parked processor may now proceed.
                        ctx.note_cache_activity(now, i);
                        arch.caches[i].make_mut().handle_data(now, packet.payload)
                    }
                };
                if let Err(e) = result {
                    ctx.note_error(e);
                }
                // A data arrival can complete the node's outstanding miss
                // and can enqueue controller output: arm the worklists.
                ctx.note_exchange_activity(i);
            }
        }
    }
}

impl ProtocolNode for SnoopProtocol {
    type Arch = SnoopArch;
    type Msg = SnoopDataMsg;
    type Cache = SnoopCacheController;

    fn exchange(&mut self, arch: &mut Machine, now: Cycle, ctx: &mut EngineCtx<'_, Self>) {
        self.pump_controllers(arch, now, ctx);
        arch.proto.bus.tick(now);
        self.deliver_snoops(arch, now, ctx);
        arch.torus.tick(now, ctx.faults());
        self.deliver_data(arch, now, ctx);
        ctx.deliver_completions(now, arch);
    }

    fn drain_write_log(arch: &mut SnoopArch, i: usize) -> usize {
        if arch.memories[i].has_write_log() {
            arch.memories[i].make_mut().take_write_log()
        } else {
            0
        }
    }

    fn next_event_at(arch: &SnoopArch, now: Cycle) -> Cycle {
        arch.bus.next_event_at(now)
    }

    fn checkpoint_due(
        &self,
        arch: &SnoopArch,
        safetynet: &SafetyNet<Machine>,
        _now: Cycle,
    ) -> bool {
        // The snooping system's checkpoints use the totally ordered address
        // network as their logical time base: one checkpoint every
        // `checkpoint_interval_requests` ordered requests (Table 2), counted
        // from the newest checkpoint's grant count (after a rollback, the
        // restored checkpoint's).
        let at_checkpoint = safetynet.latest_checkpoint().state.proto.bus.granted();
        arch.bus.granted().saturating_sub(at_checkpoint)
            >= safetynet.config().checkpoint_interval_requests
    }

    fn next_checkpoint_at(&self, _safetynet: &SafetyNet<Machine>) -> Cycle {
        // Only a bus grant advances the request count, and grants are bus
        // events the fast-forward horizon already stops at.
        Cycle::MAX
    }

    fn collect_protocol_metrics(&self, arch: &Machine, now: Cycle, m: &mut RunMetrics) {
        let data_net = &arch.torus;
        m.bus_requests = arch.proto.bus.granted();
        // Per-fabric stats of the second interconnect: the data torus.
        m.data_messages_delivered = m.messages_delivered;
        m.data_mean_latency_cycles = data_net.stats().mean_latency();
        m.data_link_utilization = data_net.mean_link_utilization(now);
        for class in ALL_DATA_CLASSES {
            let vnet = data_vnet_of(class);
            m.data_delivered_per_class[class.index()] = data_net.stats().delivered_on(vnet);
            m.data_latency_per_class[class.index()] = data_net.stats().mean_latency_of(vnet);
        }
    }
}

/// The assembled broadcast-snooping multiprocessor: the shared engine
/// driving the snooping protocol.
pub type SnoopingSystem = SystemEngine<SnoopProtocol>;

// Checkpoints share controllers through `Arc`, not `Rc`, so the machine
// stays `Send`.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<SnoopingSystem>();
};

impl SnoopingSystem {
    /// Builds the system described by `cfg`.
    #[must_use]
    pub fn new(cfg: SystemConfig) -> Self {
        let n = cfg.memory.num_nodes;
        let arch = SnoopArch {
            bus: OrderedBus::new(n, cfg.bus_arbitration_interval, BUS_BROADCAST_LATENCY),
            memories: (0..n)
                .map(|i| Shared::new(SnoopMemoryController::new(NodeId::from(i), n)))
                .collect(),
            mem_outboxes: (0..n).map(|_| StagedOutbox::default()).collect(),
        };
        Self::assemble(
            SnoopProtocol::new(n),
            &cfg,
            cfg.seed ^ 0x534e_4f4f_5053, // "SNOOPS"
            SnoopCacheController::new,
            arch,
        )
    }

    /// The data torus's forward-phase work counters (switch visits) —
    /// observability only, never part of the schedule.
    #[must_use]
    pub fn data_forward_probe(&self) -> ForwardProbe {
        self.arch().torus.forward_probe()
    }

    /// Checks the single-owner invariant over the stable cache state.
    pub fn verify_coherence(&self) -> Result<(), String> {
        self.arch().check_caches(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::snapshot_probe;
    use specsim_base::{FaultConfig, LinkBandwidth, ProtocolVariant, RoutingPolicy};
    use specsim_coherence::types::MisSpecKind;
    use specsim_workloads::{BurstConfig, TrafficConfig, WorkloadKind, ZipfConfig};

    fn small_config(protocol: ProtocolVariant) -> SystemConfig {
        let mut cfg = SystemConfig::new(WorkloadKind::Apache, protocol, 11);
        cfg.memory.l1_bytes = 16 * 1024;
        cfg.memory.l2_bytes = 64 * 1024;
        cfg.memory.safetynet.checkpoint_interval_requests = 200;
        cfg
    }

    /// `dir16-hot`'s traffic on the snooping machine: Zipf-plus-burst OLTP,
    /// 4 MSHRs and a 15k-cycle timeout, which fires on slow transactions
    /// and puts the machine in slow-start. A checkpoint every 4 ordered
    /// requests, with room for 16 outstanding, keeps each interval short.
    fn hot_config(seed: u64) -> SystemConfig {
        let mut cfg = SystemConfig::new(WorkloadKind::Oltp, ProtocolVariant::Speculative, seed);
        cfg.traffic = TrafficConfig {
            zipf: Some(ZipfConfig {
                hot_blocks: 128,
                skew: 1.0,
                fraction: 0.25,
            }),
            burst: Some(BurstConfig {
                period_cycles: 4_000,
                duty: 0.125,
                boost: 4.0,
            }),
        };
        cfg.memory.mshr_entries = 4;
        cfg.memory.safetynet.checkpoint_interval_cycles = 5_000;
        cfg.memory.safetynet.checkpoint_interval_requests = 4;
        cfg.memory.safetynet.max_outstanding_checkpoints = 16;
        cfg
    }

    #[test]
    fn the_holder_index_keeps_each_blocks_requesters_across_words() {
        let mut index = HolderIndex::new(130);
        let (a, b) = (BlockAddr(7), BlockAddr(8));
        for node in [129, 3, 70, 3] {
            index.insert(a, NodeId(node));
        }
        index.insert(b, NodeId(64));
        let mut set = ActiveSet::new(130);
        index.add_holders(a, &mut set);
        assert_eq!(set.iter_from(0).collect::<Vec<_>>(), [3, 70, 129]);
        set.insert(0);
        index.add_holders(b, &mut set);
        index.add_holders(BlockAddr(9), &mut set);
        assert_eq!(set.iter_from(0).collect::<Vec<_>>(), [0, 3, 64, 70, 129]);
    }

    #[test]
    fn a_checkpoint_copies_only_the_controllers_written_since_the_last() {
        let mut sys = SnoopingSystem::new(hot_config(9000));
        let n = sys.arch().caches.len();
        let (mut checkpoints, mut caches, mut memories, mut stalls) = (0, 0, 0, 0);
        snapshot_probe::walk(
            &mut sys,
            150_000,
            |prev, cur| {
                checkpoints += 1;
                caches += snapshot_probe::copied(
                    prev.caches.iter().map(Shared::arc),
                    cur.caches.iter().map(Shared::arc),
                );
                memories += snapshot_probe::copied(
                    prev.proto.memories.iter().map(Shared::arc),
                    cur.proto.memories.iter().map(Shared::arc),
                );
            },
            |restored, live| {
                // Nothing runs during a restore stall: the live machine
                // still shares every controller with the checkpoint.
                stalls += 1;
                assert_eq!(
                    snapshot_probe::copied(
                        restored.caches.iter().map(Shared::arc),
                        live.caches.iter().map(Shared::arc)
                    ),
                    0
                );
                assert_eq!(
                    snapshot_probe::copied(
                        restored.proto.memories.iter().map(Shared::arc),
                        live.proto.memories.iter().map(Shared::arc)
                    ),
                    0
                );
            },
        );
        assert!(stalls >= 1, "the run must restore a checkpoint");
        assert!(checkpoints >= 20, "only {checkpoints} checkpoints");
        // A snoop touches only its requestor, its home and the caches
        // tracking its block: on average a checkpoint copies well under
        // half of each kind of controller.
        for (kind, total) in [("caches", caches), ("memories", memories)] {
            assert!(
                total * 2 < checkpoints * n,
                "{checkpoints} checkpoints copied {total} {kind}"
            );
        }
    }

    #[test]
    fn repeated_restores_of_one_checkpoint_restore_the_same_controllers() {
        let mut cfg = small_config(ProtocolVariant::Speculative);
        cfg.inject_recovery_every = Some(10_000);
        let fresh = SnoopingSystem::new(cfg.clone());
        let mut sys = SnoopingSystem::new(cfg);
        let controllers = |a: &Machine| format!("{:?} {:?}", a.caches, a.proto.memories);
        // (checkpoint id, live controllers, checkpoint controllers) at
        // each restore.
        let mut restores: Vec<(u64, String, String)> = Vec::new();
        let mut ran_on = false;
        while restores.len() < 2 {
            sys.step().expect("no protocol errors");
            if sys.now() == 15_000 {
                ran_on = controllers(sys.arch()) != restores[0].1;
            }
            if sys.safetynet().stats().recovery.recoveries > restores.len() as u64 {
                let point = sys.safetynet().recovery_point();
                restores.push((point.id, controllers(sys.arch()), controllers(&point.state)));
            }
        }
        assert!(ran_on, "the machine must run on between the restores");
        let [(first_id, first, point_then), (second_id, second, point_now)] = &restores[..] else {
            unreachable!()
        };
        // Both restores went back to the initial checkpoint...
        assert_eq!((*first_id, *second_id), (0, 0));
        assert_eq!(*first, controllers(fresh.arch()));
        // ...which the live machine's writes in between left untouched.
        assert_eq!(point_then, point_now);
        assert_eq!(first, second);
    }

    #[test]
    fn full_snooping_system_makes_progress_and_stays_coherent() {
        let mut sys = SnoopingSystem::new(small_config(ProtocolVariant::Full));
        let m = sys.run_for(30_000).expect("no protocol errors");
        assert!(m.ops_completed > 1_000, "only {} ops", m.ops_completed);
        assert!(m.bus_requests > 50);
        assert_eq!(m.recoveries, 0);
        sys.verify_coherence().unwrap();
    }

    #[test]
    fn speculative_snooping_system_runs_the_commercial_workloads_without_recovery() {
        // Section 5.3: "all of them ran to completion without needing to
        // recover even once from reaching the edge case".
        let mut sys = SnoopingSystem::new(small_config(ProtocolVariant::Speculative));
        let m = sys.run_for(30_000).expect("no protocol errors");
        assert!(m.ops_completed > 1_000);
        assert_eq!(m.misspeculations_of(MisSpecKind::WritebackDoubleRace), 0);
        sys.verify_coherence().unwrap();
    }

    #[test]
    fn injected_recoveries_trigger_rollback_and_execution_continues() {
        let mut cfg = small_config(ProtocolVariant::Speculative);
        cfg.inject_recovery_every = Some(10_000);
        let mut sys = SnoopingSystem::new(cfg);
        let m = sys.run_for(35_000).expect("no protocol errors");
        assert!(m.injected_recoveries >= 2);
        assert!(m.ops_completed > 500);
        sys.verify_coherence().unwrap();
    }

    #[test]
    fn checkpoints_follow_the_request_count_time_base() {
        let mut sys = SnoopingSystem::new(small_config(ProtocolVariant::Full));
        let m = sys.run_for(30_000).expect("no protocol errors");
        // With a 200-request interval and >50 requests we expect at least a
        // handful of checkpoints.
        assert!(m.checkpoints >= 1, "checkpoints: {}", m.checkpoints);
        assert!(m.bus_requests >= 200 * m.checkpoints);
    }

    #[test]
    fn validate_rejects_a_random_fault_campaign_without_kinds() {
        let mut cfg = small_config(ProtocolVariant::Speculative);
        assert!(cfg.validate().is_empty());
        cfg.fault_config = FaultConfig::Random {
            rate_per_mcycle: 100,
            kinds: vec![],
            horizon_cycles: 1_000_000,
        };
        assert_eq!(
            cfg.validate(),
            ["a random fault campaign needs at least one fault kind"]
        );
    }

    #[test]
    fn data_net_geometry_always_follows_the_memory_config() {
        let mut cfg = small_config(ProtocolVariant::Full);
        cfg.memory.num_nodes = 32;
        cfg.memory.torus_dims = Some((16, 2));
        // The instantiated fabric follows the memory geometry.
        let net = cfg.net_config();
        assert_eq!(net.num_nodes, 32);
        assert_eq!(net.torus_dims, Some((16, 2)));
        let sys = SnoopingSystem::new(cfg);
        assert_eq!(sys.arch().torus.torus().dims(), (16, 2));
    }

    #[test]
    fn data_net_link_timing_follows_the_memory_config() {
        let mut cfg = small_config(ProtocolVariant::Full);
        cfg.memory.link_bandwidth = LinkBandwidth::MB_800;
        let net = cfg.net_config();
        assert_eq!(net.link_bandwidth, LinkBandwidth::MB_800);
    }

    #[test]
    fn with_data_bandwidth_changes_only_the_data_fabric() {
        let cfg = small_config(ProtocolVariant::Full);
        let slow = cfg.with_data_bandwidth(LinkBandwidth::MB_400);
        assert_eq!(slow.net_config().link_bandwidth, LinkBandwidth::MB_400);
        assert_eq!(slow.memory.link_bandwidth, LinkBandwidth::MB_400);
        assert_eq!(slow.bus_arbitration_interval, cfg.bus_arbitration_interval);
    }

    #[test]
    fn data_network_contention_raises_miss_latency_at_low_bandwidth() {
        // The heart of the bandwidth axis: a 72-byte data packet occupies a
        // 400 MB/s link for 720 cycles but a 3.2 GB/s link for only 90, so
        // misses served across the data torus must take visibly longer on
        // the slow machine, and throughput must not improve.
        let run = |bw: LinkBandwidth| {
            let mut sys =
                SnoopingSystem::new(small_config(ProtocolVariant::Full).with_data_bandwidth(bw));
            sys.run_for(30_000).expect("no protocol errors")
        };
        let slow = run(LinkBandwidth::MB_400);
        let fast = run(LinkBandwidth::GB_3_2);
        assert!(
            slow.mean_miss_latency() > fast.mean_miss_latency() * 1.2,
            "400 MB/s miss latency {:.0} should clearly exceed 3.2 GB/s {:.0}",
            slow.mean_miss_latency(),
            fast.mean_miss_latency()
        );
        assert!(slow.throughput() <= fast.throughput());
        assert!(slow.data_mean_latency_cycles > fast.data_mean_latency_cycles);
    }

    #[test]
    fn adaptive_data_torus_runs_coherently() {
        // The data network is unordered, so adaptive routing is legal on it
        // (only the address bus carries the total order).
        let mut cfg = small_config(ProtocolVariant::Speculative);
        cfg.routing = RoutingPolicy::Adaptive;
        let mut sys = SnoopingSystem::new(cfg);
        let m = sys.run_for(30_000).expect("no protocol errors");
        assert!(m.ops_completed > 1_000);
        assert!(m.data_messages_delivered > 0);
        sys.verify_coherence().unwrap();
    }
}
