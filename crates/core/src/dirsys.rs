//! The full directory-protocol system: one processor with two-level caches
//! and a directory/memory controller per node, the 2D-torus interconnect,
//! and SafetyNet checkpoint/recovery — the target machine of Sections 3.1, 4
//! and 5 of the paper (16 nodes on a 4×4 torus; the node-count scaling sweep
//! grows the same system to rectangular tori up to 16×8).
//!
//! The machine is the shared [`SystemEngine`] (each node's processor and
//! cache controller, the torus, processor ticking with idle-skip,
//! checkpointing, recovery and forward-progress orchestration, metrics)
//! driving [`DirProtocol`], this module's [`ProtocolNode`] implementation —
//! the directory controllers and the virtual-network plumbing between the
//! controllers and the torus. [`DirectorySystem`] names that pairing and
//! adds the directory-specific constructor and checks.
//!
//! The system is advanced one cycle at a time by [`SystemEngine::step`];
//! [`SystemEngine::run_for`] runs a full experiment window and returns the
//! collected [`RunMetrics`].

use std::sync::Arc;

use specsim_base::{Cycle, CycleDelta, NodeId};
use specsim_coherence::dir::{DirCacheController, DirMsg, DirectoryController, OutMsg};
use specsim_coherence::types::MsgClass;
use specsim_net::{ForwardProbe, VirtualNetwork};
use specsim_safetynet::SafetyNet;

use crate::config::SystemConfig;
use crate::engine::{ArchState, EngineCtx, ProtocolNode, StagedOutbox, SystemEngine};
use crate::metrics::RunMetrics;

/// Messages a node may ingest from the network per cycle.
const INGEST_BUDGET: usize = 4;
/// Messages a controller may hand to the outbox per cycle.
const DRAIN_BUDGET: usize = 4;
/// A controller stops ingesting new work while this many of its outputs are
/// still waiting to enter the network (the endpoint dependency that makes
/// endpoint deadlock possible when buffering is shared, Figure 2).
const CONTROLLER_OUTPUT_LIMIT: usize = 8;
/// Latency charged on cache-controller responses (tag/data array access).
const CACHE_RESPONSE_LATENCY: CycleDelta = 4;
/// Latency charged on directory responses that do not access DRAM.
const DIRECTORY_LATENCY: CycleDelta = 16;

/// The directory protocol's own part of the checkpointed state: each
/// node's directory controller and its staging outbox, which holds both
/// controllers' output while it waits out its access latency.
///
/// Each directory sits behind an [`Arc`], so a clone (a SafetyNet
/// checkpoint or restore) shares it and the first write after it copies
/// only the directory written, through [`Arc::make_mut`]. The outboxes are
/// copied outright.
#[derive(Debug, Clone)]
pub struct DirArch {
    dirs: Vec<Arc<DirectoryController>>,
    outboxes: Vec<StagedOutbox<OutMsg>>,
}

/// The directory machine's checkpointed state.
type Machine = ArchState<DirProtocol>;

/// Maps a protocol message class to its virtual network (Section 3.1:
/// one virtual network per message class).
fn vnet_of(class: MsgClass) -> VirtualNetwork {
    match class {
        MsgClass::Request => VirtualNetwork::Request,
        MsgClass::Forwarded => VirtualNetwork::ForwardedRequest,
        MsgClass::Response => VirtualNetwork::Response,
        MsgClass::FinalAck => VirtualNetwork::FinalAck,
    }
}

/// The directory-protocol half of the machine: everything the shared
/// [`SystemEngine`] delegates to a [`ProtocolNode`].
#[derive(Debug)]
pub struct DirProtocol;

impl DirProtocol {
    fn ingest_messages(&mut self, arch: &mut Machine, now: Cycle, ctx: &mut EngineCtx<'_, Self>) {
        let n = arch.procs.len();
        let vc_mode = arch.torus.has_virtual_networks();
        // In virtual-channel mode the endpoint has one ejection queue per
        // class; responses are served first, which is exactly how virtual
        // networks break the request-response endpoint dependency. With
        // shared buffering there is a single FIFO: if its head cannot be
        // ingested the whole queue waits — the endpoint-deadlock dependency
        // of Figure 2.
        const PRIORITY: [VirtualNetwork; 4] = [
            VirtualNetwork::Response,
            VirtualNetwork::FinalAck,
            VirtualNetwork::ForwardedRequest,
            VirtualNetwork::Request,
        ];
        // Worklist walk: visit only endpoints holding deliverable packets, in
        // the same ascending order as a dense scan with an idle-inbox skip.
        // The cursor re-queries after each node because ingest itself drains
        // queues (nodes can only leave the worklist, never join, mid-walk).
        let mut cursor = 0;
        while let Some(node_idx) = arch.torus.next_ejectable_at_or_after(cursor) {
            cursor = node_idx + 1;
            if node_idx >= n {
                break;
            }
            let node = NodeId::from(node_idx);
            let mut budget = INGEST_BUDGET;
            while budget > 0 {
                let packet = if vc_mode {
                    let mut found = None;
                    for vn in PRIORITY {
                        if let Some(p) = arch.torus.peek_from(node, vn) {
                            if Self::can_ingest(arch, node_idx, p.payload.class()) {
                                found = Some(vn);
                                break;
                            }
                        }
                    }
                    found.and_then(|vn| arch.torus.eject_from(node, vn))
                } else {
                    match arch.torus.peek_any(node) {
                        Some(p) if Self::can_ingest(arch, node_idx, p.payload.class()) => {
                            arch.torus.eject_any(node)
                        }
                        _ => None,
                    }
                };
                let Some(packet) = packet else { break };
                budget -= 1;
                // Checksum model (Section 2, detection): a detectably-damaged
                // message is caught at ingest, reported as transient-fault
                // evidence, and discarded — the protocol never sees it. The
                // dropped message then surfaces through the requestor's
                // transaction timeout, which the evidence classifies.
                if let Some(kind) = packet.taint.fault_kind() {
                    ctx.report_fault_evidence(now, node, packet.payload.addr(), kind);
                    continue;
                }
                Self::dispatch(arch, ctx, now, node_idx, packet.src, packet.payload);
            }
        }
    }

    fn can_ingest(arch: &Machine, node_idx: usize, class: MsgClass) -> bool {
        match class {
            MsgClass::Request | MsgClass::FinalAck => {
                arch.proto.dirs[node_idx].outgoing_len() < CONTROLLER_OUTPUT_LIMIT
            }
            MsgClass::Forwarded | MsgClass::Response => {
                arch.caches[node_idx].queued() < CONTROLLER_OUTPUT_LIMIT
            }
        }
    }

    fn dispatch(
        arch: &mut Machine,
        ctx: &mut EngineCtx<'_, Self>,
        now: Cycle,
        node_idx: usize,
        src: NodeId,
        msg: DirMsg,
    ) {
        // Either controller may have enqueued protocol output (and a cache
        // ingest may have completed a processor access): put the node on the
        // exchange worklists.
        ctx.note_exchange_activity(node_idx);
        match msg.class() {
            MsgClass::Request | MsgClass::FinalAck => {
                if let Err(e) =
                    Arc::make_mut(&mut arch.proto.dirs[node_idx]).handle_message(now, src, msg)
                {
                    ctx.note_error(e);
                }
                // A writeback may have written memory: the SafetyNet tick
                // must drain this node's write log.
                ctx.note_memory_activity(node_idx);
            }
            MsgClass::Forwarded | MsgClass::Response => {
                // A reply alone leaves the cache shared.
                let cache = &mut arch.caches[node_idx];
                if !cache.answer(|c| c.reply_only(msg)) {
                    match cache.make_mut().handle_message(now, msg) {
                        Ok(Some(misspec)) => ctx.note_misspeculation(misspec),
                        Ok(None) => {}
                        Err(e) => ctx.note_error(e),
                    }
                }
                // The cache may have changed state: a processor parked on a
                // stalled request at this node may now make progress. (A
                // reply alone changes nothing it waits on; the wake is
                // harmless.)
                ctx.note_cache_activity(now, node_idx);
            }
        }
    }

    fn pump_outboxes(&mut self, arch: &mut Machine, now: Cycle, ctx: &mut EngineCtx<'_, Self>) {
        let ArchState {
            torus,
            caches,
            proto: DirArch { dirs, outboxes },
            ..
        } = arch;
        // Worklist walk: visit only nodes that may hold controller output or
        // a ripe staged message, in the same ascending order as the dense
        // scan this replaces (the worklist holds a superset of the nodes a
        // visit can act on, and other visits are no-ops, so the schedule is
        // unchanged).
        let mut cursor = 0;
        while let Some(i) = ctx.next_outbox_at_or_after(cursor) {
            cursor = i + 1;
            // A controller with nothing queued is not touched, so a
            // checkpoint still sharing it keeps sharing it.
            for _ in 0..DRAIN_BUDGET {
                match caches[i].pop() {
                    Some(m) => outboxes[i].stage(now + CACHE_RESPONSE_LATENCY, m),
                    None => break,
                }
            }
            if dirs[i].outgoing_len() > 0 {
                let dir = Arc::make_mut(&mut dirs[i]);
                for _ in 0..DRAIN_BUDGET {
                    match dir.pop_outgoing() {
                        Some(m) => {
                            let delay = match m.msg {
                                DirMsg::Data { .. } => ctx.dram_response_latency(),
                                _ => DIRECTORY_LATENCY,
                            };
                            outboxes[i].stage(now + delay, m);
                        }
                        None => break,
                    }
                }
            }
            // Inject ready messages in FIFO order (per-source protocol order
            // is preserved; the network may still reorder in flight under
            // adaptive routing, which is the point of Section 3.1).
            let node = NodeId::from(i);
            outboxes[i].pump(now, |m| {
                let vnet = vnet_of(m.msg.class());
                if !torus.can_inject(node, vnet) {
                    return false;
                }
                torus
                    .inject(now, node, m.dst, vnet, m.msg.size(), m.msg)
                    .expect("injection checked");
                true
            });
            // Drained controllers: until the tick phase or a message ingest
            // re-lists the node, only its staged front ripening gives it
            // work.
            if caches[i].queued() == 0 && dirs[i].outgoing_len() == 0 {
                ctx.settle_outbox(now, i, outboxes[i].front_ready());
            }
        }
    }
}

impl ProtocolNode for DirProtocol {
    type Arch = DirArch;
    type Msg = DirMsg;
    type Cache = DirCacheController;

    fn exchange(&mut self, arch: &mut Machine, now: Cycle, ctx: &mut EngineCtx<'_, Self>) {
        self.ingest_messages(arch, now, ctx);
        ctx.deliver_completions(now, arch);
        self.pump_outboxes(arch, now, ctx);
        arch.torus.tick(now, ctx.faults());
    }

    fn drain_write_log(arch: &mut DirArch, i: usize) -> usize {
        if arch.dirs[i].has_write_log() {
            Arc::make_mut(&mut arch.dirs[i]).take_write_log()
        } else {
            0
        }
    }

    fn next_event_at(_arch: &DirArch, _now: Cycle) -> Cycle {
        // Only the torus carries the directory machine's messages.
        Cycle::MAX
    }

    fn checkpoint_due(&self, _arch: &DirArch, safetynet: &SafetyNet<Machine>, now: Cycle) -> bool {
        // The directory system checkpoints on the cycle clock (Table 2:
        // every 100 000 cycles).
        safetynet.should_checkpoint(now)
    }

    fn next_checkpoint_at(&self, safetynet: &SafetyNet<Machine>) -> Cycle {
        safetynet.next_checkpoint_at()
    }

    fn collect_protocol_metrics(&self, arch: &Machine, now: Cycle, m: &mut RunMetrics) {
        let net = &arch.torus;
        for vn in specsim_net::ALL_VIRTUAL_NETWORKS {
            m.delivered_per_vnet[vn.index()] = net.stats().delivered_on(vn);
            m.reordered_per_vnet[vn.index()] = net.ordering().reordered(vn);
        }
        m.link_utilization = net.mean_link_utilization(now);
    }
}

/// The assembled directory-protocol multiprocessor: the shared engine
/// driving the directory protocol.
pub type DirectorySystem = SystemEngine<DirProtocol>;

// Checkpoints share controllers through `Arc`, not `Rc`, so the machine
// stays `Send`.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<DirectorySystem>();
};

impl DirectorySystem {
    /// Builds the system described by `cfg`.
    #[must_use]
    pub fn new(cfg: SystemConfig) -> Self {
        let n = cfg.memory.num_nodes;
        let arch = DirArch {
            dirs: (0..n)
                .map(|i| Arc::new(DirectoryController::new(NodeId::from(i), cfg.protocol)))
                .collect(),
            outboxes: (0..n).map(|_| StagedOutbox::default()).collect(),
        };
        Self::assemble(DirProtocol, &cfg, cfg.seed, DirCacheController::new, arch)
    }

    /// The torus's forward-phase work counters (switch visits) —
    /// observability only, never part of the schedule.
    #[must_use]
    pub fn net_forward_probe(&self) -> ForwardProbe {
        self.arch().torus.forward_probe()
    }

    /// Checks the fundamental coherence invariants over the current stable
    /// state: at most one owner (M or O) per block, and every cached copy of
    /// a block holds the same value as the owner. Returns a description of
    /// the first violation found.
    pub fn verify_coherence(&self) -> Result<(), String> {
        self.arch().check_caches(true)
    }

    /// Whether a delivered message is waiting in node `i`'s ejection
    /// queues — the only way node `i`'s controllers can ingest during the
    /// next cycle's exchange, which ingests before the torus ticks.
    #[cfg(test)]
    pub(crate) fn message_waiting_at(&self, i: usize) -> bool {
        self.arch().torus.next_ejectable_at_or_after(i) == Some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::snapshot_probe;
    use crate::shared::Shared;
    use specsim_base::{EngineMode, LinkBandwidth, ProtocolVariant, RoutingPolicy};
    use specsim_coherence::types::MisSpecKind;
    use specsim_workloads::{BurstConfig, TrafficConfig, WorkloadKind, ZipfConfig};

    fn small_config(protocol: ProtocolVariant, routing: RoutingPolicy) -> SystemConfig {
        let mut cfg =
            SystemConfig::directory_speculative(WorkloadKind::Jbb, LinkBandwidth::GB_3_2, 7);
        cfg.protocol = protocol;
        cfg.routing = routing;
        // Small caches keep the checkpoint snapshots cheap in unit tests.
        cfg.memory.l1_bytes = 16 * 1024;
        cfg.memory.l2_bytes = 64 * 1024;
        cfg.memory.safetynet.checkpoint_interval_cycles = 5_000;
        cfg
    }

    #[test]
    fn full_protocol_static_routing_makes_progress_and_stays_coherent() {
        let mut sys =
            DirectorySystem::new(small_config(ProtocolVariant::Full, RoutingPolicy::Static));
        let metrics = sys.run_for(30_000).expect("no protocol errors");
        assert!(
            metrics.ops_completed > 1_000,
            "only {} ops",
            metrics.ops_completed
        );
        assert!(metrics.misses > 10);
        assert_eq!(metrics.recoveries, 0);
        assert_eq!(metrics.total_reorder_fraction(), 0.0);
        sys.verify_coherence().unwrap();
    }

    #[test]
    fn speculative_protocol_with_adaptive_routing_makes_progress() {
        let mut sys = DirectorySystem::new(small_config(
            ProtocolVariant::Speculative,
            RoutingPolicy::Adaptive,
        ));
        let metrics = sys.run_for(30_000).expect("no protocol errors");
        assert!(metrics.ops_completed > 1_000);
        sys.verify_coherence().unwrap();
        // Checkpoints were taken on schedule.
        assert!(metrics.checkpoints >= 4);
    }

    #[test]
    fn injected_recoveries_occur_at_the_configured_rate() {
        let mut cfg = small_config(ProtocolVariant::Full, RoutingPolicy::Static);
        cfg.inject_recovery_every = Some(10_000);
        let mut sys = DirectorySystem::new(cfg);
        let metrics = sys.run_for(45_000).expect("no protocol errors");
        assert!(
            (3..=5).contains(&metrics.injected_recoveries),
            "expected about 4 injected recoveries, got {}",
            metrics.injected_recoveries
        );
        assert!(metrics.lost_work_cycles > 0);
        // The system keeps working after recoveries.
        assert!(metrics.ops_completed > 500);
        sys.verify_coherence().unwrap();
    }

    #[test]
    fn recovery_rolls_back_to_a_checkpoint_and_resumes() {
        let mut cfg = small_config(ProtocolVariant::Speculative, RoutingPolicy::Adaptive);
        cfg.inject_recovery_every = Some(20_000);
        let mut sys = DirectorySystem::new(cfg);
        sys.run_for(25_000).expect("no protocol errors");
        let ops_after_recovery = sys.ops_completed();
        let m = sys.collect_metrics();
        assert_eq!(m.injected_recoveries, 1);
        // Execution continued after the rollback.
        sys.run_for(10_000).expect("no protocol errors");
        assert!(sys.ops_completed() > ops_after_recovery);
    }

    #[test]
    fn buffer_deadlock_measure_reserves_pool_slots_and_expiry_lifts_them() {
        // Drives the Section 4 forward-progress lifecycle deterministically:
        // entering the measure partitions every node's pool into per-network
        // reservations; once the window expires the engine lifts them and
        // the pool returns to fully shared slots.
        let mut cfg =
            SystemConfig::shared_pool_interconnect(WorkloadKind::Jbb, LinkBandwidth::GB_3_2, 64, 7);
        cfg.memory.l1_bytes = 16 * 1024;
        cfg.memory.l2_bytes = 64 * 1024;
        cfg.forward_progress_window = 2_000;
        let mut sys = DirectorySystem::new(cfg);
        sys.run_for(1_000).expect("no protocol errors");
        assert_eq!(sys.arch().torus.pool_reservation(), Some(0));
        sys.enter_forward_progress(MisSpecKind::BufferDeadlock, sys.now());
        assert_eq!(sys.forward_progress_mode(), EngineMode::ReservedSlots);
        assert_eq!(sys.arch().torus.pool_reservation(), Some(1));
        // The window expires mid-run; the engine lifts the reservation.
        sys.run_for(3_000).expect("no protocol errors");
        assert_eq!(sys.forward_progress_mode(), EngineMode::Normal);
        assert_eq!(sys.arch().torus.pool_reservation(), Some(0));
    }

    #[test]
    fn buffer_deadlock_measure_falls_back_to_slow_start_on_unpooled_nets() {
        // A worst-case-buffered machine has no pool to reserve: the measure
        // degrades to slow-start, never to a no-op.
        let mut sys =
            DirectorySystem::new(small_config(ProtocolVariant::Full, RoutingPolicy::Static));
        sys.run_for(100).expect("no protocol errors");
        sys.enter_forward_progress(MisSpecKind::BufferDeadlock, sys.now());
        assert_eq!(sys.forward_progress_mode(), EngineMode::SlowStart);
    }

    /// `dir16-hot`'s machine: 16 nodes on a 400 MB/s adaptive torus,
    /// Zipf-plus-burst OLTP, 4 MSHRs and a 5k-cycle checkpoint interval,
    /// whose 15k-cycle timeout fires on slow transactions and puts the
    /// machine in slow-start.
    fn hot_config(seed: u64) -> SystemConfig {
        let mut cfg =
            SystemConfig::directory_speculative(WorkloadKind::Oltp, LinkBandwidth::MB_400, seed);
        cfg.routing = RoutingPolicy::Adaptive;
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
        cfg
    }

    #[test]
    fn a_checkpoint_copies_only_the_controllers_written_since_the_last() {
        let mut sys = DirectorySystem::new(hot_config(9000));
        let n = sys.arch().caches.len();
        let (mut checkpoints, mut caches, mut dirs, mut stalls) = (0, 0, 0, 0);
        snapshot_probe::walk(
            &mut sys,
            200_000,
            |prev, cur| {
                checkpoints += 1;
                caches += snapshot_probe::copied(
                    prev.caches.iter().map(Shared::arc),
                    cur.caches.iter().map(Shared::arc),
                );
                dirs += snapshot_probe::copied(&prev.proto.dirs, &cur.proto.dirs);
            },
            |restored, live| {
                // Nothing runs during a restore stall: the live machine
                // still shares every controller with the checkpoint.
                stalls += 1;
                assert_eq!(
                    snapshot_probe::copied(
                        restored.caches.iter().map(Shared::arc),
                        live.caches.iter().map(Shared::arc),
                    ),
                    0
                );
                assert_eq!(
                    snapshot_probe::copied(&restored.proto.dirs, &live.proto.dirs),
                    0
                );
            },
        );
        assert!(stalls >= 1, "the run must restore a checkpoint");
        assert!(checkpoints >= 20, "only {checkpoints} checkpoints");
        // Slow-start intervals write a few nodes each: on average a
        // checkpoint copies well under half of each kind of controller.
        for (kind, total) in [("caches", caches), ("directories", dirs)] {
            assert!(
                total * 2 < checkpoints * n,
                "{checkpoints} checkpoints copied {total} {kind}"
            );
        }
    }

    #[test]
    fn repeated_restores_of_one_checkpoint_restore_the_same_controllers() {
        let mut cfg = small_config(ProtocolVariant::Speculative, RoutingPolicy::Adaptive);
        cfg.inject_recovery_every = Some(10_000);
        let fresh = DirectorySystem::new(cfg.clone());
        let mut sys = DirectorySystem::new(cfg);
        let controllers = |a: &Machine| format!("{:?} {:?}", a.caches, a.proto.dirs);
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
    fn ops_throughput_scales_with_run_length() {
        let mut sys =
            DirectorySystem::new(small_config(ProtocolVariant::Full, RoutingPolicy::Static));
        let m1 = sys.run_for(10_000).unwrap();
        let m2 = sys.run_for(10_000).unwrap();
        assert!(m2.ops_completed > m1.ops_completed);
        assert!(m2.cycles == 20_000);
    }
}
