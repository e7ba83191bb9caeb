//! The shared per-cycle machinery of the two target machines.
//!
//! The engine is the machine: [`DirectorySystem`](crate::DirectorySystem)
//! and [`SnoopingSystem`](crate::SnoopingSystem) are aliases of
//! [`SystemEngine`] over the two protocols, and everything they share lives
//! here:
//!
//! * **node stepping over one timing wheel** — one serial tick loop, the
//!   only processor-tick kernel for both protocols, keeps a per-node
//!   wake-cycle hint and files every hint it sets or lowers in a
//!   [`TimingWheel`]. Each tick pops the ripe wheel entries and visits only
//!   the nodes whose hint has come due, in ascending order, re-validating
//!   each against [`Processor::ready_at`], so no per-cycle work scales
//!   with the node count. A processor whose request stalls is *parked*
//!   until its own cache controller ingests a message, in every mode; one
//!   whose request the slow-start gate holds back is parked until any
//!   cache controller ingests a message or slow-start ends. A parked node
//!   costs nothing until it is woken. The slow-start demand census is
//!   taken only in slow-start, where the gate can bind, and lazily, on the
//!   first cycle a processor actually presents a request;
//! * **quiescence fast-forward** — [`SystemEngine::run_for`] jumps the
//!   clock over cycles in which nothing can happen: the outbox worklist is
//!   empty, no wheel entry and no engine deadline falls, and neither the
//!   torus nor the protocol's own part ([`ProtocolNode::next_event_at`])
//!   reports anything before a later cycle. The skipped cycles' mode-timeline
//!   entries and fabric round-robin turns are accounted in bulk;
//!   [`SystemEngine::step`] still advances exactly one cycle;
//! * **message outbox plumbing over one-or-more fabrics** — the
//!   [`StagedOutbox`] staging queue holds controller outputs while they wait
//!   out their access latency, then injects them into whichever fabric the
//!   protocol chooses (the directory torus, or the snooping data torus). A
//!   node whose controllers are drained and whose staged front is not yet
//!   ripe leaves the outbox worklist; a wake on the same timing wheel
//!   brings it back the cycle its front ripens;
//! * **checkpoint-interval bookkeeping** — the engine asks the protocol
//!   whether a checkpoint is due (the directory system uses the cycle count,
//!   the snooping system the totally ordered request count) and snapshots
//!   the [`ArchState`] into SafetyNet. A snapshot is a plain clone
//!   that shares each node's coherence controllers with the live machine
//!   through an `Arc`; the first write after it copies only the
//!   controller written, so a checkpoint costs the controllers changed
//!   since the last one plus the fabrics, processors and outboxes, which
//!   are copied outright. A restore shares them the same way. The snooping
//!   protocol reads its interval's start from SafetyNet's newest
//!   checkpoint ([`SafetyNet::latest_checkpoint`]), which after a rollback
//!   is the restored one;
//! * **mis-speculation → SafetyNet recovery → forward progress** —
//!   detection capture, the transaction-timeout scan, the rollback itself
//!   (the restored clone replaces the machine, and each processor re-issues
//!   its pending requests through [`Processor::resume`]), the
//!   post-recovery stall window, and the forward-progress policy: one
//!   engine method picks each recovery's measure from its
//!   [`MisSpecKind`], and the engine applies it to, and lifts it from, the
//!   speculative torus the engine owns. The same torus
//!   supplies the buffer-deadlock evidence that classifies a timeout
//!   ([`Network::deadlock_evidence`]);
//! * **the node itself** — the engine owns each node's processor and cache
//!   controller ([`ArchState`]), builds them from the configuration, and
//!   presents processor requests, takes the slow-start demand census,
//!   reads each node's oldest transaction for the timeout scan, delivers
//!   completions and checks the single-owner invariant itself;
//! * **metrics accumulation** — the protocol-independent half of
//!   [`RunMetrics`] (processor stats, SafetyNet stats, recovery costs).
//!
//! Each protocol reduces to a [`ProtocolNode`] implementation: its own part
//! of the checkpointed state ([`ProtocolNode::Arch`]: directories, or the
//! address bus and home memories), its write-log, horizon, checkpoint and
//! metrics hooks, and one `exchange` method that moves messages across its
//! fabrics in protocol order. The exchange reports activity only at the
//! nodes whose controllers a message may change
//! ([`EngineCtx::note_exchange_activity`] and its siblings), so it too
//! costs what can change, not the node count: the snooping protocol takes
//! each cycle's broadcasts once from the bus's one delivery queue and
//! visits only each broadcast's requester, its block's home and the nodes
//! its *holder index* lists as having requested the block (see
//! `crates/core/src/snoopsys.rs`). `tests/kernel_equivalence.rs` pins the
//! schedule byte-for-byte, pins the engine's processor work counters
//! apart from the metrics, and checks that `run_for` matches a `step()`
//! loop.
//!
//! The engine is single-threaded: every fabric forwards serially through
//! one [`Network::tick`].

use std::collections::{HashMap, VecDeque};
use std::fmt::Debug;
use std::sync::Arc;

use specsim_base::{
    ActiveSet, BlockAddr, Cycle, CycleDelta, DetRng, EngineMode, FaultDirector, FaultKind,
    MemorySystemConfig, ModeTimeline, NodeId, ProtocolVariant, RoutingPolicy, SpecEvent,
    TelemetryRecorder, TimingWheel, WindowCounters,
};
use specsim_coherence::types::{CpuAccess, MisSpecKind, MisSpeculation, ProtocolError};
use specsim_coherence::{AccessOutcome, CacheController, CacheState};
use specsim_net::Network;
use specsim_safetynet::{LogOutcome, SafetyNet};
use specsim_workloads::{Processor, Trace, WorkloadGenerator, ZipfTable};

use crate::config::SystemConfig;
use crate::metrics::RunMetrics;
use crate::shared::{Outgoing, Shared};

/// Magnitude (in cycles) of the pseudo-random perturbation added to each
/// memory data response on both machines, following the evaluation
/// methodology of Alameldeen et al. (Section 5.2): multiple runs with small
/// perturbations provide the error bars.
const PERTURBATION_CYCLES: u64 = 4;

/// DRAM access time of a memory data response at the home node's memory
/// controller, before perturbation (part of Table 2's 180 ns end-to-end
/// miss budget).
pub const DRAM_ACCESS_CYCLES: CycleDelta = 200;

/// Slots each virtual network is guaranteed while the reserved-slot measure
/// runs after a buffer deadlock (Section 4), clamped per node so a
/// reservation for every network fits the pool.
const RESERVED_SLOTS_PER_NETWORK: usize = 1;

/// Look-ahead of the wake index's timing wheel. Its farthest common entry
/// is a parked outbox waiting out a DRAM access ([`DRAM_ACCESS_CYCLES`]
/// plus the perturbation); think times and hit latencies are far
/// shorter. Rarer, longer waits (a recovery's resume cycle) overflow.
const WAKE_HORIZON: Cycle = 255;

/// Measured characterization of one design, filled in by short simulations
/// and printed by the Table 1 bench alongside the qualitative rows.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MeasuredCharacterization {
    /// Events that could have mis-speculated (e.g. messages on the ordered
    /// virtual network, writebacks, transactions).
    pub exposure_events: u64,
    /// Mis-speculations actually detected.
    pub misspeculations: u64,
    /// Recoveries performed.
    pub recoveries: u64,
    /// Mean cost of a recovery in cycles (lost work + recovery latency).
    pub mean_recovery_cost_cycles: f64,
}

impl MeasuredCharacterization {
    /// Mis-speculations per exposure event (0 when there was no exposure).
    #[must_use]
    pub fn misspeculation_rate(&self) -> f64 {
        if self.exposure_events == 0 {
            0.0
        } else {
            self.misspeculations as f64 / self.exposure_events as f64
        }
    }
}

/// Why a recovery was performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecoveryCause {
    MisSpeculation(MisSpecKind),
    Injected,
}

/// A staging queue for controller outputs waiting out an access latency
/// (cache tag/data array, DRAM) before entering a fabric. Messages are
/// released in FIFO order once ripe, which preserves per-source protocol
/// order; the fabric may still reorder in flight, which is the point of
/// Section 3.1.
#[derive(Debug, Clone)]
pub struct StagedOutbox<M> {
    queue: VecDeque<(Cycle, M)>,
}

impl<M> Default for StagedOutbox<M> {
    fn default() -> Self {
        Self {
            queue: VecDeque::new(),
        }
    }
}

impl<M: Copy> StagedOutbox<M> {
    /// Stages `msg` to become injectable at cycle `ready`.
    pub fn stage(&mut self, ready: Cycle, msg: M) {
        self.queue.push_back((ready, msg));
    }

    /// True when nothing is staged (idle-outbox skip condition).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Number of staged messages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// The cycle at which the front message becomes injectable (`None`
    /// when nothing is staged). Pumping before then releases nothing.
    #[must_use]
    pub fn front_ready(&self) -> Option<Cycle> {
        self.queue.front().map(|&(ready, _)| ready)
    }

    /// Hands every ripe message at the queue's front to `send` in FIFO
    /// order. `send` returns `false` when the fabric has no space (the
    /// message stays staged and pumping stops, preserving order).
    pub fn pump(&mut self, now: Cycle, mut send: impl FnMut(M) -> bool) {
        while let Some(&(ready, msg)) = self.queue.front() {
            if ready > now || !send(msg) {
                break;
            }
            self.queue.pop_front();
        }
    }
}

/// The state SafetyNet checkpoints and restores, in the same four parts on
/// both machines (Table 2: each node is a processor, two cache levels, a
/// slice of memory and a network interface): each node's processor, with
/// its workload position, and cache controller; the speculative torus; and
/// the protocol's own part ([`ProtocolNode::Arch`]).
///
/// Its clone is the checkpoint and the restore. Each cache controller sits
/// behind an `Arc` that a clone shares, and the first write after it
/// copies only the controller written. Call sites that may change nothing
/// check first, so an idle controller stays shared; a cache that only
/// replies queues the reply beside it. The processors and the torus are
/// copied outright.
#[derive(Debug)]
pub struct ArchState<P: ProtocolNode> {
    /// The processors, in node order.
    pub(crate) procs: Vec<Processor>,
    /// The cache controllers, in node order.
    pub(crate) caches: Vec<Shared<P::Cache>>,
    /// The speculative torus (the directory torus, or the snooping data
    /// torus): the fabric whose routing and slot pools the
    /// forward-progress measures change, whose deadlock evidence classifies
    /// a timeout, whose idle cycles [`SystemEngine::run_for`] skips, and
    /// whose counters telemetry samples. [`ProtocolNode::exchange`] ticks it
    /// exactly once per cycle.
    pub(crate) torus: Network<P::Msg>,
    /// The protocol's own part.
    pub(crate) proto: P::Arch,
}

// Written out because a derive would demand `P: Clone`; a checkpoint
// clones the state, never the protocol.
impl<P: ProtocolNode> Clone for ArchState<P> {
    fn clone(&self) -> Self {
        Self {
            procs: self.procs.clone(),
            caches: self.caches.clone(),
            torus: self.torus.clone(),
            proto: self.proto.clone(),
        }
    }
}

impl<P: ProtocolNode> ArchState<P> {
    /// Coherence transactions outstanding system-wide: the slow-start
    /// governor's demand census.
    pub(crate) fn outstanding_demand(&self) -> usize {
        self.caches
            .iter()
            .map(|c| c.hierarchy().outstanding_demands())
            .sum()
    }

    /// Checks the coherence invariants over every cache's resident lines
    /// (see [`check_lines`]).
    pub(crate) fn check_caches(&self, compare_values: bool) -> Result<(), String> {
        let lines = self.caches.iter().flat_map(|cache| {
            let node = cache.node();
            cache
                .hierarchy()
                .resident_lines()
                .map(move |(addr, state, value)| (node, addr, state, value))
        });
        check_lines(lines, compare_values)
    }
}

/// Checks the coherence invariants over resident cache lines, given as
/// `(node, block, state, value)`: at most one owner (M or O) per block,
/// and, with `compare_values`, every copy of an owned block holding the
/// owner's value. Returns a description of the first violation found.
pub(crate) fn check_lines(
    lines: impl IntoIterator<Item = (NodeId, BlockAddr, CacheState, u64)>,
    compare_values: bool,
) -> Result<(), String> {
    // Values are kept only when compared: the owner map is the check's
    // largest allocation, and the snooping check needs no values.
    let mut owners = HashMap::new();
    let mut owner_values = HashMap::new();
    let mut copies = Vec::new();
    for (node, addr, state, value) in lines {
        if state.is_owner() {
            if let Some(other) = owners.insert(addr, node) {
                return Err(format!("block {addr} has two owners: {other} and {node}"));
            }
            if compare_values {
                owner_values.insert(addr, value);
            }
        }
        if compare_values {
            copies.push((node, addr, value));
        }
    }
    for (node, addr, value) in copies {
        if let Some(&owner_value) = owner_values.get(&addr) {
            if value != owner_value {
                return Err(format!(
                    "block {addr} at {node} has value {value:#x} but the owner holds {owner_value:#x}"
                ));
            }
        }
    }
    Ok(())
}

/// Counters describing how much per-cycle work the engine did — the
/// observable face of the idle-skip/wake-up machinery, used by the
/// invariant tests shared by both protocols. Every counter counts work the
/// engine did or left undone. A fast-forwarded cycle makes no visit (no
/// node is due and the outbox worklist is empty), so every counter except
/// the last is identical whether a run used [`SystemEngine::run_for`] or a
/// [`SystemEngine::step`] loop. A rollback does not rewind them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineProbe {
    /// Requests processors presented to the tick: visits that found the
    /// processor ready with a request, whether the cache then took it,
    /// stalled it, or the slow-start gate held it back. At most
    /// `tick_visits`.
    pub processor_polls: u64,
    /// Node-cycles the tick did not visit: `n` for every cycle the tick
    /// ran (every cycle outside a recovery's stall window, fast-forwarded
    /// ones included), less `tick_visits`. Derived from the mode timeline
    /// and `tick_visits` when the probe is read.
    pub processor_skips: u64,
    /// Processor tick: nodes visited because their wake hint had come due
    /// (the work the tick did). The dense equivalent is one visit per node
    /// per cycle; the timing wheel keeps it proportional to the due nodes.
    pub tick_visits: u64,
    /// Exchange phase: nodes visited by the completion-delivery worklist
    /// (each visit drains that node's completed accesses). The dense
    /// equivalent is one visit per node per cycle; a sparse run stays
    /// proportional to nodes that actually ingested messages.
    pub exchange_completion_visits: u64,
    /// Exchange phase: nodes visited by the outbox-pump worklist. Each visit
    /// stages controller output and injects ripe staged messages; a visit
    /// that leaves the controllers drained retires the node when nothing is
    /// staged, or parks it on the timing wheel until its staged front
    /// ripens. A node stays listed only while it has controller output left
    /// or a ripe front the fabric refused. The dense equivalent is one visit
    /// per node per cycle.
    pub exchange_outbox_visits: u64,
    /// Times a presented request was held back by the slow-start gate (the
    /// outstanding-transaction limit) and its node parked until the demand
    /// census or the limit could change.
    pub held_parks: u64,
    /// Cycles [`SystemEngine::run_for`] jumped over because nothing could
    /// happen in them (always 0 for a [`SystemEngine::step`] loop).
    pub cycles_fast_forwarded: u64,
}

/// Active-node worklists fed by the exchange phase: the engine-side twin of
/// the tick phase's wake index. A node enters a list when something happened
/// that could give it work — its processor issued a request, a fabric
/// delivered a message to one of its controllers, or a recovery restored
/// it — and leaves when a visit finds it drained (an outbox also when it
/// only waits for a staged message to ripen; the wake index re-lists it
/// then). Idle nodes cost zero in the per-cycle exchange and SafetyNet
/// scans, exactly as they do in the tick phase; visiting a node with
/// nothing to do is a no-op, so the worklists only ever hold a superset of
/// the nodes a visit can act on and the schedule stays byte-identical to
/// the dense scans they replace.
#[derive(Debug)]
pub(crate) struct ExchangeIndex {
    /// Nodes whose controllers ingested a message (or were restored by a
    /// recovery) and may therefore hold completed processor accesses.
    completions: ActiveSet,
    /// Nodes that may have controller output queued or a ripe staged
    /// message. A node whose only content is staged messages still waiting
    /// out their latency is parked on the wake index's timing wheel instead,
    /// which re-lists it the cycle its front ripens.
    outbox: ActiveSet,
    /// Nodes whose directory or memory controller ingested a message (or
    /// was restored by a recovery) and may therefore hold memory-write log
    /// entries for the SafetyNet tick to drain.
    write_logs: ActiveSet,
}

impl ExchangeIndex {
    /// All `n` nodes start on every list; the first visits retire the idle
    /// ones.
    fn new_full(n: usize) -> Self {
        let mut index = Self {
            completions: ActiveSet::new(n),
            outbox: ActiveSet::new(n),
            write_logs: ActiveSet::new(n),
        };
        index.insert_all();
        index
    }

    /// Re-arms every list for every node (recovery restored the whole
    /// machine: any node may hold completions, pending output or logged
    /// writes again).
    fn insert_all(&mut self) {
        for i in 0..self.completions.capacity() {
            self.completions.insert(i);
            self.outbox.insert(i);
            self.write_logs.insert(i);
        }
    }
}

/// An entry of the wake index's timing wheel, naming a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wake {
    /// The node's processor wake hint comes due. Stale, and dropped, when
    /// the hint has since been raised (the raise filed its own entry).
    Processor(u32),
    /// The node's parked outbox front ripens: the node rejoins the outbox
    /// worklist.
    Outbox(u32),
}

/// The tick phase's wake index: one compact wake-cycle hint per node, and
/// one [`TimingWheel`] that files every hint the engine sets or lowers, so
/// the tick visits only the nodes whose hint has come due instead of
/// scanning all of them. Every hint of an unparked node is a lower bound on
/// the cycle at which the node can next present a request; the tick loop
/// re-validates a due hint against [`Processor::ready_at`], so a hint that
/// is too early costs one visit and never changes the schedule. A hint
/// that falls behind the wheel's cursor is filed at the cursor, which is
/// the first cycle a dense scan would visit the node anyway. The same
/// wheel carries the wakes of parked outboxes, so its earliest entry bounds
/// the fast-forward horizon for both.
#[derive(Debug)]
pub(crate) struct WakeIndex {
    /// Per-node wake hint. `Cycle::MAX` means only an event can wake the
    /// node: completion delivery for a processor blocked on a miss, cache
    /// ingest for a parked or held one, the end of slow-start for a held
    /// one, or a recovery. Every finite hint has an entry on the wheel at
    /// the hint or, when it was set behind the cursor, at the cursor.
    wake_at: Vec<Cycle>,
    /// Processor and outbox wakes by due cycle. Entries superseded by a
    /// later hint stay until drained; they only bound the fast-forward
    /// horizon early, which costs a step, never an event.
    wheel: TimingWheel<Wake>,
    /// Nodes whose hint is due this tick (filled and emptied by each tick).
    due: ActiveSet,
    /// Reusable batch buffer for draining the wheel.
    batch: Vec<Wake>,
    /// Nodes parked with a stalled request. A stall retry's outcome
    /// depends only on the node's own cache controller, and repeating it
    /// changes nothing a later decision reads (it re-touches the LRU stamp
    /// of a line nothing else touches meanwhile). So instead of
    /// re-presenting it every cycle the tick parks the node until that
    /// controller next ingests a message ([`EngineCtx::note_cache_activity`]).
    /// In slow-start the gate may hold a retry back instead, which changes
    /// no state either, so stalled nodes park in every mode.
    parked: Vec<bool>,
    /// Nodes whose request the slow-start gate held back since the last
    /// gate wake-up. A held retry reads only the gate: the system-wide
    /// demand census against the outstanding limit. The census falls only
    /// when some cache controller ingests a message, and the limit rises
    /// only when slow-start expires, so each node is parked until one of
    /// those happens.
    held_list: Vec<usize>,
}

impl WakeIndex {
    /// Every node is due on the first cycle.
    fn new(n: usize) -> Self {
        let mut index = Self {
            wake_at: vec![Cycle::MAX; n],
            wheel: TimingWheel::with_horizon(WAKE_HORIZON),
            due: ActiveSet::new(n),
            batch: Vec::new(),
            parked: vec![false; n],
            held_list: Vec::new(),
        };
        index.reset(0);
        index
    }

    /// Sets node `i`'s hint to `at` and files it on the wheel.
    fn set(&mut self, i: usize, at: Cycle) {
        self.wake_at[i] = at;
        if at != Cycle::MAX {
            self.wheel.schedule(at, Wake::Processor(i as u32));
        }
    }

    /// Lowers node `i`'s hint to `at`.
    fn lower(&mut self, i: usize, at: Cycle) {
        if at < self.wake_at[i] {
            self.set(i, at);
        }
    }

    /// Makes every node held by the gate due at `at`; each re-presents its
    /// request on that visit.
    fn wake_held(&mut self, at: Cycle) {
        for k in 0..self.held_list.len() {
            self.lower(self.held_list[k], at);
        }
        self.held_list.clear();
    }

    /// Makes every node due at `at` and unparks them all (a recovery
    /// restored every processor's wake cycle). Pending outbox wakes go too:
    /// the caller re-lists every outbox.
    fn reset(&mut self, at: Cycle) {
        self.wheel.clear();
        for i in 0..self.wake_at.len() {
            self.set(i, at);
        }
        self.parked.fill(false);
        self.held_list.clear();
    }

    /// Files a wake for node `i`'s parked outbox at `ready`, the cycle its
    /// staged front ripens.
    fn park_outbox(&mut self, i: usize, ready: Cycle) {
        // Drained through the current cycle, so the cursor is the next one:
        // a front ripe now must stay on the worklist, not park.
        debug_assert!(
            ready >= self.wheel.cursor(),
            "node {i}'s outbox parked with a front ripe at {ready}"
        );
        self.wheel.schedule(ready, Wake::Outbox(i as u32));
    }

    /// Pops every wheel entry due by `now`: a processor entry whose hint is
    /// still due puts its node in `due`, an outbox entry puts its node back
    /// on `outbox`.
    fn drain(&mut self, now: Cycle, outbox: &mut ActiveSet) {
        while self.wheel.pop_ripe_into(now, &mut self.batch) {
            for &wake in &self.batch {
                match wake {
                    Wake::Processor(i) if self.wake_at[i as usize] <= now => {
                        self.due.insert(i as usize);
                    }
                    Wake::Processor(_) => {}
                    Wake::Outbox(i) => {
                        outbox.insert(i as usize);
                    }
                }
            }
        }
    }
}

/// The engine-side context handed to [`ProtocolNode::exchange`]: the shared
/// state a protocol's per-cycle message movement may touch.
#[derive(Debug)]
pub struct EngineCtx<'a, P: ProtocolNode> {
    safetynet: &'a mut SafetyNet<ArchState<P>>,
    pending_misspec: &'a mut Option<MisSpeculation>,
    protocol_error: &'a mut Option<ProtocolError>,
    perturb_rng: &'a mut DetRng,
    metrics: &'a mut RunMetrics,
    faults: Option<&'a mut FaultDirector>,
    /// The tick phase's wake index; completion delivery and cache ingest
    /// lower its hints.
    wake: &'a mut WakeIndex,
    /// The exchange-phase worklists (a pure scan-cost optimization).
    exchange: &'a mut ExchangeIndex,
    /// The engine's work counters (exchange-visit accounting).
    probe: &'a mut EngineProbe,
}

impl<P: ProtocolNode> EngineCtx<'_, P> {
    /// Records a detected mis-speculation (the first one per cycle wins;
    /// recovery handles it at the end of the cycle).
    pub fn note_misspeculation(&mut self, ms: MisSpeculation) {
        self.pending_misspec.get_or_insert(ms);
    }

    /// Records a protocol error (a transition the fully designed protocol
    /// considers impossible); the step loop surfaces the first one.
    pub fn note_error(&mut self, e: ProtocolError) {
        self.protocol_error.get_or_insert(e);
    }

    /// The run's fault director, when a fault plan is active. Protocols pass
    /// this into their fabric's [`Network::tick`] so scheduled
    /// faults strike the network; `None` (no plan) keeps every fabric on the
    /// bit-identical fault-free path.
    pub fn faults(&mut self) -> Option<&mut FaultDirector> {
        self.faults.as_deref_mut()
    }

    /// Reports an injected transient fault caught red-handed at message
    /// ingest — the endpoint checksum model rejecting a
    /// [`FaultKind::Corrupt`] payload, or the sequence-number model rejecting
    /// a [`FaultKind::Duplicate`] copy. Classified as a
    /// [`MisSpecKind::TransientFault`] mis-speculation and recovered through
    /// the normal SafetyNet rollback (the tainted message itself must be
    /// discarded by the caller).
    pub fn report_fault_evidence(
        &mut self,
        at: Cycle,
        node: NodeId,
        addr: BlockAddr,
        kind: FaultKind,
    ) {
        self.note_misspeculation(MisSpeculation {
            kind: MisSpecKind::TransientFault { kind },
            node,
            addr,
            at,
        });
    }

    /// The latency of one memory data response: the DRAM access time plus
    /// one pseudo-random perturbation draw, in `0..4` cycles (Section 5.2
    /// methodology).
    pub fn dram_response_latency(&mut self) -> CycleDelta {
        DRAM_ACCESS_CYCLES + self.perturb_rng.next_below(PERTURBATION_CYCLES)
    }

    /// The shared completion-delivery pass: wakes processors whose misses
    /// completed and accounts the SafetyNet log entry a completed store
    /// costs. Each of node `i`'s completed accesses is taken from its cache
    /// controller in turn (a non-blocking node may complete several misses
    /// in one cycle), identified by block address so the processor retires
    /// the matching MSHR even when fills return out of order. A controller
    /// with nothing completed is not copied. After a recovery the restored
    /// cache controller may complete a transaction whose requesting
    /// instruction was rolled back (the processor re-executes from the
    /// register checkpoint); such completions update the cache but wake
    /// nobody. A node with a completion has its tick wake hint lowered to
    /// the processor's live wake cycle, so the tick visits it no later than
    /// a dense scan would.
    ///
    /// Visits only the nodes on the completions worklist, in the same
    /// ascending order as the dense scan it replaces: a node enters the list
    /// when a controller ingests a message ([`EngineCtx::note_exchange_activity`])
    /// and every visit drains it completely, so skipped nodes are exactly
    /// those with no completed access.
    pub fn deliver_completions(&mut self, now: Cycle, arch: &mut ArchState<P>) {
        let mut cursor = 0;
        while let Some(i) = self.exchange.completions.next_at_or_after(cursor) {
            cursor = i + 1;
            self.probe.exchange_completion_visits += 1;
            let proc = &mut arch.procs[i];
            let cache = &mut arch.caches[i];
            let mut woken = false;
            while cache.hierarchy().has_completed() {
                let Some(done) = cache.make_mut().take_completed() else {
                    break;
                };
                woken = true;
                let store = done.access == CpuAccess::Store;
                if let Some(wait) = proc.note_miss_completed(now, done.addr, store) {
                    // Per-miss wait into the latency histogram. Recorded at
                    // delivery time, so completions later undone by a
                    // rollback stay counted — the histogram observes the
                    // speculative execution, the committed-stats mean does
                    // not.
                    self.metrics.miss_latency.record(wait);
                }
                // A completed store modifies cached state that SafetyNet must
                // be able to undo: account one log entry at this node.
                if store && self.safetynet.log_writes(NodeId::from(i), 1) == LogOutcome::Full {
                    self.safetynet.note_log_stall();
                }
            }
            if woken {
                // The completion may have unblocked the processor (or a
                // parked one may retry): its next tick visit is due no later
                // than its live wake cycle.
                if let Some(r) = proc.ready_at() {
                    self.wake.lower(i, r);
                }
            }
            // Fully drained: all message ingest for this cycle happened
            // earlier in the exchange, so nothing can complete at this node
            // until a future ingest re-inserts it.
            self.exchange.completions.remove(i);
        }
    }

    /// Reports that something happened at node `i` that may have produced
    /// exchange work: a controller ingested a message (which can both
    /// complete a processor access and enqueue protocol output) or the
    /// processor issued a request. The node joins both exchange worklists;
    /// the next visit retires it if it turns out to be idle.
    pub fn note_exchange_activity(&mut self, i: usize) {
        self.exchange.completions.insert(i);
        self.exchange.outbox.insert(i);
    }

    /// Reports that node `i`'s directory or memory controller ingested a
    /// message, which may have written memory and logged the old values.
    /// The SafetyNet tick drains the write logs of exactly these nodes (in
    /// ascending order, like the dense scan it replaces). Protocols must
    /// call this for every message that may change those controllers.
    pub fn note_memory_activity(&mut self, i: usize) {
        self.exchange.write_logs.insert(i);
    }

    /// The next node at or after `from` on the outbox worklist — the
    /// worklist twin of a dense `for i in from..n` outbox scan. Each call
    /// counts as one exchange visit; the caller pumps the node and, once
    /// its controllers are drained, settles it with
    /// [`EngineCtx::settle_outbox`].
    pub fn next_outbox_at_or_after(&mut self, from: usize) -> Option<usize> {
        let i = self.exchange.outbox.next_at_or_after(from)?;
        self.probe.exchange_outbox_visits += 1;
        Some(i)
    }

    /// Settles node `i` after an outbox visit at `now` that left its
    /// controllers with no output queued; `front_ready` is its staged
    /// front's ready cycle. Until something re-lists the node via
    /// [`EngineCtx::note_exchange_activity`], a visit can act only once that
    /// front ripens, so the node leaves the worklist: for good when nothing
    /// is staged, or parked on the timing wheel until `front_ready`. A ripe
    /// front that the fabric refused keeps the node listed, since no event
    /// marks when the fabric frees space.
    pub fn settle_outbox(&mut self, now: Cycle, i: usize, front_ready: Option<Cycle>) {
        match front_ready {
            Some(ready) if ready <= now => {}
            front => {
                self.exchange.outbox.remove(i);
                if let Some(ready) = front {
                    self.wake.park_outbox(i, ready);
                }
            }
        }
    }

    /// Reports that node `i`'s cache controller ingested a message at cycle
    /// `now`. A parked stalled processor can only unstall when its own
    /// controller's state changes, and that state changes only through
    /// message ingest — so this is the exact wake condition: the node is
    /// re-visited at `now + 1`, the first cycle a dense scan could observe
    /// the ingest's effect. The same ingest may lower the slow-start demand
    /// census, so every node the gate holds is re-visited at `now + 1` too.
    /// Protocols must call this for every message that may change their
    /// cache controller.
    pub fn note_cache_activity(&mut self, now: Cycle, i: usize) {
        if self.wake.parked[i] {
            self.wake.lower(i, now + 1);
        }
        self.wake.wake_held(now + 1);
    }
}

/// What a coherence protocol must provide for [`SystemEngine`] to drive it.
///
/// The two implementations are the directory protocol
/// (`crates/core/src/dirsys.rs`) and the broadcast-snooping protocol
/// (`crates/core/src/snoopsys.rs`). The engine owns each node's processor
/// and cache controller and the speculative torus ([`ArchState`]), and
/// reads them itself; a protocol supplies its own part of the state, moves
/// its messages, and answers the four questions only it can.
pub trait ProtocolNode: Sized {
    /// The protocol's own part of the checkpointed state: the directories
    /// and their staged outboxes, or the ordered address bus, the home
    /// memories and theirs. Its clone is part of every checkpoint and
    /// restore, so per-node controllers sit behind an `Arc` a clone shares.
    type Arch: Clone + Debug;

    /// The message type of the speculative torus.
    type Msg: Clone + Debug;

    /// The cache controller of every node.
    type Cache: CacheController + Outgoing;

    /// One cycle of protocol-specific message movement, in protocol order:
    /// controller-to-fabric pumping, fabric ticks, fabric-to-controller
    /// ingest and completion delivery (via
    /// [`EngineCtx::deliver_completions`]). Ticks the speculative torus
    /// exactly once.
    fn exchange(&mut self, arch: &mut ArchState<Self>, now: Cycle, ctx: &mut EngineCtx<'_, Self>);

    /// Drains node `i`'s memory-side count of writes since the last drain
    /// and returns it; the engine accounts that many log entries into
    /// SafetyNet. Called only for
    /// nodes reported through [`EngineCtx::note_memory_activity`].
    fn drain_write_log(arch: &mut Self::Arch, i: usize) -> usize;

    /// The horizon hook of [`SystemEngine::run_for`]'s fast-forward: the
    /// earliest cycle after `now` (whose step has just completed) at which
    /// the protocol's own part could change state (`Cycle::MAX` when only
    /// the torus can). The engine asks only while its outbox worklist is
    /// empty, and bounds the horizon by the torus and by parked outboxes'
    /// wakes itself. Answering too early only costs a step; answering too
    /// late would change the schedule.
    fn next_event_at(arch: &Self::Arch, now: Cycle) -> Cycle;

    /// Whether a checkpoint is due at `now` on this protocol's logical time
    /// base (cycles for the directory system, ordered requests since
    /// SafetyNet's newest checkpoint for the snooping system). Must be side
    /// effect free.
    fn checkpoint_due(
        &self,
        arch: &Self::Arch,
        safetynet: &SafetyNet<ArchState<Self>>,
        now: Cycle,
    ) -> bool;

    /// The first cycle after the current one at which
    /// [`ProtocolNode::checkpoint_due`] can turn true on the clock alone
    /// (`Cycle::MAX` when it follows another time base, whose events
    /// [`ProtocolNode::next_event_at`] already bounds). The fast-forward
    /// horizon never passes it.
    fn next_checkpoint_at(&self, safetynet: &SafetyNet<ArchState<Self>>) -> Cycle;

    /// Fills the protocol-specific half of the run metrics (fabric stats,
    /// ordering stats, address-network counts).
    fn collect_protocol_metrics(&self, arch: &ArchState<Self>, now: Cycle, m: &mut RunMetrics);
}

/// The generic full-system simulation engine: owns the machine's
/// [`ArchState`] (each node's processor and cache controller, the
/// speculative torus and the protocol's own part) and drives a
/// [`ProtocolNode`] cycle-by-cycle with the shared stepping,
/// checkpointing, recovery and metrics machinery described in the module
/// docs.
#[derive(Debug)]
pub struct SystemEngine<P: ProtocolNode> {
    protocol: P,
    now: Cycle,
    arch: ArchState<P>,
    safetynet: SafetyNet<ArchState<P>>,
    /// Cycles each forward-progress measure runs (`0`: none runs).
    fp_window: CycleDelta,
    /// The forward-progress mode in force: `Normal`, or the measure of the
    /// latest recovery, which ends at [`SystemEngine::fp_until`].
    fp_mode: EngineMode,
    /// The cycle the forward-progress mode ends (`Cycle::MAX` when normal).
    fp_until: Cycle,
    /// The routing the torus was configured with, which it runs outside
    /// the adaptive-routing measure.
    routing: RoutingPolicy,
    /// Test switch: retry stalled requests every cycle instead of parking
    /// them, the dense scan that stall parking must match.
    #[cfg(test)]
    dense_stall_retries: bool,
    resume_at: Cycle,
    inject_recovery_every: Option<CycleDelta>,
    next_injected_recovery: Option<Cycle>,
    pending_misspec: Option<MisSpeculation>,
    protocol_error: Option<ProtocolError>,
    perturb_rng: DetRng,
    metrics: RunMetrics,
    probe: EngineProbe,
    /// Most recent cycle at which the torus reported deadlock evidence
    /// ([`Network::deadlock_evidence`]). A transaction timeout is classified
    /// as a buffer deadlock when evidence appeared anywhere within the stuck
    /// transaction's timeout window (the exhaustion that starves a message
    /// can ebb and flow while the transaction stays stuck).
    fabric_deadlock_at: Option<Cycle>,
    /// Transaction timers restart after a recovery (Section 4: the
    /// requestor's timer is re-armed when it re-executes): ages in the
    /// timeout scan are measured from this cycle at the earliest, so a
    /// transaction restored from a checkpoint gets a full fresh window
    /// instead of timing out instantly on its pre-rollback issue cycle.
    timeout_anchor: Cycle,
    /// The transient-fault injector, when a fault plan is active. Lives
    /// *outside* the checkpointed architectural state on purpose: a rollback
    /// rewinds the machine but never the fault schedule, so a fired one-shot
    /// fault cannot re-fire — the transient semantics that make re-execution
    /// succeed.
    fault_director: Option<FaultDirector>,
    /// Most recent fault injection `(cycle, kind)` observed from the
    /// director. A transaction timeout with fault evidence inside the stuck
    /// transaction's timeout window is classified as
    /// [`MisSpecKind::TransientFault`] (taking precedence over
    /// [`MisSpecKind::BufferDeadlock`]); the distance from injection to
    /// detection is the recovery's detection latency.
    fault_evidence_at: Option<(Cycle, FaultKind)>,
    /// Director fire count already folded into
    /// [`SystemEngine::fault_evidence_at`] — evidence cleared by a recovery
    /// must not be resurrected from the director's (persistent) last-fire
    /// record.
    fault_fires_seen: u64,
    /// Cycle before which the transaction-timeout scan provably cannot fire,
    /// so [`SystemEngine::check_recovery`] skips its O(n) processor walk.
    /// Derived on every scan that finds no timeout: an active wait's age is
    /// frozen while it persists (its `since` never decreases), a wait that
    /// completes and restarts only gets *younger*, and a wait starting after
    /// the scan cycle `c` cannot fire before `c + 1 + timeout` — so the
    /// minimum of `max(since, anchor) + timeout` over active waits (or
    /// `c + 1 + timeout` when none) is a sound earliest-fire bound. Reset to
    /// the resume cycle on every recovery (the anchor moves).
    next_timeout_scan: Cycle,
    /// The tick phase's wake index.
    wake: WakeIndex,
    /// The exchange-phase worklists (visiting a superset of the busy nodes
    /// is a no-op, so the lists are a pure scan-cost optimization).
    exchange: ExchangeIndex,
    /// Always-on availability record: which [`EngineMode`] each cycle
    /// executed in (one array increment per cycle; transitions are as rare
    /// as recoveries). Feeds the mode-cycle totals in [`RunMetrics`].
    timeline: ModeTimeline,
    /// The gated telemetry recorder (windowed sampler + lifecycle event
    /// trace), present only when a [`specsim_base::TelemetryConfig`] enabled
    /// it.
    telemetry: Option<TelemetryRecorder>,
}

impl<P: ProtocolNode> SystemEngine<P> {
    /// Builds the machine `cfg` describes around `protocol`: each node's
    /// processor and cache controller (made by `new_cache`), the torus of
    /// [`SystemConfig::net_config`] and the protocol's own part `proto`,
    /// which become SafetyNet's initial checkpoint. `perturb_seed` seeds
    /// the machine's perturbation stream.
    pub(crate) fn assemble(
        protocol: P,
        cfg: &SystemConfig,
        perturb_seed: u64,
        new_cache: fn(NodeId, ProtocolVariant, &MemorySystemConfig) -> P::Cache,
        proto: P::Arch,
    ) -> Self {
        let n = cfg.memory.num_nodes;
        // One Zipf hot-block table shared by every node's generator (the
        // whole point of a hot set is that nodes contend on it).
        let zipf_table = cfg.traffic.zipf.map(|z| Arc::new(ZipfTable::new(z)));
        let procs = (0..n)
            .map(|i| {
                let node = NodeId::from(i);
                let mut proc = match &cfg.replay_trace {
                    Some(trace) => Processor::from_trace(node, Arc::clone(trace), 0),
                    None => {
                        let gen = WorkloadGenerator::shaped(
                            cfg.workload,
                            node,
                            cfg.seed,
                            cfg.traffic,
                            zipf_table.clone(),
                        );
                        Processor::new(node, gen, 0)
                    }
                }
                .with_max_outstanding(cfg.memory.mshr_entries);
                if cfg.record_trace {
                    proc.enable_recording();
                }
                proc
            })
            .collect();
        let caches = (0..n)
            .map(|i| Shared::new(new_cache(NodeId::from(i), cfg.protocol, &cfg.memory)))
            .collect();
        let arch = ArchState {
            procs,
            caches,
            torus: Network::new(cfg.net_config()),
            proto,
        };
        let safetynet = SafetyNet::new(cfg.memory.safetynet.clone(), n, arch.clone(), 0);
        let inject_recovery_every = cfg.inject_recovery_every;
        let fault_plan = cfg.fault_config.lower(cfg.seed, n);
        Self {
            protocol,
            now: 0,
            arch,
            safetynet,
            fp_window: cfg.forward_progress_window,
            fp_mode: EngineMode::Normal,
            fp_until: Cycle::MAX,
            routing: cfg.routing,
            #[cfg(test)]
            dense_stall_retries: false,
            resume_at: 0,
            inject_recovery_every,
            next_injected_recovery: inject_recovery_every.map(|i| i.max(1)),
            pending_misspec: None,
            protocol_error: None,
            perturb_rng: DetRng::new(perturb_seed).fork(),
            metrics: RunMetrics::default(),
            probe: EngineProbe::default(),
            fabric_deadlock_at: None,
            timeout_anchor: 0,
            fault_director: (!fault_plan.is_empty()).then(|| FaultDirector::new(fault_plan)),
            fault_evidence_at: None,
            fault_fires_seen: 0,
            next_timeout_scan: 0,
            wake: WakeIndex::new(n),
            exchange: ExchangeIndex::new_full(n),
            timeline: ModeTimeline::new(),
            telemetry: TelemetryRecorder::new(cfg.telemetry),
        }
    }

    /// The telemetry recorder, when one was enabled.
    #[must_use]
    pub fn telemetry(&self) -> Option<&TelemetryRecorder> {
        self.telemetry.as_ref()
    }

    /// The always-on engine-mode timeline (availability observability).
    #[must_use]
    pub fn mode_timeline(&self) -> &ModeTimeline {
        &self.timeline
    }

    /// The windowed time-series samples as JSONL, when the sampler is on.
    #[must_use]
    pub fn telemetry_jsonl(&self) -> Option<String> {
        self.telemetry.as_ref().map(TelemetryRecorder::jsonl)
    }

    /// The lifecycle event trace plus mode timeline as a Chrome trace-event
    /// JSON document (Perfetto-loadable), when telemetry is on.
    #[must_use]
    pub fn telemetry_trace(&self) -> Option<String> {
        self.telemetry
            .as_ref()
            .map(|t| t.chrome_trace(&self.timeline, self.now))
    }

    /// The architectural state (read-only; used by invariant checkers).
    #[must_use]
    pub fn arch(&self) -> &ArchState<P> {
        &self.arch
    }

    /// The trace recorded so far when the system was built with
    /// [`SystemConfig::record_trace`]; `None` otherwise. Replaying the
    /// returned trace (via [`SystemConfig::replay_trace`]) reproduces each
    /// node's accepted-operation schedule exactly.
    #[must_use]
    pub fn recorded_trace(&self) -> Option<Trace> {
        let nodes: Option<Vec<_>> = self
            .arch
            .procs
            .iter()
            .map(|p| p.recorded_events().map(<[_]>::to_vec))
            .collect();
        nodes.map(|nodes| Trace { nodes })
    }

    /// The checkpoint station, whose snapshots tests inspect.
    #[cfg(test)]
    pub(crate) fn safetynet(&self) -> &SafetyNet<ArchState<P>> {
        &self.safetynet
    }

    /// Current simulated cycle.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The forward-progress mode currently in force (`Normal`,
    /// `AdaptiveDegraded`, `SlowStart` or `ReservedSlots`).
    #[must_use]
    pub fn forward_progress_mode(&self) -> EngineMode {
        self.fp_mode
    }

    /// The engine's work counters (idle-skip/wake-up observability).
    #[must_use]
    pub fn engine_probe(&self) -> EngineProbe {
        // The tick runs once per cycle outside a recovery's stall window.
        let n = self.wake.wake_at.len() as u64;
        let ticked = self.now - self.timeline.cycles_in(EngineMode::Rollback);
        EngineProbe {
            processor_skips: n * ticked - self.probe.tick_visits,
            ..self.probe
        }
    }

    /// Memory operations committed so far across all processors.
    #[must_use]
    pub fn ops_completed(&self) -> u64 {
        self.arch.procs.iter().map(Processor::ops_completed).sum()
    }

    /// Runs the system for `cycles` cycles and returns the metrics collected
    /// so far. Returns an error if a transition occurred that the fully
    /// designed protocol considers impossible (a simulator bug).
    ///
    /// After each step the clock jumps over the following cycles in which
    /// nothing can happen (see `fast_forward`), so the result —
    /// metrics, probe counts, mode timeline and telemetry — is identical to
    /// calling [`SystemEngine::step`] `cycles` times.
    pub fn run_for(&mut self, cycles: CycleDelta) -> Result<RunMetrics, ProtocolError> {
        let end = self.now + cycles;
        while self.now < end {
            self.step()?;
            self.fast_forward(end);
        }
        Ok(self.collect_metrics())
    }

    /// Advances the clock from `now` over every following cycle, up to
    /// `end`, whose step would change nothing but per-cycle counters, and
    /// accounts those counters in bulk. The jump ends before the horizon
    /// `H`, the earliest of: the end of the run; the engine's own deadlines
    /// (the next transaction-timeout scan, the expiry of the
    /// forward-progress mode, the next injected recovery, the next
    /// SafetyNet checkpoint or commit, the next telemetry window); the
    /// wake index's earliest wheel entry (a processor or parked-outbox
    /// wake); the torus's next event; and the protocol's
    /// [`ProtocolNode::next_event_at`] for its own part. No jump
    /// starts while an exchange worklist is non-empty. Each skipped cycle is
    /// accounted as its step would have been: one mode-timeline cycle and
    /// one fabric tick's round-robin turn (its tick visits no node).
    /// Inside a recovery's stall window the step does nothing but the
    /// timeline, so the jump runs to the resume cycle. Off while a fault
    /// plan is armed (faults strike on a per-cycle schedule the horizon
    /// does not model).
    fn fast_forward(&mut self, end: Cycle) {
        let now = self.now;
        if self.fault_director.is_some()
            || self.pending_misspec.is_some()
            || self.protocol_error.is_some()
        {
            return;
        }
        let window = self
            .telemetry
            .as_ref()
            .map_or(Cycle::MAX, TelemetryRecorder::next_window_at);
        let limit = (end + 1).min(window);
        if now + 1 < self.resume_at {
            let horizon = limit.min(self.resume_at);
            if horizon > now + 1 {
                let cycles = horizon - 1 - now;
                self.timeline
                    .observe_span(now + 1, EngineMode::Rollback, cycles);
                self.probe.cycles_fast_forwarded += cycles;
                self.now = horizon - 1;
            }
            return;
        }
        // Cheapest bounds first: on a busy machine a worklist is non-empty
        // or some wake falls next cycle, and the check ends here in O(1).
        if !self.exchange.outbox.is_empty()
            || !self.exchange.completions.is_empty()
            || !self.exchange.write_logs.is_empty()
        {
            return;
        }
        let mut horizon = self.wake.wheel.earliest_due(limit);
        if horizon <= now + 1 {
            return;
        }
        horizon = horizon
            .min(self.next_timeout_scan)
            .min(self.fp_until)
            .min(self.next_injected_recovery.unwrap_or(Cycle::MAX))
            .min(self.safetynet.next_commit_at())
            .min(self.protocol.next_checkpoint_at(&self.safetynet));
        if horizon <= now + 1 {
            return;
        }
        horizon = self
            .arch
            .torus
            .next_event_at(now, horizon)
            .min(P::next_event_at(&self.arch.proto, now));
        if horizon <= now + 1 {
            return;
        }
        let cycles = horizon - 1 - now;
        // The skipped steps would have visited no outbox.
        debug_assert!(self.exchange.outbox.is_empty());
        self.timeline
            .observe_span(now + 1, self.engine_mode(now + 1), cycles);
        self.probe.cycles_fast_forwarded += cycles;
        self.arch.torus.skip_idle_cycles(cycles);
        self.now = horizon - 1;
    }

    /// Advances the system by exactly one cycle (never fast-forwards).
    pub fn step(&mut self) -> Result<(), ProtocolError> {
        if let Some(e) = self.protocol_error.take() {
            return Err(e);
        }
        self.now += 1;
        let now = self.now;
        if now < self.resume_at {
            // The recovery procedure is still restoring state; no forward
            // progress during these cycles.
            self.timeline.observe(now, EngineMode::Rollback);
            self.sample_telemetry_window(now);
            return Ok(());
        }
        self.update_forward_progress(now);
        self.timeline.observe(now, self.engine_mode(now));
        self.tick_processors(now);
        {
            let mut ctx = EngineCtx {
                safetynet: &mut self.safetynet,
                pending_misspec: &mut self.pending_misspec,
                protocol_error: &mut self.protocol_error,
                perturb_rng: &mut self.perturb_rng,
                metrics: &mut self.metrics,
                faults: self.fault_director.as_mut(),
                wake: &mut self.wake,
                exchange: &mut self.exchange,
                probe: &mut self.probe,
            };
            self.protocol.exchange(&mut self.arch, now, &mut ctx);
        }
        if self.arch.torus.deadlock_evidence() {
            self.fabric_deadlock_at = Some(now);
        }
        let mut fault_fired: Option<(Cycle, FaultKind)> = None;
        if let Some(d) = &self.fault_director {
            // Fold newly-fired injections into the evidence record. Guarded by
            // the fire counter: an old fire whose evidence was cleared by a
            // recovery must not reappear (back-to-back injected faults would
            // otherwise be mis-classified as one long episode).
            if d.fires() > self.fault_fires_seen {
                self.fault_fires_seen = d.fires();
                if let Some((at, kind)) = d.last_fire() {
                    if self.fault_evidence_at.map_or(true, |(a, _)| a <= at) {
                        self.fault_evidence_at = Some((at, kind));
                    }
                    fault_fired = Some((at, kind));
                }
            }
        }
        if let (Some(t), Some((at, kind))) = (self.telemetry.as_mut(), fault_fired) {
            t.record(SpecEvent::FaultFired {
                at,
                kind: kind.label(),
            });
        }
        self.safetynet_tick(now);
        self.check_recovery(now);
        if let Some(e) = self.protocol_error.take() {
            return Err(e);
        }
        self.sample_telemetry_window(now);
        Ok(())
    }

    /// The availability mode cycle `now` executes in: the rollback stall
    /// window when `now` precedes the resume cycle, the forward-progress
    /// mode otherwise.
    fn engine_mode(&self, now: Cycle) -> EngineMode {
        if now < self.resume_at {
            EngineMode::Rollback
        } else {
            self.fp_mode
        }
    }

    /// Closes the telemetry sampler's window ending at `now`, if one is due:
    /// snapshots the cumulative counters (processor ops, fabric busy-cycles,
    /// SafetyNet log state, recoveries) and lets the recorder difference
    /// them into a [`specsim_base::WindowSample`]. All inputs are simulated
    /// state, so samples are bit-identical across kernels.
    fn sample_telemetry_window(&mut self, now: Cycle) {
        if !self.telemetry.as_ref().is_some_and(|t| t.window_due(now)) {
            return;
        }
        let n = self.arch.procs.len();
        let ops_completed = self.ops_completed();
        let outstanding = self.arch.outstanding_demand() as u64;
        let fabric = self.arch.torus.stats();
        let log_occupancy = (0..n)
            .map(|i| self.safetynet.log_occupancy(NodeId::from(i)) as u64)
            .sum();
        let counters = WindowCounters {
            ops_completed,
            recoveries: self.metrics.recoveries + self.metrics.injected_recoveries,
            link_busy_cycles: fabric.link_busy_cycles,
            num_links: fabric.num_links as u64,
            messages_delivered: fabric.total_delivered(),
            log_entries: self.safetynet.stats().entries_logged,
            outstanding,
            log_occupancy,
        };
        let mode = self.engine_mode(now);
        if let Some(t) = self.telemetry.as_mut() {
            t.sample_window(now, mode, counters);
        }
    }

    /// Forward progress (Section 2, feature 4): the measure a recovery
    /// caused by `kind` re-executes under, so the rare event behind it
    /// cannot recur at once:
    ///
    /// * a forwarded request that found an invalid cache (Section 3.1's
    ///   reorder) disables adaptive routing, if the torus routes adaptively;
    /// * a buffer deadlock (Section 4) reserves slots for every virtual
    ///   network, if the torus's pools can hold a reservation;
    /// * any other kind, and a buffer deadlock that cannot reserve, enters
    ///   slow-start (Sections 3.2 and 4).
    ///
    /// `None` when no measure applies or the window is 0: the mode in force
    /// then stays.
    fn forward_progress_measure(&self, kind: MisSpecKind) -> Option<EngineMode> {
        if self.fp_window == 0 {
            return None;
        }
        match kind {
            MisSpecKind::ForwardedRequestToInvalidCache => {
                (self.routing == RoutingPolicy::Adaptive).then_some(EngineMode::AdaptiveDegraded)
            }
            MisSpecKind::BufferDeadlock
                if self.arch.torus.reservation_for(RESERVED_SLOTS_PER_NETWORK) > 0 =>
            {
                Some(EngineMode::ReservedSlots)
            }
            _ => Some(EngineMode::SlowStart),
        }
    }

    /// Enters the measure for a recovery caused by `kind`, its window
    /// starting at `resume_at`, unless none applies.
    pub(crate) fn enter_forward_progress(&mut self, kind: MisSpecKind, resume_at: Cycle) {
        if let Some(mode) = self.forward_progress_measure(kind) {
            self.fp_mode = mode;
            self.fp_until = resume_at + self.fp_window;
        }
        self.sync_torus();
    }

    /// Ends the forward-progress mode once its window has passed.
    fn update_forward_progress(&mut self, now: Cycle) {
        if now >= self.fp_until {
            self.fp_mode = EngineMode::Normal;
            self.fp_until = Cycle::MAX;
            self.sync_torus();
            // If slow-start ended, the limit just rose: nodes the gate held
            // re-present their requests in this cycle's tick.
            self.wake.wake_held(now);
        }
    }

    /// Puts the torus in the state the forward-progress mode asks for: it
    /// routes statically exactly while the mode is `AdaptiveDegraded` (with
    /// its configured routing otherwise), and its pools hold a reservation
    /// exactly while the mode is `ReservedSlots`. Called on every mode
    /// change and after every restore, so neither a measure that another
    /// replaces nor a checkpoint taken under an earlier measure leaves a
    /// setting behind.
    fn sync_torus(&mut self) {
        let routing = match self.fp_mode {
            EngineMode::AdaptiveDegraded => RoutingPolicy::Static,
            _ => self.routing,
        };
        let reservation = match self.fp_mode {
            EngineMode::ReservedSlots => RESERVED_SLOTS_PER_NETWORK,
            _ => 0,
        };
        let torus = &mut self.arch.torus;
        torus.set_routing(routing);
        torus.set_pool_reservation(reservation);
    }

    /// The slow-start gate's limit on coherence transactions outstanding
    /// system-wide: one in slow-start (the paper's value), none otherwise.
    fn outstanding_limit(&self) -> usize {
        if self.fp_mode == EngineMode::SlowStart {
            1
        } else {
            usize::MAX
        }
    }

    /// The processor tick: visits, in ascending node order, every node
    /// whose wake hint has come due, with per-node state transitions
    /// identical to a dense every-node scan. The due nodes are the ripe
    /// entries of the wake index's timing wheel (whose drain also re-lists
    /// parked outboxes whose front has ripened). Due hints are re-validated
    /// against the processor's live `ready_at()`; a visit then re-files the
    /// node's hint from its post-tick wake cycle.
    fn tick_processors(&mut self, now: Cycle) {
        let limit = self.outstanding_limit();
        #[cfg(not(test))]
        let park_stalls = true;
        #[cfg(test)]
        let park_stalls = !self.dense_stall_retries;
        self.wake.drain(now, &mut self.exchange.outbox);
        self.probe.tick_visits += self.wake.due.len() as u64;
        // Demand census for the slow-start governor, computed lazily on the
        // first cycle a processor actually presents a request: on quiescent
        // cycles (every processor mid-think or blocked on a miss) the whole
        // per-cache scan is skipped. Outside slow-start the limit is
        // unbounded, the gate cannot bind, and the census is never taken.
        let mut outstanding: Option<usize> = None;
        let mut cursor = 0;
        while let Some(i) = self.wake.due.next_at_or_after(cursor) {
            cursor = i + 1;
            self.wake.due.remove(i);
            self.wake.parked[i] = false;
            match self.arch.procs[i].ready_at() {
                Some(ready) if ready <= now => {}
                ready => {
                    self.wake.set(i, ready.unwrap_or(Cycle::MAX));
                    continue;
                }
            }
            let Some(req) = self.arch.procs[i].poll(now) else {
                // Nothing to present yet: a dense scan looks again next cycle.
                self.wake.set(i, now + 1);
                continue;
            };
            self.probe.processor_polls += 1;
            if limit != usize::MAX
                && *outstanding.get_or_insert_with(|| self.arch.outstanding_demand()) >= limit
            {
                // Slow-start governor: hold back new transactions, and park
                // the node until the census can fall or the limit rise.
                self.wake.set(i, Cycle::MAX);
                self.wake.held_list.push(i);
                self.probe.held_parks += 1;
                continue;
            }
            let cache = &mut self.arch.caches[i];
            // A stall that changes nothing leaves a shared controller shared.
            let outcome = if cache.hierarchy().stalls_at_once(req.addr) {
                AccessOutcome::Stall
            } else {
                cache.make_mut().cpu_request(now, req)
            };
            // The request may have enqueued protocol output at this node's
            // controllers (a miss's coherence request, an eviction's
            // writeback): the exchange phase must pump it. Idle insertions
            // retire on their first visit.
            self.exchange.outbox.insert(i);
            let proc = &mut self.arch.procs[i];
            match outcome {
                AccessOutcome::L1Hit { latency, .. } | AccessOutcome::L2Hit { latency, .. } => {
                    proc.note_hit(now, latency, req.access == CpuAccess::Store);
                }
                AccessOutcome::MissIssued => {
                    proc.note_miss_issued(now);
                    if let Some(outstanding) = outstanding.as_mut() {
                        *outstanding += 1;
                    }
                }
                AccessOutcome::Stall if park_stalls => {
                    self.wake.parked[i] = true;
                    self.wake.set(i, Cycle::MAX);
                    continue;
                }
                AccessOutcome::Stall => {}
            }
            // Thinking: due when the think time elapses; blocked: woken by
            // completion delivery; still presenting a request: due next cycle.
            self.wake.set(i, proc.ready_at().unwrap_or(Cycle::MAX));
        }
    }

    fn safetynet_tick(&mut self, now: Cycle) {
        // Only nodes whose directory or memory controller ingested a
        // message can hold logged writes; drain those, in ascending order.
        let mut cursor = 0;
        while let Some(i) = self.exchange.write_logs.next_at_or_after(cursor) {
            cursor = i + 1;
            self.exchange.write_logs.remove(i);
            let entries = P::drain_write_log(&mut self.arch.proto, i);
            if entries > 0
                && self.safetynet.log_writes(NodeId::from(i), entries) == LogOutcome::Full
            {
                self.safetynet.note_log_stall();
            }
        }
        self.safetynet.advance(now);
        if self
            .protocol
            .checkpoint_due(&self.arch.proto, &self.safetynet, now)
            && self.safetynet.can_checkpoint()
        {
            let snapshot = self.arch.clone();
            self.safetynet.take_checkpoint(now, snapshot);
            if let Some(t) = self.telemetry.as_mut() {
                t.record(SpecEvent::Checkpoint { at: now });
            }
        }
    }

    /// Transaction timeout (Section 4): the requestor of a transaction that
    /// does not complete within three checkpoint intervals declares a
    /// deadlock mis-speculation, blaming its oldest transaction's block. The
    /// processor-side timer restarts after a recovery (the processor
    /// re-executes from its register checkpoint). When the protocol's pooled
    /// torus showed deadlock evidence within the window
    /// ([`Network::deadlock_evidence`]), the timeout is a *detected buffer
    /// deadlock* rather than congestion, and the buffer-reservation
    /// forward-progress measure applies. When no wait has timed out, the
    /// scan sleeps until the first cycle one can.
    fn scan_timeouts(&mut self, now: Cycle) -> Option<MisSpeculation> {
        let timeout = self.safetynet.transaction_timeout_cycles();
        // A fault wedges not only the transaction whose message it ate but
        // also transactions that queue up behind the damage (e.g. at a
        // directory entry stuck busy); those start their timers *after* the
        // fire, so the attribution window is one full timeout of waiting on
        // top of one timeout of queueing behind the fault.
        let fault_evidence = self
            .fault_evidence_at
            .filter(|(at, _)| now.saturating_sub(*at) <= 2 * timeout);
        let evidence_in_window = self
            .fabric_deadlock_at
            .is_some_and(|at| now.saturating_sub(at) <= timeout);
        // Classification precedence: a transient fault injected inside the
        // stuck transaction's window explains the timeout better than a
        // buffer wedge (the fault likely *caused* the wedge), and either
        // beats the generic timeout.
        let kind = if let Some((_, fk)) = fault_evidence {
            MisSpecKind::TransientFault { kind: fk }
        } else if evidence_in_window {
            MisSpecKind::BufferDeadlock
        } else {
            MisSpecKind::TransactionTimeout
        };
        // Earliest cycle any wait *starting after this scan* could fire.
        let mut next_fire = now + 1 + timeout;
        for (i, (proc, cache)) in self.arch.procs.iter().zip(&self.arch.caches).enumerate() {
            // Requestor-side timer (Section 4: "the requestor of the
            // transaction will timeout"): the processor's wait, or the cache
            // controller's oldest outstanding transaction, which survives a
            // rollback even though the restored processor re-executes from
            // its register checkpoint and no longer waits, so the
            // processor-side timer alone would let a wedged fabric stall the
            // machine forever. A timeout blames the transaction's block.
            let txn = cache.hierarchy().oldest_demand();
            let since = [proc.waiting_since(), txn.map(|(at, _)| at)]
                .into_iter()
                .flatten()
                .min();
            if let Some(since) = since.map(|s| s.max(self.timeout_anchor)) {
                if now.saturating_sub(since) >= timeout {
                    return Some(MisSpeculation {
                        kind,
                        node: NodeId::from(i),
                        addr: txn.map_or(BlockAddr(0), |(_, addr)| addr),
                        at: now,
                    });
                }
                next_fire = next_fire.min(since + timeout);
            }
        }
        // No wait fired: none can before `next_fire`. Fault/deadlock
        // evidence only influences *classification*, which is read on the
        // firing cycle itself.
        self.next_timeout_scan = next_fire;
        None
    }

    fn check_recovery(&mut self, now: Cycle) {
        if self.pending_misspec.is_none() && now >= self.next_timeout_scan {
            self.pending_misspec = self.scan_timeouts(now);
        }
        if let Some(ms) = self.pending_misspec.take() {
            self.metrics.count_misspeculation(ms.kind);
            self.metrics.recoveries += 1;
            if ms.kind == MisSpecKind::BufferDeadlock {
                self.metrics.deadlock_recoveries += 1;
            }
            if let Some(t) = self.telemetry.as_mut() {
                t.record(SpecEvent::MisSpec {
                    at: ms.at,
                    kind: ms.kind.label(),
                    node: ms.node.index() as u64,
                });
            }
            if ms.kind.is_transient_fault() {
                self.metrics.fault_recoveries += 1;
                if let Some((at, _)) = self.fault_evidence_at {
                    let latency = ms.at.saturating_sub(at);
                    self.metrics.fault_detection_latency_cycles += latency;
                    self.metrics.fault_detection_latency.record(latency);
                    if let Some(t) = self.telemetry.as_mut() {
                        t.record(SpecEvent::FaultDetected {
                            at: ms.at,
                            injected_at: at,
                            kind: ms.kind.label(),
                        });
                    }
                }
            }
            self.perform_recovery(now, RecoveryCause::MisSpeculation(ms.kind));
            return;
        }
        if let Some(next) = self.next_injected_recovery {
            if now >= next {
                let interval = self
                    .inject_recovery_every
                    .expect("injection interval configured");
                self.metrics.injected_recoveries += 1;
                self.next_injected_recovery = Some(now + interval);
                self.perform_recovery(now, RecoveryCause::Injected);
            }
        }
    }

    fn perform_recovery(&mut self, now: Cycle, cause: RecoveryCause) {
        let (state, outcome) = self.safetynet.recover(now);
        self.arch = state;
        // The restored clone holds every processor at its checkpointed
        // workload position; each resumes at the end of the recovery stall.
        for proc in &mut self.arch.procs {
            proc.resume(now + outcome.recovery_latency_cycles);
        }
        self.metrics.lost_work_cycles += outcome.lost_work_cycles;
        self.metrics.recovery_latency_cycles += outcome.recovery_latency_cycles;
        self.resume_at = now + outcome.recovery_latency_cycles;
        self.timeout_anchor = self.resume_at;
        // The anchor moved: force a fresh timeout scan once stepping resumes.
        self.next_timeout_scan = self.resume_at;
        if let Some(t) = self.telemetry.as_mut() {
            t.record(SpecEvent::Rollback {
                at: now,
                resume_at: self.resume_at,
                cause: match cause {
                    RecoveryCause::MisSpeculation(kind) => kind.label(),
                    RecoveryCause::Injected => "injected",
                },
            });
        }
        // The restored processors carry restored wake cycles: unpark every
        // node and visit all of them on the first post-stall cycle, which
        // re-indexes each from its live `ready_at()`.
        self.wake.reset(self.resume_at);
        // The restored controllers and outboxes may hold completions,
        // pending output and logged writes at any node, and the reset
        // dropped every parked outbox's wake: re-arm every list.
        self.exchange.insert_all();
        self.pending_misspec = None;
        // Transient semantics: the re-execution must not hit the same fault
        // again, so matured one-shot events are disarmed and open windows
        // closed. Evidence is cleared too — a *new* timeout after this
        // recovery needs fresh evidence to be classified as a fault (or as a
        // buffer deadlock), otherwise back-to-back episodes would be folded
        // into one.
        if let Some(d) = &mut self.fault_director {
            d.suppress_through(now);
            self.fault_fires_seen = d.fires();
        }
        self.fabric_deadlock_at = None;
        self.fault_evidence_at = None;
        // Forward progress (Section 2, feature 4): alter the timing of the
        // re-execution so the same rare event cannot immediately recur. The
        // restored torus carries the settings of its checkpoint's mode.
        match cause {
            RecoveryCause::MisSpeculation(kind) => {
                self.enter_forward_progress(kind, self.resume_at)
            }
            RecoveryCause::Injected => self.sync_torus(),
        }
    }

    /// Gathers the run metrics: the protocol-independent half here, the
    /// fabric/ordering half from the protocol.
    pub fn collect_metrics(&mut self) -> RunMetrics {
        let mut m = self.metrics.clone();
        m.cycles = self.now;
        m.ops_completed = self.ops_completed();
        let procs = &self.arch.procs;
        m.loads = procs.iter().map(|p| p.stats().loads).sum();
        m.stores = procs.iter().map(|p| p.stats().stores).sum();
        m.misses = procs.iter().map(|p| p.stats().misses).sum();
        m.miss_wait_cycles = procs.iter().map(|p| p.stats().miss_wait_cycles).sum();
        let torus = self.arch.torus.stats();
        m.messages_delivered = torus.total_delivered();
        m.vnet_latency = torus.latency_hist_per_vnet.clone();
        self.protocol
            .collect_protocol_metrics(&self.arch, self.now, &mut m);
        m.checkpoints = self.safetynet.stats().checkpoints_taken;
        m.log_entries = self.safetynet.stats().entries_logged;
        m.log_stall_cycles = self.safetynet.stats().log_stall_cycles;
        m.faults_injected = self.fault_director.as_ref().map_or(0, FaultDirector::fires);
        m.mode_cycles = self.timeline.cycle_totals();
        self.metrics = m.clone();
        m
    }
}

/// Test support for the copy-on-write checkpoints of both machines.
#[cfg(test)]
pub(crate) mod snapshot_probe {
    use std::fmt::Debug;
    use std::sync::Arc;

    use specsim_base::Cycle;
    use specsim_safetynet::station::{RECOVERY_RESTORE_CYCLES, REGISTER_CHECKPOINT_CYCLES};

    use super::{ArchState, ProtocolNode, SystemEngine};

    /// How many of `cur`'s controllers do not share their `Arc` with
    /// `prev`'s. Each of them must really differ (by its `Debug` output):
    /// a controller is copied only when it is written.
    pub(crate) fn copied<'a, T: Debug + 'a>(
        prev: impl IntoIterator<Item = &'a Arc<T>>,
        cur: impl IntoIterator<Item = &'a Arc<T>>,
    ) -> usize {
        let mut count = 0;
        for (i, (a, b)) in prev.into_iter().zip(cur).enumerate() {
            if !Arc::ptr_eq(a, b) {
                assert_ne!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "controller {i} was copied but not written"
                );
                count += 1;
            }
        }
        count
    }

    /// Steps `sys` to cycle `until`. Calls `checkpoint(prev, cur)` for each
    /// checkpoint taken, with the newest checkpoint before it (after a
    /// restore, the restored one), and `stalled(restored, live)` on the
    /// last cycle of each restore stall, during which nothing runs.
    pub(crate) fn walk<P: ProtocolNode>(
        sys: &mut SystemEngine<P>,
        until: Cycle,
        mut checkpoint: impl FnMut(&ArchState<P>, &ArchState<P>),
        mut stalled: impl FnMut(&ArchState<P>, &ArchState<P>),
    ) {
        let latency = REGISTER_CHECKPOINT_CYCLES + RECOVERY_RESTORE_CYCLES;
        let counts = |sys: &SystemEngine<P>| {
            let stats = sys.safetynet().stats();
            (stats.checkpoints_taken, stats.recovery.recoveries)
        };
        let mut prev = sys.safetynet().latest_checkpoint().state.clone();
        let mut seen = counts(sys);
        let mut stall_end = None;
        while sys.now() < until {
            sys.step().expect("no protocol errors");
            if stall_end == Some(sys.now()) {
                stalled(&prev, sys.arch());
            }
            let now_seen = counts(sys);
            if now_seen == seen {
                continue;
            }
            let cur = sys.safetynet().latest_checkpoint().state.clone();
            if now_seen.1 == seen.1 {
                checkpoint(&prev, &cur);
            } else {
                stall_end = Some(sys.now() + latency - 1);
            }
            prev = cur;
            seen = now_seen;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::dirsys::DirectorySystem;
    use crate::snoopsys::SnoopingSystem;
    use specsim_base::{
        FaultConfig, FaultEvent, FaultPlan, FaultSite, LinkBandwidth, ProtocolVariant,
        RoutingPolicy,
    };
    use specsim_workloads::WorkloadKind;

    fn dir_cfg() -> SystemConfig {
        let mut cfg =
            SystemConfig::directory_speculative(WorkloadKind::Jbb, LinkBandwidth::GB_3_2, 7);
        cfg.protocol = ProtocolVariant::Full;
        cfg.routing = RoutingPolicy::Static;
        cfg.memory.l1_bytes = 16 * 1024;
        cfg.memory.l2_bytes = 64 * 1024;
        cfg.memory.safetynet.checkpoint_interval_cycles = 5_000;
        cfg
    }

    fn snoop_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::new(WorkloadKind::Apache, ProtocolVariant::Full, 11);
        cfg.memory.l1_bytes = 16 * 1024;
        cfg.memory.l2_bytes = 64 * 1024;
        cfg.memory.safetynet.checkpoint_interval_requests = 200;
        cfg
    }

    #[test]
    fn directory_engine_skips_idle_processors_without_losing_wakeups() {
        let mut sys = DirectorySystem::new(dir_cfg());
        let m = sys.run_for(30_000).expect("no protocol errors");
        let probe = sys.engine_probe();
        let dense_visits = 30_000 * 16;
        // The idle-skip machinery must actually skip: most cycles every
        // processor is mid-think or blocked on a miss.
        assert_eq!(probe.tick_visits + probe.processor_skips, dense_visits);
        assert!(
            probe.tick_visits < dense_visits / 2,
            "idle-skip is not skipping: {} visits",
            probe.tick_visits
        );
        assert!(probe.processor_polls <= probe.tick_visits);
        // ... and wake-ups must never be lost: a missed wake-up leaves a
        // processor blocked forever, which surfaces as a transaction-timeout
        // recovery (and a throughput collapse).
        assert_eq!(m.recoveries, 0, "a lost wake-up would time out");
        assert!(m.ops_completed > 1_000);
    }

    #[test]
    fn snooping_engine_skips_idle_processors_without_losing_wakeups() {
        let mut sys = SnoopingSystem::new(snoop_cfg());
        let m = sys.run_for(30_000).expect("no protocol errors");
        let probe = sys.engine_probe();
        let dense_visits = 30_000 * 16;
        assert_eq!(probe.tick_visits + probe.processor_skips, dense_visits);
        assert!(
            probe.tick_visits < dense_visits / 2,
            "idle-skip is not skipping: {} visits",
            probe.tick_visits
        );
        assert!(probe.processor_polls <= probe.tick_visits);
        assert_eq!(m.recoveries, 0, "a lost wake-up would time out");
        assert!(m.ops_completed > 1_000);
    }

    #[test]
    fn stall_parking_wakes_on_own_cache_ingest_and_recovery_and_matches_the_dense_scan() {
        // Hot blocks and 4 MSHRs make processors stall; injected recoveries
        // land while some of them are parked.
        let mut cfg = dir_cfg();
        cfg.traffic = crate::experiments::heavy_traffic::heavy_traffic();
        cfg.memory.mshr_entries = 4;
        cfg.inject_recovery_every = Some(7_000);
        // The reference forbids parking, so every stalled processor retries
        // every cycle, exactly as a dense every-node scan does.
        let mut sys = DirectorySystem::new(cfg.clone());
        let mut dense = DirectorySystem::new(cfg);
        dense.dense_stall_retries = true;
        let n = sys.wake.wake_at.len();
        let (mut parks, mut wakes, mut recoveries_during_park) = (0, 0, 0);
        for _ in 0..30_000 {
            let parked_before = sys.wake.parked.clone();
            let waiting: Vec<bool> = (0..n).map(|i| sys.message_waiting_at(i)).collect();
            let recoveries = sys.metrics.injected_recoveries;
            sys.step().expect("no protocol errors");
            dense.step().expect("no protocol errors");
            let now = sys.now();
            let wake = &sys.wake;
            if sys.metrics.injected_recoveries > recoveries {
                // A rollback unparks every node and makes all of them due at
                // the resume cycle.
                assert!(!wake.parked.contains(&true));
                assert!(wake.wake_at.iter().all(|&w| w == sys.resume_at));
                if parked_before.contains(&true) {
                    recoveries_during_park += 1;
                }
                continue;
            }
            for i in 0..n {
                let parked = wake.parked[i];
                if parked && !parked_before[i] {
                    parks += 1;
                }
                // Still parked from an earlier cycle but due again: only a
                // message ingested by this node's own controllers (or a
                // completion it produced) can have lowered the hint.
                if parked_before[i] && parked && wake.wake_at[i] != Cycle::MAX {
                    assert!(
                        waiting[i],
                        "node {i} woken at cycle {now} without an ingest"
                    );
                    assert!(wake.wake_at[i] <= now + 1);
                    wakes += 1;
                }
            }
        }
        assert!(parks > 0, "no processor ever parked");
        assert!(wakes > 0, "no parked processor was ever woken by its cache");
        assert!(
            recoveries_during_park > 0,
            "no recovery landed during a park"
        );
        // Every metric matches the dense scan, which polls each stalled
        // processor every cycle and so presents far more requests.
        let (m, m_dense) = (sys.collect_metrics(), dense.collect_metrics());
        assert_eq!(format!("{m:?}"), format!("{m_dense:?}"));
        let (p, p_dense) = (sys.engine_probe(), dense.engine_probe());
        assert!(p.processor_polls < p_dense.processor_polls);
        assert!(p.tick_visits < p_dense.tick_visits);
    }

    #[test]
    fn dir16_hot_matches_the_dense_scan_across_slow_start() {
        // The `dir16-hot` machine at the benchmark's two seeds and one
        // more: each run crosses transaction timeouts and the slow-start
        // windows after them.
        for seed in [9000, 4243, 7] {
            let mut cfg = SystemConfig::directory_speculative(
                WorkloadKind::Oltp,
                LinkBandwidth::MB_400,
                seed,
            );
            cfg.routing = RoutingPolicy::Adaptive;
            cfg.traffic = crate::experiments::heavy_traffic::heavy_traffic();
            cfg.memory.mshr_entries = 4;
            cfg.memory.safetynet.checkpoint_interval_cycles = 5_000;
            let mut dense = DirectorySystem::new(cfg.clone());
            dense.dense_stall_retries = true;
            let m = DirectorySystem::new(cfg).run_for(400_000);
            let m_dense = dense.run_for(400_000);
            let (m, m_dense) = (m.expect("no errors"), m_dense.expect("no errors"));
            assert!(m.recoveries >= 1, "seed {seed}: no rollback");
            assert!(m.slow_start_frac() > 0.0, "seed {seed}: no slow-start");
            assert_eq!(format!("{m:?}"), format!("{m_dense:?}"), "seed {seed}");
        }
    }

    #[test]
    fn stall_parking_in_slow_start_matches_the_dense_scan() {
        // In slow-start the gate holds every request while a demand is
        // outstanding, so a request can only stall on its own block's
        // writeback. A replayed trace builds that case: with one-line
        // caches, node 0's store to block 2 evicts its dirty block 1, and
        // its load of block 1 then waits for that writeback.
        use specsim_workloads::{Trace, TraceEvent};
        let event = |cycle, block, access| TraceEvent {
            cycle,
            addr: BlockAddr(block),
            access,
            store_value: 7,
        };
        let mut nodes = vec![Vec::new(); 16];
        nodes[0] = vec![
            event(10, 1, CpuAccess::Store),
            event(11, 2, CpuAccess::Store),
            event(12, 1, CpuAccess::Load),
        ];
        let mut cfg = dir_cfg();
        cfg.memory.l1_bytes = 64;
        cfg.memory.l1_ways = 1;
        cfg.memory.l2_bytes = 64;
        cfg.memory.l2_ways = 1;
        cfg.forward_progress_window = 50_000;
        cfg.replay_trace = Some(std::sync::Arc::new(Trace { nodes }));
        let mut sys = DirectorySystem::new(cfg.clone());
        let mut dense = DirectorySystem::new(cfg);
        dense.dense_stall_retries = true;
        let mut slow_start_parks = 0;
        for machine in [&mut sys, &mut dense] {
            machine.enter_forward_progress(MisSpecKind::TransactionTimeout, 0);
        }
        for _ in 0..5_000 {
            assert_eq!(sys.forward_progress_mode(), EngineMode::SlowStart);
            let parked_before = sys.wake.parked[0];
            sys.step().expect("no protocol errors");
            dense.step().expect("no protocol errors");
            slow_start_parks += u64::from(sys.wake.parked[0] && !parked_before);
        }
        assert_eq!(slow_start_parks, 1, "the load of block 1 parks once");
        let (m, m_dense) = (sys.collect_metrics(), dense.collect_metrics());
        assert_eq!(m.ops_completed, 3);
        assert_eq!(format!("{m:?}"), format!("{m_dense:?}"));
        // The parked node sat out the writeback's round trip; the dense
        // reference presented its load on every one of those cycles.
        let (p, p_dense) = (sys.engine_probe(), dense.engine_probe());
        assert!(p_dense.processor_polls > p.processor_polls + 10);
    }

    /// Steps `sys` for `cycles`, counting the cycles whose tick ran (those
    /// at or after the resume cycle of the latest recovery), and checks the
    /// probe against them after every step: the tick's visits and skips
    /// tile `n` node-cycles per ticked cycle, every poll was a visit, and
    /// every gate hold a poll. Returns the recoveries the run crossed.
    fn assert_probe_tiles_the_ticked_cycles<P: ProtocolNode>(
        sys: &mut SystemEngine<P>,
        cycles: u64,
    ) -> u64 {
        let n = sys.wake.wake_at.len() as u64;
        let mut ticked = 0;
        let mut last = sys.engine_probe();
        for _ in 0..cycles {
            if sys.now() + 1 >= sys.resume_at {
                ticked += 1;
            }
            sys.step().expect("no protocol errors");
            let p = sys.engine_probe();
            let rollback = sys.mode_timeline().cycles_in(EngineMode::Rollback);
            assert_eq!(p.tick_visits + p.processor_skips, n * ticked);
            assert_eq!(ticked, sys.now() - rollback);
            assert!(p.held_parks <= p.processor_polls);
            assert!(p.processor_polls <= p.tick_visits);
            assert!(p.processor_skips >= last.processor_skips);
            last = p;
        }
        sys.metrics.recoveries + sys.metrics.injected_recoveries
    }

    #[test]
    fn probe_counts_the_ticks_work_across_a_rollback() {
        let mut cfg = dir_cfg();
        cfg.traffic = crate::experiments::heavy_traffic::heavy_traffic();
        cfg.memory.mshr_entries = 4;
        cfg.inject_recovery_every = Some(7_000);
        let mut sys = DirectorySystem::new(cfg);
        assert!(assert_probe_tiles_the_ticked_cycles(&mut sys, 20_000) >= 2);
        assert!(sys.engine_probe().processor_skips > 0);
        // Slow-start, where the gate holds requests back.
        let mut cfg = snoop_cfg();
        cfg.traffic = crate::experiments::heavy_traffic::heavy_traffic();
        cfg.memory.mshr_entries = 4;
        cfg.memory.safetynet.checkpoint_interval_cycles = 1_000;
        cfg.forward_progress_window = 5_000;
        cfg = cfg.with_data_bandwidth(LinkBandwidth::MB_400);
        let mut sys = SnoopingSystem::new(cfg);
        assert!(assert_probe_tiles_the_ticked_cycles(&mut sys, 20_000) >= 1);
        assert!(sys.engine_probe().held_parks > 0);
    }

    #[test]
    fn gate_parking_wakes_only_on_cache_ingest_slow_start_expiry_and_recovery() {
        // The `dir16-hot` knobs: a transaction timeout puts the machine in
        // slow-start, where the gate holds nearly every request back. A
        // short window lets it expire inside the run, and injected
        // recoveries land while nodes are held.
        let mut cfg =
            SystemConfig::directory_speculative(WorkloadKind::Oltp, LinkBandwidth::MB_400, 7);
        cfg.routing = RoutingPolicy::Adaptive;
        cfg.traffic = crate::experiments::heavy_traffic::heavy_traffic();
        cfg.memory.mshr_entries = 4;
        cfg.memory.safetynet.checkpoint_interval_cycles = 5_000;
        cfg.forward_progress_window = 20_000;
        cfg.inject_recovery_every = Some(30_000);
        let mut sys = DirectorySystem::new(cfg);
        // Nodes parked on the gate: held since the last gate wake-up and
        // not due since.
        let held = |sys: &DirectorySystem| -> Vec<usize> {
            let wake = &sys.wake;
            let mut held: Vec<usize> = wake
                .held_list
                .iter()
                .copied()
                .filter(|&i| wake.wake_at[i] == Cycle::MAX && !wake.parked[i])
                .collect();
            held.dedup();
            held
        };
        let (mut ingest_wakes, mut expiry_wakes, mut recoveries_during_hold) = (0, 0, 0);
        for _ in 0..80_000 {
            let held_before = held(&sys);
            let ingest_possible = (0..16).any(|i| sys.message_waiting_at(i));
            let slow_start_before = sys.forward_progress_mode() == EngineMode::SlowStart;
            let recoveries = sys.metrics.recoveries + sys.metrics.injected_recoveries;
            sys.step().expect("no protocol errors");
            let now = sys.now();
            if sys.metrics.recoveries + sys.metrics.injected_recoveries > recoveries {
                // A rollback releases every held node.
                assert!(sys.wake.held_list.is_empty());
                if !held_before.is_empty() {
                    recoveries_during_hold += 1;
                }
                continue;
            }
            let expired = slow_start_before && sys.forward_progress_mode() != EngineMode::SlowStart;
            let held_after = held(&sys);
            for &i in &held_before {
                if held_after.contains(&i) {
                    continue;
                }
                if expired {
                    // The limit rose at the start of this cycle: every held
                    // node re-presented its request in this cycle's tick,
                    // and the gate, now open, held none of them again.
                    assert!(!sys.wake.held_list.contains(&i));
                    expiry_wakes += 1;
                } else {
                    // Otherwise only a cache ingest, which can lower the
                    // census, wakes a held node, for the next cycle.
                    assert!(ingest_possible, "node {i} woken at {now} without an ingest");
                    assert!(sys.wake.wake_at[i] <= now + 1);
                    ingest_wakes += 1;
                }
            }
            // Exactness: while a node stays parked on the gate, a retry next
            // cycle would be held too.
            if !held_after.is_empty() {
                assert!(
                    sys.arch().outstanding_demand() >= sys.outstanding_limit(),
                    "a node stayed parked at {now} although the gate would admit it"
                );
            }
        }
        assert!(
            sys.engine_probe().held_parks > 0,
            "the gate never held a request"
        );
        assert!(ingest_wakes > 0, "no held node was woken by a cache ingest");
        assert!(
            expiry_wakes > 0,
            "no held node was released by slow-start expiry"
        );
        assert!(
            recoveries_during_hold > 0,
            "no recovery landed during a hold"
        );
    }

    #[test]
    fn exchange_worklists_scan_active_nodes_not_all_nodes() {
        // The exchange-phase twin of the idle-skip test above: the
        // completion-delivery and outbox-pump sweeps are worklist-driven, so
        // a sparse run's visit counts stay proportional to nodes with actual
        // exchange work, not to cycles × nodes (the dense equivalent is
        // exactly one visit per node per cycle per sweep).
        let mut sys = DirectorySystem::new(dir_cfg());
        let m = sys.run_for(30_000).expect("no protocol errors");
        let probe = sys.engine_probe();
        let dense_visits = 30_000 * 16;
        assert!(
            probe.exchange_completion_visits < dense_visits / 2,
            "completion worklist is not sparse: {} visits vs {dense_visits} dense",
            probe.exchange_completion_visits
        );
        assert!(
            probe.exchange_outbox_visits < dense_visits / 2,
            "outbox worklist is not sparse: {} visits vs {dense_visits} dense",
            probe.exchange_outbox_visits
        );
        // ... but the worklists must not starve either: the run makes real
        // progress, which requires both sweeps to keep visiting busy nodes.
        assert!(probe.exchange_completion_visits > 0);
        assert!(probe.exchange_outbox_visits > 0);
        assert_eq!(m.recoveries, 0, "a dropped worklist entry would time out");
        assert!(m.ops_completed > 1_000);
    }

    #[test]
    fn recovery_stall_window_blocks_progress_until_resume() {
        // Shared engine invariant: between a recovery and its resume cycle
        // the machine makes no forward progress, then execution resumes.
        let mut cfg = dir_cfg();
        cfg.inject_recovery_every = Some(20_000);
        let mut sys = DirectorySystem::new(cfg);
        sys.run_for(20_001).expect("no protocol errors");
        assert_eq!(sys.collect_metrics().injected_recoveries, 1);
        let ops_at_recovery = sys.ops_completed();
        // The recovery latency is >1000 cycles (register restore + state
        // restore); during the first 500 of them nothing commits.
        sys.run_for(500).expect("no protocol errors");
        assert_eq!(
            sys.ops_completed(),
            ops_at_recovery,
            "work committed during the recovery stall window"
        );
        // The next injected recovery is at 40 000; up to there execution
        // resumes normally once the stall window ends.
        sys.run_for(10_000).expect("no protocol errors");
        assert!(
            sys.ops_completed() > ops_at_recovery,
            "execution did not resume after the stall window"
        );
    }

    /// A torus's forward-progress settings: its routing and its pools'
    /// per-network reservation (`None` when it is not pooled).
    type TorusSetting = (RoutingPolicy, Option<usize>);

    /// Forces the measure for `kind` on a running machine and checks the
    /// mode it enters and the torus setting during its window; once the
    /// window expires the mode is `Normal` and the torus is back to the
    /// setting it had before.
    fn assert_measure<P: ProtocolNode>(
        engine: &mut SystemEngine<P>,
        (case, kind, entered, during): (&str, MisSpecKind, EngineMode, TorusSetting),
    ) {
        engine.run_for(1_000).expect("no protocol errors");
        let before = torus_setting(engine);
        engine.enter_forward_progress(kind, engine.now());
        assert_eq!(engine.forward_progress_mode(), entered, "{case}");
        assert_eq!(torus_setting(engine), during, "{case}: torus in the window");
        engine.run_for(3_000).expect("no protocol errors");
        assert_eq!(
            engine.forward_progress_mode(),
            EngineMode::Normal,
            "{case}: window expired"
        );
        assert_eq!(torus_setting(engine), before, "{case}: torus after expiry");
    }

    fn torus_setting<P: ProtocolNode>(engine: &SystemEngine<P>) -> TorusSetting {
        let torus = &engine.arch().torus;
        (torus.routing(), torus.pool_reservation())
    }

    /// The full-protocol test directory with `routing`, a unified pool of
    /// `pool` slots per node if given, and a short forward-progress window.
    fn dir(routing: RoutingPolicy, pool: Option<usize>) -> DirectorySystem {
        let mut cfg = dir_cfg();
        if let Some(slots) = pool {
            cfg.buffering = specsim_net::Buffering::SharedPool {
                virtual_channels: true,
                slots: specsim_net::PoolSlots::Unified(slots),
            };
        }
        cfg.routing = routing;
        cfg.forward_progress_window = 2_000;
        DirectorySystem::new(cfg)
    }

    #[test]
    fn forward_progress_policy_table() {
        // Section 2, feature 4: each mis-speculation kind re-executes under
        // one measure, chosen by the machine's speculative torus.
        use EngineMode::{AdaptiveDegraded, Normal, ReservedSlots, SlowStart};
        use MisSpecKind::{BufferDeadlock, ForwardedRequestToInvalidCache, TransactionTimeout};
        use RoutingPolicy::{Adaptive, Static};
        let dir_rows = [
            (
                "adaptive directory, reorder",
                dir(Adaptive, None),
                (
                    ForwardedRequestToInvalidCache,
                    AdaptiveDegraded,
                    (Static, None),
                ),
            ),
            (
                "static directory, reorder",
                dir(Static, None),
                (ForwardedRequestToInvalidCache, Normal, (Static, None)),
            ),
            (
                "pooled directory, buffer deadlock",
                dir(Adaptive, Some(64)),
                (BufferDeadlock, ReservedSlots, (Adaptive, Some(1))),
            ),
            (
                "unpooled directory, buffer deadlock",
                dir(Static, None),
                (BufferDeadlock, SlowStart, (Static, None)),
            ),
            (
                "adaptive directory, timeout",
                dir(Adaptive, None),
                (TransactionTimeout, SlowStart, (Adaptive, None)),
            ),
        ];
        for (case, mut sys, (kind, entered, during)) in dir_rows {
            assert_measure(&mut sys, (case, kind, entered, during));
        }
        let snoop = |pool: Option<usize>| {
            let mut cfg = snoop_cfg();
            if let Some(slots) = pool {
                cfg = cfg.with_pooled_data_torus(slots);
            }
            cfg.forward_progress_window = 2_000;
            SnoopingSystem::new(cfg)
        };
        let snoop_rows = [
            (
                "pooled snooping data torus, buffer deadlock",
                snoop(Some(16)),
                (BufferDeadlock, ReservedSlots, (Adaptive, Some(1))),
            ),
            (
                "unpooled snooping data torus, buffer deadlock",
                snoop(None),
                (BufferDeadlock, SlowStart, (Static, None)),
            ),
            (
                "snooping, writeback double race",
                snoop(None),
                (MisSpecKind::WritebackDoubleRace, SlowStart, (Static, None)),
            ),
        ];
        for (case, mut sys, (kind, entered, during)) in snoop_rows {
            assert_measure(&mut sys, (case, kind, entered, during));
        }
    }

    #[test]
    fn the_torus_follows_the_mode_through_replacement_and_restore() {
        // The torus routes statically exactly while adaptive routing is
        // disabled, and reserves slots exactly while the mode says so.
        use RoutingPolicy::Adaptive;
        let cases = [
            (
                dir(Adaptive, Some(64)),
                MisSpecKind::BufferDeadlock,
                (Adaptive, Some(1)),
            ),
            (
                dir(Adaptive, None),
                MisSpecKind::ForwardedRequestToInvalidCache,
                (RoutingPolicy::Static, None),
            ),
        ];
        for (mut sys, kind, during) in cases {
            let configured = torus_setting(&sys);
            sys.run_for(1_000).expect("no protocol errors");
            // A rollback to a checkpoint taken before the measure began
            // keeps the measure's setting while the mode stays in force.
            sys.enter_forward_progress(kind, sys.now());
            let entered = sys.forward_progress_mode();
            sys.perform_recovery(sys.now(), RecoveryCause::Injected);
            assert_eq!(sys.forward_progress_mode(), entered, "{kind:?}");
            assert_eq!(torus_setting(&sys), during, "{kind:?}: restored");
            // Slow-start replacing the measure lifts its setting.
            sys.enter_forward_progress(MisSpecKind::TransactionTimeout, sys.now());
            assert_eq!(sys.forward_progress_mode(), EngineMode::SlowStart);
            assert_eq!(torus_setting(&sys), configured, "{kind:?}: replaced");
        }
    }

    #[test]
    fn staged_outbox_releases_ripe_messages_in_fifo_order() {
        let mut ob: StagedOutbox<u32> = StagedOutbox::default();
        assert!(ob.is_empty());
        ob.stage(10, 1);
        ob.stage(10, 2);
        ob.stage(20, 3);
        assert_eq!(ob.len(), 3);
        // Nothing ripe yet.
        let mut sent = Vec::new();
        ob.pump(5, |m| {
            sent.push(m);
            true
        });
        assert!(sent.is_empty());
        // The first two are ripe at 10; the third stays staged.
        ob.pump(10, |m| {
            sent.push(m);
            true
        });
        assert_eq!(sent, vec![1, 2]);
        assert_eq!(ob.len(), 1);
        // Back-pressure holds the message in place...
        ob.pump(25, |_| false);
        assert_eq!(ob.len(), 1);
        // ...until the fabric accepts it.
        ob.pump(25, |m| {
            sent.push(m);
            true
        });
        assert_eq!(sent, vec![1, 2, 3]);
        assert!(ob.is_empty());
    }

    #[test]
    fn staged_outbox_stops_at_the_first_unripe_message() {
        // FIFO release: a ripe message behind an unripe one must wait
        // (per-source protocol order is preserved).
        let mut ob: StagedOutbox<u32> = StagedOutbox::default();
        ob.stage(100, 1);
        ob.stage(50, 2);
        let mut sent = Vec::new();
        ob.pump(60, |m| {
            sent.push(m);
            true
        });
        assert!(sent.is_empty(), "message 2 must wait behind message 1");
        ob.pump(100, |m| {
            sent.push(m);
            true
        });
        assert_eq!(sent, vec![1, 2]);
    }

    /// One `kind` fault armed on each of `node`'s four outgoing links at
    /// cycle `at` (any virtual network), so the test does not depend on the
    /// routing function's direction choice.
    fn link_plan(at: Cycle, node: usize, kind: FaultKind, param: u64) -> FaultPlan {
        FaultPlan {
            events: (0..4)
                .map(|dir| FaultEvent {
                    at,
                    site: FaultSite::Link {
                        node,
                        dir,
                        vnet: None,
                    },
                    kind,
                    param,
                })
                .collect(),
        }
    }

    #[test]
    fn injected_drop_fault_is_classified_and_recovered() {
        let mut cfg = dir_cfg();
        cfg.fault_config = FaultConfig::Explicit(link_plan(1_000, 0, FaultKind::Drop, 0));
        let mut sys = DirectorySystem::new(cfg);
        let m = sys.run_for(80_000).expect("no protocol errors");
        assert!(m.faults_injected >= 1, "the drop never fired");
        assert!(
            m.fault_recoveries >= 1,
            "a lost message must surface as a classified fault recovery"
        );
        assert_eq!(
            m.faults_detected(),
            m.fault_recoveries,
            "every detected fault recovers exactly once"
        );
        // Detection is the transaction timeout: latency is bounded by the
        // attribution window.
        let timeout = 3.0 * 5_000.0;
        assert!(m.mean_fault_detection_latency() <= 2.0 * timeout);
        // Re-execution with the fault suppressed makes forward progress and
        // ends coherent.
        assert!(m.ops_completed > 1_000);
        sys.verify_coherence()
            .expect("coherent after fault recovery");
    }

    #[test]
    fn corrupt_fault_is_caught_at_ingest_not_by_the_timeout() {
        let mut cfg = dir_cfg();
        cfg.fault_config = FaultConfig::Explicit(link_plan(1_000, 0, FaultKind::Corrupt, 0));
        let mut sys = DirectorySystem::new(cfg);
        let m = sys.run_for(60_000).expect("no protocol errors");
        assert!(m.fault_recoveries >= 1, "checksum detection must recover");
        // The checksum model catches the damaged message when it is ingested,
        // so detection latency is transit time — far below the 15 000-cycle
        // transaction timeout.
        assert!(
            m.mean_fault_detection_latency() < 5_000.0,
            "corrupt messages must be caught at ingest, got {} cycles",
            m.mean_fault_detection_latency()
        );
        sys.verify_coherence()
            .expect("coherent after fault recovery");
    }

    #[test]
    fn back_to_back_faults_are_two_recoveries_not_one_episode() {
        // Satellite of the fault subsystem: recovery clears the fault
        // evidence and the timeout anchor, so a second injected fault after
        // the first recovery is a fresh detect→rollback episode (and the
        // director, living outside the checkpointed state, never re-fires the
        // first fault during re-execution).
        let mut cfg = dir_cfg();
        let mut plan = link_plan(1_000, 0, FaultKind::Drop, 0);
        plan.events
            .extend(link_plan(45_000, 0, FaultKind::Drop, 0).events);
        cfg.fault_config = FaultConfig::Explicit(plan);
        let mut sys = DirectorySystem::new(cfg);
        let m = sys.run_for(100_000).expect("no protocol errors");
        assert!(
            m.fault_recoveries >= 2,
            "each fault episode must be detected and recovered separately, got {}",
            m.fault_recoveries
        );
        assert_eq!(m.faults_detected(), m.fault_recoveries);
        sys.verify_coherence()
            .expect("coherent after fault recoveries");
    }

    #[test]
    fn snooping_data_torus_fault_recovers_through_the_timeout() {
        let mut cfg = snoop_cfg();
        cfg.memory.safetynet.checkpoint_interval_cycles = 5_000;
        // Shorten the post-recovery slow-start so the re-execution reaches
        // full speed inside the test horizon.
        cfg.forward_progress_window = 20_000;
        cfg.fault_config = FaultConfig::Explicit(link_plan(1_000, 0, FaultKind::Drop, 0));
        let mut sys = SnoopingSystem::new(cfg);
        let m = sys.run_for(80_000).expect("no protocol errors");
        assert!(m.faults_injected >= 1, "the drop never fired");
        assert!(
            m.fault_recoveries >= 1,
            "a lost data message must surface as a classified fault recovery"
        );
        assert!(m.ops_completed > 1_000);
        sys.verify_coherence()
            .expect("coherent after fault recovery");
    }

    #[test]
    fn fault_free_runs_ignore_the_fault_machinery() {
        // A disabled fault config must leave the engine without a director
        // and the metrics at zero (the goldens rely on this being inert).
        let sys = DirectorySystem::new(dir_cfg());
        assert!(sys.fault_director.is_none());
        let mut sys = DirectorySystem::new(dir_cfg());
        let m = sys.run_for(30_000).expect("no protocol errors");
        assert_eq!(m.faults_injected, 0);
        assert_eq!(m.fault_recoveries, 0);
        assert_eq!(m.faults_detected(), 0);
    }

    #[test]
    fn the_coherence_check_finds_two_owners_and_stale_sharers() {
        use CacheState::{M, O, S};
        let line = |node: u16, block, state, value| (NodeId(node), BlockAddr(block), state, value);
        // Both machines' checks: `true` compares sharer values (directory),
        // `false` checks owners only (snooping).
        let clean = [line(0, 1, O, 7), line(1, 1, S, 7), line(2, 2, M, 9)];
        for compare_values in [true, false] {
            assert_eq!(check_lines(clean, compare_values), Ok(()));
            let two_owners = [line(0, 1, M, 7), line(3, 1, O, 7)];
            let err = check_lines(two_owners, compare_values).unwrap_err();
            assert!(err.contains("N0") && err.contains("N3"), "{err}");
        }
        let stale_sharer = [line(0, 1, O, 7), line(1, 1, S, 8)];
        let err = check_lines(stale_sharer, true).unwrap_err();
        assert!(err.contains("N1"), "{err}");
    }

    #[test]
    fn verify_coherence_reads_every_cache() {
        // A copy of an owning cache at a second node is a second owner of
        // each block it owns.
        fn duplicate_an_owner<P: ProtocolNode>(sys: &mut SystemEngine<P>) {
            let caches = &mut sys.arch.caches;
            let owns = |c: &Shared<P::Cache>| {
                c.hierarchy()
                    .resident_lines()
                    .any(|(_, state, _)| state.is_owner())
            };
            let owner = caches.iter().position(owns).expect("an owned block");
            let copy = caches[owner].clone();
            let next = (owner + 1) % caches.len();
            caches[next] = copy;
        }
        let mut dir = DirectorySystem::new(dir_cfg());
        dir.run_for(10_000).expect("no protocol errors");
        dir.verify_coherence().expect("coherent");
        duplicate_an_owner(&mut dir);
        assert!(dir.verify_coherence().is_err());
        let mut snoop = SnoopingSystem::new(snoop_cfg());
        snoop.run_for(10_000).expect("no protocol errors");
        snoop.verify_coherence().expect("coherent");
        duplicate_an_owner(&mut snoop);
        assert!(snoop.verify_coherence().is_err());
    }

    #[test]
    fn a_snooping_timeout_blames_the_oldest_demands_block() {
        let mut sys = SnoopingSystem::new(snoop_cfg());
        let oldest =
            |sys: &SnoopingSystem, i: usize| sys.arch().caches[i].hierarchy().oldest_demand();
        while (0..16).all(|i| oldest(&sys, i).is_none()) {
            sys.step().expect("no protocol errors");
        }
        // Far enough ahead that every outstanding wait has timed out: the
        // first waiting node fires, blaming its oldest demand.
        let timeout = sys.safetynet.transaction_timeout_cycles();
        let ms = sys
            .scan_timeouts(sys.now() + timeout)
            .expect("an outstanding demand times out");
        let blamed = oldest(&sys, ms.node.index());
        let (_, addr) = blamed.expect("the blamed node has a demand outstanding");
        assert_eq!(ms.addr, addr);
        assert_ne!(ms.addr, BlockAddr(0), "a real block, not a placeholder");
    }

    #[test]
    fn measured_characterization_rate_is_guarded_against_zero_exposure() {
        let m = MeasuredCharacterization::default();
        assert_eq!(m.misspeculation_rate(), 0.0);
        let m = MeasuredCharacterization {
            exposure_events: 1000,
            misspeculations: 2,
            ..Default::default()
        };
        assert!((m.misspeculation_rate() - 0.002).abs() < 1e-12);
    }

    #[test]
    fn mode_timeline_accounts_for_every_cycle_and_transitions_chain() {
        // Drive the machine through real mode churn (injected recoveries →
        // rollback windows → slow-start) and check the always-on timeline's
        // invariants: every simulated cycle lands in exactly one mode, the
        // fractions sum to one, and the transition list chains.
        let mut cfg = dir_cfg();
        cfg.inject_recovery_every = Some(20_000);
        let mut sys = DirectorySystem::new(cfg);
        let m = sys.run_for(90_000).expect("no protocol errors");
        assert!(m.recoveries + m.injected_recoveries > 0, "no mode churn");

        let tl = sys.mode_timeline();
        assert_eq!(
            tl.total_cycles(),
            m.cycles,
            "cycles leaked from the timeline"
        );
        assert_eq!(tl.cycle_totals().iter().sum::<u64>(), m.cycles);
        let frac_sum: f64 = specsim_base::ALL_ENGINE_MODES
            .iter()
            .map(|&mode| tl.fraction(mode))
            .sum();
        assert!(
            (frac_sum - 1.0).abs() < 1e-12,
            "fractions sum to {frac_sum}"
        );
        // RunMetrics carries the same accounting.
        assert_eq!(m.mode_cycles, tl.cycle_totals());
        let m_frac_sum = m.normal_frac()
            + m.slow_start_frac()
            + m.rollback_frac()
            + m.mode_fraction(specsim_base::EngineMode::AdaptiveDegraded)
            + m.mode_fraction(specsim_base::EngineMode::ReservedSlots);
        assert!((m_frac_sum - 1.0).abs() < 1e-12);
        // Rollback windows actually show up as unavailable cycles.
        assert!(tl.cycles_in(specsim_base::EngineMode::Rollback) > 0);
        assert!(m.rollback_frac() > 0.0 && m.normal_frac() < 1.0);
        // Transitions chain: each one starts where the previous ended, and
        // none is a self-transition.
        let transitions = tl.transitions();
        assert!(!transitions.is_empty());
        let mut prev = specsim_base::EngineMode::Normal;
        let mut prev_at = 0;
        for t in transitions {
            assert_eq!(t.from, prev, "broken chain at cycle {}", t.at);
            assert_ne!(t.from, t.to, "self-transition at cycle {}", t.at);
            assert!(t.at >= prev_at, "transitions out of order");
            prev = t.to;
            prev_at = t.at;
        }
        // Spans tile the run: inclusive, contiguous, covering cycles 1..=now.
        let spans = tl.spans(sys.now());
        let covered: u64 = spans.iter().map(|(start, end, _)| end - start + 1).sum();
        assert_eq!(spans[0].0, 1);
        assert_eq!(covered, sys.now());
        for w in spans.windows(2) {
            assert_eq!(w[0].1 + 1, w[1].0, "spans must be contiguous");
        }
    }

    #[test]
    fn fault_free_timeline_is_all_normal() {
        let mut sys = DirectorySystem::new(dir_cfg());
        let m = sys.run_for(30_000).expect("no protocol errors");
        assert_eq!(m.recoveries, 0);
        assert_eq!(m.normal_frac(), 1.0);
        assert_eq!(m.rollback_frac(), 0.0);
        assert!(sys.mode_timeline().transitions().is_empty());
    }

    #[test]
    fn telemetry_recorder_is_purely_observational() {
        // The same configuration with the recorder on and off must produce
        // byte-identical metrics: telemetry never perturbs the schedule.
        let mut cfg = dir_cfg();
        cfg.inject_recovery_every = Some(10_000);
        let mut plain = DirectorySystem::new(cfg.clone());
        let m_plain = plain.run_for(40_000).expect("no protocol errors");
        let instrumented_cfg = cfg.with_telemetry(specsim_base::TelemetryConfig::windowed(1_000));
        let mut instrumented = DirectorySystem::new(instrumented_cfg);
        let m_inst = instrumented.run_for(40_000).expect("no protocol errors");
        assert_eq!(format!("{m_plain:?}"), format!("{m_inst:?}"));
        // ... and the instrumented run actually recorded.
        let jsonl = instrumented.telemetry_jsonl().expect("recorder installed");
        assert_eq!(jsonl.lines().count(), 40);
        let trace = instrumented.telemetry_trace().expect("recorder installed");
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("rollback"));
        assert!(plain.telemetry_jsonl().is_none());
    }
}
