//! Full-system configuration.

use std::sync::Arc;

use specsim_base::{
    BufferPolicy, CycleDelta, FaultConfig, FlowControl, LinkBandwidth, MemorySystemConfig,
    ProtocolVariant, RoutingPolicy, TelemetryConfig,
};
use specsim_net::NetConfig;
use specsim_workloads::{Trace, TrafficConfig, WorkloadKind};

/// Forward-progress measures applied after a recovery (Section 2, feature 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForwardProgressConfig {
    /// Directory system (Section 3.1): after a recovery caused by an ordering
    /// mis-speculation, adaptive routing is disabled for this many cycles so
    /// the race cannot recur during re-execution. `0` disables the mechanism.
    pub disable_adaptive_cycles: CycleDelta,
    /// Snooping system / interconnect (Sections 3.2 and 4): after a recovery,
    /// the system enters "slow-start" mode for this many cycles. `0` disables
    /// the mechanism.
    pub slow_start_cycles: CycleDelta,
    /// Maximum coherence transactions allowed to be outstanding system-wide
    /// while in slow-start mode (the paper suggests one).
    pub slow_start_max_outstanding: usize,
    /// Shared-pool interconnect (Section 4): after a buffer-deadlock
    /// recovery, every node's slot pool reserves
    /// [`Self::reserved_slots_per_network`] slots per virtual network for
    /// this many cycles — the "revert to conservative" re-execution that
    /// keeps the deadlocked buffer-dependency cycle from re-forming. `0`
    /// disables the mechanism.
    pub reserved_slot_cycles: CycleDelta,
    /// Slots each virtual network is guaranteed while the reservation window
    /// is active (clamped per node so four reservations fit the pool).
    pub reserved_slots_per_network: usize,
}

impl Default for ForwardProgressConfig {
    fn default() -> Self {
        Self {
            disable_adaptive_cycles: 200_000,
            slow_start_cycles: 200_000,
            slow_start_max_outstanding: 1,
            reserved_slot_cycles: 200_000,
            reserved_slots_per_network: 1,
        }
    }
}

/// Configuration of one full-system simulation run.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Memory-system parameters (Table 2 defaults).
    pub memory: MemorySystemConfig,
    /// Which coherence-protocol variant to run (Full or Speculative).
    pub protocol: ProtocolVariant,
    /// Interconnect routing policy.
    pub routing: RoutingPolicy,
    /// Interconnect deadlock-avoidance strategy / buffering.
    pub flow_control: FlowControl,
    /// How interconnect buffer capacity is provisioned:
    /// [`BufferPolicy::VirtualNetworks`] (each buffer owns its depth —
    /// today's behavior, bit-identical) or [`BufferPolicy::SharedPool`]
    /// (all classes at a node draw from one slot pool; deadlock becomes
    /// possible and is detected by transaction timeout — Section 4's third
    /// case study).
    pub buffer_policy: BufferPolicy,
    /// Workload to run.
    pub workload: WorkloadKind,
    /// Top-level seed; every generator, perturbation and arbitration draw is
    /// derived from it.
    pub seed: u64,
    /// Forward-progress measures after recoveries.
    pub forward_progress: ForwardProgressConfig,
    /// If set, inject a recovery every this many cycles regardless of
    /// mis-speculations (the stress test of Figure 4).
    pub inject_recovery_every: Option<CycleDelta>,
    /// Magnitude (in cycles) of the pseudo-random perturbation added to each
    /// miss, following the evaluation methodology of Alameldeen et al.
    /// (Section 5.2): multiple runs with small perturbations provide the
    /// error bars.
    pub perturbation_cycles: u64,
    /// Maximum coherence transactions outstanding system-wide in normal
    /// operation (with `memory.mshr_entries = 1` the blocking processors
    /// already bound this at one per node).
    pub max_outstanding: usize,
    /// Production-traffic shaping applied to every node's synthetic
    /// generator: an optional Zipfian hot-block overlay and an optional
    /// bursty injection-rate modulation. The unshaped default is
    /// bit-identical to the historical generators.
    pub traffic: TrafficConfig,
    /// Record every accepted memory operation into a replayable trace
    /// (retrieve it with `DirectorySystem::recorded_trace`).
    pub record_trace: bool,
    /// Drive the processors from a recorded trace instead of the synthetic
    /// generators (deterministic replay; `workload` and `traffic` are
    /// ignored for op generation).
    pub replay_trace: Option<Arc<Trace>>,
    /// Transient-fault injection schedule for chaos campaigns (disabled by
    /// default). A [`FaultConfig::Random`] is lowered to an explicit plan
    /// from [`Self::seed`] before the run starts, so the same `(seed,
    /// fault_config)` pair always replays bit-identically.
    pub fault_config: FaultConfig,
    /// Optional endpoint-vs-switch split of the shared slot pool, as
    /// `(switch_slots, endpoint_slots)`. Applied only under
    /// [`BufferPolicy::SharedPool`]; the two budgets must sum to the pool's
    /// `total_slots`. `None` keeps the historical unified pool
    /// (bit-identical).
    pub pool_split: Option<(usize, usize)>,
    /// Threads for one run's sharded network forward phase. `1` — the
    /// default — forwards serially. Values above `1` build a worker pool
    /// (clamped to the host's cores) over which the torus forward phase is
    /// split into fixed switch-index shards, so the schedule digest stays
    /// byte-identical at any thread count; the processor tick is serial
    /// either way. The `SPECSIM_WORKERS` environment variable overrides
    /// this field at engine construction unless
    /// [`Self::worker_threads_pinned`] is set.
    pub worker_threads: usize,
    /// When set, [`Self::worker_threads`] is authoritative and the
    /// `SPECSIM_WORKERS` environment override is ignored. Timing rows
    /// (`ns_per_cycle`) pin their worker count so a CI job forcing the
    /// worker pool on cannot silently switch what a labelled
    /// serial/parallel column measures.
    pub worker_threads_pinned: bool,
    /// Telemetry knobs (windowed time-series sampler + lifecycle event
    /// trace). Disabled by default; purely observational — the simulated
    /// schedule is byte-identical with telemetry on or off.
    pub telemetry: TelemetryConfig,
}

impl Default for SystemConfig {
    /// The paper's primary evaluated machine: the speculative directory
    /// system of Section 3.1 (Table 2 memory parameters, 3.2 GB/s links,
    /// adaptive routing) running the OLTP workload with seed 1.
    fn default() -> Self {
        Self::directory_speculative(WorkloadKind::Oltp, LinkBandwidth::GB_3_2, 1)
    }
}

impl SystemConfig {
    /// The paper's baseline directory-protocol system: 16 nodes, adaptive
    /// routing isolated from deadlock concerns by full buffering
    /// (footnote 1), speculative reliance on point-to-point ordering.
    #[must_use]
    pub fn directory_speculative(
        workload: WorkloadKind,
        bandwidth: LinkBandwidth,
        seed: u64,
    ) -> Self {
        Self {
            memory: MemorySystemConfig {
                link_bandwidth: bandwidth,
                ..MemorySystemConfig::default()
            },
            protocol: ProtocolVariant::Speculative,
            routing: RoutingPolicy::Adaptive,
            flow_control: FlowControl::WorstCaseBuffering,
            buffer_policy: BufferPolicy::VirtualNetworks,
            workload,
            seed,
            forward_progress: ForwardProgressConfig::default(),
            inject_recovery_every: None,
            perturbation_cycles: 4,
            max_outstanding: usize::MAX,
            traffic: TrafficConfig::default(),
            record_trace: false,
            replay_trace: None,
            fault_config: FaultConfig::Disabled,
            pool_split: None,
            worker_threads: 1,
            worker_threads_pinned: false,
            telemetry: TelemetryConfig::default(),
        }
    }

    /// The non-speculative reference system: full protocol, static
    /// dimension-order routing, conventional virtual-channel interconnect.
    #[must_use]
    pub fn directory_baseline(workload: WorkloadKind, bandwidth: LinkBandwidth, seed: u64) -> Self {
        Self {
            memory: MemorySystemConfig {
                link_bandwidth: bandwidth,
                ..MemorySystemConfig::default()
            },
            protocol: ProtocolVariant::Full,
            routing: RoutingPolicy::Static,
            flow_control: FlowControl::VirtualChannels {
                channels_per_network: 2,
            },
            buffer_policy: BufferPolicy::VirtualNetworks,
            workload,
            seed,
            forward_progress: ForwardProgressConfig::default(),
            inject_recovery_every: None,
            perturbation_cycles: 4,
            max_outstanding: usize::MAX,
            traffic: TrafficConfig::default(),
            record_trace: false,
            replay_trace: None,
            fault_config: FaultConfig::Disabled,
            pool_split: None,
            worker_threads: 1,
            worker_threads_pinned: false,
            telemetry: TelemetryConfig::default(),
        }
    }

    /// The speculatively simplified interconnect of Section 4: no virtual
    /// channels/networks, shared buffers of the given size, deadlock detected
    /// by transaction timeout and resolved by recovery.
    #[must_use]
    pub fn simplified_interconnect(
        workload: WorkloadKind,
        bandwidth: LinkBandwidth,
        buffers_per_port: usize,
        seed: u64,
    ) -> Self {
        Self {
            memory: MemorySystemConfig {
                link_bandwidth: bandwidth,
                ..MemorySystemConfig::default()
            },
            protocol: ProtocolVariant::Speculative,
            routing: RoutingPolicy::Adaptive,
            flow_control: FlowControl::SharedBuffers { buffers_per_port },
            buffer_policy: BufferPolicy::VirtualNetworks,
            workload,
            seed,
            forward_progress: ForwardProgressConfig::default(),
            inject_recovery_every: None,
            perturbation_cycles: 4,
            max_outstanding: usize::MAX,
            traffic: TrafficConfig::default(),
            record_trace: false,
            replay_trace: None,
            fault_config: FaultConfig::Disabled,
            pool_split: None,
            worker_threads: 1,
            worker_threads_pinned: false,
            telemetry: TelemetryConfig::default(),
        }
    }

    /// The shared-pool interconnect of Section 4's third case study: the
    /// virtual-network/channel *structure* of the conventional design (so
    /// routing and fairness are unchanged) but every sizing analysis
    /// replaced by one pool of `total_slots` message slots per node.
    /// Deadlock is possible; it is detected by the transaction timeout
    /// (three checkpoint intervals), confirmed by the fabric watchdog,
    /// broken by SafetyNet recovery, and re-execution runs with per-network
    /// reserved slots ([`ForwardProgressConfig::reserved_slots_per_network`]).
    #[must_use]
    pub fn shared_pool_interconnect(
        workload: WorkloadKind,
        bandwidth: LinkBandwidth,
        total_slots: usize,
        seed: u64,
    ) -> Self {
        Self {
            memory: MemorySystemConfig {
                link_bandwidth: bandwidth,
                ..MemorySystemConfig::default()
            },
            protocol: ProtocolVariant::Speculative,
            routing: RoutingPolicy::Adaptive,
            flow_control: FlowControl::VirtualChannels {
                channels_per_network: 2,
            },
            buffer_policy: BufferPolicy::SharedPool { total_slots },
            workload,
            seed,
            forward_progress: ForwardProgressConfig::default(),
            inject_recovery_every: None,
            perturbation_cycles: 4,
            max_outstanding: usize::MAX,
            traffic: TrafficConfig::default(),
            record_trace: false,
            replay_trace: None,
            fault_config: FaultConfig::Disabled,
            pool_split: None,
            worker_threads: 1,
            worker_threads_pinned: false,
            telemetry: TelemetryConfig::default(),
        }
    }

    /// Sanity-checks the configuration: the memory-system geometry plus the
    /// interconnect buffer policy. Returns human-readable problems (empty
    /// when consistent).
    #[must_use]
    pub fn validate(&self) -> Vec<String> {
        let mut problems = self.memory.validate();
        if let Err(e) = self.traffic.validate() {
            problems.push(e);
        }
        if let BufferPolicy::SharedPool { total_slots } = self.buffer_policy {
            if total_slots == 0 {
                problems.push("shared-pool buffer policy needs at least one slot".to_string());
            }
            let r = self.forward_progress.reserved_slots_per_network;
            if self.forward_progress.reserved_slot_cycles > 0 && r > 0 && total_slots < 4 {
                problems.push(format!(
                    "a {total_slots}-slot pool cannot hold one reserved slot per \
                     virtual network; the post-deadlock reservation would be inert"
                ));
            }
            if let Some((switch, endpoint)) = self.pool_split {
                if switch + endpoint != total_slots {
                    problems.push(format!(
                        "pool split {switch}+{endpoint} does not sum to the \
                         {total_slots}-slot pool"
                    ));
                }
                if switch == 0 || endpoint == 0 {
                    problems.push("a pool split needs at least one slot on each side".to_string());
                }
            }
        } else if self.pool_split.is_some() {
            problems.push("pool_split requires the shared-pool buffer policy".to_string());
        }
        if let FaultConfig::Random { kinds, .. } = &self.fault_config {
            if kinds.is_empty() {
                problems.push("a random fault campaign needs at least one fault kind".to_string());
            }
        }
        problems
    }

    /// The derived interconnect configuration.
    #[must_use]
    pub fn net_config(&self) -> NetConfig {
        let mut cfg = match self.flow_control {
            FlowControl::VirtualChannels {
                channels_per_network,
            } => {
                let mut c =
                    NetConfig::conventional(self.memory.num_nodes, self.memory.link_bandwidth);
                c.flow_control = FlowControl::VirtualChannels {
                    channels_per_network,
                };
                c
            }
            FlowControl::SharedBuffers { buffers_per_port } => NetConfig::speculative(
                self.memory.num_nodes,
                self.memory.link_bandwidth,
                buffers_per_port,
            ),
            FlowControl::WorstCaseBuffering => NetConfig::full_buffering(
                self.memory.num_nodes,
                self.memory.link_bandwidth,
                self.routing,
            ),
        };
        cfg.torus_dims = self.memory.torus_dims;
        cfg.routing = self.routing;
        cfg.switch_latency = self.memory.switch_latency_cycles;
        cfg.buffer_policy = self.buffer_policy;
        if matches!(self.buffer_policy, BufferPolicy::SharedPool { .. }) {
            if let Some((switch, endpoint)) = self.pool_split {
                cfg.pool_slots_switch = Some(switch);
                cfg.pool_slots_endpoint = Some(endpoint);
            }
            // The watchdog must be able to *confirm* a wedged fabric before
            // the three-checkpoint-interval transaction timeout fires, so the
            // engine can classify the timeout as a detected deadlock: give it
            // one checkpoint interval of silence.
            cfg.stall_threshold = cfg
                .stall_threshold
                .min(self.memory.safetynet.checkpoint_interval_cycles.max(1));
        }
        cfg
    }

    /// Returns a copy scaled to `num_nodes` nodes (squarest-torus dims are
    /// re-derived). This is the knob the node-count scaling sweep turns.
    #[must_use]
    pub fn with_nodes(&self, num_nodes: usize) -> Self {
        let mut c = self.clone();
        c.memory.num_nodes = num_nodes;
        c.memory.torus_dims = None;
        c
    }

    /// Returns a copy with a different seed (used for perturbed re-runs).
    #[must_use]
    pub fn with_seed(&self, seed: u64) -> Self {
        let mut c = self.clone();
        c.seed = seed;
        c
    }

    /// Returns a copy with a different worker-thread count for the sharded
    /// network forward phase (`1` = serial forwarding).
    #[must_use]
    pub fn with_workers(&self, worker_threads: usize) -> Self {
        let mut c = self.clone();
        c.worker_threads = worker_threads.max(1);
        c
    }

    /// Returns a copy with the worker count both set and **pinned**: the
    /// `SPECSIM_WORKERS` environment override no longer applies. Use for
    /// runs whose identity depends on the worker count — timing rows,
    /// serial-vs-sharded digest comparisons.
    #[must_use]
    pub fn with_workers_pinned(&self, worker_threads: usize) -> Self {
        let mut c = self.with_workers(worker_threads);
        c.worker_threads_pinned = true;
        c
    }

    /// Returns a copy with the given telemetry knobs (see
    /// [`Self::telemetry`]). Observational only — the simulated schedule is
    /// byte-identical with telemetry on or off.
    #[must_use]
    pub fn with_telemetry(&self, telemetry: TelemetryConfig) -> Self {
        let mut c = self.clone();
        c.telemetry = telemetry;
        c
    }

    /// The worker-thread count a run should actually use: the
    /// `SPECSIM_WORKERS` environment variable when set to a positive
    /// integer, [`Self::worker_threads`] otherwise. The override exists so
    /// CI can force sharded forwarding on across an unmodified test suite
    /// (races cannot hide behind the serial default); a pinned config
    /// ([`Self::worker_threads_pinned`]) is exempt from it.
    #[must_use]
    pub fn effective_worker_threads(&self) -> usize {
        if self.worker_threads_pinned {
            return self.worker_threads.max(1);
        }
        std::env::var("SPECSIM_WORKERS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(self.worker_threads)
            .max(1)
    }

    /// Returns a copy whose shared slot pool is split endpoint-vs-switch:
    /// `switch_slots` back the fabric (input-port buffers and in-transit
    /// reservations), `endpoint_slots` back the ejection queues. The pool
    /// total is re-derived as the sum, so the split is the complete sizing
    /// statement. Panics if the configuration is not shared-pool.
    #[must_use]
    pub fn with_pool_split(&self, switch_slots: usize, endpoint_slots: usize) -> Self {
        assert!(
            matches!(self.buffer_policy, BufferPolicy::SharedPool { .. }),
            "pool split requires the shared-pool buffer policy"
        );
        let mut c = self.clone();
        c.buffer_policy = BufferPolicy::SharedPool {
            total_slots: switch_slots + endpoint_slots,
        };
        c.pool_split = Some((switch_slots, endpoint_slots));
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_the_papers_three_designs() {
        let spec =
            SystemConfig::directory_speculative(WorkloadKind::Oltp, LinkBandwidth::MB_400, 1);
        assert_eq!(spec.protocol, ProtocolVariant::Speculative);
        assert_eq!(spec.routing, RoutingPolicy::Adaptive);
        assert_eq!(spec.flow_control, FlowControl::WorstCaseBuffering);

        let base = SystemConfig::directory_baseline(WorkloadKind::Oltp, LinkBandwidth::MB_400, 1);
        assert_eq!(base.protocol, ProtocolVariant::Full);
        assert_eq!(base.routing, RoutingPolicy::Static);

        let net =
            SystemConfig::simplified_interconnect(WorkloadKind::Jbb, LinkBandwidth::GB_3_2, 16, 1);
        assert_eq!(
            net.flow_control,
            FlowControl::SharedBuffers {
                buffers_per_port: 16
            }
        );
    }

    #[test]
    fn net_config_follows_the_routing_and_flow_control_choices() {
        let cfg =
            SystemConfig::simplified_interconnect(WorkloadKind::Jbb, LinkBandwidth::MB_400, 8, 3);
        let net = cfg.net_config();
        assert_eq!(net.routing, RoutingPolicy::Adaptive);
        assert_eq!(
            net.flow_control,
            FlowControl::SharedBuffers {
                buffers_per_port: 8
            }
        );
        assert_eq!(net.num_nodes, 16);

        let mut base =
            SystemConfig::directory_baseline(WorkloadKind::Jbb, LinkBandwidth::MB_400, 3);
        base.routing = RoutingPolicy::Adaptive;
        assert_eq!(base.net_config().routing, RoutingPolicy::Adaptive);
    }

    #[test]
    fn shared_pool_preset_pools_capacity_and_caps_the_stall_threshold() {
        let cfg = SystemConfig::shared_pool_interconnect(
            WorkloadKind::Oltp,
            LinkBandwidth::MB_400,
            24,
            1,
        );
        assert_eq!(
            cfg.buffer_policy,
            BufferPolicy::SharedPool { total_slots: 24 }
        );
        assert_eq!(cfg.routing, RoutingPolicy::Adaptive);
        assert!(cfg.validate().is_empty());
        let net = cfg.net_config();
        assert_eq!(net.pool_slots(), Some(24));
        // The watchdog must confirm a wedge within one checkpoint interval,
        // well before the three-interval transaction timeout fires (short
        // experiment intervals tighten it; the Table 2 interval leaves the
        // already-shorter default in place).
        assert!(net.stall_threshold <= cfg.memory.safetynet.checkpoint_interval_cycles);
        let mut short = cfg.clone();
        short.memory.safetynet.checkpoint_interval_cycles = 2_000;
        assert_eq!(short.net_config().stall_threshold, 2_000);
        // Unpooled presets carry no pool.
        let base =
            SystemConfig::directory_speculative(WorkloadKind::Oltp, LinkBandwidth::MB_400, 1);
        assert_eq!(base.net_config().pool_slots(), None);
    }

    #[test]
    fn validate_rejects_degenerate_shared_pools() {
        let mut cfg =
            SystemConfig::shared_pool_interconnect(WorkloadKind::Oltp, LinkBandwidth::MB_400, 0, 1);
        assert!(!cfg.validate().is_empty(), "0-slot pool must be rejected");
        cfg.buffer_policy = BufferPolicy::SharedPool { total_slots: 3 };
        assert!(
            !cfg.validate().is_empty(),
            "a pool too small for the reservation measure must be flagged"
        );
        cfg.forward_progress.reserved_slots_per_network = 0;
        assert!(
            cfg.validate().is_empty(),
            "tiny pools are fine once the reservation measure is disabled"
        );
    }

    #[test]
    fn with_pool_split_rederives_the_total_and_validates() {
        let cfg = SystemConfig::shared_pool_interconnect(
            WorkloadKind::Oltp,
            LinkBandwidth::MB_400,
            24,
            1,
        )
        .with_pool_split(18, 6);
        assert_eq!(
            cfg.buffer_policy,
            BufferPolicy::SharedPool { total_slots: 24 }
        );
        assert!(cfg.validate().is_empty());
        let net = cfg.net_config();
        assert_eq!(net.pool_split(), Some((18, 6)));
        assert_eq!(net.pool_slots(), Some(24));
        // A split that disagrees with the pool total is flagged.
        let mut bad = cfg.clone();
        bad.pool_split = Some((1, 1));
        assert!(!bad.validate().is_empty());
        // A split without the shared-pool policy is flagged.
        let mut unpooled =
            SystemConfig::directory_speculative(WorkloadKind::Oltp, LinkBandwidth::MB_400, 1);
        unpooled.pool_split = Some((18, 6));
        assert!(!unpooled.validate().is_empty());
        // Random campaigns need at least one kind to draw from.
        let mut nokinds = cfg.clone();
        nokinds.fault_config = FaultConfig::Random {
            rate_per_mcycle: 100,
            kinds: vec![],
            horizon_cycles: 1_000_000,
        };
        assert!(!nokinds.validate().is_empty());
    }

    #[test]
    fn with_seed_changes_only_the_seed() {
        let a = SystemConfig::directory_speculative(WorkloadKind::Barnes, LinkBandwidth::GB_3_2, 1);
        let b = a.with_seed(99);
        assert_eq!(b.seed, 99);
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.protocol, b.protocol);
    }
}
