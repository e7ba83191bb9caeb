//! Full-system configuration: one [`SystemConfig`] describes a run on
//! either machine. The two differ only in the interconnect the protocol
//! speculates on (Table 2): the directory machine's torus is the snooping
//! machine's data network, described by the same routing and buffering
//! fields, and the snooping machine adds the ordered address bus, whose
//! grant interval is the one field only it reads.
//!
//! Only parameters some experiment varies are fields. The Table 2 values
//! nothing varies are constants beside the one module that reads each (the
//! docs of [`MemorySystemConfig`] and [`specsim_base::SafetyNetConfig`] say
//! where), and the three forward-progress measures share one window,
//! [`SystemConfig::forward_progress_window`].

use std::sync::Arc;

use specsim_base::{
    CycleDelta, FaultConfig, LinkBandwidth, MemorySystemConfig, ProtocolVariant, RoutingPolicy,
    TelemetryConfig,
};
use specsim_net::{Buffering, NetConfig, PoolSlots, ALL_VIRTUAL_NETWORKS};
use specsim_workloads::{Trace, TrafficConfig, WorkloadKind};

/// Configuration of one full-system simulation run, on either machine
/// (Table 2 describes both in one parameter table). The directory machine
/// runs its protocol over the torus [`Self::net_config`] describes; the
/// snooping machine runs the same torus as its point-to-point data network
/// beside the ordered address bus, which alone reads
/// [`Self::bus_arbitration_interval`] and checkpoints every
/// `memory.safetynet.checkpoint_interval_requests` ordered requests.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Memory-system parameters (Table 2 defaults).
    pub memory: MemorySystemConfig,
    /// Which coherence-protocol variant to run (Full or Speculative).
    pub protocol: ProtocolVariant,
    /// Routing policy of the torus (the snooping machine's data network).
    pub routing: RoutingPolicy,
    /// Buffer design of the torus: the deadlock-free virtual channels or
    /// worst-case buffering, or one of Section 4's speculative designs
    /// (shared buffers, a shared slot pool), in which deadlock becomes
    /// possible and is detected by transaction timeout.
    pub buffering: Buffering,
    /// Snooping machine only: cycles between consecutive address-network
    /// grants (the ordered bus's bandwidth).
    pub bus_arbitration_interval: CycleDelta,
    /// Workload to run.
    pub workload: WorkloadKind,
    /// Top-level seed; every generator, perturbation and arbitration draw is
    /// derived from it.
    pub seed: u64,
    /// Forward progress (Section 2, feature 4): cycles a recovery's
    /// re-execution runs under the measure its cause calls for — adaptive
    /// routing disabled after a reorder (Section 3.1), slots reserved for
    /// every virtual network after a buffer deadlock (Section 4), or
    /// slow-start with one coherence transaction outstanding system-wide
    /// (Sections 3.2 and 4). `0` disables the measures.
    pub forward_progress_window: CycleDelta,
    /// If set, inject a recovery every this many cycles regardless of
    /// mis-speculations (the stress test of Figure 4).
    pub inject_recovery_every: Option<CycleDelta>,
    /// Production-traffic shaping applied to every node's synthetic
    /// generator: an optional Zipfian hot-block overlay and an optional
    /// bursty injection-rate modulation. The unshaped default is
    /// bit-identical to the historical generators.
    pub traffic: TrafficConfig,
    /// Record every accepted memory operation into a replayable trace
    /// (retrieve it with `SystemEngine::recorded_trace`).
    pub record_trace: bool,
    /// Drive the processors from a recorded trace instead of the synthetic
    /// generators (deterministic replay; `workload` and `traffic` are
    /// ignored for op generation).
    pub replay_trace: Option<Arc<Trace>>,
    /// Transient-fault injection schedule for chaos campaigns (disabled by
    /// default), applied to the torus (the snooping machine's address bus
    /// stays ideal — it is the protocol's logical time base). A
    /// [`FaultConfig::Random`] is lowered to an explicit plan from
    /// [`Self::seed`] before the run starts, so the same `(seed,
    /// fault_config)` pair always replays bit-identically.
    pub fault_config: FaultConfig,
    /// Telemetry knobs (windowed time-series sampler + lifecycle event
    /// trace). Disabled by default; purely observational — the simulated
    /// schedule is byte-identical with telemetry on or off.
    pub telemetry: TelemetryConfig,
}

/// The name the frozen benchmark harness (`perfbench/`) still uses for the
/// snooping machine's configuration. Nothing in this workspace may use it.
pub type SnoopSystemConfig = SystemConfig;

impl Default for SystemConfig {
    /// The paper's primary evaluated machine: the speculative directory
    /// system of Section 3.1 (Table 2 memory parameters, 3.2 GB/s links,
    /// adaptive routing) running the OLTP workload with seed 1.
    fn default() -> Self {
        Self::directory_speculative(WorkloadKind::Oltp, LinkBandwidth::GB_3_2, 1)
    }
}

impl SystemConfig {
    /// The Table 2 machine running `workload` under `protocol`: Table 2
    /// memory parameters, a worst-case-buffered torus with static routing,
    /// and an address-bus grant every 8 cycles. This is the snooping
    /// machine's default; the directory presets below derive from it.
    #[must_use]
    pub fn new(workload: WorkloadKind, protocol: ProtocolVariant, seed: u64) -> Self {
        Self {
            memory: MemorySystemConfig::default(),
            protocol,
            routing: RoutingPolicy::Static,
            buffering: Buffering::Unbounded,
            bus_arbitration_interval: 8,
            workload,
            seed,
            forward_progress_window: 200_000,
            inject_recovery_every: None,
            traffic: TrafficConfig::default(),
            record_trace: false,
            replay_trace: None,
            fault_config: FaultConfig::Disabled,
            telemetry: TelemetryConfig::default(),
        }
    }

    /// The paper's baseline directory-protocol system: 16 nodes, adaptive
    /// routing isolated from deadlock concerns by full buffering
    /// (footnote 1), speculative reliance on point-to-point ordering. The
    /// other directory presets are this machine with one design choice
    /// changed.
    #[must_use]
    pub fn directory_speculative(
        workload: WorkloadKind,
        bandwidth: LinkBandwidth,
        seed: u64,
    ) -> Self {
        let mut cfg = Self::new(workload, ProtocolVariant::Speculative, seed);
        cfg.memory.link_bandwidth = bandwidth;
        cfg.routing = RoutingPolicy::Adaptive;
        cfg
    }

    /// The non-speculative reference system: full protocol, static
    /// dimension-order routing, conventional virtual-channel interconnect.
    #[must_use]
    pub fn directory_baseline(workload: WorkloadKind, bandwidth: LinkBandwidth, seed: u64) -> Self {
        Self {
            protocol: ProtocolVariant::Full,
            routing: RoutingPolicy::Static,
            buffering: Buffering::VirtualChannels,
            ..Self::directory_speculative(workload, bandwidth, seed)
        }
    }

    /// The speculatively simplified interconnect of Section 4: no virtual
    /// channels/networks, one shared `depth`-message buffer per port,
    /// deadlock detected by transaction timeout and resolved by recovery.
    #[must_use]
    pub fn simplified_interconnect(
        workload: WorkloadKind,
        bandwidth: LinkBandwidth,
        depth: usize,
        seed: u64,
    ) -> Self {
        Self {
            buffering: Buffering::SharedBuffers { depth },
            ..Self::directory_speculative(workload, bandwidth, seed)
        }
    }

    /// The shared-pool interconnect of Section 4's third case study: the
    /// virtual-network/channel *structure* of the conventional design (so
    /// routing and fairness are unchanged) but every sizing analysis
    /// replaced by one pool of `total_slots` message slots per node.
    /// Deadlock is possible; it is detected by the transaction timeout
    /// (three checkpoint intervals) and classified as a buffer deadlock when
    /// a pool is exhausted, broken by SafetyNet recovery, and re-execution
    /// runs with a slot reserved for each virtual network.
    #[must_use]
    pub fn shared_pool_interconnect(
        workload: WorkloadKind,
        bandwidth: LinkBandwidth,
        total_slots: usize,
        seed: u64,
    ) -> Self {
        Self {
            buffering: Buffering::SharedPool {
                virtual_channels: true,
                slots: PoolSlots::Unified(total_slots),
            },
            ..Self::directory_speculative(workload, bandwidth, seed)
        }
    }

    /// Returns a copy whose torus runs at `bandwidth`. On the snooping
    /// machine this is the data network's half of the paper's 400 MB/s →
    /// 3.2 GB/s link-bandwidth axis: the address bus has its own timing.
    #[must_use]
    pub fn with_data_bandwidth(&self, bandwidth: LinkBandwidth) -> Self {
        let mut c = self.clone();
        c.memory.link_bandwidth = bandwidth;
        c
    }

    /// Returns a copy whose torus runs the Section 4 shared-pool
    /// speculation without virtual channels: adaptive routing, one
    /// individually unbounded buffer per port, each node bounded by one pool
    /// of `total_slots` slots shared by every traffic class. On the
    /// snooping machine that pools owner transfers and writebacks.
    /// Buffer-dependency deadlock becomes possible; the engine's detection
    /// (transaction timeout + pool exhaustion) and reserved-slot recovery
    /// handle it, so this knob is all a sweep needs to turn.
    #[must_use]
    pub fn with_pooled_data_torus(&self, total_slots: usize) -> Self {
        let mut c = self.clone();
        c.routing = RoutingPolicy::Adaptive;
        c.buffering = Buffering::SharedPool {
            virtual_channels: false,
            slots: PoolSlots::Unified(total_slots),
        };
        c
    }

    /// Sanity-checks the configuration: the memory-system geometry,
    /// traffic shaping, the torus's buffer design and the fault campaign.
    /// Returns human-readable problems (empty when consistent).
    #[must_use]
    pub fn validate(&self) -> Vec<String> {
        let mut problems = self.memory.validate();
        if let Err(e) = self.traffic.validate() {
            problems.push(e);
        }
        if let Some(slots) = self.buffering.pool_slots() {
            match slots {
                PoolSlots::Unified(0) => {
                    problems.push("a shared pool needs at least one slot".to_string());
                }
                PoolSlots::Split { switch, endpoint } if switch == 0 || endpoint == 0 => {
                    problems.push("a pool split needs at least one slot on each side".to_string());
                }
                _ => {}
            }
            let total = slots.total();
            if self.forward_progress_window > 0 && total < ALL_VIRTUAL_NETWORKS.len() {
                problems.push(format!(
                    "a {total}-slot pool cannot hold one reserved slot per virtual \
                     network; the post-deadlock reservation would be inert"
                ));
            }
        }
        if let FaultConfig::Random { kinds, .. } = &self.fault_config {
            if kinds.is_empty() {
                problems.push("a random fault campaign needs at least one fault kind".to_string());
            }
        }
        problems
    }

    /// The torus the machine instantiates (the snooping machine's data
    /// network): geometry and link bandwidth from [`Self::memory`], routing and
    /// buffer design from [`Self::routing`] and [`Self::buffering`].
    #[must_use]
    pub fn net_config(&self) -> NetConfig {
        NetConfig {
            torus_dims: self.memory.torus_dims,
            ..NetConfig::new(
                self.memory.num_nodes,
                self.memory.link_bandwidth,
                self.routing,
                self.buffering,
            )
        }
    }

    /// [`Self::net_config`], under the name the frozen benchmark harness
    /// (`perfbench/`) still calls. Nothing in this workspace may call it.
    #[must_use]
    pub fn data_net_config(&self) -> NetConfig {
        self.net_config()
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

    /// Returns a clone, under the signature the frozen benchmark harness
    /// (`perfbench/`) still calls. It exists only for that harness: the
    /// simulator has no worker threads, so `workers` must be `1`, and
    /// nothing in this workspace may call it.
    #[must_use]
    pub fn with_workers_pinned(&self, workers: usize) -> Self {
        assert_eq!(workers, 1, "a simulation runs on one thread");
        self.clone()
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(slots: PoolSlots) -> Buffering {
        Buffering::SharedPool {
            virtual_channels: true,
            slots,
        }
    }

    #[test]
    fn presets_match_the_papers_three_designs() {
        let spec =
            SystemConfig::directory_speculative(WorkloadKind::Oltp, LinkBandwidth::MB_400, 1);
        assert_eq!(spec.protocol, ProtocolVariant::Speculative);
        assert_eq!(spec.routing, RoutingPolicy::Adaptive);
        assert_eq!(spec.buffering, Buffering::Unbounded);

        let base = SystemConfig::directory_baseline(WorkloadKind::Oltp, LinkBandwidth::MB_400, 1);
        assert_eq!(base.protocol, ProtocolVariant::Full);
        assert_eq!(base.routing, RoutingPolicy::Static);
        assert_eq!(base.buffering, Buffering::VirtualChannels);

        let net =
            SystemConfig::simplified_interconnect(WorkloadKind::Jbb, LinkBandwidth::GB_3_2, 16, 1);
        assert_eq!(net.buffering, Buffering::SharedBuffers { depth: 16 });
    }

    #[test]
    fn net_config_follows_the_routing_and_flow_control_choices() {
        let cfg =
            SystemConfig::simplified_interconnect(WorkloadKind::Jbb, LinkBandwidth::MB_400, 8, 3);
        let net = cfg.net_config();
        assert_eq!(net.routing, RoutingPolicy::Adaptive);
        assert_eq!(net.buffering, Buffering::SharedBuffers { depth: 8 });
        assert_eq!(net.num_nodes, 16);

        let mut base =
            SystemConfig::directory_baseline(WorkloadKind::Jbb, LinkBandwidth::MB_400, 3);
        base.routing = RoutingPolicy::Adaptive;
        assert_eq!(base.net_config().routing, RoutingPolicy::Adaptive);
    }

    #[test]
    fn net_config_of_each_preset_is_the_matching_network_preset() {
        let bw = LinkBandwidth::MB_400;
        let w = WorkloadKind::Oltp;
        assert_eq!(
            SystemConfig::directory_baseline(w, bw, 1).net_config(),
            NetConfig::conventional(16, bw)
        );
        assert_eq!(
            SystemConfig::simplified_interconnect(w, bw, 8, 1).net_config(),
            NetConfig::speculative(16, bw, 8)
        );
        assert_eq!(
            SystemConfig::directory_speculative(w, bw, 1).net_config(),
            NetConfig::full_buffering(16, bw, RoutingPolicy::Adaptive)
        );
        assert_eq!(
            SystemConfig::shared_pool_interconnect(w, bw, 24, 1).net_config(),
            NetConfig::shared_pool(16, bw, 24)
        );
        // The snooping machine's default data torus, and its pooled variant.
        let base = SystemConfig::new(w, ProtocolVariant::Speculative, 1).with_data_bandwidth(bw);
        assert_eq!(
            base.net_config(),
            NetConfig::full_buffering(16, bw, RoutingPolicy::Static)
        );
        let unified = Buffering::SharedPool {
            virtual_channels: false,
            slots: PoolSlots::Unified(16),
        };
        assert_eq!(
            base.with_pooled_data_torus(16).net_config(),
            NetConfig::new(16, bw, RoutingPolicy::Adaptive, unified)
        );
    }

    #[test]
    fn shared_pool_preset_pools_capacity() {
        let cfg = SystemConfig::shared_pool_interconnect(
            WorkloadKind::Oltp,
            LinkBandwidth::MB_400,
            24,
            1,
        );
        assert_eq!(cfg.buffering, pool(PoolSlots::Unified(24)));
        assert_eq!(cfg.routing, RoutingPolicy::Adaptive);
        assert!(cfg.validate().is_empty());
        let net = cfg.net_config();
        assert_eq!(net.buffering.pool_slots(), Some(PoolSlots::Unified(24)));
        // Unpooled presets carry no pool.
        let base =
            SystemConfig::directory_speculative(WorkloadKind::Oltp, LinkBandwidth::MB_400, 1);
        assert_eq!(base.net_config().buffering.pool_slots(), None);
    }

    #[test]
    fn validate_rejects_degenerate_shared_pools() {
        let mut cfg =
            SystemConfig::shared_pool_interconnect(WorkloadKind::Oltp, LinkBandwidth::MB_400, 0, 1);
        assert!(!cfg.validate().is_empty(), "0-slot pool must be rejected");
        cfg.buffering = pool(PoolSlots::Unified(3));
        assert!(
            !cfg.validate().is_empty(),
            "a pool too small for the reservation measure must be flagged"
        );
        cfg.forward_progress_window = 0;
        assert!(
            cfg.validate().is_empty(),
            "tiny pools are fine once the reservation measure is disabled"
        );
    }

    #[test]
    fn pool_split_validates_each_side() {
        let mut cfg = SystemConfig::shared_pool_interconnect(
            WorkloadKind::Oltp,
            LinkBandwidth::MB_400,
            24,
            1,
        );
        let split = PoolSlots::Split {
            switch: 18,
            endpoint: 6,
        };
        cfg.buffering = pool(split);
        assert!(cfg.validate().is_empty());
        assert_eq!(cfg.net_config().buffering.pool_slots(), Some(split));
        // Each side of a split needs a slot.
        let mut bad = cfg.clone();
        bad.buffering = pool(PoolSlots::Split {
            switch: 24,
            endpoint: 0,
        });
        assert!(!bad.validate().is_empty());
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
