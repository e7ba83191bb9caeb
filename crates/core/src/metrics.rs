//! Run-level metrics and normalized-performance accounting.

use std::fmt;

use specsim_base::{Cycle, EngineMode, Log2Histogram, ALL_ENGINE_MODES, ENGINE_MODE_COUNT};
use specsim_coherence::MisSpecKind;
use specsim_net::VirtualNetwork;

/// Everything measured in one simulation run.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// Simulated cycles executed.
    pub cycles: Cycle,
    /// Memory operations completed across all processors (committed work;
    /// work rolled back by recoveries is not counted).
    pub ops_completed: u64,
    /// Completed loads.
    pub loads: u64,
    /// Completed stores.
    pub stores: u64,
    /// Demand misses (coherence transactions started).
    pub misses: u64,
    /// Total cycles processors spent waiting on misses.
    pub miss_wait_cycles: u64,
    /// Coherence protocol messages delivered by the interconnect.
    pub messages_delivered: u64,
    /// Messages delivered per virtual network.
    pub delivered_per_vnet: [u64; 4],
    /// Messages delivered out of point-to-point order per virtual network.
    pub reordered_per_vnet: [u64; 4],
    /// Mean link utilization over the run (0..1).
    pub link_utilization: f64,
    /// Mis-speculations detected, by kind.
    pub misspeculations: Vec<(MisSpecKind, u64)>,
    /// Recoveries triggered by detected mis-speculations.
    pub recoveries: u64,
    /// The subset of [`RunMetrics::recoveries`] caused by detected
    /// buffer-dependency deadlocks ([`MisSpecKind::BufferDeadlock`]): the
    /// transaction timeout fired and a node's shared slot pool was exhausted
    /// within its window (Section 4's third case study).
    pub deadlock_recoveries: u64,
    /// Recoveries injected artificially (the Figure 4 stress test).
    pub injected_recoveries: u64,
    /// Transient faults actually injected by the fault director (message
    /// fires plus opened fault windows; see [`specsim_base::FaultDirector`]).
    pub faults_injected: u64,
    /// The subset of [`RunMetrics::recoveries`] classified as injected
    /// transient faults ([`MisSpecKind::TransientFault`]), whether caught at
    /// message ingest (checksum/duplicate model) or through the transaction
    /// timeout with fault evidence in the window.
    pub fault_recoveries: u64,
    /// Summed detection latency of fault-classified recoveries: cycles from
    /// the fault's injection to its detection. Mean =
    /// [`RunMetrics::mean_fault_detection_latency`].
    pub fault_detection_latency_cycles: u64,
    /// Cycles of speculative work discarded by recoveries.
    pub lost_work_cycles: u64,
    /// Cycles spent in the recovery procedure itself.
    pub recovery_latency_cycles: u64,
    /// SafetyNet checkpoints taken.
    pub checkpoints: u64,
    /// SafetyNet log entries recorded.
    pub log_entries: u64,
    /// Cycles any node spent stalled on a full SafetyNet log.
    pub log_stall_cycles: u64,
    /// Address-network requests ordered (snooping system only).
    pub bus_requests: u64,
    /// Messages delivered by the point-to-point data network (snooping
    /// system's second fabric; the directory system has a single fabric and
    /// reports it via [`RunMetrics::messages_delivered`]).
    pub data_messages_delivered: u64,
    /// Mean in-fabric latency of data-network deliveries in cycles
    /// (snooping system only).
    pub data_mean_latency_cycles: f64,
    /// Mean link utilization of the data network over the run, 0..1
    /// (snooping system only).
    pub data_link_utilization: f64,
    /// Data-network deliveries by traffic class, indexed by
    /// [`DataClass::index`]: owner/memory→requestor block transfers vs.
    /// writeback data (snooping system only).
    pub data_delivered_per_class: [u64; 2],
    /// Mean in-fabric latency of data-network deliveries by traffic class,
    /// in cycles, indexed like
    /// [`RunMetrics::data_delivered_per_class`].
    pub data_latency_per_class: [f64; 2],
    /// Cycles spent in each [`EngineMode`], indexed by
    /// [`EngineMode::index`] — the availability view of the run (always
    /// recorded; sums to [`RunMetrics::cycles`]).
    pub mode_cycles: [u64; ENGINE_MODE_COUNT],
    /// Per-miss wait-latency distribution, recorded at completion delivery.
    /// Unlike the committed-stats mean ([`RunMetrics::mean_miss_latency`]),
    /// completions later undone by a rollback stay counted: the histogram
    /// observes the speculative execution.
    pub miss_latency: Log2Histogram,
    /// Fault detection-latency distribution (injection → detection cycles)
    /// over fault-classified recoveries.
    pub fault_detection_latency: Log2Histogram,
    /// In-fabric latency distribution per virtual network of the primary
    /// fabric (the directory torus; the snooping system reports its data
    /// torus here).
    pub vnet_latency: [Log2Histogram; 4],
}

/// Traffic classes of the snooping system's point-to-point data network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataClass {
    /// Block data sent to a requestor by the owning cache or home memory.
    OwnerTransfer,
    /// Writeback data sent by an evicting owner to the block's home memory.
    Writeback,
}

/// Both data-network traffic classes, in index order.
pub const ALL_DATA_CLASSES: [DataClass; 2] = [DataClass::OwnerTransfer, DataClass::Writeback];

impl DataClass {
    /// Dense index of this class, `0..2`.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            DataClass::OwnerTransfer => 0,
            DataClass::Writeback => 1,
        }
    }

    /// Short label for statistics output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DataClass::OwnerTransfer => "owner-transfer",
            DataClass::Writeback => "writeback",
        }
    }
}

impl RunMetrics {
    /// Work throughput: completed memory operations per kilo-cycle. This is
    /// the quantity the "normalized performance" figures compare.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.ops_completed as f64 * 1000.0 / self.cycles as f64
        }
    }

    /// Total recoveries (detected plus injected).
    #[must_use]
    pub fn total_recoveries(&self) -> u64 {
        self.recoveries + self.injected_recoveries
    }

    /// Fraction of messages on a virtual network that were delivered out of
    /// point-to-point order.
    #[must_use]
    pub fn reorder_fraction(&self, vnet: VirtualNetwork) -> f64 {
        let d = self.delivered_per_vnet[vnet.index()];
        if d == 0 {
            0.0
        } else {
            self.reordered_per_vnet[vnet.index()] as f64 / d as f64
        }
    }

    /// Fraction of all messages delivered out of order.
    #[must_use]
    pub fn total_reorder_fraction(&self) -> f64 {
        let d: u64 = self.delivered_per_vnet.iter().sum();
        let r: u64 = self.reordered_per_vnet.iter().sum();
        if d == 0 {
            0.0
        } else {
            r as f64 / d as f64
        }
    }

    /// Deadlock mis-speculations detected
    /// ([`MisSpecKind::BufferDeadlock`]); equals
    /// [`RunMetrics::deadlock_recoveries`] since every detection triggers a
    /// recovery.
    #[must_use]
    pub fn deadlocks_detected(&self) -> u64 {
        self.misspeculations_of(MisSpecKind::BufferDeadlock)
    }

    /// Count of mis-speculations of a given kind.
    #[must_use]
    pub fn misspeculations_of(&self, kind: MisSpecKind) -> u64 {
        self.misspeculations
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |(_, n)| *n)
    }

    /// Records one detected mis-speculation.
    pub fn count_misspeculation(&mut self, kind: MisSpecKind) {
        if let Some(entry) = self.misspeculations.iter_mut().find(|(k, _)| *k == kind) {
            entry.1 += 1;
        } else {
            self.misspeculations.push((kind, 1));
        }
    }

    /// Transient-fault mis-speculations detected, summed over every
    /// [`MisSpecKind::TransientFault`] kind; equals
    /// [`RunMetrics::fault_recoveries`] since every detection triggers a
    /// recovery.
    #[must_use]
    pub fn faults_detected(&self) -> u64 {
        self.misspeculations
            .iter()
            .filter(|(k, _)| k.is_transient_fault())
            .map(|(_, n)| *n)
            .sum()
    }

    /// Mean cycles from a fault's injection to its detection, over the
    /// fault-classified recoveries (0 when there were none).
    #[must_use]
    pub fn mean_fault_detection_latency(&self) -> f64 {
        if self.fault_recoveries == 0 {
            0.0
        } else {
            self.fault_detection_latency_cycles as f64 / self.fault_recoveries as f64
        }
    }

    /// Mean demand-miss latency in cycles.
    #[must_use]
    pub fn mean_miss_latency(&self) -> f64 {
        if self.misses == 0 {
            0.0
        } else {
            self.miss_wait_cycles as f64 / self.misses as f64
        }
    }

    /// Fraction of the run's cycles spent in `mode` (0 when the mode
    /// timeline is empty, e.g. a hand-built metrics value).
    #[must_use]
    pub fn mode_fraction(&self, mode: EngineMode) -> f64 {
        let total: u64 = self.mode_cycles.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.mode_cycles[mode.index()] as f64 / total as f64
        }
    }

    /// Fraction of cycles in full-speed normal operation — the paper's
    /// availability metric.
    #[must_use]
    pub fn normal_frac(&self) -> f64 {
        self.mode_fraction(EngineMode::Normal)
    }

    /// Fraction of cycles in the slow-start window after a timeout
    /// recovery.
    #[must_use]
    pub fn slow_start_frac(&self) -> f64 {
        self.mode_fraction(EngineMode::SlowStart)
    }

    /// Fraction of cycles stalled in the recovery (rollback) procedure.
    #[must_use]
    pub fn rollback_frac(&self) -> f64 {
        self.mode_fraction(EngineMode::Rollback)
    }

    /// The human-readable run report (same text as the [`fmt::Display`]
    /// impl).
    #[must_use]
    pub fn summary(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for RunMetrics {
    /// A multi-line run report: throughput, mis-speculation breakdown,
    /// availability fractions and latency percentiles.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cycles            : {} ({} checkpoints, {} log entries)",
            self.cycles, self.checkpoints, self.log_entries
        )?;
        writeln!(
            f,
            "ops completed     : {} ({:.2} ops/kcycle; {} loads, {} stores, {} misses)",
            self.ops_completed, // committed work only
            self.throughput(),
            self.loads,
            self.stores,
            self.misses
        )?;
        writeln!(
            f,
            "miss latency      : committed mean {:.1}; speculative {}",
            self.mean_miss_latency(),
            self.miss_latency.summary()
        )?;
        write!(f, "availability      :")?;
        for mode in ALL_ENGINE_MODES {
            write!(
                f,
                " {} {:.2}%",
                mode.label(),
                100.0 * self.mode_fraction(mode)
            )?;
        }
        writeln!(f)?;
        if self.misspeculations.is_empty() {
            writeln!(f, "misspeculations   : none")?;
        } else {
            write!(f, "misspeculations   :")?;
            for (kind, n) in &self.misspeculations {
                write!(f, " {} x{}", kind.label(), n)?;
            }
            writeln!(f)?;
        }
        writeln!(
            f,
            "recoveries        : {} detected, {} injected ({} lost-work cycles, {} recovery cycles)",
            self.recoveries,
            self.injected_recoveries,
            self.lost_work_cycles,
            self.recovery_latency_cycles
        )?;
        if self.faults_injected > 0 {
            writeln!(
                f,
                "faults            : {} injected, {} detected; detection latency {}",
                self.faults_injected,
                self.faults_detected(),
                self.fault_detection_latency.summary()
            )?;
        }
        writeln!(
            f,
            "fabric            : {} delivered, link utilization {:.4}",
            self.messages_delivered, self.link_utilization
        )?;
        for vnet in specsim_net::ALL_VIRTUAL_NETWORKS {
            let h = &self.vnet_latency[vnet.index()];
            if !h.is_empty() {
                writeln!(f, "  vnet {:<15}: {}", vnet.label(), h.summary())?;
            }
        }
        if self.bus_requests > 0 {
            writeln!(
                f,
                "address bus       : {} requests ordered; data net {} delivered, utilization {:.4}",
                self.bus_requests, self.data_messages_delivered, self.data_link_utilization
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_and_normalization() {
        let base = RunMetrics {
            cycles: 1_000,
            ops_completed: 500,
            ..RunMetrics::default()
        };
        assert!((base.throughput() - 500.0).abs() < 1e-12);
        assert_eq!(RunMetrics::default().throughput(), 0.0);
    }

    #[test]
    fn reorder_fractions() {
        let mut m = RunMetrics::default();
        m.delivered_per_vnet[VirtualNetwork::ForwardedRequest.index()] = 1000;
        m.reordered_per_vnet[VirtualNetwork::ForwardedRequest.index()] = 2;
        m.delivered_per_vnet[VirtualNetwork::Response.index()] = 1000;
        assert!((m.reorder_fraction(VirtualNetwork::ForwardedRequest) - 0.002).abs() < 1e-12);
        assert_eq!(m.reorder_fraction(VirtualNetwork::Response), 0.0);
        assert!((m.total_reorder_fraction() - 0.001).abs() < 1e-12);
    }

    #[test]
    fn misspeculation_counting() {
        let mut m = RunMetrics::default();
        m.count_misspeculation(MisSpecKind::TransactionTimeout);
        m.count_misspeculation(MisSpecKind::TransactionTimeout);
        m.count_misspeculation(MisSpecKind::ForwardedRequestToInvalidCache);
        assert_eq!(m.misspeculations_of(MisSpecKind::TransactionTimeout), 2);
        assert_eq!(
            m.misspeculations_of(MisSpecKind::ForwardedRequestToInvalidCache),
            1
        );
        assert_eq!(m.misspeculations_of(MisSpecKind::WritebackDoubleRace), 0);
    }

    #[test]
    fn deadlock_detection_counts_track_buffer_deadlock_misspecs() {
        let mut m = RunMetrics::default();
        assert_eq!(m.deadlocks_detected(), 0);
        m.count_misspeculation(MisSpecKind::BufferDeadlock);
        m.count_misspeculation(MisSpecKind::TransactionTimeout);
        m.count_misspeculation(MisSpecKind::BufferDeadlock);
        assert_eq!(m.deadlocks_detected(), 2);
        assert_eq!(m.misspeculations_of(MisSpecKind::TransactionTimeout), 1);
    }

    #[test]
    fn data_class_indices_and_labels_are_dense_and_distinct() {
        let mut seen = [false; 2];
        for c in ALL_DATA_CLASSES {
            assert!(!seen[c.index()]);
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_ne!(
            DataClass::OwnerTransfer.label(),
            DataClass::Writeback.label()
        );
    }

    #[test]
    fn fault_detection_counters_aggregate_across_kinds() {
        use specsim_base::FaultKind;
        let mut m = RunMetrics::default();
        assert_eq!(m.faults_detected(), 0);
        assert_eq!(m.mean_fault_detection_latency(), 0.0);
        m.count_misspeculation(MisSpecKind::TransientFault {
            kind: FaultKind::Drop,
        });
        m.count_misspeculation(MisSpecKind::TransientFault {
            kind: FaultKind::Corrupt,
        });
        m.count_misspeculation(MisSpecKind::TransientFault {
            kind: FaultKind::Drop,
        });
        m.count_misspeculation(MisSpecKind::TransactionTimeout);
        assert_eq!(m.faults_detected(), 3);
        m.fault_recoveries = 3;
        m.fault_detection_latency_cycles = 4_500;
        assert!((m.mean_fault_detection_latency() - 1_500.0).abs() < 1e-12);
    }

    #[test]
    fn mean_miss_latency_guarded_against_zero() {
        let mut m = RunMetrics::default();
        assert_eq!(m.mean_miss_latency(), 0.0);
        m.misses = 10;
        m.miss_wait_cycles = 5000;
        assert!((m.mean_miss_latency() - 500.0).abs() < 1e-12);
    }
}
