//! Section 5.3, simplified interconnection network results: the buffer-size
//! sweep.
//!
//! The speculative interconnect removes virtual channels/networks and shares
//! one buffer pool per port. The paper compares it against the same protocol
//! on a worst-case-buffered network and reports "steady performance for
//! systems with buffer sizes at and above 16 but a sharp dropoff in
//! performance for systems with buffers of size 8. Deadlocks do not occur in
//! any of our workloads until we reduce buffer sizing from 16 to 8."

use specsim_base::LinkBandwidth;
use specsim_coherence::types::{MisSpecKind, ProtocolError};
use specsim_workloads::WorkloadKind;

use crate::config::SystemConfig;
use crate::experiments::runner::{
    measure_directory, measurement_of, ratio, throughput_measurement, ExperimentScale, Measurement,
};
use crate::experiments::sweep::{Cell, Column, Sweep, SweepConfig};

/// The buffer sizes swept (the paper discusses 16 and 8; 64/32 confirm the
/// plateau and 4/2 extend the sweep below the paper's smallest point).
pub const BUFFER_SIZES: [usize; 6] = [64, 32, 16, 8, 4, 2];

/// Link bandwidth of the sweep: the low-bandwidth operating point (the one
/// Figure 5 uses). With 400 MB/s links the network actually queues, so
/// buffer capacity is the binding resource it is in the paper. At 3.2 GB/s
/// the synthetic workloads never stress the buffers and every size looks
/// identical.
pub const BANDWIDTH: LinkBandwidth = LinkBandwidth::MB_400;

/// Which workload to sweep and how long/often to run each design point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferSweepConfig {
    /// Workload of every design point.
    pub workload: WorkloadKind,
    /// Cycles and perturbed seeds per design point.
    pub scale: ExperimentScale,
}

/// One row of the sweep.
#[derive(Debug, Clone)]
pub struct BufferSweepRow {
    /// Buffers per switch port / endpoint queue (`None` = the worst-case
    /// buffering baseline).
    pub buffers_per_port: Option<usize>,
    /// Performance normalized to the worst-case-buffering baseline.
    pub normalized_performance: Measurement,
    /// Deadlock recoveries (transaction-timeout mis-speculations) summed over
    /// the perturbed runs.
    pub deadlock_recoveries: u64,
}

impl SweepConfig for BufferSweepConfig {
    type Row = BufferSweepRow;
    const TITLE: &'static str =
        "Simplified interconnect buffer sweep (no virtual channels/networks; adaptive routing)";
    const COLUMNS: &'static [Column<BufferSweepRow>] = &[
        ("buffers_per_port", "buffers/port", |r| {
            r.buffers_per_port
                .map_or(Cell::Label("worst-case"), |s| Cell::Int(s as u64))
        }),
        ("normalized", "normalized-perf", |r| {
            Cell::Measurement(r.normalized_performance)
        }),
        ("deadlock_recoveries", "deadlock recoveries", |r| {
            Cell::Int(r.deadlock_recoveries)
        }),
    ];

    fn params(sweep: &Sweep<Self>) -> Vec<(&'static str, Cell)> {
        let cfg = &sweep.config;
        vec![
            ("workload", Cell::Label(cfg.workload.label())),
            ("mb_per_s", Cell::Int(BANDWIDTH.megabytes_per_second)),
            ("cycles", Cell::Int(cfg.scale.cycles)),
            ("seeds", Cell::Int(cfg.scale.seeds)),
        ]
    }
}

/// Runs the sweep: the worst-case-buffering baseline, then every buffer
/// size normalized to it.
pub fn run(cfg: &BufferSweepConfig) -> Result<Sweep<BufferSweepConfig>, ProtocolError> {
    // Baseline: worst-case buffering (deadlock structurally impossible
    // without virtual channels).
    let mut base_cfg = SystemConfig::directory_speculative(cfg.workload, BANDWIDTH, 4000);
    base_cfg.memory.safetynet.checkpoint_interval_cycles = 5_000;
    let base_runs = measure_directory(&base_cfg, cfg.scale)?;
    let baseline = throughput_measurement(&base_runs).mean;
    let mut rows = vec![BufferSweepRow {
        buffers_per_port: None,
        normalized_performance: measurement_of(&base_runs, |r| ratio(r.throughput(), baseline)),
        deadlock_recoveries: 0,
    }];
    for size in BUFFER_SIZES {
        let mut sys = SystemConfig::simplified_interconnect(cfg.workload, BANDWIDTH, size, 4000);
        sys.memory.safetynet.checkpoint_interval_cycles = 5_000;
        let runs = measure_directory(&sys, cfg.scale)?;
        rows.push(BufferSweepRow {
            buffers_per_port: Some(size),
            normalized_performance: measurement_of(&runs, |r| ratio(r.throughput(), baseline)),
            deadlock_recoveries: runs
                .iter()
                .map(|r| r.misspeculations_of(MisSpecKind::TransactionTimeout))
                .sum(),
        });
    }
    Ok(Sweep {
        config: cfg.clone(),
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_sweep_quick_run_shows_plateau_at_large_buffers() {
        let sweep = run(&BufferSweepConfig {
            workload: WorkloadKind::Jbb,
            scale: ExperimentScale {
                cycles: 20_000,
                seeds: 1,
            },
        })
        .expect("no protocol errors");
        assert_eq!(sweep.rows.len(), BUFFER_SIZES.len() + 1);
        // Ample shared buffering performs close to worst-case buffering.
        let r32 = &sweep.rows[2];
        assert_eq!(r32.buffers_per_port, Some(32));
        assert!(
            r32.normalized_performance.mean > 0.7,
            "32-entry buffers should be near the baseline, got {}",
            r32.normalized_performance.mean
        );
        assert_eq!(r32.deadlock_recoveries, 0);
        assert!(sweep.render().contains("worst-case"));
    }
}
