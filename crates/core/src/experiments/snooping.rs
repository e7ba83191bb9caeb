//! Section 5.3, speculatively simplified snooping protocol results.
//!
//! "We tested the speculatively simplified snooping coherence protocol on our
//! set of commercial workloads, and all of them ran to completion without
//! needing to recover even once from reaching the edge case. Thus,
//! performance of the protocol mirrors, for these workloads, that of the
//! fully designed protocol."
//!
//! The comparison below runs both variants on every workload and reports the
//! corner-case recovery count (expected: zero) and the speculative variant's
//! performance relative to the fully designed one (expected: ≈1.0). A
//! directed scenario — driving a single cache controller through the exact
//! double-race — confirms that detection *would* fire if the corner case
//! were ever reached.

use specsim_base::{BlockAddr, MemorySystemConfig, NodeId, ProtocolVariant};
use specsim_coherence::snoop::msg::SnoopDataMsg;
use specsim_coherence::snoop::{SnoopCacheController, SnoopRequest};
use specsim_coherence::types::{CpuAccess, CpuRequest, MisSpecKind, ProtocolError};
use specsim_coherence::CacheController;
use specsim_workloads::{WorkloadKind, ALL_WORKLOADS};

use crate::config::SystemConfig;
use crate::experiments::runner::{
    measure_snooping, measurement_of, ratio, throughput_measurement, ExperimentScale, Measurement,
};
use crate::experiments::sweep::{Cell, Column, Sweep, SweepConfig};

/// How long and how often to run each design point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnoopingConfig {
    /// Cycles and perturbed seeds per design point.
    pub scale: ExperimentScale,
}

/// One workload's comparison of the full and speculative snooping protocols.
#[derive(Debug, Clone)]
pub struct SnoopingRow {
    /// Workload.
    pub workload: WorkloadKind,
    /// Speculative-variant performance normalized to the full variant.
    pub speculative_normalized: Measurement,
    /// Corner-case (writeback double race) recoveries across all perturbed
    /// runs of the speculative variant.
    pub corner_case_recoveries: u64,
    /// Coherence requests ordered on the address network (speculative runs).
    pub bus_requests: u64,
    /// Writebacks are the exposure events for this speculation; counted from
    /// the speculative runs' stores as a proxy for scale.
    pub stores: u64,
}

impl SweepConfig for SnoopingConfig {
    type Row = SnoopingRow;
    const TITLE: &'static str =
        "Speculatively simplified snooping protocol vs. fully designed protocol";
    const COLUMNS: &'static [Column<SnoopingRow>] = &[
        ("workload", "workload", |r| Cell::Label(r.workload.label())),
        ("speculative_over_full", "speculative/full", |r| {
            Cell::Measurement(r.speculative_normalized)
        }),
        ("corner_case_recoveries", "corner-case recoveries", |r| {
            Cell::Int(r.corner_case_recoveries)
        }),
        ("bus_requests", "bus requests", |r| {
            Cell::Int(r.bus_requests)
        }),
        ("stores", "stores", |r| Cell::Int(r.stores)),
    ];

    /// The header also reports the directed corner-case check: the
    /// workloads never reach the corner case, so the check shows that
    /// detection would fire if they did.
    fn params(sweep: &Sweep<Self>) -> Vec<(&'static str, Cell)> {
        let directed = if directed_corner_case_detected() {
            "detected"
        } else {
            "NOT DETECTED"
        };
        vec![
            ("cycles", Cell::Int(sweep.config.scale.cycles)),
            ("seeds", Cell::Int(sweep.config.scale.seeds)),
            ("directed_corner_case", Cell::Label(directed)),
        ]
    }
}

/// Runs both protocol variants on every workload.
pub fn run(cfg: &SnoopingConfig) -> Result<Sweep<SnoopingConfig>, ProtocolError> {
    let mut rows = Vec::new();
    for workload in ALL_WORKLOADS {
        let mut full_cfg = SystemConfig::new(workload, ProtocolVariant::Full, 5000);
        full_cfg.memory.safetynet.checkpoint_interval_requests = 500;
        let mut spec_cfg = full_cfg.clone();
        spec_cfg.protocol = ProtocolVariant::Speculative;

        let full_runs = measure_snooping(&full_cfg, cfg.scale)?;
        let spec_runs = measure_snooping(&spec_cfg, cfg.scale)?;
        let baseline = throughput_measurement(&full_runs).mean;
        rows.push(SnoopingRow {
            workload,
            speculative_normalized: measurement_of(&spec_runs, |r| ratio(r.throughput(), baseline)),
            corner_case_recoveries: spec_runs
                .iter()
                .map(|r| r.misspeculations_of(MisSpecKind::WritebackDoubleRace))
                .sum(),
            bus_requests: spec_runs.iter().map(|r| r.bus_requests).sum(),
            stores: spec_runs.iter().map(|r| r.stores).sum(),
        });
    }
    Ok(Sweep {
        config: cfg.clone(),
        rows,
    })
}

/// Drives a lone speculative cache controller through the exact corner
/// case of Section 3.2 and reports whether it detects the
/// mis-speculation. This is the "detection works" half of the argument;
/// the workload runs provide the "it never happens in practice" half.
#[must_use]
pub fn directed_corner_case_detected() -> bool {
    let cfg = MemorySystemConfig {
        l1_bytes: 4 * 64,
        l1_ways: 2,
        l2_bytes: 8 * 64,
        l2_ways: 2,
        ..MemorySystemConfig::default()
    };
    let mut cache = SnoopCacheController::new(NodeId(1), ProtocolVariant::Speculative, &cfg);
    let addr = BlockAddr(0x40);
    // Become the owner of the block.
    cache.cpu_request(
        0,
        CpuRequest {
            addr,
            access: CpuAccess::Store,
            store_value: 7,
        },
    );
    cache.pop_bus_request();
    cache
        .observe_snoop(1, NodeId(1), SnoopRequest::GetM { addr })
        .expect("own request");
    cache
        .handle_data(2, SnoopDataMsg::Data { addr, data: 0 })
        .expect("fill");
    cache.take_completed();
    // Start a writeback, then observe two foreign RequestForReadWrites
    // before the writeback is ordered.
    cache.force_evict(addr);
    cache.pop_bus_request();
    let first = cache
        .observe_snoop(4, NodeId(2), SnoopRequest::GetM { addr })
        .expect("first foreign GetM");
    let second = cache
        .observe_snoop(5, NodeId(3), SnoopRequest::GetM { addr })
        .expect("second foreign GetM");
    first.is_none() && second.is_some_and(|m| m.kind == MisSpecKind::WritebackDoubleRace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directed_corner_case_is_detected() {
        assert!(directed_corner_case_detected());
    }

    #[test]
    fn snooping_comparison_quick_run_shows_no_corner_case_recoveries() {
        let cmp = run(&SnoopingConfig {
            scale: ExperimentScale {
                cycles: 10_000,
                seeds: 1,
            },
        })
        .expect("no protocol errors");
        assert_eq!(cmp.rows.len(), ALL_WORKLOADS.len());
        for row in &cmp.rows {
            assert_eq!(row.corner_case_recoveries, 0);
            assert!(
                row.speculative_normalized.mean > 0.8 && row.speculative_normalized.mean < 1.2,
                "{}: {}",
                row.workload.label(),
                row.speculative_normalized.mean
            );
        }
        let txt = cmp.render();
        assert!(txt.contains("snooping") && txt.contains("directed_corner_case: detected"));
    }
}
