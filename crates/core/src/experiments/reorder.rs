//! Section 5.3, speculatively simplified directory protocol results:
//! message-reordering rates per virtual network, recoveries and link
//! utilizations across the link-bandwidth sweep.
//!
//! The paper reports that adaptive routing reordered 0.1–0.2 % of messages
//! on the ForwardedRequest virtual network (the only one whose ordering
//! matters), up to 0.8 % on other virtual networks, that mean link
//! utilizations for static routing were 13–35 %, and that "we observed only
//! a handful of recoveries in all simulations".

use specsim_base::{LinkBandwidth, RoutingPolicy};
use specsim_coherence::types::{MisSpecKind, ProtocolError};
use specsim_net::VirtualNetwork;
use specsim_workloads::{WorkloadKind, ALL_WORKLOADS};

use crate::config::SystemConfig;
use crate::experiments::runner::{measure_directory, ratio, run_mean, ExperimentScale};
use crate::experiments::sweep::{Cell, Column, Sweep, SweepConfig};

/// The bandwidth sweep of the paper (Table 2: 400 MB/s to 3.2 GB/s).
pub const BANDWIDTH_SWEEP: [LinkBandwidth; 4] = [
    LinkBandwidth::MB_400,
    LinkBandwidth::MB_800,
    LinkBandwidth::GB_1_6,
    LinkBandwidth::GB_3_2,
];

/// How long and how often to run each design point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReorderConfig {
    /// Cycles and perturbed seeds per design point.
    pub scale: ExperimentScale,
}

/// Aggregated reorder statistics for one (workload, bandwidth) point.
#[derive(Debug, Clone)]
pub struct ReorderRow {
    /// Workload.
    pub workload: WorkloadKind,
    /// Link bandwidth.
    pub bandwidth: LinkBandwidth,
    /// Fraction of ForwardedRequest-class messages delivered out of order.
    pub fwd_request_reorder_fraction: f64,
    /// Worst reorder fraction over the other three virtual networks.
    pub other_vnet_reorder_fraction: f64,
    /// Fraction of all messages delivered out of order.
    pub total_reorder_fraction: f64,
    /// Ordering mis-speculations detected (recoveries of the Section 3.1
    /// kind) summed over the perturbed runs.
    pub ordering_recoveries: u64,
    /// Mean link utilization under adaptive routing.
    pub link_utilization: f64,
    /// Messages delivered (sum over runs).
    pub messages: u64,
}

impl SweepConfig for ReorderConfig {
    type Row = ReorderRow;
    const TITLE: &'static str =
        "Directory protocol under adaptive routing: reordering and recovery rates";
    const COLUMNS: &'static [Column<ReorderRow>] = &[
        ("workload", "workload", |r| Cell::Label(r.workload.label())),
        ("mb_per_s", "MB/s", |r| {
            Cell::Int(r.bandwidth.megabytes_per_second)
        }),
        ("fwd_request_reorder_pct", "fwd-req reorder%", |r| {
            Cell::Rounded(r.fwd_request_reorder_fraction * 100.0, 4)
        }),
        ("other_vnet_reorder_pct", "other-vnet reorder%", |r| {
            Cell::Rounded(r.other_vnet_reorder_fraction * 100.0, 4)
        }),
        ("total_reorder_pct", "total reorder%", |r| {
            Cell::Rounded(r.total_reorder_fraction * 100.0, 4)
        }),
        ("ordering_recoveries", "recoveries", |r| {
            Cell::Int(r.ordering_recoveries)
        }),
        ("link_utilization_pct", "link util%", |r| {
            Cell::Rounded(r.link_utilization * 100.0, 1)
        }),
        ("messages", "messages", |r| Cell::Int(r.messages)),
    ];

    fn params(sweep: &Sweep<Self>) -> Vec<(&'static str, Cell)> {
        vec![
            ("cycles", Cell::Int(sweep.config.scale.cycles)),
            ("seeds", Cell::Int(sweep.config.scale.seeds)),
        ]
    }
}

/// Runs the speculative directory protocol with adaptive routing for every
/// workload across the bandwidth sweep.
pub fn run(cfg: &ReorderConfig) -> Result<Sweep<ReorderConfig>, ProtocolError> {
    let mut rows = Vec::new();
    for workload in ALL_WORKLOADS {
        for bandwidth in BANDWIDTH_SWEEP {
            let mut sys = SystemConfig::directory_speculative(workload, bandwidth, 3000);
            sys.routing = RoutingPolicy::Adaptive;
            sys.memory.safetynet.checkpoint_interval_cycles = 5_000;
            let runs = measure_directory(&sys, cfg.scale)?;
            let mut delivered = [0u64; 4];
            let mut reordered = [0u64; 4];
            let mut recoveries = 0;
            let mut messages = 0;
            for r in &runs {
                for i in 0..4 {
                    delivered[i] += r.delivered_per_vnet[i];
                    reordered[i] += r.reordered_per_vnet[i];
                }
                recoveries += r.misspeculations_of(MisSpecKind::ForwardedRequestToInvalidCache);
                messages += r.messages_delivered;
            }
            let frac = |vn: VirtualNetwork| {
                ratio(reordered[vn.index()] as f64, delivered[vn.index()] as f64)
            };
            let others = [
                VirtualNetwork::Request,
                VirtualNetwork::Response,
                VirtualNetwork::FinalAck,
            ];
            let other_max = others.iter().map(|&v| frac(v)).fold(0.0, f64::max);
            let total_delivered: u64 = delivered.iter().sum();
            let total_reordered: u64 = reordered.iter().sum();
            rows.push(ReorderRow {
                workload,
                bandwidth,
                fwd_request_reorder_fraction: frac(VirtualNetwork::ForwardedRequest),
                other_vnet_reorder_fraction: other_max,
                total_reorder_fraction: ratio(total_reordered as f64, total_delivered as f64),
                ordering_recoveries: recoveries,
                link_utilization: run_mean(&runs, |r| r.link_utilization),
                messages,
            });
        }
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
    fn reorder_stats_quick_run_reports_small_fractions() {
        let data = run(&ReorderConfig {
            scale: ExperimentScale {
                cycles: 10_000,
                seeds: 1,
            },
        })
        .expect("no protocol errors");
        assert_eq!(data.rows.len(), ALL_WORKLOADS.len() * BANDWIDTH_SWEEP.len());
        for row in &data.rows {
            assert!(row.messages > 100, "too little traffic: {}", row.messages);
            // Reordering is rare (well under a few percent) even at the
            // lowest bandwidth — the paper's central observation.
            assert!(
                row.total_reorder_fraction < 0.05,
                "{} at {} MB/s: reorder fraction {}",
                row.workload.label(),
                row.bandwidth.megabytes_per_second,
                row.total_reorder_fraction
            );
        }
        assert!(data.render().contains("reorder"));
    }
}
