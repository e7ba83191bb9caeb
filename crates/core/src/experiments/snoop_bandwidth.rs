//! Snooping-system data-network bandwidth sweep.
//!
//! The paper's Fig. 5 studies link bandwidth (400 MB/s vs. 3.2 GB/s) on the
//! directory machine; Table 2's snooping machine has the same link-bandwidth
//! range on its *data* network, but the paper never sweeps it. With the data
//! network modelled as a real torus ([`crate::SystemConfig::net_config`])
//! the axis opens on the snooping side too: this experiment runs the
//! snooping system across data-network link bandwidths spanning
//! 400 MB/s → 3.2 GB/s (under both routing policies, since the data network
//! is unordered and may route adaptively — only the address bus carries the
//! total order) and records, per design point:
//!
//! * **throughput** — committed memory operations per kilo-cycle
//!   (mean ± std over perturbed seeds, Section 5.2 methodology),
//! * **mean miss latency** — cycles a processor waits per demand miss; the
//!   quantity data-network contention inflates at low bandwidth,
//! * **data-network stats** — mean in-fabric latency of data packets and
//!   mean link utilization of the data torus (per-fabric stats; the address
//!   bus is reported separately as ordered requests).
//!
//! The `snoop_bandwidth_sweep` bench binary renders the table and writes the
//! rows as machine-readable `BENCH_snoop_bandwidth.json`.

use specsim_base::{CycleDelta, LinkBandwidth, ProtocolVariant, RoutingPolicy};
use specsim_coherence::types::ProtocolError;
use specsim_workloads::WorkloadKind;

use crate::config::SystemConfig;
use crate::experiments::runner::{
    measure_snooping, measurement_of, run_mean, throughput_measurement, ExperimentScale,
    Measurement,
};
use crate::experiments::sweep::{Cell, Column, Sweep, SweepConfig};
use crate::metrics::RunMetrics;

/// The bandwidths every sweep visits, quick or full: the Table 2 range,
/// doubling from 400 MB/s to 3.2 GB/s (the axis is the point of the
/// artifact).
pub const BANDWIDTHS: [LinkBandwidth; 4] = [
    LinkBandwidth::MB_400,
    LinkBandwidth::MB_800,
    LinkBandwidth::GB_1_6,
    LinkBandwidth::GB_3_2,
];

/// The Table 2 machine's address-network arbitration interval (cycles
/// between consecutive bus grants). The sweep runs only this one: a larger
/// interval exposes the address-network bottleneck the paper's snooping
/// machines hit at scale — the bus serializes every coherence request
/// regardless of how fast the data torus gets — which is a different
/// experiment from the data-network axis.
pub const BUS_INTERVAL: CycleDelta = 8;

/// Workload of every design point.
pub const WORKLOAD: WorkloadKind = WorkloadKind::Oltp;

/// What to sweep: which routing policies, and how long/often to run each
/// design point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnoopBandwidthConfig {
    /// Data-network routing policies to visit (the data network is
    /// unordered, so adaptive routing is legal on it).
    pub routings: Vec<RoutingPolicy>,
    /// Cycles and perturbed seeds per design point.
    pub scale: ExperimentScale,
}

impl Default for SnoopBandwidthConfig {
    /// The full sweep: the four [`BANDWIDTHS`] × both routing policies at the
    /// environment-controlled scale (`SPECSIM_CYCLES` / `SPECSIM_SEEDS`).
    fn default() -> Self {
        Self {
            routings: vec![RoutingPolicy::Static, RoutingPolicy::Adaptive],
            scale: ExperimentScale::from_env(),
        }
    }
}

impl SnoopBandwidthConfig {
    /// A CI-sized sweep: every bandwidth point but static routing only, few
    /// seeds, short runs.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            routings: vec![RoutingPolicy::Static],
            scale: ExperimentScale {
                cycles: 20_000,
                seeds: 2,
            },
        }
    }
}

/// One design point of the sweep: a data-network bandwidth × routing policy.
#[derive(Debug, Clone)]
pub struct SnoopBandwidthRow {
    /// Data-network link bandwidth of this design point.
    pub bandwidth: LinkBandwidth,
    /// Data-network routing policy of this design point.
    pub routing: RoutingPolicy,
    /// Committed operations per kilo-cycle, over the perturbed seeds.
    pub throughput: Measurement,
    /// Mean demand-miss latency in cycles, over the perturbed seeds.
    pub miss_latency: Measurement,
    /// Mean in-fabric latency of data-network packets (cycles, averaged over
    /// runs).
    pub data_latency_cycles: f64,
    /// Mean link utilization of the data torus (0..1, averaged over runs).
    pub data_link_utilization: f64,
    /// Address-network requests ordered, summed over runs (the other
    /// fabric's traffic volume, for scale).
    pub bus_requests: u64,
}

/// The completed sweep: one row per (bandwidth, routing), routing policies
/// nested inside.
pub type SnoopBandwidthData = Sweep<SnoopBandwidthConfig>;

impl SweepConfig for SnoopBandwidthConfig {
    type Row = SnoopBandwidthRow;
    const TITLE: &'static str =
        "Snooping data-network bandwidth sweep (speculative snooping, 400 MB/s -> 3.2 GB/s)";
    const COLUMNS: &'static [Column<SnoopBandwidthRow>] = &[
        ("mb_per_s", "MB/s", |r| {
            Cell::Int(r.bandwidth.megabytes_per_second)
        }),
        ("routing", "routing", |r| Cell::Label(r.routing.label())),
        ("bus_interval", "bus-int", |_| Cell::Int(BUS_INTERVAL)),
        ("throughput", "ops/kcycle", |r| {
            Cell::Measurement(r.throughput)
        }),
        ("miss_latency", "miss-latency", |r| {
            Cell::Measurement(r.miss_latency)
        }),
        ("data_latency_cycles", "data-latency", |r| {
            Cell::Float(r.data_latency_cycles)
        }),
        ("data_link_utilization", "data-util", |r| {
            Cell::Float(r.data_link_utilization)
        }),
        ("bus_requests", "bus-requests", |r| {
            Cell::Int(r.bus_requests)
        }),
    ];

    fn params(sweep: &SnoopBandwidthData) -> Vec<(&'static str, Cell)> {
        let cfg = &sweep.config;
        vec![
            ("cycles", Cell::Int(cfg.scale.cycles)),
            ("seeds", Cell::Int(cfg.scale.seeds)),
            ("workload", Cell::Label(WORKLOAD.label())),
        ]
    }
}

/// The Table 2 snooping machine with its data network at `bandwidth` under
/// `routing`.
fn design_point(bandwidth: LinkBandwidth, routing: RoutingPolicy) -> SystemConfig {
    let mut sys = SystemConfig::new(WORKLOAD, ProtocolVariant::Speculative, 4000)
        .with_data_bandwidth(bandwidth);
    sys.routing = routing;
    sys.bus_arbitration_interval = BUS_INTERVAL;
    sys.memory.safetynet.checkpoint_interval_requests = 500;
    sys
}

/// Runs the sweep: every bandwidth under every configured routing policy,
/// each design point through the perturbed-seed sharded runner.
pub fn run(cfg: &SnoopBandwidthConfig) -> Result<SnoopBandwidthData, ProtocolError> {
    let mut rows = Vec::with_capacity(BANDWIDTHS.len() * cfg.routings.len());
    for bandwidth in BANDWIDTHS {
        for &routing in &cfg.routings {
            let runs = measure_snooping(&design_point(bandwidth, routing), cfg.scale)?;
            rows.push(SnoopBandwidthRow {
                bandwidth,
                routing,
                throughput: throughput_measurement(&runs),
                miss_latency: measurement_of(&runs, RunMetrics::mean_miss_latency),
                data_latency_cycles: run_mean(&runs, |r| r.data_mean_latency_cycles),
                data_link_utilization: run_mean(&runs, |r| r.data_link_utilization),
                bus_requests: runs.iter().map(|r| r.bus_requests).sum(),
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
    fn full_sweep_spans_the_table_2_bandwidth_range() {
        assert_eq!(BANDWIDTHS.len(), 4);
        assert_eq!(BANDWIDTHS.first(), Some(&LinkBandwidth::MB_400));
        assert_eq!(BANDWIDTHS.last(), Some(&LinkBandwidth::GB_3_2));
    }

    #[test]
    fn bus_arbitration_axis_exposes_the_address_network_bottleneck() {
        // A slow bus (one grant per 64 cycles) throttles ordered requests no
        // matter how fast the data torus is: throughput must not improve and
        // the bus must order clearly fewer requests per cycle than the
        // Table 2 machine.
        let scale = ExperimentScale {
            cycles: 15_000,
            seeds: 1,
        };
        let fast_cfg = design_point(LinkBandwidth::GB_3_2, RoutingPolicy::Static);
        let mut slow_cfg = fast_cfg.clone();
        slow_cfg.bus_arbitration_interval = 64;
        let fast_bus = &measure_snooping(&fast_cfg, scale).expect("no protocol errors")[0];
        let slow_bus = &measure_snooping(&slow_cfg, scale).expect("no protocol errors")[0];
        assert!(
            slow_bus.bus_requests < fast_bus.bus_requests,
            "a 64-cycle bus must order fewer requests ({} vs {})",
            slow_bus.bus_requests,
            fast_bus.bus_requests
        );
        assert!(slow_bus.throughput() <= fast_bus.throughput());
        assert!(slow_bus.mean_miss_latency() > fast_bus.mean_miss_latency());
    }

    #[test]
    fn tiny_sweep_separates_the_bandwidth_endpoints() {
        let cfg = SnoopBandwidthConfig {
            routings: vec![RoutingPolicy::Static],
            scale: ExperimentScale {
                cycles: 15_000,
                seeds: 1,
            },
        };
        let data = run(&cfg).expect("no protocol errors");
        assert_eq!(data.rows.len(), BANDWIDTHS.len());
        let slow = &data.rows[0];
        let fast = &data.rows[BANDWIDTHS.len() - 1];
        assert_eq!(slow.bandwidth, LinkBandwidth::MB_400);
        assert_eq!(fast.bandwidth, LinkBandwidth::GB_3_2);
        // The low-bandwidth machine must show clearly higher miss latency
        // and no better throughput (Fig. 5's premise, snooping side).
        assert!(
            slow.miss_latency.mean > fast.miss_latency.mean,
            "miss latency: {} vs {}",
            slow.miss_latency.mean,
            fast.miss_latency.mean
        );
        assert!(slow.throughput.mean <= fast.throughput.mean);
        assert!(slow.data_latency_cycles > fast.data_latency_cycles);
        let txt = data.render();
        assert!(txt.contains("400") && txt.contains("3200"));
        let json = data.to_json();
        assert!(json.contains("\"mb_per_s\": 400") && json.contains("\"mb_per_s\": 3200"));
        assert!(json.contains("\"miss_latency_mean\""));
        assert!(json.contains("\"bus_interval\": 8"));
    }
}
