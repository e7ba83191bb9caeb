//! Fig. 5 crossover sweep: static vs. adaptive routing across a
//! fine-grained link-bandwidth axis.
//!
//! The paper evaluates the speculative directory system at two operating
//! points (400 MB/s, where adaptive routing wins on instantaneous link
//! utilization, and 3.2 GB/s, where links are fast enough that routing
//! freedom stops mattering). This sweep fills in the axis between them —
//! 400 → 3200 MB/s in six steps, static and adaptive at every point — and
//! locates the **crossover**: the bandwidth at which adaptive routing's
//! advantage (normalized throughput ratio adaptive/static) decays to 1.0.
//!
//! The `fig5_crossover_sweep` bench renders the series and writes
//! `BENCH_fig5_crossover.json`. Figure 5 itself is the 400 MB/s point of
//! this sweep, run once per workload by the `fig5_adaptive_vs_static`
//! bench.

use specsim_base::{LinkBandwidth, RoutingPolicy};
use specsim_coherence::types::ProtocolError;
use specsim_workloads::WorkloadKind;

use crate::config::SystemConfig;
use crate::experiments::runner::{
    measure_directory, ratio, run_mean, throughput_measurement, ExperimentScale, Measurement,
};
use crate::experiments::sweep::{Cell, Column, Sweep, SweepConfig};

/// The six-step bandwidth axis of the crossover sweep (MB/s).
pub const CROSSOVER_BANDWIDTHS: [LinkBandwidth; 6] = [
    LinkBandwidth::MB_400,
    LinkBandwidth::MB_800,
    LinkBandwidth {
        megabytes_per_second: 1200,
    },
    LinkBandwidth::GB_1_6,
    LinkBandwidth {
        megabytes_per_second: 2400,
    },
    LinkBandwidth::GB_3_2,
];

/// What to sweep and how long/often to run each design point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig5CrossoverConfig {
    /// Link bandwidths to visit, in ascending order.
    pub bandwidths: Vec<LinkBandwidth>,
    /// Workload to run at every design point.
    pub workload: WorkloadKind,
    /// Cycles and perturbed seeds per design point.
    pub scale: ExperimentScale,
}

impl Default for Fig5CrossoverConfig {
    fn default() -> Self {
        Self {
            bandwidths: CROSSOVER_BANDWIDTHS.to_vec(),
            workload: WorkloadKind::Oltp,
            scale: ExperimentScale::from_env(),
        }
    }
}

impl Fig5CrossoverConfig {
    /// A CI-sized sweep: the whole axis (locating the crossover is the
    /// point), few seeds, short runs.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            bandwidths: CROSSOVER_BANDWIDTHS.to_vec(),
            workload: WorkloadKind::Oltp,
            scale: ExperimentScale {
                cycles: 20_000,
                seeds: 2,
            },
        }
    }
}

/// One bandwidth point of the sweep.
#[derive(Debug, Clone)]
pub struct Fig5CrossoverRow {
    /// Link bandwidth of this design point.
    pub bandwidth: LinkBandwidth,
    /// Static-routing throughput (ops/kcycle) over the perturbed seeds.
    pub static_throughput: Measurement,
    /// Adaptive-routing throughput (ops/kcycle) over the perturbed seeds.
    pub adaptive_throughput: Measurement,
    /// Adaptive throughput normalized to static (the Fig. 5 quantity;
    /// > 1.0 means adaptive wins at this bandwidth).
    pub adaptive_over_static: f64,
    /// Recoveries observed with adaptive routing, summed over runs.
    pub adaptive_recoveries: u64,
    /// Mean link utilization under static routing.
    pub static_link_utilization: f64,
}

/// The completed sweep: one row per bandwidth, in sweep order.
pub type Fig5CrossoverData = Sweep<Fig5CrossoverConfig>;

impl SweepConfig for Fig5CrossoverConfig {
    type Row = Fig5CrossoverRow;
    const TITLE: &'static str =
        "Fig. 5 crossover sweep (static vs. adaptive routing, speculative directory system)";
    const COLUMNS: &'static [Column<Fig5CrossoverRow>] = &[
        ("mb_per_s", "MB/s", |r| {
            Cell::Int(r.bandwidth.megabytes_per_second)
        }),
        ("static", "static ops/kcycle", |r| {
            Cell::Measurement(r.static_throughput)
        }),
        ("adaptive", "adaptive ops/kcycle", |r| {
            Cell::Measurement(r.adaptive_throughput)
        }),
        ("adaptive_over_static", "adaptive/static", |r| {
            Cell::Float(r.adaptive_over_static)
        }),
        ("adaptive_recoveries", "recoveries", |r| {
            Cell::Int(r.adaptive_recoveries)
        }),
        ("static_link_utilization", "static util", |r| {
            Cell::Float(r.static_link_utilization)
        }),
    ];

    fn params(sweep: &Fig5CrossoverData) -> Vec<(&'static str, Cell)> {
        let cfg = &sweep.config;
        vec![
            ("workload", Cell::Label(cfg.workload.label())),
            ("cycles", Cell::Int(cfg.scale.cycles)),
            ("seeds", Cell::Int(cfg.scale.seeds)),
            (
                "crossover_mb_per_s",
                sweep
                    .crossover_mb_per_s()
                    .map_or(Cell::Null, |x| Cell::Rounded(x, 1)),
            ),
        ]
    }
}

/// Runs the sweep: both routing policies at every bandwidth, each design
/// point through the perturbed-seed sharded runner.
pub fn run(cfg: &Fig5CrossoverConfig) -> Result<Fig5CrossoverData, ProtocolError> {
    let mut rows = Vec::with_capacity(cfg.bandwidths.len());
    for &bandwidth in &cfg.bandwidths {
        let mut static_cfg = SystemConfig::directory_speculative(cfg.workload, bandwidth, 5000);
        static_cfg.routing = RoutingPolicy::Static;
        static_cfg.memory.safetynet.checkpoint_interval_cycles = 5_000;
        let mut adaptive_cfg = static_cfg.clone();
        adaptive_cfg.routing = RoutingPolicy::Adaptive;

        let static_runs = measure_directory(&static_cfg, cfg.scale)?;
        let adaptive_runs = measure_directory(&adaptive_cfg, cfg.scale)?;
        let static_throughput = throughput_measurement(&static_runs);
        let adaptive_throughput = throughput_measurement(&adaptive_runs);
        rows.push(Fig5CrossoverRow {
            bandwidth,
            adaptive_over_static: ratio(adaptive_throughput.mean, static_throughput.mean),
            static_throughput,
            adaptive_throughput,
            adaptive_recoveries: adaptive_runs.iter().map(|r| r.recoveries).sum(),
            static_link_utilization: run_mean(&static_runs, |r| r.link_utilization),
        });
    }
    Ok(Sweep {
        config: cfg.clone(),
        rows,
    })
}

impl Fig5CrossoverData {
    /// The bandwidth (MB/s, linearly interpolated between sweep points) at
    /// which the adaptive/static ratio first crosses 1.0 from above, or
    /// `None` when one policy dominates across the whole axis. A point where
    /// static routing committed nothing (its ratio reads 0) is no crossing.
    #[must_use]
    pub fn crossover_mb_per_s(&self) -> Option<f64> {
        for pair in self.rows.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            let (ra, rb) = (a.adaptive_over_static - 1.0, b.adaptive_over_static - 1.0);
            if ra > 0.0 && rb <= 0.0 && b.static_throughput.mean > 0.0 {
                let xa = a.bandwidth.megabytes_per_second as f64;
                let xb = b.bandwidth.megabytes_per_second as f64;
                return Some(xa + (xb - xa) * ra / (ra - rb));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_spans_the_papers_range_in_six_steps() {
        let cfg = Fig5CrossoverConfig::default();
        assert_eq!(cfg.bandwidths.len(), 6);
        assert_eq!(cfg.bandwidths.first(), Some(&LinkBandwidth::MB_400));
        assert_eq!(cfg.bandwidths.last(), Some(&LinkBandwidth::GB_3_2));
        let mbs: Vec<u64> = cfg
            .bandwidths
            .iter()
            .map(|b| b.megabytes_per_second)
            .collect();
        let mut sorted = mbs.clone();
        sorted.sort_unstable();
        assert_eq!(mbs, sorted, "axis must be ascending");
        assert_eq!(Fig5CrossoverConfig::quick().bandwidths.len(), 6);
    }

    #[test]
    fn crossover_interpolates_the_sign_change() {
        let throughput = |mean: f64| Measurement {
            mean,
            std_dev: 0.0,
            runs: 1,
        };
        let row = |mb: u64, ratio: f64| Fig5CrossoverRow {
            bandwidth: LinkBandwidth {
                megabytes_per_second: mb,
            },
            static_throughput: throughput(1.0),
            adaptive_throughput: throughput(ratio),
            adaptive_over_static: ratio,
            adaptive_recoveries: 0,
            static_link_utilization: 0.0,
        };
        let data = Fig5CrossoverData {
            rows: vec![row(400, 1.2), row(800, 1.1), row(1600, 0.9)],
            config: Fig5CrossoverConfig::quick(),
        };
        // Crossing between 800 (+0.1) and 1600 (-0.1): midpoint 1200.
        let x = data.crossover_mb_per_s().expect("a crossover exists");
        assert!((x - 1200.0).abs() < 1e-9, "got {x}");
        let none = Fig5CrossoverData {
            rows: vec![row(400, 1.2), row(1600, 1.05)],
            ..data
        };
        assert_eq!(none.crossover_mb_per_s(), None);
        assert!(none.render().contains("crossover_mb_per_s: null"));
        // A point where static routing committed nothing reads 0, which is
        // no measured ratio and so no crossing.
        let mut idle = row(800, 0.0);
        idle.static_throughput = throughput(0.0);
        let zero_baseline = Fig5CrossoverData {
            rows: vec![row(400, 1.2), idle],
            ..none
        };
        assert_eq!(zero_baseline.crossover_mb_per_s(), None);
    }

    #[test]
    fn two_point_sweep_runs_and_serialises() {
        let cfg = Fig5CrossoverConfig {
            bandwidths: vec![LinkBandwidth::MB_400, LinkBandwidth::GB_3_2],
            workload: WorkloadKind::Oltp,
            scale: ExperimentScale {
                cycles: 15_000,
                seeds: 1,
            },
        };
        let data = run(&cfg).expect("no protocol errors");
        assert_eq!(data.rows.len(), 2);
        for r in &data.rows {
            assert!(r.static_throughput.mean > 0.0);
            assert!(r.adaptive_over_static > 0.3, "{}", r.adaptive_over_static);
            assert!((0.0..=1.0).contains(&r.static_link_utilization));
        }
        // Throughput must not degrade as links get faster.
        assert!(data.rows[1].static_throughput.mean >= data.rows[0].static_throughput.mean);
        let json = data.to_json();
        assert!(json.contains("\"mb_per_s\": 400") && json.contains("\"mb_per_s\": 3200"));
        assert!(json.contains("crossover_mb_per_s"));
        assert!(data.render().contains("Fig. 5 crossover"));
    }
}
