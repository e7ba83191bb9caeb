//! Heavy-traffic sweep: outstanding misses × address skew × injection shape.
//!
//! The paper's workloads (Section 5.1) run on out-of-order MOSI processors
//! that keep issuing past outstanding misses, against commercial memory
//! streams with hot shared data and bursty arrival. This sweep opens those
//! three axes on the 16-node speculative directory machine and records how
//! each moves throughput and the in-vivo mis-speculation rate:
//!
//! * **outstanding** — MSHR entries per node
//!   ([`specsim_base::MemorySystemConfig::mshr_entries`]): 1 is the blocking
//!   miss stream every earlier experiment used; >1 keeps a node's
//!   transaction window full, the precondition for meaningful contention,
//! * **skew** — uniform private/shared mixing vs. a Zipfian hot-block
//!   overlay ([`specsim_workloads::ZipfConfig`]) that concentrates a
//!   fraction of all accesses onto a few contended read-write blocks,
//! * **injection shape** — steady arrival vs. bursty on/off modulation
//!   ([`specsim_workloads::BurstConfig`]) that conserves the mean rate while
//!   synchronising demand peaks across nodes.
//!
//! The point of the artifact (`BENCH_heavy_traffic.json`, written by the
//! `heavy_traffic_sweep` bench) is the mis-speculation column: under the
//! blocking uniform baseline it is zero — the speculative recovery path is
//! exercised only by hand-built scenario tests — while the heavy corners
//! drive detected mis-speculations (adaptive-routing ordering races and
//! congestion timeouts) through the same SafetyNet recovery the paper
//! measures, in vivo.

use specsim_base::{LinkBandwidth, ProtocolVariant, RoutingPolicy};
use specsim_coherence::types::ProtocolError;
use specsim_workloads::{BurstConfig, TrafficConfig, WorkloadKind, ZipfConfig};

use crate::config::SystemConfig;
use crate::experiments::runner::{
    measure_directory, measurement_of, misspec_per_mcycle, ratio, throughput_measurement,
    ExperimentScale, Measurement,
};
use crate::experiments::sweep::{Cell, Column, Sweep, SweepConfig};

/// Workload of the heavy-traffic sweep and of the fault-tolerance campaign.
pub const WORKLOAD: WorkloadKind = WorkloadKind::Oltp;

/// Link bandwidth of the heavy-traffic operating point: the paper's low
/// end, where buffer capacity and contention (and hence the
/// mis-speculation machinery) bind, and where the fabric decides a fault's
/// blast radius.
pub const BANDWIDTH: LinkBandwidth = LinkBandwidth::MB_400;

/// Machine size of the heavy-traffic operating point: the paper's 16-node
/// machine. Under heavy traffic it pressures undersized pools on its own,
/// so the shared-pool deadlock threshold lands at the 8→16-slot boundary.
pub const NUM_NODES: usize = 16;

/// MSHR entries per node at the heavy-traffic operating point:
/// non-blocking processors keep enough transactions in flight to fill small
/// pools and for injected faults to hit. One entry is the blocking miss
/// stream that never pressured an 8-slot pool.
pub const MSHR_ENTRIES: usize = 4;

/// Which machine a design point runs on: the directory system over its
/// coherence torus, or the snooping system, whose torus is the
/// point-to-point data network beside the ordered address bus (the bus
/// buffers nothing, so only the torus can be pooled, faulted or wedged).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Machine {
    /// Directory protocol over the coherence torus.
    Directory,
    /// Snooping protocol; the torus is its data network.
    Snooping,
}

impl Machine {
    /// Short label used in tables and JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Directory => "directory",
            Self::Snooping => "snooping",
        }
    }
}

/// The heavy-traffic operating point on `machine`: the speculative protocol
/// on [`NUM_NODES`] nodes at [`BANDWIDTH`], [`MSHR_ENTRIES`] MSHRs per node,
/// [`heavy_traffic`] shaping and a 5 000-cycle checkpoint interval. The
/// directory machine routes adaptively; the snooping machine's data network
/// keeps Table 2's static routing.
#[must_use]
pub fn heavy_machine(machine: Machine, workload: WorkloadKind, seed: u64) -> SystemConfig {
    let mut sys =
        SystemConfig::new(workload, ProtocolVariant::Speculative, seed).with_nodes(NUM_NODES);
    if machine == Machine::Directory {
        sys.routing = RoutingPolicy::Adaptive;
    }
    sys.memory.link_bandwidth = BANDWIDTH;
    sys.memory.mshr_entries = MSHR_ENTRIES;
    sys.memory.safetynet.checkpoint_interval_cycles = 5_000;
    sys.traffic = heavy_traffic();
    sys
}

/// The canonical heavy Zipfian overlay: a quarter of every node's accesses
/// land on 128 hot shared read-write blocks under unit skew. Empirically
/// this is the contention knee: enough hot-block chaining to wedge
/// undersized shared pools and starve transactions past the timeout at the
/// low-bandwidth operating point, while stronger skew collapses even
/// conservatively-buffered machines into pure starvation. Shared by this
/// sweep's skewed shapes and by the heavy re-runs of the scaling and
/// shared-buffer sweeps.
#[must_use]
pub fn heavy_zipf() -> ZipfConfig {
    ZipfConfig {
        hot_blocks: 128,
        skew: 1.0,
        fraction: 0.25,
    }
}

/// The canonical heavy burst shape: an eighth-duty square wave, boosted 4×
/// in the peaks — synchronized demand spikes across all nodes (the troughs
/// are scaled down so the mean injection rate is conserved — see
/// [`BurstConfig::trough_level`]).
#[must_use]
pub fn heavy_burst() -> BurstConfig {
    BurstConfig {
        period_cycles: 4_000,
        duty: 0.125,
        boost: 4.0,
    }
}

/// The canonical fully-shaped heavy traffic: Zipfian hot blocks *and*
/// bursty injection together.
#[must_use]
pub fn heavy_traffic() -> TrafficConfig {
    TrafficShape::ZipfianBursty.traffic()
}

/// One injection shape of the sweep's third axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficShape {
    /// The historical generators untouched: uniform mixing, steady rate.
    Uniform,
    /// Zipfian hot-block overlay ([`heavy_zipf`]), steady rate.
    Zipfian,
    /// Uniform mixing under bursty modulation ([`heavy_burst`]).
    Bursty,
    /// Both together ([`heavy_traffic`]): the production-shaped corner.
    ZipfianBursty,
}

/// Every shape, in sweep order (mildest first).
pub const ALL_SHAPES: [TrafficShape; 4] = [
    TrafficShape::Uniform,
    TrafficShape::Zipfian,
    TrafficShape::Bursty,
    TrafficShape::ZipfianBursty,
];

impl TrafficShape {
    /// Short label used in tables and JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Uniform => "uniform",
            Self::Zipfian => "zipf",
            Self::Bursty => "bursty",
            Self::ZipfianBursty => "zipf+bursty",
        }
    }

    /// The generator shaping this shape stands for.
    #[must_use]
    pub fn traffic(self) -> TrafficConfig {
        TrafficConfig {
            zipf: matches!(self, Self::Zipfian | Self::ZipfianBursty).then(heavy_zipf),
            burst: matches!(self, Self::Bursty | Self::ZipfianBursty).then(heavy_burst),
        }
    }
}

/// What to sweep and how long/often to run each design point.
#[derive(Debug, Clone, PartialEq)]
pub struct HeavyTrafficConfig {
    /// MSHR entries per node to visit (the outstanding-miss axis).
    pub mshr_entries: Vec<usize>,
    /// Injection shapes to visit.
    pub shapes: Vec<TrafficShape>,
    /// Cycles and perturbed seeds per design point.
    pub scale: ExperimentScale,
}

impl Default for HeavyTrafficConfig {
    /// The full grid: 1/2/4/8 MSHRs × all four shapes on the 16-node OLTP
    /// machine at 400 MB/s, at the environment-controlled scale.
    fn default() -> Self {
        Self {
            mshr_entries: vec![1, 2, 4, 8],
            shapes: ALL_SHAPES.to_vec(),
            scale: ExperimentScale::from_env(),
        }
    }
}

impl HeavyTrafficConfig {
    /// A CI-sized grid: the blocking baseline and the heaviest MSHR count,
    /// mildest and heaviest shapes, few seeds, short runs.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            mshr_entries: vec![1, 4],
            shapes: vec![TrafficShape::Uniform, TrafficShape::ZipfianBursty],
            scale: ExperimentScale {
                cycles: 20_000,
                seeds: 2,
            },
        }
    }
}

/// One design point of the sweep.
#[derive(Debug, Clone)]
pub struct HeavyTrafficRow {
    /// MSHR entries per node at this design point.
    pub mshr_entries: usize,
    /// Injection shape at this design point.
    pub shape: TrafficShape,
    /// Committed operations per kilo-cycle over the perturbed seeds.
    pub throughput: Measurement,
    /// Demand misses per kilo-cycle over the perturbed seeds (how hard the
    /// coherence machinery is actually driven).
    pub misses_per_kcycle: Measurement,
    /// Detected mis-speculations per million simulated cycles.
    pub misspec_per_mcycle: Measurement,
    /// All mis-speculation recoveries, summed over the perturbed runs.
    pub recoveries: u64,
}

/// The completed sweep: one row per (MSHR count, shape), MSHR counts in
/// sweep order with the shapes nested inside.
pub type HeavyTrafficData = Sweep<HeavyTrafficConfig>;

impl SweepConfig for HeavyTrafficConfig {
    type Row = HeavyTrafficRow;
    const TITLE: &'static str =
        "Heavy-traffic sweep (outstanding x skew x injection shape; adaptive routing)";
    const COLUMNS: &'static [Column<HeavyTrafficRow>] = &[
        ("mshr_entries", "mshr", |r| Cell::Int(r.mshr_entries as u64)),
        ("shape", "shape", |r| Cell::Label(r.shape.label())),
        ("throughput", "ops/kcycle", |r| {
            Cell::Measurement(r.throughput)
        }),
        ("misses_per_kcycle", "misses/kcycle", |r| {
            Cell::Measurement(r.misses_per_kcycle)
        }),
        ("misspec_per_mcycle", "misspec/Mcycle", |r| {
            Cell::Measurement(r.misspec_per_mcycle)
        }),
        ("recoveries", "recoveries", |r| Cell::Int(r.recoveries)),
    ];

    fn params(sweep: &HeavyTrafficData) -> Vec<(&'static str, Cell)> {
        let cfg = &sweep.config;
        vec![
            ("workload", Cell::Label(WORKLOAD.label())),
            ("mb_per_s", Cell::Int(BANDWIDTH.megabytes_per_second)),
            ("num_nodes", Cell::Int(NUM_NODES as u64)),
            ("cycles", Cell::Int(cfg.scale.cycles)),
            ("seeds", Cell::Int(cfg.scale.seeds)),
        ]
    }
}

fn design_point(mshr: usize, shape: TrafficShape) -> SystemConfig {
    let mut sys = heavy_machine(Machine::Directory, WORKLOAD, 9000);
    sys.memory.mshr_entries = mshr;
    sys.traffic = shape.traffic();
    sys
}

/// Runs the grid: every MSHR count × every shape, each design point through
/// the perturbed-seed sharded runner.
pub fn run(cfg: &HeavyTrafficConfig) -> Result<HeavyTrafficData, ProtocolError> {
    let mut rows = Vec::with_capacity(cfg.mshr_entries.len() * cfg.shapes.len());
    for &mshr in &cfg.mshr_entries {
        for &shape in &cfg.shapes {
            let runs = measure_directory(&design_point(mshr, shape), cfg.scale)?;
            rows.push(HeavyTrafficRow {
                mshr_entries: mshr,
                shape,
                throughput: throughput_measurement(&runs),
                misses_per_kcycle: measurement_of(&runs, |r| {
                    ratio(r.misses as f64 * 1e3, r.cycles as f64)
                }),
                misspec_per_mcycle: measurement_of(&runs, misspec_per_mcycle),
                recoveries: runs.iter().map(|r| r.recoveries).sum(),
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
    fn shapes_map_to_the_canonical_heavy_knobs() {
        assert_eq!(TrafficShape::Uniform.traffic(), TrafficConfig::default());
        assert!(TrafficShape::Uniform.traffic().is_unshaped());
        assert_eq!(TrafficShape::Zipfian.traffic().zipf, Some(heavy_zipf()));
        assert_eq!(TrafficShape::Zipfian.traffic().burst, None);
        assert_eq!(TrafficShape::Bursty.traffic().burst, Some(heavy_burst()));
        assert_eq!(TrafficShape::ZipfianBursty.traffic(), heavy_traffic());
        heavy_traffic()
            .validate()
            .expect("canonical knobs validate");
        for shape in ALL_SHAPES {
            assert!(!shape.label().is_empty());
        }
    }

    #[test]
    fn default_grid_covers_all_three_axes() {
        let cfg = HeavyTrafficConfig::default();
        assert!(cfg.mshr_entries.contains(&1) && cfg.mshr_entries.iter().any(|&m| m > 1));
        assert_eq!(cfg.shapes, ALL_SHAPES.to_vec());
        // Quick mode keeps the blocking baseline and the heaviest corner.
        let quick = HeavyTrafficConfig::quick();
        assert!(quick.mshr_entries.contains(&1));
        assert!(quick.shapes.contains(&TrafficShape::ZipfianBursty));
        // Both machines' heavy operating points validate; only the
        // directory machine routes adaptively.
        for (machine, routing) in [
            (Machine::Directory, RoutingPolicy::Adaptive),
            (Machine::Snooping, RoutingPolicy::Static),
        ] {
            let sys = heavy_machine(machine, WORKLOAD, 1);
            assert!(sys.validate().is_empty());
            assert_eq!(sys.routing, routing);
            assert_eq!(sys.memory.num_nodes, NUM_NODES);
            assert_eq!(sys.traffic, heavy_traffic());
        }
    }

    #[test]
    fn tiny_grid_shows_mshrs_raising_pressure() {
        let cfg = HeavyTrafficConfig {
            mshr_entries: vec![1, 4],
            shapes: vec![TrafficShape::Uniform],
            scale: ExperimentScale {
                cycles: 15_000,
                seeds: 1,
            },
        };
        let data = run(&cfg).expect("no protocol errors");
        assert_eq!(data.rows.len(), 2);
        let (blocking, wide) = (&data.rows[0], &data.rows[1]);
        assert_eq!(blocking.mshr_entries, 1);
        assert_eq!(wide.mshr_entries, 4);
        // Non-blocking nodes drive strictly more misses through the
        // coherence machinery — the whole point of the axis.
        assert!(
            wide.misses_per_kcycle.mean > blocking.misses_per_kcycle.mean,
            "4 MSHRs produced {} misses/kcycle vs {} blocking",
            wide.misses_per_kcycle.mean,
            blocking.misses_per_kcycle.mean
        );
        let txt = data.render();
        assert!(txt.contains("uniform") && txt.contains("misspec/Mcycle"));
        let json = data.to_json();
        assert!(json.contains("\"mshr_entries\": 4") && json.contains("\"shape\": \"uniform\""));
    }
}
