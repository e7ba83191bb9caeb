//! Shared-pool interconnect sweep (Section 4, third case study; Figs. 2–4).
//!
//! The boldest interconnect speculation replaces virtual-network/channel
//! sizing analysis with one shared slot pool per node: any message class may
//! use any slot, deadlock becomes possible (Figs. 2–3), detection is the
//! three-checkpoint-interval transaction timeout, and SafetyNet recovery
//! plus per-network reserved-slot re-execution restore forward progress.
//!
//! This experiment sweeps **pool size × routing policy × workload** on the
//! directory system at the low-bandwidth operating point (400 MB/s, where
//! buffer capacity binds) and compares each point against the
//! conservatively-sized virtual-network baseline (the conventional
//! per-class buffering of the same machine). Recorded per design point:
//!
//! * **throughput** (ops/kcycle, mean ± std over perturbed seeds) and the
//!   same normalized to the virtual-network baseline under the same routing
//!   policy and workload,
//! * **deadlock recoveries** — transaction timeouts attributed to buffer
//!   exhaustion ([`specsim_coherence::MisSpecKind::BufferDeadlock`]), and
//!   **total recoveries**, summed over the perturbed runs,
//! * the per-node **slot budget** of the virtual-network baseline, for
//!   scale: a pool "sized near the common case" uses a small fraction of it.
//!
//! Reproducing the paper's claim (Fig. 4 economics): recovery is cheap and
//! rare enough that a pool well below worst-case sizing matches or beats the
//! conservatively-sized virtual networks, while grossly undersized pools
//! show the sharp deadlock-driven dropoff.
//!
//! The `shared_buffer_sweep` bench renders the table and writes
//! `BENCH_shared_buffer.json`.

use specsim_base::RoutingPolicy;
use specsim_coherence::types::{MisSpecKind, ProtocolError};
use specsim_net::{Buffering, PoolSlots};
use specsim_workloads::WorkloadKind;

use crate::config::SystemConfig;
use crate::experiments::heavy_traffic::{heavy_machine, Machine, BANDWIDTH, NUM_NODES};
use crate::experiments::runner::{
    measure_directory, measure_snooping, measurement_of, ratio, throughput_measurement,
    ExperimentScale, Measurement,
};
use crate::experiments::sweep::{Cell, Column, Sweep, SweepConfig};

/// The pool sizes every sweep visits, quick or full: the pool-size axis is
/// the point of the artifact (slots per node; for scale, the
/// virtual-network baseline provisions 224 slots per node with static
/// routing and 320 with adaptive — see [`vn_baseline_slots_per_node`]).
pub const POOL_SIZES: [usize; 6] = [128, 64, 32, 16, 8, 4];

/// Per-node slot budget of the conservatively-sized virtual-network
/// baseline this sweep compares against: the depths of every buffer of
/// [`Buffering::VirtualChannels`] at one node summed (see
/// [`Buffering::slots_per_node`]). Adaptive routing adds a virtual channel
/// per network, so the budgets differ: 224 vs. 320 slots per node.
#[must_use]
pub fn vn_baseline_slots_per_node(routing: RoutingPolicy) -> usize {
    Buffering::VirtualChannels
        .slots_per_node(routing)
        .expect("virtual-channel buffers have fixed depths")
}

/// What to sweep and how long/often to run each design point.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedBufferConfig {
    /// Routing policies to visit (the speculative design prefers adaptive).
    pub routings: Vec<RoutingPolicy>,
    /// Workloads to run at every design point.
    pub workloads: Vec<WorkloadKind>,
    /// Data-torus pool sizes for the pooled **snooping** rows; empty skips
    /// the snooping machine entirely.
    pub snoop_pool_sizes: Vec<usize>,
    /// Endpoint-vs-switch pool splits `(switch_slots, endpoint_slots)` to
    /// visit on the directory machine (the pool total is the sum). Splitting
    /// walls the ejection queues off from the fabric, so an ingest-side
    /// backlog cannot eat the slots the fabric needs to drain — the cheap
    /// structural fix for the endpoint-dependency deadlock of Figure 2.
    pub pool_splits: Vec<(usize, usize)>,
    /// Cycles and perturbed seeds per design point.
    pub scale: ExperimentScale,
}

impl Default for SharedBufferConfig {
    /// The full sweep: the six [`POOL_SIZES`] × both routing policies × two
    /// workloads on the heavy-traffic 16-node machine, plus pooled-snooping
    /// rows, at the environment-controlled scale.
    fn default() -> Self {
        Self {
            routings: vec![RoutingPolicy::Static, RoutingPolicy::Adaptive],
            workloads: vec![WorkloadKind::Oltp, WorkloadKind::Jbb],
            snoop_pool_sizes: vec![32, 16, 8],
            pool_splits: vec![(24, 8), (12, 4)],
            scale: ExperimentScale::from_env(),
        }
    }
}

impl SharedBufferConfig {
    /// A CI-sized sweep: every pool size (the axis is the point of the
    /// artifact), but one routing policy, one workload, few seeds, short
    /// runs. One pooled-snooping size keeps that machine covered.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            routings: vec![RoutingPolicy::Adaptive],
            workloads: vec![WorkloadKind::Oltp],
            snoop_pool_sizes: vec![16],
            pool_splits: vec![(12, 4)],
            scale: ExperimentScale {
                cycles: 20_000,
                seeds: 2,
            },
        }
    }
}

/// One design point of the sweep.
#[derive(Debug, Clone)]
pub struct SharedBufferRow {
    /// Machine (protocol + which fabric is pooled) of this design point.
    pub machine: Machine,
    /// Workload of this design point.
    pub workload: WorkloadKind,
    /// Routing policy of this design point.
    pub routing: RoutingPolicy,
    /// Each node's shared-pool budget, unified or split endpoint-vs-switch;
    /// `None` is the baseline (the directory machine's conservatively
    /// sized virtual networks, the snooping machine's full buffering).
    pub pool: Option<PoolSlots>,
    /// Committed operations per kilo-cycle over the perturbed seeds.
    pub throughput: Measurement,
    /// Throughput normalized to the virtual-network baseline with the same
    /// workload and routing (baseline = 1.0).
    pub normalized: Measurement,
    /// Detected buffer-deadlock recoveries, summed over the perturbed runs.
    pub deadlock_recoveries: u64,
    /// All mis-speculation recoveries (deadlocks, congestion timeouts,
    /// ordering races), summed over the perturbed runs.
    pub recoveries: u64,
}

/// The completed sweep: one row per (workload, routing, pool size),
/// baselines first within each (workload, routing) group.
pub type SharedBufferData = Sweep<SharedBufferConfig>;

/// The `(switch, endpoint)` slots of a split pool.
fn split(pool: Option<PoolSlots>) -> Option<(u64, u64)> {
    match pool {
        Some(PoolSlots::Split { switch, endpoint }) => Some((switch as u64, endpoint as u64)),
        _ => None,
    }
}

impl SweepConfig for SharedBufferConfig {
    type Row = SharedBufferRow;
    const TITLE: &'static str =
        "Shared-pool interconnect sweep (Section 4, Figs. 2-4: deadlock detection + recovery)";
    const COLUMNS: &'static [Column<SharedBufferRow>] = &[
        ("machine", "machine", |r| Cell::Label(r.machine.label())),
        ("workload", "workload", |r| Cell::Label(r.workload.label())),
        ("routing", "routing", |r| Cell::Label(r.routing.label())),
        ("pool_slots", "slots/node", |r| {
            Cell::int_or_null(r.pool.map(|p| p.total() as u64))
        }),
        ("pool_slots_switch", "switch", |r| {
            Cell::int_or_null(split(r.pool).map(|s| s.0))
        }),
        ("pool_slots_endpoint", "endpoint", |r| {
            Cell::int_or_null(split(r.pool).map(|s| s.1))
        }),
        ("throughput", "ops/kcycle", |r| {
            Cell::Measurement(r.throughput)
        }),
        ("normalized", "normalized", |r| {
            Cell::Measurement(r.normalized)
        }),
        ("deadlock_recoveries", "deadlocks", |r| {
            Cell::Int(r.deadlock_recoveries)
        }),
        ("recoveries", "recoveries", |r| Cell::Int(r.recoveries)),
    ];

    fn params(sweep: &SharedBufferData) -> Vec<(&'static str, Cell)> {
        let cfg = &sweep.config;
        let vn_slots = |routing| Cell::Int(vn_baseline_slots_per_node(routing) as u64);
        vec![
            ("mb_per_s", Cell::Int(BANDWIDTH.megabytes_per_second)),
            ("num_nodes", Cell::Int(NUM_NODES as u64)),
            (
                "baseline_slots_per_node_static",
                vn_slots(RoutingPolicy::Static),
            ),
            (
                "baseline_slots_per_node_adaptive",
                vn_slots(RoutingPolicy::Adaptive),
            ),
            ("cycles", Cell::Int(cfg.scale.cycles)),
            ("seeds", Cell::Int(cfg.scale.seeds)),
        ]
    }
}

/// The sweep's directory machine: the heavy-traffic operating point
/// ([`heavy_machine`]) at base seed 6000, whose perturbed runs use seeds
/// 6001, 6002, ... Its torus shares `pool` among every message class, or,
/// for `None`, keeps the conservatively sized virtual networks.
#[must_use]
pub fn directory_config(
    workload: WorkloadKind,
    routing: RoutingPolicy,
    pool: Option<PoolSlots>,
) -> SystemConfig {
    let mut sys = heavy_machine(Machine::Directory, workload, 6000);
    sys.routing = routing;
    sys.buffering = pool.map_or(Buffering::VirtualChannels, |slots| Buffering::SharedPool {
        virtual_channels: true,
        slots,
    });
    sys
}

/// Builds one sweep row out of a set of perturbed runs.
fn row_from_runs(
    machine: Machine,
    workload: WorkloadKind,
    routing: RoutingPolicy,
    pool: Option<PoolSlots>,
    runs: &[crate::metrics::RunMetrics],
    baseline_mean: f64,
) -> SharedBufferRow {
    SharedBufferRow {
        machine,
        workload,
        routing,
        pool,
        throughput: throughput_measurement(runs),
        normalized: measurement_of(runs, |r| ratio(r.throughput(), baseline_mean)),
        deadlock_recoveries: if pool.is_some() {
            runs.iter()
                .map(|r| r.misspeculations_of(MisSpecKind::BufferDeadlock))
                .sum()
        } else {
            0
        },
        recoveries: runs.iter().map(|r| r.recoveries).sum(),
    }
}

/// Runs the sweep: for every (workload, routing) pair on the directory
/// machine, the virtual-network baseline followed by each pool size; then,
/// when [`SharedBufferConfig::snoop_pool_sizes`] is non-empty, the snooping
/// machine's full-buffering baseline followed by each pooled data torus.
/// Every design point goes through the perturbed-seed sharded runner.
pub fn run(cfg: &SharedBufferConfig) -> Result<SharedBufferData, ProtocolError> {
    let mut rows = Vec::new();
    for &workload in &cfg.workloads {
        for &routing in &cfg.routings {
            let unified = POOL_SIZES.iter().map(|&n| PoolSlots::Unified(n));
            let splits = cfg
                .pool_splits
                .iter()
                .map(|&(switch, endpoint)| PoolSlots::Split { switch, endpoint });
            // The virtual-network baseline (`None`) runs first.
            let mut baseline = 0.0;
            for pool in std::iter::once(None).chain(unified.chain(splits).map(Some)) {
                let runs =
                    measure_directory(&directory_config(workload, routing, pool), cfg.scale)?;
                if pool.is_none() {
                    baseline = throughput_measurement(&runs).mean;
                }
                rows.push(row_from_runs(
                    Machine::Directory,
                    workload,
                    routing,
                    pool,
                    &runs,
                    baseline,
                ));
            }
        }
        if !cfg.snoop_pool_sizes.is_empty() {
            let base_cfg = heavy_machine(Machine::Snooping, workload, 6000);
            let base_runs = measure_snooping(&base_cfg, cfg.scale)?;
            let baseline = throughput_measurement(&base_runs).mean;
            rows.push(row_from_runs(
                Machine::Snooping,
                workload,
                base_cfg.routing,
                None,
                &base_runs,
                baseline,
            ));
            for &slots in &cfg.snoop_pool_sizes {
                let pooled = base_cfg.with_pooled_data_torus(slots);
                let runs = measure_snooping(&pooled, cfg.scale)?;
                rows.push(row_from_runs(
                    Machine::Snooping,
                    workload,
                    pooled.routing,
                    Some(PoolSlots::Unified(slots)),
                    &runs,
                    baseline,
                ));
            }
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
    fn full_sweep_covers_the_dropoff_range() {
        assert!(POOL_SIZES.contains(&16) && POOL_SIZES.contains(&8));
        // The VN budgets the sweep normalizes against: 4 link ports x
        // (4 networks x VCs) x depth 4, a local port at injection depth 8,
        // and 4 ejection queues of depth 8.
        assert_eq!(vn_baseline_slots_per_node(RoutingPolicy::Static), 224);
        assert_eq!(vn_baseline_slots_per_node(RoutingPolicy::Adaptive), 320);
        assert!(vn_baseline_slots_per_node(RoutingPolicy::Static) > POOL_SIZES[0]);
    }

    #[test]
    fn a_row_over_a_zero_baseline_reads_zero() {
        // A 4-slot pool that commits 0.4 ops/kcycle over a baseline that
        // committed nothing: the normalized column reads 0, as Figure 4's
        // does, not a number near 1e307.
        let runs = [crate::metrics::RunMetrics {
            cycles: 20_000,
            ops_completed: 8,
            ..Default::default()
        }];
        let pool = Some(PoolSlots::Unified(4));
        let row = row_from_runs(
            Machine::Directory,
            WorkloadKind::Oltp,
            RoutingPolicy::Adaptive,
            pool,
            &runs,
            0.0,
        );
        assert!((row.throughput.mean - 0.4).abs() < 1e-12);
        assert_eq!(row.normalized, Measurement::from_samples(&[0.0]));
    }

    #[test]
    fn tiny_sweep_shows_pool_plateau_near_the_vn_baseline() {
        let cfg = SharedBufferConfig {
            routings: vec![RoutingPolicy::Adaptive],
            workloads: vec![WorkloadKind::Oltp],
            snoop_pool_sizes: vec![],
            pool_splits: vec![(48, 16)],
            // Long enough for the heavy machine to commit work after its
            // first congestion recovery: at 20k cycles the baseline commits
            // nothing, and normalizing to it says nothing.
            scale: ExperimentScale {
                cycles: 60_000,
                seeds: 1,
            },
        };
        let data = run(&cfg).expect("no protocol errors");
        // The baseline, every pool size, then the split.
        assert_eq!(data.rows.len(), POOL_SIZES.len() + 2);
        let base = &data.rows[0];
        assert_eq!(base.machine, Machine::Directory);
        assert_eq!(base.pool, None);
        assert!((base.normalized.mean - 1.0).abs() < 1e-9);
        let pooled = &data.rows[2];
        assert_eq!(pooled.pool, Some(PoolSlots::Unified(64)));
        // A pool at a fifth of the baseline budget stays close to (or
        // above) it — the Section 4 claim at the plateau.
        assert!(
            pooled.normalized.mean > 0.8,
            "64-slot pool fell to {} of the VN baseline",
            pooled.normalized.mean
        );
        // The 8->16-slot threshold: the undersized pools wedge, the rest
        // never do.
        for (row, &slots) in data.rows[1..].iter().zip(&POOL_SIZES) {
            assert_eq!(row.pool, Some(PoolSlots::Unified(slots)));
            assert_eq!(row.deadlock_recoveries > 0, slots <= 8, "{slots} slots");
        }
        // The split row: same 64-slot budget, walled 48 fabric / 16 endpoint.
        let split = &data.rows[POOL_SIZES.len() + 1];
        assert_eq!(
            split.pool,
            Some(PoolSlots::Split {
                switch: 48,
                endpoint: 16
            })
        );
        assert!(
            split.normalized.mean > 0.8,
            "a generous 48+16 split fell to {} of the VN baseline",
            split.normalized.mean
        );
        let txt = data.render();
        // The baseline row shows no pool; the split row shows its 64-slot
        // total next to the 48 switch and 16 endpoint slots.
        let rows: Vec<Vec<&str>> = txt
            .lines()
            .map(|l| l.split_whitespace().collect())
            .collect();
        assert!(rows.iter().any(|t| t.windows(3).any(|w| w == ["null"; 3])));
        assert!(rows
            .iter()
            .any(|t| t.windows(3).any(|w| w == ["64", "null", "null"])));
        assert!(rows
            .iter()
            .any(|t| t.windows(3).any(|w| w == ["64", "48", "16"])));
        let json = data.to_json();
        assert!(json.contains("\"pool_slots\": null") && json.contains("\"pool_slots\": 64"));
        assert!(json.contains("\"pool_slots_switch\": 48"));
        assert!(json.contains("\"pool_slots_endpoint\": 16"));
        assert!(json.contains("\"pool_slots_switch\": null"));
    }

    #[test]
    fn pooled_snooping_config_validates_and_runs() {
        // No routing policy: the directory machine is skipped.
        let cfg = SharedBufferConfig {
            routings: vec![],
            workloads: vec![WorkloadKind::Oltp],
            snoop_pool_sizes: vec![16],
            pool_splits: vec![],
            scale: ExperimentScale {
                cycles: 15_000,
                seeds: 1,
            },
        };
        // The pooled data torus must be a valid, runnable snooping
        // configuration, not just wired plumbing.
        let base = heavy_machine(Machine::Snooping, WorkloadKind::Oltp, 6000);
        let pooled = base.with_pooled_data_torus(16);
        assert_eq!(pooled.validate(), Vec::<String>::new());
        assert_eq!(pooled.buffering.pool_slots(), Some(PoolSlots::Unified(16)));
        assert_eq!(pooled.routing, RoutingPolicy::Adaptive);
        // A degenerate pool is rejected.
        assert!(!base.with_pooled_data_torus(0).validate().is_empty());

        let data = run(&cfg).expect("no protocol errors");
        assert_eq!(data.rows.len(), 2); // snoop baseline + one pooled size
        assert!(data.rows.iter().all(|r| r.machine == Machine::Snooping));
        assert_eq!(data.rows[0].pool, None);
        assert_eq!(data.rows[1].pool, Some(PoolSlots::Unified(16)));
        assert!(
            data.rows[1].throughput.mean > 0.0,
            "pooled snooping machine must make forward progress"
        );
        assert!(data.render().contains("snooping"));
        assert!(data.to_json().contains("\"machine\": \"snooping\""));
    }
}
