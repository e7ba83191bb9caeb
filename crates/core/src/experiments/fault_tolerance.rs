//! Fault-tolerance chaos campaigns: transient faults injected into the
//! running machines, detected, rolled back and re-executed — end to end.
//!
//! SafetyNet's whole argument (Section 2) is that one checkpoint/recovery
//! substrate covers *all* rare events: coherence mis-speculations, buffer
//! deadlock, and dropped or corrupted messages from transient faults. This
//! experiment exercises the third class in vivo: a seed-deterministic
//! [`FaultConfig::Random`] campaign is lowered to an explicit
//! [`specsim_base::FaultPlan`] up front, the fault director fires the events
//! into the fabric (links, switches, inboxes), detection happens either at
//! message ingest (the checksum model catches detectably-corrupt and
//! duplicated messages) or through the requestor-side transaction timeout
//! (drops, delays, stalls and blackouts starve a transaction), the recovery
//! is classified as [`specsim_coherence::MisSpecKind::TransientFault`], and
//! re-execution resumes from the pre-fault checkpoint with the matured fault
//! events suppressed — the transient semantics.
//!
//! The sweep opens **fault rate × fault kind × machine** under the canonical
//! heavy-traffic knobs (non-blocking processors, Zipfian hot blocks, bursty
//! injection at the 400 MB/s operating point) and records, per design point:
//!
//! * **throughput** (ops/kcycle, mean ± std over perturbed seeds) — the
//!   throughput-vs-fault-rate degradation curve,
//! * **faults injected / detected / recovered** — every detected fault must
//!   recover, and the rate-0 control rows must stay at zero,
//! * the **mean detection latency** (fire cycle → classified recovery) —
//!   ingest-caught kinds detect in transit time, timeout-caught kinds in
//!   roughly the three-checkpoint-interval timeout.
//!
//! The `fault_tolerance_sweep` bench renders the table and writes
//! `BENCH_fault_tolerance.json`.

use specsim_base::{FaultConfig, FaultKind, ALL_FAULT_KINDS};
use specsim_coherence::types::ProtocolError;

use crate::config::SystemConfig;
use crate::experiments::heavy_traffic::{heavy_machine, Machine, BANDWIDTH, NUM_NODES, WORKLOAD};
use crate::experiments::runner::{
    measure_directory, measure_snooping, ratio, throughput_measurement, ExperimentScale,
    Measurement,
};
use crate::experiments::sweep::{Cell, Column, Sweep, SweepConfig};
use crate::metrics::RunMetrics;

/// The machines every campaign runs, quick or full: the directory machine
/// faults its coherence torus, the snooping machine its point-to-point data
/// torus.
pub const MACHINES: [Machine; 2] = [Machine::Directory, Machine::Snooping];

/// What to sweep and how long/often to run each design point.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultToleranceConfig {
    /// Nonzero fault rates to visit (expected events per million cycles).
    /// A rate-0 control row per machine is always run first.
    pub rates_per_mcycle: Vec<u64>,
    /// Fault kinds to campaign with, one design point per kind.
    pub kinds: Vec<FaultKind>,
    /// Cycles and perturbed seeds per design point.
    pub scale: ExperimentScale,
}

impl Default for FaultToleranceConfig {
    /// The full campaign: three nonzero rates up to 10⁴ events/Mcycle ×
    /// all seven fault kinds × both [`MACHINES`], at the
    /// environment-controlled scale.
    fn default() -> Self {
        Self {
            rates_per_mcycle: vec![100, 1_000, 10_000],
            kinds: ALL_FAULT_KINDS.to_vec(),
            scale: ExperimentScale::from_env(),
        }
    }
}

impl FaultToleranceConfig {
    /// A CI-sized campaign: two nonzero rates (a sparse one that degrades
    /// throughput and a storm that collapses it), a detection-path-covering
    /// kind subset (timeout-caught drop, ingest-caught corrupt, windowed
    /// switch stall), few seeds, short runs.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            rates_per_mcycle: vec![200, 10_000],
            kinds: vec![FaultKind::Drop, FaultKind::Corrupt, FaultKind::SwitchStall],
            scale: ExperimentScale {
                cycles: 60_000,
                seeds: 2,
            },
        }
    }
}

/// One design point of the campaign.
#[derive(Debug, Clone)]
pub struct FaultToleranceRow {
    /// Machine this row ran on.
    pub machine: Machine,
    /// Fault kind campaigned with; `None` is the fault-free control row.
    pub kind: Option<FaultKind>,
    /// Expected fault events per million cycles (0 for the control row).
    pub rate_per_mcycle: u64,
    /// Committed operations per kilo-cycle over the perturbed seeds.
    pub throughput: Measurement,
    /// Fault events actually fired by the director, summed over the runs.
    pub faults_injected: u64,
    /// Recoveries classified as transient faults, summed over the runs.
    pub faults_detected: u64,
    /// Fault-classified recoveries, summed over the runs (equals
    /// [`Self::faults_detected`] — every detected fault recovers once).
    pub fault_recoveries: u64,
    /// All mis-speculation recoveries (faults, deadlocks, congestion
    /// timeouts, ordering races), summed over the runs.
    pub recoveries: u64,
    /// Mean cycles from fault injection to the classified recovery, weighted
    /// over all fault recoveries of the row (0 when none happened).
    pub mean_detection_latency_cycles: f64,
    /// Fraction of simulated cycles the engine spent in the unrestricted
    /// Normal mode, aggregated over the perturbed runs (the availability
    /// figure: 1.0 means no cycle was lost to recovery or throttling).
    pub normal_frac: f64,
    /// Fraction of cycles spent in post-recovery slow-start throttling.
    pub slow_start_frac: f64,
    /// Fraction of cycles spent stalled in rollback/restore windows.
    pub rollback_frac: f64,
}

/// The completed campaign: one control row per machine followed by its
/// (kind, rate) grid.
pub type FaultToleranceData = Sweep<FaultToleranceConfig>;

impl SweepConfig for FaultToleranceConfig {
    type Row = FaultToleranceRow;
    const TITLE: &'static str =
        "Fault-tolerance chaos campaign (rate x kind x machine, heavy traffic)";
    const COLUMNS: &'static [Column<FaultToleranceRow>] = &[
        ("machine", "machine", |r| Cell::Label(r.machine.label())),
        ("kind", "kind", |r| Cell::Label(r.kind_label())),
        ("rate_per_mcycle", "rate/Mcyc", |r| {
            Cell::Int(r.rate_per_mcycle)
        }),
        ("throughput", "ops/kcycle", |r| {
            Cell::Measurement(r.throughput)
        }),
        ("faults_injected", "injected", |r| {
            Cell::Int(r.faults_injected)
        }),
        ("faults_detected", "detected", |r| {
            Cell::Int(r.faults_detected)
        }),
        ("fault_recoveries", "fault-rec", |r| {
            Cell::Int(r.fault_recoveries)
        }),
        ("recoveries", "recoveries", |r| Cell::Int(r.recoveries)),
        ("mean_detection_latency_cycles", "det-latency", |r| {
            Cell::Rounded(r.mean_detection_latency_cycles, 1)
        }),
        ("normal_frac", "normal", |r| Cell::Float(r.normal_frac)),
        ("slow_start_frac", "slow-start", |r| {
            Cell::Float(r.slow_start_frac)
        }),
        ("rollback_frac", "rollback", |r| {
            Cell::Float(r.rollback_frac)
        }),
    ];

    fn params(sweep: &FaultToleranceData) -> Vec<(&'static str, Cell)> {
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

/// The fault campaign for one design point: `kind` at `rate` over the run
/// horizon (an empty config for the control rows).
fn campaign(cfg: &FaultToleranceConfig, kind: Option<FaultKind>, rate: u64) -> FaultConfig {
    match kind {
        Some(kind) if rate > 0 => FaultConfig::Random {
            rate_per_mcycle: rate,
            kinds: vec![kind],
            horizon_cycles: cfg.scale.cycles,
        },
        _ => FaultConfig::Disabled,
    }
}

/// The campaign's machine before any fault: the heavy-traffic operating
/// point of `machine` ([`heavy_machine`]) at `seed`, with the
/// post-recovery forward-progress window scaled to the checkpoint cadence
/// rather than the congestion-tuned default, so high fault rates measure
/// repeated recovery cost instead of one recovery followed by a throttled
/// tail.
#[must_use]
pub fn campaign_machine(machine: Machine, seed: u64) -> SystemConfig {
    let mut sys = heavy_machine(machine, WORKLOAD, seed);
    sys.forward_progress_window = 20_000;
    sys
}

/// The heavy-traffic operating point of `machine` under one campaign, at
/// base seed 7000.
fn campaign_config(
    cfg: &FaultToleranceConfig,
    machine: Machine,
    kind: Option<FaultKind>,
    rate: u64,
) -> SystemConfig {
    let mut sys = campaign_machine(machine, 7000);
    sys.fault_config = campaign(cfg, kind, rate);
    sys
}

/// Builds one campaign row out of a set of perturbed runs.
fn row_from_runs(
    machine: Machine,
    kind: Option<FaultKind>,
    rate: u64,
    runs: &[RunMetrics],
) -> FaultToleranceRow {
    let fault_recoveries: u64 = runs.iter().map(|r| r.fault_recoveries).sum();
    let latency: u64 = runs.iter().map(|r| r.fault_detection_latency_cycles).sum();
    // Availability: mode-timeline cycles summed across the perturbed runs,
    // then normalised by the row's total simulated cycles.
    let mut mode_cycles = [0u64; specsim_base::ENGINE_MODE_COUNT];
    for r in runs {
        for (total, cycles) in mode_cycles.iter_mut().zip(r.mode_cycles) {
            *total += cycles;
        }
    }
    let total_cycles: u64 = mode_cycles.iter().sum();
    let frac = |mode: specsim_base::EngineMode| {
        ratio(mode_cycles[mode.index()] as f64, total_cycles as f64)
    };
    FaultToleranceRow {
        machine,
        kind,
        rate_per_mcycle: rate,
        throughput: throughput_measurement(runs),
        faults_injected: runs.iter().map(|r| r.faults_injected).sum(),
        faults_detected: runs.iter().map(RunMetrics::faults_detected).sum(),
        fault_recoveries,
        recoveries: runs.iter().map(|r| r.recoveries).sum(),
        mean_detection_latency_cycles: ratio(latency as f64, fault_recoveries as f64),
        normal_frac: frac(specsim_base::EngineMode::Normal),
        slow_start_frac: frac(specsim_base::EngineMode::SlowStart),
        rollback_frac: frac(specsim_base::EngineMode::Rollback),
    }
}

fn measure(
    cfg: &FaultToleranceConfig,
    machine: Machine,
    kind: Option<FaultKind>,
    rate: u64,
) -> Result<FaultToleranceRow, ProtocolError> {
    let sys = campaign_config(cfg, machine, kind, rate);
    let runs = match machine {
        Machine::Directory => measure_directory(&sys, cfg.scale)?,
        Machine::Snooping => measure_snooping(&sys, cfg.scale)?,
    };
    Ok(row_from_runs(machine, kind, rate, &runs))
}

/// Runs the campaign: for every machine a fault-free control row, then one
/// row per (kind, nonzero rate). Every design point goes through the
/// perturbed-seed sharded runner; the fault plan of each run is lowered
/// from its own seed, so the whole campaign is a pure function of the
/// configuration.
pub fn run(cfg: &FaultToleranceConfig) -> Result<FaultToleranceData, ProtocolError> {
    let mut rows = Vec::new();
    for machine in MACHINES {
        rows.push(measure(cfg, machine, None, 0)?);
        for &kind in &cfg.kinds {
            for &rate in &cfg.rates_per_mcycle {
                if rate == 0 {
                    continue;
                }
                rows.push(measure(cfg, machine, Some(kind), rate)?);
            }
        }
    }
    Ok(Sweep {
        config: cfg.clone(),
        rows,
    })
}

impl FaultToleranceRow {
    /// The kind column label (`none` for the control rows).
    #[must_use]
    pub fn kind_label(&self) -> &'static str {
        self.kind.map_or("none", FaultKind::label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_campaign_covers_every_kind_and_both_machines() {
        let cfg = FaultToleranceConfig::default();
        assert_eq!(cfg.kinds.len(), ALL_FAULT_KINDS.len());
        assert_eq!(MACHINES, [Machine::Directory, Machine::Snooping]);
        assert!(cfg.rates_per_mcycle.contains(&10_000));
        // Quick mode keeps both detection paths (timeout-caught drop,
        // ingest-caught corrupt).
        let quick = FaultToleranceConfig::quick();
        assert!(quick.kinds.contains(&FaultKind::Drop));
        assert!(quick.kinds.contains(&FaultKind::Corrupt));
    }

    #[test]
    fn control_rows_lower_to_a_disabled_campaign() {
        let cfg = FaultToleranceConfig::default();
        assert!(campaign(&cfg, None, 0).is_disabled());
        assert!(campaign(&cfg, Some(FaultKind::Drop), 0).is_disabled());
        assert!(!campaign(&cfg, Some(FaultKind::Drop), 1_000).is_disabled());
        // Both machines' configs validate under the campaign.
        for machine in MACHINES {
            assert!(campaign_config(&cfg, machine, Some(FaultKind::Drop), 1_000)
                .validate()
                .is_empty());
        }
    }

    #[test]
    fn tiny_campaign_detects_and_recovers_injected_corruption() {
        let cfg = FaultToleranceConfig {
            rates_per_mcycle: vec![10_000],
            kinds: vec![FaultKind::Corrupt],
            scale: ExperimentScale {
                cycles: 20_000,
                seeds: 1,
            },
        };
        let data = run(&cfg).expect("no protocol errors");
        // A control row and a corrupt row per machine.
        assert_eq!(data.rows.len(), 4);
        for pair in data.rows.chunks(2) {
            let (control, faulted) = (&pair[0], &pair[1]);
            assert_eq!(control.machine, faulted.machine);
            assert_eq!(control.fault_recoveries, 0);
            assert_eq!(control.rate_per_mcycle, 0);
            assert_eq!(control.faults_injected, 0);
            assert!(faulted.faults_injected > 0, "the campaign never fired");
            assert!(
                faulted.fault_recoveries > 0,
                "injected corruption must be detected and recovered"
            );
            assert_eq!(faulted.faults_detected, faulted.fault_recoveries);
        }
        // The directory machine's pair.
        let (control, faulted) = (&data.rows[0], &data.rows[1]);
        // A 10^4/Mcycle storm means a fault roughly every hundred cycles:
        // the machine spends the run detecting and restoring, so committed
        // throughput collapses below the fault-free control.
        assert!(control.throughput.mean > 0.0);
        assert!(faulted.throughput.mean < control.throughput.mean);
        // Availability: the fault-free control spends every cycle in Normal
        // mode (1.0 exactly — a congestion recovery here would be a
        // regression in the heavy-traffic tuning); the fault storm loses
        // cycles to rollback and slow-start.
        eprintln!(
            "control normal={} slow={} rollback={} recoveries={}; \
             faulted normal={} slow={} rollback={}",
            control.normal_frac,
            control.slow_start_frac,
            control.rollback_frac,
            control.recoveries,
            faulted.normal_frac,
            faulted.slow_start_frac,
            faulted.rollback_frac
        );
        assert_eq!(control.normal_frac, 1.0);
        assert_eq!(control.rollback_frac, 0.0);
        assert!(faulted.normal_frac < 1.0);
        assert!(faulted.rollback_frac > 0.0);
        assert!(
            (faulted.normal_frac + faulted.slow_start_frac + faulted.rollback_frac) <= 1.0 + 1e-9
        );
        let txt = data.render();
        assert!(txt.contains("corrupt") && txt.contains("none"));
        // The availability cells: the control row shows a normal fraction
        // of exactly one under the `normal` label.
        assert!(txt.contains("normal") && txt.contains("rollback"));
        let control_line = txt
            .lines()
            .find(|l| l.contains("none"))
            .expect("control row");
        assert!(control_line.contains("1.000000"));
        let json = data.to_json();
        assert!(json.contains("\"kind\": \"corrupt\""));
        assert!(json.contains("\"rate_per_mcycle\": 10000"));
        assert!(json.contains("\"normal_frac\": 1.000000"));
        assert!(json.contains("\"rollback_frac\""));
    }
}
