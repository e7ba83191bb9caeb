//! Renderers for the paper's three tables.
//!
//! * **Table 1** — the framework characterization of the three speculative
//!   designs, augmented with measured exposure/mis-speculation counts from
//!   short runs of each design.
//! * **Table 2** — the target-system parameters (our defaults mirror them).
//! * **Table 3** — the workload suite and the synthetic generators standing
//!   in for it, with measured traffic characteristics.

use specsim_base::time::{cycles_to_ns, ns_to_cycles};
use specsim_base::{CycleDelta, LinkBandwidth, MemorySystemConfig, ProtocolVariant};
use specsim_coherence::types::{MisSpecKind, ProtocolError};
use specsim_net::VirtualNetwork;
use specsim_safetynet::log::{LOG_BUFFER_BYTES, LOG_ENTRY_BYTES};
use specsim_safetynet::station::REGISTER_CHECKPOINT_CYCLES;
use specsim_workloads::{WorkloadKind, ALL_WORKLOADS};

use crate::config::SystemConfig;
use crate::engine::MeasuredCharacterization;
use crate::experiments::runner::{
    mean_recovery_cost, measure_directory, measure_snooping, ratio, ExperimentScale,
};
use crate::framework::SpeculativeDesign;

/// Table 2's total memory: 2 GB. Only Table 2 reports it: the simulator
/// models no memory capacity.
pub const MEMORY_BYTES: u64 = 2 * 1024 * 1024 * 1024;

/// Table 2's uncontended two-hop miss-from-memory latency: 180 ns, 720
/// cycles at 4 GHz. Only Table 2 reports it: a simulated miss takes the
/// home node's DRAM access plus whatever the fabric adds.
pub const MEMORY_LATENCY_CYCLES: CycleDelta = ns_to_cycles(180);

/// Measures the characterization numbers for Table 1's three designs.
pub fn measure_table1(
    scale: ExperimentScale,
) -> Result<Vec<(SpeculativeDesign, MeasuredCharacterization)>, ProtocolError> {
    let workload = WorkloadKind::Oltp;
    let mut out = Vec::new();

    // Design 1: speculative directory protocol under adaptive routing.
    let mut dir_cfg = SystemConfig::directory_speculative(workload, LinkBandwidth::MB_400, 7100);
    dir_cfg.memory.safetynet.checkpoint_interval_cycles = 5_000;
    let dir_runs = measure_directory(&dir_cfg, scale)?;
    let exposure: u64 = dir_runs
        .iter()
        .map(|r| r.delivered_per_vnet[VirtualNetwork::ForwardedRequest.index()])
        .sum();
    let misspecs: u64 = dir_runs
        .iter()
        .map(|r| r.misspeculations_of(MisSpecKind::ForwardedRequestToInvalidCache))
        .sum();
    out.push((
        SpeculativeDesign::DirectoryOrdering,
        MeasuredCharacterization {
            exposure_events: exposure,
            misspeculations: misspecs,
            recoveries: dir_runs.iter().map(|r| r.recoveries).sum(),
            mean_recovery_cost_cycles: mean_recovery_cost(&dir_runs),
        },
    ));

    // Design 2: speculative snooping protocol.
    let mut snoop_cfg = SystemConfig::new(workload, ProtocolVariant::Speculative, 7200);
    snoop_cfg.memory.safetynet.checkpoint_interval_requests = 500;
    let snoop_runs = measure_snooping(&snoop_cfg, scale)?;
    out.push((
        SpeculativeDesign::SnoopingCornerCase,
        MeasuredCharacterization {
            exposure_events: snoop_runs.iter().map(|r| r.bus_requests).sum(),
            misspeculations: snoop_runs
                .iter()
                .map(|r| r.misspeculations_of(MisSpecKind::WritebackDoubleRace))
                .sum(),
            recoveries: snoop_runs.iter().map(|r| r.recoveries).sum(),
            mean_recovery_cost_cycles: mean_recovery_cost(&snoop_runs),
        },
    ));

    // Design 3: simplified interconnect (shared buffers, adequate size).
    let mut net_cfg =
        SystemConfig::simplified_interconnect(workload, LinkBandwidth::GB_3_2, 16, 7300);
    net_cfg.memory.safetynet.checkpoint_interval_cycles = 5_000;
    let net_runs = measure_directory(&net_cfg, scale)?;
    out.push((
        SpeculativeDesign::InterconnectDeadlock,
        MeasuredCharacterization {
            exposure_events: net_runs.iter().map(|r| r.misses).sum(),
            misspeculations: net_runs
                .iter()
                .map(|r| r.misspeculations_of(MisSpecKind::TransactionTimeout))
                .sum(),
            recoveries: net_runs.iter().map(|r| r.recoveries).sum(),
            mean_recovery_cost_cycles: mean_recovery_cost(&net_runs),
        },
    ));
    Ok(out)
}

/// Renders Table 1 (framework characterization), combining the paper's
/// qualitative rows with the measured characterization.
pub fn render_table1(scale: ExperimentScale) -> Result<String, ProtocolError> {
    let measured = measure_table1(scale)?;
    let mut out = String::new();
    out.push_str("Table 1: Using the framework to characterize three speculative designs\n\n");
    for (design, m) in &measured {
        out.push_str(&format!("== {}\n", design.title()));
        out.push_str(&format!(
            "  (1) infrequency : {}\n",
            design.infrequency_argument()
        ));
        out.push_str(&format!(
            "  (2) detection   : {}\n",
            design.detection_mechanism()
        ));
        out.push_str(&format!(
            "  (3) recovery    : {}\n",
            design.recovery_mechanism()
        ));
        out.push_str(&format!(
            "  (4) fwd progress: {}\n",
            design.forward_progress_mechanism()
        ));
        out.push_str(&format!("  result          : {}\n", design.result_claim()));
        out.push_str(&format!(
            "  measured        : {} exposure events, {} mis-speculations (rate {:.2e}), {} recoveries, {:.0} cycles/recovery\n\n",
            m.exposure_events,
            m.misspeculations,
            m.misspeculation_rate(),
            m.recoveries,
            m.mean_recovery_cost_cycles
        ));
    }
    Ok(out)
}

/// Renders Table 2 (target system parameters) from the default configuration
/// and the Table 2 constants.
#[must_use]
pub fn render_table2() -> String {
    let c = MemorySystemConfig::default();
    let mut out = String::new();
    out.push_str("Table 2: Target System Parameters\n");
    out.push_str(&format!(
        "L1 Cache (I and D)              {} KB, {}-way set associative\n",
        c.l1_bytes / 1024,
        c.l1_ways
    ));
    out.push_str(&format!(
        "L2 Cache                        {} MB, {}-way set-associative\n",
        c.l2_bytes / (1024 * 1024),
        c.l2_ways
    ));
    out.push_str(&format!(
        "Memory                          {} GB, {} byte blocks\n",
        MEMORY_BYTES / (1024 * 1024 * 1024),
        specsim_base::BLOCK_SIZE_BYTES
    ));
    out.push_str(&format!(
        "Miss From Memory                {} ns (uncontended, 2-hop)\n",
        cycles_to_ns(MEMORY_LATENCY_CYCLES)
    ));
    out.push_str("Interconnection Networks        link bandwidth = 400MB/sec to 3.2 GB/sec\n");
    out.push_str(&format!(
        "Checkpoint Log Buffer           {} kbytes total, {} byte entries\n",
        LOG_BUFFER_BYTES / 1024,
        LOG_ENTRY_BYTES
    ));
    out.push_str(&format!(
        "SafetyNet Checkpoint Interval   {} cycles (directory), {} requests (snooping)\n",
        c.safetynet.checkpoint_interval_cycles, c.safetynet.checkpoint_interval_requests
    ));
    out.push_str(&format!(
        "Register Checkpointing Latency  {REGISTER_CHECKPOINT_CYCLES} cycles\n"
    ));
    out
}

/// Renders Table 3 (workloads) with the synthetic generators' parameters and
/// measured traffic from a short run of each.
pub fn render_table3(scale: ExperimentScale) -> Result<String, ProtocolError> {
    let mut out = String::new();
    out.push_str(
        "Table 3: Workloads (synthetic stand-ins for the Wisconsin Commercial Workload Suite)\n\n",
    );
    for workload in ALL_WORKLOADS {
        let p = workload.params();
        let mut cfg = SystemConfig::directory_baseline(workload, LinkBandwidth::GB_3_2, 9000);
        cfg.memory.safetynet.checkpoint_interval_cycles = 5_000;
        let runs = measure_directory(&cfg, scale)?;
        let ops: u64 = runs.iter().map(|r| r.ops_completed).sum();
        let misses: u64 = runs.iter().map(|r| r.misses).sum();
        let stores: u64 = runs.iter().map(|r| r.stores).sum();
        out.push_str(&format!("== {}\n", workload.description()));
        out.push_str(&format!(
            "  paper measurement unit: {} transactions; synthetic footprint {:.1} MB; think time {} cycles\n",
            p.transactions_reported,
            p.footprint_bytes(16) as f64 / (1024.0 * 1024.0),
            p.mean_think_cycles
        ));
        out.push_str(&format!(
            "  sharing mix: private {:.0}% / read-mostly {:.0}% / shared-RW {:.0}% / migratory {:.0}%\n",
            p.p_private * 100.0,
            p.p_shared_ro * 100.0,
            p.p_shared_rw * 100.0,
            p.p_migratory * 100.0
        ));
        out.push_str(&format!(
            "  measured ({} cycles x {} runs): {} ops, store fraction {:.1}%, miss rate {:.2}%\n\n",
            scale.cycles,
            runs.len(),
            ops,
            ratio(stores as f64 * 100.0, ops as f64),
            ratio(misses as f64 * 100.0, ops as f64),
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_the_paper_values() {
        let t = render_table2();
        assert!(t.contains("128 KB, 4-way"));
        assert!(t.contains("4 MB, 4-way"));
        assert!(t.contains("180 ns"));
        assert!(t.contains("512 kbytes total, 72 byte entries"));
        assert!(t.contains("100000 cycles (directory), 3000 requests (snooping)"));
        assert!(t.contains("100 cycles"));
    }

    #[test]
    fn table1_measures_all_three_designs() {
        let rows = measure_table1(ExperimentScale {
            cycles: 15_000,
            seeds: 1,
        })
        .expect("no protocol errors");
        assert_eq!(rows.len(), 3);
        // The snooping and interconnect designs always have exposure events
        // (ordered requests / coherence transactions); the directory design's
        // exposure (ForwardedRequest messages) can legitimately be tiny in a
        // very short run, so it is not asserted here.
        for (design, m) in &rows {
            if *design != SpeculativeDesign::DirectoryOrdering {
                assert!(
                    m.exposure_events > 0,
                    "{design:?} must have exposure events"
                );
            }
        }
    }
}
