//! Capture the deterministic telemetry surfaces of a fault campaign to disk:
//! the cycle-windowed JSONL time series and the Chrome trace-event document
//! (load the latter in Perfetto or `chrome://tracing`).
//!
//! ```text
//! cargo run --release --example telemetry_capture [outdir]
//! ```
//!
//! Writes `telemetry.jsonl` and `telemetry_trace.json` into `outdir`
//! (default: the current directory). Every timestamp is a simulated cycle,
//! so repeated runs produce byte-identical files.

use specsim::{DirectorySystem, SystemConfig, TelemetryConfig};
use specsim_base::{FaultConfig, LinkBandwidth, ALL_FAULT_KINDS};
use specsim_workloads::WorkloadKind;

const CYCLES: u64 = 40_000;

fn main() {
    let outdir = std::env::args().nth(1).unwrap_or_else(|| ".".to_string());

    // The 16-node heavy-traffic directory machine under a chaos campaign:
    // plenty of checkpoints, mis-speculations, fault detections and
    // rollbacks for the trace to show.
    let mut cfg =
        SystemConfig::directory_speculative(WorkloadKind::Oltp, LinkBandwidth::MB_400, 77)
            .with_nodes(16)
            .with_telemetry(TelemetryConfig::windowed(2_000));
    cfg.memory.mshr_entries = 4;
    cfg.memory.safetynet.checkpoint_interval_cycles = 5_000;
    cfg.traffic = specsim::experiments::heavy_traffic::heavy_traffic();
    cfg.fault_config = FaultConfig::Random {
        rate_per_mcycle: 2_000,
        kinds: ALL_FAULT_KINDS.to_vec(),
        horizon_cycles: CYCLES,
    };

    let mut sys = DirectorySystem::new(cfg);
    let metrics = sys.run_for(CYCLES).expect("protocol behaved");

    let jsonl = sys.telemetry_jsonl().expect("telemetry enabled");
    let trace = sys.telemetry_trace().expect("telemetry enabled");
    let jsonl_path = format!("{outdir}/telemetry.jsonl");
    let trace_path = format!("{outdir}/telemetry_trace.json");
    std::fs::write(&jsonl_path, &jsonl).expect("write JSONL");
    std::fs::write(&trace_path, &trace).expect("write trace");

    println!("telemetry capture: {CYCLES} cycles, 16 nodes, chaos campaign");
    println!("==============================================================");
    println!("{}", metrics.summary());
    println!(
        "wrote {jsonl_path} ({} windows) and {trace_path} ({} bytes)",
        jsonl.lines().count(),
        trace.len()
    );
    println!("open the trace in Perfetto (https://ui.perfetto.dev) or chrome://tracing");
}
