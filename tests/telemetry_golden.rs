//! Pinned telemetry goldens: the windowed JSONL stream and the Chrome
//! trace-event document of a 16-node heavy-traffic fault campaign must be
//! **byte-identical** across repeated runs and stable across revisions.
//!
//! Telemetry is timestamped exclusively in simulated cycles and recorded at
//! deterministic points of the engine's step loop, so the outputs are a
//! pure function of the configuration — any wall-clock leakage or any
//! silent change to the sampled schedule moves a digest. Set `SPECSIM_PRINT_GOLDENS=1` to reprint the
//! pinned constants after an intentional change.

use specsim::experiments::heavy_traffic::heavy_traffic;
use specsim::{DirectorySystem, SnoopingSystem, SystemConfig, TelemetryConfig};
use specsim_base::{FaultConfig, LinkBandwidth, ProtocolVariant, ALL_FAULT_KINDS};
use specsim_workloads::WorkloadKind;

/// FNV-1a over a string, the same fold the kernel-equivalence goldens use.
fn digest(s: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in s.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const CYCLES: u64 = 40_000;

fn campaign() -> FaultConfig {
    FaultConfig::Random {
        rate_per_mcycle: 2_000,
        kinds: ALL_FAULT_KINDS.to_vec(),
        horizon_cycles: CYCLES,
    }
}

/// The 16-node heavy-traffic directory machine with everything-on telemetry.
fn dir_cfg() -> SystemConfig {
    let mut cfg =
        SystemConfig::directory_speculative(WorkloadKind::Oltp, LinkBandwidth::MB_400, 77)
            .with_nodes(16)
            .with_telemetry(TelemetryConfig::windowed(2_000));
    cfg.memory.mshr_entries = 4;
    cfg.memory.safetynet.checkpoint_interval_cycles = 5_000;
    cfg.traffic = heavy_traffic();
    cfg.fault_config = campaign();
    cfg
}

fn snoop_cfg() -> SystemConfig {
    // The same chaos campaign the fault-recovery suite runs on the snooping
    // machine: plain OLTP shape (the heavy overlay at 400 MB/s starves this
    // machine into a saturation scenario rather than a lifecycle-rich one).
    let mut cfg = SystemConfig::new(WorkloadKind::Oltp, ProtocolVariant::Speculative, 77);
    cfg.memory.num_nodes = 16;
    cfg.memory.mshr_entries = 4;
    cfg.memory.safetynet.checkpoint_interval_cycles = 5_000;
    cfg.fault_config = campaign();
    cfg.telemetry = TelemetryConfig::windowed(2_000);
    cfg
}

/// Runs the directory machine and returns its (JSONL, trace) outputs.
fn dir_outputs() -> (String, String) {
    let mut sys = DirectorySystem::new(dir_cfg());
    sys.run_for(CYCLES).expect("no protocol errors");
    (
        sys.telemetry_jsonl().expect("telemetry enabled"),
        sys.telemetry_trace().expect("telemetry enabled"),
    )
}

fn snoop_outputs() -> (String, String) {
    let mut sys = SnoopingSystem::new(snoop_cfg());
    sys.run_for(CYCLES).expect("no protocol errors");
    (
        sys.telemetry_jsonl().expect("telemetry enabled"),
        sys.telemetry_trace().expect("telemetry enabled"),
    )
}

/// See the module doc.
const GOLDEN_DIR_JSONL_DIGEST: u64 = 761_327_462_988_274_008;
const GOLDEN_DIR_TRACE_DIGEST: u64 = 1_953_312_100_789_147_611;

#[test]
fn directory_telemetry_matches_the_pinned_goldens() {
    let (jsonl_1, trace_1) = dir_outputs();

    // Shape checks: one sample per full window, every line a JSON object.
    assert_eq!(jsonl_1.lines().count() as u64, CYCLES / 2_000);
    for line in jsonl_1.lines() {
        assert!(line.starts_with("{\"window_start\":") && line.ends_with('}'));
        assert!(line.contains("\"ops\":") && line.contains("\"link_utilization\":"));
    }
    assert!(trace_1.starts_with("{\"traceEvents\":["));
    assert!(trace_1.trim_end().ends_with("}"));
    assert!(trace_1.contains("\"displayTimeUnit\""));
    // The campaign produces real lifecycle content: checkpoints, fault
    // fires, detections and rollback spans.
    for needle in [
        "\"checkpoint\"",
        "\"fault-fired:",
        "\"fault-detected:",
        "\"rollback:",
        "\"mode\"",
    ] {
        assert!(trace_1.contains(needle), "trace is missing {needle}");
    }

    if std::env::var("SPECSIM_PRINT_GOLDENS").is_ok() {
        println!("GOLDEN_DIR_JSONL_DIGEST: {}", digest(&jsonl_1));
        println!("GOLDEN_DIR_TRACE_DIGEST: {}", digest(&trace_1));
    }
    assert_eq!(
        digest(&jsonl_1),
        GOLDEN_DIR_JSONL_DIGEST,
        "telemetry JSONL drifted; if intentional, re-pin (SPECSIM_PRINT_GOLDENS=1)"
    );
    assert_eq!(
        digest(&trace_1),
        GOLDEN_DIR_TRACE_DIGEST,
        "telemetry trace drifted; if intentional, re-pin (SPECSIM_PRINT_GOLDENS=1)"
    );
}

/// The number after `"key":` in one JSONL line.
fn field(line: &str, key: &str) -> f64 {
    let at = line.find(&format!("\"{key}\":")).expect("key present") + key.len() + 3;
    let tail = &line[at..];
    tail[..tail.find([',', '}']).expect("value ends")]
        .parse()
        .expect("a number")
}

#[test]
fn every_window_that_delivers_reports_busy_links() {
    let (jsonl, _) = dir_outputs();
    for line in jsonl.lines() {
        if field(line, "delivered") > 0.0 {
            assert!(field(line, "link_utilization") > 0.0, "{line}");
        }
    }
}

#[test]
fn window_link_utilizations_average_to_the_run_metric() {
    // No faults and no recovery, so no rollback restores the busy count
    // inside a window: the equal-length windows tile the run, and their
    // mean is the run's utilization up to the JSONL's six decimals.
    let mut cfg = dir_cfg();
    cfg.fault_config = FaultConfig::Disabled;
    cfg.traffic = Default::default();
    let mut sys = DirectorySystem::new(cfg);
    let m = sys.run_for(CYCLES).expect("no protocol errors");
    assert_eq!(m.recoveries + m.injected_recoveries, 0);
    assert!(m.link_utilization > 0.0);
    let jsonl = sys.telemetry_jsonl().expect("telemetry enabled");
    let windows: Vec<f64> = jsonl
        .lines()
        .map(|line| field(line, "link_utilization"))
        .collect();
    assert_eq!(windows.len() as u64, CYCLES / 2_000);
    let mean = windows.iter().sum::<f64>() / windows.len() as f64;
    assert!(
        (mean - m.link_utilization).abs() <= 5e-7,
        "window mean {mean} against run metric {}",
        m.link_utilization
    );
}

#[test]
fn snooping_telemetry_records_the_campaign_lifecycle() {
    let (jsonl_1, trace_1) = snoop_outputs();
    assert_eq!(jsonl_1.lines().count() as u64, CYCLES / 2_000);
    assert!(trace_1.contains("\"fault-fired:"));
    assert!(trace_1.contains("\"rollback:"));
}

#[test]
fn repeated_runs_are_byte_identical() {
    // Same config twice: wall clock must never leak into any telemetry
    // surface.
    let (a_jsonl, a_trace) = dir_outputs();
    let (b_jsonl, b_trace) = dir_outputs();
    assert_eq!(a_jsonl, b_jsonl);
    assert_eq!(a_trace, b_trace);
}
