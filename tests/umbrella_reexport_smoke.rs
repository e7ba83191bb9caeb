//! Smoke test of the umbrella crate's re-export surface: every workspace
//! member must be reachable through `specsim_suite::*`, and the default
//! system configuration reached that way must carry the paper's Table 2
//! parameters end to end.
//!
//! All paths in this file deliberately go through `specsim_suite` (never the
//! member crates directly) so that a broken or renamed re-export fails this
//! test rather than only downstream users.

use specsim_suite::specsim::experiments::tables::{MEMORY_BYTES, MEMORY_LATENCY_CYCLES};
use specsim_suite::specsim::{DirectorySystem, SystemConfig};
use specsim_suite::specsim_base::time::cycles_to_ns;
use specsim_suite::specsim_base::{
    LinkBandwidth, ProtocolVariant, RoutingPolicy, BLOCK_SIZE_BYTES,
};
use specsim_suite::specsim_coherence::types::CpuAccess;
use specsim_suite::specsim_net::VirtualNetwork;
use specsim_suite::specsim_safetynet::log::{LOG_BUFFER_BYTES, LOG_ENTRY_BYTES};
use specsim_suite::specsim_safetynet::station::REGISTER_CHECKPOINT_CYCLES;
use specsim_suite::specsim_safetynet::LogOutcome;
use specsim_suite::specsim_workloads::WorkloadKind;

#[test]
fn default_system_config_matches_table_2_through_the_umbrella() {
    let cfg = SystemConfig::default();

    // Target system, Table 2 / Section 5.1.
    let m = &cfg.memory;
    assert_eq!(m.num_nodes, 16, "16-node machine");
    assert_eq!(m.torus_dims(), (4, 4), "4x4 2D torus");
    assert_eq!(BLOCK_SIZE_BYTES, 64, "64-byte coherence blocks");
    assert_eq!(m.l1_bytes, 128 * 1024, "128 KB L1");
    assert_eq!(m.l1_ways, 4, "4-way L1");
    assert_eq!(m.l2_bytes, 4 * 1024 * 1024, "4 MB L2");
    assert_eq!(m.l2_ways, 4, "4-way L2");
    assert_eq!(MEMORY_BYTES, 2 * 1024 * 1024 * 1024, "2 GB memory");
    assert_eq!(
        cycles_to_ns(MEMORY_LATENCY_CYCLES),
        180,
        "180 ns two-hop miss-from-memory latency"
    );
    assert_eq!(m.link_bandwidth, LinkBandwidth::GB_3_2, "3.2 GB/s links");

    // SafetyNet, Table 2.
    let sn = &m.safetynet;
    assert_eq!(LOG_BUFFER_BYTES, 512 * 1024, "512 KB checkpoint log");
    assert_eq!(LOG_ENTRY_BYTES, 72, "72-byte log entries");
    assert_eq!(
        sn.checkpoint_interval_cycles, 100_000,
        "directory checkpoint interval"
    );
    assert_eq!(
        sn.checkpoint_interval_requests, 3_000,
        "snooping checkpoint interval"
    );
    assert_eq!(
        REGISTER_CHECKPOINT_CYCLES, 100,
        "register checkpoint latency"
    );

    // The default machine is the paper's primary speculative design.
    assert_eq!(cfg.protocol, ProtocolVariant::Speculative);
    assert_eq!(cfg.routing, RoutingPolicy::Adaptive);

    // The configuration must be internally consistent.
    assert!(
        m.validate().is_empty(),
        "default config failed validation: {:?}",
        m.validate()
    );
}

#[test]
fn default_system_runs_coherently_through_the_umbrella() {
    let mut sys = DirectorySystem::new(SystemConfig::default());
    let metrics = sys.run_for(5_000).expect("no protocol errors");
    assert!(
        metrics.ops_completed > 0,
        "the default system makes progress"
    );
    sys.verify_coherence()
        .expect("the default system stays coherent");
}

#[test]
fn member_crate_types_are_reachable_through_the_umbrella() {
    // One item per re-exported member, so a dropped `pub use` fails here.
    assert_eq!(WorkloadKind::Oltp.label(), "oltp");
    assert_ne!(CpuAccess::Load, CpuAccess::Store);
    assert_ne!(VirtualNetwork::Request, VirtualNetwork::Response);
    assert_ne!(LogOutcome::Recorded, LogOutcome::Full);
}
