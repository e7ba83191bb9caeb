//! Calibration probe: prints throughput of the directory and snooping
//! systems under a few cache configurations. Used to sanity-check the
//! simulator's operating points (and to size test thresholds); not part of
//! the paper's evaluation.

use specsim::{DirectorySystem, SnoopingSystem, SystemConfig};
use specsim_base::{LinkBandwidth, ProtocolVariant, RoutingPolicy};
use specsim_workloads::WorkloadKind;

fn main() {
    for (label, l2) in [
        ("64KB L2", 64 * 1024usize),
        ("256KB L2", 256 * 1024),
        ("4MB L2", 4 << 20),
    ] {
        let mut cfg =
            SystemConfig::directory_speculative(WorkloadKind::Jbb, LinkBandwidth::GB_3_2, 7);
        cfg.protocol = ProtocolVariant::Full;
        cfg.routing = RoutingPolicy::Static;
        cfg.memory.l1_bytes = 16 * 1024;
        cfg.memory.l2_bytes = l2;
        cfg.memory.safetynet.checkpoint_interval_cycles = 5_000;
        let mut sys = DirectorySystem::new(cfg);
        let m = sys.run_for(30_000).expect("dir run");
        println!(
            "dir  jbb {label:>9}: ops={:<7} misses={:<6} miss_lat={:>5.0} msgs={:<7} reord={:.4}% recov={}",
            m.ops_completed,
            m.misses,
            m.mean_miss_latency(),
            m.messages_delivered,
            m.total_reorder_fraction() * 100.0,
            m.recoveries
        );
    }
    for (label, l2) in [("64KB L2", 64 * 1024usize), ("256KB L2", 256 * 1024)] {
        let mut cfg = SystemConfig::new(WorkloadKind::Apache, ProtocolVariant::Full, 11);
        cfg.memory.l1_bytes = 16 * 1024;
        cfg.memory.l2_bytes = l2;
        cfg.memory.safetynet.checkpoint_interval_requests = 200;
        let mut sys = SnoopingSystem::new(cfg);
        let m = sys.run_for(30_000).expect("snoop run");
        println!(
            "snoop apache {label:>9}: ops={:<7} misses={:<6} miss_lat={:>5.0} bus_reqs={:<6} recov={}",
            m.ops_completed,
            m.misses,
            m.mean_miss_latency(),
            m.bus_requests,
            m.recoveries
        );
    }
    // Recovery-resume probe: inject one recovery and confirm progress resumes.
    let mut cfg = SystemConfig::directory_speculative(WorkloadKind::Jbb, LinkBandwidth::GB_3_2, 7);
    cfg.memory.l1_bytes = 16 * 1024;
    cfg.memory.l2_bytes = 256 * 1024;
    cfg.memory.safetynet.checkpoint_interval_cycles = 5_000;
    cfg.inject_recovery_every = Some(20_000);
    let mut sys = DirectorySystem::new(cfg);
    sys.run_for(25_000).expect("run to recovery");
    let ops_mid = sys.ops_completed();
    sys.run_for(10_000).expect("run after recovery");
    println!(
        "recovery resume probe: ops at 25k = {}, ops at 35k = {}",
        ops_mid,
        sys.ops_completed()
    );
}
