//! Cross-crate integration tests: full-system properties of the directory
//! and snooping machines (coherence invariants, determinism, recovery
//! behaviour, forward progress under speculation).

use specsim::experiments::ExperimentScale;
use specsim::{DirectorySystem, SnoopingSystem, SystemConfig};
use specsim_base::{LinkBandwidth, ProtocolVariant, RoutingPolicy};
use specsim_coherence::MisSpecKind;
use specsim_workloads::{WorkloadKind, ALL_WORKLOADS};

fn dir_cfg(workload: WorkloadKind, seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::directory_speculative(workload, LinkBandwidth::GB_3_2, seed);
    cfg.memory.l1_bytes = 32 * 1024;
    cfg.memory.l2_bytes = 256 * 1024;
    cfg.memory.safetynet.checkpoint_interval_cycles = 5_000;
    cfg
}

#[test]
fn every_workload_runs_coherently_on_the_speculative_directory_system() {
    for workload in ALL_WORKLOADS {
        let mut sys = DirectorySystem::new(dir_cfg(workload, 21));
        let m = sys.run_for(25_000).expect("no protocol errors");
        assert!(
            m.ops_completed > 1_000,
            "{}: only {} ops completed",
            workload.label(),
            m.ops_completed
        );
        sys.verify_coherence()
            .unwrap_or_else(|e| panic!("{}: {e}", workload.label()));
    }
}

#[test]
fn simulation_is_deterministic_for_a_fixed_seed() {
    let run = |seed: u64| {
        let mut sys = DirectorySystem::new(dir_cfg(WorkloadKind::Oltp, seed));
        let m = sys.run_for(20_000).expect("no protocol errors");
        (m.ops_completed, m.misses, m.messages_delivered)
    };
    assert_eq!(run(5), run(5), "same seed must reproduce exactly");
    assert_ne!(run(5), run(6), "different seeds must differ");
}

#[test]
fn full_and_speculative_directory_protocols_agree_when_nothing_goes_wrong() {
    // With static routing there are no reorderings, so the speculative
    // protocol never mis-speculates and completes the same work as the full
    // protocol (identical seeds and workloads).
    let mut full_cfg = dir_cfg(WorkloadKind::Slashcode, 33);
    full_cfg.protocol = ProtocolVariant::Full;
    full_cfg.routing = RoutingPolicy::Static;
    let mut spec_cfg = full_cfg.clone();
    spec_cfg.protocol = ProtocolVariant::Speculative;

    let full = DirectorySystem::new(full_cfg).run_for(20_000).unwrap();
    let spec = DirectorySystem::new(spec_cfg).run_for(20_000).unwrap();
    assert_eq!(spec.recoveries, 0);
    assert_eq!(full.ops_completed, spec.ops_completed);
    assert_eq!(full.misses, spec.misses);
}

#[test]
fn adaptive_routing_with_speculation_keeps_the_ordering_recovery_count_tiny() {
    // The central Section 3.1 claim: reorderings that matter are so rare
    // that the speculative system recovers far less often than the ten-per-
    // second budget (here: at most a couple in a short window, usually zero).
    let mut total_recoveries = 0;
    for seed in [1, 2, 3] {
        let mut cfg = dir_cfg(WorkloadKind::Oltp, seed);
        cfg.memory.link_bandwidth = LinkBandwidth::MB_400;
        let mut sys = DirectorySystem::new(cfg);
        let m = sys.run_for(30_000).expect("no protocol errors");
        assert!(m.ops_completed > 1_000);
        total_recoveries += m.misspeculations_of(MisSpecKind::ForwardedRequestToInvalidCache);
        sys.verify_coherence().unwrap();
    }
    assert!(
        total_recoveries <= 3,
        "ordering mis-speculations should be rare, saw {total_recoveries}"
    );
}

#[test]
fn injected_recoveries_do_not_break_coherence_or_forward_progress() {
    let mut cfg = dir_cfg(WorkloadKind::Jbb, 9);
    cfg.inject_recovery_every = Some(7_000);
    let mut sys = DirectorySystem::new(cfg);
    let m = sys.run_for(40_000).expect("no protocol errors");
    assert!(m.injected_recoveries >= 4, "got {}", m.injected_recoveries);
    assert!(m.ops_completed > 1_000);
    assert!(m.lost_work_cycles > 0);
    sys.verify_coherence().unwrap();
}

#[test]
fn snooping_system_runs_all_workloads_without_corner_case_recoveries() {
    for workload in ALL_WORKLOADS {
        let mut cfg = SystemConfig::new(workload, ProtocolVariant::Speculative, 13);
        cfg.memory.l1_bytes = 32 * 1024;
        cfg.memory.l2_bytes = 256 * 1024;
        cfg.memory.safetynet.checkpoint_interval_requests = 300;
        let mut sys = SnoopingSystem::new(cfg);
        let m = sys.run_for(25_000).expect("no protocol errors");
        assert!(
            m.ops_completed > 1_000,
            "{}: only {} ops",
            workload.label(),
            m.ops_completed
        );
        assert_eq!(
            m.misspeculations_of(MisSpecKind::WritebackDoubleRace),
            0,
            "{}: the corner case should not occur in practice",
            workload.label()
        );
        sys.verify_coherence().unwrap();
    }
}

#[test]
fn snooping_data_network_bandwidth_separates_miss_latency_end_to_end() {
    // The snooping machine's second fabric (Table 2: a point-to-point data
    // network beside the ordered address bus) is a real torus: data-network
    // contention at 400 MB/s must visibly inflate miss latency and must not
    // improve throughput relative to 3.2 GB/s links, across workloads.
    for workload in [WorkloadKind::Oltp, WorkloadKind::Jbb] {
        let run = |bw: LinkBandwidth| {
            let mut cfg = SystemConfig::new(workload, ProtocolVariant::Speculative, 17)
                .with_data_bandwidth(bw);
            cfg.memory.l1_bytes = 32 * 1024;
            cfg.memory.l2_bytes = 256 * 1024;
            cfg.memory.safetynet.checkpoint_interval_requests = 300;
            let mut sys = SnoopingSystem::new(cfg);
            let m = sys.run_for(30_000).expect("no protocol errors");
            sys.verify_coherence().unwrap();
            m
        };
        let slow = run(LinkBandwidth::MB_400);
        let fast = run(LinkBandwidth::GB_3_2);
        assert!(
            slow.mean_miss_latency() > fast.mean_miss_latency() * 1.2,
            "{}: 400 MB/s miss latency {:.0} vs 3.2 GB/s {:.0}",
            workload.label(),
            slow.mean_miss_latency(),
            fast.mean_miss_latency()
        );
        assert!(
            slow.throughput() <= fast.throughput(),
            "{}: contention must not speed the system up",
            workload.label()
        );
        // Per-fabric stats: the slow data torus is busier per delivered
        // message and in-fabric latency grows.
        assert!(slow.data_mean_latency_cycles > fast.data_mean_latency_cycles);
        assert!(slow.data_messages_delivered > 0 && fast.data_messages_delivered > 0);
    }
}

#[test]
fn small_buffer_interconnect_recovers_from_deadlock_and_keeps_going() {
    // Section 4 end-to-end: with very small shared buffers the network can
    // wedge; the transaction timeout fires, SafetyNet recovers, slow-start
    // drains the congestion, and the system continues to make progress.
    let mut cfg =
        SystemConfig::simplified_interconnect(WorkloadKind::Oltp, LinkBandwidth::GB_3_2, 2, 5);
    cfg.memory.l1_bytes = 32 * 1024;
    cfg.memory.l2_bytes = 256 * 1024;
    cfg.memory.safetynet.checkpoint_interval_cycles = 2_000;
    let mut sys = DirectorySystem::new(cfg);
    let m = sys.run_for(120_000).expect("no protocol errors");
    assert!(
        m.ops_completed > 500,
        "system must keep making progress, got {}",
        m.ops_completed
    );
    sys.verify_coherence().unwrap();
}

#[test]
fn undersized_shared_pool_deadlocks_detector_fires_and_recovery_completes() {
    // The Section 4 speculation end-to-end: an undersized per-node slot pool
    // lets buffer-dependency cycles deadlock; the transaction timeout (three
    // checkpoint intervals) fires while a pool is exhausted, the
    // mis-speculation is classified as a detected deadlock, SafetyNet
    // recovers, re-execution runs with per-network reserved slots, and the
    // run terminates with correct (coherent) results.
    // 32 nodes at the low-bandwidth operating point: longer paths and long
    // data serializations pin slots, and a 4-slot pool wedges reliably.
    let mut cfg =
        SystemConfig::shared_pool_interconnect(WorkloadKind::Oltp, LinkBandwidth::MB_400, 4, 5);
    cfg.memory.num_nodes = 32;
    cfg.memory.l1_bytes = 32 * 1024;
    cfg.memory.l2_bytes = 256 * 1024;
    cfg.memory.safetynet.checkpoint_interval_cycles = 2_000;
    assert!(cfg.validate().is_empty());
    let mut sys = DirectorySystem::new(cfg);
    let m = sys.run_for(30_000).expect("no protocol errors");
    assert!(
        m.deadlock_recoveries >= 1,
        "expected at least one detected deadlock, got misspecs {:?}",
        m.misspeculations
    );
    assert_eq!(m.deadlocks_detected(), m.deadlock_recoveries);
    // The run keeps terminating work after the recovery: execution resumes
    // under the per-network slot reservation and commits more operations.
    let ops_at_recovery = m.ops_completed;
    let m = sys.run_for(30_000).expect("no protocol errors");
    assert!(
        m.ops_completed > ops_at_recovery,
        "no forward progress after the deadlock recovery ({} ops)",
        m.ops_completed
    );
    sys.verify_coherence().unwrap();
}

#[test]
fn ample_shared_pool_never_deadlocks_and_matches_conventional_progress() {
    // Sized near the common case, the pooled fabric runs the workload with
    // no deadlocks at all (the paper's operating point).
    let mut cfg =
        SystemConfig::shared_pool_interconnect(WorkloadKind::Jbb, LinkBandwidth::GB_3_2, 64, 5);
    cfg.memory.l1_bytes = 32 * 1024;
    cfg.memory.l2_bytes = 256 * 1024;
    cfg.memory.safetynet.checkpoint_interval_cycles = 5_000;
    let mut sys = DirectorySystem::new(cfg);
    let m = sys.run_for(40_000).expect("no protocol errors");
    assert_eq!(m.deadlock_recoveries, 0);
    assert_eq!(m.misspeculations_of(MisSpecKind::TransactionTimeout), 0);
    assert!(m.ops_completed > 1_000);
    sys.verify_coherence().unwrap();
}

#[test]
fn snooping_data_torus_reports_per_class_stats() {
    // Satellite of the data-torus work: owner transfers and writebacks are
    // tagged as distinct data-network classes with separate delivered/latency
    // accounting, and the class totals add up to the fabric total.
    // The small L2 forces dirty evictions, so both classes carry traffic.
    let mut cfg = SystemConfig::new(WorkloadKind::Oltp, ProtocolVariant::Full, 17);
    cfg.memory.l1_bytes = 8 * 1024;
    cfg.memory.l2_bytes = 16 * 1024;
    cfg.memory.safetynet.checkpoint_interval_requests = 300;
    let mut sys = SnoopingSystem::new(cfg);
    let m = sys.run_for(100_000).expect("no protocol errors");
    let owner = m.data_delivered_per_class[specsim::DataClass::OwnerTransfer.index()];
    let wb = m.data_delivered_per_class[specsim::DataClass::Writeback.index()];
    assert_eq!(owner + wb, m.data_messages_delivered);
    assert!(owner > 0, "misses must move owner-transfer data");
    assert!(
        wb > 0,
        "small caches must evict dirty blocks (writeback data)"
    );
    for class in specsim::ALL_DATA_CLASSES {
        let delivered = m.data_delivered_per_class[class.index()];
        let latency = m.data_latency_per_class[class.index()];
        assert_eq!(
            delivered > 0,
            latency > 0.0,
            "{}: latency must be reported iff traffic flowed",
            class.label()
        );
    }
}

#[test]
fn ample_buffer_interconnect_never_times_out() {
    let mut cfg =
        SystemConfig::simplified_interconnect(WorkloadKind::Jbb, LinkBandwidth::GB_3_2, 32, 5);
    cfg.memory.l1_bytes = 32 * 1024;
    cfg.memory.l2_bytes = 256 * 1024;
    cfg.memory.safetynet.checkpoint_interval_cycles = 5_000;
    let mut sys = DirectorySystem::new(cfg);
    let m = sys.run_for(40_000).expect("no protocol errors");
    assert_eq!(m.misspeculations_of(MisSpecKind::TransactionTimeout), 0);
    assert!(m.ops_completed > 1_000);
}

#[test]
fn experiment_scale_override_is_respected() {
    let scale = ExperimentScale {
        cycles: 1234,
        seeds: 2,
    };
    assert_eq!(scale.seed_list(7), vec![8, 9]);
}
