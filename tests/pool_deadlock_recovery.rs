//! End-to-end Section 4 story on the full 16-node machine: a shared-pool
//! interconnect with an 8-slot pool per node, driven by non-blocking
//! processors (4 MSHRs) under the canonical heavy traffic shape (Zipfian hot
//! set + bursty injection), must actually wedge — the checkpoint timeout,
//! firing while a pool is full, classifies it as a buffer deadlock,
//! SafetyNet recovery breaks it, re-execution runs under per-network reserved slots, and the
//! memory system comes out coherent on the other side.
//!
//! The snooping machine's pooled data torus tells the same story at its own
//! 8-slot design point.
//!
//! This is the in-vivo counterpart to the synthetic endpoint-deadlock test
//! (`fig2_endpoint_deadlock.rs`): nothing here drives the fabric by hand; the
//! dependency cycle forms from real protocol traffic.

use specsim::experiments::heavy_traffic::{heavy_machine, Machine};
use specsim::experiments::shared_buffer::directory_config;
use specsim::{DirectorySystem, EngineMode, SnoopingSystem, SystemConfig};
use specsim_base::RoutingPolicy;
use specsim_coherence::MisSpecKind;
use specsim_net::PoolSlots;
use specsim_workloads::WorkloadKind;

/// The shared-buffer sweep's adaptive OLTP design point with a `slots`-slot
/// pool per node, at the sweep's first perturbed seed.
fn pool_config(slots: usize) -> SystemConfig {
    let pool = Some(PoolSlots::Unified(slots));
    directory_config(WorkloadKind::Oltp, RoutingPolicy::Adaptive, pool).with_seed(6001)
}

#[test]
fn heavy_traffic_deadlocks_the_8_slot_pool_and_recovery_restores_coherence() {
    let cfg = pool_config(8);
    assert!(
        cfg.validate().is_empty(),
        "the sweep design point must be a valid configuration: {:?}",
        cfg.validate()
    );
    let mut sys = DirectorySystem::new(cfg);

    // Step in short chunks so the conservative re-execution window
    // (EngineMode::ReservedSlots) is observable while it is open.
    let mut saw_reserved_slots = false;
    for _ in 0..40 {
        sys.run_for(500).expect("no protocol errors");
        if sys.forward_progress_mode() == EngineMode::ReservedSlots {
            saw_reserved_slots = true;
        }
    }
    let m = sys.collect_metrics();

    // The deadlock fired, was classified as a buffer deadlock (the timeout
    // fired while a pool was full, not a bare transaction timeout), and
    // recovery ran.
    assert!(
        m.misspeculations_of(MisSpecKind::BufferDeadlock) > 0,
        "an 8-slot pool under heavy traffic must hit a buffer deadlock; \
         got misspeculations {:?}",
        m.misspeculations
    );
    assert!(
        m.deadlock_recoveries > 0,
        "the buffer deadlock must be broken by a SafetyNet recovery"
    );
    assert!(
        saw_reserved_slots,
        "re-execution after a buffer-deadlock recovery must run under \
         per-virtual-network reserved slots"
    );

    // The system keeps committing work across the recovery. Rollback rewinds
    // the committed-op counters to the last *validated* checkpoint, so right
    // after a deadlock the count can read zero — run on until a later
    // checkpoint validates and commits work again.
    let mut m = m;
    let mut total_cycles = 20_000u64;
    while m.ops_completed == 0 && total_cycles < 150_000 {
        m = sys.run_for(5_000).expect("no protocol errors");
        total_cycles += 5_000;
    }
    assert!(
        m.ops_completed > 0,
        "the machine must make forward progress across the recovery \
         (no committed work after {total_cycles} cycles)"
    );

    // The stable memory state is coherent: one owner per block, all copies
    // equal to the owner's value.
    if let Err(violation) = sys.verify_coherence() {
        panic!("memory system incoherent after deadlock recovery: {violation}");
    }
}

#[test]
fn sixteen_slot_pool_rides_out_the_same_traffic_without_pool_deadlock() {
    // Control arm pinning the 8→16-slot threshold the shared-buffer sweep
    // reports: doubling the pool at the same design point keeps every pool
    // short of full when a timeout fires (any recovery that does fire is a
    // plain starvation timeout, not a buffer deadlock).
    let mut sys = DirectorySystem::new(pool_config(16));
    let m = sys.run_for(20_000).expect("no protocol errors");
    assert_eq!(
        m.misspeculations_of(MisSpecKind::BufferDeadlock),
        0,
        "a 16-slot pool must not wedge under the same traffic; got {:?}",
        m.misspeculations
    );
    assert_eq!(m.deadlock_recoveries, 0);
    if let Err(violation) = sys.verify_coherence() {
        panic!("memory system incoherent: {violation}");
    }
}

#[test]
fn heavy_traffic_deadlocks_the_8_slot_snooping_data_torus_and_recovery_restores_coherence() {
    // The 8-slot pooled snooping row of the shared-buffer sweep (heavy
    // OLTP, 4 MSHRs, 5k-cycle timeout intervals), at its third seed.
    let cfg = heavy_machine(Machine::Snooping, WorkloadKind::Oltp, 6003).with_pooled_data_torus(8);
    assert!(cfg.validate().is_empty(), "{:?}", cfg.validate());
    let mut sys = SnoopingSystem::new(cfg);

    let mut saw_reserved_slots = false;
    for _ in 0..60 {
        sys.run_for(500).expect("no protocol errors");
        if sys.forward_progress_mode() == EngineMode::ReservedSlots {
            saw_reserved_slots = true;
        }
    }
    let m = sys.collect_metrics();

    // The data torus wedged, its evidence classified the timeout as a
    // buffer deadlock, and a SafetyNet recovery broke it.
    assert!(
        m.misspeculations_of(MisSpecKind::BufferDeadlock) > 0,
        "an 8-slot data torus under heavy traffic must hit a buffer \
         deadlock; got misspeculations {:?}",
        m.misspeculations
    );
    assert!(m.deadlock_recoveries > 0);
    assert!(
        saw_reserved_slots,
        "re-execution after a buffer-deadlock recovery must run under \
         reserved slots on the data torus"
    );
    if let Err(violation) = sys.verify_coherence() {
        panic!("memory system incoherent after deadlock recovery: {violation}");
    }
}

#[test]
fn a_wedge_under_reserved_slots_with_no_full_pool_is_a_plain_timeout() {
    // The 4-slot static OLTP row of the shared-buffer sweep. The first wedge
    // fills a pool, so its timeout is a buffer deadlock and re-execution
    // reserves one slot per virtual network: with four networks that is the
    // whole pool. The machine wedges again under the reservation with no
    // pool full; that timeout must not count as a buffer deadlock (which
    // would re-apply the same reservation), so the next measure is
    // slow-start.
    let pool = Some(PoolSlots::Unified(4));
    let cfg = directory_config(WorkloadKind::Oltp, RoutingPolicy::Static, pool).with_seed(6001);
    let mut sys = DirectorySystem::new(cfg);
    let kinds = [MisSpecKind::BufferDeadlock, MisSpecKind::TransactionTimeout];
    let mut seen = [0; 2];
    let mut order = Vec::new();
    for _ in 0..400 {
        let m = sys.run_for(100).expect("no protocol errors");
        for (kind, count) in kinds.iter().zip(&mut seen) {
            let now = m.misspeculations_of(*kind);
            order.extend((*count..now).map(|_| (*kind, sys.now())));
            *count = now;
        }
    }
    assert_eq!(
        order.iter().map(|&(kind, _)| kind).collect::<Vec<_>>(),
        kinds,
        "one buffer deadlock, then one plain timeout; got (kind, cycle) {order:?}"
    );
    assert_eq!(sys.forward_progress_mode(), EngineMode::SlowStart);
    if let Err(violation) = sys.verify_coherence() {
        panic!("memory system incoherent: {violation}");
    }
}
