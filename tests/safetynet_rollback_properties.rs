//! Property-style integration tests of SafetyNet recovery semantics at the
//! full-system level: rollback restores committed state exactly, discards
//! speculative work, and re-execution converges to the same architectural
//! results as an undisturbed run.

use proptest::prelude::*;
use specsim::{DirectorySystem, SystemConfig};
use specsim_base::{LinkBandwidth, RoutingPolicy};
use specsim_workloads::WorkloadKind;

fn cfg(seed: u64, inject: Option<u64>) -> SystemConfig {
    let mut cfg =
        SystemConfig::directory_speculative(WorkloadKind::Barnes, LinkBandwidth::GB_3_2, seed);
    cfg.routing = RoutingPolicy::Static; // keep the run fully deterministic
    cfg.memory.l1_bytes = 16 * 1024;
    cfg.memory.l2_bytes = 128 * 1024;
    // A short checkpoint interval keeps the recovery cost (lost work back to
    // the last *validated* checkpoint, i.e. up to ~3 intervals plus the
    // restore latency) small relative to the injection intervals below.
    cfg.memory.safetynet.checkpoint_interval_cycles = 2_000;
    cfg.inject_recovery_every = inject;
    cfg
}

#[test]
fn recovery_discards_speculative_work_but_execution_continues_coherently() {
    let mut disturbed = DirectorySystem::new(cfg(3, Some(20_000)));
    let m = disturbed.run_for(80_000).expect("no protocol errors");
    assert!(m.injected_recoveries >= 3, "got {}", m.injected_recoveries);
    assert!(m.lost_work_cycles > 0);
    disturbed.verify_coherence().unwrap();

    let mut undisturbed = DirectorySystem::new(cfg(3, None));
    let baseline = undisturbed.run_for(80_000).expect("no protocol errors");
    // Recoveries cost work: the disturbed run must not out-perform the
    // undisturbed one, but it must still get a substantial amount done.
    assert!(m.ops_completed <= baseline.ops_completed);
    assert!(
        m.ops_completed * 2 > baseline.ops_completed,
        "disturbed {} vs baseline {}",
        m.ops_completed,
        baseline.ops_completed
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For any injection interval comfortably above the recovery cost, the
    /// system stays coherent and keeps making forward progress.
    #[test]
    fn any_injection_interval_preserves_coherence(interval in 15_000u64..40_000) {
        let mut sys = DirectorySystem::new(cfg(11, Some(interval)));
        let m = sys.run_for(30_000).expect("no protocol errors");
        prop_assert!(m.ops_completed > 500, "ops {}", m.ops_completed);
        prop_assert!(sys.verify_coherence().is_ok());
    }

    /// Lost work is charged once. Injections closer together than the
    /// validation window restore the same checkpoint again; each restore
    /// charges only the work since execution last resumed from it. So the
    /// discarded work fits in the run, and so does the discarded work plus
    /// every recovery's stall but the last, which may run past the end.
    #[test]
    fn lost_work_never_exceeds_the_run(seed in 0u64..1000, interval in 1_500u64..12_000) {
        let mut sys = DirectorySystem::new(cfg(seed, Some(interval)));
        let m = sys.run_for(40_000).expect("no protocol errors");
        let recoveries = m.recoveries + m.injected_recoveries;
        prop_assert!(recoveries >= 3, "only {} recoveries", recoveries);
        prop_assert!(
            m.lost_work_cycles <= m.cycles,
            "lost {} of {} cycles",
            m.lost_work_cycles,
            m.cycles
        );
        let latency = m.recovery_latency_cycles / recoveries;
        prop_assert!(m.lost_work_cycles + m.recovery_latency_cycles <= m.cycles + latency);
    }

    /// Determinism holds for arbitrary seeds (same seed, same result).
    #[test]
    fn determinism_over_arbitrary_seeds(seed in 0u64..1000) {
        let a = DirectorySystem::new(cfg(seed, None)).run_for(8_000).expect("run a");
        let b = DirectorySystem::new(cfg(seed, None)).run_for(8_000).expect("run b");
        prop_assert_eq!(a.ops_completed, b.ops_completed);
        prop_assert_eq!(a.messages_delivered, b.messages_delivered);
    }
}
