//! Domain example 2 — the Section 4 design: share the buffering, let the
//! interconnect deadlock, detect it and recover.
//!
//! The example runs the 16-node speculative directory machine with one
//! shared buffer pool per switch under heavy traffic (Zipfian hot set,
//! bursty injection, 4 MSHRs per processor) and shrinks the pool from 32 to
//! 8 slots. At 8 slots the network wedges: a transaction times out while a
//! pool is exhausted, so the timeout counts as a buffer deadlock,
//! SafetyNet rolls the machine back to its last checkpoint, and
//! re-execution runs with per-network reserved slots. These are the
//! shared-buffer sweep's design points (`shared_buffer::directory_config`),
//! which `tests/pool_deadlock_recovery.rs` pins at 8 and 16 slots.
//!
//! ```text
//! cargo run --release --example deadlock_recovery
//! ```

use specsim::experiments::shared_buffer::directory_config;
use specsim::experiments::ExperimentScale;
use specsim::DirectorySystem;
use specsim_base::RoutingPolicy;
use specsim_coherence::MisSpecKind;
use specsim_net::PoolSlots;
use specsim_workloads::WorkloadKind;

fn main() {
    let scale = ExperimentScale::from_env();
    println!("Section 4 study: shared buffer pool per switch, 16 nodes, heavy traffic");
    println!();
    println!("pool slots   ops completed   recoveries   buffer deadlocks   notes");

    let mut total_recoveries = 0;
    for slots in [32usize, 16, 8] {
        // The sweep's 5 000-cycle checkpoint interval puts the deadlock
        // timeout (3 intervals) within the demo window.
        let pool = Some(PoolSlots::Unified(slots));
        let cfg = directory_config(WorkloadKind::Oltp, RoutingPolicy::Adaptive, pool);
        let mut sys = DirectorySystem::new(cfg.with_seed(6001));
        let metrics = sys.run_for(scale.cycles).expect("protocol behaved");
        sys.verify_coherence().expect("coherence invariants hold");
        total_recoveries += metrics.recoveries;
        let deadlocks = metrics.misspeculations_of(MisSpecKind::BufferDeadlock);
        let note = if deadlocks > 0 {
            "wedged -> timeout + full pool -> SafetyNet recovery -> reserved slots"
        } else if metrics.recoveries > 0 {
            "recovered from timeouts, no buffer deadlock"
        } else {
            "no deadlock at this pool size"
        };
        println!(
            "{:<10} {:>15} {:>12} {:>18}   {}",
            slots, metrics.ops_completed, metrics.recoveries, deadlocks, note
        );
        if deadlocks > 0 {
            // The full run report for a wedged pool: the availability line
            // shows the cycles lost to rollback and reduced-speed
            // re-execution.
            println!();
            println!("--- run report at {slots} pool slots ---");
            println!("{}", metrics.summary());
            println!("---");
        }
    }

    println!();
    println!("recoveries across the sweep: {total_recoveries}");
    println!("Every run ended coherent. A shared pool gives up the per-network buffer");
    println!("reservations that make a conventional interconnect deadlock-free; where");
    println!("it wedged, detection and SafetyNet recovery broke the deadlock instead.");
}
