//! Quickstart: build the paper's speculatively simplified directory-protocol
//! system, run it for a short window, and print what happened.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use specsim::experiments::ExperimentScale;
use specsim::{DirectorySystem, SystemConfig};
use specsim_base::LinkBandwidth;
use specsim_workloads::WorkloadKind;

fn main() {
    // The speculative design of Section 3.1: MOSI directory protocol that
    // relies on point-to-point ordering, adaptive routing in the 2D torus,
    // SafetyNet underneath.
    let mut cfg =
        SystemConfig::directory_speculative(WorkloadKind::Oltp, LinkBandwidth::MB_400, 42);
    // Scale the checkpoint interval with the (short) demo run: at Table 2's
    // 100k cycles the recovery point would trail most of the run, and a
    // recovery would discard nearly all of it.
    cfg.memory.safetynet.checkpoint_interval_cycles = 10_000;

    let scale = ExperimentScale::from_env();
    let mut system = DirectorySystem::new(cfg);
    let metrics = system
        .run_for(scale.cycles.max(100_000))
        .expect("protocol behaved");

    println!("speculation-for-simplicity quickstart");
    println!("=====================================");
    // The run report: throughput, latency percentiles, availability and
    // speculation activity, straight from the metrics.
    println!("{}", metrics.summary());
    system
        .verify_coherence()
        .expect("coherence invariants hold");
    println!("coherence invariants    : OK");
}
