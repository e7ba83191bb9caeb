//! Fault-tolerance chaos campaign: transient-fault rate × kind × machine
//! under the canonical heavy-traffic knobs, recording throughput
//! degradation, detected/recovered fault counts and detection latency.
//!
//! Besides the console table the run writes `BENCH_fault_tolerance.json`
//! next to the other perf artifacts. Set `SPECSIM_BENCH_QUICK=1` (as CI
//! does) for a small grid (two rates, three kinds, two seeds); the full
//! grid size is controlled by `SPECSIM_CYCLES` / `SPECSIM_SEEDS` as usual.

use std::process::ExitCode;

use specsim::experiments::{fault_tolerance, FaultToleranceConfig};

fn main() -> ExitCode {
    specsim_bench::run_sweep(
        "BENCH_fault_tolerance.json",
        FaultToleranceConfig::quick,
        fault_tolerance::run,
    )
}
