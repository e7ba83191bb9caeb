//! Node-count scaling sweep: the speculative directory system under OLTP on
//! rectangular tori from 8 to 1024 nodes, both routing policies, recording
//! throughput, mis-speculation rate and simulator ns/simulated-cycle.
//!
//! Besides the console table the run writes `BENCH_scaling.json`, so the
//! perf trajectory across commits has a node-count axis. Set `SPECSIM_BENCH_QUICK=1` (as CI does) for a small
//! sweep (8/32/256 nodes, two seeds); the full sweep size is controlled by
//! `SPECSIM_CYCLES` / `SPECSIM_SEEDS` as usual.

use std::process::ExitCode;

use specsim::experiments::{scaling, ScalingConfig};

fn main() -> ExitCode {
    specsim_bench::run_sweep("BENCH_scaling.json", ScalingConfig::quick, scaling::run)
}
