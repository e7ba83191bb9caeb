//! Heavy-traffic sweep: MSHR count × address skew × injection shape on the
//! 16-node speculative directory machine at 400 MB/s, recording throughput,
//! coherence-miss pressure and the in-vivo mis-speculation rate.
//!
//! Besides the console table the run writes `BENCH_heavy_traffic.json` next
//! to the other perf artifacts. Set `SPECSIM_BENCH_QUICK=1` (as CI does) for
//! a small grid (1/4 MSHRs, uniform vs. zipf+bursty, two seeds); the full
//! grid size is controlled by `SPECSIM_CYCLES` / `SPECSIM_SEEDS` as usual.

use std::process::ExitCode;

use specsim::experiments::{heavy_traffic, HeavyTrafficConfig};

fn main() -> ExitCode {
    specsim_bench::run_sweep(
        "BENCH_heavy_traffic.json",
        HeavyTrafficConfig::quick,
        heavy_traffic::run,
    )
}
