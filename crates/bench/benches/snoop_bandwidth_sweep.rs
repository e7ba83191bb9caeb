//! Snooping data-network bandwidth sweep: the speculative snooping system
//! with its point-to-point data torus running at 400/800/1600/3200 MB/s
//! links, recording throughput, miss latency and per-fabric data-network
//! stats.
//!
//! Besides the console table the run writes `BENCH_snoop_bandwidth.json`
//! next to `BENCH_scaling.json`, giving the perf trajectory a snooping
//! bandwidth axis. Set `SPECSIM_BENCH_QUICK=1` (as CI
//! does) for a small sweep (all four bandwidth points, static routing, two
//! seeds); the full sweep adds adaptive routing and is controlled by
//! `SPECSIM_CYCLES` / `SPECSIM_SEEDS` as usual.

use std::process::ExitCode;

use specsim::experiments::{snoop_bandwidth, SnoopBandwidthConfig};

fn main() -> ExitCode {
    specsim_bench::run_sweep(
        "BENCH_snoop_bandwidth.json",
        SnoopBandwidthConfig::quick,
        snoop_bandwidth::run,
    )
}
