//! Shared-pool interconnect sweep: the Section 4 speculative buffer mode
//! (one slot pool per node instead of sized virtual networks) across pool
//! sizes, routing policies and workloads, against the conservatively-sized
//! virtual-network baseline.
//!
//! Besides the console table the run writes `BENCH_shared_buffer.json` next
//! to the other perf artifacts. Set `SPECSIM_BENCH_QUICK=1` (as CI does) for
//! a small sweep (every pool size, adaptive routing, OLTP, two seeds); the
//! full sweep adds static routing and a second workload and is controlled by
//! `SPECSIM_CYCLES` / `SPECSIM_SEEDS` as usual.

use std::process::ExitCode;

use specsim::experiments::{shared_buffer, SharedBufferConfig};

fn main() -> ExitCode {
    specsim_bench::run_sweep(
        "BENCH_shared_buffer.json",
        SharedBufferConfig::quick,
        shared_buffer::run,
    )
}
