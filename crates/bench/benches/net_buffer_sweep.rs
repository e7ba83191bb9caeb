//! Regenerates the Section 5.3 interconnect study: performance of the
//! simplified (no virtual channel) network versus shared buffer size, with
//! deadlock recoveries, compared against worst-case buffering.

use std::process::ExitCode;

use specsim::experiments::{buffer_sweep, BufferSweepConfig};
use specsim_workloads::WorkloadKind;

fn main() -> ExitCode {
    specsim_bench::run_figure(
        "Section 5.3 — Simplified interconnection network: buffer-size sweep",
        |scale| {
            // The sweep runs OLTP, the most network-intensive workload.
            let cfg = BufferSweepConfig {
                workload: WorkloadKind::Oltp,
                scale,
            };
            buffer_sweep::run(&cfg).map(|sweep| sweep.render())
        },
    )
}
