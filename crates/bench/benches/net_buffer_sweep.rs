//! Regenerates the Section 5.3 interconnect study: performance of the
//! simplified (no virtual channel) network versus shared buffer size, with
//! deadlock recoveries, compared against worst-case buffering.

use std::process::ExitCode;

use specsim::experiments::scaling::workloads_from_env;
use specsim::experiments::{buffer_sweep, BufferSweepConfig};

fn main() -> ExitCode {
    specsim_bench::run_figure(
        "Section 5.3 — Simplified interconnection network: buffer-size sweep",
        |scale| {
            // The headline sweep runs OLTP (the most network-intensive
            // workload); set SPECSIM_ALL_WORKLOADS=1 to sweep every workload
            // (same semantics as the scaling sweep: unset or `0` means OLTP
            // only).
            workloads_from_env()
                .into_iter()
                .map(|workload| {
                    buffer_sweep::run(&BufferSweepConfig { workload, scale })
                        .map(|sweep| sweep.render())
                })
                .collect::<Result<Vec<_>, _>>()
                .map(|t| t.join("\n"))
        },
    )
}
