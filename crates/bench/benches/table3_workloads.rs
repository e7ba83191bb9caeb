//! Regenerates Table 3: the workload suite — the synthetic stand-ins'
//! parameters plus measured traffic characteristics from short runs.

use std::process::ExitCode;

use specsim::experiments::render_table3;

fn main() -> ExitCode {
    specsim_bench::run_figure("Table 3 — Workloads", render_table3)
}
