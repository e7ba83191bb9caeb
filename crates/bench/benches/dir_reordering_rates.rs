//! Regenerates the Section 5.3 directory-protocol statistics: per-virtual-
//! network message reordering rates, ordering recoveries and link
//! utilizations across the 400 MB/s – 3.2 GB/s bandwidth sweep.

use std::process::ExitCode;

use specsim::experiments::{reorder, ReorderConfig};

fn main() -> ExitCode {
    specsim_bench::run_figure(
        "Section 5.3 — Speculatively simplified directory protocol: reordering rates",
        |scale| reorder::run(&ReorderConfig { scale }).map(|sweep| sweep.render()),
    )
}
