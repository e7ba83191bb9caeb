//! Regenerates the Section 5.3 snooping-protocol study: the speculative
//! protocol never reaches the corner case on the workloads, so its
//! performance mirrors the fully designed protocol; a directed scenario
//! confirms the detection mechanism works.

use std::process::ExitCode;

use specsim::experiments::{snooping, SnoopingConfig};

fn main() -> ExitCode {
    specsim_bench::run_figure(
        "Section 5.3 — Speculatively simplified snooping protocol",
        |scale| snooping::run(&SnoopingConfig { scale }).map(|sweep| sweep.render()),
    )
}
