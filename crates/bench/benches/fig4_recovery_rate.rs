//! Regenerates Figure 4: normalized performance versus mis-speculation
//! (recovery) rate, for all five workloads.

use std::process::ExitCode;

use specsim::experiments::{fig4, Fig4Config};

fn main() -> ExitCode {
    specsim_bench::run_figure(
        "Figure 4 — Performance vs. Mis-speculation Rate",
        |scale| fig4::run(&Fig4Config { scale }).map(|sweep| sweep.render()),
    )
}
