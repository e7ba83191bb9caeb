//! Regenerates Table 1: the framework characterization of the three
//! speculative designs, augmented with measured exposure / mis-speculation /
//! recovery statistics.

use std::process::ExitCode;

use specsim::experiments::render_table1;

fn main() -> ExitCode {
    specsim_bench::run_figure(
        "Table 1 — Framework characterization of the three designs",
        render_table1,
    )
}
