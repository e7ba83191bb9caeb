//! Regenerates Figure 1: adaptive routing violating point-to-point order,
//! on the fixed scenario of `specsim::experiments::fig1`.

use std::convert::Infallible;
use std::process::ExitCode;

use specsim::experiments::fig1;

fn main() -> ExitCode {
    specsim_bench::run_fixed(
        "Figure 1 — Violating point-to-point order with adaptive routing",
        || Ok::<_, Infallible>(fig1::run().render()),
    )
}
