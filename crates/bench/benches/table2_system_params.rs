//! Regenerates Table 2: the target-system parameters, printed from the
//! default configuration and the Table 2 constants (and therefore guaranteed
//! to match what every experiment in this repository actually simulates).

use std::convert::Infallible;
use std::process::ExitCode;

use specsim::experiments::render_table2;

fn main() -> ExitCode {
    specsim_bench::run_fixed("Table 2 — Target system parameters", || {
        Ok::<_, Infallible>(render_table2())
    })
}
