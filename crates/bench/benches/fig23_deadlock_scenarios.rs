//! Regenerates Figures 2 and 3: endpoint deadlock and switch deadlock, on
//! the fixed scenarios of `specsim::experiments::fig23`.

use std::convert::Infallible;
use std::process::ExitCode;

use specsim::experiments::fig23;

fn main() -> ExitCode {
    specsim_bench::run_fixed(
        "Figures 2 and 3 — Endpoint deadlock and switch deadlock",
        || {
            let fig2 = fig23::run_fig2().render();
            let fig3 = fig23::run_fig3().render();
            Ok::<_, Infallible>(format!("{fig2}\n{fig3}"))
        },
    )
}
