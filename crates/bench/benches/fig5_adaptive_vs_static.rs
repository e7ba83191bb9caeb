//! Regenerates Figure 5: relative performance of static and adaptive routing
//! at 400 MB/s links for the speculatively simplified directory protocol,
//! as the 400 MB/s point of the crossover sweep for every workload.

use std::process::ExitCode;

use specsim::experiments::{fig5_crossover, Fig5CrossoverConfig};
use specsim_base::LinkBandwidth;
use specsim_workloads::ALL_WORKLOADS;

fn main() -> ExitCode {
    specsim_bench::run_figure(
        "Figure 5 — Relative performance of static and adaptive routing (400 MB/s)",
        |scale| {
            ALL_WORKLOADS
                .into_iter()
                .map(|workload| {
                    let cfg = Fig5CrossoverConfig {
                        bandwidths: vec![LinkBandwidth::MB_400],
                        workload,
                        scale,
                    };
                    fig5_crossover::run(&cfg).map(|sweep| sweep.render())
                })
                .collect::<Result<Vec<_>, _>>()
                .map(|t| t.join("\n"))
        },
    )
}
