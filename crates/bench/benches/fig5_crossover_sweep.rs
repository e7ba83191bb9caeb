//! Fig. 5 crossover sweep: static vs. adaptive routing on the speculative
//! directory system across a fine-grained 400 → 3200 MB/s bandwidth axis,
//! locating the bandwidth at which adaptive routing's advantage decays to
//! parity.
//!
//! Besides the console table the run writes `BENCH_fig5_crossover.json`.
//! Set `SPECSIM_BENCH_QUICK=1` (as CI does) for a small sweep (the whole
//! axis, two seeds, short runs); the full sweep is controlled by
//! `SPECSIM_CYCLES` / `SPECSIM_SEEDS` as usual.

use std::process::ExitCode;

use specsim::experiments::{fig5_crossover, Fig5CrossoverConfig};

fn main() -> ExitCode {
    specsim_bench::run_sweep(
        "BENCH_fig5_crossover.json",
        Fig5CrossoverConfig::quick,
        fig5_crossover::run,
    )
}
