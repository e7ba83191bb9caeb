//! Domain example 1 — the Section 3.1 trade-off, end to end.
//!
//! Runs the OLTP workload on three directory-protocol machines at 400 MB/s
//! links and compares them:
//!
//! 1. the conventional design: fully specified protocol + static routing;
//! 2. the speculative design: simplified protocol relying on point-to-point
//!    ordering + adaptive routing (the paper's proposal);
//! 3. the speculative protocol forced onto static routing (shows that the
//!    win comes from adaptive routing, not from the protocol change).
//!
//! ```text
//! cargo run --release --example adaptive_routing_study
//! ```

use specsim::experiments::runner::{
    measure_directory, ratio, throughput_measurement, ExperimentScale,
};
use specsim::SystemConfig;
use specsim_base::{LinkBandwidth, RoutingPolicy};
use specsim_net::VirtualNetwork;
use specsim_workloads::WorkloadKind;

fn main() {
    let scale = ExperimentScale::from_env();
    let workload = WorkloadKind::Oltp;
    let bandwidth = LinkBandwidth::MB_400;

    let mut conventional = SystemConfig::directory_baseline(workload, bandwidth, 1);
    conventional.memory.safetynet.checkpoint_interval_cycles = 5_000;

    let mut speculative = SystemConfig::directory_speculative(workload, bandwidth, 1);
    speculative.memory.safetynet.checkpoint_interval_cycles = 5_000;

    let mut spec_static = speculative.clone();
    spec_static.routing = RoutingPolicy::Static;

    println!(
        "Section 3.1 study: {} at {} MB/s links, {} cycles x {} runs",
        workload.label(),
        bandwidth.megabytes_per_second,
        scale.cycles,
        scale.seeds
    );
    println!();

    let base_runs = measure_directory(&conventional, scale).expect("baseline runs");
    let base = throughput_measurement(&base_runs);
    let report = |name: &str, cfg: &SystemConfig| {
        let runs = measure_directory(cfg, scale).expect("runs");
        let t = throughput_measurement(&runs);
        let reorders: u64 = runs
            .iter()
            .map(|r| r.reordered_per_vnet[VirtualNetwork::ForwardedRequest.index()])
            .sum();
        let recoveries: u64 = runs.iter().map(|r| r.recoveries).sum();
        println!(
            "{name:<38} perf vs conventional: {:>5.2}   FwdRequest reorders: {:>4}   recoveries: {}",
            ratio(t.mean, base.mean),
            reorders,
            recoveries
        );
    };

    report("conventional (full protocol, static)", &conventional);
    report("speculative  (simplified, adaptive)", &speculative);
    report("speculative  (simplified, static)", &spec_static);

    println!();
    println!("The speculative/adaptive system should match or beat the conventional design");
    println!("while incurring at most a handful of ordering recoveries (usually zero).");
}
