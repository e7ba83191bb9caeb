//! Node-count scaling sweep: the speculative directory system under OLTP on
//! rectangular tori from 8 to 1024 nodes, both routing policies, recording
//! throughput, mis-speculation rate and simulator ns/simulated-cycle with
//! serial and with sharded network forwarding (byte-identical schedules, so
//! the columns time the same run).
//!
//! Besides the console table the run writes `BENCH_scaling.json` next to
//! `BENCH_kernel.json`, so the perf trajectory across commits has a
//! node-count axis. Set `SPECSIM_BENCH_QUICK=1` (as CI does) for a small
//! sweep (8/32/256 nodes, two seeds); the full sweep size is controlled by
//! `SPECSIM_CYCLES` / `SPECSIM_SEEDS` as usual, and `SPECSIM_ALL_WORKLOADS=1`
//! sweeps every Table 3 workload generator instead of OLTP only.

use specsim::experiments::scaling;
use specsim::experiments::ScalingConfig;
use specsim_bench::{finish, start};

fn main() {
    let cfg = if std::env::var("SPECSIM_BENCH_QUICK").is_ok() {
        ScalingConfig::quick()
    } else {
        ScalingConfig::default()
    };
    let t = start("Node-count scaling sweep (rectangular tori)", cfg.scale);
    println!(
        "machines: {:?} nodes, workloads: {:?}, static + adaptive routing\n",
        cfg.node_counts,
        cfg.workloads.iter().map(|w| w.label()).collect::<Vec<_>>()
    );
    match scaling::run(&cfg) {
        Ok(data) => {
            println!("{}", data.render());
            let json = data.to_json();
            let path = "BENCH_scaling.json";
            match std::fs::write(path, &json) {
                Ok(()) => println!("wrote {path}"),
                Err(e) => eprintln!("could not write {path}: {e}"),
            }
        }
        Err(e) => eprintln!("protocol error during scaling sweep: {e}"),
    }
    finish(t);
}
