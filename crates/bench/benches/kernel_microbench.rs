//! Microbenchmarks of the simulation kernel itself: how fast the
//! interconnect and the full directory and snooping systems simulate, per
//! simulated cycle,
//! and what the cache arrays inside every controller cost.
//! These are engineering benchmarks for the simulator (not paper artifacts);
//! they make regressions in simulator throughput visible.
//!
//! Three cases bracket the kernel:
//!
//! * `torus_1000_cycles_random_traffic` — a saturated network; the
//!   active-switch worklist must not cost anything when every switch is busy.
//! * `torus_20000_cycles_sparse_traffic` — one injection per 100 cycles; the
//!   worklist kernel skips the idle switches, which is where the active-set
//!   design wins.
//! * `oltp_5000_cycles` — the full directory system on a live workload,
//!   and the same case on the snooping machine at its Table 2 defaults,
//!   where snoop delivery (the ordered bus and the holder index) joins
//!   the kernel.
//!
//! Two more time one SafetyNet checkpoint, `sys.arch().clone()`, of a
//! directory machine warmed for 30k cycles:
//!
//! * `arch_snapshot_16` — the 4×4 machine;
//! * `arch_snapshot_1024` — the 32×32 machine. Controllers are shared
//!   between snapshots, so the torus and the processors dominate.
//!
//! Two time the cache array that every cache controller holds, on an
//! L2-geometry array (16384 sets × 4 ways) holding 4096 lines from a fixed
//! `DetRng` stream:
//!
//! * `cache_array_lookup` — a demand lookup, half of them to resident
//!   blocks and half to random, mostly absent, ones;
//! * `cache_array_copy` — one clone of the whole array, the cost a
//!   controller copy pays for each of its arrays.
//!
//! Each case is measured once with a plain wall-clock sample loop that both
//! prints a console report and writes `BENCH_kernel.json` (`name → ns per
//! simulated cycle`, or per snapshot, lookup or copy for the other cases;
//! host timing, so it is not committed). Set `SPECSIM_BENCH_QUICK=1` (as CI does) to cut
//! sample counts.

use std::process::ExitCode;
use std::time::Instant;

use specsim::{DirectorySystem, SnoopingSystem, SystemConfig};
use specsim_base::{
    BlockAddr, DetRng, LinkBandwidth, MessageSize, NodeId, ProtocolVariant, RoutingPolicy,
};
use specsim_bench::{kernel_json, write_artifact};
use specsim_coherence::{CacheArray, CacheGeometry};
use specsim_net::{NetConfig, Network, VirtualNetwork};
use specsim_workloads::WorkloadKind;

const SATURATED_CYCLES: u64 = 1_000;
const SPARSE_CYCLES: u64 = 20_000;
const SYSTEM_CYCLES: u64 = 5_000;
const WARM_CYCLES: u64 = 30_000;
const SNAPSHOTS_PER_SAMPLE: usize = 8;
const ARRAY_LINES: usize = 4096;
const LOOKUPS_PER_SAMPLE: usize = 200_000;

fn saturated_setup() -> (Network<u64>, DetRng) {
    let net: Network<u64> = Network::new(NetConfig::full_buffering(
        16,
        LinkBandwidth::GB_3_2,
        RoutingPolicy::Adaptive,
    ));
    (net, DetRng::new(7))
}

/// Saturated random traffic: one injection attempt per cycle, endpoints
/// drained every cycle.
fn run_saturated((mut net, mut rng): (Network<u64>, DetRng)) -> usize {
    for now in 1..=SATURATED_CYCLES {
        let src = NodeId::from(rng.next_below(16) as usize);
        let dst = NodeId::from(rng.next_below(16) as usize);
        if src != dst {
            let _ = net.inject(
                now,
                src,
                dst,
                VirtualNetwork::Request,
                MessageSize::Control,
                now,
            );
        }
        net.tick(now, None);
        for n in 0..16 {
            while net.eject_any(NodeId::from(n)).is_some() {}
        }
    }
    net.in_flight()
}

fn sparse_setup() -> (Network<u64>, DetRng) {
    let net: Network<u64> = Network::new(NetConfig::conventional(16, LinkBandwidth::GB_3_2));
    (net, DetRng::new(11))
}

/// Idle/sparse traffic: one injection per 100 cycles. Almost every switch is
/// idle almost every cycle, so this case measures the cost of simulating
/// quiescence.
fn run_sparse((mut net, mut rng): (Network<u64>, DetRng)) -> usize {
    for now in 1..=SPARSE_CYCLES {
        if now % 100 == 1 {
            let src = NodeId::from(rng.next_below(16) as usize);
            let dst = NodeId::from(rng.next_below(16) as usize);
            if src != dst {
                let _ = net.inject(
                    now,
                    src,
                    dst,
                    VirtualNetwork::Request,
                    MessageSize::Data,
                    now,
                );
            }
        }
        net.tick(now, None);
        for n in 0..16 {
            while net.eject_any(NodeId::from(n)).is_some() {}
        }
    }
    net.in_flight()
}

fn directory_setup() -> DirectorySystem {
    let mut cfg =
        SystemConfig::directory_speculative(WorkloadKind::Oltp, LinkBandwidth::GB_3_2, 11);
    cfg.memory.safetynet.checkpoint_interval_cycles = 10_000;
    DirectorySystem::new(cfg)
}

fn run_directory(mut sys: DirectorySystem) -> u64 {
    sys.run_for(SYSTEM_CYCLES)
        .expect("no protocol errors")
        .ops_completed
}

fn snooping_setup() -> SnoopingSystem {
    SnoopingSystem::new(SystemConfig::new(
        WorkloadKind::Oltp,
        ProtocolVariant::Speculative,
        11,
    ))
}

fn run_snooping(mut sys: SnoopingSystem) -> u64 {
    sys.run_for(SYSTEM_CYCLES)
        .expect("no protocol errors")
        .ops_completed
}

/// A `side`×`side` directory machine (uniform OLTP, 800 MB/s static torus,
/// 4 MSHRs) after `WARM_CYCLES` of simulation.
fn warmed_directory(side: usize) -> DirectorySystem {
    let mut cfg =
        SystemConfig::directory_speculative(WorkloadKind::Oltp, LinkBandwidth::MB_800, 11);
    cfg.memory.num_nodes = side * side;
    cfg.memory.torus_dims = Some((side, side));
    cfg.routing = RoutingPolicy::Static;
    cfg.memory.mshr_entries = 4;
    let mut sys = DirectorySystem::new(cfg);
    sys.run_for(WARM_CYCLES).expect("no protocol errors");
    sys
}

/// An L2-geometry array (Table 2: 4 MB, 4-way) holding `ARRAY_LINES`
/// blocks drawn from a fixed stream over a 64 GB address space, and a
/// lookup stream: each resident block once, interleaved with as many
/// random blocks.
fn filled_l2_array() -> (CacheArray<u8>, Vec<BlockAddr>) {
    let mut rng = DetRng::new(17);
    let mut array = CacheArray::new(CacheGeometry::from_capacity(4 * 1024 * 1024, 4));
    while array.len() < ARRAY_LINES {
        array.insert(BlockAddr(rng.next_below(1 << 30)), 0, 0);
    }
    let resident: Vec<BlockAddr> = array.iter().map(|line| line.addr).collect();
    let stream = resident
        .into_iter()
        .flat_map(|addr| [addr, BlockAddr(rng.next_below(1 << 30))])
        .collect();
    (array, stream)
}

/// Times `samples` passes of `LOOKUPS_PER_SAMPLE` demand lookups cycling
/// through `stream`, prints a console report, and returns the best pass's
/// nanoseconds per lookup.
fn ns_per_lookup(
    name: &str,
    samples: usize,
    array: &mut CacheArray<u8>,
    stream: &[BlockAddr],
) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let mut hits = 0usize;
        let t = Instant::now();
        for addr in stream.iter().cycle().take(LOOKUPS_PER_SAMPLE) {
            hits += usize::from(array.lookup(*addr).is_some());
        }
        let elapsed = t.elapsed().as_nanos() as f64;
        std::hint::black_box(hits);
        best = best.min(elapsed / LOOKUPS_PER_SAMPLE as f64);
    }
    println!("{name}: {best:.2} ns/lookup min (n={samples})");
    best
}

/// Times `samples` batches of `SNAPSHOTS_PER_SAMPLE` clones of `value` (the
/// clones are dropped outside the timed region), prints a console report,
/// and returns the best batch's nanoseconds per copy.
fn ns_per_copy<T: Clone>(name: &str, samples: usize, value: &T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let mut kept = Vec::with_capacity(SNAPSHOTS_PER_SAMPLE);
        let t = Instant::now();
        for _ in 0..SNAPSHOTS_PER_SAMPLE {
            kept.push(value.clone());
        }
        let elapsed = t.elapsed().as_nanos() as f64;
        drop(kept);
        best = best.min(elapsed / SNAPSHOTS_PER_SAMPLE as f64);
    }
    println!("{name}: {best:.0} ns/copy min (n={samples})");
    best
}

/// Times `routine` on fresh inputs `samples` times (only the routine is
/// timed), prints a console report, and returns the best nanoseconds per
/// simulated cycle (minimum over samples, the standard noise-robust
/// microbenchmark statistic).
fn ns_per_cycle<I, O>(
    name: &str,
    samples: usize,
    cycles: u64,
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(I) -> O,
) -> f64 {
    let mut best = f64::INFINITY;
    let mut total = 0.0;
    for _ in 0..samples {
        let input = setup();
        let t = Instant::now();
        let out = routine(input);
        let elapsed = t.elapsed().as_nanos() as f64;
        std::hint::black_box(out);
        best = best.min(elapsed / cycles as f64);
        total += elapsed / cycles as f64;
    }
    let mean = total / samples as f64;
    let sim_cycles_per_sec = 1e9 / mean;
    println!(
        "{name}: {best:.2} ns/cycle min (mean {mean:.2}, n={samples})  \
         [{sim_cycles_per_sec:.0} simulated cycles/s]"
    );
    best
}

fn main() -> ExitCode {
    let quick = std::env::var("SPECSIM_BENCH_QUICK").is_ok();
    let (net_samples, dir_samples) = if quick { (3, 2) } else { (20, 10) };

    let saturated = "network/torus_1000_cycles_random_traffic";
    let sparse = "network/torus_20000_cycles_sparse_traffic";
    let dirsys = "directory_system/oltp_5000_cycles";
    let snoopsys = "snooping_system/oltp_5000_cycles";
    let snapshot_16 = "directory_system/arch_snapshot_16";
    let snapshot_1024 = "directory_system/arch_snapshot_1024";
    let array_lookup = "coherence/cache_array_lookup";
    let array_copy = "coherence/cache_array_copy";
    let (mut array, stream) = filled_l2_array();
    let entries = [
        (
            saturated,
            ns_per_cycle(
                saturated,
                net_samples,
                SATURATED_CYCLES,
                saturated_setup,
                run_saturated,
            ),
        ),
        (
            sparse,
            ns_per_cycle(sparse, net_samples, SPARSE_CYCLES, sparse_setup, run_sparse),
        ),
        (
            dirsys,
            ns_per_cycle(
                dirsys,
                dir_samples,
                SYSTEM_CYCLES,
                directory_setup,
                run_directory,
            ),
        ),
        (
            snoopsys,
            ns_per_cycle(
                snoopsys,
                dir_samples,
                SYSTEM_CYCLES,
                snooping_setup,
                run_snooping,
            ),
        ),
        (
            snapshot_16,
            ns_per_copy(snapshot_16, net_samples, warmed_directory(4).arch()),
        ),
        (
            snapshot_1024,
            ns_per_copy(snapshot_1024, dir_samples, warmed_directory(32).arch()),
        ),
        (
            array_lookup,
            ns_per_lookup(array_lookup, net_samples, &mut array, &stream),
        ),
        (array_copy, ns_per_copy(array_copy, net_samples, &array)),
    ];
    let json = kernel_json(&entries);
    println!("\n{json}");
    write_artifact("BENCH_kernel.json", &json)
}
