//! Integration check: the default configuration of the workspace and the
//! Table 2 constants match the target-system parameters of the paper's
//! Table 2, and the Table 2 renderer reports exactly those values.

use specsim::experiments::render_table2;
use specsim::experiments::tables::{MEMORY_BYTES, MEMORY_LATENCY_CYCLES};
use specsim_base::{LinkBandwidth, MemorySystemConfig};
use specsim_safetynet::log::{LOG_BUFFER_BYTES, LOG_ENTRY_BYTES};
use specsim_safetynet::station::REGISTER_CHECKPOINT_CYCLES;

#[test]
fn default_memory_system_matches_table_2() {
    let c = MemorySystemConfig::default();
    assert_eq!(c.num_nodes, 16);
    assert_eq!(c.l1_bytes, 128 * 1024);
    assert_eq!(c.l1_ways, 4);
    assert_eq!(c.l2_bytes, 4 * 1024 * 1024);
    assert_eq!(c.l2_ways, 4);
    assert_eq!(MEMORY_BYTES, 2 * 1024 * 1024 * 1024);
    assert_eq!(specsim_base::BLOCK_SIZE_BYTES, 64);
    assert_eq!(specsim_base::time::cycles_to_ns(MEMORY_LATENCY_CYCLES), 180);
    assert_eq!(LOG_BUFFER_BYTES, 512 * 1024);
    assert_eq!(LOG_ENTRY_BYTES, 72);
    assert_eq!(c.safetynet.checkpoint_interval_cycles, 100_000);
    assert_eq!(c.safetynet.checkpoint_interval_requests, 3_000);
    assert_eq!(REGISTER_CHECKPOINT_CYCLES, 100);
}

#[test]
fn bandwidth_sweep_endpoints_match_table_2() {
    assert_eq!(LinkBandwidth::MB_400.megabytes_per_second, 400);
    assert_eq!(LinkBandwidth::GB_3_2.megabytes_per_second, 3200);
}

#[test]
fn rendered_table_2_contains_every_row() {
    let table = render_table2();
    for needle in [
        "128 KB, 4-way",
        "4 MB, 4-way",
        "2 GB, 64 byte blocks",
        "180 ns (uncontended, 2-hop)",
        "400MB/sec to 3.2 GB/sec",
        "512 kbytes total, 72 byte entries",
        "100000 cycles (directory), 3000 requests (snooping)",
        "100 cycles",
    ] {
        assert!(
            table.contains(needle),
            "Table 2 rendering missing: {needle}\n{table}"
        );
    }
}
