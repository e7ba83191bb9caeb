//! The paper's evaluation (Section 5), one module per table/figure.
//!
//! Every experiment follows the methodology of Section 5.2: each design
//! point is simulated several times with small pseudo-random perturbations
//! (different seeds), and results are reported as means with one-standard-
//! deviation error bars.
//!
//! The paper-figure modules (`fig4`, `fig5`, `reorder`, `buffer_sweep`,
//! `snooping`, `tables`) return plain data structs with a `render()` that
//! prints the rows/series the paper reports. The sweeps behind the
//! `BENCH_*.json` artifacts (`scaling`, `heavy_traffic`, `shared_buffer`,
//! `fault_tolerance`, `snoop_bandwidth`, `fig5_crossover`) instead declare
//! their header params and columns once on their config type
//! ([`sweep::SweepConfig`]) and return a [`sweep::Sweep`], whose `render()`
//! and `to_json()` derive the console table and the artifact from that one
//! list. The bench harnesses in `crates/bench` simply run and print them.

pub mod buffer_sweep;
pub mod fault_tolerance;
pub mod fig4;
pub mod fig5;
pub mod fig5_crossover;
pub mod heavy_traffic;
pub mod reorder;
pub mod runner;
pub mod scaling;
pub mod shared_buffer;
pub mod snoop_bandwidth;
pub mod snooping;
pub mod sweep;
pub mod tables;

pub use buffer_sweep::{BufferSweep, BufferSweepRow};
pub use fault_tolerance::{FaultToleranceConfig, FaultToleranceData, FaultToleranceRow};
pub use fig4::{Fig4Data, Fig4Row};
pub use fig5::{Fig5Data, Fig5Row};
pub use fig5_crossover::{Fig5CrossoverConfig, Fig5CrossoverData, Fig5CrossoverRow};
pub use heavy_traffic::{HeavyTrafficConfig, HeavyTrafficData, HeavyTrafficRow, TrafficShape};
pub use reorder::{ReorderData, ReorderRow};
pub use runner::{measure_directory, measure_snooping, ExperimentScale, Measurement};
pub use scaling::{ScalingConfig, ScalingData, ScalingRow};
pub use shared_buffer::{Machine, SharedBufferConfig, SharedBufferData, SharedBufferRow};
pub use snoop_bandwidth::{SnoopBandwidthConfig, SnoopBandwidthData, SnoopBandwidthRow};
pub use snooping::{SnoopingComparison, SnoopingRow};
pub use sweep::{Cell, Column, Sweep, SweepConfig};
pub use tables::{render_table1, render_table2, render_table3};
