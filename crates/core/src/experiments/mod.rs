//! The paper's figures and tables (Sections 3–5), one module per artifact.
//!
//! Every experiment follows the methodology of Section 5.2: each design
//! point is simulated several times with small pseudo-random perturbations
//! (different seeds), and results are reported as means with one-standard-
//! deviation error bars.
//!
//! Every figure and sweep has one shape. Its config type declares the
//! header params and the columns once ([`sweep::SweepConfig`]), and its
//! `run` returns a [`sweep::Sweep`], whose `render()` and `to_json()` derive
//! the console table and the `BENCH_*.json` artifact from that one list.
//! The paper figures print the table: the fixed corner-case scenarios of
//! Figures 1–3 ([`fig1`], [`fig23`]), and `fig4`, `reorder`,
//! `buffer_sweep`, `snooping` and Figure 5 as [`fig5_crossover`] at
//! 400 MB/s. The sweeps (`scaling`, `heavy_traffic`, `shared_buffer`,
//! `fault_tolerance`, `snoop_bandwidth`, `fig5_crossover`) also write the
//! artifact. The heavy-traffic sweeps share one operating point,
//! [`heavy_traffic::heavy_machine`]. Only Tables 1–3 ([`tables`]) are
//! rendered by hand. The bench harnesses in `crates/bench` simply run and
//! print them, and the integration tests check the same sweeps' rows.

pub mod buffer_sweep;
pub mod fault_tolerance;
pub mod fig1;
pub mod fig23;
pub mod fig4;
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

pub use buffer_sweep::{BufferSweepConfig, BufferSweepRow};
pub use fault_tolerance::{FaultToleranceConfig, FaultToleranceData, FaultToleranceRow};
pub use fig1::{Fig1Config, Fig1Row, Fig1Trial};
pub use fig23::{BufferDesign, DeadlockRow, Fig2Config, Fig3Config};
pub use fig4::{Fig4Config, Fig4Row};
pub use fig5_crossover::{Fig5CrossoverConfig, Fig5CrossoverData, Fig5CrossoverRow};
pub use heavy_traffic::{
    HeavyTrafficConfig, HeavyTrafficData, HeavyTrafficRow, Machine, TrafficShape,
};
pub use reorder::{ReorderConfig, ReorderRow};
pub use runner::{measure_directory, measure_snooping, ExperimentScale, Measurement};
pub use scaling::{ScalingConfig, ScalingData, ScalingRow};
pub use shared_buffer::{SharedBufferConfig, SharedBufferData, SharedBufferRow};
pub use snoop_bandwidth::{SnoopBandwidthConfig, SnoopBandwidthData, SnoopBandwidthRow};
pub use snooping::{SnoopingConfig, SnoopingRow};
pub use sweep::{Cell, Column, Sweep, SweepConfig};
pub use tables::{render_table1, render_table2, render_table3};
