//! # specsim
//!
//! The paper's primary contribution — **speculation for simplicity** — and
//! the full-system simulator that evaluates it.
//!
//! The crate assembles the substrates (interconnect, coherence protocols,
//! SafetyNet, workloads) into the two target machines of the paper:
//!
//! * [`DirectorySystem`] — the 16-node directory-protocol machine of
//!   Sections 3.1 and 4 (2D torus, MOSI directory protocol, SafetyNet), with
//!   configuration presets for the speculative design (adaptive routing +
//!   reliance on point-to-point ordering), the conventional baseline, and the
//!   simplified interconnect (shared buffers, no virtual channels);
//! * [`SnoopingSystem`] — the broadcast-snooping machine of Section 3.2
//!   (totally ordered address network, MOSI snooping protocol, SafetyNet).
//!
//! One [`SystemConfig`] describes a run on either machine, as Table 2
//! describes both in one parameter table: [`SystemConfig::new`] is the
//! Table 2 machine (the snooping default), the directory presets derive
//! from it, and its `routing` and `buffering` fields describe the torus on
//! either machine (the snooping machine's data network).
//!
//! Both machines are one generic engine: they are the aliases
//! `DirectorySystem = SystemEngine<DirProtocol>` and
//! `SnoopingSystem = SystemEngine<SnoopProtocol>` of [`SystemEngine`], which
//! owns stepping, checkpointing, recovery, forward progress and metrics,
//! and the state SafetyNet checkpoints ([`ArchState`]): each node's
//! processor and cache controller, the speculative torus and the
//! protocol's own part. A protocol plugs in through the 6 methods of
//! [`ProtocolNode`]: `exchange`, `drain_write_log`, `next_event_at`,
//! `checkpoint_due`, `next_checkpoint_at` and `collect_protocol_metrics`.
//!
//! On top of the two systems, [`experiments`] implements the paper's
//! evaluation: the recovery-rate stress test (Figure 4), the static-versus-
//! adaptive routing comparison (Figure 5), the message-reordering statistics,
//! the snooping corner-case study and the interconnect buffer sweep, together
//! with the multi-run perturbation methodology (means and one-standard-
//! deviation error bars) of Section 5.2.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod dirsys;
pub mod engine;
pub mod experiments;
pub mod framework;
pub mod metrics;
mod shared;
pub mod snoopsys;

pub use config::{SnoopSystemConfig, SystemConfig};
pub use dirsys::DirectorySystem;
pub use engine::{
    ArchState, EngineCtx, EngineProbe, MeasuredCharacterization, ProtocolNode, StagedOutbox,
    SystemEngine,
};
pub use framework::SpeculativeDesign;
pub use metrics::{DataClass, RunMetrics, ALL_DATA_CLASSES};
pub use snoopsys::SnoopingSystem;
pub use specsim_base::{
    EngineMode, Log2Histogram, ModeTimeline, SpecEvent, TelemetryConfig, WindowSample,
};
