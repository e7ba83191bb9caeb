//! # specsim-workloads
//!
//! Synthetic workload generators, traffic shaping, trace record/replay, and
//! the (optionally non-blocking) processor model that drive the
//! memory-system simulator.
//!
//! The paper evaluates its designs with the Wisconsin Commercial Workload
//! Suite (OLTP/DB2, SPECjbb2000, Apache+SURGE, Slashcode) and SPLASH-2
//! barnes-hut (Table 3), run under Simics full-system simulation. Those
//! binaries and their full-system environment are not reproducible here, so
//! each workload is replaced by a parameterised synthetic generator that
//! produces the *memory behaviour* that drives the paper's experiments:
//! private versus shared working sets, read-mostly versus migratory sharing,
//! write fractions and think times. See `PAPER.md` ("What this repository
//! models") for the rationale; the per-workload parameters live in [`kinds`].
//!
//! Two properties matter beyond realism:
//!
//! * **Determinism** — a generator is a pure function of (workload kind,
//!   node, seed), so experiments are reproducible and perturbation runs
//!   (Section 5.2) are controlled.
//! * **Rewindability** — SafetyNet recovery rolls execution back to a
//!   checkpoint, which holds a clone of every processor with its generator
//!   or trace position. A clone continues the identical reference stream,
//!   so recovery assigns the clone back and [`Processor::resume`]
//!   re-issues the requests that were drawn but not completed.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod generator;
pub mod kinds;
pub mod processor;
pub mod trace;
pub mod traffic;

pub use generator::{GeneratedOp, WorkloadGenerator};
pub use kinds::{WorkloadKind, WorkloadParams, ALL_WORKLOADS};
pub use processor::{Processor, ProcessorStats};
pub use trace::{Trace, TraceEvent, TraceReplayer};
pub use traffic::{BurstConfig, TrafficConfig, ZipfConfig, ZipfTable};
