//! # specsim-coherence
//!
//! Cache-coherence substrate of the speculation-for-simplicity simulator:
//!
//! * a **MOSI directory protocol** (Section 3.1 of the paper) with the four
//!   message classes of the paper (Request, ForwardedRequest, Response,
//!   FinalAck), in two variants:
//!   * [`specsim_base::ProtocolVariant::Full`] — the conventionally designed
//!     protocol that handles the Writeback / Forwarded-RequestReadWrite race
//!     by deferring racy writebacks at the directory until the conflicting
//!     transaction completes,
//!   * [`specsim_base::ProtocolVariant::Speculative`] — the speculatively
//!     simplified protocol that relies on point-to-point ordering of the
//!     ForwardedRequest virtual network, acknowledges racy writebacks
//!     immediately, and *detects* the resulting invalid transition (a
//!     forwarded request arriving at a cache without a valid copy) as a
//!     mis-speculation;
//! * a **MOSI broadcast snooping protocol** (Section 3.2) over a totally
//!   ordered address network, again in a Full variant (which specifies the
//!   rare double-race on an in-flight writeback) and a Speculative variant
//!   (which treats that transition as a mis-speculation);
//! * one cache hierarchy both protocols' cache controllers hold
//!   ([`hierarchy::CacheHierarchy`]): set-associative cache arrays with LRU
//!   replacement in two levels (an L1 tag filter in front of the L2),
//!   miss-status registers, a writeback buffer and a completion queue, with
//!   the admission and stall rules, the hit path, fills with their victims,
//!   invalidation and eviction. Each controller keeps only its protocol's
//!   transitions: which messages a miss, an upgrade, a victim or a snoop
//!   sends, and in what order;
//! * per-home-node memory that counts the writes SafetyNet must log, and
//!   directory state.
//!
//! The crate is *network-agnostic*: controllers consume and produce protocol
//! messages tagged with a [`types::MsgClass`]; the system-assembly crate maps
//! classes onto virtual networks and moves the messages.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache_array;
pub mod data;
pub mod dir;
pub mod hierarchy;
pub mod snoop;
pub mod types;

pub use cache_array::{CacheArray, CacheGeometry};
pub use data::MemoryStore;
pub use hierarchy::{AccessOutcome, CacheController, CacheHierarchy, CacheState, CompletedAccess};
pub use types::{
    CpuAccess, CpuRequest, MisSpecKind, MisSpeculation, MsgClass, NodeSet, ProtocolError,
};
