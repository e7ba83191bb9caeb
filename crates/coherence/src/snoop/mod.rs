//! The MOSI broadcast snooping protocol of Section 3.2.
//!
//! Coherence *requests* (RequestReadOnly, RequestReadWrite, Writeback) are
//! broadcast on a totally ordered address network; *data* moves point-to-
//! point on a separate data network. Every cache — including the requestor —
//! observes the same request sequence in the same order, and ownership is
//! defined by that order.
//!
//! The cache controller holds the node's [`crate::hierarchy::CacheHierarchy`],
//! shared with the directory protocol; it keeps the snooping protocol's own
//! transitions and each demand's place in the address network's order. The
//! home memory controller is this protocol's alone.
//!
//! The corner case of Section 3.2 (the one the designers "did not initially
//! consider"): a cache that owns a block issues a Writeback and, **before
//! observing its own Writeback on the address network**, observes a foreign
//! RequestForReadWrite (it is still the owner, so it supplies data and
//! surrenders ownership), and then observes a *second* foreign
//! RequestForReadWrite while still waiting for its own Writeback. The Full
//! variant specifies the transition (ignore — the new owner responds); the
//! Speculative variant leaves it unspecified and reports a mis-speculation,
//! relying on SafetyNet recovery plus slow-start for forward progress.

pub mod cache;
pub mod memory;
pub mod msg;

pub use cache::{BusOrder, SnoopCacheController};
pub use memory::SnoopMemoryController;
pub use msg::{SnoopDataMsg, SnoopRequest};
