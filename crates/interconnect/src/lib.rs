//! # specsim-net
//!
//! The interconnection-network substrate of the speculation-for-simplicity
//! simulator: a 2D bidirectional torus (the paper's target system, Section
//! 3.1) with
//!
//! * **static dimension-order routing** (preserves point-to-point ordering),
//! * **minimal adaptive routing** that picks among productive directions by
//!   outgoing queue length (can violate point-to-point ordering — Figure 1),
//! * **virtual networks** (one per coherence message class) to avoid endpoint
//!   deadlock, and **virtual-channel flow control** with dateline allocation
//!   (plus a Duato-style adaptive channel) to avoid switch deadlock in the
//!   conventional design (Section 4),
//! * a **shared-buffer design** with no virtual channels/networks — the
//!   speculatively simplified design of Section 4, in which deadlock is
//!   possible and must be detected and recovered from,
//! * a **shared-pool design** that keeps a buffer structure but replaces
//!   all per-class sizing with one slot pool per node ([`SlotPool`]) — the
//!   Section 4 speculation proper:
//!   buffer-dependency cycles can deadlock, detection is left to the
//!   coherence-transaction timeout, and post-recovery re-execution can
//!   reserve per-network slots as a forward-progress measure,
//! * a **worst-case-buffering design** used as the deadlock-free comparison
//!   baseline in Section 5.3 (the five designs are the variants of
//!   [`Buffering`]),
//! * per-(source, destination, virtual-network) **sequence stamping and
//!   reorder accounting** (the "fraction of messages re-ordered" statistics of
//!   Section 5.3),
//! * structural occupancy snapshots used to diagnose deadlocks in tests
//!   and experiments,
//! * an **ordered broadcast bus** used as the address network of the snooping
//!   system (Section 3.2).
//!
//! The network is generic over its payload type `P`: the coherence crates
//! define the payloads; this crate only moves them and accounts for time.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bus;
pub mod config;
pub mod network;
pub mod ordering;
pub mod packet;
pub mod pool;
pub mod routing;
pub mod stats;
pub mod switch;
pub mod topology;

pub use bus::OrderedBus;
pub use config::{Buffering, NetConfig, PoolSlots};
pub use network::{ForwardProbe, InjectError, Network};
pub use ordering::OrderingTracker;
pub use packet::{Packet, PacketArena, PacketTaint, VirtualNetwork, ALL_VIRTUAL_NETWORKS};
pub use pool::SlotPool;
pub use stats::NetStats;
pub use topology::{Coord, Direction, Torus};
