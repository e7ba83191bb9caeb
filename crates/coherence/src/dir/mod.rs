//! The MOSI directory cache-coherence protocol of Section 3.1.
//!
//! The protocol uses the paper's four message classes and its message types:
//! three Requests (RequestReadOnly = [`msg::DirMsg::GetS`], RequestReadWrite =
//! [`msg::DirMsg::GetM`], Writeback = [`msg::DirMsg::PutM`]), four
//! ForwardedRequests ([`msg::DirMsg::FwdGetS`], [`msg::DirMsg::FwdGetM`],
//! [`msg::DirMsg::Inv`], [`msg::DirMsg::WbAck`]), the Response class
//! ([`msg::DirMsg::Data`], [`msg::DirMsg::AckCount`], [`msg::DirMsg::InvAck`])
//! and the FinalAck class ([`msg::DirMsg::FinalAck`]).
//!
//! The cache controller holds the node's [`crate::hierarchy::CacheHierarchy`],
//! shared with the snooping protocol; it keeps the directory protocol's own
//! transitions and the invalidation acks each demand collects. The
//! directory and its sharer lists are this protocol's alone.
//!
//! Two protocol variants share the same cache-side finite state machine:
//!
//! * **Full** — the directory defers a Writeback that races with an in-flight
//!   ownership-transferring transaction until that transaction completes, so
//!   the Writeback-Ack can never overtake the Forwarded-RequestReadWrite; the
//!   protocol is correct on an unordered network.
//! * **Speculative** — the directory acknowledges the racing Writeback
//!   immediately, *relying on point-to-point ordering* of the
//!   ForwardedRequest virtual network to deliver the Forwarded-
//!   RequestReadWrite first. If adaptive routing reorders the two messages,
//!   the old owner has already invalidated its copy when the forwarded
//!   request arrives; the cache detects this "invalid transition" and reports
//!   a mis-speculation (Section 3.1's detection rule), which the system turns
//!   into a SafetyNet recovery.

pub mod cache;
pub mod directory;
pub mod msg;

pub use cache::{DirCacheController, InvAcks};
pub use directory::{DirState, DirectoryController};
pub use msg::{DirMsg, OutMsg};
