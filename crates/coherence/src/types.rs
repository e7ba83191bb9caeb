//! Common coherence vocabulary: node sets, processor requests, message
//! classes, mis-speculation descriptors and protocol errors.

use specsim_base::{BlockAddr, Cycle, FaultKind, NodeId};

/// How many 64-bit words the inline (non-allocating) `NodeSet` fast path
/// holds. Two words cover 128 nodes — the historical `u128` cap and still the
/// common case — without touching the heap.
const NODESET_INLINE_WORDS: usize = 2;

/// A set of nodes, stored as a bitmask over 64-bit words. Sets covering up to
/// 128 nodes (the paper's target system has 16; most sweeps stay ≤ 128) live
/// inline in two words with no allocation — byte-for-byte the old `u128`
/// layout. Inserting a node at index 128 or above spills the set into a boxed
/// word vector, so 256–1024-node machines work without a hard cap. Used for
/// directory sharer lists and invalidation fan-out.
#[derive(Clone)]
enum NodeSetRepr {
    /// Fast path: nodes 0..=127, no heap allocation.
    Inline([u64; NODESET_INLINE_WORDS]),
    /// Spilled path: arbitrarily many words. Trailing zero words are allowed
    /// (equality and hashing canonicalise by trimming them).
    Spilled(Vec<u64>),
}

/// A set of nodes with a hybrid storage strategy: inline `[u64; 2]` up to
/// 128 nodes, heap-spilled word vector above that.
#[derive(Clone)]
pub struct NodeSet(NodeSetRepr);

impl Default for NodeSet {
    fn default() -> Self {
        Self::empty()
    }
}

impl NodeSet {
    /// The empty set.
    #[must_use]
    pub fn empty() -> Self {
        NodeSet(NodeSetRepr::Inline([0; NODESET_INLINE_WORDS]))
    }

    /// A set containing a single node.
    #[must_use]
    pub fn single(node: NodeId) -> Self {
        let mut s = Self::empty();
        s.insert(node);
        s
    }

    /// The backing words, low node indices first. May have trailing zeros.
    fn words(&self) -> &[u64] {
        match &self.0 {
            NodeSetRepr::Inline(w) => w,
            NodeSetRepr::Spilled(v) => v,
        }
    }

    /// The backing words with trailing zero words trimmed — the canonical
    /// form used for equality and hashing, so an inline set compares equal to
    /// a spilled set holding the same members.
    fn trimmed_words(&self) -> &[u64] {
        let w = self.words();
        let used = w.iter().rposition(|&x| x != 0).map_or(0, |i| i + 1);
        &w[..used]
    }

    /// Adds a node to the set, spilling to the heap when the index does not
    /// fit the inline words.
    pub fn insert(&mut self, node: NodeId) {
        let (word, bit) = (node.index() / 64, node.index() % 64);
        match &mut self.0 {
            NodeSetRepr::Inline(w) if word < NODESET_INLINE_WORDS => w[word] |= 1 << bit,
            NodeSetRepr::Inline(w) => {
                let mut v = vec![0u64; word + 1];
                v[..NODESET_INLINE_WORDS].copy_from_slice(w);
                v[word] |= 1 << bit;
                self.0 = NodeSetRepr::Spilled(v);
            }
            NodeSetRepr::Spilled(v) => {
                if word >= v.len() {
                    v.resize(word + 1, 0);
                }
                v[word] |= 1 << bit;
            }
        }
    }

    /// Removes a node from the set.
    pub fn remove(&mut self, node: NodeId) {
        let (word, bit) = (node.index() / 64, node.index() % 64);
        match &mut self.0 {
            NodeSetRepr::Inline(w) => {
                if word < NODESET_INLINE_WORDS {
                    w[word] &= !(1 << bit);
                }
            }
            NodeSetRepr::Spilled(v) => {
                if word < v.len() {
                    v[word] &= !(1 << bit);
                }
            }
        }
    }

    /// True when the node is a member.
    #[must_use]
    pub fn contains(&self, node: NodeId) -> bool {
        let (word, bit) = (node.index() / 64, node.index() % 64);
        self.words().get(word).is_some_and(|w| (w >> bit) & 1 == 1)
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when the set has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// Iterates the members in ascending node order. O(words + |members|):
    /// each step jumps to the next set bit and clears it rather than testing
    /// every position (this sits on the directory invalidation fan-out hot
    /// path). The iterator owns a snapshot of the set, matching the old
    /// `u128` implementation's `'static` signature.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + 'static {
        let snapshot = self.clone();
        let mut word = 0usize;
        let mut bits = snapshot.words().first().copied().unwrap_or(0);
        std::iter::from_fn(move || loop {
            if bits != 0 {
                let i = bits.trailing_zeros() as usize + word * 64;
                bits &= bits - 1;
                return Some(NodeId(i as u16));
            }
            word += 1;
            bits = *snapshot.words().get(word)?;
        })
    }

    /// The set with `node` removed (non-mutating).
    #[must_use]
    pub fn without(&self, node: NodeId) -> Self {
        let mut s = self.clone();
        s.remove(node);
        s
    }
}

impl PartialEq for NodeSet {
    fn eq(&self, other: &Self) -> bool {
        self.trimmed_words() == other.trimmed_words()
    }
}

impl Eq for NodeSet {}

impl std::hash::Hash for NodeSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.trimmed_words().hash(state);
    }
}

impl std::fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NodeSet")?;
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        let mut s = NodeSet::empty();
        for n in iter {
            s.insert(n);
        }
        s
    }
}

/// The kind of access a processor makes to a cache block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuAccess {
    /// A read; satisfied by any valid copy (S, O or M).
    Load,
    /// A write; requires exclusive ownership (M).
    Store,
}

/// A processor memory request presented to its cache controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuRequest {
    /// The block being accessed (the simulator works at block granularity).
    pub addr: BlockAddr,
    /// Load or store.
    pub access: CpuAccess,
    /// For stores, the value written to the block (a whole-block token value;
    /// see [`crate::data::MemoryStore`]). Ignored for loads.
    pub store_value: u64,
}

/// The coherence message classes of the directory protocol (Section 3.1).
/// The system-assembly crate maps each class onto its own virtual network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgClass {
    /// Processor → directory requests.
    Request,
    /// Directory → processor forwarded requests, invalidations and
    /// writeback acknowledgments.
    Forwarded,
    /// Data / ack / nack responses to the requestor.
    Response,
    /// Requestor → directory transaction-completion messages (also used to
    /// coordinate SafetyNet checkpoints).
    FinalAck,
}

/// Why a mis-speculation was declared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MisSpecKind {
    /// Directory protocol (Section 3.1): a cache without a valid copy
    /// received a Forwarded-RequestReadWrite — the message must have been
    /// overtaken by the Writeback-Ack on the ForwardedRequest virtual
    /// network.
    ForwardedRequestToInvalidCache,
    /// Snooping protocol (Section 3.2): a cache that had already surrendered
    /// ownership while its Writeback was in flight observed a second foreign
    /// RequestForReadWrite — the unspecified corner case.
    WritebackDoubleRace,
    /// Interconnect (Section 4): a coherence transaction did not complete
    /// within three checkpoint intervals, indicating (endpoint or switch)
    /// deadlock in the unprotected network.
    TransactionTimeout,
    /// Interconnect (Section 4, shared-pool buffers): the transaction
    /// timeout fired *and a node's shared slot pool was exhausted within its
    /// window* — a detected buffer-dependency deadlock (Figures 2–3), as
    /// opposed to a timeout caused by mere congestion. Recovery re-executes
    /// with per-network reserved buffer slots.
    BufferDeadlock,
    /// An injected transient fault (SafetyNet's original adversary): either
    /// caught at message ingest by the endpoint checksum/duplicate model
    /// ([`specsim_base::FaultKind::Corrupt`] /
    /// [`specsim_base::FaultKind::Duplicate`]), or surfaced through the
    /// requestor-side transaction timeout with fault-injection evidence
    /// inside the timeout window (drops, long delays, switch
    /// stalls/blackouts, inbox drops). Recovery re-executes with the fault
    /// suppressed — transient semantics — so forward progress holds.
    TransientFault {
        /// Which fault kind the evidence points at.
        kind: FaultKind,
    },
}

impl MisSpecKind {
    /// Short label used in experiment output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MisSpecKind::ForwardedRequestToInvalidCache => "fwd-to-invalid-cache",
            MisSpecKind::WritebackDoubleRace => "writeback-double-race",
            MisSpecKind::TransactionTimeout => "transaction-timeout",
            MisSpecKind::BufferDeadlock => "buffer-deadlock",
            MisSpecKind::TransientFault { kind } => match kind {
                FaultKind::Drop => "fault-drop",
                FaultKind::Duplicate => "fault-duplicate",
                FaultKind::Delay => "fault-delay",
                FaultKind::Corrupt => "fault-corrupt",
                FaultKind::SwitchStall => "fault-switch-stall",
                FaultKind::SwitchBlackout => "fault-switch-blackout",
                FaultKind::InboxDrop => "fault-inbox-drop",
            },
        }
    }

    /// True for the injected-transient-fault classifications.
    #[must_use]
    pub fn is_transient_fault(self) -> bool {
        matches!(self, MisSpecKind::TransientFault { .. })
    }
}

/// A detected mis-speculation; the system-assembly crate turns this into a
/// SafetyNet recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MisSpeculation {
    /// What was detected.
    pub kind: MisSpecKind,
    /// The node that detected it.
    pub node: NodeId,
    /// The block involved.
    pub addr: BlockAddr,
    /// The cycle at which detection happened.
    pub at: Cycle,
}

/// A transition that the *fully designed* protocol considers impossible.
/// Reaching one of these is a simulator/protocol bug, not a mis-speculation,
/// and the error is propagated so tests fail loudly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// The node at which the impossible transition was attempted.
    pub node: NodeId,
    /// The block involved.
    pub addr: BlockAddr,
    /// Human-readable description of the state/event combination.
    pub description: String,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "protocol error at {} for {}: {}",
            self.node, self.addr, self.description
        )
    }
}

impl std::error::Error for ProtocolError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodeset_insert_remove_contains() {
        let mut s = NodeSet::empty();
        assert!(s.is_empty());
        s.insert(NodeId(3));
        s.insert(NodeId(7));
        assert!(s.contains(NodeId(3)));
        assert!(s.contains(NodeId(7)));
        assert!(!s.contains(NodeId(5)));
        assert_eq!(s.len(), 2);
        s.remove(NodeId(3));
        assert!(!s.contains(NodeId(3)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn nodeset_iter_is_sorted_and_complete() {
        let s: NodeSet = [NodeId(9), NodeId(1), NodeId(15)].into_iter().collect();
        let v: Vec<NodeId> = s.iter().collect();
        assert_eq!(v, vec![NodeId(1), NodeId(9), NodeId(15)]);
    }

    #[test]
    fn nodeset_without_does_not_mutate() {
        let s = NodeSet::single(NodeId(2));
        let t = s.without(NodeId(2));
        assert!(s.contains(NodeId(2)));
        assert!(t.is_empty());
    }

    #[test]
    fn nodeset_covers_the_128_node_scaling_sweep() {
        let mut s = NodeSet::empty();
        s.insert(NodeId(64));
        s.insert(NodeId(127));
        assert!(s.contains(NodeId(64)) && s.contains(NodeId(127)));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![NodeId(64), NodeId(127)]);
        s.remove(NodeId(127));
        assert!(!s.contains(NodeId(127)));
    }

    #[test]
    fn nodeset_spills_past_128_nodes() {
        let mut s = NodeSet::empty();
        s.insert(NodeId(3));
        s.insert(NodeId(128));
        s.insert(NodeId(1023));
        assert!(s.contains(NodeId(3)));
        assert!(s.contains(NodeId(128)));
        assert!(s.contains(NodeId(1023)));
        assert!(!s.contains(NodeId(512)));
        assert_eq!(s.len(), 3);
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![NodeId(3), NodeId(128), NodeId(1023)]
        );
        s.remove(NodeId(1023));
        assert_eq!(s.len(), 2);
        assert!(!s.contains(NodeId(1023)));
    }

    #[test]
    fn nodeset_equality_and_hash_are_canonical_across_reprs() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        // A spilled set whose high members were all removed again must equal
        // (and hash like) the inline set with the same members.
        let mut spilled = NodeSet::empty();
        spilled.insert(NodeId(5));
        spilled.insert(NodeId(300));
        spilled.remove(NodeId(300));
        let inline = NodeSet::single(NodeId(5));
        assert_eq!(spilled, inline);
        let hash_of = |s: &NodeSet| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash_of(&spilled), hash_of(&inline));
        // And an emptied spilled set equals the empty inline set.
        let mut emptied = NodeSet::single(NodeId(200));
        emptied.remove(NodeId(200));
        assert_eq!(emptied, NodeSet::empty());
        assert!(emptied.is_empty());
    }

    #[test]
    fn nodeset_remove_out_of_capacity_is_a_noop() {
        let mut s = NodeSet::single(NodeId(7));
        s.remove(NodeId(900)); // beyond both inline and any spilled capacity
        assert_eq!(s, NodeSet::single(NodeId(7)));
        assert!(!s.contains(NodeId(900)));
    }

    mod nodeset_u128_equivalence {
        //! Property tests pinning the hybrid representation to the old
        //! `u128`-bitmask implementation for node indices below 128:
        //! insert/remove/contains/len/iter order must be bit-for-bit
        //! identical to the reference model after any operation sequence.
        use super::*;
        use proptest::prelude::*;

        /// The pre-hybrid `NodeSet` implementation, kept as the oracle.
        #[derive(Clone, Copy, Default)]
        struct U128Model(u128);

        impl U128Model {
            fn insert(&mut self, node: NodeId) {
                assert!(node.index() < 128);
                self.0 |= 1 << node.index();
            }
            fn remove(&mut self, node: NodeId) {
                if node.index() < 128 {
                    self.0 &= !(1 << node.index());
                }
            }
            fn contains(&self, node: NodeId) -> bool {
                node.index() < 128 && (self.0 >> node.index()) & 1 == 1
            }
            fn len(&self) -> usize {
                self.0.count_ones() as usize
            }
            fn iter(&self) -> impl Iterator<Item = NodeId> + 'static {
                let mut bits = self.0;
                std::iter::from_fn(move || {
                    if bits == 0 {
                        return None;
                    }
                    let i = bits.trailing_zeros() as u16;
                    bits &= bits - 1;
                    Some(NodeId(i))
                })
            }
        }

        proptest! {
            #[test]
            fn hybrid_matches_u128_model_under_any_op_sequence(
                ops in proptest::collection::vec((0u64..2, 0u64..128), 0..200),
            ) {
                let mut model = U128Model::default();
                let mut hybrid = NodeSet::empty();
                for &(op, idx) in &ops {
                    let node = NodeId(idx as u16);
                    if op == 0 {
                        model.insert(node);
                        hybrid.insert(node);
                    } else {
                        model.remove(node);
                        hybrid.remove(node);
                    }
                    prop_assert_eq!(model.len(), hybrid.len());
                    prop_assert_eq!(model.len() == 0, hybrid.is_empty());
                }
                for i in 0..128u16 {
                    prop_assert_eq!(model.contains(NodeId(i)), hybrid.contains(NodeId(i)));
                }
                let model_order: Vec<NodeId> = model.iter().collect();
                let hybrid_order: Vec<NodeId> = hybrid.iter().collect();
                prop_assert_eq!(model_order, hybrid_order);
            }

            #[test]
            fn without_matches_u128_model(
                members in proptest::collection::vec(0u64..128, 0..64),
                victim in 0u64..128,
            ) {
                let mut model = U128Model::default();
                let mut hybrid = NodeSet::empty();
                for &m in &members {
                    model.insert(NodeId(m as u16));
                    hybrid.insert(NodeId(m as u16));
                }
                let mut model_without = model;
                model_without.remove(NodeId(victim as u16));
                let hybrid_without = hybrid.without(NodeId(victim as u16));
                prop_assert_eq!(
                    model_without.iter().collect::<Vec<_>>(),
                    hybrid_without.iter().collect::<Vec<_>>()
                );
                // Non-mutating: the original still matches its model.
                prop_assert_eq!(
                    model.iter().collect::<Vec<_>>(),
                    hybrid.iter().collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn misspec_labels_are_distinct() {
        let mut kinds = vec![
            MisSpecKind::ForwardedRequestToInvalidCache,
            MisSpecKind::WritebackDoubleRace,
            MisSpecKind::TransactionTimeout,
            MisSpecKind::BufferDeadlock,
        ];
        kinds.extend(
            specsim_base::ALL_FAULT_KINDS
                .iter()
                .map(|&kind| MisSpecKind::TransientFault { kind }),
        );
        let expected = kinds.len();
        let labels: std::collections::HashSet<_> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), expected);
        assert!(MisSpecKind::TransientFault {
            kind: FaultKind::Drop
        }
        .is_transient_fault());
        assert!(!MisSpecKind::BufferDeadlock.is_transient_fault());
    }

    #[test]
    fn protocol_error_displays_context() {
        let e = ProtocolError {
            node: NodeId(4),
            addr: BlockAddr(0x10),
            description: "Data in state I".to_string(),
        };
        let s = e.to_string();
        assert!(s.contains("N4"));
        assert!(s.contains("Data in state I"));
    }
}
