//! Node identifiers, physical addresses and cache-block arithmetic.
//!
//! The target system (Table 2) is a 16-node shared-memory multiprocessor with
//! 64-byte coherence blocks. Memory (and the directory) is block-interleaved
//! across the nodes: the home node of a block is a simple function of its
//! block address, which is how real ccNUMA machines of this era (SGI Origin,
//! Alpha 21364 systems) distributed the directory.

use crate::config::BLOCK_SIZE_BYTES;

/// Identifies one node of the multiprocessor (processor + caches + a slice of
/// memory/directory + network interface).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Returns the node index as a `usize` for indexing per-node vectors.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "N{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(u16::try_from(v).expect("node index exceeds u16"))
    }
}

/// A full physical byte address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Address(pub u64);

impl Address {
    /// The cache block this address falls in.
    #[must_use]
    pub fn block(self) -> BlockAddr {
        BlockAddr(self.0 / BLOCK_SIZE_BYTES as u64)
    }

    /// The byte offset of this address within its cache block.
    #[must_use]
    pub fn block_offset(self) -> u64 {
        self.0 % BLOCK_SIZE_BYTES as u64
    }
}

/// A cache-block address (a physical address shifted right by the block
/// offset bits). All coherence activity is keyed by `BlockAddr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockAddr(pub u64);

impl BlockAddr {
    /// The first byte address covered by this block.
    #[must_use]
    pub fn base_address(self) -> Address {
        Address(self.0 * BLOCK_SIZE_BYTES as u64)
    }

    /// The home node of this block in a system of `num_nodes` nodes.
    ///
    /// Memory is block-interleaved: block `b`'s directory entry and backing
    /// storage live at node `b mod num_nodes`.
    #[must_use]
    pub fn home_node(self, num_nodes: usize) -> NodeId {
        assert!(num_nodes > 0, "system must have at least one node");
        NodeId::from((self.0 % num_nodes as u64) as usize)
    }
}

impl std::fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "B{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn address_to_block_and_offset() {
        let a = Address(64 * 7 + 13);
        assert_eq!(a.block(), BlockAddr(7));
        assert_eq!(a.block_offset(), 13);
        assert_eq!(a.block().base_address(), Address(64 * 7));
    }

    #[test]
    fn home_node_interleaves_blocks() {
        assert_eq!(BlockAddr(0).home_node(16), NodeId(0));
        assert_eq!(BlockAddr(1).home_node(16), NodeId(1));
        assert_eq!(BlockAddr(16).home_node(16), NodeId(0));
        assert_eq!(BlockAddr(17).home_node(16), NodeId(1));
    }

    #[test]
    fn node_id_display_and_index() {
        let n = NodeId(5);
        assert_eq!(n.index(), 5);
        assert_eq!(n.to_string(), "N5");
        assert_eq!(NodeId::from(9usize), NodeId(9));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn home_node_of_zero_node_system_panics() {
        let _ = BlockAddr(3).home_node(0);
    }

    proptest! {
        #[test]
        fn block_base_address_is_aligned(addr in 0u64..1u64 << 40) {
            let block = Address(addr).block();
            prop_assert_eq!(block.base_address().0 % BLOCK_SIZE_BYTES as u64, 0);
            // The base address plus the offset reconstructs the original address.
            prop_assert_eq!(
                block.base_address().0 + Address(addr).block_offset(),
                addr
            );
        }

        #[test]
        fn home_node_is_always_in_range(block in 0u64..1u64 << 34, nodes in 1usize..128) {
            let home = BlockAddr(block).home_node(nodes);
            prop_assert!(home.index() < nodes);
        }
    }
}
