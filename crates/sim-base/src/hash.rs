//! A fixed, fast hasher for the simulator's hot-path maps.
//!
//! The maps keyed by block address or stream (directory entries, memory
//! contents, writeback buffers, ordering streams) are probed on every
//! coherence message. `std`'s default SipHash with a per-map random seed is
//! built to resist hash flooding, which a simulator fed by its own
//! deterministic workloads does not need; it costs several times more per
//! probe than a multiply, and its random seed makes map iteration order vary
//! from run to run. [`FastHasher`] folds each written word in with one add
//! and one multiply (the rustc-hash scheme). On `finish` it rotates the
//! product's top 17 bits, the best mixed, into the low bits that `HashMap`
//! indexes its buckets by: Knuth's multiplicative hashing. Keys that share
//! their low bits, such as the block addresses homed at one node of a
//! power-of-two machine, still spread over the buckets.
//!
//! [`FastMap`] is a `HashMap` that uses it. Its layout and iteration order
//! depend only on the sequence of operations, never on the process.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// An odd multiplier with well-spread bits (from rustc-hash).
const MULTIPLIER: u64 = 0xf135_7aea_2e62_a9c5;

/// A deterministic multiply-rotate hasher for small integer keys.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(17)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// The `BuildHasher` of [`FastHasher`]: every map gets the same hasher.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` hashed with [`FastHasher`]. Build one with
/// `FastMap::default()`.
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash_of(value: u64) -> u64 {
        FastBuildHasher::default().hash_one(value)
    }

    #[test]
    fn hashing_is_a_pure_function_of_the_key() {
        assert_eq!(hash_of(42), hash_of(42));
        assert_ne!(hash_of(42), hash_of(43));
        let (a, b) = (FastBuildHasher::default(), FastBuildHasher::default());
        assert_eq!(
            a.hash_one((1u16, 2u16, 3usize)),
            b.hash_one((1u16, 2u16, 3usize))
        );
    }

    #[test]
    fn keys_sharing_their_low_bits_spread_over_the_low_bits() {
        // Consecutive blocks, and the blocks homed at node 5 of a 16- and
        // of a 1024-node machine, whose keys share their low bits: their
        // hashes' low bits must spread over at least half the buckets.
        for stride in [1, 16, 1024] {
            let buckets: std::collections::HashSet<u64> =
                (0..256u64).map(|k| hash_of(5 + stride * k) & 255).collect();
            assert!(
                buckets.len() > 128,
                "stride {stride}: {} of 256",
                buckets.len()
            );
        }
    }
}
