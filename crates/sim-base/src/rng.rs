//! Deterministic, checkpointable random number generation.
//!
//! Two properties matter for this simulator:
//!
//! 1. **Determinism** — a simulation run is a pure function of its seed, so
//!    protocol races found by the experiments can be replayed exactly.
//! 2. **Checkpointability** — SafetyNet recovery rewinds the workload
//!    generators to the last validated checkpoint, which holds a clone of
//!    each generator; a cloned [`DetRng`] continues the identical stream.
//!
//! [`DetRng`] is a small xoshiro256++ generator. It also
//! implements [`rand::RngCore`] so that code using the `rand` ecosystem
//! (e.g. distributions in the workload models) can drive it directly.

use rand::RngCore;

/// A deterministic xoshiro256++ random number generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a generator from a 64-bit seed. Different seeds produce
    /// statistically independent streams (the state is expanded with
    /// SplitMix64, the recommended seeding procedure for xoshiro).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { s }
    }

    /// Derives a new independent generator from this one. Used to give each
    /// node / component its own stream while keeping the whole simulation a
    /// function of one top-level seed.
    pub fn fork(&mut self) -> DetRng {
        DetRng::new(self.next_u64() ^ 0xA076_1D64_78BD_642F)
    }

    /// Returns the next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniformly distributed value in `[0, bound)`.
    /// Panics if `bound` is zero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's multiply-shift rejection-free approximation is overkill
        // here; plain modulo bias is negligible for the bounds we use
        // (all far below 2^32), but use 128-bit multiply to avoid it anyway.
        let x = self.next_u64();
        ((u128::from(x) * u128::from(bound)) >> 64) as u64
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }
}

impl RngCore for DetRng {
    fn next_u32(&mut self) -> u32 {
        (DetRng::next_u64(self) >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        DetRng::next_u64(self)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&DetRng::next_u64(self).to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = DetRng::next_u64(self).to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn same_seed_gives_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should diverge, {same} collisions");
    }

    #[test]
    fn snapshot_restore_replays_exactly() {
        // A checkpoint is a clone; assigning it back restores the stream.
        let mut rng = DetRng::new(7);
        for _ in 0..10 {
            rng.next_u64();
        }
        let snap = rng.clone();
        let forward: Vec<u64> = (0..100).map(|_| rng.next_u64()).collect();
        rng = snap;
        let replay: Vec<u64> = (0..100).map(|_| rng.next_u64()).collect();
        assert_eq!(forward, replay);
    }

    #[test]
    fn fork_produces_independent_reproducible_streams() {
        let mut parent_a = DetRng::new(99);
        let mut parent_b = DetRng::new(99);
        let mut child_a = parent_a.fork();
        let mut child_b = parent_b.fork();
        for _ in 0..100 {
            assert_eq!(child_a.next_u64(), child_b.next_u64());
        }
        // Child stream differs from parent stream.
        let mut parent = DetRng::new(99);
        let mut child = parent.fork();
        let collisions = (0..64)
            .filter(|_| parent.next_u64() == child.next_u64())
            .count();
        assert!(collisions < 4);
    }

    #[test]
    fn next_f64_is_in_unit_interval_and_roughly_uniform() {
        let mut rng = DetRng::new(3);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean was {mean}");
    }

    #[test]
    fn chance_matches_probability() {
        let mut rng = DetRng::new(11);
        let n = 20_000;
        let hits = (0..n).filter(|_| rng.chance(0.25)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "rate was {rate}");
        // Degenerate probabilities.
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(rng.chance(2.0)); // clamped
        assert!(!rng.chance(-1.0)); // clamped
    }

    #[test]
    fn fill_bytes_fills_every_length() {
        let mut rng = DetRng::new(5);
        for len in 0..32 {
            let mut buf = vec![0u8; len];
            RngCore::fill_bytes(&mut rng, &mut buf);
            // With 8+ bytes the chance of all zeros is negligible.
            if len >= 8 {
                assert!(buf.iter().any(|&b| b != 0), "len {len} produced all zeros");
            }
        }
    }

    proptest! {
        #[test]
        fn next_below_respects_bound(seed in any::<u64>(), bound in 1u64..1_000_000) {
            let mut rng = DetRng::new(seed);
            for _ in 0..100 {
                prop_assert!(rng.next_below(bound) < bound);
            }
        }

        #[test]
        fn snapshot_restore_is_exact_for_any_seed(seed in any::<u64>(), skip in 0usize..200) {
            let mut rng = DetRng::new(seed);
            for _ in 0..skip {
                rng.next_u64();
            }
            let snap = rng.clone();
            let a: Vec<u64> = (0..16).map(|_| rng.next_u64()).collect();
            rng = snap;
            let b: Vec<u64> = (0..16).map(|_| rng.next_u64()).collect();
            prop_assert_eq!(a, b);
        }
    }
}
