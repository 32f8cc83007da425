//! Deterministic pseudo-randomness for randomized PRAM rounds.
//!
//! The random-mate primitives need *per-index, per-round* coin flips that are
//! identical across `Seq` and `Par` execution. A stateless SplitMix64 hash of
//! `(seed, round, index)` provides exactly that without any shared state.

/// SplitMix64: tiny, fast, statistically solid for coin flips and seeds.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Stream seeded by `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.state)
    }

    /// Uniform value in `0..bound` (bound > 0) by multiply-shift.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// The SplitMix64 finalizer as a stateless hash.
#[inline]
#[must_use]
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Incremental 64-bit FNV-1a — the workspace's one content hash. Its
/// values are load-bearing (segment seeds and cache keys, rendezvous
/// placement, deterministic span ids), so the constants never change.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv1a {
    /// Absorb `bytes`.
    #[must_use]
    pub fn eat(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// The hash of everything absorbed so far.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Deterministic coin for `(seed, round, index)`.
#[inline]
#[must_use]
pub fn coin(seed: u64, round: u64, index: usize) -> bool {
    mix(seed ^ round.rotate_left(32) ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) & 1 == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            assert!(r.next_below(13) < 13);
        }
    }

    #[test]
    fn coins_are_roughly_fair() {
        let heads = (0..10_000).filter(|&i| coin(1, 2, i)).count();
        assert!((4000..6000).contains(&heads), "heads={heads}");
    }

    #[test]
    fn coins_differ_across_rounds() {
        let a: Vec<bool> = (0..64).map(|i| coin(9, 0, i)).collect();
        let b: Vec<bool> = (0..64).map(|i| coin(9, 1, i)).collect();
        assert_ne!(a, b);
    }
}
