//! Rendezvous (highest-random-weight) shard selection.
//!
//! Every `(key, shard)` pair gets a pseudo-random weight; a key's primary
//! shard is the highest-weight one, its failover order the rest by
//! descending weight. The two properties that make this the right tool
//! for a dictionary router:
//!
//! 1. **Minimal disruption** — removing a shard only moves the keys whose
//!    primary it was (each to its runner-up); all other keys keep their
//!    shard. No ring state, no token table: the weight function *is* the
//!    assignment.
//! 2. **Deterministic failover order** — the full ranking is a pure
//!    function of `(key, shard count)`, so every router replica excludes
//!    a dead shard identically, and a seeded test reproduces routing
//!    byte-for-byte.

use pardict_pram::{Fnv1a, SplitMix64};

/// The weight of `(key, shard)` — one SplitMix64 step keyed by the key's
/// FNV-1a hash and the shard.
#[must_use]
pub fn weight(key: &str, shard: usize) -> u64 {
    let key = Fnv1a::default().eat(key.as_bytes()).finish();
    SplitMix64::new(key ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// All `n` shards ranked by descending weight for `key` (ties broken by
/// shard id, though a tie needs a 64-bit collision). Index 0 is the
/// primary; the rest is the failover order.
#[must_use]
pub fn ranking(key: &str, n: usize) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..n).collect();
    ids.sort_by_key(|&s| (std::cmp::Reverse(weight(key, s)), s));
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranking_is_a_permutation_and_deterministic() {
        for n in 1..6 {
            let r = ranking("corpus", n);
            let mut sorted = r.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>());
            assert_eq!(r, ranking("corpus", n));
        }
    }

    #[test]
    fn removing_a_shard_only_moves_its_own_keys() {
        // Rendezvous invariant: with shard 2 excluded, a key whose
        // primary was not 2 keeps its primary.
        let n = 5;
        for key in ["a", "b", "corpus", "dict-7", "zz-top"] {
            let full = ranking(key, n);
            let without: Vec<usize> = full.iter().copied().filter(|&s| s != 2).collect();
            if full[0] != 2 {
                assert_eq!(without[0], full[0], "key {key} moved needlessly");
            } else {
                assert_eq!(without[0], full[1], "key {key} must go to its runner-up");
            }
        }
    }

    #[test]
    fn keys_spread_across_shards() {
        let n = 4;
        let mut counts = [0usize; 4];
        for i in 0..400 {
            counts[ranking(&format!("dict-{i}"), n)[0]] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!((40..=160).contains(&c), "shard {s} got {c} of 400 keys");
        }
    }
}
