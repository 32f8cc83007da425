#![warn(missing_docs)]

//! # pardict-fingerprint — Karp–Rabin fingerprints modulo 2⁶¹ − 1
//!
//! The paper's dictionary-matching algorithm compares strings "using
//! fingerprints [KR87]" during the separator-decomposition descent (Step 1A)
//! and marks pattern prefixes "by a table look-up using the fingerprints"
//! (Step 2A). This crate provides that primitive: a random-base polynomial
//! fingerprint over the Mersenne prime p = 2⁶¹ − 1, with
//!
//! * `O(n)`-work, `O(log n)`-depth parallel construction of prefix hashes
//!   (a PRAM scan under the fingerprint-composition monoid), and
//! * `O(1)` substring fingerprints thereafter.
//!
//! Fingerprint equality is Monte Carlo: two distinct equal-length strings
//! collide with probability ≤ n / 2⁶⁰ for a random base. The Las Vegas
//! algorithms in `pardict-core` keep this one-sided error in check with the
//! paper's §3.4 output checker.
//!
//! ```
//! use pardict_fingerprint::{random_base, PrefixHashes};
//! use pardict_pram::Pram;
//!
//! let ph = PrefixHashes::build(&Pram::seq(), b"abracadabra", random_base(7));
//! assert!(ph.eq_substrings(0, 7, 4));   // "abra" == "abra"
//! assert!(!ph.eq_substrings(0, 1, 4));  // "abra" != "brac"
//! ```

mod mersenne;
mod prefix;

pub use mersenne::{m61_add, m61_mul, m61_pow, m61_sub, P61};
pub use prefix::{Fingerprint, PrefixHashes};

use pardict_pram::SplitMix64;

/// Draw a random fingerprint base in `[2, P61 - 2]` from a seed.
#[must_use]
pub fn random_base(seed: u64) -> u64 {
    let mut rng = SplitMix64::new(seed);
    2 + rng.next_below(P61 - 4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_base_in_range() {
        for seed in 0..100 {
            let b = random_base(seed);
            assert!((2..P61 - 1).contains(&b));
        }
    }

    #[test]
    fn random_base_varies_with_seed() {
        assert_ne!(random_base(1), random_base(2));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn modular_arithmetic_laws(a in 0u64..P61, b in 0u64..P61, c in 0u64..P61) {
            // Commutativity / associativity / distributivity spot checks.
            prop_assert_eq!(m61_add(a, b), m61_add(b, a));
            prop_assert_eq!(m61_mul(a, b), m61_mul(b, a));
            prop_assert_eq!(m61_mul(a, m61_mul(b, c)), m61_mul(m61_mul(a, b), c));
            prop_assert_eq!(
                m61_mul(a, m61_add(b, c)),
                m61_add(m61_mul(a, b), m61_mul(a, c))
            );
            prop_assert_eq!(m61_sub(m61_add(a, b), b), a);
        }

        #[test]
        fn equal_strings_equal_fingerprints(
            s in prop::collection::vec(any::<u8>(), 0..300),
            seed in 0u64..1000,
        ) {
            let base = random_base(seed);
            let doubled = [s.clone(), s.clone()].concat();
            let ph = PrefixHashes::build_seq(&doubled, base);
            prop_assert!(ph.eq_substrings(0, s.len(), s.len()));
            // Concatenation law.
            if !s.is_empty() {
                let half = s.len() / 2;
                let left = ph.fingerprint(0, half);
                let right = ph.fingerprint(half, s.len() - half);
                prop_assert_eq!(left.concat(right), ph.fingerprint(0, s.len()));
            }
        }

        #[test]
        fn different_strings_different_fingerprints(
            s in prop::collection::vec(any::<u8>(), 1..200),
            flip in 0usize..200,
            seed in 0u64..100,
        ) {
            // Not guaranteed in theory, but at 2^-60 collision probability a
            // failure here means a bug, not bad luck.
            let mut t = s.clone();
            let at = flip % s.len();
            t[at] ^= 1;
            let joined = [s.clone(), t].concat();
            let ph = PrefixHashes::build_seq(&joined, random_base(seed));
            prop_assert!(!ph.eq_substrings(0, s.len(), s.len()));
        }
    }
}
