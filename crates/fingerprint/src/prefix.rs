//! Prefix-hash tables with O(1) substring fingerprints.

use crate::mersenne::{m61_add, m61_mul, m61_sub, P61};
use pardict_pram::Pram;

/// A composable fingerprint: the polynomial hash of a string together with
/// `rᴸ` for its length `L`, so two fingerprints concatenate in O(1):
/// `fp(xy) = fp(x)·r^|y| + fp(y)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    /// Polynomial hash value in `[0, p)`.
    pub val: u64,
    /// `r^len mod p` — carries the length implicitly.
    pub rpow: u64,
}

impl Fingerprint {
    /// Fingerprint of the empty string.
    #[must_use]
    pub fn empty() -> Self {
        Self { val: 0, rpow: 1 }
    }

    /// Fingerprint of the concatenation `self · other`.
    #[must_use]
    pub fn concat(self, other: Self) -> Self {
        Self {
            val: m61_add(m61_mul(self.val, other.rpow), other.val),
            rpow: m61_mul(self.rpow, other.rpow),
        }
    }
}

/// Prefix hashes of a byte string for O(1) substring fingerprints.
///
/// `pre[i]` is the hash of `s[..i]`; `pows[i] = rⁱ`. Construction is a PRAM
/// scan (O(n) work, O(log n) depth) in [`PrefixHashes::build`].
#[derive(Debug, Clone)]
pub struct PrefixHashes {
    base: u64,
    pre: Vec<u64>,
    pows: Vec<u64>,
}

impl PrefixHashes {
    /// Parallel construction as a scan under the concatenation monoid.
    #[must_use]
    pub fn build(pram: &Pram, s: &[u8], base: u64) -> Self {
        assert!((2..P61 - 1).contains(&base), "base must be in [2, p-2]");
        let elems: Vec<Fingerprint> = pram.map(s, |_, &c| Fingerprint {
            val: u64::from(c) + 1, // +1 so NUL bytes still contribute
            rpow: base,
        });
        let inc = pram.scan_inclusive(&elems, Fingerprint::empty(), Fingerprint::concat);
        let mut pre = Vec::with_capacity(s.len() + 1);
        let mut pows = Vec::with_capacity(s.len() + 1);
        pre.push(0);
        pows.push(1);
        for f in &inc {
            pre.push(f.val);
            pows.push(f.rpow);
        }
        Self { base, pre, pows }
    }

    /// Sequential construction (identical table): the reference that
    /// [`PrefixHashes::build`] is tested against.
    #[cfg(test)]
    #[must_use]
    pub fn build_seq(s: &[u8], base: u64) -> Self {
        assert!((2..P61 - 1).contains(&base), "base must be in [2, p-2]");
        let mut pre = Vec::with_capacity(s.len() + 1);
        let mut pows = Vec::with_capacity(s.len() + 1);
        pre.push(0u64);
        pows.push(1u64);
        let mut h = 0u64;
        let mut pw = 1u64;
        for &c in s {
            h = m61_add(m61_mul(h, base), u64::from(c) + 1);
            pw = m61_mul(pw, base);
            pre.push(h);
            pows.push(pw);
        }
        Self { base, pre, pows }
    }

    /// The hashed string's length.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pre.len() - 1
    }

    /// True when the hashed string is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The fingerprint base in use.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Hash value of `s[start..start + len]` in O(1).
    #[must_use]
    pub fn substring(&self, start: usize, len: usize) -> u64 {
        debug_assert!(start + len <= self.len());
        m61_sub(
            self.pre[start + len],
            m61_mul(self.pre[start], self.pows[len]),
        )
    }

    /// Composable fingerprint of `s[start..start + len]` in O(1).
    #[must_use]
    pub fn fingerprint(&self, start: usize, len: usize) -> Fingerprint {
        Fingerprint {
            val: self.substring(start, len),
            rpow: self.pows[len],
        }
    }

    /// Monte Carlo equality of two substrings of the hashed string.
    #[must_use]
    pub fn eq_substrings(&self, a: usize, b: usize, len: usize) -> bool {
        self.substring(a, len) == self.substring(b, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardict_pram::{Pram, SplitMix64};

    const BASE: u64 = 1_000_000_007;

    fn naive_hash(s: &[u8], base: u64) -> u64 {
        let mut h = 0u64;
        for &c in s {
            h = m61_add(m61_mul(h, base), u64::from(c) + 1);
        }
        h
    }

    #[test]
    fn substring_matches_naive() {
        let s = b"abracadabra".to_vec();
        let ph = PrefixHashes::build_seq(&s, BASE);
        for i in 0..s.len() {
            for l in 0..=(s.len() - i) {
                assert_eq!(ph.substring(i, l), naive_hash(&s[i..i + l], BASE));
            }
        }
    }

    #[test]
    fn parallel_build_equals_sequential() {
        let mut rng = SplitMix64::new(42);
        let s: Vec<u8> = (0..5000).map(|_| (rng.next_below(26) + 97) as u8).collect();
        let pram = Pram::seq();
        let par = PrefixHashes::build(&pram, &s, BASE);
        let seq = PrefixHashes::build_seq(&s, BASE);
        assert_eq!(par.pre, seq.pre);
        assert_eq!(par.pows, seq.pows);
    }

    #[test]
    fn equal_substrings_have_equal_fingerprints() {
        let s = b"xyxyxyxyxy".to_vec();
        let ph = PrefixHashes::build_seq(&s, BASE);
        assert!(ph.eq_substrings(0, 2, 6)); // "xyxyxy" at 0 and 2
        assert!(ph.eq_substrings(0, 2, 8));
        assert!(!ph.eq_substrings(0, 1, 2)); // "xy" vs "yx"
    }

    #[test]
    fn concat_composes() {
        let s = b"hello world".to_vec();
        let ph = PrefixHashes::build_seq(&s, BASE);
        let left = ph.fingerprint(0, 5);
        let right = ph.fingerprint(5, 6);
        assert_eq!(left.concat(right), ph.fingerprint(0, 11));
        assert_eq!(Fingerprint::empty().concat(left), left);
        assert_eq!(left.concat(Fingerprint::empty()), left);
    }

    #[test]
    fn nul_bytes_are_distinguished() {
        // The +1 offset keeps "\0" distinct from "" and "\0\0".
        let s = vec![0u8, 0, 0];
        let ph = PrefixHashes::build_seq(&s, BASE);
        assert_ne!(ph.substring(0, 1), ph.substring(0, 0));
        assert_ne!(ph.substring(0, 1), ph.substring(0, 2));
    }

    #[test]
    fn empty_string_table() {
        let ph = PrefixHashes::build_seq(&[], BASE);
        assert_eq!(ph.len(), 0);
        assert!(ph.is_empty());
        assert_eq!(ph.substring(0, 0), 0);
    }
}
