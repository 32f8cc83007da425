//! The suffix-array half of the suffix tree (Abouelhoda–Kurtz–Ohlebusch's
//! enhanced suffix array). Every tree node is an LCP interval: boundary `k`
//! belongs to the node of string depth `lcp[k]` whose leaves are SA
//! positions `left[k]..right[k]`, between its strict nearest smaller
//! boundaries. A consumer that needs only intervals, like Lemma 4.1's match
//! table, never builds the tree. The two constructors differ in how they
//! build the suffix array, the LCP array and the interval bounds: the seeded
//! route runs DC3, the fingerprint LCP and blocked ANSV in PRAM rounds, the
//! exact route SA-IS, Kasai and two ANSV stack passes, each a sequential
//! loop.

use crate::lcp::{inverse, kasai, lcp_parallel};
use crate::sa::suffix_array;
use crate::sais;
use pardict_fingerprint::{random_base, PrefixHashes};
use pardict_pram::{Pram, SplitMix64};
use pardict_rmq::{ansv_par, ansv_seq, LinearRmq, Side};

/// Suffix array, ranks, LCP range minima and LCP-interval bounds of
/// `text · $` (a unique 0 sentinel).
#[derive(Debug)]
pub struct SuffixArrays {
    /// Text plus sentinel.
    pub padded: Vec<u8>,
    /// The suffix array; the sentinel suffix is SA position 0.
    pub sa: Vec<u32>,
    /// Text position (0..=n) → SA position.
    pub rank: Vec<u32>,
    /// Range minima over the LCP array (`lcp[k]` between SA positions
    /// `k - 1` and `k`), which it owns.
    pub lcp: LinearRmq,
    /// Per LCP boundary `k` in `0..=m` (0 and m count as -1): the nearest
    /// boundary left of `k` with a smaller value.
    pub left: Vec<usize>,
    /// The same, right of `k`.
    pub right: Vec<usize>,
}

impl SuffixArrays {
    /// The seeded PRAM route: DC3, then [`lcp_parallel`](crate::lcp_parallel)
    /// (exact whp) over prefix hashes of `text · $`, which it returns too. Their
    /// base is the first draw of `seed ^ 0x5F1F`; the tree's tour takes the second.
    /// The interval bounds are two blocked-parallel ANSV passes.
    ///
    /// # Panics
    /// Panics if `text` contains a 0 byte (reserved for the sentinel).
    #[must_use]
    pub fn build(pram: &Pram, text: &[u8], seed: u64) -> (Self, PrefixHashes) {
        let padded = pad(text);
        let hashes = PrefixHashes::build(pram, &padded, hash_base(seed));
        let sa = suffix_array(pram, &padded);
        let arrays = Self::with_lcp(
            pram,
            padded,
            sa,
            |padded, sa, _| lcp_parallel(pram, padded, sa, &hashes),
            |ell, side| ansv_par(pram, ell, side),
        );
        (arrays, hashes)
    }

    /// The exact, seed-free route: SA-IS, then Kasai's LCP over the same
    /// ranks, then one stack pass per side for the interval bounds. All are
    /// sequential, so each is charged its operation count (a position per
    /// pass, a character compare, or a push or pop each) as work and as depth.
    ///
    /// # Panics
    /// Panics if `text` contains a 0 byte (reserved for the sentinel).
    #[must_use]
    pub fn build_exact(pram: &Pram, text: &[u8]) -> Self {
        let padded = pad(text);
        let (sa, ops) = sais::suffix_array(&padded);
        pram.ledger().sequential(ops);
        Self::with_lcp(
            pram,
            padded,
            sa,
            |padded, sa, rank| {
                let (lcp, ops) = kasai(padded, sa, rank);
                pram.ledger().sequential(ops);
                lcp
            },
            |ell, side| {
                let (bounds, ops) = ansv_seq(ell, side);
                pram.ledger().sequential(ops);
                bounds
            },
        )
    }

    /// Both routes' tail over the suffix array `sa` of `padded`: its ranks,
    /// the LCP `lcp_of(padded, sa, rank)` returns, its range minima and every
    /// boundary's nearest smaller boundaries on each side, by `nearest`.
    fn with_lcp(
        pram: &Pram,
        padded: Vec<u8>,
        sa: Vec<u32>,
        lcp_of: impl FnOnce(&[u8], &[u32], &[u32]) -> Vec<u32>,
        nearest: impl Fn(&[i64], Side) -> Vec<usize>,
    ) -> Self {
        let m = padded.len(); // number of suffixes
        pram.ledger().round(m as u64);
        let rank = inverse(&sa);
        let lcp = LinearRmq::new_min(pram, lcp_of(&padded, &sa, &rank));
        let mut arrays = Self {
            padded,
            sa,
            rank,
            lcp,
            left: Vec::new(),
            right: Vec::new(),
        };
        let ell: Vec<i64> = pram.tabulate(m + 1, |k| arrays.ell(k));
        arrays.left = nearest(&ell, Side::Left);
        arrays.right = nearest(&ell, Side::Right);
        arrays
    }

    /// The original text (without the sentinel).
    #[must_use]
    pub fn text(&self) -> &[u8] {
        &self.padded[..self.padded.len() - 1]
    }

    /// Boundary value of `k` in `0..=m`: `lcp[k]`, with -1 at 0 and m.
    pub(crate) fn ell(&self, k: usize) -> i64 {
        if k == 0 || k == self.sa.len() {
            -1
        } else {
            i64::from(self.lcp.keys()[k])
        }
    }
}

/// The Karp–Rabin base a tree built with `seed` hashes its padded text with,
/// on either route: the first draw of `seed ^ 0x5F1F`.
pub(crate) fn hash_base(seed: u64) -> u64 {
    random_base(SplitMix64::new(seed ^ 0x5F1F).next_u64())
}

/// `text · $`.
///
/// # Panics
/// Panics if `text` contains a 0 byte.
fn pad(text: &[u8]) -> Vec<u8> {
    assert!(
        text.iter().all(|&c| c != 0),
        "suffix tree input must be NUL-free (0 is the internal sentinel)"
    );
    [text, &[0]].concat()
}
