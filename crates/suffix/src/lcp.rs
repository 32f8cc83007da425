//! LCP arrays: sequential Kasai and a parallel fingerprint version.
//!
//! `lcp[k]` = length of the longest common prefix of the suffixes at
//! `sa[k-1]` and `sa[k]` (`lcp[0] = 0`).
//!
//! The parallel version computes the *permuted* LCP (PLCP) in text order:
//! blocks of `log n` positions are seeded by an `O(log n)` fingerprint
//! binary search and then extended left-to-right with galloping searches
//! from the Kasai lower bound `PLCP[i] ≥ PLCP[i−1] − 1`. Each gallop costs
//! `O(log(Δ + 2))`; the positive Δs telescope to `O(n)` globally, so the
//! whole pass is `O(n)` work and `O(log² n)` depth. Correctness is whp
//! (fingerprint equality); the Las Vegas layers above catch the rest.

use pardict_fingerprint::PrefixHashes;
use pardict_pram::{ceil_log2, Pram};

/// Sequential Kasai: exact, `O(n)` time. The oracle and baseline.
#[must_use]
pub fn lcp_kasai(text: &[u8], sa: &[u32]) -> Vec<u32> {
    assert_eq!(sa.len(), text.len());
    kasai(text, sa, &inverse(sa)).0
}

/// The inverse permutation of `sa`: text position → SA position.
pub(crate) fn inverse(sa: &[u32]) -> Vec<u32> {
    let mut rank = vec![0u32; sa.len()];
    for (k, &i) in sa.iter().enumerate() {
        rank[i as usize] = k as u32;
    }
    rank
}

/// Kasai's pass over the caller's `rank` (the inverse of `sa`): the LCP
/// array and the operations it took, one per position plus one per
/// character compare.
pub(crate) fn kasai(text: &[u8], sa: &[u32], rank: &[u32]) -> (Vec<u32>, u64) {
    let n = text.len();
    let mut lcp = vec![0u32; n];
    let mut ops = n as u64;
    let mut h = 0usize;
    for i in 0..n {
        let r = rank[i] as usize;
        if r == 0 {
            h = 0;
            continue;
        }
        let j = sa[r - 1] as usize;
        while i + h < n && j + h < n && text[i + h] == text[j + h] {
            (h, ops) = (h + 1, ops + 1);
        }
        ops += 1; // the compare that stopped it
        lcp[r] = h as u32;
        h = h.saturating_sub(1);
    }
    (lcp, ops)
}

/// Parallel LCP via blocked PLCP galloping over the caller's prefix hashes
/// of `text`. Expected `O(n)` work, `O(log² n)` depth; equal to
/// [`lcp_kasai`] with high probability.
#[must_use]
pub fn lcp_parallel(pram: &Pram, text: &[u8], sa: &[u32], hashes: &PrefixHashes) -> Vec<u32> {
    let n = text.len();
    assert_eq!(sa.len(), n);
    if n == 0 {
        return Vec::new();
    }
    // Monte Carlo equality of text[i..i+l] and text[j..j+l].
    let eq = |i: usize, j: usize, l: usize| -> bool {
        i + l <= n && j + l <= n && hashes.substring(i, l) == hashes.substring(j, l)
    };
    // Longest common extension of suffixes i and j, with a known-good lower
    // bound `lo`, by galloping + binary search. Returns (lce, ops).
    let lce_from = |i: usize, j: usize, lo: usize| -> (usize, u64) {
        let cap = n - i.max(j);
        let mut ops = 1u64;
        if lo >= cap {
            return (cap, ops);
        }
        debug_assert!(eq(i, j, lo));
        // Gallop until failure.
        let mut step = 1usize;
        let mut good = lo;
        loop {
            let probe = (good + step).min(cap);
            ops += 1;
            if eq(i, j, probe) {
                good = probe;
                if probe == cap {
                    return (cap, ops);
                }
                step *= 2;
            } else {
                // Binary search in (good, probe).
                let (mut lo_b, mut hi_b) = (good, probe - 1);
                while lo_b < hi_b {
                    let mid = (lo_b + hi_b).div_ceil(2);
                    ops += 1;
                    if eq(i, j, mid) {
                        lo_b = mid;
                    } else {
                        hi_b = mid - 1;
                    }
                }
                return (lo_b, ops);
            }
        }
    };

    // rank and phi (previous suffix in SA order), in two rounds.
    pram.ledger().round(n as u64);
    let rank = inverse(sa);
    let phi: Vec<u32> = pram.tabulate(n, |i| {
        let r = rank[i] as usize;
        if r == 0 {
            u32::MAX
        } else {
            sa[r - 1]
        }
    });

    // Blocked PLCP.
    let b = (ceil_log2(n) as usize).max(1);
    let nblocks = n.div_ceil(b);
    let plcp_blocks: Vec<Vec<u32>> = pram.tabulate_costed(nblocks, |k| {
        let lo_i = k * b;
        let hi_i = (lo_i + b).min(n);
        let mut out = Vec::with_capacity(hi_i - lo_i);
        let mut ops = 1u64;
        let mut prev = 0usize;
        for (t, i) in (lo_i..hi_i).enumerate() {
            if phi[i] == u32::MAX {
                out.push(0);
                prev = 0;
                continue;
            }
            let j = phi[i] as usize;
            let lower = if t == 0 { 0 } else { prev.saturating_sub(1) };
            let (l, o) = lce_from(i, j, lower);
            ops += o;
            out.push(l as u32);
            prev = l;
        }
        (out, ops)
    });
    let mut plcp = vec![0u32; n];
    pram.ledger().round(n as u64);
    for (k, blk) in plcp_blocks.iter().enumerate() {
        plcp[k * b..k * b + blk.len()].copy_from_slice(blk);
    }

    // lcp[k] = plcp[sa[k]]; lcp[0] = 0 by construction (phi undefined).
    pram.tabulate(n, |k| plcp[sa[k] as usize])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sa::{suffix_array, suffix_array_naive};
    use pardict_fingerprint::random_base;
    use pardict_pram::{Pram, SplitMix64};

    fn naive_lcp(a: &[u8], b: &[u8]) -> u32 {
        a.iter().zip(b).take_while(|(x, y)| x == y).count() as u32
    }

    fn check(text: &[u8]) {
        let pram = Pram::seq();
        let sa = suffix_array(&pram, text);
        let kasai = lcp_kasai(text, &sa);
        // Kasai vs naive.
        for k in 1..sa.len() {
            let want = naive_lcp(&text[sa[k - 1] as usize..], &text[sa[k] as usize..]);
            assert_eq!(kasai[k], want, "k={k}");
        }
        // Parallel vs Kasai.
        let hashes = PrefixHashes::build(&pram, text, random_base(42));
        let par = lcp_parallel(&pram, text, &sa, &hashes);
        assert_eq!(par, kasai);
    }

    #[test]
    fn classic_strings() {
        check(b"");
        check(b"a");
        check(b"banana");
        check(b"mississippi");
        check(b"abracadabra");
    }

    #[test]
    fn repetitive() {
        check(&[b'z'; 200]);
        check(&b"ab".repeat(100));
        check(&b"aab".repeat(60));
    }

    #[test]
    fn random_texts() {
        let mut rng = SplitMix64::new(11);
        for sigma in [2u64, 4, 26] {
            for n in [50usize, 500, 3000] {
                let text: Vec<u8> = (0..n).map(|_| rng.next_below(sigma) as u8).collect();
                check(&text);
            }
        }
    }

    #[test]
    fn parallel_lcp_linear_work() {
        let mut per_elem = Vec::new();
        for n in [1usize << 13, 1 << 15, 1 << 17] {
            let pram = Pram::seq();
            let mut rng = SplitMix64::new(3);
            let text: Vec<u8> = (0..n).map(|_| rng.next_below(3) as u8).collect();
            let sa = suffix_array_naive_fast(&text);
            let hashes = PrefixHashes::build(&pram, &text, random_base(1));
            let (_, cost) = pram.metered(|p| lcp_parallel(p, &text, &sa, &hashes));
            per_elem.push(cost.work as f64 / n as f64);
        }
        assert!(
            per_elem[2] < per_elem[0] * 1.5 + 2.0,
            "parallel LCP superlinear: {per_elem:?}"
        );
    }

    /// Fast-enough exact SA for the cost test (avoids measuring DC3 too).
    fn suffix_array_naive_fast(text: &[u8]) -> Vec<u32> {
        if text.len() < 2000 {
            suffix_array_naive(text)
        } else {
            let pram = Pram::seq();
            suffix_array(&pram, text)
        }
    }
}
