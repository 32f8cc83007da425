//! Suffix array construction by induced sorting (SA-IS: Nong, Zhang and
//! Chan, "Linear suffix array construction by almost pure induced-sorting",
//! DCC 2009): the exact, sequential builder behind
//! [`SuffixArrays::build_exact`](crate::SuffixArrays::build_exact).
//!
//! Every suffix is S-type (smaller than its successor) or L-type (larger);
//! an S-suffix right after an L-suffix is LMS. One left-to-right pass that
//! places L-suffixes at their bucket heads and one right-to-left pass that
//! places S-suffixes at their bucket tails sort every suffix from the
//! sorted LMS suffixes. Seeded with the LMS positions in any order, the same
//! two passes sort the LMS *substrings*; naming them gives a string of at
//! most half the length whose suffix array orders the LMS suffixes, built
//! by recursion. `O(n)` work in total, charged as depth too: it is one
//! sequential loop.

/// An empty suffix-array slot.
const EMPTY: u32 = u32::MAX;

/// Suffix array of `padded`, a text followed by its unique 0 sentinel, and
/// the operations it took: one per position (or bucket) per pass, plus one
/// per character compare while naming LMS substrings.
pub(crate) fn suffix_array(padded: &[u8]) -> (Vec<u32>, u64) {
    debug_assert_eq!(padded.iter().position(|&c| c == 0), Some(padded.len() - 1));
    let mut tally = Tally::default();
    let sa = sais(padded, 256, &mut tally);
    (sa, tally.ops)
}

#[derive(Default)]
struct Tally {
    ops: u64,
    /// Recursion levels entered, the top one included.
    #[cfg(test)]
    levels: u32,
}

/// A symbol of a level's string: bytes at the top, LMS-substring names below.
trait Symbol: Copy + Eq {
    fn idx(self) -> usize;
}

impl Symbol for u8 {
    fn idx(self) -> usize {
        usize::from(self)
    }
}

impl Symbol for u32 {
    fn idx(self) -> usize {
        self as usize
    }
}

/// SA-IS over `s`, whose symbols are below `sigma` and whose last symbol is
/// its unique 0.
fn sais<T: Symbol>(s: &[T], sigma: usize, tally: &mut Tally) -> Vec<u32> {
    #[cfg(test)]
    {
        tally.levels += 1;
    }
    let n = s.len();
    if n == 1 {
        tally.ops += 1;
        return vec![0];
    }
    // S-type (true) or L-type, right to left; the sentinel is S.
    let mut stype = vec![true; n];
    for i in (0..n - 1).rev() {
        let (a, b) = (s[i].idx(), s[i + 1].idx());
        stype[i] = a < b || (a == b && stype[i + 1]);
    }
    let is_lms = |i: usize| i > 0 && stype[i] && !stype[i - 1];
    let mut count = vec![0u32; sigma];
    for &c in s {
        count[c.idx()] += 1;
    }
    tally.ops += 2 * n as u64 + sigma as u64;

    // Sort the LMS substrings: seed their bucket tails, induce.
    let mut sa = vec![EMPTY; n];
    let mut tail = bucket_tails(&count);
    for i in (1..n).filter(|&i| is_lms(i)) {
        let c = s[i].idx();
        tail[c] -= 1;
        sa[tail[c] as usize] = i as u32;
    }
    tally.ops += 2 * n as u64 + sigma as u64;
    induce(s, &stype, &count, &mut sa, tally);

    // Name them in sorted order; equal substrings share a name. LMS
    // positions are at least two apart, so `p / 2` is a private slot.
    let sorted: Vec<u32> = sa.iter().copied().filter(|&p| is_lms(p as usize)).collect();
    let mut name = vec![0u32; n / 2 + 1];
    let mut names = 0u32;
    for (k, &p) in sorted.iter().enumerate() {
        if k == 0 || !lms_substrings_equal(s, &stype, sorted[k - 1] as usize, p as usize, tally) {
            names += 1;
        }
        name[p as usize / 2] = names - 1;
    }
    tally.ops += n as u64 + sorted.len() as u64;

    // Order the LMS suffixes: directly when every name is distinct, else by
    // recursing on the names in text order (the sentinel's, 0, is last).
    let lms: Vec<u32> = (1..n as u32).filter(|&i| is_lms(i as usize)).collect();
    let reduced: Vec<u32> = lms.iter().map(|&p| name[p as usize / 2]).collect();
    tally.ops += n as u64 + lms.len() as u64;
    let order = if names as usize == lms.len() {
        let mut order = vec![0u32; lms.len()];
        for (k, &r) in reduced.iter().enumerate() {
            order[r as usize] = k as u32;
        }
        tally.ops += lms.len() as u64;
        order
    } else {
        sais(&reduced, names as usize, tally)
    };

    // Seed the bucket tails with the sorted LMS suffixes, induce the rest.
    sa.fill(EMPTY);
    let mut tail = bucket_tails(&count);
    for &k in order.iter().rev() {
        let p = lms[k as usize];
        let c = s[p as usize].idx();
        tail[c] -= 1;
        sa[tail[c] as usize] = p;
    }
    tally.ops += n as u64 + order.len() as u64 + sigma as u64;
    induce(s, &stype, &count, &mut sa, tally);
    sa
}

/// The two induced passes: L-suffixes at their bucket heads left to right,
/// then S-suffixes at their bucket tails right to left.
fn induce<T: Symbol>(s: &[T], stype: &[bool], count: &[u32], sa: &mut [u32], tally: &mut Tally) {
    let n = sa.len();
    let mut head = bucket_tails(count);
    for (h, &c) in head.iter_mut().zip(count) {
        *h -= c;
    }
    for k in 0..n {
        let j = sa[k];
        if j != EMPTY && j > 0 && !stype[j as usize - 1] {
            let c = s[j as usize - 1].idx();
            sa[head[c] as usize] = j - 1;
            head[c] += 1;
        }
    }
    let mut tail = bucket_tails(count);
    for k in (0..n).rev() {
        let j = sa[k];
        if j != EMPTY && j > 0 && stype[j as usize - 1] {
            let c = s[j as usize - 1].idx();
            tail[c] -= 1;
            sa[tail[c] as usize] = j - 1;
        }
    }
    tally.ops += 2 * (n + count.len()) as u64;
}

/// One past the last slot of each symbol's bucket.
fn bucket_tails(count: &[u32]) -> Vec<u32> {
    count
        .iter()
        .scan(0u32, |end, &c| {
            *end += c;
            Some(*end)
        })
        .collect()
}

/// Whether the LMS substrings at `a` and `b` (distinct) are equal: the same
/// symbols and types up to and including the next LMS position. The unique
/// sentinel stops the walk before either end of `s`.
fn lms_substrings_equal<T: Symbol>(
    s: &[T],
    stype: &[bool],
    a: usize,
    b: usize,
    tally: &mut Tally,
) -> bool {
    for d in 0.. {
        tally.ops += 1;
        let (i, j) = (a + d, b + d);
        if s[i] != s[j] || stype[i] != stype[j] {
            return false;
        }
        // Equal types at i - 1 and i: both are LMS or neither is.
        if d > 0 && stype[i] && !stype[i - 1] {
            return true;
        }
    }
    unreachable!("the unique sentinel ends every walk")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{suffix_array as dc3, suffix_array_naive};
    use pardict_pram::Pram;
    use pardict_workloads::fibonacci_word;

    /// SA-IS of `text · $` against the naive sort and DC3; returns the
    /// number of recursion levels.
    fn check(text: &[u8]) -> u32 {
        let padded = [text, &[0]].concat();
        let mut tally = Tally::default();
        let got = sais(&padded[..], 256, &mut tally);
        let want = suffix_array_naive(&padded);
        assert_eq!(got, want, "text={:?}", String::from_utf8_lossy(text));
        assert_eq!(got, dc3(&Pram::seq(), &padded));
        assert_eq!(suffix_array(&padded).1, tally.ops);
        tally.levels
    }

    #[test]
    fn empty_text_is_the_sentinel_alone() {
        assert_eq!(suffix_array(&[0]), (vec![0], 1));
        assert_eq!(check(b""), 1);
    }

    #[test]
    fn one_symbol() {
        check(b"a");
        check(&[0xFF]);
        check(&[1]);
    }

    #[test]
    fn classic_strings() {
        for text in [
            &b"ab"[..],
            b"ba",
            b"aa",
            b"banana",
            b"mississippi",
            b"abracadabra",
            b"yabbadabbado",
        ] {
            check(text);
        }
    }

    #[test]
    fn all_ff_bytes() {
        for n in [2, 3, 100, 1000] {
            check(&vec![0xFF; n]);
        }
    }

    #[test]
    fn fibonacci_words() {
        for n in [5, 34, 233, 1000, 4097] {
            check(&fibonacci_word(n));
        }
    }

    #[test]
    fn fibonacci_recurses_at_least_three_levels() {
        let levels = check(&fibonacci_word(4096));
        assert!(levels >= 3, "only {levels} levels");
    }
}
