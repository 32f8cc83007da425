#![warn(missing_docs)]

//! # pardict-pram — an arbitrary-CRCW-PRAM cost simulator
//!
//! The SPAA'95 paper states all of its bounds on the **arbitrary CRCW PRAM**:
//! an algorithm is *work-optimal* if its total operation count matches the
//! best sequential algorithm, and *fast* if its parallel time (the number of
//! dependent rounds, i.e. the **depth** of the computation) is logarithmic.
//!
//! Real PRAMs do not exist, so this crate provides the substitution used by
//! the whole workspace: algorithms are written as sequences of **wide
//! synchronous rounds** executed either sequentially or on a rayon thread
//! pool (the results are identical — only wall-clock differs), while a
//! [`Ledger`] counts the two quantities the paper's theorems actually bound:
//!
//! * **work** — element-operations actually performed, and
//! * **depth** — dependent rounds actually executed (PRAM "time").
//!
//! The crate supplies the classic work-optimal PRAM building blocks used by
//! the paper's algorithms: wide maps, reductions, prefix scans (Blelloch
//! block-sweep, O(n) work / O(log n) depth), stream compaction, pointer
//! jumping, list ranking (Wyllie and work-optimal random-mate), stable
//! integer sorting (counting/radix rounds), and one fork-join
//! ([`Pram::superstep`]: independent sub-computations under private
//! ledgers, charged Σ work and the deepest one's depth).
//!
//! ```
//! use pardict_pram::{Pram, Mode};
//!
//! let pram = Pram::new(Mode::Seq);
//! let xs: Vec<u64> = (0..1024).collect();
//! let prefix = pram.scan_exclusive_sum(&xs);
//! assert_eq!(prefix[3], 0 + 1 + 2);
//! let cost = pram.cost();
//! // Work is linear, depth is logarithmic.
//! assert!(cost.work < 20 * 1024);
//! assert!(cost.depth < 200);
//! ```

mod ctx;
mod jump;
mod ledger;
mod merge;
mod pack;
mod rng;
mod scan;
mod sort;

pub use ctx::{harts, Mode, Pram};
pub use jump::{
    list_rank_random_mate, list_rank_random_mate_full, list_rank_wyllie, list_rank_wyllie_full,
    pointer_jump_roots, ListRanks,
};
pub use ledger::{Cost, Ledger};
pub use rng::{Fnv1a, SplitMix64};
pub use sort::{radix_sort_by_key, stable_counting_sort_by_key};

/// `ceil(log2(n))` for `n >= 1`; `0` for `n <= 1`.
///
/// Used throughout to size blocks of work-optimal primitives (a virtual
/// processor handles `O(log n)` elements) and to charge tree-round depths.
#[inline]
pub fn ceil_log2(n: usize) -> u32 {
    if n <= 1 {
        0
    } else {
        usize::BITS - (n - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_small_values() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn scan_exclusive_matches_fold(xs in prop::collection::vec(0u64..1000, 0..2000)) {
            let pram = Pram::seq();
            let got = pram.scan_exclusive_sum(&xs);
            let mut acc = 0u64;
            for (i, &x) in xs.iter().enumerate() {
                prop_assert_eq!(got[i], acc);
                acc += x;
            }
        }

        #[test]
        fn scan_noncommutative_monoid(xs in prop::collection::vec((1u64..50, 0u64..50), 1..500)) {
            // Affine maps x -> a*x + b under composition (non-commutative).
            const M: u64 = 1_000_000_007;
            let pram = Pram::seq();
            let op = |p: (u64, u64), q: (u64, u64)| ((q.0 * p.0) % M, (q.0 * p.1 + q.1) % M);
            let got = pram.scan_inclusive(&xs, (1, 0), op);
            let mut acc = (1u64, 0u64);
            for (i, &x) in xs.iter().enumerate() {
                acc = op(acc, x);
                prop_assert_eq!(got[i], acc);
            }
        }

        #[test]
        fn radix_sort_sorts_stably(xs in prop::collection::vec((0u64..100, 0u32..1000), 0..1500)) {
            let pram = Pram::seq();
            let got = radix_sort_by_key(&pram, &xs, |&(k, _)| k);
            let mut want = xs.clone();
            want.sort_by_key(|&(k, _)| k); // std stable sort
            prop_assert_eq!(got, want);
        }

        #[test]
        fn merge_by_merges(mut a in prop::collection::vec(0u32..500, 0..800),
                           mut b in prop::collection::vec(0u32..500, 0..800)) {
            a.sort_unstable();
            b.sort_unstable();
            let pram = Pram::seq();
            let got = pram.merge_by(&a, &b, |x, y| x < y);
            let mut want = [a, b].concat();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }

        #[test]
        fn pack_indices_are_the_set_bits(flags in prop::collection::vec(any::<bool>(), 0..1000)) {
            let pram = Pram::seq();
            let got = pram.pack_indices(&flags);
            let want: Vec<usize> = flags.iter().enumerate().filter(|(_, &f)| f).map(|(i, _)| i).collect();
            prop_assert_eq!(got, want);
        }

        #[test]
        fn list_ranking_agrees_with_walk(perm_seed in 0u64..5000, n in 2usize..600) {
            let mut rng = SplitMix64::new(perm_seed);
            let mut perm: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                perm.swap(i, rng.next_below(i as u64 + 1) as usize);
            }
            let mut next = vec![0usize; n];
            for w in perm.windows(2) {
                next[w[0]] = w[1];
            }
            next[perm[n - 1]] = perm[n - 1];
            let pram = Pram::seq();
            let wy = list_rank_wyllie(&pram, &next);
            let rm = list_rank_random_mate(&pram, &next, perm_seed ^ 0xF00);
            prop_assert_eq!(&wy, &rm);
            for (pos, &u) in perm.iter().enumerate() {
                prop_assert_eq!(wy[u], (n - 1 - pos) as u64);
            }
        }
    }
}
