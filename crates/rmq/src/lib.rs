#![warn(missing_docs)]

//! # pardict-rmq — range queries and order structures
//!
//! The paper's Lemma 2.3 (range maxima with O(1) queries) — which also
//! answers Lemma 2.6's O(1) LCP queries as range minima over an LCP array —
//! and Lemma 2.4 (all nearest smaller values) live here:
//!
//! * [`SparseTable`] — O(n log n)-work, O(1)-query RMQ; the oracle, the
//!   baseline, and the block summary inside [`LinearRmq`].
//! * [`ansv_seq`] / [`ansv_par`] — all nearest smaller values, sequential
//!   stack and blocked-doubling parallel versions (Lemma 2.4).
//! * [`LinearRmq`] — O(n)-work O(1)-query RMQ over `u32` keys by the block
//!   decomposition: per-key in-block stack masks plus a sparse table over
//!   the block bests; this is what keeps Lemma 2.3-style tables inside the
//!   paper's linear preprocessing budget.
//!
//! ```
//! use pardict_pram::Pram;
//! use pardict_rmq::LinearRmq;
//!
//! let pram = Pram::seq();
//! let rmq = LinearRmq::new_min(&pram, vec![3, 1, 4, 1, 5, 9, 2, 6]);
//! assert_eq!(rmq.query(2, 6), 3); // leftmost minimum of [4,1,5,9,2]
//! ```

mod ansv;
mod linear;
mod sparse;

pub use ansv::{ansv_par, ansv_seq, Side};
pub use linear::LinearRmq;
pub use sparse::SparseTable;

#[cfg(test)]
mod proptests {
    use super::*;
    use pardict_pram::Pram;
    use proptest::prelude::*;
    use std::cmp::Reverse;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn sparse_and_linear_rmq_agree_with_naive(
            len in 1usize..400,
            // Runs of equal keys (leftmost ties, across block edges), small
            // keys and keys next to u32::MAX.
            runs in prop::collection::vec(
                (prop_oneof![0u32..8, u32::MAX - 8..=u32::MAX], 1usize..70),
                1..30,
            ),
            queries in prop::collection::vec((0usize..400, 0usize..400), 1..40),
        ) {
            let xs: Vec<u32> = runs
                .iter()
                .flat_map(|&(key, run)| std::iter::repeat_n(key, run))
                .cycle()
                .take(len)
                .collect();
            let wide: Vec<i64> = xs.iter().map(|&x| i64::from(x)).collect();
            let pram = Pram::seq();
            for (st, lin) in [
                (SparseTable::new_min(&pram, &wide), LinearRmq::new_min(&pram, xs.clone())),
                (SparseTable::new_max(&pram, &wide), LinearRmq::new_max(&pram, xs.clone())),
            ] {
                for &(a, b) in &queries {
                    let (l, r) = ((a % len).min(b % len), (a % len).max(b % len));
                    let naive = if lin.is_min() {
                        (l..=r).min_by_key(|&i| (xs[i], i))
                    } else {
                        (l..=r).min_by_key(|&i| (Reverse(xs[i]), i))
                    };
                    prop_assert_eq!(st.query(l, r), naive.unwrap());
                    prop_assert_eq!(lin.query(l, r), naive.unwrap());
                }
            }
        }

        #[test]
        fn ansv_par_equals_seq(xs in prop::collection::vec(-20i64..20, 0..600)) {
            let pram = Pram::seq();
            for side in [Side::Left, Side::Right] {
                prop_assert_eq!(ansv_par(&pram, &xs, side), ansv_seq(&xs, side).0);
            }
        }
    }
}
