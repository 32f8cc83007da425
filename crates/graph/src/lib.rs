#![warn(missing_docs)]

//! # pardict-graph — parallel graph substrates
//!
//! Supplies the graph machinery the paper leans on:
//!
//! * **Rooted forests**: [`Forest`] — parent-array forests with child
//!   adjacency built by stable integer sorting.
//! * **Euler tours**: [`EulerTour`] — work-optimal tour construction via
//!   random-mate list ranking; yields entry/exit times, per-node tree roots
//!   (the §4.2 uncompression primitive), and subtree intervals.
//!
//! Root-path folds over a suffix tree need no tree walk here: its leaves
//! are in suffix-array order, so Step 2A reads its path maxima off two
//! scans over them (`pardict_core`'s `step2`).
//!
//! ```
//! use pardict_pram::Pram;
//! use pardict_graph::{EulerTour, Forest};
//!
//! let pram = Pram::seq();
//! // 0 ← 1 ← 2 and a second tree {3}.
//! let f = Forest::from_parents(&pram, &[0, 0, 1, 3]);
//! let tour = EulerTour::build(&pram, &f, 7);
//! assert!(tour.is_ancestor(0, 2));
//! assert_eq!(tour.root_of, vec![0, 0, 0, 3]);
//! ```

mod euler;
mod forest;

pub use euler::EulerTour;
pub use forest::Forest;

#[cfg(test)]
mod proptests {
    use super::*;
    use pardict_pram::{Pram, SplitMix64};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn euler_entry_exit_are_consistent(seed in 0u64..10_000, n in 1usize..250) {
            let mut rng = SplitMix64::new(seed);
            let parent: Vec<usize> = (0..n)
                .map(|v| if v == 0 { 0 } else { rng.next_below(v as u64) as usize })
                .collect();
            let pram = Pram::seq();
            let f = Forest::from_parents(&pram, &parent);
            let tour = EulerTour::build(&pram, &f, seed);
            for (v, &p) in parent.iter().enumerate() {
                prop_assert_eq!(tour.seq[tour.first[v]], v);
                prop_assert_eq!(tour.seq[tour.last[v]], v);
                prop_assert!(tour.first[v] <= tour.last[v]);
                if p != v {
                    prop_assert!(tour.is_ancestor(p, v));
                    prop_assert!(!tour.is_ancestor(v, p));
                }
            }
        }
    }
}
