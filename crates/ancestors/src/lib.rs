#![warn(missing_docs)]

//! # pardict-ancestors — marked and colored ancestor queries
//!
//! Two tree primitives the paper's dictionary matcher is built on:
//!
//! * [`NearestMarkedAncestor`] — Lemma 2.7: given a rooted forest with some
//!   nodes marked, find every node's nearest marked ancestor in `O(n)` work
//!   and `O(log n)` depth (each pass of the naive colored variant).
//! * [`ColoredAncestors`] / [`ColoredAncestorsNaive`] — §3.2, the paper's
//!   novel primitive: nodes carry *colors* (here: "has an `a`-Weiner-link"),
//!   and `Find(p, c)` returns the nearest ancestor of `p` colored `c`.
//!   The naive variant spends `O(n·|C|)` preprocessing work for `O(1)`
//!   queries; the efficient variant spends `O(n + C)` (C = total color
//!   count) for `O(log log n)` queries via van Emde Boas predecessor search
//!   over Euler-tour numbers — the exact trade-off the paper proves, and
//!   experiment E7's ablation.
//!
//! All three number nodes by an Euler tour of the forest. Their `on_tour`
//! constructors borrow one the caller already holds (a suffix tree owns the
//! tour behind its LCA structure), so any number of marked or colored
//! passes over one forest share a single tour; the colored variants'
//! seed-taking `build`s construct a tour first.
//!
//! ```
//! use pardict_pram::Pram;
//! use pardict_graph::Forest;
//! use pardict_ancestors::ColoredAncestors;
//!
//! let pram = Pram::seq();
//! // Path 0 ← 1 ← 2 ← 3; node 0 is red (0), node 2 is blue (1).
//! let f = Forest::from_parents(&pram, &[0, 0, 1, 2]);
//! let ca = ColoredAncestors::build(&pram, &f, &[(0, 0), (2, 1)], 9);
//! assert_eq!(ca.find(3, 0), Some(0)); // nearest red ancestor
//! assert_eq!(ca.find(3, 1), Some(2)); // nearest blue ancestor
//! assert_eq!(ca.find(1, 1), None);
//! ```

mod colored;
mod marked;

pub use colored::{ColoredAncestors, ColoredAncestorsNaive};
pub use marked::NearestMarkedAncestor;

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::marked::tests::oracle_inclusive;
    use pardict_graph::{EulerTour, Forest};
    use pardict_pram::{Pram, SplitMix64};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn both_colored_variants_match_chain_walk(
            seed in 0u64..10_000,
            n in 2usize..160,
            ncolors in 1u32..6,
            density in 1u64..4,
        ) {
            let mut rng = SplitMix64::new(seed);
            let parent: Vec<usize> = (0..n)
                .map(|v| if v == 0 { 0 } else { rng.next_below(v as u64) as usize })
                .collect();
            let mut colors = Vec::new();
            for v in 0..n {
                if rng.next_below(4) < density {
                    colors.push((v, rng.next_below(u64::from(ncolors)) as u32));
                }
            }
            let pram = Pram::seq();
            let f = Forest::from_parents(&pram, &parent);
            let fast = ColoredAncestors::build(&pram, &f, &colors, seed);
            let naive = ColoredAncestorsNaive::build(&pram, &f, &colors, seed);
            for _ in 0..50 {
                let p = rng.next_below(n as u64) as usize;
                let c = rng.next_below(u64::from(ncolors)) as u32;
                // Chain-walk oracle.
                let mut want = None;
                let mut u = p;
                loop {
                    if colors.iter().any(|&(w, cc)| w == u && cc == c) {
                        want = Some(u);
                        break;
                    }
                    if parent[u] == u {
                        break;
                    }
                    u = parent[u];
                }
                prop_assert_eq!(fast.find(p, c), want);
                prop_assert_eq!(naive.find(p, c), want);
            }
        }

        #[test]
        fn marked_ancestors_match_chain_walk(
            seed in 0u64..10_000,
            n in 1usize..200,
            num_roots in 1usize..5,
            chain in any::<bool>(),
        ) {
            let mut rng = SplitMix64::new(seed);
            // A forest of `num_roots` trees: random attachment, or chains.
            let num_roots = num_roots.min(n);
            let parent: Vec<usize> = (0..n)
                .map(|v| {
                    if v < num_roots {
                        v
                    } else if chain {
                        v - num_roots
                    } else {
                        rng.next_below(v as u64) as usize
                    }
                })
                .collect();
            let is_leaf = {
                let mut leaf = vec![true; n];
                for v in num_roots..n {
                    leaf[parent[v]] = false;
                }
                leaf
            };
            let pram = Pram::seq();
            let f = Forest::from_parents(&pram, &parent);
            let tour = EulerTour::build(&pram, &f, seed);
            // Nothing, everything, exactly the leaves (entry = exit
            // position), the roots plus a sprinkle, a random third.
            for marks in 0..5 {
                let marked: Vec<bool> = (0..n)
                    .map(|v| match marks {
                        0 => false,
                        1 => true,
                        2 => is_leaf[v],
                        3 => v < num_roots || rng.next_below(6) == 0,
                        _ => rng.next_below(3) == 0,
                    })
                    .collect();
                let nma = NearestMarkedAncestor::on_tour(&pram, &tour, &marked);
                for v in 0..n {
                    prop_assert_eq!(nma.inclusive(v), oracle_inclusive(&parent, &marked, v));
                    prop_assert_eq!(nma.is_marked(v), marked[v]);
                }
            }
        }
    }
}
