#![warn(missing_docs)]

//! # pardict-suffix — suffix arrays and suffix trees (Lemmas 2.1 and 2.6)
//!
//! The paper's algorithms all start from the suffix tree of the dictionary
//! concatenation or of the text. This crate builds that object in PRAM
//! rounds — suffix array (DC3 with radix-sort rounds), LCP array (blocked
//! fingerprint galloping), LCP intervals (ANSV; [`SuffixArrays`], all LZ1
//! needs), tree structure (one range minimum per boundary), suffix and
//! Weiner links (via LCA) — and exposes the query surface the paper uses:
//! child navigation, subtree leaf ranges, LCA, and O(1) string LCP /
//! equality queries (Lemma 2.6).
//!
//! DC3 serves that seeded PRAM route (Lemma 2.1 and its reproductions).
//! The exact, seed-free route every shipped LZ1 parse reads,
//! [`SuffixArrays::build_exact`], sorts by SA-IS (sequential induced
//! sorting, linear work) and takes Kasai's LCP: its parallelism is across
//! blocks, so it pays for no polylog depth. Served dictionaries build
//! their trees on it too ([`SuffixTree::build_exact`]), their parallelism
//! across segments.
//!
//! ```
//! use pardict_pram::Pram;
//! use pardict_suffix::SuffixTree;
//!
//! let pram = Pram::seq();
//! let st = SuffixTree::build(&pram, b"banana", 1);
//! assert!(st.contains(b"nan"));
//! let mut occ = st.occurrences(b"ana");
//! occ.sort_unstable();
//! assert_eq!(occ, vec![1, 3]);
//! assert_eq!(st.lcp_positions(1, 3), 3); // "anana" vs "ana"
//! ```

mod arrays;
mod doubling;
mod lcp;
mod sa;
mod sais;
mod tree;

pub use arrays::SuffixArrays;
pub use doubling::suffix_array_doubling;
pub use lcp::{lcp_kasai, lcp_parallel};
pub use sa::{suffix_array, suffix_array_naive};
pub use tree::{sym_code, SuffixTree, SymCode, SENTINEL_CODE};

#[cfg(test)]
mod proptests {
    use super::*;
    use pardict_fingerprint::{random_base, PrefixHashes};
    use pardict_pram::Pram;
    use pardict_workloads::{shaped_len, shaped_text};
    use proptest::prelude::*;

    fn nul_free_text(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec(
            prop::sample::select(vec![b'a', b'b', b'c', b'd']),
            0..max_len,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn dc3_and_doubling_match_naive(text in nul_free_text(250)) {
            let pram = Pram::seq();
            let want = suffix_array_naive(&text);
            prop_assert_eq!(suffix_array(&pram, &text), want.clone());
            prop_assert_eq!(suffix_array_doubling(&pram, &text), want);
        }

        #[test]
        fn lcp_parallel_matches_kasai(text in nul_free_text(250), seed in 0u64..500) {
            let pram = Pram::seq();
            let sa = suffix_array(&pram, &text);
            let hashes = PrefixHashes::build(&pram, &text, random_base(seed));
            prop_assert_eq!(
                lcp_parallel(&pram, &text, &sa, &hashes),
                lcp_kasai(&text, &sa)
            );
        }

        /// SA-IS, DC3 and the naive sort agree on `text · $`.
        #[test]
        fn sais_equals_dc3_equals_naive(
            shape in 0u64..8,
            small in 0usize..301,
            edge in 0usize..16,
            seed in 0u64..1000,
        ) {
            let text = shaped_text(shape, shaped_len(small, edge), seed);
            let padded = [&text[..], &[0]].concat();
            let (got, _) = sais::suffix_array(&padded);
            prop_assert_eq!(&got, &suffix_array(&Pram::seq(), &padded));
            prop_assert_eq!(got, suffix_array_naive(&padded));
        }

        /// The exact sequential route builds the seeded PRAM route's arrays,
        /// at small lengths and at 2^k ± 1 up to 4 097.
        #[test]
        fn exact_arrays_equal_the_seeded_arrays(
            shape in 0u64..8,
            small in 0usize..301,
            edge in 0usize..16,
            seed in 0u64..1000,
        ) {
            let text = shaped_text(shape, shaped_len(small, edge), seed);
            let pram = Pram::seq();
            let exact = SuffixArrays::build_exact(&pram, &text);
            let (seeded, _) = SuffixArrays::build(&pram, &text, seed);
            prop_assert_eq!(exact.text(), &text[..]);
            prop_assert_eq!(&exact.sa, &seeded.sa);
            prop_assert_eq!(exact.lcp.keys(), seeded.lcp.keys());
            prop_assert_eq!(&exact.rank, &seeded.rank);
            prop_assert_eq!(&exact.left, &seeded.left);
            prop_assert_eq!(&exact.right, &seeded.right);
        }

        /// The tree on exact arrays is the seeded tree node for node, with
        /// the same prefix hashes and the same tour, at the lengths above.
        #[test]
        fn exact_tree_equals_the_seeded_tree(
            shape in 0u64..8,
            small in 0usize..301,
            edge in 0usize..16,
            seed in 0u64..1000,
        ) {
            let text = shaped_text(shape, shaped_len(small, edge), seed);
            let pram = Pram::seq();
            let exact = SuffixTree::build_exact(&pram, &text, seed);
            let seeded = SuffixTree::build(&pram, &text, seed);
            prop_assert_eq!(exact.num_nodes(), seeded.num_nodes());
            prop_assert_eq!(exact.root(), seeded.root());
            for v in 0..exact.num_nodes() {
                prop_assert_eq!(exact.parent(v), seeded.parent(v));
                prop_assert_eq!(exact.str_depth(v), seeded.str_depth(v));
                prop_assert_eq!(exact.label_pos(v), seeded.label_pos(v));
                prop_assert_eq!(exact.slink(v), seeded.slink(v));
                prop_assert_eq!(exact.edges(v), seeded.edges(v));
                prop_assert_eq!(exact.wlinks(v), seeded.wlinks(v));
                prop_assert_eq!(exact.leaf_range(v), seeded.leaf_range(v));
            }
            prop_assert_eq!(&exact.tour().seq, &seeded.tour().seq);
            let (he, hs) = (exact.hashes(), seeded.hashes());
            prop_assert_eq!(he.base(), hs.base());
            prop_assert_eq!(he.len(), hs.len());
            for i in 0..=he.len() {
                prop_assert_eq!(he.fingerprint(0, i), hs.fingerprint(0, i));
            }
        }

        #[test]
        fn tree_find_matches_window_scan(text in nul_free_text(200), pat in nul_free_text(6)) {
            prop_assume!(!pat.is_empty());
            let pram = Pram::seq();
            let st = SuffixTree::build(&pram, &text, 5);
            let mut got = st.occurrences(&pat);
            got.sort_unstable();
            let want: Vec<usize> = if pat.len() > text.len() {
                Vec::new()
            } else {
                (0..=text.len() - pat.len())
                    .filter(|&i| &text[i..i + pat.len()] == pat.as_slice())
                    .collect()
            };
            prop_assert_eq!(got, want);
        }

        #[test]
        fn suffix_links_shorten_by_one(text in nul_free_text(150)) {
            let pram = Pram::seq();
            let st = SuffixTree::build(&pram, &text, 9);
            for v in 0..st.num_nodes() {
                if v == st.root() || st.str_depth(v) == 0 {
                    continue;
                }
                if st.is_leaf(v) && st.leaf_pos(v) == st.num_leaves() - 1 {
                    continue;
                }
                prop_assert_eq!(st.str_depth(st.slink(v)), st.str_depth(v) - 1);
            }
        }
    }
}
