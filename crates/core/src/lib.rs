#![warn(missing_docs)]

//! # pardict-core — work-optimal parallel dictionary matching (SPAA'95 §3)
//!
//! Given a dictionary `D = {P₁, …, P_k}` of total size `d`, preprocess it so
//! that a text `T[1..n]` can be matched — for every position, the longest
//! pattern occurring there — in `O(log d)` time and `O(n)` work on the
//! simulated CRCW PRAM (Theorem 3.1).
//!
//! The implementation follows the paper's two-step plan:
//!
//! * **Step 1 — dictionary substring matching** ([`substring_match`]):
//!   compute `S[i]`, the longest substring of the dictionary concatenation
//!   `D̂` starting at each text position, as a locus in the suffix tree of
//!   `D̂`. Anchors every `L = Θ(log d)` positions descend a separator
//!   (centroid) decomposition comparing Karp–Rabin fingerprints (Step 1A,
//!   from [AFM92]); the positions in between are filled right-to-left by
//!   `ExtendLeft` (Step 1B) using the §3.2 *nearest colored ancestors*
//!   structure over Weiner links plus one Lemma 2.6 LCP query each.
//! * **Step 2 — pattern matching** ([`DictMatcher::match_text`]): truncate
//!   `S[i]` to the longest *pattern prefix* `B[i]` (legal-length range
//!   maxima + nearest marked ancestors), then to the longest complete
//!   pattern `M[i]` (a precomputed longest-pattern-prefix table).
//!
//! The result is **Las Vegas**: the Monte Carlo core (fingerprints can only
//! create false *equalities*, hence over-long claims) is vetted by the
//! paper's §3.4 checker ([`checker`]), which is exact; on failure the driver
//! re-randomizes and retries.
//!
//! Baselines: [`AhoCorasick`] (the classical sequential optimum, also the
//! test oracle), [`matching_statistics_seq`] (sequential `S[i]` oracle), and
//! [`mp93_baseline`] (a work-suboptimal per-position matcher reproducing the
//! previous-best `O(n·polylog)` envelope the paper improves on).
//!
//! ```
//! use pardict_pram::Pram;
//! use pardict_core::{dictionary_match, Dictionary};
//!
//! let pram = Pram::seq();
//! let dict = Dictionary::new(vec![b"ab".to_vec(), b"bab".to_vec()]);
//! let m = dictionary_match(&pram, &dict, b"ababab", 42);
//! assert_eq!(m.get(0).unwrap().len, 2); // "ab"
//! assert_eq!(m.get(1).unwrap().len, 3); // "bab"
//! ```

mod ac;
mod alphabet;
mod baseline;
pub mod bytes;
pub mod checker;
mod crc;
mod dict;
mod dsm;
mod matcher;
mod mstats;
mod offline;
pub mod segmented;
mod step2;

pub use ac::{brute_force_matches, brute_force_occurrences, AhoCorasick};
pub use alphabet::{decode_positions, encode_binary, BinaryEncoded};
pub use baseline::mp93_baseline;
pub use crc::crc32;
pub use dict::{append_in_order, Dictionary, Hit, Match, Matches};
pub use dsm::{substring_match, Locus, SubstringMatcher};
pub use matcher::{dictionary_match, DictMatcher};
pub use mstats::matching_statistics_seq;
pub use offline::dictionary_match_offline;
pub use segmented::{
    apply_delta_patterns, list_hash, multiset_identity, DeltaError, DictDelta, PatternScan,
    Segment, SegmentBuildStats, SegmentedMatcher,
};
