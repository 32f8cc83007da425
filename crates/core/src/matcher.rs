//! The full dictionary matcher (Theorem 3.1) and its Las Vegas driver.

use crate::checker::{check_matches, CheckError};
use crate::dict::{Dictionary, Matches};
use crate::dsm::{substring_match, SubstringMatcher};
use crate::step2::Step2Tables;
use pardict_pram::{Pram, SplitMix64};
use pardict_suffix::SuffixTree;

/// A preprocessed dictionary matcher: Step 1's substring matcher plus
/// Step 2's pattern tables.
///
/// `O(d)`-work preprocessing (up to the two logged doubling/centroid
/// components, see DESIGN.md), then `O(n)`-work `O(log d)`-depth matching
/// per text on constant alphabets.
#[derive(Debug)]
pub struct DictMatcher {
    dict: Dictionary,
    sub: SubstringMatcher,
    tables: Step2Tables,
}

impl DictMatcher {
    /// Preprocess `dict` with fingerprint randomness from `seed`, on the
    /// seeded suffix tree ([`SuffixTree::build`]): Theorem 3.1's
    /// reproduction, whose tree is right with high probability.
    #[must_use]
    pub fn build(pram: &Pram, dict: Dictionary, seed: u64) -> Self {
        Self::build_profiled(pram, dict, seed).0
    }

    /// Preprocess `dict` as [`DictMatcher::build`] does, on an exact suffix
    /// tree ([`SuffixTree::build_exact`]) with the same hashes and coins:
    /// the same matcher whenever `build`'s tree is right, and a tree the
    /// §3.4 checker can trust when it is not. Served dictionaries build
    /// here.
    #[must_use]
    pub fn build_exact(pram: &Pram, dict: Dictionary, seed: u64) -> Self {
        let mut srng = stage_seeds(seed);
        let st = SuffixTree::build_exact(pram, dict.dhat(), srng.next_u64());
        Self::from_tree(pram, dict, st, srng.next_u64()).0
    }

    /// [`DictMatcher::build`] with per-stage ledger costs — the E1
    /// preprocessing breakdown (suffix tree, separator tree, colored
    /// ancestors, Step-2 tables).
    #[must_use]
    pub fn build_profiled(
        pram: &Pram,
        dict: Dictionary,
        seed: u64,
    ) -> (Self, Vec<(&'static str, pardict_pram::Cost)>) {
        let mut srng = stage_seeds(seed);
        let (st, c_tree) = pram.metered(|p| SuffixTree::build(p, dict.dhat(), srng.next_u64()));
        let (matcher, mut stages) = Self::from_tree(pram, dict, st, srng.next_u64());
        let mut profile = vec![("suffix tree", c_tree)];
        profile.append(&mut stages);
        (matcher, profile)
    }

    /// Both routes' tail over the suffix tree `st` of `D̂`: Step 1's
    /// substring matcher and Step 2's tables, with their stage costs.
    fn from_tree(
        pram: &Pram,
        dict: Dictionary,
        st: SuffixTree,
        seed: u64,
    ) -> (Self, Vec<(&'static str, pardict_pram::Cost)>) {
        let (sub, mut stages) = SubstringMatcher::from_tree_profiled(pram, st, seed);
        let (tables, c_tables) = pram.metered(|p| Step2Tables::build(p, &dict, sub.tree()));
        stages.push(("step-2 tables", c_tables));
        (Self { dict, sub, tables }, stages)
    }

    /// The dictionary.
    #[must_use]
    pub fn dictionary(&self) -> &Dictionary {
        &self.dict
    }

    /// The suffix tree of `D̂`.
    #[must_use]
    pub fn tree(&self) -> &SuffixTree {
        self.sub.tree()
    }

    /// The Step-1 substring matcher.
    #[must_use]
    pub fn substring_matcher(&self) -> &SubstringMatcher {
        &self.sub
    }

    /// One Monte Carlo matching pass: `M[i]` for every text position.
    /// Correct with high probability; pair with [`DictMatcher::check`] or
    /// use [`dictionary_match`] for the Las Vegas guarantee.
    #[must_use]
    pub fn match_text(&self, pram: &Pram, text: &[u8]) -> Matches {
        let loci = substring_match(pram, &self.sub, text);
        let inner = pram.map(&loci, |_, &locus| {
            self.tables.longest_pattern(&self.dict, locus)
        });
        Matches::new(inner)
    }

    /// Step 2A only: for every position, the longest *pattern-prefix*
    /// length and a certificate pattern id — the `M` array of §5's static
    /// dictionary compression (which assumes the prefix property, so any
    /// pattern prefix is a dictionary word). Monte Carlo like
    /// [`DictMatcher::match_text`].
    #[must_use]
    pub fn pattern_prefixes(&self, pram: &Pram, text: &[u8]) -> Vec<Option<(u32, u32)>> {
        let loci = substring_match(pram, &self.sub, text);
        pram.map(&loci, |_, &l| self.tables.pattern_prefix(&self.dict, l))
    }

    /// Exact §3.4 verification of a match array for `text`.
    ///
    /// # Errors
    /// Returns the detected inconsistency, if any.
    pub fn check(&self, pram: &Pram, text: &[u8], matches: &Matches) -> Result<(), CheckError> {
        check_matches(pram, &self.dict, self.tree(), text, matches)
    }
}

/// The per-stage seed stream of a matcher built with `seed`: the tree's
/// seed, then the substring matcher's.
fn stage_seeds(seed: u64) -> SplitMix64 {
    SplitMix64::new(SplitMix64::new(seed).next_u64())
}

/// Attempts before declaring the (astronomically unlikely) systematic
/// failure of the Las Vegas loop.
const MAX_ATTEMPTS: u32 = 8;

/// Las Vegas dictionary matching: build, match, verify; re-randomize and
/// retry on a checker failure. Expected `O(d + n)` work overall.
///
/// # Panics
/// Panics if [`MAX_ATTEMPTS`] independent seeds all fail verification —
/// with 61-bit fingerprints this indicates a bug, not bad luck.
#[must_use]
pub fn dictionary_match(pram: &Pram, dict: &Dictionary, text: &[u8], seed: u64) -> Matches {
    let mut rng = SplitMix64::new(seed);
    for attempt in 0..MAX_ATTEMPTS {
        let matcher = DictMatcher::build(pram, dict.clone(), rng.next_u64());
        let matches = matcher.match_text(pram, text);
        match matcher.check(pram, text, &matches) {
            Ok(()) => return matches,
            Err(e) => {
                debug_assert!(false, "checker rejected attempt {attempt}: {e:?}");
            }
        }
    }
    panic!("dictionary_match failed {MAX_ATTEMPTS} Las Vegas attempts");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ac::{brute_force_matches, AhoCorasick};
    use pardict_workloads::{
        dictionary_from_text, markov_text, prefix_heavy_dictionary, random_dictionary,
        text_with_planted_matches, Alphabet,
    };

    fn assert_same(dict: &Dictionary, text: &[u8], got: &Matches) {
        let want = AhoCorasick::build(dict).match_text(text);
        for i in 0..text.len() {
            assert_eq!(
                got.get(i).map(|m| m.len),
                want.get(i).map(|m| m.len),
                "len mismatch at {i}"
            );
            // Ids may differ between equal patterns; lengths + occurrence
            // are the specification.
            if let Some(m) = got.get(i) {
                let p = &dict.patterns()[m.id as usize];
                assert_eq!(p.len() as u32, m.len);
                assert_eq!(
                    &text[i..i + p.len()],
                    p.as_slice(),
                    "claimed pattern at {i}"
                );
            }
        }
    }

    #[test]
    fn matches_aho_corasick_dna() {
        for seed in 0..5u64 {
            let pram = Pram::seq();
            let alpha = Alphabet::dna();
            let dict = Dictionary::new(random_dictionary(seed, 20, 2, 10, alpha));
            let text = text_with_planted_matches(seed + 31, dict.patterns(), 600, 30, alpha);
            let got = dictionary_match(&pram, &dict, &text, seed);
            assert_same(&dict, &text, &got);
        }
    }

    #[test]
    fn matches_aho_corasick_wide_alphabet() {
        for seed in 0..3u64 {
            let pram = Pram::seq();
            let alpha = Alphabet::lowercase();
            let dict = Dictionary::new(prefix_heavy_dictionary(seed, 25, 4, 6, alpha));
            let text = text_with_planted_matches(seed + 7, dict.patterns(), 500, 25, alpha);
            let got = dictionary_match(&pram, &dict, &text, seed);
            assert_same(&dict, &text, &got);
        }
    }

    #[test]
    fn binary_alphabet_dense_matches() {
        let pram = Pram::seq();
        let alpha = Alphabet::binary();
        let dict = Dictionary::new(random_dictionary(11, 10, 1, 7, alpha));
        let text = markov_text(12, 700, alpha);
        let got = dictionary_match(&pram, &dict, &text, 13);
        assert_same(&dict, &text, &got);
    }

    #[test]
    fn single_pattern_and_tiny_texts() {
        let pram = Pram::seq();
        let dict = Dictionary::new(vec![b"aba".to_vec()]);
        let got = dictionary_match(&pram, &dict, b"ababa", 1);
        assert_same(&dict, b"ababa", &got);
        let got = dictionary_match(&pram, &dict, b"x", 1);
        assert!(got.get(0).is_none());
        let got = dictionary_match(&pram, &dict, b"", 1);
        assert!(got.is_empty());
    }

    #[test]
    fn identical_and_nested_patterns() {
        let pram = Pram::seq();
        let dict = Dictionary::new(vec![
            b"ab".to_vec(),
            b"ab".to_vec(),
            b"abab".to_vec(),
            b"b".to_vec(),
            b"ba".to_vec(),
        ]);
        let text = b"abababab";
        let got = dictionary_match(&pram, &dict, text, 3);
        assert_same(&dict, text, &got);
        assert_eq!(got.get(0).unwrap().len, 4);
    }

    #[test]
    fn patterns_sampled_from_text() {
        let pram = Pram::seq();
        let base = markov_text(21, 800, Alphabet::dna());
        let dict = Dictionary::new(dictionary_from_text(22, &base, 15, 3, 20));
        let text = &base[100..700];
        let got = dictionary_match(&pram, &dict, text, 23);
        assert_same(&dict, text, &got);
    }

    #[test]
    fn brute_force_spot_check() {
        let pram = Pram::seq();
        let dict = Dictionary::new(vec![b"aa".to_vec(), b"aab".to_vec(), b"ba".to_vec()]);
        let text = b"aabaaabab";
        let got = dictionary_match(&pram, &dict, text, 5);
        let want = brute_force_matches(&dict, text);
        for i in 0..text.len() {
            assert_eq!(
                got.get(i).map(|m| m.len),
                want.get(i).map(|m| m.len),
                "i={i}"
            );
        }
    }

    #[test]
    fn matching_work_linear_preprocessing_reported() {
        let pram = Pram::seq();
        let alpha = Alphabet::dna();
        let dict = Dictionary::new(random_dictionary(31, 40, 4, 12, alpha));
        let (matcher, pre_cost) = pram.metered(|p| DictMatcher::build(p, dict.clone(), 32));
        assert!(pre_cost.work > 0 && pre_cost.depth > 0);
        let mut per_char = Vec::new();
        for n in [1usize << 11, 1 << 13, 1 << 15] {
            let text = text_with_planted_matches(n as u64, dict.patterns(), n, 25, alpha);
            let (_, cost) = pram.metered(|p| matcher.match_text(p, &text));
            per_char.push(cost.work as f64 / n as f64);
        }
        assert!(
            per_char[2] < per_char[0] * 1.5 + 4.0,
            "matching work superlinear: {per_char:?}"
        );
    }
}
