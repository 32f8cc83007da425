//! Deterministic *offline* dictionary matching.
//!
//! The paper's model is online: the dictionary is preprocessed before the
//! text exists, which forces fingerprints (and the Las Vegas wrapper).
//! When dictionary and text are both in hand, a joint suffix tree of
//! `D̂ · # · T` answers everything deterministically in `O(d + n)` work:
//! each text suffix's longest `D̂`-match is the better of its nearest
//! `D̂`-suffix neighbours in suffix-array order (two monoid scans), the
//! locus is an LCA of two leaves, and Step 2's tables apply unchanged on
//! the joint tree. No randomness, no checker — the batch-mode counterpart
//! a downstream user often wants, and a deterministic cross-check of the
//! online matcher in the test suite.

use crate::dict::{Dictionary, Match, Matches};
use crate::dsm::Locus;
use crate::step2::Step2Tables;
use pardict_pram::Pram;
use pardict_suffix::SuffixTree;

/// Deterministic batch matching: longest pattern at every text position.
///
/// Returns `None` when no separator byte is available (the 255 non-NUL
/// byte values are all used by `D̂` or the text — impossible for any
/// realistic alphabet).
#[must_use]
pub fn dictionary_match_offline(pram: &Pram, dict: &Dictionary, text: &[u8]) -> Option<Matches> {
    let n = text.len();
    if n == 0 {
        return Some(Matches::new(Vec::new()));
    }
    assert!(text.iter().all(|&c| c != 0), "text must be NUL-free");

    // A separator byte unused by both strings (0 is the tree's sentinel).
    let mut used = [false; 256];
    for &c in dict.dhat() {
        used[c as usize] = true;
    }
    for &c in text {
        used[c as usize] = true;
    }
    pram.ledger().round((dict.total_len() + n) as u64);
    let sep = (1u8..=255).find(|&c| !used[c as usize])?;

    // Joint string D̂ · sep · T. The separator is unique, so no common
    // prefix ever crosses it.
    let d = dict.total_len();
    let mut joint = Vec::with_capacity(d + 1 + n);
    joint.extend_from_slice(dict.dhat());
    joint.push(sep);
    joint.extend_from_slice(text);
    // The seed only randomizes the Euler tour's list ranking and the
    // fingerprint base: outputs are deterministic.
    let st = SuffixTree::build(pram, &joint, 0x000F_F11E);

    // For each SA position, the nearest D̂-suffix (start < d) above/below,
    // with the min-LCP of the gap — two monoid scans over (SA, LCP).
    // Element: (candidate D̂ SA-position or MAX, min lcp since it).
    let up = scan_nearest(pram, &st, d, false);
    let down = scan_nearest(pram, &st, d, true);

    let tables = Step2Tables::build(pram, dict, &st);

    // Per text position: best D̂ match length + locus, then Step 2.
    let inner: Vec<Option<Match>> = pram.tabulate(n, |i| {
        let leaf = st.leaf_node(d + 1 + i);
        let k = leaf; // leaves are SA positions
        let (a_pos, a_lcp) = up[k];
        let (b_pos, b_lcp) = down[k];
        let (best_lcp, best_leaf) = if a_lcp >= b_lcp {
            (a_lcp, a_pos)
        } else {
            (b_lcp, b_pos)
        };
        if best_leaf == u32::MAX || best_lcp == 0 {
            return None;
        }
        // Locus of the match: the LCA of the two leaves has string depth
        // exactly best_lcp.
        let v = st.lca(leaf, best_leaf as usize);
        debug_assert_eq!(st.str_depth(v), best_lcp as usize);
        let locus = Locus {
            below: v as u32,
            len: best_lcp,
        };
        tables.longest_pattern(dict, locus)
    });
    Some(Matches::new(inner))
}

/// For every SA position `k`: the nearest SA position with a `D̂` suffix
/// (`sa < d`) strictly before (`rev = false`) or after (`rev = true`) `k`,
/// together with the minimum LCP between them — i.e.
/// `lcp(suffix(sa[k]), suffix(sa[that]))`.
fn scan_nearest(pram: &Pram, st: &SuffixTree, d: usize, rev: bool) -> Vec<(u32, u32)> {
    let m = st.num_leaves();
    // Scan over SA positions carrying (has-D̂-pos, last D̂ pos, min LCP of
    // the steps after it). Build per-position elements in scan direction.
    let idx = |t: usize| if rev { m - 1 - t } else { t };
    let elems: Vec<(u32, u32, u32)> = pram.tabulate(m, |t| {
        let k = idx(t);
        // The LCP step crossed when moving INTO position k from the
        // previous position in scan order.
        let step = if rev {
            if k + 1 < m {
                st.lcp()[k + 1]
            } else {
                0
            }
        } else {
            st.lcp()[k] // lcp[0] = 0: never used as a real step (t = 0)
        };
        let is_dhat = (st.leaf_pos(k)) < d;
        if is_dhat {
            // As a unit run, a D̂ position resets the carry; the step INTO
            // it is irrelevant for anything after it (queries measure from
            // the D̂ position forward). Dropping it here keeps the combine
            // associative.
            (1, k as u32, u32::MAX)
        } else {
            (0, k as u32, step)
        }
    });
    // Inclusive scan: state = (pos, min_lcp). Combining a = state, b = elem:
    // if b is a D̂ suffix: reset to (b, inf). Else extend: min with step.
    let scanned = pram.scan_inclusive(&elems, (0u32, u32::MAX, u32::MAX), |a, b| {
        // (run-contains-a-D̂-pos, last D̂ pos, min steps after it).
        // If the right run has its own D̂ position, its state stands;
        // otherwise the left state extends across the right's steps.
        if b.0 == 1 {
            b
        } else {
            (a.0, a.1, a.2.min(b.2))
        }
    });
    // The state at position t describes the nearest D̂ suffix at-or-before
    // (in scan order) position idx(t) — but we want *strictly* before and
    // the min LCP must include the step into the current position. Shift by
    // one scan step.
    let mut out = vec![(u32::MAX, 0u32); m];
    pram.ledger().round(m as u64);
    for t in 0..m {
        let k = idx(t);
        if t == 0 {
            continue; // nothing strictly before in scan order
        }
        let prev = scanned[t - 1];
        if prev.0 == 0 {
            continue;
        }
        // Min over: the run recorded up to t-1, plus the raw step into t.
        let step = if rev {
            if k + 1 < m {
                st.lcp()[k + 1]
            } else {
                0
            }
        } else {
            st.lcp()[k]
        };
        let lcp = prev.2.min(step);
        out[k] = (prev.1, lcp);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ac::AhoCorasick;
    use pardict_workloads::{
        markov_text, prefix_heavy_dictionary, random_dictionary, text_with_planted_matches,
        Alphabet,
    };

    fn check(dict: &Dictionary, text: &[u8]) {
        let pram = Pram::seq();
        let got = dictionary_match_offline(&pram, dict, text).expect("separator available");
        let want = AhoCorasick::build(dict).match_text(text);
        for i in 0..text.len() {
            assert_eq!(
                got.get(i).map(|m| m.len),
                want.get(i).map(|m| m.len),
                "position {i}"
            );
        }
    }

    #[test]
    fn matches_aho_corasick() {
        for seed in 0..5u64 {
            let alpha = Alphabet::dna();
            let dict = Dictionary::new(random_dictionary(seed, 20, 2, 10, alpha));
            let text = text_with_planted_matches(seed + 7, dict.patterns(), 600, 30, alpha);
            check(&dict, &text);
        }
    }

    #[test]
    fn prefix_heavy_and_wide_alphabet() {
        let alpha = Alphabet::lowercase();
        let dict = Dictionary::new(prefix_heavy_dictionary(3, 25, 4, 6, alpha));
        let text = markov_text(4, 800, alpha);
        check(&dict, &text);
    }

    #[test]
    fn deterministic_across_calls() {
        let pram = Pram::seq();
        let dict = Dictionary::new(vec![b"ab".to_vec(), b"bab".to_vec()]);
        let a = dictionary_match_offline(&pram, &dict, b"ababab").unwrap();
        let b = dictionary_match_offline(&pram, &dict, b"ababab").unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn tiny_inputs() {
        let pram = Pram::seq();
        let dict = Dictionary::new(vec![b"x".to_vec()]);
        let got = dictionary_match_offline(&pram, &dict, b"").unwrap();
        assert!(got.is_empty());
        check(&dict, b"x");
        check(&dict, b"y");
    }

    #[test]
    fn no_separator_available_returns_none() {
        // Fill the alphabet: patterns using bytes 1..=255 leave no spare.
        let all: Vec<u8> = (1u8..=255).collect();
        let dict = Dictionary::new(vec![all.clone()]);
        let pram = Pram::seq();
        assert!(dictionary_match_offline(&pram, &dict, &all).is_none());
    }

    #[test]
    fn work_is_linear_in_d_plus_n() {
        let alpha = Alphabet::dna();
        let mut per = Vec::new();
        for n in [1usize << 12, 1 << 14, 1 << 16] {
            let dict = Dictionary::new(random_dictionary(5, 64, 4, 12, alpha));
            let text = text_with_planted_matches(6, dict.patterns(), n, 25, alpha);
            let pram = Pram::seq();
            let (_, cost) = pram.metered(|p| dictionary_match_offline(p, &dict, &text));
            per.push(cost.work as f64 / (n + dict.total_len()) as f64);
        }
        assert!(
            per[2] < per[0] * 1.5 + 4.0,
            "offline work superlinear: {per:?}"
        );
    }
}
