//! The §3.4 output checker — what makes the matcher Las Vegas.
//!
//! Fingerprint errors are one-sided: a collision can only make two
//! *different* strings look equal, so the Monte Carlo matcher can only
//! over-claim (report a match that is not really there), never under-claim.
//! This checker verifies a claimed match array **exactly** in `O(n)` work
//! and `O(log n + m)` depth (`m` the longest claimed pattern, see below):
//!
//! 1. positions without a match are treated as claiming their own single
//!    character (the paper's "special pointer to the singleton T[i]");
//! 2. every claim's first character is compared with the text directly;
//! 3. every *dominated* position (the paper's `i` dominates `j` iff `i < j`
//!    and `i + L[i] ≥ j + L[j]`) is checked for consistency against a
//!    dominating claim with one exact Lemma 2.6 LCP query on `D̂`;
//! 4. consecutive *dominating* positions are checked pairwise the same way.
//!
//! Lemma 3.4: if all checks pass, every claimed match really occurs.
//!
//! "Exactly" assumes D̂'s LCP array is correct: every comparison above is a
//! query against it. A served dictionary's tree is built on exact arrays
//! (`SuffixTree::build_exact`: SA-IS and Kasai's LCP), so for every served
//! segment and whole-dictionary matcher the check is exact without
//! qualification, and a served `Match` is exact. The reproduction,
//! [`crate::DictMatcher::build`], keeps the seeded tree, whose LCP array
//! comes from `pardict_suffix::lcp_parallel`: it compares fingerprints, so
//! it is correct with high probability, not with certainty. There a wrong
//! entry could let a false claim through, and the checker is exact only
//! relative to that one Monte Carlo step.
//!
//! Only two kinds of position can fail any of these: a position that carries
//! a claim, and a singleton *covered* by an earlier claim (it is dominated,
//! by the prefix-argmax claim, and must equal that claim's character there).
//! An uncovered singleton is in bounds, equals itself, dominates nothing and
//! overlaps nothing. So after one pass that packs the claiming positions,
//! every round below runs over the `k` claims, and the covered singletons
//! cost one byte compare each: `≈ n + O(k + covered)` work, not a constant
//! times `n` — clean sparse output is cheaper to verify than dense output.
//! Each claim's virtual processor compares the singletons up to the next
//! claim itself, so that round's depth is the longest such run (at most the
//! longest claimed pattern) rather than 1.

use crate::dict::{Dictionary, Matches};
use pardict_pram::Pram;
use pardict_suffix::SuffixTree;

/// Why a check failed (for diagnostics and the Las Vegas retry loop).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// Claimed pattern's first character disagrees with the text.
    FirstChar {
        /// Text position of the offending claim.
        pos: usize,
    },
    /// A claimed match extends past the end of the text.
    Overrun {
        /// Text position of the offending claim.
        pos: usize,
    },
    /// A dominated claim disagrees with its dominating claim.
    DominatedMismatch {
        /// Text position of the dominated claim.
        pos: usize,
        /// The dominating position it was checked against.
        against: usize,
    },
    /// Two consecutive dominating claims disagree on their overlap.
    DominatingMismatch {
        /// Text position of the later dominating claim.
        pos: usize,
        /// The earlier dominating position.
        against: usize,
    },
}

/// Verify `matches` against `text` exactly: `O(n)` work, `O(log n)` depth
/// plus the longest run of singletons one claim covers (see module docs).
///
/// # Errors
/// Returns the first category of inconsistency found.
pub fn check_matches(
    pram: &Pram,
    dict: &Dictionary,
    st: &SuffixTree,
    text: &[u8],
    matches: &Matches,
) -> Result<(), CheckError> {
    let n = text.len();
    assert_eq!(matches.len(), n);

    // Claim t, in position order: (text position, length, D̂ position of
    // the claimed string).
    let claiming = pram.map(matches.as_slice(), |_, m| m.is_some());
    let at = pram.pack_indices(&claiming);
    let claims: Vec<(usize, usize, usize)> = pram.map(&at, |_, &i| {
        let m = matches.get(i).expect("packed positions carry a claim");
        (i, m.len as usize, dict.offset(m.id as usize))
    });
    let k = claims.len();
    let dhat = dict.dhat();
    let first = |errors: Vec<Option<CheckError>>| errors.into_iter().flatten().next();

    // Steps 1–2: bounds + first characters, one round over the claims.
    let bad = pram.map(&claims, |_, &(i, len, q)| {
        if i + len > n {
            Some(CheckError::Overrun { pos: i })
        } else if dhat[q] != text[i] {
            Some(CheckError::FirstChar { pos: i })
        } else {
            None
        }
    });
    if let Some(e) = first(bad) {
        return Err(e);
    }

    // Inclusive prefix max of the claims' reaches, with the claim attaining
    // it (ties: earliest claim wins). A singleton before `j` reaches at most
    // `j`, so wherever this maximum dominates anything it is also the
    // maximum over *all* earlier positions.
    let reaches: Vec<(u64, u64)> =
        pram.map(&claims, |t, &(i, len, _)| ((i + len) as u64, t as u64));
    let pm = pram.scan_inclusive(
        &reaches,
        (0u64, u64::MAX),
        |a, b| {
            if b.0 > a.0 {
                b
            } else {
                a
            }
        },
    );

    // Exact equality of the overlap of claims `a < b`, via Lemma 2.6 on D̂
    // (claims are substrings of D̂).
    let consistent = |a: usize, b: usize| -> bool {
        let (i, li, qi) = claims[a];
        let (j, lj, qj) = claims[b];
        let overlap = (i + li).min(j + lj).saturating_sub(j);
        overlap == 0 || st.lcp_positions(qi + (j - i), qj) >= overlap
    };

    // Step 3: dominated positions vs the prefix-argmax dominator. Claim `t`
    // answers for itself and for the singletons between it and the next
    // claim that the best reach so far still covers; those compare one
    // character each against the dominator (`ops` = characters compared).
    let dom_bad = pram.tabulate_costed(k, |t| {
        let (j, lj, _) = claims[t];
        if t > 0 {
            let (best_reach, d) = pm[t - 1];
            if best_reach >= (j + lj) as u64 && !consistent(d as usize, t) {
                let against = claims[d as usize].0;
                return (Some(CheckError::DominatedMismatch { pos: j, against }), 1);
            }
        }
        let (best_reach, d) = pm[t];
        let (i, _, qi) = claims[d as usize];
        let next = claims.get(t + 1).map_or(n, |c| c.0);
        let mut covered = j + 1..next.min(best_reach as usize);
        let ops = 1 + covered.len() as u64;
        let bad = covered
            .find(|&s| dhat[qi + (s - i)] != text[s])
            .map(|s| CheckError::DominatedMismatch { pos: s, against: i });
        (bad, ops)
    });
    if let Some(e) = first(dom_bad) {
        return Err(e);
    }

    // Step 4: consecutive dominating claims. The claim before `t` that
    // attains the prefix maximum is where that maximum last rose — the
    // previous dominating claim. (A dominating singleton between the two is
    // uncovered, so the pair it would split cannot overlap.)
    let pair_bad = pram.tabulate(k, |t| {
        if t == 0 {
            return None;
        }
        let (best_reach, d) = pm[t - 1];
        (best_reach < reaches[t].0 && !consistent(d as usize, t)).then(|| {
            CheckError::DominatingMismatch {
                pos: claims[t].0,
                against: claims[d as usize].0,
            }
        })
    });
    first(pair_bad).map_or(Ok(()), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ac::AhoCorasick;
    use crate::dict::Match;
    use pardict_workloads::{random_dictionary, text_with_planted_matches, Alphabet};

    fn setup(seed: u64) -> (Dictionary, SuffixTree, Vec<u8>, Matches, Pram) {
        let pram = Pram::seq();
        let alpha = Alphabet::dna();
        let dict = Dictionary::new(random_dictionary(seed, 15, 2, 8, alpha));
        let st = SuffixTree::build(&pram, dict.dhat(), seed);
        let text = text_with_planted_matches(seed + 5, dict.patterns(), 400, 30, alpha);
        let matches = AhoCorasick::build(&dict).match_text(&text);
        (dict, st, text, matches, pram)
    }

    #[test]
    fn correct_output_passes() {
        for seed in 0..5 {
            let (dict, st, text, matches, pram) = setup(seed);
            assert_eq!(check_matches(&pram, &dict, &st, &text, &matches), Ok(()));
        }
    }

    #[test]
    fn corrupted_first_char_is_caught() {
        let (dict, st, text, matches, pram) = setup(1);
        // Claim a pattern at a position where its first char differs.
        let mut v = matches.as_slice().to_vec();
        let pat0 = &dict.patterns()[0];
        let bad_pos = (0..text.len() - pat0.len())
            .find(|&i| text[i] != pat0[0])
            .unwrap();
        v[bad_pos] = Some(Match {
            id: 0,
            len: pat0.len() as u32,
        });
        let corrupted = Matches::new(v);
        assert!(matches!(
            check_matches(&pram, &dict, &st, &text, &corrupted),
            Err(CheckError::FirstChar { .. })
        ));
    }

    #[test]
    fn overrun_is_caught() {
        let (dict, st, text, matches, pram) = setup(2);
        let mut v = matches.as_slice().to_vec();
        let n = v.len();
        v[n - 1] = Some(Match {
            id: 0,
            len: dict.pattern_len(0) as u32 + 5,
        });
        // Length is even wrong for the pattern — but overrun fires first.
        let corrupted = Matches::new(v);
        assert!(matches!(
            check_matches(&pram, &dict, &st, &text, &corrupted),
            Err(CheckError::Overrun { .. })
        ));
    }

    #[test]
    fn false_interior_claim_is_caught() {
        // Claim a pattern whose first char matches the text but whose tail
        // does not: must be caught by a domination check.
        for seed in 0..20u64 {
            let (dict, st, text, matches, pram) = setup(seed + 100);
            let mut v = matches.as_slice().to_vec();
            let mut planted = false;
            'outer: for t in 0..dict.num_patterns() {
                let p = &dict.patterns()[t];
                if p.len() < 2 {
                    continue;
                }
                for i in 0..text.len().saturating_sub(p.len()) {
                    let real = &text[i..i + p.len()] == p.as_slice();
                    let first_ok = text[i] == p[0];
                    let claimed_len = v[i].map_or(0, |m| m.len as usize);
                    if !real && first_ok && claimed_len < p.len() {
                        v[i] = Some(Match {
                            id: t as u32,
                            len: p.len() as u32,
                        });
                        planted = true;
                        break 'outer;
                    }
                }
            }
            if !planted {
                continue;
            }
            let corrupted = Matches::new(v);
            let res = check_matches(&pram, &dict, &st, &text, &corrupted);
            assert!(res.is_err(), "seed={seed}: corrupted output accepted");
            let _ = matches;
        }
    }

    #[test]
    fn empty_text_passes() {
        let pram = Pram::seq();
        let dict = Dictionary::new(vec![b"ab".to_vec()]);
        let st = SuffixTree::build(&pram, dict.dhat(), 3);
        let m = Matches::new(Vec::new());
        assert_eq!(check_matches(&pram, &dict, &st, b"", &m), Ok(()));
    }
}
