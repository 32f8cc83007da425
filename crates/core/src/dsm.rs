//! Step 1: dictionary *substring* matching (§3.1).
//!
//! For every text position `i`, compute `S[i]` — the longest substring of
//! the dictionary concatenation `D̂` that starts at `T[i]` — as a locus in
//! the suffix tree of `D̂`.
//!
//! * **Step 1A (anchors).** Positions `i = (k+1)·L − 1` (one per length-`L`
//!   window, `L = Θ(log d)`) descend a **separator (centroid)
//!   decomposition** of the (binarized) suffix tree. Each separator is
//!   resolved with O(1) Karp–Rabin fingerprint comparisons between a node
//!   path label (a substring of `D̂`) and the corresponding text substring,
//!   so an anchor costs `O(log d)` — the [AFM92] scheme the paper invokes.
//! * **Step 1B (ExtendLeft).** Within each window, `S[i−1]` follows from
//!   `S[i]`: the paper's Observation 2 says the candidate loci have
//!   `T[i−1]`-Weiner-links to ancestors of the current locus, so one
//!   *nearest colored ancestor* query (§3.2; colors = "has an `a`-Weiner
//!   link") plus one **exact** Lemma 2.6 LCP query on `D̂` produce the
//!   answer. A Weiner-link argument shows the residual walk never crosses
//!   more than one full edge, so ExtendLeft is O(1) beyond the Find.
//!
//! With the naive colored-ancestor structure (constant alphabet) the text
//! work is `O(n)` (Theorem 3.1); with the vEB structure it is
//! `O(n log log d)` (Theorem 3.2's regime).

use crate::dict::Dictionary;
use pardict_ancestors::{ColoredAncestors, ColoredAncestorsNaive};
use pardict_fingerprint::PrefixHashes;
use pardict_pram::{ceil_log2, Pram, SplitMix64};
use pardict_suffix::{sym_code, SuffixTree, SENTINEL_CODE};

mod centroid;

use centroid::CentroidIndex;

/// A locus in the suffix tree of `D̂`: a point at string depth `len` on the
/// path to `below` (`len == 0` means the root; otherwise
/// `depth(parent(below)) < len <= depth(below)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Locus {
    /// The node at or below the point.
    pub below: u32,
    /// The matched length `|S[i]|`.
    pub len: u32,
}

impl Locus {
    /// The point at string depth `len` on the path to `below`.
    fn at(below: usize, len: usize) -> Self {
        Self {
            below: below as u32,
            len: len as u32,
        }
    }

    /// The empty locus (root).
    #[must_use]
    pub fn root(st: &SuffixTree) -> Self {
        Self::at(st.root(), 0)
    }

    /// A `D̂` position where the matched substring occurs.
    #[must_use]
    pub fn dhat_pos(&self, st: &SuffixTree) -> usize {
        st.label_pos(self.below as usize)
    }

    /// The deepest explicit node whose label is a prefix of the matched
    /// substring (the paper's `u`).
    #[must_use]
    pub fn upper(&self, st: &SuffixTree) -> usize {
        let b = self.below as usize;
        if (self.len as usize) == st.str_depth(b) {
            b
        } else {
            st.parent(b)
        }
    }
}

/// Engine holding one of the two colored-ancestor variants.
#[derive(Debug)]
enum ColoredEngine {
    Naive(ColoredAncestorsNaive),
    Veb(ColoredAncestors),
}

impl ColoredEngine {
    fn find(&self, p: usize, c: u32) -> Option<usize> {
        match self {
            ColoredEngine::Naive(s) => s.find(p, c),
            ColoredEngine::Veb(s) => s.find(p, c),
        }
    }
}

/// Preprocessed Step-1 matcher: suffix tree of `D̂`, separator index, and
/// the colored-ancestor structure over Weiner links.
#[derive(Debug)]
pub struct SubstringMatcher {
    st: SuffixTree,
    centroid: CentroidIndex,
    colored: ColoredEngine,
    /// Number of distinct edge first-symbols (alphabet size of `D̂`).
    num_colors: usize,
}

/// Above this many distinct symbols, the vEB colored-ancestor variant
/// replaces the naive one (Theorem 3.1 vs 3.2 regimes).
const NAIVE_COLOR_LIMIT: usize = 8;

impl SubstringMatcher {
    /// Preprocess a dictionary (Theorem 3.1 preprocessing).
    #[must_use]
    pub fn build(pram: &Pram, dict: &Dictionary, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let st = SuffixTree::build(pram, dict.dhat(), rng.next_u64());
        Self::from_tree(pram, st, rng.next_u64())
    }

    /// Preprocess from an existing suffix tree of `D̂`.
    #[must_use]
    pub fn from_tree(pram: &Pram, st: SuffixTree, seed: u64) -> Self {
        Self::from_tree_profiled(pram, st, seed).0
    }

    /// [`SubstringMatcher::from_tree`] with per-stage ledger costs
    /// (stage name, cost) — feeds the E1 preprocessing breakdown.
    ///
    /// Both stages are deterministic given the tree (the colored ancestors
    /// are numbered by the tree's own Euler tour), so `_seed` is unused; it
    /// stays because callers draw one seed per preprocessing stage.
    #[must_use]
    pub fn from_tree_profiled(
        pram: &Pram,
        st: SuffixTree,
        _seed: u64,
    ) -> (Self, Vec<(&'static str, pardict_pram::Cost)>) {
        let (centroid, c_centroid) = pram.metered(|p| CentroidIndex::build(p, &st));

        // Colors: node y gets color a iff wlink(y, a) exists, i.e. some node
        // x with slink(x) = y has σ(x) starting with a. A label starting at
        // the sentinel colors nothing: no text byte reads it.
        pram.ledger().round(st.num_nodes() as u64);
        let colors: Vec<(usize, u32)> = (0..st.num_nodes())
            .flat_map(|y| st.wlinks(y).iter().map(move |&(a, _)| (y, u32::from(a))))
            .filter(|&(_, a)| a != u32::from(SENTINEL_CODE))
            .collect();
        // D̂'s alphabet: the root's children but the sentinel leaf.
        let num_colors = st.edges(st.root()).len() - 1;
        let tour = st.tour();
        let (colored, c_colored) = pram.metered(|p| {
            if num_colors <= NAIVE_COLOR_LIMIT {
                ColoredEngine::Naive(ColoredAncestorsNaive::on_tour(p, tour, &colors))
            } else {
                ColoredEngine::Veb(ColoredAncestors::on_tour(p, tour, &colors))
            }
        });
        (
            Self {
                st,
                centroid,
                colored,
                num_colors,
            },
            vec![
                ("separator tree", c_centroid),
                ("colored ancestors", c_colored),
            ],
        )
    }

    /// The suffix tree of `D̂`.
    #[must_use]
    pub fn tree(&self) -> &SuffixTree {
        &self.st
    }

    /// Distinct alphabet symbols seen in `D̂`.
    #[must_use]
    pub fn alphabet_size(&self) -> usize {
        self.num_colors
    }

    /// Effective matchable depth of a node (leaves stop before the
    /// sentinel).
    #[inline]
    fn eff(&self, v: usize) -> usize {
        if self.st.is_leaf(v) {
            self.st.str_depth(v) - 1
        } else {
            self.st.str_depth(v)
        }
    }

    /// Step 1A: locus of the longest `D̂`-substring starting at `text[i]`,
    /// by separator descent. Returns `(locus, ops)`.
    fn anchor(&self, text: &[u8], t_hashes: &PrefixHashes, i: usize) -> (Locus, u64) {
        let st = &self.st;
        let qlen = text.len() - i;
        let mut ops = 1u64;

        // Fingerprint test: does σ(node) prefix-match text[i..]?
        let label_matches = |v: usize| -> bool {
            let ds = st.str_depth(v);
            ds <= qlen && st.hashes().substring(st.label_pos(v), ds) == t_hashes.substring(i, ds)
        };

        let anchor = self
            .centroid
            .descend(st, qlen, i, text, &label_matches, &mut ops);

        // Final refinement: at most one partial edge below the anchor
        // (galloped with fingerprints — the only Monte Carlo step here).
        let mut matched = st.str_depth(anchor);
        let mut below = anchor;
        loop {
            if i + matched >= text.len() {
                break;
            }
            let Some(c) = st.child_by_byte(below, text[i + matched]) else {
                break;
            };
            let edge_lo = st.label_pos(c) + matched;
            let edge_len = self.eff(c) - matched;
            let cap = edge_len.min(qlen - matched);
            // Gallop the common prefix of text[i+matched..] and
            // D̂[edge_lo..] (first char already matches).
            let mut good = 1usize;
            let eq = |l: usize| -> bool {
                st.hashes().substring(edge_lo, l) == t_hashes.substring(i + matched, l)
            };
            if cap > 1 {
                let mut step = 1usize;
                loop {
                    let probe = (good + step).min(cap);
                    ops += 1;
                    if eq(probe) {
                        good = probe;
                        if probe == cap {
                            break;
                        }
                        step *= 2;
                    } else {
                        let (mut lo, mut hi) = (good, probe - 1);
                        while lo < hi {
                            let mid = (lo + hi).div_ceil(2);
                            ops += 1;
                            if eq(mid) {
                                lo = mid;
                            } else {
                                hi = mid - 1;
                            }
                        }
                        good = lo;
                        break;
                    }
                }
            }
            matched += good;
            if good == edge_len && matched < qlen {
                below = c;
                continue;
            }
            below = c;
            break;
        }
        let below = if matched == 0 { st.root() } else { below };
        (Locus::at(below, matched), ops)
    }

    /// Step 1B: `S[i-1]` from `S[i]` (ExtendLeft). `a = text[i-1]`.
    /// Returns `(locus, ops)`.
    fn extend_left(&self, cur: Locus, a: u8, total_budget: usize) -> (Locus, u64) {
        let st = &self.st;
        let code = u32::from(sym_code(a));
        let len = cur.len as usize;
        // Target string is a · S[i], capped by the remaining text length.
        let total = (1 + len).min(total_budget);
        let pi = cur.dhat_pos(st); // S[i] = D̂[pi .. pi+len]
        let ustar = cur.upper(st);

        let mut ops = 2u64;
        match self.colored.find(ustar, code) {
            Some(ua) => {
                let w = st
                    .wlink(ua, code as pardict_suffix::SymCode)
                    .expect("colored node has the Weiner link");
                // σ(w) = a·σ(ua): a confirmed prefix of the target.
                let (locus, walk_ops) = self.walk_down(w, st.str_depth(w), a, pi, total);
                (locus, ops + walk_ops)
            }
            None => {
                // No explicit node starts with a·…: at most one edge below
                // the root can match.
                ops += 1;
                let (locus, walk_ops) = self.walk_down(st.root(), 0, a, pi, total);
                (locus, ops + walk_ops)
            }
        }
    }

    /// Walk down from a fully matched node `cur` (depth `matched`) along
    /// the target `a · D̂[pi..pi+total-1]`, using **exact** Lemma 2.6 LCP
    /// queries. Provably crosses at most one full edge when entered via a
    /// deepest Weiner-link anchor; the loop is kept for robustness.
    fn walk_down(
        &self,
        mut cur: usize,
        mut matched: usize,
        a: u8,
        pi: usize,
        total: usize,
    ) -> (Locus, u64) {
        let st = &self.st;
        let mut ops = 0u64;
        loop {
            ops += 1;
            if matched == total {
                return (Locus::at(cur, matched), ops);
            }
            let next_char = if matched == 0 {
                a
            } else {
                st.text()[pi + matched - 1]
            };
            let Some(c) = st.child_by_byte(cur, next_char) else {
                return (Locus::at(cur, matched), ops);
            };
            let edge_lo = st.label_pos(c) + matched;
            let edge_len = self.eff(c) - matched;
            let rest = total - matched;
            // First char matches via the child lookup; extend exactly.
            let l = if matched == 0 {
                1 + if rest > 1 && edge_len > 1 {
                    st.lcp_positions(pi, edge_lo + 1)
                        .min(edge_len - 1)
                        .min(rest - 1)
                } else {
                    0
                }
            } else {
                st.lcp_positions(pi + matched - 1, edge_lo)
                    .min(edge_len)
                    .min(rest)
            };
            debug_assert!(l >= 1);
            matched += l;
            if l == edge_len && matched < total {
                cur = c;
                continue;
            }
            return (Locus::at(c, matched), ops);
        }
    }
}

/// Step 1 driver: `S[i]` for every text position.
///
/// Window length `L = Θ(log d)`; each window costs one anchor descent
/// (`O(log d)`) plus `L − 1` ExtendLefts (`O(1)` or `O(log log d)` each), so
/// the total is `O(n)` work (constant alphabet) at `O(log d + L)` depth.
#[must_use]
pub fn substring_match(pram: &Pram, matcher: &SubstringMatcher, text: &[u8]) -> Vec<Locus> {
    let n = text.len();
    if n == 0 {
        return Vec::new();
    }
    assert!(
        text.iter().all(|&c| c != 0),
        "text must be NUL-free (0 is the suffix-tree sentinel)"
    );
    let st = matcher.tree();
    let t_hashes = PrefixHashes::build(pram, text, st.hashes().base());

    let l_win = (ceil_log2(st.text().len().max(2)) as usize).max(1);
    let nblocks = n.div_ceil(l_win);
    let blocks: Vec<Vec<Locus>> = pram.tabulate_costed(nblocks, |b| {
        let lo = b * l_win;
        let hi = ((b + 1) * l_win).min(n);
        let mut ops = 0u64;
        let mut out = vec![Locus { below: 0, len: 0 }; hi - lo];
        let (anchor, a_ops) = matcher.anchor(text, &t_hashes, hi - 1);
        ops += a_ops;
        out[hi - 1 - lo] = anchor;
        let mut cur = anchor;
        for i in (lo..hi - 1).rev() {
            let (loc, e_ops) = matcher.extend_left(cur, text[i], n - i);
            ops += e_ops;
            out[i - lo] = loc;
            cur = loc;
        }
        (out, ops)
    });
    let mut out = Vec::with_capacity(n);
    for b in blocks {
        out.extend(b);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mstats::matching_statistics_seq;
    use pardict_workloads::{
        dictionary_from_text, markov_text, random_dictionary, random_text,
        text_with_planted_matches, Alphabet,
    };

    fn check(dict_patterns: Vec<Vec<u8>>, text: &[u8]) {
        let pram = Pram::seq();
        let dict = Dictionary::new(dict_patterns);
        let matcher = SubstringMatcher::build(&pram, &dict, 41);
        let loci = substring_match(&pram, &matcher, text);
        let ms = matching_statistics_seq(matcher.tree(), text);
        for i in 0..text.len() {
            assert_eq!(
                loci[i].len, ms[i].0,
                "length mismatch at i={i} (got locus {:?}, want len {})",
                loci[i], ms[i].0
            );
            // The locus must describe a real occurrence.
            let (l, p) = (loci[i].len as usize, loci[i].dhat_pos(matcher.tree()));
            assert_eq!(
                &dict.dhat()[p..p + l],
                &text[i..i + l],
                "locus substring mismatch at i={i}"
            );
        }
    }

    #[test]
    fn tiny_cases() {
        check(vec![b"banana".to_vec()], b"bananas");
        check(vec![b"abc".to_vec(), b"cab".to_vec()], b"abcabcab");
        check(vec![b"aa".to_vec()], b"aaaa");
        check(vec![b"xyz".to_vec()], b"abc");
    }

    #[test]
    fn binary_alphabet_uses_naive_colored() {
        let pram = Pram::seq();
        let dict = Dictionary::new(random_dictionary(3, 10, 2, 8, Alphabet::binary()));
        let matcher = SubstringMatcher::build(&pram, &dict, 5);
        assert!(matcher.alphabet_size() <= 2);
        let text = random_text(9, 300, Alphabet::binary());
        let loci = substring_match(&pram, &matcher, &text);
        let ms = matching_statistics_seq(matcher.tree(), &text);
        for i in 0..text.len() {
            assert_eq!(loci[i].len, ms[i].0, "i={i}");
        }
    }

    #[test]
    fn wide_alphabet_uses_veb_colored() {
        let pram = Pram::seq();
        let dict = Dictionary::new(random_dictionary(4, 12, 3, 10, Alphabet::lowercase()));
        let matcher = SubstringMatcher::build(&pram, &dict, 6);
        assert!(matcher.alphabet_size() > 8);
        let text = random_text(10, 400, Alphabet::lowercase());
        check(dict.patterns().to_vec(), &text);
    }

    #[test]
    fn planted_matches_and_substring_texts() {
        let alpha = Alphabet::dna();
        for seed in 0..3u64 {
            let patterns = random_dictionary(seed, 15, 2, 12, alpha);
            let text = text_with_planted_matches(seed + 50, &patterns, 400, 30, alpha);
            check(patterns, &text);
        }
        // Text drawn from the dictionary itself: long matches.
        let base = markov_text(77, 600, Alphabet::dna());
        let patterns = dictionary_from_text(78, &base, 10, 5, 40);
        let text = base[50..450].to_vec();
        check(patterns, &text);
    }

    #[test]
    fn repetitive_dictionary() {
        let d = vec![
            b"abab".to_vec(),
            b"baba".to_vec(),
            b"aabb".to_vec(),
            b"bbbb".to_vec(),
        ];
        let text = b"abababababbbababbbbaabba".to_vec();
        check(d, &text);
    }

    #[test]
    fn matching_work_is_linear_in_text() {
        let alpha = Alphabet::dna();
        let dict = Dictionary::new(random_dictionary(7, 50, 4, 16, alpha));
        let pram = Pram::seq();
        let matcher = SubstringMatcher::build(&pram, &dict, 8);
        let mut per_char = Vec::new();
        for n in [1usize << 11, 1 << 13, 1 << 15] {
            let text = text_with_planted_matches(n as u64, dict.patterns(), n, 20, alpha);
            let (_, cost) = pram.metered(|p| substring_match(p, &matcher, &text));
            per_char.push(cost.work as f64 / n as f64);
        }
        assert!(
            per_char[2] < per_char[0] * 1.5 + 4.0,
            "substring matching work superlinear: {per_char:?}"
        );
    }
}
