//! Step 2: from the longest dictionary *substring* `S[i]` to the longest
//! *pattern* `M[i]` (§3.1, Steps 2A/2B).
//!
//! * **2A.** `B[i]` = longest prefix of `S[i]` that is a prefix of some
//!   pattern. Every `D̂` position carries a *cap* (its pattern's length if
//!   it starts one, else 0 — the paper's legal lengths); a node's `maxcap`
//!   is a Lemma 2.3 range-maximum over its leaf range, and
//!   `B[i] = min(|S[i]|, bestpfx(locus))` where `bestpfx` is the root-path
//!   maximum of `g(u) = min(maxcap(u), depth(u))`. No tree walk computes
//!   it: a leaf `ℓ` outside `v`'s leaf range `[lo, hi]` reaches the `g` of
//!   its LCA with `v` as `min(cap ℓ, lcp(ℓ, v))`, and every ancestor's `g`
//!   is reached by one of its own leaves, so
//!   `bestpfx(v) = max(g(v), left[lo], right[hi])` where `left[k]` /
//!   `right[k]` is the best `min(cap ℓ, lcp(ℓ, k))` over leaves `ℓ < k` /
//!   `ℓ > k` — one scan each in suffix-array order, `O(log d)` depth.
//!   The winning leaf doubles as a *certificate*: a pattern whose prefix of
//!   length `B[i]` equals `S[i][..B[i]]`.
//! * **2B.** `M[i]` = longest complete pattern that is a prefix of the
//!   `B[i]`-prefix. For every `D̂` position `j` inside pattern `t`, `F[j]`
//!   records the longest complete pattern equal to a prefix of
//!   `P_t[..j−off(t)+1]` — marked by fingerprint table lookups (the paper's
//!   Step 2A remark) and spread by a segmented prefix-max scan. Then
//!   `M[i] = F[off(t*) + B[i] − 1]` for the certificate pattern `t*`.

use crate::dict::{Dictionary, Match};
use crate::dsm::Locus;
use pardict_pram::Pram;
use pardict_rmq::LinearRmq;
use pardict_suffix::SuffixTree;
use std::collections::HashMap;

/// Preprocessed Step-2 tables.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Step2Tables {
    /// Per node: root-path max of `min(maxcap, depth)` — the longest
    /// pattern-prefix length realizable on the path to this node.
    best_len: Vec<u32>,
    /// Per node: a `D̂` position starting a pattern that certifies
    /// `best_len` (u32::MAX if `best_len == 0`).
    best_cert: Vec<u32>,
    /// Per `D̂` position `j` (inside pattern `t`, prefix length
    /// `l = j − off(t) + 1`): longest complete pattern that is a prefix of
    /// `P_t[..l]`, as (len, id); (0, MAX) if none.
    f_len: Vec<u32>,
    f_pat: Vec<u32>,
}

/// A Step 2A scan element `(best, cert, m)`: the map `x ↦ max(best, min(x, m))`
/// over lengths, with `cert` a `D̂` position starting a pattern that realises
/// `best` (`u32::MAX` when `best == 0`).
type Reach = (u32, u32, u32);

/// The identity map.
const NO_REACH: Reach = (0, u32::MAX, u32::MAX);

/// `b ∘ a`: `a`'s best carried past `b`'s boundary is clamped to `b.m`;
/// the larger of it and `b.best` wins, the later side on ties.
fn compose(a: Reach, b: Reach) -> Reach {
    let carried = a.0.min(b.2);
    let (best, cert) = if b.0 >= carried {
        (b.0, b.1)
    } else {
        (carried, a.1)
    };
    (best, cert, a.2.min(b.2))
}

impl Step2Tables {
    /// Build from the dictionary and its suffix tree. `O(d)` work,
    /// `O(log d)` depth.
    pub(crate) fn build(pram: &Pram, dict: &Dictionary, st: &SuffixTree) -> Self {
        let d = dict.total_len();
        let m_leaves = st.num_leaves();
        let n_nodes = st.num_nodes();

        // Caps in SA order (the sentinel suffix caps at 0).
        let caps_sa: Vec<u32> = pram.tabulate(m_leaves, |k| {
            let pos = st.leaf_pos(k);
            if pos < d {
                dict.cap(pos) as u32
            } else {
                0
            }
        });
        let rmq = LinearRmq::new_max(pram, caps_sa);
        let caps = rmq.keys();

        // left[k] and right[k]: leaf `l` seen across the boundary it shares
        // with its neighbour `k` is `min(cap l, lcp)`, and a scan carries it
        // on, clamped at every boundary it crosses.
        let lcp = st.lcp();
        let across = |l: usize, k: usize| -> Reach {
            let m = lcp[l.max(k)];
            let best = caps[l].min(m);
            let cert = if best == 0 {
                u32::MAX
            } else {
                st.leaf_pos(l) as u32
            };
            (best, cert, m)
        };
        let from_left = pram.tabulate(m_leaves, |k| match k {
            0 => NO_REACH,
            _ => across(k - 1, k),
        });
        let from_right = pram.tabulate(m_leaves, |j| {
            let k = m_leaves - 1 - j;
            if j == 0 {
                NO_REACH
            } else {
                across(k + 1, k)
            }
        });
        let left = pram.scan_inclusive(&from_left, NO_REACH, compose);
        let right = pram.scan_inclusive(&from_right, NO_REACH, compose);

        // Per node: g = min(maxcap, depth) against what reaches its leaf
        // range from either side.
        let best: Vec<(u32, u32)> = pram.tabulate(n_nodes, |v| {
            let (lo, hi) = st.leaf_range(v);
            let arg = rmq.query(lo, hi);
            // Leaves' sentinel char is not matchable.
            let depth = (st.str_depth(v) - usize::from(st.is_leaf(v))) as u32;
            let val = caps[arg].min(depth);
            let own = if val == 0 {
                (0, u32::MAX)
            } else {
                (val, st.leaf_pos(arg) as u32)
            };
            let pick = |a: (u32, u32), b: Reach| if b.0 > a.0 { (b.0, b.1) } else { a };
            pick(pick(own, left[lo]), right[m_leaves - 1 - hi])
        });

        // Complete-pattern table: fingerprints of whole patterns.
        let mut whole: HashMap<(u64, u32), u32> = HashMap::with_capacity(dict.num_patterns());
        pram.ledger().round(dict.num_patterns() as u64);
        for t in 0..dict.num_patterns() {
            let (off, len) = (dict.offset(t), dict.pattern_len(t));
            let fp = st.hashes().substring(off, len);
            whole.entry((fp, len as u32)).or_insert(t as u32);
        }

        // Indicator per D̂ position, then segmented prefix max per pattern.
        let ind: Vec<(u32, u32, u32)> = pram.tabulate(d, |j| {
            let t = dict.pattern_of(j);
            let off = dict.offset(t);
            let l = (j - off + 1) as u32;
            let fp = st.hashes().substring(off, l as usize);
            match whole.get(&(fp, l)) {
                Some(&p) => (t as u32, l, p),
                None => (t as u32, 0, u32::MAX),
            }
        });
        let scanned = pram.scan_inclusive(&ind, (u32::MAX, 0, u32::MAX), |a, b| {
            // New segment resets; within a segment the larger length wins.
            if a.0 != b.0 || b.1 >= a.1 {
                b
            } else {
                a
            }
        });
        let f_len: Vec<u32> = pram.map(&scanned, |_, &(_, l, _)| l);
        let f_pat: Vec<u32> = pram.map(&scanned, |_, &(_, _, p)| p);

        Self {
            best_len: best.iter().map(|&(l, _)| l).collect(),
            best_cert: best.iter().map(|&(_, c)| c).collect(),
            f_len,
            f_pat,
        }
    }

    /// `B[i]`: longest pattern-prefix length for a substring locus, with
    /// its certificate pattern. O(1).
    pub(crate) fn pattern_prefix(&self, dict: &Dictionary, locus: Locus) -> Option<(u32, u32)> {
        if locus.len == 0 {
            return None;
        }
        let v = locus.below as usize;
        let b = self.best_len[v].min(locus.len);
        if b == 0 {
            return None;
        }
        let cert = self.best_cert[v];
        debug_assert_ne!(cert, u32::MAX);
        let t = dict.pattern_of(cert as usize) as u32;
        Some((b, t))
    }

    /// `M[i]`: the longest complete pattern from `B[i]` and its
    /// certificate. O(1).
    pub(crate) fn longest_pattern(&self, dict: &Dictionary, locus: Locus) -> Option<Match> {
        let (b, t) = self.pattern_prefix(dict, locus)?;
        let j = dict.offset(t as usize) + b as usize - 1;
        let len = self.f_len[j];
        if len == 0 {
            return None;
        }
        Some(Match {
            id: self.f_pat[j],
            len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsm::{substring_match, SubstringMatcher};
    use pardict_workloads::{random_dictionary, text_with_planted_matches, Alphabet};

    /// Oracle for B[i]: longest prefix of text[i..] that is a prefix of
    /// some pattern.
    fn oracle_b(dict: &Dictionary, text: &[u8], i: usize) -> usize {
        let mut best = 0;
        for p in dict.patterns() {
            let mut l = 0;
            while l < p.len() && i + l < text.len() && p[l] == text[i + l] {
                l += 1;
            }
            best = best.max(l);
        }
        best
    }

    /// Oracle for `best_len`: per node `g = min(maxcap, depth)` by a plain
    /// loop over its leaf range, then the best `g` on a parent walk.
    fn naive_best_len(dict: &Dictionary, st: &SuffixTree) -> Vec<u32> {
        let g: Vec<usize> = (0..st.num_nodes())
            .map(|u| {
                let (lo, hi) = st.leaf_range(u);
                let maxcap = (lo..=hi)
                    .map(|k| dict.cap(st.leaf_pos(k)))
                    .max()
                    .unwrap_or(0);
                maxcap.min(st.str_depth(u) - usize::from(st.is_leaf(u)))
            })
            .collect();
        (0..st.num_nodes())
            .map(|v| {
                let (mut u, mut best) = (v, g[v]);
                while u != st.root() {
                    u = st.parent(u);
                    best = best.max(g[u]);
                }
                best as u32
            })
            .collect()
    }

    #[test]
    fn root_path_maxima_match_a_parent_walk() {
        for (seed, alpha) in [(1u64, Alphabet::dna()), (2, Alphabet::lowercase())] {
            for k in [30usize, 400] {
                let mut pats = random_dictionary(seed + k as u64, k, 2, 12, alpha);
                // Duplicates, prefixes of other patterns, 1-byte patterns.
                pats.push(pats[0].clone());
                pats.push(pats[1][..2].to_vec());
                pats.push(pats[2][..1].to_vec());
                pats.push(vec![alpha.symbol(0)]);
                let dict = Dictionary::new(pats);
                let st = SuffixTree::build(&Pram::seq(), dict.dhat(), seed);
                let (tables, cost) = Pram::seq().metered(|p| Step2Tables::build(p, &dict, &st));
                let (par, par_cost) = Pram::par().metered(|p| Step2Tables::build(p, &dict, &st));
                assert_eq!(tables, par, "seq and par tables, k={k}");
                assert_eq!(cost, par_cost, "seq and par costs, k={k}");
                assert_eq!(tables.best_len, naive_best_len(&dict, &st), "k={k}");
                for v in 0..st.num_nodes() {
                    let (len, cert) = (tables.best_len[v] as usize, tables.best_cert[v]);
                    if len == 0 {
                        assert_eq!(cert, u32::MAX);
                        continue;
                    }
                    // The certificate starts a pattern that begins with σ(v)[..len].
                    let t = dict.pattern_of(cert as usize);
                    assert_eq!(dict.offset(t), cert as usize, "v={v}: not a pattern start");
                    let label = &st.padded()[st.label_pos(v)..st.label_pos(v) + len];
                    assert!(dict.patterns()[t].starts_with(label), "v={v}: certificate");
                }
            }
        }
    }

    #[test]
    fn pattern_prefix_matches_oracle() {
        for seed in 0..4u64 {
            let alpha = Alphabet::dna();
            let pram = Pram::seq();
            let dict = Dictionary::new(random_dictionary(seed, 12, 2, 9, alpha));
            let sub = SubstringMatcher::build(&pram, &dict, seed);
            let tables = Step2Tables::build(&pram, &dict, sub.tree());
            let text = text_with_planted_matches(seed + 9, dict.patterns(), 300, 30, alpha);
            let loci = substring_match(&pram, &sub, &text);
            for i in 0..text.len() {
                let want = oracle_b(&dict, &text, i);
                let got = tables
                    .pattern_prefix(&dict, loci[i])
                    .map_or(0, |(b, _)| b as usize);
                assert_eq!(got, want, "seed={seed} i={i}");
                if let Some((b, t)) = tables.pattern_prefix(&dict, loci[i]) {
                    // Certificate really has this prefix.
                    let p = &dict.patterns()[t as usize];
                    assert_eq!(&p[..b as usize], &text[i..i + b as usize]);
                }
            }
        }
    }
}
