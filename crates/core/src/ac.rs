//! Aho–Corasick: the classical sequential dictionary matcher [AC75].
//!
//! The paper's historical baseline ("linear time, hence optimal…
//! inherently sequential"). Serves three roles here: the sequential
//! performance baseline in the benches, the exact oracle that every
//! parallel result is tested against, and the reference implementation of
//! the problem statement itself (longest pattern at each position).
//!
//! Transitions run over byte classes, as Theorem 3.2 renames a large
//! alphabet to the symbols the dictionary uses: each of the `k` distinct
//! pattern bytes is its own class, numbered from 1 in byte order, and every
//! other byte is class 0. No pattern holds a class-0 byte, so no
//! occurrence spans one, and class 0 leads every state to the root. A
//! state's row holds `k + 1` transitions (DNA 5, lowercase 27), not 256,
//! so the build takes `O(d · (k + 1))` time and space for `d` dictionary
//! bytes.

use crate::dict::{Dictionary, Match, Matches};

/// Aho–Corasick automaton (goto/fail/output) over byte classes: one flat
/// row of `k + 1` transitions per state, class 0 leading to the root (see
/// the module docs); built in `O(d · (k + 1))`.
#[derive(Debug)]
pub struct AhoCorasick {
    /// Byte → class: `1..=k` for the pattern bytes, 0 for the rest.
    /// Patterns are NUL-free, so `k ≤ 255` and a class fits a byte.
    class: [u8; 256],
    /// Row length `k + 1`.
    stride: usize,
    /// `goto_[state · stride + class]`, completed by the BFS.
    goto_: Vec<u32>,
    /// Longest pattern ending at this state (id, len), if any — following
    /// output links is pre-collapsed into a single "deepest output" entry.
    out: Vec<Option<Match>>,
    /// Output link: deepest proper suffix state with an output.
    out_link: Vec<u32>,
    /// Duplicate chain: the next larger id of an identical pattern, or
    /// [`NONE`]. `out` holds each chain's head.
    dup_next: Vec<u32>,
    /// Occurrences that end on entering each state: its output chain's
    /// patterns, duplicates included. Sizes `find_all`'s output.
    hits: Vec<u32>,
    /// Trie depth of each state: the length of the string it spells.
    depth: Vec<u32>,
    /// Certificate of each state: the smallest id of a pattern through it,
    /// which is the pattern that created it, as patterns insert in id order.
    cert: Vec<u32>,
    /// Length of the longest pattern.
    max_len: usize,
    /// Ledger ops of the build: `d` trie inserts plus `states · (k + 1)`
    /// completed transitions.
    build_ops: u64,
}

const ROOT: u32 = 0;
const NONE: u32 = u32::MAX;

impl AhoCorasick {
    /// Build the automaton in `O(d · (k + 1))` time, `k` the number of
    /// distinct pattern bytes.
    #[must_use]
    pub fn build(dict: &Dictionary) -> Self {
        let mut class = [0u8; 256];
        for &c in dict.dhat() {
            class[c as usize] = 1;
        }
        let mut k = 0u8;
        for c in class.iter_mut().filter(|c| **c != 0) {
            k += 1;
            *c = k;
        }
        let stride = usize::from(k) + 1;
        let mut goto_ = vec![NONE; stride];
        let mut out: Vec<Option<Match>> = vec![None];
        let mut own: Vec<u32> = vec![0];
        let mut depth: Vec<u32> = vec![0];
        let mut cert: Vec<u32> = vec![NONE];
        let mut dup_next = vec![NONE; dict.num_patterns()];
        // Last id of each state's duplicate chain, while the trie grows.
        let mut dup_tail: Vec<u32> = vec![NONE];

        // Trie phase.
        for (t, p) in dict.patterns().iter().enumerate() {
            let mut s = ROOT;
            for &c in p {
                let at = s as usize * stride + usize::from(class[c as usize]);
                s = if goto_[at] == NONE {
                    let ns = out.len() as u32;
                    goto_.resize(goto_.len() + stride, NONE);
                    out.push(None);
                    own.push(0);
                    depth.push(depth[s as usize] + 1);
                    cert.push(t as u32);
                    dup_tail.push(NONE);
                    goto_[at] = ns;
                    ns
                } else {
                    goto_[at]
                };
            }
            let m = Match {
                id: t as u32,
                len: p.len() as u32,
            };
            // Identical patterns share a state: the smallest id answers,
            // the rest chain behind it in increasing order.
            match dup_tail[s as usize] {
                NONE => out[s as usize] = Some(m),
                last => dup_next[last as usize] = m.id,
            }
            dup_tail[s as usize] = m.id;
            own[s as usize] += 1;
        }

        // BFS phase: fail links, completed goto, output links, hit counts.
        let n = out.len();
        let mut fail = vec![ROOT; n];
        let mut out_link = vec![ROOT; n];
        let mut hits = own;
        let mut queue = std::collections::VecDeque::new();
        for t in &mut goto_[..stride] {
            if *t == NONE {
                *t = ROOT;
            } else {
                queue.push_back(*t);
            }
        }
        while let Some(s) = queue.pop_front() {
            let (s, f) = (s as usize, fail[s as usize] as usize);
            out_link[s] = if out[f].is_some() {
                f as u32
            } else {
                out_link[f]
            };
            hits[s] += hits[out_link[s] as usize];
            for c in 0..stride {
                let t = goto_[s * stride + c];
                let via_fail = goto_[f * stride + c];
                if t == NONE {
                    goto_[s * stride + c] = via_fail;
                } else {
                    fail[t as usize] = via_fail;
                    queue.push_back(t);
                }
            }
        }

        Self {
            class,
            stride,
            goto_,
            out,
            out_link,
            dup_next,
            hits,
            depth,
            cert,
            max_len: dict.max_pattern_len(),
            build_ops: (dict.total_len() + n * stride) as u64,
        }
    }

    /// Ledger ops of the build: `d` trie inserts plus `states · (k + 1)`
    /// completed transitions. The build is sequential, so this is its work
    /// and its depth.
    #[must_use]
    pub(crate) fn build_ops(&self) -> u64 {
        self.build_ops
    }

    /// Bytes the automaton's tables hold (lengths, not capacities), its
    /// own struct included.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        // A state holds a row, an `out` entry and four `u32`s: its output
        // link, hit count, depth and certificate.
        let per_state = 4 * (self.stride + 4) + std::mem::size_of::<Option<Match>>();
        std::mem::size_of::<Self>() + per_state * self.out.len() + 4 * self.dup_next.len()
    }

    /// The state after reading byte `c` in state `s`.
    #[inline]
    fn next(&self, s: u32, c: u8) -> u32 {
        self.goto_[s as usize * self.stride + usize::from(self.class[c as usize])]
    }

    /// Longest pattern occurring at every text position (the problem's
    /// `M[i]`). Sequential; `O(n + occ)` where `occ` is the number of
    /// pattern occurrences enumerated through output links.
    #[must_use]
    pub fn match_text(&self, text: &[u8]) -> Matches {
        let n = text.len();
        let mut best: Vec<Option<Match>> = vec![None; n];
        let mut s = ROOT;
        for (e, &c) in text.iter().enumerate() {
            s = self.next(s, c);
            // Enumerate all patterns ending at e via the output chain.
            let mut v = s;
            while v != ROOT {
                if let Some(m) = self.out[v as usize] {
                    let start = e + 1 - m.len as usize;
                    if best[start].is_none_or(|b| b.len < m.len) {
                        best[start] = Some(m);
                    }
                }
                v = self.out_link[v as usize];
            }
        }
        Matches::new(best)
    }

    /// Every pattern occurrence as `(start, match)`, ordered by start, then
    /// decreasing length, then id; identical patterns are each reported.
    /// Sequential, `O(n + occ)`, and no comparison sort: occurrences are
    /// found by end position, so each start collects them in a ring of
    /// buckets (in increasing length, one per end) and is emitted, longest
    /// first, once no later end can reach it. A first pass counts the
    /// occurrences, so the output is allocated once.
    #[must_use]
    pub fn find_all(&self, text: &[u8]) -> Vec<(usize, Match)> {
        let n = text.len();
        // At least `max_pattern_len` buckets, and a power of two, so a
        // bucket index is a mask, not a division.
        let mask = self.max_len.min(n).max(1).next_power_of_two() - 1;
        let mut starts: Vec<Vec<Match>> = vec![Vec::new(); mask + 1];
        let total = self.count(text);
        let mut out = Vec::with_capacity(total);
        let mut s = ROOT;
        for (e, &c) in text.iter().enumerate() {
            s = self.next(s, c);
            let mut v = s;
            while v != ROOT {
                if let Some(m) = self.out[v as usize] {
                    starts[(e + 1 - m.len as usize) & mask].push(m);
                }
                v = self.out_link[v as usize];
            }
            if let Some(done) = (e + 1).checked_sub(self.max_len) {
                self.emit(done, &mut starts[done & mask], &mut out);
            }
        }
        for done in n.saturating_sub(self.max_len - 1)..n {
            self.emit(done, &mut starts[done & mask], &mut out);
        }
        debug_assert_eq!(out.len(), total);
        out
    }

    /// §5's claim table in one scan: the state after end `j` is the longest
    /// trie node ending there, so `a_j = j + 1 − depth` is the smallest start
    /// of one, and `R[a_j]` is its `(len, certificate)`; `a_j` never
    /// decreases, so the last end naming a start is its longest. Every claim
    /// occurs, and `x + R[x]` has the prefix maxima of `x + M[x]`, `M` the
    /// longest pattern prefix at each position. Sequential, `n` steps.
    #[must_use]
    pub fn reach_table(&self, text: &[u8]) -> Vec<Option<(u32, u32)>> {
        let mut reach = vec![None; text.len()];
        let mut s = ROOT;
        for (j, &c) in text.iter().enumerate() {
            s = self.next(s, c);
            let len = self.depth[s as usize];
            if len > 0 {
                reach[j + 1 - len as usize] = Some((len, self.cert[s as usize]));
            }
        }
        reach
    }

    /// The longest trie node starting at `start` (§5's `M[start]`, the
    /// longest pattern prefix there) as `(len, certificate)`, by walking
    /// trie edges only: a transition is a trie edge exactly when it goes
    /// one level deeper. Reads `len + 1` bytes, or up to the text's end.
    #[must_use]
    pub fn longest_prefix_at(&self, text: &[u8], start: usize) -> Option<(u32, u32)> {
        let mut s = ROOT;
        for &c in &text[start..] {
            let t = self.next(s, c);
            if self.depth[t as usize] != self.depth[s as usize] + 1 {
                break;
            }
            s = t;
        }
        (s != ROOT).then(|| (self.depth[s as usize], self.cert[s as usize]))
    }

    /// Number of occurrences [`AhoCorasick::find_all`] reports in `text`.
    /// The two halves are scanned side by side, so their transition chains
    /// overlap. A state spells at most `max_pattern_len` bytes, so starting
    /// the second half's chain `max_pattern_len − 1` bytes early, at the
    /// root, gives the exact state after each of its bytes.
    fn count(&self, text: &[u8]) -> usize {
        let (a, b) = text.split_at(text.len() / 2);
        let mut sb = ROOT;
        for &c in &a[a.len().saturating_sub(self.max_len - 1)..] {
            sb = self.next(sb, c);
        }
        let mut sa = ROOT;
        let mut total = 0;
        for (&ca, &cb) in a.iter().zip(b) {
            sa = self.next(sa, ca);
            sb = self.next(sb, cb);
            total += self.hits[sa as usize] as usize + self.hits[sb as usize] as usize;
        }
        if let Some(&c) = b.get(a.len()) {
            total += self.hits[self.next(sb, c) as usize] as usize;
        }
        total
    }

    /// Emit the occurrences starting at `start`, gathered in `bucket` in
    /// increasing length, longest first, each duplicate group in id order.
    fn emit(&self, start: usize, bucket: &mut Vec<Match>, out: &mut Vec<(usize, Match)>) {
        for &Match { mut id, len } in bucket.iter().rev() {
            while id != NONE {
                out.push((start, Match { id, len }));
                id = self.dup_next[id as usize];
            }
        }
        bucket.clear();
    }
}

/// Brute-force oracle: longest pattern at each position by direct
/// comparison. `O(n · k · m)` — tests only.
#[must_use]
pub fn brute_force_matches(dict: &Dictionary, text: &[u8]) -> Matches {
    let n = text.len();
    let mut best: Vec<Option<Match>> = vec![None; n];
    for i in 0..n {
        for (t, p) in dict.patterns().iter().enumerate() {
            if i + p.len() <= n && &text[i..i + p.len()] == p.as_slice() {
                let m = Match {
                    id: t as u32,
                    len: p.len() as u32,
                };
                if best[i].is_none_or(|b| {
                    (b.len, std::cmp::Reverse(b.id)) < (m.len, std::cmp::Reverse(m.id))
                }) {
                    best[i] = Some(m);
                }
            }
        }
    }
    Matches::new(best)
}

/// Brute-force oracle: every occurrence as `(start, match)` in
/// [`AhoCorasick::find_all`]'s order (start, then decreasing length, then
/// id), by direct comparison. `O(n · k · m)` — tests only.
#[must_use]
pub fn brute_force_occurrences(dict: &Dictionary, text: &[u8]) -> Vec<(usize, Match)> {
    let mut out = Vec::new();
    for i in 0..text.len() {
        let at = out.len();
        for (t, p) in dict.patterns().iter().enumerate() {
            if text[i..].starts_with(p) {
                out.push((
                    i,
                    Match {
                        id: t as u32,
                        len: p.len() as u32,
                    },
                ));
            }
        }
        out[at..].sort_by_key(|&(_, m)| (std::cmp::Reverse(m.len), m.id));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardict_workloads::{random_dictionary, text_with_planted_matches, Alphabet};
    use proptest::prelude::*;

    fn lens(m: &Matches) -> Vec<Option<u32>> {
        m.as_slice().iter().map(|o| o.map(|mm| mm.len)).collect()
    }

    #[test]
    fn simple_overlapping_patterns() {
        let d = Dictionary::new(vec![b"he".to_vec(), b"she".to_vec(), b"hers".to_vec()]);
        let ac = AhoCorasick::build(&d);
        let m = ac.match_text(b"ushers");
        // "she" at 1, "hers" at 2 ("he" at 2 is shorter).
        assert_eq!(m.get(1), Some(Match { id: 1, len: 3 }));
        assert_eq!(m.get(2), Some(Match { id: 2, len: 4 }));
        assert_eq!(m.get(0), None);
        assert_eq!(lens(&m), lens(&brute_force_matches(&d, b"ushers")));
    }

    #[test]
    fn longest_wins_at_same_start() {
        let d = Dictionary::new(vec![b"a".to_vec(), b"ab".to_vec(), b"abc".to_vec()]);
        let ac = AhoCorasick::build(&d);
        let m = ac.match_text(b"abcab");
        assert_eq!(m.get(0).unwrap().len, 3);
        assert_eq!(m.get(3).unwrap().len, 2);
        assert_eq!(m.get(1), None);
        assert_eq!(m.get(4), None);
    }

    #[test]
    fn no_matches() {
        let d = Dictionary::new(vec![b"xyz".to_vec()]);
        let ac = AhoCorasick::build(&d);
        let m = ac.match_text(b"aaaa");
        assert!(m.iter_hits().next().is_none());
    }

    #[test]
    fn matches_brute_force_on_random_inputs() {
        for seed in 0..5u64 {
            let alpha = Alphabet::dna();
            let dict = random_dictionary(seed, 20, 1, 6, alpha);
            let d = Dictionary::new(dict);
            let text = text_with_planted_matches(seed + 100, d.patterns(), 500, 25, alpha);
            let ac = AhoCorasick::build(&d);
            assert_eq!(
                lens(&ac.match_text(&text)),
                lens(&brute_force_matches(&d, &text)),
                "seed={seed}"
            );
        }
    }

    #[test]
    fn empty_text() {
        let d = Dictionary::new(vec![b"a".to_vec()]);
        let ac = AhoCorasick::build(&d);
        assert!(ac.match_text(b"").is_empty());
        assert!(ac.find_all(b"").is_empty());
    }

    #[test]
    fn find_all_reports_every_duplicate_longest_first() {
        let d = Dictionary::new(vec![
            b"ab".to_vec(),
            b"b".to_vec(),
            b"ab".to_vec(),
            b"bab".to_vec(),
            b"ab".to_vec(),
        ]);
        let ac = AhoCorasick::build(&d);
        let m = |id, len| Match { id, len };
        assert_eq!(
            ac.find_all(b"abab"),
            vec![
                (0, m(0, 2)),
                (0, m(2, 2)),
                (0, m(4, 2)),
                (1, m(3, 3)),
                (1, m(1, 1)),
                (2, m(0, 2)),
                (2, m(2, 2)),
                (2, m(4, 2)),
                (3, m(1, 1)),
            ]
        );
        // The per-position answer still keeps the smallest id.
        assert_eq!(ac.match_text(b"ab").get(0), Some(m(0, 2)));
    }

    #[test]
    fn find_all_equals_brute_force_on_random_inputs() {
        for seed in 0..6u64 {
            let alpha = Alphabet::dna();
            let mut patterns = random_dictionary(seed, 30, 1, 9, alpha);
            patterns.extend_from_within(3..8);
            let d = Dictionary::new(patterns);
            for n in [0, 1, 5, 8, 700] {
                let text = text_with_planted_matches(seed + n as u64, d.patterns(), n, 25, alpha);
                let ac = AhoCorasick::build(&d);
                assert_eq!(
                    ac.find_all(&text),
                    brute_force_occurrences(&d, &text),
                    "seed={seed} n={n}"
                );
            }
        }
    }

    #[test]
    fn rows_hold_one_entry_per_pattern_byte_plus_class_zero() {
        for (alpha, stride) in [(Alphabet::dna(), 5), (Alphabet::lowercase(), 27)] {
            let d = Dictionary::new(random_dictionary(1, 4000, 4, 12, alpha));
            let ac = AhoCorasick::build(&d);
            assert_eq!(ac.stride, stride);
            assert_eq!(ac.goto_.len(), ac.out.len() * stride);
            assert_eq!(ac.build_ops, (d.total_len() + ac.goto_.len()) as u64);
        }
    }

    #[test]
    fn every_nul_free_byte_gets_its_own_class() {
        let mut patterns: Vec<Vec<u8>> = (1..=255u8).map(|c| vec![c]).collect();
        patterns.extend([vec![0xFF, 0x01, 0xFF], vec![0x80, 0x7F], vec![0xFF, 0x01]]);
        let d = Dictionary::new(patterns);
        let ac = AhoCorasick::build(&d);
        assert_eq!(ac.stride, 256);
        assert_eq!(ac.class[0], 0);
        assert!((1..=255u8).all(|c| ac.class[c as usize] == c));
        let text: Vec<u8> = (0..=255u8)
            .chain([0xFF, 0x01, 0xFF, 0, 0x80, 0x7F])
            .collect();
        assert_eq!(ac.match_text(&text), brute_force_matches(&d, &text));
        assert_eq!(ac.find_all(&text), brute_force_occurrences(&d, &text));
    }

    /// §5's `M`, the longest pattern prefix at each position as `(len,
    /// smallest id of a pattern with that prefix)`, by direct comparison.
    fn brute_force_prefixes(dict: &Dictionary, text: &[u8]) -> Vec<Option<(u32, u32)>> {
        let common =
            |i: usize, p: &[u8]| p.iter().zip(&text[i..]).take_while(|(a, b)| a == b).count();
        let best = |i| {
            dict.patterns()
                .iter()
                .map(|p| common(i, p))
                .enumerate()
                .max_by_key(|&(t, len)| (len, std::cmp::Reverse(t)))
        };
        (0..text.len())
            .map(|i| {
                best(i)
                    .filter(|&(_, len)| len > 0)
                    .map(|(t, len)| (len as u32, t as u32))
            })
            .collect()
    }

    /// Prefix maxima of `x + claim[x]`, `claim` a §5 claim table.
    fn prefix_max_reach(claims: &[Option<(u32, u32)>]) -> Vec<usize> {
        let mut best = 0;
        let reach = |(x, c): (usize, &Option<(u32, u32)>)| x + c.map_or(0, |(l, _)| l as usize);
        claims
            .iter()
            .enumerate()
            .map(|xc| {
                best = best.max(reach(xc));
                best
            })
            .collect()
    }

    #[test]
    fn a_periodic_text_reaches_as_far_as_its_prefix_table() {
        let d = Dictionary::new(vec![b"a".to_vec(), b"a".repeat(64)]);
        let ac = AhoCorasick::build(&d);
        let text = b"a".repeat(200);
        let reach = ac.reach_table(&text);
        let m = brute_force_prefixes(&d, &text);
        assert_eq!(reach[0], Some((64, 1)));
        assert_eq!(reach[136], Some((64, 1)));
        assert_eq!(reach[137], None);
        assert_eq!(m[137], Some((63, 1)));
        assert_eq!(prefix_max_reach(&reach), prefix_max_reach(&m));
        assert_eq!(ac.longest_prefix_at(&text, 150), Some((50, 1)));
        assert_eq!(ac.longest_prefix_at(&text, 0), Some((64, 1)));
        assert_eq!(ac.longest_prefix_at(b"ab", 1), None);
    }

    proptest! {
        /// The reach table has `M`'s prefix maxima and claims only what
        /// occurs, and the trie walk from any start is `M` there, on
        /// prefix-heavy dictionaries with duplicates over σ ≤ 3.
        #[test]
        fn reach_table_and_trie_walk_agree_with_brute_force_prefixes(
            shapes in prop::collection::vec(prop::collection::vec(0u8..3, 1..7), 1..6),
            dup in 0usize..6,
            text in prop::collection::vec(0u8..4, 0..40),
        ) {
            let mut patterns: Vec<Vec<u8>> =
                shapes.iter().map(|p| p.iter().map(|&c| b'a' + c).collect()).collect();
            patterns.push(patterns[dup % patterns.len()].clone());
            let text: Vec<u8> = text.iter().map(|&c| b'a' + c).collect();
            let d = Dictionary::new(patterns);
            let ac = AhoCorasick::build(&d);
            let m = brute_force_prefixes(&d, &text);
            let reach = ac.reach_table(&text);
            prop_assert_eq!(prefix_max_reach(&reach), prefix_max_reach(&m));
            for (x, claim) in reach.iter().enumerate() {
                if let Some((len, id)) = *claim {
                    let p = &d.patterns()[id as usize];
                    prop_assert!(text[x..].starts_with(&p[..len as usize]));
                }
            }
            for (x, &want) in m.iter().enumerate() {
                prop_assert_eq!(ac.longest_prefix_at(&text, x), want);
            }
        }

        /// Patterns over a few bytes anywhere in 1..=255 (one of them at
        /// least 0x80); texts mix those with NUL and one arbitrary byte,
        /// which a pattern may or may not use.
        #[test]
        fn class_automaton_equals_brute_force_on_any_bytes(
            mut palette in prop::collection::vec(1u8..=255, 1..6),
            high in 0x80u8..=0xFF,
            foreign in any::<u8>(),
            shapes in prop::collection::vec(prop::collection::vec(0usize..8, 1..6), 1..10),
            text_shape in prop::collection::vec(0usize..10, 0..300),
        ) {
            palette.push(high);
            let pick = |i: usize| palette[i % palette.len()];
            let patterns = shapes.iter().map(|p| p.iter().map(|&i| pick(i)).collect()).collect();
            let text: Vec<u8> = text_shape
                .iter()
                .map(|&i| match i {
                    8 => 0,
                    9 => foreign,
                    _ => pick(i),
                })
                .collect();
            let d = Dictionary::new(patterns);
            let ac = AhoCorasick::build(&d);
            prop_assert_eq!(ac.match_text(&text), brute_force_matches(&d, &text));
            prop_assert_eq!(ac.find_all(&text), brute_force_occurrences(&d, &text));
        }
    }
}
