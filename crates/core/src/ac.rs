//! Aho–Corasick: the classical sequential dictionary matcher [AC75].
//!
//! The paper's historical baseline ("linear time, hence optimal…
//! inherently sequential"). Serves three roles here: the sequential
//! performance baseline in the benches, the exact oracle that every
//! parallel result is tested against, and the reference implementation of
//! the problem statement itself (longest pattern at each position).

use crate::dict::{Dictionary, Match, Matches};

/// Aho–Corasick automaton (goto/fail/output).
#[derive(Debug)]
pub struct AhoCorasick {
    /// goto[state][byte] — dense transition table after BFS completion.
    goto_: Vec<[u32; 256]>,
    /// Longest pattern ending at this state (id, len), if any — following
    /// output links is pre-collapsed into a single "deepest output" entry.
    out: Vec<Option<Match>>,
    /// Output link: deepest proper suffix state with an output.
    out_link: Vec<u32>,
    /// Duplicate chain: the next larger id of an identical pattern, or
    /// [`NONE`]. `out` holds each chain's head.
    dup_next: Vec<u32>,
    /// Length of the longest pattern.
    max_len: usize,
}

const ROOT: u32 = 0;
const NONE: u32 = u32::MAX;

impl AhoCorasick {
    /// Build the automaton in `O(d · σ)` time (dense tables).
    #[must_use]
    #[allow(clippy::needless_range_loop)] // byte values double as table indices
    pub fn build(dict: &Dictionary) -> Self {
        let mut goto_: Vec<[u32; 256]> = vec![[u32::MAX; 256]];
        let mut out: Vec<Option<Match>> = vec![None];
        let mut depth: Vec<u32> = vec![0];
        let mut dup_next = vec![NONE; dict.num_patterns()];
        // Last id of each state's duplicate chain, while the trie grows.
        let mut dup_tail: Vec<u32> = vec![NONE];

        // Trie phase.
        for (t, p) in dict.patterns().iter().enumerate() {
            let mut s = ROOT;
            for &c in p {
                let nxt = goto_[s as usize][c as usize];
                s = if nxt == u32::MAX {
                    goto_.push([u32::MAX; 256]);
                    out.push(None);
                    dup_tail.push(NONE);
                    depth.push(depth[s as usize] + 1);
                    let ns = (goto_.len() - 1) as u32;
                    goto_[s as usize][c as usize] = ns;
                    ns
                } else {
                    nxt
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
        }

        // BFS phase: fail links, completed goto, output links.
        let n = goto_.len();
        let mut fail = vec![ROOT; n];
        let mut out_link = vec![ROOT; n];
        let mut queue = std::collections::VecDeque::new();
        for c in 0..256 {
            let s = goto_[ROOT as usize][c];
            if s == u32::MAX {
                goto_[ROOT as usize][c] = ROOT;
            } else {
                fail[s as usize] = ROOT;
                queue.push_back(s);
            }
        }
        while let Some(s) = queue.pop_front() {
            let f = fail[s as usize];
            out_link[s as usize] = if out[f as usize].is_some() {
                f
            } else {
                out_link[f as usize]
            };
            for c in 0..256 {
                let t = goto_[s as usize][c];
                if t == u32::MAX {
                    goto_[s as usize][c] = goto_[f as usize][c];
                } else {
                    fail[t as usize] = goto_[f as usize][c];
                    queue.push_back(t);
                }
            }
        }

        Self {
            goto_,
            out,
            out_link,
            dup_next,
            max_len: dict.max_pattern_len(),
        }
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
            s = self.goto_[s as usize][c as usize];
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
    /// `max_pattern_len` buckets (in increasing length, one per end) and
    /// is emitted, longest first, once no later end can reach it.
    #[must_use]
    pub fn find_all(&self, text: &[u8]) -> Vec<(usize, Match)> {
        let n = text.len();
        let ring = self.max_len.min(n).max(1);
        let mut starts: Vec<Vec<Match>> = vec![Vec::new(); ring];
        let mut out = Vec::new();
        let mut s = ROOT;
        for (e, &c) in text.iter().enumerate() {
            s = self.goto_[s as usize][c as usize];
            let mut v = s;
            while v != ROOT {
                if let Some(m) = self.out[v as usize] {
                    starts[(e + 1 - m.len as usize) % ring].push(m);
                }
                v = self.out_link[v as usize];
            }
            if let Some(done) = (e + 1).checked_sub(self.max_len) {
                self.emit(done, &mut starts[done % ring], &mut out);
            }
        }
        for done in n.saturating_sub(self.max_len - 1)..n {
            self.emit(done, &mut starts[done % ring], &mut out);
        }
        out
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
}
