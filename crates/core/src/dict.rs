//! Dictionary and match types.

/// A dictionary of patterns, stored concatenated (the paper's `D̂`).
///
/// No separators are inserted: Step 1 deliberately matches substrings of
/// `D̂` that may span pattern boundaries, and Step 2's *legal lengths*
/// account for the boundaries. Patterns must be non-empty and NUL-free.
#[derive(Debug, Clone)]
pub struct Dictionary {
    patterns: Vec<Vec<u8>>,
    /// Start offset of each pattern in `dhat`, plus a final `d` sentinel.
    offsets: Vec<usize>,
    dhat: Vec<u8>,
    /// For each `D̂` position, the index of the pattern containing it.
    pattern_of: Vec<u32>,
}

impl Dictionary {
    /// Build from patterns.
    ///
    /// # Panics
    /// Panics on an empty dictionary, an empty pattern, or a NUL byte.
    #[must_use]
    pub fn new(patterns: Vec<Vec<u8>>) -> Self {
        assert!(!patterns.is_empty(), "dictionary must not be empty");
        let mut offsets = Vec::with_capacity(patterns.len() + 1);
        let mut dhat = Vec::new();
        let mut pattern_of = Vec::new();
        for (t, p) in patterns.iter().enumerate() {
            assert!(!p.is_empty(), "pattern {t} is empty");
            assert!(p.iter().all(|&c| c != 0), "pattern {t} contains NUL");
            offsets.push(dhat.len());
            dhat.extend_from_slice(p);
            pattern_of.resize(dhat.len(), t as u32);
        }
        offsets.push(dhat.len());
        Self {
            patterns,
            offsets,
            dhat,
            pattern_of,
        }
    }

    /// The patterns.
    #[must_use]
    pub fn patterns(&self) -> &[Vec<u8>] {
        &self.patterns
    }

    /// Number of patterns (`k`).
    #[must_use]
    pub fn num_patterns(&self) -> usize {
        self.patterns.len()
    }

    /// Total size (`d`).
    #[must_use]
    pub fn total_len(&self) -> usize {
        self.dhat.len()
    }

    /// Length of the longest pattern (`m`).
    #[must_use]
    pub fn max_pattern_len(&self) -> usize {
        self.patterns.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The concatenation `D̂`.
    #[must_use]
    pub fn dhat(&self) -> &[u8] {
        &self.dhat
    }

    /// Start offset of pattern `t` in `D̂`.
    #[must_use]
    pub fn offset(&self, t: usize) -> usize {
        self.offsets[t]
    }

    /// Length of pattern `t`.
    #[must_use]
    pub fn pattern_len(&self, t: usize) -> usize {
        self.offsets[t + 1] - self.offsets[t]
    }

    /// Index of the pattern containing `D̂` position `j`.
    #[must_use]
    pub fn pattern_of(&self, j: usize) -> usize {
        self.pattern_of[j] as usize
    }

    /// True when `j` is the start of a pattern.
    #[must_use]
    pub fn is_pattern_start(&self, j: usize) -> bool {
        j < self.dhat.len() && self.offsets[self.pattern_of(j)] == j
    }

    /// The *cap* of `D̂` position `j`: the pattern length when `j` starts a
    /// pattern, else 0. A suffix-tree node is a dictionary prefix iff some
    /// leaf below it has cap at least the node's depth.
    #[must_use]
    pub fn cap(&self, j: usize) -> usize {
        if self.is_pattern_start(j) {
            self.pattern_len(self.pattern_of(j))
        } else {
            0
        }
    }
}

/// A single match: pattern `id` of length `len` occurring at the queried
/// position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match {
    /// Pattern index in the dictionary.
    pub id: u32,
    /// Pattern length (redundant with `id`, kept for O(1) access).
    pub len: u32,
}

/// One pattern occurrence: pattern `id`, of length `len`, starting at text
/// position `pos`. Its order is the canonical order of every occurrence
/// list — position, then decreasing length, then id — the order
/// [`crate::AhoCorasick::find_all`] reports in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hit {
    /// Byte offset of the occurrence in the text.
    pub pos: u64,
    /// Pattern index in the dictionary.
    pub id: u32,
    /// Pattern length.
    pub len: u32,
}

impl Hit {
    /// The occurrence of `m` starting at `pos`.
    #[must_use]
    pub fn at(pos: u64, m: Match) -> Self {
        Self {
            pos,
            id: m.id,
            len: m.len,
        }
    }
}

impl Ord for Hit {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.pos
            .cmp(&other.pos)
            .then(other.len.cmp(&self.len))
            .then(self.id.cmp(&other.id))
    }
}

impl PartialOrd for Hit {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Append the next piece's hits to `hits`, both lists in canonical order,
/// keeping `hits` in canonical order. Consecutive pieces of a text each
/// report the hits *ending* in them, so a piece's first hits may start
/// before hits an earlier piece reported; only the earlier hits from the
/// piece's first one on are merged, so the cost is the piece's hits plus
/// that overlap, not a sort.
pub fn append_in_order(hits: &mut Vec<Hit>, piece: Vec<Hit>) {
    debug_assert!(
        piece.windows(2).all(|w| w[0] < w[1]),
        "a piece's hits come in canonical order"
    );
    let Some(first) = piece.first() else {
        return;
    };
    let at = hits.partition_point(|h| h < first);
    let earlier: Vec<Hit> = hits.drain(at..).collect();
    hits.reserve(earlier.len() + piece.len());
    let mut piece = piece.into_iter().peekable();
    for e in earlier {
        while let Some(h) = piece.next_if(|h| *h < e) {
            hits.push(h);
        }
        hits.push(e);
    }
    hits.extend(piece);
}

/// Per-position matching output: `get(i)` is the longest pattern occurring
/// at text position `i`, if any (the paper's `M[i]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matches {
    pub(crate) inner: Vec<Option<Match>>,
}

impl Matches {
    /// Wrap a per-position vector.
    #[must_use]
    pub fn new(inner: Vec<Option<Match>>) -> Self {
        Self { inner }
    }

    /// Match at position `i`.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<Match> {
        self.inner[i]
    }

    /// Text length covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True for an empty text.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Iterate `(position, match)` over positions with a match.
    pub fn iter_hits(&self) -> impl Iterator<Item = (usize, Match)> + '_ {
        self.inner
            .iter()
            .enumerate()
            .filter_map(|(i, m)| m.map(|mm| (i, mm)))
    }

    /// Raw per-position access.
    #[must_use]
    pub fn as_slice(&self) -> &[Option<Match>] {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{brute_force_occurrences, AhoCorasick};
    use pardict_workloads::{random_dictionary, text_with_planted_matches, Alphabet};
    use proptest::prelude::*;

    #[test]
    fn offsets_and_caps() {
        let d = Dictionary::new(vec![b"abc".to_vec(), b"de".to_vec(), b"abcd".to_vec()]);
        assert_eq!(d.num_patterns(), 3);
        assert_eq!(d.total_len(), 9);
        assert_eq!(d.dhat(), b"abcdeabcd");
        assert_eq!(d.offset(1), 3);
        assert_eq!(d.pattern_len(1), 2);
        assert_eq!(d.max_pattern_len(), 4);
        assert!(d.is_pattern_start(0));
        assert!(d.is_pattern_start(3));
        assert!(d.is_pattern_start(5));
        assert!(!d.is_pattern_start(1));
        assert_eq!(d.cap(0), 3);
        assert_eq!(d.cap(5), 4);
        assert_eq!(d.cap(6), 0);
        assert_eq!(d.pattern_of(4), 1);
        assert_eq!(d.pattern_of(8), 2);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn rejects_empty_pattern() {
        let _ = Dictionary::new(vec![b"a".to_vec(), Vec::new()]);
    }

    #[test]
    #[should_panic(expected = "NUL")]
    fn rejects_nul() {
        let _ = Dictionary::new(vec![vec![0u8]]);
    }

    #[test]
    fn matches_container() {
        let m = Matches::new(vec![None, Some(Match { id: 1, len: 3 }), None]);
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(1).unwrap().id, 1);
        assert_eq!(m.iter_hits().count(), 1);
    }

    fn hits_of(occurrences: Vec<(usize, Match)>, base: usize) -> Vec<Hit> {
        occurrences
            .into_iter()
            .map(|(pos, m)| Hit::at((base + pos) as u64, m))
            .collect()
    }

    #[test]
    fn brute_force_occurrences_come_in_hit_order() {
        for seed in 0..6u64 {
            let alpha = Alphabet::dna();
            let mut patterns = random_dictionary(seed, 30, 1, 9, alpha);
            patterns.extend_from_within(3..8);
            let d = Dictionary::new(patterns);
            let text = text_with_planted_matches(seed, d.patterns(), 700, 25, alpha);
            let hits = hits_of(brute_force_occurrences(&d, &text), 0);
            assert!(hits.len() > 100, "seed={seed}: {} hits", hits.len());
            assert!(hits.windows(2).all(|w| w[0] < w[1]), "seed={seed}");
        }
    }

    proptest! {
        /// Cut a text anywhere: each piece reports the hits that end in it
        /// (scanning the piece plus the overlap before it), and appending
        /// the pieces in order gives exactly the whole text's list.
        #[test]
        fn append_in_order_is_order_exact_on_any_cut(
            patterns in prop::collection::vec(
                prop::collection::vec(prop::sample::select(vec![b'a', b'b', b'c']), 1..7),
                1..8,
            ),
            text in prop::collection::vec(prop::sample::select(vec![b'a', b'b', b'c']), 0..200),
            cuts in prop::collection::vec(0usize..200, 0..8),
        ) {
            let d = Dictionary::new(patterns);
            let overlap = d.max_pattern_len() - 1;
            let ac = AhoCorasick::build(&d);
            let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (text.len() + 1)).collect();
            bounds.extend([0, text.len()]);
            bounds.sort_unstable();
            bounds.dedup();
            let mut merged = Vec::new();
            for w in bounds.windows(2) {
                let (lo, hi) = (w[0], w[1]);
                let from = lo.saturating_sub(overlap);
                let mut piece = hits_of(ac.find_all(&text[from..hi]), from);
                piece.retain(|h| h.pos + u64::from(h.len) > lo as u64);
                append_in_order(&mut merged, piece);
            }
            prop_assert_eq!(merged, hits_of(ac.find_all(&text), 0));
        }
    }
}
