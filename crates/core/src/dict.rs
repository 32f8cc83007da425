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
}
