//! Incremental dictionary updates via canonical segmentation.
//!
//! The paper's amortization — preprocess once in `O(d)`, match many — is
//! only as good as the dictionary's stability: one inserted or retired
//! pattern should not cost a full `O(d)` re-preprocessing. The dynamic
//! dictionary-matching line (Amir–Farach adaptive matching, and the
//! small-space multiple-pattern matching of arXiv:1504.06647) prices an
//! update proportional to the patterns touched. This module provides that
//! with a twist the serving layer needs: **rebuild equivalence**.
//!
//! The pattern list is cut into *content-defined segments* — a boundary
//! falls after pattern `p` whenever a mixed hash of `p` hits a fixed
//! residue (expected segment size [`SEGMENT_TARGET`], hard cap
//! [`SEGMENT_CAP`]), so segment boundaries are a pure function of the
//! final pattern list, never of the edit history. Each segment carries its
//! own [`DictMatcher`], seeded from the segment's own content hash.
//! Consequently `build(final)` and `apply_delta(parent, delta)` converge to
//! structurally *identical* matchers: an applied delta rebuilds only the
//! segments whose pattern runs changed (reusing the rest by `Arc`), plus
//! the one automaton below, yet every query — results *and* ledger costs —
//! is indistinguishable from a from-scratch build. That is the oracle
//! `tests/delta.rs` enforces.
//!
//! Building is as independent across segments as matching is: the
//! segments a build cannot reuse are preprocessed in one
//! [`Pram::superstep`], so a build costs the Σ of their work and the depth
//! of the deepest one, not the sum of their depths, and under a parallel
//! `Pram` they build side by side.
//!
//! Dictionaries of at most [`SINGLE_SEGMENT_MAX`] patterns stay in one
//! segment whose seed equals the classic whole-dictionary seed, so small
//! dictionaries answer bit-identically to a bare [`DictMatcher`].
//!
//! Every segment, and the whole matcher, builds on exact suffix arrays
//! ([`DictMatcher::build_exact`]: SA-IS and Kasai), so the §3.4 checker
//! that vets a served answer reads a tree no fingerprint built.
//! [`DictMatcher::build`] keeps the seeded PRAM route as Theorem 3.1's
//! reproduction.
//!
//! What segmentation costs a Monte Carlo query: every segment makes its
//! own pass over the text, so work is Σ over segments. The passes are
//! independent, so they are one [`Pram::superstep`] — depth is the deepest
//! segment's, not the sum — and the verified path's §3.4 check per segment
//! costs a pass over the text plus work proportional to that segment's
//! claims: ≈ 14 ops per text byte per segment (EXPERIMENTS E14).
//!
//! Segments are the unit of change, not of query. Every exact answer —
//! [`SegmentedMatcher::find_all`], [`SegmentedMatcher::ac_match`], the Las
//! Vegas fallback, and §5's inputs [`SegmentedMatcher::reach_table`] and
//! [`SegmentedMatcher::longest_prefix_at`] — reads one [`AhoCorasick`] over
//! the whole list in global-id order, built after the segments on every build and
//! delta (`O(d · (k + 1))` for `k` distinct pattern bytes, ≈ 3 ops per
//! dictionary byte on DNA). Theorem 3.1 matches a text in `O(n)` work
//! whatever the dictionary size, and [`SegmentedMatcher::whole_matcher`]
//! gets that back for the Monte Carlo route: one matcher over the whole
//! list, answered through [`SegmentedMatcher::vet_whole`], passes over the
//! text once. It costs a whole-dictionary preprocessing (≈ 350–400 ops per
//! dictionary byte, EXPERIMENTS E14), so a server builds it once per
//! version, and only when the text it serves repays that
//! (`pardict_service`'s registry decides); edits keep working per segment
//! and never build one.

use crate::ac::AhoCorasick;
use crate::dict::{Dictionary, Match, Matches};
use crate::matcher::DictMatcher;
use pardict_pram::{Cost, Fnv1a, Pram, SplitMix64};
use std::cmp::Reverse;
use std::collections::HashMap;
use std::sync::Arc;

/// Dictionaries with at most this many patterns use a single segment
/// (delta updates then rebuild everything, which is cheap at this size).
pub const SINGLE_SEGMENT_MAX: usize = 64;

/// Expected patterns per segment: a boundary falls after a pattern with
/// probability `1 / SEGMENT_TARGET`.
pub const SEGMENT_TARGET: u64 = 256;

/// Hard cap on patterns per segment (bounds rebuild cost under
/// adversarially boundary-free pattern runs).
pub const SEGMENT_CAP: usize = 1024;

/// A pattern-set edit: `removes` are applied first (each removes *every*
/// occurrence of its exact value and must match at least one pattern),
/// then `adds` are appended in order. Surviving patterns keep their
/// relative order, so pattern ids stay deterministic along any delta
/// chain reaching the same final list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DictDelta {
    /// Patterns appended after the removes.
    pub adds: Vec<Vec<u8>>,
    /// Exact pattern values to remove (all occurrences each).
    pub removes: Vec<Vec<u8>>,
}

impl DictDelta {
    /// True when the delta edits nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.adds.is_empty() && self.removes.is_empty()
    }
}

/// Why a [`DictDelta`] could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// `removes[index]` matched no pattern in the parent set.
    RemoveMissing {
        /// Index into [`DictDelta::removes`].
        index: usize,
    },
    /// The delta would leave the dictionary empty.
    EmptyResult,
    /// `adds[index]` is empty.
    EmptyAdd {
        /// Index into [`DictDelta::adds`].
        index: usize,
    },
    /// `adds[index]` contains a NUL byte.
    NulAdd {
        /// Index into [`DictDelta::adds`].
        index: usize,
    },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::RemoveMissing { index } => {
                write!(f, "remove {index} matches no pattern in the parent set")
            }
            Self::EmptyResult => write!(f, "delta would leave the dictionary empty"),
            Self::EmptyAdd { index } => write!(f, "added pattern {index} is empty"),
            Self::NulAdd { index } => write!(f, "added pattern {index} contains NUL"),
        }
    }
}

impl std::error::Error for DeltaError {}

/// Absorb one length-prefixed pattern.
fn eat_pattern(h: Fnv1a, pattern: &[u8]) -> Fnv1a {
    h.eat(&(pattern.len() as u64).to_le_bytes()).eat(pattern)
}

/// FNV-1a over the length-prefixed pattern list — order-*sensitive*, the
/// seed and cache key for one segment (and, for a single-segment
/// dictionary, identical to the classic whole-dictionary content hash).
#[must_use]
pub fn list_hash(patterns: &[Vec<u8>]) -> u64 {
    patterns
        .iter()
        .fold(Fnv1a::default(), |h, p| eat_pattern(h, p))
        .finish()
}

/// Mixed per-pattern hash: drives both segment boundaries and the
/// multiset identity. FNV-1a over the length-prefixed pattern, finalized
/// with one SplitMix64 step so low bits are usable for boundary residues.
#[must_use]
pub fn pattern_identity(pattern: &[u8]) -> u64 {
    SplitMix64::new(eat_pattern(Fnv1a::default(), pattern).finish()).next_u64()
}

/// Commutative multiset identity of a pattern list: the wrapping sum of
/// [`pattern_identity`] over all patterns. Every path to the same final
/// multiset, a delta chain or a full publish, gets the same value, so
/// cache identities and cluster revival skips agree across them. Identity
/// of a *multiset*: permutations collide by design (they define the same
/// pattern set, though with permuted ids).
#[must_use]
pub fn multiset_identity(patterns: &[Vec<u8>]) -> u64 {
    patterns
        .iter()
        .fold(0u64, |acc, p| acc.wrapping_add(pattern_identity(p)))
}

/// Apply `delta` to the `parent` patterns, returning the final list: the
/// surviving parent patterns in their order, then the adds. One pass over
/// the parent against a hash map of the removes, with the semantics of
/// applying the removes in turn: `removes[i]` is missing when it matches
/// no parent pattern or repeats an earlier remove.
///
/// # Errors
/// See [`DeltaError`]; on error the parent is untouched (pure function).
pub fn apply_delta_patterns<'a>(
    parent: impl IntoIterator<Item = &'a Vec<u8>>,
    delta: &DictDelta,
) -> Result<Vec<Vec<u8>>, DeltaError> {
    for (i, a) in delta.adds.iter().enumerate() {
        if a.is_empty() {
            return Err(DeltaError::EmptyAdd { index: i });
        }
        if a.contains(&0) {
            return Err(DeltaError::NulAdd { index: i });
        }
    }
    // Each value's first index in `removes`: a repeat is never looked up,
    // so it stays unhit, as it would match nothing once its first ran.
    let mut first: HashMap<&[u8], usize> = HashMap::with_capacity(delta.removes.len());
    for (i, r) in delta.removes.iter().enumerate() {
        first.entry(r.as_slice()).or_insert(i);
    }
    let mut hit = vec![false; delta.removes.len()];
    let mut kept = Vec::new();
    for p in parent {
        match first.get(p.as_slice()) {
            Some(&i) => hit[i] = true,
            None => kept.push(p.clone()),
        }
    }
    if let Some(index) = hit.iter().position(|&h| !h) {
        return Err(DeltaError::RemoveMissing { index });
    }
    kept.extend(delta.adds.iter().cloned());
    if kept.is_empty() {
        return Err(DeltaError::EmptyResult);
    }
    Ok(kept)
}

/// Canonical segment spans of a pattern list: a pure function of the list
/// (see the module docs), so any two paths to the same list cut it the
/// same way.
#[must_use]
pub fn segment_spans(patterns: &[Vec<u8>]) -> Vec<std::ops::Range<usize>> {
    let n = patterns.len();
    if n <= SINGLE_SEGMENT_MAX {
        return std::iter::once(0..n).collect();
    }
    let mut spans = Vec::new();
    let mut start = 0usize;
    for (i, p) in patterns.iter().enumerate() {
        let boundary = pattern_identity(p).is_multiple_of(SEGMENT_TARGET);
        if boundary || i + 1 - start >= SEGMENT_CAP || i + 1 == n {
            spans.push(start..i + 1);
            start = i + 1;
        }
    }
    spans
}

/// One immutable, shareable segment: a run of patterns with its own
/// preprocessed matcher. Pattern ids inside are segment-local;
/// [`SegmentedMatcher`] offsets them by the segment's base.
#[derive(Debug)]
pub struct Segment {
    matcher: DictMatcher,
    list_hash: u64,
    build_cost: Cost,
}

impl Segment {
    /// Preprocess one segment on an exact suffix tree
    /// ([`DictMatcher::build_exact`]). The fingerprint seed derives from
    /// the segment's own content hash, so equal-content segments are
    /// bit-identical regardless of how they were reached.
    #[must_use]
    pub fn build(pram: &Pram, patterns: Vec<Vec<u8>>) -> Self {
        let hash = list_hash(&patterns);
        let dict = Dictionary::new(patterns);
        let (matcher, build_cost) = pram.metered(|p| DictMatcher::build_exact(p, dict, hash | 1));
        Self {
            matcher,
            list_hash: hash,
            build_cost,
        }
    }

    /// The segment's Theorem-3.1 matcher (segment-local pattern ids).
    #[must_use]
    pub fn matcher(&self) -> &DictMatcher {
        &self.matcher
    }

    /// Order-sensitive content hash of the segment's patterns.
    #[must_use]
    pub fn list_hash(&self) -> u64 {
        self.list_hash
    }

    /// Ledger cost of this segment's preprocessing.
    #[must_use]
    pub fn build_cost(&self) -> Cost {
        self.build_cost
    }

    /// Patterns in this segment.
    #[must_use]
    pub fn patterns(&self) -> &[Vec<u8>] {
        self.matcher.dictionary().patterns()
    }
}

/// How a [`SegmentedMatcher`] assembly went: how much was reused.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentBuildStats {
    /// Segments in the final structure.
    pub segments_total: usize,
    /// Segments reused (by `Arc`) instead of rebuilt.
    pub segments_reused: usize,
}

/// A dictionary preprocessed as canonical segments (see module docs), plus
/// one exact automaton over the whole list.
///
/// A build preprocesses the segments it cannot reuse in one super-step (Σ
/// work, the deepest segment's depth), then builds the automaton. A Monte
/// Carlo query runs every segment in one super-step too (independent passes
/// over the same text: Σ work, the deepest segment's depth, one thread per
/// hart under a parallel `Pram`) and merges the answers in base order as
/// they arrive; a single-segment dictionary delegates directly, with zero
/// overhead over [`DictMatcher`]. Every exact answer is one scan of the
/// automaton.
#[derive(Debug, Clone)]
pub struct SegmentedMatcher {
    slots: Vec<Slot>,
    /// Aho–Corasick over every pattern, in global-id order.
    ac: Arc<AhoCorasick>,
    identity: u64,
    num_patterns: usize,
    max_pattern_len: usize,
    build_cost: Cost,
}

#[derive(Debug, Clone)]
struct Slot {
    /// Global id of the segment's first pattern.
    base: u32,
    seg: Arc<Segment>,
}

impl SegmentedMatcher {
    /// Preprocess `patterns` from scratch.
    ///
    /// # Panics
    /// Panics on an empty list, an empty pattern, or NUL bytes (validate
    /// first at service boundaries; `Dictionary::new` enforces this).
    #[must_use]
    pub fn build(pram: &Pram, patterns: Vec<Vec<u8>>) -> Self {
        Self::build_with_reuse(pram, patterns, None).0
    }

    /// Preprocess `patterns`, sharing `parent`'s segment (by `Arc`) for
    /// every pattern run it already holds, matched by content hash and then
    /// by content, and building the rest. Segments are canonical, so the
    /// result is structurally identical to [`SegmentedMatcher::build`]'s.
    /// A delta keeps the surviving runs in the parent's order, so one
    /// forward walk over the parent's segments finds each of them.
    ///
    /// The segments to build are independent, so they are one
    /// [`Pram::superstep`] as wide as their patterns: `pram` is charged
    /// their Σ work and the deepest one's depth, and under a parallel
    /// `pram` they build side by side once there is enough of them to
    /// fork, largest segment first. A single missing segment (a small
    /// delta) builds on the calling thread. The automaton over the whole
    /// list follows, charged as sequential ops, so every build, a delta's
    /// included, pays it in full.
    ///
    /// # Panics
    /// As [`SegmentedMatcher::build`].
    #[must_use]
    pub fn build_with_reuse(
        pram: &Pram,
        patterns: Vec<Vec<u8>>,
        parent: Option<&SegmentedMatcher>,
    ) -> (Self, SegmentBuildStats) {
        let identity = multiset_identity(&patterns);
        let dict = Dictionary::new(patterns);
        let spans = segment_spans(dict.patterns());
        // The parent's segments not yet passed by the walk.
        let mut unseen = parent.map_or(&[][..], |p| p.slots.as_slice());
        let mut segs: Vec<Option<Arc<Segment>>> = Vec::with_capacity(spans.len());
        // The runs no parent segment holds, with their slot.
        let mut misses = Vec::new();
        let mut width = 0usize;
        for (slot, span) in spans.iter().enumerate() {
            let chunk = &dict.patterns()[span.clone()];
            let hash = list_hash(chunk);
            let found = unseen
                .iter()
                .position(|s| s.seg.list_hash() == hash && s.seg.patterns() == chunk);
            match found {
                Some(j) => {
                    segs.push(Some(Arc::clone(&unseen[j].seg)));
                    unseen = &unseen[j + 1..];
                }
                None => {
                    segs.push(None);
                    width += chunk.iter().map(Vec::len).sum::<usize>();
                    misses.push((slot, chunk.to_vec()));
                }
            }
        }
        let stats = SegmentBuildStats {
            segments_total: spans.len(),
            segments_reused: spans.len() - misses.len(),
        };
        // Largest first: lanes are dealt items in order, so a large segment
        // dealt last keeps one lane busy while the other idles. Each result
        // lands in its slot, so neither an answer nor a charge moves.
        misses.sort_by_cached_key(|(_, chunk)| Reverse(chunk.iter().map(Vec::len).sum::<usize>()));
        pram.superstep(
            misses,
            width,
            |p, (slot, chunk)| (slot, Segment::build(p, chunk)),
            |_, (slot, seg)| segs[slot] = Some(Arc::new(seg)),
        );
        let slots: Vec<Slot> = spans
            .iter()
            .zip(segs)
            .map(|(span, seg)| Slot {
                base: span.start as u32,
                seg: seg.expect("every segment is reused or built"),
            })
            .collect();
        let (ac, ac_cost) = pram.metered(|p| {
            let ac = AhoCorasick::build(&dict);
            p.ledger().sequential(ac.build_ops());
            ac
        });
        let build_cost = slots
            .iter()
            .fold(Cost::default(), |acc, s| acc.beside(s.seg.build_cost()))
            .plus(ac_cost);
        (
            Self {
                slots,
                ac: Arc::new(ac),
                identity,
                num_patterns: dict.num_patterns(),
                max_pattern_len: dict.max_pattern_len(),
                build_cost,
            },
            stats,
        )
    }

    /// Apply `delta`, reusing this matcher's segments for every pattern
    /// run the edit left untouched. The result is structurally identical
    /// to [`SegmentedMatcher::build`] on the post-delta list.
    ///
    /// # Errors
    /// See [`DeltaError`].
    pub fn apply_delta(
        &self,
        pram: &Pram,
        delta: &DictDelta,
    ) -> Result<(Self, SegmentBuildStats), DeltaError> {
        let finals = apply_delta_patterns(self.segments().flat_map(|s| s.patterns()), delta)?;
        Ok(Self::build_with_reuse(pram, finals, Some(self)))
    }

    /// All patterns in global-id order (concatenated segment runs).
    #[must_use]
    pub fn patterns(&self) -> Vec<Vec<u8>> {
        self.slots
            .iter()
            .flat_map(|s| s.seg.patterns().iter().cloned())
            .collect()
    }

    /// Commutative multiset identity of the pattern set (see
    /// [`multiset_identity`]).
    #[must_use]
    pub fn identity(&self) -> u64 {
        self.identity
    }

    /// Number of patterns.
    #[must_use]
    pub fn num_patterns(&self) -> usize {
        self.num_patterns
    }

    /// Number of segments.
    #[must_use]
    pub fn num_segments(&self) -> usize {
        self.slots.len()
    }

    /// Ledger cost of preprocessing every segment (whether built now or
    /// inherited) as one super-step — Σ work, the deepest segment's depth —
    /// plus the automaton's sequential build. A delta and a scratch build
    /// of the same list report the same cost.
    #[must_use]
    pub fn build_cost(&self) -> Cost {
        self.build_cost
    }

    /// The one fan-out and merge under every per-position query. A single
    /// segment answers for itself on `pram`. Otherwise the segments are
    /// independent, so they answer in one [`Pram::superstep`]: `per_seg` on
    /// each segment under a private ledger, Σ work and the deepest
    /// segment's depth charged to `pram` once, on up to one thread per hart
    /// when `pram` is parallel and the text is wide enough. The answers
    /// arrive in base order while later segments are still running; local
    /// ids are rebased by the segment's base, and each position keeps the
    /// longest answer — ties to the smallest global id. The merge is not
    /// ledger-charged, and a segment's dense answer is dropped as soon as it
    /// is merged, so only those of the segments in flight exist at once.
    /// Also returns the OR of the segments' flags.
    fn fold_or(
        &self,
        pram: &Pram,
        n: usize,
        per_seg: impl Fn(&Pram, &Segment) -> (Vec<Option<Match>>, bool) + Sync,
    ) -> (Vec<Option<Match>>, bool) {
        if let [only] = self.slots.as_slice() {
            return per_seg(pram, &only.seg);
        }
        let mut acc: Vec<Option<Match>> = vec![None; n];
        let mut any = false;
        pram.superstep(
            (0..self.slots.len()).collect(),
            n,
            |p, i| per_seg(p, &self.slots[i].seg),
            |i, (cands, flag)| {
                let base = self.slots[i].base;
                any |= flag;
                for (best, cand) in acc.iter_mut().zip(cands) {
                    let Some(Match { id, len }) = cand else {
                        continue;
                    };
                    let cand = Match { id: id + base, len };
                    if best.is_none_or(|b| (len, Reverse(cand.id)) > (b.len, Reverse(b.id))) {
                        *best = Some(cand);
                    }
                }
            },
        );
        (acc, any)
    }

    /// Longest pattern at every text position (merged across segments:
    /// longest wins, ties to the smallest global id). Monte Carlo like
    /// [`DictMatcher::match_text`]; verify with
    /// [`SegmentedMatcher::match_text_verified`].
    #[must_use]
    pub fn match_text(&self, pram: &Pram, text: &[u8]) -> Matches {
        let per_seg = |p: &Pram, seg: &Segment| (seg.matcher().match_text(p, text).inner, false);
        Matches::new(self.fold_or(pram, text.len(), per_seg).0)
    }

    /// Las Vegas matching without rebuilding: per segment, one Monte Carlo
    /// pass vetted by the exact §3.4 checker. Should any segment's check
    /// reject (an astronomically rare fingerprint collision), the whole
    /// request is answered by [`SegmentedMatcher::ac_match`] instead, its
    /// scan charged `n` steps. Returns the matches plus whether the
    /// automaton answered.
    #[must_use]
    pub fn match_text_verified(&self, pram: &Pram, text: &[u8]) -> (Matches, bool) {
        self.verified_with(pram, text, |p, seg| seg.matcher().match_text(p, text))
    }

    /// [`SegmentedMatcher::match_text_verified`] over any per-segment
    /// Monte Carlo pass (the seam the fallback tests corrupt).
    fn verified_with(
        &self,
        pram: &Pram,
        text: &[u8],
        monte_carlo: impl Fn(&Pram, &Segment) -> Matches + Sync,
    ) -> (Matches, bool) {
        let (merged, rejected) = self.fold_or(pram, text.len(), |p, seg| {
            let m = monte_carlo(p, seg);
            let rejected = seg.matcher().check(p, text, &m).is_err();
            (m.inner, rejected)
        });
        if rejected {
            (self.match_exact(pram, text), true)
        } else {
            (Matches::new(merged), false)
        }
    }

    /// One [`DictMatcher`] over the whole pattern list, in global-id order,
    /// built as a segment is (exact tree, seed `list_hash(&patterns) | 1`),
    /// so a one-segment dictionary's whole matcher is its segment's matcher.
    /// Segments stay the unit of change; this is the unit of query, one
    /// pass over a text whatever the segment count. Answer with it through
    /// [`SegmentedMatcher::vet_whole`].
    #[must_use]
    pub fn whole_matcher(&self, pram: &Pram) -> DictMatcher {
        let patterns = self.patterns();
        let seed = list_hash(&patterns) | 1;
        DictMatcher::build_exact(pram, Dictionary::new(patterns), seed)
    }

    /// Las Vegas matching over `whole`, this dictionary's
    /// [`SegmentedMatcher::whole_matcher`]: `m`, a Monte Carlo answer of
    /// `whole` for `text`, if the exact §3.4 checker accepts it, else the
    /// automaton's answer ([`SegmentedMatcher::ac_match`]) and `true`. The
    /// whole matcher keeps the merge's rule (longest pattern, ties to the
    /// smallest global id), so either way the reply equals
    /// [`SegmentedMatcher::match_text_verified`]'s.
    #[must_use]
    pub fn vet_whole(
        &self,
        pram: &Pram,
        whole: &DictMatcher,
        text: &[u8],
        m: Matches,
    ) -> (Matches, bool) {
        debug_assert_eq!(whole.dictionary().num_patterns(), self.num_patterns);
        if whole.check(pram, text, &m).is_ok() {
            (m, false)
        } else {
            (self.match_exact(pram, text), true)
        }
    }

    /// Exact matching on the automaton (the sequential lane): longest
    /// pattern, ties to the smallest global id, as the merge ranks them.
    /// Uncharged; [`SegmentedMatcher::match_exact`] charges the scan.
    #[must_use]
    pub fn ac_match(&self, text: &[u8]) -> Matches {
        self.ac.match_text(text)
    }

    /// [`SegmentedMatcher::ac_match`] charged as the sequential loop it
    /// is: `n` steps of work and of depth. The small-request lane and the
    /// Las Vegas fallback both answer through it.
    #[must_use]
    pub fn match_exact(&self, pram: &Pram, text: &[u8]) -> Matches {
        pram.ledger().sequential(text.len() as u64);
        self.ac_match(text)
    }

    /// Every occurrence as `(position, match)` with global ids, ordered by
    /// position, then decreasing length, then id; identical patterns are
    /// each reported, under their own ids. The one occurrence route: the
    /// automaton scans the text once ([`AhoCorasick::find_all`]),
    /// sequentially, charged its `n + occ` steps as work and as depth.
    #[must_use]
    pub fn find_all(&self, pram: &Pram, text: &[u8]) -> Vec<(usize, Match)> {
        let hits = self.ac.find_all(text);
        pram.ledger().sequential((text.len() + hits.len()) as u64);
        hits
    }

    /// The automaton's §5 claim table ([`AhoCorasick::reach_table`]):
    /// claims that occur, with the prefix maxima of the longest pattern
    /// prefix at each position, so §5's optimal parse cuts where it would
    /// on `M` itself. One scan, charged `n` steps as work and as depth.
    #[must_use]
    pub fn reach_table(&self, pram: &Pram, text: &[u8]) -> Vec<Option<(u32, u32)>> {
        pram.ledger().sequential(text.len() as u64);
        self.ac.reach_table(text)
    }

    /// §5's `M[start]`, the longest pattern prefix at `start`, as
    /// `(len, global id)` ([`AhoCorasick::longest_prefix_at`]), charged the
    /// bytes its trie walk reads. A greedy parse reads `M` only where its
    /// phrases start, so its walks read at most `n + phrases` bytes.
    #[must_use]
    pub fn longest_prefix_at(&self, pram: &Pram, text: &[u8], start: usize) -> Option<(u32, u32)> {
        let claim = self.ac.longest_prefix_at(text, start);
        let len = claim.map_or(0, |(len, _)| len as usize);
        pram.ledger()
            .sequential((len + 1).min(text.len() - start) as u64);
        claim
    }

    /// Length of the longest pattern.
    #[must_use]
    pub fn max_pattern_len(&self) -> usize {
        self.max_pattern_len
    }

    /// Segments in base order, for cache insertion by the serving layer.
    pub fn segments(&self) -> impl Iterator<Item = &Arc<Segment>> {
        self.slots.iter().map(|s| &s.seg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardict_workloads::{random_dictionary, text_with_planted_matches, Alphabet};

    fn pats(ss: &[&str]) -> Vec<Vec<u8>> {
        ss.iter().map(|s| s.as_bytes().to_vec()).collect()
    }

    #[test]
    fn apply_delta_patterns_semantics() {
        let parent = pats(&["a", "b", "a", "c"]);
        let d = DictDelta {
            adds: pats(&["x"]),
            removes: pats(&["a"]),
        };
        let finals = apply_delta_patterns(&parent, &d).unwrap();
        assert_eq!(finals, pats(&["b", "c", "x"]));
        // Missing remove is an error.
        let bad = DictDelta {
            adds: vec![],
            removes: pats(&["zz"]),
        };
        assert_eq!(
            apply_delta_patterns(&parent, &bad),
            Err(DeltaError::RemoveMissing { index: 0 })
        );
        // Emptying the dictionary is an error.
        let drain = DictDelta {
            adds: vec![],
            removes: pats(&["a", "b", "c"]),
        };
        assert_eq!(
            apply_delta_patterns(&parent, &drain),
            Err(DeltaError::EmptyResult)
        );
        // Invalid adds are rejected before any work.
        let nul = DictDelta {
            adds: vec![vec![b'a', 0]],
            removes: vec![],
        };
        assert_eq!(
            apply_delta_patterns(&parent, &nul),
            Err(DeltaError::NulAdd { index: 0 })
        );
    }

    /// The fold as it was before it became one pass: one `retain` over the
    /// survivors per remove. Kept verbatim as the oracle of its semantics.
    fn fold_remove_by_remove(
        parent: &[Vec<u8>],
        delta: &DictDelta,
    ) -> Result<(Vec<Vec<u8>>, Vec<u64>), DeltaError> {
        for (i, a) in delta.adds.iter().enumerate() {
            if a.is_empty() {
                return Err(DeltaError::EmptyAdd { index: i });
            }
            if a.contains(&0) {
                return Err(DeltaError::NulAdd { index: i });
            }
        }
        let mut kept: Vec<Vec<u8>> = parent.to_vec();
        let mut counts = Vec::with_capacity(delta.removes.len());
        for (i, r) in delta.removes.iter().enumerate() {
            let before = kept.len();
            kept.retain(|p| p != r);
            let removed = (before - kept.len()) as u64;
            if removed == 0 {
                return Err(DeltaError::RemoveMissing { index: i });
            }
            counts.push(removed);
        }
        kept.extend(delta.adds.iter().cloned());
        if kept.is_empty() {
            return Err(DeltaError::EmptyResult);
        }
        Ok((kept, counts))
    }

    #[test]
    fn one_pass_fold_equals_the_remove_by_remove_fold() {
        let mut rng = SplitMix64::new(0xF01D);
        // A word of 0–3 letters over `ab`, NUL in one draw of 16, so that
        // draws repeat and some adds are invalid.
        let word = |rng: &mut SplitMix64, min: u64| -> Vec<u8> {
            (0..min + rng.next_below(4 - min))
                .map(|_| match rng.next_below(16) {
                    0 => 0,
                    k => b'a' + (k % 2) as u8,
                })
                .collect()
        };
        let mut seen = [0usize; 5];
        for _ in 0..4000 {
            let parent: Vec<Vec<u8>> = (0..rng.next_below(10)).map(|_| word(&mut rng, 1)).collect();
            // Present, repeated and overlapping removes drawn from the
            // parent; missing ones from fresh words.
            let removes = (0..rng.next_below(6))
                .map(|_| match parent.len() as u64 {
                    k if k > 0 && rng.next_below(4) != 0 => {
                        parent[rng.next_below(k) as usize].clone()
                    }
                    _ => word(&mut rng, 1),
                })
                .collect();
            let adds = (0..rng.next_below(3)).map(|_| word(&mut rng, 0)).collect();
            let delta = DictDelta { adds, removes };
            let want = fold_remove_by_remove(&parent, &delta).map(|(finals, _)| finals);
            seen[match &want {
                Ok(_) => 0,
                Err(DeltaError::RemoveMissing { .. }) => 1,
                Err(DeltaError::EmptyResult) => 2,
                Err(DeltaError::EmptyAdd { .. }) => 3,
                Err(DeltaError::NulAdd { .. }) => 4,
            }] += 1;
            assert_eq!(
                apply_delta_patterns(&parent, &delta),
                want,
                "{parent:?} {delta:?}"
            );
        }
        assert!(seen.iter().all(|&n| n > 0), "every outcome drawn: {seen:?}");
    }

    #[test]
    fn multiset_identity_respects_pattern_boundaries() {
        assert_ne!(
            multiset_identity(&pats(&["ab", "c"])),
            multiset_identity(&pats(&["a", "bc"]))
        );
    }

    #[test]
    fn segment_spans_are_canonical_and_capped() {
        let alpha = Alphabet::lowercase();
        let patterns = random_dictionary(7, 2000, 2, 8, alpha);
        let spans = segment_spans(&patterns);
        assert_eq!(spans.first().unwrap().start, 0);
        assert_eq!(spans.last().unwrap().end, patterns.len());
        let mut prev_end = 0;
        for s in &spans {
            assert_eq!(s.start, prev_end);
            assert!(s.end - s.start <= SEGMENT_CAP);
            prev_end = s.end;
        }
        assert!(spans.len() > 1, "2000 patterns should cut multiple spans");
        // Small lists are one span.
        assert_eq!(segment_spans(&patterns[..10]).len(), 1);
    }

    #[test]
    fn single_segment_matches_bare_dict_matcher_exactly() {
        let pram = Pram::seq();
        let patterns = pats(&["ana", "ban", "nab", "a"]);
        let seg = SegmentedMatcher::build(&pram, patterns.clone());
        assert_eq!(seg.num_segments(), 1);
        let bare = DictMatcher::build(
            &pram,
            Dictionary::new(patterns.clone()),
            list_hash(&patterns) | 1,
        );
        let text = b"banana nab a ban";
        assert_eq!(seg.match_text(&pram, text), bare.match_text(&pram, text));
    }

    #[test]
    fn delta_equals_scratch_build_results_and_costs() {
        let alpha = Alphabet::dna();
        let patterns = random_dictionary(3, 1500, 2, 9, alpha);
        let pram = Pram::seq();
        let parent = SegmentedMatcher::build(&pram, patterns.clone());
        assert!(parent.num_segments() > 1);
        let delta = DictDelta {
            adds: pats(&["gattaca", "tagg"]),
            removes: vec![patterns[17].clone(), patterns[1251].clone()],
        };
        let (child, stats) = parent.apply_delta(&pram, &delta).unwrap();
        assert!(
            stats.segments_reused > 0 && stats.segments_reused < stats.segments_total,
            "expected partial reuse, got {stats:?}"
        );
        let finals = apply_delta_patterns(&patterns, &delta).unwrap();
        let scratch = SegmentedMatcher::build(&pram, finals.clone());
        assert_eq!(child.identity(), scratch.identity());
        assert_eq!(child.patterns(), scratch.patterns());
        assert_eq!(child.build_cost(), scratch.build_cost());
        let text = text_with_planted_matches(9, &finals, 800, 40, alpha);
        for p in [Pram::seq(), Pram::par()] {
            let (a, ca) = p.metered(|pr| child.match_text(pr, &text));
            let (b, cb) = p.metered(|pr| scratch.match_text(pr, &text));
            assert_eq!(a, b, "match results must be identical");
            assert_eq!(ca, cb, "query ledger costs must be identical");
            let (fa, cfa) = p.metered(|pr| child.find_all(pr, &text));
            let (fb, cfb) = p.metered(|pr| scratch.find_all(pr, &text));
            assert_eq!(fa, fb);
            assert_eq!(cfa, cfb);
        }
    }

    /// The first seeded DNA dictionary that cuts into exactly `segments`
    /// canonical segments.
    fn dictionary_with_segments(segments: usize) -> Vec<Vec<u8>> {
        (0u64..)
            .map(|seed| random_dictionary(seed, 220 * segments, 3, 8, Alphabet::dna()))
            .find(|patterns| segment_spans(patterns).len() == segments)
            .expect("some draw cuts into the wanted number of segments")
    }

    /// `m` with a false claim of pattern 0, `p`, planted where `p` does
    /// not occur.
    fn corrupted(p: &[u8], text: &[u8], m: &Matches) -> Matches {
        let at = (0..text.len() - p.len())
            .find(|&i| !text[i..].starts_with(p))
            .expect("the pattern is absent somewhere");
        let mut v = m.as_slice().to_vec();
        v[at] = Some(Match {
            id: 0,
            len: p.len() as u32,
        });
        Matches::new(v)
    }

    /// The ledger charge of the automaton over `patterns`: its build ops,
    /// as work and as depth.
    fn automaton_cost(patterns: &[Vec<u8>]) -> Cost {
        let ops = AhoCorasick::build(&Dictionary::new(patterns.to_vec())).build_ops();
        Cost {
            work: ops,
            depth: ops,
        }
    }

    /// The ledger charge of the automaton's scan of `text`: one step a
    /// byte, as work and as depth.
    fn scan_cost(text: &[u8]) -> Cost {
        let n = text.len() as u64;
        Cost { work: n, depth: n }
    }

    #[test]
    fn rejected_monte_carlo_output_is_replaced_by_the_automaton() {
        let pram = Pram::seq();
        let patterns = random_dictionary(5, 40, 2, 8, Alphabet::dna());
        let matcher = SegmentedMatcher::build(&pram, patterns.clone());
        assert_eq!(matcher.num_segments(), 1);
        let text = text_with_planted_matches(6, &patterns, 900, 30, Alphabet::dna());
        let exact = matcher.ac_match(&text);
        let clean = matcher.match_text(&pram, &text);
        assert_eq!(clean, exact);
        assert_eq!(
            matcher.verified_with(&pram, &text, |_, _| clean.clone()),
            (clean.clone(), false)
        );
        let bad = corrupted(&patterns[0], &text, &clean);
        assert_ne!(bad, exact);
        assert_eq!(
            matcher.verified_with(&pram, &text, |_, _| bad.clone()),
            (exact, true)
        );
        // The rejected call costs the check of its claims, then the
        // automaton's sequential scan of the text.
        let only = matcher.segments().next().unwrap().matcher();
        let (_, check) = pram.metered(|p| only.check(p, &text, &bad));
        let (_, rejected) = pram.metered(|p| matcher.verified_with(p, &text, |_, _| bad.clone()));
        assert_eq!(rejected, check.plus(scan_cost(&text)));
    }

    #[test]
    fn one_corrupted_segment_of_four_still_answers_exactly() {
        let patterns = dictionary_with_segments(4);
        let matcher = SegmentedMatcher::build(&Pram::seq(), patterns.clone());
        let text = text_with_planted_matches(8, &patterns, 3000, 25, Alphabet::dna());
        let exact = matcher.ac_match(&text);
        let victim = matcher.segments().nth(2).unwrap().list_hash();
        for pram in [Pram::seq(), Pram::par()] {
            assert_eq!(
                matcher.match_text_verified(&pram, &text),
                (exact.clone(), false)
            );
            let reply = matcher.verified_with(&pram, &text, |p, seg| {
                let m = seg.matcher().match_text(p, &text);
                if seg.list_hash() == victim {
                    corrupted(&seg.patterns()[0], &text, &m)
                } else {
                    m
                }
            });
            assert_eq!(reply, (exact.clone(), true));
        }
    }

    #[test]
    fn whole_matcher_answers_as_the_segments_do_in_seq_and_par() {
        let patterns = dictionary_with_segments(4);
        let matcher = SegmentedMatcher::build(&Pram::seq(), patterns.clone());
        let text = text_with_planted_matches(8, &patterns, 3000, 25, Alphabet::dna());
        let exact = matcher.ac_match(&text);
        let run = |pram: Pram| {
            let (whole, build) = pram.metered(|p| matcher.whole_matcher(p));
            let (reply, query) = pram.metered(|p| {
                let m = whole.match_text(p, &text);
                matcher.vet_whole(p, &whole, &text, m)
            });
            (reply, build, query)
        };
        let seq = run(Pram::seq());
        assert_eq!(seq.0, (exact, false));
        assert_eq!(seq, run(Pram::par()));
        // One pass over the text costs less than the four segments' passes.
        let (_, segmented) = Pram::seq().metered(|p| matcher.match_text_verified(p, &text));
        assert!(
            3 * seq.2.work < segmented.work,
            "{:?} vs {segmented:?}",
            seq.2
        );
    }

    #[test]
    fn rejected_whole_monte_carlo_output_is_replaced_by_the_automata() {
        let patterns = dictionary_with_segments(4);
        let pram = Pram::seq();
        let matcher = SegmentedMatcher::build(&pram, patterns.clone());
        let whole = matcher.whole_matcher(&pram);
        let text = text_with_planted_matches(6, &patterns, 3000, 25, Alphabet::dna());
        let exact = matcher.ac_match(&text);
        let clean = whole.match_text(&pram, &text);
        let bad = corrupted(&patterns[0], &text, &clean);
        assert_ne!(bad, exact);
        assert_eq!(
            matcher.vet_whole(&pram, &whole, &text, clean),
            (exact.clone(), false)
        );
        let (_, check) = pram.metered(|p| whole.check(p, &text, &bad));
        let (reply, rejected) = pram.metered(|p| matcher.vet_whole(p, &whole, &text, bad));
        assert_eq!(reply, (exact, true));
        assert_eq!(rejected, check.plus(scan_cost(&text)));
    }

    #[test]
    fn a_single_segment_is_its_own_whole_matcher() {
        let pram = Pram::seq();
        let patterns = pats(&["ana", "ban", "nab", "a", "ban"]);
        let seg = SegmentedMatcher::build(&pram, patterns.clone());
        let (whole, build) = pram.metered(|p| seg.whole_matcher(p));
        // The segment holds the whole matcher; the automaton sits beside it.
        let only = seg.segments().next().expect("one segment");
        assert_eq!(build, only.build_cost());
        assert_eq!(build.plus(automaton_cost(&patterns)), seg.build_cost());
        let text = b"banana nab a ban";
        let m = whole.match_text(&pram, text);
        assert_eq!(m, seg.match_text(&pram, text));
        assert_eq!(
            seg.vet_whole(&pram, &whole, text, m),
            seg.match_text_verified(&pram, text)
        );
    }

    #[test]
    fn segments_cost_one_superstep_identically_in_seq_and_par() {
        for segments in [3usize, 4, 5] {
            let patterns = dictionary_with_segments(segments);
            let matcher = SegmentedMatcher::build(&Pram::seq(), patterns.clone());
            assert_eq!(matcher.num_segments(), segments);
            for n in [1usize << 10, 1 << 16] {
                let text = text_with_planted_matches(n as u64, &patterns, n, 25, Alphabet::dna());
                let run = |pram: Pram| {
                    let (verified, cv) = pram.metered(|p| matcher.match_text_verified(p, &text));
                    let (all, ca) = pram.metered(|p| matcher.find_all(p, &text));
                    (verified, cv, all, ca)
                };
                let seq = run(Pram::seq());
                assert_eq!(seq, run(Pram::par()), "{segments} segments, n={n}");
                // Σ work, and the depth of the deepest segment — not Σ depth.
                let alone: Vec<Cost> = matcher
                    .segments()
                    .map(|seg| {
                        let p = Pram::seq();
                        let m = seg.matcher().match_text(&p, &text);
                        seg.matcher().check(&p, &text, &m).unwrap();
                        p.cost()
                    })
                    .collect();
                let total = alone.iter().fold(Cost::default(), |a, &c| a.beside(c));
                assert_eq!(seq.1, total);
            }
        }
    }

    #[test]
    fn segments_build_in_one_superstep_identically_in_seq_and_par() {
        for segments in [1usize, 2, 16] {
            let patterns = dictionary_with_segments(segments);
            let run = |pram: Pram| pram.metered(|p| SegmentedMatcher::build(p, patterns.clone()));
            let (seq, seq_charged) = run(Pram::seq());
            let (par, par_charged) = run(Pram::par());
            assert_eq!(seq.num_segments(), segments);
            assert_eq!(seq.patterns(), par.patterns());
            assert_eq!(seq.identity(), par.identity());
            for (a, b) in seq.segments().zip(par.segments()) {
                assert_eq!(a.list_hash(), b.list_hash());
                assert_eq!(a.build_cost(), b.build_cost());
            }
            // Σ work, and the depth of the deepest segment — not Σ depth —
            // then the automaton over the whole list.
            let total = seq
                .segments()
                .fold(Cost::default(), |acc, seg| acc.beside(seg.build_cost()))
                .plus(automaton_cost(&patterns));
            assert_eq!(seq.build_cost(), total, "{segments} segments");
            assert_eq!(par.build_cost(), total, "{segments} segments");
            assert_eq!(seq_charged, total, "{segments} segments");
            assert_eq!(par_charged, total, "{segments} segments");
            // A one-pattern delta rebuilds one segment and the automaton,
            // and is charged those two builds, yet reports a scratch
            // build's cost.
            let delta = DictDelta {
                adds: vec![b"gattacagattaca".to_vec()],
                removes: vec![],
            };
            let finals = apply_delta_patterns(&patterns, &delta).unwrap();
            let scratch = SegmentedMatcher::build(&Pram::seq(), finals.clone());
            for pram in [Pram::seq(), Pram::par()] {
                let ((child, stats), charged) =
                    pram.metered(|p| seq.apply_delta(p, &delta).unwrap());
                assert_eq!(stats.segments_total - stats.segments_reused, 1);
                let rebuilt: Vec<&Arc<Segment>> = child
                    .segments()
                    .filter(|c| !seq.segments().any(|s| Arc::ptr_eq(s, c)))
                    .collect();
                assert_eq!(rebuilt.len(), 1);
                assert_eq!(
                    charged,
                    rebuilt[0].build_cost().plus(automaton_cost(&finals)),
                    "{segments} segments"
                );
                assert_eq!(child.build_cost(), scratch.build_cost());
            }
        }
    }

    #[test]
    fn find_all_charges_one_automaton_scan() {
        for segments in [1usize, 3, 5] {
            let patterns = dictionary_with_segments(segments);
            let matcher = SegmentedMatcher::build(&Pram::seq(), patterns.clone());
            assert_eq!(matcher.num_segments(), segments);
            let n = 1 << 13;
            let text = text_with_planted_matches(7, &patterns, n, 25, Alphabet::dna());
            // One step per text byte and per reported occurrence, whatever
            // the segment count.
            let want = AhoCorasick::build(&Dictionary::new(patterns)).find_all(&text);
            let steps = (n + want.len()) as u64;
            for pram in [Pram::seq(), Pram::par()] {
                let (hits, cost) = pram.metered(|p| matcher.find_all(p, &text));
                assert_eq!(hits, want, "{segments} segments, {:?}", pram.mode());
                assert_eq!(
                    cost,
                    Cost {
                        work: steps,
                        depth: steps
                    },
                    "{segments} segments, {:?}",
                    pram.mode()
                );
            }
        }
    }

    /// The §5 inputs read the one automaton whatever the segment count:
    /// the reach table for one `n`-step scan, each trie walk for the bytes
    /// it reads, the same in seq and par.
    #[test]
    fn section_5_inputs_charge_their_automaton_reads() {
        for segments in [1usize, 3] {
            let patterns = dictionary_with_segments(segments);
            let matcher = SegmentedMatcher::build(&Pram::seq(), patterns.clone());
            let text = text_with_planted_matches(9, &patterns, 1 << 12, 25, Alphabet::dna());
            let ac = AhoCorasick::build(&Dictionary::new(patterns));
            for pram in [Pram::seq(), Pram::par()] {
                let (reach, cost) = pram.metered(|p| matcher.reach_table(p, &text));
                assert_eq!(reach, ac.reach_table(&text));
                assert_eq!(cost, scan_cost(&text));
                for start in [0, 100, text.len() - 1] {
                    let (m, cost) = pram.metered(|p| matcher.longest_prefix_at(p, &text, start));
                    assert_eq!(m, ac.longest_prefix_at(&text, start));
                    let read = (m.map_or(0, |(len, _)| len as usize) + 1).min(text.len() - start);
                    assert_eq!(cost, scan_cost(&text[..read]));
                }
            }
        }
    }

    #[test]
    fn merged_matching_agrees_with_whole_dict_oracle() {
        let alpha = Alphabet::dna();
        let patterns = random_dictionary(11, 1200, 1, 6, alpha);
        let pram = Pram::seq();
        let seg = SegmentedMatcher::build(&pram, patterns.clone());
        assert!(seg.num_segments() > 1);
        let text = text_with_planted_matches(12, &patterns, 600, 50, alpha);
        // The premise: some pattern of the first segment recurs in a later one.
        let first = segment_spans(&patterns)[0].clone();
        assert!(patterns[first.clone()]
            .iter()
            .any(|p| patterns[first.end..].contains(p)));
        let oracle = AhoCorasick::build(&Dictionary::new(patterns.clone())).match_text(&text);
        // Duplicates across segments answer under the smallest global id,
        // as the whole-list automaton's duplicate chains do.
        assert_eq!(
            seg.match_text_verified(&pram, &text),
            (oracle.clone(), false)
        );
        assert_eq!(seg.match_text(&pram, &text), oracle);
        assert_eq!(seg.ac_match(&text), oracle);
    }
}
