//! LZ1 (LZ77) compression and uncompression (§4, Theorems 4.2 and 4.3).
//!
//! **Compression.** Lemma 4.1 reduces the greedy (optimal) parse to the
//! match table `M[i] = (L[A[i]], |A[i]|)`: `A[i]` is the deepest suffix-tree
//! ancestor of leaf `i` with an earlier leaf, `L` its leftmost leaf. Tree
//! nodes are LCP intervals of the suffix array, so `|A[i]|` is the larger LCP
//! with the nearest ranks either side holding an earlier position (two ANSV
//! passes), `A[i]` the interval of that depth around `i`'s rank, and
//! `L[A[i]]` its range minimum over SA values. The parse positions are the
//! ancestors of node 0 in the jump tree `i → i + max(k_i, 1)` — an
//! Euler-tour ancestor test. Everything is `O(n)` work, polylog depth.
//!
//! **Uncompression.** Prefix sums place the phrases; each copied position
//! points at its source (strictly earlier, even for self-overlapping
//! copies), so the pointers form a forest whose roots are literals; one
//! Euler tour resolves every position's literal in `O(n)` work — the route
//! that avoids pointer-jumping's extra log factor.
//!
//! **The sequential halves.** [`lz1_compress`] and [`lz1_decompress`] are
//! the Theorem 4.2 / 4.3 reproduction and the oracles of what ships. A
//! caller whose parallelism lies elsewhere (stream blocks, service lanes)
//! emits with [`crate::delta_compress`] and decodes with [`lz1_decode`]
//! (one round per phrase, `n` work). Its greedy walk over
//! [`SuffixArrays::build_exact`] needs `M[i]` only where a phrase starts,
//! so it evaluates Lemma 4.1 there and jumps by the phrase length
//! (Kärkkäinen–Kempa–Puglisi, CPM 2013), its nearest earlier ranks two
//! stack passes. The seeded table and the walk call one per-position rule,
//! so the walk's tokens are the table's greedy parse by construction.

use crate::tokens::{DecodeError, Token};
use pardict_graph::{EulerTour, Forest};
use pardict_pram::{Pram, SplitMix64};
use pardict_rmq::{ansv_par, ansv_seq, LinearRmq, Side, SparseTable};
use pardict_suffix::{SuffixArrays, SuffixTree};

/// Longest-previous-factor (LPF) array: for every position `i`, the
/// longest substring starting at `i` that also occurs starting at some
/// `src < i`, as `(src, len)` with `src` the leftmost such occurrence
/// (`(0, 0)` when `text[i]` is a first occurrence). Work-optimal
/// (Lemma 4.1); the quantity LZ1 greedily consumes, exposed for
/// stringology consumers.
#[must_use]
pub fn longest_previous_factor(pram: &Pram, text: &[u8], seed: u64) -> Vec<(u32, u32)> {
    if text.is_empty() {
        return Vec::new();
    }
    previous_matches(pram, &SuffixArrays::build(pram, text, seed).0)
}

/// [`longest_previous_factor`] over the arrays of a pre-built suffix tree —
/// lets callers (and experiment E4) separate the shared construction cost
/// from the Lemma 4.1 match-table computation itself.
#[must_use]
pub fn longest_previous_factor_from_tree(pram: &Pram, st: &SuffixTree) -> Vec<(u32, u32)> {
    previous_matches(pram, st.arrays())
}

/// Lemma 4.1 over the suffix array: `(leftmost src < i, maximal len)` for
/// every position `i`, `(0, 0)` if none. `O(n)` work, `O(log n)` depth.
pub(crate) fn previous_matches(pram: &Pram, arrays: &SuffixArrays) -> Vec<(u32, u32)> {
    let sources = Sources::build(pram, arrays, |pos, side| ansv_par(pram, pos, side));
    pram.tabulate(arrays.sa.len() - 1, |i| sources.previous_match(arrays, i))
}

/// The greedy parse of `text[from..]` (the text of `arrays`), evaluating
/// Lemma 4.1 only where a phrase starts and jumping by the phrase's length:
/// the table [`previous_matches`] builds, read where the parse stops
/// (Kärkkäinen–Kempa–Puglisi). Its nearest earlier ranks are two stack
/// passes charged as sequential loops; each phrase is one round.
pub(crate) fn parse_from(pram: &Pram, arrays: &SuffixArrays, from: usize) -> Vec<Token> {
    let sources = Sources::build(pram, arrays, |pos, side| {
        let (nearest, ops) = ansv_seq(pos, side);
        pram.ledger().sequential(ops);
        nearest
    });
    let text = arrays.text();
    let mut out = Vec::new();
    let mut i = from;
    while i < text.len() {
        let (src, len) = sources.previous_match(arrays, i);
        pram.ledger().round(1);
        if len >= 2 {
            out.push(Token::Copy { src, len });
            i += len as usize;
        } else {
            out.push(Token::Literal(text[i]));
            i += 1;
        }
    }
    out
}

/// What Lemma 4.1 reads beside the LCP intervals, per rank: the nearest
/// ranks either side holding an earlier text position (the previous and
/// next smaller SA values) and range minima over SA values, whose argmin
/// is an interval's leftmost leaf `L`.
struct Sources {
    prev: Vec<usize>,
    next: Vec<usize>,
    leftmost: LinearRmq,
}

impl Sources {
    /// The nearest smaller SA values by `nearest`, and the range minima.
    fn build(
        pram: &Pram,
        arrays: &SuffixArrays,
        nearest: impl Fn(&[i64], Side) -> Vec<usize>,
    ) -> Self {
        let (sa, m) = (&arrays.sa, arrays.sa.len());
        let pos: Vec<i64> = pram.tabulate(m, |r| i64::from(sa[r]));
        Self {
            prev: nearest(&pos, Side::Left),
            next: nearest(&pos, Side::Right),
            leftmost: LinearRmq::new_min(pram, pram.tabulate(m, |r| sa[r])),
        }
    }

    /// Lemma 4.1 at text position `i`: `|A[i]|` is the larger of the two
    /// LCP range minima towards the nearest earlier ranks, `A[i]` the LCP
    /// interval `left[k]..right[k]` of that boundary `k`, and `L[A[i]]` its
    /// leftmost leaf; `(0, 0)` when no earlier position shares a character.
    fn previous_match(&self, arrays: &SuffixArrays, i: usize) -> (u32, u32) {
        let lcp = &arrays.lcp;
        let r = arrays.rank[i] as usize;
        // The least boundary towards each neighbour; on a tie both lie in
        // the same interval.
        let (prev, next) = (self.prev[r], self.next[r]);
        let left = (prev != usize::MAX).then(|| lcp.query(prev + 1, r));
        let right = (next != usize::MAX).then(|| lcp.query(r + 1, next));
        match left.into_iter().chain(right).max_by_key(|&k| lcp.keys()[k]) {
            Some(k) if lcp.keys()[k] > 0 => {
                let (lo, hi) = (arrays.left[k], arrays.right[k] - 1);
                let leftmost = &self.leftmost;
                (leftmost.keys()[leftmost.query(lo, hi)], lcp.keys()[k])
            }
            _ => (0, 0), // no previous occurrence: literal
        }
    }
}

/// Parallel LZ1 compression (Theorem 4.2): `O(n)` work, polylog depth.
#[must_use]
pub fn lz1_compress(pram: &Pram, text: &[u8], seed: u64) -> Vec<Token> {
    if text.is_empty() {
        return Vec::new();
    }
    let mut rng = SplitMix64::new(seed);
    let matches = longest_previous_factor(pram, text, rng.next_u64());
    emit_tokens(pram, text, &matches, rng.next_u64())
}

/// Turn per-position longest previous matches into the greedy parse.
fn emit_tokens(pram: &Pram, text: &[u8], matches: &[(u32, u32)], seed: u64) -> Vec<Token> {
    let n = text.len();
    // Jump tree: i -> i + max(len, 1); n is the root.
    let parent: Vec<usize> = pram.tabulate(n + 1, |i| {
        if i == n {
            n
        } else {
            (i + (matches[i].1 as usize).max(1)).min(n)
        }
    });
    let forest = Forest::from_parents(pram, &parent);
    let tour = EulerTour::build(pram, &forest, seed);
    // Parse positions: ancestors of node 0 (except the root n).
    let on_path: Vec<bool> = pram.tabulate(n, |v| tour.is_ancestor(v, 0));
    let cuts = pram.pack_indices(&on_path);
    pram.map(&cuts, |_, &i| {
        let (src, len) = matches[i];
        if len >= 2 {
            Token::Copy { src, len }
        } else {
            Token::Literal(text[i])
        }
    })
}

/// Uncompression shared by both routes: build the copy forest — every
/// copied position points at its (strictly earlier) source, literal
/// positions are roots carrying the character — let `roots_of` resolve
/// each position's root, and read the root's literal.
fn decompress_via(
    pram: &Pram,
    tokens: &[Token],
    roots_of: impl FnOnce(&Pram, &[usize]) -> Vec<usize>,
) -> Vec<u8> {
    // Phrase start offsets by prefix sums.
    let lens: Vec<u64> = pram.map(tokens, |_, t| t.expanded_len() as u64);
    let starts = pram.scan_exclusive_sum(&lens);
    let n = (starts.last().copied().unwrap_or(0) + lens.last().copied().unwrap_or(0)) as usize;
    if n == 0 {
        return Vec::new();
    }

    // For every position: its phrase index, via a prefix-max scan over
    // scattered phrase starts.
    let mut start_marks = vec![(0u64, u64::MAX); n];
    pram.ledger().round(tokens.len() as u64);
    for (t, &s) in starts.iter().enumerate() {
        start_marks[s as usize] = (1, t as u64);
    }
    let block_of =
        pram.scan_inclusive(
            &start_marks,
            (0u64, u64::MAX),
            |a, b| {
                if b.0 == 1 {
                    b
                } else {
                    a
                }
            },
        );

    let parent: Vec<usize> = pram.tabulate(n, |i| {
        let t = block_of[i].1 as usize;
        match tokens[t] {
            Token::Literal(_) => i,
            Token::Copy { src, .. } => src as usize + (i - starts[t] as usize),
        }
    });
    let root_of = roots_of(pram, &parent);
    pram.tabulate(n, |i| {
        let t = block_of[root_of[i]].1 as usize;
        match tokens[t] {
            Token::Literal(c) => c,
            Token::Copy { .. } => unreachable!("forest roots are literals"),
        }
    })
}

/// Parallel LZ1 uncompression (Theorem 4.3): `O(n)` work, polylog depth.
/// `n` (the decoded length) is assumed known, as in the paper.
#[must_use]
pub fn lz1_decompress(pram: &Pram, tokens: &[Token], seed: u64) -> Vec<u8> {
    decompress_via(pram, tokens, |pram, parent| {
        let forest = Forest::from_parents(pram, parent);
        EulerTour::build(pram, &forest, seed ^ 0xDEC0).root_of
    })
}

/// Pointer-jumping uncompression — the ablation partner for
/// [`lz1_decompress`]: identical output, but the copy forest is resolved by
/// repeated doubling (`O(n log n)` work, `O(log n)` depth) instead of one
/// Euler tour. Experiment E12 measures the log-factor gap that makes the
/// Euler route the Theorem 4.3 choice.
#[must_use]
pub fn lz1_decompress_jump(pram: &Pram, tokens: &[Token]) -> Vec<u8> {
    decompress_via(pram, tokens, pardict_pram::pointer_jump_roots)
}

/// Phrase-sequential LZ1 uncompression — the decoder `pardict-stream`
/// blocks run; [`lz1_decompress`] is its oracle.
///
/// Appends exactly `n` bytes to `out`. Copies address all of `out`, so
/// whatever it already holds (a delta base) is a prefix they may copy
/// from. Each phrase costs what it writes: a literal is one round of width
/// 1, and a copy of `len` bytes from `p = dst − src` back is `len` work
/// over ⌈len / p⌉ rounds (a self-overlapping copy repeats its last `p`
/// bytes). So work is `n` and depth the phrase count plus the overlaps.
///
/// # Errors
/// [`DecodeError::BadReference`] when a copy's source is not strictly
/// earlier than its destination, [`DecodeError::LengthMismatch`] when the
/// tokens expand to more or fewer than `n` bytes. The tokens are checked
/// before anything is allocated, so `out` is untouched on error and never
/// grows past its length plus `n`.
pub fn lz1_decode(
    pram: &Pram,
    tokens: &[Token],
    out: &mut Vec<u8>,
    n: usize,
) -> Result<(), DecodeError> {
    let mut dst = out.len() as u64;
    let end = dst + n as u64;
    for t in tokens {
        if let Token::Copy { src, .. } = *t {
            if u64::from(src) >= dst {
                return Err(DecodeError::BadReference);
            }
        }
        dst += t.expanded_len() as u64;
        if dst > end {
            return Err(DecodeError::LengthMismatch);
        }
    }
    if dst != end {
        return Err(DecodeError::LengthMismatch);
    }
    out.reserve_exact(n);
    for t in tokens {
        match *t {
            Token::Literal(c) => {
                pram.ledger().round(1);
                out.push(c);
            }
            Token::Copy { src, len } => {
                let (mut from, mut left) = (src as usize, len as usize);
                let period = out.len() - from;
                pram.ledger().charge_work(u64::from(len));
                pram.ledger().charge_depth(left.div_ceil(period) as u64);
                while left > 0 {
                    let k = left.min(period);
                    out.extend_from_within(from..from + k);
                    (from, left) = (from + k, left - k);
                }
            }
        }
    }
    Ok(())
}

/// Whether `tokens`, decoded after `base` (empty but for a delta), spell
/// exactly `text`: the one check a parse passes before it ships. Shipped
/// copy lengths come from an exact LCP array, so this is defence in depth.
/// Charged one [`lz1_decode`], then one compare round only when the decode
/// succeeds.
#[must_use]
pub(crate) fn decodes_back(pram: &Pram, tokens: &[Token], base: &[u8], text: &[u8]) -> bool {
    let mut out = Vec::with_capacity(base.len() + text.len());
    out.extend_from_slice(base);
    if lz1_decode(pram, tokens, &mut out, text.len()).is_err() {
        return false;
    }
    pram.ledger().round(text.len() as u64); // the compare
    out[base.len()..] == *text
}

/// Previous-best parallel envelope (`O(n log n)` work, `O(log n)` depth):
/// every position independently finds its longest previous match by binary
/// searching the suffix array for the nearest earlier-position suffix.
/// Exact — doubles as the oracle for [`lz1_compress`]'s match table.
#[must_use]
pub fn lz1_nlogn_baseline(pram: &Pram, text: &[u8], seed: u64) -> Vec<Token> {
    let n = text.len();
    let (arrays, _) = SuffixArrays::build(pram, text, seed);
    let (sa, lcp) = (&arrays.sa, &arrays.lcp);
    let m = sa.len();
    // Range-min over suffix-array *values* (positions).
    let sa_vals: Vec<i64> = pram.tabulate(m, |k| i64::from(sa[k]));
    let sa_min = SparseTable::new_min(pram, &sa_vals);
    // O(1) lcp between SA positions a < b.
    let lcp_between = |a: usize, b: usize| lcp.keys()[lcp.query(a + 1, b)] as usize;

    let matches: Vec<(u32, u32)> = pram.tabulate_costed(n, |i| {
        let r = arrays.rank[i] as usize;
        let mut ops = 2u64;
        let mut best: (u32, u32) = (0, 0);
        // Nearest SA position left of r with value < i: binary search on
        // range minima.
        if r > 0 && sa_min.query_value(0, r - 1) < i as i64 {
            let (mut lo, mut hi) = (0usize, r - 1);
            while lo < hi {
                let mid = (lo + hi).div_ceil(2);
                ops += 1;
                if sa_min.query_value(mid, r - 1) < i as i64 {
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            let l = lcp_between(lo, r).min(n - i) as u32;
            if l > best.1 {
                best = (sa[lo], l);
            }
        }
        if r + 1 < m && sa_min.query_value(r + 1, m - 1) < i as i64 {
            let (mut lo, mut hi) = (r + 1, m - 1);
            while lo < hi {
                let mid = (lo + hi) / 2;
                ops += 1;
                if sa_min.query_value(r + 1, mid) < i as i64 {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            let l = lcp_between(r, lo).min(n - i) as u32;
            if l > best.1 {
                best = (sa[lo], l);
            }
        }
        (best, ops)
    });
    emit_tokens(pram, text, &matches, seed ^ 0xBA5E)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardict_workloads::{
        dna_text, fibonacci_word, markov_text, periodic_text, random_text, repetitive_text,
        Alphabet,
    };

    /// Greedy-parse oracle by brute force longest previous match.
    fn oracle_parse(text: &[u8]) -> Vec<Token> {
        let n = text.len();
        let mut out = Vec::new();
        let mut i = 0;
        while i < n {
            let mut best = (0usize, 0usize);
            for j in 0..i {
                let mut l = 0;
                while i + l < n && text[j + l] == text[i + l] {
                    l += 1;
                }
                if l > best.1 {
                    best = (j, l);
                }
            }
            if best.1 >= 2 {
                out.push(Token::Copy {
                    src: best.0 as u32,
                    len: best.1 as u32,
                });
                i += best.1;
            } else {
                out.push(Token::Literal(text[i]));
                i += 1;
            }
        }
        out
    }

    fn token_lens(ts: &[Token]) -> Vec<usize> {
        ts.iter().map(Token::expanded_len).collect()
    }

    fn check_roundtrip(text: &[u8]) {
        let pram = Pram::seq();
        let tokens = lz1_compress(&pram, text, 99);
        // Phrase boundaries must match the greedy oracle (the parse is
        // unique in lengths; sources may differ among equally long
        // matches).
        assert_eq!(token_lens(&tokens), token_lens(&oracle_parse(text)), "lens");
        // Every copy token must be a real earlier occurrence.
        let starts: Vec<usize> = tokens
            .iter()
            .scan(0usize, |acc, t| {
                let s = *acc;
                *acc += t.expanded_len();
                Some(s)
            })
            .collect();
        for (t, tok) in tokens.iter().enumerate() {
            if let Token::Copy { src, len } = *tok {
                let dst = starts[t];
                assert!((src as usize) < dst);
                for k in 0..len as usize {
                    assert_eq!(text[src as usize + k], text[dst + k], "copy content");
                }
            }
        }
        // Round-trips, both decoders.
        let mut out = Vec::new();
        lz1_decode(&pram, &tokens, &mut out, text.len()).unwrap();
        assert_eq!(out, text);
        assert_eq!(lz1_decompress(&pram, &tokens, 3), text);
        // Baseline agrees.
        let base = lz1_nlogn_baseline(&pram, text, 7);
        assert_eq!(token_lens(&base), token_lens(&tokens), "baseline lens");
        // The shipped emitter agrees, token for token.
        assert_eq!(crate::delta_compress(&pram, &[], text), tokens);
    }

    /// The leftmost longest previous factor of every position, by brute
    /// force.
    fn brute_lpf(text: &[u8]) -> Vec<(u32, u32)> {
        (0..text.len())
            .map(|i| {
                let (mut src, mut len) = (0, 0);
                for j in 0..i {
                    let l = text[j..].iter().zip(&text[i..]).take_while(|(a, b)| a == b);
                    let l = l.count();
                    if l > len {
                        (src, len) = (j, l);
                    }
                }
                (src as u32, len as u32)
            })
            .collect()
    }

    /// The exact route's match table is the leftmost longest previous
    /// factor, by brute force, on every block shape: random (σ = 2, 4, 26),
    /// periodic, unary, Fibonacci and incompressible. So is every phrase
    /// of the on-demand walk, after no base and after a base it may copy
    /// from.
    #[test]
    fn exact_lpf_is_the_leftmost_longest_previous_factor() {
        let pram = Pram::seq();
        for seed in 0..6u64 {
            let n = [0, 1, 2, 57, 128, 299][seed as usize];
            let texts = [
                random_text(seed, n, Alphabet::new(b'a', 2)),
                random_text(seed, n, Alphabet::new(b'a', 4)),
                random_text(seed, n, Alphabet::new(b'a', 26)),
                periodic_text(&random_text(seed, 1 + seed as usize, Alphabet::dna()), n),
                vec![b'z'; n],
                fibonacci_word(n),
                random_text(seed, n, Alphabet::new(1, 255)),
            ];
            for text in texts {
                let got = previous_matches(&pram, &SuffixArrays::build_exact(&pram, &text));
                assert_eq!(got, brute_lpf(&text), "{text:?}");
                // An earlier version: the text with its middle byte changed.
                let mut edited = text.clone();
                if let Some(c) = edited.get_mut(n / 2) {
                    *c = if *c == b'a' { b'b' } else { b'a' };
                }
                for base in [
                    &[][..],
                    &random_text(seed, 40, Alphabet::new(b'a', 4)),
                    &edited,
                ] {
                    let joint = [base, &text[..]].concat();
                    let want = brute_lpf(&joint);
                    let tokens =
                        parse_from(&pram, &SuffixArrays::build_exact(&pram, &joint), base.len());
                    let mut i = base.len();
                    for token in tokens {
                        let (src, len) = want[i];
                        let expect = if len >= 2 {
                            Token::Copy { src, len }
                        } else {
                            Token::Literal(joint[i])
                        };
                        assert_eq!(
                            token,
                            expect,
                            "position {i} of {joint:?} after {}",
                            base.len()
                        );
                        i += token.expanded_len();
                    }
                    assert_eq!(i, joint.len());
                }
            }
        }
    }

    #[test]
    fn classic_strings() {
        check_roundtrip(b"");
        check_roundtrip(b"a");
        check_roundtrip(b"aaaaaaa");
        check_roundtrip(b"abcabcabc");
        check_roundtrip(b"mississippi");
        check_roundtrip(b"yabbadabbadoo");
    }

    #[test]
    fn synthetic_corpora() {
        check_roundtrip(&random_text(1, 300, Alphabet::lowercase()));
        check_roundtrip(&markov_text(2, 400, Alphabet::dna()));
        check_roundtrip(&dna_text(3, 350));
        check_roundtrip(&repetitive_text(4, 500, Alphabet::binary()));
        check_roundtrip(&fibonacci_word(233));
        check_roundtrip(&periodic_text(b"abcab", 200));
    }

    #[test]
    fn self_referential_runs() {
        // "aaaa…": phrase 2 copies from position 0 with overlap.
        let text = vec![b'a'; 100];
        let pram = Pram::seq();
        let tokens = lz1_compress(&pram, &text, 5);
        assert_eq!(tokens.len(), 2);
        assert!(matches!(tokens[1], Token::Copy { src: 0, len: 99 }));
        assert_eq!(lz1_decompress(&pram, &tokens, 1), text);
    }

    #[test]
    fn sequential_decode_copies_overlaps_and_charges_per_phrase() {
        // "ab" then copy 5 from 0: period 2, so ⌈5 / 2⌉ = 3 rounds.
        let tokens = [
            Token::Literal(b'a'),
            Token::Literal(b'b'),
            Token::Copy { src: 0, len: 5 },
        ];
        let pram = Pram::seq();
        let mut out = Vec::new();
        let ((), cost) = pram.metered(|p| lz1_decode(p, &tokens, &mut out, 7).unwrap());
        assert_eq!(out, b"abababa");
        assert_eq!(cost, pardict_pram::Cost { work: 7, depth: 5 });
        // A base prefix is addressable; errors leave `out` untouched.
        let mut out = b"xy".to_vec();
        lz1_decode(&pram, &[Token::Copy { src: 1, len: 3 }], &mut out, 3).unwrap();
        assert_eq!(out, b"xyyyy");
        use DecodeError::{BadReference, LengthMismatch};
        for (src, len, n, want) in [
            (5, 1, 1, BadReference),
            (0, 4, 3, LengthMismatch),
            (0, 2, 3, LengthMismatch),
        ] {
            let bad = [Token::Copy { src, len }];
            assert_eq!(lz1_decode(&pram, &bad, &mut out, n), Err(want));
            assert_eq!(out, b"xyyyy");
        }
    }

    /// The one decode-and-compare: a decode's cost plus one compare round
    /// when the tokens decode, nothing when they expand to the wrong
    /// length; a base prefix is addressable and not compared.
    #[test]
    fn decodes_back_charges_a_decode_then_one_compare_round() {
        use pardict_pram::Cost;
        let tokens = [
            Token::Literal(b'a'),
            Token::Literal(b'b'),
            Token::Copy { src: 0, len: 5 },
        ];
        let pram = Pram::seq();
        let check =
            |base: &[u8], text: &[u8]| pram.metered(|p| decodes_back(p, &tokens, base, text));
        // The decode is (7, 5) and the compare (7, 1).
        let charged = Cost { work: 14, depth: 6 };
        assert_eq!(check(b"", b"abababa"), (true, charged));
        assert_eq!(check(b"", b"abababb"), (false, charged));
        assert_eq!(check(b"", b"abab"), (false, Cost::default()));
        let shifted = [Token::Copy { src: 1, len: 7 }];
        assert!(decodes_back(&pram, &shifted, b"xab", b"abababa"));
        assert!(!decodes_back(&pram, &shifted, b"xba", b"abababa"));
    }

    #[test]
    fn pointer_jump_decoder_agrees_and_shows_log_growth() {
        // The honest ablation: the doubling decoder's work/char grows with
        // the copy-chain depth (Θ(n log n) worst case) while the Euler
        // route stays flat — even though the Euler route's *constant* is
        // larger at laptop sizes (recorded in E12).
        let mut jump_per = Vec::new();
        let mut euler_per = Vec::new();
        for n in [1usize << 8, 1 << 12, 1 << 16] {
            // All-equal text: copy chains as deep as they get.
            let text = vec![b'z'; n];
            let pram = Pram::seq();
            let tokens = lz1_compress(&pram, &text, 3);
            let p1 = Pram::seq();
            let (a, c_euler) = p1.metered(|p| lz1_decompress(p, &tokens, 4));
            let p2 = Pram::seq();
            let (b, c_jump) = p2.metered(|p| lz1_decompress_jump(p, &tokens));
            assert_eq!(a, text);
            assert_eq!(b, text);
            jump_per.push(c_jump.work as f64 / n as f64);
            euler_per.push(c_euler.work as f64 / n as f64);
        }
        assert!(
            jump_per[2] > jump_per[0] * 1.5,
            "doubling work/char should grow with chain depth: {jump_per:?}"
        );
        assert!(
            euler_per[2] < euler_per[0] * 1.5 + 4.0,
            "euler work/char should stay flat: {euler_per:?}"
        );
    }

    #[test]
    fn compression_work_is_linear() {
        let mut per_char = Vec::new();
        for n in [1usize << 12, 1 << 14, 1 << 16] {
            let pram = Pram::seq();
            let text = markov_text(9, n, Alphabet::dna());
            let (_, cost) = pram.metered(|p| lz1_compress(p, &text, 2));
            per_char.push(cost.work as f64 / n as f64);
        }
        assert!(
            per_char[2] < per_char[0] * 1.6 + 4.0,
            "lz1 work superlinear: {per_char:?}"
        );
    }

    #[test]
    fn decompression_work_linear_depth_logarithmic() {
        let mut per_char = Vec::new();
        for n in [1usize << 12, 1 << 14, 1 << 16] {
            let pram = Pram::seq();
            let text = repetitive_text(11, n, Alphabet::dna());
            let tokens = lz1_compress(&pram, &text, 4);
            let (out, cost) = pram.metered(|p| lz1_decompress(p, &tokens, 6));
            assert_eq!(out, text);
            per_char.push(cost.work as f64 / n as f64);
            let lg = u64::from(pardict_pram::ceil_log2(n));
            assert!(cost.depth < 200 * lg, "depth {} at n={n}", cost.depth);
        }
        assert!(
            per_char[2] < per_char[0] * 1.5 + 4.0,
            "unlz1 work superlinear: {per_char:?}"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use pardict_workloads::{shaped_len, shaped_text};
    use proptest::prelude::*;

    /// The greedy parse of `text[from..]` off the whole match table.
    fn greedy_over_table(text: &[u8], table: &[(u32, u32)], from: usize) -> Vec<Token> {
        let mut out = Vec::new();
        let mut i = from;
        while i < text.len() {
            let (src, len) = table[i];
            out.push(if len >= 2 {
                Token::Copy { src, len }
            } else {
                Token::Literal(text[i])
            });
            i += (len as usize).max(1);
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Reading Lemma 4.1 only at phrase starts parses exactly as the
        /// greedy walk over the whole table does, token for token: on every
        /// block shape, at small lengths and at 2^k ± 1 up to 4 097, after
        /// no base and after a nonempty base (another shape, or the text
        /// with one byte changed). `delta_compress` ships that parse.
        #[test]
        fn on_demand_walk_equals_the_greedy_parse_of_the_whole_table(
            shape in 0u64..8,
            small in 0usize..301,
            edge in 0usize..16,
            seed in 0u64..1000,
            base_shape in 0u64..9,
            base_small in 1usize..301,
        ) {
            let text = shaped_text(shape, shaped_len(small, edge), seed);
            let base = if base_shape < 8 {
                shaped_text(base_shape, base_small, seed ^ 0xBA5E)
            } else {
                let mut edited = text.clone();
                if let Some(c) = edited.get_mut(base_small % text.len().max(1)) {
                    *c = if *c == b'a' { b'b' } else { b'a' };
                }
                edited.push(b'a');
                edited
            };
            let pram = Pram::seq();
            for base in [&[][..], &base[..]] {
                let joint = [base, &text[..]].concat();
                let arrays = SuffixArrays::build_exact(&pram, &joint);
                let want = greedy_over_table(&joint, &previous_matches(&pram, &arrays), base.len());
                prop_assert_eq!(&parse_from(&pram, &arrays, base.len()), &want);
                prop_assert_eq!(crate::delta_compress(&pram, base, &text), want);
            }
        }
    }
}
