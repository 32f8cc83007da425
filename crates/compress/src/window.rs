//! Windowed LZ77 — the practical (gzip-style) sequential variant.
//!
//! The paper's LZ1 references arbitrarily far back; real codecs bound the
//! back-reference distance by a *window* so the decoder needs bounded
//! memory. This module provides the classic hash-chain greedy parser: a
//! chained hash table over 3-byte anchors, longest match within the
//! window, emitted in the same [`Token`] format as the parallel parser
//! (so both decoders apply). With `window >= n` it produces a parse with
//! exactly the greedy phrase lengths of [`crate::lz1_compress`].

use crate::tokens::Token;

/// Minimum match length the hash chains can certify.
const MIN_MATCH: usize = 3;

/// Greedy windowed LZ77. Sequential, expected `O(n + total chain steps)`.
///
/// Copies are emitted only when at least [`MIN_MATCH`] bytes long (matching
/// the `len >= 2` rule of the unbounded parser would need 2-byte anchors;
/// 3 is the classical choice — gzip's). `window == usize::MAX` disables the
/// distance bound.
#[must_use]
pub fn lz77_windowed(text: &[u8], window: usize) -> Vec<Token> {
    let n = text.len();
    let mut out = Vec::new();
    if n == 0 {
        return out;
    }
    assert!(window >= 1, "window must be positive");

    // head[h] = most recent position with anchor hash h; prev[i] = previous
    // position with the same anchor as i.
    const HBITS: u32 = 15;
    let hash = |i: usize| -> usize {
        let x = (u32::from(text[i]) << 16) | (u32::from(text[i + 1]) << 8) | u32::from(text[i + 2]);
        (x.wrapping_mul(0x9E37_79B1) >> (32 - HBITS)) as usize
    };
    let mut head = vec![usize::MAX; 1 << HBITS];
    let mut prev = vec![usize::MAX; n];
    let insert = |i: usize, head: &mut [usize], prev: &mut [usize]| {
        if i + MIN_MATCH <= n {
            let h = hash(i);
            prev[i] = head[h];
            head[h] = i;
        }
    };

    let mut i = 0usize;
    while i < n {
        let mut best_len = 0usize;
        let mut best_src = 0usize;
        if i + MIN_MATCH <= n {
            let lo = i.saturating_sub(window);
            let mut cand = head[hash(i)];
            while cand != usize::MAX && cand >= lo {
                // Extend; allow self-overlap like the unbounded parser.
                let mut l = 0;
                while i + l < n && text[cand + l] == text[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_src = cand;
                }
                cand = prev[cand];
            }
        }
        if best_len >= MIN_MATCH {
            out.push(Token::Copy {
                src: best_src as u32,
                len: best_len as u32,
            });
            for j in i..i + best_len {
                insert(j, &mut head, &mut prev);
            }
            i += best_len;
        } else {
            out.push(Token::Literal(text[i]));
            insert(i, &mut head, &mut prev);
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardict_pram::Pram;
    use pardict_workloads::{markov_text, periodic_text, random_text, repetitive_text, Alphabet};

    fn starts_of(tokens: &[Token]) -> Vec<usize> {
        tokens
            .iter()
            .scan(0usize, |acc, t| {
                let s = *acc;
                *acc += t.expanded_len();
                Some(s)
            })
            .collect()
    }

    fn check(text: &[u8], window: usize) {
        let tokens = lz77_windowed(text, window);
        let mut out = Vec::new();
        crate::lz1_decode(&Pram::seq(), &tokens, &mut out, text.len()).unwrap();
        assert_eq!(out, text, "roundtrip");
        // Window constraint honoured.
        let starts = starts_of(&tokens);
        for (t, tok) in tokens.iter().enumerate() {
            if let Token::Copy { src, .. } = *tok {
                let dst = starts[t];
                assert!((src as usize) < dst);
                assert!(dst - src as usize <= window, "window violated");
            }
        }
    }

    #[test]
    fn roundtrips_across_windows() {
        for text in [
            random_text(1, 800, Alphabet::lowercase()),
            markov_text(2, 1000, Alphabet::dna()),
            repetitive_text(3, 1200, Alphabet::binary()),
            periodic_text(b"abcab", 700),
        ] {
            for window in [4usize, 32, 256, usize::MAX] {
                check(&text, window);
            }
        }
    }

    #[test]
    fn unbounded_window_finds_maximal_matches() {
        // With no window bound the hash chains see every prior anchor, so
        // each emitted copy must be the *longest* previous match (greedy),
        // verified against a brute-force oracle.
        let text = repetitive_text(9, 400, Alphabet::dna());
        let tokens = lz77_windowed(&text, usize::MAX);
        let starts = starts_of(&tokens);
        for (t, tok) in tokens.iter().enumerate() {
            if let Token::Copy { src, len } = *tok {
                let i = starts[t];
                // Claimed occurrence is real…
                for k in 0..len as usize {
                    assert_eq!(text[src as usize + k], text[i + k]);
                }
                // …and maximal over all earlier sources.
                let mut best = 0usize;
                for j in 0..i {
                    let mut l = 0;
                    while i + l < text.len() && text[j + l] == text[i + l] {
                        l += 1;
                    }
                    best = best.max(l);
                }
                assert_eq!(len as usize, best, "copy at {i} not maximal");
            }
        }
    }

    #[test]
    fn smaller_windows_compress_worse() {
        let text = repetitive_text(4, 8000, Alphabet::dna());
        let small = lz77_windowed(&text, 64).len();
        let large = lz77_windowed(&text, 4096).len();
        let unbounded = lz77_windowed(&text, usize::MAX).len();
        assert!(large <= small, "larger window can't be worse");
        assert!(unbounded <= large);
        assert!(unbounded < small, "window should matter on repetitive data");
    }

    #[test]
    fn tiny_inputs() {
        check(b"", 16);
        check(b"a", 16);
        check(b"ab", 16);
        check(b"aaa", 1);
    }
}
