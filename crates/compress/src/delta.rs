//! Differential (delta) compression against a base version.
//!
//! The paper's motivating databases hold many near-identical strings
//! (document versions, genome assemblies). LZ1 gives delta encoding for
//! free: parse `base · new` but emit phrases only for the `new` part —
//! copies may reference anywhere earlier, so shared chunks become single
//! tokens into `base`. Decoding seeds the output with `base` and runs the
//! phrase-sequential [`crate::lz1_decode`] over the new tokens.
//!
//! Every shipped LZ1 parse is one (stream blocks, Compress replies and the
//! CLI use an empty base): Theorem 4.2's sequential half over exact,
//! seed-free suffix arrays, reading Lemma 4.1's match table only at the
//! phrase starts of `new`. Work and depth are linear in `|base| + |new|`.

use crate::lz1::{decodes_back, lz1_decode, parse_from};
use crate::tokens::Token;
use pardict_pram::Pram;
use pardict_suffix::SuffixArrays;

/// Compress `new` against `base`: a token stream whose copies may
/// reference the concatenation `base · new` at absolute positions. The
/// greedy parse walks `new` phrase by phrase over the exact suffix arrays of
/// `base · new`, evaluating Lemma 4.1 (leftmost longest previous factor)
/// at each phrase start only. Copy lengths are exact; still, a parse that
/// does not decode back to `new` gives way to the all-literal one.
/// `base · new` must be NUL-free.
#[must_use]
pub fn delta_compress(pram: &Pram, base: &[u8], new: &[u8]) -> Vec<Token> {
    if new.is_empty() {
        return Vec::new();
    }
    let joint = [base, new].concat();
    // Greedy parse of the `new` region only.
    let tokens = parse_from(pram, &SuffixArrays::build_exact(pram, &joint), base.len());
    #[cfg(test)]
    let tokens = match tests::TAMPER.with(std::cell::Cell::take) {
        Some(tamper) => tamper(tokens),
        None => tokens,
    };
    if decodes_back(pram, &tokens, base, new) {
        return tokens;
    }
    pram.ledger().round(new.len() as u64);
    new.iter().map(|&b| Token::Literal(b)).collect()
}

/// Decode a [`delta_compress`] stream given the same `base`: copy `base`
/// in one round, decode the tokens after it, strip it again.
///
/// # Panics
/// When a copy does not reference strictly earlier data of `base · new`
/// ([`crate::decode_tokens_from`] with origin `|base|` rules that out).
#[must_use]
pub fn delta_decompress(pram: &Pram, base: &[u8], tokens: &[Token]) -> Vec<u8> {
    let n = tokens.iter().map(Token::expanded_len).sum();
    pram.ledger().round(base.len() as u64);
    let mut joint = base.to_vec();
    lz1_decode(pram, tokens, &mut joint, n).expect("delta tokens reference earlier data");
    joint.split_off(base.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokens::encoded_size;
    use pardict_workloads::{markov_text, random_text, Alphabet};
    use std::cell::Cell;

    /// Rewrites a delta parse before it is checked.
    type Tamper = fn(Vec<Token>) -> Vec<Token>;

    thread_local! {
        /// Test seam: when set, rewrites this thread's next delta parse
        /// the way a faulty match table would.
        pub(crate) static TAMPER: Cell<Option<Tamper>> = const { Cell::new(None) };
    }

    /// A [`Tamper`]: the first copy, which starts inside a longer base,
    /// reads from one byte later, so the tokens still expand to the right
    /// length but not to the right bytes.
    fn shifted_copy(mut tokens: Vec<Token>) -> Vec<Token> {
        match tokens.first_mut() {
            Some(Token::Copy { src, .. }) => *src += 1,
            other => panic!("the parse does not open with a copy: {other:?}"),
        }
        tokens
    }

    /// A delta parse that decodes to the right length but the wrong bytes
    /// — what a faulty match table would produce — never leaves
    /// `delta_compress`: the all-literal parse does, and it patches back.
    #[test]
    fn a_delta_that_does_not_decode_back_is_all_literal() {
        let pram = Pram::seq();
        let base = b"abcabcabcabd abcabcabcabd".to_vec();
        let new = b"abcabcabcabd abcabcabcabe".to_vec();
        let clean = delta_compress(&pram, &base, &new);
        assert!(clean.len() < new.len());

        TAMPER.with(|t| t.set(Some(shifted_copy)));
        let tokens = delta_compress(&pram, &base, &new);
        assert!(TAMPER.with(Cell::take).is_none(), "the seam was used");
        assert!(tokens.iter().all(|t| matches!(t, Token::Literal(_))));
        assert_eq!(delta_decompress(&pram, &base, &tokens), new);
    }

    #[test]
    fn roundtrip_random_edits() {
        let pram = Pram::seq();
        let base = markov_text(1, 3000, Alphabet::lowercase());
        for round in 0..4u64 {
            // new = base with a few edits.
            let mut new = base.clone();
            for k in 0..5u64 {
                let at = ((round * 997 + k * 613) % new.len() as u64) as usize;
                new[at] = b'a' + ((round + 7 * k) % 26) as u8;
            }
            new.extend_from_slice(&random_text(round, 50, Alphabet::lowercase()));
            let tokens = delta_compress(&pram, &base, &new);
            assert_eq!(
                delta_decompress(&pram, &base, &tokens),
                new,
                "round {round}"
            );
        }
    }

    #[test]
    fn near_identical_versions_compress_tiny() {
        let pram = Pram::seq();
        let base = markov_text(7, 8000, Alphabet::dna());
        let mut new = base.clone();
        new[4000] = if new[4000] == b'A' { b'C' } else { b'A' };
        let delta = delta_compress(&pram, &base, &new);
        // One edit → a handful of tokens regardless of size.
        assert!(
            delta.len() <= 5,
            "{} tokens for a one-byte edit",
            delta.len()
        );
        let plain = crate::lz1_compress(&pram, &new, 2);
        assert!(
            encoded_size(&delta) * 4 < encoded_size(&plain),
            "delta {} vs plain {}",
            encoded_size(&delta),
            encoded_size(&plain)
        );
        assert_eq!(delta_decompress(&pram, &base, &delta), new);
    }

    #[test]
    fn empty_cases() {
        let pram = Pram::seq();
        assert!(delta_compress(&pram, b"abc", b"").is_empty());
        assert_eq!(delta_decompress(&pram, b"abc", &[]), b"");
        // Empty base degenerates to plain LZ1.
        let text = b"xyxyxyxy";
        let tokens = delta_compress(&pram, b"", text);
        assert_eq!(delta_decompress(&pram, b"", &tokens), text);
    }

    #[test]
    fn unrelated_versions_still_roundtrip() {
        let pram = Pram::seq();
        let base = random_text(1, 1000, Alphabet::binary());
        let new = random_text(2, 1200, Alphabet::lowercase());
        let tokens = delta_compress(&pram, &base, &new);
        assert_eq!(delta_decompress(&pram, &base, &tokens), new);
    }
}
