//! LZ1 token representation and size accounting.

/// One LZ1 phrase: a literal character or a copy of `len` bytes from an
/// earlier position `src` (self-overlap allowed, as in the original LZ1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A single literal byte (the paper's `(α, 0)` phrase).
    Literal(u8),
    /// Copy `len` bytes starting at absolute position `src < dst`.
    Copy {
        /// Absolute source position.
        src: u32,
        /// Number of bytes copied (≥ 2 in parses we emit).
        len: u32,
    },
}

impl Token {
    /// Number of text bytes this token expands to.
    #[must_use]
    pub fn expanded_len(&self) -> usize {
        match *self {
            Token::Literal(_) => 1,
            Token::Copy { len, .. } => len as usize,
        }
    }
}

/// Size in bytes of a simple varint serialization (tag bit + varints), the
/// metric used for the compression-ratio table (E9).
#[must_use]
pub fn encoded_size(tokens: &[Token]) -> usize {
    fn varint_len(mut x: u64) -> usize {
        let mut n = 1;
        while x >= 0x80 {
            x >>= 7;
            n += 1;
        }
        n
    }
    tokens
        .iter()
        .map(|t| match *t {
            Token::Literal(_) => 2,
            Token::Copy { src, len } => 1 + varint_len(u64::from(src)) + varint_len(u64::from(len)),
        })
        .sum()
}

/// Error decoding a serialized token stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended inside a token.
    Truncated,
    /// Unknown token tag byte.
    BadTag(u8),
    /// A copy referenced data at or past its own position.
    BadReference,
    /// The tokens expand to more or fewer bytes than the caller expects.
    LengthMismatch,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "token stream truncated"),
            DecodeError::BadTag(t) => write!(f, "unknown token tag {t:#x}"),
            DecodeError::BadReference => write!(f, "copy references future data"),
            DecodeError::LengthMismatch => write!(f, "tokens expand to the wrong length"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn push_varint(out: &mut Vec<u8>, mut x: u64) {
    while x >= 0x80 {
        out.push((x as u8) | 0x80);
        x >>= 7;
    }
    out.push(x as u8);
}

fn read_varint(data: &[u8], pos: &mut usize) -> Result<u64, DecodeError> {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = data.get(*pos).ok_or(DecodeError::Truncated)?;
        *pos += 1;
        x |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(x);
        }
        shift += 7;
        if shift > 63 {
            return Err(DecodeError::BadTag(b));
        }
    }
}

/// Serialize a token stream: tag byte 0 = literal + byte, 1 = copy +
/// varint(src) + varint(len). The wire format behind the `pardict` CLI.
#[must_use]
pub fn encode_tokens(tokens: &[Token]) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_size(tokens));
    for t in tokens {
        match *t {
            Token::Literal(c) => {
                out.push(0);
                out.push(c);
            }
            Token::Copy { src, len } => {
                out.push(1);
                push_varint(&mut out, u64::from(src));
                push_varint(&mut out, u64::from(len));
            }
        }
    }
    out
}

/// Parse a serialized token stream, validating copy references.
///
/// # Errors
/// Returns a [`DecodeError`] on truncation, bad tags, or forward copies.
pub fn decode_tokens(data: &[u8]) -> Result<Vec<Token>, DecodeError> {
    decode_tokens_from(data, 0)
}

/// [`decode_tokens`] for streams whose output starts at absolute position
/// `origin` (delta streams copy from a pre-existing base of that length).
///
/// # Errors
/// Returns a [`DecodeError`] on truncation, bad tags, or forward copies.
pub fn decode_tokens_from(data: &[u8], origin: usize) -> Result<Vec<Token>, DecodeError> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    let mut expanded = origin as u64;
    while pos < data.len() {
        match data[pos] {
            0 => {
                pos += 1;
                let &c = data.get(pos).ok_or(DecodeError::Truncated)?;
                pos += 1;
                out.push(Token::Literal(c));
                expanded += 1;
            }
            1 => {
                pos += 1;
                let src = read_varint(data, &mut pos)?;
                let len = read_varint(data, &mut pos)?;
                if src >= expanded || len == 0 {
                    return Err(DecodeError::BadReference);
                }
                out.push(Token::Copy {
                    src: u32::try_from(src).map_err(|_| DecodeError::BadReference)?,
                    len: u32::try_from(len).map_err(|_| DecodeError::BadReference)?,
                });
                expanded += len;
            }
            t => return Err(DecodeError::BadTag(t)),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expanded_lengths() {
        assert_eq!(Token::Literal(b'x').expanded_len(), 1);
        assert_eq!(Token::Copy { src: 0, len: 7 }.expanded_len(), 7);
    }

    #[test]
    fn wire_roundtrip() {
        let tokens = vec![
            Token::Literal(b'a'),
            Token::Literal(b'b'),
            Token::Copy { src: 0, len: 4 },
            Token::Copy { src: 3, len: 300 },
        ];
        let bytes = encode_tokens(&tokens);
        assert_eq!(decode_tokens(&bytes).unwrap(), tokens);
        assert_eq!(bytes.len(), encoded_size(&tokens));
    }

    #[test]
    fn decode_rejects_malformed_streams() {
        assert_eq!(decode_tokens(&[0]), Err(DecodeError::Truncated));
        assert_eq!(decode_tokens(&[9]), Err(DecodeError::BadTag(9)));
        // Copy before any expansion.
        assert_eq!(
            decode_tokens(&encode_tokens(&[Token::Copy { src: 0, len: 2 }])),
            Err(DecodeError::BadReference)
        );
        // Forward reference.
        let stream = encode_tokens(&[Token::Literal(b'x'), Token::Copy { src: 5, len: 2 }]);
        assert_eq!(decode_tokens(&stream), Err(DecodeError::BadReference));
        // Truncated varint.
        assert_eq!(decode_tokens(&[1, 0x80]), Err(DecodeError::Truncated));
    }

    #[test]
    fn decode_from_origin_accepts_base_references() {
        let delta = vec![Token::Copy { src: 2, len: 5 }, Token::Literal(b'!')];
        let wire = encode_tokens(&delta);
        // Standalone: invalid (copies from nothing).
        assert_eq!(decode_tokens(&wire), Err(DecodeError::BadReference));
        // With a 10-byte base: fine.
        assert_eq!(decode_tokens_from(&wire, 10).unwrap(), delta);
        // But still rejects references past base + expanded.
        let bad = encode_tokens(&[Token::Copy { src: 10, len: 2 }]);
        assert_eq!(decode_tokens_from(&bad, 10), Err(DecodeError::BadReference));
    }

    #[test]
    fn encoded_size_counts_varints() {
        let tokens = vec![Token::Literal(b'a'), Token::Copy { src: 5, len: 300 }];
        // literal: 2; copy: 1 + 1 (src) + 2 (len 300 needs two 7-bit groups)
        assert_eq!(encoded_size(&tokens), 2 + 4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn decoder_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
            // Any outcome is fine; panicking is not.
            let _ = decode_tokens(&bytes);
            let _ = decode_tokens_from(&bytes, 1000);
        }

        #[test]
        fn wire_roundtrip_arbitrary_valid_streams(
            phrases in prop::collection::vec((any::<bool>(), 0u32..50, 1u32..20, any::<u8>()), 0..50),
        ) {
            // Build a VALID stream by construction, then round-trip it.
            let mut tokens = Vec::new();
            let mut expanded = 0u32;
            for (is_copy, src_frac, len, byte) in phrases {
                if is_copy && expanded > 0 {
                    let src = src_frac % expanded;
                    tokens.push(Token::Copy { src, len });
                    expanded += len;
                } else {
                    tokens.push(Token::Literal(byte));
                    expanded += 1;
                }
            }
            let wire = encode_tokens(&tokens);
            prop_assert_eq!(decode_tokens(&wire).unwrap(), tokens);
        }
    }
}
