//! `pardict-stream`: chunked parallel LZ1 streaming with a framed,
//! random-access container format.
//!
//! The whole-buffer compressor ([`pardict_compress::lz1_compress`],
//! Theorem 4.2/4.3 of Farach & Muthukrishnan) needs the entire text
//! resident and parses it as one unit. This crate trades a bounded amount
//! of compression ratio for three properties that matter past a few
//! megabytes:
//!
//! 1. **Bounded memory** — input is split into fixed-size blocks and only
//!    one wave of blocks is in flight at a time.
//! 2. **Parallel throughput** — each wave of blocks is one PRAM
//!    super-step: blocks compress concurrently, the caller's ledger is
//!    charged Σ work and max depth, matching the paper's work/depth
//!    accounting.
//! 3. **O(1) random access** — the container records an index footer, and
//!    every block but the last holds exactly `block_size` raw bytes, so a
//!    decoded offset maps to its block by division and any byte range is
//!    served by decoding only the covering blocks.
//!
//! Restricting each block's back-references to a block-local window is the
//! approximation scheme of Fischer–Gagie–Gawrychowski–Kociumaka
//! (*Approximating LZ77 via Small-Space Multiple-Pattern Matching*): the
//! blockwise parse is provably close to the unrestricted one, and
//! [`approximation_sizes`] measures the actual gap on a given input.
//!
//! See the [`format`] module for the byte-level container layout and the
//! [`error`] module for the structural-vs-block-local failure vocabulary
//! behind the skip-and-report recovery contract.

#![warn(missing_docs)]

pub mod error;
pub mod format;
pub mod layout;
mod reader;
mod writer;

pub use error::{BlockIssue, IssueKind, StreamError};
pub use format::{
    BlockEntry, RecordHeader, StreamIndex, DEFAULT_BLOCK_SIZE, END_OF_BLOCKS, FOOTER_ENTRY_LEN,
    HEADER_LEN, MAGIC, MAX_BLOCK_SIZE, METHOD_LZ1, METHOD_STORED, RECORD_HEADER_LEN, TRAILER_LEN,
    VERSION,
};
pub use layout::{assemble_container, slice_container, ContainerLayout, RecordSpan};
pub use reader::{
    decode_block, decompress_stream, is_container, DecompressSummary, StreamDecompressor,
    StreamReader,
};
pub use writer::{compress_stream, CompressSummary, StreamCompressor, StreamConfig, STREAM_SEED};

use pardict_compress::{encode_tokens, lz1_compress};
use pardict_pram::Pram;

/// Measure the blockwise approximation against the whole-buffer parse:
/// returns `(streamed_container_bytes, whole_buffer_token_bytes)` for
/// `text` under `cfg`. The ratio quantifies what block-local windows cost
/// on this input — the Fischer et al. bound made concrete.
///
/// # Panics
/// When `text` contains NUL (the whole-buffer reference parse reserves it)
/// or compression fails on an in-memory buffer (impossible I/O error).
#[must_use]
pub fn approximation_sizes(pram: &Pram, text: &[u8], cfg: &StreamConfig) -> (u64, u64) {
    let (container, _) = compress_stream(pram, &mut &text[..], Vec::new(), cfg)
        .expect("in-memory compression cannot fail");
    let whole = encode_tokens(&lz1_compress(pram, text, STREAM_SEED)).len() as u64;
    (container.len() as u64, whole)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn container_detection() {
        let pram = Pram::seq();
        let (bytes, _) = compress_stream(
            &pram,
            &mut &b"hello hello hello"[..],
            Vec::new(),
            &StreamConfig::with_block_size(8),
        )
        .unwrap();
        assert!(is_container(&bytes));
        assert!(!is_container(b"PDZ"));
        assert!(!is_container(b"plain text"));
        assert!(!is_container(&[]));
    }

    #[test]
    fn approximation_stays_close_on_repetitive_text() {
        let pram = Pram::seq();
        let text = b"the paper compresses the text the paper indexes the text ".repeat(64);
        let cfg = StreamConfig::with_block_size(1024);
        let (streamed, whole) = approximation_sizes(&pram, &text, &cfg);
        assert!(whole > 0);
        assert!(
            streamed > whole,
            "framing and block-local windows cost bytes"
        );
        // On this tiny, highly repetitive input the whole-buffer parse
        // collapses to a handful of phrases, so fixed framing dominates
        // the streamed size; per-block the parse stays in the same regime.
        // The integration tests assert the 15% relative bound at realistic
        // block sizes on realistic corpora.
        let blocks = text.len().div_ceil(1024) as u64;
        let framing = (format::HEADER_LEN + 1 + format::TRAILER_LEN) as u64
            + blocks * (format::RECORD_HEADER_LEN + format::FOOTER_ENTRY_LEN) as u64;
        assert!(
            streamed <= framing + blocks * (whole + 8),
            "blockwise {streamed} vs whole {whole} diverged beyond per-block parses"
        );
        assert!(
            streamed < text.len() as u64,
            "repetitive input must still shrink end-to-end"
        );
    }
}
