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
//!    accounting. Because the parallelism is across blocks, a block runs
//!    the sequential halves of Theorems 4.2 and 4.3 on the context its
//!    super-step hands it: the exact, seed-free emitter every shipped parse
//!    runs ([`pardict_compress::delta_compress`], an empty base) and the
//!    phrase-by-phrase decoder
//!    ([`pardict_compress::lz1_decode`]). The PRAM routes are the
//!    reproduction and the oracle.
//! 3. **O(1) random access** — the container records an index footer, and
//!    every block but the last holds exactly `block_size` raw bytes, so a
//!    decoded offset maps to its block by division and any byte range is
//!    served by decoding only the covering blocks.
//!
//! Restricting each block's back-references to a block-local window is the
//! approximation scheme of Fischer–Gagie–Gawrychowski–Kociumaka
//! (*Approximating LZ77 via Small-Space Multiple-Pattern Matching*): the
//! blockwise parse is provably close to the unrestricted one
//! (`tests/stream.rs::approximation_ratio_within_15_percent` measures the
//! actual gap on a realistic corpus).
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
    decode_block, decompress_stream, is_container, DecodedBlock, DecompressSummary,
    StreamDecompressor, StreamReader,
};
pub use writer::{compress_stream, CompressSummary, StreamConfig};

/// A seed for callers running the seeded PRAM routes over blocks. Blocks
/// use no seed: their parse is exact, so container bytes are reproducible.
pub const STREAM_SEED: u64 = 0x57E4_A11B_10C5_EED5;

#[cfg(test)]
mod tests {
    use super::*;
    use pardict_pram::Pram;

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
}
