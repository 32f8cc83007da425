//! The framed container layout: header, per-block records, index footer,
//! trailer.
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────────┐
//! │ header (16 B): "PDZS" · version u8 · 3 reserved 0 · block u64 LE │
//! ├──────────────────────────────────────────────────────────────────┤
//! │ block record 0: method u8 · raw u32 · comp u32 · crc32 u32       │
//! │                 payload (comp bytes, block-local LZ1 or stored)  │
//! │ block record 1: …                                                │
//! ├──────────────────────────────────────────────────────────────────┤
//! │ end-of-blocks marker: 0xFF (1 B)                                 │
//! ├──────────────────────────────────────────────────────────────────┤
//! │ footer: per block — offset u64 · raw u32 · comp u32 · crc u32    │
//! │         · method u8 · 3 pad 0 (24 B each)                        │
//! ├──────────────────────────────────────────────────────────────────┤
//! │ trailer (24 B): footer-offset u64 · blocks u64 · footer-crc u32  │
//! │                 · "SZDP"                                         │
//! └──────────────────────────────────────────────────────────────────┘
//! ```
//!
//! Every block holds exactly `block_size` raw bytes except the last, so a
//! byte offset maps to its block in O(1) (`offset / block_size`) — the
//! property that makes `read_range` decode only covering blocks. All
//! integers are little-endian; compressed payloads are block-local (copy
//! sources are offsets *within the block*), so any block decodes alone.

use crate::error::StreamError;
use pardict_core::bytes::{get_u32, get_u64};
use pardict_core::crc32;

/// Leading container magic (`"PDZS"` — ParDict Zipped Stream).
pub const MAGIC: [u8; 4] = *b"PDZS";
/// Trailing trailer magic (the header magic reversed, so a container is
/// recognizable from either end).
pub const TRAILER_MAGIC: [u8; 4] = *b"SZDP";
/// Format version this build reads and writes.
pub const VERSION: u8 = 1;
/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 16;
/// Inline per-block record header length in bytes.
pub const RECORD_HEADER_LEN: usize = 13;
/// Per-block index footer entry length in bytes.
pub const FOOTER_ENTRY_LEN: usize = 24;
/// Fixed trailer length in bytes.
pub const TRAILER_LEN: usize = 24;
/// Method byte marking the end of the block section (never a valid
/// method, so a streaming reader needs no lookahead).
pub const END_OF_BLOCKS: u8 = 0xFF;
/// Block payload is a block-local LZ1 token stream.
pub const METHOD_LZ1: u8 = 0;
/// Block payload is the raw bytes verbatim (incompressible data, or data
/// containing the NUL sentinel the suffix tree reserves).
pub const METHOD_STORED: u8 = 1;
/// Default raw block size (64 KiB): large enough that block-local LZ1
/// stays within a few percent of whole-buffer LZ1 on typical corpora,
/// small enough that a wave of in-flight blocks is cache-friendly.
pub const DEFAULT_BLOCK_SIZE: usize = 64 * 1024;
/// Upper bound on the configurable block size (raw lengths are `u32`).
pub const MAX_BLOCK_SIZE: usize = 1 << 30;

/// Encode the fixed 16-byte header.
#[must_use]
pub fn encode_header(block_size: u64) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..4].copy_from_slice(&MAGIC);
    h[4] = VERSION;
    h[8..16].copy_from_slice(&block_size.to_le_bytes());
    h
}

/// Parse and validate the fixed header; returns the block size.
///
/// # Errors
/// [`StreamError::NotAContainer`] when the magic is absent,
/// [`StreamError::UnsupportedVersion`] / [`StreamError::CorruptHeader`]
/// when the rest fails validation.
pub fn parse_header(h: &[u8]) -> Result<u64, StreamError> {
    if h.len() < 4 || h[..4] != MAGIC {
        return Err(StreamError::NotAContainer);
    }
    if h.len() < HEADER_LEN {
        return Err(StreamError::Truncated);
    }
    if h[4] != VERSION {
        return Err(StreamError::UnsupportedVersion(h[4]));
    }
    if h[5..8] != [0, 0, 0] {
        return Err(StreamError::CorruptHeader("reserved bytes set"));
    }
    let block_size = get_u64(&h[8..16]);
    if block_size == 0 || block_size > MAX_BLOCK_SIZE as u64 {
        return Err(StreamError::CorruptHeader("block size out of range"));
    }
    Ok(block_size)
}

/// The inline header preceding every block payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordHeader {
    /// [`METHOD_LZ1`] or [`METHOD_STORED`].
    pub method: u8,
    /// Raw (uncompressed) length of the block.
    pub raw_len: u32,
    /// Payload length in the container.
    pub comp_len: u32,
    /// CRC-32 of the payload bytes.
    pub crc: u32,
}

/// Encode an inline block record header.
fn encode_record_header(h: &RecordHeader) -> [u8; RECORD_HEADER_LEN] {
    let mut out = [0u8; RECORD_HEADER_LEN];
    out[0] = h.method;
    out[1..5].copy_from_slice(&h.raw_len.to_le_bytes());
    out[5..9].copy_from_slice(&h.comp_len.to_le_bytes());
    out[9..13].copy_from_slice(&h.crc.to_le_bytes());
    out
}

/// Parse the 12 bytes following an already-read method byte.
#[must_use]
pub fn parse_record_tail(method: u8, tail: &[u8; RECORD_HEADER_LEN - 1]) -> RecordHeader {
    RecordHeader {
        method,
        raw_len: get_u32(&tail[0..4]),
        comp_len: get_u32(&tail[4..8]),
        crc: get_u32(&tail[8..12]),
    }
}

/// One block's entry in the index footer: the inline record header plus
/// the file offset of that record, enabling O(1) seek-to-block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockEntry {
    /// File offset of the block's inline record header.
    pub offset: u64,
    /// Raw (uncompressed) length of the block.
    pub raw_len: u32,
    /// Payload length in the container.
    pub comp_len: u32,
    /// CRC-32 of the payload bytes.
    pub crc: u32,
    /// [`METHOD_LZ1`] or [`METHOD_STORED`].
    pub method: u8,
}

impl BlockEntry {
    /// The inline record header this entry mirrors.
    #[must_use]
    pub fn record_header(&self) -> RecordHeader {
        RecordHeader {
            method: self.method,
            raw_len: self.raw_len,
            comp_len: self.comp_len,
            crc: self.crc,
        }
    }
}

/// Serialize the index footer (one [`FOOTER_ENTRY_LEN`]-byte entry per
/// block).
fn encode_footer(entries: &[BlockEntry]) -> Vec<u8> {
    let mut out = Vec::with_capacity(entries.len() * FOOTER_ENTRY_LEN);
    for e in entries {
        out.extend_from_slice(&e.offset.to_le_bytes());
        out.extend_from_slice(&e.raw_len.to_le_bytes());
        out.extend_from_slice(&e.comp_len.to_le_bytes());
        out.extend_from_slice(&e.crc.to_le_bytes());
        out.push(e.method);
        out.extend_from_slice(&[0, 0, 0]);
    }
    out
}

/// Parse the index footer back into entries.
///
/// # Errors
/// [`StreamError::CorruptFooter`] when the byte length is not a whole
/// number of entries or padding bytes are set.
pub fn parse_footer(bytes: &[u8]) -> Result<Vec<BlockEntry>, StreamError> {
    if !bytes.len().is_multiple_of(FOOTER_ENTRY_LEN) {
        return Err(StreamError::CorruptFooter("ragged entry section"));
    }
    let mut entries = Vec::with_capacity(bytes.len() / FOOTER_ENTRY_LEN);
    for chunk in bytes.chunks_exact(FOOTER_ENTRY_LEN) {
        if chunk[21..24] != [0, 0, 0] {
            return Err(StreamError::CorruptFooter("entry padding set"));
        }
        entries.push(BlockEntry {
            offset: get_u64(&chunk[0..8]),
            raw_len: get_u32(&chunk[8..12]),
            comp_len: get_u32(&chunk[12..16]),
            crc: get_u32(&chunk[16..20]),
            method: chunk[20],
        });
    }
    Ok(entries)
}

/// Encode the fixed trailer.
fn encode_trailer(footer_offset: u64, num_blocks: u64, footer_crc: u32) -> [u8; TRAILER_LEN] {
    let mut t = [0u8; TRAILER_LEN];
    t[0..8].copy_from_slice(&footer_offset.to_le_bytes());
    t[8..16].copy_from_slice(&num_blocks.to_le_bytes());
    t[16..20].copy_from_slice(&footer_crc.to_le_bytes());
    t[20..24].copy_from_slice(&TRAILER_MAGIC);
    t
}

/// The one place container framing is computed: record offsets, index
/// entries, the footer checksum and the trailer. The caller writes
/// [`encode_header`], then for each block the bytes [`record`] returns
/// followed by exactly `comp_len` payload bytes, then [`finish`].
///
/// [`record`]: Framer::record
/// [`finish`]: Framer::finish
#[derive(Debug)]
pub(crate) struct Framer {
    /// Bytes framed so far, header included: where the next record goes.
    pub(crate) offset: u64,
    entries: Vec<BlockEntry>,
}

impl Default for Framer {
    fn default() -> Self {
        Self {
            offset: HEADER_LEN as u64,
            entries: Vec::new(),
        }
    }
}

impl Framer {
    /// Index the next block record at the current offset and return its
    /// inline header.
    pub(crate) fn record(&mut self, h: &RecordHeader) -> [u8; RECORD_HEADER_LEN] {
        self.entries.push(BlockEntry {
            offset: self.offset,
            raw_len: h.raw_len,
            comp_len: h.comp_len,
            crc: h.crc,
            method: h.method,
        });
        self.offset += RECORD_HEADER_LEN as u64 + u64::from(h.comp_len);
        encode_record_header(h)
    }

    /// Everything after the last record: end-of-blocks marker, index
    /// footer, trailer.
    pub(crate) fn finish(self) -> Vec<u8> {
        let footer = encode_footer(&self.entries);
        let mut tail = Vec::with_capacity(1 + footer.len() + TRAILER_LEN);
        tail.push(END_OF_BLOCKS);
        tail.extend_from_slice(&footer);
        tail.extend_from_slice(&encode_trailer(
            self.offset + 1,
            self.entries.len() as u64,
            crc32(&footer),
        ));
        tail
    }
}

/// Parse the trailer into `(footer_offset, num_blocks, footer_crc)`.
///
/// # Errors
/// [`StreamError::CorruptFooter`] when the trailing magic is absent.
pub fn parse_trailer(t: &[u8; TRAILER_LEN]) -> Result<(u64, u64, u32), StreamError> {
    if t[20..24] != TRAILER_MAGIC {
        return Err(StreamError::CorruptFooter("bad trailer magic"));
    }
    Ok((get_u64(&t[0..8]), get_u64(&t[8..16]), get_u32(&t[16..20])))
}

/// The parsed, validated index of a container: block size plus one entry
/// per block, supporting O(1) offset→block mapping.
#[derive(Debug, Clone)]
pub struct StreamIndex {
    /// Raw bytes per block (every block but the last holds exactly this).
    pub block_size: u64,
    /// Per-block entries, in stream order.
    pub entries: Vec<BlockEntry>,
}

impl StreamIndex {
    /// Total decoded (raw) length of the stream.
    #[must_use]
    pub fn total_raw(&self) -> u64 {
        self.entries.iter().map(|e| u64::from(e.raw_len)).sum()
    }

    /// Number of blocks.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.entries.len()
    }

    /// The block containing decoded offset `pos` — O(1), because all
    /// blocks but the last are exactly `block_size` raw bytes.
    #[must_use]
    pub fn block_of(&self, pos: u64) -> usize {
        ((pos / self.block_size) as usize).min(self.entries.len().saturating_sub(1))
    }

    /// Decoded start offset of block `i`.
    #[must_use]
    pub fn block_start(&self, i: usize) -> u64 {
        self.block_size * i as u64
    }

    /// The contiguous run of blocks covering decoded range `start..end`
    /// (empty when the range is empty).
    #[must_use]
    pub fn covering(&self, start: u64, end: u64) -> std::ops::Range<usize> {
        if start >= end || self.entries.is_empty() {
            return 0..0;
        }
        self.block_of(start)..self.block_of(end - 1) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip_and_validation() {
        let h = encode_header(1 << 16);
        assert_eq!(parse_header(&h).unwrap(), 1 << 16);
        let mut bad = h;
        bad[0] ^= 1;
        assert!(matches!(
            parse_header(&bad),
            Err(StreamError::NotAContainer)
        ));
        let mut bad = h;
        bad[4] = 9;
        assert!(matches!(
            parse_header(&bad),
            Err(StreamError::UnsupportedVersion(9))
        ));
        let mut bad = h;
        bad[6] = 1;
        assert!(matches!(
            parse_header(&bad),
            Err(StreamError::CorruptHeader(_))
        ));
        assert!(matches!(
            parse_header(&encode_header(0)),
            Err(StreamError::CorruptHeader(_))
        ));
    }

    #[test]
    fn record_and_footer_roundtrip() {
        let rh = RecordHeader {
            method: METHOD_LZ1,
            raw_len: 1000,
            comp_len: 400,
            crc: 0xDEAD_BEEF,
        };
        let enc = encode_record_header(&rh);
        let tail: [u8; RECORD_HEADER_LEN - 1] = enc[1..].try_into().unwrap();
        assert_eq!(parse_record_tail(enc[0], &tail), rh);

        let entries = vec![
            BlockEntry {
                offset: 16,
                raw_len: 1000,
                comp_len: 400,
                crc: 1,
                method: METHOD_LZ1,
            },
            BlockEntry {
                offset: 429,
                raw_len: 60,
                comp_len: 60,
                crc: 2,
                method: METHOD_STORED,
            },
        ];
        let bytes = encode_footer(&entries);
        assert_eq!(bytes.len(), 2 * FOOTER_ENTRY_LEN);
        assert_eq!(parse_footer(&bytes).unwrap(), entries);
        assert!(parse_footer(&bytes[..FOOTER_ENTRY_LEN + 3]).is_err());
    }

    #[test]
    fn trailer_roundtrip() {
        let t = encode_trailer(12345, 7, 0xAB);
        assert_eq!(parse_trailer(&t).unwrap(), (12345, 7, 0xAB));
        let mut bad = t;
        bad[23] ^= 0xFF;
        assert!(parse_trailer(&bad).is_err());
    }

    #[test]
    fn index_maps_offsets_to_blocks() {
        let mk = |raw: u32, i: u64| BlockEntry {
            offset: 16 + i * 100,
            raw_len: raw,
            comp_len: 10,
            crc: 0,
            method: METHOD_LZ1,
        };
        let idx = StreamIndex {
            block_size: 100,
            entries: vec![mk(100, 0), mk(100, 1), mk(37, 2)],
        };
        assert_eq!(idx.total_raw(), 237);
        assert_eq!(idx.block_of(0), 0);
        assert_eq!(idx.block_of(99), 0);
        assert_eq!(idx.block_of(100), 1);
        assert_eq!(idx.block_of(236), 2);
        assert_eq!(idx.covering(0, 237), 0..3);
        assert_eq!(idx.covering(150, 180), 1..2);
        assert_eq!(idx.covering(99, 101), 0..2);
        assert_eq!(idx.covering(50, 50), 0..0);
    }
}
