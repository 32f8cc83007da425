//! A byte-accurate structural map of a container — the mutation-friendly
//! raw-record view.
//!
//! [`StreamReader`](crate::StreamReader) deliberately hides file offsets:
//! callers address decoded bytes, not container bytes. Fault-injection
//! harnesses need the opposite — "where, in the file, is block 3's
//! payload?" — so they can flip exactly one bit of a payload, truncate a
//! record mid-header, or damage one footer entry and then assert the
//! reader degrades exactly as documented. [`ContainerLayout`] walks a
//! *well-formed* container once and returns every region as a byte
//! [`Range`] into the original buffer. It validates only what it needs to
//! walk safely (magic, record framing, trailer magic); semantic checks
//! (CRCs, offset chaining) stay in [`StreamReader::open`].
//!
//! [`StreamReader::open`]: crate::StreamReader::open

use crate::error::StreamError;
use crate::format::{
    encode_header, parse_header, parse_record_tail, Framer, RecordHeader, END_OF_BLOCKS,
    FOOTER_ENTRY_LEN, HEADER_LEN, METHOD_LZ1, METHOD_STORED, RECORD_HEADER_LEN, TRAILER_LEN,
};
use std::ops::Range;

/// Byte spans of one block record inside a container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordSpan {
    /// Block index in stream order.
    pub index: usize,
    /// Span of the inline 13-byte record header.
    pub header: Range<usize>,
    /// Span of the compressed payload (may be empty only in theory — the
    /// writer never emits empty blocks).
    pub payload: Range<usize>,
    /// The parsed inline header.
    pub record: RecordHeader,
}

impl RecordSpan {
    /// Span of the whole record (header + payload).
    #[must_use]
    pub fn whole(&self) -> Range<usize> {
        self.header.start..self.payload.end
    }
}

/// Byte spans of every structural region of a well-formed container.
///
/// Produced by [`ContainerLayout::parse`]; consumed by fault planners that
/// need to aim mutations at specific format features.
#[derive(Debug, Clone)]
pub struct ContainerLayout {
    /// Span of the fixed 16-byte header.
    pub header: Range<usize>,
    /// Raw block size recorded in the header.
    pub block_size: u64,
    /// Per-block record spans, in stream order.
    pub records: Vec<RecordSpan>,
    /// Offset of the 1-byte end-of-blocks marker.
    pub end_marker: usize,
    /// Span of the index footer (all entries).
    pub footer: Range<usize>,
    /// Span of each 24-byte footer entry, in block order.
    pub footer_entries: Vec<Range<usize>>,
    /// Span of the fixed 24-byte trailer.
    pub trailer: Range<usize>,
}

impl ContainerLayout {
    /// Walk `bytes` as a container and map every region.
    ///
    /// Framing is taken from the *inline* record headers (forward walk),
    /// then cross-checked against the trailer's footer offset and block
    /// count, so the layout is unambiguous on any container the writer
    /// produces.
    ///
    /// # Errors
    /// Any [`StreamError`] describing the first structural defect found;
    /// this function is meant for clean containers, so callers treat an
    /// error as "not a valid subject for fault planning".
    pub fn parse(bytes: &[u8]) -> Result<Self, StreamError> {
        let block_size = parse_header(bytes.get(..HEADER_LEN).ok_or(StreamError::Truncated)?)?;
        let mut pos = HEADER_LEN;
        let mut records = Vec::new();
        loop {
            let method = *bytes.get(pos).ok_or(StreamError::Truncated)?;
            if method == END_OF_BLOCKS {
                break;
            }
            if method != METHOD_LZ1 && method != METHOD_STORED {
                return Err(StreamError::CorruptHeader("unknown block method"));
            }
            let tail: &[u8; RECORD_HEADER_LEN - 1] = bytes
                .get(pos + 1..pos + RECORD_HEADER_LEN)
                .ok_or(StreamError::Truncated)?
                .try_into()
                .expect("sized slice");
            let record = parse_record_tail(method, tail);
            let payload_start = pos + RECORD_HEADER_LEN;
            let payload_end = payload_start + record.comp_len as usize;
            if payload_end > bytes.len() {
                return Err(StreamError::Truncated);
            }
            records.push(RecordSpan {
                index: records.len(),
                header: pos..payload_start,
                payload: payload_start..payload_end,
                record,
            });
            pos = payload_end;
        }
        let end_marker = pos;
        let footer_start = end_marker + 1;
        let footer_end = footer_start + records.len() * FOOTER_ENTRY_LEN;
        let trailer_end = footer_end + TRAILER_LEN;
        if trailer_end != bytes.len() {
            return Err(StreamError::CorruptFooter("regions do not tile the file"));
        }
        let trailer: &[u8; TRAILER_LEN] = &bytes[footer_end..trailer_end]
            .try_into()
            .expect("sized slice");
        let (footer_offset, num_blocks, _) = crate::format::parse_trailer(trailer)?;
        if footer_offset != footer_start as u64 || num_blocks != records.len() as u64 {
            return Err(StreamError::CorruptFooter("trailer disagrees with walk"));
        }
        let footer_entries = (0..records.len())
            .map(|i| footer_start + i * FOOTER_ENTRY_LEN..footer_start + (i + 1) * FOOTER_ENTRY_LEN)
            .collect();
        Ok(ContainerLayout {
            header: 0..HEADER_LEN,
            block_size,
            records,
            end_marker,
            footer: footer_start..footer_end,
            footer_entries,
            trailer: footer_end..trailer_end,
        })
    }

    /// Number of blocks.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.records.len()
    }

    /// Decoded start offset of block `i` (blocks before the last hold
    /// exactly [`block_size`](Self::block_size) raw bytes).
    #[must_use]
    pub fn raw_start(&self, i: usize) -> usize {
        (self.block_size as usize) * i
    }

    /// Decoded byte range block `i` covers.
    #[must_use]
    pub fn raw_range(&self, i: usize) -> Range<usize> {
        let start = self.raw_start(i);
        start..start + self.records[i].record.raw_len as usize
    }
}

/// Reassemble a container from a layout whose records have been edited —
/// the inverse of [`ContainerLayout::parse`] for fault planners that swap
/// or rewrite whole records. Offsets, the footer, its CRC, and the trailer
/// are all recomputed from `records` by the writer's own [`Framer`], so
/// the result is structurally self-consistent even when payload bytes are
/// not what their CRCs claim.
///
/// Each element of `records` is `(record_header, payload_bytes)` in the
/// desired stream order.
///
/// # Panics
/// When a payload is not the `comp_len` bytes its header announces.
#[must_use]
pub fn assemble_container(block_size: u64, records: &[(RecordHeader, &[u8])]) -> Vec<u8> {
    let mut out = encode_header(block_size).to_vec();
    let mut framer = Framer::default();
    for (rh, payload) in records {
        assert_eq!(payload.len(), rh.comp_len as usize, "payload length");
        out.extend_from_slice(&framer.record(rh));
        out.extend_from_slice(payload);
    }
    out.extend_from_slice(&framer.finish());
    out
}

/// Re-frame blocks `range` of a well-formed container as a standalone
/// container holding the same compressed payloads.
///
/// The slice is byte-for-byte a valid container: every block but the last
/// of the *original* holds exactly `block_size` raw bytes, so any
/// contiguous prefix-free range keeps that invariant, and block payloads
/// are block-local (copy sources never cross blocks), so they decode
/// unchanged at their new indexes. The decoded slice equals decoded bytes
/// `block_size * range.start ..` of the original. This is the unit of
/// work a shard router fans out: each shard greps its slice as an
/// ordinary container and positions are rebased by the caller.
///
/// # Errors
/// Any [`StreamError`] from [`ContainerLayout::parse`], or
/// [`StreamError::RangeOutOfBounds`] (in block units) when `range` is
/// empty or exceeds the block count.
pub fn slice_container(bytes: &[u8], range: Range<usize>) -> Result<Vec<u8>, StreamError> {
    let layout = ContainerLayout::parse(bytes)?;
    if range.start >= range.end || range.end > layout.num_blocks() {
        return Err(StreamError::RangeOutOfBounds {
            start: range.start as u64,
            end: range.end as u64,
            len: layout.num_blocks() as u64,
        });
    }
    let records: Vec<(RecordHeader, &[u8])> = layout.records[range]
        .iter()
        .map(|r| (r.record, &bytes[r.payload.clone()]))
        .collect();
    Ok(assemble_container(layout.block_size, &records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{compress_stream, StreamConfig};
    use pardict_pram::Pram;

    fn sample(block: usize, text: &[u8]) -> Vec<u8> {
        let pram = Pram::seq();
        let (bytes, _) = compress_stream(
            &pram,
            &mut &text[..],
            Vec::new(),
            &StreamConfig::with_block_size(block),
        )
        .unwrap();
        bytes
    }

    #[test]
    fn layout_tiles_the_container_exactly() {
        let text: Vec<u8> = b"abcdefgh".repeat(100);
        let bytes = sample(128, &text);
        let l = ContainerLayout::parse(&bytes).unwrap();
        assert_eq!(l.num_blocks(), text.len().div_ceil(128));
        assert_eq!(l.header, 0..HEADER_LEN);
        let mut pos = HEADER_LEN;
        for r in &l.records {
            assert_eq!(r.header.start, pos);
            assert_eq!(r.header.len(), RECORD_HEADER_LEN);
            assert_eq!(r.payload.start, r.header.end);
            assert_eq!(r.payload.len(), r.record.comp_len as usize);
            pos = r.payload.end;
        }
        assert_eq!(l.end_marker, pos);
        assert_eq!(bytes[l.end_marker], END_OF_BLOCKS);
        assert_eq!(l.footer.start, l.end_marker + 1);
        assert_eq!(l.footer.len(), l.num_blocks() * FOOTER_ENTRY_LEN);
        assert_eq!(l.trailer.end, bytes.len());
        assert_eq!(l.raw_range(0), 0..128);
        let last = l.num_blocks() - 1;
        assert_eq!(l.raw_range(last).end, text.len());
    }

    #[test]
    fn assemble_is_parse_inverse_on_clean_containers() {
        let text: Vec<u8> = b"swap me around, swap me around! ".repeat(40);
        let bytes = sample(64, &text);
        let l = ContainerLayout::parse(&bytes).unwrap();
        let records: Vec<(RecordHeader, &[u8])> = l
            .records
            .iter()
            .map(|r| (r.record, &bytes[r.payload.clone()]))
            .collect();
        let rebuilt = assemble_container(l.block_size, &records);
        assert_eq!(rebuilt, bytes, "identity reassembly must be byte-exact");
        assert_eq!(assemble_container(64, &[]), sample(64, b""), "blockless");
    }

    #[test]
    fn slice_is_a_valid_container_decoding_the_right_bytes() {
        let text: Vec<u8> = b"the quick brown fox jumps over the lazy dog. ".repeat(30);
        let bytes = sample(64, &text);
        let l = ContainerLayout::parse(&bytes).unwrap();
        let n = l.num_blocks();
        assert!(n >= 4, "need a multi-block sample");
        let pram = Pram::seq();
        for (a, b) in [(0, n), (0, 2), (1, 3), (n - 2, n), (n - 1, n)] {
            let slice = slice_container(&bytes, a..b).unwrap();
            let mut rd = crate::StreamReader::open(std::io::Cursor::new(slice)).unwrap();
            let (decoded, issues) = rd.read_all(&pram).unwrap();
            assert!(issues.is_empty());
            let want = &text[64 * a..(64 * b).min(text.len())];
            assert_eq!(decoded, want, "slice {a}..{b} decodes the wrong bytes");
        }
        // Full-range slice is the identity.
        assert_eq!(slice_container(&bytes, 0..n).unwrap(), bytes);
        // Degenerate and out-of-range requests are rejected.
        assert!(slice_container(&bytes, 2..2).is_err());
        assert!(slice_container(&bytes, 0..n + 1).is_err());
    }

    #[test]
    fn parse_rejects_truncation_and_garbage() {
        let bytes = sample(64, &b"some text some text some text".repeat(16));
        assert!(ContainerLayout::parse(&bytes[..bytes.len() - 3]).is_err());
        assert!(ContainerLayout::parse(&bytes[..10]).is_err());
        assert!(ContainerLayout::parse(b"not a container at all").is_err());
    }
}
