//! A byte-accurate structural map of a container — the mutation-friendly
//! raw-record view.
//!
//! [`StreamReader`] hides file offsets: callers address decoded bytes.
//! Fault planners and the shard router need "where, in the file, is block
//! 3's payload?" to flip one bit of it, damage one footer entry, or
//! re-frame a run of blocks as a container of its own. [`ContainerLayout`]
//! is a view of what [`StreamReader::open`] checked, not a second
//! validator: it opens the bytes, requires each inline record header to
//! equal its index entry (the comparison [`StreamReader::raw_block`]
//! makes), and reads every region off the validated index. So a container
//! has a layout exactly when one node would open it and find no header
//! mismatch. The one forward walker stays
//! [`StreamDecompressor`](crate::StreamDecompressor), for `Read`-only input.

use crate::error::StreamError;
use crate::format::{
    encode_header, Framer, RecordHeader, FOOTER_ENTRY_LEN, HEADER_LEN, RECORD_HEADER_LEN,
};
use crate::reader::{check_record_header, StreamReader};
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
    /// The record header, inline and in the index alike.
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
    /// Map `bytes`, a container [`StreamReader::open`] accepts and whose
    /// inline record headers all equal their index entries. Reads no payload.
    ///
    /// # Errors
    /// Whatever `open` refuses the container with, or the first block's
    /// header mismatch as a [`StreamError::CorruptBlock`].
    pub fn parse(bytes: &[u8]) -> Result<Self, StreamError> {
        let reader = StreamReader::open(std::io::Cursor::new(bytes))?;
        let index = reader.index();
        // `open` checked that the entries chain from the header to the end
        // marker and that the footer and trailer tile the rest of the file,
        // so every span below lies inside `bytes`.
        let records = index
            .entries
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let header = e.offset as usize..e.offset as usize + RECORD_HEADER_LEN;
                let inline = bytes[header.clone()].try_into().expect("record header");
                check_record_header(i, e, inline)?;
                Ok(RecordSpan {
                    index: i,
                    payload: header.end..header.end + e.comp_len as usize,
                    header,
                    record: e.record_header(),
                })
            })
            .collect::<Result<Vec<_>, StreamError>>()?;
        let end_marker = records.last().map_or(HEADER_LEN, |r| r.payload.end);
        let footer = end_marker + 1..end_marker + 1 + records.len() * FOOTER_ENTRY_LEN;
        let footer_entries = footer
            .clone()
            .step_by(FOOTER_ENTRY_LEN)
            .map(|s| s..s + FOOTER_ENTRY_LEN)
            .collect();
        Ok(ContainerLayout {
            header: 0..HEADER_LEN,
            block_size: index.block_size,
            records,
            end_marker,
            trailer: footer.end..bytes.len(),
            footer,
            footer_entries,
        })
    }

    /// Number of blocks.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.records.len()
    }

    /// Decoded byte range block `i` covers (blocks before the last hold
    /// exactly [`block_size`](Self::block_size) raw bytes).
    #[must_use]
    pub fn raw_range(&self, i: usize) -> Range<usize> {
        let start = self.block_size as usize * i;
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
    use crate::format::END_OF_BLOCKS;
    use crate::writer::{compress_stream, StreamConfig};
    use crate::{IssueKind, StreamReader};
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
            let mut rd = StreamReader::open(std::io::Cursor::new(slice)).unwrap();
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

    /// `parse` is a view of `open`: it refuses every truncation and every
    /// single-bit flip that `open` refuses, and a flip of an inline record
    /// header — bytes `open` never reads — is that block's header
    /// mismatch. Only a payload flip leaves a layout, the clean one.
    #[test]
    fn parse_refuses_what_open_refuses_and_every_header_mismatch() {
        let bytes = sample(
            64,
            &b"the quick brown fox jumps over the lazy dog. ".repeat(5),
        );
        let clean = ContainerLayout::parse(&bytes).unwrap();
        assert!(clean.num_blocks() >= 3, "need a multi-block sample");
        let opens = |b: &[u8]| StreamReader::open(std::io::Cursor::new(b)).is_ok();
        for cut in 0..bytes.len() {
            assert!(!opens(&bytes[..cut]));
            assert!(ContainerLayout::parse(&bytes[..cut]).is_err(), "cut {cut}");
        }
        for pos in 0..bytes.len() {
            let record = clean.records.iter().find(|r| r.whole().contains(&pos));
            for bit in 0..8 {
                let mut b = bytes.clone();
                b[pos] ^= 1 << bit;
                let parsed = ContainerLayout::parse(&b);
                if !opens(&b) {
                    assert!(parsed.is_err(), "byte {pos} bit {bit}: open refuses");
                }
                match record {
                    Some(r) if r.header.contains(&pos) => assert!(
                        matches!(
                            parsed,
                            Err(StreamError::CorruptBlock {
                                index,
                                kind: IssueKind::HeaderMismatch,
                            }) if index == r.index as u64
                        ),
                        "byte {pos} bit {bit}: {parsed:?}"
                    ),
                    Some(_) => assert_eq!(parsed.unwrap().records, clean.records),
                    None => assert!(parsed.is_err(), "byte {pos} bit {bit} outside records"),
                }
            }
        }
    }
}
