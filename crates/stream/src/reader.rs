//! Decoding: a forward streaming decoder (`Read`-only sources, bounded
//! memory, skip-and-report error recovery) and a seekable random-access
//! reader that loads the index footer and decodes only the blocks
//! covering a requested byte range.
//!
//! Both decode a block phrase by phrase ([`pardict_compress::lz1_decode`])
//! into exactly its recorded raw length: the parallelism is across blocks,
//! so a block, one slot of its wave's super-step, has no use for Theorem
//! 4.3's depth. Work is the block's length, depth its phrase count plus
//! self-overlaps, and the decoder takes no seed. Tokens that expand past or
//! short of the raw length are a [`IssueKind::LengthMismatch`] before
//! anything is allocated for them.

use crate::error::{BlockIssue, IssueKind, StreamError};
use crate::format::{
    parse_footer, parse_header, parse_record_tail, parse_trailer, BlockEntry, RecordHeader,
    StreamIndex, END_OF_BLOCKS, FOOTER_ENTRY_LEN, HEADER_LEN, METHOD_LZ1, METHOD_STORED,
    RECORD_HEADER_LEN, TRAILER_LEN,
};
use pardict_compress::{decode_tokens, lz1_decode, DecodeError};
use pardict_core::crc32;
use pardict_pram::{Cost, Pram};
use std::io::{Read, Seek, SeekFrom, Write};

/// True when `data` begins with the container magic — the auto-detection
/// hook for CLI/service layers choosing between token-stream and
/// container decoding.
#[must_use]
pub fn is_container(data: &[u8]) -> bool {
    data.len() >= 4 && data[..4] == crate::format::MAGIC
}

/// What one finished decompression run produced.
#[derive(Debug, Clone, Default)]
pub struct DecompressSummary {
    /// Decoded bytes emitted (corrupt blocks excluded).
    pub bytes: u64,
    /// Blocks decoded successfully.
    pub blocks: u64,
    /// Corrupt blocks skipped and reported.
    pub issues: Vec<BlockIssue>,
    /// Ledger cost attributed to this run.
    pub cost: Cost,
}

/// Verify a record's checksum, then decode its payload into raw bytes —
/// the one block decoder under both the forward and the seekable reader.
fn decode_record(
    pram: &Pram,
    index: u64,
    rec: &RecordHeader,
    payload: Vec<u8>,
) -> Result<Vec<u8>, BlockIssue> {
    let issue = |kind| BlockIssue {
        index,
        raw_len: rec.raw_len,
        kind,
    };
    pram.ledger().round(payload.len() as u64); // checksum pass
    if crc32(&payload) != rec.crc {
        return Err(issue(IssueKind::Checksum));
    }
    let out = match rec.method {
        METHOD_STORED => {
            pram.ledger().round(payload.len() as u64);
            payload
        }
        METHOD_LZ1 => {
            let tokens = decode_tokens(&payload).map_err(|_| issue(IssueKind::BadTokens))?;
            let mut out = Vec::new();
            lz1_decode(pram, &tokens, &mut out, rec.raw_len as usize).map_err(|e| {
                issue(match e {
                    DecodeError::LengthMismatch => IssueKind::LengthMismatch,
                    _ => IssueKind::BadTokens,
                })
            })?;
            out
        }
        _ => return Err(issue(IssueKind::BadMethod)),
    };
    if out.len() as u64 == u64::from(rec.raw_len) {
        Ok(out)
    } else {
        Err(issue(IssueKind::LengthMismatch))
    }
}

/// Decode one fetched payload (see [`StreamReader::raw_block`]) against its
/// index entry: checksum verification followed by decompression.
///
/// Separating the fetch from the decode lets callers fetch payloads from a
/// seekable source sequentially and decode them on independent contexts —
/// what [`StreamReader::decode_waves`] does for each wave.
///
/// # Errors
/// A [`BlockIssue`] naming block `index` on checksum, token, length, or
/// method failures.
pub fn decode_block(
    pram: &Pram,
    index: u64,
    entry: &BlockEntry,
    payload: Vec<u8>,
) -> Result<Vec<u8>, BlockIssue> {
    decode_record(pram, index, &entry.record_header(), payload)
}

/// One slot of a fetched wave: a block's index entry with its raw payload
/// — or, in lenient mode, the fetch-level [`BlockIssue`] (inline header ≠
/// index entry), carried in the slot so sinks still see every block
/// exactly once, in order.
#[derive(Debug)]
struct FetchedBlock {
    index: usize,
    start: u64,
    entry: BlockEntry,
    payload: Result<Vec<u8>, BlockIssue>,
}

/// One decoded wave slot, as [`StreamReader::decode_waves`] hands it to
/// its sink.
#[derive(Debug)]
pub struct DecodedBlock {
    /// Decoded offset of the block's first byte.
    pub start: u64,
    /// The block's bytes, or the issue that stopped it.
    pub data: Result<Vec<u8>, BlockIssue>,
    /// True when `data` is an issue raised by the fetch, not the decode.
    pub at_fetch: bool,
}

impl FetchedBlock {
    /// Decode this slot on the context its wave's super-step hands it — the
    /// stage function of the decode loop. A fetch-level issue passes
    /// through at zero cost.
    fn decode(self, pram: &Pram) -> DecodedBlock {
        let at_fetch = self.payload.is_err();
        let data = self
            .payload
            .and_then(|payload| decode_block(pram, self.index as u64, &self.entry, payload));
        DecodedBlock {
            start: self.start,
            data,
            at_fetch,
        }
    }
}

fn read_exact_or_truncated<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), StreamError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            StreamError::Truncated
        } else {
            StreamError::Io(e)
        }
    })
}

/// Require block `index`'s inline record header `rec` to equal its index
/// entry — the one comparison behind [`StreamReader::raw_block`] and
/// [`ContainerLayout::parse`](crate::ContainerLayout::parse).
pub(crate) fn check_record_header(
    index: usize,
    entry: &BlockEntry,
    rec: &[u8; RECORD_HEADER_LEN],
) -> Result<(), StreamError> {
    let tail = rec[1..].try_into().expect("record tail");
    if parse_record_tail(rec[0], tail) == entry.record_header() {
        Ok(())
    } else {
        Err(StreamError::CorruptBlock {
            index: index as u64,
            kind: IssueKind::HeaderMismatch,
        })
    }
}

enum DecoderState {
    Start,
    Blocks,
    Done,
}

/// A `std::io::Read` adapter decoding a container from any forward-only
/// byte source with bounded memory: at most one decoded block is resident.
///
/// Corrupt blocks are skipped and reported through [`issues`] by default
/// (block independence makes the rest of the stream decodable); strict
/// mode turns the first corrupt block into a read error instead.
///
/// [`issues`]: StreamDecompressor::issues
pub struct StreamDecompressor<'p, R: Read> {
    pram: &'p Pram,
    inner: R,
    state: DecoderState,
    block: Vec<u8>,
    block_pos: usize,
    next_index: u64,
    blocks_ok: u64,
    issues: Vec<BlockIssue>,
    strict: bool,
}

impl<'p, R: Read> StreamDecompressor<'p, R> {
    /// Lenient decoder: corrupt blocks are skipped and reported.
    pub fn new(pram: &'p Pram, inner: R) -> Self {
        Self {
            pram,
            inner,
            state: DecoderState::Start,
            block: Vec::new(),
            block_pos: 0,
            next_index: 0,
            blocks_ok: 0,
            issues: Vec::new(),
            strict: false,
        }
    }

    /// Make the first corrupt block a hard read error.
    #[must_use]
    pub fn strict(mut self) -> Self {
        self.strict = true;
        self
    }

    /// Corrupt blocks encountered so far (index, size, cause).
    #[must_use]
    pub fn issues(&self) -> &[BlockIssue] {
        &self.issues
    }

    /// Blocks decoded successfully so far.
    #[must_use]
    pub fn blocks_decoded(&self) -> u64 {
        self.blocks_ok
    }

    /// Advance to the next decodable block; `Ok(false)` at end of blocks.
    fn next_block(&mut self) -> Result<bool, StreamError> {
        loop {
            if matches!(self.state, DecoderState::Start) {
                let mut header = [0u8; HEADER_LEN];
                read_exact_or_truncated(&mut self.inner, &mut header)?;
                parse_header(&header)?;
                self.state = DecoderState::Blocks;
            }
            let mut method = [0u8; 1];
            read_exact_or_truncated(&mut self.inner, &mut method)?;
            if method[0] == END_OF_BLOCKS {
                self.state = DecoderState::Done;
                return Ok(false);
            }
            let mut tail = [0u8; RECORD_HEADER_LEN - 1];
            read_exact_or_truncated(&mut self.inner, &mut tail)?;
            let rec = parse_record_tail(method[0], &tail);
            let mut payload = vec![0u8; rec.comp_len as usize];
            read_exact_or_truncated(&mut self.inner, &mut payload)?;
            let index = self.next_index;
            self.next_index += 1;
            match decode_record(self.pram, index, &rec, payload) {
                Ok(block) => {
                    self.block = block;
                    self.block_pos = 0;
                    self.blocks_ok += 1;
                    return Ok(true);
                }
                Err(issue) => {
                    if self.strict {
                        return Err(issue.into());
                    }
                    self.issues.push(issue);
                    // Framing is intact (payload was length-prefixed), so
                    // continue with the next record.
                }
            }
        }
    }
}

impl<R: Read> Read for StreamDecompressor<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            if self.block_pos < self.block.len() {
                let n = (self.block.len() - self.block_pos).min(buf.len());
                buf[..n].copy_from_slice(&self.block[self.block_pos..self.block_pos + n]);
                self.block_pos += n;
                return Ok(n);
            }
            match self.state {
                DecoderState::Done => return Ok(0),
                _ => {
                    if !self.next_block()? {
                        return Ok(0);
                    }
                }
            }
        }
    }
}

/// Pump a container from `reader` into `writer` with bounded memory,
/// skipping and reporting corrupt blocks.
///
/// # Errors
/// Structural failures ([`StreamError`]) abort; block-local corruption is
/// returned in the summary instead.
pub fn decompress_stream<R: Read + ?Sized, W: Write>(
    pram: &Pram,
    reader: &mut R,
    mut writer: W,
) -> Result<(W, DecompressSummary), StreamError> {
    let before = pram.cost();
    let mut dec = StreamDecompressor::new(pram, reader);
    let mut bytes = 0u64;
    let mut chunk = vec![0u8; 1 << 16];
    loop {
        let n = dec.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        writer.write_all(&chunk[..n])?;
        bytes += n as u64;
    }
    let summary = DecompressSummary {
        bytes,
        blocks: dec.blocks_decoded(),
        issues: dec.issues().to_vec(),
        cost: pram.cost().since(before),
    };
    Ok((writer, summary))
}

/// Random-access reader over a seekable container: loads and verifies the
/// index footer once, then serves any byte range by decoding only the
/// covering blocks — O(1) seek-to-block via the fixed raw block size.
pub struct StreamReader<R: Read + Seek> {
    inner: R,
    index: StreamIndex,
}

impl<R: Read + Seek> StreamReader<R> {
    /// Open a container: parse header and trailer, load the footer, and
    /// cross-validate the whole frame structure (entry chaining, block
    /// sizes, footer checksum, end-of-blocks marker), so that any
    /// single-bit corruption of the metadata is caught here and any
    /// corruption of a payload is caught by that block's CRC on read.
    ///
    /// # Errors
    /// [`StreamError`] on any structural inconsistency.
    pub fn open(mut inner: R) -> Result<Self, StreamError> {
        let file_len = inner.seek(SeekFrom::End(0))?;
        inner.seek(SeekFrom::Start(0))?;
        let mut header = [0u8; HEADER_LEN];
        let got = {
            // Tolerate sub-header files for a precise NotAContainer signal.
            let mut filled = 0;
            while filled < HEADER_LEN {
                let n = inner.read(&mut header[filled..])?;
                if n == 0 {
                    break;
                }
                filled += n;
            }
            filled
        };
        let block_size = parse_header(&header[..got])?;

        let min_len = (HEADER_LEN + 1 + TRAILER_LEN) as u64;
        if file_len < min_len {
            return Err(StreamError::Truncated);
        }
        inner.seek(SeekFrom::Start(file_len - TRAILER_LEN as u64))?;
        let mut trailer = [0u8; TRAILER_LEN];
        read_exact_or_truncated(&mut inner, &mut trailer)?;
        let (footer_off, num_blocks, footer_crc) = parse_trailer(&trailer)?;

        let footer_len = num_blocks
            .checked_mul(FOOTER_ENTRY_LEN as u64)
            .ok_or(StreamError::CorruptFooter("block count overflow"))?;
        if footer_off < (HEADER_LEN + 1) as u64
            || footer_off
                .checked_add(footer_len)
                .and_then(|x| x.checked_add(TRAILER_LEN as u64))
                != Some(file_len)
        {
            return Err(StreamError::CorruptFooter("offsets do not tile the file"));
        }
        inner.seek(SeekFrom::Start(footer_off - 1))?;
        let mut marker = [0u8; 1];
        read_exact_or_truncated(&mut inner, &mut marker)?;
        if marker[0] != END_OF_BLOCKS {
            return Err(StreamError::CorruptFooter("missing end-of-blocks marker"));
        }
        let mut footer = vec![0u8; footer_len as usize];
        read_exact_or_truncated(&mut inner, &mut footer)?;
        if crc32(&footer) != footer_crc {
            return Err(StreamError::CorruptFooter("footer checksum mismatch"));
        }
        let entries = parse_footer(&footer)?;

        // Entries must chain exactly from the header to the end marker.
        let mut expect = HEADER_LEN as u64;
        for (i, e) in entries.iter().enumerate() {
            if e.offset != expect {
                return Err(StreamError::CorruptFooter("entry offsets do not chain"));
            }
            expect = e.offset + (RECORD_HEADER_LEN as u64) + u64::from(e.comp_len);
            let last = i + 1 == entries.len();
            if (!last && u64::from(e.raw_len) != block_size)
                || (last && (e.raw_len == 0 || u64::from(e.raw_len) > block_size))
            {
                return Err(StreamError::CorruptFooter("block sizes violate layout"));
            }
            if e.method == METHOD_STORED && e.comp_len != e.raw_len {
                return Err(StreamError::CorruptFooter("stored block length mismatch"));
            }
            if e.method != METHOD_LZ1 && e.method != METHOD_STORED {
                return Err(StreamError::CorruptFooter("unknown block method"));
            }
        }
        if expect + 1 != footer_off {
            return Err(StreamError::CorruptFooter("blocks do not reach the footer"));
        }

        Ok(Self {
            inner,
            index: StreamIndex {
                block_size,
                entries,
            },
        })
    }

    /// The validated block index.
    #[must_use]
    pub fn index(&self) -> &StreamIndex {
        &self.index
    }

    /// Total decoded length of the stream.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.index.total_raw()
    }

    /// True when the stream decodes to zero bytes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn entry(&self, i: usize) -> BlockEntry {
        self.index.entries[i]
    }

    /// Fetch block `i`'s *compressed* payload without decoding it, after
    /// verifying the inline record header against the footer entry. Pair
    /// with [`decode_block`] (free function) to decode on any context —
    /// possibly a different one per block, in parallel.
    ///
    /// # Errors
    /// [`StreamError::CorruptBlock`] with [`IssueKind::HeaderMismatch`]
    /// when the inline header disagrees with the index; I/O errors pass
    /// through.
    pub fn raw_block(&mut self, i: usize) -> Result<Vec<u8>, StreamError> {
        let e = self.entry(i);
        self.inner.seek(SeekFrom::Start(e.offset))?;
        let mut rec = [0u8; RECORD_HEADER_LEN];
        read_exact_or_truncated(&mut self.inner, &mut rec)?;
        check_record_header(i, &e, &rec)?;
        let mut payload = vec![0u8; e.comp_len as usize];
        read_exact_or_truncated(&mut self.inner, &mut payload)?;
        Ok(payload)
    }

    /// Fetch blocks `range` serially from the seekable source — the one
    /// place a wave of raw payloads is read. A block whose inline header
    /// disagrees with the index raises [`StreamError::CorruptBlock`] when
    /// `strict`, and otherwise rides in its slot as a [`BlockIssue`].
    fn fetch_wave(
        &mut self,
        range: std::ops::Range<usize>,
        strict: bool,
    ) -> Result<Vec<FetchedBlock>, StreamError> {
        range
            .map(|i| {
                let entry = self.entry(i);
                let payload = match self.raw_block(i) {
                    Ok(p) => Ok(p),
                    Err(StreamError::CorruptBlock { index, kind }) if !strict => Err(BlockIssue {
                        index,
                        raw_len: entry.raw_len,
                        kind,
                    }),
                    Err(e) => return Err(e),
                };
                Ok(FetchedBlock {
                    index: i,
                    start: self.index.block_start(i),
                    entry,
                    payload,
                })
            })
            .collect()
    }

    /// The one container decode loop: blocks `blocks` in waves of `wave`
    /// blocks through [`pardict_exec::run_waves`], each wave fetched
    /// serially from the source and decoded as one [`Pram::superstep`] of
    /// block-size-wide slots under a `name` span — concurrently when `pram`
    /// is parallel, charged Σ work / max depth either way. `sink` sees each
    /// wave's blocks in order, every block exactly once, and runs inside
    /// the wave's span. A block whose inline header disagrees with the
    /// index is an error when `strict` and otherwise reaches the sink as a
    /// fetch-level issue; decode issues always reach the sink.
    ///
    /// # Errors
    /// Structural and I/O failures, header mismatches when `strict`,
    /// [`StreamError::Cancelled`] at an expired wave boundary, and
    /// whatever `sink` raises.
    pub fn decode_waves(
        &mut self,
        pram: &Pram,
        name: &'static str,
        blocks: std::ops::Range<usize>,
        wave: usize,
        strict: bool,
        sink: impl FnMut(Vec<DecodedBlock>) -> Result<(), StreamError>,
    ) -> Result<(), StreamError> {
        let wave = wave.max(1);
        let block_size = self.index.block_size as usize;
        let mut next = blocks.start;
        pardict_exec::run_waves(
            pram,
            name,
            block_size,
            || {
                if next >= blocks.end {
                    return Ok(None);
                }
                let first = next;
                next = (first + wave).min(blocks.end);
                Ok(Some((first as u64, self.fetch_wave(first..next, strict)?)))
            },
            |p, fetched: FetchedBlock| fetched.decode(p),
            sink,
        )
    }

    /// Decode exactly the bytes `start..end` of the original stream,
    /// touching only the covering blocks (decoded in parallel waves under
    /// a parallel context).
    ///
    /// # Errors
    /// [`StreamError::RangeOutOfBounds`] for ranges past the end;
    /// [`StreamError::CorruptBlock`] when a covering block is corrupt (a
    /// partial range cannot be silently patched).
    pub fn read_range(
        &mut self,
        pram: &Pram,
        start: u64,
        end: u64,
    ) -> Result<Vec<u8>, StreamError> {
        let len = self.len();
        if start > end || end > len {
            return Err(StreamError::RangeOutOfBounds { start, end, len });
        }
        if start == end {
            return Ok(Vec::new());
        }
        let blocks = self.index.covering(start, end);
        let first_start = self.index.block_start(blocks.start);
        let mut out = Vec::with_capacity((end - start) as usize);
        let wave = pardict_pram::harts();
        self.decode_waves(pram, "decode-wave", blocks, wave, false, |slots| {
            for slot in slots {
                out.extend_from_slice(&slot.data?);
            }
            Ok(())
        })?;
        let lo = (start - first_start) as usize;
        let hi = (end - first_start) as usize;
        out.drain(hi..);
        out.drain(..lo);
        Ok(out)
    }

    /// Decode the whole stream leniently into `out`, one wave resident at
    /// a time: every good block is written in order, corrupt blocks are
    /// skipped and returned. Blocks decode in parallel waves under a
    /// parallel context.
    ///
    /// # Errors
    /// Only I/O failures (either side); corruption is reported, not
    /// raised.
    pub fn copy_to<W: Write + ?Sized>(
        &mut self,
        pram: &Pram,
        out: &mut W,
    ) -> Result<Vec<BlockIssue>, StreamError> {
        let mut issues = Vec::new();
        let n = self.index.num_blocks();
        let wave = pardict_pram::harts();
        self.decode_waves(pram, "decode-wave", 0..n, wave, false, |slots| {
            for slot in slots {
                match slot.data {
                    Ok(bytes) => out.write_all(&bytes)?,
                    Err(issue) => issues.push(issue),
                }
            }
            Ok(())
        })?;
        Ok(issues)
    }

    /// [`StreamReader::copy_to`] into memory: the concatenation of every
    /// good block alongside the corrupt blocks skipped.
    ///
    /// # Errors
    /// Only I/O failures; corruption is reported, not raised.
    pub fn read_all(&mut self, pram: &Pram) -> Result<(Vec<u8>, Vec<BlockIssue>), StreamError> {
        let mut out = Vec::new();
        let issues = self.copy_to(pram, &mut out)?;
        Ok((out, issues))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{compress_stream, StreamConfig};

    fn pack(data: &[u8], block_size: usize) -> Vec<u8> {
        let pram = Pram::seq();
        let cfg = StreamConfig {
            block_size,
            max_in_flight: 4,
        };
        compress_stream(&pram, &mut &data[..], Vec::new(), &cfg)
            .unwrap()
            .0
    }

    #[test]
    fn streaming_roundtrip() {
        let data = b"she sells sea shells by the sea shore ".repeat(50);
        let packed = pack(&data, 300);
        let pram = Pram::seq();
        let (out, summary) = decompress_stream(&pram, &mut &packed[..], Vec::new()).unwrap();
        assert_eq!(out, data);
        assert!(summary.issues.is_empty());
        assert_eq!(summary.bytes, data.len() as u64);
        assert_eq!(summary.blocks, data.len().div_ceil(300) as u64);
    }

    #[test]
    fn seekable_roundtrip_and_ranges() {
        let data: Vec<u8> = (0..5000u32)
            .flat_map(|i| [(i % 251 + 1) as u8, b'x'])
            .collect();
        let packed = pack(&data, 512);
        let pram = Pram::seq();
        let mut rdr = StreamReader::open(std::io::Cursor::new(&packed)).unwrap();
        assert_eq!(rdr.len(), data.len() as u64);
        let (all, issues) = rdr.read_all(&pram).unwrap();
        assert_eq!(all, data);
        assert!(issues.is_empty());
        for (a, b) in [(0u64, 10u64), (511, 513), (1000, 3000), (9990, 10000)] {
            assert_eq!(
                rdr.read_range(&pram, a, b).unwrap(),
                &data[a as usize..b as usize],
                "range {a}..{b}"
            );
        }
        assert_eq!(rdr.read_range(&pram, 5, 5).unwrap(), Vec::<u8>::new());
        assert!(matches!(
            rdr.read_range(&pram, 0, data.len() as u64 + 1),
            Err(StreamError::RangeOutOfBounds { .. })
        ));
    }

    #[test]
    fn raw_block_and_decode_block_compose_to_read_range() {
        let data = b"yet another rainy day in the glasshouse ".repeat(60);
        let packed = pack(&data, 480); // 5 blocks
        let pram = Pram::seq();
        let mut rdr = StreamReader::open(std::io::Cursor::new(&packed)).unwrap();
        let e = rdr.index().entries[1];
        let payload = rdr.raw_block(1).unwrap();
        assert_eq!(
            decode_block(&pram, 1, &e, payload).unwrap(),
            rdr.read_range(&pram, 480, 960).unwrap()
        );
    }

    #[test]
    fn range_reads_touch_only_covering_blocks() {
        let data = b"abcdefgh".repeat(4096); // 32 KiB
        let packed = pack(&data, 2048); // 16 blocks
        let pram_full = Pram::seq();
        let mut rdr = StreamReader::open(std::io::Cursor::new(&packed)).unwrap();
        let (_, full_cost) = pram_full.metered(|p| rdr.read_all(p).unwrap());
        let pram_range = Pram::seq();
        let (_, range_cost) = pram_range.metered(|p| rdr.read_range(p, 4096, 6000).unwrap());
        // One covering block out of 16: work must be a small fraction.
        assert!(
            range_cost.work * 8 < full_cost.work,
            "range decode did not stay block-local: {} vs {}",
            range_cost.work,
            full_cost.work
        );
    }

    #[test]
    fn payload_corruption_is_skipped_and_reported() {
        let data = b"round and round the ragged rock the ragged rascal ran ".repeat(40);
        let mut packed = pack(&data, 512);
        // Corrupt one byte well inside the middle of the block section.
        let mid = HEADER_LEN + (packed.len() - HEADER_LEN - TRAILER_LEN) / 2;
        packed[mid] ^= 0x40;
        let pram = Pram::seq();
        let mut rdr = StreamReader::open(std::io::Cursor::new(&packed)).unwrap();
        let (out, issues) = rdr.read_all(&pram).unwrap();
        assert_eq!(issues.len(), 1, "exactly one block must be reported");
        let lost = u64::from(issues[0].raw_len);
        assert_eq!(out.len() as u64 + lost, data.len() as u64);
        // Strict streaming decode refuses instead.
        let mut strict = StreamDecompressor::new(&pram, &packed[..]).strict();
        let mut sink = Vec::new();
        assert!(std::io::copy(&mut strict, &mut sink).is_err());
    }

    #[test]
    fn truncation_is_detected() {
        let data = b"twelve drummers drumming ".repeat(30);
        let packed = pack(&data, 256);
        let pram = Pram::seq();
        // Any truncation breaks the seekable open (trailer/footer gone or
        // offsets no longer tile the file).
        for cut in [packed.len() - 1, packed.len() - TRAILER_LEN - 2, 40, 17, 3] {
            let sliced = &packed[..cut];
            let opened = StreamReader::open(std::io::Cursor::new(sliced));
            assert!(opened.is_err(), "cut at {cut} must not open cleanly");
        }
        // Cuts inside the block section must fail the streaming decode too.
        for cut in [40, 17, 3] {
            let sliced = &packed[..cut];
            assert!(
                decompress_stream(&pram, &mut &sliced[..], Vec::new()).is_err(),
                "cut at {cut} must not stream cleanly"
            );
        }
        // Cuts inside the index region leave the block section intact, so
        // the forward streaming decode still yields the exact data.
        let sliced = &packed[..packed.len() - TRAILER_LEN - 2];
        let (out, summary) = decompress_stream(&pram, &mut &sliced[..], Vec::new()).unwrap();
        assert_eq!(out, data);
        assert!(summary.issues.is_empty());
    }
}
