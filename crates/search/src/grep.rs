//! The grep engine: wave-parallel decode + match with overlap stitching.

use pardict_core::{append_in_order, Hit, SegmentedMatcher};
use pardict_pram::{Cost, Pram};
use pardict_stream::{BlockIssue, DecodedBlock, StreamError, StreamReader};
use std::io::{Read, Seek};

/// What one grep run over a container produced.
#[derive(Debug, Clone, Default)]
pub struct GrepSummary {
    /// Every occurrence, in [`Hit`]'s order: position, then decreasing
    /// length, then id.
    pub hits: Vec<Hit>,
    /// Blocks decoded and searched (covering blocks only, not the whole
    /// container).
    pub blocks_searched: u64,
    /// Corrupt blocks skipped; matches are suppressed only in the spans
    /// these blocks cover (plus any overlap reaching into a neighbor).
    pub issues: Vec<BlockIssue>,
    /// Ledger cost attributed to this run (wave-aggregated).
    pub cost: Cost,
}

/// Grep policy knobs.
#[derive(Debug, Clone)]
pub struct GrepConfig {
    /// Blocks decoded and matched concurrently per wave; bounds resident
    /// memory at roughly one wave of decoded blocks plus the overlap tail.
    pub wave: usize,
    /// When set, the first corrupt block aborts the run with
    /// [`StreamError::CorruptBlock`] instead of being skipped-and-reported.
    pub strict: bool,
}

impl Default for GrepConfig {
    fn default() -> Self {
        Self {
            wave: pardict_pram::harts(),
            strict: false,
        }
    }
}

impl GrepConfig {
    /// Make the first corrupt block a hard error.
    #[must_use]
    pub fn strict(mut self) -> Self {
        self.strict = true;
        self
    }

    /// The config unchanged: every grep runs the one wave schedule, in
    /// which each wave fully matches before the next decodes. Kept so
    /// existing callers still compile.
    #[must_use]
    pub fn barrier(self) -> Self {
        self
    }
}

/// One block's search buffer: the overlap tail prefixed to the decoded
/// block, with the global offset of the buffer's first byte.
struct SearchBuf {
    /// Global offset of the block's first raw byte (hits ending at or
    /// before this were an earlier block's responsibility).
    block_start: u64,
    /// Global offset of `bytes[0]` (`block_start − tail length`).
    buf_start: u64,
    bytes: Vec<u8>,
}

/// Match one stitched search buffer on the context the match super-step
/// hands it — slot function of that super-step — and keep the hits
/// starting in `start..end`. A hit starting before `end` ends before
/// `end + max_len − 1`, so only the buffer from `start` to there is
/// scanned.
fn match_buf(
    pram: &Pram,
    matcher: &SegmentedMatcher,
    b: &SearchBuf,
    start: u64,
    end: u64,
    max_len: u64,
) -> Vec<Hit> {
    let clamp = |at: u64| at.saturating_sub(b.buf_start).min(b.bytes.len() as u64) as usize;
    let hi = clamp(end + max_len.saturating_sub(1));
    let lo = clamp(start).min(hi);
    let base = b.buf_start + lo as u64;
    matcher
        .find_all(pram, &b.bytes[lo..hi])
        .into_iter()
        .map(|(pos, m)| Hit::at(base + pos as u64, m))
        // A hit ending inside the tail belongs to an earlier block;
        // keeping only hits that end past the block start makes each
        // occurrence the responsibility of exactly one block.
        .filter(|h| h.pos + u64::from(h.len) > b.block_start && h.pos >= start && h.pos < end)
        .collect()
}

/// Report every dictionary occurrence in the container's decoded stream,
/// without materializing that stream.
///
/// Equivalent to decompressing and running
/// [`SegmentedMatcher::find_all`] (one exact automaton scan) over the whole
/// text, but with at most one wave of blocks resident; see the crate docs
/// for the stitching and accounting scheme.
///
/// # Errors
/// Structural container failures always abort; block-local corruption
/// aborts only under [`GrepConfig::strict`] and is otherwise reported in
/// the summary with matches suppressed in the affected span.
pub fn grep_container<R: Read + Seek>(
    pram: &Pram,
    matcher: &SegmentedMatcher,
    rdr: &mut StreamReader<R>,
    cfg: &GrepConfig,
) -> Result<GrepSummary, StreamError> {
    let len = rdr.len();
    grep_range(pram, matcher, rdr, 0, len, cfg)
}

/// Like [`grep_container`], but report only occurrences **starting** in
/// `start..end`, decoding only the covering blocks plus the overlap needed
/// to detect hits that straddle out of the range.
///
/// # Errors
/// [`StreamError::RangeOutOfBounds`] for ranges past the end; otherwise
/// as [`grep_container`].
pub fn grep_range<R: Read + Seek>(
    pram: &Pram,
    matcher: &SegmentedMatcher,
    rdr: &mut StreamReader<R>,
    start: u64,
    end: u64,
    cfg: &GrepConfig,
) -> Result<GrepSummary, StreamError> {
    let len = rdr.len();
    if start > end || end > len {
        return Err(StreamError::RangeOutOfBounds { start, end, len });
    }
    let before = pram.cost();
    let mut summary = GrepSummary::default();
    if start == end {
        return Ok(summary);
    }
    let m = matcher.max_pattern_len() as u64;
    // A hit starting at `end − 1` extends at most `m` bytes; cover that
    // far so straddling hits are detected, but never past the stream.
    let cover_end = (end - 1).saturating_add(m).min(len);
    let blocks = rdr.index().covering(start, cover_end);

    // The overlap tail carried into the next block: the last `m − 1`
    // bytes seen so far (accumulating across blocks shorter than `m − 1`).
    let mut tail: Vec<u8> = Vec::new();
    // Each searched block's hits, in block order.
    let mut blocks_hits: Vec<Vec<Hit>> = Vec::new();
    let block_size = rdr.index().block_size as usize;
    let strict = cfg.strict;
    // One decode loop; this sink stitches each wave's buffers and runs the
    // match super-step inside the wave's span.
    rdr.decode_waves(
        pram,
        "search-wave",
        blocks,
        cfg.wave,
        strict,
        |slots: Vec<DecodedBlock>| {
            // Fetch-level issues surface before decode issues, in block
            // order — the reporting order the serial engine had.
            for s in &slots {
                if let (Err(issue), true) = (&s.data, s.at_fetch) {
                    summary.issues.push(*issue);
                }
            }
            // Stitch: build each block's search buffer (tail ++ block) and
            // advance the tail. Sequential by necessity — the tail chains —
            // but O(wave bytes), charged as one round.
            let mut bufs = Vec::with_capacity(slots.len());
            let mut copied = 0u64;
            for s in slots {
                match s.data {
                    Ok(bytes) => {
                        let mut buf = Vec::with_capacity(tail.len() + bytes.len());
                        buf.extend_from_slice(&tail);
                        buf.extend_from_slice(&bytes);
                        copied += buf.len() as u64;
                        let keep = buf.len().min(m.saturating_sub(1) as usize);
                        tail = buf[buf.len() - keep..].to_vec();
                        bufs.push(SearchBuf {
                            block_start: s.start,
                            buf_start: s.start - (buf.len() - bytes.len()) as u64,
                            bytes: buf,
                        });
                    }
                    Err(issue) => {
                        if strict {
                            return Err(StreamError::from(issue));
                        }
                        if !s.at_fetch {
                            summary.issues.push(issue);
                        }
                        // The overlap into the successor is gone with the
                        // block; matches resume cleanly at the next boundary.
                        tail.clear();
                    }
                }
            }
            pram.ledger().round(copied);
            summary.blocks_searched += bufs.len() as u64;

            // Super-step 2: match the wave.
            pram.superstep(
                bufs,
                block_size,
                |p, b: SearchBuf| match_buf(p, matcher, &b, start, end, m),
                |_, hits| blocks_hits.push(hits),
            );
            Ok(())
        },
    )?;

    // The ordering round: every hit is placed once, in canonical order,
    // into a list allocated at its final length (one grown by doubling
    // can hold twice its hits).
    summary.hits = Vec::with_capacity(blocks_hits.iter().map(Vec::len).sum());
    for hits in blocks_hits {
        append_in_order(&mut summary.hits, hits);
    }
    pram.ledger().round(summary.hits.len() as u64);
    summary.cost = pram.cost().since(before);
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardict_core::{brute_force_occurrences, Dictionary};
    use pardict_stream::{compress_stream, StreamConfig};

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

    fn matcher(patterns: &[&str]) -> SegmentedMatcher {
        let patterns = patterns.iter().map(|p| p.as_bytes().to_vec()).collect();
        SegmentedMatcher::build(&Pram::seq(), patterns)
    }

    /// Every occurrence in the raw text by direct comparison, independent
    /// of the matcher under test.
    fn oracle(matcher: &SegmentedMatcher, text: &[u8]) -> Vec<Hit> {
        let dict = Dictionary::new(matcher.patterns());
        let mut hits: Vec<Hit> = brute_force_occurrences(&dict, text)
            .into_iter()
            .map(|(pos, m)| Hit::at(pos as u64, m))
            .collect();
        hits.sort();
        hits
    }

    #[test]
    fn hits_match_the_uncompressed_oracle() {
        let text = b"she sells sea shells by the sea shore ushers hush ".repeat(8);
        let m = matcher(&["he", "she", "sea", "shells", "hers"]);
        for block_size in [7, 16, 64, 512] {
            let packed = pack(&text, block_size);
            let pram = Pram::seq();
            let mut rdr = StreamReader::open(std::io::Cursor::new(&packed)).unwrap();
            let got = grep_container(&pram, &m, &mut rdr, &GrepConfig::default()).unwrap();
            assert_eq!(got.hits, oracle(&m, &text), "block_size {block_size}");
            assert!(got.issues.is_empty());
        }
    }

    #[test]
    fn pattern_longer_than_block_straddles_many_boundaries() {
        // An 11-byte pattern over 4-byte blocks: every hit spans ≥ 2
        // boundaries and must survive the accumulated tail.
        let text = b"xxabracadabraxyxabracadabrazz".to_vec();
        let m = matcher(&["abracadabra", "xy"]);
        let packed = pack(&text, 4);
        let pram = Pram::seq();
        let mut rdr = StreamReader::open(std::io::Cursor::new(&packed)).unwrap();
        let got = grep_container(&pram, &m, &mut rdr, &GrepConfig::default()).unwrap();
        assert_eq!(got.hits, oracle(&m, &text));
        assert!(got.hits.iter().any(|h| h.len == 11));
    }

    #[test]
    fn every_range_over_blocks_shorter_than_a_pattern_equals_the_oracle() {
        // Blocks of 3 bytes against patterns of up to 7, one of them twice:
        // hits straddle several boundaries and come first in the list of
        // the block they end in, and every range cuts the scan short.
        let text = b"abaababaabaababaababa".repeat(2);
        let m = matcher(&["aba", "ab", "abaabab", "ba", "aba", "b"]);
        let packed = pack(&text, 3);
        let pram = Pram::seq();
        let mut rdr = StreamReader::open(std::io::Cursor::new(&packed)).unwrap();
        let all = oracle(&m, &text);
        let cfg = GrepConfig::default();
        assert_eq!(grep_container(&pram, &m, &mut rdr, &cfg).unwrap().hits, all);
        let n = text.len() as u64;
        for a in 0..n {
            for b in a..=n {
                let got = grep_range(&pram, &m, &mut rdr, a, b, &cfg).unwrap();
                let want: Vec<Hit> = all
                    .iter()
                    .copied()
                    .filter(|h| (a..b).contains(&h.pos))
                    .collect();
                assert_eq!(got.hits, want, "range {a}..{b}");
            }
        }
    }

    #[test]
    fn range_grep_reports_only_hits_starting_in_range() {
        let text = b"banana banana banana banana ".repeat(10);
        let m = matcher(&["ban", "ana", "nan"]);
        let packed = pack(&text, 32);
        let pram = Pram::seq();
        let mut rdr = StreamReader::open(std::io::Cursor::new(&packed)).unwrap();
        let all = oracle(&m, &text);
        for (a, b) in [(0u64, 10u64), (30, 95), (100, 101), (5, 5)] {
            let got = grep_range(&pram, &m, &mut rdr, a, b, &GrepConfig::default()).unwrap();
            let expect: Vec<Hit> = all
                .iter()
                .copied()
                .filter(|h| h.pos >= a && h.pos < b)
                .collect();
            assert_eq!(got.hits, expect, "range {a}..{b}");
        }
        assert!(matches!(
            grep_range(
                &pram,
                &m,
                &mut rdr,
                0,
                text.len() as u64 + 1,
                &GrepConfig::default()
            ),
            Err(StreamError::RangeOutOfBounds { .. })
        ));
    }

    #[test]
    fn seq_and_par_agree_on_hits_and_ledger() {
        let text = b"the cat sat on the mat with another cat and a rat ".repeat(40);
        let m = matcher(&["cat", "at ", "the", "rat"]);
        let packed = pack(&text, 256);
        let cfg = GrepConfig {
            wave: 3,
            strict: false,
        };
        let mut rdr = StreamReader::open(std::io::Cursor::new(&packed)).unwrap();
        let seq = Pram::seq();
        let (a, ca) = seq.metered(|p| grep_container(p, &m, &mut rdr, &cfg).unwrap());
        let par = Pram::par();
        let (b, cb) = par.metered(|p| grep_container(p, &m, &mut rdr, &cfg).unwrap());
        assert_eq!(a.hits, b.hits);
        assert_eq!(ca, cb, "ledger attribution must be mode-independent");
    }

    #[test]
    fn strict_mode_fails_on_corruption_lenient_reports() {
        let text = b"one potato two potato three potato four ".repeat(30);
        let m = matcher(&["potato", "two"]);
        let mut packed = pack(&text, 128);
        let target = {
            let rdr = StreamReader::open(std::io::Cursor::new(&packed)).unwrap();
            let e = rdr.index().entries[3];
            e.offset as usize + pardict_stream::format::RECORD_HEADER_LEN
        };
        packed[target] ^= 0x08;
        let pram = Pram::seq();
        let mut rdr = StreamReader::open(std::io::Cursor::new(&packed)).unwrap();

        let lenient = grep_container(&pram, &m, &mut rdr, &GrepConfig::default()).unwrap();
        assert_eq!(lenient.issues.len(), 1);
        assert_eq!(lenient.issues[0].index, 3);
        // Every hit that does not intersect block 3's byte span must
        // survive: ends before the span, or starts at/after its end (the
        // successor needs no tail for those).
        let s3 = 3 * 128u64;
        let e3 = 4 * 128u64;
        let survivors: Vec<Hit> = oracle(&m, &text)
            .into_iter()
            .filter(|h| h.pos + u64::from(h.len) <= s3 || h.pos >= e3)
            .collect();
        for h in &survivors {
            assert!(
                lenient.hits.contains(h),
                "lost hit {h:?} outside corrupt span"
            );
        }

        assert!(matches!(
            grep_container(&pram, &m, &mut rdr, &GrepConfig::default().strict()),
            Err(StreamError::CorruptBlock { index: 3, .. })
        ));
    }
}
