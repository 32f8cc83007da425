//! Chunked parallel compression: fixed-size blocks, compressed
//! independently in waves, framed into the container format.
//!
//! Fischer–Gagie–Gawrychowski–Kociumaka (*Approximating LZ77 via
//! Small-Space Multiple-Pattern Matching*) is the licence for chunking:
//! restricting back-references to a block-local window yields a provably
//! bounded approximation of the full LZ77 parse, while buying block
//! independence — bounded memory, parallel blocks, and O(1) random access.
//!
//! Parallel accounting follows the PRAM model the workspace is built on: a
//! wave of in-flight blocks is one parallel super-step, so its ledger
//! charge is the **sum of block work** and the **maximum of block depths**.
//! The parallelism is *across* blocks: each block is one slot of a
//! [`Pram::superstep`], so it runs the sequential half of Theorem 4.2 —
//! Lemma 4.1's match table, then the greedy emitter one phrase per round
//! ([`pardict_compress::lz77_sequential`]). Its tokens are the ones
//! `lz1_compress` would emit for the same seed; the PRAM emitter's jump-tree
//! forest and Euler tour stay in the reproduction, where they are the
//! oracle. The caller's [`Pram`] receives the aggregated attribution — the
//! same scheme the service engine uses per batch.

use crate::error::StreamError;
use crate::format::{
    encode_header, Framer, RecordHeader, DEFAULT_BLOCK_SIZE, MAX_BLOCK_SIZE, METHOD_LZ1,
    METHOD_STORED,
};
use pardict_compress::{decodes_back, encode_tokens, lz77_sequential};
use pardict_core::crc32;
use pardict_pram::{Cost, Pram, SplitMix64};
use std::io::{Read, Write};

/// Seed for the block-local LZ1 fingerprint family; fixed (and mixed with
/// the block index) so container bytes are reproducible across runs and
/// replicas.
pub const STREAM_SEED: u64 = 0x57E4_A11B_10C5_EED5;

/// Streaming pipeline knobs.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Raw bytes per block. Larger blocks compress better (more window)
    /// but cost more memory per in-flight block and coarser random access.
    pub block_size: usize,
    /// Blocks compressed concurrently per wave; bounds in-flight memory at
    /// roughly `block_size * max_in_flight` plus outputs.
    pub max_in_flight: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            block_size: DEFAULT_BLOCK_SIZE,
            max_in_flight: pardict_pram::harts(),
        }
    }
}

impl StreamConfig {
    /// A config with the given block size and default parallelism.
    ///
    /// # Panics
    /// When `block_size` is zero or exceeds [`MAX_BLOCK_SIZE`].
    #[must_use]
    pub fn with_block_size(block_size: usize) -> Self {
        assert!(
            (1..=MAX_BLOCK_SIZE).contains(&block_size),
            "block size {block_size} out of range"
        );
        Self {
            block_size,
            ..Self::default()
        }
    }
}

/// What one finished compression run produced.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompressSummary {
    /// Raw bytes consumed.
    pub raw_bytes: u64,
    /// Total container bytes emitted (header through trailer).
    pub container_bytes: u64,
    /// Number of blocks.
    pub blocks: u64,
    /// Blocks stored verbatim (incompressible, or containing NUL).
    pub stored_blocks: u64,
    /// Total LZ1 phrases across compressed blocks.
    pub phrases: u64,
    /// Ledger cost attributed to this run (wave-aggregated).
    pub cost: Cost,
}

/// Per-block seed: deterministic by index, independent of wave grouping.
fn block_seed(index: u64) -> u64 {
    SplitMix64::new(STREAM_SEED ^ index).next_u64()
}

struct BlockOut {
    rec: RecordHeader,
    payload: Vec<u8>,
    phrases: u64,
}

/// Compress one block on the context its wave's super-step hands it — the
/// stage function of the compress loop. Blocks containing the NUL
/// sentinel (reserved by the suffix tree) and blocks that LZ1 fails to
/// shrink are stored verbatim, so the container accepts arbitrary bytes.
///
/// The parse's copy lengths come from fingerprint LCPs, exact only with
/// high probability, and the record CRC covers the payload, not the raw
/// bytes. So a parse is kept only if it decodes back to the block; after a
/// fingerprint collision the block is stored verbatim instead.
fn compress_block(pram: &Pram, block: Vec<u8>, index: u64) -> BlockOut {
    let raw_len = block.len() as u32;
    let mut kept = None;
    if block.contains(&0) {
        pram.ledger().round(block.len() as u64);
    } else {
        // A parse not worth keeping was still computed — a real cost,
        // still charged.
        let tokens = lz77_sequential(pram, &block, block_seed(index));
        #[cfg(test)]
        let tokens = match tests::TAMPER.with(std::cell::Cell::take) {
            Some(tamper) => tamper(tokens),
            None => tokens,
        };
        let payload = encode_tokens(&tokens);
        if payload.len() < block.len() && decodes_back(pram, &tokens, &[], &block) {
            kept = Some((payload, tokens.len() as u64));
        }
    }
    let (method, payload, phrases) = match kept {
        Some((payload, phrases)) => (METHOD_LZ1, payload, phrases),
        None => (METHOD_STORED, block, 0),
    };
    let rec = RecordHeader {
        method,
        raw_len,
        comp_len: payload.len() as u32,
        crc: crc32(&payload),
    };
    BlockOut {
        rec,
        payload,
        phrases,
    }
}

/// Compress `reader` into a container on `writer` with bounded in-flight
/// memory: one [`pardict_exec::run_waves`] loop whose source reads the
/// next `max_in_flight` blocks, whose stage compresses each block (all of
/// a wave concurrently when `pram` is parallel, charged Σ work / max depth
/// under a `compress-wave` span indexed by the wave's first block), and
/// whose sink frames and writes the wave.
///
/// # Errors
/// Propagates I/O failures from either side;
/// [`StreamError::Cancelled`] when the caller's ambient deadline
/// ([`pardict_exec::with_deadline`]) has expired at a wave boundary.
///
/// # Panics
/// When `cfg.block_size` is zero or exceeds [`MAX_BLOCK_SIZE`].
pub fn compress_stream<R: Read + ?Sized, W: Write>(
    pram: &Pram,
    reader: &mut R,
    mut writer: W,
    cfg: &StreamConfig,
) -> Result<(W, CompressSummary), StreamError> {
    assert!(
        (1..=MAX_BLOCK_SIZE).contains(&cfg.block_size),
        "block size {} out of range",
        cfg.block_size
    );
    writer.write_all(&encode_header(cfg.block_size as u64))?;
    let before = pram.cost();
    let mut framer = Framer::default();
    let mut summary = CompressSummary::default();
    let mut eof = false;
    pardict_exec::run_waves(
        pram,
        "compress-wave",
        cfg.block_size,
        || -> Result<_, StreamError> {
            let first = summary.blocks;
            let mut blocks = Vec::new();
            while !eof && blocks.len() < cfg.max_in_flight.max(1) {
                // Pre-sized to 1 MiB at most: `block_size` may be far larger
                // than what is left of the input.
                let mut block = Vec::with_capacity(cfg.block_size.min(1 << 20));
                (&mut *reader)
                    .take(cfg.block_size as u64)
                    .read_to_end(&mut block)?;
                eof = block.len() < cfg.block_size;
                if !block.is_empty() {
                    summary.raw_bytes += block.len() as u64;
                    blocks.push((summary.blocks, block));
                    summary.blocks += 1;
                }
            }
            Ok((!blocks.is_empty()).then_some((first, blocks)))
        },
        |p, (index, block)| compress_block(p, block, index),
        |outs: Vec<BlockOut>| {
            for out in outs {
                writer.write_all(&framer.record(&out.rec))?;
                writer.write_all(&out.payload)?;
                summary.phrases += out.phrases;
                summary.stored_blocks += u64::from(out.rec.method == METHOD_STORED);
            }
            Ok(())
        },
    )?;
    summary.container_bytes = framer.offset;
    let tail = framer.finish();
    writer.write_all(&tail)?;
    writer.flush()?;
    summary.container_bytes += tail.len() as u64;
    summary.cost = pram.cost().since(before);
    Ok((writer, summary))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{parse_header, HEADER_LEN, TRAILER_LEN};
    use pardict_compress::Token;
    use std::cell::Cell;

    /// Rewrites a block's parse before it is checked.
    pub(crate) type Tamper = fn(Vec<Token>) -> Vec<Token>;

    thread_local! {
        /// Test seam: when set, rewrites this thread's next block parse
        /// the way a fingerprint collision would.
        pub(crate) static TAMPER: Cell<Option<Tamper>> = const { Cell::new(None) };
    }

    /// A [`Tamper`]: the first copy that can reads from one byte later, so
    /// the tokens still expand to the block's length but not to its bytes.
    fn shifted_copy(mut tokens: Vec<Token>) -> Vec<Token> {
        let mut dst = 0;
        for k in 0..tokens.len() {
            if let Token::Copy { src, .. } = &mut tokens[k] {
                if *src as usize + 1 < dst {
                    *src += 1;
                    return tokens;
                }
            }
            dst += tokens[k].expanded_len();
        }
        panic!("the parse has no copy to shift")
    }

    /// A parse that decodes to the right length but the wrong bytes — what a
    /// fingerprint collision in the LCP array produces — is caught before it
    /// is framed: the block is stored verbatim and the container still
    /// round-trips.
    #[test]
    fn a_parse_that_does_not_decode_to_its_block_is_stored() {
        let data = b"abcabcabcabd abcabcabcabd abcabcabcabd".repeat(4);
        let cfg = StreamConfig::with_block_size(data.len());
        let pram = Pram::seq();
        let (clean, summary) = compress_stream(&pram, &mut &data[..], Vec::new(), &cfg).unwrap();
        assert_eq!((summary.blocks, summary.stored_blocks), (1, 0));
        assert!(clean.len() < data.len());

        TAMPER.with(|t| t.set(Some(shifted_copy)));
        let (bytes, summary) = compress_stream(&pram, &mut &data[..], Vec::new(), &cfg).unwrap();
        assert!(TAMPER.with(Cell::take).is_none(), "the seam was used");
        assert_eq!((summary.blocks, summary.stored_blocks), (1, 1));
        let mut rdr = crate::StreamReader::open(std::io::Cursor::new(&bytes)).unwrap();
        assert_eq!(rdr.index().entries[0].method, METHOD_STORED);
        let (out, issues) = rdr.read_all(&pram).unwrap();
        assert!(issues.is_empty());
        assert_eq!(out, data);
    }

    #[test]
    fn empty_input_yields_blockless_container() {
        let pram = Pram::seq();
        let (bytes, summary) =
            compress_stream(&pram, &mut &[][..], Vec::new(), &StreamConfig::default()).unwrap();
        assert_eq!(summary.blocks, 0);
        assert_eq!(summary.raw_bytes, 0);
        // header + end marker + empty footer + trailer
        assert_eq!(bytes.len(), HEADER_LEN + 1 + TRAILER_LEN);
        assert_eq!(summary.container_bytes, bytes.len() as u64);
        assert!(parse_header(&bytes).is_ok());
    }

    #[test]
    fn block_count_and_sizes_follow_config() {
        let pram = Pram::seq();
        let data = b"abcabcabcabc".repeat(100); // 1200 bytes
        let cfg = StreamConfig::with_block_size(500);
        let (_, summary) = compress_stream(&pram, &mut &data[..], Vec::new(), &cfg).unwrap();
        assert_eq!(summary.blocks, 3); // 500 + 500 + 200
        assert_eq!(summary.raw_bytes, 1200);
        assert!(
            summary.container_bytes < 1200,
            "repetitive data must shrink"
        );
    }

    #[test]
    fn nul_and_incompressible_blocks_are_stored() {
        let pram = Pram::seq();
        // Block 1: NUL-bearing. Block 2: too short to compress.
        let mut data = vec![0u8; 8];
        data.extend_from_slice(b"qzwxecrv");
        let cfg = StreamConfig::with_block_size(8);
        let (bytes, summary) = compress_stream(&pram, &mut &data[..], Vec::new(), &cfg).unwrap();
        assert_eq!(summary.blocks, 2);
        assert_eq!(summary.stored_blocks, 2);
        assert!(bytes.len() > data.len(), "stored blocks only add framing");
    }

    #[test]
    fn output_is_deterministic_and_mode_independent() {
        let data = b"tick tock tick tock tick tock round and round".repeat(40);
        let cfg = StreamConfig {
            block_size: 256,
            max_in_flight: 3,
        };
        let (a, ca) = compress_stream(&Pram::seq(), &mut &data[..], Vec::new(), &cfg).unwrap();
        let (b, cb) = compress_stream(&Pram::par(), &mut &data[..], Vec::new(), &cfg).unwrap();
        assert_eq!(a, b, "container bytes must not depend on execution mode");
        assert_eq!(ca.cost, cb.cost, "ledger attribution must match");
        // Wave aggregation: depth is a max, so it must be far below the
        // serial sum of per-block depths while work is the full sum.
        assert!(ca.cost.work > 0 && ca.cost.depth > 0);
    }

    #[test]
    fn wave_depth_is_max_not_sum() {
        let data = b"la la la la la la la la".repeat(64); // ~1.5 KiB
        let one = StreamConfig {
            block_size: 128,
            max_in_flight: 1,
        };
        let many = StreamConfig {
            block_size: 128,
            max_in_flight: 8,
        };
        let (_, c1) = compress_stream(&Pram::seq(), &mut &data[..], Vec::new(), &one).unwrap();
        let (_, c8) = compress_stream(&Pram::seq(), &mut &data[..], Vec::new(), &many).unwrap();
        assert_eq!(c1.cost.work, c8.cost.work, "work is grouping-independent");
        assert!(
            c8.cost.depth * 4 < c1.cost.depth,
            "8-wide waves must collapse depth: {} vs {}",
            c8.cost.depth,
            c1.cost.depth
        );
    }
}
