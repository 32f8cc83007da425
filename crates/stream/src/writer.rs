//! Chunked parallel compression: fixed-size blocks, compressed
//! independently in waves, framed into the container format. The crate
//! docs give the licence for chunking and the wave accounting (Σ work, max
//! depth). Each block is one slot of a [`Pram::superstep`] and runs the
//! sequential half of Theorem 4.2 on the context it is handed:
//! [`delta_compress`] against an empty base, the exact, seed-free emitter
//! every shipped parse runs.

use crate::error::StreamError;
use crate::format::{
    encode_header, Framer, RecordHeader, DEFAULT_BLOCK_SIZE, MAX_BLOCK_SIZE, METHOD_LZ1,
    METHOD_STORED,
};
use pardict_compress::{delta_compress, encode_tokens};
use pardict_core::crc32;
use pardict_pram::{Cost, Pram};
use std::io::{Read, Write};

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

struct BlockOut {
    rec: RecordHeader,
    payload: Vec<u8>,
    phrases: u64,
}

/// Compress one block on the context its wave's super-step hands it — the
/// stage function of the compress loop. A block is stored verbatim when it
/// holds the NUL sentinel (reserved by the suffix arrays) or when its
/// encoding is not smaller, so the container accepts arbitrary bytes. An
/// all-literal parse costs two bytes a byte, so the one [`delta_compress`]
/// falls back to when its parse does not decode back is stored too.
fn compress_block(pram: &Pram, block: Vec<u8>) -> BlockOut {
    let raw_len = block.len() as u32;
    // A parse not worth keeping was still computed — a real cost, charged.
    let parse = if block.contains(&0) {
        pram.ledger().round(block.len() as u64);
        None
    } else {
        let tokens = delta_compress(pram, &[], &block);
        Some((encode_tokens(&tokens), tokens.len() as u64))
    };
    let (method, payload, phrases) = match parse {
        Some((payload, phrases)) if payload.len() < block.len() => (METHOD_LZ1, payload, phrases),
        _ => (METHOD_STORED, block, 0),
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
                    blocks.push(block);
                    summary.blocks += 1;
                }
            }
            Ok((!blocks.is_empty()).then_some((first, blocks)))
        },
        compress_block,
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

    /// A block holding NUL, and a block whose parse is not smaller than
    /// the block (here all literals, two bytes a byte), are stored verbatim,
    /// and the container round-trips.
    #[test]
    fn nul_and_incompressible_blocks_are_stored() {
        let pram = Pram::seq();
        let mut data = vec![0u8; 8];
        data.extend_from_slice(b"qzwxecrv");
        let cfg = StreamConfig::with_block_size(8);
        let (bytes, summary) = compress_stream(&pram, &mut &data[..], Vec::new(), &cfg).unwrap();
        assert_eq!(summary.blocks, 2);
        assert_eq!(summary.stored_blocks, 2);
        assert!(bytes.len() > data.len(), "stored blocks only add framing");
        let mut rdr = crate::StreamReader::open(std::io::Cursor::new(&bytes)).unwrap();
        assert!(rdr
            .index()
            .entries
            .iter()
            .all(|e| e.method == METHOD_STORED));
        let (out, issues) = rdr.read_all(&pram).unwrap();
        assert!(issues.is_empty());
        assert_eq!(out, data);
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
