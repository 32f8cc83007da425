//! The compacted snapshot codec.
//!
//! A snapshot is the live dictionary map folded flat: one framed publish
//! record per dictionary (the same frame the WAL uses, with `seq = 0`),
//! bracketed by a header carrying the WAL sequence number the snapshot
//! covers and a trailer whose reversed magic + whole-file CRC make
//! truncation and bit rot detectable — the same double-bracket the PDZS
//! container uses ("PDZS" … "SZDP").
//!
//! ```text
//! header   "PDSN" · version u8 · 3×0 · last_seq u64            (16 B)
//! count    u32
//! entry    framed publish record (see crate::record) × count
//! trailer  count u64 · crc32(everything above) u32 · "NSDP"    (16 B)
//! ```
//!
//! Unlike the WAL — where a torn tail still leaves a usable prefix — a
//! snapshot is all-or-nothing: it is only ever written whole through a
//! temp file and an atomic rename, so any validation failure means the
//! file is not one of ours and recovery falls back to replaying the WAL
//! from an empty state.

use crate::record::{
    decode_header, decode_record_at, encode_header, encode_record, WalRecord, FRAME_LEN,
};
use pardict_core::bytes::{get_u32, get_u64, Endian, Reader};
use pardict_core::crc32;

/// Snapshot file magic: "PDSN".
pub const SNAP_MAGIC: [u8; 4] = *b"PDSN";
/// Snapshot trailer magic: "NSDP" (reversed, so truncation can't fake it).
pub const SNAP_TRAILER_MAGIC: [u8; 4] = *b"NSDP";
/// Fixed snapshot header length in bytes.
pub const SNAP_HEADER_LEN: usize = 16;
/// Fixed snapshot trailer length in bytes.
pub const SNAP_TRAILER_LEN: usize = 16;

/// One dictionary as a snapshot stores it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotDict {
    /// Registry name.
    pub name: String,
    /// Version the registry had assigned at snapshot time.
    pub version: u64,
    /// The pattern set.
    pub patterns: Vec<Vec<u8>>,
}

/// Encode a whole snapshot. `dicts` must already be in the writer's
/// canonical order (the store iterates its map sorted by name, so equal
/// state always produces identical bytes). Returns `None` if any single
/// entry exceeds the record cap.
pub fn encode_snapshot(last_seq: u64, dicts: &[SnapshotDict]) -> Option<Vec<u8>> {
    let mut w = encode_header(SNAP_MAGIC, last_seq);
    w.u32(dicts.len() as u32);
    for d in dicts {
        let rec = WalRecord::Publish {
            name: d.name.clone(),
            version: d.version,
            patterns: d.patterns.clone(),
        };
        w.raw(&encode_record(0, &rec)?);
    }
    w.u64(dicts.len() as u64);
    let mut out = w.into_vec();
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&SNAP_TRAILER_MAGIC);
    Some(out)
}

/// Decode arbitrary bytes as a snapshot. Total: never panics; any
/// structural problem is an `Err` with a deterministic reason, and the
/// caller treats the whole snapshot as absent.
pub fn decode_snapshot(bytes: &[u8]) -> Result<(u64, Vec<SnapshotDict>), String> {
    if bytes.len() < SNAP_HEADER_LEN + 4 + SNAP_TRAILER_LEN {
        return Err(format!(
            "file too short for snapshot ({} bytes)",
            bytes.len()
        ));
    }
    let last_seq = decode_header(bytes, SNAP_MAGIC)?;
    let trailer_at = bytes.len() - SNAP_TRAILER_LEN;
    if bytes[trailer_at + 12..] != SNAP_TRAILER_MAGIC {
        return Err("bad trailer magic".to_string());
    }
    let crc_stored = get_u32(&bytes[trailer_at + 8..trailer_at + 12]);
    if crc32(&bytes[..trailer_at + 8]) != crc_stored {
        return Err("trailer checksum mismatch".to_string());
    }
    // Every entry costs at least its record frame.
    let count = Reader::new(&bytes[SNAP_HEADER_LEN..trailer_at], Endian::Little)
        .count(FRAME_LEN)
        .map_err(|e| format!("entry count: {e}"))?;
    if get_u64(&bytes[trailer_at..trailer_at + 8]) != count as u64 {
        return Err("trailer count disagrees with header".to_string());
    }
    let mut dicts = Vec::with_capacity(count);
    let mut offset = SNAP_HEADER_LEN + 4;
    for i in 0..count {
        if offset >= trailer_at {
            return Err(format!("entry {i} starts past the trailer"));
        }
        let (_, record, len) = decode_record_at(&bytes[..trailer_at], offset)
            .map_err(|e| format!("entry {i}: {e}"))?;
        match record {
            WalRecord::Publish {
                name,
                version,
                patterns,
            } => dicts.push(SnapshotDict {
                name,
                version,
                patterns,
            }),
            WalRecord::Retire { .. } => {
                return Err(format!("entry {i}: retire record in snapshot"));
            }
            WalRecord::Delta { .. } => {
                // Compaction folds deltas into full pattern sets; a
                // delta in a snapshot means the file was not written by
                // our compactor.
                return Err(format!("entry {i}: delta record in snapshot"));
            }
        }
        offset += len;
    }
    if offset != trailer_at {
        return Err("trailing bytes between entries and trailer".to_string());
    }
    Ok((last_seq, dicts))
}
