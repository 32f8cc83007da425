//! The write-ahead-log record codec.
//!
//! One WAL file is a 16-byte header followed by a run of framed records,
//! reusing the PDZS record discipline from `pardict-stream`: every record
//! carries a length prefix and a CRC-32 over everything the length
//! covers, so a reader can always decide "intact" or "torn" without
//! trusting any byte it has not checked.
//!
//! ```text
//! header   "PDWL" · version u8 · 3×0 · generation u64          (16 B)
//! record   kind u8 · seq u64 · payload_len u32 · crc32 u32     (17 B)
//!          payload[payload_len]
//! ```
//!
//! The CRC covers `kind · seq · payload`, so a bit flip anywhere in a
//! record — framing or body — fails the check. All integers are
//! little-endian, matching the container format. The scanner
//! ([`scan_wal`]) is total: any byte sequence yields a prefix of intact
//! records plus an optional [`TornTail`] describing where and why the
//! log stopped being trustworthy. The first bad record ends the log —
//! nothing after it can be trusted because record boundaries themselves
//! come from the (now suspect) length prefixes.

use pardict_core::bytes::{get_u64, Endian, Reader, Writer};
use pardict_core::crc32;

/// WAL file magic: "PDWL".
pub const WAL_MAGIC: [u8; 4] = *b"PDWL";
/// On-disk format version this build reads and writes.
pub const STORE_VERSION: u8 = 1;
/// Fixed WAL header length in bytes.
pub const WAL_HEADER_LEN: usize = 16;
/// Fixed per-record frame length (before the payload).
pub const FRAME_LEN: usize = 17;
/// Record kind: a dictionary publish (name, version, patterns).
pub const KIND_PUBLISH: u8 = 1;
/// Record kind: a dictionary retire (name).
pub const KIND_RETIRE: u8 = 2;
/// Record kind: an incremental delta against the previous version
/// (name, new version, added patterns, removed patterns). Its on-disk
/// size is proportional to the delta, not the dictionary — the whole
/// point of logging deltas instead of full publishes.
pub const KIND_DELTA: u8 = 3;
/// Hard cap on one record's payload, mirroring the wire codec's frame
/// cap: a hostile length prefix can never drive a giant allocation.
pub const MAX_RECORD_LEN: usize = 64 << 20;

/// One durable dictionary-state transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A dictionary (re)published at an explicit version.
    Publish {
        /// Registry name of the dictionary.
        name: String,
        /// Version the registry assigned to this publish.
        version: u64,
        /// The pattern set, in publish order.
        patterns: Vec<Vec<u8>>,
    },
    /// A dictionary removed from the registry.
    Retire {
        /// Registry name of the dictionary.
        name: String,
    },
    /// An incremental update: removes applied (all occurrences of each
    /// value), then adds appended, against the state the preceding
    /// records left for `name`. Replayed in-order on recovery; folded
    /// away (into the resulting full pattern set) by compaction.
    Delta {
        /// Registry name of the dictionary.
        name: String,
        /// Version the registry assigned to the delta's result.
        version: u64,
        /// Patterns appended, in order.
        adds: Vec<Vec<u8>>,
        /// Pattern values removed (every occurrence of each).
        removes: Vec<Vec<u8>>,
    },
}

impl WalRecord {
    /// The record's kind tag as written to disk.
    pub fn kind(&self) -> u8 {
        match self {
            WalRecord::Publish { .. } => KIND_PUBLISH,
            WalRecord::Retire { .. } => KIND_RETIRE,
            WalRecord::Delta { .. } => KIND_DELTA,
        }
    }

    /// The dictionary name the record is about.
    pub fn name(&self) -> &str {
        match self {
            WalRecord::Publish { name, .. }
            | WalRecord::Retire { name }
            | WalRecord::Delta { name, .. } => name,
        }
    }
}

/// The suffix of a WAL that recovery refused to trust, dropped and
/// reported instead of applied — the log-level analogue of a corrupt
/// stream block's skip-and-report issue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset into the WAL file where the bad record starts.
    pub offset: u64,
    /// Bytes from `offset` to end-of-file, all dropped.
    pub dropped_bytes: u64,
    /// Why the scanner stopped (truncated frame, checksum mismatch, …).
    pub reason: String,
}

impl std::fmt::Display for TornTail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "torn tail at offset {}: {} ({} bytes dropped)",
            self.offset, self.reason, self.dropped_bytes
        )
    }
}

/// One intact record found by [`scan_wal`], with its position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScannedRecord {
    /// Byte offset of the record's frame within the file.
    pub offset: u64,
    /// Total on-disk length (frame + payload).
    pub len: u64,
    /// The record's sequence number.
    pub seq: u64,
    /// The decoded record.
    pub record: WalRecord,
}

/// Everything a total scan of WAL bytes yields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalScan {
    /// Generation counter from the header (bumped at each compaction).
    pub generation: u64,
    /// The intact prefix of records, in file order.
    pub records: Vec<ScannedRecord>,
    /// Why the header was rejected, if it was (records is then empty).
    pub header_issue: Option<String>,
    /// The untrusted suffix, if the file did not end cleanly.
    pub torn: Option<TornTail>,
}

impl WalScan {
    /// Offset one past the last intact byte — where appends may resume.
    pub fn valid_end(&self) -> u64 {
        if self.header_issue.is_some() {
            return 0;
        }
        self.records
            .last()
            .map_or(WAL_HEADER_LEN as u64, |r| r.offset + r.len)
    }
}

/// The 16-byte header both store files open with:
/// `magic · version u8 · 3×0 · u64` (the WAL's generation, the snapshot's
/// last covered sequence number).
pub(crate) fn encode_header(magic: [u8; 4], value: u64) -> Writer {
    let mut w = Writer::new(Endian::Little);
    w.raw(&magic);
    w.raw(&[STORE_VERSION, 0, 0, 0]);
    w.u64(value);
    w
}

/// Validate a store file's header (`bytes` holds at least
/// [`WAL_HEADER_LEN`] bytes) and return its `u64` field.
pub(crate) fn decode_header(bytes: &[u8], magic: [u8; 4]) -> Result<u64, String> {
    if bytes[..4] != magic {
        return Err("bad magic".to_string());
    }
    if bytes[4] != STORE_VERSION {
        return Err(format!("unsupported version {}", bytes[4]));
    }
    if bytes[5..8] != [0, 0, 0] {
        return Err("reserved header bytes set".to_string());
    }
    Ok(get_u64(&bytes[8..16]))
}

/// Encode a fresh WAL header for the given generation.
pub fn encode_wal_header(generation: u64) -> Vec<u8> {
    encode_header(WAL_MAGIC, generation).into_vec()
}

/// Encode the record payload alone (what the length prefix counts).
fn encode_payload(record: &WalRecord) -> Vec<u8> {
    let mut w = Writer::new(Endian::Little);
    w.put_bytes(record.name().as_bytes());
    match record {
        WalRecord::Publish {
            version, patterns, ..
        } => {
            w.u64(*version);
            w.put_list(patterns);
        }
        WalRecord::Retire { .. } => {}
        WalRecord::Delta {
            version,
            adds,
            removes,
            ..
        } => {
            w.u64(*version);
            w.put_list(adds);
            w.put_list(removes);
        }
    }
    w.into_vec()
}

/// The frame checksum: CRC-32 over `kind · seq · payload`.
fn frame_crc(kind: u8, seq: u64, payload: &[u8]) -> u32 {
    let mut input = Vec::with_capacity(9 + payload.len());
    input.push(kind);
    input.extend_from_slice(&seq.to_le_bytes());
    input.extend_from_slice(payload);
    crc32(&input)
}

/// Encode one record with its frame. Returns `None` if the payload
/// exceeds [`MAX_RECORD_LEN`] (the caller surfaces that as an error
/// rather than writing a record no reader would accept).
pub fn encode_record(seq: u64, record: &WalRecord) -> Option<Vec<u8>> {
    let payload = encode_payload(record);
    if payload.len() > MAX_RECORD_LEN {
        return None;
    }
    let mut w = Writer::new(Endian::Little);
    w.u8(record.kind());
    w.u64(seq);
    w.u32(payload.len() as u32);
    w.u32(frame_crc(record.kind(), seq, &payload));
    w.raw(&payload);
    Some(w.into_vec())
}

/// Decode a record payload whose frame (kind + CRC) already checked out.
/// Payload bytes are still untrusted structure: a CRC-valid payload with
/// bad internal framing (possible for adversarial writes, not for our
/// writer) is rejected, never panicked on.
pub fn decode_payload(kind: u8, payload: &[u8]) -> Result<WalRecord, String> {
    let mut r = Reader::new(payload, Endian::Little);
    let name = r.string()?;
    let record = match kind {
        KIND_PUBLISH => WalRecord::Publish {
            name,
            version: r.u64()?,
            patterns: r.list()?,
        },
        KIND_RETIRE => WalRecord::Retire { name },
        KIND_DELTA => WalRecord::Delta {
            name,
            version: r.u64()?,
            adds: r.list()?,
            removes: r.list()?,
        },
        other => return Err(format!("unknown record kind {other}")),
    };
    r.finish()?;
    Ok(record)
}

/// Try to decode the single record starting at `offset`. `Ok` carries
/// the record and its total on-disk length; `Err` explains why the bytes
/// at `offset` cannot be a record (which, mid-file, means a torn tail).
pub fn decode_record_at(bytes: &[u8], offset: usize) -> Result<(u64, WalRecord, usize), String> {
    let rest = &bytes[offset..];
    if rest.len() < FRAME_LEN {
        return Err(format!(
            "partial frame ({} of {FRAME_LEN} header bytes)",
            rest.len()
        ));
    }
    let mut frame = Reader::new(rest, Endian::Little);
    let (kind, seq, len, crc) = (
        frame.u8()?,
        frame.u64()?,
        frame.u32()? as usize,
        frame.u32()?,
    );
    if len > MAX_RECORD_LEN {
        return Err(format!("payload length {len} exceeds cap"));
    }
    let payload = frame
        .take(len)
        .map_err(|_| format!("partial payload ({} of {len} bytes)", frame.remaining()))?;
    if frame_crc(kind, seq, payload) != crc {
        return Err("checksum mismatch".to_string());
    }
    let record = decode_payload(kind, payload).map_err(|e| format!("payload: {e}"))?;
    Ok((seq, record, FRAME_LEN + len))
}

/// Scan arbitrary bytes as a WAL. Total: never panics, never errors —
/// damage becomes a `header_issue` or a [`TornTail`] in the result.
pub fn scan_wal(bytes: &[u8]) -> WalScan {
    let mut scan = WalScan {
        generation: 0,
        records: Vec::new(),
        header_issue: None,
        torn: None,
    };
    if bytes.len() < WAL_HEADER_LEN {
        scan.header_issue = Some(format!(
            "file too short for header ({} of {WAL_HEADER_LEN} bytes)",
            bytes.len()
        ));
        return scan;
    }
    match decode_header(bytes, WAL_MAGIC) {
        Ok(generation) => scan.generation = generation,
        Err(issue) => {
            scan.header_issue = Some(issue);
            return scan;
        }
    }
    let mut offset = WAL_HEADER_LEN;
    while offset < bytes.len() {
        match decode_record_at(bytes, offset) {
            Ok((seq, record, len)) => {
                scan.records.push(ScannedRecord {
                    offset: offset as u64,
                    len: len as u64,
                    seq,
                    record,
                });
                offset += len;
            }
            Err(reason) => {
                scan.torn = Some(TornTail {
                    offset: offset as u64,
                    dropped_bytes: (bytes.len() - offset) as u64,
                    reason,
                });
                break;
            }
        }
    }
    scan
}
