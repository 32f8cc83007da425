//! Error vocabulary for the container format.
//!
//! Two severities exist by design. A [`StreamError`] is *structural*: the
//! container's framing itself cannot be trusted (bad magic, truncated
//! trailer, footer checksum failure), so decoding stops. A [`BlockIssue`]
//! is *local*: one block's payload failed its checksum or decode, but the
//! framing around it is intact, so a lenient decoder skips the block,
//! records the issue with its index, and keeps going — the
//! skip-and-report contract that block independence buys.

use std::fmt;

/// What went wrong inside one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueKind {
    /// The payload's CRC-32 does not match its record.
    Checksum,
    /// The payload's LZ1 token stream failed to decode.
    BadTokens,
    /// The decoded payload's length disagrees with the recorded raw length.
    LengthMismatch,
    /// The record names an unknown compression method.
    BadMethod,
    /// The inline record header disagrees with the index footer entry.
    HeaderMismatch,
}

impl fmt::Display for IssueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IssueKind::Checksum => write!(f, "checksum mismatch"),
            IssueKind::BadTokens => write!(f, "undecodable token payload"),
            IssueKind::LengthMismatch => write!(f, "decoded length mismatch"),
            IssueKind::BadMethod => write!(f, "unknown compression method"),
            IssueKind::HeaderMismatch => write!(f, "record header disagrees with index"),
        }
    }
}

/// One corrupt-but-skippable block, reported instead of aborting the
/// stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockIssue {
    /// Zero-based block index within the container.
    pub index: u64,
    /// Raw (uncompressed) bytes the block claimed to hold — the size of
    /// the gap a lenient decode leaves.
    pub raw_len: u32,
    /// What the decoder caught.
    pub kind: IssueKind,
}

impl fmt::Display for BlockIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "block {}: {} ({} raw bytes skipped)",
            self.index, self.kind, self.raw_len
        )
    }
}

/// A structural failure: the container cannot be (fully) decoded.
#[derive(Debug)]
pub enum StreamError {
    /// Underlying reader/writer failure.
    Io(std::io::Error),
    /// The input does not begin with the container magic.
    NotAContainer,
    /// The container names a format version this build does not speak.
    UnsupportedVersion(u8),
    /// The fixed header is malformed (reserved bytes set, bad block size).
    CorruptHeader(&'static str),
    /// The input ended inside a record, footer, or trailer.
    Truncated,
    /// The index footer or trailer fails validation.
    CorruptFooter(&'static str),
    /// A block failed in strict mode (lenient decoders report a
    /// [`BlockIssue`] instead).
    CorruptBlock {
        /// Zero-based block index.
        index: u64,
        /// What the decoder caught.
        kind: IssueKind,
    },
    /// The operation was cancelled at a wave boundary because the caller's
    /// ambient deadline ([`pardict_exec::with_deadline`]) expired.
    Cancelled,
    /// A requested byte range lies outside the decoded stream.
    RangeOutOfBounds {
        /// Requested start offset.
        start: u64,
        /// Requested end offset (exclusive).
        end: u64,
        /// Total decoded length of the stream.
        len: u64,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "i/o error: {e}"),
            StreamError::NotAContainer => write!(f, "not a pardict stream container"),
            StreamError::UnsupportedVersion(v) => {
                write!(f, "unsupported container version {v}")
            }
            StreamError::CorruptHeader(why) => write!(f, "corrupt header: {why}"),
            StreamError::Truncated => write!(f, "container truncated"),
            StreamError::CorruptFooter(why) => write!(f, "corrupt index footer: {why}"),
            StreamError::CorruptBlock { index, kind } => write!(f, "block {index}: {kind}"),
            StreamError::Cancelled => write!(f, "cancelled: deadline exceeded"),
            StreamError::RangeOutOfBounds { start, end, len } => {
                write!(
                    f,
                    "range {start}..{end} out of bounds (stream is {len} bytes)"
                )
            }
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> Self {
        StreamError::Io(e)
    }
}

/// How a strict reader raises the block a lenient one would report.
impl From<BlockIssue> for StreamError {
    fn from(issue: BlockIssue) -> Self {
        StreamError::CorruptBlock {
            index: issue.index,
            kind: issue.kind,
        }
    }
}

impl From<pardict_exec::Cancelled> for StreamError {
    fn from(_: pardict_exec::Cancelled) -> Self {
        StreamError::Cancelled
    }
}

impl From<StreamError> for std::io::Error {
    fn from(e: StreamError) -> Self {
        match e {
            StreamError::Io(io) => io,
            other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}
