//! Request/response vocabulary shared by the engine, wire codec, and server.

use pardict_pram::Cost;
use pardict_trace::TraceCtx;
use std::time::{Duration, Instant};

/// The five operation families the service batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Longest pattern per text position (Theorem 3.1).
    Match = 0,
    /// Every pattern occurrence, exact (`SegmentedMatcher::find_all`).
    Grep = 1,
    /// Parallel LZ1 compression (§4).
    Compress = 2,
    /// Optimal static-dictionary parse (§5).
    Parse = 3,
    /// Every pattern occurrence inside a compressed PDZS container,
    /// searched without materializing the decoded text.
    GrepContainer = 4,
}

/// Number of [`OpKind`] variants (sizing per-op metric arrays).
pub const NUM_OPS: usize = 5;

impl OpKind {
    /// Stable display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Match => "match",
            OpKind::Grep => "grep",
            OpKind::Compress => "compress",
            OpKind::Parse => "parse",
            OpKind::GrepContainer => "grepz",
        }
    }

    /// All kinds, in wire-tag order.
    #[must_use]
    pub fn all() -> [OpKind; NUM_OPS] {
        [
            OpKind::Match,
            OpKind::Grep,
            OpKind::Compress,
            OpKind::Parse,
            OpKind::GrepContainer,
        ]
    }
}

/// One operation against the service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpRequest {
    /// Longest pattern at every position of `text` against dictionary `dict`.
    Match {
        /// Registered dictionary name.
        dict: String,
        /// Text to match (NUL-free).
        text: Vec<u8>,
    },
    /// All pattern occurrences in `text` against dictionary `dict`.
    Grep {
        /// Registered dictionary name.
        dict: String,
        /// Text to search (NUL-free).
        text: Vec<u8>,
    },
    /// LZ1-compress `text` (no dictionary needed).
    Compress {
        /// Text to compress (NUL-free).
        text: Vec<u8>,
    },
    /// Fewest-phrases static parse of `text` against dictionary `dict`.
    Parse {
        /// Registered dictionary name.
        dict: String,
        /// Text to parse (NUL-free).
        text: Vec<u8>,
    },
    /// All pattern occurrences in the decoded stream of a PDZS
    /// `container`, searched block-parallel without full decompression.
    /// Container bytes are binary — the NUL check does not apply.
    GrepContainer {
        /// Registered dictionary name.
        dict: String,
        /// A complete PDZS container.
        container: Vec<u8>,
    },
}

impl OpRequest {
    /// The operation family.
    #[must_use]
    pub fn kind(&self) -> OpKind {
        match self {
            OpRequest::Match { .. } => OpKind::Match,
            OpRequest::Grep { .. } => OpKind::Grep,
            OpRequest::Compress { .. } => OpKind::Compress,
            OpRequest::Parse { .. } => OpKind::Parse,
            OpRequest::GrepContainer { .. } => OpKind::GrepContainer,
        }
    }

    /// The subject payload (raw text, or container bytes for
    /// [`OpRequest::GrepContainer`]).
    #[must_use]
    pub fn text(&self) -> &[u8] {
        match self {
            OpRequest::Match { text, .. }
            | OpRequest::Grep { text, .. }
            | OpRequest::Compress { text }
            | OpRequest::Parse { text, .. } => text,
            OpRequest::GrepContainer { container, .. } => container,
        }
    }

    /// The dictionary name, when the op needs one.
    #[must_use]
    pub fn dict_name(&self) -> Option<&str> {
        match self {
            OpRequest::Match { dict, .. }
            | OpRequest::Grep { dict, .. }
            | OpRequest::Parse { dict, .. }
            | OpRequest::GrepContainer { dict, .. } => Some(dict),
            OpRequest::Compress { .. } => None,
        }
    }
}

/// A submitted operation plus its admission-control envelope.
#[derive(Debug, Clone)]
pub struct Request {
    /// The operation.
    pub op: OpRequest,
    /// Absolute deadline; requests past it are rejected instead of executed.
    pub deadline: Option<Instant>,
    /// Trace context this request's spans nest under (`None` = untraced,
    /// either because tracing is off or head-sampling skipped it).
    pub trace: Option<TraceCtx>,
}

impl Request {
    /// Request without a deadline.
    #[must_use]
    pub fn new(op: OpRequest) -> Self {
        Self {
            op,
            deadline: None,
            trace: None,
        }
    }

    /// Request that must start executing within `timeout` from now.
    #[must_use]
    pub fn with_timeout(op: OpRequest, timeout: Duration) -> Self {
        Self {
            op,
            deadline: Some(Instant::now() + timeout),
            trace: None,
        }
    }

    /// Attach a trace context.
    #[must_use]
    pub fn traced(mut self, trace: Option<TraceCtx>) -> Self {
        self.trace = trace;
        self
    }
}

/// One reported occurrence: the one occurrence type, [`pardict_core::Hit`].
pub use pardict_core::Hit;

/// Successful operation payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Longest match per position (positions with no match omitted).
    Match {
        /// Dictionary version that served the request.
        version: u64,
        /// One hit per position with a match.
        hits: Vec<Hit>,
    },
    /// All occurrences.
    Grep {
        /// Dictionary version that served the request.
        version: u64,
        /// Every `(position, pattern)` occurrence.
        hits: Vec<Hit>,
    },
    /// LZ1 token stream.
    Compress {
        /// `encode_tokens` wire bytes.
        payload: Vec<u8>,
        /// Number of LZ1 phrases.
        phrases: u32,
    },
    /// Optimal static parse summary.
    Parse {
        /// Dictionary version that served the request.
        version: u64,
        /// Fewest-phrases count.
        phrases: u32,
        /// Greedy comparator phrase count, when greedy terminates.
        greedy_phrases: Option<u32>,
    },
    /// All occurrences inside a compressed container.
    GrepContainer {
        /// Dictionary version that served the request.
        version: u64,
        /// Every `(position, pattern)` occurrence, positions in the
        /// decoded stream.
        hits: Vec<Hit>,
        /// Indexes of blocks that failed verification and were skipped;
        /// matches are suppressed only in their spans.
        corrupt_blocks: Vec<u64>,
    },
}

impl Reply {
    /// The dictionary version a reply was computed against, if any.
    #[must_use]
    pub fn version(&self) -> Option<u64> {
        match self {
            Reply::Match { version, .. }
            | Reply::Grep { version, .. }
            | Reply::Parse { version, .. }
            | Reply::GrepContainer { version, .. } => Some(*version),
            Reply::Compress { .. } => None,
        }
    }
}

/// Why the service declined or failed a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// Submission queue is full; retry with backoff.
    Overloaded,
    /// The request's deadline passed before execution started.
    DeadlineExceeded,
    /// The engine is shutting down.
    ShuttingDown,
    /// No dictionary registered under this name.
    NoSuchDictionary(String),
    /// The text cannot be parsed with this dictionary (§5 needs coverage).
    Unparseable,
    /// Malformed request (empty dictionary, NUL bytes, …).
    BadRequest(String),
    /// The persistent store refused or failed the write, so the state
    /// change was not applied — an acknowledgement would have promised
    /// durability the disk did not deliver.
    Storage(String),
}

impl ServiceError {
    /// Stable wire code.
    #[must_use]
    pub fn code(&self) -> u8 {
        match self {
            ServiceError::Overloaded => 1,
            ServiceError::DeadlineExceeded => 2,
            ServiceError::ShuttingDown => 3,
            ServiceError::NoSuchDictionary(_) => 4,
            ServiceError::Unparseable => 5,
            ServiceError::BadRequest(_) => 6,
            ServiceError::Storage(_) => 7,
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Overloaded => write!(f, "overloaded: submission queue full"),
            ServiceError::DeadlineExceeded => write!(f, "deadline exceeded before execution"),
            ServiceError::ShuttingDown => write!(f, "service shutting down"),
            ServiceError::NoSuchDictionary(name) => write!(f, "no dictionary named {name:?}"),
            ServiceError::Unparseable => write!(f, "text not parseable with this dictionary"),
            ServiceError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServiceError::Storage(msg) => write!(f, "storage failure: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Which execution path served a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Batched PRAM path (`Pram::par()` + Theorem 3.1 matcher).
    Batched = 0,
    /// Sequential small-request fallback (Aho–Corasick baseline).
    SeqFallback = 1,
    /// Chunked streaming pipeline for large compression payloads
    /// (block-parallel LZ1, framed container output).
    Stream = 2,
    /// Compressed-domain search lane: block-parallel grep over a PDZS
    /// container without full decompression.
    Grep = 3,
}

impl Lane {
    /// Stable label, used as the span lane tag in trace exports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Lane::Batched => "batched",
            Lane::SeqFallback => "seq-fallback",
            Lane::Stream => "stream",
            Lane::Grep => "grep",
        }
    }
}

/// Per-request accounting surfaced with every response.
#[derive(Debug, Clone, Copy)]
pub struct ResponseMeta {
    /// Ledger cost attributed to this request.
    pub cost: Cost,
    /// Number of requests in the batch that served this one.
    pub batch_size: u32,
    /// Time spent queued before a worker picked the request up.
    pub queued: Duration,
    /// Execution time inside the worker.
    pub exec: Duration,
    /// Execution path taken.
    pub lane: Lane,
}

impl Default for ResponseMeta {
    fn default() -> Self {
        Self {
            cost: Cost::default(),
            batch_size: 0,
            queued: Duration::ZERO,
            exec: Duration::ZERO,
            lane: Lane::Batched,
        }
    }
}

/// Outcome of one request: payload or error, plus accounting.
#[derive(Debug, Clone)]
pub struct Response {
    /// Payload or failure.
    pub result: Result<Reply, ServiceError>,
    /// Ledger/batch/latency attribution.
    pub meta: ResponseMeta,
}

impl Response {
    /// An error response with default accounting (pre-execution rejects).
    #[must_use]
    pub fn rejected(err: ServiceError) -> Self {
        Self {
            result: Err(err),
            meta: ResponseMeta::default(),
        }
    }
}

/// Reject texts containing the suffix-tree sentinel byte.
pub(crate) fn check_text(text: &[u8]) -> Result<(), ServiceError> {
    if text.contains(&0) {
        return Err(ServiceError::BadRequest(
            "text contains NUL bytes (reserved for the sentinel)".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_kind_round_trips_names() {
        for k in OpKind::all() {
            assert!(!k.name().is_empty());
        }
    }

    #[test]
    fn request_deadline_is_in_the_future() {
        let r = Request::with_timeout(
            OpRequest::Compress {
                text: b"x".to_vec(),
            },
            Duration::from_secs(5),
        );
        assert!(r.deadline.unwrap() > Instant::now());
    }

    #[test]
    fn nul_text_is_rejected() {
        assert!(check_text(b"ok").is_ok());
        assert!(check_text(&[1, 0, 2]).is_err());
    }
}
