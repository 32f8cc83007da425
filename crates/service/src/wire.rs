//! Length-prefixed binary framing for `pardict serve`.
//!
//! Built on `std` only (the registry is unreachable, so no serde/tokio):
//! each frame is a `u32` big-endian byte length followed by that many
//! payload bytes. The first payload byte is a tag selecting the message
//! kind; integers are big-endian, byte strings are `u32` length-prefixed.
//! Responses repeat a tag so decoding is context-free.

use crate::types::{Hit, OpRequest, Reply, Response, ServiceError};
use pardict_core::bytes::{BytesError, Endian, Reader, Writer};
use pardict_trace::{SpanId, TraceCtx, TraceId};
use std::io::{self, Read, Write};

/// Refuse frames larger than this (64 MiB) instead of allocating blindly.
pub const MAX_FRAME: u32 = 64 << 20;

/// Request tags (first payload byte, client → server).
pub mod tag {
    /// Publish a dictionary: `name, count, patterns…`.
    pub const PUBLISH: u8 = 1;
    /// Match: `dict, text, timeout_ms`.
    pub const MATCH: u8 = 2;
    /// Grep: `dict, text, timeout_ms`.
    pub const GREP: u8 = 3;
    /// Compress: `text, timeout_ms`.
    pub const COMPRESS: u8 = 4;
    /// Parse: `dict, text, timeout_ms`.
    pub const PARSE: u8 = 5;
    /// Fetch the plain-text metrics report.
    pub const METRICS: u8 = 6;
    /// Liveness probe.
    pub const PING: u8 = 7;
    /// Container grep: `dict, container bytes, timeout_ms`.
    pub const GREPZ: u8 = 8;
    /// Fetch a structured [`MetricsSnapshot`](crate::metrics::MetricsSnapshot)
    /// (the router's aggregation feed; `METRICS` stays the human report).
    pub const STATS: u8 = 9;
    /// List installed dictionaries as `(name, version, content hash)`
    /// digests — how a cluster router learns what a backend recovered
    /// from its local store before deciding what to replay.
    pub const DICTS: u8 = 10;
    /// Trace-context wrapper: `trace id, parent span id, inner request`.
    /// Only sent after the peer advertised [`super::EXT_TRACE`] in a
    /// `HELLO` exchange — a pre-extension peer answers it with a clean
    /// "unknown request tag" error, never a misparse.
    pub const TRACED: u8 = 11;
    /// Extension negotiation: `u32` bitmask of extensions the sender
    /// speaks; the reply carries the receiver's mask.
    pub const HELLO: u8 = 12;
    /// Delta publish: `name, parent_version, adds…, removes…`. Only sent
    /// after the peer advertised [`super::EXT_DELTA`] in a `HELLO`
    /// exchange; a pre-extension peer answers it with a clean "unknown
    /// request tag" error and the client falls back to a full `PUBLISH`.
    pub const PUBDELTA: u8 = 13;
    /// Response: success payload follows.
    pub const OK: u8 = 0x80;
    /// Response: error code + message follow.
    pub const ERR: u8 = 0x81;
}

/// Extension bit: the peer accepts [`tag::TRACED`] request wrappers.
pub const EXT_TRACE: u32 = 1;

/// Extension bit: the peer accepts [`tag::PUBDELTA`] requests.
pub const EXT_DELTA: u32 = 2;

/// Read one frame; `Ok(None)` on clean EOF at a frame boundary.
///
/// # Errors
/// I/O errors, oversized frames, or EOF mid-frame.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds {MAX_FRAME}"),
        ));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    Ok(Some(buf))
}

/// Write one frame.
///
/// # Errors
/// I/O errors or a payload larger than [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "frame too large"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

// ---- request codec ----

/// A decoded client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireRequest {
    /// Install `patterns` under `name`.
    Publish {
        /// Dictionary name.
        name: String,
        /// Pattern set.
        patterns: Vec<Vec<u8>>,
    },
    /// Advance `name` from `parent_version` by a delta: `removes`
    /// dropped (every occurrence of each value), then `adds` appended.
    /// The frame costs bytes proportional to the delta, not the
    /// dictionary.
    PubDelta {
        /// Dictionary name.
        name: String,
        /// Version the delta applies against; the server rejects the
        /// request if its current version differs.
        parent_version: u64,
        /// Patterns appended, in order.
        adds: Vec<Vec<u8>>,
        /// Pattern values removed.
        removes: Vec<Vec<u8>>,
    },
    /// An operation; `timeout_ms == 0` means no deadline.
    Op {
        /// Which operation (`tag::MATCH` … `tag::PARSE`, `tag::GREPZ`).
        tag: u8,
        /// Dictionary name (empty for compress).
        dict: String,
        /// Subject text (container bytes for `tag::GREPZ`).
        text: Vec<u8>,
        /// Deadline budget in milliseconds; 0 = none.
        timeout_ms: u32,
    },
    /// Fetch the metrics report.
    Metrics,
    /// Fetch a structured metrics snapshot.
    Stats,
    /// List installed dictionary digests.
    Dicts,
    /// Liveness probe.
    Ping,
    /// Extension negotiation: the sender's extension bitmask.
    Hello {
        /// Bitmask of [`EXT_TRACE`]-style extension bits.
        extensions: u32,
    },
    /// A request wrapped with propagated trace context. Never nests.
    Traced {
        /// Trace id the inner request belongs to.
        trace: u64,
        /// Span id on the sender the receiver's spans nest under.
        parent: u64,
        /// The wrapped request (any non-`Traced`, non-`Hello` request).
        inner: Box<WireRequest>,
    },
}

impl WireRequest {
    /// Encode to a frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new(Endian::Big);
        match self {
            WireRequest::Publish { name, patterns } => {
                w.u8(tag::PUBLISH);
                w.put_bytes(name.as_bytes());
                w.put_list(patterns);
            }
            WireRequest::PubDelta {
                name,
                parent_version,
                adds,
                removes,
            } => {
                w.u8(tag::PUBDELTA);
                w.put_bytes(name.as_bytes());
                w.u64(*parent_version);
                w.put_list(adds);
                w.put_list(removes);
            }
            WireRequest::Op {
                tag: t,
                dict,
                text,
                timeout_ms,
            } => {
                w.u8(*t);
                w.put_bytes(dict.as_bytes());
                w.put_bytes(text);
                w.u32(*timeout_ms);
            }
            WireRequest::Metrics => w.u8(tag::METRICS),
            WireRequest::Stats => w.u8(tag::STATS),
            WireRequest::Dicts => w.u8(tag::DICTS),
            WireRequest::Ping => w.u8(tag::PING),
            WireRequest::Hello { extensions } => {
                w.u8(tag::HELLO);
                w.u32(*extensions);
            }
            WireRequest::Traced {
                trace,
                parent,
                inner,
            } => {
                w.u8(tag::TRACED);
                w.u64(*trace);
                w.u64(*parent);
                w.raw(&inner.encode());
            }
        }
        w.into_vec()
    }

    /// Decode a frame payload.
    ///
    /// # Errors
    /// `InvalidData` on unknown tags or malformed payloads.
    pub fn decode(payload: &[u8]) -> io::Result<Self> {
        let mut c = Reader::new(payload, Endian::Big);
        let t = c.u8()?;
        let req = match t {
            tag::PUBLISH => WireRequest::Publish {
                name: c.string()?,
                patterns: c.list()?,
            },
            tag::PUBDELTA => WireRequest::PubDelta {
                name: c.string()?,
                parent_version: c.u64()?,
                adds: c.list()?,
                removes: c.list()?,
            },
            tag::MATCH | tag::GREP | tag::COMPRESS | tag::PARSE | tag::GREPZ => WireRequest::Op {
                tag: t,
                dict: c.string()?,
                text: c.bytes()?,
                timeout_ms: c.u32()?,
            },
            tag::METRICS => WireRequest::Metrics,
            tag::STATS => WireRequest::Stats,
            tag::DICTS => WireRequest::Dicts,
            tag::PING => WireRequest::Ping,
            tag::HELLO => WireRequest::Hello {
                extensions: c.u32()?,
            },
            tag::TRACED => {
                let trace = c.u64()?;
                let parent = c.u64()?;
                // The rest of the payload is one complete inner request;
                // its own decode enforces the trailing-bytes check.
                let inner = WireRequest::decode(c.take(c.remaining())?)?;
                if matches!(
                    inner,
                    WireRequest::Traced { .. } | WireRequest::Hello { .. }
                ) {
                    return Err(invalid("trace wrapper cannot nest".into()));
                }
                WireRequest::Traced {
                    trace,
                    parent,
                    inner: Box::new(inner),
                }
            }
            other => return Err(invalid(format!("unknown request tag {other}"))),
        };
        c.finish()?;
        Ok(req)
    }

    /// Strip a [`WireRequest::Traced`] envelope. The context takes effect
    /// only when this end is `tracing` (it has a tracer and advertised
    /// [`EXT_TRACE`]); a bare `Traced` frame from a misconfigured peer
    /// still executes cleanly, its context dropped on the floor.
    #[must_use]
    pub fn untraced(self, tracing: bool) -> (Self, Option<TraceCtx>) {
        match self {
            WireRequest::Traced {
                trace,
                parent,
                inner,
            } => (
                *inner,
                tracing.then_some(TraceCtx {
                    trace: TraceId(trace),
                    parent: SpanId(parent),
                }),
            ),
            other => (other, None),
        }
    }
}

// ---- response codec ----

/// A decoded server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireResponse {
    /// Publish succeeded.
    Published {
        /// Installed version.
        version: u64,
        /// Whether the build came from the preprocessing cache.
        cache_hit: bool,
    },
    /// Match/grep hits.
    Hits {
        /// Dictionary version that served the request.
        version: u64,
        /// Occurrences.
        hits: Vec<Hit>,
    },
    /// Compression result.
    Compressed {
        /// `encode_tokens` bytes.
        payload: Vec<u8>,
        /// LZ1 phrase count.
        phrases: u32,
    },
    /// Parse result.
    Parsed {
        /// Dictionary version that served the request.
        version: u64,
        /// Optimal phrase count.
        phrases: u32,
        /// Greedy phrase count, `u32::MAX` encoding `None`.
        greedy_phrases: Option<u32>,
    },
    /// Container-grep hits plus any skipped corrupt blocks.
    ContainerHits {
        /// Dictionary version that served the request.
        version: u64,
        /// Occurrences, positions in the decoded stream.
        hits: Vec<Hit>,
        /// Zero-based indexes of blocks skipped as corrupt.
        corrupt_blocks: Vec<u64>,
    },
    /// Container-grep hits served by a cluster router: the merged
    /// scatter-gather result plus the degraded-mode flag the single-node
    /// reply has no room for.
    ClusterHits {
        /// Maximum dictionary version among the shards that answered.
        version: u64,
        /// True when the reply was served with at least one backend
        /// excluded or after an in-flight failover — results are complete
        /// from the surviving shards, but capacity is reduced.
        degraded: bool,
        /// Number of shards that contributed block ranges.
        shards: u32,
        /// Occurrences, positions in the decoded stream.
        hits: Vec<Hit>,
        /// Zero-based indexes of blocks skipped as corrupt (container
        /// coordinates, deduplicated, ascending).
        corrupt_blocks: Vec<u64>,
    },
    /// Installed dictionary digests: `(name, version, content hash)`,
    /// sorted by name.
    DictList(Vec<(String, u64, u64)>),
    /// Metrics report text.
    MetricsReport(String),
    /// Structured metrics snapshot.
    Stats(crate::metrics::MetricsSnapshot),
    /// Ping reply.
    Pong,
    /// Extension negotiation reply: the receiver's extension bitmask.
    Hello {
        /// Bitmask of [`EXT_TRACE`]-style extension bits.
        extensions: u32,
    },
    /// Service error.
    Error {
        /// [`ServiceError::code`] value.
        code: u8,
        /// Human-readable message.
        message: String,
    },
}

/// Sub-tags for OK responses.
mod ok {
    pub const PUBLISHED: u8 = 1;
    pub const HITS: u8 = 2;
    pub const COMPRESSED: u8 = 3;
    pub const PARSED: u8 = 4;
    pub const METRICS: u8 = 5;
    pub const PONG: u8 = 6;
    pub const CONTAINER_HITS: u8 = 7;
    pub const STATS: u8 = 8;
    pub const CLUSTER_HITS: u8 = 9;
    pub const DICTS: u8 = 10;
    pub const HELLO: u8 = 11;
}

fn put_hits(w: &mut Writer, hits: &[Hit]) {
    w.seq(hits, |w, h| {
        w.u64(h.pos);
        w.u32(h.id);
        w.u32(h.len);
    });
}

fn get_hits(c: &mut Reader<'_>) -> Result<Vec<Hit>, BytesError> {
    c.seq(16, |c| {
        Ok(Hit {
            pos: c.u64()?,
            id: c.u32()?,
            len: c.u32()?,
        })
    })
}

fn put_histogram(w: &mut Writer, h: &crate::metrics::HistogramSnapshot) {
    w.u64(h.count);
    w.u64(h.sum);
    w.u64(h.max);
    w.seq(&h.buckets, |w, &(b, c)| {
        w.u8(b);
        w.u64(c);
    });
}

fn get_histogram(c: &mut Reader<'_>) -> Result<crate::metrics::HistogramSnapshot, BytesError> {
    let (count, sum, max) = (c.u64()?, c.u64()?, c.u64()?);
    Ok(crate::metrics::HistogramSnapshot {
        buckets: c.seq(9, |c| Ok((c.u8()?, c.u64()?)))?,
        count,
        sum,
        max,
    })
}

fn put_snapshot(w: &mut Writer, s: &crate::metrics::MetricsSnapshot) {
    for v in [
        s.submitted,
        s.completed,
        s.rejected_overloaded,
        s.deadline_expired,
        s.publishes,
        s.cache_hits,
        s.cache_misses,
        s.batches,
        s.batched_requests,
        s.seq_fallback,
        s.stream_lane,
        s.grep_lane,
        s.retires,
        s.store_replayed,
        s.store_torn_dropped,
        s.store_snapshot_age,
    ] {
        w.u64(v);
    }
    w.seq(&s.per_op, |w, op| {
        w.u64(op.count);
        w.u64(op.errors);
        put_histogram(w, &op.latency_us);
        put_histogram(w, &op.work);
    });
}

fn get_snapshot(c: &mut Reader<'_>) -> Result<crate::metrics::MetricsSnapshot, BytesError> {
    let mut s = crate::metrics::MetricsSnapshot::default();
    for slot in [
        &mut s.submitted,
        &mut s.completed,
        &mut s.rejected_overloaded,
        &mut s.deadline_expired,
        &mut s.publishes,
        &mut s.cache_hits,
        &mut s.cache_misses,
        &mut s.batches,
        &mut s.batched_requests,
        &mut s.seq_fallback,
        &mut s.stream_lane,
        &mut s.grep_lane,
        &mut s.retires,
        &mut s.store_replayed,
        &mut s.store_torn_dropped,
        &mut s.store_snapshot_age,
    ] {
        *slot = c.u64()?;
    }
    // Each op carries at least two counters and two empty histograms.
    s.per_op = c.seq(16 + 2 * 28, |c| {
        Ok(crate::metrics::OpSnapshot {
            count: c.u64()?,
            errors: c.u64()?,
            latency_us: get_histogram(c)?,
            work: get_histogram(c)?,
        })
    })?;
    Ok(s)
}

impl WireResponse {
    /// The `Hello` reply of a front end: delta publish needs no per-server
    /// state (the cluster front converts deltas per shard as needed), so
    /// every modern front advertises it; tracing only when it has a tracer.
    #[must_use]
    pub fn hello(tracing: bool) -> Self {
        WireResponse::Hello {
            extensions: EXT_DELTA | if tracing { EXT_TRACE } else { 0 },
        }
    }

    /// Encode to a frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new(Endian::Big);
        match self {
            WireResponse::Error { code, message } => {
                w.u8(tag::ERR);
                w.u8(*code);
                w.put_bytes(message.as_bytes());
            }
            WireResponse::Published { version, cache_hit } => {
                w.raw(&[tag::OK, ok::PUBLISHED]);
                w.u64(*version);
                w.u8(u8::from(*cache_hit));
            }
            WireResponse::Hits { version, hits } => {
                w.raw(&[tag::OK, ok::HITS]);
                w.u64(*version);
                put_hits(&mut w, hits);
            }
            WireResponse::Compressed { payload, phrases } => {
                w.raw(&[tag::OK, ok::COMPRESSED]);
                w.u32(*phrases);
                w.put_bytes(payload);
            }
            WireResponse::Parsed {
                version,
                phrases,
                greedy_phrases,
            } => {
                w.raw(&[tag::OK, ok::PARSED]);
                w.u64(*version);
                w.u32(*phrases);
                w.u32(greedy_phrases.unwrap_or(u32::MAX));
            }
            WireResponse::ContainerHits {
                version,
                hits,
                corrupt_blocks,
            } => {
                w.raw(&[tag::OK, ok::CONTAINER_HITS]);
                w.u64(*version);
                put_hits(&mut w, hits);
                w.seq(corrupt_blocks, |w, &b| w.u64(b));
            }
            WireResponse::ClusterHits {
                version,
                degraded,
                shards,
                hits,
                corrupt_blocks,
            } => {
                w.raw(&[tag::OK, ok::CLUSTER_HITS]);
                w.u64(*version);
                w.u8(u8::from(*degraded));
                w.u32(*shards);
                put_hits(&mut w, hits);
                w.seq(corrupt_blocks, |w, &b| w.u64(b));
            }
            WireResponse::DictList(dicts) => {
                w.raw(&[tag::OK, ok::DICTS]);
                w.seq(dicts, |w, (name, version, hash)| {
                    w.put_bytes(name.as_bytes());
                    w.u64(*version);
                    w.u64(*hash);
                });
            }
            WireResponse::MetricsReport(s) => {
                w.raw(&[tag::OK, ok::METRICS]);
                w.put_bytes(s.as_bytes());
            }
            WireResponse::Stats(s) => {
                w.raw(&[tag::OK, ok::STATS]);
                put_snapshot(&mut w, s);
            }
            WireResponse::Pong => {
                w.raw(&[tag::OK, ok::PONG]);
            }
            WireResponse::Hello { extensions } => {
                w.raw(&[tag::OK, ok::HELLO]);
                w.u32(*extensions);
            }
        }
        w.into_vec()
    }

    /// Decode a frame payload.
    ///
    /// # Errors
    /// `InvalidData` on unknown tags or malformed payloads.
    pub fn decode(payload: &[u8]) -> io::Result<Self> {
        let mut c = Reader::new(payload, Endian::Big);
        let resp = match c.u8()? {
            tag::ERR => WireResponse::Error {
                code: c.u8()?,
                message: c.string()?,
            },
            tag::OK => match c.u8()? {
                ok::PUBLISHED => WireResponse::Published {
                    version: c.u64()?,
                    cache_hit: c.u8()? != 0,
                },
                ok::HITS => WireResponse::Hits {
                    version: c.u64()?,
                    hits: get_hits(&mut c)?,
                },
                ok::COMPRESSED => WireResponse::Compressed {
                    phrases: c.u32()?,
                    payload: c.bytes()?,
                },
                ok::PARSED => WireResponse::Parsed {
                    version: c.u64()?,
                    phrases: c.u32()?,
                    greedy_phrases: match c.u32()? {
                        u32::MAX => None,
                        g => Some(g),
                    },
                },
                ok::CONTAINER_HITS => WireResponse::ContainerHits {
                    version: c.u64()?,
                    hits: get_hits(&mut c)?,
                    corrupt_blocks: c.seq(8, Reader::u64)?,
                },
                ok::CLUSTER_HITS => WireResponse::ClusterHits {
                    version: c.u64()?,
                    degraded: c.u8()? != 0,
                    shards: c.u32()?,
                    hits: get_hits(&mut c)?,
                    corrupt_blocks: c.seq(8, Reader::u64)?,
                },
                // Each digest costs at least a 4-byte name prefix plus
                // two u64s.
                ok::DICTS => {
                    WireResponse::DictList(c.seq(20, |c| Ok((c.string()?, c.u64()?, c.u64()?)))?)
                }
                ok::METRICS => WireResponse::MetricsReport(c.string()?),
                ok::STATS => WireResponse::Stats(get_snapshot(&mut c)?),
                ok::PONG => WireResponse::Pong,
                ok::HELLO => WireResponse::Hello {
                    extensions: c.u32()?,
                },
                other => return Err(invalid(format!("unknown ok sub-tag {other}"))),
            },
            other => return Err(invalid(format!("unknown response tag {other}"))),
        };
        c.finish()?;
        Ok(resp)
    }

    /// Convert an engine [`Response`] to its wire form.
    #[must_use]
    pub fn from_engine(resp: &Response) -> Self {
        match &resp.result {
            Err(e) => e.into(),
            Ok(Reply::Match { version, hits }) | Ok(Reply::Grep { version, hits }) => {
                WireResponse::Hits {
                    version: *version,
                    hits: hits.clone(),
                }
            }
            Ok(Reply::Compress { payload, phrases }) => WireResponse::Compressed {
                payload: payload.clone(),
                phrases: *phrases,
            },
            Ok(Reply::Parse {
                version,
                phrases,
                greedy_phrases,
            }) => WireResponse::Parsed {
                version: *version,
                phrases: *phrases,
                greedy_phrases: *greedy_phrases,
            },
            Ok(Reply::GrepContainer {
                version,
                hits,
                corrupt_blocks,
            }) => WireResponse::ContainerHits {
                version: *version,
                hits: hits.clone(),
                corrupt_blocks: corrupt_blocks.clone(),
            },
        }
    }
}

impl From<&ServiceError> for WireResponse {
    fn from(e: &ServiceError) -> Self {
        WireResponse::Error {
            code: e.code(),
            message: e.to_string(),
        }
    }
}

impl OpRequest {
    /// The engine operation a [`WireRequest::Op`] frame asks for; `None`
    /// when `tag` is not an op tag.
    #[must_use]
    pub fn from_wire(tag: u8, dict: String, text: Vec<u8>) -> Option<Self> {
        Some(match tag {
            tag::MATCH => OpRequest::Match { dict, text },
            tag::GREP => OpRequest::Grep { dict, text },
            tag::COMPRESS => OpRequest::Compress { text },
            tag::PARSE => OpRequest::Parse { dict, text },
            tag::GREPZ => OpRequest::GrepContainer {
                dict,
                container: text,
            },
            _ => return None,
        })
    }
}

/// Recover a [`ServiceError`] from a wire error `(code, message)` pair.
#[must_use]
pub fn error_from_wire(code: u8, message: &str) -> ServiceError {
    match code {
        1 => ServiceError::Overloaded,
        2 => ServiceError::DeadlineExceeded,
        3 => ServiceError::ShuttingDown,
        4 => ServiceError::NoSuchDictionary(message.to_string()),
        5 => ServiceError::Unparseable,
        7 => ServiceError::Storage(message.to_string()),
        _ => ServiceError::BadRequest(message.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            WireRequest::Publish {
                name: "corpus".into(),
                patterns: vec![b"ana".to_vec(), b"ban".to_vec()],
            },
            WireRequest::Op {
                tag: tag::MATCH,
                dict: "corpus".into(),
                text: b"banana".to_vec(),
                timeout_ms: 250,
            },
            WireRequest::Op {
                tag: tag::COMPRESS,
                dict: String::new(),
                text: b"aaaa".to_vec(),
                timeout_ms: 0,
            },
            WireRequest::Op {
                tag: tag::GREPZ,
                dict: "corpus".into(),
                text: vec![0x50, 0x44, 0x5A, 0x53, 0x00, 0xFF], // binary container bytes
                timeout_ms: 100,
            },
            WireRequest::Metrics,
            WireRequest::Stats,
            WireRequest::Dicts,
            WireRequest::Ping,
            WireRequest::PubDelta {
                name: "corpus".into(),
                parent_version: 3,
                adds: vec![b"new".to_vec()],
                removes: vec![b"ana".to_vec(), b"ban".to_vec()],
            },
            WireRequest::PubDelta {
                name: "corpus".into(),
                parent_version: 1,
                adds: vec![],
                removes: vec![b"ana".to_vec()],
            },
        ];
        for req in reqs {
            assert_eq!(WireRequest::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            WireResponse::Published {
                version: 7,
                cache_hit: true,
            },
            WireResponse::Hits {
                version: 2,
                hits: vec![
                    Hit {
                        pos: 0,
                        id: 1,
                        len: 3,
                    },
                    Hit {
                        pos: 9,
                        id: 0,
                        len: 2,
                    },
                ],
            },
            WireResponse::Compressed {
                payload: vec![1, 2, 3],
                phrases: 3,
            },
            WireResponse::Parsed {
                version: 1,
                phrases: 4,
                greedy_phrases: None,
            },
            WireResponse::ContainerHits {
                version: 3,
                hits: vec![Hit {
                    pos: 70000,
                    id: 2,
                    len: 5,
                }],
                corrupt_blocks: vec![1, 4],
            },
            WireResponse::ClusterHits {
                version: 5,
                degraded: true,
                shards: 3,
                hits: vec![Hit {
                    pos: 11,
                    id: 7,
                    len: 2,
                }],
                corrupt_blocks: vec![0],
            },
            WireResponse::Stats({
                let m = crate::metrics::Metrics::default();
                m.submitted.add(9);
                m.completed.add(9);
                m.op(crate::types::OpKind::Match).count.add(9);
                m.op(crate::types::OpKind::Match).latency_us.record(123);
                m.op(crate::types::OpKind::Match).work.record(4096);
                m.snapshot()
            }),
            WireResponse::DictList(vec![
                ("alpha".into(), 3, 0xDEAD_BEEF),
                ("beta".into(), 1, 42),
            ]),
            WireResponse::MetricsReport("ok".into()),
            WireResponse::Pong,
            WireResponse::Error {
                code: 1,
                message: "overloaded".into(),
            },
        ];
        for resp in resps {
            assert_eq!(WireResponse::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn hostile_counts_are_bounded_by_remaining_bytes() {
        // A short PUBLISH frame claiming u32::MAX patterns must be
        // rejected at the count, before any allocation can happen.
        let mut w = Writer::new(Endian::Big);
        w.u8(tag::PUBLISH);
        w.put_bytes(b"d");
        w.u32(u32::MAX);
        assert!(WireRequest::decode(&w.into_vec()).is_err());
        // A PUBDELTA frame claiming u32::MAX adds.
        let mut w = Writer::new(Endian::Big);
        w.u8(tag::PUBDELTA);
        w.put_bytes(b"d");
        w.u64(1);
        w.u32(u32::MAX);
        assert!(WireRequest::decode(&w.into_vec()).is_err());
        // A HITS response claiming more 16-byte hits than remain.
        let mut w = Writer::new(Endian::Big);
        w.raw(&[tag::OK, ok::HITS]);
        w.u64(1);
        w.u32(1000);
        assert!(WireResponse::decode(&w.into_vec()).is_err());
        // A CONTAINER_HITS corrupt-block count larger than remaining / 8.
        let mut w = Writer::new(Endian::Big);
        w.raw(&[tag::OK, ok::CONTAINER_HITS]);
        w.u64(1);
        w.u32(0);
        w.u32(50);
        w.u64(0);
        assert!(WireResponse::decode(&w.into_vec()).is_err());
    }

    #[test]
    fn malformed_payloads_error_cleanly() {
        assert!(WireRequest::decode(&[]).is_err());
        assert!(WireRequest::decode(&[99]).is_err());
        assert!(WireRequest::decode(&[tag::MATCH, 0, 0]).is_err());
        // Trailing garbage is rejected.
        let mut p = WireRequest::Ping.encode();
        p.push(0);
        assert!(WireRequest::decode(&p).is_err());
        assert!(WireResponse::decode(&[tag::OK, 42]).is_err());
    }

    #[test]
    fn hello_and_traced_round_trip() {
        let hello = WireRequest::Hello {
            extensions: EXT_TRACE,
        };
        assert_eq!(WireRequest::decode(&hello.encode()).unwrap(), hello);
        let reply = WireResponse::Hello {
            extensions: EXT_TRACE,
        };
        assert_eq!(WireResponse::decode(&reply.encode()).unwrap(), reply);
        let traced = WireRequest::Traced {
            trace: 0xDEAD_BEEF_0123_4567,
            parent: 0x0BAD_F00D,
            inner: Box::new(WireRequest::Op {
                tag: tag::GREPZ,
                dict: "corpus".into(),
                text: vec![0x50, 0x44, 0x5A, 0x53, 0x00],
                timeout_ms: 250,
            }),
        };
        assert_eq!(WireRequest::decode(&traced.encode()).unwrap(), traced);
    }

    #[test]
    fn traced_wrapper_rejects_nesting_and_truncation() {
        let nested = WireRequest::Traced {
            trace: 1,
            parent: 2,
            inner: Box::new(WireRequest::Traced {
                trace: 3,
                parent: 4,
                inner: Box::new(WireRequest::Ping),
            }),
        };
        assert!(WireRequest::decode(&nested.encode()).is_err());
        let wrapped_hello = WireRequest::Traced {
            trace: 1,
            parent: 2,
            inner: Box::new(WireRequest::Hello { extensions: 0 }),
        };
        assert!(WireRequest::decode(&wrapped_hello.encode()).is_err());
        // Truncated inner request: clean error, never a panic.
        let good = WireRequest::Traced {
            trace: 1,
            parent: 2,
            inner: Box::new(WireRequest::Ping),
        }
        .encode();
        for cut in 1..good.len() {
            assert!(WireRequest::decode(&good[..cut]).is_err());
        }
    }

    /// The extension must not move a single byte of the existing
    /// encoding: these are the exact frames a pre-trace peer emits,
    /// written out by hand from the protocol comment.
    #[test]
    fn legacy_frames_are_bit_identical() {
        let op = WireRequest::Op {
            tag: tag::MATCH,
            dict: "d".into(),
            text: b"ab".to_vec(),
            timeout_ms: 7,
        };
        assert_eq!(
            op.encode(),
            vec![2, 0, 0, 0, 1, b'd', 0, 0, 0, 2, b'a', b'b', 0, 0, 0, 7]
        );
        let publish = WireRequest::Publish {
            name: "d".into(),
            patterns: vec![b"x".to_vec()],
        };
        assert_eq!(
            publish.encode(),
            vec![1, 0, 0, 0, 1, b'd', 0, 0, 0, 1, 0, 0, 0, 1, b'x']
        );
        assert_eq!(WireRequest::Ping.encode(), vec![7]);
        assert_eq!(WireRequest::Metrics.encode(), vec![6]);
        assert_eq!(WireRequest::Stats.encode(), vec![9]);
        assert_eq!(WireRequest::Dicts.encode(), vec![10]);
        assert_eq!(WireResponse::Pong.encode(), vec![0x80, 6]);
        let err = WireResponse::Error {
            code: 3,
            message: "no".into(),
        };
        assert_eq!(err.encode(), vec![0x81, 3, 0, 0, 0, 2, b'n', b'o']);
        let hits = WireResponse::Hits {
            version: 1,
            hits: vec![Hit {
                pos: 5,
                id: 2,
                len: 3,
            }],
        };
        assert_eq!(
            hits.encode(),
            vec![
                0x80, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 2, 0,
                0, 0, 3
            ]
        );
    }
}
