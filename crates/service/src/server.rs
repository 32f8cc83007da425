//! TCP front end: a `std::net` listener speaking the [`crate::wire`]
//! protocol, plus a small blocking [`Client`].
//!
//! Thread-per-connection with a nonblocking accept loop so the server can
//! stop promptly; each connection thread decodes frames, drives the shared
//! [`Engine`], and writes one response frame per request frame.

use crate::engine::Engine;
use crate::types::{OpRequest, Request, ServiceError};
use crate::wire::{
    self, error_from_wire, read_frame, write_frame, WireRequest, WireResponse, MAX_FRAME,
};
use pardict_trace::TraceCtx;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What a front end does with one decoded request.
type Handler = dyn Fn(WireRequest) -> WireResponse + Send + Sync;

/// The accept loop and per-connection frame loop shared by every front
/// end speaking the wire protocol ([`Server`] here, the cluster's
/// `RouterServer`): bind, accept without blocking so `stop` is prompt,
/// one detached thread per connection, one response frame per request
/// frame. What a decoded request *means* is the handler's business.
pub struct FrameServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl FrameServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and answer every
    /// well-formed request frame with `handler`'s response. Threads are
    /// named `{thread_prefix}-accept` and `{thread_prefix}-conn`.
    ///
    /// # Errors
    /// Socket bind/configuration failures.
    pub fn start(
        addr: impl ToSocketAddrs,
        thread_prefix: &str,
        handler: impl Fn(WireRequest) -> WireResponse + Send + Sync + 'static,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let conn_name = format!("{thread_prefix}-conn");
        let handler: Arc<Handler> = Arc::new(handler);
        let accept_thread = std::thread::Builder::new()
            .name(format!("{thread_prefix}-accept"))
            .spawn(move || accept_loop(&listener, &conn_name, &handler, &accept_stop))
            .expect("spawn accept thread");
        Ok(Self {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with ephemeral ports).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections and join the accept thread. Existing
    /// connections keep serving until their clients disconnect.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for FrameServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, conn_name: &str, handler: &Arc<Handler>, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let handler = Arc::clone(handler);
                // Detached: a connection thread exits on client EOF or I/O
                // error. Joining here would deadlock `stop()` against
                // clients that outlive the server handle.
                let _ = std::thread::Builder::new()
                    .name(conn_name.into())
                    .spawn(move || {
                        let _ = serve_connection(stream, &*handler);
                    });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
}

/// Serve one connection until EOF or an I/O error. A reply too large for
/// one frame goes out as a `BadRequest` error naming its size, and the
/// connection stays open: closing it would make the client reconnect and
/// run the request again.
fn serve_connection(stream: TcpStream, handler: &Handler) -> io::Result<()> {
    let bad_request = ServiceError::BadRequest(String::new()).code();
    let mut reader = stream.try_clone()?;
    let mut writer = stream;
    while let Some(payload) = read_frame(&mut reader)? {
        let resp = match WireRequest::decode(&payload) {
            Err(e) => WireResponse::Error {
                code: bad_request,
                message: format!("malformed request: {e}"),
            },
            Ok(req) => handler(req),
        };
        let mut reply = resp.encode();
        if reply.len() > MAX_FRAME as usize {
            reply = WireResponse::Error {
                code: bad_request,
                message: format!(
                    "reply of {} bytes exceeds the {MAX_FRAME}-byte frame cap",
                    reply.len()
                ),
            }
            .encode();
        }
        write_frame(&mut writer, &reply)?;
    }
    Ok(())
}

/// A running TCP server bound to a local address.
pub struct Server {
    engine: Engine,
    frames: FrameServer,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start accepting.
    ///
    /// # Errors
    /// Socket bind/configuration failures.
    pub fn start(engine: Engine, addr: impl ToSocketAddrs) -> io::Result<Self> {
        let handler_engine = engine.clone();
        let frames = FrameServer::start(addr, "pardict", move |req| handle(&handler_engine, req))?;
        Ok(Self { engine, frames })
    }

    /// The bound address (useful with ephemeral ports).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.frames.addr()
    }

    /// The engine this server fronts.
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Stop accepting connections and join the accept thread. Existing
    /// connections keep serving until their clients disconnect, and the
    /// engine is not shut down — the owner decides that.
    pub fn stop(&mut self) {
        self.frames.stop();
    }
}

fn handle(engine: &Engine, req: WireRequest) -> WireResponse {
    let (req, trace) = req.untraced(engine.tracer().is_some());
    match req {
        WireRequest::Traced { .. } => unreachable!("decode rejects nested trace wrappers"),
        WireRequest::Hello { .. } => WireResponse::hello(engine.tracer().is_some()),
        WireRequest::Ping => WireResponse::Pong,
        WireRequest::Metrics => WireResponse::MetricsReport(engine.metrics().report()),
        WireRequest::Stats => WireResponse::Stats(engine.metrics().snapshot()),
        WireRequest::Dicts => WireResponse::DictList(engine.registry().dict_digests()),
        WireRequest::Publish { name, patterns } => {
            match engine.registry().publish(&name, patterns) {
                Ok(out) => WireResponse::Published {
                    version: out.version,
                    cache_hit: out.cache_hit,
                },
                Err(e) => (&e).into(),
            }
        }
        WireRequest::PubDelta {
            name,
            parent_version,
            adds,
            removes,
        } => {
            let delta = pardict_core::DictDelta { adds, removes };
            match engine
                .registry()
                .publish_delta(&name, parent_version, &delta)
            {
                Ok(out) => WireResponse::Published {
                    version: out.version,
                    cache_hit: out.cache_hit,
                },
                Err(e) => (&e).into(),
            }
        }
        WireRequest::Op {
            tag,
            dict,
            text,
            timeout_ms,
        } => {
            let op = OpRequest::from_wire(tag, dict, text).expect("decode only yields op tags");
            let req = if timeout_ms == 0 {
                Request::new(op)
            } else {
                Request::with_timeout(op, Duration::from_millis(u64::from(timeout_ms)))
            };
            WireResponse::from_engine(&engine.call(req.traced(trace)))
        }
    }
}

/// Connection-behavior knobs for [`Client`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Per-address TCP connect budget; `None` blocks indefinitely.
    pub connect_timeout: Option<Duration>,
    /// Socket read timeout; `None` blocks indefinitely.
    pub read_timeout: Option<Duration>,
    /// Socket write timeout; `None` blocks indefinitely.
    pub write_timeout: Option<Duration>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Some(Duration::from_secs(5)),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// Blocking wire-protocol client used by tests, `--selftest`, and the
/// cluster router's per-backend connections.
pub struct Client {
    stream: TcpStream,
    addr: SocketAddr,
    cfg: ClientConfig,
    /// Peer extension mask learned from the first `HELLO` exchange;
    /// `None` until negotiated. A legacy peer (clean "unknown request
    /// tag" error) caches as `Some(0)`.
    peer_extensions: Option<u32>,
}

/// Transport failures worth a reconnect: the connection is gone, as
/// opposed to slow (`TimedOut`/`WouldBlock`) or the data being bad.
fn is_disconnect(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::NotConnected
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::WriteZero
    )
}

impl Client {
    /// Connect to a running server with [`ClientConfig::default`]
    /// timeouts.
    ///
    /// # Errors
    /// Connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connect with explicit timeouts.
    ///
    /// # Errors
    /// Address resolution or connection failures (the error of the last
    /// address tried).
    pub fn connect_with(addr: impl ToSocketAddrs, cfg: ClientConfig) -> io::Result<Self> {
        let mut last = None;
        for candidate in addr.to_socket_addrs()? {
            match open_stream(candidate, &cfg) {
                Ok(stream) => {
                    return Ok(Self {
                        stream,
                        addr: candidate,
                        cfg,
                        peer_extensions: None,
                    })
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "no addresses to connect to")
        }))
    }

    /// Drop the current connection and dial the same address again.
    ///
    /// # Errors
    /// Connection failures.
    pub fn reconnect(&mut self) -> io::Result<()> {
        self.stream = open_stream(self.addr, &self.cfg)?;
        Ok(())
    }

    fn try_roundtrip(&mut self, payload: &[u8]) -> io::Result<WireResponse> {
        write_frame(&mut self.stream, payload)?;
        let reply = read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed connection")
        })?;
        WireResponse::decode(&reply)
    }

    /// One request, answered. On a disconnect-class I/O error (broken
    /// pipe, reset, EOF mid-response) the client reconnects once and
    /// retries; never on a timeout — a timed-out request may still be
    /// executing server-side.
    fn roundtrip(&mut self, req: &WireRequest) -> io::Result<WireResponse> {
        let payload = req.encode();
        match self.try_roundtrip(&payload) {
            Err(e) if is_disconnect(e.kind()) => {
                self.reconnect()?;
                self.try_roundtrip(&payload)
            }
            other => other,
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    /// I/O or protocol errors.
    pub fn ping(&mut self) -> io::Result<()> {
        match self.roundtrip(&WireRequest::Ping)? {
            WireResponse::Pong => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Publish a dictionary; returns `(version, cache_hit)`.
    ///
    /// # Errors
    /// I/O errors; service errors surface as `Err(io::Error)` with the
    /// wire message.
    pub fn publish(
        &mut self,
        name: &str,
        patterns: Vec<Vec<u8>>,
    ) -> io::Result<Result<(u64, bool), ServiceError>> {
        match self.roundtrip(&WireRequest::Publish {
            name: name.to_string(),
            patterns,
        })? {
            WireResponse::Published { version, cache_hit } => Ok(Ok((version, cache_hit))),
            WireResponse::Error { code, message } => Ok(Err(error_from_wire(code, &message))),
            other => Err(unexpected(&other)),
        }
    }

    /// Advance `name` from `parent_version` by a delta, shipping bytes
    /// proportional to the delta. Negotiates lazily: a legacy peer
    /// (no [`wire::EXT_DELTA`]) gets a full [`Client::publish`] of
    /// `fallback` instead — same resulting dictionary, legacy frames.
    /// The server may also refuse the delta (parent version superseded,
    /// dictionary missing); with a `fallback` those refusals degrade to
    /// a full publish too, so the call converges either way.
    ///
    /// # Errors
    /// I/O or protocol errors; `Unsupported` when the peer is legacy and
    /// no `fallback` was provided. Service-level failures are in the
    /// inner `Result`.
    pub fn publish_delta(
        &mut self,
        name: &str,
        parent_version: u64,
        delta: &pardict_core::DictDelta,
        fallback: Option<&[Vec<u8>]>,
    ) -> io::Result<Result<(u64, bool), ServiceError>> {
        if self.negotiated()? & wire::EXT_DELTA != 0 {
            let out = match self.roundtrip(&WireRequest::PubDelta {
                name: name.to_string(),
                parent_version,
                adds: delta.adds.clone(),
                removes: delta.removes.clone(),
            })? {
                WireResponse::Published { version, cache_hit } => Ok((version, cache_hit)),
                WireResponse::Error { code, message } => Err(error_from_wire(code, &message)),
                other => return Err(unexpected(&other)),
            };
            match (out, fallback) {
                (Err(_), Some(patterns)) => self.publish(name, patterns.to_vec()),
                (out, _) => Ok(out),
            }
        } else {
            match fallback {
                Some(patterns) => self.publish(name, patterns.to_vec()),
                None => Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "peer does not speak delta publish and no fallback was provided",
                )),
            }
        }
    }

    /// Negotiate protocol extensions, caching the peer's mask. A peer
    /// predating `HELLO` answers with a clean "unknown request tag"
    /// error, which caches as mask 0 — never a misparse; `op_traced`
    /// then degrades to plain frames and [`Client::publish_delta`] to
    /// full publishes.
    ///
    /// # Errors
    /// I/O errors only; a legacy peer is not an error.
    pub fn hello(&mut self) -> io::Result<u32> {
        let mask = match self.roundtrip(&WireRequest::Hello {
            extensions: wire::EXT_TRACE | wire::EXT_DELTA,
        })? {
            WireResponse::Hello { extensions } => extensions,
            WireResponse::Error { .. } => 0,
            other => return Err(unexpected(&other)),
        };
        self.peer_extensions = Some(mask);
        Ok(mask)
    }

    /// The cached peer extension mask, negotiating on first use.
    fn negotiated(&mut self) -> io::Result<u32> {
        match self.peer_extensions {
            Some(mask) => Ok(mask),
            None => self.hello(),
        }
    }

    /// Run one operation (`tag::MATCH` … `tag::PARSE`, `tag::GREPZ`).
    ///
    /// # Errors
    /// I/O or protocol errors; service-level failures are in the inner
    /// `Result`.
    pub fn op(
        &mut self,
        tag: u8,
        dict: &str,
        text: &[u8],
        timeout_ms: u32,
    ) -> io::Result<Result<WireResponse, ServiceError>> {
        self.op_traced(tag, dict, text, timeout_ms, None)
    }

    /// [`Client::op`] with optional trace-context propagation. The
    /// context is only wrapped when the peer advertised
    /// [`wire::EXT_TRACE`] (negotiating lazily on first use) — an
    /// untraced or legacy peer gets the bit-identical legacy frame.
    ///
    /// # Errors
    /// I/O or protocol errors; service-level failures are in the inner
    /// `Result`.
    pub fn op_traced(
        &mut self,
        tag: u8,
        dict: &str,
        text: &[u8],
        timeout_ms: u32,
        trace: Option<TraceCtx>,
    ) -> io::Result<Result<WireResponse, ServiceError>> {
        let op = WireRequest::Op {
            tag,
            dict: dict.to_string(),
            text: text.to_vec(),
            timeout_ms,
        };
        let req = match trace {
            Some(ctx) if self.negotiated()? & wire::EXT_TRACE != 0 => WireRequest::Traced {
                trace: ctx.trace.0,
                parent: ctx.parent.0,
                inner: Box::new(op),
            },
            _ => op,
        };
        match self.roundtrip(&req)? {
            WireResponse::Error { code, message } => Ok(Err(error_from_wire(code, &message))),
            ok => Ok(Ok(ok)),
        }
    }

    /// Fetch the plain-text metrics report.
    ///
    /// # Errors
    /// I/O or protocol errors.
    pub fn metrics(&mut self) -> io::Result<String> {
        match self.roundtrip(&WireRequest::Metrics)? {
            WireResponse::MetricsReport(s) => Ok(s),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetch a structured metrics snapshot.
    ///
    /// # Errors
    /// I/O or protocol errors.
    pub fn stats(&mut self) -> io::Result<crate::metrics::MetricsSnapshot> {
        match self.roundtrip(&WireRequest::Stats)? {
            WireResponse::Stats(s) => Ok(s),
            other => Err(unexpected(&other)),
        }
    }

    /// List the server's installed dictionaries as
    /// `(name, version, content hash)` digests, sorted by name.
    ///
    /// # Errors
    /// I/O or protocol errors.
    pub fn dicts(&mut self) -> io::Result<Vec<(String, u64, u64)>> {
        match self.roundtrip(&WireRequest::Dicts)? {
            WireResponse::DictList(d) => Ok(d),
            other => Err(unexpected(&other)),
        }
    }
}

fn open_stream(addr: SocketAddr, cfg: &ClientConfig) -> io::Result<TcpStream> {
    let stream = match cfg.connect_timeout {
        Some(t) => TcpStream::connect_timeout(&addr, t)?,
        None => TcpStream::connect(addr)?,
    };
    stream.set_read_timeout(cfg.read_timeout)?;
    stream.set_write_timeout(cfg.write_timeout)?;
    Ok(stream)
}

fn unexpected(resp: &WireResponse) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected response: {resp:?}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::metrics::Metrics;
    use crate::registry::Registry;
    use crate::types::Hit;

    fn test_engine() -> Engine {
        let metrics = Arc::new(Metrics::default());
        let registry = Arc::new(Registry::new(Arc::clone(&metrics)));
        Engine::new(
            EngineConfig {
                workers: 2,
                queue_depth: 64,
                max_batch: 8,
                seq_threshold: 4,
                stream_threshold: 1 << 16,
            },
            registry,
            metrics,
        )
    }

    #[test]
    fn tcp_round_trip_publish_match_metrics() {
        let engine = test_engine();
        let mut server = Server::start(engine.clone(), "127.0.0.1:0").unwrap();
        let mut client = Client::connect(server.addr()).unwrap();

        client.ping().unwrap();
        let (version, cache_hit) = client
            .publish("d", vec![b"ana".to_vec(), b"ban".to_vec()])
            .unwrap()
            .unwrap();
        assert_eq!(version, 1);
        assert!(!cache_hit);

        let resp = client
            .op(wire::tag::MATCH, "d", b"banana", 0)
            .unwrap()
            .unwrap();
        match resp {
            WireResponse::Hits { version, hits } => {
                assert_eq!(version, 1);
                assert!(hits.contains(&Hit {
                    pos: 0,
                    id: 1,
                    len: 3
                }));
            }
            other => panic!("unexpected {other:?}"),
        }

        let err = client
            .op(wire::tag::GREP, "missing", b"abc", 0)
            .unwrap()
            .unwrap_err();
        assert!(matches!(err, ServiceError::NoSuchDictionary(_)));

        // Container grep over the wire: compress a text, search it compressed.
        let text = b"banana bandana";
        let pram = pardict_pram::Pram::seq();
        let cfg = pardict_stream::StreamConfig::with_block_size(4);
        let (container, _) =
            pardict_stream::compress_stream(&pram, &mut &text[..], Vec::new(), &cfg).unwrap();
        let resp = client
            .op(wire::tag::GREPZ, "d", &container, 0)
            .unwrap()
            .unwrap();
        match resp {
            WireResponse::ContainerHits {
                version,
                hits,
                corrupt_blocks,
            } => {
                assert_eq!(version, 1);
                assert!(corrupt_blocks.is_empty());
                // "ana" straddles the 4-byte block boundary at offset 4.
                assert!(hits.contains(&Hit {
                    pos: 3,
                    id: 0,
                    len: 3
                }));
                assert!(hits.contains(&Hit {
                    pos: 7,
                    id: 1,
                    len: 3
                }));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(engine.metrics().grep_lane.get(), 1);

        let report = client.metrics().unwrap();
        assert!(report.contains("pardict-service metrics"));

        server.stop();
        engine.shutdown();
    }

    #[test]
    fn an_oversize_reply_is_an_error_on_an_open_connection() {
        let engine = test_engine();
        let mut server = Server::start(engine.clone(), "127.0.0.1:0").unwrap();
        let patterns = ["a", "aa", "aaa", "aaaa"].map(|p| p.as_bytes().to_vec());
        let mut client = Client::connect(server.addr()).unwrap();
        client.publish("a", patterns.to_vec()).unwrap().unwrap();
        // Raw frames on one socket: a `Client` would reconnect and hide a
        // dropped connection.
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let mut call = |req: WireRequest| {
            write_frame(&mut conn, &req.encode()).unwrap();
            let reply = read_frame(&mut conn)
                .unwrap()
                .expect("the connection stays open");
            WireResponse::decode(&reply).unwrap()
        };
        // 4n − 6 hits of 16 bytes each, after a 14-byte head: just over
        // the frame cap.
        let text = vec![b'a'; (1 << 20) + (1 << 12)];
        let size = 14 + 16 * (4 * text.len() - 6);
        let grep = WireRequest::Op {
            tag: wire::tag::GREP,
            dict: "a".into(),
            text,
            timeout_ms: 0,
        };
        assert_eq!(
            call(grep),
            WireResponse::Error {
                code: ServiceError::BadRequest(String::new()).code(),
                message: format!("reply of {size} bytes exceeds the {MAX_FRAME}-byte frame cap"),
            }
        );
        assert_eq!(call(WireRequest::Ping), WireResponse::Pong);
        let greps = engine.metrics().op(crate::types::OpKind::Grep);
        assert_eq!(greps.count.get(), 1, "the grep ran once");
        server.stop();
        engine.shutdown();
    }

    #[test]
    fn stats_op_ships_a_mergeable_snapshot() {
        let engine = test_engine();
        let mut server = Server::start(engine.clone(), "127.0.0.1:0").unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        client.publish("d", vec![b"aa".to_vec()]).unwrap().unwrap();
        client
            .op(wire::tag::MATCH, "d", b"aaaa", 0)
            .unwrap()
            .unwrap();
        let snap = client.stats().unwrap();
        assert_eq!(snap.publishes, 1);
        assert!(snap.completed >= 1);
        let m = snap.per_op[crate::types::OpKind::Match as usize].clone();
        assert_eq!(m.count, 1);
        assert_eq!(m.latency_us.count, 1);
        server.stop();
        engine.shutdown();
    }

    #[test]
    fn client_reconnects_once_when_the_server_drops_the_connection() {
        // A server that answers exactly one request per connection and
        // then closes it: the second ping lands on a dead socket and must
        // succeed only via the reconnect-then-retry path.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let served = std::thread::spawn(move || {
            let mut conns = 0;
            for _ in 0..2 {
                let (stream, _) = listener.accept().unwrap();
                conns += 1;
                let mut reader = stream.try_clone().unwrap();
                let mut writer = stream;
                let payload = read_frame(&mut reader).unwrap().unwrap();
                assert_eq!(WireRequest::decode(&payload).unwrap(), WireRequest::Ping);
                write_frame(&mut writer, &WireResponse::Pong.encode()).unwrap();
            }
            conns
        });
        let mut client = Client::connect(addr).unwrap();
        client.ping().unwrap();
        client.ping().unwrap();
        assert_eq!(
            served.join().unwrap(),
            2,
            "retry must use a fresh connection"
        );
    }

    #[test]
    fn client_read_timeout_errors_instead_of_hanging_and_is_not_retried() {
        // A listener that accepts but never answers. The ping must come
        // back as a timeout-class error — not hang, and not trigger the
        // reconnect path (the request may still be executing server-side).
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accepted = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            // Hold the socket open past the client timeout, then count
            // any further connection attempts for 100ms.
            std::thread::sleep(Duration::from_millis(200));
            listener.set_nonblocking(true).unwrap();
            std::thread::sleep(Duration::from_millis(100));
            let retried = listener.accept().is_ok();
            drop(stream);
            retried
        });
        let cfg = ClientConfig {
            read_timeout: Some(Duration::from_millis(50)),
            ..ClientConfig::default()
        };
        let mut client = Client::connect_with(addr, cfg).unwrap();
        let err = client.ping().unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "expected a timeout, got {err:?}"
        );
        assert!(!accepted.join().unwrap(), "timeout must not reconnect");
    }
}
