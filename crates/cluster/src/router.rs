//! The front-end router: rendezvous routing, scatter-gather, failover.
//!
//! The router speaks the existing wire vocabulary on both sides. Its
//! placement strategy is *replicated registry, sharded work*: dictionary
//! publishes broadcast to every healthy backend (dictionaries are small
//! and preprocessing is cached), while per-request work routes to a
//! single shard chosen by rendezvous hashing on the dictionary name —
//! so any shard can serve any dictionary, which is exactly what makes
//! failover a re-route instead of a re-publish. The one fan-out case is
//! container grep ([`Router::grepz`]): block ranges of the container are
//! re-framed as standalone containers ([`pardict_stream::slice_container`])
//! and scattered across *all* healthy shards, mirroring the paper's
//! block-independent decomposition — each shard's work is local to its
//! blocks plus a fixed overlap prefix, and the gather step is a
//! deterministic merge.
//!
//! Failure policy: a transport error or a `ShuttingDown` reply excludes
//! the shard and triggers failover to the next shard in the request's
//! rendezvous order; app-level errors from a live shard are answers, returned as-is.
//! Responses carry a **degraded** flag — true when the request failed
//! over mid-flight or any shard is currently excluded — so callers learn
//! about reduced capacity without correct results turning into errors.

use crate::backend::Backend;
use crate::metrics::ClusterMetrics;
use crate::shard::ranking;
use pardict_core::append_in_order;
use pardict_service::wire::{self, WireResponse};
use pardict_service::Hit;
use pardict_service::{Client, ClientConfig, MetricsSnapshot, ServiceError};
use pardict_stream::{slice_container, ContainerLayout};
use pardict_trace::{Span, TraceCtx, Tracer};
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Maximum attempts per request or scatter range, first try included.
const ATTEMPTS: u32 = 3;

/// Backoff before retry `k` is `BACKOFF << (k-1)` (exponential), cut short
/// at the request deadline.
const BACKOFF: Duration = Duration::from_millis(5);

/// Router knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Per-backend connection timeouts (the client's own single reconnect
    /// handles transparent socket churn).
    pub client: ClientConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            client: ClientConfig {
                connect_timeout: Some(Duration::from_secs(2)),
                read_timeout: Some(Duration::from_secs(30)),
                write_timeout: Some(Duration::from_secs(30)),
            },
        }
    }
}

/// Why the cluster could not answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// Every backend is excluded or exhausted its attempts.
    NoBackends,
    /// A live shard answered with a service-level error.
    Service(ServiceError),
}

impl ClusterError {
    /// Wire `(code, message)` for the error frame. `NoBackends` reuses
    /// the `Overloaded` code — the honest client guidance is the same:
    /// back off and retry.
    #[must_use]
    pub fn to_wire(&self) -> (u8, String) {
        match self {
            ClusterError::NoBackends => (
                ServiceError::Overloaded.code(),
                "cluster: no healthy backends".into(),
            ),
            ClusterError::Service(e) => (e.code(), e.to_string()),
        }
    }
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NoBackends => write!(f, "cluster: no healthy backends"),
            ClusterError::Service(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// One routed answer plus the cluster-health caveat attached to it.
#[derive(Debug)]
pub struct Routed {
    /// The response (or why none could be produced).
    pub result: Result<WireResponse, ClusterError>,
    /// True when this request failed over mid-flight or any shard is
    /// currently excluded: results are correct but capacity is reduced.
    pub degraded: bool,
}

/// Outcome of a broadcast publish.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishSummary {
    /// Highest version installed among acknowledging shards (shards
    /// normally agree; they can differ transiently after a revival).
    pub version: u64,
    /// Shards that acknowledged.
    pub acks: u32,
    /// Total shards in the cluster.
    pub total: u32,
    /// True when any shard missed the broadcast (it will catch up on
    /// revival).
    pub degraded: bool,
}

/// Outcome of a broadcast delta publish.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaSummary {
    /// Highest version installed among acknowledging shards.
    pub version: u64,
    /// Shards that acknowledged (by delta or by fallback).
    pub acks: u32,
    /// Shards that applied the delta as a delta.
    pub delta_acks: u32,
    /// Shards that needed a full-publish fallback (legacy peer, or a
    /// shard whose current version did not match the delta's parent —
    /// e.g. freshly revived).
    pub full_fallbacks: u32,
    /// Total shards in the cluster.
    pub total: u32,
    /// True when any shard missed the broadcast (it will catch up on
    /// revival).
    pub degraded: bool,
}

/// The per-attempt closure [`Router::dispatch`] retries across shards:
/// given a connected client, the milliseconds left before the request's
/// deadline, and the trace context of this attempt's span (for wire
/// propagation), produce the transport result of one wire call.
type ShardCall<'a, T> = &'a (dyn Fn(&mut Client, u32, Option<TraceCtx>) -> WireCall<T> + Sync);

/// One wire call's outcome: the transport result around the shard's answer.
type WireCall<T> = io::Result<Result<T, ServiceError>>;

/// What one shard attempt produced.
enum Attempt<T> {
    /// Well-formed payload.
    Ok(T),
    /// Well-formed service error from a live shard — an answer.
    App(ServiceError),
    /// Transport failure, draining backend, or a protocol response that
    /// proves the link mangled our bytes — fail over.
    Down,
}

/// One shard attempt at a container grep, its reply unwrapped to
/// `(version, hits, corrupt blocks)`; any other reply shape means the link
/// mangled the exchange.
fn grepz_attempt(
    c: &mut Client,
    dict: &str,
    container: &[u8],
    remaining_ms: u32,
    ctx: Option<TraceCtx>,
) -> WireCall<(u64, Vec<Hit>, Vec<u64>)> {
    match c.op_traced(wire::tag::GREPZ, dict, container, remaining_ms, ctx)? {
        Ok(WireResponse::ContainerHits {
            version,
            hits,
            corrupt_blocks,
        }) => Ok(Ok((version, hits, corrupt_blocks))),
        Ok(other) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected container hits, got {other:?}"),
        )),
        Err(e) => Ok(Err(e)),
    }
}

/// What the shards said to one broadcast.
#[derive(Default)]
struct Votes {
    acks: u32,
    /// Acks whose reply flag was set (cache hit; delta taken as a delta).
    flagged: u32,
    /// Highest version among the acknowledgements.
    version: u64,
    /// A live shard's refusal, reported when nobody acknowledged.
    rejected: Option<ServiceError>,
}

/// Per-dictionary state the router keeps for revival republish and
/// scatter overlap sizing. `content_hash` lets revival recognize a
/// backend that already recovered the dictionary from its own store.
struct DictInfo {
    patterns: Vec<Vec<u8>>,
    max_len: usize,
    version: u64,
    content_hash: u64,
}

/// The cluster front end.
pub struct Router {
    backends: Vec<Arc<Backend>>,
    cfg: ClusterConfig,
    metrics: Arc<ClusterMetrics>,
    dicts: Mutex<HashMap<String, DictInfo>>,
    rr: AtomicUsize,
    tracer: Option<Arc<Tracer>>,
}

impl Router {
    /// A router over `addrs`, one backend per address, all presumed
    /// healthy until proven otherwise.
    #[must_use]
    pub fn new(addrs: &[SocketAddr], cfg: ClusterConfig) -> Self {
        Self::new_traced(addrs, cfg, None)
    }

    /// [`Router::new`] with a tracer: routed requests get a `route` root
    /// span, each shard attempt a nested `attempt` span, and scatter
    /// ranges `scatter` spans — all propagated to backends over the wire
    /// (when they negotiated [`wire::EXT_TRACE`]).
    #[must_use]
    pub fn new_traced(
        addrs: &[SocketAddr],
        cfg: ClusterConfig,
        tracer: Option<Arc<Tracer>>,
    ) -> Self {
        let backends = addrs
            .iter()
            .enumerate()
            .map(|(id, &addr)| Arc::new(Backend::new(id, addr, cfg.client.clone())))
            .collect();
        Self {
            backends,
            metrics: Arc::new(ClusterMetrics::new(addrs.len())),
            cfg,
            dicts: Mutex::new(HashMap::new()),
            rr: AtomicUsize::new(0),
            tracer,
        }
    }

    /// The router's accounting books.
    #[must_use]
    pub fn metrics(&self) -> &ClusterMetrics {
        &self.metrics
    }

    /// The tracer, when tracing is on.
    #[must_use]
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// Root span for one routed request: nests under `inbound` when the
    /// client propagated a context, otherwise starts (and head-samples) a
    /// fresh trace. Inert when tracing is off or the trace is unsampled.
    fn route_span(&self, name: &'static str, inbound: Option<TraceCtx>) -> Span {
        let Some(t) = &self.tracer else {
            return Span::default();
        };
        inbound
            .or_else(|| t.begin_trace())
            .map_or_else(Span::default, |ctx| t.start(ctx, name, 0))
    }

    /// True when any shard is currently excluded.
    #[must_use]
    pub fn any_excluded(&self) -> bool {
        self.backends.iter().any(|b| !b.is_healthy())
    }

    /// Ids of currently healthy shards, ascending.
    #[must_use]
    pub fn healthy_ids(&self) -> Vec<usize> {
        self.backends
            .iter()
            .filter(|b| b.is_healthy())
            .map(|b| b.id)
            .collect()
    }

    // ---- shard attempt plumbing ----

    /// Record a shard failure, flipping health books when it excludes the
    /// shard.
    fn shard_failed(&self, shard: usize) {
        self.metrics.per_shard[shard].failures.inc();
        if self.backends[shard].note_failure() {
            self.metrics.per_shard[shard].deaths.inc();
            self.metrics.per_shard[shard]
                .healthy
                .store(false, Ordering::Relaxed);
        }
    }

    /// One attempt of `f` against `shard`, with checkout/checkin and
    /// failure bookkeeping.
    fn call_shard<T>(
        &self,
        shard: usize,
        f: &(dyn Fn(&mut Client) -> WireCall<T> + Sync),
    ) -> Attempt<T> {
        self.metrics.per_shard[shard].attempts.inc();
        let backend = &self.backends[shard];
        let mut client = match backend.checkout() {
            Ok(c) => c,
            Err(_) => {
                self.shard_failed(shard);
                return Attempt::Down;
            }
        };
        match f(&mut client) {
            Ok(Ok(v)) => {
                self.metrics.per_shard[shard].ok.inc();
                backend.checkin(client);
                Attempt::Ok(v)
            }
            // A draining backend is as gone as a dead socket.
            Ok(Err(ServiceError::ShuttingDown)) => {
                self.shard_failed(shard);
                Attempt::Down
            }
            // "malformed request" from a backend proves the link mangled
            // our (well-formed) frame — a poisoned path, not an answer.
            Ok(Err(ServiceError::BadRequest(m))) if m.starts_with("malformed request") => {
                self.shard_failed(shard);
                Attempt::Down
            }
            Ok(Err(e)) => {
                self.metrics.per_shard[shard].ok.inc();
                backend.checkin(client);
                Attempt::App(e)
            }
            Err(_) => {
                self.shard_failed(shard);
                Attempt::Down
            }
        }
    }

    /// Try `f` against shards in `order` (skipping excluded ones) with
    /// bounded attempts, exponential backoff, and deadline awareness.
    /// Returns the payload plus whether the request failed over (served
    /// only after a failed attempt elsewhere).
    ///
    /// Under a live `parent` span, every attempt — including
    /// the failed ones a failover leaves behind — records an `attempt`
    /// span under the parent, indexed `shard | attempt_number << 32`, and
    /// the attempt's own context rides to the backend through `f`.
    fn dispatch<T>(
        &self,
        order: &[usize],
        deadline: Option<Instant>,
        parent: &Span,
        f: ShardCall<'_, T>,
    ) -> Result<(T, bool), ClusterError> {
        let mut tried = 0u32;
        for &shard in order {
            if tried >= ATTEMPTS {
                break;
            }
            if !self.backends[shard].is_healthy() {
                continue;
            }
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    return Err(ClusterError::Service(ServiceError::DeadlineExceeded));
                }
            }
            if tried > 0 {
                self.metrics.retries.inc();
                let pause = BACKOFF * (1 << (tried - 1).min(8));
                let pause = match deadline {
                    Some(d) => pause.min(d.saturating_duration_since(Instant::now())),
                    None => pause,
                };
                std::thread::sleep(pause);
            }
            tried += 1;
            let remaining_ms = deadline.map_or(0, |d| {
                u32::try_from(d.saturating_duration_since(Instant::now()).as_millis())
                    .unwrap_or(u32::MAX)
                    .max(1)
            });
            let span = parent.child(
                "attempt",
                u64::try_from(shard).unwrap_or(u64::MAX) | (u64::from(tried - 1) << 32),
            );
            let actx = span.ctx();
            match self.call_shard(shard, &|c: &mut Client| f(c, remaining_ms, actx)) {
                Attempt::Ok(v) => {
                    let failed_over = tried > 1;
                    if failed_over {
                        self.metrics.failovers.inc();
                    }
                    return Ok((v, failed_over));
                }
                Attempt::App(e) => return Err(ClusterError::Service(e)),
                Attempt::Down => {}
            }
        }
        Err(ClusterError::NoBackends)
    }

    /// Last-resort healing: when nothing is healthy, try to revive every
    /// excluded shard. Returns whether any shard is healthy afterwards.
    fn ensure_some_healthy(&self) -> bool {
        if self.backends.iter().any(|b| b.is_healthy()) {
            return true;
        }
        for id in 0..self.backends.len() {
            self.try_revive(id);
        }
        self.backends.iter().any(|b| b.is_healthy())
    }

    /// Probe an excluded shard and bring it back: ping it, ask what it
    /// already holds (a backend with a `--data-dir` recovers its own
    /// dictionaries from its local store on boot), replay only the
    /// dictionaries that are missing or stale by content hash, and only
    /// then mark it healthy. When the digest query itself fails, fall
    /// back to replaying everything — correctness over economy. Returns
    /// `true` on a dead→alive transition. Probe traffic is off the
    /// per-shard attempt books (it is router-initiated, not request
    /// work); replay-vs-skip economics land in the `revival_replays` /
    /// `revival_skips` shard counters.
    pub fn try_revive(&self, shard: usize) -> bool {
        let backend = &self.backends[shard];
        if backend.is_healthy() {
            return false;
        }
        let Ok(mut client) = Client::connect_with(backend.addr, self.cfg.client.clone()) else {
            return false;
        };
        if client.ping().is_err() {
            return false;
        }
        let dicts: Vec<(String, Vec<Vec<u8>>, u64)> = {
            let guard = self.dicts.lock().expect("dicts poisoned");
            guard
                .iter()
                .map(|(k, v)| (k.clone(), v.patterns.clone(), v.content_hash))
                .collect()
        };
        let held: HashMap<String, u64> = match client.dicts() {
            Ok(digests) => digests.into_iter().map(|(n, _v, h)| (n, h)).collect(),
            // A backend that can't answer the digest query gets the full
            // replay — an extra publish is cheap, a missing dict is not.
            Err(_) => HashMap::new(),
        };
        for (name, patterns, hash) in dicts {
            if held.get(&name) == Some(&hash) {
                self.metrics.per_shard[shard].revival_skips.inc();
                continue;
            }
            match client.publish(&name, patterns) {
                Ok(Ok(_)) => self.metrics.per_shard[shard].revival_replays.inc(),
                _ => return false,
            }
        }
        if backend.mark_alive() {
            self.metrics.per_shard[shard].revivals.inc();
            self.metrics.per_shard[shard]
                .healthy
                .store(true, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Nothing to stop: the router owns no thread (excluded shards come
    /// back through [`Router::try_revive`], called when no healthy backend
    /// remains). Kept public because `benchmark/`, the CLI and the
    /// cluster tests call it alongside `Engine::shutdown`.
    pub fn shutdown(&self) {}

    // ---- request envelope ----

    /// Close out one request's books: exactly one outcome counter, one
    /// latency sample, and the degraded counter for answered-degraded.
    fn finish(&self, started: Instant, routed: &Routed) {
        match &routed.result {
            Ok(_) => self.metrics.completed_ok.inc(),
            Err(ClusterError::Service(_)) => self.metrics.completed_err.inc(),
            Err(ClusterError::NoBackends) => self.metrics.failed.inc(),
        }
        if routed.degraded && !matches!(routed.result, Err(ClusterError::NoBackends)) {
            self.metrics.degraded_responses.inc();
        }
        self.metrics
            .latency_us
            .record(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX));
    }

    /// Call `f` on every healthy shard and tally its `(version, flag)`
    /// replies.
    fn broadcast(&self, f: &(dyn Fn(&mut Client) -> WireCall<(u64, bool)> + Sync)) -> Votes {
        let mut votes = Votes::default();
        for shard in 0..self.backends.len() {
            if !self.backends[shard].is_healthy() {
                continue;
            }
            match self.call_shard(shard, f) {
                Attempt::Ok((v, flag)) => {
                    votes.acks += 1;
                    votes.flagged += u32::from(flag);
                    votes.version = votes.version.max(v);
                }
                Attempt::App(e) => votes.rejected = Some(e),
                Attempt::Down => {}
            }
        }
        votes
    }

    /// Close out a broadcast: with at least one acknowledgement, remember
    /// the dictionary (revival replays it, scatter sizes overlaps from it)
    /// and summarize; otherwise surface a live shard's rejection, or
    /// `NoBackends`. Either way the request is charged to the books.
    fn finish_publish(
        &self,
        started: Instant,
        name: &str,
        patterns: Vec<Vec<u8>>,
        content_hash: u64,
        votes: Votes,
    ) -> Result<PublishSummary, ClusterError> {
        let (acks, version) = (votes.acks, votes.version);
        let total = u32::try_from(self.backends.len()).unwrap_or(u32::MAX);
        let result = if acks > 0 {
            let max_len = patterns.iter().map(Vec::len).max().unwrap_or(0);
            self.dicts.lock().expect("dicts poisoned").insert(
                name.to_string(),
                DictInfo {
                    patterns,
                    max_len,
                    version,
                    content_hash,
                },
            );
            Ok(PublishSummary {
                version,
                acks,
                total,
                degraded: acks < total,
            })
        } else {
            Err(votes
                .rejected
                .map_or(ClusterError::NoBackends, ClusterError::Service))
        };
        let routed = Routed {
            degraded: result.as_ref().map_or(true, |s| s.degraded) || self.any_excluded(),
            result: match &result {
                // Bridge to the envelope's WireResponse-based accounting.
                Ok(s) => Ok(WireResponse::Published {
                    version: s.version,
                    cache_hit: false,
                }),
                Err(e) => Err(e.clone()),
            },
        };
        self.finish(started, &routed);
        result
    }

    // ---- public operations ----

    /// Broadcast a dictionary to every healthy backend and remember it
    /// for revival replay.
    ///
    /// # Errors
    /// [`ClusterError::NoBackends`] when no shard acknowledged;
    /// [`ClusterError::Service`] when a live shard rejected the publish.
    pub fn publish(
        &self,
        name: &str,
        patterns: &[Vec<u8>],
    ) -> Result<PublishSummary, ClusterError> {
        let started = Instant::now();
        self.metrics.requests.inc();
        self.metrics.publishes.inc();
        self.ensure_some_healthy();
        let pats = patterns.to_vec();
        let votes = self.broadcast(&|c: &mut Client| c.publish(name, pats.clone()));
        let hash = pardict_core::multiset_identity(patterns);
        self.finish_publish(started, name, pats, hash, votes)
    }

    /// Broadcast an incremental delta to every healthy backend, falling
    /// back to a full publish per shard when the shard can't take the
    /// delta (legacy peer without [`wire::EXT_DELTA`], or a current
    /// version that doesn't match the delta's parent — e.g. a freshly
    /// revived shard). The router applies the delta to its own
    /// replicated-registry view first, so revival replays and scatter
    /// overlap sizing see the post-delta dictionary, and hashes the
    /// result as a full publish of it would, so digest-based revival
    /// skips keep working across the two paths.
    ///
    /// # Errors
    /// [`ClusterError::Service`] when the delta is invalid against the
    /// router's view (unknown dictionary, remove that matches nothing,
    /// empty result) or a live shard rejected it and its fallback;
    /// [`ClusterError::NoBackends`] when no shard acknowledged.
    pub fn publish_delta(
        &self,
        name: &str,
        delta: &pardict_core::DictDelta,
    ) -> Result<DeltaSummary, ClusterError> {
        let started = Instant::now();
        self.metrics.requests.inc();
        self.metrics.publishes.inc();
        self.ensure_some_healthy();
        // Validate against the router's replicated view and compute the
        // final pattern set and its hash before touching the network.
        let (parent_version, finals, new_hash) = {
            let guard = self.dicts.lock().expect("dicts poisoned");
            let Some(info) = guard.get(name) else {
                return Err(ClusterError::Service(ServiceError::NoSuchDictionary(
                    name.to_string(),
                )));
            };
            let finals = pardict_core::apply_delta_patterns(&info.patterns, delta)
                .map_err(|e| ClusterError::Service(ServiceError::BadRequest(e.to_string())))?;
            let new_hash = pardict_core::multiset_identity(&finals);
            (info.version, finals, new_hash)
        };
        // Each shard reports `(version, took the delta as a delta)`.
        let votes = self.broadcast(&|c: &mut Client| {
            match c.publish_delta(name, parent_version, delta, None) {
                Ok(Ok((v, _cache_hit))) => return Ok(Ok((v, true))),
                // Shard refused the delta (stale/missing parent) or
                // is a legacy peer: converge with a full publish.
                Ok(Err(_)) => {}
                Err(e) if e.kind() == io::ErrorKind::Unsupported => {}
                Err(e) => return Err(e),
            }
            Ok(c.publish(name, finals.clone())?
                .map(|(v, _cache_hit)| (v, false)))
        });
        let delta_acks = votes.flagged;
        let p = self.finish_publish(started, name, finals, new_hash, votes)?;
        Ok(DeltaSummary {
            version: p.version,
            acks: p.acks,
            delta_acks,
            full_fallbacks: p.acks - delta_acks,
            total: p.total,
            degraded: p.degraded,
        })
    }

    /// Route one single-shard operation (`tag::MATCH`, `tag::GREP`,
    /// `tag::COMPRESS`, `tag::PARSE`): rendezvous order on the dictionary
    /// name, round-robin for dictionary-less compress. `tag::GREPZ`
    /// delegates to the scatter-gather path.
    pub fn op(&self, tag: u8, dict: &str, text: &[u8], timeout_ms: u32) -> Routed {
        self.op_traced(tag, dict, text, timeout_ms, None)
    }

    /// [`Router::op`] with an inbound trace context (from a client that
    /// propagated one through the cluster front end). With tracing on,
    /// the request records a `route` root span with each shard attempt
    /// nested under it.
    pub fn op_traced(
        &self,
        tag: u8,
        dict: &str,
        text: &[u8],
        timeout_ms: u32,
        inbound: Option<TraceCtx>,
    ) -> Routed {
        if tag == wire::tag::GREPZ {
            return self.grepz_traced(dict, text, timeout_ms, inbound);
        }
        let started = Instant::now();
        self.metrics.requests.inc();
        self.ensure_some_healthy();
        let order = if tag == wire::tag::COMPRESS {
            let n = self.backends.len();
            let start = self.rr.fetch_add(1, Ordering::Relaxed) % n.max(1);
            (0..n).map(|i| (start + i) % n).collect()
        } else {
            ranking(dict, self.backends.len())
        };
        let deadline =
            (timeout_ms > 0).then(|| started + Duration::from_millis(u64::from(timeout_ms)));
        let route = self.route_span("route", inbound);
        let text = text.to_vec();
        let outcome = self.dispatch(
            &order,
            deadline,
            &route,
            &move |c: &mut Client, remaining, actx| c.op_traced(tag, dict, &text, remaining, actx),
        );
        let (result, failed_over) = match outcome {
            Ok((resp, fo)) => (Ok(resp), fo),
            Err(e) => (Err(e), false),
        };
        let routed = Routed {
            degraded: failed_over || self.any_excluded(),
            result,
        };
        self.finish(started, &routed);
        routed
    }

    /// Container grep with scatter-gather: fan block ranges of the
    /// container out across every healthy shard, each range re-framed as
    /// a standalone container with an overlap prefix of
    /// `ceil((max_pattern_len - 1) / block_size)` blocks so every
    /// boundary-straddling occurrence is found by exactly one owner; the
    /// gather step rebases positions, keeps each hit iff its **last**
    /// byte falls in the owner's responsibility span, merges issue
    /// reports, and feeds the range lists, in range order, to
    /// [`append_in_order`], the blocks' merge, with no sort — byte-identical
    /// to a single node grepping the whole container.
    ///
    /// Falls back to single-shard routing when there is nothing to fan
    /// out (one healthy shard, a single-block container, an unknown
    /// dictionary), and for any container [`ContainerLayout::parse`]
    /// refuses — exactly those one node would refuse to open or find a
    /// header mismatch in — so the reply is that node's own.
    pub fn grepz(&self, dict: &str, container: &[u8], timeout_ms: u32) -> Routed {
        self.grepz_traced(dict, container, timeout_ms, None)
    }

    /// [`Router::grepz`] with an inbound trace context. With tracing on,
    /// the fan-out records a `route` root span, one `scatter` span per
    /// block range (indexed by range number), and `attempt` spans for
    /// every shard try — including failover retries — nested inside.
    pub fn grepz_traced(
        &self,
        dict: &str,
        container: &[u8],
        timeout_ms: u32,
        inbound: Option<TraceCtx>,
    ) -> Routed {
        let started = Instant::now();
        self.metrics.requests.inc();
        self.ensure_some_healthy();
        let deadline =
            (timeout_ms > 0).then(|| started + Duration::from_millis(u64::from(timeout_ms)));
        let route = self.route_span("route", inbound);
        let healthy = self.healthy_ids();
        let max_len = self
            .dicts
            .lock()
            .expect("dicts poisoned")
            .get(dict)
            .map(|d| d.max_len);
        let plan = max_len.and_then(|ml| {
            let layout = ContainerLayout::parse(container).ok()?;
            (healthy.len() > 1 && layout.num_blocks() > 1).then_some((ml, layout))
        });
        let Some((max_len, layout)) = plan else {
            // Single-shard path, upgraded to the cluster reply shape.
            let single = self.dispatch(
                &ranking(dict, self.backends.len()),
                deadline,
                &route,
                &|c: &mut Client, remaining, actx| {
                    grepz_attempt(c, dict, container, remaining, actx)
                },
            );
            let (result, failed_over) = match single {
                Ok(((version, hits, corrupt_blocks), fo)) => (
                    Ok(WireResponse::ClusterHits {
                        version,
                        degraded: fo || self.any_excluded(),
                        shards: 1,
                        hits,
                        corrupt_blocks,
                    }),
                    fo,
                ),
                Err(e) => (Err(e), false),
            };
            let routed = Routed {
                degraded: failed_over || self.any_excluded(),
                result,
            };
            self.finish(started, &routed);
            return routed;
        };

        // ---- scatter ----
        self.metrics.scatter_gathers.inc();
        let num_blocks = layout.num_blocks();
        let block_size = usize::try_from(layout.block_size).unwrap_or(usize::MAX);
        let total_raw = layout.raw_range(num_blocks - 1).end as u64;
        let overlap = max_len.saturating_sub(1).div_ceil(block_size.max(1));
        let k = healthy.len().min(num_blocks);
        // Contiguous balanced ranges: first `num_blocks % k` get one extra.
        let base = num_blocks / k;
        let extra = num_blocks % k;
        let mut ranges = Vec::with_capacity(k);
        let mut cursor = 0usize;
        for i in 0..k {
            let len = base + usize::from(i < extra);
            ranges.push(cursor..cursor + len);
            cursor += len;
        }

        type RangeOut = Result<(u64, Vec<Hit>, Vec<u64>, usize, bool), ClusterError>;
        // Ledger-free fan-out through the shared executor: scatter is
        // I/O-bound dispatch with no Pram in scope, one worker per range.
        let results: Vec<RangeOut> = pardict_exec::fan_out(ranges, |i, r| -> RangeOut {
            let assigned = healthy[i % healthy.len()];
            let layout_bs = block_size as u64;
            let scatter = route.child("scatter", u64::try_from(i).unwrap_or(u64::MAX));
            let slice_start = r.start.saturating_sub(overlap);
            let slice = slice_container(container, slice_start..r.end)
                .map_err(|_| ClusterError::NoBackends)?;
            // Failover order for this range: every shard, starting from
            // its assignee (excluded shards are skipped inside dispatch).
            let n = self.backends.len();
            let order: Vec<usize> = (0..n).map(|j| (assigned + j) % n).collect();
            let out = self.dispatch(
                &order,
                deadline,
                &scatter,
                &|c: &mut Client, remaining, actx| grepz_attempt(c, dict, &slice, remaining, actx),
            )?;
            let ((version, hits, corrupt), failed_over) = out;
            let rebase = layout_bs * slice_start as u64;
            // Responsibility: a hit is ours iff its last byte lands in
            // [bs*r.start, min(bs*r.end, total_raw)).
            let own_start = layout_bs * r.start as u64;
            let own_end = (layout_bs * r.end as u64).min(total_raw);
            let hits: Vec<Hit> = hits
                .into_iter()
                .map(|h| Hit {
                    pos: h.pos + rebase,
                    ..h
                })
                .filter(|h| {
                    let last = h.pos + u64::from(h.len) - 1;
                    (own_start..own_end).contains(&last)
                })
                .collect();
            let corrupt: Vec<u64> = corrupt
                .into_iter()
                .map(|b| b + slice_start as u64)
                .filter(|b| (r.start as u64..r.end as u64).contains(b))
                .collect();
            Ok((version, hits, corrupt, assigned, failed_over))
        });

        // ---- gather ----
        // Ranges come back in range order, each with the hits that end in
        // it in canonical order: the pieces the blocks of one grep are, so
        // they merge at the boundaries with the blocks' merge, no sort.
        let mut version = 0u64;
        let mut hits: Vec<Hit> = Vec::new();
        let mut corrupt: Vec<u64> = Vec::new();
        let mut shard_set = std::collections::BTreeSet::new();
        let mut any_failover = false;
        let mut err: Option<ClusterError> = None;
        for out in results {
            match out {
                Ok((v, h, c, shard, fo)) => {
                    version = version.max(v);
                    append_in_order(&mut hits, h);
                    corrupt.extend(c);
                    shard_set.insert(shard);
                    any_failover |= fo;
                    self.metrics.per_shard[shard].ranges.inc();
                }
                // First error wins; service errors outrank NoBackends
                // for diagnosability.
                Err(e) => {
                    if err.is_none() || matches!(err, Some(ClusterError::NoBackends)) {
                        err = Some(e);
                    }
                }
            }
        }
        let routed = if let Some(e) = err {
            // A range nobody could serve means the merged result would be
            // incomplete — that is a hard error, not a degraded success.
            Routed {
                degraded: any_failover || self.any_excluded(),
                result: Err(e),
            }
        } else {
            corrupt.sort_unstable();
            corrupt.dedup();
            let degraded = any_failover || self.any_excluded();
            Routed {
                degraded,
                result: Ok(WireResponse::ClusterHits {
                    version,
                    degraded,
                    shards: u32::try_from(shard_set.len()).unwrap_or(u32::MAX),
                    hits,
                    corrupt_blocks: corrupt,
                }),
            }
        };
        self.finish(started, &routed);
        routed
    }

    /// Fetch and merge structured metrics from every healthy backend —
    /// the cluster-wide view of the engines' own books (router-side books
    /// live in [`Self::metrics`]).
    ///
    /// # Errors
    /// [`ClusterError::NoBackends`] when no shard answered.
    pub fn merged_stats(&self) -> Result<(MetricsSnapshot, bool), ClusterError> {
        let started = Instant::now();
        self.metrics.requests.inc();
        self.ensure_some_healthy();
        let mut merged: Option<MetricsSnapshot> = None;
        let mut answered = 0u32;
        for shard in 0..self.backends.len() {
            if !self.backends[shard].is_healthy() {
                continue;
            }
            match self.call_shard(shard, &|c: &mut Client| c.stats().map(Ok)) {
                Attempt::Ok(snap) => {
                    answered += 1;
                    merged = Some(match merged.take() {
                        Some(mut m) => {
                            m.merge(&snap);
                            m
                        }
                        None => snap,
                    });
                }
                Attempt::App(_) | Attempt::Down => {}
            }
        }
        let degraded = self.any_excluded()
            || answered < u32::try_from(self.backends.len()).unwrap_or(u32::MAX);
        let result = merged
            .map(|m| (m, degraded))
            .ok_or(ClusterError::NoBackends);
        let routed = Routed {
            degraded,
            result: match &result {
                Ok((_, _)) => Ok(WireResponse::Pong),
                Err(e) => Err(e.clone()),
            },
        };
        self.finish(started, &routed);
        result
    }

    /// The router's replicated-registry view as `(name, version,
    /// content_hash)` digests, sorted by name — the cluster-side answer
    /// to the `Dicts` wire request (versions are the highest any shard
    /// acknowledged; shards agree except transiently after a revival).
    #[must_use]
    pub fn dict_digests(&self) -> Vec<(String, u64, u64)> {
        let guard = self.dicts.lock().expect("dicts poisoned");
        let mut out: Vec<(String, u64, u64)> = guard
            .iter()
            .map(|(k, v)| (k.clone(), v.version, v.content_hash))
            .collect();
        out.sort();
        out
    }

    /// Human-readable cluster report: router books plus each backend's
    /// health line.
    #[must_use]
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = self.metrics.report();
        let _ = writeln!(out);
        for b in &self.backends {
            let _ = writeln!(
                out,
                "backend {} at {} [{}]",
                b.id,
                b.addr,
                if b.is_healthy() {
                    "healthy"
                } else {
                    "excluded"
                }
            );
        }
        out
    }
}
