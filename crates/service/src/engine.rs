//! Batched execution engine with admission control.
//!
//! Requests enter a bounded queue; worker threads drain up to
//! [`EngineConfig::max_batch`] pending requests at a time and run the whole
//! batch against one thread-local [`Pram::par()`]. Batching is what makes
//! the §3 amortization visible operationally: preprocessing was paid at
//! publish time, so a batch of `k` texts costs `O(Σ nᵢ)` work with each
//! request's exact share attributed through [`Pram::metered`] and returned
//! in its [`ResponseMeta`].
//!
//! Admission control is explicit: a full queue rejects with
//! [`ServiceError::Overloaded`] instead of buffering unboundedly, and a
//! request whose deadline passed while queued is answered
//! [`ServiceError::DeadlineExceeded`] without being executed. Small match
//! requests skip the parallel machinery entirely and run on the
//! preprocessed Aho–Corasick automaton (the sequential fallback lane) —
//! for a text shorter than [`EngineConfig::seq_threshold`] the simulator's
//! parallel constant factors exceed the work saved.

use crate::metrics::Metrics;
use crate::registry::{DictVersion, Registry};
use crate::types::{
    check_text, Hit, Lane, OpRequest, Reply, Request, Response, ResponseMeta, ServiceError,
};
use pardict_compress::{
    decodes_back, encode_tokens, greedy_parse, lz1_compress, optimal_parse, Token,
};
use pardict_pram::Pram;
use pardict_trace::Tracer;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Seed for the LZ1 fingerprint family; fixed so compression's ledger
/// charges are reproducible across runs and replicas. The token format is
/// seed-independent: a decoder may use any seed.
pub const LZ1_SEED: u64 = 0x5EED_1235_9ABC_DEF1;

/// Engine sizing and policy knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads; the default is one per hart, at most 8. `0` means
    /// no background workers: requests are executed inline by
    /// `wait()`-ing callers (useful for deterministic tests).
    pub workers: usize,
    /// Bounded queue depth; submissions beyond it are rejected.
    pub queue_depth: usize,
    /// Max requests a worker drains into one batch.
    pub max_batch: usize,
    /// Match texts shorter than this run on the sequential fallback lane.
    pub seq_threshold: usize,
    /// Compress texts larger than this route through the chunked streaming
    /// pipeline (and this value becomes the pipeline's block size), so one
    /// huge payload neither monopolizes a batch nor holds a whole-buffer
    /// parse in memory. The reply payload is then a framed container
    /// rather than a bare token stream — distinguishable by its magic.
    pub stream_threshold: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            workers: pardict_pram::harts().min(8),
            queue_depth: 1024,
            max_batch: 32,
            seq_threshold: 512,
            stream_threshold: pardict_stream::DEFAULT_BLOCK_SIZE,
        }
    }
}

/// One queued request plus its completion slot.
struct Job {
    req: Request,
    enqueued: Instant,
    /// Tracer-clock reading at admission (0 when the request is untraced);
    /// becomes the start of the "request" span so queueing time is visible.
    trace_start: u64,
    ticket: Arc<TicketState>,
}

#[derive(Default)]
struct TicketState {
    slot: Mutex<Option<Response>>,
    cv: Condvar,
}

impl TicketState {
    fn fulfill(&self, resp: Response) {
        *self.slot.lock().expect("ticket poisoned") = Some(resp);
        self.cv.notify_all();
    }
}

/// Handle to one in-flight request.
pub struct Ticket {
    state: Arc<TicketState>,
    engine: Engine,
}

impl Ticket {
    /// Block until the response is ready. With a zero-worker engine this
    /// drains the queue inline on the calling thread.
    #[must_use]
    pub fn wait(self) -> Response {
        loop {
            {
                let mut slot = self.state.slot.lock().expect("ticket poisoned");
                if self.engine.inner.cfg.workers > 0 {
                    while slot.is_none() {
                        slot = self.state.cv.wait(slot).expect("ticket poisoned");
                    }
                }
                if let Some(resp) = slot.take() {
                    return resp;
                }
            }
            // Inline mode: run one batch ourselves and re-check.
            self.engine.run_one_batch_inline();
        }
    }
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Inner {
    cfg: EngineConfig,
    registry: Arc<Registry>,
    metrics: Arc<Metrics>,
    tracer: Option<Arc<Tracer>>,
    q: Mutex<QueueState>,
    cv: Condvar,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// The batched execution engine. Cheap to clone; clones share state.
#[derive(Clone)]
pub struct Engine {
    inner: Arc<Inner>,
}

impl Engine {
    /// Build an engine over `registry`/`metrics` and start its workers.
    #[must_use]
    pub fn new(cfg: EngineConfig, registry: Arc<Registry>, metrics: Arc<Metrics>) -> Self {
        Self::new_traced(cfg, registry, metrics, None)
    }

    /// [`Engine::new`] plus an optional tracer: requests carrying a
    /// [`pardict_trace::TraceCtx`] then emit request → exec → wave spans
    /// with their exact ledger [`pardict_pram::Cost`] attached.
    #[must_use]
    pub fn new_traced(
        cfg: EngineConfig,
        registry: Arc<Registry>,
        metrics: Arc<Metrics>,
        tracer: Option<Arc<Tracer>>,
    ) -> Self {
        let engine = Self {
            inner: Arc::new(Inner {
                cfg: cfg.clone(),
                registry,
                metrics,
                tracer,
                q: Mutex::new(QueueState {
                    jobs: VecDeque::new(),
                    shutdown: false,
                }),
                cv: Condvar::new(),
                workers: Mutex::new(Vec::new()),
            }),
        };
        let mut handles = Vec::with_capacity(cfg.workers);
        for i in 0..cfg.workers {
            let e = engine.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("pardict-worker-{i}"))
                    .spawn(move || e.worker_loop())
                    .expect("spawn worker"),
            );
        }
        *engine.inner.workers.lock().expect("workers poisoned") = handles;
        engine
    }

    /// The dictionary registry this engine executes against.
    #[must_use]
    pub fn registry(&self) -> &Arc<Registry> {
        &self.inner.registry
    }

    /// The shared metrics sink.
    #[must_use]
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.inner.metrics
    }

    /// The engine configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.inner.cfg
    }

    /// The tracer, when this engine was built with one.
    #[must_use]
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.inner.tracer.as_ref()
    }

    /// Enqueue a request.
    ///
    /// # Errors
    /// [`ServiceError::Overloaded`] when the queue is full,
    /// [`ServiceError::ShuttingDown`] after [`Engine::shutdown`].
    pub fn submit(&self, req: Request) -> Result<Ticket, ServiceError> {
        let inner = &self.inner;
        let mut q = inner.q.lock().expect("queue poisoned");
        if q.shutdown {
            return Err(ServiceError::ShuttingDown);
        }
        if q.jobs.len() >= inner.cfg.queue_depth {
            inner.metrics.rejected_overloaded.inc();
            return Err(ServiceError::Overloaded);
        }
        let state = Arc::new(TicketState::default());
        let trace_start = match (&inner.tracer, req.trace) {
            (Some(t), Some(_)) => t.now(),
            _ => 0,
        };
        q.jobs.push_back(Job {
            req,
            enqueued: Instant::now(),
            trace_start,
            ticket: Arc::clone(&state),
        });
        inner.metrics.submitted.inc();
        drop(q);
        inner.cv.notify_one();
        Ok(Ticket {
            state,
            engine: self.clone(),
        })
    }

    /// Submit and wait: the synchronous convenience path.
    #[must_use]
    pub fn call(&self, req: Request) -> Response {
        match self.submit(req) {
            Ok(ticket) => ticket.wait(),
            Err(e) => Response::rejected(e),
        }
    }

    /// Stop accepting work, answer everything still queued with
    /// [`ServiceError::ShuttingDown`], and join the workers.
    pub fn shutdown(&self) {
        let drained: Vec<Job> = {
            let mut q = self.inner.q.lock().expect("queue poisoned");
            q.shutdown = true;
            q.jobs.drain(..).collect()
        };
        self.inner.cv.notify_all();
        for job in drained {
            job.ticket
                .fulfill(Response::rejected(ServiceError::ShuttingDown));
        }
        let handles = std::mem::take(&mut *self.inner.workers.lock().expect("workers poisoned"));
        for h in handles {
            let _ = h.join();
        }
    }

    fn worker_loop(&self) {
        loop {
            let batch = {
                let mut q = self.inner.q.lock().expect("queue poisoned");
                loop {
                    if q.shutdown {
                        return;
                    }
                    if !q.jobs.is_empty() {
                        break;
                    }
                    q = self.inner.cv.wait(q).expect("queue poisoned");
                }
                let take = q.jobs.len().min(self.inner.cfg.max_batch);
                q.jobs.drain(..take).collect::<Vec<_>>()
            };
            self.run_batch(batch);
        }
    }

    /// Inline execution used by zero-worker engines: drain one batch on the
    /// calling thread (no-op if the queue is empty).
    fn run_one_batch_inline(&self) {
        let batch = {
            let mut q = self.inner.q.lock().expect("queue poisoned");
            let take = q.jobs.len().min(self.inner.cfg.max_batch);
            q.jobs.drain(..take).collect::<Vec<_>>()
        };
        if !batch.is_empty() {
            self.run_batch(batch);
        }
    }

    /// Execute one drained batch on a fresh `Pram::par()`. One Pram per
    /// batch (not per engine) because the ledger is `Cell`-based and the
    /// context is deliberately `!Sync`.
    fn run_batch(&self, batch: Vec<Job>) {
        let metrics = &self.inner.metrics;
        let batch_size = batch.len() as u32;
        metrics.batches.inc();
        metrics.batched_requests.add(u64::from(batch_size));
        let pram = Pram::par();

        for job in batch {
            let queued = job.enqueued.elapsed();
            let kind = job.req.op.kind();
            let exec_start = Instant::now();

            let outcome = if job.req.deadline.is_some_and(|d| Instant::now() > d) {
                metrics.deadline_expired.inc();
                Err(ServiceError::DeadlineExceeded)
            } else {
                Ok(())
            };

            // A traced request gets a "request" span (opened at admission
            // time, so queueing is visible) with an "exec" child covering
            // the metered execution; the ambient scope lets wave loops in
            // stream/search hang per-wave spans under "exec" without any
            // signature changes down there.
            let tctx = match (&self.inner.tracer, job.req.trace) {
                (Some(t), Some(ctx)) => Some((Arc::clone(t), ctx)),
                _ => None,
            };
            let mut req_span = tctx
                .as_ref()
                .map(|(t, ctx)| t.start_at(*ctx, "request", 0, job.trace_start));

            let (result, cost, lane) = match outcome {
                Err(e) => (Err(e), pardict_pram::Cost::default(), Lane::Batched),
                Ok(()) => {
                    let mut lane = Lane::Batched;
                    let mut fell_back = false;
                    // The ambient deadline makes multi-wave operations
                    // (stream compress, container grep) re-check at every
                    // super-step boundary, not only at dequeue.
                    let (result, cost) = if let (Some((t, _)), Some(rs)) = (&tctx, &req_span) {
                        let mut exec_span = t.start(rs.ctx(), "exec", 0);
                        let (r, c) = pardict_trace::with_scope(t, exec_span.ctx(), || {
                            pardict_exec::with_deadline(job.req.deadline, || {
                                pram.metered(|p| {
                                    self.execute(p, &job.req.op, &mut lane, &mut fell_back)
                                })
                            })
                        });
                        // A §3.4 rejection is rare enough to matter when it
                        // happens: the exec span says the automaton answered.
                        exec_span.set_lane(if fell_back {
                            "batched+ac-fallback"
                        } else {
                            lane.name()
                        });
                        exec_span.finish(c);
                        (r, c)
                    } else {
                        pardict_exec::with_deadline(job.req.deadline, || {
                            pram.metered(|p| {
                                self.execute(p, &job.req.op, &mut lane, &mut fell_back)
                            })
                        })
                    };
                    // A deadline that expired *during* execution makes any
                    // result stale — whether a wave boundary cancelled the
                    // op or it ran to completion, the client gave up and is
                    // answered DeadlineExceeded.
                    let result = if job.req.deadline.is_some_and(|d| Instant::now() > d) {
                        metrics.deadline_expired.inc();
                        Err(ServiceError::DeadlineExceeded)
                    } else {
                        result
                    };
                    (result, cost, lane)
                }
            };

            if let Some(mut rs) = req_span.take() {
                rs.set_lane(lane.name());
                rs.finish(cost);
            }

            let exec = exec_start.elapsed();
            match lane {
                Lane::SeqFallback => metrics.seq_fallback.inc(),
                Lane::Stream => metrics.stream_lane.inc(),
                Lane::Grep => metrics.grep_lane.inc(),
                Lane::Batched => {}
            }
            let stats = metrics.op(kind);
            match &result {
                Ok(_) => stats.count.inc(),
                Err(_) => stats.errors.inc(),
            }
            stats.latency_us.record((queued + exec).as_micros() as u64);
            stats.work.record(cost.work);
            stats.depth.record(cost.depth);
            metrics.completed.inc();

            job.ticket.fulfill(Response {
                result,
                meta: ResponseMeta {
                    cost,
                    batch_size,
                    queued,
                    exec,
                    lane,
                },
            });
        }
    }

    /// Run one operation under the batch's Pram, recording which lane
    /// served it and whether a verified match had to fall back to the
    /// preprocessed automata.
    fn execute(
        &self,
        pram: &Pram,
        op: &OpRequest,
        lane: &mut Lane,
        fell_back: &mut bool,
    ) -> Result<Reply, ServiceError> {
        // Container payloads are binary (length fields, CRCs) — the NUL
        // sentinel check only applies to raw-text operations.
        if !matches!(op, OpRequest::GrepContainer { .. }) {
            check_text(op.text())?;
        }
        match op {
            OpRequest::Match { dict, text } => {
                let dv = self.resolve(dict)?;
                if text.len() < self.inner.cfg.seq_threshold {
                    *lane = Lane::SeqFallback;
                    // Charge the automaton scan to the ledger by hand: the
                    // AC baseline runs outside the Pram combinators.
                    pram.ledger().charge_work(text.len() as u64);
                    pram.ledger().charge_depth(text.len() as u64);
                    let matches = dv.pre.seg.ac_match(text);
                    return Ok(Reply::Match {
                        version: dv.version,
                        hits: to_hits(matches.iter_hits()),
                    });
                }
                // Las Vegas without rebuilding: the Monte Carlo pass (one
                // whole-dictionary matcher, or one per segment, as the
                // registry picks) is vetted by the exact §3.4 checker; on
                // the (astronomically rare) fingerprint collision the
                // preprocessed automata answer instead.
                let (matches, rejected) = dv.pre.match_verified(pram, text);
                *fell_back = rejected;
                Ok(Reply::Match {
                    version: dv.version,
                    hits: to_hits(matches.iter_hits()),
                })
            }
            OpRequest::Grep { dict, text } => {
                let dv = self.resolve(dict)?;
                let occs = dv.pre.seg.find_all(pram, text);
                Ok(Reply::Grep {
                    version: dv.version,
                    hits: to_hits(occs.into_iter()),
                })
            }
            OpRequest::Compress { text } => {
                let (payload, phrases) = if text.len() > self.inner.cfg.stream_threshold {
                    // Large payload: chunked block-parallel pipeline. The
                    // reply carries the framed container (starts with the
                    // stream magic), so clients and the selftest can tell
                    // the two encodings apart without a wire change.
                    *lane = Lane::Stream;
                    let cfg = pardict_stream::StreamConfig::with_block_size(
                        self.inner.cfg.stream_threshold.max(1),
                    );
                    let (container, summary) =
                        pardict_stream::compress_stream(pram, &mut &text[..], Vec::new(), &cfg)
                            .map_err(|e| ServiceError::BadRequest(e.to_string()))?;
                    (container, summary.phrases.min(u64::from(u32::MAX)) as u32)
                } else {
                    let tokens = verified_lz1(pram, text);
                    (encode_tokens(&tokens), tokens.len() as u32)
                };
                self.inner
                    .metrics
                    .compress_ratio_pct
                    .record((payload.len() as u64 * 100) / (text.len().max(1) as u64));
                Ok(Reply::Compress { phrases, payload })
            }
            OpRequest::Parse { dict, text } => {
                let dv = self.resolve(dict)?;
                let parse =
                    optimal_parse(pram, &dv.pre.seg, text).ok_or(ServiceError::Unparseable)?;
                let greedy = greedy_parse(pram, &dv.pre.seg, text);
                Ok(Reply::Parse {
                    version: dv.version,
                    phrases: parse.num_phrases() as u32,
                    greedy_phrases: greedy.map(|g| g.num_phrases() as u32),
                })
            }
            OpRequest::GrepContainer { dict, container } => {
                let dv = self.resolve(dict)?;
                *lane = Lane::Grep;
                let mut rdr =
                    pardict_stream::StreamReader::open(std::io::Cursor::new(&container[..]))
                        .map_err(|e| ServiceError::BadRequest(e.to_string()))?;
                let summary = pardict_search::grep_container(
                    pram,
                    &dv.pre.seg,
                    &mut rdr,
                    &pardict_search::GrepConfig::default(),
                )
                .map_err(|e| ServiceError::BadRequest(e.to_string()))?;
                Ok(Reply::GrepContainer {
                    version: dv.version,
                    hits: summary
                        .hits
                        .into_iter()
                        .map(|h| Hit {
                            pos: h.pos,
                            id: h.id,
                            len: h.len,
                        })
                        .collect(),
                    corrupt_blocks: summary.issues.iter().map(|i| i.index).collect(),
                })
            }
        }
    }

    fn resolve(&self, name: &str) -> Result<Arc<DictVersion>, ServiceError> {
        self.inner
            .registry
            .current(name)
            .ok_or_else(|| ServiceError::NoSuchDictionary(name.to_string()))
    }
}

fn to_hits(iter: impl Iterator<Item = (usize, pardict_core::Match)>) -> Vec<Hit> {
    iter.map(|(pos, m)| Hit {
        pos: pos as u64,
        id: m.id,
        len: m.len,
    })
    .collect()
}

/// The LZ1 parse of `text` if it decodes back to `text`, else the
/// all-literal parse. LZ1's copy lengths come from fingerprint LCPs, exact
/// only with high probability, so a reply is checked before it leaves; the
/// literal parse is always exact.
fn verified_lz1(pram: &Pram, text: &[u8]) -> Vec<Token> {
    let tokens = lz1_compress(pram, text, LZ1_SEED);
    #[cfg(test)]
    let tokens = match tests::PARSE_TAMPER.with(std::cell::Cell::take) {
        Some(tamper) => tamper(tokens),
        None => tokens,
    };
    if decodes_back(pram, &tokens, &[], text) {
        return tokens;
    }
    pram.ledger().round(text.len() as u64);
    text.iter().map(|&b| Token::Literal(b)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::tests::{
        dna_dictionary, false_claim, repaying_text, whole_build_cost, TAMPER,
    };
    use pardict_trace::TraceCtx;
    use std::cell::Cell;

    /// Rewrites a small-lane parse before it is checked.
    type ParseTamper = fn(Vec<Token>) -> Vec<Token>;

    thread_local! {
        /// Test seam: when set, rewrites this thread's next small-lane LZ1
        /// parse the way a fingerprint collision would.
        pub(crate) static PARSE_TAMPER: Cell<Option<ParseTamper>> = const { Cell::new(None) };
    }

    /// A parse tamper: the first copy that can reads from one byte later,
    /// so the tokens still expand to the text's length but not its bytes.
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

    fn engine_with(workers: usize, queue_depth: usize) -> Engine {
        let metrics = Arc::new(Metrics::default());
        let registry = Arc::new(Registry::new(Arc::clone(&metrics)));
        Engine::new(
            EngineConfig {
                workers,
                queue_depth,
                max_batch: 8,
                seq_threshold: 16,
                stream_threshold: 1 << 16,
            },
            registry,
            metrics,
        )
    }

    fn publish(e: &Engine, name: &str, pats: &[&str]) {
        e.registry()
            .publish(name, pats.iter().map(|s| s.as_bytes().to_vec()).collect())
            .unwrap();
    }

    /// Submit one `Match` of `text` against `d` per entry of `traces`.
    fn matches(e: &Engine, text: &[u8], traces: Vec<Option<TraceCtx>>) -> Vec<Response> {
        let tickets: Vec<Ticket> = traces
            .into_iter()
            .map(|trace| {
                let op = OpRequest::Match {
                    dict: "d".into(),
                    text: text.to_vec(),
                };
                e.submit(Request::new(op).traced(trace)).unwrap()
            })
            .collect();
        tickets.into_iter().map(Ticket::wait).collect()
    }

    fn hits(resp: Response) -> Vec<Hit> {
        match resp.result {
            Ok(Reply::Match { hits, .. }) => hits,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn racing_workers_consolidate_once() {
        // One request per batch, so each worker takes one of the first two.
        let plain = engine_with(0, 64);
        let e = Engine::new(
            EngineConfig {
                workers: 2,
                max_batch: 1,
                ..plain.config().clone()
            },
            Arc::clone(plain.registry()),
            Arc::clone(plain.metrics()),
        );
        let patterns = dna_dictionary(150, 2);
        e.registry().publish("d", patterns.clone()).unwrap();
        let pre = Arc::clone(&e.registry().current("d").unwrap().pre);
        let text = repaying_text(&patterns);
        let build = whole_build_cost(&pre);
        let raced = matches(&e, &text, vec![None, None]);
        let after = matches(&e, &text, vec![None]).remove(0);
        e.shutdown();
        let query = after.meta.cost.work;
        let mut works: Vec<u64> = raced.iter().map(|r| r.meta.cost.work).collect();
        works.sort_unstable();
        assert_eq!(works, [query, query + build.work]);
        let want = to_hits(pre.seg.ac_match(&text).iter_hits());
        for resp in raced.into_iter().chain([after]) {
            assert_eq!(hits(resp), want);
        }
    }

    #[test]
    fn a_rejected_consolidated_answer_falls_back_and_the_exec_span_says_so() {
        let t = Tracer::new(pardict_trace::TraceConfig {
            sample_one_in: 1,
            seed: 7,
            capacity: 1 << 10,
            deterministic: true,
        });
        let plain = engine_with(0, 64);
        let e = Engine::new_traced(
            plain.config().clone(),
            Arc::clone(plain.registry()),
            Arc::clone(plain.metrics()),
            Some(Arc::clone(&t)),
        );
        let patterns = dna_dictionary(150, 2);
        e.registry().publish("d", patterns.clone()).unwrap();
        let pre = Arc::clone(&e.registry().current("d").unwrap().pre);
        let text = repaying_text(&patterns);
        let build = whole_build_cost(&pre);
        TAMPER.with(|c| c.set(Some(false_claim)));
        let resp = matches(&e, &text, vec![t.begin_trace()]).remove(0);
        assert_eq!(hits(resp), to_hits(pre.seg.ac_match(&text).iter_hits()));
        let spans = t.drain();
        let span = |name: &str| spans.iter().find(|s| s.name == name).unwrap();
        assert_eq!(span("exec").lane, Some("batched+ac-fallback"));
        assert_eq!(span("consolidate").parent, span("exec").span);
        assert_eq!(span("consolidate").cost, build);
    }

    #[test]
    fn inline_engine_matches() {
        let e = engine_with(0, 64);
        publish(&e, "d", &["ana", "ban"]);
        let resp = e.call(Request::new(OpRequest::Match {
            dict: "d".into(),
            text: b"banana".to_vec(),
        }));
        let reply = resp.result.unwrap();
        match reply {
            Reply::Match { version, hits } => {
                assert_eq!(version, 1);
                assert!(hits.iter().any(|h| h.pos == 0 && h.len == 3)); // "ban"
                assert!(hits.iter().any(|h| h.pos == 1 && h.len == 3)); // "ana"
            }
            other => panic!("unexpected reply {other:?}"),
        }
        assert_eq!(resp.meta.lane, Lane::SeqFallback); // 6 < 16
        assert!(resp.meta.cost.work > 0);
    }

    #[test]
    fn threaded_engine_matches_and_shuts_down() {
        let e = engine_with(2, 64);
        publish(&e, "d", &["abra"]);
        let text = b"abracadabra".repeat(8); // 88 bytes > threshold 16
        let resp = e.call(Request::new(OpRequest::Match {
            dict: "d".into(),
            text,
        }));
        match resp.result.unwrap() {
            Reply::Match { hits, .. } => assert_eq!(hits.len(), 16),
            other => panic!("unexpected reply {other:?}"),
        }
        assert_eq!(resp.meta.lane, Lane::Batched);
        e.shutdown();
        let after = e.submit(Request::new(OpRequest::Compress {
            text: b"x".to_vec(),
        }));
        assert!(matches!(after, Err(ServiceError::ShuttingDown)));
    }

    #[test]
    fn full_queue_rejects_overloaded() {
        let e = engine_with(0, 2);
        publish(&e, "d", &["a"]);
        let mk = || {
            Request::new(OpRequest::Compress {
                text: b"abcabc".to_vec(),
            })
        };
        let t1 = e.submit(mk()).unwrap();
        let _t2 = e.submit(mk()).unwrap();
        assert!(matches!(e.submit(mk()), Err(ServiceError::Overloaded)));
        assert_eq!(e.metrics().rejected_overloaded.get(), 1);
        // Draining makes room again.
        assert!(t1.wait().result.is_ok());
        assert!(e.submit(mk()).is_ok());
    }

    #[test]
    fn expired_deadline_is_rejected_not_executed() {
        let e = engine_with(0, 8);
        let req = Request {
            trace: None,
            op: OpRequest::Compress {
                text: b"abc".to_vec(),
            },
            deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
        };
        let resp = e.call(req);
        assert!(matches!(resp.result, Err(ServiceError::DeadlineExceeded)));
        assert_eq!(e.metrics().deadline_expired.get(), 1);
    }

    #[test]
    fn deadline_expiring_mid_execution_answers_deadline_exceeded() {
        let metrics = Arc::new(Metrics::default());
        let registry = Arc::new(Registry::new(Arc::clone(&metrics)));
        let e = Engine::new(
            EngineConfig {
                workers: 0,
                queue_depth: 8,
                max_batch: 8,
                seq_threshold: 16,
                stream_threshold: 256, // many small blocks → many waves
            },
            registry,
            metrics,
        );
        // The deadline survives the dequeue check but expires while the
        // multi-wave stream compress runs. Whether a wave-boundary check
        // cancels it mid-flight or it runs to completion, the client gave
        // up — the answer must be DeadlineExceeded, never a stale result.
        let text = b"a deadline is a deadline is a deadline all the way down ".repeat(1 << 14);
        let req = Request {
            trace: None,
            op: OpRequest::Compress { text },
            deadline: Some(Instant::now() + std::time::Duration::from_millis(2)),
        };
        let resp = e.call(req);
        assert!(matches!(resp.result, Err(ServiceError::DeadlineExceeded)));
        assert_eq!(e.metrics().deadline_expired.get(), 1);
    }

    #[test]
    fn unknown_dictionary_and_nul_text_error() {
        let e = engine_with(0, 8);
        let resp = e.call(Request::new(OpRequest::Grep {
            dict: "nope".into(),
            text: b"abc".to_vec(),
        }));
        assert!(matches!(
            resp.result,
            Err(ServiceError::NoSuchDictionary(_))
        ));
        publish(&e, "d", &["a"]);
        let resp = e.call(Request::new(OpRequest::Match {
            dict: "d".into(),
            text: vec![b'a', 0],
        }));
        assert!(matches!(resp.result, Err(ServiceError::BadRequest(_))));
    }

    #[test]
    fn compress_roundtrips_and_parse_counts() {
        let e = engine_with(0, 8);
        publish(&e, "d", &["ab", "ra", "cad", "abra"]);
        let text = b"abracadabra".to_vec();
        let resp = e.call(Request::new(OpRequest::Compress { text: text.clone() }));
        match resp.result.unwrap() {
            Reply::Compress { payload, phrases } => {
                assert!(phrases > 0);
                let tokens = pardict_compress::decode_tokens(&payload).unwrap();
                let pram = Pram::seq();
                assert_eq!(
                    pardict_compress::lz1_decompress(&pram, &tokens, LZ1_SEED),
                    text
                );
            }
            other => panic!("unexpected reply {other:?}"),
        }
        let resp = e.call(Request::new(OpRequest::Parse {
            dict: "d".into(),
            text,
        }));
        match resp.result.unwrap() {
            Reply::Parse {
                phrases,
                greedy_phrases,
                ..
            } => {
                // abra|cad|abra is optimal (3); greedy also terminates.
                assert_eq!(phrases, 3);
                assert!(greedy_phrases.unwrap() >= 3);
            }
            other => panic!("unexpected reply {other:?}"),
        }
        // Unparseable text surfaces the dedicated error.
        let resp = e.call(Request::new(OpRequest::Parse {
            dict: "d".into(),
            text: b"zzz".to_vec(),
        }));
        assert!(matches!(resp.result, Err(ServiceError::Unparseable)));
    }

    /// A small-lane parse that decodes to the wrong bytes — what a
    /// fingerprint collision in the LCP array produces — never leaves the
    /// engine: the reply is the all-literal parse, which decodes to the
    /// request text.
    #[test]
    fn a_compress_reply_whose_parse_does_not_decode_is_all_literal() {
        let e = engine_with(0, 8);
        let text = b"abcabcabcabd abcabcabcabd abcabcabcabd".repeat(4);
        let reply = |e: &Engine| match e
            .call(Request::new(OpRequest::Compress { text: text.clone() }))
            .result
        {
            Ok(Reply::Compress { payload, phrases }) => {
                let tokens = pardict_compress::decode_tokens(&payload).unwrap();
                let out = pardict_compress::lz1_decompress(&Pram::seq(), &tokens, 1);
                (out, phrases as usize)
            }
            other => panic!("unexpected reply {other:?}"),
        };
        let (clean, phrases) = reply(&e);
        assert_eq!(clean, text);
        assert!(phrases < text.len());

        PARSE_TAMPER.with(|t| t.set(Some(shifted_copy)));
        let (out, phrases) = reply(&e);
        assert!(PARSE_TAMPER.with(Cell::take).is_none(), "the seam was used");
        assert_eq!(out, text);
        assert_eq!(phrases, text.len());
    }

    #[test]
    fn large_compress_routes_through_stream_lane() {
        let metrics = Arc::new(Metrics::default());
        let registry = Arc::new(Registry::new(Arc::clone(&metrics)));
        let e = Engine::new(
            EngineConfig {
                workers: 0,
                queue_depth: 8,
                max_batch: 8,
                seq_threshold: 16,
                stream_threshold: 256, // tiny, so a 2 KiB text streams
            },
            registry,
            metrics,
        );
        let small = b"tiny text".to_vec();
        let resp = e.call(Request::new(OpRequest::Compress { text: small }));
        assert_eq!(resp.meta.lane, Lane::Batched);

        let text = b"the rain in spain stays mainly in the plain ".repeat(50); // 2200 B
        let resp = e.call(Request::new(OpRequest::Compress { text: text.clone() }));
        assert_eq!(resp.meta.lane, Lane::Stream);
        assert_eq!(e.metrics().stream_lane.get(), 1);
        assert_eq!(e.metrics().compress_ratio_pct.count(), 2);
        match resp.result.unwrap() {
            Reply::Compress { payload, phrases } => {
                assert!(phrases > 0);
                assert!(pardict_stream::is_container(&payload));
                let pram = Pram::seq();
                let (out, summary) =
                    pardict_stream::decompress_stream(&pram, &mut &payload[..], Vec::new())
                        .unwrap();
                assert_eq!(out, text);
                assert!(summary.issues.is_empty());
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn batches_group_queued_requests() {
        let e = engine_with(0, 64);
        publish(&e, "d", &["aa"]);
        let tickets: Vec<_> = (0..6)
            .map(|_| {
                e.submit(Request::new(OpRequest::Match {
                    dict: "d".into(),
                    text: b"aaaa".to_vec(),
                }))
                .unwrap()
            })
            .collect();
        let sizes: Vec<u32> = tickets
            .into_iter()
            .map(|t| {
                let r = t.wait();
                assert!(r.result.is_ok());
                r.meta.batch_size
            })
            .collect();
        // All six were queued before any wait, so the first inline batch
        // grabbed max_batch=8-capped all 6.
        assert!(sizes.iter().any(|&s| s >= 2), "sizes = {sizes:?}");
        assert!(e.metrics().batches.get() >= 1);
    }
}
