#![warn(missing_docs)]

//! # pardict-trace — ledger-correlated structured tracing
//!
//! The paper's cost model is the CRCW-PRAM work/depth ledger, and the
//! workspace meters it exactly ([`pardict_pram::Ledger`]) — but until now
//! that signal died at crate boundaries: the service and cluster metrics
//! only expose flat counters and histograms, so "where did this one slow
//! `grepz` spend its time across router → shard → block waves?" had no
//! answer. This crate makes the ledger observable *per request*:
//!
//! * **Spans** — [`SpanRecord`]: a named interval in a monotonic clock with
//!   a [`TraceId`], a [`SpanId`], a parent link, an optional execution-lane
//!   label, and the PRAM [`Cost`] the span accounts for.
//! * **Collection** — a bounded queue (a `Vec` behind a mutex; the load
//!   is a few spans per request) that never waits for a consumer: when
//!   full, spans are dropped and counted.
//! * **Sampling** — deterministic seeded head-sampling: a trace is kept iff
//!   `mix(trace_id ^ seed) % sample_one_in == 0`, decided once at the root
//!   and propagated, so a sampled request is traced on *every* hop.
//! * **Determinism** — with [`TraceConfig::deterministic`] the clock is a
//!   logical tick counter and all ids derive from the seed, so a seeded
//!   single-threaded run exports byte-identical JSONL every time (the same
//!   discipline as the chaos report and cluster selftest).
//! * **Export** — canonical JSONL ([`export`]) plus a parser and a text
//!   viewer ([`view`]) used by `pardict trace <file>`.
//!
//! Instrumented code never takes a hard dependency on a tracer being
//! present: every site holds one [`Span`] type, which is inert (never
//! reads the clock, records nothing) for an untraced request. The engine
//! threads an `Option<Arc<Tracer>>`, and leaf stages (stream/search waves,
//! store recovery) use the *ambient scope* ([`with_scope`] /
//! [`scoped_span`]) which yields an inert span unless an enclosing caller
//! installed a tracer on the current thread.

pub mod export;
pub mod view;

use pardict_pram::{Cost, Fnv1a, SplitMix64};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Identifies one end-to-end request across every hop it touches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// Identifies one span within a trace. `SpanId(0)` is reserved for "no
/// span" (the parent of a root span).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// The propagatable part of a trace: which trace, and which span new work
/// should hang under. `Copy` so it can ride in requests and wire frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCtx {
    /// The trace this context belongs to.
    pub trace: TraceId,
    /// The span a child started from this context will nest under.
    pub parent: SpanId,
}

/// One finished span. `start`/`end` are monotonic clock readings (logical
/// ticks in deterministic mode, microseconds since tracer creation
/// otherwise); `cost` is the PRAM work/depth the span accounts for,
/// inclusive of its children.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace: TraceId,
    /// This span's id.
    pub span: SpanId,
    /// Parent span id; `SpanId(0)` for roots.
    pub parent: SpanId,
    /// Stage name (static, from the instrumentation site).
    pub name: &'static str,
    /// Execution lane label, if the stage has one (service lanes).
    pub lane: Option<&'static str>,
    /// Site-chosen disambiguator: wave index, shard, attempt number.
    pub index: u64,
    /// Start reading of the tracer clock.
    pub start: u64,
    /// End reading of the tracer clock.
    pub end: u64,
    /// PRAM cost attributed to this span (inclusive of children).
    pub cost: Cost,
}

/// Tracer configuration.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Head-sampling rate: keep one trace in this many. `0` and `1` both
    /// mean "keep every trace".
    pub sample_one_in: u32,
    /// Seed for trace-id derivation and the sampling decision. Two runs
    /// with the same seed sample the same requests.
    pub seed: u64,
    /// Span-queue capacity (rounded up to a power of two, at least 2).
    /// Spans beyond it are dropped and counted until the next drain.
    pub capacity: usize,
    /// Use a logical tick clock instead of wall micros, making seeded
    /// single-threaded runs byte-identical.
    pub deterministic: bool,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            sample_one_in: 1,
            seed: 0,
            capacity: 1 << 14,
            deterministic: false,
        }
    }
}

/// The tracing runtime: clock, sampler, and span queue. Shared as an
/// `Arc` between every instrumented component of one process.
pub struct Tracer {
    cfg: TraceConfig,
    spans: Mutex<Vec<SpanRecord>>,
    capacity: usize,
    dropped: AtomicU64,
    seq: AtomicU64,
    ticks: AtomicU64,
    epoch: Instant,
}

/// One SplitMix64 step from `z` — the workspace's standard bit mixer.
#[must_use]
pub fn mix(z: u64) -> u64 {
    SplitMix64::new(z).next_u64()
}

/// Deterministic span-id derivation: same (trace, parent, name, index)
/// always yields the same id, so two runs of a seeded workload produce
/// identical trees.
fn derive_span(ctx: TraceCtx, name: &'static str, index: u64) -> SpanId {
    let h = mix(ctx.trace.0
        ^ ctx.parent.0.rotate_left(29)
        ^ Fnv1a::default().eat(name.as_bytes()).finish()
        ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    SpanId(if h == 0 { 1 } else { h })
}

impl Tracer {
    /// Build a tracer behind an `Arc`, ready to share across threads.
    #[must_use]
    pub fn new(cfg: TraceConfig) -> Arc<Self> {
        Arc::new(Self {
            spans: Mutex::new(Vec::new()),
            capacity: cfg.capacity.next_power_of_two().max(2),
            dropped: AtomicU64::new(0),
            cfg,
            seq: AtomicU64::new(0),
            ticks: AtomicU64::new(0),
            epoch: Instant::now(),
        })
    }

    /// The configuration this tracer was built with.
    #[must_use]
    pub fn config(&self) -> &TraceConfig {
        &self.cfg
    }

    /// Current clock reading: a fresh logical tick in deterministic mode,
    /// microseconds since tracer creation otherwise.
    #[must_use]
    pub fn now(&self) -> u64 {
        if self.cfg.deterministic {
            self.ticks.fetch_add(1, Ordering::Relaxed) + 1
        } else {
            u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
        }
    }

    /// Allocate a new trace id and apply the head-sampling decision.
    /// `None` means the trace is not sampled — callers propagate the
    /// `None` and no span anywhere records anything for this request.
    #[must_use]
    pub fn begin_trace(&self) -> Option<TraceCtx> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let trace = mix(self.cfg.seed ^ mix(seq.wrapping_add(1)));
        let trace = if trace == 0 { 1 } else { trace };
        let sampled = self.cfg.sample_one_in <= 1
            || mix(trace ^ self.cfg.seed).is_multiple_of(u64::from(self.cfg.sample_one_in));
        sampled.then_some(TraceCtx {
            trace: TraceId(trace),
            parent: SpanId(0),
        })
    }

    /// Start a span under `ctx`, stamping its start time now.
    pub fn start(self: &Arc<Self>, ctx: TraceCtx, name: &'static str, index: u64) -> Span {
        let now = self.now();
        self.start_at(ctx, name, index, now)
    }

    /// Start a span whose start time was captured earlier (e.g. at queue
    /// admission) than the span could be constructed.
    pub fn start_at(
        self: &Arc<Self>,
        ctx: TraceCtx,
        name: &'static str,
        index: u64,
        start: u64,
    ) -> Span {
        let rec = SpanRecord {
            trace: ctx.trace,
            span: derive_span(ctx, name, index),
            parent: ctx.parent,
            name,
            lane: None,
            index,
            start,
            end: start,
            cost: Cost::default(),
        };
        Span {
            inner: Some((Arc::clone(self), rec)),
        }
    }

    /// Queue a finished span. Never waits: a full queue drops the span
    /// and bumps the drop counter, and a poisoned lock is still usable
    /// (a `Vec` push cannot leave it half-written).
    fn record(&self, rec: SpanRecord) {
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        if spans.len() < self.capacity {
            spans.push(rec);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Take every queued span, in the order they finished
    /// ([`export::export_jsonl`] sorts canonically).
    #[must_use]
    pub fn drain(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut *self.spans.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// How many spans were dropped because the queue was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// An in-flight span, or an inert one when its request is untraced.
/// Finishing (or dropping) a live span stamps the end time and records
/// it; an inert span never reads the clock and records nothing.
#[derive(Default)]
pub struct Span {
    inner: Option<(Arc<Tracer>, SpanRecord)>,
}

impl Span {
    /// The tracer and the context children nest under, if live.
    fn live(&self) -> Option<(&Arc<Tracer>, TraceCtx)> {
        self.inner.as_ref().map(|(tracer, rec)| {
            let ctx = TraceCtx {
                trace: rec.trace,
                parent: rec.span,
            };
            (tracer, ctx)
        })
    }

    /// Context for children of this span; `None` when inert.
    #[must_use]
    pub fn ctx(&self) -> Option<TraceCtx> {
        self.live().map(|(_, ctx)| ctx)
    }

    /// This span's id; `SpanId(0)` when inert.
    #[must_use]
    pub fn id(&self) -> SpanId {
        self.inner.as_ref().map_or(SpanId(0), |(_, rec)| rec.span)
    }

    /// A child of this span on the same tracer, started now; inert when
    /// this span is.
    #[must_use]
    pub fn child(&self, name: &'static str, index: u64) -> Span {
        self.live().map_or_else(Span::default, |(tracer, ctx)| {
            tracer.start(ctx, name, index)
        })
    }

    /// Run `f` with this span installed as the ambient scope (see
    /// [`with_scope`]), so [`scoped_span`]s inside `f` nest under it; an
    /// inert span just runs `f`.
    pub fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        match self.live() {
            Some((tracer, ctx)) => with_scope(tracer, ctx, f),
            None => f(),
        }
    }

    /// Label the execution lane this span ran on.
    pub fn set_lane(&mut self, lane: &'static str) {
        if let Some((_, rec)) = self.inner.as_mut() {
            rec.lane = Some(lane);
        }
    }

    /// Finish with an attributed PRAM cost.
    pub fn finish(mut self, cost: Cost) {
        if let Some((_, rec)) = self.inner.as_mut() {
            rec.cost = cost;
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((tracer, mut rec)) = self.inner.take() {
            rec.end = tracer.now();
            tracer.record(rec);
        }
    }
}

// ---------------------------------------------------------------------------
// Ambient scope: lets leaf stages (stream/search waves, store recovery)
// emit spans without threading a tracer through their signatures.
// ---------------------------------------------------------------------------

thread_local! {
    static SCOPE: RefCell<Vec<(Arc<Tracer>, TraceCtx)>> = const { RefCell::new(Vec::new()) };
}

struct ScopePop;

impl Drop for ScopePop {
    fn drop(&mut self) {
        SCOPE.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Run `f` with `(tracer, ctx)` installed as the current thread's ambient
/// trace scope; [`scoped_span`] calls inside `f` (on this thread) nest
/// under `ctx`. Scopes stack and unwind correctly on panic.
pub fn with_scope<R>(tracer: &Arc<Tracer>, ctx: TraceCtx, f: impl FnOnce() -> R) -> R {
    SCOPE.with(|s| s.borrow_mut().push((Arc::clone(tracer), ctx)));
    let _pop = ScopePop;
    f()
}

/// Start a span under the current thread's ambient scope — inert when no
/// scope is installed on the current thread.
#[must_use]
pub fn scoped_span(name: &'static str, index: u64) -> Span {
    SCOPE.with(|s| {
        s.borrow()
            .last()
            .map_or_else(Span::default, |(tracer, ctx)| {
                tracer.start(*ctx, name, index)
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(sample_one_in: u32, seed: u64) -> Arc<Tracer> {
        Tracer::new(TraceConfig {
            sample_one_in,
            seed,
            capacity: 1 << 10,
            deterministic: true,
        })
    }

    #[test]
    fn sampling_is_deterministic_and_roughly_proportional() {
        let a = det(4, 42);
        let b = det(4, 42);
        let kept_a: Vec<bool> = (0..256).map(|_| a.begin_trace().is_some()).collect();
        let kept_b: Vec<bool> = (0..256).map(|_| b.begin_trace().is_some()).collect();
        assert_eq!(kept_a, kept_b, "same seed, same sampling decisions");
        let kept = kept_a.iter().filter(|k| **k).count();
        assert!((16..=112).contains(&kept), "1-in-4 of 256 kept {kept}");
        // sample_one_in 0 and 1 both keep everything.
        assert!(det(0, 7).begin_trace().is_some());
        assert!(det(1, 7).begin_trace().is_some());
    }

    #[test]
    fn span_ids_derive_deterministically() {
        let t = det(1, 9);
        let ctx = t.begin_trace().unwrap();
        let a = t.start(ctx, "work", 3);
        let b = t.start(ctx, "work", 3);
        assert_eq!(a.id(), b.id());
        let c = t.start(ctx, "work", 4);
        assert_ne!(a.id(), c.id());
        let d = t.start(ctx, "other", 3);
        assert_ne!(a.id(), d.id());
    }

    fn rec(i: u64) -> SpanRecord {
        SpanRecord {
            trace: TraceId(1),
            span: SpanId(i + 1),
            parent: SpanId(0),
            name: "t",
            lane: None,
            index: i,
            start: i,
            end: i + 1,
            cost: Cost::default(),
        }
    }

    fn queue(capacity: usize) -> Arc<Tracer> {
        Tracer::new(TraceConfig {
            capacity,
            ..TraceConfig::default()
        })
    }

    #[test]
    fn fifo_within_capacity() {
        let t = queue(8);
        for i in 0..8 {
            t.record(rec(i));
        }
        let drained = t.drain();
        assert_eq!(drained.len(), 8);
        assert!(drained.iter().enumerate().all(|(i, r)| r.index == i as u64));
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn overflow_drops_and_counts_without_blocking() {
        let t = queue(4);
        for i in 0..10 {
            t.record(rec(i));
        }
        assert_eq!(t.dropped(), 6);
        assert_eq!(t.drain().len(), 4);
        // Space reclaimed after drain.
        t.record(rec(99));
        assert_eq!(t.drain().len(), 1);
        assert_eq!(t.dropped(), 6);
    }

    #[test]
    fn concurrent_producers_lose_nothing_when_sized() {
        let t = queue(1 << 12);
        std::thread::scope(|s| {
            for k in 0..8u64 {
                let t = &t;
                s.spawn(move || {
                    for i in 0..256 {
                        t.record(rec(k * 1000 + i));
                    }
                });
            }
        });
        let mut seen: Vec<u64> = t.drain().iter().map(|r| r.index).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 8 * 256);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn span_records_on_finish_and_on_drop() {
        let t = det(1, 1);
        let ctx = t.begin_trace().unwrap();
        let mut g = t.start(ctx, "a", 0);
        g.set_lane("batched");
        g.finish(Cost { work: 5, depth: 2 });
        {
            let _g2 = t.start(ctx, "b", 0);
        } // drop path
        let mut spans = t.drain();
        spans.sort_by_key(|s| s.start);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "a");
        assert_eq!(spans[0].lane, Some("batched"));
        assert_eq!(spans[0].cost, Cost { work: 5, depth: 2 });
        assert_eq!(spans[1].name, "b");
        assert_eq!(spans[1].cost, Cost::default());
        assert!(spans.iter().all(|s| s.end >= s.start));
    }

    #[test]
    fn ambient_scope_nests_and_is_noop_without_install() {
        assert_eq!(scoped_span("wave", 0).ctx(), None);
        let t = det(1, 3);
        let ctx = t.begin_trace().unwrap();
        with_scope(&t, ctx, || {
            let s = scoped_span("wave", 7);
            assert_eq!(s.ctx().map(|c| c.trace), Some(ctx.trace));
            s.finish(Cost { work: 9, depth: 1 });
        });
        assert_eq!(scoped_span("wave", 1).ctx(), None, "scope popped");
        let spans = t.drain();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].parent, ctx.parent);
        assert_eq!(spans[0].trace, ctx.trace);
        assert_eq!(spans[0].index, 7);
    }

    #[test]
    fn deterministic_clock_ticks_monotonically() {
        let t = det(1, 0);
        let a = t.now();
        let b = t.now();
        let c = t.now();
        assert!(a < b && b < c);
        assert_eq!(a, 1);
    }
}
