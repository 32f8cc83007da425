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
//! * **Collection** — a lock-free bounded ring ([`collector::Collector`],
//!   Vyukov MPMC) that never blocks the hot path: when full, spans are
//!   dropped and counted, not waited on.
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
//! present: the engine threads an `Option<Arc<Tracer>>`, and leaf stages
//! (stream/search waves, store recovery) use the *ambient scope*
//! ([`with_scope`] / [`scoped_span`]) which is a no-op unless an enclosing
//! caller installed a tracer on the current thread.

pub mod collector;
pub mod export;
pub mod view;

use collector::Collector;
use pardict_pram::{Cost, Fnv1a, SplitMix64};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
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
    /// Ring-buffer capacity (rounded up to a power of two). Spans beyond
    /// this are dropped and counted, never blocked on.
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

/// The tracing runtime: clock, sampler, and span collector. Shared as an
/// `Arc` between every instrumented component of one process.
pub struct Tracer {
    cfg: TraceConfig,
    ring: Collector,
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
            ring: Collector::new(cfg.capacity),
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
    pub fn start(&self, ctx: TraceCtx, name: &'static str, index: u64) -> SpanGuard<'_> {
        let now = self.now();
        self.start_at(ctx, name, index, now)
    }

    /// Start a span whose start time was captured earlier (e.g. at queue
    /// admission) than the guard could be constructed.
    pub fn start_at(
        &self,
        ctx: TraceCtx,
        name: &'static str,
        index: u64,
        start: u64,
    ) -> SpanGuard<'_> {
        let span = derive_span(ctx, name, index);
        SpanGuard {
            tracer: self,
            rec: Some(SpanRecord {
                trace: ctx.trace,
                span,
                parent: ctx.parent,
                name,
                lane: None,
                index,
                start,
                end: start,
                cost: Cost::default(),
            }),
        }
    }

    /// Push a finished span into the collector. Never blocks: a full ring
    /// drops the span and bumps the drop counter.
    pub fn record(&self, rec: SpanRecord) {
        self.ring.push(rec);
    }

    /// Drain every collected span (unordered; [`export::export_jsonl`]
    /// sorts canonically).
    #[must_use]
    pub fn drain(&self) -> Vec<SpanRecord> {
        self.ring.drain()
    }

    /// How many spans were dropped because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }
}

/// An in-flight span. Finishing (or dropping) the guard stamps the end
/// time and records the span; [`SpanGuard::ctx`] is the context children
/// nest under.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    rec: Option<SpanRecord>,
}

impl SpanGuard<'_> {
    /// Context for children of this span.
    #[must_use]
    pub fn ctx(&self) -> TraceCtx {
        let rec = self.rec.as_ref().expect("span not yet finished");
        TraceCtx {
            trace: rec.trace,
            parent: rec.span,
        }
    }

    /// This span's id.
    #[must_use]
    pub fn id(&self) -> SpanId {
        self.rec.as_ref().expect("span not yet finished").span
    }

    /// Label the execution lane this span ran on.
    pub fn set_lane(&mut self, lane: &'static str) {
        if let Some(r) = self.rec.as_mut() {
            r.lane = Some(lane);
        }
    }

    /// Finish with an attributed PRAM cost.
    pub fn finish(mut self, cost: Cost) {
        if let Some(mut r) = self.rec.take() {
            r.cost = cost;
            r.end = self.tracer.now();
            self.tracer.record(r);
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(mut r) = self.rec.take() {
            r.end = self.tracer.now();
            self.tracer.record(r);
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

/// A span started from the ambient scope — inert (zero-allocation no-op)
/// when no scope is installed on the current thread.
pub struct ScopedSpan {
    inner: Option<(Arc<Tracer>, SpanRecord)>,
}

/// Start a span under the current thread's ambient scope, if any.
#[must_use]
pub fn scoped_span(name: &'static str, index: u64) -> ScopedSpan {
    let inner = SCOPE
        .with(|s| s.borrow().last().cloned())
        .map(|(tracer, ctx)| {
            let start = tracer.now();
            let span = derive_span(ctx, name, index);
            let rec = SpanRecord {
                trace: ctx.trace,
                span,
                parent: ctx.parent,
                name,
                lane: None,
                index,
                start,
                end: start,
                cost: Cost::default(),
            };
            (tracer, rec)
        });
    ScopedSpan { inner }
}

impl ScopedSpan {
    /// Whether an ambient scope was present (the span will record).
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Finish with an attributed PRAM cost.
    pub fn finish(mut self, cost: Cost) {
        if let Some((tracer, mut rec)) = self.inner.take() {
            rec.cost = cost;
            rec.end = tracer.now();
            tracer.record(rec);
        }
    }
}

impl Drop for ScopedSpan {
    fn drop(&mut self) {
        if let Some((tracer, mut rec)) = self.inner.take() {
            rec.end = tracer.now();
            tracer.record(rec);
        }
    }
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

    #[test]
    fn guard_records_on_finish_and_on_drop() {
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
        assert!(!scoped_span("wave", 0).is_active());
        let t = det(1, 3);
        let ctx = t.begin_trace().unwrap();
        with_scope(&t, ctx, || {
            let s = scoped_span("wave", 7);
            assert!(s.is_active());
            s.finish(Cost { work: 9, depth: 1 });
        });
        assert!(!scoped_span("wave", 1).is_active(), "scope popped");
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
