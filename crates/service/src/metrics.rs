//! Lock-free service metrics: counters and log₂-bucket histograms.
//!
//! Everything here is `AtomicU64`-based so the hot path (worker threads,
//! submission) never takes a lock to record an observation. Histograms
//! bucket by `ceil(log2(value))`, which is coarse but monotone — good
//! enough for p50/p95 reporting without allocation or locking.

use crate::types::{OpKind, NUM_OPS};
use std::sync::atomic::{AtomicU64, Ordering};

/// A monotone lock-free counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket `i` holds values in `(2^(i-1), 2^i]`,
/// bucket 0 holds zero; 64 covers the full `u64` range.
const BUCKETS: usize = 65;

/// Lock-free log₂-bucket histogram with exact count/sum/max.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [(); BUCKETS].map(|()| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            // ceil(log2(value)) + 1, so bucket i covers (2^(i-2), 2^(i-1)].
            (64 - (value - 1).leading_zeros()) as usize + 1
        }
    }

    /// Upper bound of bucket `i` (inclusive).
    fn bucket_upper(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64.checked_shl((i - 1) as u32).unwrap_or(u64::MAX)
        }
    }

    /// Record one observation.
    pub fn record(&self, value: u64) {
        let b = Self::bucket_of(value).min(BUCKETS - 1);
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact mean (0 when empty) — [`HistogramSnapshot::mean`] of the
    /// current state.
    #[must_use]
    pub fn mean(&self) -> u64 {
        self.snapshot().mean()
    }

    /// Exact maximum observed value.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Bucket-upper-bound estimate of quantile `q` in `[0, 1]` —
    /// [`HistogramSnapshot::quantile`] of the current state, so a live
    /// report and a merged `stats` report share one estimator.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }

    /// A point-in-time, mergeable copy.
    ///
    /// Counters are read individually with relaxed ordering, so a snapshot
    /// taken while observations race may be momentarily inconsistent
    /// (e.g. `count` a hair behind the bucket sum); quiescent snapshots
    /// are exact.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then_some((i as u8, c))
            })
            .collect();
        HistogramSnapshot {
            buckets,
            count: self.count(),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max(),
        }
    }
}

/// A point-in-time copy of one [`Histogram`], mergeable across processes.
///
/// Buckets are stored sparsely as `(bucket index, count)` pairs in
/// ascending index order — the form the `stats` wire op ships, sized by
/// occupancy rather than the full 65-bucket array. Merging histograms
/// from different backends is exact: log₂ buckets align by construction,
/// so a cluster-wide quantile degrades no further than a single node's.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Non-empty `(bucket, count)` pairs, ascending by bucket.
    pub buckets: Vec<(u8, u64)>,
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Maximum observation.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Fold `other` into `self` (exact on counts/sums, max of maxes).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        let mut merged: Vec<(u8, u64)> = Vec::with_capacity(self.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        while let (Some(&&(ia, ca)), Some(&&(ib, cb))) = (a.peek(), b.peek()) {
            match ia.cmp(&ib) {
                std::cmp::Ordering::Less => {
                    merged.push((ia, ca));
                    a.next();
                }
                std::cmp::Ordering::Greater => {
                    merged.push((ib, cb));
                    b.next();
                }
                std::cmp::Ordering::Equal => {
                    merged.push((ia, ca + cb));
                    a.next();
                    b.next();
                }
            }
        }
        merged.extend(a.copied());
        merged.extend(b.copied());
        self.buckets = merged;
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Exact mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Bucket-upper-bound estimate of quantile `q` in `[0, 1]`: the upper
    /// edge of the bucket holding the rank-`⌈q·count⌉` observation, capped
    /// by the exact maximum.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(i, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return Histogram::bucket_upper(i as usize).min(self.max);
            }
        }
        self.max
    }
}

/// Per-operation counters and distributions.
#[derive(Debug, Default)]
pub struct OpStats {
    /// Successful completions.
    pub count: Counter,
    /// Failed completions (errors surfaced to the caller).
    pub errors: Counter,
    /// End-to-end latency (submission → response), microseconds.
    pub latency_us: Histogram,
    /// Ledger work attributed to the request.
    pub work: Histogram,
    /// Ledger depth attributed to the request.
    pub depth: Histogram,
}

/// All service metrics; shared via `Arc` between registry, engine, server.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests accepted into the queue.
    pub submitted: Counter,
    /// Requests that produced a response (success or error).
    pub completed: Counter,
    /// Requests rejected at submission because the queue was full.
    pub rejected_overloaded: Counter,
    /// Requests whose deadline expired before execution.
    pub deadline_expired: Counter,
    /// Dictionary publishes (including republish of identical content).
    pub publishes: Counter,
    /// Publishes served from the preprocessing cache.
    pub cache_hits: Counter,
    /// Publishes that had to build a matcher.
    pub cache_misses: Counter,
    /// Batches executed by workers.
    pub batches: Counter,
    /// Requests executed through batches (sum of batch sizes).
    pub batched_requests: Counter,
    /// Requests served on the sequential small-request fallback lane.
    pub seq_fallback: Counter,
    /// Compress requests routed through the chunked streaming pipeline.
    pub stream_lane: Counter,
    /// Container-grep requests served on the compressed-domain search lane.
    pub grep_lane: Counter,
    /// Compressed-size ÷ raw-size per Compress request, in percent (a 40
    /// means the payload shrank to 40% of the input).
    pub compress_ratio_pct: Histogram,
    /// Dictionaries retired (removed from the registry).
    pub retires: Counter,
    /// Records replayed from the durable store at boot (snapshot entries
    /// plus WAL records applied).
    pub store_replayed: Counter,
    /// Bytes dropped from a torn WAL tail at boot (0 on a clean boot).
    pub store_torn_dropped: Counter,
    /// Snapshot age at boot: WAL records that had accumulated on top of
    /// the last compacted snapshot.
    pub store_snapshot_age: Counter,
    /// Per-operation stats, indexed by [`OpKind`].
    pub per_op: [OpStats; NUM_OPS],
}

impl Metrics {
    /// Stats slot for one operation family.
    #[must_use]
    pub fn op(&self, kind: OpKind) -> &OpStats {
        &self.per_op[kind as usize]
    }

    /// Verify the cross-counter accounting identities that hold on any
    /// correctly-behaving engine, returning the first violated identity.
    ///
    /// With `quiescent = false` only the always-true inequalities are
    /// checked (safe to call while requests are in flight). With
    /// `quiescent = true` — no submissions racing and every ticket
    /// answered — the exact identities must hold too: every accepted
    /// request produced exactly one response and exactly one per-op
    /// observation. This is the contract the chaos harness leans on:
    /// hostile frames may be rejected before submission, but nothing that
    /// was *accepted* may vanish from the books.
    ///
    /// # Errors
    /// A human-readable description of the first violated identity.
    pub fn check_accounting(&self, quiescent: bool) -> Result<(), String> {
        self.snapshot().check_accounting(quiescent)?;
        // Depth histograms are node-local (not in the snapshot), so their
        // sample count is the one identity only the live books can check.
        for kind in OpKind::all() {
            let s = self.op(kind);
            let outcomes = s.count.get() + s.errors.get();
            if s.depth.count() != outcomes {
                return Err(format!(
                    "{}: depth samples {} != outcomes {outcomes}",
                    kind.name(),
                    s.depth.count()
                ));
            }
        }
        Ok(())
    }

    /// A point-in-time, wire-shippable copy of every counter plus the
    /// per-op latency/work histograms — what the `stats` wire op returns
    /// so a cluster router can aggregate backend books without parsing
    /// report text. Depth histograms stay node-local: they describe one
    /// PRAM's schedule and do not merge meaningfully across machines.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            submitted: self.submitted.get(),
            completed: self.completed.get(),
            rejected_overloaded: self.rejected_overloaded.get(),
            deadline_expired: self.deadline_expired.get(),
            publishes: self.publishes.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            batches: self.batches.get(),
            batched_requests: self.batched_requests.get(),
            seq_fallback: self.seq_fallback.get(),
            stream_lane: self.stream_lane.get(),
            grep_lane: self.grep_lane.get(),
            retires: self.retires.get(),
            store_replayed: self.store_replayed.get(),
            store_torn_dropped: self.store_torn_dropped.get(),
            store_snapshot_age: self.store_snapshot_age.get(),
            per_op: OpKind::all()
                .iter()
                .map(|&k| {
                    let s = self.op(k);
                    OpSnapshot {
                        count: s.count.get(),
                        errors: s.errors.get(),
                        latency_us: s.latency_us.snapshot(),
                        work: s.work.snapshot(),
                    }
                })
                .collect(),
        }
    }

    /// Plain-text report of every counter and per-op distribution.
    #[must_use]
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = self.snapshot().report_head("pardict-service metrics");
        let batches = self.batches.get();
        let batched = self.batched_requests.get();
        let mean_batch = batched.checked_div(batches).unwrap_or(0);
        let _ = writeln!(
            out,
            "batching:  batches {}  batched-requests {}  mean-batch {}  seq-fallback {}  stream-lane {}  grep-lane {}",
            batches,
            batched,
            mean_batch,
            self.seq_fallback.get(),
            self.stream_lane.get(),
            self.grep_lane.get(),
        );
        let r = &self.compress_ratio_pct;
        let _ = writeln!(
            out,
            "compress:  ratio%-p50 {}  ratio%-p95 {}  ratio%-mean {}  ratio%-max {}  samples {}",
            r.quantile(0.50),
            r.quantile(0.95),
            r.mean(),
            r.max(),
            r.count(),
        );
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>7} | {:>9} {:>9} {:>9} | {:>12} {:>9}",
            "op", "count", "errors", "lat-p50us", "lat-p95us", "lat-max", "work-mean", "depth-p95",
        );
        for kind in OpKind::all() {
            let s = self.op(kind);
            let _ = writeln!(
                out,
                "{:<10} {:>8} {:>7} | {:>9} {:>9} {:>9} | {:>12} {:>9}",
                kind.name(),
                s.count.get(),
                s.errors.get(),
                s.latency_us.quantile(0.50),
                s.latency_us.quantile(0.95),
                s.latency_us.max(),
                s.work.mean(),
                s.depth.quantile(0.95),
            );
        }
        out
    }
}

/// Name of the `i`-th [`MetricsSnapshot::per_op`] slot ([`OpKind::all`]
/// order; a snapshot from a newer peer may carry slots this build lacks).
fn op_name(i: usize) -> &'static str {
    OpKind::all().get(i).map_or("op?", |k| k.name())
}

/// One operation family's slice of a [`MetricsSnapshot`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpSnapshot {
    /// Successful completions.
    pub count: u64,
    /// Failed completions.
    pub errors: u64,
    /// End-to-end latency distribution, microseconds.
    pub latency_us: HistogramSnapshot,
    /// Ledger work distribution.
    pub work: HistogramSnapshot,
}

impl OpSnapshot {
    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &OpSnapshot) {
        self.count += other.count;
        self.errors += other.errors;
        self.latency_us.merge(&other.latency_us);
        self.work.merge(&other.work);
    }
}

/// A point-in-time copy of a node's [`Metrics`], shippable over the wire
/// and mergeable into cluster-wide aggregates (see [`Metrics::snapshot`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests that produced a response.
    pub completed: u64,
    /// Requests rejected because the queue was full.
    pub rejected_overloaded: u64,
    /// Requests whose deadline expired before execution.
    pub deadline_expired: u64,
    /// Dictionary publishes.
    pub publishes: u64,
    /// Publishes served from the preprocessing cache.
    pub cache_hits: u64,
    /// Publishes that built a matcher.
    pub cache_misses: u64,
    /// Batches executed.
    pub batches: u64,
    /// Requests executed through batches.
    pub batched_requests: u64,
    /// Sequential-fallback-lane requests.
    pub seq_fallback: u64,
    /// Streaming-lane compress requests.
    pub stream_lane: u64,
    /// Container-grep-lane requests.
    pub grep_lane: u64,
    /// Dictionaries retired.
    pub retires: u64,
    /// Records replayed from the durable store at boot.
    pub store_replayed: u64,
    /// Bytes dropped from a torn WAL tail at boot.
    pub store_torn_dropped: u64,
    /// WAL records that sat on top of the last snapshot at boot.
    pub store_snapshot_age: u64,
    /// Per-operation stats in [`OpKind::all`] order.
    pub per_op: Vec<OpSnapshot>,
}

impl MetricsSnapshot {
    /// Fold `other` into `self`: counters add, histograms merge
    /// bucket-wise. Ragged `per_op` lengths extend to the longer side.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.rejected_overloaded += other.rejected_overloaded;
        self.deadline_expired += other.deadline_expired;
        self.publishes += other.publishes;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.batches += other.batches;
        self.batched_requests += other.batched_requests;
        self.seq_fallback += other.seq_fallback;
        self.stream_lane += other.stream_lane;
        self.grep_lane += other.grep_lane;
        self.retires += other.retires;
        self.store_replayed += other.store_replayed;
        self.store_torn_dropped += other.store_torn_dropped;
        self.store_snapshot_age += other.store_snapshot_age;
        if self.per_op.len() < other.per_op.len() {
            self.per_op
                .resize(other.per_op.len(), OpSnapshot::default());
        }
        for (mine, theirs) in self.per_op.iter_mut().zip(&other.per_op) {
            mine.merge(theirs);
        }
    }

    /// The accounting identities ([`Metrics::check_accounting`] states
    /// when each must hold), checked on a snapshot. Every identity is a linear
    /// equation or an inequality between summed counters, so snapshots
    /// that each pass also pass after [`MetricsSnapshot::merge`] — the
    /// property the cluster router's aggregate books rely on.
    ///
    /// # Errors
    /// A human-readable description of the first violated identity.
    pub fn check_accounting(&self, quiescent: bool) -> Result<(), String> {
        if self.completed > self.submitted {
            return Err(format!(
                "completed {} exceeds submitted {}",
                self.completed, self.submitted
            ));
        }
        let mut per_op_total = 0u64;
        for (i, s) in self.per_op.iter().enumerate() {
            let op = op_name(i);
            let outcomes = s.count + s.errors;
            per_op_total += outcomes;
            for (name, h) in [("latency", &s.latency_us), ("work", &s.work)] {
                if h.count != outcomes {
                    return Err(format!(
                        "{op}: {name} samples {} != outcomes {outcomes}",
                        h.count
                    ));
                }
                let bucketed: u64 = h.buckets.iter().map(|&(_, c)| c).sum();
                if bucketed != h.count {
                    return Err(format!(
                        "{op}: {name} buckets hold {bucketed} of {} samples",
                        h.count
                    ));
                }
            }
        }
        if per_op_total != self.completed {
            return Err(format!(
                "per-op outcomes {per_op_total} != completed {}",
                self.completed
            ));
        }
        let cached = self.cache_hits + self.cache_misses;
        if cached != self.publishes {
            return Err(format!(
                "cache hits+misses {cached} != publishes {}",
                self.publishes
            ));
        }
        if self.batched_requests < self.batches {
            return Err(format!(
                "batched-requests {} below batches {} (empty batch?)",
                self.batched_requests, self.batches
            ));
        }
        if self.deadline_expired > self.completed {
            return Err(format!(
                "deadline-expired {} exceeds completed {}",
                self.deadline_expired, self.completed
            ));
        }
        if quiescent && self.submitted != self.completed {
            return Err(format!(
                "quiescent but submitted {} != completed {}",
                self.submitted, self.completed
            ));
        }
        Ok(())
    }

    /// The title and the request / registry / storage lines that open
    /// both this report and the live [`Metrics::report`].
    fn report_head(&self, title: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "== {title} ==");
        let _ = writeln!(
            out,
            "requests:  submitted {}  completed {}  overloaded {}  deadline-expired {}",
            self.submitted, self.completed, self.rejected_overloaded, self.deadline_expired,
        );
        let _ = writeln!(
            out,
            "registry:  publishes {}  cache-hits {}  cache-misses {}  retires {}",
            self.publishes, self.cache_hits, self.cache_misses, self.retires,
        );
        let _ = writeln!(
            out,
            "storage:   replayed {}  torn-dropped-bytes {}  snapshot-age {}",
            self.store_replayed, self.store_torn_dropped, self.store_snapshot_age,
        );
        out
    }

    /// Plain-text rendering in the same shape as [`Metrics::report`],
    /// headed by `title`.
    #[must_use]
    pub fn report(&self, title: &str) -> String {
        use std::fmt::Write as _;
        let mut out = self.report_head(title);
        let _ = writeln!(
            out,
            "batching:  batches {}  batched-requests {}  seq-fallback {}  stream-lane {}  grep-lane {}",
            self.batches, self.batched_requests, self.seq_fallback, self.stream_lane, self.grep_lane,
        );
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>7} | {:>9} {:>9} {:>9} | {:>12}",
            "op", "count", "errors", "lat-p50us", "lat-p95us", "lat-max", "work-mean",
        );
        for (i, s) in self.per_op.iter().enumerate() {
            let _ = writeln!(
                out,
                "{:<10} {:>8} {:>7} | {:>9} {:>9} {:>9} | {:>12}",
                op_name(i),
                s.count,
                s.errors,
                s.latency_us.quantile(0.50),
                s.latency_us.quantile(0.95),
                s.latency_us.max,
                s.work.mean(),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn histogram_buckets_are_monotone() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 3);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(5), 4);
        for v in 1..4096u64 {
            assert!(Histogram::bucket_of(v) >= Histogram::bucket_of(v - 1));
            assert!(v <= Histogram::bucket_upper(Histogram::bucket_of(v)));
        }
    }

    #[test]
    fn histogram_quantiles_bound_observations() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.mean(), 500);
        let p50 = h.quantile(0.5);
        // Bucket upper bound for 500 is 512.
        assert!((500..=512).contains(&p50), "p50 = {p50}");
        assert_eq!(h.quantile(1.0), 1000);
        assert!(h.quantile(0.95) >= 950 / 2);
    }

    #[test]
    fn report_mentions_every_op() {
        let m = Metrics::default();
        m.op(OpKind::Match).count.inc();
        m.op(OpKind::Match).latency_us.record(123);
        let r = m.report();
        for kind in OpKind::all() {
            assert!(r.contains(kind.name()), "missing {} in:\n{r}", kind.name());
        }
    }

    #[test]
    fn accounting_identities_hold_and_violations_surface() {
        let m = Metrics::default();
        assert!(m.check_accounting(true).is_ok());
        // One clean completed match.
        m.submitted.inc();
        m.completed.inc();
        let s = m.op(OpKind::Match);
        s.count.inc();
        s.latency_us.record(10);
        s.work.record(100);
        s.depth.record(5);
        assert!(m.check_accounting(true).is_ok());
        // A submission still in flight: fine lenient, flagged quiescent.
        m.submitted.inc();
        assert!(m.check_accounting(false).is_ok());
        assert!(m.check_accounting(true).is_err());
        // A completion that skipped its per-op books is always an error.
        m.completed.inc();
        assert!(m.check_accounting(false).is_err());
    }

    #[test]
    fn histogram_snapshot_matches_live_and_merges_exactly() {
        let (a, b, both) = (
            Histogram::default(),
            Histogram::default(),
            Histogram::default(),
        );
        for v in [0u64, 1, 5, 900, 17] {
            a.record(v);
            both.record(v);
        }
        for v in [3u64, 5, 1 << 40] {
            b.record(v);
            both.record(v);
        }
        let sa = a.snapshot();
        assert_eq!(sa.count, a.count());
        assert_eq!(sa.max, a.max());
        assert_eq!(sa.mean(), a.mean());
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(sa.quantile(q), a.quantile(q), "q={q}");
        }
        let mut merged = sa;
        merged.merge(&b.snapshot());
        assert_eq!(merged, both.snapshot(), "merge must equal combined stream");
    }

    #[test]
    fn metrics_snapshot_merges_and_reports() {
        let m = Metrics::default();
        m.submitted.add(3);
        m.completed.add(3);
        m.op(OpKind::Grep).count.add(2);
        m.op(OpKind::Grep).latency_us.record(40);
        let mut total = m.snapshot();
        total.merge(&m.snapshot());
        assert_eq!(total.submitted, 6);
        assert_eq!(total.per_op[OpKind::Grep as usize].count, 4);
        assert_eq!(total.per_op[OpKind::Grep as usize].latency_us.count, 2);
        let r = total.report("merged backends");
        assert!(r.contains("merged backends"), "{r}");
        assert!(r.contains("grep"), "{r}");
    }

    #[test]
    fn compression_ratio_histogram_reaches_the_report() {
        let m = Metrics::default();
        m.compress_ratio_pct.record(38); // 38% of raw size
        m.compress_ratio_pct.record(90);
        assert_eq!(m.compress_ratio_pct.count(), 2);
        assert_eq!(m.compress_ratio_pct.mean(), 64);
        assert_eq!(m.compress_ratio_pct.max(), 90);
        let r = m.report();
        assert!(r.contains("ratio%"), "missing ratio line in:\n{r}");
        assert!(r.contains("samples 2"), "missing sample count in:\n{r}");
    }
}
