#![warn(missing_docs)]

//! # pardict-exec — the PRAM super-step executor
//!
//! The paper's cost model is a sequence of *rounds of wide steps*: each
//! super-step runs many independent slots at once and is charged the
//! **sum of slot work** and the **maximum of slot depths** on the CRCW
//! PRAM ledger. Before this crate existed, that discipline was hand-rolled
//! five times across the workspace — five copies of the same scoped-thread
//! fan-out, `Mode::Seq`/`Mode::Par` branch, ledger charge, and trace-span
//! wiring. This crate is the single implementation they all route through:
//!
//! * [`run_waves`] — the three loops that walk a PDZS container, each as
//!   `source → stage → sink`: `stream::compress_stream` (read a wave of
//!   blocks → compress each → frame and write), `StreamReader`'s decode
//!   (`read_all`/`read_range`/`copy_to`) and `search::grep_range`, the
//!   latter two over one fetch (`StreamReader::fetch_wave`) and one decode
//!   stage (`FetchedBlock::decode`), differing only in their sinks.
//! * [`Wave::superstep`] inside a sink — grep's match round.
//! * [`fan_out`] — the cluster router's scatter (I/O-bound, no ledger).
//! * [`with_deadline`] — the service engine, around every request, so the
//!   loops above cancel at their next wave boundary.
//! * [`section`] — the store's recovery and compaction spans.
//!
//! ## Vocabulary
//!
//! * A **slot** is one independent unit of a wave (one block to decode,
//!   one buffer to match). Slots run on private sequential contexts and
//!   return their own [`Cost`] — usually via [`Pram::metered`].
//! * A **super-step** ([`Wave::superstep`]) runs one batch of slots —
//!   concurrently when the orchestrating [`Pram`] is parallel — and
//!   charges the caller's ledger once: Σ work, max depth. Seq and par
//!   orchestration therefore charge *identically*, which is the
//!   workspace-wide mode-independence oracle.
//! * A **wave** ([`Wave`]) is one round of the engine's outer loop: one or
//!   more super-steps plus any serial stitching between them, wrapped in
//!   exactly one ambient trace span (`pardict_trace::scoped_span`) that is
//!   attributed the wave's full ledger delta on [`Wave::finish`].
//!
//! ## Pipelining
//!
//! [`run_waves`] drives a *source → stage → sink* loop. In barrier mode
//! each wave completes before the next is fetched. In pipelined mode the
//! stage super-step of wave *k+1* overlaps the sink of wave *k* (and the
//! source fetch of wave *k+1* overlaps the stage of wave *k*), holding at
//! most one extra wave of stage output resident. Crucially, **all ledger
//! charges happen on the orchestrating thread in the same order as the
//! barrier schedule** (stage *k*, sink *k*, stage *k+1*, …): pipelining
//! changes wall-clock time, never work, depth, or span attribution.
//!
//! ## Deadlines
//!
//! [`with_deadline`] installs an ambient deadline for the current thread;
//! every [`Wave::open`] checks it, so long multi-wave operations notice an
//! expired deadline at the next super-step boundary and abort with
//! [`Cancelled`] instead of computing a result nobody is waiting for.

use pardict_pram::{Cost, Mode, Pram};
use std::cell::Cell;
use std::fmt;
use std::time::Instant;

/// An operation was cancelled at a super-step boundary because the
/// ambient deadline (see [`with_deadline`]) had passed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cancelled at a super-step boundary: deadline exceeded")
    }
}

impl std::error::Error for Cancelled {}

thread_local! {
    static DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Run `f` with `deadline` installed as the current thread's ambient
/// deadline; [`Wave::open`] (and explicit [`check_deadline`] calls) fail
/// with [`Cancelled`] once it has passed. Nests: the previous deadline is
/// restored on exit, including on panic.
pub fn with_deadline<R>(deadline: Option<Instant>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Instant>);
    impl Drop for Restore {
        fn drop(&mut self) {
            DEADLINE.with(|d| d.set(self.0));
        }
    }
    let _restore = Restore(DEADLINE.with(|d| d.replace(deadline)));
    f()
}

/// Check the ambient deadline without opening a wave.
///
/// # Errors
/// [`Cancelled`] when a deadline is installed and has passed.
pub fn check_deadline() -> Result<(), Cancelled> {
    if DEADLINE.with(Cell::get).is_some_and(|d| Instant::now() > d) {
        Err(Cancelled)
    } else {
        Ok(())
    }
}

/// The default number of slots per wave: one per hardware thread, capped
/// at 16 so a wave's resident memory stays bounded on wide machines.
#[must_use]
pub fn default_wave_width() -> usize {
    std::thread::available_parallelism()
        .map_or(4, std::num::NonZeroUsize::get)
        .min(16)
}

/// Run `slot` over `items`, concurrently when `par` (and there is more
/// than one item). Returns each slot's output with its self-reported cost;
/// nothing is charged here — that is the caller's ([`Wave`]'s) job.
fn run_slots<I, T, F>(par: bool, items: Vec<I>, slot: &F) -> Vec<(T, Cost)>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> (T, Cost) + Sync,
{
    if par && items.len() > 1 {
        std::thread::scope(|s| {
            let handles: Vec<_> = items
                .into_iter()
                .enumerate()
                .map(|(k, item)| s.spawn(move || slot(k, item)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("wave slot worker panicked"))
                .collect()
        })
    } else {
        items
            .into_iter()
            .enumerate()
            .map(|(k, item)| slot(k, item))
            .collect()
    }
}

/// Always-parallel, ledger-free fan-out: run `f` over `items` on scoped
/// threads and return the outputs in item order. This is the scatter
/// primitive for I/O-bound callers with no [`Pram`] in scope (the cluster
/// router); cost-accounted compute belongs in [`Wave::superstep`] instead.
pub fn fan_out<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    run_slots(true, items, &|k, item| (f(k, item), Cost::default()))
        .into_iter()
        .map(|(out, _)| out)
        .collect()
}

/// A zero-width wave: a serial section that should appear in traces like
/// any other wave (store recovery, compaction). The span is inert unless
/// the caller installed an ambient scope; it records on drop, or with an
/// explicit cost via [`pardict_trace::ScopedSpan::finish`].
#[must_use]
pub fn section(name: &'static str, index: u64) -> pardict_trace::ScopedSpan {
    pardict_trace::scoped_span(name, index)
}

/// One open wave: the ledger snapshot and ambient trace span for one
/// round of an engine's outer loop. Obtain with [`Wave::open`], run one or
/// more [`superstep`]s (plus [`serial`] stitch rounds), then [`finish`] to
/// attribute the wave's ledger delta to its span.
///
/// [`superstep`]: Wave::superstep
/// [`serial`]: Wave::serial
/// [`finish`]: Wave::finish
pub struct Wave<'p> {
    pram: &'p Pram,
    span: pardict_trace::ScopedSpan,
    before: Cost,
}

impl<'p> Wave<'p> {
    /// Open a wave: check the ambient deadline, snapshot the ledger, and
    /// open the per-wave trace span (`name` disambiguated by `index`,
    /// conventionally the wave's first slot index).
    ///
    /// # Errors
    /// [`Cancelled`] when the ambient deadline has passed — the
    /// super-step-boundary cancellation point.
    pub fn open(pram: &'p Pram, name: &'static str, index: u64) -> Result<Self, Cancelled> {
        check_deadline()?;
        Ok(Self {
            pram,
            span: pardict_trace::scoped_span(name, index),
            before: pram.cost(),
        })
    }

    /// Run one super-step: every slot concurrently when the orchestrating
    /// context is parallel, each on its own terms (slots meter themselves,
    /// typically on a private `Pram::seq()`), then charge the caller's
    /// ledger exactly once — Σ slot work, max slot depth.
    pub fn superstep<I, T, F>(&self, items: Vec<I>, slot: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> (T, Cost) + Sync,
    {
        let slots = run_slots(self.pram.mode() == Mode::Par, items, &slot);
        self.charge(slots.iter().map(|(_, c)| *c));
        slots.into_iter().map(|(t, _)| t).collect()
    }

    /// Charge one already-run super-step: Σ work, max depth. Used by the
    /// pipelined driver, whose stage ran on a worker thread.
    fn charge(&self, costs: impl Iterator<Item = Cost>) {
        let total = costs.fold(Cost::default(), |a, c| a.beside(c));
        self.pram.ledger().charge_work(total.work);
        self.pram.ledger().charge_depth(total.depth);
    }

    /// Charge one serial round of `width` work between super-steps (e.g.
    /// the overlap-stitch copy in grep: sequential by necessity, O(wave
    /// bytes), one round).
    pub fn serial(&self, width: u64) {
        self.pram.ledger().round(width);
    }

    /// Close the wave: its span is attributed everything charged to the
    /// ledger since [`Wave::open`].
    pub fn finish(self) {
        let cost = self.pram.cost().since(self.before);
        self.span.finish(cost);
    }
}

/// Drive a full wave loop: `source` fetches the next wave's slot inputs
/// (serial, e.g. seekable I/O), `stage` is the per-slot super-step
/// function, and `sink` consumes each wave's stage outputs inside the
/// wave's span (serial stitching plus further [`Wave::superstep`]s).
///
/// With `pipelined` false this is the barrier schedule: source *k*, stage
/// *k*, sink *k*, source *k+1*, … With `pipelined` true, source *k+1*
/// overlaps stage *k* and stage *k+1* overlaps sink *k*, with the stage
/// running on one scoped worker thread (fanning out its slots when the
/// context is parallel). Both schedules make **identical ledger charges in
/// identical order** — stage *k* charged, then sink *k*'s charges, then
/// stage *k+1* — and record identical per-wave spans, so costs and traces
/// cannot tell the modes apart; only wall-clock can.
///
/// A `source` error observed while wave *k* is in flight is deferred until
/// wave *k* has been fully processed (matching the barrier order of
/// events); a `sink` error surfaces immediately and wins over a deferred
/// `source` error from the following wave.
///
/// # Errors
/// Whatever `source`/`sink` raise, plus [`Cancelled`] (converted into `E`)
/// when the ambient deadline expires at a wave boundary.
pub fn run_waves<I, M, E, FSrc, FStage, FSink>(
    pram: &Pram,
    name: &'static str,
    pipelined: bool,
    mut source: FSrc,
    stage: FStage,
    mut sink: FSink,
) -> Result<(), E>
where
    I: Send,
    M: Send,
    E: From<Cancelled>,
    FSrc: FnMut() -> Result<Option<(u64, Vec<I>)>, E>,
    FStage: Fn(usize, I) -> (M, Cost) + Sync,
    FSink: FnMut(&Wave<'_>, Vec<M>) -> Result<(), E>,
{
    if !pipelined {
        while let Some((index, items)) = source()? {
            let wave = Wave::open(pram, name, index)?;
            let outs = wave.superstep(items, &stage);
            sink(&wave, outs)?;
            wave.finish();
        }
        return Ok(());
    }
    let par = pram.mode() == Mode::Par;
    let stage = &stage;
    std::thread::scope(move |s| {
        let Some(first) = source()? else {
            return Ok(());
        };
        let spawn_stage = move |(index, items): (u64, Vec<I>)| {
            s.spawn(move || (index, run_slots(par, items, stage)))
        };
        let mut inflight = spawn_stage(first);
        loop {
            // Fetch wave k+1 while wave k's stage is in flight; defer any
            // error until wave k is fully processed and charged.
            let next = source();
            let (index, slots) = inflight.join().expect("wave stage worker panicked");
            let wave = Wave::open(pram, name, index)?;
            wave.charge(slots.iter().map(|(_, c)| *c));
            let outs: Vec<M> = slots.into_iter().map(|(m, _)| m).collect();
            let upcoming = match next {
                Ok(Some(w)) => Ok(Some(spawn_stage(w))),
                Ok(None) => Ok(None),
                Err(e) => Err(e),
            };
            sink(&wave, outs)?;
            wave.finish();
            match upcoming? {
                Some(h) => inflight = h,
                None => return Ok(()),
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardict_trace::{TraceConfig, Tracer};
    use std::sync::Arc;
    use std::time::Duration;

    fn slot_cost(w: u64, d: u64) -> Cost {
        Cost { work: w, depth: d }
    }

    #[test]
    fn superstep_charges_sum_work_max_depth() {
        for pram in [Pram::seq(), Pram::par()] {
            let wave = Wave::open(&pram, "test-wave", 0).unwrap();
            let outs = wave.superstep(vec![1u64, 2, 3], |k, x| {
                (x * 10, slot_cost(x, (k as u64) + 1))
            });
            assert_eq!(outs, vec![10, 20, 30]);
            wave.finish();
            let cost = pram.cost();
            assert_eq!(cost.work, 6, "sum of slot work");
            assert_eq!(cost.depth, 3, "max of slot depths");
        }
    }

    /// The pipelined schedule must charge exactly what the barrier
    /// schedule charges, deliver waves to the sink in order, and yield the
    /// same outputs — under both orchestration modes.
    #[test]
    fn pipelined_and_barrier_waves_are_cost_identical() {
        let run = |pram: &Pram, pipelined: bool| -> (Vec<u64>, Cost) {
            let waves: Vec<(u64, Vec<u64>)> = (0..5u64)
                .map(|w| (w * 3, (0..3).map(|i| w * 3 + i).collect()))
                .collect();
            let mut feed = waves.into_iter();
            let mut seen = Vec::new();
            let (_, cost) = pram.metered(|p| {
                run_waves::<u64, u64, Cancelled, _, _, _>(
                    p,
                    "test-wave",
                    pipelined,
                    || Ok(feed.next()),
                    |_, x| (x + 1, slot_cost(x + 1, x % 4)),
                    |wave, outs| {
                        wave.serial(outs.len() as u64);
                        seen.extend(outs);
                        Ok(())
                    },
                )
                .unwrap();
            });
            (seen, cost)
        };
        let (seq_b, seq_b_cost) = run(&Pram::seq(), false);
        let (seq_p, seq_p_cost) = run(&Pram::seq(), true);
        let (par_b, par_b_cost) = run(&Pram::par(), false);
        let (par_p, par_p_cost) = run(&Pram::par(), true);
        assert_eq!(seq_b, (1..=15).collect::<Vec<u64>>());
        assert_eq!(seq_b, seq_p);
        assert_eq!(seq_b, par_b);
        assert_eq!(seq_b, par_p);
        assert_eq!(seq_b_cost, seq_p_cost, "pipelining must not change cost");
        assert_eq!(seq_b_cost, par_b_cost, "mode must not change cost");
        assert_eq!(seq_b_cost, par_p_cost);
    }

    /// A source error seen while a wave is in flight surfaces only after
    /// that wave is fully processed, so both schedules leave the same
    /// ledger behind on the error path.
    #[test]
    fn source_errors_are_deferred_past_the_inflight_wave() {
        let run = |pipelined: bool| -> (Vec<u64>, Cost, bool) {
            let pram = Pram::par();
            let mut calls = 0u64;
            let mut seen = Vec::new();
            let (errored, cost) = pram.metered(|p| {
                let r = run_waves::<u64, u64, TestErr, _, _, _>(
                    p,
                    "test-wave",
                    pipelined,
                    || {
                        calls += 1;
                        match calls {
                            1 => Ok(Some((0, vec![5, 6]))),
                            _ => Err(TestErr),
                        }
                    },
                    |_, x| (x, slot_cost(x, 1)),
                    |_, outs| {
                        seen.extend(outs);
                        Ok(())
                    },
                );
                r.is_err()
            });
            (seen, cost, errored)
        };
        let (b_seen, b_cost, b_err) = run(false);
        let (p_seen, p_cost, p_err) = run(true);
        assert!(b_err && p_err);
        assert_eq!(b_seen, vec![5, 6], "wave 0 must complete before the error");
        assert_eq!(b_seen, p_seen);
        assert_eq!(b_cost, p_cost, "error paths must charge identically");
    }

    #[derive(Debug, PartialEq)]
    struct TestErr;
    impl From<Cancelled> for TestErr {
        fn from(_: Cancelled) -> Self {
            TestErr
        }
    }

    #[test]
    fn expired_deadline_cancels_at_the_wave_boundary() {
        let pram = Pram::seq();
        let past = Instant::now() - Duration::from_millis(1);
        let r = with_deadline(Some(past), || Wave::open(&pram, "test-wave", 0));
        assert_eq!(r.err(), Some(Cancelled));
        // Without a deadline (and outside with_deadline) waves open freely.
        assert!(Wave::open(&pram, "test-wave", 0).is_ok());
        let future = Instant::now() + Duration::from_secs(3600);
        assert!(with_deadline(Some(future), check_deadline).is_ok());
        // The previous ambient deadline is restored on exit.
        with_deadline(Some(past), || {
            assert!(check_deadline().is_err());
            with_deadline(None, || assert!(check_deadline().is_ok()));
            assert!(check_deadline().is_err());
        });
    }

    #[test]
    fn fan_out_preserves_item_order() {
        let got = fan_out((0..8u64).collect(), |k, x| {
            assert_eq!(k as u64, x);
            x * x
        });
        assert_eq!(got, (0..8u64).map(|x| x * x).collect::<Vec<_>>());
        assert_eq!(fan_out(Vec::<u64>::new(), |_, x: u64| x), Vec::<u64>::new());
    }

    /// One span per wave, named as the site chose, attributed the wave's
    /// ledger delta — and identical between barrier and pipelined runs.
    #[test]
    fn each_wave_records_one_ambient_span() {
        let spans_of = |pipelined: bool| {
            let t = Tracer::new(TraceConfig {
                sample_one_in: 1,
                capacity: 64,
                deterministic: true,
                seed: 7,
            });
            let t = Arc::new(t);
            let ctx = t.begin_trace().expect("sampled");
            let pram = Pram::seq();
            pardict_trace::with_scope(&t, ctx, || {
                let mut feed = (0..3u64)
                    .map(|w| (w, vec![w]))
                    .collect::<Vec<_>>()
                    .into_iter();
                run_waves::<u64, u64, Cancelled, _, _, _>(
                    &pram,
                    "exec-wave",
                    pipelined,
                    || Ok(feed.next()),
                    |_, x| (x, slot_cost(7, 2)),
                    |_, _| Ok(()),
                )
                .unwrap();
            });
            t.drain()
        };
        for pipelined in [false, true] {
            let spans = spans_of(pipelined);
            assert_eq!(spans.len(), 3, "pipelined={pipelined}");
            assert!(spans.iter().all(|s| s.name == "exec-wave"));
            assert!(spans.iter().all(|s| s.cost == slot_cost(7, 2)));
        }
    }
}
