#![warn(missing_docs)]

//! # pardict-exec — the wave loop over PDZS containers
//!
//! The paper's cost model is a sequence of *rounds of wide steps*: each
//! super-step runs many independent slots at once and is charged the
//! **sum of slot work** and the **maximum of slot depths** on the CRCW
//! PRAM ledger. That round has one implementation, [`Pram::superstep`]:
//! one lane per hart, slots narrower than the inline threshold run on the
//! calling thread, each slot meters itself on the private context it is
//! handed. This crate builds the loops around it:
//!
//! * [`run_waves`] — the two loops that walk a PDZS container, each as
//!   `source → stage → sink`: `stream::compress_stream` (read a wave of
//!   blocks → compress each → frame and write) and
//!   `StreamReader::decode_waves` (fetch a wave of payloads → decode each →
//!   hand the wave to the caller's sink). `read_range`, `copy_to` and
//!   `search::grep_range` are sinks of that one decode loop; grep's sink
//!   runs its match round as a second [`Pram::superstep`].
//! * [`fan_out`] — the cluster router's scatter (I/O-bound, no ledger).
//! * [`with_deadline`] — the service engine, around every request, so the
//!   loops above cancel at their next wave boundary.
//!
//! ## Vocabulary
//!
//! * A **slot** is one independent unit of a wave (one block to compress
//!   or decode, one buffer to match). It runs on the [`Pram`] the
//!   super-step hands it and charges that context, nothing else.
//! * A **wave** is one round of a loop's outer iteration: one stage
//!   super-step plus whatever its sink charges (serial stitching, further
//!   super-steps), wrapped in exactly one ambient trace span
//!   (`pardict_trace::scoped_span`) that is attributed the wave's full
//!   ledger delta. Seq and par orchestration charge *identically*, which
//!   is the workspace-wide mode-independence oracle.
//!
//! ## Schedule
//!
//! [`run_waves`] has one schedule: source *k*, stage super-step *k*, sink
//! *k*, then wave *k+1*. The only concurrency is inside a super-step, so
//! at most one wave of slot inputs and outputs is resident, and the ledger
//! sees the charges in loop order under either orchestration mode.
//!
//! ## Deadlines
//!
//! [`with_deadline`] installs an ambient deadline for the current thread;
//! every wave checks it before it starts, so long multi-wave operations
//! notice an expired deadline at the next super-step boundary and abort
//! with [`Cancelled`] instead of computing a result nobody is waiting for.

use pardict_pram::Pram;
/// The tracer crate the wave spans record to, re-exported for callers
/// (the store) whose only path to it is this crate.
pub use pardict_trace;
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
/// deadline; the next wave of a [`run_waves`] loop (and explicit
/// [`check_deadline`] calls) fail
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

/// Always-parallel, ledger-free fan-out: run `f` over `items` on one
/// scoped thread each and return the outputs in item order. This is the
/// scatter primitive for I/O-bound callers with no [`Pram`] in scope (the
/// cluster router, one range per shard): its threads mostly wait on
/// sockets, so it is the one fan-out deliberately not bounded by the hart
/// count. Cost-accounted compute belongs in [`Pram::superstep`] instead.
pub fn fan_out<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .into_iter()
            .enumerate()
            .map(|(k, item)| s.spawn(move || f(k, item)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fan-out worker panicked"))
            .collect()
    })
}

/// Drive a full wave loop: `source` fetches the next wave's slot inputs
/// (serial, e.g. seekable I/O), `stage` is the per-slot function of the
/// wave's [`Pram::superstep`] (each slot `width` elements wide, the number
/// that decides whether the super-step forks), and `sink` consumes each
/// wave's stage outputs, in slot order (serial stitching plus any further
/// super-steps, charged to the `pram` it captured). Each wave completes
/// before the next is fetched.
///
/// Each wave first checks the ambient deadline, then runs inside one trace
/// span named `name` and indexed by the source's wave index
/// (conventionally its first slot's), which is attributed everything the
/// wave charged to `pram` — also when the sink fails, so a refused
/// operation's trace still shows what it cost.
///
/// # Errors
/// Whatever `source`/`sink` raise, plus [`Cancelled`] (converted into `E`)
/// when the ambient deadline expires at a wave boundary.
pub fn run_waves<I, M, E, FSrc, FStage, FSink>(
    pram: &Pram,
    name: &'static str,
    width: usize,
    mut source: FSrc,
    stage: FStage,
    mut sink: FSink,
) -> Result<(), E>
where
    I: Send,
    M: Send,
    E: From<Cancelled>,
    FSrc: FnMut() -> Result<Option<(u64, Vec<I>)>, E>,
    FStage: Fn(&Pram, I) -> M + Sync,
    FSink: FnMut(Vec<M>) -> Result<(), E>,
{
    while let Some((index, items)) = source()? {
        check_deadline()?;
        let span = pardict_trace::scoped_span(name, index);
        let (done, cost) = pram.metered(|_| {
            let mut outs = Vec::with_capacity(items.len());
            pram.superstep(items, width, &stage, |_, m| outs.push(m));
            sink(outs)
        });
        span.finish(cost);
        done?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardict_pram::Cost;
    use pardict_trace::{SpanRecord, TraceConfig, Tracer};
    use std::time::Duration;

    fn slot_cost(w: u64, d: u64) -> Cost {
        Cost { work: w, depth: d }
    }

    /// A slot that charges `cost` to the context it is handed.
    fn charge(p: &Pram, cost: Cost) {
        p.ledger().charge_work(cost.work);
        p.ledger().charge_depth(cost.depth);
    }

    /// Run `f` under a fresh deterministic tracer and return its spans.
    fn traced(f: impl FnOnce()) -> Vec<SpanRecord> {
        let t = Tracer::new(TraceConfig {
            sample_one_in: 1,
            capacity: 64,
            deterministic: true,
            seed: 7,
        });
        let ctx = t.begin_trace().expect("sampled");
        pardict_trace::with_scope(&t, ctx, f);
        t.drain()
    }

    #[test]
    fn superstep_charges_sum_work_max_depth() {
        for pram in [Pram::seq(), Pram::par()] {
            let mut feed = Some((0, vec![1u64, 2, 3]));
            let mut outs = Vec::new();
            run_waves::<u64, u64, Cancelled, _, _, _>(
                &pram,
                "test-wave",
                1,
                || Ok(feed.take()),
                |p, x| {
                    charge(p, slot_cost(x, x));
                    x * 10
                },
                |wave| {
                    outs = wave;
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(outs, vec![10, 20, 30]);
            let cost = pram.cost();
            assert_eq!(cost.work, 6, "sum of slot work");
            assert_eq!(cost.depth, 3, "max of slot depths");
        }
    }

    /// A multi-wave loop whose sink charges too: seq and par orchestration
    /// deliver the same waves in order and charge the same ledger.
    #[test]
    fn seq_and_par_waves_are_cost_identical() {
        let run = |pram: &Pram| -> (Vec<u64>, Cost) {
            let mut feed = (0..5u64).map(|w| (w * 3, (0..3).map(|i| w * 3 + i).collect()));
            let mut seen = Vec::new();
            let (_, cost) = pram.metered(|p| {
                run_waves::<u64, u64, Cancelled, _, _, _>(
                    p,
                    "test-wave",
                    1,
                    || Ok(feed.next()),
                    |q, x| {
                        charge(q, slot_cost(x + 1, x % 4));
                        x + 1
                    },
                    |outs| {
                        p.ledger().round(outs.len() as u64);
                        seen.extend(outs);
                        Ok(())
                    },
                )
                .unwrap();
            });
            (seen, cost)
        };
        let (seq, seq_cost) = run(&Pram::seq());
        let (par, par_cost) = run(&Pram::par());
        assert_eq!(seq, (1..=15).collect::<Vec<u64>>());
        assert_eq!(seq, par);
        assert_eq!(seq_cost, par_cost, "mode must not change cost");
    }

    /// A source error ends the loop after the waves before it were fully
    /// processed and charged; nothing of the failed fetch is charged.
    #[test]
    fn a_source_error_stops_the_loop_at_the_next_fetch() {
        let pram = Pram::par();
        let mut calls = 0u64;
        let mut seen = Vec::new();
        let (result, cost) = pram.metered(|p| {
            run_waves::<u64, u64, TestErr, _, _, _>(
                p,
                "test-wave",
                1,
                || {
                    calls += 1;
                    match calls {
                        1 => Ok(Some((0, vec![5, 6]))),
                        _ => Err(TestErr),
                    }
                },
                |q, x| {
                    charge(q, slot_cost(x, 1));
                    x
                },
                |outs| {
                    seen.extend(outs);
                    Ok(())
                },
            )
        });
        assert_eq!(result, Err(TestErr));
        assert_eq!(seen, vec![5, 6], "wave 0 must complete before the error");
        assert_eq!(cost, slot_cost(11, 1));
    }

    /// A wave whose sink fails keeps its charges on the ledger and in its
    /// span, so a refused operation is explainable from its trace.
    #[test]
    fn a_failed_wave_span_carries_its_cost() {
        let pram = Pram::seq();
        let mut result = Ok(());
        let spans = traced(|| {
            let mut feed = Some((0, vec![0u64]));
            result = run_waves::<u64, u64, TestErr, _, _, _>(
                &pram,
                "test-wave",
                1,
                || Ok(feed.take()),
                |p, x| {
                    charge(p, slot_cost(9, 3));
                    x
                },
                |_| Err(TestErr),
            );
        });
        assert_eq!(result, Err(TestErr));
        assert_eq!(pram.cost(), slot_cost(9, 3));
        assert_eq!(spans.len(), 1);
        assert_eq!(
            spans[0].cost,
            slot_cost(9, 3),
            "the span lost the wave's cost"
        );
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
        let one_wave = || {
            let mut feed = Some((0, vec![1u64]));
            run_waves::<u64, u64, Cancelled, _, _, _>(
                &pram,
                "test-wave",
                1,
                || Ok(feed.take()),
                |_, x| x,
                |_| Ok(()),
            )
        };
        assert_eq!(with_deadline(Some(past), one_wave), Err(Cancelled));
        // Without a deadline (and outside with_deadline) waves open freely.
        assert!(one_wave().is_ok());
        let future = Instant::now() + Duration::from_secs(3600);
        assert!(with_deadline(Some(future), check_deadline).is_ok());
        // The previous ambient deadline is restored on exit.
        with_deadline(Some(past), || {
            assert!(check_deadline().is_err());
            with_deadline(None, || assert!(check_deadline().is_ok()));
            assert!(check_deadline().is_err());
        });
    }

    /// A wave wider than the machine runs on at most one lane per hart:
    /// slots queue behind their lane instead of each getting a thread.
    #[test]
    fn a_wave_runs_on_at_most_one_lane_per_hart() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let running = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let mut feed = Some((0, (0..8u64).collect::<Vec<_>>()));
        run_waves::<u64, u64, Cancelled, _, _, _>(
            &Pram::par(),
            "test-wave",
            1 << 20,
            || Ok(feed.take()),
            |_, x| {
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(20));
                running.fetch_sub(1, Ordering::SeqCst);
                x
            },
            |_| Ok(()),
        )
        .unwrap();
        let peak = peak.into_inner();
        assert!(
            (1..=pardict_pram::harts()).contains(&peak),
            "{peak} slots ran at once"
        );
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
    /// ledger delta.
    #[test]
    fn each_wave_records_one_ambient_span() {
        let pram = Pram::seq();
        let spans = traced(|| {
            let mut feed = (0..3u64).map(|w| (w, vec![w]));
            run_waves::<u64, u64, Cancelled, _, _, _>(
                &pram,
                "exec-wave",
                1,
                || Ok(feed.next()),
                |p, x| {
                    charge(p, slot_cost(7, 2));
                    x
                },
                |_| Ok(()),
            )
            .unwrap();
        });
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.name == "exec-wave"));
        assert!(spans.iter().all(|s| s.cost == slot_cost(7, 2)));
    }
}
