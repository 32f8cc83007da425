//! The PRAM execution context: wide synchronous rounds over slices.

use crate::ledger::{Cost, Ledger};
use std::ops::Range;

/// Execution policy for the wide rounds.
///
/// Both modes produce *identical results and identical ledger costs*; `Par`
/// merely forks wide rounds on scoped threads for wall-clock speed. Tests
/// default to `Seq` for determinism of timing-independent behaviour; benches
/// sweep both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Run rounds as plain sequential loops.
    #[default]
    Seq,
    /// Fork rounds of at least 4 096 units on scoped threads.
    Par,
}

/// The units a `Par` round needs before it leaves the calling thread: items
/// for a round, blocks for a scan, width for a super-step. Below it a fork
/// costs more than the loop itself.
pub(crate) const PAR_THRESHOLD: usize = 4096;

/// The hardware threads a fork may occupy: one per hart, capped at 16. The
/// one hart count in the workspace — the container waves' default width and
/// the service's worker count read it too.
#[must_use]
pub fn harts() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(16)
}

/// The one fork-join in `pram`: `job` runs on its own scoped thread for
/// each input while `here` runs on the calling thread. Returns `here`'s
/// result and the jobs' results in input order; a job's panic resumes on
/// the caller. Threads never see a ledger, so forking changes no cost.
fn fork<I, R, H>(
    inputs: Vec<I>,
    job: impl Fn(I) -> R + Sync,
    here: impl FnOnce() -> H,
) -> (H, Vec<R>)
where
    I: Send,
    R: Send,
{
    let job = &job;
    std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .into_iter()
            .map(|input| s.spawn(move || job(input)))
            .collect();
        let mine = here();
        let theirs = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect();
        (mine, theirs)
    })
}

/// The parts in order as one vector; a lone part is returned as it is.
pub(crate) fn concat<T>(mut parts: Vec<Vec<T>>) -> Vec<T> {
    if parts.len() == 1 {
        return parts.pop().unwrap_or_default();
    }
    let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for part in parts {
        out.extend(part);
    }
    out
}

/// The simulated arbitrary-CRCW PRAM.
///
/// All parallel algorithms in the workspace take a `&Pram` and express
/// themselves through its primitives; the embedded [`Ledger`] then reports
/// the work/depth the paper's theorems bound.
#[derive(Debug, Default)]
pub struct Pram {
    ledger: Ledger,
    mode: Mode,
}

impl Pram {
    /// A fresh PRAM with the given execution policy.
    #[must_use]
    pub fn new(mode: Mode) -> Self {
        Self {
            ledger: Ledger::new(),
            mode,
        }
    }

    /// Sequential-execution PRAM (costs identical to `Par`).
    #[must_use]
    pub fn seq() -> Self {
        Self::new(Mode::Seq)
    }

    /// PRAM whose wide rounds fork on scoped threads.
    #[must_use]
    pub fn par() -> Self {
        Self::new(Mode::Par)
    }

    /// Execution policy.
    #[must_use]
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The cost ledger.
    #[must_use]
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Accumulated cost so far.
    #[must_use]
    pub fn cost(&self) -> Cost {
        self.ledger.cost()
    }

    /// Run `f` and return its result together with the cost it incurred.
    pub fn metered<R>(&self, f: impl FnOnce(&Self) -> R) -> (R, Cost) {
        let before = self.cost();
        let r = f(self);
        (r, self.cost().since(before))
    }

    /// The threads a round of `units` may occupy: one per hart under `Par`
    /// from the threshold on, otherwise 1 (the calling thread).
    fn threads_for(&self, units: usize) -> usize {
        if self.mode == Mode::Par && units >= PAR_THRESHOLD {
            harts()
        } else {
            1
        }
    }

    /// `job` over the index space `0..n`, one result per part. When `n`
    /// units fork, the space is cut into one contiguous range per hart, each
    /// on its own thread; otherwise the one part `job(0..n)` runs inline.
    /// Charges nothing: the caller does.
    pub(crate) fn in_parts<R, F>(&self, n: usize, job: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        let threads = self.threads_for(n);
        if threads < 2 {
            return vec![job(0..n)];
        }
        let chunk = n.div_ceil(threads);
        let ranges = (0..n).step_by(chunk).map(|lo| lo..(lo + chunk).min(n));
        fork(ranges.collect(), job, || ()).1
    }

    /// One wide round: `out[i] = f(i)` for `i in 0..n`, depth 1, work `n`.
    pub fn tabulate<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync + Send,
    {
        self.ledger.round(n as u64);
        concat(self.in_parts(n, |r| r.map(&f).collect()))
    }

    /// One wide round mapping a slice: depth 1, work `xs.len()`.
    pub fn map<T, U, F>(&self, xs: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync + Send,
    {
        self.ledger.round(xs.len() as u64);
        concat(self.in_parts(xs.len(), |r| r.map(|i| f(i, &xs[i])).collect()))
    }

    /// One wide round with *per-element variable cost*: the closure returns
    /// `(value, ops)` and the ledger is charged the summed `ops` as work and
    /// the **maximum** `ops` as depth (on a PRAM the round lasts as long as
    /// its slowest processor).
    pub fn tabulate_costed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> (T, u64) + Sync + Send,
    {
        let parts = self.in_parts(n, |r| {
            let (mut work, mut depth) = (0u64, 0u64);
            let out: Vec<T> = r
                .map(|i| {
                    let (v, c) = f(i);
                    work += c;
                    depth = depth.max(c);
                    v
                })
                .collect();
            (out, work, depth)
        });
        let work: u64 = parts.iter().map(|p| p.1).sum();
        let depth = parts.iter().map(|p| p.2).max().unwrap_or(0);
        self.ledger.charge_work(work.max(n as u64));
        self.ledger.charge_depth(depth.max(1));
        concat(parts.into_iter().map(|p| p.0).collect())
    }

    /// One super-step over `items`, independent sub-computations whose own
    /// rounds are `width` wide: the task for item `i` meters itself on a
    /// private `Pram`, `sink` receives the results in item order on the
    /// calling thread, and this ledger is charged once — Σ task work,
    /// **max** task depth — in either mode and on any machine.
    ///
    /// A `Par` context with at least two items and a `width` that forks
    /// runs them on `min(items, harts())` lanes, lane `t` taking items
    /// `t, t + lanes, …` and handing each result over before it starts the
    /// next, so no more than `lanes + 1` results exist at once however many
    /// items there are. With an item per hart the private contexts are
    /// sequential; with harts to spare they inherit this context's mode so
    /// a task's rounds can use them.
    pub fn superstep<I, R, F, S>(&self, items: Vec<I>, width: usize, task: F, mut sink: S)
    where
        I: Send,
        R: Send,
        F: Fn(&Pram, I) -> R + Sync,
        S: FnMut(usize, R),
    {
        let tasks = items.len();
        let room = self.threads_for(width);
        let threads = tasks.min(room);
        let total = if threads < 2 {
            let mut total = Cost::default();
            for (i, item) in items.into_iter().enumerate() {
                let private = Pram::new(self.mode);
                sink(i, task(&private, item));
                total = total.beside(private.cost());
            }
            total
        } else {
            let mode = if tasks >= room { Mode::Seq } else { self.mode };
            let (senders, receivers): (Vec<_>, Vec<_>) = (0..threads)
                .map(|_| std::sync::mpsc::sync_channel(0))
                .unzip();
            let mut lanes: Vec<(Vec<I>, _)> =
                senders.into_iter().map(|tx| (Vec::new(), tx)).collect();
            for (i, item) in items.into_iter().enumerate() {
                lanes[i % threads].0.push(item);
            }
            let run_lane = |(lane, tx): (Vec<I>, std::sync::mpsc::SyncSender<_>)| {
                for item in lane {
                    let private = Pram::new(mode);
                    let r = task(&private, item);
                    // The receiver only goes away when the caller stops
                    // receiving; stop quietly.
                    if tx.send((r, private.cost())).is_err() {
                        break;
                    }
                }
            };
            // The receivers move into the calling thread's half, so they
            // are gone, and the lanes stop, as soon as it returns or unwinds.
            let sink = &mut sink;
            let receive = move || {
                let mut total = Cost::default();
                for i in 0..tasks {
                    // A closed lane panicked; the join resumes its panic.
                    let Ok((r, cost)) = receivers[i % threads].recv() else {
                        break;
                    };
                    total = total.beside(cost);
                    sink(i, r);
                }
                total
            };
            fork(lanes, run_lane, receive).0
        };
        self.ledger.charge_work(total.work);
        self.ledger.charge_depth(total.depth);
    }

    /// One wide round updating a mutable slice in place: `f(i, &mut xs[i])`.
    pub(crate) fn for_each_mut<T, F>(&self, xs: &mut [T], f: F)
    where
        T: Send + Sync,
        F: Fn(usize, &mut T) + Sync + Send,
    {
        self.ledger.round(xs.len() as u64);
        let update = |(lo, part): (usize, &mut [T])| {
            for (i, x) in part.iter_mut().enumerate() {
                f(lo + i, x);
            }
        };
        let threads = self.threads_for(xs.len());
        if threads > 1 {
            let chunk = xs.len().div_ceil(threads);
            let parts = xs.chunks_mut(chunk).enumerate();
            fork(
                parts.map(|(k, part)| (k * chunk, part)).collect(),
                update,
                || (),
            );
        } else {
            update((0, xs));
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    #[test]
    fn map_is_one_round() {
        let pram = Pram::seq();
        let xs = vec![1u32, 2, 3];
        let ys = pram.map(&xs, |i, &x| x + i as u32);
        assert_eq!(ys, vec![1, 3, 5]);
        assert_eq!(pram.cost(), Cost { work: 3, depth: 1 });
    }

    #[test]
    fn tabulate_costed_charges_max_as_depth() {
        let pram = Pram::seq();
        let out = pram.tabulate_costed(4, |i| (i, (i as u64 + 1) * 10));
        assert_eq!(out, vec![0, 1, 2, 3]);
        let c = pram.cost();
        assert_eq!(c.work, 10 + 20 + 30 + 40);
        assert_eq!(c.depth, 40);
    }

    /// Task `i` of a test super-step: `i + 1` rounds of `width` elements.
    fn rounds(p: &Pram, i: usize, width: usize) -> usize {
        (0..=i).map(|_| p.tabulate(width, |x| x).len()).sum()
    }

    #[test]
    fn superstep_charges_summed_work_and_max_depth_in_both_modes() {
        let width = PAR_THRESHOLD; // `par` really forks
        for k in [1usize, 2, 5] {
            let want = Cost {
                work: (1..=k).map(|i| (i * width) as u64).sum(),
                depth: k as u64,
            };
            for pram in [Pram::seq(), Pram::par()] {
                pram.tabulate(7, |i| i); // the charge adds to what is there
                let mut got = Vec::new();
                let ((), cost) = pram.metered(|p| {
                    p.superstep(
                        (0..k).collect(),
                        width,
                        |q, i| rounds(q, i, width),
                        |i, r| got.push((i, r)),
                    );
                });
                assert_eq!(cost, want, "k={k} {:?}", pram.mode());
                let in_order: Vec<_> = (0..k).map(|i| (i, (i + 1) * width)).collect();
                assert_eq!(got, in_order);
            }
        }
    }

    #[test]
    fn superstep_is_inline_below_the_threshold_and_in_seq_mode() {
        let here = std::thread::current().id();
        for (pram, width) in [(Pram::par(), PAR_THRESHOLD - 1), (Pram::seq(), 1 << 20)] {
            pram.superstep(
                vec![(); 5],
                width,
                |_, ()| std::thread::current().id(),
                |_, ran_on| assert_eq!(ran_on, here),
            );
        }
        // Above it, with a hart to spare, the tasks leave the calling thread.
        if harts() > 1 {
            Pram::par().superstep(
                vec![(); 5],
                PAR_THRESHOLD,
                |_, ()| std::thread::current().id(),
                |_, ran_on| assert_ne!(ran_on, here),
            );
        }
    }

    #[test]
    fn for_each_mut_updates_in_place() {
        let pram = Pram::seq();
        let mut xs = vec![1, 2, 3, 4];
        pram.for_each_mut(&mut xs, |i, x| *x += i as i32);
        assert_eq!(xs, vec![1, 3, 5, 7]);
    }

    #[test]
    fn metered_reports_delta() {
        let pram = Pram::seq();
        pram.tabulate(10, |i| i);
        let (_, cost) = pram.metered(|p| p.tabulate(100, |i| i));
        assert_eq!(
            cost,
            Cost {
                work: 100,
                depth: 1
            }
        );
    }

    /// The threads `round` ran its closures on: `round` calls the probe it
    /// is handed from inside them.
    pub(crate) fn ran_on(round: impl FnOnce(&(dyn Fn() + Sync))) -> HashSet<ThreadId> {
        let seen = Mutex::new(HashSet::new());
        round(&|| {
            seen.lock().unwrap().insert(std::thread::current().id());
        });
        seen.into_inner().unwrap()
    }

    /// Whether a `Par` round of `units` must fork on this machine.
    pub(crate) fn must_fork(units: usize) -> bool {
        units >= PAR_THRESHOLD && harts() > 1
    }

    #[test]
    fn par_paths_match_seq_and_fork_from_the_threshold() {
        let here = std::thread::current().id();
        for n in [PAR_THRESHOLD - 1, PAR_THRESHOLD, PAR_THRESHOLD + 1] {
            let s = Pram::seq();
            let p = Pram::par();
            let xs: Vec<u64> = (0..n as u64).collect();
            let mut sides = Vec::new();

            let want = s.tabulate(n, |i| i * 3 + 1);
            sides.push(ran_on(|probe| {
                let got = p.tabulate(n, |i| {
                    probe();
                    i * 3 + 1
                });
                assert_eq!(got, want, "tabulate n={n}");
            }));

            let want = s.map(&xs, |i, &x| x * 2 + i as u64);
            sides.push(ran_on(|probe| {
                let got = p.map(&xs, |i, &x| {
                    probe();
                    x * 2 + i as u64
                });
                assert_eq!(got, want, "map n={n}");
            }));

            let want = s.tabulate_costed(n, |i| (i * 3, i as u64 % 7));
            sides.push(ran_on(|probe| {
                let got = p.tabulate_costed(n, |i| {
                    probe();
                    (i * 3, i as u64 % 7)
                });
                assert_eq!(got, want, "tabulate_costed n={n}");
            }));

            let mut want = xs.clone();
            s.for_each_mut(&mut want, |i, x| *x = *x * 2 + i as u64);
            sides.push(ran_on(|probe| {
                let mut got = xs.clone();
                p.for_each_mut(&mut got, |i, x| {
                    probe();
                    *x = *x * 2 + i as u64;
                });
                assert_eq!(got, want, "for_each_mut n={n}");
            }));

            assert_eq!(s.cost(), p.cost(), "n={n}");
            for seen in sides {
                if must_fork(n) {
                    assert!(!seen.contains(&here), "n={n} stayed on the calling thread");
                } else {
                    assert_eq!(seen, HashSet::from([here]), "n={n} left the calling thread");
                }
            }
        }
    }
}
