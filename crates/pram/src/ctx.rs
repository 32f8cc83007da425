//! The PRAM execution context: wide synchronous rounds over slices.

use crate::ledger::{Cost, Ledger};
use rayon::prelude::*;

/// Execution policy for the wide rounds.
///
/// Both modes produce *identical results and identical ledger costs*; `Par`
/// merely runs each round's body on the rayon thread pool for wall-clock
/// speed. Tests default to `Seq` for determinism of timing-independent
/// behaviour; benches sweep both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Run rounds as plain sequential loops.
    #[default]
    Seq,
    /// Run rounds on the global rayon pool.
    Par,
}

/// Threshold below which `Par` rounds fall back to sequential loops: rayon
/// task spawning costs more than the loop itself for tiny inputs.
const PAR_THRESHOLD: usize = 2048;

/// The hardware threads a super-step may occupy: one per hart, capped at
/// 16 as the rayon pool is. The one hart count in the workspace — the
/// container waves' default width reads it too.
#[must_use]
pub fn harts() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(16)
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

    /// Rayon-backed PRAM.
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

    #[inline]
    fn run_par(&self, n: usize) -> bool {
        self.mode == Mode::Par && n >= PAR_THRESHOLD
    }

    /// One wide round: `out[i] = f(i)` for `i in 0..n`, depth 1, work `n`.
    pub fn tabulate<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync + Send,
    {
        self.ledger.round(n as u64);
        if self.run_par(n) {
            (0..n).into_par_iter().map(f).collect()
        } else {
            (0..n).map(f).collect()
        }
    }

    /// One wide round mapping a slice: depth 1, work `xs.len()`.
    pub fn map<T, U, F>(&self, xs: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync + Send,
    {
        self.ledger.round(xs.len() as u64);
        if self.run_par(xs.len()) {
            xs.par_iter().enumerate().map(|(i, x)| f(i, x)).collect()
        } else {
            xs.iter().enumerate().map(|(i, x)| f(i, x)).collect()
        }
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
        let (out, work, depth): (Vec<T>, u64, u64) = if self.run_par(n) {
            let pairs: Vec<(T, u64)> = (0..n).into_par_iter().map(f).collect();
            let work = pairs.iter().map(|p| p.1).sum();
            let depth = pairs.iter().map(|p| p.1).max().unwrap_or(0);
            (pairs.into_iter().map(|p| p.0).collect(), work, depth)
        } else {
            let mut work = 0u64;
            let mut depth = 0u64;
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                let (v, c) = f(i);
                work += c;
                depth = depth.max(c);
                out.push(v);
            }
            (out, work, depth)
        };
        self.ledger.charge_work(work.max(n as u64));
        self.ledger.charge_depth(depth.max(1));
        out
    }

    /// One super-step over `items`, independent sub-computations whose own
    /// rounds are `width` wide: the task for item `i` meters itself on a
    /// private `Pram`, `sink` receives the results in item order on the
    /// calling thread, and this ledger is charged once — Σ task work,
    /// **max** task depth — in either mode and on any machine.
    ///
    /// A `Par` context with at least two items of at least the inline
    /// threshold's width runs them on `min(items, harts())` scoped threads,
    /// thread `t` taking items `t, t + threads, …` and handing each result
    /// over before it starts the next, so no more than `threads + 1`
    /// results exist at once however many items there are. With an item
    /// per hart the private contexts are sequential; with harts to spare
    /// they inherit this context's mode so a task's rounds can use them.
    pub fn superstep<I, R, F, S>(&self, items: Vec<I>, width: usize, task: F, mut sink: S)
    where
        I: Send,
        R: Send,
        F: Fn(&Pram, I) -> R + Sync,
        S: FnMut(usize, R),
    {
        let tasks = items.len();
        let harts = harts();
        let threads = if self.run_par(width) {
            tasks.min(harts)
        } else {
            1
        };
        let mut total = Cost::default();
        if threads < 2 {
            for (i, item) in items.into_iter().enumerate() {
                let private = Pram::new(self.mode);
                sink(i, task(&private, item));
                total = total.beside(private.cost());
            }
        } else {
            let mode = if tasks >= harts { Mode::Seq } else { self.mode };
            let mut lanes: Vec<Vec<I>> = (0..threads).map(|_| Vec::new()).collect();
            for (i, item) in items.into_iter().enumerate() {
                lanes[i % threads].push(item);
            }
            let task = &task;
            std::thread::scope(|s| {
                let lanes: Vec<_> = lanes
                    .into_iter()
                    .map(|lane| {
                        let (tx, rx) = std::sync::mpsc::sync_channel(0);
                        s.spawn(move || {
                            for item in lane {
                                let private = Pram::new(mode);
                                let r = task(&private, item);
                                // The receiver only goes away when the
                                // caller is unwinding; stop quietly.
                                if tx.send((r, private.cost())).is_err() {
                                    break;
                                }
                            }
                        });
                        rx
                    })
                    .collect();
                for i in 0..tasks {
                    let (r, cost) = lanes[i % threads].recv().expect("superstep task panicked");
                    total = total.beside(cost);
                    sink(i, r);
                }
            });
        }
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
        if self.run_par(xs.len()) {
            xs.par_iter_mut().enumerate().for_each(|(i, x)| f(i, x));
        } else {
            xs.iter_mut().enumerate().for_each(|(i, x)| f(i, x));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tabulate_matches_seq_and_par() {
        let s = Pram::seq();
        let p = Pram::par();
        let n = 5000;
        let a = s.tabulate(n, |i| i * i);
        let b = p.tabulate(n, |i| i * i);
        assert_eq!(a, b);
        assert_eq!(s.cost(), p.cost());
    }

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
        let width = 3000; // above the inline threshold: `par` really forks
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

    #[test]
    fn par_paths_above_threshold_match_seq() {
        // Exercise every Par code path with n > PAR_THRESHOLD.
        let n = 3000;
        let s = Pram::seq();
        let p = Pram::par();
        let xs: Vec<u64> = (0..n as u64).collect();
        assert_eq!(
            s.map(&xs, |i, &x| x * 2 + i as u64),
            p.map(&xs, |i, &x| x * 2 + i as u64)
        );
        assert_eq!(
            s.tabulate_costed(n, |i| (i * 3, 2)),
            p.tabulate_costed(n, |i| (i * 3, 2))
        );
        let mut a = xs.clone();
        let mut b = xs.clone();
        s.for_each_mut(&mut a, |i, x| *x += i as u64);
        p.for_each_mut(&mut b, |i, x| *x += i as u64);
        assert_eq!(a, b);
        assert_eq!(s.cost(), p.cost());
    }
}
