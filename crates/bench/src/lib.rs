//! # pardict-bench — the experiment regenerator
//!
//! One entry point:
//! `cargo run --release -p pardict-bench --bin tables -- all [--quick]`
//! regenerates every scaling-sweep table in EXPERIMENTS.md (E1–E13): ledger
//! work/depth measurements plus wall-clock timings. Fixed-workload
//! end-to-end and per-layer numbers are the job of `benchmark/` at the
//! repository root, not of this crate.

use pardict_pram::{Cost, Mode, Pram};
use std::time::Instant;

/// Wall-clock + ledger measurement of one run.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Ledger cost of the run.
    pub cost: Cost,
    /// Wall-clock duration in milliseconds.
    pub wall_ms: f64,
}

/// Run `f` against `pram` and capture both ledger cost and wall time.
pub fn sample<R>(pram: &Pram, f: impl FnOnce(&Pram) -> R) -> (R, Sample) {
    let t0 = Instant::now();
    let (r, cost) = pram.metered(f);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    (r, Sample { cost, wall_ms })
}

/// [`sample`] on a fresh `Pram` in `mode`, once to warm up and then five
/// times: the median run by wall time, with its result and its cost (the
/// ledger is deterministic, so every run charges the same).
pub fn median_of_5<R>(mode: Mode, f: impl Fn(&Pram) -> R) -> (R, Sample) {
    let _ = sample(&Pram::new(mode), &f);
    let mut runs: Vec<(R, Sample)> = (0..5).map(|_| sample(&Pram::new(mode), &f)).collect();
    runs.sort_by(|a, b| a.1.wall_ms.total_cmp(&b.1.wall_ms));
    runs.swap_remove(2)
}

/// Work (or any count) per element.
#[must_use]
pub fn per(x: u64, n: usize) -> f64 {
    x as f64 / n as f64
}

/// Depth normalized by `log2 n`.
#[must_use]
pub fn per_log(x: u64, n: usize) -> f64 {
    x as f64 / f64::from(pardict_pram::ceil_log2(n.max(2)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_measures() {
        let pram = Pram::seq();
        let (_, s) = sample(&pram, |p| p.tabulate(1000, |i| i));
        assert_eq!(s.cost.work, 1000);
        assert!(s.wall_ms >= 0.0);
        assert!((per(1000, 500) - 2.0).abs() < 1e-9);
        assert!(per_log(20, 1 << 10) > 1.9);
        let (r, m) = median_of_5(Mode::Seq, |p| p.tabulate(10, |i| i).len());
        assert_eq!((r, m.cost.work), (10, 10));
    }
}
