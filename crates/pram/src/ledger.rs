//! Work/depth accounting.

use std::cell::Cell;

/// A snapshot of accumulated PRAM cost.
///
/// `work` is the total number of element-operations executed; `depth` is the
/// number of dependent synchronous rounds (the PRAM time). Both are counted
/// from what the primitives *actually executed*, not from closed-form
/// formulas, so plotting `work / n` and `depth / log n` against `n` gives an
/// empirical check of the paper's optimality claims.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cost {
    /// Total element-operations.
    pub work: u64,
    /// Dependent rounds (parallel time).
    pub depth: u64,
}

impl Cost {
    /// Component-wise difference `self - earlier`; saturates at zero.
    #[must_use]
    pub fn since(&self, earlier: Cost) -> Cost {
        Cost {
            work: self.work.saturating_sub(earlier.work),
            depth: self.depth.saturating_sub(earlier.depth),
        }
    }

    /// Component-wise sum.
    #[must_use]
    pub fn plus(&self, other: Cost) -> Cost {
        Cost {
            work: self.work + other.work,
            depth: self.depth + other.depth,
        }
    }

    /// Cost of `self` and `other` run side by side in one super-step: the
    /// work adds up, the depth is the deeper of the two.
    #[must_use]
    pub fn beside(&self, other: Cost) -> Cost {
        Cost {
            work: self.work + other.work,
            depth: self.depth.max(other.depth),
        }
    }

    /// True when this cost can account for `other` in both components.
    /// Span-cost bookkeeping relies on this: a parent span's inclusive
    /// cost must dominate the sum of its children's costs.
    #[must_use]
    pub fn dominates(&self, other: Cost) -> bool {
        self.work >= other.work && self.depth >= other.depth
    }
}

/// Interior-mutable work/depth counters.
///
/// The ledger lives on the orchestrating thread: primitives charge bulk
/// costs before/after dispatching their parallel bodies, so no atomics are
/// needed on the hot path (`Cell` keeps the type `!Sync`, which is exactly
/// right — worker threads never see it).
#[derive(Debug, Default)]
pub struct Ledger {
    work: Cell<u64>,
    depth: Cell<u64>,
}

impl Ledger {
    /// A fresh ledger with zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `w` units of work without advancing time.
    #[inline]
    pub fn charge_work(&self, w: u64) {
        self.work.set(self.work.get() + w);
    }

    /// Advance time by `d` rounds without charging work.
    #[inline]
    pub fn charge_depth(&self, d: u64) {
        self.depth.set(self.depth.get() + d);
    }

    /// One synchronous round of width `w`: `w` work, one unit of depth.
    #[inline]
    pub fn round(&self, w: u64) {
        self.charge_work(w);
        self.charge_depth(1);
    }

    /// A sequential loop of `ops` operations: `ops` work and `ops` depth.
    #[inline]
    pub fn sequential(&self, ops: u64) {
        self.charge_work(ops);
        self.charge_depth(ops);
    }

    /// Current accumulated cost.
    #[inline]
    pub fn cost(&self) -> Cost {
        Cost {
            work: self.work.get(),
            depth: self.depth.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_charges_work_and_depth() {
        let l = Ledger::new();
        l.round(10);
        l.round(5);
        assert_eq!(l.cost(), Cost { work: 15, depth: 2 });
    }

    #[test]
    fn charge_work_leaves_depth() {
        let l = Ledger::new();
        l.charge_work(7);
        assert_eq!(l.cost(), Cost { work: 7, depth: 0 });
    }

    #[test]
    fn cost_since_subtracts() {
        let l = Ledger::new();
        l.round(10);
        let before = l.cost();
        l.round(3);
        l.round(3);
        let delta = l.cost().since(before);
        assert_eq!(delta, Cost { work: 6, depth: 2 });
    }

    #[test]
    fn plus_adds() {
        let a = Cost { work: 1, depth: 2 };
        let b = Cost {
            work: 10,
            depth: 20,
        };
        assert_eq!(
            a.plus(b),
            Cost {
                work: 11,
                depth: 22
            }
        );
    }
}
